#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bist/resilient_sweep.hpp"
#include "common/status.hpp"

namespace pllbist::core {

/// Schema identifier of the checkpoint journal (first line of every file).
/// Version 2: a record's sim_time_s and bench counters cover only its
/// point's work after the farm's shared prelude (version 1 records each
/// included a prelude of their own, so mixing them would count it twice).
/// Version 3: a record also carries the loop's work units (`loop` block);
/// its kernel counts are lower than a version 2 record's for the same
/// point, since the loop runs ahead between queued events.
inline constexpr const char* kCheckpointSchema = "pllbist.checkpoint/3";

/// Journal header: identifies the campaign the records belong to. The
/// config digest (FNV-1a over core::canonicalConfigString) is the identity
/// check on resume — a journal written for a different device or sweep is
/// rejected, never silently merged.
struct CheckpointHeader {
  std::string tool;      ///< producing binary, e.g. "sweep_cli"
  std::string device;    ///< preset name ("reference", "fast", ...)
  std::string stimulus;  ///< stimulus kind name
  uint64_t config_digest = 0;
  std::size_t points_total = 0;  ///< campaign size; record indices are < this
};

/// One committed point: the single-point result the farm hands its
/// journal sink, under its campaign index. Stored: the measurement and
/// classification, the nominal and DC reference, the engine's relocks,
/// relock failures, simulated seconds and kernel/loop/fault counters after the
/// fork; the quality counts are rebuilt from the point on load. Not
/// stored: the run's `status`, `breaker_open` and `report.wall_time_s`.
/// A record is only appended after its point reached a terminal
/// classification (Cancelled points are *not* terminal: they re-run on
/// resume).
struct CheckpointRecord {
  std::size_t index = 0;  ///< position in the campaign's frequency list
  bist::ResilientResponse result;  ///< exactly one point in result.response.points
};

/// Result of loading a journal: header, the unique committed records
/// (keep-first on duplicate indices), and crash forensics. `clean_bytes`
/// is the end of the last complete record — a resume-append truncates the
/// file there before writing, repairing a torn tail in place.
struct JournalLoadResult {
  CheckpointHeader header;
  std::vector<CheckpointRecord> records;
  bool torn_tail = false;  ///< a truncated/corrupt final line was discarded
  std::size_t clean_bytes = 0;
  std::size_t duplicates_ignored = 0;
};

/// Parse + validate journal text. Fail-closed contract: a malformed
/// header, a corrupt non-final line, or an out-of-range index returns
/// InvalidArgument (resume must refuse, not guess); only a torn *final*
/// line — the signature of a mid-append crash — is recoverable, reported
/// via torn_tail with the line discarded.
[[nodiscard]] Status parseJournal(std::string_view text, JournalLoadResult& out);

/// Read + parseJournal a file.
[[nodiscard]] Status loadJournal(const std::string& path, JournalLoadResult& out);

/// Verify a loaded journal belongs to this campaign: schema is checked at
/// parse time, this checks digest and campaign size. Used by Campaign
/// resume and the report_check selftest.
[[nodiscard]] Status checkJournalHeader(const CheckpointHeader& loaded, uint64_t expected_digest,
                                        std::size_t expected_points);

/// Append-only JSONL writer with one fsync per record: a record is either
/// durably complete on disk or (after a crash mid-write) a torn final line
/// the loader discards — the write-ahead property the resume semantics
/// rest on.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Create (truncate) `path` and write the fsync'd header line.
  [[nodiscard]] Status create(const std::string& path, const CheckpointHeader& header);

  /// Continue an existing journal: load it, verify it against `header`
  /// (digest + points_total), truncate any torn tail in place, and
  /// position for append. The previously committed records come back
  /// through `resumed`.
  [[nodiscard]] Status resume(const std::string& path, const CheckpointHeader& header,
                              JournalLoadResult& resumed);

  /// Append one fsync'd record line.
  [[nodiscard]] Status append(const CheckpointRecord& record);

  [[nodiscard]] bool isOpen() const { return fd_ >= 0; }
  void close();

  /// Canonical single-line serialisations (no trailing newline); exposed
  /// for the journal fuzzer and the report_check selftest.
  [[nodiscard]] static std::string headerLine(const CheckpointHeader& header);
  [[nodiscard]] static std::string recordLine(const CheckpointRecord& record);

 private:
  int fd_ = -1;
};

}  // namespace pllbist::core
