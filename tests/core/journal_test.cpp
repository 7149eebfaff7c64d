#include "core/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/status.hpp"

namespace pllbist::core {
namespace {

CheckpointHeader testHeader(std::size_t points = 4) {
  CheckpointHeader h;
  h.tool = "journal_test";
  h.device = "fast";
  h.stimulus = "multi-tone-fsk";
  h.config_digest = 0x2deefca6336d6a30ULL;
  h.points_total = points;
  return h;
}

CheckpointRecord testRecord(std::size_t index) {
  CheckpointRecord rec;
  rec.index = index;
  bist::MeasuredPoint& point = rec.result.response.points.emplace_back();
  // Awkward doubles on purpose: the round-trip contract is bit-exact.
  point.modulation_hz = 135.72100000000001 + static_cast<double>(index);
  point.deviation_hz = 1300.0 / 3.0;
  point.phase_deg = -48.099999999999994;
  point.unity_gain_deviation_hz = 1000.0;
  point.quality = bist::PointQuality::Retried;
  point.attempts = 2;
  point.wall_time_s = 0.0123;
  rec.result.response.nominal_vco_hz = 1e5 + 1.0 / 7.0;
  rec.result.response.static_reference_deviation_hz = 999.99999999999989;
  rec.result.report.relocks = 1;
  rec.result.report.relock_failures = 0;
  rec.result.report.sim_time_s = 0.39647951;
  rec.result.bench.events_processed = 302467;
  rec.result.bench.events_delivered = 274641;
  rec.result.bench.events_swallowed = 27826;
  return rec;
}

/// The record's one point.
const bist::MeasuredPoint& pointOf(const CheckpointRecord& rec) {
  return rec.result.response.points.front();
}

bist::MeasuredPoint& pointOf(CheckpointRecord& rec) { return rec.result.response.points.front(); }

std::string tempPath(const char* name) {
  return ::testing::TempDir() + "pllbist_journal_" + name + ".jsonl";
}

TEST(Journal, WriterRoundTripsRecordsBitExactly) {
  const std::string path = tempPath("roundtrip");
  const CheckpointHeader hdr = testHeader();
  {
    JournalWriter w;
    ASSERT_TRUE(w.create(path, hdr).ok());
    for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(w.append(testRecord(i)).ok());
  }
  JournalLoadResult loaded;
  ASSERT_TRUE(loadJournal(path, loaded).ok());
  EXPECT_FALSE(loaded.torn_tail);
  EXPECT_EQ(loaded.duplicates_ignored, 0u);
  EXPECT_EQ(loaded.header.tool, hdr.tool);
  EXPECT_EQ(loaded.header.device, hdr.device);
  EXPECT_EQ(loaded.header.stimulus, hdr.stimulus);
  EXPECT_EQ(loaded.header.config_digest, hdr.config_digest);
  EXPECT_EQ(loaded.header.points_total, 4u);
  ASSERT_EQ(loaded.records.size(), 4u);
  EXPECT_TRUE(checkJournalHeader(loaded.header, hdr.config_digest, 4).ok());
  for (std::size_t i = 0; i < 4; ++i) {
    const CheckpointRecord want = testRecord(i);
    const CheckpointRecord& got = loaded.records[i];
    EXPECT_EQ(got.index, i);
    // EXPECT_EQ on doubles: journaling must not round.
    ASSERT_EQ(got.result.response.points.size(), 1u);
    EXPECT_EQ(pointOf(got).modulation_hz, pointOf(want).modulation_hz);
    EXPECT_EQ(pointOf(got).deviation_hz, pointOf(want).deviation_hz);
    EXPECT_EQ(pointOf(got).phase_deg, pointOf(want).phase_deg);
    EXPECT_EQ(pointOf(got).unity_gain_deviation_hz, pointOf(want).unity_gain_deviation_hz);
    EXPECT_EQ(pointOf(got).quality, pointOf(want).quality);
    EXPECT_EQ(pointOf(got).attempts, pointOf(want).attempts);
    EXPECT_EQ(pointOf(got).status.kind(), pointOf(want).status.kind());
    EXPECT_EQ(got.result.response.nominal_vco_hz, want.result.response.nominal_vco_hz);
    EXPECT_EQ(got.result.response.static_reference_deviation_hz,
              want.result.response.static_reference_deviation_hz);
    EXPECT_EQ(got.result.report.relocks, want.result.report.relocks);
    EXPECT_EQ(got.result.report.sim_time_s, want.result.report.sim_time_s);
    EXPECT_EQ(got.result.bench.events_processed, want.result.bench.events_processed);
    EXPECT_EQ(got.result.bench.events_swallowed, want.result.bench.events_swallowed);
  }
  std::remove(path.c_str());
}

TEST(Journal, TornFinalLineIsDiscardedNotFatal) {
  const std::string full = JournalWriter::headerLine(testHeader()) + "\n" +
                           JournalWriter::recordLine(testRecord(0)) + "\n" +
                           JournalWriter::recordLine(testRecord(1)) + "\n";
  // Chop the final record in half: the signature of a crash mid-append.
  const std::string torn = full.substr(0, full.size() - 30);
  JournalLoadResult loaded;
  ASSERT_TRUE(parseJournal(torn, loaded).ok());
  EXPECT_TRUE(loaded.torn_tail);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].index, 0u);
  // clean_bytes stops at the end of the last complete record, so a
  // resume-append truncates the garbage away.
  const std::string clean = JournalWriter::headerLine(testHeader()) + "\n" +
                            JournalWriter::recordLine(testRecord(0)) + "\n";
  EXPECT_EQ(loaded.clean_bytes, clean.size());
}

TEST(Journal, UnterminatedFinalLineIsTornEvenWhenParseable) {
  // No trailing newline: the line parses, but a later append would
  // concatenate onto it and corrupt the file — so it must count as torn.
  const std::string text = JournalWriter::headerLine(testHeader()) + "\n" +
                           JournalWriter::recordLine(testRecord(0)) + "\n" +
                           JournalWriter::recordLine(testRecord(1));
  JournalLoadResult loaded;
  ASSERT_TRUE(parseJournal(text, loaded).ok());
  EXPECT_TRUE(loaded.torn_tail);
  EXPECT_EQ(loaded.records.size(), 1u);
}

TEST(Journal, ResumeTruncatesTornTailInPlace) {
  const std::string path = tempPath("truncate");
  {
    JournalWriter w;
    ASSERT_TRUE(w.create(path, testHeader()).ok());
    ASSERT_TRUE(w.append(testRecord(0)).ok());
    ASSERT_TRUE(w.append(testRecord(1)).ok());
  }
  // Simulate the crash: append half a record with no newline.
  {
    std::ofstream out(path, std::ios::app);
    out << JournalWriter::recordLine(testRecord(2)).substr(0, 25);
  }
  JournalWriter w;
  JournalLoadResult resumed;
  ASSERT_TRUE(w.resume(path, testHeader(), resumed).ok());
  EXPECT_TRUE(resumed.torn_tail);
  ASSERT_EQ(resumed.records.size(), 2u);
  // Appending after the repair yields a clean three-record journal.
  ASSERT_TRUE(w.append(testRecord(2)).ok());
  w.close();
  JournalLoadResult reloaded;
  ASSERT_TRUE(loadJournal(path, reloaded).ok());
  EXPECT_FALSE(reloaded.torn_tail);
  EXPECT_EQ(reloaded.records.size(), 3u);
  std::remove(path.c_str());
}

TEST(Journal, HeaderIdentityMismatchFailsClosed) {
  const CheckpointHeader hdr = testHeader();
  EXPECT_EQ(checkJournalHeader(hdr, hdr.config_digest ^ 1, hdr.points_total).kind(),
            Status::Kind::InvalidArgument);
  EXPECT_EQ(checkJournalHeader(hdr, hdr.config_digest, hdr.points_total + 1).kind(),
            Status::Kind::InvalidArgument);
  JournalWriter w;
  JournalLoadResult resumed;
  const std::string path = tempPath("identity");
  {
    JournalWriter create;
    ASSERT_TRUE(create.create(path, hdr).ok());
  }
  CheckpointHeader other = hdr;
  other.config_digest ^= 0xff;
  EXPECT_EQ(w.resume(path, other, resumed).kind(), Status::Kind::InvalidArgument);
  EXPECT_FALSE(w.isOpen());
  std::remove(path.c_str());
}

TEST(Journal, CorruptInteriorLineFailsClosed) {
  std::string text = JournalWriter::headerLine(testHeader()) + "\n" +
                     JournalWriter::recordLine(testRecord(0)) + "\n" +
                     JournalWriter::recordLine(testRecord(1)) + "\n";
  text[text.find("\"index\":0") + 2] = '!';
  JournalLoadResult loaded;
  EXPECT_EQ(parseJournal(text, loaded).kind(), Status::Kind::InvalidArgument);
}

TEST(Journal, MissingOrBogusHeaderFailsClosed) {
  JournalLoadResult loaded;
  EXPECT_EQ(parseJournal("", loaded).kind(), Status::Kind::InvalidArgument);
  EXPECT_EQ(parseJournal("not json\n", loaded).kind(), Status::Kind::InvalidArgument);
  // A record line where the header belongs.
  const std::string beheaded = JournalWriter::recordLine(testRecord(0)) + "\n";
  EXPECT_EQ(parseJournal(beheaded, loaded).kind(), Status::Kind::InvalidArgument);
}

TEST(Journal, PreviousSchemaFailsClosedNamingBothSchemas) {
  // A version-1 journal's records each carry a prelude of their own;
  // merging them into a later run would count it several times. A
  // version-2 journal's records have no loop block and kernel counts of a
  // loop that did not run ahead.
  const std::string current = kCheckpointSchema;
  ASSERT_EQ(current, "pllbist.checkpoint/3");
  for (const std::string old : {"pllbist.checkpoint/1", "pllbist.checkpoint/2"}) {
    std::string header = JournalWriter::headerLine(testHeader());
    header.replace(header.find(current), current.size(), old);
    const std::string text = header + "\n" + JournalWriter::recordLine(testRecord(0)) + "\n";
    JournalLoadResult loaded;
    const Status s = parseJournal(text, loaded);
    EXPECT_EQ(s.kind(), Status::Kind::InvalidArgument) << old;
    EXPECT_NE(s.context().find(old), std::string::npos) << s.toString();
    EXPECT_NE(s.context().find(current), std::string::npos) << s.toString();
  }
}

TEST(Journal, OutOfRangeIndexFailsClosed) {
  CheckpointRecord rogue = testRecord(0);
  rogue.index = 9;  // header says points_total = 4
  const std::string text = JournalWriter::headerLine(testHeader()) + "\n" +
                           JournalWriter::recordLine(rogue) + "\n" +
                           JournalWriter::recordLine(testRecord(1)) + "\n";
  JournalLoadResult loaded;
  EXPECT_EQ(parseJournal(text, loaded).kind(), Status::Kind::InvalidArgument);
}

TEST(Journal, CancelledRecordsAreNeverAccepted) {
  // Cancelled is not a terminal classification — a cancelled point re-runs
  // on resume, so a journal claiming one committed is corrupt.
  CheckpointRecord cancelled = testRecord(0);
  pointOf(cancelled).status = Status::makef(Status::Kind::Cancelled, "stop requested");
  const std::string text = JournalWriter::headerLine(testHeader()) + "\n" +
                           JournalWriter::recordLine(cancelled) + "\n" +
                           JournalWriter::recordLine(testRecord(1)) + "\n";
  JournalLoadResult loaded;
  EXPECT_EQ(parseJournal(text, loaded).kind(), Status::Kind::InvalidArgument);
}

TEST(Journal, DuplicateIndicesKeepFirst) {
  CheckpointRecord first = testRecord(1);
  CheckpointRecord second = testRecord(1);
  pointOf(second).deviation_hz = -1.0;  // the impostor
  const std::string text = JournalWriter::headerLine(testHeader()) + "\n" +
                           JournalWriter::recordLine(first) + "\n" +
                           JournalWriter::recordLine(second) + "\n";
  JournalLoadResult loaded;
  ASSERT_TRUE(parseJournal(text, loaded).ok());
  EXPECT_EQ(loaded.duplicates_ignored, 1u);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(pointOf(loaded.records[0]).deviation_hz, pointOf(first).deviation_hz);
}

TEST(StatusExitCodes, MappingIsInjectiveAndDocumented) {
  const Status::Kind kinds[] = {
      Status::Kind::Ok,           Status::Kind::InvalidArgument,
      Status::Kind::Timeout,      Status::Kind::LockLost,
      Status::Kind::RelockFailed, Status::Kind::RetryExhausted,
      Status::Kind::SimulationStall, Status::Kind::NoValidPoints,
      Status::Kind::Degraded,     Status::Kind::Internal,
      Status::Kind::DeadlineExceeded, Status::Kind::Cancelled,
  };
  std::set<int> codes;
  for (Status::Kind k : kinds) codes.insert(exitCode(k));
  EXPECT_EQ(codes.size(), std::size(kinds));  // one exit code per kind
  EXPECT_EQ(exitCode(Status::Kind::Ok), 0);
  EXPECT_EQ(exitCode(Status::Kind::InvalidArgument), 2);
  EXPECT_EQ(exitCode(Status::Kind::DeadlineExceeded), 11);
  EXPECT_EQ(exitCode(Status::Kind::Cancelled), 130);  // 128 + SIGINT, shell style
  for (Status::Kind k : kinds) {
    EXPECT_NE(exitCode(k), 1);  // 1 is reserved for generic tool failure
    // Every kind's name parses back to the kind (the journal relies on it).
    Status::Kind parsed;
    ASSERT_TRUE(Status::parseKind(Status::kindName(k), parsed)) << Status::kindName(k);
    EXPECT_EQ(parsed, k);
  }
  Status::Kind ignored;
  EXPECT_FALSE(Status::parseKind("not-a-kind", ignored));
}

}  // namespace
}  // namespace pllbist::core
