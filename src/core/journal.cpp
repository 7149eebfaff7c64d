#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace pllbist::core {

namespace {

using K = Status::Kind;
using Block = bist::BenchStats::Block;
using obs::digestHex;

bool parseDigestHex(const std::string& s, uint64_t& out) {
  if (s.size() != 18 || s.compare(0, 2, "0x") != 0) return false;
  uint64_t v = 0;
  for (char c : s.substr(2)) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  out = v;
  return true;
}

bool parseQuality(const std::string& name, bist::PointQuality& out) {
  using Q = bist::PointQuality;
  for (Q q : {Q::Ok, Q::Retried, Q::Degraded, Q::Dropped}) {
    if (name == bist::to_string(q)) {
      out = q;
      return true;
    }
  }
  return false;
}

// Field extractors; each failure names the offending key so a rejected
// journal says exactly which byte range to look at.
Status getNumber(const obs::JsonValue& obj, const char* key, double& out) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->isNumber())
    return Status::makef(K::InvalidArgument, "missing or non-numeric field \"%s\"", key);
  out = v->number;
  return Status();
}

Status getCount(const obs::JsonValue& obj, const char* key, uint64_t& out) {
  double d = 0.0;
  if (Status s = getNumber(obj, key, d); !s.ok()) return s;
  if (d < 0.0 || d != std::floor(d))
    return Status::makef(K::InvalidArgument, "field \"%s\" = %g is not a non-negative integer", key,
                         d);
  out = static_cast<uint64_t>(d);
  return Status();
}

Status getInt(const obs::JsonValue& obj, const char* key, int& out) {
  uint64_t u = 0;
  if (Status s = getCount(obj, key, u); !s.ok()) return s;
  out = static_cast<int>(u);
  return Status();
}

Status getBool(const obs::JsonValue& obj, const char* key, bool& out) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->isBool())
    return Status::makef(K::InvalidArgument, "missing or non-boolean field \"%s\"", key);
  out = v->boolean;
  return Status();
}

Status getString(const obs::JsonValue& obj, const char* key, std::string& out) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->isString())
    return Status::makef(K::InvalidArgument, "missing or non-string field \"%s\"", key);
  out = v->string;
  return Status();
}

Status parseHeaderLine(std::string_view line, CheckpointHeader& out) {
  obs::JsonValue doc;
  if (Status s = obs::parseJson(line, doc); !s.ok())
    return Status::makef(K::InvalidArgument, "journal header: %s", s.context().c_str());
  if (!doc.isObject())
    return Status::make(K::InvalidArgument, "journal header: not a JSON object");
  std::string schema;
  if (Status s = getString(doc, "schema", schema); !s.ok())
    return Status::makef(K::InvalidArgument, "journal header: %s", s.context().c_str());
  if (schema != kCheckpointSchema)
    return Status::makef(K::InvalidArgument, "journal header: schema \"%s\", expected \"%s\"",
                         schema.c_str(), kCheckpointSchema);
  std::string digest;
  Status s;
  if (!(s = getString(doc, "tool", out.tool)).ok() ||
      !(s = getString(doc, "device", out.device)).ok() ||
      !(s = getString(doc, "stimulus", out.stimulus)).ok() ||
      !(s = getString(doc, "digest", digest)).ok())
    return Status::makef(K::InvalidArgument, "journal header: %s", s.context().c_str());
  if (!parseDigestHex(digest, out.config_digest))
    return Status::makef(K::InvalidArgument,
                         "journal header: digest \"%s\" is not an 0x-prefixed 16-digit hex string",
                         digest.c_str());
  uint64_t points = 0;
  if (!(s = getCount(doc, "points_total", points)).ok())
    return Status::makef(K::InvalidArgument, "journal header: %s", s.context().c_str());
  if (points == 0)
    return Status::make(K::InvalidArgument, "journal header: points_total must be positive");
  out.points_total = static_cast<std::size_t>(points);
  return Status();
}

Status parseRecordLine(std::string_view line, std::size_t points_total, CheckpointRecord& out) {
  obs::JsonValue doc;
  if (Status s = obs::parseJson(line, doc); !s.ok()) return s;
  if (!doc.isObject()) return Status::make(K::InvalidArgument, "record is not a JSON object");
  std::string record_kind;
  if (Status s = getString(doc, "record", record_kind); !s.ok()) return s;
  if (record_kind != "point")
    return Status::makef(K::InvalidArgument, "unknown record kind \"%s\"", record_kind.c_str());
  uint64_t index = 0;
  if (Status s = getCount(doc, "index", index); !s.ok()) return s;
  if (index >= points_total)
    return Status::makef(K::InvalidArgument, "record index %llu out of range (points_total = %zu)",
                         static_cast<unsigned long long>(index), points_total);
  out.index = static_cast<std::size_t>(index);

  bist::MeasuredPoint point;
  bist::ResilientResponse& r = out.result;
  Status s;
  std::string quality, status_kind, status_context;
  if (!(s = getNumber(doc, "fm_hz", point.modulation_hz)).ok() ||
      !(s = getNumber(doc, "deviation_hz", point.deviation_hz)).ok() ||
      !(s = getNumber(doc, "phase_deg", point.phase_deg)).ok() ||
      !(s = getNumber(doc, "unity_gain_deviation_hz", point.unity_gain_deviation_hz)).ok() ||
      !(s = getBool(doc, "timed_out", point.timed_out)).ok() ||
      !(s = getString(doc, "quality", quality)).ok() ||
      !(s = getInt(doc, "attempts", point.attempts)).ok() ||
      !(s = getString(doc, "status", status_kind)).ok() ||
      !(s = getString(doc, "status_context", status_context)).ok() ||
      !(s = getNumber(doc, "wall_time_s", point.wall_time_s)).ok() ||
      !(s = getNumber(doc, "nominal_hz", r.response.nominal_vco_hz)).ok() ||
      !(s = getNumber(doc, "static_ref_hz", r.response.static_reference_deviation_hz)).ok() ||
      !(s = getInt(doc, "relocks", r.report.relocks)).ok() ||
      !(s = getInt(doc, "relock_failures", r.report.relock_failures)).ok() ||
      !(s = getNumber(doc, "sim_time_s", r.report.sim_time_s)).ok())
    return s;
  if (!parseQuality(quality, point.quality))
    return Status::makef(K::InvalidArgument, "unknown point quality \"%s\"", quality.c_str());
  Status::Kind kind = Status::Kind::Ok;
  if (!Status::parseKind(status_kind, kind))
    return Status::makef(K::InvalidArgument, "unknown status kind \"%s\"", status_kind.c_str());
  point.status = Status::make(kind, std::move(status_context));
  // A record is a one-point run, whose status is a stall exactly when its
  // point stalled.
  if (kind == Status::Kind::SimulationStall) r.status = point.status;
  if (kind == Status::Kind::Cancelled)
    return Status::makef(K::InvalidArgument,
                         "record %llu is Cancelled; cancelled points are never committed",
                         static_cast<unsigned long long>(index));

  for (const Block b : bist::BenchStats::kBlocks) {
    const char* name = bist::BenchStats::blockName(b);
    const obs::JsonValue* block = doc.find(name);
    if (block == nullptr && b == Block::Faults) continue;  // no fault injector was attached
    if (block == nullptr || !block->isObject())
      return Status::makef(K::InvalidArgument, "missing or non-object field \"%s\"", name);
    for (const bist::BenchStats::Counter& c : bist::BenchStats::kCounters)
      if (c.block == b && !(s = getCount(*block, c.key, r.bench.*c.field)).ok())
        return Status::makef(K::InvalidArgument, "%s: %s", name, s.context().c_str());
  }
  r.report.count(point);
  r.response.points.push_back(std::move(point));
  return Status();
}

Status errnoStatus(const char* op, const std::string& path) {
  return Status::makef(K::Internal, "%s %s: %s", op, path.c_str(), std::strerror(errno));
}

}  // namespace

std::string JournalWriter::headerLine(const CheckpointHeader& header) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.beginObject();
  w.key("schema").value(kCheckpointSchema);
  w.key("tool").value(header.tool);
  w.key("device").value(header.device);
  w.key("stimulus").value(header.stimulus);
  w.key("digest").value(digestHex(header.config_digest));
  w.key("points_total").value(static_cast<uint64_t>(header.points_total));
  w.endObject();
  return os.str();
}

std::string JournalWriter::recordLine(const CheckpointRecord& record) {
  const bist::ResilientResponse& r = record.result;
  const bist::MeasuredPoint& p = r.response.points.front();
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.beginObject();
  w.key("record").value("point");
  w.key("index").value(static_cast<uint64_t>(record.index));
  w.key("fm_hz").value(p.modulation_hz);
  w.key("deviation_hz").value(p.deviation_hz);
  w.key("phase_deg").value(p.phase_deg);
  w.key("unity_gain_deviation_hz").value(p.unity_gain_deviation_hz);
  w.key("timed_out").value(p.timed_out);
  w.key("quality").value(bist::to_string(p.quality));
  w.key("attempts").value(p.attempts);
  w.key("status").value(Status::kindName(p.status.kind()));
  w.key("status_context").value(p.status.context());
  w.key("wall_time_s").value(p.wall_time_s);
  w.key("nominal_hz").value(r.response.nominal_vco_hz);
  w.key("static_ref_hz").value(r.response.static_reference_deviation_hz);
  w.key("relocks").value(r.report.relocks);
  w.key("relock_failures").value(r.report.relock_failures);
  w.key("sim_time_s").value(r.report.sim_time_s);
  for (const Block b : bist::BenchStats::kBlocks) {
    if (!r.bench.carries(b)) continue;
    w.key(bist::BenchStats::blockName(b)).beginObject();
    for (const bist::BenchStats::Counter& c : bist::BenchStats::kCounters)
      if (c.block == b) w.key(c.key).value(r.bench.*c.field);
    w.endObject();
  }
  w.endObject();
  return os.str();
}

Status parseJournal(std::string_view text, JournalLoadResult& out) {
  out = JournalLoadResult();
  if (text.empty()) return Status::make(K::InvalidArgument, "journal is empty");

  // Split into lines; a final line without its terminating '\n' is the
  // torn-tail candidate. Offsets are tracked so clean_bytes lands exactly
  // after the last durable record.
  struct Line {
    std::string_view body;
    std::size_t begin = 0;
    bool complete = false;  ///< terminated by '\n'
  };
  std::vector<Line> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      lines.push_back({text.substr(pos), pos, false});
      break;
    }
    lines.push_back({text.substr(pos, nl - pos), pos, true});
    pos = nl + 1;
  }

  // Header: never recoverable. Without a trusted digest the records cannot
  // be attributed to any campaign, so a torn or corrupt header fails closed.
  if (Status s = parseHeaderLine(lines.front().body, out.header); !s.ok()) return s;
  if (!lines.front().complete)
    return Status::make(K::InvalidArgument, "journal header line is not newline-terminated");
  out.clean_bytes = lines.front().begin + lines.front().body.size() + 1;

  std::vector<bool> seen(out.header.points_total, false);
  for (std::size_t li = 1; li < lines.size(); ++li) {
    const Line& line = lines[li];
    const bool is_last = li + 1 == lines.size();
    if (!line.complete) {
      // The mid-append crash signature: one trailing line that never got
      // its newline. Even if the bytes happen to parse, a later append
      // would concatenate onto it — discard it; the point re-runs.
      out.torn_tail = true;
      return Status();
    }
    if (line.body.empty()) continue;  // tolerate blank lines
    CheckpointRecord rec;
    if (Status s = parseRecordLine(line.body, out.header.points_total, rec); !s.ok()) {
      if (is_last) {
        // Newline-terminated but corrupt final record (e.g. a torn write
        // that happened to end in '\n'): recoverable the same way.
        out.torn_tail = true;
        return Status();
      }
      return Status::makef(K::InvalidArgument, "journal line %zu: %s", li + 1,
                           s.context().c_str());
    }
    if (seen[rec.index]) {
      ++out.duplicates_ignored;  // keep-first preserves exactly-once accounting
    } else {
      seen[rec.index] = true;
      out.records.push_back(std::move(rec));
    }
    out.clean_bytes = line.begin + line.body.size() + 1;
  }
  return Status();
}

Status loadJournal(const std::string& path, JournalLoadResult& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Status::makef(K::InvalidArgument, "cannot open journal %s", path.c_str());
  std::ostringstream buf;
  buf << in.rdbuf();
  return parseJournal(buf.str(), out);
}

Status checkJournalHeader(const CheckpointHeader& loaded, uint64_t expected_digest,
                          std::size_t expected_points) {
  if (loaded.config_digest != expected_digest)
    return Status::makef(K::InvalidArgument,
                         "journal config digest %s does not match this campaign's %s — refusing "
                         "to merge results measured on a different configuration",
                         digestHex(loaded.config_digest).c_str(),
                         digestHex(expected_digest).c_str());
  if (loaded.points_total != expected_points)
    return Status::makef(K::InvalidArgument,
                         "journal points_total = %zu does not match this campaign's %zu",
                         loaded.points_total, expected_points);
  return Status();
}

Status JournalWriter::create(const std::string& path, const CheckpointHeader& header) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) return errnoStatus("open", path);
  const std::string line = headerLine(header) + "\n";
  if (::write(fd_, line.data(), line.size()) != static_cast<ssize_t>(line.size())) {
    Status s = errnoStatus("write", path);
    close();
    return s;
  }
  if (::fsync(fd_) != 0) {
    Status s = errnoStatus("fsync", path);
    close();
    return s;
  }
  return Status();
}

Status JournalWriter::resume(const std::string& path, const CheckpointHeader& header,
                             JournalLoadResult& resumed) {
  close();
  if (Status s = loadJournal(path, resumed); !s.ok()) return s;
  if (Status s = checkJournalHeader(resumed.header, header.config_digest, header.points_total);
      !s.ok())
    return s;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd_ < 0) return errnoStatus("open", path);
  // Repair a torn tail in place: truncate to the last complete record so
  // the next append starts on a clean line boundary.
  if (::ftruncate(fd_, static_cast<off_t>(resumed.clean_bytes)) != 0) {
    Status s = errnoStatus("ftruncate", path);
    close();
    return s;
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    Status s = errnoStatus("lseek", path);
    close();
    return s;
  }
  return Status();
}

Status JournalWriter::append(const CheckpointRecord& record) {
  if (fd_ < 0) return Status::make(K::Internal, "JournalWriter::append: journal is not open");
  const std::string line = recordLine(record) + "\n";
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errnoStatus("write", "journal");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) return errnoStatus("fsync", "journal");
  return Status();
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace pllbist::core
