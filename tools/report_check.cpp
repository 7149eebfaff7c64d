// Report schema checker: validates that a JSON document conforms to one of
// the report schemas (see obs/report.hpp) — dispatched on the document's
// own "schema" field:
//
//   pllbist.run_report/1     the consolidated sweep report (sweep_cli --report)
//   pllbist.golden_report/1  the golden-model differential report
//   pllbist.checkpoint/3     the campaign checkpoint journal (JSONL; the
//                            schema lives on the header line, so dispatch
//                            parses the first line before the whole file;
//                            an older checkpoint version is rejected)
//
// Pure C++, no external tooling — CI and the obs test suite use it to
// round-trip reports the tools emit.
//
//   report_check file.json [more.json ...]   validate files, exit 0 iff all pass
//   report_check --selftest                  build reports of all schemas
//                                            in-process, serialise, re-parse,
//                                            validate, and check that
//                                            stripTimingFields removes exactly
//                                            the documented timing paths
//
// Journal validation accepts a torn final line (the signature of a crash
// mid-append — resume repairs it by truncation) with a note, but rejects
// corrupt interior lines and malformed headers, matching the loader's
// fail-closed contract.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace {

using namespace pllbist;

// Route a parsed document to the validator its "schema" field names.
Status validateBySchema(const obs::JsonValue& doc, const char** schema_out) {
  const obs::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->isString())
    return Status::make(Status::Kind::InvalidArgument, "document has no 'schema' string");
  if (schema->string == obs::kRunReportSchema) {
    *schema_out = obs::kRunReportSchema;
    return obs::validateRunReportJson(doc);
  }
  if (schema->string == obs::kGoldenReportSchema) {
    *schema_out = obs::kGoldenReportSchema;
    return obs::validateGoldenReportJson(doc);
  }
  return Status::makef(Status::Kind::InvalidArgument,
                       "unsupported schema '%s' (expected '%s' or '%s')",
                       schema->string.c_str(), obs::kRunReportSchema, obs::kGoldenReportSchema);
}

// Checkpoint journals are JSONL, so the file as a whole is not one JSON
// document — detect them by parsing the first line and reading its schema.
// Any checkpoint version counts, so the journal loader names the version
// mismatch of an old one.
bool looksLikeJournal(const std::string& text) {
  const std::size_t eol = text.find('\n');
  const std::string first = text.substr(0, eol);
  obs::JsonValue doc;
  if (!obs::parseJson(first, doc).ok()) return false;
  const obs::JsonValue* schema = doc.find("schema");
  return schema != nullptr && schema->isString() &&
         schema->string.rfind("pllbist.checkpoint/", 0) == 0;
}

int checkJournalFile(const char* path, const std::string& text) {
  core::JournalLoadResult loaded;
  if (Status s = core::parseJournal(text, loaded); !s.ok()) {
    std::fprintf(stderr, "report_check: %s: %s\n", path, s.toString().c_str());
    return 1;
  }
  std::printf("report_check: %s: ok (%s, %zu records of %zu points%s%s)\n", path,
              core::kCheckpointSchema, loaded.records.size(), loaded.header.points_total,
              loaded.torn_tail ? ", torn tail discarded" : "",
              loaded.duplicates_ignored > 0 ? ", duplicates ignored" : "");
  return 0;
}

int checkFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "report_check: cannot open %s\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (looksLikeJournal(buf.str())) return checkJournalFile(path, buf.str());
  obs::JsonValue doc;
  if (Status s = obs::parseJson(buf.str(), doc); !s.ok()) {
    std::fprintf(stderr, "report_check: %s: %s\n", path, s.toString().c_str());
    return 1;
  }
  const char* schema = "?";
  if (Status s = validateBySchema(doc, &schema); !s.ok()) {
    std::fprintf(stderr, "report_check: %s: %s\n", path, s.toString().c_str());
    return 1;
  }
  std::printf("report_check: %s: ok (%s)\n", path, schema);
  return 0;
}

int selftest() {
  // Assemble a small but fully populated report by hand: two points, a
  // fault section, one histogram — every schema branch exercised.
  obs::RunReport rep;
  rep.tool = "report_check";
  rep.device = "selftest";
  rep.stimulus = "multi-tone-fsk";
  rep.config_digest = obs::fnv1a64("selftest-config");
  rep.jobs = 2;
  rep.quality.points_total = 2;
  rep.quality.ok = 1;
  rep.quality.dropped = 1;
  rep.quality.attempts_total = 3;
  rep.quality.sim_time_s = 1.5;
  rep.quality.wall_time_s = 0.25;
  obs::RunReport::Point p1;
  p1.fm_hz = 8.0;
  p1.deviation_hz = 450.0;
  p1.phase_deg = -42.0;
  p1.quality = "ok";
  p1.attempts = 1;
  p1.status = "ok";
  p1.wall_time_s = 0.1;
  obs::RunReport::Point p2;
  p2.fm_hz = 16.0;
  p2.quality = "dropped";
  p2.attempts = 2;
  p2.status = "timeout";
  p2.status_context = "watchdog fired";
  p2.wall_time_s = 0.15;
  rep.points = {p1, p2};
  rep.faults = {{"considered", 100}, {"dropped", 3}, {"delayed", 2}, {"glitches", 1}};
  rep.kernel = {{"processed", 5000}, {"delivered", 4800}, {"dropped", 3}, {"delayed", 2},
                {"swallowed", 195}};
  rep.loop = {{"pfd_writes", 6000}, {"vco_stops", 9500}};
  obs::CounterValue c;
  c.name = "bist.resilient.attempts";
  c.value = 3;
  rep.metrics.counters.push_back(c);
  obs::HistogramValue h;
  h.name = "bist.sweep.point_wall_s";
  h.bounds = {0.1, 1.0};
  h.buckets = {1, 1, 0};
  h.count = 2;
  h.sum = 0.25;
  h.min = 0.1;
  h.max = 0.15;
  rep.metrics.histograms.push_back(h);

  const std::string text = rep.toJson();
  obs::JsonValue doc;
  if (Status s = obs::parseJson(text, doc); !s.ok()) {
    std::fprintf(stderr, "selftest: serialised report does not parse: %s\n",
                 s.toString().c_str());
    return 1;
  }
  if (Status s = obs::validateRunReportJson(doc); !s.ok()) {
    std::fprintf(stderr, "selftest: serialised report fails validation: %s\n",
                 s.toString().c_str());
    return 1;
  }

  // Timing strip: the stripped document must still validate (timing fields
  // are optional-but-typed) and must not mention wall_time_s anywhere.
  obs::stripTimingFields(doc);
  if (Status s = obs::validateRunReportJson(doc); !s.ok()) {
    std::fprintf(stderr, "selftest: stripped report fails validation: %s\n",
                 s.toString().c_str());
    return 1;
  }
  if (doc.dump().find("wall_time_s") != std::string::npos) {
    std::fprintf(stderr, "selftest: stripTimingFields left a wall_time_s field behind\n");
    return 1;
  }

  // Negative checks: corrupting the document must be caught.
  obs::JsonValue bad;
  (void)obs::parseJson(text, bad);
  if (obs::JsonValue* schema = bad.find("schema")) schema->string = "bogus/9";
  if (obs::validateRunReportJson(bad).ok()) {
    std::fprintf(stderr, "selftest: wrong schema string was accepted\n");
    return 1;
  }
  (void)obs::parseJson(text, bad);
  if (obs::JsonValue* quality = bad.find("quality"))
    if (obs::JsonValue* ok = quality->find("ok")) ok->number = 99.0;
  if (obs::validateRunReportJson(bad).ok()) {
    std::fprintf(stderr, "selftest: inconsistent quality counters were accepted\n");
    return 1;
  }

  (void)obs::parseJson(text, bad);
  bad.erase("loop");
  if (obs::validateRunReportJson(bad).ok()) {
    std::fprintf(stderr, "selftest: a report without its loop block was accepted\n");
    return 1;
  }
  (void)obs::parseJson(text, bad);
  if (obs::JsonValue* loop = bad.find("loop")) loop->erase("vco_stops");
  if (obs::validateRunReportJson(bad).ok()) {
    std::fprintf(stderr, "selftest: a loop block without vco_stops was accepted\n");
    return 1;
  }

  std::printf("report_check: selftest ok\n");
  return 0;
}

// A minimal but fully populated golden_report document: two bands, one
// compared in-band point, one excluded tail point, a consistent summary.
// Handcrafted (rather than produced by golden::runDifferential) so the
// checker stays a pure obs-layer tool with no simulator dependency.
const char kGoldenExample[] = R"({
  "schema": "pllbist.golden_report/1",
  "tool": "golden_differential",
  "config": {
    "device": "selftest", "stimulus": "multi-tone-fsk",
    "digest": "0x00000000deadbeef", "seed": "0x0000000000000007",
    "jobs": 1, "fn_hz": 200.0, "zeta": 0.43, "tau2_s": 0.0016,
    "loop_gain_per_s": 540.0, "transport_delay_ref_periods": 1.0
  },
  "tolerance_bands": [
    { "label": "in-band", "f_over_fn_max": 0.4, "magnitude_db": 1.0, "phase_deg": 5.0 },
    { "label": "peak", "f_over_fn_max": 1.75, "magnitude_db": 2.5, "phase_deg": 12.0 }
  ],
  "sweep_status": "ok",
  "quality": {
    "points_total": 2, "ok": 2, "retried": 0, "degraded": 0, "dropped": 0,
    "attempts_total": 2, "relocks": 0, "relock_failures": 0,
    "sim_time_s": 1.0, "wall_time_s": 0.5
  },
  "points": [
    { "fm_hz": 60.0, "f_over_fn": 0.3, "measured_db": -0.4, "golden_db": -0.5,
      "delta_db": 0.1, "measured_phase_deg": -30.0, "golden_phase_deg": -27.0,
      "delay_correction_deg": 2.2, "delta_phase_deg": -0.8,
      "magnitude_tol_db": 1.0, "phase_tol_deg": 5.0,
      "band": "in-band", "quality": "ok", "compared": true, "pass": true,
      "wall_time_s": 0.2 },
    { "fm_hz": 600.0, "f_over_fn": 3.0, "measured_db": -18.0, "golden_db": -19.0,
      "delta_db": 1.0, "measured_phase_deg": -160.0, "golden_phase_deg": -150.0,
      "delay_correction_deg": 21.6, "delta_phase_deg": 11.6,
      "magnitude_tol_db": 0.0, "phase_tol_deg": 0.0,
      "band": "excluded", "quality": "ok", "compared": false, "pass": false,
      "wall_time_s": 0.3 }
  ],
  "summary": {
    "compared": 1, "excluded": 1,
    "max_abs_delta_db": 0.1, "max_abs_delta_phase_deg": 0.8, "pass": true
  }
})";

int goldenSelftest() {
  obs::JsonValue doc;
  if (Status s = obs::parseJson(kGoldenExample, doc); !s.ok()) {
    std::fprintf(stderr, "golden selftest: example does not parse: %s\n", s.toString().c_str());
    return 1;
  }
  const char* schema = "?";
  if (Status s = validateBySchema(doc, &schema); !s.ok()) {
    std::fprintf(stderr, "golden selftest: example fails validation: %s\n", s.toString().c_str());
    return 1;
  }
  if (std::strcmp(schema, obs::kGoldenReportSchema) != 0) {
    std::fprintf(stderr, "golden selftest: dispatched to the wrong validator (%s)\n", schema);
    return 1;
  }

  // Timing strip applies to golden reports with the same field names.
  obs::stripTimingFields(doc);
  if (Status s = obs::validateGoldenReportJson(doc); !s.ok()) {
    std::fprintf(stderr, "golden selftest: stripped report fails validation: %s\n",
                 s.toString().c_str());
    return 1;
  }
  if (doc.dump().find("wall_time_s") != std::string::npos) {
    std::fprintf(stderr, "golden selftest: stripTimingFields left a wall_time_s behind\n");
    return 1;
  }

  // Negative checks: the cross-checked summary and the band ordering are
  // actually enforced.
  obs::JsonValue bad;
  (void)obs::parseJson(kGoldenExample, bad);
  if (obs::JsonValue* summary = bad.find("summary"))
    if (obs::JsonValue* compared = summary->find("compared")) compared->number = 2.0;
  if (obs::validateGoldenReportJson(bad).ok()) {
    std::fprintf(stderr, "golden selftest: inconsistent summary.compared was accepted\n");
    return 1;
  }
  (void)obs::parseJson(kGoldenExample, bad);
  if (obs::JsonValue* bands = bad.find("tolerance_bands"))
    if (!bands->array.empty())
      if (obs::JsonValue* edge = bands->array.front().find("f_over_fn_max"))
        edge->number = 9.0;  // now descending
  if (obs::validateGoldenReportJson(bad).ok()) {
    std::fprintf(stderr, "golden selftest: descending band edges were accepted\n");
    return 1;
  }
  (void)obs::parseJson(kGoldenExample, bad);
  if (obs::JsonValue* schema_field = bad.find("schema")) schema_field->string = "bogus/9";
  const char* ignored = "?";
  if (validateBySchema(bad, &ignored).ok()) {
    std::fprintf(stderr, "golden selftest: unknown schema string was accepted\n");
    return 1;
  }

  std::printf("report_check: golden selftest ok\n");
  return 0;
}

int journalSelftest() {
  // Round-trip: serialise a small journal through the writer's canonical
  // line forms, re-parse, verify the header check passes.
  core::CheckpointHeader hdr;
  hdr.tool = "report_check";
  hdr.device = "selftest";
  hdr.stimulus = "multi-tone-fsk";
  hdr.config_digest = obs::fnv1a64("selftest-config");
  hdr.points_total = 3;
  std::string text = core::JournalWriter::headerLine(hdr) + "\n";
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 3; ++i) {
    core::CheckpointRecord rec;
    rec.index = i;
    bist::MeasuredPoint& point = rec.result.response.points.emplace_back();
    point.modulation_hz = 10.0 * static_cast<double>(i + 1);
    point.deviation_hz = 400.0 - 10.0 * static_cast<double>(i);
    point.phase_deg = -15.0 * static_cast<double>(i + 1);
    rec.result.response.nominal_vco_hz = 1e5;
    rec.result.response.static_reference_deviation_hz = 1000.0;
    rec.result.report.sim_time_s = 0.3;
    rec.result.bench.events_processed = 1000 + 7 * static_cast<long long>(i);
    rec.result.bench.events_delivered = 990;
    lines.push_back(core::JournalWriter::recordLine(rec));
  }
  for (const std::string& l : lines) text += l + "\n";

  core::JournalLoadResult loaded;
  if (Status s = core::parseJournal(text, loaded); !s.ok()) {
    std::fprintf(stderr, "journal selftest: round-trip does not parse: %s\n",
                 s.toString().c_str());
    return 1;
  }
  if (loaded.records.size() != 3 || loaded.torn_tail || loaded.clean_bytes != text.size()) {
    std::fprintf(stderr, "journal selftest: round-trip lost records (%zu of 3, clean %zu/%zu)\n",
                 loaded.records.size(), loaded.clean_bytes, text.size());
    return 1;
  }
  if (Status s = core::checkJournalHeader(loaded.header, hdr.config_digest, hdr.points_total);
      !s.ok()) {
    std::fprintf(stderr, "journal selftest: matching header was rejected: %s\n",
                 s.toString().c_str());
    return 1;
  }

  // Torn tail: a file cut mid-record must load with the tail discarded and
  // clean_bytes pointing at the last complete line — never an error.
  const std::string torn = text.substr(0, text.size() - lines.back().size() / 2 - 1);
  core::JournalLoadResult torn_loaded;
  if (Status s = core::parseJournal(torn, torn_loaded); !s.ok()) {
    std::fprintf(stderr, "journal selftest: torn tail was rejected: %s\n", s.toString().c_str());
    return 1;
  }
  if (!torn_loaded.torn_tail || torn_loaded.records.size() != 2) {
    std::fprintf(stderr, "journal selftest: torn tail not detected (%zu records, torn=%d)\n",
                 torn_loaded.records.size(), torn_loaded.torn_tail ? 1 : 0);
    return 1;
  }

  // Digest mismatch: a journal from a different campaign must be rejected.
  if (core::checkJournalHeader(loaded.header, hdr.config_digest ^ 1, hdr.points_total).ok()) {
    std::fprintf(stderr, "journal selftest: wrong config digest was accepted\n");
    return 1;
  }
  if (core::checkJournalHeader(loaded.header, hdr.config_digest, hdr.points_total + 1).ok()) {
    std::fprintf(stderr, "journal selftest: wrong campaign size was accepted\n");
    return 1;
  }

  // Corrupt interior line: fail closed, not recoverable.
  std::string corrupt = text;
  const std::size_t mid = corrupt.find("\"index\":1");
  corrupt[mid + 1] = '!';
  core::JournalLoadResult corrupt_loaded;
  if (core::parseJournal(corrupt, corrupt_loaded).ok()) {
    std::fprintf(stderr, "journal selftest: corrupt interior line was accepted\n");
    return 1;
  }

  // Previous schema versions are refused, never merged: a /1 record
  // includes a prelude of its own, a /2 record has no loop block and the
  // kernel counts of a loop that did not run ahead.
  const std::string current = core::kCheckpointSchema;
  for (const char* version : {"pllbist.checkpoint/1", "pllbist.checkpoint/2"}) {
    std::string old = text;
    old.replace(old.find(current), current.size(), version);
    core::JournalLoadResult old_loaded;
    if (!looksLikeJournal(old) ||
        core::parseJournal(old, old_loaded).kind() != Status::Kind::InvalidArgument) {
      std::fprintf(stderr, "journal selftest: a %s journal was not refused\n", version);
      return 1;
    }
  }

  // Duplicate index: keep-first, counted.
  const std::string dup = text + lines[0] + "\n";
  core::JournalLoadResult dup_loaded;
  if (Status s = core::parseJournal(dup, dup_loaded); !s.ok()) {
    std::fprintf(stderr, "journal selftest: duplicate record was rejected: %s\n",
                 s.toString().c_str());
    return 1;
  }
  if (dup_loaded.records.size() != 3 || dup_loaded.duplicates_ignored != 1) {
    std::fprintf(stderr, "journal selftest: duplicate handling wrong (%zu records, %zu ignored)\n",
                 dup_loaded.records.size(), dup_loaded.duplicates_ignored);
    return 1;
  }

  std::printf("report_check: journal selftest ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s file.json [more.json ...] | --selftest\n", argv[0]);
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0)
      rc |= selftest() | goldenSelftest() | journalSelftest();
    else rc |= checkFile(argv[i]);
  }
  return rc;
}
