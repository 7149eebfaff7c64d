#include "obs/report.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace pllbist::obs {

uint64_t fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string digestHex(uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

void writeQuality(JsonWriter& w, const RunReport::Quality& q) {
  w.beginObject();
  w.key("points_total").value(q.points_total);
  w.key("ok").value(q.ok);
  w.key("retried").value(q.retried);
  w.key("degraded").value(q.degraded);
  w.key("dropped").value(q.dropped);
  w.key("attempts_total").value(q.attempts_total);
  w.key("relocks").value(q.relocks);
  w.key("relock_failures").value(q.relock_failures);
  w.key("sim_time_s").value(q.sim_time_s);
  w.key("wall_time_s").value(q.wall_time_s);
  w.endObject();
}

void writeMetricsJson(JsonWriter& w, const MetricsSnapshot& m) {
  w.beginObject();
  w.key("counters").beginArray();
  for (const CounterValue& c : m.counters) {
    w.beginObject();
    w.key("name").value(c.name);
    w.key("value").value(static_cast<uint64_t>(c.value));
    w.endObject();
  }
  w.endArray();
  w.key("gauges").beginArray();
  for (const GaugeValue& g : m.gauges) {
    if (!g.ever_set) continue;
    w.beginObject();
    w.key("name").value(g.name);
    w.key("value").value(g.value);
    w.endObject();
  }
  w.endArray();
  w.key("histograms").beginArray();
  for (const HistogramValue& h : m.histograms) {
    w.beginObject();
    w.key("name").value(h.name);
    w.key("bounds").beginArray();
    for (double b : h.bounds) w.value(b);
    w.endArray();
    w.key("buckets").beginArray();
    for (uint64_t b : h.buckets) w.value(static_cast<uint64_t>(b));
    w.endArray();
    w.key("count").value(static_cast<uint64_t>(h.count));
    w.key("sum").value(h.sum);
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

void RunReport::writeJson(std::ostream& os) const {
  JsonWriter w(os);
  w.beginObject();
  w.key("schema").value(kRunReportSchema);
  w.key("tool").value(tool);
  w.key("config").beginObject();
  w.key("device").value(device);
  w.key("stimulus").value(stimulus);
  w.key("digest").value(digestHex(config_digest));
  w.key("jobs").value(jobs);
  w.endObject();
  w.key("status").value(sweep_status);
  w.key("quality");
  writeQuality(w, quality);
  w.key("points").beginArray();
  for (const Point& p : points) {
    w.beginObject();
    w.key("fm_hz").value(p.fm_hz);
    w.key("deviation_hz").value(p.deviation_hz);
    w.key("phase_deg").value(p.phase_deg);
    w.key("quality").value(p.quality);
    w.key("attempts").value(p.attempts);
    w.key("status").value(p.status);
    if (!p.status_context.empty()) w.key("status_context").value(p.status_context);
    w.key("wall_time_s").value(p.wall_time_s);
    w.endObject();
  }
  w.endArray();
  auto writeCounters = [&](const char* block, const std::vector<CounterValue>& counters) {
    w.key(block).beginObject();
    for (const CounterValue& c : counters) w.key(c.name).value(c.value);
    w.endObject();
  };
  if (!faults.empty()) writeCounters("faults", faults);
  writeCounters("kernel", kernel);
  writeCounters("loop", loop);
  w.key("metrics");
  writeMetricsJson(w, metrics);
  w.endObject();
  os << '\n';
}

std::string RunReport::toJson() const {
  std::ostringstream os;
  writeJson(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Schema validation.

namespace {

// The report kinds the validators below check; every message starts with
// "<kind> schema: ".
constexpr const char* kRunReport = "RunReport";
constexpr const char* kGoldenReport = "GoldenReport";

Status violation(const char* report, const char* what) {
  return Status::makef(Status::Kind::InvalidArgument, "%s schema: %s", report, what);
}

Status requireNumbers(const char* report, const JsonValue& obj,
                      std::initializer_list<const char*> keys, const char* where) {
  for (const char* k : keys) {
    const JsonValue* v = obj.find(k);
    if (v == nullptr || !v->isNumber())
      return Status::makef(Status::Kind::InvalidArgument,
                           "%s schema: %s.%s missing or not a number", report, where, k);
  }
  return Status();
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

Status validateRunReportJson(const JsonValue& root) {
  if (!root.isObject()) return violation(kRunReport, "top level must be an object");

  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->isString())
    return violation(kRunReport, "missing 'schema' string");
  if (schema->string != kRunReportSchema)
    return Status::makef(Status::Kind::InvalidArgument,
                         "RunReport schema: unsupported schema '%s' (expected '%s')",
                         schema->string.c_str(), kRunReportSchema);

  const JsonValue* tool = root.find("tool");
  if (tool == nullptr || !tool->isString() || tool->string.empty())
    return violation(kRunReport, "missing 'tool' string");

  const JsonValue* config = root.find("config");
  if (config == nullptr || !config->isObject())
    return violation(kRunReport, "missing 'config' object");
  for (const char* k : {"device", "stimulus", "digest"}) {
    const JsonValue* v = config->find(k);
    if (v == nullptr || !v->isString())
      return Status::makef(Status::Kind::InvalidArgument,
                           "RunReport schema: config.%s missing or not a string", k);
  }
  const JsonValue* digest = config->find("digest");
  if (digest->string.size() < 3 || digest->string.substr(0, 2) != "0x")
    return violation(kRunReport, "config.digest must be a 0x-prefixed hex string");
  for (char c : digest->string.substr(2))
    if (!std::isxdigit(static_cast<unsigned char>(c)))
      return violation(kRunReport, "config.digest must be a 0x-prefixed hex string");
  const JsonValue* jobs = config->find("jobs");
  if (jobs == nullptr || !jobs->isNumber())
    return violation(kRunReport, "config.jobs missing or not a number");

  const JsonValue* status = root.find("status");
  if (status == nullptr || !status->isString())
    return violation(kRunReport, "missing 'status' string");

  const JsonValue* quality = root.find("quality");
  if (quality == nullptr || !quality->isObject())
    return violation(kRunReport, "missing 'quality' object");
  Status s = requireNumbers(kRunReport, *quality,
                            {"points_total", "ok", "retried", "degraded", "dropped",
                             "attempts_total", "relocks", "relock_failures", "sim_time_s"},
                            "quality");
  if (!s.ok()) return s;
  // wall_time_s is a documented timing field: required in a freshly emitted
  // report but legitimately absent after stripTimingFields().
  const JsonValue* qw = quality->find("wall_time_s");
  if (qw != nullptr && !qw->isNumber())
    return violation(kRunReport, "quality.wall_time_s must be a number");

  const JsonValue* points = root.find("points");
  if (points == nullptr || !points->isArray())
    return violation(kRunReport, "missing 'points' array");
  int counted[4] = {0, 0, 0, 0};  // ok, retried, degraded, dropped
  for (const JsonValue& p : points->array) {
    if (!p.isObject()) return violation(kRunReport, "points[] entries must be objects");
    s = requireNumbers(kRunReport, p, {"fm_hz", "deviation_hz", "phase_deg", "attempts"},
                       "points[]");
    if (!s.ok()) return s;
    const JsonValue* pq = p.find("quality");
    if (pq == nullptr || !pq->isString()) return violation(kRunReport, "points[].quality missing");
    if (pq->string == "ok") ++counted[0];
    else if (pq->string == "retried") ++counted[1];
    else if (pq->string == "degraded") ++counted[2];
    else if (pq->string == "dropped") ++counted[3];
    else return violation(kRunReport, "points[].quality must be ok/retried/degraded/dropped");
    const JsonValue* ps = p.find("status");
    if (ps == nullptr || !ps->isString()) return violation(kRunReport, "points[].status missing");
    const JsonValue* pw = p.find("wall_time_s");
    if (pw != nullptr && !pw->isNumber())
      return violation(kRunReport, "points[].wall_time_s must be a number");
  }
  auto qint = [&](const char* k) { return static_cast<int>(quality->find(k)->number); };
  if (qint("points_total") != static_cast<int>(points->array.size()))
    return violation(kRunReport, "quality.points_total != points array length");
  if (qint("ok") != counted[0] || qint("retried") != counted[1] ||
      qint("degraded") != counted[2] || qint("dropped") != counted[3])
    return violation(kRunReport, "quality counters disagree with per-point quality labels");

  const JsonValue* faults = root.find("faults");
  if (faults != nullptr) {
    if (!faults->isObject()) return violation(kRunReport, "'faults' must be an object");
    s = requireNumbers(kRunReport, *faults, {"considered", "dropped", "delayed", "glitches"},
                       "faults");
    if (!s.ok()) return s;
  }

  const JsonValue* kernel = root.find("kernel");
  if (kernel == nullptr || !kernel->isObject())
    return violation(kRunReport, "missing 'kernel' object");
  s = requireNumbers(kRunReport, *kernel,
                     {"processed", "delivered", "dropped", "delayed", "swallowed"}, "kernel");
  if (!s.ok()) return s;
  if (kernel->find("processed")->number < kernel->find("delivered")->number)
    return violation(kRunReport, "kernel.processed < kernel.delivered");

  const JsonValue* loop = root.find("loop");
  if (loop == nullptr || !loop->isObject()) return violation(kRunReport, "missing 'loop' object");
  s = requireNumbers(kRunReport, *loop, {"pfd_writes", "vco_stops"}, "loop");
  if (!s.ok()) return s;

  const JsonValue* metrics = root.find("metrics");
  if (metrics == nullptr || !metrics->isObject())
    return violation(kRunReport, "missing 'metrics' object");
  for (const char* k : {"counters", "gauges", "histograms"}) {
    const JsonValue* arr = metrics->find(k);
    if (arr == nullptr || !arr->isArray())
      return Status::makef(Status::Kind::InvalidArgument,
                           "RunReport schema: metrics.%s missing or not an array", k);
    for (const JsonValue& m : arr->array) {
      if (!m.isObject()) return violation(kRunReport, "metrics entries must be objects");
      const JsonValue* name = m.find("name");
      if (name == nullptr || !name->isString() || name->string.empty())
        return violation(kRunReport, "metrics entries need a non-empty name");
    }
  }
  for (const JsonValue& h : metrics->find("histograms")->array) {
    const JsonValue* bounds = h.find("bounds");
    const JsonValue* buckets = h.find("buckets");
    if (bounds == nullptr || !bounds->isArray() || buckets == nullptr || !buckets->isArray())
      return violation(kRunReport, "histogram entries need bounds and buckets arrays");
    if (buckets->array.size() != bounds->array.size() + 1)
      return violation(kRunReport, "histogram buckets length must be bounds length + 1");
    s = requireNumbers(kRunReport, h, {"count", "sum", "min", "max"}, "metrics.histograms[]");
    if (!s.ok()) return s;
    double bucket_sum = 0.0;
    for (const JsonValue& b : buckets->array) {
      if (!b.isNumber()) return violation(kRunReport, "histogram buckets must be numbers");
      bucket_sum += b.number;
    }
    if (bucket_sum != h.find("count")->number)
      return violation(kRunReport, "histogram count != sum of buckets");
  }
  return Status();
}

Status validateRunReportText(std::string_view text) {
  JsonValue root;
  Status s = parseJson(text, root);
  if (!s.ok()) return s;
  return validateRunReportJson(root);
}

Status validateGoldenReportJson(const JsonValue& root) {
  if (!root.isObject()) return violation(kGoldenReport, "top level must be an object");

  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->isString())
    return violation(kGoldenReport, "missing 'schema' string");
  if (schema->string != kGoldenReportSchema)
    return Status::makef(Status::Kind::InvalidArgument,
                         "GoldenReport schema: unsupported schema '%s' (expected '%s')",
                         schema->string.c_str(), kGoldenReportSchema);

  const JsonValue* tool = root.find("tool");
  if (tool == nullptr || !tool->isString() || tool->string.empty())
    return violation(kGoldenReport, "missing 'tool' string");

  const JsonValue* config = root.find("config");
  if (config == nullptr || !config->isObject())
    return violation(kGoldenReport, "missing 'config' object");
  for (const char* k : {"device", "stimulus", "digest", "seed"}) {
    const JsonValue* v = config->find(k);
    if (v == nullptr || !v->isString())
      return Status::makef(Status::Kind::InvalidArgument,
                           "GoldenReport schema: config.%s missing or not a string", k);
  }
  for (const char* k : {"digest", "seed"}) {
    const JsonValue* v = config->find(k);
    if (v->string.size() < 3 || v->string.substr(0, 2) != "0x")
      return Status::makef(Status::Kind::InvalidArgument,
                           "GoldenReport schema: config.%s must be a 0x-prefixed hex string", k);
    for (char c : v->string.substr(2))
      if (!std::isxdigit(static_cast<unsigned char>(c)))
        return Status::makef(Status::Kind::InvalidArgument,
                             "GoldenReport schema: config.%s must be a 0x-prefixed hex string", k);
  }
  Status s = requireNumbers(
      kGoldenReport, *config,
      {"jobs", "fn_hz", "zeta", "tau2_s", "loop_gain_per_s", "transport_delay_ref_periods"},
      "config");
  if (!s.ok()) return s;
  if (!(config->find("fn_hz")->number > 0.0))
    return violation(kGoldenReport, "config.fn_hz must be positive");
  if (!(config->find("zeta")->number > 0.0))
    return violation(kGoldenReport, "config.zeta must be positive");

  const JsonValue* bands = root.find("tolerance_bands");
  if (bands == nullptr || !bands->isArray() || bands->array.empty())
    return violation(kGoldenReport, "missing non-empty 'tolerance_bands' array");
  double prev_edge = 0.0;
  for (const JsonValue& b : bands->array) {
    if (!b.isObject()) return violation(kGoldenReport, "tolerance_bands[] entries must be objects");
    const JsonValue* label = b.find("label");
    if (label == nullptr || !label->isString() || label->string.empty())
      return violation(kGoldenReport, "tolerance_bands[].label missing");
    s = requireNumbers(kGoldenReport, b, {"f_over_fn_max", "magnitude_db", "phase_deg"},
                       "tolerance_bands[]");
    if (!s.ok()) return s;
    if (!(b.find("f_over_fn_max")->number > prev_edge))
      return violation(kGoldenReport, "tolerance_bands[].f_over_fn_max must be strictly ascending");
    prev_edge = b.find("f_over_fn_max")->number;
    if (!(b.find("magnitude_db")->number > 0.0) || !(b.find("phase_deg")->number > 0.0))
      return violation(kGoldenReport, "tolerance_bands[] tolerances must be positive");
  }

  const JsonValue* sweep_status = root.find("sweep_status");
  if (sweep_status == nullptr || !sweep_status->isString())
    return violation(kGoldenReport, "missing 'sweep_status' string");

  const JsonValue* quality = root.find("quality");
  if (quality == nullptr || !quality->isObject())
    return violation(kGoldenReport, "missing 'quality' object");
  s = requireNumbers(kGoldenReport, *quality,
                     {"points_total", "ok", "retried", "degraded", "dropped",
                      "attempts_total", "relocks", "relock_failures", "sim_time_s"},
                     "quality");
  if (!s.ok()) return s;
  const JsonValue* qw = quality->find("wall_time_s");
  if (qw != nullptr && !qw->isNumber())
    return violation(kGoldenReport, "quality.wall_time_s must be a number");

  const JsonValue* points = root.find("points");
  if (points == nullptr || !points->isArray())
    return violation(kGoldenReport, "missing 'points' array");
  int compared = 0, excluded = 0;
  double max_db = 0.0, max_deg = 0.0;
  for (const JsonValue& p : points->array) {
    if (!p.isObject()) return violation(kGoldenReport, "points[] entries must be objects");
    s = requireNumbers(kGoldenReport, p,
                       {"fm_hz", "f_over_fn", "measured_db", "golden_db", "delta_db",
                        "measured_phase_deg", "golden_phase_deg", "delay_correction_deg",
                        "delta_phase_deg", "magnitude_tol_db", "phase_tol_deg"},
                       "points[]");
    if (!s.ok()) return s;
    const JsonValue* band = p.find("band");
    if (band == nullptr || !band->isString() || band->string.empty())
      return violation(kGoldenReport, "points[].band missing");
    const JsonValue* pq = p.find("quality");
    if (pq == nullptr || !pq->isString())
      return violation(kGoldenReport, "points[].quality missing");
    const JsonValue* pc = p.find("compared");
    const JsonValue* pp = p.find("pass");
    if (pc == nullptr || !pc->isBool())
      return violation(kGoldenReport, "points[].compared missing");
    if (pp == nullptr || !pp->isBool()) return violation(kGoldenReport, "points[].pass missing");
    if (pp->boolean && !pc->boolean)
      return violation(kGoldenReport, "points[].pass requires points[].compared");
    if (pc->boolean && band->string == "excluded")
      return violation(kGoldenReport, "excluded points[] cannot be compared");
    const JsonValue* pw = p.find("wall_time_s");
    if (pw != nullptr && !pw->isNumber())
      return violation(kGoldenReport, "points[].wall_time_s must be a number");
    if (pc->boolean) {
      ++compared;
      const double adb = std::abs(p.find("delta_db")->number);
      const double adeg = std::abs(p.find("delta_phase_deg")->number);
      if (adb > max_db) max_db = adb;
      if (adeg > max_deg) max_deg = adeg;
    } else if (band->string == "excluded") {
      ++excluded;
    }
  }

  const JsonValue* summary = root.find("summary");
  if (summary == nullptr || !summary->isObject())
    return violation(kGoldenReport, "missing 'summary' object");
  s = requireNumbers(kGoldenReport, *summary,
                     {"compared", "excluded", "max_abs_delta_db", "max_abs_delta_phase_deg"},
                     "summary");
  if (!s.ok()) return s;
  const JsonValue* pass = summary->find("pass");
  if (pass == nullptr || !pass->isBool()) return violation(kGoldenReport, "summary.pass missing");
  if (static_cast<int>(summary->find("compared")->number) != compared)
    return violation(kGoldenReport, "summary.compared disagrees with per-point compared flags");
  if (static_cast<int>(summary->find("excluded")->number) != excluded)
    return violation(kGoldenReport, "summary.excluded disagrees with per-point band labels");
  // The summary maxima must cover every compared point's delta (they may
  // only exceed the recomputed maxima through rounding, never fall short).
  if (summary->find("max_abs_delta_db")->number + 1e-12 < max_db)
    return violation(kGoldenReport, "summary.max_abs_delta_db below a compared point's |delta_db|");
  if (summary->find("max_abs_delta_phase_deg")->number + 1e-12 < max_deg)
    return violation(kGoldenReport,
                     "summary.max_abs_delta_phase_deg below a compared point's delta");
  if (pass->boolean && compared == 0)
    return violation(kGoldenReport, "summary.pass requires at least one compared point");
  return Status();
}

Status validateGoldenReportText(std::string_view text) {
  JsonValue root;
  Status s = parseJson(text, root);
  if (!s.ok()) return s;
  return validateGoldenReportJson(root);
}

const std::vector<std::string>& runReportTimingFields() {
  static const std::vector<std::string> fields = {
      "quality.wall_time_s",
      "points[].wall_time_s",
      "metrics.counters[name=*_wall_s]",
      "metrics.gauges[name=*_wall_s]",
      "metrics.histograms[name=*_wall_s]",
  };
  return fields;
}

void stripTimingFields(JsonValue& root) {
  if (JsonValue* quality = root.find("quality")) quality->erase("wall_time_s");
  if (JsonValue* points = root.find("points"); points != nullptr && points->isArray())
    for (JsonValue& p : points->array) p.erase("wall_time_s");
  if (JsonValue* metrics = root.find("metrics")) {
    for (const char* family : {"counters", "gauges", "histograms"}) {
      JsonValue* arr = metrics->find(family);
      if (arr == nullptr || !arr->isArray()) continue;
      std::vector<JsonValue> kept;
      for (JsonValue& m : arr->array) {
        const JsonValue* name = m.find("name");
        if (name != nullptr && name->isString() && endsWith(name->string, "_wall_s")) continue;
        kept.push_back(std::move(m));
      }
      arr->array = std::move(kept);
    }
  }
}

}  // namespace pllbist::obs
