#include "golden/differential.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/units.hpp"
#include "control/grid.hpp"
#include "core/report_builder.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace pllbist::golden {

namespace {

double wrapDeg(double deg) {
  while (deg <= -180.0) deg += 360.0;
  while (deg > 180.0) deg -= 360.0;
  return deg;
}

uint64_t splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unitInterval(uint64_t bits) { return static_cast<double>(bits >> 11) * 0x1.0p-53; }

}  // namespace

ToleranceBands ToleranceBands::defaults() {
  ToleranceBands t;
  // The in-band edge sits below the -3 dB bandwidth of the most overdamped
  // device in the seeded family (bw = 0.37*fn at zeta = 1.5), so "in-band"
  // genuinely means in-band for every device the suite generates.
  t.bands = {
      {0.40, 1.0, 5.0, "in-band"},
      {1.75, 2.5, 12.0, "peak"},
      {2.60, 3.5, 18.0, "rolloff"},
  };
  return t;
}

const ToleranceBand* ToleranceBands::bandFor(double f_over_fn) const {
  for (const ToleranceBand& b : bands)
    if (f_over_fn <= b.f_over_fn_max) return &b;
  return nullptr;
}

DifferentialReport runDifferential(const pll::PllConfig& config,
                                   const DifferentialOptions& options, const std::string& device) {
  config.validate();
  if (options.points < 2)
    throw std::invalid_argument("runDifferential: need at least 2 sweep points");
  if (!(options.f_min_over_fn > 0.0) || !(options.f_max_over_fn > options.f_min_over_fn))
    throw std::invalid_argument("runDifferential: need 0 < f_min_over_fn < f_max_over_fn");

  const GoldenModel model(config);
  const double fn = model.naturalFrequencyHz();

  bist::SweepOptions sweep = bist::quickSweepOptions(config, options.stimulus, options.points);
  sweep.fm_steps = options.fm_steps;
  sweep.modulation_frequencies_hz =
      control::logspace(options.f_min_over_fn * fn, options.f_max_over_fn * fn, options.points);
  sweep.jitter_seed = static_cast<unsigned>(options.seed);

  DifferentialReport rep;
  rep.device = device;
  rep.stimulus = to_string(options.stimulus);
  rep.golden = model.parameters();
  rep.config_digest = obs::fnv1a64(core::canonicalConfigString(config, sweep));
  rep.seed = options.seed;
  rep.jobs = options.jobs;
  rep.transport_delay_ref_periods = options.transport_delay_ref_periods;
  rep.bands = options.bands;

  bist::ParallelSweepOptions farm;
  farm.jobs = options.jobs;
  farm.resilience = options.resilience;
  bist::ParallelSweep engine(config, sweep, farm);
  const bist::ResilientResponse result = engine.run();
  rep.quality = result.report;
  rep.sweep_status = result.status;

  control::BodeResponse bode;
  bool have_bode = true;
  try {
    bode = result.response.toBode();
  } catch (const std::domain_error&) {
    have_bode = false;
    if (rep.sweep_status.ok())
      rep.sweep_status = Status::make(Status::Kind::NoValidPoints,
                                      "differential: sweep produced no usable reference");
  }

  bool all_banded_pass = true;
  size_t bode_i = 0;
  for (const bist::MeasuredPoint& mp : result.response.points) {
    ComparisonPoint cp;
    cp.fm_hz = mp.modulation_hz;
    cp.f_over_fn = mp.modulation_hz / fn;
    cp.golden_db = model.magnitudeDb(mp.modulation_hz);
    cp.golden_phase_deg = model.phaseDeg(mp.modulation_hz);
    cp.delay_correction_deg = 360.0 * mp.modulation_hz * options.transport_delay_ref_periods /
                              config.ref_frequency_hz;
    cp.quality = to_string(mp.quality);
    cp.wall_time_s = mp.wall_time_s;

    const ToleranceBand* band = options.bands.bandFor(cp.f_over_fn);
    cp.band = band != nullptr ? band->label : "excluded";
    if (band != nullptr) {
      cp.magnitude_tol_db = band->magnitude_db;
      cp.phase_tol_deg = band->phase_deg;
    }

    const bool usable = have_bode && !mp.timed_out;
    if (usable && bode_i < bode.size()) {
      const control::BodePoint& bp = bode.points()[bode_i++];
      cp.measured_db = bp.magnitude_db;
      cp.measured_phase_deg = bp.phase_deg;
      cp.delta_db = cp.measured_db - cp.golden_db;
      // A pure delay lags the measured phase by delay_correction_deg; add
      // it back so the bands gate the modelled disagreement only.
      cp.delta_phase_deg =
          wrapDeg(cp.measured_phase_deg - cp.golden_phase_deg + cp.delay_correction_deg);
      if (band != nullptr) {
        cp.compared = true;
        cp.pass = std::abs(cp.delta_db) <= cp.magnitude_tol_db &&
                  std::abs(cp.delta_phase_deg) <= cp.phase_tol_deg;
        ++rep.compared;
        if (std::abs(cp.delta_db) > rep.max_abs_delta_db)
          rep.max_abs_delta_db = std::abs(cp.delta_db);
        if (std::abs(cp.delta_phase_deg) > rep.max_abs_delta_phase_deg)
          rep.max_abs_delta_phase_deg = std::abs(cp.delta_phase_deg);
        if (!cp.pass) all_banded_pass = false;
      } else {
        ++rep.excluded;
      }
    } else {
      // Dropped / timed-out point: nothing to compare. Inside a band this
      // fails the verdict (the oracle check could not run there).
      if (band != nullptr) all_banded_pass = false;
      else ++rep.excluded;
    }
    rep.points.push_back(std::move(cp));
  }

  rep.pass = rep.sweep_status.ok() && all_banded_pass && rep.compared > 0;
  return rep;
}

std::string DifferentialReport::toJson() const {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.beginObject();
  w.key("schema").value(kGoldenReportSchema);
  w.key("tool").value("golden_differential");
  w.key("config").beginObject();
  w.key("device").value(device);
  w.key("stimulus").value(stimulus);
  w.key("digest").value(obs::digestHex(config_digest));
  w.key("seed").value(obs::digestHex(seed));
  w.key("jobs").value(jobs);
  w.key("fn_hz").value(golden.naturalFrequencyHz());
  w.key("zeta").value(golden.zeta);
  w.key("tau2_s").value(golden.tau2_s);
  w.key("loop_gain_per_s").value(golden.loop_gain_per_s);
  w.key("transport_delay_ref_periods").value(transport_delay_ref_periods);
  w.endObject();

  w.key("tolerance_bands").beginArray();
  for (const ToleranceBand& b : bands.bands) {
    w.beginObject();
    w.key("label").value(b.label);
    w.key("f_over_fn_max").value(b.f_over_fn_max);
    w.key("magnitude_db").value(b.magnitude_db);
    w.key("phase_deg").value(b.phase_deg);
    w.endObject();
  }
  w.endArray();

  w.key("sweep_status").value(to_string(sweep_status.kind()));
  w.key("quality");
  obs::writeQuality(w, quality);

  w.key("points").beginArray();
  for (const ComparisonPoint& p : points) {
    w.beginObject();
    w.key("fm_hz").value(p.fm_hz);
    w.key("f_over_fn").value(p.f_over_fn);
    w.key("measured_db").value(p.measured_db);
    w.key("golden_db").value(p.golden_db);
    w.key("delta_db").value(p.delta_db);
    w.key("measured_phase_deg").value(p.measured_phase_deg);
    w.key("golden_phase_deg").value(p.golden_phase_deg);
    w.key("delay_correction_deg").value(p.delay_correction_deg);
    w.key("delta_phase_deg").value(p.delta_phase_deg);
    w.key("magnitude_tol_db").value(p.magnitude_tol_db);
    w.key("phase_tol_deg").value(p.phase_tol_deg);
    w.key("band").value(p.band);
    w.key("quality").value(p.quality);
    w.key("compared").value(p.compared);
    w.key("pass").value(p.pass);
    w.key("wall_time_s").value(p.wall_time_s);
    w.endObject();
  }
  w.endArray();

  w.key("summary").beginObject();
  w.key("compared").value(compared);
  w.key("excluded").value(excluded);
  w.key("max_abs_delta_db").value(max_abs_delta_db);
  w.key("max_abs_delta_phase_deg").value(max_abs_delta_phase_deg);
  w.key("pass").value(pass);
  w.endObject();
  w.endObject();
  return os.str();
}

SeededConfig seededRandomConfig(uint64_t seed) {
  uint64_t state = seed;
  const double fn_lo = 120.0, fn_hi = 420.0;
  SeededConfig out;
  out.seed = seed;
  out.fn_hz = fn_lo * std::pow(fn_hi / fn_lo, unitInterval(splitmix64(state)));
  out.zeta = 0.3 + 1.2 * unitInterval(splitmix64(state));
  const bool current_pump = (splitmix64(state) & 1) != 0;
  out.config = current_pump ? pll::scaledCurrentPumpConfig(out.fn_hz, out.zeta)
                            : pll::scaledTestConfig(out.fn_hz, out.zeta);
  return out;
}

}  // namespace pllbist::golden
