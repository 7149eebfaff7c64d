#include "bist/sweep_types.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "control/grid.hpp"
#include "pll/sources.hpp"

namespace pllbist::bist {

const char* to_string(StimulusKind kind) {
  switch (kind) {
    case StimulusKind::MultiToneFsk: return "multi-tone-fsk";
    case StimulusKind::TwoToneFsk: return "two-tone-fsk";
    case StimulusKind::PureSineFm: return "pure-sine-fm";
    case StimulusKind::DelayLinePm: return "delay-line-pm";
  }
  return "unknown";
}

const char* to_string(PointQuality quality) {
  switch (quality) {
    case PointQuality::Ok: return "ok";
    case PointQuality::Retried: return "retried";
    case PointQuality::Degraded: return "degraded";
    case PointQuality::Dropped: return "dropped";
  }
  return "unknown";
}

Status SweepOptions::check() const {
  using K = Status::Kind;
  if (fm_steps < 2)
    return Status::makef(K::InvalidArgument, "SweepOptions: fm_steps = %d, must be >= 2", fm_steps);
  if (deviation_hz <= 0.0)
    return Status::makef(K::InvalidArgument, "SweepOptions: deviation_hz = %g, must be positive",
                         deviation_hz);
  if (modulation_frequencies_hz.empty())
    return Status::make(K::InvalidArgument,
                        "SweepOptions: modulation_frequencies_hz is empty, need >= 1 frequency");
  for (size_t i = 0; i < modulation_frequencies_hz.size(); ++i) {
    if (!(modulation_frequencies_hz[i] > 0.0))
      return Status::makef(K::InvalidArgument,
                           "SweepOptions: modulation_frequencies_hz[%zu] = %g, must be positive",
                           i, modulation_frequencies_hz[i]);
    if (i > 0 && modulation_frequencies_hz[i] <= modulation_frequencies_hz[i - 1])
      return Status::makef(
          K::InvalidArgument,
          "SweepOptions: modulation_frequencies_hz[%zu] = %g <= [%zu] = %g, must be strictly "
          "ascending",
          i, modulation_frequencies_hz[i], i - 1, modulation_frequencies_hz[i - 1]);
  }
  if (!(master_clock_hz > 0.0))
    return Status::makef(K::InvalidArgument, "SweepOptions: master_clock_hz = %g, must be positive",
                         master_clock_hz);
  if (pm_taps < 2)
    return Status::makef(K::InvalidArgument, "SweepOptions: pm_taps = %d, must be >= 2", pm_taps);
  if (pm_tap_delay_s < 0.0)
    return Status::makef(K::InvalidArgument, "SweepOptions: pm_tap_delay_s = %g, must be >= 0",
                         pm_tap_delay_s);
  if (lock_wait_s < 0.0)
    return Status::makef(K::InvalidArgument, "SweepOptions: lock_wait_s = %g, must be >= 0",
                         lock_wait_s);
  if (static_settle_s <= 0.0)
    return Status::makef(K::InvalidArgument, "SweepOptions: static_settle_s = %g, must be positive",
                         static_settle_s);
  if (ref_edge_jitter_rms_s < 0.0)
    return Status::makef(K::InvalidArgument,
                         "SweepOptions: ref_edge_jitter_rms_s = %g, must be >= 0",
                         ref_edge_jitter_rms_s);
  return sequencer.check();
}

Status SweepOptions::check(const pll::PllConfig& config) const {
  const Status own = check();
  if (!own.ok()) return own;
  using K = Status::Kind;
  // An FM deviation at or above the reference frequency would swing the
  // DCO program through 0 Hz — physically meaningless and a guaranteed
  // dead sweep.
  if (stimulus != StimulusKind::DelayLinePm && deviation_hz >= config.ref_frequency_hz)
    return Status::makef(K::InvalidArgument,
                         "SweepOptions: deviation_hz = %g must be below the reference frequency "
                         "(%g Hz)",
                         deviation_hz, config.ref_frequency_hz);
  // The sine-FM source's jittered edge must be emitted before its next
  // toggle, at the crest frequency too.
  if (stimulus == StimulusKind::PureSineFm &&
      !pll::SineFmSource::jitterFitsHalfPeriod(ref_edge_jitter_rms_s,
                                               config.ref_frequency_hz + deviation_hz))
    return Status::makef(K::InvalidArgument,
                         "SweepOptions: ref_edge_jitter_rms_s = %g, 6x must stay below the half "
                         "period at the crest frequency (%g Hz)",
                         ref_edge_jitter_rms_s, config.ref_frequency_hz + deviation_hz);
  if (stimulus == StimulusKind::MultiToneFsk || stimulus == StimulusKind::TwoToneFsk) {
    if (master_clock_hz <= 2.0 * config.ref_frequency_hz)
      return Status::makef(K::InvalidArgument,
                           "SweepOptions: master_clock_hz = %g too slow for a %g Hz reference "
                           "(DCO needs >= 2x)",
                           master_clock_hz, config.ref_frequency_hz);
  }
  return Status();
}

void SweepOptions::validate() const { check().throwIfError(); }

std::vector<double> SweepOptions::defaultSweep(double fn_hz, int points) {
  if (fn_hz <= 0.0) throw std::invalid_argument("defaultSweep: fn must be positive");
  // fn/4 to 5x fn: below ~fn/4 the FSK slot rate drops under the loop
  // bandwidth and the loop tracks individual steps (the stimulus stops
  // looking sinusoidal); the DC parked-offset reference anchors the 0 dB
  // asymptote instead.
  return control::logspace(fn_hz / 4.0, fn_hz * 5.0, points);
}

control::BodeResponse MeasuredResponse::toBode() const {
  if (points.empty()) throw std::domain_error("MeasuredResponse: no points");
  const double eqn7_ref = static_reference_deviation_hz > 0.0 ? static_reference_deviation_hz
                                                              : points.front().deviation_hz;
  std::vector<control::BodePoint> pts;
  pts.reserve(points.size());
  for (const MeasuredPoint& p : points) {
    if (p.timed_out) continue;  // dead points excluded from the plot
    // Per-point absolute normalisation when available (PM); otherwise the
    // eqn (7) common reference (FM).
    const double ref = p.unity_gain_deviation_hz > 0.0 ? p.unity_gain_deviation_hz : eqn7_ref;
    if (ref <= 0.0)
      throw std::domain_error("MeasuredResponse: no usable reference deviation");
    const double dev = std::max(p.deviation_hz, 1e-12);
    pts.push_back({hzToRadPerSec(p.modulation_hz), amplitudeToDb(dev / ref), p.phase_deg});
  }
  // The raw per-point lag lives in (-360, 0], which is ambiguous by a full
  // turn: a point whose true lag is a few degrees but jitters slightly
  // *ahead* of the marker reads as ~-360. Anchor the first (most in-band)
  // point into (-180, 180]; BodeResponse unwraps the rest relative to it.
  if (!pts.empty()) {
    while (pts.front().phase_deg <= -180.0) pts.front().phase_deg += 360.0;
  }
  return control::BodeResponse::fromPoints(std::move(pts));
}

SweepOptions quickSweepOptions(const pll::PllConfig& config, StimulusKind stimulus, int points) {
  config.validate();
  SweepOptions opt;
  opt.stimulus = stimulus;
  opt.deviation_hz = config.ref_frequency_hz * 0.01;
  opt.master_clock_hz = config.ref_frequency_hz * 1000.0;
  const double fn_hz = radPerSecToHz(config.secondOrder().omega_n_rad_per_s);
  opt.modulation_frequencies_hz = SweepOptions::defaultSweep(fn_hz, points);
  // ~10 natural periods of lock/settle margin. The 10/fn gate resolves
  // fn/10 Hz, which is 10·fn/(N·fref) of the 1% deviation at the VCO: 20 Hz
  // on 1,000 Hz, or 2%, for fn = 200 Hz and N·fref = 100 kHz.
  opt.lock_wait_s = 10.0 / fn_hz;
  opt.static_settle_s = 10.0 / fn_hz;
  opt.sequencer.freq_gate_s = 10.0 / fn_hz;
  opt.sequencer.hold_to_gate_delay_s = 2.0 / config.ref_frequency_hz;
  return opt;
}

std::vector<double> MeasuredResponse::modulationFrequencies() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const MeasuredPoint& p : points) out.push_back(p.modulation_hz);
  return out;
}

}  // namespace pllbist::bist
