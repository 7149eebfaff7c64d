#include "bist/sequencer.hpp"

#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "obs/tracer.hpp"

namespace pllbist::bist {

namespace {
/// Fraction of the modulation period MFREQ must have been continuously high
/// for its falling edge to count as the output peak. The discrete FSK steps
/// excite loop transients whose phase-error zero crossings also flip MFREQ;
/// only the fundamental produces a high run of ~half a period. A small
/// counter implements this on chip.
constexpr double kPeakQualifyFraction = 0.15;

const char* stageName(TestSequencer::Stage stage) {
  switch (stage) {
    case TestSequencer::Stage::Idle: return "idle";
    case TestSequencer::Stage::Settle: return "settle";
    case TestSequencer::Stage::PhaseMeasure: return "phase-measure";
    case TestSequencer::Stage::AwaitPeakForHold: return "await-peak-for-hold";
    case TestSequencer::Stage::HoldCount: return "hold-count";
  }
  return "unknown";
}
}  // namespace

Status TestSequencer::Options::check() const {
  using K = Status::Kind;
  if (settle_periods < 1)
    return Status::makef(K::InvalidArgument, "TestSequencer: settle_periods = %d, must be >= 1",
                         settle_periods);
  if (average_periods < 1)
    return Status::makef(K::InvalidArgument, "TestSequencer: average_periods = %d, must be >= 1",
                         average_periods);
  if (freq_gate_s <= 0.0)
    return Status::makef(K::InvalidArgument, "TestSequencer: freq_gate_s = %g, must be positive",
                         freq_gate_s);
  if (hold_to_gate_delay_s < 0.0)
    return Status::makef(K::InvalidArgument,
                         "TestSequencer: hold_to_gate_delay_s = %g, must be >= 0",
                         hold_to_gate_delay_s);
  if (timeout_periods <= static_cast<double>(settle_periods + average_periods))
    return Status::makef(K::InvalidArgument,
                         "TestSequencer: timeout_periods = %g must exceed settle+average = %d",
                         timeout_periods, settle_periods + average_periods);
  return Status();
}

void TestSequencer::Options::validate() const { check().throwIfError(); }

void TestSequencer::setOptions(const Options& options) {
  if (stage_ != Stage::Idle) throw std::logic_error("TestSequencer::setOptions: sequencer busy");
  options.validate();
  options_ = options;
}

void TestSequencer::copyStateFrom(const TestSequencer& source) {
  if (source.stage_ != Stage::Idle)
    throw std::logic_error("TestSequencer::copyStateFrom: the source has a point in flight");
  freq_counter_.copyStateFrom(source.freq_counter_);
  phase_counter_ = source.phase_counter_;
  options_ = source.options_;
  sequence_id_ = source.sequence_id_;
  current_ = source.current_;
  waiting_for_output_peak_ = source.waiting_for_output_peak_;
  mfreq_rise_time_ = source.mfreq_rise_time_;
}

TestSequencer::TestSequencer(sim::Circuit& c, pll::CpPll& pll, StimulusProgram& stimulus,
                             PeakDetector& peak_detector, double test_clock_hz, Options options)
    : circuit_(c),
      pll_(pll),
      stimulus_(stimulus),
      freq_counter_(c, pll.vco()),
      phase_counter_(test_clock_hz),
      options_(options) {
  options_.validate();
  c.onRisingEdge(stimulus.peakMarker(), [this](double now) { handleStimulusPeak(now); });
  peak_detector.onMinFrequency([this](double now) { handleMfreqRise(now); });
  peak_detector.onMaxFrequency([this](double now) { handleOutputPeak(now); });
}

void TestSequencer::enterStage(Stage stage) {
  stage_ = stage;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.end(stage_span_);
  stage_span_ = 0;
  const char* span = nullptr;
  switch (stage) {
    case Stage::Idle: break;
    case Stage::Settle: span = "sequencer.settle"; break;
    case Stage::PhaseMeasure: span = "sequencer.phase_measure"; break;
    case Stage::AwaitPeakForHold: span = "sequencer.await_peak"; break;
    case Stage::HoldCount: span = "sequencer.hold_count"; break;
  }
  if (span != nullptr) stage_span_ = tracer.begin(span);
}

void TestSequencer::measurePoint(double modulation_hz, std::function<void(PointResult)> done) {
  if (!std::isfinite(modulation_hz) || modulation_hz <= 0.0)
    throw std::invalid_argument("measurePoint: modulation must be positive and finite");
  if (stage_ != Stage::Idle) throw std::logic_error("measurePoint: sequencer busy");

  current_ = PointResult{};
  current_.modulation_hz = modulation_hz;
  done_ = std::move(done);
  waiting_for_output_peak_ = false;
  const unsigned id = ++sequence_id_;
  const double period = 1.0 / modulation_hz;

  enterStage(Stage::Settle);
  stimulus_.start(modulation_hz);
  circuit_.scheduleCallback(circuit_.now() + options_.settle_periods * period,
                            [this, id](double) {
                              if (id != sequence_id_ || stage_ != Stage::Settle) return;
                              enterStage(Stage::PhaseMeasure);
                            });
  // Watchdog: a broken loop (no output peaks) must not hang the BIST. The
  // deadline budgets for the hold gate, which runs at wall-clock (gate)
  // speed rather than in modulation periods.
  const double deadline = circuit_.now() + options_.timeout_periods * period +
                          options_.hold_to_gate_delay_s + options_.freq_gate_s;
  circuit_.scheduleCallback(deadline, [this, id](double now) {
                              if (id != sequence_id_ || stage_ == Stage::Idle) return;
                              current_.timed_out = true;
                              current_.status = Status::makef(
                                  Status::Kind::Timeout,
                                  "point watchdog fired at t = %g s in stage %s (fm = %g Hz, "
                                  "%zu/%d phase captures)",
                                  now, stageName(stage_), current_.modulation_hz,
                                  current_.phase_counts.size(), options_.average_periods);
                              finish(now);
                            });
}

void TestSequencer::handleStimulusPeak(double now) {
  if (stage_ != Stage::PhaseMeasure) return;
  if (waiting_for_output_peak_) return;  // still waiting on the previous period
  phase_counter_.arm(now);
  waiting_for_output_peak_ = true;
}

void TestSequencer::handleMfreqRise(double now) { mfreq_rise_time_ = now; }

void TestSequencer::handleOutputPeak(double now) {
  // Debounce: the output peak is the MFREQ fall after a sustained high run;
  // FSK step transients flip MFREQ only briefly.
  if (current_.modulation_hz > 0.0) {
    const double min_high = kPeakQualifyFraction / current_.modulation_hz;
    if (mfreq_rise_time_ < 0.0 || now - mfreq_rise_time_ < min_high) return;
  }
  if (stage_ == Stage::PhaseMeasure) {
    if (!waiting_for_output_peak_) return;
    current_.phase_counts.push_back(phase_counter_.capture(now));
    waiting_for_output_peak_ = false;
    if (static_cast<int>(current_.phase_counts.size()) >= options_.average_periods)
      enterStage(Stage::AwaitPeakForHold);
    return;
  }
  if (stage_ == Stage::AwaitPeakForHold) {
    // Table 2 stage 3: park the loop at the output maximum.
    pll_.setHold(true);
    current_.hold_time_s = now;
    enterStage(Stage::HoldCount);
    const unsigned id = sequence_id_;
    circuit_.scheduleCallback(now + options_.hold_to_gate_delay_s, [this, id](double) {
      if (id != sequence_id_ || stage_ != Stage::HoldCount) return;
      freq_counter_.measure(options_.freq_gate_s, [this, id](FrequencyCounter::Result r) {
        if (id != sequence_id_ || stage_ != Stage::HoldCount) return;
        current_.held_count = r.count;
        current_.gate_s = r.gate_s;
        current_.held_frequency_hz = r.frequencyHz();
        pll_.setHold(false);
        finish(circuit_.now());
      });
    });
  }
}

void TestSequencer::finish(double /*now*/) {
  // Circular mean of the per-period phase delays: robust when the lag sits
  // near the 0/-360 wrap (jitter would otherwise split the samples).
  double sx = 0.0, sy = 0.0;
  for (long count : current_.phase_counts) {
    const double deg = PhaseCounter::phaseDelayDeg(count, phase_counter_.testClockHz(),
                                                   current_.modulation_hz);
    sx += std::cos(degToRad(deg));
    sy += std::sin(degToRad(deg));
  }
  if (!current_.phase_counts.empty()) {
    double mean = radToDeg(std::atan2(sy, sx));
    if (mean > 0.0) mean -= 360.0;  // report as a lag in (-360, 0]
    current_.phase_deg = mean;
  }
  if (pll_.holdAsserted()) pll_.setHold(false);
  enterStage(Stage::Idle);
  ++sequence_id_;
  if (done_) {
    auto done = std::move(done_);
    done_ = nullptr;
    done(current_);
  }
}

void TestSequencer::abandon() {
  if (stage_ == Stage::Idle) return;
  if (pll_.holdAsserted()) pll_.setHold(false);
  freq_counter_.abandon();
  enterStage(Stage::Idle);
  ++sequence_id_;
  done_ = nullptr;
}

void TestSequencer::measureStaticReference(double settle_s, std::function<void(double hz)> done) {
  if (stage_ != Stage::Idle) throw std::logic_error("measureStaticReference: sequencer busy");
  if (settle_s <= 0.0) throw std::invalid_argument("measureStaticReference: settle must be positive");
  stimulus_.park();
  circuit_.scheduleCallback(circuit_.now() + settle_s, [this, done = std::move(done)](double) {
    freq_counter_.measure(options_.freq_gate_s, [this, done](FrequencyCounter::Result r) {
      stimulus_.stop();
      done(r.frequencyHz());
    });
  });
}

void TestSequencer::measureNominal(std::function<void(double hz)> done) {
  if (stage_ != Stage::Idle) throw std::logic_error("measureNominal: sequencer busy");
  stimulus_.stop();
  freq_counter_.measure(options_.freq_gate_s,
                        [done = std::move(done)](FrequencyCounter::Result r) {
                          done(r.frequencyHz());
                        });
}

}  // namespace pllbist::bist
