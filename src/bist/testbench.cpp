#include "bist/testbench.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace pllbist::bist {

SweepTestbench::SweepTestbench(const pll::PllConfig& config, const SweepOptions& options)
    : config_(config), options_(options) {
  config_.validate();
  options_.check(config_).throwIfError();

  stim_out_ = circuit_.addSignal("stimulus");
  stim_marker_ = circuit_.addSignal("stim_peak");

  // Stimulus path (Figure 4 / section 3, or the delay line of the
  // further-work discussion), pulled by the loop's input mux.
  sim::ReferenceSource* source = nullptr;
  if (options_.stimulus == StimulusKind::DelayLinePm) {
    const auto raw_ref = circuit_.addSignal("pm_raw_ref");
    pm_clock_ =
        std::make_unique<sim::ClockSource>(circuit_, raw_ref, 1.0 / config_.ref_frequency_hz);
    DelayLineModulator::Config dl;
    dl.taps = options_.pm_taps;
    dl.tap_delay_s = options_.pm_tap_delay_s > 0.0
                         ? options_.pm_tap_delay_s
                         : 1.0 / (8.0 * config_.ref_frequency_hz *
                                  static_cast<double>(options_.pm_taps - 1));
    dl.steps = options_.fm_steps;
    dl.nominal_hz = config_.ref_frequency_hz;
    auto line = std::make_unique<DelayLineModulator>(circuit_, *pm_clock_, stim_out_, stim_marker_, dl);
    pm_theta_dev_rad_ = line->phaseDeviationRad();
    source = line.get();
    program_ = std::move(line);
  } else if (options_.stimulus == StimulusKind::PureSineFm) {
    pll::SineFmSource::Config scfg;
    scfg.nominal_hz = config_.ref_frequency_hz;
    scfg.deviation_hz = 0.0;  // CW until a point starts
    scfg.modulation_hz = 0.0;
    scfg.edge_jitter_rms_s = options_.ref_edge_jitter_rms_s;
    scfg.jitter_seed = options_.jitter_seed;
    sine_source_ = std::make_unique<pll::SineFmSource>(circuit_, stim_out_, scfg);
    source = sine_source_.get();
    program_ = std::make_unique<SineFmProgram>(
        circuit_, *sine_source_, stim_marker_,
        SineFmProgram::Config{config_.ref_frequency_hz, options_.deviation_hz});
  } else {
    Dco::Config dcfg;
    dcfg.master_clock_hz = options_.master_clock_hz;
    dcfg.initial_modulus = std::max(
        2, static_cast<int>(std::lround(options_.master_clock_hz / config_.ref_frequency_hz)));
    dco_ = std::make_unique<Dco>(circuit_, stim_out_, dcfg);
    source = dco_.get();
    FskModulator::Config mcfg;
    mcfg.waveform = options_.stimulus == StimulusKind::TwoToneFsk ? StimulusWaveform::TwoToneFsk
                                                                  : StimulusWaveform::MultiToneFsk;
    mcfg.steps = options_.fm_steps;
    mcfg.nominal_hz = config_.ref_frequency_hz;
    mcfg.deviation_hz = options_.deviation_hz;
    program_ = std::make_unique<FskModulator>(circuit_, *dco_, stim_marker_, mcfg);
  }

  // Device under test with the M1/M2 test muxes.
  // The bench has no external reference: M1's normal input stays low.
  pll_ = std::make_unique<pll::CpPll>(circuit_, *source, config_);
  pll_->setTestMode(true);

  // Response capture (Figure 6/7) plus the lock detector the reliability
  // layer uses for relock-and-resume.
  peak_detector_ = std::make_unique<PeakDetector>(circuit_, *pll_);
  lock_ = std::make_unique<pll::LockDetector>(*pll_, 0.02 / config_.ref_frequency_hz);
  sequencer_ = std::make_unique<TestSequencer>(circuit_, *pll_, *program_, *peak_detector_,
                                               options_.master_clock_hz, options_.sequencer);
}

void SweepTestbench::copyStateFrom(const SweepTestbench& source) {
  if (source.options_.stimulus != options_.stimulus)
    throw std::logic_error("SweepTestbench::copyStateFrom: benches of different stimulus kinds");
  if (source.sequencer_->stage() != TestSequencer::Stage::Idle)
    throw std::logic_error("SweepTestbench::copyStateFrom: the source has a point in flight");
  circuit_.copyStateFrom(source.circuit_);
  if (dco_) dco_->copyStateFrom(*source.dco_);
  program_->copyStateFrom(*source.program_);
  if (sine_source_) sine_source_->copyStateFrom(*source.sine_source_);
  if (pm_clock_) pm_clock_->copyStateFrom(*source.pm_clock_);
  pll_->copyStateFrom(*source.pll_);
  peak_detector_->copyStateFrom(*source.peak_detector_);
  lock_->copyStateFrom(*source.lock_);
  sequencer_->copyStateFrom(*source.sequencer_);
}

sim::FaultInjector& SweepTestbench::faultInjector(uint64_t seed) {
  if (!injector_) injector_ = std::make_unique<sim::FaultInjector>(circuit_, seed);
  return *injector_;
}

sim::SignalId SweepTestbench::mfreq() const { return peak_detector_->mfreq(); }

}  // namespace pllbist::bist
