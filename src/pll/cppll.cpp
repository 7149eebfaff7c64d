#include "pll/cppll.hpp"

namespace pllbist::pll {

namespace {
constexpr double kMuxDelay = 1e-9;
}

CpPll::CpPll(sim::Circuit& c, sim::SignalId external_ref, sim::SignalId test_stimulus,
             const PllConfig& cfg, const std::string& prefix)
    : circuit_(c), cfg_(cfg) {
  cfg_.validate();

  test_mode_sel_ = c.addSignal(prefix + ".test_mode");
  hold_sel_ = c.addSignal(prefix + ".hold");
  pllref_ = c.addSignal(prefix + ".pllref");
  pfd_fb_in_ = c.addSignal(prefix + ".pfd_fb_in");
  vco_out_ = c.addSignal(prefix + ".vco_out");
  pllfb_ = c.addSignal(prefix + ".pllfb");

  // Reference divider on the normal (external) input path only; the test
  // stimulus already runs at the PFD rate.
  divided_ext_ref_ = c.addSignal(prefix + ".ext_div");
  ref_divider_ = std::make_unique<sim::DivideByN>(c, external_ref, divided_ext_ref_,
                                                  cfg_.ref_divider_r, kMuxDelay);
  input_mux_ = std::make_unique<sim::Mux2>(c, divided_ext_ref_, test_stimulus, test_mode_sel_,
                                           pllref_, kMuxDelay);
  pfd_ = std::make_unique<Pfd>(c, pllref_, pfd_fb_in_, cfg_.pfd, prefix + ".pfd");
  filter_ = std::make_unique<PumpFilter>(c, pfd_->up(), pfd_->dn(), cfg_.pump);
  // The feedback divider is fused into the VCO, which writes PLLFB itself.
  vco_ = std::make_unique<Vco>(c, *filter_, vco_out_, cfg_.vco, c.now(),
                               VcoDivider{pllfb_, cfg_.divider_n, kMuxDelay});
  // M2: feedback path into the PFD; selecting PLLREF for both inputs holds
  // the loop. Both PFD inputs then share the same mux-delay budget.
  hold_mux_ = std::make_unique<sim::Mux2>(c, pllfb_, pllref_, hold_sel_, pfd_fb_in_, kMuxDelay);
}

void CpPll::setTestMode(bool enabled) { circuit_.setNow(test_mode_sel_, enabled); }

void CpPll::setHold(bool enabled) { circuit_.setNow(hold_sel_, enabled); }

bool CpPll::holdAsserted() const { return circuit_.value(hold_sel_); }

void CpPll::copyStateFrom(const CpPll& source) {
  ref_divider_->copyStateFrom(*source.ref_divider_);
  pfd_->copyStateFrom(*source.pfd_);
  filter_->copyStateFrom(*source.filter_);
  vco_->copyStateFrom(*source.vco_);
}

double CpPll::controlVoltageNow() { return filter_->controlVoltage(circuit_.now()); }

double CpPll::vcoFrequencyNowHz() {
  return cfg_.vco.frequencyAt(filter_->controlVoltage(circuit_.now()));
}

}  // namespace pllbist::pll
