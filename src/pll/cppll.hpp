#pragma once

#include <memory>
#include <string>

#include "pll/config.hpp"
#include "pll/pfd.hpp"
#include "pll/pump_filter.hpp"
#include "pll/vco.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::pll {

/// Assembled charge-pump PLL with the two test multiplexers of the paper's
/// Figure 6 built in:
///
///   M1 (input mux):  PLLREF := test_mode ? test_stimulus : external_ref
///   M2 (hold mux):   PFD feedback input := hold ? PLLREF : PLLFB
///
/// Asserting hold feeds the identical signal to both PFD inputs; the
/// tri-state pump then only sees dead-zone glitches and the VCO frequency
/// freezes at its current value (section 4, observation (3)) — the
/// mechanism the BIST uses to park the output at its peak for unhurried
/// frequency counting.
///
/// The instance owns the sub-blocks but not the Circuit; signals it creates
/// are visible to other components (the BIST monitor PFD taps ref()/
/// feedback() exactly like the FPGA did).
class CpPll {
 public:
  CpPll(sim::Circuit& c, sim::SignalId external_ref, sim::SignalId test_stimulus,
        const PllConfig& cfg, const std::string& prefix = "pll");

  CpPll(const CpPll&) = delete;
  CpPll& operator=(const CpPll&) = delete;

  /// PLLREF: the reference as seen by the in-loop PFD (post-M1).
  [[nodiscard]] sim::SignalId ref() const { return pllref_; }
  /// PLLFB: the divided VCO output (pre-M2).
  [[nodiscard]] sim::SignalId feedback() const { return pllfb_; }
  /// The raw VCO output: an observation tap that toggles only while it has
  /// observers. The loop never reads it (the VCO drives PLLFB itself), so a
  /// fault rule on it reaches its observers but not the divider.
  [[nodiscard]] sim::SignalId vcoOut() const { return vco_out_; }
  [[nodiscard]] sim::SignalId pfdUp() const { return pfd_->up(); }
  [[nodiscard]] sim::SignalId pfdDn() const { return pfd_->dn(); }
  /// The in-loop PFD's reset net, written only while observed.
  [[nodiscard]] sim::SignalId pfdReset() const { return pfd_->resetNet(); }

  /// Drive the M1/M2 selects (take effect immediately at circuit time).
  void setTestMode(bool enabled);
  void setHold(bool enabled);
  [[nodiscard]] bool holdAsserted() const;

  /// Ground-truth probes for verification and tracing; the BIST never calls
  /// these. Both advance the analog state to the circuit's current time.
  double controlVoltageNow();
  double vcoFrequencyNowHz();

  [[nodiscard]] const PllConfig& config() const { return cfg_; }
  [[nodiscard]] PumpFilter& filter() { return *filter_; }
  [[nodiscard]] Vco& vco() { return *vco_; }

  /// Fork support (see sim::Circuit::copyStateFrom): take the state of
  /// `source`'s stateful blocks (reference divider, PFD, pump filter, VCO).
  void copyStateFrom(const CpPll& source);

 private:
  sim::Circuit& circuit_;
  PllConfig cfg_;

  sim::SignalId test_mode_sel_;
  sim::SignalId hold_sel_;
  sim::SignalId divided_ext_ref_ = sim::kNoSignal;
  sim::SignalId pllref_;
  sim::SignalId pfd_fb_in_;
  sim::SignalId vco_out_;
  sim::SignalId pllfb_;

  std::unique_ptr<sim::DivideByN> ref_divider_;
  std::unique_ptr<sim::Mux2> input_mux_;
  std::unique_ptr<sim::Mux2> hold_mux_;
  std::unique_ptr<Pfd> pfd_;
  std::unique_ptr<PumpFilter> filter_;
  std::unique_ptr<Vco> vco_;
};

}  // namespace pllbist::pll
