#include "core/report_builder.hpp"

#include <cstdio>

#include "bist/sweep_types.hpp"
#include "obs/json.hpp"

namespace pllbist::core {

namespace {

void appendField(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%s;", key, obs::jsonNumber(value).c_str());
  out += buf;
}

void appendField(std::string& out, const char* key, long value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%ld;", key, value);
  out += buf;
}

}  // namespace

std::string canonicalConfigString(const pll::PllConfig& config, const bist::SweepOptions& sweep) {
  std::string s;
  s.reserve(512);
  appendField(s, "ref_hz", config.ref_frequency_hz);
  appendField(s, "div_n", static_cast<long>(config.divider_n));
  appendField(s, "div_r", static_cast<long>(config.ref_divider_r));
  appendField(s, "pump_kind", static_cast<long>(config.pump.kind));
  appendField(s, "vdd", config.pump.vdd_v);
  appendField(s, "vss", config.pump.vss_v);
  appendField(s, "ip", config.pump.pump_current_a);
  appendField(s, "r1", config.pump.r1_ohm);
  appendField(s, "r2", config.pump.r2_ohm);
  appendField(s, "c", config.pump.c_farad);
  appendField(s, "vc0", config.pump.initial_vc_v);
  appendField(s, "up", config.pump.up_strength);
  appendField(s, "dn", config.pump.down_strength);
  appendField(s, "leak", config.pump.leak_ohm);
  appendField(s, "vco_f0", config.vco.center_frequency_hz);
  appendField(s, "vco_kv", config.vco.gain_hz_per_v);
  appendField(s, "vco_vc", config.vco.v_center_v);
  appendField(s, "vco_min", config.vco.min_frequency_hz);
  appendField(s, "vco_max", config.vco.max_frequency_hz);
  appendField(s, "pfd_clkq", config.pfd.ff_clk_to_q_s);
  appendField(s, "pfd_and", config.pfd.and_delay_s);
  appendField(s, "pfd_rstq", config.pfd.ff_reset_to_q_s);
  appendField(s, "stim", static_cast<long>(sweep.stimulus));
  appendField(s, "fm_steps", static_cast<long>(sweep.fm_steps));
  appendField(s, "dev_hz", sweep.deviation_hz);
  appendField(s, "pm_taps", static_cast<long>(sweep.pm_taps));
  appendField(s, "pm_tap_s", sweep.pm_tap_delay_s);
  appendField(s, "mclk", sweep.master_clock_hz);
  appendField(s, "lock_wait", sweep.lock_wait_s);
  appendField(s, "settle", sweep.static_settle_s);
  appendField(s, "jitter_rms", sweep.ref_edge_jitter_rms_s);
  appendField(s, "jitter_seed", static_cast<long>(sweep.jitter_seed));
  s += "fm=[";
  for (double fm : sweep.modulation_frequencies_hz) {
    s += obs::jsonNumber(fm);
    s += ',';
  }
  s += "];";
  return s;
}

obs::RunReport buildRunReport(const std::string& tool, const std::string& device,
                              const pll::PllConfig& config, const bist::SweepOptions& sweep,
                              int jobs, const bist::ResilientResponse& result,
                              obs::MetricsSnapshot metrics) {
  obs::RunReport rep;
  rep.tool = tool;
  rep.device = device;
  rep.stimulus = bist::to_string(sweep.stimulus);
  rep.config_digest = obs::fnv1a64(canonicalConfigString(config, sweep));
  rep.jobs = jobs;
  rep.sweep_status = Status::kindName(result.status.kind());

  rep.quality = result.report;

  rep.points.reserve(result.response.points.size());
  for (const bist::MeasuredPoint& p : result.response.points) {
    obs::RunReport::Point row;
    row.fm_hz = p.modulation_hz;
    row.deviation_hz = p.deviation_hz;
    row.phase_deg = p.phase_deg;
    row.quality = bist::to_string(p.quality);
    row.attempts = p.attempts;
    row.status = Status::kindName(p.status.kind());
    row.status_context = p.status.context();
    row.wall_time_s = p.wall_time_s;
    rep.points.push_back(std::move(row));
  }

  using Block = bist::BenchStats::Block;
  const bist::BenchStats& b = result.bench;
  for (const bist::BenchStats::Counter& c : bist::BenchStats::kCounters)
    if (c.reported && b.carries(c.block))
      (c.block == Block::Kernel ? rep.kernel : c.block == Block::Loop ? rep.loop : rep.faults)
          .push_back({c.key, b.*c.field});
  rep.metrics = std::move(metrics);
  return rep;
}

}  // namespace pllbist::core
