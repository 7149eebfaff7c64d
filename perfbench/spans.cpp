#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanRecorder::begin(const char* name, uint64_t parent, uint64_t unit, int64_t start_ns) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.parent = parent;
  s.unit = unit;
  s.start_ns = start_ns >= 0 ? start_ns : nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = spans_.size() + 1;
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::end(uint64_t id, int64_t end_ns) {
  if (id == 0) return;
  const int64_t t = end_ns >= 0 ? end_ns : nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = t;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::selfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent != 0 && s.end_ns >= 0) children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);

  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;
    auto& kids = children[s.id - 1];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals, clipped to the parent.
    int64_t covered = 0, run_start = 0, run_end = -1;
    for (const auto& [a0, b0] : kids) {
      const int64_t a = std::max(a0, s.start_ns), b = std::min(b0, s.end_ns);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

bool SpanRecorder::writeJsonl(const std::string& path, const std::string& header_line) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_line.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"unit\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), static_cast<unsigned long long>(s.unit),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || xs[hi] == xs[lo]) return xs[lo];  // keeps 0 * inf and inf - inf out
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

}  // namespace perfbench
