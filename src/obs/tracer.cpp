#include "obs/tracer.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "obs/json.hpp"

namespace pllbist::obs {

namespace {

struct StackEntry {
  const Tracer* tracer;
  uint64_t id;
};
/// Per-thread stack of open *scoped* spans (parent linkage).
thread_local std::vector<StackEntry> tl_span_stack;

}  // namespace

struct Tracer::Impl {
  std::atomic<bool> enabled{false};
  std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();

  mutable std::mutex mutex;
  std::size_t capacity;
  std::vector<SpanRecord> ring;  // grows to capacity, then wraps at head
  std::size_t head = 0;          // next overwrite position once full
  uint64_t next_id = 1;

  struct OpenSpan {
    std::string name;
    uint64_t parent_id = 0;
    uint64_t start_ns = 0;
    uint32_t thread_index = 0;
  };
  std::unordered_map<uint64_t, OpenSpan> open;
  std::map<std::thread::id, uint32_t> thread_indices;

  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             epoch)
            .count());
  }

  uint32_t threadIndexLocked() {
    const auto tid = std::this_thread::get_id();
    auto it = thread_indices.find(tid);
    if (it == thread_indices.end())
      it = thread_indices.emplace(tid, static_cast<uint32_t>(thread_indices.size())).first;
    return it->second;
  }

  void pushLocked(SpanRecord rec) {
    if (ring.size() < capacity) {
      ring.push_back(std::move(rec));
    } else {
      ring[head] = std::move(rec);
      head = (head + 1) % capacity;
    }
  }
};

Tracer::Tracer(std::size_t capacity) : impl_(new Impl) {
  impl_->capacity = capacity == 0 ? 1 : capacity;
}
Tracer::~Tracer() { delete impl_; }

void Tracer::setEnabled(bool enabled) { impl_->enabled.store(enabled, std::memory_order_relaxed); }
bool Tracer::enabled() const { return impl_->enabled.load(std::memory_order_relaxed); }

uint64_t Tracer::begin(std::string_view name) {
  if (!enabled()) return 0;
  uint64_t parent = 0;
  if (!tl_span_stack.empty() && tl_span_stack.back().tracer == this)
    parent = tl_span_stack.back().id;
  const uint64_t start = impl_->nowNs();
  std::lock_guard<std::mutex> guard(impl_->mutex);
  const uint64_t id = impl_->next_id++;
  impl_->open.emplace(id, Impl::OpenSpan{std::string(name), parent, start,
                                         impl_->threadIndexLocked()});
  return id;
}

void Tracer::end(uint64_t id) {
  if (id == 0) return;
  const uint64_t now = impl_->nowNs();
  std::lock_guard<std::mutex> guard(impl_->mutex);
  auto it = impl_->open.find(id);
  if (it == impl_->open.end()) return;  // cleared mid-span, or a bogus id
  SpanRecord rec;
  rec.name = std::move(it->second.name);
  rec.id = id;
  rec.parent_id = it->second.parent_id;
  rec.start_ns = it->second.start_ns;
  rec.duration_ns = now > it->second.start_ns ? now - it->second.start_ns : 0;
  rec.thread_index = it->second.thread_index;
  impl_->open.erase(it);
  impl_->pushLocked(std::move(rec));
}

void Tracer::instant(std::string_view name) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.name = std::string(name);
  rec.start_ns = impl_->nowNs();
  rec.instant = true;
  if (!tl_span_stack.empty() && tl_span_stack.back().tracer == this)
    rec.parent_id = tl_span_stack.back().id;
  std::lock_guard<std::mutex> guard(impl_->mutex);
  rec.id = impl_->next_id++;
  rec.thread_index = impl_->threadIndexLocked();
  impl_->pushLocked(std::move(rec));
}

Tracer::Scope Tracer::beginScoped(std::string_view name) {
  const uint64_t id = begin(name);
  if (id == 0) return {};
  tl_span_stack.push_back({this, id});
  return {this, id};
}

void Tracer::endScoped(uint64_t id) {
  if (id == 0) return;
  // Scoped spans strictly nest per thread, so the top entry is ours; guard
  // anyway against a stack cleared from another scope.
  if (!tl_span_stack.empty() && tl_span_stack.back().tracer == this &&
      tl_span_stack.back().id == id)
    tl_span_stack.pop_back();
  end(id);
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard<std::mutex> guard(impl_->mutex);
  std::vector<SpanRecord> out;
  out.reserve(impl_->ring.size());
  if (impl_->ring.size() < impl_->capacity) {
    out = impl_->ring;
  } else {
    for (std::size_t i = 0; i < impl_->ring.size(); ++i)
      out.push_back(impl_->ring[(impl_->head + i) % impl_->ring.size()]);
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> guard(impl_->mutex);
  impl_->ring.clear();
  impl_->head = 0;
}

void Tracer::writeChromeTrace(std::ostream& os) const {
  const std::vector<SpanRecord> recs = records();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& r : recs) {
    if (!first) os << ',';
    first = false;
    // trace_event timestamps are microseconds.
    const double ts_us = static_cast<double>(r.start_ns) / 1000.0;
    os << "{\"name\":" << jsonQuote(r.name) << ",\"cat\":\"pllbist\",\"pid\":1,\"tid\":"
       << r.thread_index << ",\"ts\":" << jsonNumber(ts_us);
    if (r.instant) {
      os << ",\"ph\":\"i\",\"s\":\"t\"";
    } else {
      os << ",\"ph\":\"X\",\"dur\":" << jsonNumber(static_cast<double>(r.duration_ns) / 1000.0);
    }
    os << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent_id << "}}";
  }
  os << "]}\n";
}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // never destroyed
  return *tracer;
}

}  // namespace pllbist::obs
