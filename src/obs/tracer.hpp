#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace pllbist::obs {

/// One completed span or instant marker, as stored in the ring buffer.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;         ///< unique per tracer; 0 never used
  uint64_t parent_id = 0;  ///< 0 = root
  uint64_t start_ns = 0;   ///< monotonic (steady_clock), relative to tracer epoch
  uint64_t duration_ns = 0;
  uint32_t thread_index = 0;  ///< small dense per-tracer thread number
  bool instant = false;       ///< zero-duration marker (retry/relock decisions)
};

/// Span-based tracer with a bounded ring-buffer sink.
///
/// Disabled by default: begin()/end()/instant() cost one relaxed atomic
/// load and return immediately, so instrumented hot paths stay cheap when
/// nobody asked for a trace. Enable with setEnabled(true) before the run.
///
/// Parent linkage: ScopedSpan (and the PLLBIST_SPAN macro) maintain a
/// thread-local span stack; manual begin()/end() pairs — used for logical
/// phases that cross event callbacks, like sequencer stages — take the
/// current stack top as parent but do not push themselves, so they can
/// overlap freely.
///
/// The sink keeps the most recent `capacity` completed records; older ones
/// are overwritten (flight-recorder semantics).
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 16);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void setEnabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  /// Start a span; returns its id (0 when disabled — end(0) is a no-op).
  uint64_t begin(std::string_view name);
  /// Finish a span started with begin().
  void end(uint64_t id);
  /// Record a zero-duration marker at now.
  void instant(std::string_view name);

  /// Copy of the ring contents, oldest first.
  [[nodiscard]] std::vector<SpanRecord> records() const;
  /// Drop everything recorded so far (open spans keep their start times).
  void clear();

  /// Chrome/Perfetto trace_event JSON ("X" complete events, "i" instants).
  /// Load via chrome://tracing or https://ui.perfetto.dev.
  void writeChromeTrace(std::ostream& os) const;

  /// Process-wide default tracer used by PLLBIST_SPAN and the built-in
  /// instrumentation.
  static Tracer& global();

  // Used by ScopedSpan; public for the macro, not for direct use.
  struct Scope {
    Tracer* tracer = nullptr;
    uint64_t id = 0;
  };
  Scope beginScoped(std::string_view name);
  void endScoped(uint64_t id);

 private:
  struct Impl;
  Impl* impl_;
};

/// RAII span on the global tracer (see PLLBIST_SPAN).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) : scope_(Tracer::global().beginScoped(name)) {}
  ~ScopedSpan() {
    if (scope_.tracer != nullptr) scope_.tracer->endScoped(scope_.id);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Scope scope_;
};

}  // namespace pllbist::obs

#define PLLBIST_SPAN_CONCAT2(a, b) a##b
#define PLLBIST_SPAN_CONCAT(a, b) PLLBIST_SPAN_CONCAT2(a, b)

/// Open a span covering the enclosing scope, e.g. PLLBIST_SPAN("point.measure").
#define PLLBIST_SPAN(name) \
  ::pllbist::obs::ScopedSpan PLLBIST_SPAN_CONCAT(pllbist_span_, __LINE__)(name)
/// Record an instant marker, e.g. PLLBIST_INSTANT("resilience.relock").
#define PLLBIST_INSTANT(name) ::pllbist::obs::Tracer::global().instant(name)
