#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace pllbist::sim {

/// Index of a digital signal (net) inside a Circuit.
using SignalId = int;
inline constexpr SignalId kNoSignal = -1;

/// Discrete-event simulator for the digital portion of the testbench.
///
/// A Circuit owns a set of boolean signals and a time-ordered event queue.
/// Components (gates, flip-flops, dividers, the behavioral PLL blocks)
/// register callbacks on signal transitions and schedule future transitions;
/// time is a double in seconds with full precision, so ns-scale gate delays
/// coexist with multi-second loop dynamics without quantisation.
///
/// Semantics:
///  - Transport delay: every scheduled transition is delivered in time order
///    (ties broken by insertion order across signal, handler and closure
///    events alike). Glitches propagate, which is exactly what the paper's
///    dead-zone-glitch-clocked peak detector requires.
///  - A delivered transition that does not change the signal value is
///    swallowed (no callbacks fire).
///  - Callbacks run at the event's timestamp and may schedule further events
///    at any time >= now.
///  - Run-ahead: a handler whose own instants nothing else can see between
///    two queued events may handle them inside one event, moving now()
///    forward itself (horizon, runAheadTo). Every queued event still runs
///    at its time and in its order, and so sees the handler exactly as it
///    would with one event per instant.
///
/// Queue entries are plain data (see Event): a signal transition, a
/// (handler id, tag) pair dispatched to a registered Handler, or the slot
/// of a cold closure parked in a free-listed slab outside the heap.
class Circuit {
 public:
  using EdgeCallback = std::function<void(double now)>;
  using ChangeCallback = std::function<void(double now, bool value)>;
  using HandlerId = int32_t;

  /// Typed event target for hot, self-rescheduling components. A component
  /// registers once (addHandler) and schedules (handler id, tag) events;
  /// the tag is the component's own 32-bit payload — typically an event
  /// kind and/or a generation that lets it recognise superseded events.
  /// The handler must outlive every event scheduled for it, exactly like a
  /// Component's signal callbacks.
  class Handler {
   public:
    /// Handle one event at its timestamp. Return true when it did work,
    /// false when it was superseded (a stale generation, a stopped source):
    /// the kernel counts the former delivered and the latter swallowed.
    virtual bool onEvent(uint32_t tag, double now) = 0;

   protected:
    ~Handler() = default;
    /// The usual tag layout: a one-bit event kind in bit 0, the scheduling
    /// generation (mod 2^31) above it. An event is current iff its tag
    /// equals generationTag(current generation, its kind).
    static constexpr uint32_t generationTag(uint32_t generation, uint32_t kind) {
      return (generation << 1) | (kind & 1u);
    }
  };

  /// Verdict returned by an installed event interceptor for one scheduled
  /// signal transition (handler and closure events are never intercepted).
  struct InterceptVerdict {
    enum class Action {
      Deliver,  ///< apply the transition normally
      Drop,     ///< swallow it (the edge never happens)
      Delay,    ///< re-enqueue it `delay_s` later (> 0)
    };
    Action action = Action::Deliver;
    double delay_s = 0.0;
  };

  /// Consulted at delivery time for every transition of a net marked as a
  /// fault target (markFaultTarget) while installed; other nets'
  /// transitions never reach it. This is the sim-level fault-injection seam
  /// (see sim::FaultInjector, which marks every net its rules and glitches
  /// name): dropping a transition models a missed edge, delaying it models
  /// a marginal path. Each scheduled transition is intercepted at most
  /// once: a Delay verdict re-enqueues the event marked as
  /// already-intercepted, so it is delivered unconditionally at the
  /// postponed time (a persistent delay rule postpones each edge once
  /// instead of chasing it forever). At most one interceptor can be
  /// installed; pass nullptr to uninstall. Zero overhead when unset.
  using EventInterceptor = std::function<InterceptVerdict(SignalId id, double now, bool value)>;
  void setEventInterceptor(EventInterceptor interceptor) { interceptor_ = std::move(interceptor); }
  [[nodiscard]] bool hasEventInterceptor() const { return static_cast<bool>(interceptor_); }
  /// True while a transition of `id` scheduled now may be dropped, or land
  /// before a delayed one scheduled earlier: an interceptor is installed
  /// and `id` is marked, or a transition of `id` it delayed is still
  /// queued. Otherwise every transition of `id` lands at the time it was
  /// scheduled for.
  [[nodiscard]] bool interceptionPending(SignalId id) const {
    checkId(id);
    const SignalState& s = signals_[static_cast<std::size_t>(id)];
    return (interceptor_ && s.fault_target) || s.delayed_in_flight > 0;
  }

  /// Mark `id` as named by a fault rule or glitch (sim::FaultInjector does
  /// when a rule or glitch names it). The mark is never cleared, and a fork
  /// (copyStateFrom) carries it. A pulled reference source writes a marked
  /// net and its puller listens to it (sim::ReferenceSource).
  void markFaultTarget(SignalId id) {
    checkId(id);
    signals_[static_cast<std::size_t>(id)].fault_target = true;
  }
  [[nodiscard]] bool faultTarget(SignalId id) const {
    checkId(id);
    return signals_[static_cast<std::size_t>(id)].fault_target;
  }

  Circuit() = default;
  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;

  /// Create a named signal with an initial value.
  SignalId addSignal(std::string name, bool initial = false);

  [[nodiscard]] bool value(SignalId id) const {
    checkId(id);
    return signals_[static_cast<std::size_t>(id)].value;
  }
  [[nodiscard]] const std::string& signalName(SignalId id) const;
  [[nodiscard]] int signalCount() const { return static_cast<int>(signals_.size()); }

  /// Register callbacks. All callbacks registered on a signal fire in
  /// registration order when it changes.
  void onChange(SignalId id, ChangeCallback cb);
  void onRisingEdge(SignalId id, EdgeCallback cb);
  void onFallingEdge(SignalId id, EdgeCallback cb);

  /// Register a change callback that does not make the net observed
  /// (hasObservers): for the component that pulls a net's source and hears
  /// the net itself only while a fault rule names it.
  void listen(SignalId id, ChangeCallback cb);

  /// True when the signal has change callbacks other than listen()'s:
  /// something would see a transition of it. Lazily materialised outputs
  /// (the VCO's, a pulled reference source's) check this before scheduling
  /// transitions nobody receives.
  [[nodiscard]] bool hasObservers(SignalId id) const {
    checkId(id);
    const SignalState& s = signals_[static_cast<std::size_t>(id)];
    return s.change_callbacks.size() > s.listeners;
  }

  /// Set an unwritten net's level without an event: no callback fires and
  /// nothing is counted. For the owner of an observation tap that keeps the
  /// level current while nothing observes the net, so that a write or a
  /// glitch made once something does starts from the right level.
  void setQuietly(SignalId id, bool value) {
    checkId(id);
    signals_[static_cast<std::size_t>(id)].value = value;
  }

  /// Schedule signal id to take `value` at time t (>= now).
  void scheduleSet(SignalId id, double t, bool value);

  /// Register a typed event target; returns its id for scheduleEvent().
  HandlerId addHandler(Handler& handler);

  /// Schedule handler `id` to receive `tag` at time t (>= now). The hot
  /// path: the queue entry is plain data, no closure is built.
  void scheduleEvent(double t, HandlerId id, uint32_t tag);

  /// Move handler `id`'s one pending event to time t (>= now) with a new
  /// tag, as if it had been scheduled now. For a component that keeps
  /// exactly one event in flight and learns of an earlier (or later) next
  /// instant while it waits: the move leaves no superseded event behind.
  /// Costs a scan of the queue. Throws AssertionError when the handler has
  /// no pending event.
  void rescheduleEvent(double t, HandlerId id, uint32_t tag);

  /// Schedule an arbitrary callback at time t (>= now). For cold callers
  /// (sequencer stages, probes, fault pulses, tests): the closure waits in
  /// a free-listed slab and the queue entry carries only its slot.
  void scheduleCallback(double t, EdgeCallback cb);

  /// Immediately force a signal at the current time. Insertion order makes
  /// this deliver before any event scheduled *after* this call at the same
  /// timestamp. Intended for testbench pokes.
  void setNow(SignalId id, bool value) { scheduleSet(id, now_, value); }

  [[nodiscard]] double now() const { return now_; }

  /// Process all events with timestamp <= t_end, then advance now to t_end.
  /// A handler may run ahead inside an event (runAheadTo), but never to
  /// t_end or past it: after run(t) every component is as it was at t.
  void run(double t_end);

  /// Process exactly one queued event if any is pending; returns false when
  /// idle. The event's handler may run ahead to instants before `limit`
  /// (and before the next queued event), so a step loop that waits for a
  /// time passes it: with the default, a handler that is alone in the
  /// queue runs until it stops by itself.
  bool step(double limit = std::numeric_limits<double>::infinity());

  /// How far the handler now running may run ahead: the earlier of the
  /// first queued event and the end of the current run(t_end) or
  /// step(limit). Outside run() and step() it is the first queued event
  /// (+infinity when none is queued).
  [[nodiscard]] double horizon() const {
    return queue_.empty() || end_ < queue_.front().time ? end_ : queue_.front().time;
  }

  /// Called by the handler now running: move now() forward to its own next
  /// instant t, now() <= t < horizon(). Nothing else can see the instants
  /// it passes this way: no queued event lies before t, and whatever the
  /// handler schedules while it runs ahead is queued and so shortens the
  /// horizon. An instant that ties the horizon must go through the queue,
  /// behind the event already there, as it would with one event per
  /// instant.
  void runAheadTo(double t) {
    PLLBIST_ASSERT(t >= now_ && t < horizon());
    now_ = t;
  }

  /// Total events dequeued (delivered + dropped + delayed + swallowed).
  /// Instants a handler runs ahead to are not events: one handler event
  /// counts once however many instants it covers.
  [[nodiscard]] uint64_t processedEventCount() const { return processed_events_; }
  /// Events that actually did work: closures executed, handler events that
  /// returned true, plus signal transitions applied (value changed, change
  /// callbacks fired). This is the honest event-throughput number;
  /// drops/swallows are bookkeeping.
  [[nodiscard]] uint64_t deliveredEventCount() const { return delivered_events_; }
  /// Transitions swallowed by an interceptor Drop verdict.
  [[nodiscard]] uint64_t droppedEventCount() const { return dropped_events_; }
  /// Transitions postponed by an interceptor Delay verdict (each counted
  /// once at the verdict; the re-delivery lands in delivered/swallowed).
  [[nodiscard]] uint64_t delayedEventCount() const { return delayed_events_; }
  /// Events dequeued without effect: no-change transitions and superseded
  /// handler events.
  [[nodiscard]] uint64_t swallowedEventCount() const { return swallowed_events_; }

  /// Slots allocated in the closure slab (live closures plus free slots).
  /// Bounded by the peak number of simultaneously pending closures.
  [[nodiscard]] std::size_t closureSlotCount() const { return closures_.size(); }

  /// Continue from `source`'s dynamic state: its queue, time, insertion
  /// sequence, signal values, fault-target marks and event counters replace
  /// this circuit's.
  /// Callbacks and handlers stay this circuit's own, so both circuits must
  /// have been built the same way (same signals and handlers registered in
  /// the same order); the components then copy their own state. Throws
  /// std::logic_error when they were not, or when `source` has a pending
  /// closure or an installed interceptor — neither can be carried over —
  /// or when this circuit has an installed interceptor, whose rules' marks
  /// the source's would replace.
  void copyStateFrom(const Circuit& source);

 private:
  enum class Target : uint8_t { Signal, Handler, Closure };
  /// One queue entry: plain data, so heap sifts copy 32 bytes and never
  /// touch a closure manager.
  struct Event {
    double time = 0.0;
    uint64_t seq = 0;
    int32_t target = 0;        // SignalId, HandlerId or closure slot, per `kind`
    uint32_t tag = 0;          // handler events: the component's payload
    Target kind = Target::Signal;
    bool value = false;        // signal events: the new value
    bool intercepted = false;  // already saw the interceptor (Delay re-enqueue)
  };
  static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) <= 32);
  /// Strict total order (time, then insertion sequence): the heap pops
  /// events in exactly one order whatever its internal layout.
  static bool later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  struct SignalState {
    std::string name;
    bool value = false;
    bool fault_target = false;          // markFaultTarget
    std::size_t listeners = 0;          // change_callbacks registered by listen()
    uint64_t delayed_in_flight = 0;     // Delay re-enqueues not yet dequeued
    std::vector<ChangeCallback> change_callbacks;
  };

  // Binary min-heap sifts written out by hand: the new event is stored
  // field by field straight into its final slot and every other move is a
  // whole-struct copy, so no sift ever reloads a half-written entry.
  void enqueue(double t, Target kind, int32_t target, uint32_t tag = 0, bool value = false,
               bool intercepted = false) {
    const Event ev{t, next_seq_++, target, tag, kind, value, intercepted};
    queue_.emplace_back();
    siftUp(queue_.size() - 1, ev);
  }
  Event popNext() {
    const Event top = queue_.front();
    const Event last = queue_.back();
    queue_.pop_back();
    if (!queue_.empty()) siftDown(0, last);
    return top;
  }
  /// Store `ev` into the hole at `hole` or above it.
  void siftUp(std::size_t hole, const Event& ev) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!later(queue_[parent], ev)) break;
      queue_[hole] = queue_[parent];
      hole = parent;
    }
    queue_[hole] = ev;
  }
  /// Store `ev` into the hole at `hole` or below it.
  void siftDown(std::size_t hole, const Event& ev) {
    const std::size_t n = queue_.size();
    for (std::size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && later(queue_[child], queue_[child + 1])) ++child;
      if (!later(ev, queue_[child])) break;
      queue_[hole] = queue_[child];
      hole = child;
    }
    queue_[hole] = ev;
  }

  void execute(const Event& ev);
  void runClosure(int32_t slot);
  void applySignal(const Event& ev);
  void checkId(SignalId id) const {
    if (id < 0 || id >= static_cast<SignalId>(signals_.size())) invalidSignal();
  }
  [[noreturn]] static void invalidSignal();

  std::vector<SignalState> signals_;
  std::vector<Handler*> handlers_;
  std::vector<EdgeCallback> closures_;  // closure slab, indexed by slot
  std::vector<int32_t> free_closures_;  // free slab slots, reused LIFO
  EventInterceptor interceptor_;
  std::vector<Event> queue_;  // binary min-heap under later(), earliest at front
  double now_ = 0.0;
  /// The end of the current run(t_end) or step(limit); +infinity outside.
  double end_ = std::numeric_limits<double>::infinity();
  uint64_t next_seq_ = 0;
  uint64_t processed_events_ = 0;
  uint64_t delivered_events_ = 0;
  uint64_t dropped_events_ = 0;
  uint64_t delayed_events_ = 0;
  uint64_t swallowed_events_ = 0;
};

}  // namespace pllbist::sim
