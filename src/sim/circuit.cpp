#include "sim/circuit.hpp"

#include <stdexcept>

#include "common/assert.hpp"
#include "obs/tracer.hpp"

namespace pllbist::sim {

SignalId Circuit::addSignal(std::string name, bool initial) {
  signals_.push_back(SignalState{std::move(name), initial, false, 0, 0, {}});
  return static_cast<SignalId>(signals_.size()) - 1;
}

void Circuit::invalidSignal() { throw std::invalid_argument("Circuit: invalid signal id"); }

const std::string& Circuit::signalName(SignalId id) const {
  checkId(id);
  return signals_[static_cast<size_t>(id)].name;
}

void Circuit::onChange(SignalId id, ChangeCallback cb) {
  checkId(id);
  signals_[static_cast<size_t>(id)].change_callbacks.push_back(std::move(cb));
}

void Circuit::listen(SignalId id, ChangeCallback cb) {
  onChange(id, std::move(cb));
  ++signals_[static_cast<size_t>(id)].listeners;
}

void Circuit::onRisingEdge(SignalId id, EdgeCallback cb) {
  onChange(id, [cb = std::move(cb)](double now, bool value) {
    if (value) cb(now);
  });
}

void Circuit::onFallingEdge(SignalId id, EdgeCallback cb) {
  onChange(id, [cb = std::move(cb)](double now, bool value) {
    if (!value) cb(now);
  });
}

void Circuit::scheduleSet(SignalId id, double t, bool value) {
  checkId(id);
  PLLBIST_ASSERT(t >= now_);
  enqueue(t, Target::Signal, id, 0, value);
}

Circuit::HandlerId Circuit::addHandler(Handler& handler) {
  handlers_.push_back(&handler);
  return static_cast<HandlerId>(handlers_.size()) - 1;
}

void Circuit::scheduleEvent(double t, HandlerId id, uint32_t tag) {
  PLLBIST_ASSERT(id >= 0 && id < static_cast<HandlerId>(handlers_.size()));
  PLLBIST_ASSERT(t >= now_);
  enqueue(t, Target::Handler, id, tag);
}

void Circuit::rescheduleEvent(double t, HandlerId id, uint32_t tag) {
  PLLBIST_ASSERT(t >= now_);
  std::size_t i = 0;
  while (i < queue_.size() &&
         (queue_[i].kind != Target::Handler || queue_[i].target != id))
    ++i;
  PLLBIST_ASSERT(i < queue_.size());
  Event ev = queue_[i];
  ev.time = t;
  ev.seq = next_seq_++;
  ev.tag = tag;
  // The entry only moves one way: up when it now sorts before its parent.
  if (i > 0 && later(queue_[(i - 1) / 2], ev))
    siftUp(i, ev);
  else
    siftDown(i, ev);
}

void Circuit::scheduleCallback(double t, EdgeCallback cb) {
  PLLBIST_ASSERT(t >= now_);
  int32_t slot;
  if (free_closures_.empty()) {
    slot = static_cast<int32_t>(closures_.size());
    closures_.push_back(std::move(cb));
  } else {
    slot = free_closures_.back();
    free_closures_.pop_back();
    closures_[static_cast<size_t>(slot)] = std::move(cb);
  }
  enqueue(t, Target::Closure, slot);
}

void Circuit::execute(const Event& ev) {
  now_ = ev.time;
  ++processed_events_;
  switch (ev.kind) {
    case Target::Handler:
      if (handlers_[static_cast<size_t>(ev.target)]->onEvent(ev.tag, now_))
        ++delivered_events_;
      else
        ++swallowed_events_;
      return;
    case Target::Closure:
      ++delivered_events_;
      runClosure(ev.target);
      return;
    case Target::Signal:
      applySignal(ev);
      return;
  }
}

void Circuit::runClosure(int32_t slot) {
  // Move the closure out and free its slot before calling it: the closure
  // may schedule more closures, which can grow (reallocate) the slab, and a
  // closure that reschedules itself then reuses its own slot.
  EdgeCallback cb = std::move(closures_[static_cast<size_t>(slot)]);
  closures_[static_cast<size_t>(slot)] = nullptr;
  free_closures_.push_back(slot);
  cb(now_);
}

void Circuit::applySignal(const Event& ev) {
  SignalState& sig = signals_[static_cast<size_t>(ev.target)];
  if (ev.intercepted) {
    --sig.delayed_in_flight;
  } else if (interceptor_ && sig.fault_target) {
    const InterceptVerdict verdict = interceptor_(ev.target, now_, ev.value);
    switch (verdict.action) {
      case InterceptVerdict::Action::Deliver:
        break;
      case InterceptVerdict::Action::Drop:
        ++dropped_events_;
        return;
      case InterceptVerdict::Action::Delay:
        PLLBIST_ASSERT(verdict.delay_s > 0.0);
        ++delayed_events_;
        ++sig.delayed_in_flight;
        // Re-enqueue marked intercepted: the postponed edge is delivered
        // exactly once instead of passing through the interceptor again
        // (a persistent delay rule would otherwise chase it forever and
        // double-count fault statistics).
        enqueue(now_ + verdict.delay_s, Target::Signal, ev.target, 0, ev.value, true);
        return;
    }
  }
  if (sig.value == ev.value) {
    ++swallowed_events_;
    return;  // swallowed (no change)
  }
  sig.value = ev.value;
  ++delivered_events_;
  // Note: callbacks may register more callbacks on this signal; iterate by
  // index so vector growth is safe.
  for (size_t i = 0; i < sig.change_callbacks.size(); ++i) sig.change_callbacks[i](now_, ev.value);
}

void Circuit::copyStateFrom(const Circuit& source) {
  if (source.interceptor_)
    throw std::logic_error("Circuit::copyStateFrom: the source has an installed interceptor");
  if (interceptor_)
    throw std::logic_error("Circuit::copyStateFrom: this circuit has an installed interceptor");
  if (source.closures_.size() != source.free_closures_.size())
    throw std::logic_error("Circuit::copyStateFrom: the source has a pending closure");
  if (source.signals_.size() != signals_.size() || source.handlers_.size() != handlers_.size())
    throw std::logic_error("Circuit::copyStateFrom: circuits were not built the same way");
  for (size_t i = 0; i < signals_.size(); ++i)
    if (source.signals_[i].name != signals_[i].name)
      throw std::logic_error("Circuit::copyStateFrom: signal " + std::to_string(i) + " is '" +
                             signals_[i].name + "' here but '" + source.signals_[i].name +
                             "' in the source");
  for (size_t i = 0; i < signals_.size(); ++i) {
    signals_[i].value = source.signals_[i].value;
    signals_[i].fault_target = source.signals_[i].fault_target;
    signals_[i].delayed_in_flight = source.signals_[i].delayed_in_flight;
  }
  closures_.assign(source.closures_.size(), nullptr);
  free_closures_ = source.free_closures_;
  queue_ = source.queue_;
  now_ = source.now_;
  next_seq_ = source.next_seq_;
  processed_events_ = source.processed_events_;
  delivered_events_ = source.delivered_events_;
  dropped_events_ = source.dropped_events_;
  delayed_events_ = source.delayed_events_;
  swallowed_events_ = source.swallowed_events_;
}

bool Circuit::step(double limit) {
  if (queue_.empty()) return false;
  end_ = limit;
  execute(popNext());
  end_ = std::numeric_limits<double>::infinity();
  return true;
}

void Circuit::run(double t_end) {
  // One span per run() batch, never per event: the per-event path stays
  // untouched so kernel throughput is identical with tracing idle.
  PLLBIST_SPAN("sim.circuit.run");
  PLLBIST_ASSERT(t_end >= now_);
  end_ = t_end;
  while (!queue_.empty() && queue_.front().time <= t_end) execute(popNext());
  end_ = std::numeric_limits<double>::infinity();
  now_ = t_end;
}

}  // namespace pllbist::sim
