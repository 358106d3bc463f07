#include "src/simcore/simulator.h"

#include <stdexcept>

namespace fst {

Simulator::Simulator(uint64_t seed) : rng_(seed) {}

EventId Simulator::Schedule(Duration delay, Callback cb) {
  if (delay.IsNegative()) {
    delay = Duration::Zero();
  }
  // Saturate instead of wrapping: a far-future delay must not land in the
  // past and run the clock backwards.
  int64_t when = 0;
  if (__builtin_add_overflow(now_.nanos(), delay.nanos(), &when)) {
    when = SimTime::Max().nanos();
  }
  return queue_.Push(SimTime(when), std::move(cb));
}

EventId Simulator::ScheduleAt(SimTime when, Callback cb) {
  if (when < now_) {
    when = now_;
  }
  return queue_.Push(when, std::move(cb));
}

bool Simulator::Cancel(EventId id) { return queue_.Cancel(id); }

bool Simulator::FireNext(SimTime deadline) {
  auto fired = queue_.PopDue(deadline);
  if (!fired.has_value()) {
    return false;
  }
  now_ = fired->when;
  ++events_fired_;
  fire_digest_ = (fire_digest_ ^ static_cast<uint64_t>(fired->when.nanos())) *
                 1099511628211ull;
  fire_digest_ = (fire_digest_ ^ fired->seq) * 1099511628211ull;
  if (events_fired_ > max_events_) {
    throw std::runtime_error("Simulator: max_events exceeded (runaway event loop?)");
  }
  fired->cb();
  return true;
}

uint64_t Simulator::Run() {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (!stop_requested_ && FireNext(SimTime::Max())) {
    ++fired;
  }
  return fired;
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (!stop_requested_ && FireNext(deadline)) {
    ++fired;
  }
  if (now_ < deadline && !stop_requested_) {
    now_ = deadline;
  }
  return fired;
}

uint64_t Simulator::RunSteps(uint64_t n) {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (fired < n && !stop_requested_ && FireNext(SimTime::Max())) {
    ++fired;
  }
  return fired;
}

}  // namespace fst
