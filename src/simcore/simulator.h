// The discrete-event simulator core.
//
// Single-threaded: events fire strictly in (time, scheduling-order) order,
// so a run with a fixed seed is bit-reproducible. Components hold a
// Simulator& and schedule callbacks; there is no wall-clock anywhere.
#ifndef SRC_SIMCORE_SIMULATOR_H_
#define SRC_SIMCORE_SIMULATOR_H_

#include <cstdint>

#include "src/simcore/event_queue.h"
#include "src/simcore/rng.h"
#include "src/simcore/time.h"

namespace fst {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Callbacks are allocation-free for captures up to
  // InlineCallback::kInlineBytes; any callable convertible to void() works.
  using Callback = EventQueue::Callback;

  // Schedules `cb` to run `delay` from now. Negative delays are clamped to
  // zero (fires this instant, after already-scheduled same-time events);
  // a delay past the end of time saturates at SimTime::Max().
  EventId Schedule(Duration delay, Callback cb);
  EventId ScheduleAt(SimTime when, Callback cb);
  bool Cancel(EventId id);

  // Runs until the event queue drains. Returns the number of events fired.
  uint64_t Run();

  // Runs events with timestamp <= deadline; the clock then rests at
  // min(deadline, time of last fired event >= previous now). Events beyond
  // the deadline remain queued.
  uint64_t RunUntil(SimTime deadline);

  // Fires at most `n` more events.
  uint64_t RunSteps(uint64_t n);

  // Stops Run()/RunUntil() after the currently-firing event returns.
  void RequestStop() { stop_requested_ = true; }

  uint64_t events_fired() const { return events_fired_; }
  size_t pending_events() const { return queue_.live_size(); }

  // FNV-1a-style digest folded over the (time, sequence) of every fired
  // event. Two runs of the same seeded scenario must produce the same
  // digest bit-for-bit; the determinism parity tests pin digests of
  // end-to-end runs so event-core changes cannot silently reorder events.
  uint64_t fire_digest() const { return fire_digest_; }

  // Root generator; components should Fork() their own streams.
  Rng& rng() { return rng_; }

  // Safety valve: Run() aborts (throws std::runtime_error) after this many
  // events, catching accidental infinite event loops in tests.
  void set_max_events(uint64_t max) { max_events_ = max; }

 private:
  bool FireNext(SimTime deadline);

  EventQueue queue_;
  SimTime now_ = SimTime::Zero();
  Rng rng_;
  uint64_t events_fired_ = 0;
  uint64_t fire_digest_ = 14695981039346656037ull;  // FNV-1a offset basis
  uint64_t max_events_ = 500'000'000;
  bool stop_requested_ = false;
};

}  // namespace fst

#endif  // SRC_SIMCORE_SIMULATOR_H_
