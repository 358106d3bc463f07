// Pending-event set for the discrete-event simulator.
//
// The queue serves every Simulator::Schedule/Cancel/Pop in the tree, so it
// is the global hot path of every experiment. It is one index-tracked
// 4-ary min-heap of 24-byte (time, seq, slot) refs over a slot slab:
//
//   * each live event owns a slot holding its callback and its position in
//     the heap. EventId packs (slot index, generation); the generation is
//     bumped on every free, so a handle from a fired or cancelled event can
//     never alias a later event reusing the slot. Cancellation resolves the
//     slot in O(1) and removes the entry from the heap in O(log n);
//
//   * the heap orders refs on (time, seq). The sequence number makes
//     same-timestamp ordering deterministic (FIFO in scheduling order),
//     which is essential for reproducible runs.
//
// The pending set is small in every workload (tens of events on average,
// a few hundred at most), so one shallow heap beats any multi-level
// structure: a push or pop touches a handful of cache lines.
#ifndef SRC_SIMCORE_EVENT_QUEUE_H_
#define SRC_SIMCORE_EVENT_QUEUE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/simcore/inline_callback.h"
#include "src/simcore/time.h"

namespace fst {

// Opaque handle for cancelling a scheduled event. Packs (generation << 32 |
// slot + 1); value 0 is never issued. Stale handles — fired, cancelled, or
// from a reused slot — fail validation on the generation stamp.
struct EventId {
  uint64_t value = 0;
  bool IsValid() const { return value != 0; }
  bool operator==(const EventId&) const = default;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue();

  // Inserts an event; returns a handle usable with Cancel().
  EventId Push(SimTime when, Callback cb);

  // Cancels a pending event, removing it from the heap and destroying its
  // callback. Returns false if the event already fired, was already
  // cancelled, or the id is invalid.
  bool Cancel(EventId id);

  // Removes and returns the earliest live event, or nullopt if none.
  struct Fired {
    SimTime when;
    uint64_t seq = 0;
    Callback cb;
  };
  std::optional<Fired> Pop();

  // Like Pop(), but only if the earliest event's time is <= deadline.
  // This is the one-call form of PeekTime()+Pop() the simulator loop uses.
  std::optional<Fired> PopDue(SimTime deadline);

  // Timestamp of the earliest live event without removing it.
  std::optional<SimTime> PeekTime() const;

  bool Empty() const { return heap_.empty(); }

  // Exact number of live (scheduled, not yet fired or cancelled) events.
  size_t live_size() const { return heap_.size(); }

 private:
  static constexpr uint32_t kNotQueued = 0xffffffffu;

  // A heap entry. The callback stays put in the slab, so moving refs
  // during sifts is a 24-byte copy.
  struct Ref {
    SimTime when;
    uint64_t seq = 0;
    uint32_t slot = 0;
  };

  // Slot metadata and callbacks live in parallel slabs: heap sifts and
  // cancellation touch only this 8-byte record, while the callback line is
  // pulled exactly twice per event — once to store it, once to fire it.
  struct Slot {
    uint32_t gen = 1;
    uint32_t pos = kNotQueued;  // index into heap_ while live
  };

  static bool Before(const Ref& a, const Ref& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t index);

  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void RemoveAt(size_t i);

  std::vector<Slot> slots_;
  std::vector<Callback> cbs_;  // parallel to slots_
  std::vector<uint32_t> free_slots_;
  std::vector<Ref> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace fst

#endif  // SRC_SIMCORE_EVENT_QUEUE_H_
