#include "src/simcore/event_queue.h"

#include <algorithm>
#include <utility>

namespace fst {

namespace {

constexpr uint64_t kSlotMask = 0xffffffffull;

}  // namespace

EventQueue::EventQueue() = default;

uint32_t EventQueue::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  slots_.emplace_back();
  cbs_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::FreeSlot(uint32_t index) {
  Slot& s = slots_[index];
  s.pos = kNotQueued;
  // Generation 0 is reserved so a forged EventId{small} can never validate.
  if (++s.gen == 0) {
    s.gen = 1;
  }
  free_slots_.push_back(index);
}

EventId EventQueue::Push(SimTime when, Callback cb) {
  const uint32_t index = AllocSlot();
  cbs_[index] = std::move(cb);
  heap_.push_back(Ref{when, next_seq_++, index});
  SiftUp(heap_.size() - 1);
  return EventId{(uint64_t{slots_[index].gen} << 32) | (index + 1)};
}

void EventQueue::SiftUp(size_t i) {
  const Ref moving = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Before(moving, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    slots_[heap_[i].slot].pos = static_cast<uint32_t>(i);
    i = parent;
  }
  heap_[i] = moving;
  slots_[moving.slot].pos = static_cast<uint32_t>(i);
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const Ref moving = heap_[i];
  while (true) {
    const size_t first_child = (i << 2) + 1;
    if (first_child >= n) {
      break;
    }
    const size_t last_child = std::min(first_child + 4, n);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], moving)) {
      break;
    }
    heap_[i] = heap_[best];
    slots_[heap_[i].slot].pos = static_cast<uint32_t>(i);
    i = best;
  }
  heap_[i] = moving;
  slots_[moving.slot].pos = static_cast<uint32_t>(i);
}

void EventQueue::RemoveAt(size_t i) {
  const Ref last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) {
    return;
  }
  heap_[i] = last;
  if (i > 0 && Before(last, heap_[(i - 1) >> 2])) {
    SiftUp(i);
  } else {
    SiftDown(i);
  }
}

bool EventQueue::Cancel(EventId id) {
  const uint64_t raw_index = id.value & kSlotMask;
  if (raw_index == 0 || raw_index > slots_.size()) {
    return false;
  }
  const uint32_t index = static_cast<uint32_t>(raw_index - 1);
  const Slot& s = slots_[index];
  if (s.pos == kNotQueued || s.gen != static_cast<uint32_t>(id.value >> 32)) {
    return false;
  }
  RemoveAt(s.pos);
  cbs_[index] = Callback();
  FreeSlot(index);
  return true;
}

std::optional<EventQueue::Fired> EventQueue::Pop() {
  return PopDue(SimTime::Max());
}

std::optional<EventQueue::Fired> EventQueue::PopDue(SimTime deadline) {
  if (heap_.empty() || heap_[0].when > deadline) {
    return std::nullopt;
  }
  const Ref root = heap_[0];
  Fired fired{root.when, root.seq, std::move(cbs_[root.slot])};
  RemoveAt(0);
  FreeSlot(root.slot);
  if (!heap_.empty()) {
    // Start the next event's callback toward the core while this one runs.
    __builtin_prefetch(&cbs_[heap_[0].slot]);
  }
  return fired;
}

std::optional<SimTime> EventQueue::PeekTime() const {
  if (heap_.empty()) {
    return std::nullopt;
  }
  return heap_[0].when;
}

}  // namespace fst
