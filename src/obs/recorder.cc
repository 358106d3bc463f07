#include "src/obs/recorder.h"

#include <algorithm>

namespace fst {

EventRecorder::EventRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 4096));
}

void EventRecorder::Push(const TraceEvent& e) {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  ring_[next_] = e;
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceEvent> EventRecorder::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest-first: once wrapped, the overwrite cursor marks the oldest slot.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.when < y.when;
                   });
  return out;
}

void EventRecorder::Clear() {
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

}  // namespace fst
