#include "src/obs/recorder.h"

#include <algorithm>

namespace fst {

EventRecorder::EventRecorder(size_t capacity) : capacity_(capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 4096));
}

void EventRecorder::Push(const TraceEvent& e) {
  if (IsControlEvent(e.kind)) {
    log_.push_back(e);
    log_ring_before_.push_back(ring_total_);
    return;
  }
  ++ring_total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else if (capacity_ > 0) {
    ring_[next_] = e;
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<TraceEvent> EventRecorder::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size() + log_.size());
  // Oldest-first: once wrapped, the overwrite cursor marks the oldest slot,
  // which holds ring event number `first`. A log entry pushed after r ring
  // events goes just before ring event r.
  const uint64_t first = ring_total_ - ring_.size();
  size_t k = 0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    for (; k < log_.size() && log_ring_before_[k] <= first + i; ++k) {
      out.push_back(log_[k]);
    }
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  out.insert(out.end(), log_.begin() + static_cast<std::ptrdiff_t>(k),
             log_.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.when < y.when;
                   });
  return out;
}

void EventRecorder::Clear() {
  ring_.clear();
  next_ = 0;
  ring_total_ = 0;
  log_.clear();
  log_ring_before_.clear();
}

}  // namespace fst
