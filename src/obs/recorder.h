// The event recorder: a fixed-capacity ring buffer of TraceEvents.
//
// Cost model: components hold an `EventRecorder*` that defaults to null, so
// an uninstrumented run pays only a pointer test on the hot path. With a
// recorder attached but disabled, Record() is an inline bool test. Enabled,
// each event is one fixed-size struct copy into a preallocated ring — no
// allocation, no formatting; strings are interned once at wiring time.
// When the ring wraps, the oldest events are overwritten and counted as
// dropped (telemetry keeps the most recent window, like a flight recorder).
#ifndef SRC_OBS_RECORDER_H_
#define SRC_OBS_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/event.h"
#include "src/simcore/time.h"

namespace fst {

class EventRecorder {
 public:
  explicit EventRecorder(size_t capacity = 1 << 20);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Interns a component/label name for use in events.
  uint16_t Intern(const std::string& name) { return table_.Intern(name); }
  const ComponentTable& components() const { return table_; }

  // Monotonic id joining the enqueue/start/complete events of one request.
  uint64_t NextRequestId() { return ++last_request_id_; }

  void Record(const TraceEvent& e) {
    if (!enabled_) {
      return;
    }
    Push(e);
  }

  // -- Convenience emitters (all no-ops when disabled) --

  void RequestEnqueue(SimTime when, uint16_t component, uint64_t request_id,
                      int32_t device, double queue_depth) {
    Record({when, EventKind::kRequestEnqueue, component, 0, device, request_id,
            queue_depth, 0.0});
  }
  void RequestStart(SimTime when, uint16_t component, uint64_t request_id,
                    int32_t device, Duration queue_wait) {
    Record({when, EventKind::kRequestStart, component, 0, device, request_id,
            static_cast<double>(queue_wait.nanos()), 0.0});
  }
  void RequestComplete(SimTime when, uint16_t component, uint64_t request_id,
                       int32_t device, Duration queue_wait, Duration service) {
    Record({when, EventKind::kRequestComplete, component, 0, device, request_id,
            static_cast<double>(queue_wait.nanos()),
            static_cast<double>(service.nanos())});
  }
  void FaultActivate(SimTime when, uint16_t component, uint16_t kind_label,
                     double magnitude, bool correctness) {
    Record({when, EventKind::kFaultActivate, component, kind_label, -1, 0,
            magnitude, correctness ? 1.0 : 0.0});
  }
  void FaultDeactivate(SimTime when, uint16_t component, uint16_t kind_label) {
    Record({when, EventKind::kFaultDeactivate, component, kind_label, -1, 0,
            0.0, 0.0});
  }
  void StateTransition(SimTime when, uint16_t component, uint16_t label,
                       int to_state, double deficit) {
    Record({when, EventKind::kStateTransition, component, label, -1, 0,
            static_cast<double>(to_state), deficit});
  }
  void PolicyAction(SimTime when, uint16_t component, uint16_t action,
                    double detail) {
    Record({when, EventKind::kPolicyAction, component, action, -1, 0, detail,
            0.0});
  }
  void CounterSample(SimTime when, uint16_t component, uint16_t label,
                     double value) {
    Record({when, EventKind::kCounterSample, component, label, -1, 0, value,
            0.0});
  }
  void QueueDepth(SimTime when, uint16_t component, double depth) {
    Record({when, EventKind::kQueueDepth, component, 0, -1, 0, depth, 0.0});
  }
  void Mark(SimTime when, uint16_t component, uint16_t label, double value) {
    Record({when, EventKind::kMark, component, label, -1, 0, value, 0.0});
  }

  // Snapshot in timestamp order. Events may be recorded out of order (a
  // fault scheduled for the future is recorded at injection time with its
  // activation timestamp), so the snapshot stable-sorts by `when`.
  std::vector<TraceEvent> Events() const;

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t total_recorded() const { return total_; }
  uint64_t dropped() const { return total_ - ring_.size(); }
  void Clear();

 private:
  void Push(const TraceEvent& e);

  bool enabled_ = true;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;  // overwrite cursor once the ring is full
  uint64_t total_ = 0;
  uint64_t last_request_id_ = 0;
  ComponentTable table_;
};

}  // namespace fst

#endif  // SRC_OBS_RECORDER_H_
