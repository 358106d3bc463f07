// The event recorder: an append-only fault log beside a bounded ring.
//
// Two stores, split by event kind:
//   * The fault log keeps the control kinds the correlator reads (fault
//     activate/deactivate, state transitions, policy actions; see
//     IsControlEvent). It is append-only and never overwritten: a run
//     records tens of these against tens of thousands of request spans,
//     and a dropped activation would silently vanish from every scorecard.
//     Each entry remembers how many ring events were pushed before it.
//   * The flight-recorder ring keeps every other kind (request spans,
//     counters, queue depth, marks) in `capacity` preallocated slots. When
//     it wraps, the oldest are overwritten and counted as dropped
//     (telemetry keeps the most recent window). `capacity == 0` keeps no
//     ring and means no spans: the switch, nodes, disks and KvService test
//     keeps_spans() and build no request id, TraceEvent or Push for a
//     ring-less recorder, so only the fault log is stored — all a cell
//     that just correlates faults needs. Ring kinds recorded directly are
//     still counted and dropped.
//
// Cost model: components hold an `EventRecorder*` that defaults to null, so
// an uninstrumented run pays only a pointer test on the hot path. With a
// recorder attached but disabled, Record() is an inline bool test. Enabled,
// each span is one fixed-size struct copy into the preallocated ring — no
// allocation, no formatting; strings are interned once at wiring time. The
// rare control events append to the fault log (amortized growth).
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
  // Whether request spans are worth building: enabled and keeping a ring.
  bool keeps_spans() const { return enabled_ && capacity_ > 0; }

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

  // Both stores merged in timestamp order. Events may be recorded out of
  // order (a fault scheduled for the future is recorded at injection time
  // with its activation timestamp), so the snapshot rebuilds push order
  // from the fault log's ring counts and stable-sorts by `when`: with
  // nothing dropped it is exactly the stable sort of everything recorded.
  std::vector<TraceEvent> Events() const;

  // The control events alone, in push order (not sorted): all the
  // correlator needs, without copying the ring.
  const std::vector<TraceEvent>& FaultLog() const { return log_; }

  // Events stored (ring plus fault log).
  size_t size() const { return ring_.size() + log_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t total_recorded() const { return ring_total_ + log_.size(); }
  uint64_t dropped() const { return ring_total_ - ring_.size(); }
  void Clear();

 private:
  void Push(const TraceEvent& e);

  bool enabled_ = true;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;          // overwrite cursor once the ring is full
  uint64_t ring_total_ = 0;  // events ever pushed to the ring
  std::vector<TraceEvent> log_;
  std::vector<uint64_t> log_ring_before_;  // ring_total_ at each log push
  uint64_t last_request_id_ = 0;
  ComponentTable table_;
};

}  // namespace fst

#endif  // SRC_OBS_RECORDER_H_
