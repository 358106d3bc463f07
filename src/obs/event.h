// Typed, structured trace events — the observability layer's wire format.
//
// The paper's thesis is that a system must *notice* performance faults and
// react; noticing requires evidence. Every interesting moment in a run —
// a request moving through a device queue, an injected fault turning on,
// a detector changing its mind, a policy reacting — is one fixed-size
// TraceEvent. Events are cheap to copy, carry interned ids instead of
// strings, and are collected by the EventRecorder (src/obs/recorder.h: a
// fault log plus a flight-recorder ring), joined into fault timelines
// (src/obs/correlator.h), and exported to Perfetto/JSONL (src/obs/export.h).
#ifndef SRC_OBS_EVENT_H_
#define SRC_OBS_EVENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/simcore/time.h"

namespace fst {

// Interns component and label names into dense uint16 ids so TraceEvent
// stays fixed-size. Id 0 is always the empty string ("no label").
class ComponentTable {
 public:
  ComponentTable() { names_.push_back(""); }

  // Returns the id for `name`, creating one on first use.
  uint16_t Intern(const std::string& name);

  // Inverse lookup; unknown ids render as "?".
  const std::string& Name(uint16_t id) const;

  // Id for `name` if already interned, -1 otherwise.
  int Find(const std::string& name) const;

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::map<std::string, uint16_t> ids_;
};

enum class EventKind : uint8_t {
  kRequestEnqueue,   // a = queue depth after enqueue
  kRequestStart,     // a = queue wait (ns)
  kRequestComplete,  // a = queue wait (ns), b = service time (ns)
  kFaultActivate,    // label = fault kind, a = magnitude, b != 0 => correctness
  kFaultDeactivate,  // label = fault kind
  kStateTransition,  // label = "From->To", a = to-state (PerfState), b = deficit
  kPolicyAction,     // label = action name, a = detail
  kCounterSample,    // label = counter name, a = value
  kQueueDepth,       // a = depth
  kMark,             // label = name, a = value
};

const char* EventKindName(EventKind k);

// The control kinds, kFaultActivate..kPolicyAction: ground truth, detector
// decisions and reactions — the only kinds the correlator reads, and the
// ones the recorder keeps in its never-overwritten fault log.
inline bool IsControlEvent(EventKind k) {
  return k >= EventKind::kFaultActivate && k <= EventKind::kPolicyAction;
}

struct TraceEvent {
  SimTime when;
  EventKind kind = EventKind::kMark;
  uint16_t component = 0;   // interned component (instance) name
  uint16_t label = 0;       // interned kind-specific label, 0 = none
  int32_t device = -1;      // numeric device/port/pair index, -1 = n/a
  uint64_t request_id = 0;  // joins enqueue/start/complete of one request
  double a = 0.0;           // kind-specific payload (see EventKind)
  double b = 0.0;
};

}  // namespace fst

#endif  // SRC_OBS_EVENT_H_
