// The fault-timeline correlator: joins injector ground truth with detector
// transitions and policy actions, all read from one event stream.
//
// Section 3.1 of the paper says a fail-stutter system must manage how
// quickly faults are noticed and acted on, and how often healthy
// components are wrongly flagged. This module computes exactly those
// quantities per injected fault:
//   * detection latency — fault activation -> first detector transition out
//     of Healthy on the fault's component (when faults overlap on one
//     component, a transition is attributed preferring still-active faults
//     whose class matches the entered state: correctness faults explain
//     kFailed, performance faults explain kStuttering);
//   * reaction latency  — detection -> first policy/supervisor action on
//     that component;
//   * missed faults and false positives (transitions with no active fault).
#ifndef SRC_OBS_CORRELATOR_H_
#define SRC_OBS_CORRELATOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/obs/event.h"
#include "src/simcore/time.h"

namespace fst {

struct CorrelatorOptions {
  // Detectors sometimes watch an aggregate of the faulted device (a fault
  // on "disk0" surfaces as a transition on "pair0"). `alias` maps the
  // fault's component name to the detector-side component name.
  std::map<std::string, std::string> alias;
};

struct FaultRecord {
  std::string component;  // detector-side component name (post-alias)
  std::string device;     // component the fault was injected on
  std::string kind;       // e.g. "static-slowdown", "fail-stop"
  bool correctness = false;
  double magnitude = 1.0;
  SimTime injected_at;

  // End of the fault episode (kFaultDeactivate with matching component +
  // kind), when producers emit one; faults with no recorded deactivation
  // stay cleared == false (treat them as active through end of stream).
  bool cleared = false;
  SimTime cleared_at;

  bool detected = false;
  SimTime detected_at;
  Duration detection_latency = Duration::Zero();
  int detected_state = 0;  // PerfState the detector entered (1=Stuttering, 2=Failed)

  bool reacted = false;
  SimTime reacted_at;
  Duration reaction_latency = Duration::Zero();  // measured from detection
  std::string reaction;                          // e.g. "reweight", "eject"
};

struct CorrelationReport {
  std::vector<FaultRecord> faults;
  int detected_count = 0;
  int missed = 0;
  int false_positives = 0;  // out-of-Healthy transitions with no active fault
  double mean_detection_latency_s = 0.0;  // over detected faults
  double mean_reaction_latency_s = 0.0;   // over reacted faults

  std::string ToJson() const;
  // Human-readable one-fault-per-line digest.
  std::string Summary() const;
};

// Scans `events` (any order; sorted internally) and builds the report.
// Only the control kinds (IsControlEvent) are read, so a recorder's
// FaultLog() gives the same report as its full Events() snapshot.
// Contract with producers: kStateTransition events carry the PerfState the
// detector entered in `a` (0 = Healthy), and kPolicyAction events with
// label "none" are observations, not reactions.
CorrelationReport CorrelateFaultTimeline(const std::vector<TraceEvent>& events,
                                         const ComponentTable& table,
                                         const CorrelatorOptions& options = {});

}  // namespace fst

#endif  // SRC_OBS_CORRELATOR_H_
