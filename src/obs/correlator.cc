#include "src/obs/correlator.h"

#include <algorithm>
#include <sstream>

#include "src/obs/export.h"

namespace fst {

namespace {

// Indexes of `report.faults` on a given detector-side component.
struct PerComponent {
  std::vector<size_t> fault_indexes;
};

}  // namespace

CorrelationReport CorrelateFaultTimeline(const std::vector<TraceEvent>& events,
                                         const ComponentTable& table,
                                         const CorrelatorOptions& options) {
  // Only the control kinds matter here; dropping the rest before the
  // stable sort yields the same order as sorting everything, then filtering.
  std::vector<TraceEvent> sorted;
  for (const TraceEvent& e : events) {
    if (IsControlEvent(e.kind)) {
      sorted.push_back(e);
    }
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.when < y.when;
                   });

  CorrelationReport report;
  std::map<std::string, PerComponent> by_component;

  for (const TraceEvent& e : sorted) {
    switch (e.kind) {
      case EventKind::kFaultActivate: {
        FaultRecord rec;
        rec.device = table.Name(e.component);
        auto alias = options.alias.find(rec.device);
        rec.component =
            alias == options.alias.end() ? rec.device : alias->second;
        rec.kind = table.Name(e.label);
        rec.magnitude = e.a;
        rec.correctness = e.b != 0.0;
        rec.injected_at = e.when;
        by_component[rec.component].fault_indexes.push_back(
            report.faults.size());
        report.faults.push_back(std::move(rec));
        break;
      }
      case EventKind::kFaultDeactivate: {
        const std::string& device = table.Name(e.component);
        const std::string& kind = table.Name(e.label);
        // Close the earliest still-open fault of this kind on the device.
        for (FaultRecord& rec : report.faults) {
          if (rec.device == device && rec.kind == kind && !rec.cleared &&
              rec.injected_at <= e.when) {
            rec.cleared = true;
            rec.cleared_at = e.when;
            break;
          }
        }
        break;
      }
      case EventKind::kStateTransition: {
        const int to_state = static_cast<int>(e.a);
        if (to_state == 0) {
          break;  // recovery back to Healthy closes nothing here
        }
        const std::string& component = table.Name(e.component);
        auto it = by_component.find(component);
        bool matched_any_fault = false;
        // Attribution when several faults overlap on one component:
        // prefer (0) a fault still active at the transition whose class
        // matches the entered state (correctness faults explain kFailed,
        // performance faults explain kStuttering), then (1) any active
        // fault, then (2) an already-cleared one (a detector firing just
        // after an episode ends still gets credit). Earliest injection
        // wins within a tier — without the tiers, a long-lived gray
        // stutter would steal the kFailed transition a later crash on the
        // same node caused.
        constexpr size_t kNone = static_cast<size_t>(-1);
        size_t best = kNone;
        int best_tier = 3;
        if (it != by_component.end()) {
          for (size_t idx : it->second.fault_indexes) {
            FaultRecord& rec = report.faults[idx];
            if (rec.injected_at > e.when) {
              continue;
            }
            matched_any_fault = true;
            if (rec.detected) {
              continue;
            }
            const bool active = !rec.cleared || rec.cleared_at >= e.when;
            const bool class_match = rec.correctness == (to_state == 2);
            const int tier = !active ? 2 : (class_match ? 0 : 1);
            if (tier < best_tier) {
              best_tier = tier;
              best = idx;
            }
          }
        }
        if (best != kNone) {
          FaultRecord& rec = report.faults[best];
          rec.detected = true;
          rec.detected_at = e.when;
          rec.detection_latency = e.when - rec.injected_at;
          rec.detected_state = to_state;
        }
        if (!matched_any_fault) {
          ++report.false_positives;
        }
        break;
      }
      case EventKind::kPolicyAction: {
        const std::string& action = table.Name(e.label);
        if (action == "none") {
          break;
        }
        const std::string& component = table.Name(e.component);
        auto it = by_component.find(component);
        if (it == by_component.end()) {
          break;
        }
        for (size_t idx : it->second.fault_indexes) {
          FaultRecord& rec = report.faults[idx];
          if (rec.detected && !rec.reacted && rec.detected_at <= e.when) {
            rec.reacted = true;
            rec.reacted_at = e.when;
            rec.reaction_latency = e.when - rec.detected_at;
            rec.reaction = action;
            break;
          }
        }
        break;
      }
      default:
        break;
    }
  }

  double detect_sum = 0.0;
  double react_sum = 0.0;
  int reacted_count = 0;
  for (const FaultRecord& rec : report.faults) {
    if (rec.detected) {
      ++report.detected_count;
      detect_sum += rec.detection_latency.ToSeconds();
    } else {
      ++report.missed;
    }
    if (rec.reacted) {
      ++reacted_count;
      react_sum += rec.reaction_latency.ToSeconds();
    }
  }
  if (report.detected_count > 0) {
    report.mean_detection_latency_s =
        detect_sum / static_cast<double>(report.detected_count);
  }
  if (reacted_count > 0) {
    report.mean_reaction_latency_s =
        react_sum / static_cast<double>(reacted_count);
  }
  return report;
}

std::string CorrelationReport::ToJson() const {
  std::ostringstream out;
  out << "{" << SchemaStampJson() << ",\"faults\":[";
  for (size_t i = 0; i < faults.size(); ++i) {
    const FaultRecord& f = faults[i];
    if (i > 0) {
      out << ",";
    }
    out << "{\"component\":\"" << JsonEscape(f.component) << "\""
        << ",\"device\":\"" << JsonEscape(f.device) << "\""
        << ",\"kind\":\"" << JsonEscape(f.kind) << "\""
        << ",\"correctness\":" << (f.correctness ? "true" : "false")
        << ",\"magnitude\":" << JsonNumber(f.magnitude)
        << ",\"injected_at_ns\":" << f.injected_at.nanos()
        << ",\"cleared\":" << (f.cleared ? "true" : "false");
    if (f.cleared) {
      out << ",\"cleared_at_ns\":" << f.cleared_at.nanos();
    }
    out << ",\"detected\":" << (f.detected ? "true" : "false");
    if (f.detected) {
      out << ",\"detected_at_ns\":" << f.detected_at.nanos()
          << ",\"detection_latency_s\":"
          << JsonNumber(f.detection_latency.ToSeconds())
          << ",\"detected_state\":" << f.detected_state;
    }
    out << ",\"reacted\":" << (f.reacted ? "true" : "false");
    if (f.reacted) {
      out << ",\"reacted_at_ns\":" << f.reacted_at.nanos()
          << ",\"reaction_latency_s\":"
          << JsonNumber(f.reaction_latency.ToSeconds())
          << ",\"reaction\":\"" << JsonEscape(f.reaction) << "\"";
    }
    out << "}";
  }
  out << "],\"detected\":" << detected_count << ",\"missed\":" << missed
      << ",\"false_positives\":" << false_positives
      << ",\"mean_detection_latency_s\":" << JsonNumber(mean_detection_latency_s)
      << ",\"mean_reaction_latency_s\":" << JsonNumber(mean_reaction_latency_s)
      << "}";
  return out.str();
}

std::string CorrelationReport::Summary() const {
  std::ostringstream out;
  for (const FaultRecord& f : faults) {
    out << f.component;
    if (f.device != f.component) {
      out << " (" << f.device << ")";
    }
    out << " " << f.kind << " @" << f.injected_at.ToString() << ": ";
    if (f.detected) {
      out << "detected +" << f.detection_latency.ToString();
      if (f.reacted) {
        out << ", " << f.reaction << " +" << f.reaction_latency.ToString();
      } else {
        out << ", no reaction";
      }
    } else {
      out << "MISSED";
    }
    out << "\n";
  }
  out << "detected " << detected_count << "/" << faults.size() << ", missed "
      << missed << ", false positives " << false_positives << "\n";
  return out.str();
}

}  // namespace fst
