#include "src/chaos/cell.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "src/core/policy.h"
#include "src/faults/fault.h"

namespace fst {

ServingCell::ServingCell(Simulator& sim, FleetParams fleet,
                         const ClusterParams& cluster,
                         const std::optional<ConsensusParams>& consensus,
                         const ChaosSchedule& schedule)
    : recorder_(0),
      fleet_(sim,
             [&] {
               ColumnarFleetParams p;
               p.base = std::move(fleet);
               p.base.surges = SurgeWindows(schedule);
               return p;
             }()),
      service_(sim, cluster, std::make_unique<ProportionalSharePolicy>(),
               cluster.live.enabled ? &recorder_ : nullptr),
      injector_(sim) {
  EventRecorder* recorder = cluster.live.enabled ? &recorder_ : nullptr;
  LeaderResolver leader_of;
  if (consensus) {
    ConsensusParams cp = *consensus;
    cp.data_nodes = cluster.nodes;
    cp.shard = cluster.shard;
    group_ = std::make_unique<ConsensusGroup>(sim, cp, recorder);
    BindControlPlane(*group_, service_);
    ConsensusGroup* g = group_.get();
    leader_of = [g]() -> FaultableDevice* {
      return &g->LeaderDeviceOrFallback();
    };
  }
  injector_.set_recorder(recorder);
  ApplySchedule(sim, service_, schedule, injector_, leader_of);
}

CorrelationReport ServingCell::FaultReport() const {
  return CorrelateFaultTimeline(recorder_.FaultLog(), recorder_.components());
}

void CheckDetection(const DetectorScorecard& scorecard,
                    const CorrelationReport& report,
                    std::vector<std::string>& violations) {
  if (scorecard.detected + scorecard.missed != scorecard.faults) {
    violations.push_back("scorecard count mismatch: detected " +
                         std::to_string(scorecard.detected) + " + missed " +
                         std::to_string(scorecard.missed) + " != faults " +
                         std::to_string(scorecard.faults));
  }
  for (const FaultRecord& f : report.faults) {
    if (f.kind == "crash-restart" && !f.detected) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "crash on %s at %.3fs never detected",
                    f.device.c_str(), f.injected_at.ToSeconds());
      violations.push_back(buf);
    }
  }
}

void CheckControlPlane(ConsensusGroup& group, KvService& service,
                       Duration unavailability_bound,
                       std::vector<std::string>& violations) {
  for (std::string& v : group.CheckInvariants(unavailability_bound)) {
    violations.push_back(std::move(v));
  }
  // The service holds no ownership fact the quorum never committed.
  const ControlState& feed = group.replica(0).state();
  if (service.shard_map().OwnershipDigest() != feed.map().OwnershipDigest()) {
    violations.push_back(
        "serving shard map diverged from feed replica applied state");
  }
  for (int i = 0; i < service.params().nodes; ++i) {
    if (service.selector().WeightOf(i) != feed.weight(i)) {
      char buf[112];
      std::snprintf(buf, sizeof(buf),
                    "node%d serving weight %.6f != committed %.6f", i,
                    service.selector().WeightOf(i), feed.weight(i));
      violations.push_back(buf);
    }
  }
  if (group.pending_proposals() != 0) {
    violations.push_back(std::to_string(group.pending_proposals()) +
                         " control proposals never committed by end of run");
  }
}

void CheckRobustness(KvService& service,
                     std::vector<std::string>& violations) {
  const int64_t lost = service.lost_acked_writes();
  if (lost > 0) {
    violations.push_back("lost_acked_writes=" + std::to_string(lost));
  }
  const int64_t under = service.under_replicated_keys();
  if (under > 0) {
    violations.push_back("under_replicated_keys=" + std::to_string(under));
  }
  for (int i = 0; i < service.params().nodes; ++i) {
    const std::string name = "node" + std::to_string(i);
    const PerfState st = service.registry().StateOf(name);
    if (service.node(i)->has_failed()) {
      violations.push_back(name + " still down at end of run");
      continue;
    }
    if (st == PerfState::kFailed) {
      violations.push_back(name + " stuck kFailed though the device is up");
    }
    const bool ejected = service.shard_map().IsEjected(i);
    if (ejected && st != PerfState::kStuttering) {
      violations.push_back(name + " ejected though state is " +
                           PerfStateName(st));
    }
    if (st == PerfState::kHealthy && !ejected &&
        std::fabs(service.selector().WeightOf(i) - 1.0) > 1e-9) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s healthy but weight %.4f != 1.0",
                    name.c_str(), service.selector().WeightOf(i));
      violations.push_back(buf);
    }
  }
}

}  // namespace fst
