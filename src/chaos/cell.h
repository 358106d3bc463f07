// One campaign serving cell, built and checked in one place: an open-loop
// ColumnarFleet serving a KvService through a chaos schedule, optionally under
// a consensus control plane. The chaos campaign and the resilience grid both
// build their cells here, on the caller's Simulator.
//
// Construction order is what campaign determinism depends on: each part
// forks its RNG streams off the simulator root when built, so the member
// order is the fork order — ColumnarFleet (arrival, key), KvService
// (selector, retry), then the ConsensusGroup, built only when consensus
// params are given so a cell without a control plane sees no shifted
// stream. The
// FaultInjector draws nothing. Then BindControlPlane, then ApplySchedule,
// resolving `node=leader` events through the group whenever one exists.
//
// Derived, not configured: the ring-less EventRecorder(0) is attached to the
// service, group and injector exactly when `cluster.live.enabled`, and
// FleetParams::surges comes from SurgeWindows(schedule).
//
// Run the fleet with no `done` callback (Run(service, nullptr)): a `done`
// arms the fleet's drain tick, whose events would join the cell's event
// order.
//
// Starting stays with the caller: start calls schedule events and
// equal-time events fire in schedule order, so the start sequence is part of
// the event order. The resilience engine starts between telemetry and the
// group, and its quiesce at run_for can tie with group timers.
#ifndef SRC_CHAOS_CELL_H_
#define SRC_CHAOS_CELL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/chaos/scenario.h"
#include "src/cluster/fleet/fleet.h"
#include "src/consensus/raft.h"
#include "src/obs/correlator.h"
#include "src/obs/live/scorecard.h"
#include "src/obs/recorder.h"

namespace fst {

class ServingCell {
 public:
  // `consensus` present turns the control plane on; its data_nodes and
  // shard are taken from `cluster`.
  ServingCell(Simulator& sim, FleetParams fleet, const ClusterParams& cluster,
              const std::optional<ConsensusParams>& consensus,
              const ChaosSchedule& schedule);

  ColumnarFleet& fleet() { return fleet_; }
  KvService& service() { return service_; }
  ConsensusGroup* group() { return group_.get(); }  // null: no control plane
  FaultInjector& injector() { return injector_; }

  // The recorder's fault log, correlated; empty unless the live plane is on.
  CorrelationReport FaultReport() const;

 private:
  EventRecorder recorder_;
  ColumnarFleet fleet_;
  KvService service_;
  std::unique_ptr<ConsensusGroup> group_;
  FaultInjector injector_;
};

// The end-of-run invariant checks shared by both campaigns. Each appends
// one human-readable line per violation.

// Detection quality: the scorecard's counts are consistent, and every
// injected crash was detected (generated crashes keep a node down past
// the liveness timeout, so a missed one is a detector bug).
void CheckDetection(const DetectorScorecard& scorecard,
                    const CorrelationReport& report,
                    std::vector<std::string>& violations);

// Control plane: the consensus invariants with leaderless windows up to
// `unavailability_bound`, no split-brain ownership (the serving map and
// weights equal the feed replica's applied state bit for bit) and no
// proposal left uncommitted.
void CheckControlPlane(ConsensusGroup& group, KvService& service,
                       Duration unavailability_bound,
                       std::vector<std::string>& violations);

// Robustness: no acked write lost, replication restored, and every node
// up and converged (not stuck kFailed, ejected only while stuttering,
// healthy ⇒ weight exactly 1.0).
void CheckRobustness(KvService& service, std::vector<std::string>& violations);

}  // namespace fst

#endif  // SRC_CHAOS_CELL_H_
