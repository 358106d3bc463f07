// The open-loop serving front end.
//
// ColumnarFleet drives a KvService with the arrival process of arrivals.h:
// arrivals are generated a window at a time into SoA columns
// (ArrivalGenerator), and one BatchSequencer event walks the window issuing
// one op per arrival, at its arrival time. Terminal outcomes come back
// inline through a per-op callback: the service records SLO outcomes at the
// completing event and the fleet's two-word callback bumps its result and
// the issuing client's tally, so mid-run SloTracker readers (the burn
// alerter, verdict samplers) see current counts.
//
// Determinism contract (pinned by tests/fleet_test.cc):
//   * The sequencer schedules exactly one event per arrival, scheduled
//     from the previous arrival's event after its op is issued. A run with
//     no `done` callback therefore adds no event of its own; with `done`,
//     a drain tick every 10 ms after arrivals end resolves it once nothing
//     is pending, and those ticks are part of the event order.
//   * Arrival surges, gaps and the horizon count from Run(), not from
//     construction, so a fleet may be built early and started later.
//   * With num_clients > 0 every arrival is attributed to a client drawn
//     from an independent stream; per-client tallies feed ClientDigest(),
//     a scale-visible determinism witness for million-client cells.
//
// Construct the fleet where the fork order needs it: construction forks
// two streams off the simulator root (arrival, key), and a third (client
// ids) only when num_clients > 0.
#ifndef SRC_CLUSTER_FLEET_FLEET_H_
#define SRC_CLUSTER_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/simcore/arena.h"
#include "src/simcore/batch_sequencer.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

struct FleetResult {
  int64_t ops_issued = 0;
  int64_t reads_issued = 0;
  int64_t writes_issued = 0;
  int64_t ops_ok = 0;
  int64_t ops_failed = 0;  // shed or errored (details in the SloTracker)
};

struct ColumnarFleetParams {
  FleetParams base;
  // Arrivals generated per refill; the batching grain.
  size_t window = 4096;
  // 0 = anonymous (two forks); > 0 models a population of independent
  // clients whose ids tag every op.
  uint32_t num_clients = 0;
};

// Per-client issue/outcome tallies (num_clients > 0 only).
struct ClientTally {
  int64_t issued = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

class ColumnarFleet {
 public:
  // Validates params (throws std::invalid_argument) and forks the arrival
  // and key streams, then the client-id stream when num_clients > 0.
  ColumnarFleet(Simulator& sim, ColumnarFleetParams params);

  // Issues arrivals against `service` until base.run_for elapses. A
  // non-empty `done` is resolved by the drain tick once every issued op has
  // completed; with none, read result() after the simulator drains.
  void Run(KvService& service, std::function<void(const FleetResult&)> done);

  const FleetResult& result() const { return result_; }
  const std::vector<ClientTally>& client_tallies() const { return tallies_; }

  // FNV-1a digest over every client's (issued, ok, failed): two runs of
  // the same seeded cell must match bit-for-bit even at a million clients.
  uint64_t ClientDigest() const;

 private:
  size_t Refill();
  void IssueAt(size_t i);
  void TailTick();

  Simulator& sim_;
  ColumnarFleetParams params_;
  ArrivalGenerator gen_;
  BatchSequencer seq_;
  // Tick-scoped scratch arena: the sequencer resets it at every refill
  // boundary, the generator carves its per-window draw buffers from it.
  // Nothing arena-backed survives past the tick that allocated it.
  TickArena arena_;
  ArrivalBatch batch_;

  KvService* service_ = nullptr;
  SimTime horizon_;
  int64_t pending_ = 0;
  FleetResult result_;
  std::vector<ClientTally> tallies_;
  std::function<void(const FleetResult&)> done_;
};

}  // namespace fst

#endif  // SRC_CLUSTER_FLEET_FLEET_H_
