// The columnar open-loop serving front end.
//
// ColumnarFleet is the batched replacement for ClientFleet: arrivals are
// generated a window at a time into SoA columns (ArrivalGenerator), and one
// BatchSequencer event walks the window issuing ops against the KvService's
// slab op table. Terminal outcomes come back inline, through the same
// per-op callback ClientFleet uses: the service records SLO outcomes at the
// completing event and the fleet's two-word callback bumps its result and
// the issuing client's tally, so mid-run SloTracker readers (the burn
// alerter, verdict samplers) see current counts. A tail tick after
// arrivals end resolves the run once nothing is pending.
//
// Determinism contract (pinned by tests/fleet_test.cc):
//   * In kPoisson mode the arrival times, keys, and op kinds are
//     bit-identical to a ClientFleet on the same seed (see arrivals.h), so
//     FleetResult counts and the final SloSnapshot/ReportJson match the
//     legacy per-event path byte for byte. The simulator's fire_digest
//     differs — the event *structure* is different by design — so the
//     batched path carries its own pinned digest.
//   * SLO outcomes are recorded in completion order at completion time,
//     exactly as under ClientFleet, so even the latency histogram's float
//     sum matches.
//   * With num_clients > 0 every arrival is attributed to a client drawn
//     from an independent stream; per-client tallies feed ClientDigest(),
//     a scale-visible determinism witness for million-client cells.
//
// The fleet must be constructed after the KvService on a shared Simulator
// (it forks the root RNG last), same as ClientFleet.
#ifndef SRC_CLUSTER_FLEET_FLEET_H_
#define SRC_CLUSTER_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/simcore/arena.h"
#include "src/simcore/batch_sequencer.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

struct ColumnarFleetParams {
  FleetParams base;
  // Arrivals generated per refill; the batching grain.
  size_t window = 4096;
  // 0 = anonymous (bit-parity with ClientFleet's fork count); > 0 models a
  // population of independent clients whose ids tag every op.
  uint32_t num_clients = 0;
  ArrivalMode mode = ArrivalMode::kPoisson;
  std::vector<MmppPhase> phases;  // kMmpp only; cycled round-robin
  // Tail-tick cadence once arrivals end (bounds how long after the last
  // completion the run resolves).
  Duration drain_every = Duration::Millis(10);
};

// Per-client issue/outcome tallies (num_clients > 0 only).
struct ClientTally {
  int64_t issued = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

class ColumnarFleet {
 public:
  // Validates params (throws std::invalid_argument; arrival surges are not
  // supported and rejected) and forks the arrival and key streams in
  // ClientFleet's order.
  ColumnarFleet(Simulator& sim, ColumnarFleetParams params);

  // Issues arrivals against `service` until base.run_for elapses, then
  // resolves `done` once every issued op has completed.
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
  void Finish();

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
  bool arrivals_done_ = false;
  int64_t pending_ = 0;
  FleetResult result_;
  std::vector<ClientTally> tallies_;
  std::function<void(const FleetResult&)> done_;
};

}  // namespace fst

#endif  // SRC_CLUSTER_FLEET_FLEET_H_
