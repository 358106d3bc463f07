// An open-loop client population: Poisson arrivals, Zipf key popularity.
//
// Open-loop matters for the paper's argument: a closed-loop client slows
// down with the service and hides the damage a stutterer does, while an
// open-loop fleet (arrivals keep coming at the offered rate regardless of
// completions) makes a slow replica either shed load or blow its deadline
// — exactly the over-saturation dynamic of the Gribble DDS anecdote.
//
// Determinism contract: the arrival process draws only from the fleet's
// first forked RNG stream, one Exponential per arrival, the same discipline
// ReplicatedStore (src/workload/dds.h) uses — so a ClientFleet constructed
// first on a fresh seeded Simulator issues bit-identical arrival times to a
// ReplicatedStore on the same seed. Key and op-type draws come from a
// second stream and cannot perturb arrivals. tests/cluster_test.cc pins
// this cross-check.
#ifndef SRC_CLUSTER_CLIENT_H_
#define SRC_CLUSTER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

// A transient arrival-rate multiplier: over [at, at + duration) from the
// fleet's Run() instant, the offered rate is arrivals_per_sec * factor.
// This is the client half of a retry-storm trigger (chaos SurgeWindows()).
struct ArrivalSurge {
  Duration at;
  Duration duration;
  double factor = 1.0;
};

struct FleetParams {
  double arrivals_per_sec = 300.0;
  Duration run_for = Duration::Seconds(30.0);
  // P(read) per op; 1.0 = read-only, 0.0 = write-only.
  double read_fraction = 1.0;
  int64_t key_space = 10000;
  // Zipf skew; <= 0 selects uniform key popularity.
  double zipf_s = 1.1;
  // Arrival surges. Empty (the default) takes a code path textually
  // identical to the pre-surge fleet, so existing runs draw bit-identical
  // arrival times.
  std::vector<ArrivalSurge> surges;
};

// Throws std::invalid_argument for parameters the arrival process cannot
// run on: a non-positive or non-finite rate (the old code fed
// Exponential(1/rate) a divide-by-zero), a negative horizon, a read
// fraction outside [0, 1], an empty key space, or a non-finite skew.
// run_for == 0 is valid: the fleet resolves `done` with zero ops issued.
void ValidateFleetParams(const FleetParams& params);

struct FleetResult {
  int64_t ops_issued = 0;
  int64_t reads_issued = 0;
  int64_t writes_issued = 0;
  int64_t ops_ok = 0;
  int64_t ops_failed = 0;  // shed or errored (details in the SloTracker)
};

class ClientFleet {
 public:
  // Forks the arrival stream immediately (before the key stream) — see the
  // determinism contract above.
  ClientFleet(Simulator& sim, FleetParams params);

  // Issues arrivals against `service` until run_for elapses, then resolves
  // `done` once every issued op has completed (acked, shed, or errored).
  void Run(KvService& service, std::function<void(const FleetResult&)> done);

  const FleetResult& result() const { return result_; }

 private:
  void ScheduleNextArrival();
  double RateAt(SimTime now) const;
  void IssueOp();
  void MaybeFinish();

  Simulator& sim_;
  FleetParams params_;
  Rng arrival_rng_;
  Rng key_rng_;
  ZipfGenerator zipf_;

  KvService* service_ = nullptr;
  SimTime start_;
  SimTime horizon_;
  bool arrivals_done_ = false;
  int64_t pending_ = 0;
  FleetResult result_;
  std::function<void(const FleetResult&)> done_;
};

}  // namespace fst

#endif  // SRC_CLUSTER_CLIENT_H_
