// Shared helpers for the test suite.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/simcore/simulator.h"

namespace fst {

// Runs the simulator to quiescence and asserts the flag got set — the
// standard pattern for callback-completion workloads.
inline void RunAndExpect(Simulator& sim, const bool& flag) {
  sim.Run();
  ASSERT_TRUE(flag) << "workload did not complete";
}

// Conservation after a fleet run with no `done` has drained: every issued
// op reached a terminal outcome and the service holds none in flight.
inline void ExpectDrained(const ColumnarFleet& fleet, const KvService& svc) {
  const FleetResult& r = fleet.result();
  EXPECT_EQ(r.ops_issued, r.ops_ok + r.ops_failed) << "fleet did not drain";
  EXPECT_EQ(svc.in_flight_ops(), 0u) << "ops still in flight";
}

}  // namespace fst

#endif  // TESTS_TEST_UTIL_H_
