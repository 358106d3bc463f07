// Tests for the serving front end: batched arrivals with surges, the slab
// op table, inline completion delivery, and bit-parity with goldens of the
// per-event front end it replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/cluster/fleet/fleet.h"
#include "src/cluster/fleet/op_table.h"
#include "src/core/policy.h"
#include "src/devices/modulators.h"
#include "src/harness/sweep.h"
#include "src/simcore/batch_sequencer.h"
#include "src/simcore/rng.h"
#include "src/simcore/stats.h"
#include "tests/test_util.h"

namespace fst {
namespace {

// ---------------------------------------------------------------------------
// Guide-table Zipf: bit-identical to the old full binary search
// ---------------------------------------------------------------------------

// Straight copy of the pre-guide-table sampler: same CDF construction, full
// binary search over the whole array. The guide table must narrow the same
// predicate, never change its answer.
class LegacyZipf {
 public:
  LegacyZipf(int64_t n, double s) {
    double total = 0.0;
    for (int64_t rank = 0; rank < n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
  int64_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble();
    size_t lo = 0;
    size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<int64_t>(lo);
  }

 private:
  std::vector<double> cdf_;
};

TEST(ZipfGuideTest, DrawSequencesMatchLegacyBinarySearchExactly) {
  for (const double s : {0.0, 0.8, 1.1, 1.5}) {
    for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{10000}}) {
      ZipfGenerator guided(n, s);
      LegacyZipf legacy(n, s);
      Rng a(42), b(42);
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(guided.Sample(a), legacy.Sample(b))
            << "s=" << s << " n=" << n << " draw " << i;
      }
    }
  }
}

TEST(ZipfGuideTest, ProbabilitiesStillSumToOne) {
  ZipfGenerator z(100, 1.1);
  double total = 0.0;
  for (int64_t r = 0; r < 100; ++r) {
    total += z.ProbabilityOf(r);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// FleetParams validation + run_for == 0 edges
// ---------------------------------------------------------------------------

TEST(FleetValidationTest, RejectsDegenerateParams) {
  Simulator sim(1);
  ColumnarFleetParams cfp;
  cfp.base.arrivals_per_sec = 0.0;  // the old divide-by-zero feeding Exponential
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp.base.arrivals_per_sec = -5.0;
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp.base.arrivals_per_sec = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.base.read_fraction = 1.5;
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.base.read_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.base.key_space = 0;
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.base.run_for = Duration::Seconds(-1.0);
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.window = 0;
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.base.surges = {{Duration::Seconds(1.0), Duration::Seconds(2.0), 0.0}};
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  // Surges are part of the arrival process: a valid window is accepted.
  cfp.base.surges = {{Duration::Seconds(1.0), Duration::Seconds(2.0), 3.0}};
  EXPECT_NO_THROW(ColumnarFleet(sim, cfp));
}

TEST(FleetValidationTest, ZeroHorizonResolvesDoneWithZeroOps) {
  {
    Simulator sim(5);
    ClusterParams cp;
    KvService svc(sim, cp, std::make_unique<IgnoreStutterPolicy>());
    ColumnarFleetParams cfp;
    cfp.base.run_for = Duration::Zero();
    ColumnarFleet fleet(sim, cfp);
    bool finished = false;
    fleet.Run(svc, [&](const FleetResult& r) {
      finished = true;
      EXPECT_EQ(r.ops_issued, 0);
    });
    RunAndExpect(sim, finished);
  }
  {
    // Without `done` there is no drain tick: nothing is scheduled at all.
    Simulator sim(5);
    ClusterParams cp;
    KvService svc(sim, cp, std::make_unique<IgnoreStutterPolicy>());
    ColumnarFleetParams cfp;
    cfp.base.run_for = Duration::Zero();
    ColumnarFleet fleet(sim, cfp);
    fleet.Run(svc, nullptr);
    sim.Run();
    EXPECT_EQ(fleet.result().ops_issued, 0);
    EXPECT_EQ(sim.events_fired(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Arrival surges and the generator's clock
// ---------------------------------------------------------------------------

// Gaps and surge windows count from Start(): a generator started 5 s late
// yields the same arrivals shifted by exactly 5 s.
TEST(ArrivalClockTest, StartShiftsArrivalsAndSurgesTogether) {
  FleetParams fp;
  fp.arrivals_per_sec = 400.0;
  fp.run_for = Duration::Seconds(4.0);
  fp.surges = {{Duration::Seconds(1.0), Duration::Seconds(1.0), 3.7},
               {Duration::Seconds(2.5), Duration::Seconds(0.5), 0.4}};
  const auto arrivals = [&](Duration delay) {
    Simulator sim(9);
    ArrivalGenerator gen(sim, fp, 0);
    const SimTime start = sim.Now() + delay;
    gen.Start(start);
    std::vector<SimTime> at;
    ArrivalBatch batch;
    bool more = true;
    while (more) {
      more = gen.FillWindow(batch, 100, start + fp.run_for);
      at.insert(at.end(), batch.at.begin(), batch.at.end());
    }
    return at;
  };
  const std::vector<SimTime> now = arrivals(Duration::Zero());
  const std::vector<SimTime> late = arrivals(Duration::Seconds(5.0));
  ASSERT_EQ(now.size(), late.size());
  for (size_t i = 0; i < now.size(); ++i) {
    ASSERT_EQ(late[i], now[i] + Duration::Seconds(5.0)) << "arrival " << i;
  }
  // The x3.7 second carries far more arrivals than the x0.4 half second.
  const auto count_in = [&](double from_s, double to_s) {
    int n = 0;
    for (const SimTime t : now) {
      n += t >= SimTime::Zero() + Duration::Seconds(from_s) &&
           t < SimTime::Zero() + Duration::Seconds(to_s);
    }
    return n;
  };
  EXPECT_GT(count_in(1.0, 2.0), 1200);   // ~1480 expected
  EXPECT_LT(count_in(2.5, 3.0), 140);    // ~80 expected
}

// ---------------------------------------------------------------------------
// OpTable
// ---------------------------------------------------------------------------

TEST(OpTableTest, SlotReuseAndGenerationInvalidation) {
  OpTable t;
  const OpTable::Id a = t.Allocate();
  EXPECT_NE(a, OpTable::kInvalidId);
  EXPECT_EQ(t.live(), 1u);
  EXPECT_GE(t.SlotOf(a), 0);
  t.key[OpTable::RawSlot(a)] = 99;
  t.Free(a);
  EXPECT_EQ(t.live(), 0u);
  EXPECT_LT(t.SlotOf(a), 0) << "freed id must not resolve";

  const OpTable::Id b = t.Allocate();
  EXPECT_EQ(OpTable::RawSlot(b), OpTable::RawSlot(a)) << "slot reused";
  EXPECT_NE(a, b) << "generation stamp distinguishes incarnations";
  EXPECT_LT(t.SlotOf(a), 0) << "stale id still dead after reuse";
  EXPECT_GE(t.SlotOf(b), 0);
  EXPECT_EQ(t.key[OpTable::RawSlot(b)], 0u) << "reused slot comes back clean";
  EXPECT_EQ(t.capacity(), 1u);
}

TEST(OpTableTest, CapacityPlateausAtPeakInFlight) {
  OpTable t;
  std::vector<OpTable::Id> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(t.Allocate());
  }
  EXPECT_EQ(t.capacity(), 64u);
  for (int round = 0; round < 100; ++round) {
    for (auto& id : ids) {
      t.Free(id);
      id = t.Allocate();
    }
  }
  EXPECT_EQ(t.capacity(), 64u) << "steady-state churn must not grow the slab";
  EXPECT_EQ(t.live(), 64u);
}

// ---------------------------------------------------------------------------
// BatchSequencer
// ---------------------------------------------------------------------------

TEST(BatchSequencerTest, FiresEveryIndexAtItsDueTimeAcrossRefills) {
  Simulator sim(1);
  std::vector<SimTime> times;
  std::vector<std::pair<size_t, SimTime>> fired;
  int windows = 0;
  BatchSequencer seq(sim);
  seq.Start(&times,
            [&](size_t i) { fired.emplace_back(i, sim.Now()); },
            [&]() -> size_t {
              if (windows == 3) {
                return 0;
              }
              times.clear();
              for (int i = 0; i < 4; ++i) {
                times.push_back(SimTime::Zero() +
                                Duration::Millis(100 * windows + 10 * (i + 1)));
              }
              ++windows;
              return times.size();
            });
  sim.Run();
  EXPECT_FALSE(seq.active());
  ASSERT_EQ(fired.size(), 12u);
  for (size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k].first, k % 4);
    const auto expect_at =
        SimTime::Zero() + Duration::Millis(100 * (k / 4) + 10 * (k % 4 + 1));
    EXPECT_EQ(fired[k].second, expect_at) << "index " << k;
  }
}

// ---------------------------------------------------------------------------
// Parity with the retired per-event front end
// ---------------------------------------------------------------------------
//
// The per-event fleet that ColumnarFleet replaced scheduled one event per
// arrival, the next from inside the previous one, exactly as the
// BatchSequencer does. A ColumnarFleet run with no `done` callback (so no
// drain tick) therefore reproduces its event stream. The goldens below were
// recorded from that fleet (its `done` scheduled nothing), service built
// first; they pin outcomes, the SLO report bytes and the exact event
// order.

std::unique_ptr<ReactionPolicy> MakePolicy(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<IgnoreStutterPolicy>();
    case 1:
      return std::make_unique<EjectOnStutterPolicy>();
    default:
      return std::make_unique<ProportionalSharePolicy>(8.0);
  }
}

struct CellCfg {
  int policy = 2;
  uint64_t seed = 3;
  double slow_factor = 2.0;
  double lambda = 320.0;
  double seconds = 10.0;
  bool hedge = false;
  double read_fraction = 1.0;
  int write_quorum = 1;
  bool retry = false;
  int replication = 2;
  int64_t key_space = 10000;
  std::vector<ArrivalSurge> surges;
  uint32_t num_clients = 0;
  size_t window = 512;
  // Run with a `done` callback, which arms the drain tick.
  bool done = false;
  // Live plane on + telemetry ticks armed; RunCell then also samples the
  // SloTracker at every probe instant while the run is in flight.
  bool live = false;
  std::vector<double> probe_s;
};

struct CellOut {
  FleetResult fleet;
  std::string slo_json;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t sheds = 0;
  int ejections = 0;
  int reweights = 0;
  uint64_t digest = 0;
  uint64_t events = 0;
  uint64_t client_digest = 0;
  std::vector<SloSnapshot> probes;  // one per CellCfg::probe_s entry
  int burn_raised = 0;
};

CellOut RunCell(const CellCfg& cfg) {
  Simulator sim(cfg.seed);
  ClusterParams cp;
  cp.nodes = 4;
  cp.shard.replication = cfg.replication;
  cp.node.cpu_rate = 1e6;
  cp.read_work = 10000.0;
  cp.write_work = 10000.0;
  cp.admission.max_outstanding_per_node = 24;
  cp.slo_deadline = Duration::Millis(300);
  cp.route = cfg.policy == 2 ? RouteMode::kQueueWeighted : RouteMode::kUniform;
  cp.hedge_reads = cfg.hedge;
  cp.hedge = HedgeParams{Duration::Millis(60), 1};
  cp.write_quorum = cfg.write_quorum;
  cp.retry.enabled = cfg.retry;
  cp.live.enabled = cfg.live;
  // Service first, fleet last, as in the golden runs: the client-id fork
  // (num_clients > 0) then comes after every other stream and shifts none.
  KvService svc(sim, cp, MakePolicy(cfg.policy));
  if (cfg.slow_factor > 1.0) {
    svc.node(0)->AttachModulator(
        std::make_shared<ConstantFactorModulator>(cfg.slow_factor));
  }

  ColumnarFleetParams cfp;
  cfp.base.arrivals_per_sec = cfg.lambda;
  cfp.base.run_for = Duration::Seconds(cfg.seconds);
  cfp.base.read_fraction = cfg.read_fraction;
  cfp.base.key_space = cfg.key_space;
  cfp.base.zipf_s = 1.1;
  cfp.base.surges = cfg.surges;
  cfp.window = cfg.window;
  cfp.num_clients = cfg.num_clients;

  if (cfg.live) {
    svc.StartTelemetry(SimTime::Zero() + Duration::Seconds(cfg.seconds));
  }

  CellOut out;
  ColumnarFleet fleet(sim, cfp);
  bool finished = false;
  if (cfg.done) {
    fleet.Run(svc, [&](const FleetResult&) { finished = true; });
  } else {
    fleet.Run(svc, nullptr);
  }
  // RunUntil schedules nothing, so probing leaves the event order intact.
  for (const double t : cfg.probe_s) {
    sim.RunUntil(SimTime::Zero() + Duration::Seconds(t));
    out.probes.push_back(svc.slo().Snapshot());
  }
  sim.Run();
  EXPECT_EQ(finished, cfg.done);
  ExpectDrained(fleet, svc);
  out.fleet = fleet.result();
  out.client_digest = fleet.ClientDigest();
  out.slo_json = svc.slo().ReportJson(cfp.base.run_for);
  out.reads = svc.reads();
  out.writes = svc.writes();
  out.sheds = svc.sheds();
  out.ejections = svc.ejections();
  out.reweights = svc.reweights();
  out.digest = sim.fire_digest();
  out.events = sim.events_fired();
  if (svc.live() != nullptr) {
    out.burn_raised = svc.live()->burn().raised_count();
  }
  return out;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// What the per-event fleet produced on the same cell.
struct Golden {
  FleetResult fleet;  // issued, reads, writes, ok, failed
  uint64_t slo_json_fnv;
  int64_t reads;
  int64_t writes;
  int64_t sheds;
  int ejections;
  int reweights;
  uint64_t fire_digest;
  uint64_t events;
};

void ExpectGolden(const CellOut& col, const Golden& g) {
  EXPECT_EQ(col.fleet.ops_issued, g.fleet.ops_issued);
  EXPECT_EQ(col.fleet.reads_issued, g.fleet.reads_issued);
  EXPECT_EQ(col.fleet.writes_issued, g.fleet.writes_issued);
  EXPECT_EQ(col.fleet.ops_ok, g.fleet.ops_ok);
  EXPECT_EQ(col.fleet.ops_failed, g.fleet.ops_failed);
  EXPECT_EQ(Fnv1a(col.slo_json), g.slo_json_fnv)
      << "SLO report bytes differ from the per-event front end: "
      << col.slo_json;
  EXPECT_EQ(col.reads, g.reads);
  EXPECT_EQ(col.writes, g.writes);
  EXPECT_EQ(col.sheds, g.sheds);
  EXPECT_EQ(col.ejections, g.ejections);
  EXPECT_EQ(col.reweights, g.reweights);
  EXPECT_EQ(col.events, g.events);
  EXPECT_EQ(col.digest, g.fire_digest)
      << "event order differs from the per-event front end: 0x" << std::hex
      << col.digest;
}

// Read-only cells: policy {ignore, proportional} x seed {3, 4}.
constexpr Golden kReadOnlyGoldens[2][2] = {
    {{{3254, 3254, 0, 3168, 86}, 0x28e616a9499cbb97ULL, 3254, 0, 86, 0, 0,
      0xbdfc3dbae4bb14b3ULL, 19094u},
     {{3125, 3125, 0, 3092, 33}, 0x69656d803c816831ULL, 3125, 0, 33, 0, 0,
      0xcff4953f4ef9f030ULL, 18585u}},
    {{{3254, 3254, 0, 3254, 0}, 0xdb888eb6b5653073ULL, 3254, 0, 0, 0, 1,
      0x4c159d03940952c0ULL, 19524u},
     {{3125, 3125, 0, 3125, 0}, 0x5297cbef32c6a9aaULL, 3125, 0, 0, 0, 1,
      0x1f0f98cc21b7d5c4ULL, 18750u}},
};

TEST(ColumnarParityTest, ReadOnlyCellsMatchLegacyAcrossPoliciesAndSeeds) {
  for (const int policy : {0, 2}) {
    for (const uint64_t seed : {uint64_t{3}, uint64_t{4}}) {
      SCOPED_TRACE("policy " + std::to_string(policy) + " seed " +
                   std::to_string(seed));
      CellCfg cfg;
      cfg.policy = policy;
      cfg.seed = seed;
      ExpectGolden(RunCell(cfg), kReadOnlyGoldens[policy / 2][seed - 3]);
    }
  }
}

TEST(ColumnarParityTest, HedgedReadsMatchLegacy) {
  CellCfg cfg;
  cfg.hedge = true;
  cfg.slow_factor = 8.0;
  cfg.lambda = 150.0;
  cfg.seed = 13;
  ExpectGolden(RunCell(cfg), {{1479, 1479, 0, 1479, 0}, 0x36463ba2fba06b7dULL, 1479,
                     0, 0, 0, 1, 0x2f0e934370a58477ULL, 9498u});
}

TEST(ColumnarParityTest, QuorumWritesWithRetriesMatchLegacy) {
  CellCfg cfg;
  cfg.read_fraction = 0.5;
  cfg.write_quorum = 2;
  cfg.retry = true;
  cfg.seed = 5;
  ExpectGolden(RunCell(cfg), {{3099, 1550, 1549, 1968, 1131}, 0xda54e9fd98d40915ULL,
                     1550, 1549, 418, 0, 1, 0xf13b38e0d7845638ULL, 21427u});
}

// Two surges (x3.7 over [2 s, 3.5 s), x0.4 over [6 s, 6.5 s)) on a cell with
// hedged reads and quorum-2 writes with retries: the surge rule is the
// per-event fleet's, gap for gap.
TEST(ColumnarParityTest, SurgesWithHedgesAndQuorumWritesMatchLegacy) {
  CellCfg cfg;
  cfg.seed = 11;
  cfg.hedge = true;
  cfg.slow_factor = 4.0;
  cfg.lambda = 200.0;
  cfg.read_fraction = 0.5;
  cfg.write_quorum = 2;
  cfg.retry = true;
  cfg.surges = {{Duration::Seconds(2.0), Duration::Seconds(1.5), 3.7},
                {Duration::Seconds(6.0), Duration::Seconds(0.5), 0.4}};
  ExpectGolden(RunCell(cfg), {{2683, 1346, 1337, 1474, 1209}, 0x5fc23506aff4c4e4ULL,
                     1346, 1337, 662, 0, 1, 0x969610bcae26bf5cULL, 18654u});
}

// The cells the fleet_scale CLI's old `compare 5` mode diffed: 5 s, R=3,
// a 2^20-key space, policy {ignore, proportional} x seed {3, 4}.
constexpr Golden kFleetScaleGoldens[2][2] = {
    {{{1639, 1639, 0, 1639, 0}, 0x945fb2f2d6d88430ULL, 1639, 0, 0, 0, 0,
      0x476cb49bd45945ebULL, 9834u},
     {{1593, 1593, 0, 1593, 0}, 0x862d0ee4284b5703ULL, 1593, 0, 0, 0, 0,
      0x7b814315f3f6830eULL, 9558u}},
    {{{1639, 1639, 0, 1639, 0}, 0xd7299e8f31d46c68ULL, 1639, 0, 0, 0, 1,
      0x70410d0c369bbd89ULL, 9834u},
     {{1593, 1593, 0, 1593, 0}, 0xbf67368d3d566e5aULL, 1593, 0, 0, 0, 1,
      0xf76c45872af51dccULL, 9558u}},
};

TEST(ColumnarParityTest, FleetScaleCellsMatchLegacy) {
  for (const int policy : {0, 2}) {
    for (const uint64_t seed : {uint64_t{3}, uint64_t{4}}) {
      SCOPED_TRACE("policy " + std::to_string(policy) + " seed " +
                   std::to_string(seed));
      CellCfg cfg;
      cfg.policy = policy;
      cfg.seed = seed;
      cfg.seconds = 5.0;
      cfg.replication = 3;
      cfg.key_space = 1 << 20;
      cfg.window = 4096;
      ExpectGolden(RunCell(cfg), kFleetScaleGoldens[policy / 2][seed - 3]);
    }
  }
}

TEST(ColumnarParityTest, ClientAttributionDoesNotPerturbServing) {
  CellCfg cfg;
  cfg.seed = 3;
  cfg.num_clients = 1000;
  ExpectGolden(RunCell(cfg), kReadOnlyGoldens[1][0]);
}

TEST(ColumnarParityTest, WindowSizeIsBehaviorInvisible) {
  CellCfg cfg;
  cfg.seed = 4;
  cfg.window = 7;
  const CellOut small = RunCell(cfg);
  cfg.window = 4096;
  const CellOut big = RunCell(cfg);
  EXPECT_EQ(small.slo_json, big.slo_json);
  EXPECT_EQ(small.fleet.ops_ok, big.fleet.ops_ok);
  EXPECT_EQ(small.digest, big.digest)
      << "batching grain must not change the event schedule";
}

// Mid-run readers of the SloTracker (the burn alerter's telemetry ticks,
// resilience verdict samplers) see the per-event front end's counts:
// completions land in the tracker at the completing event, not at some
// later batch boundary.
TEST(ColumnarParityTest, MidRunSloMatchesLegacy) {
  CellCfg cfg;
  cfg.seed = 3;
  cfg.slow_factor = 8.0;  // enough late acks to burn the error budget
  cfg.live = true;
  cfg.probe_s = {1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5};
  // {arrivals, acks, goodput, late, shed, errors} at each probe.
  constexpr int64_t kProbes[9][6] = {
      {502, 425, 410, 15, 11, 0},      {859, 730, 702, 28, 56, 0},
      {1164, 1032, 992, 40, 62, 0},    {1486, 1334, 1281, 53, 79, 0},
      {1807, 1637, 1572, 65, 93, 0},   {2141, 1946, 1868, 78, 120, 0},
      {2450, 2252, 2162, 90, 140, 0},  {2798, 2563, 2460, 103, 164, 0},
      {3110, 2869, 2754, 115, 175, 0},
  };
  const CellOut col = RunCell(cfg);
  ASSERT_EQ(col.probes.size(), cfg.probe_s.size());
  for (size_t i = 0; i < cfg.probe_s.size(); ++i) {
    SCOPED_TRACE("probe at " + std::to_string(cfg.probe_s[i]) + " s");
    const SloSnapshot& b = col.probes[i];
    EXPECT_EQ(b.arrivals, kProbes[i][0]);
    EXPECT_EQ(b.acks, kProbes[i][1]);
    EXPECT_EQ(b.goodput, kProbes[i][2]);
    EXPECT_EQ(b.late, kProbes[i][3]);
    EXPECT_EQ(b.shed, kProbes[i][4]);
    EXPECT_EQ(b.errors, kProbes[i][5]);
  }
  EXPECT_EQ(col.burn_raised, 1);
  ExpectGolden(col, {{3254, 3254, 0, 3079, 175}, 0x07d8320a8a38525cULL, 3254,
                     0, 175, 0, 1, 0xec47f5ff309dba3fULL, 18689u});
}

// A `done` callback adds the drain tick and nothing else: outcomes and SLO
// bytes are those of the run without one.
TEST(ColumnarParityTest, DoneOnlyAddsTheDrainTick) {
  CellCfg cfg;
  cfg.seed = 3;
  const CellOut plain = RunCell(cfg);
  cfg.done = true;
  const CellOut with_done = RunCell(cfg);
  EXPECT_EQ(with_done.slo_json, plain.slo_json);
  EXPECT_EQ(with_done.fleet.ops_ok, plain.fleet.ops_ok);
  EXPECT_EQ(with_done.fleet.ops_failed, plain.fleet.ops_failed);
  EXPECT_GT(with_done.events, plain.events);
}

// Golden digest of one columnar serving run with a `done` callback, so its
// drain ticks are part of the pinned event order.
constexpr uint64_t kColumnarRunDigest = 0x2ce14a73738cb30eULL;

TEST(ColumnarParityTest, ColumnarRunIsBitIdenticalAndPinned) {
  CellCfg cfg;
  cfg.seed = 3;
  cfg.num_clients = 100;
  cfg.done = true;
  const CellOut a = RunCell(cfg);
  const CellOut b = RunCell(cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.slo_json, b.slo_json);
  EXPECT_EQ(a.client_digest, b.client_digest);
  EXPECT_EQ(a.digest, kColumnarRunDigest)
      << "columnar event order changed; if intentional, re-pin with the new "
         "digest: 0x"
      << std::hex << a.digest;
}

// ---------------------------------------------------------------------------
// Request tracing under the columnar fleet
// ---------------------------------------------------------------------------

// With a recorder attached, every op's completion trace is recorded inline
// at the completing event. The ring must end up with exactly one
// kRequestComplete per issued op, each joinable to its kRequestEnqueue by
// request_id.
TEST(ColumnarTraceTest, EveryOpRecordsOneInlineCompletion) {
  Simulator sim(23);
  EventRecorder recorder(1 << 16);
  ClusterParams cp;
  cp.nodes = 4;
  KvService svc(sim, cp, MakePolicy(2), &recorder);
  ColumnarFleetParams cfp;
  cfp.base.run_for = Duration::Seconds(5.0);
  cfp.base.arrivals_per_sec = 400.0;
  ColumnarFleet fleet(sim, cfp);
  bool finished = false;
  FleetResult result;
  fleet.Run(svc, [&](const FleetResult& r) {
    result = r;
    finished = true;
  });
  sim.Run();
  ASSERT_TRUE(finished);
  ASSERT_GT(result.ops_issued, 1000);

  // The switch and nodes trace into the same ring under their own
  // components; only the service-level "cluster" stream is per-op.
  const uint16_t cluster_comp = recorder.Intern("cluster");
  std::map<uint64_t, int> enqueues;
  std::map<uint64_t, int> completes;
  for (const TraceEvent& e : recorder.Events()) {
    if (e.component != cluster_comp) {
      continue;
    }
    if (e.kind == EventKind::kRequestEnqueue) {
      ++enqueues[e.request_id];
    } else if (e.kind == EventKind::kRequestComplete) {
      ++completes[e.request_id];
    }
  }
  EXPECT_EQ(completes.size(), static_cast<size_t>(result.ops_issued));
  EXPECT_EQ(recorder.dropped(), 0u);
  for (const auto& [id, n] : completes) {
    ASSERT_EQ(n, 1) << "request " << id << " completed more than once";
    ASSERT_EQ(enqueues.count(id), 1u)
        << "completion without matching enqueue: " << id;
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance of columnar sweeps
// ---------------------------------------------------------------------------

TEST(ColumnarSweepTest, ThreadCountInvariance) {
  SweepSpec spec;
  spec.name = "fleet_mini";
  spec.axes = {{"policy", {0, 2}, {"ignore-stutter", "proportional-share"}}};
  spec.seeds = {1, 2};
  const auto cell = [](const CellPoint& point) {
    CellCfg cfg;
    cfg.policy = static_cast<int>(point.Value("policy"));
    cfg.seed = point.seed;
    cfg.lambda = 150.0;
    cfg.seconds = 5.0;
    const CellOut out = RunCell(cfg);
    CellResult r;
    r.point = point;
    r.value = static_cast<double>(out.fleet.ops_ok);
    r.fire_digest = out.digest;
    r.metrics.emplace_back("sheds", static_cast<double>(out.sheds));
    return r;
  };
  const auto one = SweepRunner(1).Run(spec, cell);
  const auto four = SweepRunner(4).Run(spec, cell);
  EXPECT_EQ(SweepReportJson(spec, one), SweepReportJson(spec, four));
}

}  // namespace
}  // namespace fst
