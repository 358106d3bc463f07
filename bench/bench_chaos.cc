// Chaos-campaign engine benchmarks — robustness machinery under the clock.
//
// Two questions:
//   1. What does a deterministic chaos campaign cost? BM_ChaosSeed times a
//      single seeded scenario end-to-end (scenario derivation, the full
//      serving run with crash recovery + retry enabled, invariant checks);
//      BM_ChaosCampaign times a multi-seed campaign through the sweep
//      runner, which is the unit CI runs.
//   2. How does anti-entropy repair bandwidth trade repair time against
//      serving goodput? BM_RepairBandwidth sweeps repair_keys_per_sec over
//      a fixed scripted crash and reports both the time from restart to
//      full re-replication and the goodput over the run: faster repair
//      closes the under-replicated window sooner at the price of
//      background write work on the survivors.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "src/chaos/campaign.h"
#include "src/chaos/scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/core/policy.h"
#include "src/faults/injector.h"

namespace fst {
namespace {

CampaignParams SmallCampaign(int seeds) {
  CampaignParams p;
  p.seeds = seeds;
  p.run_for = Duration::Seconds(12.0);
  p.settle = Duration::Seconds(6.0);
  p.threads = 1;  // timing benchmark: keep the work on the measured thread
  return p;
}

void BM_ChaosSeed(benchmark::State& state) {
  const CampaignParams p = SmallCampaign(1);
  SeedOutcome out;
  for (auto _ : state) {
    out = RunChaosSeed(p, static_cast<uint64_t>(state.range(0)));
    benchmark::DoNotOptimize(out.fire_digest);
  }
  state.counters["goodput_per_sec"] = out.goodput_per_sec;
  state.counters["crashes"] = out.crashes;
  state.counters["recoveries"] = out.recoveries;
  state.counters["keys_repaired"] = static_cast<double>(out.keys_repaired);
  state.counters["retries"] = static_cast<double>(out.retries);
  state.counters["violations"] = static_cast<double>(out.violations.size());
}
BENCHMARK(BM_ChaosSeed)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_ChaosCampaign(benchmark::State& state) {
  const CampaignParams p = SmallCampaign(static_cast<int>(state.range(0)));
  int violations = 0;
  double goodput = 0.0;
  for (auto _ : state) {
    const CampaignResult res = RunCampaign(p);
    violations = res.violations;
    goodput = 0.0;
    for (const SeedOutcome& o : res.outcomes) {
      goodput += o.goodput_per_sec;
    }
    goodput /= static_cast<double>(res.outcomes.size());
  }
  state.counters["violations"] = violations;
  state.counters["mean_goodput_per_sec"] = goodput;
  state.counters["seeds_per_sec"] = benchmark::Counter(
      static_cast<double>(p.seeds) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChaosCampaign)->Arg(5)->Unit(benchmark::kMillisecond);

struct RepairRun {
  double goodput_per_sec = 0.0;
  double repair_window_s = 0.0;  // restart -> replication fully restored
  int64_t keys_repaired = 0;
  int64_t under_replicated = 0;
  uint64_t fire_digest = 0;
};

// One scripted crash (node 0 down 4s..5s) with repair bandwidth swept.
// The repair window is measured by polling the under-replication probe
// every 100 ms after the restart.
RepairRun RunRepairGrid(double repair_keys_per_sec, uint64_t seed) {
  Simulator sim(seed);
  FleetParams fp;
  fp.arrivals_per_sec = 300.0;
  fp.run_for = Duration::Seconds(16.0);
  fp.read_fraction = 0.5;  // writes keep the acked ledger growing mid-run
  fp.key_space = 400;
  ColumnarFleet fleet(sim, ColumnarFleetParams{fp});

  ClusterParams cp;
  cp.nodes = 4;
  cp.shard.replication = 2;
  cp.write_quorum = 2;
  cp.retry.enabled = true;
  cp.retry.deadline = Duration::Millis(800);
  cp.recovery.enabled = true;
  cp.recovery.repair_keys_per_sec = repair_keys_per_sec;
  KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>());

  FaultInjector injector(sim);
  ApplySchedule(sim, svc, ParseDsl("crash node=0 at=4s down=1s"), injector);
  svc.StartRecovery(SimTime::Zero() + Duration::Seconds(22.0));

  const double restart_s = 5.0;
  double repaired_at_s = -1.0;
  for (int tick = 0; tick < 170; ++tick) {
    const double at_s = restart_s + 0.1 * tick;
    sim.ScheduleAt(SimTime::Zero() + Duration::Seconds(at_s), [&, at_s] {
      if (repaired_at_s < 0.0 && !svc.node(0)->has_failed() &&
          svc.under_replicated_keys() == 0) {
        repaired_at_s = at_s;
      }
    });
  }

  fleet.Run(svc, nullptr);
  sim.Run();

  RepairRun out;
  if (svc.in_flight_ops() == 0) {
    out.goodput_per_sec = svc.slo().GoodputPerSec(fp.run_for);
  }
  out.repair_window_s = repaired_at_s < 0.0 ? -1.0 : repaired_at_s - restart_s;
  out.keys_repaired = svc.keys_repaired();
  out.under_replicated = svc.under_replicated_keys();
  out.fire_digest = sim.fire_digest();
  return out;
}

void BM_RepairBandwidth(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  RepairRun result;
  for (auto _ : state) {
    result = RunRepairGrid(rate, 3);
    benchmark::DoNotOptimize(result.fire_digest);
  }
  state.counters["goodput_per_sec"] = result.goodput_per_sec;
  state.counters["repair_window_s"] = result.repair_window_s;
  state.counters["keys_repaired"] = static_cast<double>(result.keys_repaired);
  state.counters["under_replicated_end"] =
      static_cast<double>(result.under_replicated);
}
BENCHMARK(BM_RepairBandwidth)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fst

FST_BENCH_MAIN(chaos);
