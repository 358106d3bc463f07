// chaos_control and resilience_grid: the two campaign workloads.
//
// Both drive the campaign cells through their public per-cell entry points
// (RunChaosSeed, RunResilienceCell, RunCheckpointCell) on a SweepRunner,
// the way RunCampaign / RunResilienceCampaign do, so the benchmark can time
// every cell and still assemble the campaign's own report JSON from the
// grid-ordered outcomes. The workload seed picks the campaign's seed block
// (first_seed = 1000 * seed + 1); the pinned gate runs the canonical block
// starting at seed 1, whose report digest is pinned in pins.json.
//
// Setup is generating (and round-tripping through ParseDsl) every cell's
// chaos scenario: the inputs, generated a few times per pass. Each cell's
// outcome must carry exactly the script the benchmark generated, which
// proves the workload seed reached the program's inputs.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/chaos/campaign.h"
#include "src/chaos/scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/consensus/raft.h"
#include "src/core/policy.h"
#include "src/faults/injector.h"
#include "src/harness/sweep.h"
#include "src/obs/correlator.h"
#include "src/obs/live/live_plane.h"
#include "src/obs/recorder.h"
#include "src/resilience/campaign.h"
#include "src/simcore/simulator.h"

namespace perfbench {
namespace {

uint64_t FirstSeed(uint64_t workload_seed) { return workload_seed * 1000 + 1; }

fst::SimTime At(double s) {
  return fst::SimTime::Zero() + fst::Duration::Seconds(s);
}

// Runs `cell(point)` over `spec` on `threads` workers, adding the sweep's
// makespan and CPU time to `pass`; returns each cell's host seconds in grid
// order (and records a span per cell when `spans` is set).
template <typename CellFn>
std::vector<double> TimedSweep(const fst::SweepSpec& spec, int threads,
                               Spans* spans, const std::string& span_name,
                               Pass& pass, CellFn cell) {
  std::vector<double> cell_s(spec.CellCount(), 0.0);
  fst::SweepRunner runner(threads);
  const double c0 = CpuNow();
  const double t0 = WallNow();
  runner.Run(spec, [&](const fst::CellPoint& pt) {
    const double a = WallNow();
    cell(pt);
    const double b = WallNow();
    cell_s[pt.index] = b - a;
    if (spans != nullptr) {
      spans->Add(span_name, a, b, 1);
    }
    fst::CellResult r;
    r.point = pt;
    return r;
  });
  pass.wall_s += WallNow() - t0;
  pass.cpu_s += CpuNow() - c0;
  return cell_s;
}

// One cell's generated scenario, round-tripped through the DSL parser.
struct CellInput {
  std::string dsl;
  bool round_trips = false;
  double setup_s = 0.0;  // host seconds to generate and round-trip it
};

// Generates a cell's scenario inside the cell, right before it runs. The
// pass's setup time is the sum over its cells, so like raid_sweep's it is
// sampled across the whole pass and on every worker rather than in one
// short burst that a moment of host contention would swamp.
CellInput GenerateScenario(uint64_t seed, const fst::RandomScenarioParams& sp,
                           Spans* spans) {
  CellInput in;
  const double t0 = WallNow();
  in.dsl = fst::RandomScenario(seed, sp).ToDsl();
  in.round_trips = fst::ParseDsl(in.dsl).ToDsl() == in.dsl;
  const double t1 = WallNow();
  in.setup_s = t1 - t0;
  if (spans != nullptr) {
    spans->Add("chaos.scenario", t0, t1, 1);
  }
  return in;
}

// Books the cells' setup time into `pass` and returns their scripts in grid
// order; a round trip that changed a script is an input failure.
std::vector<std::string> TakeScripts(const std::vector<CellInput>& inputs,
                                     Pass& pass, Report& rep) {
  std::vector<std::string> scripts;
  for (size_t i = 0; i < inputs.size(); ++i) {
    pass.setup_s += inputs[i].setup_s;
    if (!inputs[i].round_trips) {
      rep.Fail("scenario of cell " + std::to_string(i) +
               " does not round-trip through ParseDsl");
    }
    scripts.push_back(inputs[i].dsl);
  }
  return scripts;
}

uint64_t InputsDigest(const std::vector<std::string>& scripts) {
  uint64_t h = 14695981039346656037ull;
  for (const std::string& s : scripts) {
    h = FnvMix(h, Fnv(s));
  }
  return h;
}

// ---------------------------------------------------------------------------
// chaos_control

struct ChaosSize {
  int seeds = 128;
  int gate_seeds = 16;
  int proposals = 512;
};

fst::CampaignParams ChaosParams(const Options& opt, uint64_t first_seed,
                                int seeds) {
  fst::CampaignParams p;
  p.name = "chaos_control";
  p.control_plane = true;
  p.seeds = seeds;
  p.first_seed = first_seed;
  p.threads = opt.threads;
  return p;
}

fst::SweepSpec SeedSpec(const std::string& name, uint64_t first_seed,
                        int seeds) {
  fst::SweepSpec spec;
  spec.name = name;
  spec.seeds.clear();
  for (int i = 0; i < seeds; ++i) {
    spec.seeds.push_back(first_seed + static_cast<uint64_t>(i));
  }
  return spec;
}

struct ChaosPassOut {
  fst::CampaignResult result;
  std::vector<double> cell_s;
  std::vector<std::string> scripts;
};

ChaosPassOut RunChaosPass(const Options& opt, const fst::CampaignParams& p,
                          Pass& pass, Spans* spans, Report& rep) {
  ChaosPassOut out;
  // Every seed's scenario, shaped as RunChaosSeed shapes it.
  fst::RandomScenarioParams sp = p.scenario;
  sp.nodes = p.nodes;
  sp.horizon = p.run_for;
  sp.leader_faults = p.leader_faults;
  const fst::SweepSpec spec = SeedSpec(p.name, p.first_seed, p.seeds);

  out.result.params = p;
  out.result.outcomes.resize(static_cast<size_t>(p.seeds));
  std::vector<CellInput> inputs(spec.CellCount());
  out.cell_s = TimedSweep(spec, opt.threads, spans, "chaos.cell", pass,
                          [&](const fst::CellPoint& pt) {
                            inputs[pt.index] =
                                GenerateScenario(pt.seed, sp, spans);
                            out.result.outcomes[pt.index] =
                                fst::RunChaosSeed(p, pt.seed);
                          });
  out.scripts = TakeScripts(inputs, pass, rep);
  for (size_t i = 0; i < out.result.outcomes.size(); ++i) {
    const fst::SeedOutcome& o = out.result.outcomes[i];
    ++rep.attempted;
    if (!o.ok) {
      ++out.result.violations;
      rep.Fail("chaos seed " + std::to_string(o.seed) + ": " +
               (o.violations.empty() ? "violation" : o.violations.front()));
    } else if (o.dsl != out.scripts[i]) {
      rep.Fail("chaos seed " + std::to_string(o.seed) +
               " ran a different scenario than the benchmark generated");
    }
  }
  return out;
}

// Host cost of committing the workload's own kind of control traffic: a
// standalone 3-replica group fed seeded weight changes at a steady pace.
void ReplayProposals(uint64_t seed, int proposals, Spans& spans,
                     Report& rep) {
  fst::Simulator sim(seed);
  fst::ConsensusGroup group(sim, fst::ConsensusParams{});
  fst::Rng rng(seed);
  for (int k = 0; k < proposals; ++k) {
    fst::ConfigChange c;
    c.kind = fst::ConfigChangeKind::kSetWeight;
    c.node = static_cast<int32_t>(rng.NextU64() % 4);
    c.weight = 0.25 * static_cast<double>(1 + rng.NextU64() % 4);
    sim.ScheduleAt(At(1.0 + 0.01 * k),
                   [&group, c] { group.Propose(c); });
  }
  group.Start(At(1.0 + 0.01 * proposals + 5.0));
  const double t0 = WallNow();
  sim.Run();
  const double t1 = WallNow();
  spans.Add("consensus.propose_commit", t0, t1, proposals);
  if (group.pending_proposals() != 0 ||
      group.reconfigs_applied() < proposals) {
    rep.Fail("consensus replay left proposals uncommitted");
  }
}

// ---------------------------------------------------------------------------
// resilience_grid

struct ResSize {
  int seeds = 16;
  int ckpt_seeds = 6;
  int gate_seeds = 4;
  int gate_ckpt_seeds = 6;
};

fst::ResilienceCampaignParams ResParams(const Options& opt,
                                        uint64_t first_seed, int seeds,
                                        int ckpt_seeds) {
  fst::ResilienceCampaignParams p;
  p.seeds = seeds;
  p.first_seed = first_seed;
  p.checkpoint_seeds = ckpt_seeds;
  p.threads = opt.threads;
  return p;
}

// RunResilienceCell's per-class scenario shape.
fst::RandomScenarioParams ResScenarioParams(
    const fst::ResilienceCampaignParams& p, int scenario) {
  fst::RandomScenarioParams sp = p.scenario;
  sp.nodes = p.nodes;
  sp.horizon = p.run_for;
  sp.stutter_faults = 0;
  sp.crash_faults = 0;
  sp.gray_faults = 0;
  sp.leader_faults = 0;
  sp.correlated_faults = 0;
  sp.gray_events = 0;
  sp.retry_storms = 0;
  switch (static_cast<fst::ResilienceScenario>(scenario)) {
    case fst::ResilienceScenario::kClean:
      break;
    case fst::ResilienceScenario::kGray:
      sp.gray_events = 2;
      break;
    case fst::ResilienceScenario::kCorrelated:
      sp.correlated_faults = 2;
      sp.correlated_crash_prob = 0.0;
      break;
    case fst::ResilienceScenario::kRetryStorm:
      sp.retry_storms = 1;
      break;
  }
  return sp;
}

fst::SweepSpec ResSpec(const fst::ResilienceCampaignParams& p) {
  fst::SweepSpec spec = SeedSpec(p.name, p.first_seed, p.seeds);
  fst::SweepAxis scen{"scenario", {}, {}};
  fst::SweepAxis pat{"pattern", {}, {}};
  for (int s = 0; s < fst::kResilienceScenarios; ++s) {
    scen.values.push_back(s);
    scen.labels.push_back(
        fst::ResilienceScenarioName(static_cast<fst::ResilienceScenario>(s)));
  }
  for (int q = 0; q < fst::kResiliencePatterns; ++q) {
    pat.values.push_back(q);
    pat.labels.push_back(
        fst::ResiliencePatternName(static_cast<fst::ResiliencePattern>(q)));
  }
  spec.axes = {scen, pat};
  return spec;
}

struct ResPassOut {
  fst::ResilienceCampaignResult result;
  std::vector<double> cell_s;
  std::vector<std::string> scripts;  // scenario-major, then seed
  std::vector<double> ckpt_cell_s;  // the serial checkpoint cells
  double ckpt_serial_s = 0.0;
  int storm_none = 0;        // budget-off retry-storm cells
  int collapsed_none = 0;    // ... of which collapsed (the demonstration)
  int collapsed_budget = 0;  // budget-only storm cells that collapsed
};

// Runs one pass; with `probes` the grid and its serial tail are booked as
// the pass's two probed parts.
ResPassOut RunResPass(const Options& opt,
                      const fst::ResilienceCampaignParams& p, Pass& pass,
                      ProbedParts* probes, Spans* spans, Report& rep) {
  ResPassOut out;
  const fst::SweepSpec spec = ResSpec(p);

  out.result.params = p;
  out.result.outcomes.resize(spec.CellCount());
  std::vector<CellInput> inputs(spec.CellCount());
  out.cell_s = TimedSweep(
      spec, opt.threads, spans, "resilience.cell", pass,
      [&](const fst::CellPoint& pt) {
        const int scenario = static_cast<int>(pt.Value("scenario"));
        // Each cell generates its own scenario, as RunResilienceCell does.
        inputs[pt.index] = GenerateScenario(
            pt.seed, ResScenarioParams(p, scenario), spans);
        out.result.outcomes[pt.index] = fst::RunResilienceCell(
            p, static_cast<fst::ResilienceScenario>(scenario),
            static_cast<fst::ResiliencePattern>(
                static_cast<int>(pt.Value("pattern"))),
            pt.seed);
      });
  out.scripts = TakeScripts(inputs, pass, rep);

  if (probes != nullptr) {
    probes->Part(pass.wall_s);
  }

  // The serial checkpoint sub-grid: the harness's serial tail.
  const double c0 = CpuNow();
  const double k0 = WallNow();
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < p.checkpoint_seeds; ++i) {
      const double a = WallNow();
      out.result.checkpoints.push_back(fst::RunCheckpointCell(
          p, w, p.first_seed + static_cast<uint64_t>(i)));
      const double b = WallNow();
      out.ckpt_cell_s.push_back(b - a);
      if (spans != nullptr) {
        spans->Add("resilience.checkpoint_cell", a, b, 1);
      }
    }
  }
  out.ckpt_serial_s = WallNow() - k0;
  pass.wall_s += out.ckpt_serial_s;
  pass.cpu_s += CpuNow() - c0;
  if (probes != nullptr) {
    probes->Part(out.ckpt_serial_s);
  }

  for (size_t i = 0; i < out.result.outcomes.size(); ++i) {
    const fst::ResilienceCellOutcome& o = out.result.outcomes[i];
    ++rep.attempted;
    if (!o.ok) {
      ++out.result.violations;
      rep.Fail("resilience cell " + std::to_string(o.scenario) + "/" +
               std::to_string(o.pattern) + " seed " + std::to_string(o.seed) +
               ": " +
               (o.violations.empty() ? "violation" : o.violations.front()));
    } else if (o.dsl != out.scripts[i]) {
      rep.Fail("resilience seed " + std::to_string(o.seed) +
               " ran a different scenario than the benchmark generated");
    }
    if (o.scenario ==
        static_cast<int>(fst::ResilienceScenario::kRetryStorm)) {
      if (o.pattern == static_cast<int>(fst::ResiliencePattern::kNone)) {
        ++out.storm_none;
        out.collapsed_none += o.collapsed ? 1 : 0;
      } else if (o.pattern ==
                 static_cast<int>(fst::ResiliencePattern::kBudget)) {
        out.collapsed_budget += o.collapsed ? 1 : 0;
      }
    }
  }
  for (const fst::CheckpointCellOutcome& o : out.result.checkpoints) {
    ++rep.attempted;
    if (!o.ok) {
      ++out.result.violations;
      rep.Fail("checkpoint cell " + std::to_string(o.workload) + " seed " +
               std::to_string(o.seed) + ": " +
               (o.violations.empty() ? "violation" : o.violations.front()));
    }
  }
  return out;
}

// The metastable demonstration, as examples/resilience_campaign gates it:
// >= 75% of budget-off storm cells collapse, no budget-on one does.
void CheckDemo(const ResPassOut& o, Report& rep) {
  ++rep.attempted;
  if (o.storm_none == 0 || 4 * o.collapsed_none < 3 * o.storm_none ||
      o.collapsed_budget != 0) {
    rep.Fail("metastable demo failed: " + std::to_string(o.collapsed_none) +
             "/" + std::to_string(o.storm_none) +
             " budget-off storm cells collapsed, " +
             std::to_string(o.collapsed_budget) + " budget-on collapses");
  }
}

// The telemetry layers, replayed on one gray-stutter serving cell built
// from the workload's first seed: the cell's recorded request completions
// are fed through a fresh LivePlane (ObserveNode / Tick), and its trace
// through CorrelateFaultTimeline.
void ReplayObs(const fst::ResilienceCampaignParams& p, Spans& spans,
               Report& rep) {
  const uint64_t seed = p.first_seed;
  fst::Simulator sim(seed);
  fst::ClusterParams cluster;
  cluster.nodes = p.nodes;
  cluster.shard.replication = p.replication;
  cluster.write_quorum = p.write_quorum;
  cluster.admission.max_outstanding_per_node = p.max_outstanding_per_node;
  cluster.retry.enabled = true;
  cluster.retry.max_attempts = p.retry_max_attempts;
  cluster.recovery.enabled = true;
  cluster.live = p.live;
  cluster.live.enabled = true;
  fst::EventRecorder recorder;
  fst::KvService svc(sim, cluster,
                     std::make_unique<fst::ProportionalSharePolicy>(),
                     &recorder);
  fst::FaultInjector injector(sim);
  injector.set_recorder(&recorder);
  const int gray = static_cast<int>(fst::ResilienceScenario::kGray);
  fst::ApplySchedule(sim, svc,
                     fst::RandomScenario(seed, ResScenarioParams(p, gray)),
                     injector);
  fst::ColumnarFleetParams cfp;
  cfp.base.arrivals_per_sec = p.arrivals_per_sec;
  cfp.base.run_for = p.run_for;
  cfp.base.read_fraction = p.read_fraction;
  cfp.base.key_space = p.key_space;
  fst::ColumnarFleet fleet(sim, cfp);
  const fst::SimTime end = At(p.run_for.ToSeconds() + p.settle.ToSeconds());
  svc.StartRecovery(end);
  svc.StartTelemetry(end);
  fleet.Run(svc, [](const fst::FleetResult&) {});
  sim.Run();

  const std::vector<fst::TraceEvent> events = recorder.Events();
  const fst::ComponentTable& table = recorder.components();
  std::vector<int> node_of(table.size(), -1);
  for (int i = 0; i < p.nodes; ++i) {
    const int id = table.Find("node" + std::to_string(i));
    if (id >= 0) {
      node_of[static_cast<size_t>(id)] = i;
    }
  }

  fst::LivePlaneParams lp = p.live;
  lp.enabled = true;
  fst::LivePlane plane(p.nodes, lp);
  const fst::Duration window = plane.window();
  const fst::Duration deadline = cluster.slo_deadline;
  fst::OutcomeCounts cum;
  fst::SimTime next_tick = fst::SimTime::Zero() + window;
  int64_t in_window = 0;
  double w0 = WallNow();
  for (const fst::TraceEvent& e : events) {
    if (e.kind != fst::EventKind::kRequestComplete ||
        e.component >= node_of.size() || node_of[e.component] < 0) {
      continue;
    }
    while (e.when >= next_tick) {
      const double w1 = WallNow();
      spans.Add("obs.live.observe", w0, w1, in_window);
      plane.Tick(next_tick, cum);
      w0 = WallNow();
      spans.Add("obs.live.tick", w1, w0, 1);
      in_window = 0;
      next_tick = next_tick + window;
    }
    const fst::Duration latency =
        fst::Duration::Nanos(static_cast<int64_t>(e.a + e.b));
    (latency <= deadline ? cum.good : cum.bad) += 1;
    plane.ObserveNode(node_of[e.component], e.when, 1.0, latency);
    ++in_window;
  }
  spans.Add("obs.live.observe", w0, WallNow(), in_window);
  plane.Tick(next_tick, cum);
  if (spans.TotalCount("obs.live.observe") == 0) {
    rep.Fail("telemetry replay saw no node completions");
  }
  rep.det.Int("obs_gray_spans",
              static_cast<int64_t>(plane.expectation().GraySpans().size()));

  std::vector<double> correlate_ms;
  for (int i = 0; i < 3; ++i) {
    const double t0 = WallNow();
    const fst::CorrelationReport r =
        fst::CorrelateFaultTimeline(events, table);
    const double t1 = WallNow();
    spans.Add("obs.correlate", t0, t1, static_cast<int64_t>(events.size()));
    correlate_ms.push_back((t1 - t0) * 1e3);
    if (r.faults.empty()) {
      rep.Fail("correlator replay found no injected faults");
    }
  }
  rep.host.Num("correlate_ms", Median(correlate_ms));
}

}  // namespace

void RunChaosControl(const Options& opt, Report& rep, Spans& spans) {
  ChaosSize size;
  if (opt.small) {
    size = {4, 0, 32};
  }
  if (size.gate_seeds > 0) {
    Pass ignored;
    const ChaosPassOut g = RunChaosPass(
        opt, ChaosParams(opt, 1, size.gate_seeds), ignored, nullptr, rep);
    rep.gate.Str("report_fnv", Hex(Fnv(g.result.ReportJson())))
        .Int("violations", g.result.violations);
  }

  const fst::CampaignParams p =
      ChaosParams(opt, FirstSeed(opt.seed), size.seeds);
  ChaosPassOut first;
  bool have_first = false;
  uint64_t first_fnv = 0;
  std::vector<double> effs;
  MeasurePasses(opt, rep, opt.threads, 5, 200, [&](bool traced,
                                                   ProbedParts& probes) {
    Pass pass;
    pass.traced = traced;
    ChaosPassOut o = RunChaosPass(opt, p, pass, traced ? &spans : nullptr, rep);
    probes.Part(pass.wall_s);
    const uint64_t fnv = Fnv(o.result.ReportJson());
    if (traced) {
      effs.push_back(ParallelEff(o.cell_s, opt.threads, pass.wall_s));
      for (const double s : o.cell_s) {
        rep.cell_ms.push_back(s * 1e3);
      }
    }
    if (!have_first) {
      first = std::move(o);
      first_fnv = fnv;
      have_first = true;
    } else if (fnv != first_fnv) {
      rep.Fail("campaign report diverged from the first pass");
    }
    return pass;
  });

  rep.inputs_digest = InputsDigest(first.scripts);
  double ops = 0.0, goodput = 0.0, reconfig_ms = 0.0;
  int64_t retries = 0, repaired = 0, misses = 0, committed = 0;
  int elections = 0, false_failovers = 0, with_reconfigs = 0;
  for (const fst::SeedOutcome& o : first.result.outcomes) {
    ops += o.goodput_per_sec * p.run_for.ToSeconds();
    goodput += o.goodput_per_sec;
    retries += o.retries;
    repaired += o.keys_repaired;
    misses += o.read_misses;
    committed += o.entries_committed;
    elections += o.elections;
    false_failovers += o.false_failovers;
    if (o.reconfigs > 0) {
      reconfig_ms += o.reconfig_mean_ms;
      ++with_reconfigs;
    }
  }
  const double cells = std::max<size_t>(1, first.result.outcomes.size());
  rep.det.Str("report_fnv", Hex(first_fnv))
      .Num("ops", ops)
      .Int("cells", static_cast<int64_t>(first.result.outcomes.size()))
      .Num("sim_goodput_per_s", goodput / cells)
      .Num("retries_per_op", ops > 0 ? retries / ops : 0.0)
      .Int("keys_repaired", repaired)
      .Int("read_misses", misses)
      .Int("entries_committed", committed)
      .Int("elections", elections)
      .Int("false_failovers", false_failovers)
      .Num("reconfig_mean_ms",
           with_reconfigs > 0 ? reconfig_ms / with_reconfigs : 0.0);

  if (!opt.trace) {
    return;
  }
  ReplayProposals(opt.seed, size.proposals, spans, rep);
  rep.host.Num("parallel_eff", Median(effs));
  rep.host.Num("scenario_us", spans.NsPerItem("chaos.scenario") / 1e3)
      .Num("propose_commit_ns", spans.NsPerItem("consensus.propose_commit"));
}

void RunResilienceGrid(const Options& opt, Report& rep, Spans& spans) {
  ResSize size;
  if (opt.small) {
    size = {1, 1, 0, 0};
  }
  if (size.gate_seeds > 0) {
    Pass ignored;
    const ResPassOut g = RunResPass(
        opt, ResParams(opt, 1, size.gate_seeds, size.gate_ckpt_seeds), ignored,
        nullptr, nullptr, rep);
    rep.gate.Str("scorecard_fnv", Hex(Fnv(g.result.ScorecardJson())))
        .Int("violations", g.result.violations);
  }

  const fst::ResilienceCampaignParams p =
      ResParams(opt, FirstSeed(opt.seed), size.seeds, size.ckpt_seeds);
  ResPassOut first;
  bool have_first = false;
  uint64_t first_fnv = 0;
  std::vector<double> effs, ckpt_ms;
  MeasurePasses(opt, rep, opt.threads, 3, 50, [&](bool traced,
                                                  ProbedParts& probes) {
    Pass pass;
    pass.traced = traced;
    ResPassOut o =
        RunResPass(opt, p, pass, &probes, traced ? &spans : nullptr, rep);
    const uint64_t fnv = Fnv(o.result.ScorecardJson());
    if (traced) {
      // The makespan includes the serial tail, so its idle workers show.
      std::vector<double> all_cells = o.cell_s;
      all_cells.insert(all_cells.end(), o.ckpt_cell_s.begin(),
                       o.ckpt_cell_s.end());
      effs.push_back(ParallelEff(all_cells, opt.threads, pass.wall_s));
      ckpt_ms.push_back(o.ckpt_serial_s * 1e3);
      for (const double s : o.cell_s) {
        rep.cell_ms.push_back(s * 1e3);
      }
    }
    if (!have_first) {
      first = std::move(o);
      first_fnv = fnv;
      have_first = true;
    } else if (fnv != first_fnv) {
      rep.Fail("scorecard diverged from the first pass");
    }
    return pass;
  });
  if (!opt.small) {
    CheckDemo(first, rep);
  }

  rep.inputs_digest = InputsDigest(first.scripts);
  double ops = 0.0, goodput = 0.0;
  int64_t retries = 0, denied = 0;
  for (const fst::ResilienceCellOutcome& o : first.result.outcomes) {
    ops += o.goodput_per_sec * p.run_for.ToSeconds();
    goodput += o.goodput_per_sec;
    retries += o.retries;
    denied += o.denied_budget;
  }
  const double cells = std::max<size_t>(1, first.result.outcomes.size());
  rep.det.Str("scorecard_fnv", Hex(first_fnv))
      .Num("ops", ops)
      .Int("cells", static_cast<int64_t>(first.result.outcomes.size() +
                                         first.result.checkpoints.size()))
      .Num("sim_goodput_per_s", goodput / cells)
      .Num("retries_per_op", ops > 0 ? retries / ops : 0.0)
      .Int("denied_budget", denied)
      .Int("storm_cells_budget_off", first.storm_none)
      .Int("collapsed_cells", first.collapsed_none)
      .Int("collapsed_budget_on", first.collapsed_budget);

  if (!opt.trace) {
    return;
  }
  ReplayObs(p, spans, rep);
  rep.host.Num("parallel_eff", Median(effs));
  rep.host.Num("scenario_us", spans.NsPerItem("chaos.scenario") / 1e3)
      .Num("ckpt_serial_ms", Median(ckpt_ms))
      .Num("observe_ns", spans.NsPerItem("obs.live.observe"));
}

}  // namespace perfbench
