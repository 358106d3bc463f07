// raid_sweep: the paper's Section 3.2 experiment as a parallel sweep.
//
// 3 stripers x 10 b/B ratios x 32 seeds, each cell an isolated seeded
// Simulator + RAID-10 volume of 4 mirrored pairs (one disk slowed to
// b = ratio * B, 5% per-request jitter) writing 2000 blocks, built from
// public Disk / Raid10Volume calls exactly as examples/sweep_campaign
// builds its cells. The workload seed picks the seed block (1000 * seed +
// 101 ...); the pinned gate is the example's own block 101..108.
//
// Per pass: setup is the summed construction of every cell's disks and
// volume, wall the sweep's makespan. The cells' per-config means are
// checked against the paper's formulas (static: N*b, adaptive and
// proportional: (N-1)*B + b) — the 30 shape verdicts must all pass — and
// paper_err_pct is their mean relative error. The model has no hardware
// reference: that formula error is its only accuracy figure.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/analysis/experiment.h"
#include "src/devices/disk.h"
#include "src/devices/modulators.h"
#include "src/faults/perf_fault.h"
#include "src/harness/sweep.h"
#include "src/raid/raid10.h"
#include "src/simcore/simulator.h"

namespace perfbench {
namespace {

constexpr int kPairs = 4;            // N
constexpr double kBandwidth = 10.0;  // B, MB/s per pair
constexpr int64_t kBlocks = 2000;    // D
constexpr double kJitterSigma = 0.05;
// Seeds per striper x ratio config: 960 cells make a pass long enough
// (about half a second at 2 threads) that one scheduling hiccup is noise.
constexpr int kSeedsPerConfig = 32;
// examples/sweep_campaign's own block, the pinned gate: seeds 101..108.
constexpr uint64_t kPinnedFirstSeed = 101;
constexpr int kPinnedSeeds = 8;

fst::SweepSpec RaidSpec(uint64_t first_seed, int seeds) {
  fst::SweepSpec spec;
  spec.name = "section_3_2_campaign";
  spec.axes = {
      {"striper", {0, 1, 2}, {"static", "proportional", "adaptive"}},
      {"ratio_pct", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, {}},
  };
  spec.seeds.clear();
  for (int i = 0; i < seeds; ++i) {
    spec.seeds.push_back(first_seed + static_cast<uint64_t>(i));
  }
  return spec;
}

double PaperMBps(fst::StriperKind kind, double ratio) {
  const double b = kBandwidth * ratio;
  return kind == fst::StriperKind::kStatic ? kPairs * b
                                           : (kPairs - 1) * kBandwidth + b;
}

// Per-cell side outputs the sweep's CellResult does not carry.
struct CellSide {
  double setup_s = 0.0;
  double run_s = 0.0;
  int64_t disk_requests = 0;
  double blocks_per_sim_s = 0.0;
  bool ok = false;
};

fst::CellResult RaidCell(const fst::CellPoint& point, CellSide& side,
                         Spans* spans) {
  const double t0 = WallNow();
  const auto kind = static_cast<fst::StriperKind>(
      static_cast<int>(point.Value("striper")));
  const double ratio = point.Value("ratio_pct") / 100.0;
  const double slow_factor = 1.0 / ratio;

  fst::Simulator sim(point.seed);
  fst::DiskParams params;
  params.flat_bandwidth_mbps = kBandwidth;
  params.block_bytes = 65536;
  std::vector<std::unique_ptr<fst::Disk>> disks;
  for (int i = 0; i < 2 * kPairs; ++i) {
    disks.push_back(
        std::make_unique<fst::Disk>(sim, "disk" + std::to_string(i), params));
    disks.back()->AttachModulator(std::make_shared<fst::RandomJitterModulator>(
        sim.rng().Fork(), kJitterSigma));
  }
  if (slow_factor > 1.0) {
    disks[0]->AttachModulator(
        std::make_shared<fst::ConstantFactorModulator>(slow_factor));
  }
  std::vector<fst::Disk*> raw;
  for (auto& d : disks) {
    raw.push_back(d.get());
  }
  fst::VolumeConfig config;
  config.block_bytes = 65536;
  config.striper = kind;
  fst::Raid10Volume volume(sim, config, raw);
  const double t1 = WallNow();

  fst::CellResult r;
  r.point = point;
  fst::BatchResult batch;
  auto write = [&]() {
    volume.WriteBlocks(kBlocks, [&](const fst::BatchResult& res) {
      batch = res;
      r.value = res.ThroughputMbps();
    });
  };
  if (kind == fst::StriperKind::kProportional) {
    volume.Calibrate(write);
  } else {
    write();
  }
  const double t2 = WallNow();
  sim.Run();
  const double t3 = WallNow();
  r.fire_digest = sim.fire_digest();
  r.events_fired = sim.events_fired();
  r.metrics.emplace_back("paper_MBps", PaperMBps(kind, ratio));

  side.setup_s = t1 - t0;
  side.run_s = t3 - t2;
  side.ok = batch.ok && batch.blocks == kBlocks;
  const double makespan_s = batch.Makespan().ToSeconds();
  side.blocks_per_sim_s =
      makespan_s > 0.0 ? static_cast<double>(batch.blocks) / makespan_s : 0.0;
  for (const auto& d : disks) {
    side.disk_requests += static_cast<int64_t>(d->latency_histogram().count());
  }
  if (spans != nullptr) {
    const uint64_t root = spans->Reserve();
    spans->Add("raid.build", t0, t1, 1, root);
    spans->Add("simcore.run", t2, t3, static_cast<int64_t>(r.events_fired),
               root);
    spans->AddWithId(root, "raid.cell", t0, t3, 1);
  }
  return r;
}

struct RaidPassOut {
  std::vector<fst::CellResult> results;
  std::vector<CellSide> sides;
  std::string report_json;
  int verdicts = 0;
  int verdicts_passed = 0;
  double paper_err_pct = 0.0;
};

RaidPassOut RunRaidPass(const Options& opt, uint64_t first_seed, int seeds,
                        Pass& pass, Spans* spans, Report& rep) {
  RaidPassOut out;
  const fst::SweepSpec spec = RaidSpec(first_seed, seeds);
  out.sides.resize(spec.CellCount());
  fst::SweepRunner runner(opt.threads);
  const double c0 = CpuNow();
  const double t0 = WallNow();
  out.results = runner.Run(spec, [&](const fst::CellPoint& pt) {
    return RaidCell(pt, out.sides[pt.index], spans);
  });
  pass.wall_s = WallNow() - t0;
  pass.cpu_s = CpuNow() - c0;
  for (const CellSide& s : out.sides) {
    pass.setup_s += s.setup_s;
    ++rep.attempted;
    if (!s.ok) {
      rep.Fail("raid cell did not write every block");
    }
  }
  out.report_json = fst::SweepReportJson(spec, out.results);

  // Paper-shape verdicts on the per-config means, as sweep_campaign does.
  fst::ShapeReport report;
  double err_sum = 0.0;
  for (const fst::SweepGroup& g : fst::SummarizeByConfig(spec, out.results)) {
    const auto kind = static_cast<fst::StriperKind>(
        static_cast<int>(g.axis_values[0]));
    const double ratio = g.axis_values[1] / 100.0;
    const double predicted = PaperMBps(kind, ratio);
    report.Check(spec.axes[0].Label(g.axis_index[0]), g.stats.mean, predicted,
                 0.20);
    err_sum += std::fabs(g.stats.mean - predicted) / predicted;
    ++out.verdicts;
  }
  out.paper_err_pct = out.verdicts > 0 ? 100.0 * err_sum / out.verdicts : 0.0;
  ++rep.attempted;
  if (!report.AllPass()) {
    rep.Fail("paper-shape verdicts failed:\n" + report.Render());
  } else {
    out.verdicts_passed = out.verdicts;
  }
  return out;
}

}  // namespace

void RunRaidSweep(const Options& opt, Report& rep, Spans& spans) {
  if (!opt.small) {
    Pass ignored;
    const RaidPassOut g = RunRaidPass(opt, kPinnedFirstSeed, kPinnedSeeds,
                                      ignored, nullptr, rep);
    rep.gate.Str("report_fnv", Hex(Fnv(g.report_json)))
        .Int("verdicts_passed", g.verdicts_passed);
  }

  const uint64_t first_seed = opt.seed * 1000 + 101;
  {
    uint64_t h = 14695981039346656037ull;
    for (const uint64_t s : RaidSpec(first_seed, kSeedsPerConfig).seeds) {
      h = FnvMix(h, s);
    }
    rep.inputs_digest = h;
  }

  RaidPassOut first;
  bool have_first = false;
  uint64_t first_fnv = 0;
  std::vector<double> effs;
  MeasurePasses(opt, rep, opt.threads, 5, 400, [&](bool traced,
                                                   ProbedParts& probes) {
    Pass pass;
    pass.traced = traced;
    RaidPassOut o =
        RunRaidPass(opt, first_seed, kSeedsPerConfig, pass,
                    traced ? &spans : nullptr, rep);
    probes.Part(pass.wall_s);
    const uint64_t fnv = Fnv(o.report_json);
    if (traced) {
      std::vector<double> cell_s;
      for (const CellSide& s : o.sides) {
        cell_s.push_back(s.setup_s + s.run_s);
        rep.cell_ms.push_back(cell_s.back() * 1e3);
      }
      effs.push_back(ParallelEff(cell_s, opt.threads, pass.wall_s));
    }
    if (!have_first) {
      first = std::move(o);
      first_fnv = fnv;
      have_first = true;
    } else if (fnv != first_fnv) {
      rep.Fail("sweep report diverged from the first pass");
    }
    return pass;
  });

  int64_t events = 0, requests = 0;
  double goodput = 0.0;
  for (size_t i = 0; i < first.results.size(); ++i) {
    events += static_cast<int64_t>(first.results[i].events_fired);
    requests += first.sides[i].disk_requests;
    goodput += first.sides[i].blocks_per_sim_s;
  }
  const double cells = std::max<size_t>(1, first.results.size());
  const double ops = static_cast<double>(kBlocks) * cells;
  rep.det.Str("report_fnv", Hex(first_fnv))
      .Num("ops", ops)
      .Int("cells", static_cast<int64_t>(first.results.size()))
      .Int("events", events)
      .Num("events_per_op", static_cast<double>(events) / ops)
      .Num("sim_goodput_per_s", goodput / cells)
      .Int("disk_requests", requests)
      .Num("paper_err_pct", first.paper_err_pct)
      .Int("verdicts_passed", first.verdicts_passed);

  if (!opt.trace) {
    return;
  }
  rep.host.Num("simcore_run_ns_per_event", spans.NsPerItem("simcore.run"))
      .Num("parallel_eff", Median(effs));
}

}  // namespace perfbench
