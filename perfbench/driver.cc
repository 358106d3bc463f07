// fst_perfbench: runs one benchmark workload and prints its raw samples.
//
//   fst_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--threads <k>] [--small] [--spans <path>]
//
// Workloads: fleet_1m, chaos_control, resilience_grid, raid_sweep (see
// perfbench/README.md). The last stdout line is one JSON object; run.py
// turns it into metrics. Exit 0 on a completed run (correctness failures
// are reported in the JSON, not by exit code), 1 on bad arguments, 3 when
// the binary is not an optimized Release build — timings from such a build
// are refused outright.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench/bench.h"

#ifndef FST_BENCH_BUILD_TYPE
#define FST_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef FST_BENCH_LTO
#define FST_BENCH_LTO 0
#endif
#ifndef FST_BENCH_COMPILER
#define FST_BENCH_COMPILER "unknown"
#endif

namespace {

bool OptimizedRelease() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return std::strcmp(FST_BENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <fleet_1m|chaos_control|resilience_grid|"
               "raid_sweep> --seed <n> --seconds <s> --trace <0|1> "
               "[--threads <k>] [--small] [--spans <path>]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--small") {
      opt.small = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--threads" && has_value) {
      opt.threads = std::atoi(argv[++i]);
    } else if (a == "--spans" && has_value) {
      opt.spans_out = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (opt.threads < 1 || opt.seconds <= 0.0) {
    return Usage(argv[0]);
  }
  if (!OptimizedRelease()) {
    std::fprintf(stderr,
                 "fst_perfbench: refusing to time a %s build (needs an "
                 "optimized Release build)\n",
                 FST_BENCH_BUILD_TYPE);
    return 3;
  }

  perfbench::Report rep;
  perfbench::Spans spans;
  const double t0 = perfbench::WallNow();
  try {
    if (opt.workload == "fleet_1m") {
      perfbench::RunFleet1m(opt, rep, spans);
    } else if (opt.workload == "chaos_control") {
      perfbench::RunChaosControl(opt, rep, spans);
    } else if (opt.workload == "resilience_grid") {
      perfbench::RunResilienceGrid(opt, rep, spans);
    } else if (opt.workload == "raid_sweep") {
      perfbench::RunRaidSweep(opt, rep, spans);
    } else {
      return Usage(argv[0]);
    }
  } catch (const std::exception& e) {
    rep.Fail(std::string("exception: ") + e.what());
  }
  if (opt.trace && !opt.spans_out.empty() && !spans.WriteJson(opt.spans_out)) {
    rep.Fail("failed writing spans to " + opt.spans_out);
  }

  std::vector<double> setup, wall, cpu, probe, traced;
  for (const perfbench::Pass& p : rep.passes) {
    setup.push_back(p.setup_s);
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    probe.push_back(p.probe_s);
    traced.push_back(p.traced ? 1.0 : 0.0);
  }
  perfbench::Json build;
  build.Str("build_type", FST_BENCH_BUILD_TYPE)
      .Bool("lto", FST_BENCH_LTO != 0)
      .Str("compiler", FST_BENCH_COMPILER);
  perfbench::Json out;
  out.Str("workload", opt.workload)
      .Int("seed", static_cast<int64_t>(opt.seed))
      .Int("threads", opt.threads)
      .Bool("small", opt.small)
      .Bool("trace", opt.trace)
      .Raw("build", build.Dump())
      .Str("inputs_digest", perfbench::Hex(rep.inputs_digest))
      .Nums("pass_setup_s", setup)
      .Nums("pass_wall_s", wall)
      .Nums("pass_cpu_s", cpu)
      .Nums("pass_probe_s", probe)
      .Int("probe_threads", rep.probe_threads)
      .Nums("pass_traced", traced)
      .Nums("cell_ms", rep.cell_ms)
      .Int("attempted", rep.attempted)
      .Int("failed", rep.failed)
      .Strs("failures", rep.failures)
      .Raw("gate", rep.gate.Dump())
      .Raw("det", rep.det.Dump())
      .Raw("host", rep.host.Dump())
      .Int("spans", static_cast<int64_t>(spans.size()))
      .Num("peak_rss_mb", perfbench::PeakRssMb())
      .Num("total_s", perfbench::WallNow() - t0);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
