// Shared plumbing for the repository benchmark driver (fst_perfbench).
//
// The driver runs one named workload through the simulator's public API,
// times it on the host clock, checks its outputs, and prints one JSON
// object of raw samples (per-pass host times, per-cell times, exact
// simulated counts, correctness failures). perfbench/run.py turns those
// samples into the reported metrics; this side never aggregates host
// timings beyond what a pass itself measures.
//
// Tracing is the benchmark's own: a Spans store records one span per call
// the driver makes into a layer's public functions (a cell, Simulator::Run,
// ArrivalGenerator::FillWindow, ...). Nothing inside src/ is instrumented.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 2;
  // Shrunken cells for the benchmark's own tests; skips the pinned gate.
  bool small = false;
  // Where the traced run writes its spans ("" = do not write).
  std::string spans_out;
};

// Host clocks.
double WallNow();        // steady_clock, seconds
double CpuNow();         // process user + system seconds (all threads)
double PeakRssMb();      // ru_maxrss of this process

// Times a fixed piece of work that shares no code with the simulator: a
// miniature event loop (heap of pending events, type-erased callbacks,
// updates to a hash map of a million keys). On a shared host its time
// tracks how fast the machine runs at that moment; run.py scales host
// timings by it. `threads` copies run at once (as many as the workload
// keeps busy) in a child process; returns their makespan.
double ProbeSeconds(int threads);

// Median (0 for an empty sample).
double Median(std::vector<double> v);

// Harness parallel efficiency: summed cell time / (threads x makespan).
double ParallelEff(const std::vector<double>& cell_s, int threads,
                   double makespan_s);

// FNV-1a over bytes / folded words: the digests pinned in pins.json.
uint64_t Fnv(const std::string& bytes);
uint64_t FnvMix(uint64_t h, uint64_t word);
std::string Hex(uint64_t v);

// Ordered JSON object builder (keys appear in insertion order).
class Json {
 public:
  Json& Num(const std::string& key, double v);
  Json& Int(const std::string& key, int64_t v);
  Json& Str(const std::string& key, const std::string& v);
  Json& Bool(const std::string& key, bool v);
  Json& Raw(const std::string& key, std::string json);
  Json& Nums(const std::string& key, const std::vector<double>& v);
  Json& Strs(const std::string& key, const std::vector<std::string>& v);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

// In-memory span store. Add() is thread-safe (sweep cells record from
// worker threads); spans are written out once, at the end of the run.
class Spans {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    double start_s = 0.0;
    double dur_s = 0.0;
    int64_t count = 0;  // work items the call covered (events, arrivals...)
  };

  // Records one finished call; returns its id for children to reference.
  uint64_t Add(const std::string& name, double start_s, double end_s,
               int64_t count = 1, uint64_t parent = 0);
  // Reserves an id for a span whose children finish before it does.
  uint64_t Reserve();
  void AddWithId(uint64_t id, const std::string& name, double start_s,
                 double end_s, int64_t count = 1, uint64_t parent = 0);

  // Summed duration / count over every span of `name`.
  double TotalSeconds(const std::string& name) const;
  int64_t TotalCount(const std::string& name) const;
  // Host nanoseconds per counted item over every span of `name`.
  double NsPerItem(const std::string& name) const;
  size_t size() const;

  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// One measured pass of a workload.
struct Pass {
  bool traced = false;
  double setup_s = 0.0;  // building the pass's simulated systems / inputs
  double wall_s = 0.0;   // running them (host wall)
  double cpu_s = 0.0;    // user + system over the run part
  double probe_s = 0.0;  // host speed probe time this pass is scaled by
};

// Host speed bookkeeping for a run of passes: one probe before the first
// pass and one after each timed part of a pass (a pass runs in one part or
// several). Each part's time is weighed by the probes either side of it, so
// a part that ran while the host was slow is scaled by the probes taken
// then; the probe after one pass's last part is the probe before the next
// pass's first.
class ProbedParts {
 public:
  explicit ProbedParts(int threads)
      : threads_(threads), last_(ProbeSeconds(threads)) {}

  // Books one part that took `wall_s` host seconds, then probes again.
  void Part(double wall_s) {
    const double next = ProbeSeconds(threads_);
    wall_ += wall_s;
    weighted_ += wall_s / (0.5 * (last_ + next));
    last_ = next;
  }

  // The one probe time that scales the parts booked since the last call as
  // each part was; the next part starts a new pass.
  double TakePassProbe() {
    const double probe = weighted_ > 0.0 ? wall_ / weighted_ : last_;
    wall_ = 0.0;
    weighted_ = 0.0;
    return probe;
  }

 private:
  int threads_;
  double last_;
  double wall_ = 0.0;
  double weighted_ = 0.0;
};

// Everything a workload reports back to the driver.
struct Report {
  std::vector<Pass> passes;
  int64_t attempted = 0;              // checked cells (gate included)
  int64_t failed = 0;                 // cells / checks that failed
  std::vector<std::string> failures;  // human-readable, first few kept
  Json gate;                          // pinned-gate digests
  Json det;                           // exact simulated values
  Json host;                          // per-layer host-time values (trace)
  std::vector<double> cell_ms;        // traced passes' per-cell spans
  uint64_t inputs_digest = 0;         // digest of the generated inputs
  int probe_threads = 1;              // threads each host speed probe ran

  void Fail(const std::string& why);
};

// Runs passes until `seconds` of measurement elapsed (at least `min`,
// at most `max`): `pass(traced, probes)` returns one Pass and books each of
// its timed parts with `probes`, whose probes run on `probe_threads`
// threads (as many as the pass keeps busy). In a traced run passes
// alternate untraced / traced so both halves see the same conditions.
template <typename PassFn>
void MeasurePasses(const Options& opt, Report& rep, int probe_threads,
                   int min_passes, int max_passes, PassFn pass) {
  // A traced run leaves the last third of its time to the layer replays.
  const double budget = opt.trace ? opt.seconds * 2.0 / 3.0 : opt.seconds;
  const double t0 = WallNow();
  const int min_total = opt.trace ? 2 * min_passes : min_passes;
  rep.probe_threads = probe_threads;
  ProbedParts probes(probe_threads);
  for (int i = 0; i < max_passes; ++i) {
    if (i >= min_total && WallNow() - t0 >= budget) {
      break;
    }
    const bool traced = opt.trace && (i % 2 == 1);
    rep.passes.push_back(pass(traced, probes));
    rep.passes.back().probe_s = probes.TakePassProbe();
  }
}

// Workloads. Each fills `rep`; spans are recorded only by traced passes
// and by the layer replays of a traced run.
void RunFleet1m(const Options& opt, Report& rep, Spans& spans);
void RunChaosControl(const Options& opt, Report& rep, Spans& spans);
void RunResilienceGrid(const Options& opt, Report& rep, Spans& spans);
void RunRaidSweep(const Options& opt, Report& rep, Spans& spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
