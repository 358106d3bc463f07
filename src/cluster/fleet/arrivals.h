// The open-loop arrival process, generated a window at a time.
//
// Open-loop matters for the paper's argument: a closed-loop client slows
// down with the service and hides the damage a stutterer does, while an
// open-loop population (arrivals keep coming at the offered rate regardless
// of completions) makes a slow replica either shed load or blow its
// deadline — exactly the over-saturation dynamic of the Gribble DDS
// anecdote.
//
// FillWindow fills a structure-of-arrays window (times, keys, op kinds,
// client ids) in one call. Draw discipline, the determinism contract:
//   * every inter-arrival gap comes off the arrival stream, one
//     Exponential per arrival in arrival order, the same discipline
//     ReplicatedStore (src/workload/dds.h) uses — so a generator built
//     first on a fresh seeded Simulator issues bit-identical arrival times
//     to a ReplicatedStore on the same seed (tests/cluster_test.cc pins
//     this cross-check). The horizon-crossing gap is drawn and consumed;
//   * each arrival's key and read/write coin come off the key stream, two
//     uniforms per arrival in arrival order;
//   * client ids come off a third stream.
// The streams are independent forks, so batching — which reorders draws
// *across* streams — cannot change any stream's sequence: arrival times,
// keys and op kinds do not depend on the window size.
#ifndef SRC_CLUSTER_FLEET_ARRIVALS_H_
#define SRC_CLUSTER_FLEET_ARRIVALS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/simcore/arena.h"
#include "src/simcore/rng.h"
#include "src/simcore/rng_block.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

// A transient arrival-rate multiplier: over [at, at + duration) from the
// generator's start, the offered rate is arrivals_per_sec * factor. This is
// the client half of a retry-storm trigger (chaos SurgeWindows()).
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
  // Arrival surges. Outside every window the factor is exactly 1.0, so the
  // empty default draws the same stream as a surge-free process.
  std::vector<ArrivalSurge> surges;
};

// Throws std::invalid_argument for parameters the arrival process cannot
// run on: a non-positive or non-finite rate (Exponential(1/rate) would
// divide by zero), a negative horizon, a read fraction outside [0, 1], an
// empty key space, a non-finite skew, or a surge with a non-positive or
// non-finite factor or a negative time. run_for == 0 is valid: the process
// yields no arrivals.
void ValidateFleetParams(const FleetParams& params);

// One window of generated arrivals, SoA layout. Columns are index-aligned.
struct ArrivalBatch {
  std::vector<SimTime> at;
  std::vector<uint64_t> key;
  std::vector<uint8_t> is_read;
  std::vector<uint32_t> client;  // issuing client id (0 when anonymous)

  size_t size() const { return at.size(); }
  void Clear() {
    at.clear();
    key.clear();
    is_read.clear();
    client.clear();
  }
};

// The arrival process is Poisson, modulated by FleetParams::surges.
enum class ArrivalMode { kPoisson };

class ArrivalGenerator {
 public:
  // Forks the arrival stream, then the key stream, then — only when
  // num_clients > 0 — the client-id stream. The clock starts at sim.Now();
  // Start() moves it.
  ArrivalGenerator(Simulator& sim, const FleetParams& base,
                   uint32_t num_clients);
  // The older call shape with an explicit mode and an empty phase list,
  // which perfbench/fleet_workload.cc still uses. Same generator.
  struct NoPhases {};
  ArrivalGenerator(Simulator& sim, const FleetParams& base, ArrivalMode,
                   NoPhases, uint32_t num_clients)
      : ArrivalGenerator(sim, base, num_clients) {}

  // Restarts the clock at `start`: the next gap is drawn from there and
  // surge windows count from there. Call before the first FillWindow.
  void Start(SimTime start);

  // Appends up to `max` arrivals with time <= horizon to `batch` (cleared
  // first). Returns false once the process crossed the horizon: the batch
  // may still hold a final partial window, but later calls yield nothing.
  bool FillWindow(ArrivalBatch& batch, size_t max, SimTime horizon);

  // Optional per-tick arena backing FillWindow's draw scratch. The owner
  // must Reset() it before each FillWindow (the BatchSequencer does);
  // nothing allocated from it escapes the call.
  void AttachArena(TickArena* arena) { arena_ = arena; }

  SimTime cursor() const { return cursor_; }

 private:
  // The rate multiplier at `since_start`: the last surge window covering
  // it wins; 1.0 outside every window.
  double SurgeFactorAt(Duration since_start) const;

  FleetParams base_;
  uint32_t num_clients_;
  // Blockwise wrappers over the forked streams: identical draw sequences
  // to the scalar Rng they own, amortised refills. Each stream is private
  // to one draw site, so buffering cannot reorder anything observable.
  RngBlock arrival_rng_;
  RngBlock key_rng_;
  RngBlock client_rng_;
  ZipfGenerator zipf_;
  SimTime start_;
  SimTime cursor_;
  TickArena* arena_ = nullptr;
  std::vector<double> u_scratch_;  // fallback when no arena is attached
  bool exhausted_ = false;
};

}  // namespace fst

#endif  // SRC_CLUSTER_FLEET_ARRIVALS_H_
