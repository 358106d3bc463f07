// Streaming statistics primitives for the online telemetry plane.
//
// The paper's prescription is that a system must maintain *expectations* of
// component performance while it runs, not reconstruct them afterwards.
// These primitives make that cheap enough to do per node, per window,
// inside the simulated cluster:
//
//  * QuantileSketch — a sparse, mergeable log-linear quantile sketch with
//    the same bucket geometry (and therefore the same relative-error
//    bound, 1/2^sub_bucket_bits for values >= 2^sub_bucket_bits) as the
//    dense simcore Histogram, but O(distinct buckets) memory so one can
//    live in every (node, window) cell;
//  * TumblingCounter — amounts bucketed into fixed sim-time-aligned
//    windows [k*W, (k+1)*W), keeping the last K closed windows for
//    rolling rates;
//  * WindowedEwma — an EWMA folded once per *closed* window with the
//    window's sample mean (empty windows leave the value untouched);
//  * WindowedQuantiles — a ring of per-window sketches merged on demand
//    into rolling p50/p95/p99 over the trailing K windows.
//
// Everything is driven by explicit sim-time and owns no RNG, so a run
// instrumented with these is exactly as deterministic as one without.
#ifndef SRC_OBS_LIVE_WINDOW_STATS_H_
#define SRC_OBS_LIVE_WINDOW_STATS_H_

#include <cstdint>
#include <deque>
#include <map>

#include "src/simcore/time.h"

namespace fst {

// Sparse log-linear quantile sketch. Bucket geometry matches Histogram
// (src/simcore/stats.h): values below 2^sub_bucket_bits land in exact
// integer buckets; above that, each power-of-two range is split into
// 2^sub_bucket_bits linear sub-buckets, bounding the relative quantile
// overestimate by 1/2^sub_bucket_bits. Merge() requires equal
// sub_bucket_bits (mismatches are ignored with no effect, never UB).
class QuantileSketch {
 public:
  explicit QuantileSketch(int sub_bucket_bits = 5);

  void Add(double value);
  void AddDuration(Duration d) { Add(static_cast<double>(d.nanos())); }
  void Merge(const QuantileSketch& o);
  void Reset();

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  // Nearest-rank quantile with the Histogram's degenerate semantics:
  // n == 0 returns 0.0, n == 1 returns the sample exactly; otherwise the
  // upper bound of the bucket holding the ceil(q*n)-th value, clamped to
  // [min(), max()].
  double ValueAtQuantile(double q) const;
  double P50() const { return ValueAtQuantile(0.50); }
  double P95() const { return ValueAtQuantile(0.95); }
  double P99() const { return ValueAtQuantile(0.99); }

  // Worst-case relative overestimate of ValueAtQuantile for values at or
  // above 2^sub_bucket_bits (below that, the absolute error is < 1).
  double RelativeErrorBound() const {
    return 1.0 / static_cast<double>(sub_buckets_);
  }

  int sub_bucket_bits() const { return sub_bucket_bits_; }
  size_t distinct_buckets() const { return buckets_.size(); }

 private:
  uint32_t BucketIndex(double value) const;
  double BucketUpperBound(uint32_t index) const;

  int sub_bucket_bits_;
  uint64_t sub_buckets_;
  // Ordered so quantile scans and exports are deterministic.
  std::map<uint32_t, uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Counts (or any additive amount) per tumbling sim-time window. Windows
// are aligned to the absolute grid [k*W, (k+1)*W) so counters on
// different nodes close at identical instants and rows join by window
// start. AdvanceTo(t) closes every window that ends at or before t; a
// sample recorded exactly at a boundary k*W belongs to window k.
class TumblingCounter {
 public:
  TumblingCounter(Duration window, int windows_kept);

  void Record(SimTime now, double amount = 1.0);
  void AdvanceTo(SimTime now);

  struct Window {
    SimTime start;
    double total = 0.0;
    uint64_t samples = 0;
  };

  // Closed windows, oldest first, at most windows_kept. Empty windows in
  // a gap are materialized (total 0) so rolling spans stay contiguous.
  const std::deque<Window>& closed() const { return closed_; }
  double open_total() const { return open_.total; }

  // Sum / per-second rate over the most recent ceil(span/window) *closed*
  // windows. Call AdvanceTo(now) first for an up-to-date view.
  double TotalInLast(Duration span) const;
  double RatePerSecond(Duration span) const;

  Duration window() const { return window_; }

 private:
  int64_t IndexFor(SimTime t) const { return t.nanos() / window_.nanos(); }
  void CloseThrough(int64_t target_index);

  Duration window_;
  size_t keep_;
  int64_t open_index_ = 0;
  bool started_ = false;
  Window open_;
  std::deque<Window> closed_;
};

// An EWMA over per-window sample means: Record() accumulates into the
// open window; when AdvanceTo() closes a non-empty window the EWMA folds
// its mean in (the first non-empty window seeds the value). Windows with
// no samples leave the value untouched — a silent component keeps its
// last expectation rather than decaying toward zero.
class WindowedEwma {
 public:
  WindowedEwma(Duration window, double alpha);

  void Record(SimTime now, double x);
  void AdvanceTo(SimTime now);

  double value() const { return value_; }
  bool seeded() const { return seeded_; }
  uint64_t windows_folded() const { return folded_; }

 private:
  int64_t IndexFor(SimTime t) const { return t.nanos() / window_.nanos(); }
  void CloseThrough(int64_t target_index);

  Duration window_;
  double alpha_;
  int64_t open_index_ = 0;
  bool started_ = false;
  double open_sum_ = 0.0;
  uint64_t open_n_ = 0;
  double value_ = 0.0;
  bool seeded_ = false;
  uint64_t folded_ = 0;
};

// A ring of per-window QuantileSketches: the open window plus the last
// windows_kept closed ones, merged on demand into rolling quantiles over
// the trailing span. Window alignment matches TumblingCounter.
class WindowedQuantiles {
 public:
  WindowedQuantiles(Duration window, int windows_kept, int sub_bucket_bits = 5);

  void Record(SimTime now, double value);
  void AdvanceTo(SimTime now);

  // The most recently closed window's sketch (empty before any close).
  const QuantileSketch& LastClosed() const;
  // Merge of the open window and every kept closed window.
  QuantileSketch Rolling() const;

  Duration window() const { return window_; }

 private:
  int64_t IndexFor(SimTime t) const { return t.nanos() / window_.nanos(); }
  void CloseThrough(int64_t target_index);

  Duration window_;
  size_t keep_;
  int bits_;
  int64_t open_index_ = 0;
  bool started_ = false;
  QuantileSketch open_;
  QuantileSketch empty_;
  std::deque<QuantileSketch> closed_;
};

}  // namespace fst

#endif  // SRC_OBS_LIVE_WINDOW_STATS_H_
