#include "src/cluster/fleet/arrivals.h"

#include <cmath>
#include <stdexcept>

namespace fst {

void ValidateFleetParams(const FleetParams& params) {
  if (!(params.arrivals_per_sec > 0.0) ||
      !std::isfinite(params.arrivals_per_sec)) {
    throw std::invalid_argument(
        "FleetParams.arrivals_per_sec must be positive and finite");
  }
  if (params.run_for < Duration::Zero()) {
    throw std::invalid_argument("FleetParams.run_for must be >= 0");
  }
  if (!(params.read_fraction >= 0.0 && params.read_fraction <= 1.0)) {
    throw std::invalid_argument(
        "FleetParams.read_fraction must be in [0, 1]");
  }
  if (params.key_space < 1) {
    throw std::invalid_argument("FleetParams.key_space must be >= 1");
  }
  if (!std::isfinite(params.zipf_s)) {
    throw std::invalid_argument("FleetParams.zipf_s must be finite");
  }
  for (const ArrivalSurge& s : params.surges) {
    if (!(s.factor > 0.0) || !std::isfinite(s.factor)) {
      throw std::invalid_argument(
          "ArrivalSurge.factor must be positive and finite");
    }
    if (s.at < Duration::Zero() || s.duration < Duration::Zero()) {
      throw std::invalid_argument("ArrivalSurge times must be >= 0");
    }
  }
}

ArrivalGenerator::ArrivalGenerator(Simulator& sim, const FleetParams& base,
                                   uint32_t num_clients)
    : base_(base), num_clients_(num_clients),
      arrival_rng_(sim.rng().Fork()), key_rng_(sim.rng().Fork()),
      // Forked last and only on demand, so anonymous generators consume
      // exactly two forks from the root stream.
      client_rng_(num_clients > 0 ? sim.rng().Fork() : Rng(0)),
      zipf_(base_.key_space, base_.zipf_s > 0.0 ? base_.zipf_s : 0.0),
      start_(sim.Now()), cursor_(sim.Now()) {}

void ArrivalGenerator::Start(SimTime start) {
  start_ = start;
  cursor_ = start;
}

double ArrivalGenerator::SurgeFactorAt(Duration since_start) const {
  // Piecewise-constant offered rate, sampled when each gap is drawn (at the
  // previous arrival): windows are short relative to the run, so the edge
  // error is one inter-arrival gap.
  double factor = 1.0;
  for (const ArrivalSurge& s : base_.surges) {
    if (since_start >= s.at && since_start < s.at + s.duration) {
      factor = s.factor;
    }
  }
  return factor;
}

bool ArrivalGenerator::FillWindow(ArrivalBatch& batch, size_t max,
                                  SimTime horizon) {
  batch.Clear();
  if (exhausted_) {
    return false;
  }
  // Stage 1: arrival times only — the arrival stream's draws, one gap per
  // arrival. Outside every surge the factor is exactly 1.0, so the mean gap
  // is the base one bit for bit; with no surges it is hoisted.
  const bool surged = !base_.surges.empty();
  const double base_mean_gap = 1.0 / base_.arrivals_per_sec;
  while (batch.at.size() < max) {
    const double mean_gap =
        surged ? 1.0 / (base_.arrivals_per_sec *
                        SurgeFactorAt(cursor_ - start_))
               : base_mean_gap;
    const SimTime t =
        cursor_ + Duration::Seconds(arrival_rng_.Exponential(mean_gap));
    if (t > horizon) {
      // The crossing gap is consumed, matching the per-event scheduler.
      exhausted_ = true;
      break;
    }
    cursor_ = t;
    batch.at.push_back(t);
  }
  // Stage 2: per-arrival key + op-kind coin off the key stream. Per
  // arrival the draw order is two uniforms — the Zipf inversion point,
  // then the coin — so bulk-filling 2n uniforms off the key block
  // reproduces the stream verbatim. Splitting draw from table walk lets
  // the Zipf lookups software-pipeline: prefetch the guide row ~16
  // arrivals ahead and the cdf midpoint ~8 ahead, both from already-known
  // inversion points, hiding the 8 MB cdf's cache misses.
  const size_t n = batch.at.size();
  batch.key.reserve(n);
  batch.is_read.reserve(n);
  double* u = nullptr;
  if (arena_ != nullptr) {
    u = arena_->AllocateArray<double>(2 * n);
  } else {
    u_scratch_.resize(2 * n);
    u = u_scratch_.data();
  }
  key_rng_.FillUniform(u, 2 * n);
  for (size_t i = 0; i < n; ++i) {
    if (i + 16 < n) {
      zipf_.PrefetchFar(u[2 * (i + 16)]);
    }
    if (i + 8 < n) {
      zipf_.PrefetchNear(u[2 * (i + 8)]);
    }
    batch.key.push_back(static_cast<uint64_t>(zipf_.SampleAt(u[2 * i])));
    batch.is_read.push_back(u[2 * i + 1] < base_.read_fraction ? 1 : 0);
  }
  // Stage 3: issuing client ids from their own stream (order across streams
  // is free, so this stage cannot perturb stages 1-2).
  batch.client.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.client.push_back(
        num_clients_ > 0
            ? static_cast<uint32_t>(client_rng_.UniformInt(
                  0, static_cast<int64_t>(num_clients_) - 1))
            : 0);
  }
  return !exhausted_;
}

}  // namespace fst
