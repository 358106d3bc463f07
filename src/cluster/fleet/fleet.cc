#include "src/cluster/fleet/fleet.h"

#include <stdexcept>
#include <utility>

namespace fst {

namespace {

// Drain-tick cadence once arrivals end: bounds how long after the last
// completion a run with a `done` callback resolves.
constexpr Duration kDrainEvery = Duration::Millis(10);

ColumnarFleetParams Validate(ColumnarFleetParams p) {
  ValidateFleetParams(p.base);
  if (p.window < 1) {
    throw std::invalid_argument("ColumnarFleetParams.window must be >= 1");
  }
  return p;
}

}  // namespace

ColumnarFleet::ColumnarFleet(Simulator& sim, ColumnarFleetParams params)
    : sim_(sim), params_(Validate(std::move(params))),
      gen_(sim, params_.base, params_.num_clients), seq_(sim) {
  if (params_.num_clients > 0) {
    tallies_.resize(params_.num_clients);
  }
  gen_.AttachArena(&arena_);
  seq_.AttachArena(&arena_);
}

void ColumnarFleet::Run(KvService& service,
                        std::function<void(const FleetResult&)> done) {
  service_ = &service;
  done_ = std::move(done);
  gen_.Start(sim_.Now());
  horizon_ = sim_.Now() + params_.base.run_for;
  seq_.Start(&batch_.at, [this](size_t i) { IssueAt(i); },
             [this] { return Refill(); });
}

size_t ColumnarFleet::Refill() {
  gen_.FillWindow(batch_, params_.window, horizon_);
  if (batch_.size() == 0) {
    TailTick();
    return 0;
  }
  return batch_.size();
}

void ColumnarFleet::IssueAt(size_t i) {
  ++result_.ops_issued;
  ++pending_;
  const uint64_t key = batch_.key[i];
  const uint32_t client = batch_.client[i];
  if (!tallies_.empty()) {
    // A million-client tally array is a guaranteed cache miss per op; the
    // next window entries' client ids are already columnar, so start their
    // tally lines toward the core while this op dispatches.
    if (i + 1 < batch_.client.size()) {
      __builtin_prefetch(&tallies_[batch_.client[i + 1]], 1);
    }
    if (i + 2 < batch_.client.size()) {
      __builtin_prefetch(&tallies_[batch_.client[i + 2]], 1);
    }
    ++tallies_[client].issued;
  }
  if (i + 1 < batch_.key.size()) {
    service_->PrefetchRoute(batch_.key[i + 1]);
  }
  // Two words of capture: fits std::function's local buffer, so issuing
  // an op allocates nothing.
  auto complete = [this, client](const IoResult& r) {
    if (r.ok) {
      ++result_.ops_ok;
    } else {
      ++result_.ops_failed;
    }
    if (!tallies_.empty()) {
      ClientTally& t = tallies_[client];
      if (r.ok) {
        ++t.ok;
      } else {
        ++t.failed;
      }
    }
    --pending_;
  };
  if (batch_.is_read[i] != 0) {
    ++result_.reads_issued;
    service_->Get(key, complete);
  } else {
    ++result_.writes_issued;
    service_->Put(key, complete);
  }
}

void ColumnarFleet::TailTick() {
  // The drain tick exists only to resolve `done`: without one, the run
  // schedules nothing after its last arrival.
  if (!done_) {
    return;
  }
  if (pending_ > 0) {
    sim_.Schedule(kDrainEvery, [this] { TailTick(); });
    return;
  }
  auto cb = std::move(done_);
  done_ = nullptr;
  cb(result_);
}

uint64_t ColumnarFleet::ClientDigest() const {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto fold = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const ClientTally& t : tallies_) {
    fold(static_cast<uint64_t>(t.issued));
    fold(static_cast<uint64_t>(t.ok));
    fold(static_cast<uint64_t>(t.failed));
  }
  return h;
}

}  // namespace fst
