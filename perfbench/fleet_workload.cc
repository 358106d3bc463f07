// fleet_1m: the ROADMAP headline serving cell, single-threaded.
//
// 1,000,000 columnar clients against 100 nodes at 50k ops/s for 60
// simulated seconds: open-loop Poisson, read-only, Zipf 1.1 over 2^20 keys,
// node 0 at a 2x slow factor, telemetry and recovery off. The cell is built
// exactly as `examples/fleet_scale cell` builds it, so at seed 3 it must
// reproduce that CLI's pinned digests; the workload seed replaces the
// simulator seed for the measured passes.
//
// Every pass rebuilds and reruns the same seeded cell: setup is the cell's
// construction, wall/cpu its run. Passes must agree on every exact count.
// The traced run adds replays of single layers over the cell's own
// generated arrivals: ArrivalGenerator::FillWindow (the whole stream, which
// must match the cell's issued-op count), then ShardMap::ReplicasFor +
// ReplicaSelector::RankInto, Switch::Send and Node::Compute on a prefix of
// it, each driven in arrival-time order.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/cluster/fleet/fleet.h"
#include "src/cluster/selector.h"
#include "src/cluster/shard_map.h"
#include "src/core/policy.h"
#include "src/devices/modulators.h"
#include "src/devices/network.h"
#include "src/devices/node.h"
#include "src/simcore/simulator.h"

namespace perfbench {
namespace {

// The pinned cell of examples/fleet_scale is seed 3.
constexpr uint64_t kPinnedSeed = 3;
constexpr size_t kReplayWindow = 4096;
// A pass runs the cell in this many slices of simulated time with a host
// speed probe between slices, so the probes sample the host throughout a
// multi-second run rather than only at its ends.
constexpr int kRunSlices = 5;

struct FleetSpec {
  uint32_t clients = 1000000;
  int nodes = 100;
  double lambda = 50000.0;
  double seconds = 60.0;
  size_t replay_ops = 200000;  // prefix the device/route replays drive
};

FleetSpec SpecFor(const Options& opt) {
  FleetSpec s;
  if (opt.small) {
    s.clients = 20000;
    s.nodes = 10;
    s.lambda = 5000.0;
    s.seconds = 4.0;
    s.replay_ops = 20000;
  }
  return s;
}

fst::ClusterParams CellClusterParams(const FleetSpec& s) {
  fst::ClusterParams cp;
  cp.nodes = s.nodes;
  cp.shard.replication = s.nodes >= 3 ? 3 : 2;
  cp.node.cpu_rate = 1e6;
  // 1000 work units at 1e6/s: 100 nodes x 1k ops/s against 50k/s offered.
  cp.read_work = 1000.0;
  cp.admission.max_outstanding_per_node = 24;
  cp.slo_deadline = fst::Duration::Millis(300);
  cp.route = fst::RouteMode::kQueueWeighted;
  return cp;
}

fst::FleetParams CellFleetParams(const FleetSpec& s) {
  fst::FleetParams fp;
  fp.arrivals_per_sec = s.lambda;
  fp.run_for = fst::Duration::Seconds(s.seconds);
  fp.read_fraction = 1.0;
  fp.zipf_s = 1.1;
  fp.key_space = 1 << 20;
  return fp;
}

// Simulator + service (+ the fleet, when `with_fleet`), constructed in
// fleet_scale's order so every forked RNG stream matches the CLI's cell.
struct Cell {
  Cell(const FleetSpec& s, uint64_t seed, bool with_fleet)
      : sim(seed),
        svc(sim, CellClusterParams(s),
            std::make_unique<fst::ProportionalSharePolicy>(8.0)) {
    svc.node(0)->AttachModulator(
        std::make_shared<fst::ConstantFactorModulator>(2.0));
    if (with_fleet) {
      fst::ColumnarFleetParams cfp;
      cfp.base = CellFleetParams(s);
      cfp.num_clients = s.clients;
      fleet = std::make_unique<fst::ColumnarFleet>(sim, cfp);
    }
  }
  fst::Simulator sim;
  fst::KvService svc;
  std::unique_ptr<fst::ColumnarFleet> fleet;
};

struct CellOut {
  fst::FleetResult fleet;
  bool finished = false;
  uint64_t fire_digest = 0;
  uint64_t client_digest = 0;
  uint64_t events = 0;
  double goodput_per_s = 0.0;
  double p99_ms = 0.0;
  int64_t latency_samples = 0;
  int64_t arrivals = 0;
  int64_t terminal = 0;
  int64_t shed = 0;
  int64_t rejects = 0;
  int64_t msgs = 0;
  int64_t bytes = 0;
  double tasks = 0.0;
  double busy_frac_max = 0.0;
  size_t in_flight = 0;
  size_t pending = 0;
};

// Builds and runs one cell; host times land in `pass` (with `probes`, host
// speed probes run between the slices, outside the timed run), spans in
// `spans` when traced.
CellOut RunCell(const FleetSpec& s, uint64_t seed, ProbedParts* probes,
                Pass& pass, Spans* spans) {
  CellOut out;
  const uint64_t root = spans != nullptr ? spans->Reserve() : 0;
  const double t0 = WallNow();
  Cell cell(s, seed, /*with_fleet=*/true);
  const double t1 = WallNow();
  double cpu_s = 0.0;
  double run_s = 0.0;
  double c0 = CpuNow();
  cell.fleet->Run(cell.svc, [&out](const fst::FleetResult& r) {
    out.fleet = r;
    out.finished = true;
  });
  const double t2 = WallNow();
  double part_s = t2 - t1;  // the first window's issue joins the first slice
  cpu_s += CpuNow() - c0;
  // RunUntil fires exactly the events Run would, in the same order (the
  // pinned gate's fire digest proves it); only host probes sit between.
  const fst::Duration slice = fst::Duration::Seconds(s.seconds / kRunSlices);
  for (fst::SimTime until = cell.sim.Now() + slice;; until = until + slice) {
    const double a = WallNow();
    c0 = CpuNow();
    const uint64_t fired = cell.sim.RunUntil(until);
    const double b = WallNow();
    cpu_s += CpuNow() - c0;
    part_s += b - a;
    run_s += part_s;
    out.events += fired;
    if (spans != nullptr) {
      spans->Add("simcore.run", a, b, static_cast<int64_t>(fired), root);
    }
    if (probes != nullptr) {
      probes->Part(part_s);
    }
    part_s = 0.0;
    if (cell.sim.pending_events() == 0) {
      break;
    }
  }
  const double t3 = WallNow();
  pass.cpu_s = cpu_s;
  pass.setup_s = t1 - t0;
  pass.wall_s = run_s;
  if (spans != nullptr) {
    spans->Add("cluster.fleet.build", t0, t1, 1, root);
    spans->Add("cluster.fleet.run", t1, t2, 1, root);
    spans->AddWithId(root, "cell", t0, t3, 1);
  }

  fst::KvService& svc = cell.svc;
  const fst::SloTracker& slo = svc.slo();
  const fst::Duration run_for = fst::Duration::Seconds(s.seconds);
  out.fire_digest = cell.sim.fire_digest();
  out.client_digest = cell.fleet->ClientDigest();
  out.goodput_per_s = slo.GoodputPerSec(run_for);
  out.p99_ms = slo.P99Ms();
  out.latency_samples = static_cast<int64_t>(slo.latency().count());
  out.arrivals = slo.arrivals();
  out.terminal = slo.acks() + slo.shed() + slo.errors();
  out.shed = slo.shed();
  out.rejects = svc.admission().rejected();
  out.msgs = static_cast<int64_t>(svc.network().delivery_latency().count());
  out.bytes = svc.network().total_delivered_bytes();
  // Simulated busy share: completed tasks x per-task service time (the
  // modulators are constant, so the estimate is exact) over the run span.
  const double span_s = cell.sim.Now().ToSeconds();
  for (int i = 0; i < s.nodes; ++i) {
    fst::Node* n = svc.node(i);
    out.tasks += n->tasks_completed();
    const double service_s =
        n->EstimateComputeTime(svc.params().read_work, cell.sim.Now())
            .ToSeconds();
    if (span_s > 0.0) {
      out.busy_frac_max = std::max(
          out.busy_frac_max, n->tasks_completed() * service_s / span_s);
    }
  }
  out.in_flight = svc.in_flight_ops();
  out.pending = svc.pending_completions();
  return out;
}

// Conservation checks every cell must pass, whatever its seed.
void CheckCell(const CellOut& c, const std::string& what, Report& rep) {
  ++rep.attempted;
  std::string bad;
  if (!c.finished) {
    bad = "fleet never resolved";
  } else if (c.fleet.ops_issued != c.fleet.ops_ok + c.fleet.ops_failed) {
    bad = "issued != ok + failed";
  } else if (c.arrivals != c.fleet.ops_issued ||
             c.terminal != c.fleet.ops_issued) {
    bad = "SLO arrivals/terminal outcomes != issued ops";
  } else if (c.in_flight != 0 || c.pending != 0) {
    bad = "ops still in flight after the run drained";
  } else if (c.fleet.ops_issued <= 0) {
    bad = "no ops issued";
  }
  if (!bad.empty()) {
    rep.Fail(what + ": " + bad);
  }
}

bool SameCell(const CellOut& a, const CellOut& b) {
  return a.fire_digest == b.fire_digest &&
         a.client_digest == b.client_digest && a.events == b.events &&
         a.fleet.ops_issued == b.fleet.ops_issued &&
         a.fleet.ops_ok == b.fleet.ops_ok;
}

// Generated arrivals of the cell at `seed`: the first `keep` are kept for
// the device replays, all of them are counted, the first window digested.
struct Arrivals {
  std::vector<fst::SimTime> at;
  std::vector<uint64_t> key;
  int64_t total = 0;
  uint64_t first_window_digest = 14695981039346656037ull;
};

Arrivals ReplayArrivals(const FleetSpec& s, uint64_t seed, size_t keep,
                        bool whole_stream, Spans* spans) {
  Cell cell(s, seed, /*with_fleet=*/false);
  const fst::FleetParams fp = CellFleetParams(s);
  fst::ArrivalGenerator gen(cell.sim, fp, fst::ArrivalMode::kPoisson, {},
                            s.clients);
  const fst::SimTime horizon = cell.sim.Now() + fp.run_for;
  Arrivals a;
  fst::ArrivalBatch batch;
  bool more = true;
  bool first = true;
  while (more) {
    const double t0 = WallNow();
    more = gen.FillWindow(batch, kReplayWindow, horizon);
    const double t1 = WallNow();
    if (spans != nullptr) {
      spans->Add("cluster.fleet.fill_window", t0, t1,
                 static_cast<int64_t>(batch.size()));
    }
    a.total += static_cast<int64_t>(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (first) {
        a.first_window_digest = FnvMix(
            FnvMix(a.first_window_digest,
                   static_cast<uint64_t>(batch.at[i].nanos())),
            batch.key[i] ^ (static_cast<uint64_t>(batch.client[i]) << 40));
      }
      if (a.at.size() < keep) {
        a.at.push_back(batch.at[i]);
        a.key.push_back(batch.key[i]);
      }
    }
    first = false;
    if (!whole_stream) {
      break;
    }
  }
  return a;
}

// Routes each kept arrival to its top-ranked replica.
std::vector<int> ReplayRouting(const FleetSpec& s, uint64_t seed,
                               const Arrivals& a, Spans& spans) {
  const fst::ClusterParams cp = CellClusterParams(s);
  fst::ShardMap map(cp.nodes, cp.shard);
  fst::ReplicaSelector sel(cp.route, cp.nodes, fst::Rng(seed));
  // A bounded synthetic queue depth per node: each pick deepens the chosen
  // node's queue, wrapping at the admission cap, so ranking sees varying
  // depths the way the live cell does.
  std::vector<int> depth(static_cast<size_t>(cp.nodes), 0);
  const int cap = cp.admission.max_outstanding_per_node;
  const fst::ReplicaSelector::DepthFn depth_fn = [&depth](int node) {
    return depth[static_cast<size_t>(node)];
  };
  std::vector<int> replicas;
  std::vector<int> ranked;
  std::vector<int> primary(a.key.size(), 0);
  for (size_t lo = 0; lo < a.key.size(); lo += kReplayWindow) {
    const size_t hi = std::min(a.key.size(), lo + kReplayWindow);
    const double t0 = WallNow();
    for (size_t i = lo; i < hi; ++i) {
      map.ReplicasFor(a.key[i], replicas);
      sel.RankInto(replicas, depth_fn, ranked);
      const int p = ranked.empty() ? replicas.front() : ranked.front();
      primary[i] = p;
      int& d = depth[static_cast<size_t>(p)];
      d = d + 1 >= cap ? 0 : d + 1;
    }
    spans.Add("cluster.route", t0, WallNow(), static_cast<int64_t>(hi - lo));
  }
  return primary;
}

// Drives `issue(i)` for every kept arrival at its arrival time on `sim`,
// then drains `sim`; one span per window of arrivals.
template <typename IssueFn>
void ReplayInArrivalOrder(fst::Simulator& sim, const Arrivals& a,
                          const std::string& span_name, Spans& spans,
                          IssueFn issue) {
  for (size_t lo = 0; lo < a.at.size(); lo += kReplayWindow) {
    const size_t hi = std::min(a.at.size(), lo + kReplayWindow);
    const double t0 = WallNow();
    for (size_t i = lo; i < hi; ++i) {
      sim.RunUntil(a.at[i]);
      issue(i);
    }
    if (hi == a.at.size()) {
      sim.Run();
    }
    spans.Add(span_name, t0, WallNow(), static_cast<int64_t>(hi - lo));
  }
}

// Client-port -> replica request messages through one Switch.
int64_t ReplaySwitch(const FleetSpec& s, uint64_t seed, const Arrivals& a,
                     const std::vector<int>& primary, Spans& spans) {
  const fst::ClusterParams cp = CellClusterParams(s);
  fst::Simulator sim(seed);
  fst::SwitchParams sp = cp.net;
  sp.ports = std::max(sp.ports, cp.nodes + 1);
  fst::Switch sw(sim, sp);
  int64_t delivered = 0;
  ReplayInArrivalOrder(sim, a, "devices.network.send", spans, [&](size_t i) {
    fst::NetMessage m;
    m.src = cp.nodes;
    m.dst = primary[i];
    m.bytes = cp.request_bytes;
    m.done = [&delivered](fst::SimTime) { ++delivered; };
    sw.Send(std::move(m));
  });
  return delivered;
}

// The same ops' compute on the cell's node models (node 0 slowed 2x).
int64_t ReplayNodes(const FleetSpec& s, uint64_t seed, const Arrivals& a,
                    const std::vector<int>& primary, Spans& spans) {
  const fst::ClusterParams cp = CellClusterParams(s);
  fst::Simulator sim(seed);
  std::vector<std::unique_ptr<fst::Node>> nodes;
  for (int i = 0; i < cp.nodes; ++i) {
    nodes.push_back(std::make_unique<fst::Node>(sim, "node" + std::to_string(i),
                                                cp.node));
  }
  nodes[0]->AttachModulator(
      std::make_shared<fst::ConstantFactorModulator>(2.0));
  int64_t completed = 0;
  ReplayInArrivalOrder(sim, a, "devices.node.compute", spans, [&](size_t i) {
    nodes[static_cast<size_t>(primary[i])]->Compute(
        cp.read_work,
        [&completed](const fst::IoResult& r) { completed += r.ok ? 1 : 0; });
  });
  return completed;
}

}  // namespace

void RunFleet1m(const Options& opt, Report& rep, Spans& spans) {
  const FleetSpec s = SpecFor(opt);

  // The pinned gate: fleet_scale's own cell, before any number counts.
  if (!opt.small) {
    Pass ignored;
    const CellOut g = RunCell(s, kPinnedSeed, nullptr, ignored, nullptr);
    CheckCell(g, "pinned cell", rep);
    rep.gate.Str("fire_digest", Hex(g.fire_digest))
        .Str("client_digest", Hex(g.client_digest))
        .Int("events", static_cast<int64_t>(g.events));
  }

  rep.inputs_digest =
      ReplayArrivals(s, opt.seed, 0, /*whole_stream=*/false, nullptr)
          .first_window_digest;

  CellOut first;
  bool have_first = false;
  MeasurePasses(opt, rep, 1, 3, 12, [&](bool traced, ProbedParts& probes) {
    Pass p;
    p.traced = traced;
    // Two setup-only builds beside the pass's own (destruction untimed):
    // setup_s is the median of the three.
    std::vector<double> builds;
    for (int i = 0; i < 2; ++i) {
      const double t0 = WallNow();
      auto cell = std::make_unique<Cell>(s, opt.seed, /*with_fleet=*/true);
      builds.push_back(WallNow() - t0);
    }
    const CellOut c =
        RunCell(s, opt.seed, &probes, p, traced ? &spans : nullptr);
    builds.push_back(p.setup_s);
    p.setup_s = Median(builds);
    CheckCell(c, "seed " + std::to_string(opt.seed), rep);
    if (!have_first) {
      first = c;
      have_first = true;
    } else if (!SameCell(first, c)) {
      rep.Fail("pass diverged from the first pass on the same seed");
    }
    return p;
  });

  const double ops =
      static_cast<double>(std::max<int64_t>(1, first.fleet.ops_issued));
  rep.det.Int("ops", first.fleet.ops_issued)
      .Int("ops_ok", first.fleet.ops_ok)
      .Int("events", static_cast<int64_t>(first.events))
      .Str("fire_digest", Hex(first.fire_digest))
      .Str("client_digest", Hex(first.client_digest))
      .Num("events_per_op", static_cast<double>(first.events) / ops)
      .Num("sim_goodput_per_s", first.goodput_per_s)
      .Num("sim_p99_ms", first.p99_ms)
      .Int("sim_p99_samples", first.latency_samples)
      .Num("sim_failed_frac", static_cast<double>(first.shed) / ops)
      .Num("admission_rejects_per_op", static_cast<double>(first.rejects) / ops)
      .Num("network_msgs_per_op", static_cast<double>(first.msgs) / ops)
      .Num("network_bytes_per_op", static_cast<double>(first.bytes) / ops)
      .Num("node_tasks_per_op", first.tasks / ops)
      .Num("node_busy_frac_max", first.busy_frac_max);

  if (!opt.trace) {
    return;
  }
  const Arrivals a =
      ReplayArrivals(s, opt.seed, s.replay_ops, /*whole_stream=*/true, &spans);
  if (a.total != first.fleet.ops_issued) {
    rep.Fail("FillWindow replay produced " + std::to_string(a.total) +
             " arrivals, the cell issued " +
             std::to_string(first.fleet.ops_issued));
  }
  const std::vector<int> primary = ReplayRouting(s, opt.seed, a, spans);
  const int64_t delivered = ReplaySwitch(s, opt.seed, a, primary, spans);
  const int64_t computed = ReplayNodes(s, opt.seed, a, primary, spans);
  if (delivered != static_cast<int64_t>(a.at.size()) ||
      computed != static_cast<int64_t>(a.at.size())) {
    rep.Fail("device replay lost messages or tasks");
  }
  rep.host.Num("simcore_run_ns_per_event", spans.NsPerItem("simcore.run"))
      .Num("arrival_ns", spans.NsPerItem("cluster.fleet.fill_window"))
      .Num("route_ns", spans.NsPerItem("cluster.route"))
      .Num("send_ns", spans.NsPerItem("devices.network.send"))
      .Num("compute_ns", spans.NsPerItem("devices.node.compute"));
}

}  // namespace perfbench
