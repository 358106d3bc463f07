#!/usr/bin/env python3
"""The repository benchmark: build the simulator, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: fleet_1m, chaos_control, resilience_grid, raid_sweep (see
perfbench/README.md for what each loads and why it was chosen).

On first use it configures and builds perfbench/ (a CMake project that
compiles ../src in Release with LTO) into $CARGO_TARGET_DIR/perfbench-<key>,
or .bench_build/perfbench-<key> when that is unset, then runs fst_perfbench.
The key is a hash of the checkout's path, so checkouts that share one
CARGO_TARGET_DIR each build their own sources. Every
run first checks the workload's pinned gate (pins.json) and every cell's
own correctness checks; a run whose checks fail prints "correct": false.

With --trace 0 the result carries every end-to-end metric, with --trace 1
every per-layer metric (from the benchmark's own spans around layer
calls) plus the tracing overhead. Human-readable lines, each metric with
its unit and clock, and the host/build fingerprint come first; the last
stdout line is the JSON result. Exit codes: 0 completed run, 2 missing
sources or failed build or run, 3 the binary is not an optimized Release
build (its timings are refused).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("fleet_1m", "chaos_control", "resilience_grid", "raid_sweep")
DEFAULT_THREADS = 2  # sweep workers; pinned so a shared host stays steady
RUN_TIMEOUT_S = 170

# Host timings are scaled to one reference host speed. Before every pass the
# driver times a fixed probe (ProbeSeconds in report.cc: heap and DRAM work
# that shares no code with the simulator) on as many threads as the pass
# keeps busy; a host running slower at that moment shows a longer probe. A
# timing t reported as t * PROBE_REF_S / probe is in seconds at the speed at
# which the probe takes PROBE_REF_S[probe threads] - its median on the
# 4-vCPU Xeon VM that defined this benchmark. Raw timings print beside them.
PROBE_REF_S = {1: 0.105, 2: 0.115}

# name -> (unit, clock). Clocks: host = what running the simulator costs us;
# sim = what the modelled system pays; exact = a deterministic count.
END_TO_END = {
    "setup_s": ("s", "host"),
    "wall_s": ("s", "host"),
    "cpu_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "sim_ops_per_s": ("1/s", "host"),
    "sim_goodput_per_s": ("1/s", "sim"),
}

# End-to-end figures that apply to some workloads only (0 elsewhere). The
# result JSON carries them with the per-layer set; every run prints them.
WORKLOAD_FIGURES = ("events_per_op", "sim_p99_ms", "sim_failed_frac",
                    "paper_err_pct", "error_rate")

PER_LAYER = {
    "simcore.events": ("count", "exact"),
    "simcore.run_ns_per_event": ("ns", "host"),
    "cluster.fleet.arrival_ns": ("ns", "host"),
    "cluster.route_ns": ("ns", "host"),
    "cluster.admission.rejects_per_op": ("1/op", "exact"),
    "cluster.retry.retries_per_op": ("1/op", "exact"),
    "cluster.retry.denied_budget": ("count", "exact"),
    "cluster.recovery.keys_repaired": ("count", "exact"),
    "cluster.recovery.read_misses": ("count", "exact"),
    "devices.network.msgs_per_op": ("1/op", "exact"),
    "devices.network.bytes_per_op": ("B/op", "exact"),
    "devices.network.send_ns": ("ns", "host"),
    "devices.node.compute_ns": ("ns", "host"),
    "devices.node.tasks_per_op": ("1/op", "exact"),
    "devices.node.busy_frac_max": ("fraction", "sim"),
    "devices.disk.requests": ("count", "exact"),
    "obs.live.observe_ns": ("ns", "host"),
    "obs.correlate_ms": ("ms", "host"),
    "obs.gray_spans": ("count", "exact"),
    "consensus.entries_committed": ("count", "exact"),
    "consensus.elections": ("count", "exact"),
    "consensus.false_failovers": ("count", "exact"),
    "consensus.reconfig_mean_ms": ("ms", "sim"),
    "consensus.propose_commit_ns": ("ns", "host"),
    "chaos.scenario_us": ("us", "host"),
    "resilience.collapsed_cells": ("count", "exact"),
    "resilience.ckpt_serial_ms": ("ms", "host"),
    "harness.cell_ms_p50": ("ms", "host"),
    "harness.cell_ms_p90": ("ms", "host"),
    "harness.cell_samples": ("count", "exact"),
    "harness.parallel_eff": ("fraction", "host"),
    "trace.overhead_pct": ("%", "host"),
    "events_per_op": ("1/op", "exact"),
    "sim_p99_ms": ("ms", "sim"),
    "sim_failed_frac": ("fraction", "sim"),
    "paper_err_pct": ("%", "sim"),
    "error_rate": ("fraction", "exact"),
}


class BenchError(Exception):
    """A missing source tree, failed build or failed run (exit 2)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    """This checkout's build tree: a CMake cache names one source tree."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    key = hashlib.sha256(os.path.realpath(HERE).encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + key)


def _cmake(args):
    return subprocess.run(["cmake"] + args, stdout=sys.stderr,
                          stderr=sys.stderr, check=False).returncode == 0


def build():
    """Configures (once) and incrementally builds fst_perfbench."""
    if not os.path.isfile(os.path.join(ROOT, "src", "simcore",
                                       "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for attempt in range(2):
        configured = os.path.isfile(os.path.join(out, "CMakeCache.txt"))
        ok = configured or _cmake(["-S", HERE, "-B", out,
                                   "-DCMAKE_BUILD_TYPE=Release"] + gen)
        ok = ok and _cmake(["--build", out, "-j", jobs])
        if ok:
            return os.path.join(out, "fst_perfbench")
        if attempt == 0 and configured:
            # A stale or broken cache: start clean once.
            shutil.rmtree(out, ignore_errors=True)
    raise BenchError("build failed")


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {"nproc": nproc, "cpu": cpu, "machine": platform.machine()}


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, threads, small):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--threads", str(threads)]
    if small:
        cmd.append("--small")
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir,
                                        f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: run exceeded {RUN_TIMEOUT_S}s")
    if proc.returncode == 3:
        raise SystemExit(3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: fst_perfbench exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def summarize(raw, pins):
    """Raw driver samples -> (correct, attempted, failed, e2e, layer, notes)."""
    workload = raw["workload"]
    failures = list(raw["failures"])
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    if not raw["small"]:
        attempted += 1
        for key, want in pins[workload].items():
            got = raw["gate"].get(key)
            if str(got) != str(want):
                failed += 1
                failures.append(f"pinned gate: {key}={got}, pinned {want}")
                break

    if not raw["pass_wall_s"]:
        raise BenchError(f"{workload}: no pass completed: {failures}")
    traced = [bool(t) for t in raw["pass_traced"]]
    ref = PROBE_REF_S[raw["probe_threads"]]
    scale = [ref / p for p in raw["pass_probe_s"]]
    passes = list(zip(raw["pass_wall_s"], raw["pass_cpu_s"], scale, traced))
    untraced_wall = [w * k for w, _, k, t in passes if not t]
    traced_wall = [w * k for w, _, k, t in passes if t]
    untraced_cpu = [c * k for _, c, k, t in passes if not t]
    setups = [u * k for u, k in zip(raw["pass_setup_s"], scale)]
    run_scale = ref / stats.median(raw["pass_probe_s"])
    det, host = raw["det"], raw["host"]
    wall = stats.median(untraced_wall)

    e2e = {
        "setup_s": stats.median(setups),
        "wall_s": wall,
        "cpu_s": stats.median(untraced_cpu),
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_ops_per_s": det.get("ops", 0) / wall if wall > 0 else 0.0,
        "sim_goodput_per_s": det.get("sim_goodput_per_s", 0.0),
    }

    cell_ms = raw["cell_ms"]
    tail_p, _, n_cells = stats.tail(cell_ms)
    overhead = 0.0
    if untraced_wall and traced_wall:
        overhead = 100.0 * (stats.median(traced_wall) - wall) / wall
    layer = {
        "simcore.events": det.get("events", 0),
        "simcore.run_ns_per_event": host.get("simcore_run_ns_per_event", 0.0),
        "cluster.fleet.arrival_ns": host.get("arrival_ns", 0.0),
        "cluster.route_ns": host.get("route_ns", 0.0),
        "cluster.admission.rejects_per_op":
            det.get("admission_rejects_per_op", 0.0),
        "cluster.retry.retries_per_op": det.get("retries_per_op", 0.0),
        "cluster.retry.denied_budget": det.get("denied_budget", 0),
        "cluster.recovery.keys_repaired": det.get("keys_repaired", 0),
        "cluster.recovery.read_misses": det.get("read_misses", 0),
        "devices.network.msgs_per_op": det.get("network_msgs_per_op", 0.0),
        "devices.network.bytes_per_op": det.get("network_bytes_per_op", 0.0),
        "devices.network.send_ns": host.get("send_ns", 0.0),
        "devices.node.compute_ns": host.get("compute_ns", 0.0),
        "devices.node.tasks_per_op": det.get("node_tasks_per_op", 0.0),
        "devices.node.busy_frac_max": det.get("node_busy_frac_max", 0.0),
        "devices.disk.requests": det.get("disk_requests", 0),
        "obs.live.observe_ns": host.get("observe_ns", 0.0),
        "obs.correlate_ms": host.get("correlate_ms", 0.0),
        "obs.gray_spans": det.get("obs_gray_spans", 0),
        "consensus.entries_committed": det.get("entries_committed", 0),
        "consensus.elections": det.get("elections", 0),
        "consensus.false_failovers": det.get("false_failovers", 0),
        "consensus.reconfig_mean_ms": det.get("reconfig_mean_ms", 0.0),
        "consensus.propose_commit_ns": host.get("propose_commit_ns", 0.0),
        "chaos.scenario_us": host.get("scenario_us", 0.0),
        "resilience.collapsed_cells": det.get("collapsed_cells", 0),
        "resilience.ckpt_serial_ms": host.get("ckpt_serial_ms", 0.0),
        "harness.cell_ms_p50":
            stats.percentile(cell_ms, 50) if tail_p is not None else 0.0,
        "harness.cell_ms_p90":
            stats.percentile(cell_ms, 90) if (tail_p or 0) >= 90 else 0.0,
        "harness.cell_samples": n_cells,
        "harness.parallel_eff": host.get("parallel_eff", 0.0),
        "trace.overhead_pct": overhead,
        "events_per_op": det.get("events_per_op", 0.0),
        "sim_p99_ms": det.get("sim_p99_ms", 0.0),
        "sim_failed_frac": det.get("sim_failed_frac", 0.0),
        "paper_err_pct": det.get("paper_err_pct", 0.0),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    notes = {
        "harness.cell_ms": f"highest percentile with >= {stats.MIN_BEYOND} "
                           f"samples beyond it: "
                           f"{'p%g' % tail_p if tail_p else 'none'} "
                           f"(n={n_cells})",
        "sim_p99_ms": f"n={det.get('sim_p99_samples', 0)} simulated acks",
        "passes": f"{len(untraced_wall)} untraced + {len(traced_wall)} "
                  f"traced passes",
        "host speed": f"probe median {stats.median(raw['pass_probe_s']):.4f}s "
                      f"(reference {ref}s); unscaled wall_s "
                      f"{wall / run_scale:.4f}s, setup_s "
                      f"{stats.median(raw['pass_setup_s']):.6f}s",
    }
    correct = failed == 0 and attempted >= 1
    return correct, attempted, failed, failures, e2e, layer, notes


def print_table(title, values, units):
    print(title)
    for name, value in values.items():
        unit, clock = units[name]
        print(f"  {name:34s} {value:>16.6g} {unit:8s} [{clock}]")


def run_one(binary, args, pins, fingerprint):
    raw = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace, DEFAULT_THREADS, args.small)
    correct, attempted, failed, failures, e2e, layer, notes = summarize(
        raw, pins)
    print(f"workload {args.workload} seed={args.seed} "
          f"trace={int(args.trace)} threads={DEFAULT_THREADS}")
    print("fingerprint " + json.dumps(dict(
        fingerprint, **raw["build"], sweep_threads=DEFAULT_THREADS,
        seed=args.seed, workload=args.workload,
        inputs_digest=raw["inputs_digest"])))
    for f in failures:
        print(f"  CHECK FAILED: {f}")
    print(f"  checks: {attempted - failed}/{attempted} passed "
          f"(error_rate {failed / max(1, attempted):.4g})")
    print_table("end-to-end:", e2e, END_TO_END)
    print_table("workload figures:",
                {k: layer[k] for k in WORKLOAD_FIGURES}, PER_LAYER)
    if args.trace:
        print_table("per-layer:", layer, PER_LAYER)
    for key, note in notes.items():
        print(f"  note {key}: {note}")
    chosen = layer if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": value, "unit": units[name][0]}
               for name, value in chosen.items()}
    bad = [name for name in metrics if not stats.valid_name(name)]
    if bad:
        raise BenchError(f"invalid metric names: {bad}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="shrunken cells, no pinned gate (tests only)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0, --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        t0 = time.monotonic()
        binary = build()
        log(f"perfbench: build ready in {time.monotonic() - t0:.1f}s")
        pins = load_pins()
        fingerprint = host_fingerprint()
        if args.workload != "all":
            result = run_one(binary, args, pins, fingerprint)
            print(json.dumps(result))
            return 0
        results = {}
        for w in WORKLOADS:
            args.workload = w
            results[w] = run_one(binary, args, pins, fingerprint)
        print(json.dumps({"workloads": results}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
