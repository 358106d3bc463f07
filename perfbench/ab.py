#!/usr/bin/env python3
"""Paired, interleaved A/B comparison of two checkouts with this benchmark.

    python3 perfbench/ab.py --a <parent checkout> --b <changed checkout>
        [--workloads fleet_1m,raid_sweep] [--out ab.json]

Each checkout must hold the same perfbench/ (measure both commits with
identical benchmark code; the runner warns when the trees differ) and is
built by its own perfbench/run.py. For each of the PAIRS pairs i both
sides run workload w with seed SEED_BASE + i; even pairs run A first, odd pairs B first, so
slow drift of the host hits both sides alike.

Per workload and end-to-end metric it reports each side's median and quartiles, the
fraction of pairs B wins (in the metric's better direction; ties count for
neither side) and a verdict:

  improved    B wins >= 90% of pairs and the medians differ by more than
              A's own inter-quartile distance;
  regressed   B's median is worse than A's by more than the metric's bound;
  unresolved  A's or B's spread (IQR / median) exceeds the bound, unless
              B won or lost every pair;
  unchanged   otherwise.

A run that is not "correct" is reported and excluded from the statistics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

PAIRS = 10       # the fewest pairs an A/B claim rests on
SEED_BASE = 100


def tree_digest(root):
    h = hashlib.sha256()
    base = os.path.join(root, "perfbench")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_side(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def verdict(a, b, better, bound):
    """Compares two lists of per-pair values of one metric."""
    pairs = list(zip(a, b))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    qa, qb = stats.quartiles(a), stats.quartiles(b)
    med_a, med_b = qa[1], qb[1]
    win_frac = wins / len(pairs) if pairs else 0.0
    worse_by = (sign * (med_a - med_b) / abs(med_a)) if med_a else 0.0
    spread = max(stats.spread(a), stats.spread(b))
    if win_frac >= 0.9 and abs(med_b - med_a) > qa[2] - qa[0]:
        label = "improved"
    elif worse_by > bound:
        label = "regressed"
    elif spread > bound and wins != len(pairs) and losses != len(pairs):
        label = "unresolved"
    else:
        label = "unchanged"
    return {"a": {"q1": qa[0], "median": med_a, "q3": qa[2]},
            "b": {"q1": qb[0], "median": med_b, "q3": qb[2]},
            "win_frac_b": win_frac, "spread": spread, "verdict": label}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="baseline checkout")
    ap.add_argument("--b", required=True, help="changed checkout")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--out", default=None, help="write the report JSON here")
    args = ap.parse_args(argv)

    with open(os.path.join(args.b, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    if tree_digest(args.a) != tree_digest(args.b):
        print("warning: perfbench/ differs between the two checkouts; "
              "numbers are not comparable", file=sys.stderr)

    report = {}
    for w in workloads:
        values = {"a": {}, "b": {}}
        bad = {"a": 0, "b": 0}
        for i in range(PAIRS):
            seed = SEED_BASE + i
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            results = {}
            for side in order:
                checkout = args.a if side == "a" else args.b
                results[side] = run_side(checkout, w, seed,
                                         bench["run_seconds"])
            if not all(r and r["correct"] for r in results.values()):
                for side, r in results.items():
                    bad[side] += 0 if (r and r["correct"]) else 1
                continue
            for side, r in results.items():
                for name, m in r["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
            print(f"{w} pair {i + 1}/{PAIRS} (seed {seed}, "
                  f"{order[0]} first) done", file=sys.stderr, flush=True)
        rows = {}
        for name, (better, bound) in spec.items():
            a, b = values["a"].get(name, []), values["b"].get(name, [])
            if a and len(a) == len(b):
                rows[name] = verdict(a, b, better, bound)
        report[w] = {"pairs": len(next(iter(values["a"].values()), [])),
                     "failed_runs": bad, "metrics": rows}

        print(f"\n{w}: {report[w]['pairs']} pairs, failed runs "
              f"A={bad['a']} B={bad['b']}")
        print(f"  {'metric':30s} {'A median [q1, q3]':>32s} "
              f"{'B median [q1, q3]':>32s} {'B wins':>7s}  verdict")
        for name, r in rows.items():
            fa, fb = r["a"], r["b"]
            print(f"  {name:30s} {fa['median']:>12.5g} [{fa['q1']:.4g}, "
                  f"{fa['q3']:.4g}] {fb['median']:>12.5g} [{fb['q1']:.4g}, "
                  f"{fb['q3']:.4g}] {r['win_frac_b']:>7.2f}  {r['verdict']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
