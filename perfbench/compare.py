"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect --out DIR [--root ROOT]
        [--workloads grade,maxent,catalog] [--seeds 1-10] [--trace 0|1]
    python3 perfbench/compare.py pair --out DIR PARENT_ROOT CHANGE_ROOT
        [--workloads ...] [--seeds 1-10]
    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py compare PARENT_DIR CHANGE_DIR

`collect` runs the benchmark once per (workload, seed), one run at a
time, from the checkout ROOT (default: the one this file is in), and
appends each result, tagged with its workload, seed and number of zero
estimates, to DIR/<workload>.jsonl.

`pair` does the same for two checkouts, the parent and the change, into
DIR/parent and DIR/change.  For every seed it runs both, one after the
other, and alternates which side runs first, so that both sides see the
host's changes of speed alike.

`spread` prints, per (metric, workload), the median and quartiles of a
set of runs and their spread (Q3 - Q1) / median against the metric's
bound in BENCHMARK.json.

`compare` prints, per workload, both sides' failed operations and zero
estimates, and per (metric, workload), both sides' median and quartiles,
the pairwise win rate of the change (runs paired by seed) and a verdict:
  improved        the change wins at least 9/10 of the pairs (ties count
                  for neither) and the medians differ by more than the
                  parent's quartile spread; or, when the parent's spread
                  exceeds the bound, every change run beats every parent run
  worse           the change's median is worse than the parent's by more
                  than the bound
  within bound    neither of the above
  unresolved      the parent's spread is wider than the bound
A workload on which any change run has more failed operations plus zero
estimates than the parent's run of the same seed gets the verdict
`worse` for its failures and no `improved` verdict: a gain does not count
when more operations fail.  The counts depend only on the inputs, so
they repeat exactly for a seed and any rise is a change in behaviour.
Per-layer metrics have no bound; they get the win rate only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, spec


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: str, command: list, workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One benchmark run in checkout `root`; its result, or None if it failed."""
    cmd = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{root} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    zero = [line for line in lines if line.startswith("zero estimates: ")]
    result.update(workload=workload, seed=seed, wall_s=wall, zero=int(zero[-1].split(": ")[1]))
    print(f"{root} {workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
          f"failed={result['failed']} zero={result['zero']}")  # fmt: skip
    return result


def append(directory: str, result: dict) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{result['workload']}.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result) + "\n")


def collect(args) -> int:
    _, spec = load_spec()
    status = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            result = run_once(args.root, spec["command"], workload, seed, spec["run_seconds"], args.trace)
            if result is None:
                status = 1
            else:
                append(args.out, result)
    return status


def pair(args) -> int:
    _, spec = load_spec()
    sides = [("parent", args.parent_root), ("change", args.change_root)]
    status = 0
    for workload in args.workloads.split(","):
        for k, seed in enumerate(parse_seeds(args.seeds)):
            for side, root in sides if k % 2 == 0 else sides[::-1]:
                result = run_once(root, spec["command"], workload, seed, spec["run_seconds"], 0)
                if result is None:
                    status = 1
                else:
                    append(os.path.join(args.out, side), result)
    return status


def load_runs(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                runs[name[: -len(".jsonl")]] = [json.loads(line) for line in fh if line.strip()]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_of(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def spread(args) -> int:
    metrics, _ = load_spec()
    worst = worst_setup = 0.0
    print(f"{'workload':9s} {'metric':34s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload, runs in load_runs(args.dir).items():
        print(f"{workload:9s} {'wall_s':34s} {len(runs):3d} {statistics.median(r['wall_s'] for r in runs):12.4g}")
        for name in sorted({k for r in runs for k in r["metrics"]}):
            vals = values(runs, name)
            q1, q2, q3 = quartiles(vals)
            bound = metrics.get(name, {}).get("bound")
            s = spread_of(vals)
            flag = ""
            if bound is not None:
                flag = "  OVER" if s > bound else ("  >1/3" if s > bound / 3 else "")
                # a spread of setup_s over its bound does not reject the
                # benchmark (only a shift of its median does), so it is
                # summarised on its own
                if name == "setup_s":
                    worst_setup = max(worst_setup, s / bound)
                else:
                    worst = max(worst, s / bound)
            print(
                f"{workload:9s} {name:34s} {len(vals):3d} {q2:12.4g} {q1:12.4g} {q3:12.4g} {s:7.3f} "
                f"{'' if bound is None else bound:>6}{flag}"
            )
    print(f"largest spread as a share of its bound, setup_s excluded: {worst:.2f}; setup_s: {worst_setup:.2f}")
    return 0


def verdict(parent: list[float], change: list[float], better: str, bound) -> tuple[float, str]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    win_rate = wins / len(pairs) if pairs else float("nan")
    if bound is None:
        return win_rate, "n/a"
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    parent_spread = p3 - p1
    if win_rate >= 0.9 and abs(c_med - p_med) > parent_spread and sign * (c_med - p_med) > 0:
        return win_rate, "improved"
    if parent_spread > bound * abs(p_med):
        if all(sign * (c - p) > 0 for p in parent for c in change):
            return win_rate, "improved"
        return win_rate, "unresolved"
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return win_rate, "worse"
    return win_rate, "within bound"


def compare(args) -> int:
    metrics, _ = load_spec()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    status = 0
    print(f"{'workload':9s} {'metric':34s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} {'wins':>5s}  verdict")
    for workload in sorted(set(parent_runs) & set(change_runs)):
        by_seed = {r["seed"]: r for r in change_runs[workload]}
        paired = [(p, by_seed[p["seed"]]) for p in parent_runs[workload] if p["seed"] in by_seed]
        for side, runs in (("parent", parent_runs[workload]), ("change", change_runs[workload])):
            failed, zero = sum(r["failed"] for r in runs), sum(r["zero"] for r in runs)
            print(f"{workload:9s} {side} runs: {len(runs)}, failed operations: {failed}, "
                  f"zero estimates: {zero}, all correct: {all(r['correct'] for r in runs)}")  # fmt: skip
        failures = [(p["failed"] + p["zero"], c["failed"] + c["zero"]) for p, c in paired]
        more_failures = any(c > p for p, c in failures)
        fmt = lambda v: "%.4g [%.4g, %.4g]" % (quartiles(v)[1], quartiles(v)[0], quartiles(v)[2])  # noqa: E731
        if failures:
            parent, change = [p for p, _ in failures], [c for _, c in failures]
            rate = sum(c < p for p, c in failures) / len(failures)
            word = "worse" if more_failures else "within bound"
            status |= more_failures
            print(f"{workload:9s} {'failed+zero':34s} {fmt(parent):>36s} {fmt(change):>36s} {rate:5.2f}  {word}")
        names = sorted({k for p, _ in paired for k in p["metrics"]})
        for name in names:
            parent = [p["metrics"][name]["value"] for p, c in paired if name in c["metrics"]]
            change = [c["metrics"][name]["value"] for p, c in paired if name in c["metrics"]]
            if not parent:
                continue
            meta = metrics.get(name, {"better": "lower"})
            rate, word = verdict(parent, change, meta["better"], meta.get("bound"))
            if word == "improved" and more_failures:
                word = "not claimed: more failures"
            status |= word == "worse"
            print(f"{workload:9s} {name:34s} {fmt(parent):>36s} {fmt(change):>36s} {rate:5.2f}  {word}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="Collect and compare cardest benchmark runs.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--root", default=ROOT)
    p.add_argument("--workloads", default="grade,maxent,catalog")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("pair")
    p.add_argument("--out", required=True)
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--workloads", default="grade,maxent,catalog")
    p.add_argument("--seeds", default="1-10")
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args()
    return {"collect": collect, "pair": pair, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
