"""cardest benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload grade|maxent|catalog --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`.
The workloads are described in `workloads.py` and their reasons are in
`BENCHMARK.json`.  With `--trace 0` the run prints every end-to-end
metric; with `--trace 1` it prints the per-layer metrics from spans
recorded around the calls into each cardest module, and writes the spans
to `perfbench/out/<workload>-<seed>.spans.jsonl.gz`.  The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.

The exit code is 0 when every output check passed, 1 when one failed and
2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("grade", "maxent", "catalog"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cardest", "__init__.py")):
        print(f"cardest sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"{args.workload}-{args.seed}.spans.jsonl.gz")
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workdir:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, trace_path)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    if not result["correct"]:
        print("output checks failed", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
