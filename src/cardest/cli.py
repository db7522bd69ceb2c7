"""Command-line front end: build statistics, estimate queries, run benches.

Graphs live in a directory holding vertices.jsonl and edges.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .bench import run_workload, write_csv
from .engine import ConfigError, EstimatorConfig, ExpansionLimitError, estimate_with_disjunctions
from .graph import load_graph
from .query import QueryFormatError
from .stats import build_catalog, load_catalog, save_catalog

VERTEX_FILE = "vertices.jsonl"
EDGE_FILE = "edges.jsonl"


def _load_graph_dir(path: str):
    return load_graph(os.path.join(path, VERTEX_FILE), os.path.join(path, EDGE_FILE))


def _parse_synopsis_token(token: str) -> tuple[str, int]:
    token = token.strip()
    if token == "edge":
        return ("edge", 1)
    for prefix, klass in (("chain", "chain"), ("sstar", "source_star"), ("tstar", "target_star")):
        if token.startswith(prefix) and token[len(prefix) :].isdigit():
            return (klass, int(token[len(prefix) :]))
    raise ValueError("want edge, chainN, sstarN or tstarN")


def _parse_sample_token(token: str) -> tuple[str, float, int]:
    parts = token.split(":")
    if len(parts) not in (2, 3):
        raise ValueError("want pt:probability[:seed]")
    pt = {"ep": "edge_pattern"}.get(parts[0], parts[0])
    seed = int(parts[2]) if len(parts) == 3 else 0
    return (pt, float(parts[1]), seed)


def _parse_histogram_token(token: str) -> tuple[str, str, int]:
    parts = token.split(":")
    kind = parts[1] if len(parts) > 1 else "equi_depth"
    return (parts[0], kind, int(parts[2]) if len(parts) > 2 else 10)


def _parse_prop_exact_token(token: str) -> tuple[str, str, object]:
    parts = token.split(":", 2)
    if len(parts) != 3:
        raise ValueError("want key:op:value")
    try:
        return (parts[0], parts[1], json.loads(parts[2]))
    except json.JSONDecodeError:
        return (parts[0], parts[1], parts[2])


def _parse_tokens(flag: str, tokens: list[str], parse) -> list:
    """Each token parsed; a ValueError becomes a ConfigError naming the token."""
    out = []
    for token in tokens:
        try:
            out.append(parse(token))
        except ValueError as exc:
            raise ConfigError(f"bad {flag} token {token!r}: {exc}") from None
    return out


def cmd_stats_build(args: argparse.Namespace) -> int:
    g = _load_graph_dir(args.graph)
    synopses = _parse_tokens("--synopses", [t for t in args.synopses.split(",") if t.strip()], _parse_synopsis_token)
    samples = _parse_tokens("--sample", args.sample, _parse_sample_token)
    histograms = _parse_tokens("--histogram", args.histogram, _parse_histogram_token)
    md_keys = [tuple(t.split(",")) for t in args.md_histogram]
    prop_exact = _parse_tokens("--prop-exact", args.prop_exact, _parse_prop_exact_token)
    catalog = build_catalog(
        g,
        synopses=synopses,
        with_sysr=args.sysr,
        cs_max=args.cs,
        cs_directions=tuple(args.cs_directions.split(",")) if args.cs else ("out",),
        sketch_buckets=args.sketch,
        sketch_seed=args.sketch_seed,
        samples=samples,
        histogram_keys=histograms,
        md_keys=md_keys,
        prop_exact=prop_exact,
    )
    save_catalog(catalog, args.out)
    basic = catalog.basic
    print(
        f"catalog written to {args.out}: |V|={basic.n_vertices} |E|={basic.n_edges} "
        f"synopses={len(catalog.synopses)} samples={len(catalog.samples)}"
    )
    return 0


def _config_from_args(args: argparse.Namespace) -> EstimatorConfig:
    from .engine import _split_tags

    return EstimatorConfig(
        pets=_split_tags(args.pets) if args.pets else (),
        epests=_split_tags(args.epests) if args.epests else (),
        ct=args.ct,
        seed=args.seed,
    )


def cmd_estimate(args: argparse.Namespace) -> int:
    g = _load_graph_dir(args.graph)
    catalog = load_catalog(args.stats) if args.stats else build_catalog(g)
    with open(args.query, "r", encoding="utf-8") as fh:
        doc = fh.read()
    config = _config_from_args(args)
    report = estimate_with_disjunctions(doc, g, catalog, config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"selectivity  {report.selectivity:.6e}")
    print(f"cardinality  {report.cardinality:.6f}")
    if report.lower is not None:
        print(f"bounds       [{report.lower:.6e}, {report.upper:.6e}]")
    if report.flags:
        print(f"flags        {', '.join(report.flags)}")
    print(f"wall time    {report.wall_time * 1000:.2f} ms")
    print()
    print(f"{'technique':28} {'#constraints':>12} {'selectivity':>14}")
    for pe in report.estimates:
        print(f"{pe.provenance:28} {len(pe.constraints):>12} {pe.selectivity:>14.6e}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    g = _load_graph_dir(args.graph)
    catalog = load_catalog(args.stats) if args.stats else build_catalog(g)
    with open(args.workload, "r", encoding="utf-8") as fh:
        workload = json.load(fh)
    queries = [(item["id"], item["query"]) for item in workload]
    configs = []
    with open(args.configs, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                configs.append(EstimatorConfig.parse(line))
    rows, summary = run_workload(
        g,
        queries,
        configs,
        oracle_budget=args.oracle_budget,
        catalog=catalog,
        subquery_max_edges=args.subqueries,
        props_mode=args.props_mode,
        timing=args.timing,
    )
    write_csv(rows, args.out)
    print(f"{len(rows)} rows written to {args.out} ({summary.skipped} skipped)")
    for config, agg in summary.per_config.items():
        print(
            f"{config}: median q-error {agg['median']:.4g}, max {agg['max']:.4g} "
            f"over {agg['count']} rows"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cardest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="statistics catalogs")
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)
    build = stats_sub.add_parser("build", help="build a catalog from a graph")
    build.add_argument("--graph", required=True, help="graph directory")
    build.add_argument("--out", required=True, help="catalog output path")
    build.add_argument("--synopses", default="", help="e.g. edge,chain2,sstar3,tstar2")
    build.add_argument("--sysr", action="store_true", help="per-edge-pattern join stats")
    build.add_argument("--cs", type=int, default=None, help="characteristic sets, max entries")
    build.add_argument("--cs-directions", default="out", help="out, in or out,in")
    build.add_argument("--sample", action="append", default=[], help="pt:probability[:seed]")
    build.add_argument("--sketch", type=int, default=None, help="bound sketch bucket count")
    build.add_argument("--sketch-seed", type=int, default=0)
    build.add_argument("--histogram", action="append", default=[], help="key[:kind[:buckets]]")
    build.add_argument("--md-histogram", action="append", default=[], help="key1,key2[,key3]")
    build.add_argument("--prop-exact", action="append", default=[], help="key:op:value")
    build.set_defaults(func=cmd_stats_build)

    est = sub.add_parser("estimate", help="estimate one query")
    est.add_argument("--graph", required=True)
    est.add_argument("--stats", default=None, help="catalog file (default: basic stats only)")
    est.add_argument("--query", required=True, help="query document (JSON)")
    est.add_argument("--pets", default="", help="e.g. EP,c2,SysR,CS")
    est.add_argument("--epests", default="", help="e.g. IP(id,a),implied")
    est.add_argument("--ct", default="condIndep(MoDi)")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--json", action="store_true")
    est.set_defaults(func=cmd_estimate)

    bench = sub.add_parser("bench", help="run a workload against the oracle")
    bench.add_argument("--graph", required=True)
    bench.add_argument("--stats", default=None)
    bench.add_argument("--workload", required=True, help="JSON list of {id, query}")
    bench.add_argument("--configs", required=True, help="one config per line")
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.add_argument(
        "--oracle-budget",
        type=int,
        default=None,
        help="cap on the oracle's backtracking expansions; a budget runs the backtracker on every "
        "query (default: count acyclic patterns bottom-up, backtrack over the rest)",
    )
    bench.add_argument("--subqueries", type=int, default=None, help="expand to subqueries <= N edges")
    bench.add_argument("--props-mode", choices=("keep", "strip", "both"), default="keep")
    bench.add_argument(
        "--timing", action="store_true", help="record wall times (breaks byte determinism)"
    )
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QueryFormatError, ExpansionLimitError, ConfigError) as exc:
        print(f"cardest: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
