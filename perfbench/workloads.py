"""The benchmark's three workloads and the checks on their outputs.

Every workload is one process and one caller in a closed loop: the next
operation starts when the previous one has returned.

- grade: the `cardest bench` path.  `bench.run_workload` grades
  graph-sampled queries (1-3 edges, all connected subqueries, with and
  without property predicates) under four estimator configurations
  against the exact oracle.  The oracle, the phase-1 techniques, the
  phase-2 extensions and the condIndep/bounds combiners do the work.
- maxent: `estimate()` with the max-entropy combiner on the first seven
  of grade's queries, whose exact counts are computed in set-up, so
  iterative proportional fitting does nearly all the timed work.
- catalog: the offline path on a 4k-vertex / 16k-edge graph: load the
  graph files, build every statistic grade uses, save and reload the
  catalog, then answer label-only check queries from the loaded catalog,
  in rounds that each load the graph and the catalog again.

load_s is the median graph load plus the median catalog load, timed
between the operations of grade and maxent and in catalog's rounds.

Set-up (generate the graph, write its files, and for grade and maxent
run the offline path once) is repeated `SETUPS` times per run and
reported as the median, so work moved into set-up shows in `setup_s`.

Every reported time is a wall-clock time scaled to reference speed: it
is multiplied by REFERENCE_MS over the median time of `reference()`, a
short fixed pure-Python loop timed 10 times a second in the same thread
(see SpeedTrace), during the timed interval.  On shared 2-vCPU x86-64
VMs each vCPU switches between speeds about 1.65x apart every few
seconds.  Over six alternating runs of grade there, the quartile spread
over the median of estimate_ms_p50 was 0.29 unscaled and 0.05 scaled,
and of oracle_ms_p50 0.25 and 0.09.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np

import querygen
from cardest import bench, engine, graph, stats
from cardest.bench import GraphSpec, PropSpec, generate_graph, qerror
from cardest.engine import EstimatorConfig
from cardest.query import parse_query
from spans import Tracer

SETUPS = 3
# median time of reference(), run from the signal handler, on a 2-vCPU
# x86-64 VM (Python 3.11) in its faster speed state: scaled times read as
# wall times at that speed
REFERENCE_MS = 0.45
SPEED_PERIOD = 0.1


def graph_spec(n_vertices: int, n_edges: int) -> GraphSpec:
    """Skewed out-degrees, three vertex and three edge labels, two
    correlated vertex keys and one edge key."""
    return GraphSpec(
        n_vertices=n_vertices,
        n_edges=n_edges,
        vertex_labels=("A", "B", "C"),
        edge_labels=("x", "y", "z"),
        degree_exponent=0.8,
        props=(
            PropSpec("k1", n_values=10, base_prob=0.4, given="A", boost=0.6),
            PropSpec("k2", n_values=10, base_prob=0.3, given="k1", boost=0.7),
            PropSpec("w", n_values=10, base_prob=0.4, on="edge"),
        ),
    )


GRADE_GRAPH = graph_spec(1000, 4000)
# 4k/16k rather than the 5k/20k of the ROADMAP baseline: at 5k/20k one
# catalog run took 40-58 s, too long for repeated ten-run comparisons of
# all three workloads
CATALOG_GRAPH = graph_spec(4000, 16000)


def catalog_options(seed: int) -> dict:
    """Every statistic the grade configurations read."""
    return dict(
        synopses=[("edge", 1), ("chain", 2), ("source_star", 3), ("target_star", 2)],
        with_sysr=True,
        cs_max=10000,
        sketch_buckets=16,
        samples=[("id", 0.05, seed), ("edge_pattern", 0.05, seed)],
        histogram_keys=[(key, "equi_depth", 10) for key in ("k1", "k2", "w")],
        md_keys=[("k1", "k2")],
    )


GRADE_CONFIGS = [
    EstimatorConfig.parse(text)
    for text in (
        "name=ci; pets=EP,c2,SysR; epests=IP(id,p); ct=condIndep(MoDi)",
        "name=rich; pets=EP,c2,s3,t2,CS,BS,MDH,S(id,0.05); epests=implied,IP(id,a); ct=condIndep(MoDi)",
        "name=bounds; pets=EP,c2,s3,BS; ct=bounds",
        "name=wj; pets=EP,WJ(1000); ct=condIndep(MoDi)",
    )
]
BOUNDS_CONFIG = GRADE_CONFIGS[2]
MAXENT_CONFIG = EstimatorConfig.parse("name=maxent; pets=EP,c2,s3; epests=implied; ct=maxEnt(mps=8)")
CHECK_CONFIG = EstimatorConfig.parse("name=check; pets=EP,c2; ct=condIndep(MoDi)")

# Graph-sampled queries are redrawn when their pattern without property
# predicates needs more oracle expansions than this: the oracle visits
# every match, and one hub-centred star would otherwise take most of a
# run.
ORACLE_FILTER_BUDGET = 20000
GRADED_QUERIES = 20
# one pass over maxent's queries takes longer than a run's --seconds, so
# every run estimates each query exactly once
MAXENT_QUERIES = 7
# grade and maxent run on one fixed graph, query sequence and set of
# random choices (samples, bound-sketch hash, wander-join walks); --seed
# only sets the order in which the loop visits the queries.  Their
# q-errors are heavy-tailed and few queries fit in a run: with the graph
# and queries drawn from --seed, grade's q-error p90 ranged from 5.0 to
# 16.5 over eight seeds; on graphs drawn from --seed even fixed query
# patterns moved the maxEnt q-error median from 31 to 50; and seeding
# only the random choices still moved grade's p90 from 5.0 to 7.3.
DATA_SEED = 1
# one third 1-edge and two thirds 2-chain patterns, so the median check
# estimate falls among the 2-chains and not into the gap between the two
CATALOG_CHECKS = 30
# maxent's oracle calls are timed this many times each, for enough samples
REPEATS = 5
# catalog's check queries are estimated in this many rounds, each round
# one graph and catalog load apart, and a check's estimate time is the
# median over its rounds, so that one slow call does not set the p90:
# with every check timed in one burst, catalog's estimate_ms_p90 split
# between runs at 2.2-2.4 ms and 2.8-2.9 ms
CHECK_ROUNDS = 10


def reference() -> None:
    """Fixed work like the program's: dictionary updates and a sort."""
    counts: dict[int, int] = {}
    for i in range(2000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
    sorted(counts.items())


class SpeedTrace:
    """Times `reference()` every SPEED_PERIOD seconds, from a SIGALRM
    handler that runs in this thread between the program's bytecodes, so
    every timed interval can be scaled to reference speed."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame) -> None:
        reference()  # the timed run below then finds its code and data in cache
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedTrace":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD, SPEED_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, start: float, end: float) -> float:
        """The interval's wall time, scaled by REFERENCE_MS over the median
        reference time measured during it (or next to a short one)."""
        margin = SPEED_PERIOD * 2.5
        near = [d for t, d in self.samples if start - margin <= t <= end + margin]
        if not near:  # the trace has no sample yet
            return end - start
        return (end - start) * REFERENCE_MS / 1000.0 / statistics.median(near)


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


class Tally:
    """Outcomes of one run: timings, q-errors, failures and failed checks."""

    def __init__(self, speed: SpeedTrace) -> None:
        self.speed = speed
        self.est_ms: list[float] = []
        self.oracle_ms: list[float] = []
        self.qerrors: list[float] = []
        self.graph_load_s: list[float] = []
        self.catalog_load_s: list[float] = []
        self.rows = 0  # graded (query, config) rows
        self.row_s = 0.0  # time spent producing them, oracle included
        self.attempted = 0
        self.failed = 0  # exceptions, oracle overruns, failed checks
        self.zero = 0  # zero estimates for a non-empty truth
        self.errors: list[str] = []

    def seconds(self, start: float, end: float) -> float:
        return self.speed.seconds(start, end)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def crashed(self, what: str, rows: int) -> None:
        """An operation raised: the rows it would have graded all count as
        attempted and failed, and the run fails its output checks."""
        self.attempted += rows
        self.failed += rows
        self.errors.append(f"{what} raised {sys.exc_info()[1]!r}")
        print(f"{what} raised:\n{traceback.format_exc()}", file=sys.stderr)

    def grade(self, label: str, card: float, exact: float | None, max_card: float) -> None:
        """One (query, config) estimate against its exact count."""
        self.attempted += 1
        if exact is None:
            self.failed += 1
            print(f"{label}: oracle budget exceeded", file=sys.stderr)
            return
        self.check(exact >= 1, f"{label}: sampled query has exact count {exact}")
        if not (math.isfinite(card) and 0.0 <= card <= max_card):
            self.check(False, f"{label}: estimate {card} outside [0, {max_card}]")
        elif card == 0.0:
            self.zero += 1
        else:
            self.qerrors.append(qerror(card, exact))


def _canonical(catalog) -> str:
    return json.dumps(catalog.to_dict(), sort_keys=True, separators=(",", ":"))


def _graph_files(workdir: str) -> tuple[str, str]:
    return os.path.join(workdir, "vertices.jsonl"), os.path.join(workdir, "edges.jsonl")


def write_graph(spec: GraphSpec, seed: int, workdir: str):
    g = generate_graph(spec, seed)
    graph.save_graph(g, *_graph_files(workdir))
    return g


def load_graph(workdir: str, tally: Tally):
    t0 = time.perf_counter()
    g = graph.load_graph(*_graph_files(workdir))
    tally.graph_load_s.append(tally.seconds(t0, time.perf_counter()))
    return g


def load_catalog(workdir: str, tally: Tally):
    t0 = time.perf_counter()
    catalog = stats.load_catalog(os.path.join(workdir, "catalog.json"))
    tally.catalog_load_s.append(tally.seconds(t0, time.perf_counter()))
    return catalog


def offline(workdir: str, seed: int, tally: Tally):
    """Load the graph files, build the catalog, save it and load it back:
    what `cardest stats build` and every later CLI call do."""
    g = load_graph(workdir, tally)
    t1 = time.perf_counter()
    built = stats.build_catalog(g, **catalog_options(seed))
    build_s = tally.seconds(t1, time.perf_counter())
    path = os.path.join(workdir, "catalog.json")
    stats.save_catalog(built, path)
    catalog = load_catalog(workdir, tally)
    tally.check(_canonical(catalog) == _canonical(built), "loaded catalog differs from the saved one")
    return g, catalog, {"catalog_build_s": build_s, "catalog_bytes": float(os.path.getsize(path))}


def _label(items: dict, ident: str) -> str:
    return (items[ident].get("labels") or [stats.WILDCARD])[0]


def check_synopsis(tally: Tally, label: str, doc: dict, edge_ids: list[str], catalog, exact) -> None:
    """The oracle and the synopsis builders count label-only 1-edge and
    2-chain patterns by independent code paths; they must agree."""
    if exact is None or len(edge_ids) > 2:
        return
    items = {item["id"]: item for item in doc["vertices"] + doc["edges"]}
    edges = [items[e] for e in edge_ids]
    if len(edges) == 2 and edges[0]["trg"] != edges[1]["src"]:
        edges.reverse()
    if len(edges) == 2 and edges[0]["trg"] != edges[1]["src"]:
        return  # a 2-star, not a chain
    slots = [edges[0]["src"]]
    for e in edges:
        slots += [e["id"], e["trg"]]
    labels = [_label(items, i) for i in slots]
    synopsis = catalog.synopsis("edge" if len(edges) == 1 else "chain")
    count = synopsis.count_edge(*labels) if len(edges) == 1 else synopsis.count_chain(labels)
    tally.check(count == exact, f"{label}: oracle counts {exact}, synopsis counts {count}")


def expected_rows(doc: dict) -> int:
    """The (subquery, configuration) rows `bench.run_workload` grades for
    one base query: every connected non-empty set of its edges, with and
    without property predicates, under every configuration.  Counted
    here, apart from the program's own enumeration, so that an operation
    that raises is charged with every row it lost."""
    ends = [{e["src"], e["trg"]} for e in doc["edges"]]
    connected = 0
    for mask in range(1, 1 << len(ends)):
        chosen = [ends[i] for i in range(len(ends)) if mask >> i & 1]
        reached, rest = set(chosen[0]), chosen[1:]
        while rest:
            joined = [e for e in rest if e & reached]
            if not joined:
                break
            rest = [e for e in rest if not e & reached]
            for e in joined:
                reached |= e
        connected += not rest
    return 2 * connected * len(GRADE_CONFIGS)


def _max_card(catalog, n_edges: int) -> float:
    # every query is a tree: n_edges edges and n_edges + 1 vertices
    return float(catalog.basic.n_ids) ** (2 * n_edges + 1)


# ---------------------------------------------------------------------------
# Set-up


def _strip_props(doc: dict) -> dict:
    return {
        part: [{k: v for k, v in item.items() if k != "props"} for item in doc[part]]
        for part in ("vertices", "edges")
    }


def draw_queries(g, n: int, seed: int) -> list[tuple[str, dict]]:
    """The first n queries of the graph-sampled sequence, in an order
    shuffled by seed."""
    rng = random.Random(DATA_SEED)
    pool = []
    while len(pool) < n:
        doc = querygen.draw_query(g, rng, rng.choice(list(querygen.SHAPES)))
        if doc is None:
            continue
        try:
            graph.exact_matches(g, parse_query(_strip_props(doc)), budget=ORACLE_FILTER_BUDGET)
        except graph.OracleBudgetError:
            continue
        pool.append((f"q{len(pool)}", doc))
    random.Random(seed).shuffle(pool)
    return pool


def setup_grade(workdir: str, seed: int, tally: Tally, pool: list) -> dict:
    write_graph(GRADE_GRAPH, DATA_SEED, workdir)
    g, catalog, offline_times = offline(workdir, DATA_SEED, tally)
    # every run finishes a first pass, so q-errors cover every query; the
    # samples of load_s are taken between the operations, over the run
    return {
        "g": g, "catalog": catalog, "offline": offline_times, "pool": pool,
        "n_items": len(pool), "min_ops": len(pool), "max_ops": math.inf, "loads_between_ops": True,
    }  # fmt: skip


def setup_maxent(workdir: str, seed: int, tally: Tally, pool: list) -> dict:
    """The first MAXENT_QUERIES queries of grade, with exact counts."""
    state = setup_grade(workdir, seed, tally, pool)
    state.update(exact=[], max_ops=len(pool))
    for qid, doc in state["pool"]:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            exact = graph.exact_matches(state["g"], parse_query(doc))
            tally.oracle_ms.append(tally.seconds(t0, time.perf_counter()) * 1000.0)
        tally.check(exact >= 1, f"{qid}: sampled query has exact count {exact}")
        state["exact"].append(float(exact))
        label_only = _strip_props(doc)
        edge_ids = [e["id"] for e in doc["edges"]]
        if len(edge_ids) <= 2:
            exact = graph.exact_matches(state["g"], parse_query(label_only))
            check_synopsis(tally, qid, label_only, edge_ids, state["catalog"], exact)
    return state


def setup_catalog(workdir: str, seed: int, tally: Tally, pool: list) -> dict:
    g = write_graph(CATALOG_GRAPH, seed, workdir)
    rng = random.Random(seed)
    checks = [
        (f"c{k}", querygen.draw_query(g, rng, shape, label_p=1.0, prop_p=0.0))
        for k, shape in enumerate(["edge", "chain2", "chain2"] * (CATALOG_CHECKS // 3))
    ]
    tally.check(all(doc is not None for _, doc in checks), "graph has no instance of a check shape")
    return {"checks": checks, "n_items": 1, "min_ops": 1, "max_ops": math.inf}


# ---------------------------------------------------------------------------
# Timed operations.  Each grades every result on the first visit of its
# query and records timings on every visit.


def grade_query(state: dict, k: int, tally: Tally, first_visit: bool) -> None:
    qid, doc = state["pool"][k % len(state["pool"])]
    catalog = state["catalog"]
    t0 = time.perf_counter()
    try:
        rows, _ = bench.run_workload(
            state["g"], [(qid, doc)], GRADE_CONFIGS, catalog=catalog,
            subquery_max_edges=3, props_mode="both", timing=True,
        )  # fmt: skip
    except Exception:
        tally.crashed(f"grading {qid}", expected_rows(doc))
        return
    t1 = time.perf_counter()
    scale = tally.seconds(t0, t1) / (t1 - t0)
    tally.row_s += (t1 - t0) * scale
    tally.rows += len(rows)
    tally.est_ms.extend(row.est_ms * scale for row in rows)
    if not first_visit:
        return
    expected = expected_rows(doc)
    tally.attempted += max(expected - len(rows), 0)
    tally.check(len(rows) == expected, f"{qid}: {len(rows)} graded rows, expected {expected}")
    oracle = {}
    for row in rows:
        oracle[row.query_id] = row
        label = f"{row.query_id} [{row.config}]"
        tally.grade(label, row.estimate, row.exact, _max_card(catalog, row.n_edge_ids))
    for query_id, row in oracle.items():
        tally.oracle_ms.append(row.oracle_ms * scale)
        _, sub_id, tag = query_id.split("/")
        if tag == "noprops":
            check_synopsis(tally, query_id, doc, sub_id.split("+"), catalog, row.exact)


def maxent_query(state: dict, k: int, tally: Tally, first_visit: bool) -> None:
    i = k % len(state["pool"])
    (qid, doc), exact = state["pool"][i], state["exact"][i]
    q = parse_query(doc)
    t0 = time.perf_counter()
    try:
        report = engine.estimate(q, state["g"], state["catalog"], MAXENT_CONFIG)
    except Exception:
        tally.crashed(f"estimating {qid}", 1)
        return
    elapsed = tally.seconds(t0, time.perf_counter())
    tally.est_ms.append(elapsed * 1000.0)
    tally.rows += 1
    tally.row_s += elapsed
    if first_visit:
        tally.grade(qid, report.cardinality, exact, _max_card(state["catalog"], len(q.edges)))


def catalog_pass(state: dict, k: int, tally: Tally, first_visit: bool) -> None:
    """The offline path, then CHECK_ROUNDS rounds over the check queries:
    estimate() on every check in every round, the oracle on every check
    once, spread over the rounds."""
    workdir, checks = state["workdir"], state["checks"]
    try:
        g, catalog, offline_times = offline(workdir, state["seed"], tally)
    except Exception:
        tally.crashed("offline path", len(checks))
        return
    state["offline_runs"].extend(offline_times.items())
    queries = [(qid, doc, parse_query(doc)) for qid, doc in checks]
    oracle_s: dict[str, float] = {}
    estimate_s: dict[str, list[float]] = {qid: [] for qid, _ in checks}
    raised: set[str] = set()
    for r in range(CHECK_ROUNDS):
        if r > 0:
            load_graph(workdir, tally)
            load_catalog(workdir, tally)
        for i, (qid, doc, q) in enumerate(queries):
            if qid in raised:
                continue
            try:
                if i % CHECK_ROUNDS == r:
                    t0 = time.perf_counter()
                    exact = float(graph.exact_matches(g, q))
                    oracle_s[qid] = tally.seconds(t0, time.perf_counter())
                t1 = time.perf_counter()
                report = engine.estimate(q, g, catalog, CHECK_CONFIG)
                estimate_s[qid].append(tally.seconds(t1, time.perf_counter()))
            except Exception:
                tally.crashed(f"checking {qid}", 1)
                raised.add(qid)
                continue
            if i % CHECK_ROUNDS == r and first_visit:
                tally.oracle_ms.append(oracle_s[qid] * 1000.0)
                tally.grade(qid, report.cardinality, exact, _max_card(catalog, len(q.edges)))
                check_synopsis(tally, qid, doc, sorted(q.edges), catalog, exact)
    for qid, seconds in oracle_s.items():
        if qid not in raised:
            median_s = statistics.median(estimate_s[qid])
            tally.est_ms.append(median_s * 1000.0)
            tally.rows += 1
            tally.row_s += seconds + median_s


def check_bounds(state: dict, tally: Tally) -> None:
    """The bounds combiner's lower value never exceeds its upper value."""
    for qid, doc in state["pool"]:
        try:
            report = engine.estimate(parse_query(doc), state["g"], state["catalog"], BOUNDS_CONFIG)
        except Exception:
            tally.crashed(f"bounding {qid}", 1)
            continue
        tally.check(report.lower <= report.upper, f"{qid}: bounds lower {report.lower} > upper {report.upper}")


# name -> (set-up, timed operation, number of graph-sampled queries)
WORKLOADS = {
    "grade": (setup_grade, grade_query, GRADED_QUERIES),
    "maxent": (setup_maxent, maxent_query, MAXENT_QUERIES),
    "catalog": (setup_catalog, catalog_pass, 0),
}


def closed_loop(op, state: dict, tally: Tally, seconds: float, tracer=None, traced=None) -> None:
    """Run operations back to back for `seconds`, and at least the
    workload's minimum and at most its maximum number of them.  With a tracer, every operation runs twice: once
    plain into `tally`, then traced into `traced`, so the two timings of
    the tracing overhead are paired."""
    k = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or k < state["min_ops"]) and k < state["max_ops"]:
        op(state, k, tally, k < state["n_items"])
        if state.get("loads_between_ops"):
            load_graph(state["workdir"], tally)
            load_catalog(state["workdir"], tally)
        if tracer is not None:
            tracer.request = ("run", k)
            tracer.install()
            try:
                op(state, k, traced, k < state["n_items"])
            finally:
                tracer.uninstall()
        k += 1


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str, trace_path: str) -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    with SpeedTrace() as speed:
        return _run(name, seed, seconds, trace, workdir, trace_path, speed)


def _run(name: str, seed: int, seconds: float, trace: bool, workdir: str, trace_path: str, speed) -> dict:
    setup, op, n_queries = WORKLOADS[name]
    tally, traced = Tally(speed), Tally(speed)
    # choosing the inputs is the benchmark's work, not the program's
    # set-up, and gives the same queries every time: done once per run
    pool = draw_queries(generate_graph(GRADE_GRAPH, DATA_SEED), n_queries, seed) if n_queries else []
    tracer = Tracer() if trace else None
    setup_times, offline_runs = [], []
    for _ in range(1 if trace else SETUPS):
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            state = setup(workdir, seed, tally, pool)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times.append(tally.seconds(t0, time.perf_counter()))
        offline_runs.extend(state.get("offline", {}).items())
    state.update(workdir=workdir, seed=seed, offline_runs=offline_runs)

    closed_loop(op, state, tally, seconds, tracer, traced)
    if name == "grade":
        check_bounds(state, tally)
    errors = tally.errors + traced.errors
    # the last line's `failed` leaves these out; compare.py reads this line
    print(f"zero estimates: {tally.zero}")
    result = {"correct": not errors, "attempted": max(tally.attempted, 1), "failed": tally.failed + traced.failed}
    if trace:
        tracer.write(trace_path)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ms"] = pct(traced.est_ms, 50) - pct(tally.est_ms, 50)
        result["metrics"] = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
    else:
        result["metrics"] = end_to_end(tally, state, setup_times)
    for message in errors[:20]:
        print(message, file=sys.stderr)
    return result


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def end_to_end(tally: Tally, state: dict, setup_times: list) -> dict:
    offline_runs: dict[str, list] = {}
    for key, value in state["offline_runs"]:
        offline_runs.setdefault(key, []).append(value)
    attempted = max(tally.attempted, 1)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "estimate_ms_p50": (pct(tally.est_ms, 50), "ms"),
        "estimate_ms_p90": (pct(tally.est_ms, 90), "ms"),
        "rows_per_s": (tally.rows / tally.row_s if tally.row_s else 0.0, "1/s"),
        "oracle_ms_p50": (pct(tally.oracle_ms, 50), "ms"),
        "oracle_ms_p90": (pct(tally.oracle_ms, 90), "ms"),
        "qerror_p50": (pct(tally.qerrors, 50), "ratio"),
        "qerror_p90": (pct(tally.qerrors, 90), "ratio"),
        "success_share": ((attempted - tally.failed - tally.zero) / attempted, "ratio"),
        "catalog_build_s": (statistics.median(offline_runs["catalog_build_s"]), "s"),
        "catalog_bytes": (statistics.median(offline_runs["catalog_bytes"]), "B"),
        "load_s": (statistics.median(tally.graph_load_s) + statistics.median(tally.catalog_load_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"samples: {len(tally.est_ms)} estimates, {len(tally.oracle_ms)} oracle calls, {len(tally.qerrors)} q-errors")
    speeds = [d for _, d in tally.speed.samples]
    print(f"reference loop: median {statistics.median(speeds) * 1000:.4f} ms over {len(speeds)} samples")
    return {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}
