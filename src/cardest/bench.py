"""Workload runner against the exact oracle, plus a synthetic generator.

Produces per-(query, config) rows with exact counts, estimates, q-errors
and timings, aggregated into medians/maxima partitioned by query size.
Timing columns are zeroed unless requested so reports are byte-stable
across runs with the same seeds.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import time
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

from .engine import EstimatorConfig, estimate
from .graph import OracleBudgetError, PropertyGraph, exact_matches
from .query import QueryPattern, parse_query
from .stats import StatisticsCatalog, build_catalog


def qerror(est: float, real: float) -> float:
    """max(est/real, real/est); 1 is perfect, infinity a one-sided zero."""
    if est < 0 or real < 0:
        raise ValueError("q-error needs non-negative inputs")
    if est == 0.0 and real == 0.0:
        return 1.0
    if est == 0.0 or real == 0.0:
        return math.inf
    return max(est / real, real / est)


# ---------------------------------------------------------------------------
# Synthetic graphs


@dataclass(frozen=True)
class PropSpec:
    """One property key: present with base_prob, boosted towards elements
    carrying `given` (a label, or a key assigned earlier in the list).

    boost=0 means no correlation; boost=1 makes the key deterministic on
    `given` and absent elsewhere.
    """

    key: str
    n_values: int = 10
    base_prob: float = 0.3
    given: Optional[str] = None
    boost: float = 0.0
    on: str = "vertex"  # vertex | edge


@dataclass(frozen=True)
class GraphSpec:
    n_vertices: int = 100
    n_edges: int = 200
    vertex_labels: tuple[str, ...] = ("L0", "L1")
    edge_labels: tuple[str, ...] = ("a", "b")
    vertex_label_prob: float = 1.0
    edge_label_prob: float = 1.0
    degree_exponent: float = 0.0  # 0 uniform; larger skews source choice
    props: tuple[PropSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.n_edges < 0:
            raise ValueError(f"GraphSpec.n_edges must be >= 0, got {self.n_edges}")
        if self.n_vertices < 0 or (self.n_edges and not self.n_vertices):
            raise ValueError(f"GraphSpec.n_vertices must be >= {1 if self.n_edges else 0}, got {self.n_vertices}")


def _assign_props(
    rng: random.Random, specs: Sequence[PropSpec], labels: Iterable[str]
) -> dict:
    props: dict = {}
    have = set(labels)
    for spec in specs:
        hit = spec.given is None or spec.given in have or spec.given in props
        if spec.given is None:
            p = spec.base_prob
        elif hit:
            p = spec.base_prob + spec.boost * (1.0 - spec.base_prob)
        else:
            p = spec.base_prob * (1.0 - spec.boost)
        if rng.random() < p:
            props[spec.key] = rng.randrange(spec.n_values)
    return props


def generate_graph(spec: GraphSpec, seed: int = 0) -> PropertyGraph:
    """Reproducible random property graph per the spec knobs.

    Costs O(V + E log V): with degree_exponent > 0, each edge's source is
    drawn from cumulative weights built once per graph.  rng.choices
    bisects them with the one random() draw it also makes when given the
    weights, so a seed gives the same graph either way (golden
    fingerprints in the tests pin it).
    """
    rng = random.Random(seed)
    vprops = [s for s in spec.props if s.on == "vertex"]
    eprops = [s for s in spec.props if s.on == "edge"]
    vertices = []
    for i in range(spec.n_vertices):
        labels = []
        if spec.vertex_labels and rng.random() < spec.vertex_label_prob:
            labels.append(rng.choice(spec.vertex_labels))
        vertices.append((f"v{i}", labels, _assign_props(rng, vprops, labels)))
    cum_weights = None
    if spec.degree_exponent > 0.0:
        cum_weights = list(accumulate((i + 1.0) ** -spec.degree_exponent for i in range(spec.n_vertices)))
    edges = []
    for j in range(spec.n_edges):
        if cum_weights is None:
            s = rng.randrange(spec.n_vertices)
        else:
            s = rng.choices(range(spec.n_vertices), cum_weights=cum_weights)[0]
        t = rng.randrange(spec.n_vertices)
        labels = []
        if spec.edge_labels and rng.random() < spec.edge_label_prob:
            labels.append(rng.choice(spec.edge_labels))
        edges.append((f"e{j}", f"v{s}", f"v{t}", labels, _assign_props(rng, eprops, labels)))
    return PropertyGraph(vertices, edges)


# ---------------------------------------------------------------------------
# Connected subquery enumeration


def enumerate_subqueries(
    q: QueryPattern, max_edges: int, include_props: bool = True
) -> list[tuple[str, QueryPattern]]:
    """All connected subqueries with 1..max_edges query edges.

    Labels stay on included ids; property constraints are kept atomically
    per id (all of an id's predicates or, with include_props=False, none).
    """
    if max_edges < 1:
        return []
    edges = sorted(q.edges)
    adjacency: dict[str, set[str]] = {e: set() for e in edges}
    for e1 in edges:
        for e2 in edges:
            if e1 < e2 and set(q.endpoints[e1]) & set(q.endpoints[e2]):
                adjacency[e1].add(e2)
                adjacency[e2].add(e1)

    found: set[frozenset[str]] = set()

    def grow(current: frozenset[str], frontier: set[str]) -> None:
        if len(current) >= max_edges:
            return
        for e in sorted(frontier):
            nxt = current | {e}
            if nxt in found:
                continue
            found.add(nxt)
            grow(nxt, (frontier | adjacency[e]) - nxt)

    for e in edges:
        start = frozenset({e})
        if start not in found:
            found.add(start)
            grow(start, set(adjacency[e]))

    out = []
    for subset in sorted(found, key=lambda s: (len(s), tuple(sorted(s)))):
        ids = set(subset)
        for e in subset:
            ids.update(q.endpoints[e])
        sub = QueryPattern(
            vertices=frozenset(i for i in ids if i in q.vertices),
            edges=frozenset(subset),
            endpoints={e: q.endpoints[e] for e in subset},
            labels={i: q.labels_of(i) for i in ids if q.labels_of(i)},
            prop_constraints=(
                [pc for pc in q.prop_constraints if pc[0] in ids] if include_props else []
            ),
        )
        out.append(("+".join(sorted(subset)), sub))
    return out


# ---------------------------------------------------------------------------
# Workload runner


@dataclass
class BenchRow:
    query_id: str
    n_edge_ids: int
    config: str
    exact: Optional[float]
    estimate: float
    qerror: Optional[float]
    est_ms: float
    oracle_ms: float

    def csv_values(self) -> list:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float) and math.isinf(v):
                return "inf"
            return repr(v) if isinstance(v, float) else v

        return [fmt(getattr(self, name)) for name in CSV_COLUMNS]


CSV_COLUMNS = [f.name for f in fields(BenchRow)]


@dataclass
class QErrorSummary:
    """Per configuration: the q-error count, median and max; plus the rows
    without an exact count."""

    per_config: dict[str, dict] = field(default_factory=dict)
    skipped: int = 0


def summarize(rows: Iterable[BenchRow]) -> QErrorSummary:
    summary = QErrorSummary()
    by_config: dict[str, list[float]] = {}
    for row in rows:
        if row.qerror is None:
            summary.skipped += 1
            continue
        by_config.setdefault(row.config, []).append(row.qerror)
    for config, qerrors in sorted(by_config.items()):
        summary.per_config[config] = {
            "count": len(qerrors),
            "median": statistics.median(qerrors),
            "max": max(qerrors),
        }
    return summary


def run_workload(
    g: PropertyGraph,
    queries: Iterable[tuple[str, Union[dict, QueryPattern]]],
    configs: Iterable[EstimatorConfig],
    oracle_budget: Optional[int] = None,
    catalog: Optional[StatisticsCatalog] = None,
    subquery_max_edges: Optional[int] = None,
    props_mode: str = "keep",  # keep | strip | both
    timing: bool = False,
) -> tuple[list[BenchRow], QErrorSummary]:
    """Estimate every (query, config) pair and compare with the oracle.

    Queries whose exact evaluation exceeds the oracle budget are recorded
    with empty exact/q-error fields.  A budget runs the oracle's capped
    backtracker on every query; without one, acyclic patterns are counted
    bottom-up (see `graph.exact_matches`).  With subquery_max_edges set, each
    input query is replaced by all its connected subqueries up to that
    size, with property constraints kept, stripped, or both.
    """
    if catalog is None:
        catalog = build_catalog(g)
    configs = list(configs)

    work: list[tuple[str, QueryPattern]] = []
    for qid, q in queries:
        if isinstance(q, dict):
            q = parse_query(q)
        if subquery_max_edges is None:
            work.append((qid, q))
            continue
        variants = []
        if props_mode in ("keep", "both"):
            variants.append((True, "props"))
        if props_mode in ("strip", "both"):
            variants.append((False, "noprops"))
        for include_props, tag in variants:
            for sub_id, sub in enumerate_subqueries(q, subquery_max_edges, include_props):
                work.append((f"{qid}/{sub_id}/{tag}", sub))

    rows: list[BenchRow] = []
    for qid, q in work:
        t0 = time.perf_counter()
        try:
            exact = float(exact_matches(g, q, budget=oracle_budget))
        except OracleBudgetError:
            exact = None
        oracle_ms = (time.perf_counter() - t0) * 1000.0 if timing else 0.0
        for config in configs:
            t1 = time.perf_counter()
            report = estimate(q, g, catalog, config)
            est_ms = (time.perf_counter() - t1) * 1000.0 if timing else 0.0
            err = qerror(report.cardinality, exact) if exact is not None else None
            rows.append(
                BenchRow(
                    query_id=qid,
                    n_edge_ids=len(q.edges),
                    config=config.label,
                    exact=exact,
                    estimate=report.cardinality,
                    qerror=err,
                    est_ms=est_ms,
                    oracle_ms=oracle_ms,
                )
            )
    return rows, summarize(rows)


def write_csv(rows: Iterable[BenchRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())
