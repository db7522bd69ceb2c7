"""Phase-1 estimation techniques.

Each technique targets a class of constraint subsets of the query and
maps the subsets it can serve, given the statistics in the catalog, to
partial estimates.  All functions are pure over (query, catalog, graph)
and return possibly-empty lists; a missing prerequisite means an empty
result, never an error.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator, Optional

from .graph import PropertyGraph
from .query import (
    Constraint,
    ConstraintKind,
    PartialEstimate,
    PredicateKind,
    QueryPattern,
    constraints_for_edges,
    data_constraints_by_id,
    extract_constraints,
    ids_of,
    iter_chains,
    iter_stars,
    cs_pattern_of,
    satisfies,
)
from .stats import (
    StatisticsCatalog,
    WILDCARD,
    histogram_estimate,
    md_fraction,
)

DEFAULT_EQ_SELECTIVITY = 1.0 / 10.0
DEFAULT_NEQ_SELECTIVITY = 9.0 / 10.0
DEFAULT_OTHER_SELECTIVITY = 1.0 / 3.0

MAX_STAR_SIZE = 5

# Preference order when two techniques produce estimates for the same
# constraint set: keep the most trusted one.
_TRUST = {
    "exact": 0,
    "synopsis": 1,
    "cs": 2,
    "sysr": 3,
    "sampling": 4,
    "histogram": 5,
    "sketch": 6,
    "default": 7,
    "ip": 8,
}


def trust_rank(provenance: str) -> int:
    head = provenance.split(":", 1)
    base = head[0].split("(", 1)[0]
    if base == "individual" and len(head) > 1:
        tag = {"exact": "exact", "histogram": "histogram", "sample": "sampling", "default": "default"}[
            head[1].split(":")[0]
        ]
        return _TRUST[tag]
    if base in ("wj", "sampling"):
        return _TRUST["sampling"]
    if base == "mdh":
        return _TRUST["histogram"]
    return _TRUST.get(base, 9)


def dedup_estimates(estimates: Iterable[PartialEstimate]) -> list[PartialEstimate]:
    """Drop duplicate constraint sets, keeping the most trusted estimate;
    output order is deterministic (technique tag, then constraint key)."""
    best: dict[tuple, PartialEstimate] = {}
    for pe in estimates:
        key = pe.key()
        old = best.get(key)
        if old is None or (trust_rank(pe.provenance), pe.provenance, pe.selectivity) < (
            trust_rank(old.provenance),
            old.provenance,
            old.selectivity,
        ):
            best[key] = pe
    return sorted(best.values(), key=lambda pe: (pe.provenance, pe.key()))


def _clamp(s: float) -> float:
    return min(max(s, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Individual constraints


def individual_prop_estimate(
    c: Constraint, catalog: StatisticsCatalog
) -> tuple[float, str]:
    """Fallback chain for one key-value constraint: exact lookup, then
    histogram, then id sample, then operator defaults."""
    basic = catalog.basic
    n_ids = basic.n_ids if basic else 0
    if basic and n_ids:
        exact = basic.prop_exact.get((c.key, c.op.value, c.value))
        if exact is not None:
            return exact / n_ids, "individual:exact"
        hist = catalog.histogram(c.key)
        if hist is not None:
            est = histogram_estimate(hist, c.op, c.value)
            if est is not None:
                return _clamp(est / n_ids), "individual:histogram"
        sample = catalog.sample("id")
        if sample is not None and sample.members:
            hits = sum(1 for m in sample.members if satisfies((c,), m["labels"], m["props"]))
            return hits / len(sample.members), "individual:sample"
    if c.op is PredicateKind.EQ:
        return DEFAULT_EQ_SELECTIVITY, "individual:default"
    if c.op is PredicateKind.NEQ:
        return DEFAULT_NEQ_SELECTIVITY, "individual:default"
    return DEFAULT_OTHER_SELECTIVITY, "individual:default"


def individual_estimate(c: Constraint, catalog: StatisticsCatalog) -> PartialEstimate:
    """Singleton estimate for one constraint of any kind."""
    basic = catalog.basic
    if basic is None:
        raise ValueError("individual estimation requires basic statistics")
    n = basic.n_ids
    if c.kind is ConstraintKind.VERTEX:
        s, prov = (basic.n_vertices / n if n else 0.0), "individual:exact"
    elif c.kind is ConstraintKind.EDGE:
        s, prov = (basic.n_edges / n if n else 0.0), "individual:exact"
    elif c.kind in (ConstraintKind.SRC, ConstraintKind.TRG):
        s, prov = (basic.n_edges / (n * n) if n else 0.0), "individual:exact"
    elif c.kind is ConstraintKind.HAS_LABEL:
        s, prov = (basic.label_count(c.label) / n if n else 0.0), "individual:exact"
    elif c.kind is ConstraintKind.HAS_KEY:
        s, prov = (basic.key_sel.get(c.key, 0) / n if n else 0.0), "individual:exact"
    else:
        s, prov = individual_prop_estimate(c, catalog)
    return PartialEstimate(frozenset({c}), _clamp(s), prov)


def individual_estimates(q: QueryPattern, catalog: StatisticsCatalog) -> list[PartialEstimate]:
    """One singleton estimate per constraint of the query."""
    return [
        individual_estimate(c, catalog)
        for c in sorted(extract_constraints(q), key=lambda c: c.sort_key())
    ]


# ---------------------------------------------------------------------------
# Labeled topological synopsis lookups


class _MultiLabel(Exception):
    pass


def _slot_label(q: QueryPattern, i: str) -> str:
    labs = q.labels_of(i)
    if not labs:
        return WILDCARD
    if len(labs) > 1:
        raise _MultiLabel(i)
    return next(iter(labs))


def _edge_pattern_labels(q: QueryPattern, e: str) -> tuple[str, str, str]:
    s, t = q.endpoints[e]
    return (_slot_label(q, s), _slot_label(q, e), _slot_label(q, t))


def _edge_patterns(q: QueryPattern) -> Iterator[tuple[tuple[str, str, str], frozenset[Constraint]]]:
    """Slot labels and constraints of each query edge but self-loops and multi-labelled ones."""
    for e in sorted(q.edges):
        s, t = q.endpoints[e]
        if s == t:
            continue
        try:
            ep = _edge_pattern_labels(q, e)
        except _MultiLabel:
            continue
        yield ep, constraints_for_edges(q, (e,))


def _labeled_stars(
    q: QueryPattern,
) -> Iterator[tuple[list[tuple[tuple[str, str, str], bool]], frozenset[Constraint]]]:
    """Branches (slot labels, leaves the center?) and constraints of each star of 2 to
    MAX_STAR_SIZE edges in any direction, skipping stars with multi-labelled ids."""
    for size in range(2, min(MAX_STAR_SIZE, len(q.edges)) + 1):
        for center, edges in iter_stars(q, size, "any"):
            try:
                branches = [(_edge_pattern_labels(q, e), q.endpoints[e][0] == center) for e in edges]
            except _MultiLabel:
                continue
            yield branches, constraints_for_edges(q, edges)


def _chain_slots(q: QueryPattern, chain: tuple[str, ...]) -> list[str]:
    slots = [_slot_label(q, q.endpoints[chain[0]][0])]
    for e in chain:
        slots.append(_slot_label(q, e))
        slots.append(_slot_label(q, q.endpoints[e][1]))
    return slots


def synopsis_estimates(
    q: QueryPattern,
    catalog: StatisticsCatalog,
    classes: Optional[dict[str, int]] = None,
) -> list[PartialEstimate]:
    """Lookups against the labeled topological synopses in the catalog.

    classes optionally restricts which synopsis classes are used and up
    to which size, e.g. {"edge": 1, "chain": 2}.  Chains longer than the
    stored size are extended with the usual Markov-chain telescoping of
    n-chain over (n-1)-chain selectivities.  Patterns whose label keys
    are absent from a synopsis are skipped silently.
    """
    basic = catalog.basic
    if basic is None or basic.n_ids == 0:
        return []
    n_ids_g = basic.n_ids
    out: list[PartialEstimate] = []

    def sel_from_count(count: int, k: int) -> float:
        return _clamp(count / float(n_ids_g**k))

    for syn in catalog.synopses:
        if classes is not None and syn.klass not in classes:
            continue
        use_size = min(syn.max_size, classes[syn.klass]) if classes else syn.max_size

        if syn.klass == "edge":
            for ep, cs in _edge_patterns(q):
                count = syn.count_edge(*ep)
                if count is None:
                    continue
                out.append(PartialEstimate(cs, sel_from_count(count, 3), "synopsis:EP"))

        elif syn.klass == "chain":
            max_query_chain = len(q.edges)
            for m in range(2, max_query_chain + 1):
                for chain in iter_chains(q, m):
                    try:
                        slots = _chain_slots(q, chain)
                    except _MultiLabel:
                        continue
                    sel = _chain_sel(syn, basic, slots, m, use_size, n_ids_g)
                    if sel is None:
                        continue
                    cs = constraints_for_edges(q, chain)
                    out.append(
                        PartialEstimate(cs, _clamp(sel), f"synopsis:c{use_size}")
                    )

        else:  # source_star / target_star
            direction = "source" if syn.klass == "source_star" else "target"
            tag = "s" if direction == "source" else "t"
            for size in range(2, use_size + 1):
                for center, edges in iter_stars(q, size, direction):
                    try:
                        lc = _slot_label(q, center)
                        branches = []
                        for e in edges:
                            other = (
                                q.endpoints[e][1] if direction == "source" else q.endpoints[e][0]
                            )
                            branches.append((_slot_label(q, e), _slot_label(q, other)))
                    except _MultiLabel:
                        continue
                    count = syn.count_star(lc, branches)
                    if count is None:
                        continue
                    cs = constraints_for_edges(q, edges)
                    out.append(
                        PartialEstimate(
                            cs, sel_from_count(count, 2 * size + 1), f"synopsis:{tag}{use_size}"
                        )
                    )
    return out


def _chain_sel(
    syn, basic, slots: list[str], m: int, max_size: int, n_ids_g: int
) -> Optional[float]:
    """Selectivity of a labeled m-chain from a synopsis of size max_size."""

    def window_sel(start_edge: int, length: int) -> Optional[float]:
        # slots for edges [start_edge, start_edge+length): 2*length+1 slots
        if length == 0:
            lv = slots[2 * start_edge]
            count = (
                basic.n_vertices if lv == WILDCARD else basic.label_sel.get(lv, (0, 0))[0]
            )
            return count / n_ids_g
        window = slots[2 * start_edge : 2 * (start_edge + length) + 1]
        count = syn.count_chain(window)
        if count is None:
            return None
        return count / float(n_ids_g ** (2 * length + 1))

    if m <= max_size:
        return window_sel(0, m)
    n = max_size
    head = window_sel(0, n)
    if head is None:
        return None
    sel = head
    for i in range(1, m - n + 1):
        num = window_sel(i, n)
        den = window_sel(i, n - 1)
        if num is None or den is None:
            return None
        if num == 0.0:
            return 0.0
        if den == 0.0:
            return 0.0  # sub-pattern empty forces the longer chain empty
        sel *= num / den
    return sel


# ---------------------------------------------------------------------------
# System R style join-size estimation for labeled stars


def system_r_estimates(q: QueryPattern, catalog: StatisticsCatalog) -> list[PartialEstimate]:
    """Estimates for every labeled star subpattern (size >= 2, mixed
    directions allowed) from per-edge-pattern cardinality and distinct
    endpoint counts, under inclusion and uniform-distribution assumptions."""
    if catalog.sysr is None or catalog.basic is None or catalog.basic.n_ids == 0:
        return []
    n_ids_g = catalog.basic.n_ids
    out: list[PartialEstimate] = []
    for branches, cs in _labeled_stars(q):
        cards: list[int] = []
        distincts: list[int] = []
        for ep, outgoing in branches:
            n, ds, dt = catalog.sysr.lookup(*ep)
            cards.append(n)
            distincts.append(ds if outgoing else dt)
        if any(n == 0 for n in cards):
            out.append(PartialEstimate(cs, 0.0, "sysr"))
            continue
        est = float(min(distincts))
        for n, d in zip(cards, distincts):
            est *= n / d
        k = len(ids_of(cs))
        out.append(PartialEstimate(cs, _clamp(est / n_ids_g**k), "sysr"))
    return out


# ---------------------------------------------------------------------------
# Bound sketch


def bound_sketch_estimates(q: QueryPattern, catalog: StatisticsCatalog) -> list[PartialEstimate]:
    """Upper bounds used as estimates, for edges, 2-chains and stars.

    Per partition bucket the bound takes the tightest join order (one
    pattern contributes its count, the others their max degree); bucket
    bounds are summed.
    """
    if not catalog.sketches or catalog.basic is None or catalog.basic.n_ids == 0:
        return []
    sketch = catalog.sketches[0]
    n_ids_g = catalog.basic.n_ids
    out: list[PartialEstimate] = []

    def joined_bound(parts: list[dict[int, tuple[int, int]]]) -> float:
        buckets: set[int] = set()
        for p in parts:
            buckets.update(p)
        bound = 0.0
        for b in buckets:
            stats = [p.get(b, (0, 0)) for p in parts]
            best = None
            for k in range(len(stats)):
                term = float(stats[k][0])
                for j in range(len(stats)):
                    if j != k:
                        term *= stats[j][1]
                best = term if best is None else min(best, term)
            bound += best or 0.0
        return bound

    # single edges: the sketch stores exact per-pattern counts
    for ep, cs in _edge_patterns(q):
        count = sum(c for c, _ in sketch.partition(*ep, "src").values())
        out.append(PartialEstimate(cs, _clamp(count / n_ids_g**3), "sketch"))

    for chain in iter_chains(q, 2):
        try:
            ep1 = _edge_pattern_labels(q, chain[0])
            ep2 = _edge_pattern_labels(q, chain[1])
        except _MultiLabel:
            continue
        parts = [sketch.partition(*ep1, "trg"), sketch.partition(*ep2, "src")]
        bound = joined_bound(parts)
        cs = constraints_for_edges(q, chain)
        out.append(PartialEstimate(cs, _clamp(bound / n_ids_g**5), "sketch"))

    for branches, cs in _labeled_stars(q):
        parts = [sketch.partition(*ep, "src" if outgoing else "trg") for ep, outgoing in branches]
        bound = joined_bound(parts)
        k = len(ids_of(cs))
        out.append(PartialEstimate(cs, _clamp(bound / n_ids_g**k), "sketch"))
    return out


# ---------------------------------------------------------------------------
# Characteristic sets


def char_set_estimates(q: QueryPattern, catalog: StatisticsCatalog) -> list[PartialEstimate]:
    """Estimates for star-plus-key patterns via characteristic sets.

    Sums, over every stored characteristic set containing the pattern's
    edge labels and center keys, the vertex count scaled by per-label
    average out-degrees.  Property keys contribute factor one.
    """
    if catalog.basic is None or catalog.basic.n_ids == 0:
        return []
    n_ids_g = catalog.basic.n_ids
    out: list[PartialEstimate] = []
    for store in catalog.char_sets:
        direction = "out" if store.direction == "out" else "in"
        for center in sorted(q.vertices):
            info = cs_pattern_of(q, center, direction=direction)
            if info is None:
                continue
            card = 0.0
            for entry in store.supersets(info["elements"]):
                if entry.count <= 0:
                    # entries can carry label info with no vertices; they host nothing
                    if len(info["edge_labels"]) == 1 and not info["keys"]:
                        card += entry.label_counts.get(info["edge_labels"][0], 0)
                    continue
                contribution = float(entry.count)
                for l in info["edge_labels"]:
                    contribution *= entry.label_counts.get(l, 0) / entry.count
                card += contribution
            k = len(ids_of(info["constraints"]))
            out.append(
                PartialEstimate(info["constraints"], _clamp(card / n_ids_g**k), "cs")
            )
    return out


# ---------------------------------------------------------------------------
# Sampling


def sample_estimates(
    q: QueryPattern,
    catalog: StatisticsCatalog,
    wanted: Optional[list[tuple[str, float]]] = None,
) -> list[PartialEstimate]:
    """Estimates from materialized samples.

    id/vertex samples serve each query id's data-constraint group (plus
    its membership constraint); edge-pattern samples serve each query
    edge's full constraint set.  `wanted` optionally restricts to samples
    with matching (pattern type, probability); by default every sample in
    the catalog contributes.
    """
    basic = catalog.basic
    if basic is None or basic.n_ids == 0:
        return []
    n_ids_g = basic.n_ids
    out: list[PartialEstimate] = []
    groups = data_constraints_by_id(q)
    all_constraints = extract_constraints(q)

    for sample in catalog.samples:
        if wanted is not None and (sample.pattern_type, sample.probability) not in wanted:
            continue
        if not sample.members:
            continue
        tag = f"sampling:S({sample.pattern_type},{sample.probability})"

        if sample.pattern_type in ("id", "vertex"):
            for i in sorted(groups):
                is_vertex = i in q.vertices
                if sample.pattern_type == "vertex" and not is_vertex:
                    continue
                kind = "vertex" if is_vertex else "edge"
                members = [m for m in sample.members if m["kind"] == kind]
                if not members:
                    continue
                hits = sum(1 for m in members if satisfies(groups[i], m["labels"], m["props"]))
                population = basic.n_vertices if is_vertex else basic.n_edges
                sel = (hits / len(members)) * (population / n_ids_g)
                membership = Constraint.vertex(i) if is_vertex else Constraint.edge(i)
                cs = groups[i] | {membership}
                out.append(PartialEstimate(cs, _clamp(sel), tag))

        elif sample.pattern_type == "edge_pattern":
            for e in sorted(q.edges):
                s, t = q.endpoints[e]
                ids = {e, s, t}
                cs = frozenset(c for c in all_constraints if set(c.ids) <= ids)
                loop = s == t
                data_e = groups.get(e, frozenset())
                data_s = groups.get(s, frozenset())
                data_t = groups.get(t, frozenset())
                hits = 0
                for m in sample.members:
                    if loop and not m.get("loop"):
                        continue
                    if not satisfies(data_e, m["labels"], m["props"]):
                        continue
                    if not satisfies(data_s, m["src"]["labels"], m["src"]["props"]):
                        continue
                    if not loop and not satisfies(data_t, m["trg"]["labels"], m["trg"]["props"]):
                        continue
                    hits += 1
                sel = (hits / len(sample.members)) * (basic.n_edges / float(n_ids_g ** len(ids)))
                out.append(PartialEstimate(cs, _clamp(sel), tag))
    return out


# ---------------------------------------------------------------------------
# Wander join


def walk_plan(q: QueryPattern) -> Optional[list[str]]:
    """Lexicographically smallest edge order where each edge shares a
    vertex with an earlier one; None when no such order covers all edges."""
    remaining = sorted(q.edges)
    if not remaining:
        return None
    plan = [remaining.pop(0)]
    covered = set(q.endpoints[plan[0]])
    while remaining:
        for e in remaining:
            s, t = q.endpoints[e]
            if s in covered or t in covered:
                plan.append(e)
                covered.update((s, t))
                remaining.remove(e)
                break
        else:
            return None
    return plan


def wander_join_estimate(
    q: QueryPattern,
    g: PropertyGraph,
    walks: int = 1000,
    seed: int = 0,
) -> Optional[PartialEstimate]:
    """Unbiased cardinality estimate from random walks over the query's
    edges; covers every constraint on ids reachable by the walk plan.

    The plan is compiled once per call: each step after the first records
    whether it extends from its source (along out-edges) or from its
    target (along in-edges), and whether its other endpoint is mapped
    already, in which case the chosen edge must agree with it.  A
    completed walk thus satisfies every topology constraint by
    construction, and only the covered ids' data constraints are
    checked.  The random draws and the accepted walks are those of a walk
    that checks every constraint of its mapping, so the estimate does not
    change.
    """
    plan = walk_plan(q)
    if plan is None or g.n_edges == 0 or g.n_ids == 0 or walks < 1:
        return None
    e0 = plan[0]
    s0, t0 = q.endpoints[e0]
    covered_ids = {e0, s0, t0}
    steps: list[tuple[str, str, str, bool, bool]] = []
    for e in plan[1:]:
        s, t = q.endpoints[e]
        forward = s in covered_ids
        steps.append((e, s, t, forward, forward and t in covered_ids))
        covered_ids.update((e, s, t))
    constraints = frozenset(
        c for c in extract_constraints(q) if set(c.ids) <= covered_ids
    )
    data_checks = [
        (i, cs) for i, cs in sorted(data_constraints_by_id(q).items()) if i in covered_ids
    ]

    rng = random.Random(seed)
    randrange = rng.randrange
    endpoints, out_edges, in_edges = g.endpoints, g.out_edges, g.in_edges
    total = 0.0
    successes = 0
    for _ in range(walks):
        inv_prob = float(g.n_edges)
        first = g.n_vertices + randrange(g.n_edges)
        gs, gt = endpoints(first)
        if s0 == t0 and gs != gt:
            continue
        m = {e0: first, s0: gs, t0: gt}
        for e, s, t, forward, check in steps:
            cands = out_edges(m[s]) if forward else in_edges(m[t])
            if not cands:
                break
            choice = cands[randrange(len(cands))]
            inv_prob *= len(cands)
            cgs, cgt = endpoints(choice)
            if check and m[t] != cgt:
                break
            m[e] = choice
            m[s] = cgs
            m[t] = cgt
        else:
            for i, cs in data_checks:
                if not satisfies(cs, g.labels_of(m[i]), g.props_of(m[i])):
                    break
            else:
                total += inv_prob
                successes += 1
    estimate = total / walks
    sel = _clamp(estimate / float(g.n_ids ** len(covered_ids)))
    provenance = "wj" if successes else "wj:low_confidence"
    return PartialEstimate(constraints, sel, provenance)


# ---------------------------------------------------------------------------
# Multidimensional histograms

_MD_OPS = (
    PredicateKind.EQ,
    PredicateKind.NEQ,
    PredicateKind.LT,
    PredicateKind.LEQ,
    PredicateKind.GT,
    PredicateKind.GEQ,
    PredicateKind.IN,
)


def md_histogram_estimates(q: QueryPattern, catalog: StatisticsCatalog) -> list[PartialEstimate]:
    """Joint estimates for same-id value predicates covered by a grid."""
    basic = catalog.basic
    if basic is None or basic.n_ids == 0 or not catalog.md_histograms:
        return []
    n_ids_g = basic.n_ids
    by_id: dict[str, list[tuple[str, PredicateKind, Any]]] = {}
    constraints_by_id: dict[str, set[Constraint]] = {}
    for i, key, op, value in q.prop_constraints:
        by_id.setdefault(i, []).append((key, op, value))
        constraints_by_id.setdefault(i, set()).add(Constraint.prop_value(i, key, op, value))
    out: list[PartialEstimate] = []
    for i in sorted(by_id):
        preds = by_id[i]
        if len(preds) < 2:
            continue
        if any(op not in _MD_OPS for _, op, _ in preds):
            continue
        keys = {k for k, _, _ in preds}
        for mdh in catalog.md_histograms:
            if not keys <= set(mdh.keys):
                continue
            frac = md_fraction(mdh, preds)
            sel = frac * (mdh.total / n_ids_g)
            out.append(
                PartialEstimate(frozenset(constraints_by_id[i]), _clamp(sel), "mdh")
            )
            break
    return out
