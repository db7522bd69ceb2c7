"""Phase-1 estimation techniques.

Each technique targets a class of constraint subsets of the query and
maps the subsets it can serve, given the statistics in the catalog, to
partial estimates.  All functions are pure over (query, catalog, graph)
and return possibly-empty lists; a missing prerequisite means an empty
result, never an error.  Each estimate states its kind where it is
made: "exact" for counts the catalog holds, "estimate" for everything
derived under an assumption or from a sample, "upper" for the bound
sketch.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .graph import PropertyGraph, allowed, scaled
from .query import (
    Constraint,
    ConstraintKind,
    ESTIMATE_KINDS,
    PartialEstimate,
    PredicateKind,
    QueryPattern,
    compiled_for,
    iter_chains,
    iter_stars,
    cs_pattern_of,
    shape_mask,
)
from .stats import (
    Sample,
    StatisticsCatalog,
    WILDCARD,
    exact_key,
    histogram_estimate,
    md_fraction,
)

DEFAULT_EQ_SELECTIVITY = 1.0 / 10.0
DEFAULT_NEQ_SELECTIVITY = 9.0 / 10.0
DEFAULT_OTHER_SELECTIVITY = 1.0 / 3.0
_DEFAULT_SELECTIVITY = {PredicateKind.EQ: DEFAULT_EQ_SELECTIVITY, PredicateKind.NEQ: DEFAULT_NEQ_SELECTIVITY}

MAX_STAR_SIZE = 5


def _preference(pe: PartialEstimate) -> tuple:
    """Smallest first: exact before estimate before upper, then by
    technique name and selectivity."""
    return (ESTIMATE_KINDS.index(pe.kind), pe.provenance, pe.selectivity)


def dedup_estimates(estimates: Iterable[PartialEstimate], q: QueryPattern) -> list[PartialEstimate]:
    """Drop duplicate constraint sets, keeping the preferred estimate of
    each; output order is deterministic (technique tag, then constraint
    key).  Sets are compared as masks of q's compiled form."""
    estimates = list(estimates)
    cq, masks = compiled_for(estimates, q)
    best: dict[int, PartialEstimate] = {}
    for pe, mask in zip(estimates, masks):
        old = best.get(mask)
        if old is None or _preference(pe) < _preference(old):
            best[mask] = pe
    ordered = sorted(best.items(), key=lambda item: (item[1].provenance, cq.bits(item[0])))
    return [pe for _, pe in ordered]


def _clamp(s: float) -> float:
    return min(max(s, 0.0), 1.0)


def _count_sel(count: float, n_ids: int, k: int) -> float:
    """Selectivity of `count` matches over k query ids on a graph of
    n_ids ids: count / n_ids^k (`graph.scaled`), clamped; 0 on an empty
    graph."""
    return _clamp(scaled(count, n_ids, -k)) if n_ids else 0.0


# ---------------------------------------------------------------------------
# Individual constraints


def individual_prop_estimate(
    c: Constraint, catalog: StatisticsCatalog
) -> tuple[float, str, str]:
    """Fallback chain for one key-value constraint: exact lookup, then
    histogram, then id sample, then operator defaults.  Returns the
    selectivity, its provenance and its kind."""
    basic = catalog.basic
    n_ids = basic.n_ids if basic else 0
    if basic and n_ids:
        exact = basic.prop_exact.get(exact_key(c.key, c.op.value, c.value))
        if exact is not None:
            return _count_sel(exact, n_ids, 1), "individual:exact", "exact"
        hist = catalog.histogram(c.key)
        if hist is not None:
            est = histogram_estimate(hist, c.op, c.value)
            if est is not None:
                return _count_sel(est, n_ids, 1), "individual:histogram", "estimate"
        sample = catalog.sample("id")
        if sample is not None and sample.members:
            return _hits(sample, [(c,)]) / len(sample.members), "individual:sample", "estimate"
    return _DEFAULT_SELECTIVITY.get(c.op, DEFAULT_OTHER_SELECTIVITY), "individual:default", "estimate"


def individual_estimate(c: Constraint, catalog: StatisticsCatalog) -> PartialEstimate:
    """Singleton estimate for one constraint of any kind."""
    basic = catalog.basic
    if basic is None:
        raise ValueError("individual estimation requires basic statistics")
    if c.kind is ConstraintKind.VERTEX:
        count, k = basic.n_vertices, 1
    elif c.kind is ConstraintKind.EDGE:
        count, k = basic.n_edges, 1
    elif c.kind in (ConstraintKind.SRC, ConstraintKind.TRG):
        count, k = basic.n_edges, 2
    elif c.kind is ConstraintKind.HAS_LABEL:
        count, k = basic.label_count(c.label), 1
    elif c.kind is ConstraintKind.HAS_KEY:
        count, k = basic.key_sel.get(c.key, 0), 1
    else:
        s, prov, kind = individual_prop_estimate(c, catalog)
        return PartialEstimate(frozenset({c}), _clamp(s), prov, kind)
    return PartialEstimate(frozenset({c}), _count_sel(count, basic.n_ids, k), "individual:exact", "exact")


def individual_estimates(q: QueryPattern, catalog: StatisticsCatalog) -> list[PartialEstimate]:
    """One singleton estimate per constraint of the query."""
    return [individual_estimate(c, catalog) for c in q.compiled.constraints]


# ---------------------------------------------------------------------------
# Labeled topological synopsis lookups


def _slot_label(q: QueryPattern, i: str) -> Optional[str]:
    """The one label of a query id, WILDCARD for none, None for several."""
    labs = q.labels_of(i)
    if not labs:
        return WILDCARD
    return next(iter(labs)) if len(labs) == 1 else None


def _edge_pattern_labels(q: QueryPattern, e: str) -> tuple[Optional[str], ...]:
    s, t = q.endpoints[e]
    return (_slot_label(q, s), _slot_label(q, e), _slot_label(q, t))


def _edge_patterns(q: QueryPattern) -> Iterator[tuple[tuple[str, str, str], int]]:
    """Slot labels and constraint mask of each query edge but self-loops and multi-labelled ones."""
    for e in sorted(q.edges):
        s, t = q.endpoints[e]
        ep = _edge_pattern_labels(q, e)
        if s != t and None not in ep:
            yield ep, shape_mask(q, (e,))


def _labeled_stars(
    q: QueryPattern,
) -> Iterator[tuple[list[tuple[tuple[str, str, str], bool]], tuple[str, ...]]]:
    """Branches (slot labels, leaves the center?) and edges of each star of 2 to
    MAX_STAR_SIZE edges in any direction, skipping stars with multi-labelled ids."""
    for size in range(2, min(MAX_STAR_SIZE, len(q.edges)) + 1):
        for center, edges in iter_stars(q, size):
            branches = [(_edge_pattern_labels(q, e), q.endpoints[e][0] == center) for e in edges]
            if all(None not in ep for ep, _ in branches):
                yield branches, edges


def _labeled_chains(q: QueryPattern, m: int) -> Iterator[tuple[list[str], int]]:
    """Slot labels (vertex, edge, vertex, ..., vertex) and constraint mask of each
    directed m-chain, skipping chains with multi-labelled ids; edge i's
    pattern is slots[2 * i : 2 * i + 3]."""
    for chain in iter_chains(q, m):
        slots = [_slot_label(q, q.endpoints[chain[0]][0])]
        for e in chain:
            slots += (_slot_label(q, e), _slot_label(q, q.endpoints[e][1]))
        if None not in slots:
            yield slots, shape_mask(q, chain)


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
    cq = q.compiled
    out: list[PartialEstimate] = []
    stars: Optional[list] = None  # walked once, for the first star synopsis
    for syn in catalog.synopses:
        if classes is not None and syn.klass not in classes:
            continue
        use_size = min(syn.max_size, classes[syn.klass]) if classes else syn.max_size

        if syn.klass == "edge":
            for ep, mask in _edge_patterns(q):
                count = syn.count_edge(*ep)
                if count is None:
                    continue
                out.append(cq.estimate(mask, _count_sel(count, n_ids_g, 3), "synopsis:EP", "exact"))

        elif syn.klass == "chain":
            for m in range(2, len(q.edges) + 1):
                # past the stored size a chain is a Markov extension, not a count
                kind = "exact" if m <= use_size else "estimate"
                for slots, mask in _labeled_chains(q, m):
                    sel = _chain_sel(syn, basic, slots, m, use_size)
                    if sel is None:
                        continue
                    out.append(cq.estimate(mask, _clamp(sel), f"synopsis:c{use_size}", kind))

        else:  # source_star / target_star
            outgoing = syn.klass == "source_star"
            tag = "s" if outgoing else "t"
            if stars is None:
                stars = list(_labeled_stars(q))
            for branches, edges in stars:
                if len(branches) > use_size or any(o != outgoing for _, o in branches):
                    continue
                # each branch is (ls, le, lt): the center is ls on a source star, lt on a target star
                center = branches[0][0][0 if outgoing else 2]
                leaves = [(le, lt if outgoing else ls) for (ls, le, lt), _ in branches]
                count = syn.count_star(center, leaves)
                if count is None:
                    continue
                sel = _count_sel(count, n_ids_g, 2 * len(branches) + 1)
                out.append(cq.estimate(shape_mask(q, edges), sel, f"synopsis:{tag}{use_size}", "exact"))
    return out


def _chain_sel(syn, basic, slots: list[str], m: int, max_size: int) -> Optional[float]:
    """Selectivity of a labeled m-chain from a synopsis of size max_size."""

    def window_sel(start_edge: int, length: int) -> Optional[float]:
        # slots for edges [start_edge, start_edge+length): 2*length+1 slots
        if length == 0:
            lv = slots[2 * start_edge]
            count = basic.n_vertices if lv == WILDCARD else basic.label_sel.get(lv, (0, 0))[0]
            return _count_sel(count, basic.n_ids, 1)
        window = slots[2 * start_edge : 2 * (start_edge + length) + 1]
        count = syn.count_chain(window)
        if count is None:
            return None
        return _count_sel(count, basic.n_ids, 2 * length + 1)

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
        if num == 0.0 or den == 0.0:
            return 0.0  # an empty sub-pattern forces the longer chain empty
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
    cq = q.compiled
    out: list[PartialEstimate] = []
    for branches, edges in _labeled_stars(q):
        cards: list[int] = []
        distincts: list[int] = []
        for ep, outgoing in branches:
            n, ds, dt = catalog.sysr.lookup(*ep)
            cards.append(n)
            distincts.append(ds if outgoing else dt)
        est = 0.0
        if all(cards):
            est = float(min(distincts))
            for n, d in zip(cards, distincts):
                est *= n / d
        mask = shape_mask(q, edges)
        sel = _count_sel(est, n_ids_g, cq.ids_of(mask).bit_count())
        out.append(cq.estimate(mask, sel, "sysr", "estimate"))
    return out


# ---------------------------------------------------------------------------
# Bound sketch


def _joined_bound(parts: Sequence[dict[int, tuple[int, int]]]) -> float:
    """A star's bound from its branches' partitions: per bucket that every
    branch holds, ascending, the least over branches k of k's count times
    the others' max degrees (multiplied in branch order), added one after
    another (np.sum would add pairwise); a bucket some branch lacks adds 0."""
    shared = sorted(set(parts[0]).intersection(*parts[1:]))
    if not shared:
        return 0.0
    counts, degrees = np.array([[p[b] for b in shared] for p in parts], np.float64).transpose(2, 0, 1)
    least = None
    for k, term in enumerate(counts):
        for j, degree in enumerate(degrees):
            if j != k:
                term = term * degree
        least = term if least is None else np.minimum(least, term)
    return float(np.add.accumulate(least)[-1])


def bound_sketch_estimates(q: QueryPattern, catalog: StatisticsCatalog) -> list[PartialEstimate]:
    """Upper bounds used as estimates, for edges and stars (`_joined_bound`);
    a directed 2-chain is the two-branch star at its middle vertex."""
    if not catalog.sketches or catalog.basic is None or catalog.basic.n_ids == 0:
        return []
    sketch = catalog.sketches[0]
    n_ids_g = catalog.basic.n_ids
    cq = q.compiled
    # single edges, as one-branch stars: the sketch stores exact per-pattern
    # counts, but they are stated as bounds like the rest, so that dedup
    # keeps synopsis:EP
    shapes = [([(ep, True)], mask) for ep, mask in _edge_patterns(q)]
    shapes += [(branches, shape_mask(q, edges)) for branches, edges in _labeled_stars(q)]
    out: list[PartialEstimate] = []
    for branches, mask in shapes:
        parts = [sketch.partition(*ep, "src" if outgoing else "trg") for ep, outgoing in branches]
        sel = _count_sel(_joined_bound(parts), n_ids_g, cq.ids_of(mask).bit_count())
        out.append(cq.estimate(mask, sel, "sketch", "upper"))
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
    cq = q.compiled
    out: list[PartialEstimate] = []
    for store in catalog.char_sets:
        for center in sorted(q.vertices):
            info = cs_pattern_of(q, center, direction=store.direction)
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
            mask = info["mask"]
            sel = _count_sel(card, n_ids_g, cq.ids_of(mask).bit_count())
            out.append(cq.estimate(mask, sel, "cs", "estimate"))
    return out


# ---------------------------------------------------------------------------
# Sampling


def _hits(sample: Sample, checks: Sequence[Iterable[Constraint]], among: Optional[np.ndarray] = None) -> int:
    """How many members, of those `among` marks (all by default), meet
    checks[0] on their record, checks[1] on `src` and checks[2] on `trg`.
    Each check is one `graph.allowed` mask over the sample's view, sliced
    to its slot's records."""
    records, n = sample.view.records, len(sample.members)
    hits = np.ones(n, bool) if among is None else among
    for slot, check in enumerate(checks):
        hits = hits & allowed(records, check)[slot * n : (slot + 1) * n]
    return int(np.count_nonzero(hits))


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
    cq = q.compiled
    out: list[PartialEstimate] = []
    groups = q.data_by_id

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
                among = sample.view.vertex if is_vertex else ~sample.view.vertex
                size = int(np.count_nonzero(among))
                if not size:
                    continue
                population = basic.n_vertices if is_vertex else basic.n_edges
                sel = (_hits(sample, [groups[i]], among) / size) * _count_sel(population, n_ids_g, 1)
                out.append(cq.estimate(cq.within((i,)), _clamp(sel), tag, "estimate"))

        elif sample.pattern_type == "edge_pattern":
            for e in sorted(q.edges):
                s, t = q.endpoints[e]
                loop = s == t
                # a loop member's trg is its src, so checking it again moves no hit
                checks = [groups.get(i, frozenset()) for i in (e, s, t)]
                hits = _hits(sample, checks, sample.view.loop if loop else None)
                sel = (hits / len(sample.members)) * _count_sel(basic.n_edges, n_ids_g, 2 if loop else 3)
                out.append(cq.estimate(cq.within((e, s, t)), _clamp(sel), tag, "estimate"))
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


class _Walks(NamedTuple):
    """The completed walks of one walk shape on a graph, in walk order:
    ids[slot, w] is the id the w-th of them mapped to that slot, and
    inv_prob[w] is the inverse of its probability.  Stored, so read-only."""

    ids: np.ndarray
    inv_prob: np.ndarray


def _walk_store(g: PropertyGraph) -> dict[tuple, _Walks]:
    """The graph's completed walks, per (walk shape, walks, seed): at most
    walks * (n_slots + 1) * 8 bytes a key, none of them evicted.  Two
    threads that draw one key draw equal tables, and either may be kept."""
    return {}


def _walk(g: PropertyGraph, shape: tuple, walks: int, seed: int) -> _Walks:
    """The completed walks of `walks` drawn from `seed` over a walk shape
    (first target slot, steps, number of slots); see `wander_join_estimate`."""
    f_t, steps, n_slots = shape
    randrange = random.Random(seed).randrange
    nv, ne = g.n_vertices, g.n_edges
    loop = f_t == 1
    m = [0] * n_slots
    done: list[int] = []
    inv_probs: list[float] = []
    for _ in range(walks):
        first = nv + randrange(ne)
        gs, gt = g.endpoints(first)
        if loop and gs != gt:
            continue
        inv_prob = float(ne)
        m[0], m[1], m[f_t] = first, gs, gt
        for e, s, t, forward, check in steps:
            cands = g.out_edges(m[s]) if forward else g.in_edges(m[t])
            if not cands:
                break
            choice = cands[randrange(len(cands))]
            inv_prob *= len(cands)
            cgs, cgt = g.endpoints(choice)
            if check and m[t] != cgt:
                break
            m[e], m[s], m[t] = choice, cgs, cgt
        else:
            done.extend(m)
            inv_probs.append(inv_prob)
    table = _Walks(np.array(done, np.int64).reshape(-1, n_slots).T.copy(), np.array(inv_probs, np.float64))
    for a in table:
        a.flags.writeable = False
    return table


def wander_join_estimate(
    q: QueryPattern,
    g: PropertyGraph,
    walks: int = 1000,
    seed: int = 0,
) -> Optional[PartialEstimate]:
    """Unbiased cardinality estimate from random walks over the query's
    edges; covers every constraint on ids reachable by the walk plan.

    The plan is compiled into slots: each covered query id is an index
    into the walk's mapping `m`, numbered in plan order (the first edge
    0, its source 1), and each step after the first is (edge, source,
    target, forward, check): it extends from its source along out-edges
    or from its target along in-edges, and `check` says that its other
    endpoint is mapped already, so the chosen edge must agree with it.  A
    completed walk thus satisfies every topology constraint by
    construction.  Each index is `randrange(n)` of one
    `random.Random(seed)`.

    The draws read only the plan's shape, so the completed walks of each
    (shape, walks, seed) are drawn once per graph and kept in its walk
    store (`_walk_store`); each call then checks the covered ids' data
    constraints on them, one `allowed` mask per id read at its slot's
    ids, and adds the hits' inverse probabilities one after another in
    walk order, as the walk itself would.
    """
    plan = walk_plan(q)
    if plan is None or g.n_edges == 0 or g.n_ids == 0 or walks < 1:
        return None
    slots: dict[str, int] = {}
    slot = lambda i: slots.setdefault(i, len(slots))  # noqa: E731
    s0, t0 = q.endpoints[plan[0]]
    slot(plan[0])
    slot(s0)
    f_t = slot(t0)
    steps: list[tuple[int, int, int, bool, bool]] = []
    for e in plan[1:]:
        s, t = q.endpoints[e]
        forward = s in slots
        check = forward and t in slots
        steps.append((slot(e), slot(s), slot(t), forward, check))
    key = ((f_t, tuple(steps), len(slots)), walks, seed)
    store = g.derived(_walk_store)
    table = store.get(key)
    if table is None:
        table = store[key] = _walk(g, *key)
    hits = np.ones(len(table.inv_prob), bool)
    for i, cs in q.data_by_id.items():
        if i in slots:
            hits &= allowed(g, cs)[table.ids[slots[i]]]
    chosen = table.inv_prob[hits]
    successes = len(chosen)
    # in walk order, one after another: np.sum would add pairwise
    total = float(np.add.accumulate(chosen)[-1]) if successes else 0.0
    sel = _count_sel(total / walks, g.n_ids, len(slots))
    provenance = "wj" if successes else "wj:low_confidence"
    cq = q.compiled
    return cq.estimate(cq.within(frozenset(slots)), sel, provenance, "estimate")


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
    cq = q.compiled
    values = cq.kinds((ConstraintKind.PROP_VALUE,))
    out: list[PartialEstimate] = []
    for i, group in sorted(q.data_by_id.items()):
        # canonical order: md_fraction's float product depends on it
        preds = sorted((c for c in group if c.kind is ConstraintKind.PROP_VALUE), key=Constraint.sort_key)
        if len(preds) < 2:
            continue
        if any(c.op not in _MD_OPS for c in preds):
            continue
        keys = {c.key for c in preds}
        for mdh in catalog.md_histograms:
            if not keys <= set(mdh.keys):
                continue
            frac = md_fraction(mdh, [(c.key, c.op, c.value) for c in preds])
            sel = frac * _count_sel(mdh.total, n_ids_g, 1)
            out.append(cq.estimate(cq.within((i,)) & values, _clamp(sel), "mdh", "estimate"))
            break
    return out
