import math
import random

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from cardest.combine import (
    _EMPTY_CELL_RTOL,
    _EMPTY_CELL_SLACK,
    BoundsResult,
    FEASIBILITY_TOL,
    MaxEntError,
    RECURSION_LIMIT,
    SORT_STRATEGIES,
    _order_estimates,
    _singleton_resolver,
    combine_bounds,
    combine_cond_indep,
    combine_max_ent,
    deviation_from_independence,
    IPF_MAX_ITER,
    IPF_TOL,
    MPS_HARD_CAP,
    _solve_max_ent_partition,
    make_complete,
    selectivity_to_cardinality,
)
from cardest.graph import PropertyGraph, exact_selectivity
from cardest.query import (
    CompiledQuery,
    Constraint,
    PartialEstimate,
    PredicateKind,
    compiled_for,
    constraints_for_edges,
    extract_constraints,
    implied_closure,
    parse_query,
    union,
)
from cardest.implications import add_implied_closures
from cardest.stats import BasicStats, StatisticsCatalog, build_catalog

from conftest import (
    CYCLIC_SHAPES,
    decorated_shape,
    oracle_constraint_sel,
    random_graph,
    random_query,
)

MOVIE_DB_VERTICES = 52639796
MOVIE_DB_EDGES = 119343754
MOVIE_DB_IDS = 171983550


def movie_catalog_stub():
    return StatisticsCatalog(basic=BasicStats(MOVIE_DB_VERTICES, MOVIE_DB_EDGES, MOVIE_DB_IDS))


def worked_example_pes(movie_query):
    """The five partial estimates of the worked estimation example."""
    sysr1 = constraints_for_edges(movie_query, ("id1", "id3", "id5"))
    sysr2 = constraints_for_edges(movie_query, ("id5", "id7"))
    ep3 = constraints_for_edges(movie_query, ("id5",))
    gender = Constraint.prop_value("id8", "gender", PredicateKind.EQ, "m")
    name = Constraint.prop_value("id8", "name", PredicateKind.CONTAINS, "Tim")
    note = Constraint.prop_value(
        "id6", "note", PredicateKind.IN, ("(producer)", "(executive producer)")
    )
    ip1 = frozenset(
        {gender, name, Constraint.has_key("id8", "gender"), Constraint.has_key("id8", "name")}
    )
    ip2 = frozenset({note, Constraint.has_key("id6", "note")})
    assert len(sysr1) == 20 and len(sysr2) == 14 and len(ep3) == 8
    return [
        PartialEstimate(sysr1, 4.26e-52, "sysr"),
        PartialEstimate(sysr2, 2.41e-34, "sysr"),
        PartialEstimate(ep3, 7.13e-18, "synopsis:EP"),
        PartialEstimate(ip1, 1.50e-4, "ip(id,p)"),
        PartialEstimate(ip2, 1.38e-2, "ip(id,p)"),
    ]


def exact_singletons(g, q):
    return [
        PartialEstimate(frozenset({c}), oracle_constraint_sel(g, [c]), "individual:exact")
        for c in sorted(extract_constraints(q), key=lambda c: c.sort_key())
    ]


class TestMakeComplete:
    def test_complete_input_unchanged(self, g4, one_edge_query):
        catalog = build_catalog(g4)
        pes = exact_singletons(g4, one_edge_query)
        assert make_complete(list(pes), one_edge_query, catalog) == pes

    def test_empty_input_one_edge(self, g4, one_edge_query):
        catalog = build_catalog(g4)
        out = make_complete([], one_edge_query, catalog)
        assert len(out) == 5
        assert all(len(pe.constraints) == 1 for pe in out)

    def test_single_missing_constraint(self, g4):
        catalog = build_catalog(g4)
        q = parse_query(
            {
                "vertices": [{"id": "a", "props": [{"key": "k", "op": "=", "value": 1}]}],
                "edges": [],
            }
        )
        pv = Constraint.prop_value("a", "k", PredicateKind.EQ, 1)
        partial = [
            PartialEstimate(frozenset({Constraint.vertex("a")}), 0.5, "x"),
            PartialEstimate(frozenset({Constraint.has_key("a", "k")}), 0.0, "x"),
        ]
        out = make_complete(partial, q, catalog)
        added = [pe for pe in out if pe not in partial]
        assert len(added) == 1
        assert added[0].constraints == frozenset({pv})
        assert added[0].selectivity == 0.1  # default for equality


class TestDeviation:
    # resolve looks singletons up by bit: vertex(a) is bit 0, edge(b) bit 1
    a, b = Constraint.vertex("a"), Constraint.edge("b")
    cq = CompiledQuery([a, b])

    def test_singleton_is_one(self):
        pe = PartialEstimate(frozenset({self.a}), 0.5, "x")
        assert deviation_from_independence(pe, {}.__getitem__, self.cq) == 1.0

    def test_ratio_and_symmetry(self):
        a, b = self.a, self.b
        singles = {0: 0.1, 1: 0.01}.__getitem__
        joint_hi = PartialEstimate(frozenset({a, b}), 0.01, "x")
        joint_lo = PartialEstimate(frozenset({a, b}), 0.0001, "x")
        assert deviation_from_independence(joint_hi, singles, self.cq) == pytest.approx(10.0)
        assert deviation_from_independence(joint_lo, singles, self.cq) == pytest.approx(10.0)

    def test_zero_product_sentinel(self):
        a, b = self.a, self.b
        singles = {0: 0.0, 1: 0.5}.__getitem__
        joint = PartialEstimate(frozenset({a, b}), 0.2, "x")
        assert deviation_from_independence(joint, singles, self.cq) == math.inf


def reference_order_estimates(pes, strategy, resolve, cq):
    """The processing order as first written: the maximum-overlap greedy
    recomputes every remaining estimate's closure and rank at every step.
    resolve looks singletons up by bit of cq."""

    def final(pe):
        return (len(pe.constraints), pe.key())

    static = {
        "SaNd": lambda pe: (pe.selectivity, -len(pe.constraints)),
        "Sd": lambda pe: (-pe.selectivity,),
        "NdSa": lambda pe: (-len(pe.constraints), pe.selectivity),
        "NdSd": lambda pe: (-len(pe.constraints), -pe.selectivity),
        "NaSd": lambda pe: (len(pe.constraints), -pe.selectivity),
        "NaSa": lambda pe: (len(pe.constraints), pe.selectivity),
        "Di": lambda pe: (-deviation_from_independence(pe, resolve, cq), pe.selectivity),
    }
    if strategy in static:
        key = static[strategy]
        return sorted(pes, key=lambda pe: key(pe) + final(pe))
    secondary = (
        (lambda pe: (-len(pe.constraints),))
        if strategy == "MoNd"
        else (lambda pe: (-deviation_from_independence(pe, resolve, cq),))
    )
    remaining = sorted(pes, key=lambda pe: secondary(pe) + final(pe))
    ordered = []
    done_impl = frozenset()
    while remaining:
        best = min(
            remaining,
            key=lambda pe: (-len(done_impl & implied_closure(pe.constraints)),)
            + secondary(pe)
            + final(pe),
        )
        remaining.remove(best)
        ordered.append(best)
        done_impl = implied_closure(done_impl | best.constraints)
    return ordered


def reference_cond_indep(pes, q, strategy, catalog=None, depth=0):
    """condIndep as first written: the closure of the processed
    constraints is recomputed for every estimate, and each conditioning
    step calls it again on the estimates inside the shared part."""
    cq, masks = compiled_for(pes, q)
    bit_resolve = _singleton_resolver(cq, pes, masks, catalog)

    def resolve(c):
        return bit_resolve(cq.constraints.index(c))

    done = set()
    result = 1.0
    for pe in reference_order_estimates(pes, strategy, bit_resolve, cq):
        c_impl = implied_closure(pe.constraints)
        done_impl = implied_closure(done) if done else frozenset()
        intersection = done_impl & c_impl
        if not intersection:
            result *= pe.selectivity
        elif intersection != c_impl:
            if pe.selectivity == 0.0:
                result *= 0.0
            elif depth >= RECURSION_LIMIT:
                shared = 1.0
                for c in sorted(intersection, key=lambda c: c.sort_key()):
                    shared *= resolve(c)
                result *= pe.selectivity / max(pe.selectivity, shared)
            else:
                sub = [p for p in pes if p.constraints <= intersection]
                covered = set().union(*(p.constraints for p in sub))
                for c in sorted(intersection - covered, key=lambda c: c.sort_key()):
                    sub.append(PartialEstimate(frozenset({c}), resolve(c), "singleton"))
                shared = reference_cond_indep(sub, q, strategy, catalog, depth + 1)
                result *= pe.selectivity / max(pe.selectivity, shared)
        done |= pe.constraints
    return min(max(result, 0.0), 1.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(["tree"] + sorted(CYCLIC_SHAPES)),
    n_subsets=st.integers(0, 8),
    with_closures=st.booleans(),
    drop_singletons=st.booleans(),
)
def test_order_and_cond_indep_match_reference(seed, shape, n_subsets, with_closures, drop_singletons):
    """With drop_singletons, about half the singleton estimates are
    missing, and both sides read theirs from a catalog: conditioning then
    synthesizes singleton estimates for the shared parts they left
    uncovered."""
    rng = random.Random(seed)
    g = random_graph(rng, n_vertices=rng.randint(1, 3), n_edges=rng.randint(0, 6))
    if shape == "tree":
        q = random_query(rng, n_edges=rng.randint(1, 3), keys=("k1", "k2"))
    else:
        q = decorated_shape(rng, CYCLIC_SHAPES[shape])
    constraints = sorted(extract_constraints(q), key=lambda c: c.sort_key())
    pes = exact_singletons(g, q)
    for _ in range(n_subsets):
        subset = frozenset(rng.sample(constraints, rng.randint(2, min(5, len(constraints)))))
        pes.append(PartialEstimate(subset, oracle_constraint_sel(g, subset), "subset"))
    catalog = None
    if drop_singletons:
        pes = [pe for pe in pes if len(pe.constraints) > 1 or rng.random() < 0.5]
        catalog = build_catalog(g)
    if with_closures:
        pes.extend(add_implied_closures(pes, q))
    rng.shuffle(pes)
    cq = q.compiled
    resolve = _singleton_resolver(cq, pes, list(map(cq.mask_of, pes)), catalog)
    for strategy in SORT_STRATEGIES:
        got = _order_estimates(pes, strategy, resolve, cq)
        assert [pe for _, pe in got] == reference_order_estimates(pes, strategy, resolve, cq), strategy
        assert all(cq.view(closure) == implied_closure(pe.constraints) for closure, pe in got), strategy
        sel = combine_cond_indep(pes, q, strategy, catalog)
        assert sel.hex() == reference_cond_indep(pes, q, strategy, catalog).hex(), strategy


def dense_graph(rng):
    """2-3 vertices and 4-9 edges, most of them labelled and each with a
    k1 value in {0, 1}, so that most small queries have matches."""

    def labels():
        return [l for l in "ab" if rng.random() < 0.75]

    n = rng.randint(2, 3)
    vertices = [(f"v{i}", labels(), {"k1": rng.randint(0, 1)}) for i in range(n)]
    edges = [
        (f"e{j}", f"v{rng.randrange(n)}", f"v{rng.randrange(n)}", labels(), {"k1": rng.randint(0, 1)})
        for j in range(rng.randint(4, 9))
    ]
    return PropertyGraph(vertices, edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n_subsets=st.integers(0, 3))
def test_combiners_hold_with_exact_inputs(seed, n_subsets):
    """With exact singletons and exact subset estimates, the bounds
    enclose the truth; adding the exact full-query estimate, condIndep
    returns the truth under every order that does not process the
    smaller estimates first (Sd, NaSd and NaSa do), and so does maxEnt
    with one partition for every constraint."""
    rng = random.Random(seed)
    g = dense_graph(rng)
    q = random_query(rng, n_edges=rng.randint(1, 2), values=(0, 1))
    constraints = sorted(extract_constraints(q), key=lambda c: c.sort_key())
    assume(len(constraints) <= 14)
    truth = oracle_constraint_sel(g, constraints)
    event("truth is zero" if truth == 0.0 else "truth is positive")
    pes = exact_singletons(g, q)
    for _ in range(n_subsets):
        subset = frozenset(rng.sample(constraints, rng.randint(2, min(5, len(constraints)))))
        pes.append(PartialEstimate(subset, oracle_constraint_sel(g, subset), "subset"))

    bounds = combine_bounds(pes, q)
    assert bounds.lower <= truth * (1 + 1e-9)
    assert truth <= bounds.upper * (1 + 1e-9)

    pes.append(PartialEstimate(frozenset(constraints), truth, "full"))
    for strategy in sorted(set(SORT_STRATEGIES) - {"Sd", "NaSd", "NaSa"}):
        assert combine_cond_indep(pes, q, strategy) == pytest.approx(truth, rel=1e-9, abs=0), strategy
    assert combine_max_ent(pes, q, mps=20) == pytest.approx(truth, rel=1e-6, abs=1e-9)


class TestCondIndep:
    def test_singletons_give_independence_product(self):
        # no constraint implies another here, so every strategy degenerates
        # to the plain independence product
        q = parse_query(
            {
                "vertices": [
                    {
                        "id": "a",
                        "labels": ["l0", "l1", "l2"],
                        "props": [],
                    }
                ],
                "edges": [],
            }
        )
        rng = random.Random(3)
        pes = [
            PartialEstimate(frozenset({c}), rng.uniform(0.05, 0.95), "x")
            for c in sorted(extract_constraints(q), key=lambda c: c.sort_key())
        ]
        expected = 1.0
        for pe in pes:
            expected *= pe.selectivity
        for strategy in SORT_STRATEGIES:
            got = combine_cond_indep(pes, q, strategy)
            assert got == pytest.approx(expected)

    def test_singleton_incidence_conditioning_matches_oracle(self, g4, one_edge_query):
        # src/trg singletons imply vertex/edge membership; conditioning on
        # the shared closure reproduces the exact selectivity under every
        # strategy for this query
        pes = exact_singletons(g4, one_edge_query)
        truth = exact_selectivity(g4, one_edge_query)
        for strategy in SORT_STRATEGIES:
            got = combine_cond_indep(pes, one_edge_query, strategy)
            assert got == pytest.approx(truth)

    def test_g4_one_edge_modi_matches_oracle(self, g4, one_edge_query):
        pes = exact_singletons(g4, one_edge_query)
        sel = combine_cond_indep(pes, one_edge_query, "MoDi")
        assert sel == pytest.approx(1 / 32)
        assert sel == pytest.approx(exact_selectivity(g4, one_edge_query))

    def test_worked_example_regression(self, movie_query):
        pes = worked_example_pes(movie_query)
        sel = combine_cond_indep(pes, movie_query, "NdSa")
        assert sel == pytest.approx(2.98e-74, rel=1e-2)
        card = selectivity_to_cardinality(sel, movie_query, movie_catalog_stub())
        assert card == pytest.approx(3.93, rel=1e-2)

    @pytest.mark.parametrize("strategy", SORT_STRATEGIES)
    def test_input_order_does_not_matter(self, g4, two_chain_query, strategy):
        catalog = build_catalog(g4)
        pes = exact_singletons(g4, two_chain_query)
        pes.append(
            PartialEstimate(
                constraints_for_edges(two_chain_query, ("q2", "q4")),
                exact_selectivity(g4, two_chain_query),
                "synopsis:c2",
            )
        )
        baseline = combine_cond_indep(pes, two_chain_query, strategy, catalog)
        rng = random.Random(1)
        for _ in range(5):
            shuffled = list(pes)
            rng.shuffle(shuffled)
            assert combine_cond_indep(shuffled, two_chain_query, strategy, catalog) == baseline

    def test_fully_covered_pe_is_skipped(self, g4, one_edge_query):
        pes = exact_singletons(g4, one_edge_query)
        full = PartialEstimate(
            extract_constraints(one_edge_query), 0.42, "x"  # deliberately bogus
        )
        # ascending conjunct count: singletons first, the full set is then
        # fully covered and must contribute nothing
        with_full = combine_cond_indep(pes + [full], one_edge_query, "NaSa")
        baseline = combine_cond_indep(pes, one_edge_query, "NaSa")
        assert with_full == baseline

    def test_conditioning_recursion_hits_depth_cap(self):
        # BIG2 is processed first (lowest selectivity among the largest), BIG1
        # conditions on {a,b,c}; that sub-problem conditions P2 on {b}, whose
        # own sub-problem sits at the recursion cap and falls back to the
        # singleton product.  Every factor is hand-computed.
        labels = {name: Constraint.has_label("x", name) for name in "abcde"}
        q = parse_query({"vertices": [{"id": "x", "labels": list("abcde")}], "edges": []})
        singles = [PartialEstimate(frozenset({c}), 0.5, "x") for c in labels.values()]
        p1 = PartialEstimate(frozenset({labels["a"], labels["b"]}), 0.2, "x")
        p2 = PartialEstimate(frozenset({labels["b"], labels["c"]}), 0.3, "x")
        big1 = PartialEstimate(
            frozenset({labels["a"], labels["b"], labels["c"], labels["d"]}), 0.05, "x"
        )
        big2 = PartialEstimate(
            frozenset({labels["a"], labels["b"], labels["c"], labels["e"]}), 0.04, "x"
        )
        pes = singles + [p1, p2, big1, big2]
        got = combine_cond_indep(pes, q, "NdSa")
        # sub-problem {a,b,c}: 0.2 * (0.3 / max(0.3, 0.5)) = 0.12
        expected = 0.04 * (0.05 / 0.12)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_selectivity_pe_zeroes_result(self, g4, one_edge_query):
        pes = exact_singletons(g4, one_edge_query)
        pes.append(
            PartialEstimate(
                frozenset(
                    {Constraint.vertex("q1"), Constraint.src("q1", "q2")}
                ),
                0.0,
                "x",
            )
        )
        assert combine_cond_indep(pes, one_edge_query, "NdSa") == 0.0


def reference_solve_max_ent_partition(
    cq: CompiledQuery,
    part: int,
    pes: list[PartialEstimate],
    masks: list[int],
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """The fit as first written: structural zeros as boolean masks over
    all 2^k atoms, and each marginal step scaling the atoms where it
    holds and those where it does not by two fancy-index multiplies."""
    positions = cq.bits(part)
    atom_ids = np.arange(1 << len(positions))

    def holds(mask: int) -> np.ndarray:
        # the partition's bits of mask, as bits of an atom
        local = sum(1 << j for j, i in enumerate(positions) if mask >> i & 1)
        return (atom_ids & local) == local

    feasible = np.ones(len(atom_ids), dtype=bool)
    for i in positions:
        feasible &= ~holds(1 << i) | holds(cq.closures[i] & part)
    selectivity = {m: pe.selectivity for m, pe in zip(masks, pes)}
    for m, pe in zip(masks, pes):
        pe_closure = cq.closure(m)
        for o, other in zip(masks, pes):
            if o != pe_closure and not o & ~pe_closure and (
                other.selectivity <= pe.selectivity * (1.0 + _EMPTY_CELL_RTOL)
            ):
                feasible &= ~holds(o) | holds(m)
            if o != m and not o & ~m:
                rest = m & ~o
                if rest in selectivity and (
                    other.selectivity + selectivity[rest] - pe.selectivity
                    >= 1.0 - _EMPTY_CELL_SLACK
                ):
                    feasible &= holds(o) | holds(rest)
    atoms = feasible / np.count_nonzero(feasible)
    marginals = []
    for m, pe in zip(masks, pes):
        included = holds(m)
        inside = np.flatnonzero(feasible & included)
        outside = np.flatnonzero(feasible & ~included)
        marginals.append((inside, outside, pe.selectivity))
    worst = math.inf
    for _ in range(max_iter):
        worst = 0.0
        for inside, outside, s in marginals:
            m = float(atoms[inside].sum())
            worst = max(worst, abs(m - s))
            if m == 0.0:
                if s > 1e-15:
                    raise MaxEntError("zero mass on a positive marginal", residual=s)
                continue
            if m >= 1.0 and s < 1.0:
                raise MaxEntError("full mass on a partial marginal", residual=1.0 - s)
            atoms[inside] *= s / m
            if m < 1.0:
                atoms[outside] *= (1.0 - s) / (1.0 - m)
        if worst < tol:
            return atoms
    if worst < FEASIBILITY_TOL:
        return atoms
    raise MaxEntError(f"no convergence after {max_iter} iterations", residual=worst)


def solve_outcome(solve, *args):
    """A fit's atom bytes, or the message and residual of the error it raises."""
    try:
        return solve(*args).tobytes()
    except MaxEntError as e:
        return str(e), e.residual


# selectivities that meet the empty-cell rules exactly, and zero marginals
EXACT_SELS = [0.0, 1e-16, 0.25, 0.5, 0.75, 1.0]
# (A, B, A and B) with A + B - (A and B) >= 1: one of A, B always holds
UNION_SELS = [(0.75, 0.5, 0.25), (0.5, 0.5, 0.0), (1.0, 0.25, 0.25), (0.625, 0.625, 0.25)]


@st.composite
def max_ent_partitions(draw):
    """A partition of one to ten estimates over at most the first 12
    constraints of a 1-2-edge pattern (an implied closure adds only earlier
    bits, so it stays among them), with (cq, part, pes, masks) as the fit
    takes them.  An estimate is a random set at a drawn selectivity or at
    its exact one on a random graph (consistent sets converge at a
    geometric rate: a small max_iter stops them between tolerances), the
    implied closure of one, a set nested in an earlier estimate's closure
    at its selectivity, or two disjoint sets and their union whose parts
    sum to at least 1."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    g = random_graph(rng)
    q = random_query(rng, n_edges=draw(st.integers(1, 2)), prop_prob=0.5, label_prob=0.5)
    cq = q.compiled
    bits = st.integers(0, min(len(cq.constraints), 12) - 1)
    sels = st.one_of(st.sampled_from(EXACT_SELS), st.floats(0.0, 1.0))
    made = []  # (mask, selectivity)
    n_estimates = draw(st.integers(1, 10))
    while len(made) < n_estimates:
        mask = union(1 << i for i in draw(st.sets(bits, min_size=1, max_size=3)))
        shape = draw(st.sampled_from(["set", "exact", "closure", "nested", "union"]))
        if shape == "set":
            made.append((mask, draw(sels)))
        elif shape == "exact":
            made.append((mask, oracle_constraint_sel(g, cq.select(mask))))
        elif shape == "closure":
            made.append((cq.closure(mask), draw(sels)))
        elif shape == "nested" and made:
            outer, sel = made[draw(st.integers(0, len(made) - 1))]
            inner = cq.closure(outer) & mask or cq.closure(outer)
            made.append((inner, sel))
        elif shape == "union" and mask & (mask - 1):
            low = mask & -mask
            made.extend(zip((low, mask & ~low, mask), draw(st.sampled_from(UNION_SELS))))
    part = union(m for m, _ in made) | union(1 << i for i in draw(st.sets(bits, max_size=2)))
    pes = [cq.estimate(m, sel, "drawn", "estimate") for m, sel in made]
    return cq, part, pes, [m for m, _ in made]


def max_ent_marginal(cpes, q, target, mps=MPS_HARD_CAP, tol=1e-12, max_iter=20000):
    """Marginal probability of a constraint subset under the solved
    distribution (single partition)."""
    pes = list(cpes)
    all_constraints = set()
    for pe in pes:
        all_constraints |= pe.constraints
    constraints = sorted(all_constraints, key=lambda c: c.sort_key())
    if len(constraints) > mps:
        raise ValueError("too many constraints for a single partition")
    cq, masks = compiled_for(pes, q)
    atoms = _solve_max_ent_partition(cq, cq.mask(constraints), pes, masks, tol, max_iter)
    mask = sum(1 << constraints.index(c) for c in set(target))
    return float(atoms[(np.arange(len(atoms)) & mask) == mask].sum())


class TestMaxEnt:
    def test_singletons_factorize(self, g4):
        rng = random.Random(0)
        constraints = [Constraint.has_label("a", f"l{i}") for i in range(6)]
        sels = [rng.uniform(0.05, 0.95) for _ in range(6)]
        pes = [
            PartialEstimate(frozenset({c}), s, "x") for c, s in zip(constraints, sels)
        ]
        q = parse_query({"vertices": [{"id": "a", "labels": [f"l{i}" for i in range(6)]}], "edges": []})
        got = combine_max_ent(pes, q, mps=8, tol=1e-12)
        expected = math.prod(sels)
        assert abs(got - expected) < 1e-6

    def test_two_variable_joint(self):
        a, b = Constraint.has_label("x", "a"), Constraint.has_label("x", "b")
        pes = [
            PartialEstimate(frozenset({a}), 0.5, "x"),
            PartialEstimate(frozenset({b}), 0.5, "x"),
            PartialEstimate(frozenset({a, b}), 0.5, "x"),
        ]
        q = parse_query({"vertices": [{"id": "x", "labels": ["a", "b"]}], "edges": []})
        got = combine_max_ent(pes, q, mps=4, tol=1e-12)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_mps_one_is_independence(self, g4, one_edge_query):
        pes = exact_singletons(g4, one_edge_query)
        pes.append(
            PartialEstimate(
                extract_constraints(one_edge_query),
                exact_selectivity(g4, one_edge_query),
                "x",
            )
        )
        got = combine_max_ent(pes, one_edge_query, mps=1)
        expected = 1.0
        for pe in exact_singletons(g4, one_edge_query):
            expected *= pe.selectivity
        assert got == pytest.approx(expected)

    def test_g4_one_edge_matches_oracle(self, g4, one_edge_query):
        # src/trg imply vertex and edge membership: without those structural
        # zeros the fit spreads mass over impossible atoms (0.00195 here)
        pes = exact_singletons(g4, one_edge_query)
        got = combine_max_ent(pes, one_edge_query)
        assert got == pytest.approx(exact_selectivity(g4, one_edge_query), abs=1e-9)

    def test_marginals_reproduced(self, g4, one_edge_query):
        pes = exact_singletons(g4, one_edge_query)
        pair = frozenset({Constraint.vertex("q1"), Constraint.src("q1", "q2")})
        pes.append(PartialEstimate(pair, oracle_constraint_sel(g4, pair), "x"))
        for pe in pes:
            marginal = max_ent_marginal(pes, one_edge_query, pe.constraints)
            assert marginal == pytest.approx(pe.selectivity, abs=1e-9)

    @pytest.mark.parametrize(
        "sel_a, sel_b, sel_ab",
        [
            (0.5, 0.5, 0.5),  # a and b coincide: nothing where only one holds
            (0.5, 0.75, 0.25),  # a or b always holds: nothing where both fail
        ],
    )
    def test_empty_cells_fit_exactly(self, sel_a, sel_b, sel_ab):
        a, b = Constraint.has_label("x", "a"), Constraint.has_label("x", "b")
        pes = [
            PartialEstimate(frozenset({a}), sel_a, "x"),
            PartialEstimate(frozenset({b}), sel_b, "x"),
            PartialEstimate(frozenset({a, b}), sel_ab, "x"),
        ]
        q = parse_query({"vertices": [{"id": "x", "labels": ["a", "b"]}], "edges": []})
        for pe in pes:
            marginal = max_ent_marginal(pes, q, pe.constraints, max_iter=200)
            assert marginal == pytest.approx(pe.selectivity, abs=1e-12)

    def test_tiny_nested_selectivities_keep_their_gap(self):
        # selectivities over several ids lie far below 1e-15; a gap of half
        # of a's mass between a and (a, b) must not be read as a == (a, b).
        # Convergence is judged on absolute residuals, so tol is scaled down
        # with the selectivities.
        a, b = Constraint.has_label("x", "a"), Constraint.has_label("x", "b")
        pes = [
            PartialEstimate(frozenset({a}), 2e-16, "x"),
            PartialEstimate(frozenset({b}), 3e-16, "x"),
            PartialEstimate(frozenset({a, b}), 1e-16, "x"),
        ]
        q = parse_query({"vertices": [{"id": "x", "labels": ["a", "b"]}], "edges": []})
        for order in (pes, pes[::-1]):
            for pe in order:
                marginal = max_ent_marginal(order, q, pe.constraints, tol=1e-28)
                assert marginal == pytest.approx(pe.selectivity, rel=1e-9, abs=0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), n_edges=st.integers(1, 2), data=st.data())
    def test_random_exact_marginals_reproduced(self, seed, n_edges, data):
        rng = random.Random(seed)
        g = random_graph(rng)
        q = random_query(rng, n_edges=n_edges)
        constraints = sorted(extract_constraints(q), key=lambda c: c.sort_key())
        assume(len(constraints) <= 14)
        pes = exact_singletons(g, q)
        i, j = data.draw(
            st.lists(st.integers(0, len(constraints) - 1), min_size=2, max_size=2, unique=True)
        )
        pair = frozenset({constraints[i], constraints[j]})
        pes.append(PartialEstimate(pair, oracle_constraint_sel(g, pair), "pair"))
        for pe in pes:
            marginal = max_ent_marginal(pes, q, pe.constraints)
            assert marginal == pytest.approx(pe.selectivity, abs=1e-6)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        partition=max_ent_partitions(),
        tol=st.sampled_from([IPF_TOL, 1e-12, 0.0]),
        max_iter=st.sampled_from([200, 1, 2, 3, 10]),
    )
    def test_fit_repeats_the_reference_bit_for_bit(self, partition, tol, max_iter):
        """The fit over the feasible atoms returns the bytes the fit over
        all 2^k atoms returns, or raises its message and residual.  A small
        max_iter stops fits before they converge, and tol 0 sends every fit
        that ends within FEASIBILITY_TOL through that check."""
        got = solve_outcome(_solve_max_ent_partition, *partition, tol, max_iter)
        want = solve_outcome(reference_solve_max_ent_partition, *partition, tol, max_iter)
        event(want[0] if isinstance(want, tuple) else "fitted")
        assert got == want

    def test_fit_of_fourteen_constraints_repeats_the_reference(self):
        rng = random.Random(11)
        g = random_graph(rng, n_vertices=8, n_edges=14)
        q = parse_query({
            "vertices": [
                {"id": "x", "labels": ["a"], "props": [{"key": "k1", "op": "<", "value": 2}]},
                {"id": "y", "labels": ["b"]},
                {"id": "z"},
            ],
            "edges": [{"id": "e", "src": "x", "trg": "y"}, {"id": "f", "src": "y", "trg": "z", "labels": ["a"]}],
        })  # fmt: skip
        constraints = sorted(extract_constraints(q), key=lambda c: c.sort_key())
        assert len(constraints) == 14
        pes = exact_singletons(g, q)
        for _ in range(6):
            pair = frozenset(rng.sample(constraints, 2))
            pes.append(PartialEstimate(pair, oracle_constraint_sel(g, pair), "pair"))
        cq, masks = compiled_for(pes, q)
        args = (cq, cq.mask(constraints), pes, masks, IPF_TOL, IPF_MAX_ITER)
        got = _solve_max_ent_partition(*args)
        assert got.tobytes() == reference_solve_max_ent_partition(*args).tobytes()
        assert 0 < np.count_nonzero(got) < len(got) == 1 << 14

    def test_infeasible_system_raises(self):
        a, b = Constraint.has_label("x", "a"), Constraint.has_label("x", "b")
        pes = [
            PartialEstimate(frozenset({a}), 0.9, "x"),
            PartialEstimate(frozenset({b}), 0.9, "x"),
            PartialEstimate(frozenset({a, b}), 0.05, "x"),
        ]
        q = parse_query({"vertices": [{"id": "x", "labels": ["a", "b"]}], "edges": []})
        with pytest.raises(MaxEntError):
            combine_max_ent(pes, q, mps=4, max_iter=300)


class TestBounds:
    def mk(self, ident, s):
        return PartialEstimate(frozenset({Constraint.vertex(ident)}), s, "x")

    def test_lower_bound_worked_example(self, one_edge_query):
        pes = [self.mk("a", 0.8), self.mk("b", 0.7), self.mk("c", 0.9)]
        res = combine_bounds(pes, one_edge_query)
        assert res.lower == pytest.approx(0.4)

    def test_single_pe(self, one_edge_query):
        res = combine_bounds([self.mk("a", 0.6)], one_edge_query)
        assert res.upper == pytest.approx(0.6)
        assert res.lower == pytest.approx(0.6)

    def test_disjoint_product_beats_min(self, one_edge_query):
        pes = [self.mk("a", 0.5), self.mk("b", 0.5)]
        res = combine_bounds(pes, one_edge_query)
        assert res.upper == pytest.approx(0.25)
        assert res.upper < 0.5

    def test_overlapping_ids_not_multiplied(self, one_edge_query):
        a1 = PartialEstimate(frozenset({Constraint.vertex("a")}), 0.5, "x")
        a2 = PartialEstimate(frozenset({Constraint.has_label("a", "l")}), 0.4, "x")
        res = combine_bounds([a1, a2], one_edge_query)
        assert res.upper == pytest.approx(0.4)  # same id: only the min counts

    def test_subset_pruning_for_lower(self, one_edge_query):
        big = PartialEstimate(
            frozenset({Constraint.vertex("a"), Constraint.has_label("a", "l")}), 0.9, "x"
        )
        small = PartialEstimate(frozenset({Constraint.vertex("a")}), 0.95, "x")
        res = combine_bounds([big, small], one_edge_query)
        # without pruning: 1 - (0.05 + 0.1) = 0.85; pruned: 1 - 0.1 = 0.9
        assert res.lower == pytest.approx(0.9)

    @pytest.mark.parametrize("seed", range(8))
    def test_upper_sound_with_exact_pes(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n_vertices=6, n_edges=8)
        q = random_query(rng, n_edges=2)
        pes = exact_singletons(g, q)
        pes.append(
            PartialEstimate(extract_constraints(q), exact_selectivity(g, q), "full")
        )
        res = combine_bounds(pes, q)
        assert res.upper >= exact_selectivity(g, q) - 1e-12

    def test_greedy_fallback_flagged(self, one_edge_query):
        pes = [self.mk(f"v{i}", 0.9) for i in range(30)]
        res = combine_bounds(pes, one_edge_query)
        assert not res.exact_upper
        assert res.upper == pytest.approx(0.9**30)


class TestSelectivityToCardinality:
    def test_g4(self, g4, one_edge_query):
        catalog = build_catalog(g4)
        assert selectivity_to_cardinality(1 / 32, one_edge_query, catalog) == pytest.approx(2.0)

    def test_zero(self, g4, one_edge_query):
        catalog = build_catalog(g4)
        assert selectivity_to_cardinality(0.0, one_edge_query, catalog) == 0.0

    def test_worked_example_scale(self, movie_query):
        card = selectivity_to_cardinality(2.98e-74, movie_query, movie_catalog_stub())
        assert card == pytest.approx(3.93, rel=1e-2)
