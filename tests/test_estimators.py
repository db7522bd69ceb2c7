import math
import os
import random
import statistics
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardest.estimators import (
    _joined_bound,
    _walk_store,
    bound_sketch_estimates,
    char_set_estimates,
    dedup_estimates,
    individual_estimates,
    md_histogram_estimates,
    sample_estimates,
    synopsis_estimates,
    system_r_estimates,
    walk_plan,
    wander_join_estimate,
)
from cardest.graph import PropertyGraph, exact_matches, exact_selectivity
from cardest.query import (
    Constraint,
    ConstraintKind,
    PartialEstimate,
    PredicateKind,
    QueryPattern,
    extract_constraints,
    parse_query,
    satisfies,
)
from cardest.stats import (
    CharacteristicSetStore,
    CSEntry,
    StatisticsCatalog,
    build_basic,
    build_catalog,
    load_catalog,
    save_catalog,
)

from conftest import (
    CYCLIC_SHAPES,
    G4_EDGES,
    G4_VERTICES,
    TWO_CHAIN_DOC,
    check_constraint,
    decorated_shape,
    oracle_constraint_sel,
    random_graph,
    random_query,
)


def by_constraints(pes):
    return {pe.constraints: pe for pe in pes}


def singleton(pes, c):
    return by_constraints(pes)[frozenset({c})]


def oracle_sel(g, q, constraints):
    """Exact selectivity of a constraint subset (q only for readability)."""
    return oracle_constraint_sel(g, constraints)


class TestIndividual:
    def test_g4_values(self, g4, one_edge_query):
        catalog = build_catalog(g4)
        pes = individual_estimates(one_edge_query, catalog)
        assert singleton(pes, Constraint.vertex("q1")).selectivity == 0.5
        assert singleton(pes, Constraint.edge("q2")).selectivity == 0.5
        assert singleton(pes, Constraint.src("q1", "q2")).selectivity == 0.125

    def test_default_values(self, g4):
        catalog = build_catalog(g4)  # no prop stats at all
        doc = {
            "vertices": [
                {
                    "id": "a",
                    "props": [
                        {"key": "x", "op": "=", "value": 1},
                        {"key": "x", "op": "!=", "value": 2},
                        {"key": "x", "op": "<", "value": 3},
                        {"key": "y", "op": "CONTAINS", "value": "z"},
                        {"key": "y", "op": "IN", "value": [1, 2]},
                    ],
                }
            ],
            "edges": [],
        }
        q = parse_query(doc)
        pes = individual_estimates(q, catalog)
        got = {
            (pe_c.op, pe.selectivity)
            for pe in pes
            for pe_c in pe.constraints
            if pe_c.kind is ConstraintKind.PROP_VALUE
        }
        assert (PredicateKind.EQ, 0.1) in got
        assert (PredicateKind.NEQ, 0.9) in got
        assert (PredicateKind.LT, 1 / 3) in got
        assert (PredicateKind.CONTAINS, 1 / 3) in got
        assert (PredicateKind.IN, 1 / 3) in got

    def test_exact_lookup_beats_default(self):
        g = PropertyGraph([(f"v{i}", [], {"x": i % 4}) for i in range(8)], [])
        catalog = build_catalog(g, prop_exact=[("x", "=", 1)])
        q = parse_query(
            {"vertices": [{"id": "a", "props": [{"key": "x", "op": "=", "value": 1}]}], "edges": []}
        )
        pes = individual_estimates(q, catalog)
        pv = next(pe for pe in pes if any(c.kind is ConstraintKind.PROP_VALUE for c in pe.constraints))
        assert pv.selectivity == 2 / 8
        assert pv.provenance == "individual:exact"

    def test_histogram_serves_value_predicates(self):
        g = PropertyGraph([(f"v{i}", [], {"x": i}) for i in range(100)], [])
        catalog = build_catalog(g, histogram_keys=[("x", "equi_depth", 10)])
        q = parse_query(
            {"vertices": [{"id": "a", "props": [{"key": "x", "op": "<", "value": 50}]}], "edges": []}
        )
        pes = individual_estimates(q, catalog)
        pv = next(pe for pe in pes if any(c.kind is ConstraintKind.PROP_VALUE for c in pe.constraints))
        assert pv.provenance == "individual:histogram"
        assert pv.selectivity == pytest.approx(50 / 100, rel=0.1)

    def test_sample_fallback_when_histogram_cannot_serve(self):
        g = PropertyGraph(
            [(f"v{i}", [], {"s": "name%d" % (i % 4)}) for i in range(40)], []
        )
        catalog = build_catalog(g, samples=[("id", 1.0, 0)])
        q = parse_query(
            {
                "vertices": [
                    {"id": "a", "props": [{"key": "s", "op": "CONTAINS", "value": "name1"}]}
                ],
                "edges": [],
            }
        )
        pes = individual_estimates(q, catalog)
        pv = next(pe for pe in pes if any(c.kind is ConstraintKind.PROP_VALUE for c in pe.constraints))
        assert pv.provenance == "individual:sample"
        assert pv.selectivity == pytest.approx(10 / 40)

    def test_label_and_key_are_exact(self):
        rng = random.Random(0)
        g = random_graph(rng, n_vertices=9, n_edges=12)
        catalog = build_catalog(g)
        q = parse_query(
            {
                "vertices": [{"id": "a", "labels": ["a"], "props": [{"key": "k1", "op": "=", "value": 0}]}],
                "edges": [],
            }
        )
        pes = individual_estimates(q, catalog)
        lab = singleton(pes, Constraint.has_label("a", "a"))
        assert lab.selectivity == oracle_sel(g, q, lab.constraints)
        key = singleton(pes, Constraint.has_key("a", "k1"))
        assert key.selectivity == oracle_sel(g, q, key.constraints)


class TestSynopsisEstimates:
    def test_g4_edge_selectivity(self, g4, one_edge_query):
        catalog = build_catalog(g4, synopses=[("edge", 1)])
        pes = synopsis_estimates(one_edge_query, catalog)
        assert len(pes) == 1
        assert pes[0].selectivity == 2 / 4**3

    def test_direct_chain_lookup_matches_oracle(self, two_chain_query):
        rng = random.Random(8)
        g = random_graph(rng, n_vertices=5, n_edges=7, labels=("a",))
        catalog = build_catalog(g, synopses=[("chain", 2)])
        pes = synopsis_estimates(two_chain_query, catalog)
        assert len(pes) == 1
        assert pes[0].selectivity == exact_selectivity(g, two_chain_query)

    def test_markov_extension_exact_on_cycle(self):
        # directed 4-cycle: uniform out-degree 1 makes the chain ratio exact
        vertices = [(f"v{i}", [], {}) for i in range(4)]
        edges = [(f"e{i}", f"v{i}", f"v{(i+1)%4}", [], {}) for i in range(4)]
        g = PropertyGraph(vertices, edges)
        q = parse_query(
            {
                "vertices": [{"id": f"u{i}"} for i in range(4)],
                "edges": [
                    {"id": f"f{i}", "src": f"u{i}", "trg": f"u{i+1}"} for i in range(3)
                ],
            }
        )
        catalog = build_catalog(g, synopses=[("chain", 2)])
        pes = [
            pe for pe in synopsis_estimates(q, catalog) if len({i for c in pe.constraints for i in c.ids}) == 7
        ]
        assert len(pes) == 1
        assert pes[0].selectivity == pytest.approx(exact_selectivity(g, q))

    def test_chain_at_max_size_is_direct_lookup(self, two_chain_query):
        rng = random.Random(3)
        g = random_graph(rng, n_vertices=6, n_edges=9, labels=())
        catalog = build_catalog(g, synopses=[("chain", 2)])
        direct = synopsis_estimates(two_chain_query, catalog)[0]
        assert direct.selectivity == exact_selectivity(g, two_chain_query)

    def test_missing_label_key_skips(self, g4, one_edge_query):
        catalog = build_catalog(g4, synopses=[("edge", 1)])
        q = parse_query(
            {
                "vertices": [{"id": "q1", "labels": ["ghost"]}, {"id": "q3"}],
                "edges": [{"id": "q2", "src": "q1", "trg": "q3"}],
            }
        )
        assert synopsis_estimates(q, catalog) == []

    def test_star_lookup_matches_oracle(self):
        rng = random.Random(21)
        g = random_graph(rng, n_vertices=6, n_edges=10, labels=("a", "b"))
        q = parse_query(
            {
                "vertices": [{"id": "c"}, {"id": "w0", "labels": ["a"]}, {"id": "w1"}],
                "edges": [
                    {"id": "f0", "src": "c", "trg": "w0"},
                    {"id": "f1", "src": "c", "trg": "w1", "labels": ["b"]},
                ],
            }
        )
        catalog = build_catalog(g, synopses=[("source_star", 2)])
        pes = synopsis_estimates(q, catalog)
        if pes:  # label combination may be absent in a random graph
            assert pes[0].selectivity == pytest.approx(exact_selectivity(g, q))


class TestSystemR:
    def test_functional_star_is_exact(self):
        # every center has exactly one a-edge and one b-edge
        vertices = [(f"c{i}", [], {}) for i in range(3)]
        vertices += [(f"x{i}", [], {}) for i in range(3)]
        vertices += [(f"y{i}", [], {}) for i in range(3)]
        edges = []
        for i in range(3):
            edges.append((f"ea{i}", f"c{i}", f"x{i}", ["a"], {}))
            edges.append((f"eb{i}", f"c{i}", f"y{i}", ["b"], {}))
        g = PropertyGraph(vertices, edges)
        q = parse_query(
            {
                "vertices": [{"id": "c"}, {"id": "w0"}, {"id": "w1"}],
                "edges": [
                    {"id": "f0", "src": "c", "trg": "w0", "labels": ["a"]},
                    {"id": "f1", "src": "c", "trg": "w1", "labels": ["b"]},
                ],
            }
        )
        catalog = build_catalog(g, with_sysr=True)
        pes = system_r_estimates(q, catalog)
        assert len(pes) == 1
        assert pes[0].selectivity == pytest.approx(exact_selectivity(g, q))

    def test_hand_evaluated_two_edge_star(self):
        # n=4, distinct=2 for both labels, centers overlap fully -> estimate 8
        vertices = [("c0", [], {}), ("c1", [], {}), ("z", [], {})]
        edges = []
        for i, c in enumerate(["c0", "c0", "c1", "c1"]):
            edges.append((f"ea{i}", c, "z", ["a"], {}))
            edges.append((f"eb{i}", c, "z", ["b"], {}))
        g = PropertyGraph(vertices, edges)
        q = parse_query(
            {
                "vertices": [{"id": "c"}, {"id": "w0"}, {"id": "w1"}],
                "edges": [
                    {"id": "f0", "src": "c", "trg": "w0", "labels": ["a"]},
                    {"id": "f1", "src": "c", "trg": "w1", "labels": ["b"]},
                ],
            }
        )
        catalog = build_catalog(g, with_sysr=True)
        pes = system_r_estimates(q, catalog)
        assert len(pes) == 1
        est_card = pes[0].selectivity * g.n_ids ** 5
        assert est_card == pytest.approx(8.0)
        # the oracle agrees here: each center has 2 a-edges and 2 b-edges
        assert exact_matches(g, q) == 8

    def test_empty_edge_pattern_gives_zero(self):
        g = PropertyGraph(
            [("c", [], {}), ("w", [], {}), ("u", [], {})],
            [("e0", "c", "w", ["a"], {}), ("e1", "c", "u", ["a"], {})],
        )
        q = parse_query(
            {
                "vertices": [{"id": "c"}, {"id": "w0"}, {"id": "w1"}],
                "edges": [
                    {"id": "f0", "src": "c", "trg": "w0", "labels": ["a"]},
                    {"id": "f1", "src": "c", "trg": "w1", "labels": ["ghost"]},
                ],
            }
        )
        catalog = build_catalog(g, with_sysr=True)
        pes = system_r_estimates(q, catalog)
        assert len(pes) == 1
        assert pes[0].selectivity == 0.0

    def test_mixed_direction_star_enumerated(self, movie_query):
        rng = random.Random(1)
        g = random_graph(rng, 5, 8)
        catalog = build_catalog(g, with_sysr=True)
        pes = system_r_estimates(movie_query, catalog)
        # id0 has out-edges id1, id3 and in-edge id5: the size-3 mixed star exists
        sizes = {len([c for c in pe.constraints if c.kind is ConstraintKind.EDGE]) for pe in pes}
        assert 3 in sizes


class TestBoundSketch:
    def test_single_bucket_two_chain_formula(self, two_chain_query):
        rng = random.Random(12)
        g = random_graph(rng, n_vertices=6, n_edges=10, labels=())
        catalog = build_catalog(g, sketch_buckets=1)
        pes = bound_sketch_estimates(two_chain_query, catalog)
        chain_pe = next(pe for pe in pes if len({i for c in pe.constraints for i in c.ids}) == 5)
        # reproduce min(|ep_i| * d_j, d_i * |ep_j|) by hand
        n = g.n_edges
        d_src = max(len(g.out_edges(v)) for v in g.vertices)
        d_trg = max(len(g.in_edges(v)) for v in g.vertices)
        expected = min(n * d_src, d_trg * n)
        assert chain_pe.selectivity == pytest.approx(expected / g.n_ids**5)

    def test_empty_pattern_bound_zero(self, g4, one_edge_query):
        catalog = build_catalog(g4, sketch_buckets=2)
        q = parse_query(
            {
                "vertices": [{"id": "q1"}, {"id": "q3"}],
                "edges": [{"id": "q2", "src": "q1", "trg": "q3", "labels": ["ghost"]}],
            }
        )
        pes = bound_sketch_estimates(q, catalog)
        assert pes and all(pe.selectivity == 0.0 for pe in pes)

    @pytest.mark.parametrize("seed", range(10))
    def test_chain_bound_at_least_oracle(self, seed, two_chain_query):
        rng = random.Random(seed)
        g = random_graph(rng, n_vertices=6, n_edges=9)
        catalog = build_catalog(g, sketch_buckets=3, sketch_seed=seed)
        for pe in bound_sketch_estimates(two_chain_query, catalog):
            assert pe.selectivity >= oracle_sel(g, two_chain_query, pe.constraints) - 1e-12


    def test_each_constraint_set_once(self, two_chain_query):
        """A directed 2-chain is the two-branch star at its middle vertex,
        so it is bounded once, as a star, and no set comes twice."""
        rng = random.Random(4)
        for seed in range(6):
            g = random_graph(rng, n_vertices=7, n_edges=12)
            catalog = build_catalog(g, sketch_buckets=3, sketch_seed=seed)
            for q in (two_chain_query, random_query(rng, n_edges=3), random_query(rng, n_edges=4)):
                sets = [pe.constraints for pe in bound_sketch_estimates(q, catalog)]
                assert len(sets) == len(set(sets)), seed


def reference_joined_bound(parts, order):
    """The bound sketch's join bound as a loop per bucket: over the union
    of the branches' buckets, in the given order of that set (a bucket
    some branch lacks counts as (0, 0)), the least per-order term, summed."""
    buckets = set()
    for p in parts:
        buckets.update(p)
    bound = 0.0
    for b in order(buckets):
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


@st.composite
def sketch_partitions(draw):
    """1-5 branches' partitions over 1, 16 or 1000 buckets, sharing some;
    with large degrees a bucket's terms pass 2**53."""
    n_buckets = draw(st.sampled_from([1, 16, 1000]))
    bucket = st.integers(0, n_buckets - 1)
    shared = draw(st.lists(bucket, unique=True, max_size=30))
    top = draw(st.sampled_from([30, 10**6]))
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        p = {}
        for b in shared + draw(st.lists(bucket, unique=True, max_size=6)):
            degree = draw(st.integers(1, top))
            p[b] = (degree * draw(st.integers(1, top)), degree)
        parts.append(p)
    return parts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parts=sketch_partitions())
def test_joined_bound_matches_per_bucket_reference(parts):
    """Over ascending buckets the bound repeats the per-bucket loop bit
    for bit; in the loop's own set order too while the bound stays below
    2**53, as every product and partial sum is then exact (degrees are at
    least 1, so a bucket's least term has no larger factor)."""
    got = _joined_bound(parts)
    assert got.hex() == reference_joined_bound(parts, sorted).hex()
    in_set_order = reference_joined_bound(parts, list)
    if in_set_order < 2**53:
        assert got.hex() == in_set_order.hex()


class TestCharSets:
    def test_formula_hand_evaluation(self):
        store = CharacteristicSetStore(
            entries=[CSEntry(frozenset({"a", "b"}), 10, {"a": 20, "b": 10})]
        )
        catalog = StatisticsCatalog(basic=build_basic(PropertyGraph([("v", [], {})], [])))
        catalog.basic.n_ids = 100  # fixed probability space for the check
        catalog.basic.n_vertices = 100
        catalog.char_sets = [store]
        q = parse_query(
            {
                "vertices": [{"id": "c"}, {"id": "w0"}, {"id": "w1"}],
                "edges": [
                    {"id": "f0", "src": "c", "trg": "w0", "labels": ["a"]},
                    {"id": "f1", "src": "c", "trg": "w1", "labels": ["b"]},
                ],
            }
        )
        pes = char_set_estimates(q, catalog)
        assert len(pes) == 1
        est_card = pes[0].selectivity * 100**5
        assert est_card == pytest.approx(10 * (20 / 10) * (10 / 10))

    def test_unmatched_query_cs_gives_zero(self):
        store = CharacteristicSetStore(entries=[CSEntry(frozenset({"a"}), 5, {"a": 5})])
        g = PropertyGraph([("v", [], {})], [])
        catalog = StatisticsCatalog(basic=build_basic(g), char_sets=[store])
        q = parse_query(
            {
                "vertices": [{"id": "c"}, {"id": "w0"}],
                "edges": [{"id": "f0", "src": "c", "trg": "w0", "labels": ["zz"]}],
            }
        )
        pes = char_set_estimates(q, catalog)
        assert len(pes) == 1
        assert pes[0].selectivity == 0.0

    def test_functional_fixture_exact(self):
        # every vertex: one a-edge, one b-edge, key k -> CS lookup is exact
        vertices = [(f"c{i}", [], {"k": 1}) for i in range(4)]
        vertices += [(f"x{i}", [], {}) for i in range(4)]
        vertices += [(f"y{i}", [], {}) for i in range(4)]
        edges = []
        for i in range(4):
            edges.append((f"ea{i}", f"c{i}", f"x{i}", ["a"], {}))
            edges.append((f"eb{i}", f"c{i}", f"y{i}", ["b"], {}))
        g = PropertyGraph(vertices, edges)
        q = parse_query(
            {
                "vertices": [
                    {"id": "c", "props": [{"key": "k", "op": "=", "value": 1}]},
                    {"id": "w0"},
                    {"id": "w1"},
                ],
                "edges": [
                    {"id": "f0", "src": "c", "trg": "w0", "labels": ["a"]},
                    {"id": "f1", "src": "c", "trg": "w1", "labels": ["b"]},
                ],
            }
        )
        catalog = build_catalog(g, cs_max=100)
        pes = char_set_estimates(q, catalog)
        assert len(pes) == 1
        # the covered set excludes the value predicate but includes the key
        assert pes[0].selectivity == pytest.approx(oracle_sel(g, q, pes[0].constraints))

    def test_key_only_pattern(self, movie_query):
        rng = random.Random(2)
        g = random_graph(rng, 6, 8)
        catalog = build_catalog(g, cs_max=100)
        pes = char_set_estimates(movie_query, catalog)
        centers = {next(iter(c.ids)) for pe in pes for c in pe.constraints if c.kind is ConstraintKind.VERTEX}
        assert "id8" in centers  # key-only star (gender, name)


class TestSampling:
    def test_exhaustive_sample_exact(self):
        rng = random.Random(4)
        g = random_graph(rng, n_vertices=8, n_edges=10)
        catalog = build_catalog(g, samples=[("id", 1.0, 0)])
        q = parse_query(
            {"vertices": [{"id": "a", "labels": ["a"]}], "edges": []}
        )
        pes = sample_estimates(q, catalog)
        assert len(pes) == 1
        assert pes[0].selectivity == pytest.approx(oracle_sel(g, q, pes[0].constraints))

    def test_g4_vertex_fraction(self, g4):
        catalog = build_catalog(g4, samples=[("id", 1.0, 0)])
        q = parse_query({"vertices": [{"id": "a", "labels": []}], "edges": []})
        # no data constraints -> no group -> no PE; add a key to force one
        q2 = parse_query(
            {"vertices": [{"id": "a", "props": [{"key": "zz", "op": "=", "value": 1}]}], "edges": []}
        )
        pes = sample_estimates(q2, catalog)
        assert len(pes) == 1
        assert pes[0].selectivity == 0.0  # no element carries the key

    def test_sampling_mean_close_to_oracle(self):
        rng = random.Random(77)
        g = random_graph(rng, n_vertices=30, n_edges=30)
        q = parse_query({"vertices": [{"id": "a", "labels": ["a"]}], "edges": []})
        truth = oracle_sel(g, q, extract_constraints(q))
        estimates = []
        for seed in range(200):
            catalog = build_catalog(g, samples=[("id", 0.5, seed)])
            pes = sample_estimates(q, catalog)
            if pes:
                estimates.append(pes[0].selectivity)
        mean = statistics.fmean(estimates)
        se = statistics.stdev(estimates) / math.sqrt(len(estimates))
        assert abs(mean - truth) <= 3 * se + 1e-12

    def test_vertex_sample_serves_vertex_groups_only(self):
        rng = random.Random(8)
        g = random_graph(rng, n_vertices=10, n_edges=12)
        catalog = build_catalog(g, samples=[("vertex", 1.0, 0)])
        q = parse_query(
            {
                "vertices": [{"id": "a", "labels": ["a"]}],
                "edges": [],
            }
        )
        pes = sample_estimates(q, catalog)
        assert len(pes) == 1
        assert pes[0].selectivity == pytest.approx(oracle_sel(g, q, pes[0].constraints))
        q_edge = parse_query(
            {
                "vertices": [{"id": "a"}, {"id": "b"}],
                "edges": [{"id": "e", "src": "a", "trg": "b", "labels": ["a"]}],
            }
        )
        assert sample_estimates(q_edge, catalog) == []  # edge group, vertex sample

    def test_edge_pattern_sample_exact_when_full(self, movie_query):
        rng = random.Random(13)
        g = random_graph(rng, n_vertices=6, n_edges=9)
        catalog = build_catalog(g, samples=[("edge_pattern", 1.0, 0)])
        pes = sample_estimates(movie_query, catalog)
        assert len(pes) == 4
        for pe in pes:
            assert pe.selectivity == pytest.approx(oracle_sel(g, movie_query, pe.constraints))


# Scalars that meet across types: 1, 1.0 and True hash alike.
SCALARS = st.sampled_from([True, False, 0, 1, 1.0, 1.5, "", "1", "a"])


@st.composite
def sampled_graphs(draw):
    """Graphs of 1-3 vertices and 0-6 edges, so that self-loops and
    parallel edges are common, with unlabelled and multi-labelled
    elements whose props may hold a null value."""
    labels = st.lists(st.sampled_from("ab"), max_size=2, unique=True)
    props = st.dictionaries(st.sampled_from(["k1", "k2"]), st.none() | SCALARS, max_size=2)
    n_vertices = draw(st.integers(1, 3))
    ends = st.integers(0, n_vertices - 1)
    vertices = [(f"v{i}", draw(labels), draw(props)) for i in range(n_vertices)]
    edges = [
        (f"e{j}", f"v{draw(ends)}", f"v{draw(ends)}", draw(labels), draw(props))
        for j in range(draw(st.integers(0, 6)))
    ]
    return PropertyGraph(vertices, edges)


@st.composite
def one_edge_queries(draw):
    """A query edge, a self-loop or not, whose ids draw labels and predicates."""
    loop = draw(st.booleans())
    vertices = frozenset({"a"} if loop else {"a", "b"})
    endpoints = {"e": ("a", "a" if loop else "b")}
    ids = sorted(vertices | {"e"})
    labels = {i: frozenset(draw(st.sampled_from([(), (), ("a",), ("b",), ("a", "b")]))) for i in ids}
    props = []
    for i in ids:
        for _ in range(draw(st.integers(0, 1))):
            op = draw(st.sampled_from(PredicateKind))
            value = tuple(draw(st.lists(SCALARS, max_size=3))) if op is PredicateKind.IN else draw(SCALARS)
            props.append((i, draw(st.sampled_from(["k1", "k2"])), op, value))
    return QueryPattern(vertices, frozenset({"e"}), endpoints, {i: ls for i, ls in labels.items() if ls}, props)


def reference_hits(members, *checks):
    """How many members meet checks[0] on their record, then checks[1] on
    `src` and checks[2] on `trg`: `satisfies` on one record at a time."""
    for check, slot in zip(checks, (None, "src", "trg")):
        records = members if slot is None else [m[slot] for m in members]
        members = [m for m, r in zip(members, records) if satisfies(check, r["labels"], r["props"])]
    return len(members)


def reference_sample_estimates(q, catalog):
    """Per (provenance, ids covered), the selectivity of every `sampling:`
    and `individual:sample` estimate, scored record by record."""
    basic, groups, out = catalog.basic, q.data_by_id, {}
    for sample in catalog.samples:
        tag, members = f"sampling:S({sample.pattern_type},{sample.probability})", sample.members
        if not members:
            continue
        if sample.pattern_type == "edge_pattern":
            s, t = q.endpoints["e"]
            among = [m for m in members if m.get("loop")] if s == t else members
            hits = reference_hits(among, *(groups.get(i, frozenset()) for i in ("e", s, t)))
            out[tag, frozenset(q.ids)] = (hits / len(members)) * (basic.n_edges / basic.n_ids ** len(q.ids))
            continue
        for i, group in groups.items():
            kind = "vertex" if i in q.vertices else "edge"
            of_kind = [m for m in members if m["kind"] == kind]
            if of_kind:
                population = basic.n_vertices if kind == "vertex" else basic.n_edges
                out[tag, frozenset({i})] = (reference_hits(of_kind, group) / len(of_kind)) * (population / basic.n_ids)
    sample = catalog.sample("id")
    if sample is not None and sample.members:
        for i, key, op, value in q.prop_constraints:
            c = Constraint.prop_value(i, key, op, value)
            out["individual:sample", frozenset({c})] = reference_hits(sample.members, (c,)) / len(sample.members)
    return out


def alone(i, edge, labels, props):
    """The pattern of query id i alone: a vertex, or an edge between two
    vertices that have no constraints."""
    return QueryPattern(
        frozenset({"_s", "_t"} if edge else {i}),
        frozenset({i} if edge else ()),
        {i: ("_s", "_t")} if edge else {},
        {i: labels} if labels else {},
        props,
    )


def exact_count(g, q, provenance, covered):
    """The exact count an estimate of `covered` (ids, or one constraint
    for `individual:sample`) reads over all n_ids ** k mappings."""
    if provenance == "individual:sample":
        (c,) = covered
        props = [(c.ids[0], c.key, c.op, c.value)]
        return sum(exact_matches(g, alone(c.ids[0], edge, frozenset(), props)) for edge in (False, True))
    if len(covered) > 1:
        return exact_matches(g, q)
    (i,) = covered
    props = [p for p in q.prop_constraints if p[0] == i]
    return exact_matches(g, alone(i, i in q.edges, q.labels_of(i), props))


@pytest.mark.hash_seed
@settings(max_examples=150, deadline=None, derandomize=True)
@given(sampled_graphs(), one_edge_queries(), st.integers(0, 3))
@example(
    # 1, 1.0 and True under one key, and a loop query edge that e0 meets;
    # e1 meets it on each of its records but is no loop, e2 holds 1, not True
    PropertyGraph(
        [("v0", ["a"], {"k1": 1}), ("v1", ["a", "b"], {"k1": 1.0}), ("v2", [], {"k1": True, "k2": None})],
        [
            ("e0", "v0", "v0", ["a"], {"k1": True}),
            ("e1", "v0", "v1", [], {"k1": True}),
            ("e2", "v0", "v1", ["b"], {"k1": 1}),
        ],
    ),
    QueryPattern(
        frozenset({"a"}), frozenset({"e"}), {"e": ("a", "a")}, {"a": frozenset({"a"})},
        [("e", "k1", PredicateKind.EQ, True), ("a", "k1", PredicateKind.LEQ, 1)],
    ),
    0,
)
def test_sample_estimates_match_per_record_reference(g, q, seed):
    """Every `sampling:` and `individual:sample` estimate from id, vertex
    and edge-pattern samples in a saved and reloaded catalog equals the
    per-record reference; from full samples, it is the exact count over
    n_ids ** k, k the ids it covers.

    Hash seed: a sample's view numbers its records' label sets,
    frozensets, as a graph does, so a mix-up of their numbers would
    fail here under one seed.
    """
    for pr in (0.5, 1.0):
        built = build_catalog(g, samples=[(pt, pr, seed) for pt in ("id", "vertex", "edge_pattern")])
        with tempfile.TemporaryDirectory() as d:
            save_catalog(built, os.path.join(d, "catalog.json"))
            catalog = load_catalog(os.path.join(d, "catalog.json"))
        got = {}
        for pe in sample_estimates(q, catalog):
            got[pe.provenance, frozenset(i for c in pe.constraints for i in c.ids)] = pe.selectivity
        for pe in individual_estimates(q, catalog):
            if pe.provenance == "individual:sample":
                got[pe.provenance, pe.constraints] = pe.selectivity
        assert got == reference_sample_estimates(q, catalog)
        if pr == 1.0:
            for (provenance, covered), sel in got.items():
                k = 1 if provenance == "individual:sample" else len(covered)
                want = exact_count(g, q, provenance, covered) / g.n_ids**k
                assert sel == pytest.approx(want, rel=1e-12, abs=1e-15), (provenance, covered)


class TestWanderJoin:
    def test_single_edge_exact(self, g4, one_edge_query):
        pe = wander_join_estimate(one_edge_query, g4, walks=50, seed=1)
        assert pe is not None
        assert pe.selectivity == pytest.approx(2 / 4**3)

    def test_g4_two_chain(self, g4, two_chain_query):
        truth = exact_selectivity(g4, two_chain_query)
        for seed in range(30):
            pe = wander_join_estimate(two_chain_query, g4, walks=200, seed=seed)
            assert pe.selectivity == pytest.approx(truth, rel=0.05)

    def test_disconnected_query_gives_none(self):
        doc = {
            "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}, {"id": "d"}],
            "edges": [
                {"id": "e1", "src": "a", "trg": "b"},
                {"id": "e2", "src": "c", "trg": "d"},
            ],
        }
        q = parse_query(doc)
        assert walk_plan(q) is None
        g = PropertyGraph([("v", [], {})], [])
        assert wander_join_estimate(q, g, walks=10, seed=0) is None

    def test_zero_successes_flagged(self, g4):
        q = parse_query(
            {
                "vertices": [{"id": "q1", "labels": ["ghost"]}, {"id": "q3"}],
                "edges": [{"id": "q2", "src": "q1", "trg": "q3"}],
            }
        )
        pe = wander_join_estimate(q, g4, walks=20, seed=0)
        assert pe.selectivity == 0.0
        assert pe.provenance == "wj:low_confidence"

    def test_unbiased_on_random_graph(self):
        rng = random.Random(5)
        g = random_graph(rng, n_vertices=12, n_edges=24, labels=("a",))
        q = parse_query(
            {
                "vertices": [{"id": "u0"}, {"id": "u1"}, {"id": "u2", "labels": ["a"]}],
                "edges": [
                    {"id": "f0", "src": "u0", "trg": "u1"},
                    {"id": "f1", "src": "u1", "trg": "u2"},
                ],
            }
        )
        truth = oracle_sel(g, q, extract_constraints(q))
        means = [
            wander_join_estimate(q, g, walks=400, seed=seed).selectivity for seed in range(40)
        ]
        mean = statistics.fmean(means)
        se = statistics.stdev(means) / math.sqrt(len(means))
        assert abs(mean - truth) <= 3 * se + 1e-12


def reference_wander_join_estimate(q, g, walks=1000, seed=0):
    """The walk as first written: an edge list copied per call, endpoints
    looked up in the mapping at every step, and every constraint checked
    after every completed walk."""
    plan = walk_plan(q)
    if plan is None or g.n_edges == 0 or g.n_ids == 0 or walks < 1:
        return None
    covered_ids = set()
    for e in plan:
        covered_ids.add(e)
        covered_ids.update(q.endpoints[e])
    constraints = frozenset(c for c in extract_constraints(q) if set(c.ids) <= covered_ids)
    rng = random.Random(seed)
    all_edges = list(g.edges)
    total = 0.0
    successes = 0
    for _ in range(walks):
        m = {}
        inv_prob = float(len(all_edges))
        first = all_edges[rng.randrange(len(all_edges))]
        s0, t0 = q.endpoints[plan[0]]
        gs, gt = g.endpoints(first)
        m[plan[0]] = first
        m[s0] = gs
        if t0 in m and m[t0] != gt:
            continue
        m[t0] = gt
        failed = False
        for e in plan[1:]:
            s, t = q.endpoints[e]
            cands = g.out_edges(m[s]) if s in m else g.in_edges(m[t])
            if not cands:
                failed = True
                break
            choice = cands[rng.randrange(len(cands))]
            inv_prob *= len(cands)
            cgs, cgt = g.endpoints(choice)
            if (e in m and m[e] != choice) or (s in m and m[s] != cgs) or (t in m and m[t] != cgt):
                failed = True
                break
            m[e] = choice
            m[s] = cgs
            m[t] = cgt
        if failed:
            continue
        if all(check_constraint(g, m, c) for c in constraints):
            total += inv_prob
            successes += 1
    sel = min(max(total / walks / float(g.n_ids ** len(covered_ids)), 0.0), 1.0)
    return PartialEstimate(constraints, sel, "wj" if successes else "wj:low_confidence")


@pytest.mark.hash_seed
@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(["tree"] + sorted(CYCLIC_SHAPES)),
    walks=st.integers(1, 200),
)
def test_wander_join_matches_reference_walk(seed, shape, walks):
    """The walk's estimate equals the reference walk's bit for bit.

    Hash seed: the walk numbers its query ids in slots, so slots numbered
    in set iteration order would shift the draws under one seed.
    """
    # few vertices and many edges, so self-loops, parallel edges and empty
    # label sets are common and many walks complete
    rng = random.Random(seed)
    g = random_graph(rng, n_vertices=rng.randint(1, 3), n_edges=rng.randint(0, 12))
    if shape == "tree":
        q = random_query(
            rng, n_edges=rng.randint(1, 3), keys=("k1", "k2"), prop_prob=0.15, label_prob=0.25
        )
    else:
        q = decorated_shape(rng, CYCLIC_SHAPES[shape])
    got = wander_join_estimate(q, g, walks, seed)
    want = reference_wander_join_estimate(q, g, walks, seed)
    if want is None:
        assert got is None
        return
    assert got.constraints == want.constraints
    assert got.provenance == want.provenance
    assert got.selectivity.hex() == want.selectivity.hex()


@pytest.mark.hash_seed
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    sequence=st.lists(
        st.tuples(st.sampled_from(["tree"] + sorted(CYCLIC_SHAPES)), st.booleans()), min_size=2, max_size=5
    ),
)
def test_wander_join_warm_store_matches_reference(seed, sequence):
    """A sequence of queries on one graph, each at two seeds and two walk
    counts, equals the reference walk bit for bit: the later queries of
    a shape are scored on the walks the first one stored, under other
    labels and predicates, or none (a bare query).

    Hash seed: the walk numbers its query ids in slots, and the store is
    keyed by them, so slots numbered in set iteration order would read
    another shape's walks under one seed.
    """
    rng = random.Random(seed)
    g = random_graph(rng, n_vertices=rng.randint(1, 3), n_edges=rng.randint(0, 12))
    tree = random_query(rng, n_edges=rng.randint(1, 3))
    shapes = dict(CYCLIC_SHAPES, tree=[(e, *tree.endpoints[e]) for e in sorted(tree.edges)])
    seeds, walk_counts = rng.sample(range(100), 2), rng.sample(range(1, 200), 2)
    for shape, bare in sequence:
        edges = shapes[shape]
        if bare:
            vertex_ids = sorted({v for _, s, t in edges for v in (s, t)})
            edge_docs = [{"id": e, "src": s, "trg": t} for e, s, t in edges]
            q = parse_query({"vertices": [{"id": v} for v in vertex_ids], "edges": edge_docs})
        else:
            q = decorated_shape(rng, edges)
        for walk_seed in seeds:
            for walks in walk_counts:
                got = wander_join_estimate(q, g, walks, walk_seed)
                want = reference_wander_join_estimate(q, g, walks, walk_seed)
                if want is None:
                    assert got is None
                    continue
                assert got.constraints == want.constraints
                assert got.provenance == want.provenance
                assert got.selectivity.hex() == want.selectivity.hex(), (shape, walks, walk_seed)


class TestWalkStore:
    def test_graphs_do_not_share_tables(self, two_chain_query):
        g, twin = (PropertyGraph(G4_VERTICES, G4_EDGES) for _ in range(2))
        first = wander_join_estimate(two_chain_query, g, walks=50, seed=1)
        assert twin.derived(_walk_store) == {}
        assert wander_join_estimate(two_chain_query, twin, walks=50, seed=1) == first
        (key,) = g.derived(_walk_store)
        assert twin.derived(_walk_store)[key] is not g.derived(_walk_store)[key]

    def test_walks_and_seed_key_separate_tables(self, g4, two_chain_query):
        for walks, seed in ((50, 1), (60, 1), (50, 2), (50, 1)):
            wander_join_estimate(two_chain_query, g4, walks=walks, seed=seed)
        store = g4.derived(_walk_store)
        assert sorted((walks, seed) for _, walks, seed in store) == [(50, 1), (50, 2), (60, 1)]
        for table in store.values():
            assert len(table.inv_prob) == table.ids.shape[1] > 0
            for a in table:
                assert not a.flags.writeable

    def test_no_completed_walk_stores_an_empty_table(self):
        # one edge that no walk can extend from its target
        g = PropertyGraph([("v0", [], {}), ("v1", [], {})], [("e0", "v0", "v1", [], {})])
        pe = wander_join_estimate(parse_query(TWO_CHAIN_DOC), g, walks=30, seed=0)
        assert pe.selectivity == 0.0
        assert pe.provenance == "wj:low_confidence"
        (table,) = g.derived(_walk_store).values()
        assert table.ids.shape == (5, 0) and table.inv_prob.shape == (0,)
        assert not table.ids.flags.writeable and not table.inv_prob.flags.writeable


REJECTION_DEGREES = (1, 2, 3, 4, 5, 8, 9, 16, 17)


def rejection_graph():
    """Vertex a<d> has out-degree d and b<d> in-degree d, for degrees at
    and just past powers of two: d - 1 parallel edges a<d> -> b<d>, labelled
    y, and one x edge a<d> -> b<next d>.  That makes 65 = 2**6 + 1 edges,
    so the first edge's draw rejects nearly half of its words too."""
    vertices = [(f"a{d}", ["A"], {"k": d % 3}) for d in REJECTION_DEGREES]
    vertices += [(f"b{d}", ["B"], {}) for d in REJECTION_DEGREES]
    edges = []
    for d, after in zip(REJECTION_DEGREES, REJECTION_DEGREES[1:] + REJECTION_DEGREES[:1]):
        edges += [(f"y{d}.{j}", f"a{d}", f"b{d}", ["y"], {}) for j in range(d - 1)]
        edges.append((f"x{d}", f"a{d}", f"b{after}", ["x"], {"w": d}))
    return PropertyGraph(vertices, edges)


def _edges_query(*edges):
    """A query over the given (id, src, trg, labels) edges whose walks all
    end in a data check on u (k < 2)."""
    ends = sorted({v for _, s, t, _ in edges for v in (s, t)} - {"u"})
    vertices = [{"id": "u", "props": [{"key": "k", "op": "<", "value": 2}]}] + [{"id": v} for v in ends]
    return {
        "vertices": vertices,
        "edges": [{"id": name, "src": s, "trg": t, "labels": labels} for name, s, t, labels in edges],
    }


REJECTION_QUERIES = {
    "edge": _edges_query(("e1", "u", "v", [])),
    "labelled edge": _edges_query(("e1", "u", "v", ["x"])),
    # a backward step: the in-edges of b<d>
    "in-star": _edges_query(("e1", "u", "v", []), ("e2", "w", "v", ["y"])),
    # a closing check: the second edge must end where the first does
    "parallel": _edges_query(("e1", "u", "v", []), ("e2", "u", "v", ["y"])),
    "out-star": _edges_query(("e1", "u", "v", ["y"]), ("e2", "u", "w", [])),
    # backward, then forward from the new source with a closing check
    "in-star closed": _edges_query(("e1", "u", "v", []), ("e2", "w", "v", []), ("e3", "w", "v", ["x"])),
    "in-star fanned": _edges_query(("e1", "u", "v", ["x"]), ("e2", "w", "v", []), ("e3", "w", "z", [])),
}


@pytest.mark.hash_seed
@pytest.mark.parametrize("name", sorted(REJECTION_QUERIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wander_join_draws_like_randrange(name, seed):
    """Every index the walk draws, the first edge's too, takes the words
    `randrange` would take: fan-outs at and just past powers of two, and
    65 edges, reject many words, so one word too few or too many changes
    every later walk.

    Hash seed: the walk numbers its query ids in slots, so slots numbered
    in set iteration order would shift the draws under one seed.
    """
    q = parse_query(REJECTION_QUERIES[name])
    g = rejection_graph()
    assert g.n_edges == 65
    degrees = [0] * len(REJECTION_DEGREES) + list(REJECTION_DEGREES)
    assert sorted(len(g.out_edges(v)) for v in g.vertices) == degrees
    assert sorted(len(g.in_edges(v)) for v in g.vertices) == degrees
    got = wander_join_estimate(q, g, 600, seed)
    want = reference_wander_join_estimate(q, g, 600, seed)
    assert got.provenance == want.provenance == "wj"
    assert got.constraints == want.constraints
    assert got.selectivity.hex() == want.selectivity.hex()


class TestMDHEstimates:
    def test_pair_estimate(self):
        rng = random.Random(6)
        vertices = [
            (f"v{i}", [], {"x": rng.randint(0, 9), "y": rng.randint(0, 9)}) for i in range(60)
        ]
        g = PropertyGraph(vertices, [])
        catalog = build_catalog(g, md_keys=[("x", "y")])
        q = parse_query(
            {
                "vertices": [
                    {
                        "id": "a",
                        "props": [
                            {"key": "x", "op": "<=", "value": 4},
                            {"key": "y", "op": ">", "value": 5},
                        ],
                    }
                ],
                "edges": [],
            }
        )
        pes = md_histogram_estimates(q, catalog)
        assert len(pes) == 1
        assert all(c.kind is ConstraintKind.PROP_VALUE for c in pes[0].constraints)
        assert 0.0 <= pes[0].selectivity <= 1.0

    def test_each_predicate_counts_once_in_any_order(self):
        """A predicate written twice is one constraint, and the grid reads
        an id's predicates in canonical order, so the order they are
        written in moves no bit either."""
        rng = random.Random(6)
        g = PropertyGraph([(f"v{i}", [], {"x": rng.randint(0, 9), "y": rng.randint(0, 9)}) for i in range(60)], [])
        catalog = build_catalog(g, md_keys=[("x", "y")])
        x, y = {"key": "x", "op": "<", "value": 5}, {"key": "y", "op": "<", "value": 5}
        sels = []
        for props in ([x, y], [y, x], [x, y, x]):
            (pe,) = md_histogram_estimates(parse_query({"vertices": [{"id": "a", "props": props}]}), catalog)
            sels.append(pe.selectivity)
        assert sels[0] == sels[1] == sels[2]

    def test_uncovered_keys_skipped(self):
        g = PropertyGraph([("v", [], {"x": 1, "z": 2})], [])
        catalog = build_catalog(g, md_keys=[("x", "z")])
        q = parse_query(
            {
                "vertices": [
                    {
                        "id": "a",
                        "props": [
                            {"key": "x", "op": "=", "value": 1},
                            {"key": "w", "op": "=", "value": 2},
                        ],
                    }
                ],
                "edges": [],
            }
        )
        assert md_histogram_estimates(q, catalog) == []


class TestInvariantsAndDedup:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_estimators_stay_in_range_and_inside_cq(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n_vertices=7, n_edges=10)
        q = random_query(rng, n_edges=3)
        catalog = build_catalog(
            g,
            synopses=[("edge", 1), ("chain", 2), ("source_star", 2), ("target_star", 2)],
            with_sysr=True,
            cs_max=50,
            sketch_buckets=2,
            samples=[("id", 0.8, 1), ("edge_pattern", 0.8, 2)],
        )
        full = extract_constraints(q)
        collected = []
        for fn in (
            individual_estimates,
            synopsis_estimates,
            system_r_estimates,
            bound_sketch_estimates,
            char_set_estimates,
            sample_estimates,
        ):
            collected.extend(fn(q, catalog))
        wj = wander_join_estimate(q, g, walks=40, seed=seed)
        if wj:
            collected.append(wj)
        for pe in collected:
            assert 0.0 <= pe.selectivity <= 1.0
            assert pe.constraints <= full

    def test_dedup_prefers_trusted(self):
        """Exact beats estimate, which beats upper, whatever the
        provenance text; within a kind the technique name decides."""
        c = frozenset({Constraint.vertex("a")})
        q = parse_query({"vertices": [{"id": "a"}]})
        exact = PartialEstimate(c, 0.5, "z", "exact")
        estimate = PartialEstimate(c, 0.3, "b", "estimate")
        upper = PartialEstimate(c, 0.4, "a", "upper")
        assert dedup_estimates([upper, exact, estimate], q) == [exact]
        assert dedup_estimates([upper, estimate], q) == [estimate]
        other = PartialEstimate(c, 0.2, "c", "estimate")
        assert dedup_estimates([other, upper, estimate], q) == [estimate]
