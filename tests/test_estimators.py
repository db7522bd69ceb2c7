import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardest.estimators import (
    bound_sketch_estimates,
    char_set_estimates,
    dedup_estimates,
    individual_estimates,
    md_histogram_estimates,
    sample_estimates,
    synopsis_estimates,
    system_r_estimates,
    trust_rank,
    walk_plan,
    wander_join_estimate,
)
from cardest.graph import PropertyGraph, exact_matches, exact_selectivity
from cardest.query import (
    Constraint,
    ConstraintKind,
    PartialEstimate,
    PredicateKind,
    extract_constraints,
    ids_of,
    parse_query,
)
from cardest.stats import (
    CharacteristicSetStore,
    CSEntry,
    StatisticsCatalog,
    build_basic,
    build_catalog,
)

from conftest import (
    CYCLIC_SHAPES,
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
        pes = [pe for pe in synopsis_estimates(q, catalog) if len(ids_of(pe.constraints)) == 7]
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
        chain_pe = next(pe for pe in pes if len(ids_of(pe.constraints)) == 5)
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


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(["tree"] + sorted(CYCLIC_SHAPES)),
    walks=st.integers(1, 200),
)
def test_wander_join_matches_reference_walk(seed, shape, walks):
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
        c = frozenset({Constraint.vertex("a")})
        pes = [
            PartialEstimate(c, 0.4, "sketch"),
            PartialEstimate(c, 0.5, "individual:exact"),
            PartialEstimate(c, 0.3, "sysr"),
        ]
        out = dedup_estimates(pes)
        assert len(out) == 1
        assert out[0].provenance == "individual:exact"

    def test_trust_rank_ordering(self):
        order = [
            "individual:exact",
            "synopsis:EP",
            "cs",
            "sysr",
            "sampling:S(id,0.5)",
            "individual:histogram",
            "sketch",
            "individual:default",
            "ip(id,p)",
        ]
        ranks = [trust_rank(p) for p in order]
        assert ranks == sorted(ranks)
