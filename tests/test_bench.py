import hashlib
import math
import random
import time

import pytest

from cardest.bench import (
    GraphSpec,
    PropSpec,
    enumerate_subqueries,
    generate_graph,
    qerror,
    run_workload,
    summarize,
    write_csv,
)
from cardest.engine import EstimatorConfig
from cardest.stats import build_catalog

from conftest import MOVIE_QUERY_DOC, TWO_CHAIN_DOC


class TestQError:
    def test_examples(self):
        assert qerror(2, 2) == 1
        assert qerror(10, 1) == 10
        assert qerror(0.4, 4.0) == pytest.approx(10)

    def test_zero_handling(self):
        assert qerror(0.0, 0.0) == 1.0
        assert qerror(0.0, 5.0) == math.inf
        assert qerror(5.0, 0.0) == math.inf

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            qerror(-1, 1)


class TestGenerateGraph:
    def test_reproducible_fingerprint(self):
        spec = GraphSpec(n_vertices=40, n_edges=80)
        g1 = generate_graph(spec, seed=5)
        g2 = generate_graph(spec, seed=5)
        assert g1.fingerprint() == g2.fingerprint()
        g3 = generate_graph(spec, seed=6)
        assert g1.fingerprint() != g3.fingerprint()

    def test_zero_correlation_knob(self):
        spec = GraphSpec(
            n_vertices=4000,
            n_edges=0,
            vertex_labels=("L0", "L1"),
            props=(PropSpec("k", base_prob=0.3, given="L0", boost=0.0),),
        )
        g = generate_graph(spec, seed=1)
        with_label = [v for v in g.vertices if "L0" in g.labels_of(v)]
        p_given = sum(1 for v in with_label if "k" in g.props_of(v)) / len(with_label)
        p_all = sum(1 for v in g.vertices if "k" in g.props_of(v)) / g.n_vertices
        assert abs(p_given - p_all) < 0.05

    def test_positive_correlation_knob(self):
        spec = GraphSpec(
            n_vertices=4000,
            n_edges=0,
            vertex_labels=("L0", "L1"),
            props=(PropSpec("k", base_prob=0.2, given="L0", boost=0.8),),
        )
        g = generate_graph(spec, seed=1)
        with_label = [v for v in g.vertices if "L0" in g.labels_of(v)]
        without = [v for v in g.vertices if "L0" not in g.labels_of(v)]
        p_yes = sum(1 for v in with_label if "k" in g.props_of(v)) / len(with_label)
        p_no = sum(1 for v in without if "k" in g.props_of(v)) / len(without)
        assert p_yes > p_no + 0.3

    def test_thousand_elements_fast(self):
        start = time.perf_counter()
        g = generate_graph(GraphSpec(n_vertices=400, n_edges=600), seed=0)
        assert g.n_ids == 1000
        assert time.perf_counter() - start < 1.0

    def test_skewed_32k_edges_fast(self):
        """Skewed sources are drawn in O(log V) each: drawing each one
        from the raw weights, O(V) per edge, took 9-10 s at this size on
        a 2-vCPU x86-64 host."""
        start = time.perf_counter()
        g = generate_graph(GraphSpec(n_vertices=8000, n_edges=32000, degree_exponent=0.8), seed=0)
        assert g.n_ids == 40000
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "n_vertices, n_edges, degree_exponent, field",
        [(0, 3, 0.8, "n_vertices"), (0, 3, 0.0, "n_vertices"), (-1, 0, 0.0, "n_vertices"), (5, -1, 0.0, "n_edges")],
    )
    def test_rejects_impossible_sizes(self, n_vertices, n_edges, degree_exponent, field):
        """Edges need a vertex to start from, and no count is negative."""
        with pytest.raises(ValueError, match=f"GraphSpec.{field} must be"):
            generate_graph(GraphSpec(n_vertices=n_vertices, n_edges=n_edges, degree_exponent=degree_exponent))

    def test_degree_skew(self):
        flat = generate_graph(GraphSpec(n_vertices=200, n_edges=2000), seed=2)
        skewed = generate_graph(
            GraphSpec(n_vertices=200, n_edges=2000, degree_exponent=1.5), seed=2
        )
        max_flat = max(len(flat.out_edges(v)) for v in flat.vertices)
        max_skew = max(len(skewed.out_edges(v)) for v in skewed.vertices)
        assert max_skew > max_flat


class TestSubqueries:
    def test_connected_only(self, movie_query):
        subs = enumerate_subqueries(movie_query, 2)
        assert len(subs) == 4 + 4  # four single edges, four connected pairs
        for _, sub in subs:
            assert len(sub.edges) <= 2

    def test_props_stripped_variant(self, movie_query):
        subs = enumerate_subqueries(movie_query, 4, include_props=False)
        assert all(not sub.prop_constraints for _, sub in subs)
        keep = enumerate_subqueries(movie_query, 4, include_props=True)
        biggest = max(keep, key=lambda p: len(p[1].edges))[1]
        assert len(biggest.prop_constraints) == 3

    @pytest.mark.parametrize("max_edges", [0, -1])
    def test_none_below_one_edge(self, movie_query, max_edges):
        assert enumerate_subqueries(movie_query, max_edges) == []

    def test_full_query_included(self, movie_query):
        subs = enumerate_subqueries(movie_query, 4)
        sizes = {len(sub.edges) for _, sub in subs}
        assert sizes == {1, 2, 3, 4}


class TestRunWorkload:
    def exact_fixture(self):
        spec = GraphSpec(n_vertices=20, n_edges=30, vertex_labels=("L0",), edge_labels=("a",))
        g = generate_graph(spec, seed=3)
        catalog = build_catalog(g, synopses=[("edge", 1), ("chain", 2)])
        return g, catalog

    def test_exact_estimates_give_qerror_one(self):
        g, catalog = self.exact_fixture()
        queries = [("q0", TWO_CHAIN_DOC)]
        configs = [EstimatorConfig(pets=("EP", "c2"), ct="condIndep(NdSa)", name="rich")]
        rows, summary = run_workload(g, queries, configs, catalog=catalog)
        assert all(r.qerror == pytest.approx(1.0) for r in rows)
        assert summary.per_config["rich"]["median"] == pytest.approx(1.0)
        assert set(summary.per_config["rich"]) == {"count", "median", "max"}

    def test_oracle_budget_skips_and_records(self):
        g, catalog = self.exact_fixture()
        rows, summary = run_workload(
            g,
            [("q0", TWO_CHAIN_DOC)],
            [EstimatorConfig(name="c")],
            oracle_budget=3,
            catalog=catalog,
        )
        assert len(rows) == 1
        assert rows[0].exact is None and rows[0].qerror is None
        assert summary.skipped == 1

    def test_repeated_ids_graded_apart(self):
        g, catalog = self.exact_fixture()
        vertex = {"vertices": [{"id": "u"}], "edges": []}
        edge = {
            "vertices": [{"id": "u"}, {"id": "v"}],
            "edges": [{"id": "f", "src": "u", "trg": "v"}],
        }
        rows, _ = run_workload(
            g, [("w", vertex), ("w", edge)], [EstimatorConfig(name="c")], catalog=catalog
        )
        assert [r.exact for r in rows] == [float(g.n_vertices), float(g.n_edges)]

    def test_subquery_modes(self):
        g, catalog = self.exact_fixture()
        rows, _ = run_workload(
            g,
            [("j", MOVIE_QUERY_DOC)],
            [EstimatorConfig(name="c")],
            catalog=catalog,
            subquery_max_edges=2,
            props_mode="both",
        )
        assert len(rows) == 2 * 8  # keep & strip variants of 8 subqueries
        assert any("noprops" in r.query_id for r in rows)

    def test_csv_deterministic(self, tmp_path):
        g, catalog = self.exact_fixture()
        queries = [("q0", TWO_CHAIN_DOC), ("j", MOVIE_QUERY_DOC)]
        configs = [
            EstimatorConfig(pets=("EP",), name="ep"),
            EstimatorConfig(pets=("EP", "c2"), ct="condIndep(NdSa)", name="rich"),
        ]
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        rows1, _ = run_workload(g, queries, configs, catalog=catalog)
        write_csv(rows1, str(p1))
        rows2, _ = run_workload(g, queries, configs, catalog=catalog)
        write_csv(rows2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_richer_stats_do_not_hurt_median(self):
        spec = GraphSpec(
            n_vertices=30,
            n_edges=55,
            vertex_labels=("L0", "L1"),
            edge_labels=("a", "b"),
            degree_exponent=1.0,
        )
        g = generate_graph(spec, seed=9)
        catalog = build_catalog(
            g,
            synopses=[("edge", 1), ("chain", 2), ("source_star", 2), ("target_star", 2)],
        )
        queries = [("q0", TWO_CHAIN_DOC)]
        rng = random.Random(4)
        docs = []
        for i in range(6):
            la = rng.choice(["a", "b"])
            docs.append(
                (
                    f"g{i}",
                    {
                        "vertices": [{"id": "u0"}, {"id": "u1"}, {"id": "u2"}],
                        "edges": [
                            {"id": "f0", "src": "u0", "trg": "u1", "labels": [la]},
                            {"id": "f1", "src": "u1", "trg": "u2"},
                        ],
                    },
                )
            )
        queries += docs
        rich = EstimatorConfig(pets=("EP", "c2", "s2", "t2"), name="rich")
        bare = EstimatorConfig(name="bare")
        rows, summary = run_workload(g, queries, [rich, bare], catalog=catalog)
        assert summary.per_config["rich"]["median"] <= summary.per_config["bare"]["median"]


@pytest.mark.hash_seed
@pytest.mark.parametrize(
    "spec, seed, digest",
    [
        (
            GraphSpec(n_vertices=200, n_edges=2000, degree_exponent=1.5),
            2,
            "cc64a703c0b73e537618bed205701ef94f71958b230765a2c7a2921e2b88cb62",
        ),
        (
            GraphSpec(
                n_vertices=300,
                n_edges=1200,
                vertex_labels=("A", "B", "C"),
                edge_labels=("x", "y", "z"),
                degree_exponent=0.8,
                props=(
                    PropSpec("k1", n_values=10, base_prob=0.4, given="A", boost=0.6),
                    PropSpec("k2", n_values=10, base_prob=0.3, given="k1", boost=0.7),
                    PropSpec("w", n_values=10, base_prob=0.4, on="edge"),
                ),
            ),
            3,
            "e039bebcfbcd723ae04743f00912ea530d60b04bab24dd33cc664d1ddaa25b22",
        ),
    ],
    ids=["exponent-1.5", "benchmark-like"],
)
def test_skewed_graph_golden_fingerprint(spec, seed, digest):
    """Seeded skewed graphs, one like the benchmark's (three labels each,
    correlated vertex keys, an edge key), keep their recorded
    fingerprints: every source and every later draw repeats.

    Hash seed: a draw taken over a set of labels or keys in its iteration
    order would change the fingerprint.
    """
    assert generate_graph(spec, seed).fingerprint() == digest


@pytest.mark.hash_seed
def test_csv_golden_digest(tmp_path):
    """The CSV of a seeded workload, with rows past the oracle budget
    (empty exact and qerror fields) and an infinite q-error, hashes to a
    recorded digest.

    Hash seed: the subqueries and their constraint sets are frozensets, so
    rows or sums taken in their iteration order would change the
    digest.
    """
    spec = GraphSpec(
        n_vertices=40,
        n_edges=90,
        vertex_labels=("A", "B"),
        edge_labels=("a", "b"),
        degree_exponent=0.8,
        props=(PropSpec("k", n_values=3, base_prob=0.5),),
    )
    g = generate_graph(spec, seed=5)
    catalog = build_catalog(g, synopses=[("edge", 1), ("chain", 2)], with_sysr=True)
    doc = {
        "vertices": [
            {"id": "u", "labels": ["A"]},
            {"id": "v", "props": [{"key": "k", "op": "<", "value": 2}]},
            {"id": "w"},
            {"id": "x", "labels": ["B"]},
        ],
        "edges": [
            {"id": "e1", "src": "u", "trg": "v", "labels": ["a"]},
            {"id": "e2", "src": "v", "trg": "w"},
            {"id": "e3", "src": "w", "trg": "x", "labels": ["b"]},
        ],
    }
    configs = [
        EstimatorConfig(pets=("EP", "c2"), name="syn"),
        EstimatorConfig(pets=("SysR",), epests=("implied",), ct="bounds"),
    ]
    rows, summary = run_workload(
        g,
        [("q", doc)],
        configs,
        oracle_budget=500,
        catalog=catalog,
        subquery_max_edges=3,
        props_mode="both",
    )
    assert summary.skipped == 2
    path = tmp_path / "rows.csv"
    write_csv(rows, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9a41a19bd2cb9eedece5b6908cf07e9552a7b6498414e2e8051c6e109381c200"
    )
