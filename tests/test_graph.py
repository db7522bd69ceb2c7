import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardest import graph
from cardest.graph import (
    GraphFormatError,
    GraphIntegrityError,
    OracleBudgetError,
    PropertyGraph,
    exact_matches,
    exact_selectivity,
    load_graph,
    save_graph,
)
from cardest.query import Constraint, PredicateKind, parse_query, satisfies
from cardest.stats import _element_record

from conftest import CYCLIC_SHAPES, brute_force_matches, check_constraint, random_graph, random_query


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadGraph:
    def test_g4_counts(self, tmp_path):
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        write_lines(vf, ['{"id": "g1"}', '{"id": "g3"}'])
        write_lines(
            ef,
            [
                '{"id": "g2", "src": "g1", "trg": "g3"}',
                '{"id": "g4", "src": "g3", "trg": "g1"}',
            ],
        )
        g = load_graph(str(vf), str(ef))
        assert g.n_vertices == 2
        assert g.n_edges == 2
        assert g.n_ids == 4

    def test_empty_files(self, tmp_path):
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        write_lines(vf, [])
        write_lines(ef, [])
        g = load_graph(str(vf), str(ef))
        assert g.n_ids == 0

    def test_edge_to_missing_vertex(self, tmp_path):
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        write_lines(vf, ['{"id": "g1"}'])
        write_lines(ef, ['{"id": "g2", "src": "g1", "trg": "nope"}'])
        with pytest.raises(GraphIntegrityError):
            load_graph(str(vf), str(ef))

    def test_duplicate_id(self, tmp_path):
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        write_lines(vf, ['{"id": "g1"}', '{"id": "g1"}'])
        write_lines(ef, [])
        with pytest.raises(GraphIntegrityError):
            load_graph(str(vf), str(ef))

    def test_malformed_line_reports_number(self, tmp_path):
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        write_lines(vf, ['{"id": "g1"}', "{oops"])
        write_lines(ef, [])
        with pytest.raises(GraphFormatError, match=":2"):
            load_graph(str(vf), str(ef))

    def test_round_trip(self, tmp_path):
        rng = random.Random(7)
        g = random_graph(rng, n_vertices=6, n_edges=8)
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        save_graph(g, str(vf), str(ef))
        g2 = load_graph(str(vf), str(ef))
        assert g == g2
        assert g.fingerprint() == g2.fingerprint()


class TestCheckConstraint:
    def test_vertex_true(self, g4):
        m = {"q1": g4.id_of("g1")}
        assert check_constraint(g4, m, Constraint.vertex("q1")) is True

    def test_vertex_false_on_edge(self, g4):
        m = {"q1": g4.id_of("g2")}
        assert check_constraint(g4, m, Constraint.vertex("q1")) is False

    def test_src_true(self, g4):
        m = {"q1": g4.id_of("g1"), "q2": g4.id_of("g2")}
        assert check_constraint(g4, m, Constraint.src("q1", "q2")) is True

    def test_src_false_wrong_vertex(self, g4):
        m = {"q1": g4.id_of("g3"), "q2": g4.id_of("g2")}
        assert check_constraint(g4, m, Constraint.src("q1", "q2")) is False

    def test_data_constraints(self):
        g = PropertyGraph(
            [("v0", ["person"], {"age": 30, "name": "Tima"})],
            [],
        )
        i = g.id_of("v0")
        assert check_constraint(g, {"x": i}, Constraint.has_label("x", "person"))
        assert not check_constraint(g, {"x": i}, Constraint.has_label("x", "movie"))
        assert check_constraint(g, {"x": i}, Constraint.has_key("x", "age"))
        assert not check_constraint(g, {"x": i}, Constraint.has_key("x", "height"))
        from cardest.query import PredicateKind

        pv = Constraint.prop_value("x", "name", PredicateKind.CONTAINS, "Tim")
        assert check_constraint(g, {"x": i}, pv)
        pv2 = Constraint.prop_value("x", "age", PredicateKind.EQ, "30")
        assert not check_constraint(g, {"x": i}, pv2), "cross-type EQ is false"


class TestExactMatches:
    def test_g4_one_edge(self, g4, one_edge_query):
        assert exact_matches(g4, one_edge_query) == 2
        assert exact_selectivity(g4, one_edge_query) == 2 / 4**3

    def test_single_vertex_counts_vertices(self, g4):
        q = parse_query({"vertices": [{"id": "q1"}], "edges": []})
        assert exact_matches(g4, q) == g4.n_vertices

    def test_empty_query(self, g4):
        q = parse_query({"vertices": [], "edges": []})
        assert exact_matches(g4, q) == 1

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_full_enumeration(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n_vertices=4, n_edges=4)
        q = random_query(rng, n_edges=2)
        assert exact_matches(g, q) == brute_force_matches(g, q)

    def test_matches_full_enumeration_larger(self):
        rng = random.Random(99)
        g = random_graph(rng, n_vertices=6, n_edges=6)
        q = random_query(rng, n_edges=2)
        assert exact_matches(g, q) == brute_force_matches(g, q)

    @pytest.mark.parametrize("seed", range(8))
    def test_isomorphic_at_most_homomorphic(self, seed):
        rng = random.Random(1000 + seed)
        g = random_graph(rng, n_vertices=5, n_edges=5)
        q = random_query(rng, n_edges=2)
        iso = exact_matches(g, q, semantics="isomorphic")
        homo = exact_matches(g, q)
        assert iso <= homo
        assert iso == brute_force_matches(g, q, isomorphic=True)

    def test_budget_guard(self):
        rng = random.Random(3)
        g = random_graph(rng, n_vertices=8, n_edges=20, labels=(), keys=())
        q = random_query(rng, n_edges=3, label_prob=0.0, prop_prob=0.0)
        with pytest.raises(OracleBudgetError):
            exact_matches(g, q, budget=5)


def _refusing(target, name):
    """Patch target.name so that a call to it fails the test."""
    return mock.patch.object(target, name, side_effect=AssertionError(f"{name} called"))


def _path_query(n_edges, forward=lambda j: True):
    """u0 - u1 - ... - u<n_edges>; edge j points forward where forward(j)."""
    edges = []
    for j in range(n_edges):
        a, b = f"u{j}", f"u{j + 1}"
        src, trg = (a, b) if forward(j) else (b, a)
        edges.append({"id": f"f{j}", "src": src, "trg": trg})
    return parse_query({"vertices": [{"id": f"u{j}"} for j in range(n_edges + 1)], "edges": edges})


class TestTreeCounter:
    """Degenerate shapes on the bottom-up path.  The backtracker is
    disabled, so each count is the tree counter's own."""

    @pytest.fixture(autouse=True)
    def no_backtracker(self):
        with _refusing(graph._Matcher, "count"):
            yield

    def test_empty_pattern(self, g4):
        empty = parse_query({"vertices": [], "edges": []})
        assert exact_matches(g4, empty) == 1
        assert exact_matches(PropertyGraph([], []), empty) == 1

    def test_single_unconstrained_vertex(self):
        g = random_graph(random.Random(5), n_vertices=7, n_edges=9)
        assert exact_matches(g, parse_query({"vertices": [{"id": "x"}]})) == g.n_vertices

    def test_graph_without_edges(self):
        g = PropertyGraph([("v0", ["a"], {}), ("v1", [], {}), ("v2", ["a"], {})], [])
        one_edge = parse_query(
            {"vertices": [{"id": "x"}, {"id": "y"}], "edges": [{"id": "e", "src": "x", "trg": "y"}]}
        )
        assert exact_matches(g, one_edge) == 0
        two_vertices = parse_query({"vertices": [{"id": "x", "labels": ["a"]}, {"id": "y"}]})
        assert exact_matches(g, two_vertices) == 2 * 3
        assert exact_matches(PropertyGraph([], []), parse_query({"vertices": [{"id": "x"}]})) == 0

    @pytest.mark.parametrize("forward", [lambda j: True, lambda j: j % 2 == 0], ids=["directed", "zigzag"])
    def test_long_path_on_g4(self, g4, forward):
        # every g4 vertex has one out- and one in-edge, so the start vertex
        # fixes the rest of the path: 2 matches whatever the orientation
        assert exact_matches(g4, _path_query(2000, forward)) == 2

    def test_long_path_counts_walks(self):
        # two vertices, all four directed edges: 2 * 2**L walks of length L
        g = PropertyGraph(
            [("a", [], {}), ("b", [], {})],
            [(f"e{s}{t}", s, t, [], {}) for s in "ab" for t in "ab"],
        )
        assert exact_matches(g, _path_query(2000)) == 2 * 2**2000

    def test_budget_selects_backtracker(self, movie_query):
        g = random_graph(random.Random(8), n_vertices=8, n_edges=12)
        exact_matches(g, movie_query)
        with pytest.raises(AssertionError, match="count called"):
            exact_matches(g, movie_query, budget=10**8)


class TestAdjacency:
    def test_g4_out_edges(self, g4):
        assert g4.out_edges(g4.id_of("g1")) == [g4.id_of("g2")]
        assert g4.in_edges(g4.id_of("g1")) == [g4.id_of("g4")]

    def test_unknown_vertex_gives_empty(self, g4):
        assert g4.out_edges(999) == []

    def test_union_recovers_all_edges(self):
        rng = random.Random(11)
        g = random_graph(rng, n_vertices=7, n_edges=12)
        collected = sorted(e for v in g.vertices for e in g.out_edges(v))
        assert collected == sorted(g.edges)


# Scalars that meet across types: bool against int, str against number.
SCALARS = st.sampled_from([True, False, 0, 1, 1.0, 1.5, "", "1", "a", "ab", "b"])


@st.composite
def graphs_with_props(draw):
    """Graphs with multi-label and label-less elements, whose props may
    hold a null value."""
    labels = st.lists(st.sampled_from("ab"), max_size=2)
    props = st.dictionaries(st.sampled_from(["k1", "k2"]), st.none() | SCALARS, max_size=2)
    n_vertices = draw(st.integers(1, 3))
    vertices = [(f"v{i}", draw(labels), draw(props)) for i in range(n_vertices)]
    ends = st.integers(0, n_vertices - 1)
    edges = [
        (f"e{j}", f"v{draw(ends)}", f"v{draw(ends)}", draw(labels), draw(props))
        for j in range(draw(st.integers(0, 3)))
    ]
    return PropertyGraph(vertices, edges)


@st.composite
def data_constraints(draw):
    kind = draw(st.sampled_from(["label", "key", "value"]))
    if kind == "label":
        return Constraint.has_label("x", draw(st.sampled_from("abc")))
    key = draw(st.sampled_from(["k1", "k2", "k3"]))
    if kind == "key":
        return Constraint.has_key("x", key)
    op = draw(st.sampled_from(PredicateKind))
    value = draw(st.lists(SCALARS, max_size=3) if op is PredicateKind.IN else SCALARS)
    return Constraint.prop_value("x", key, op, value)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs_with_props(), st.lists(data_constraints(), max_size=4))
def test_satisfies_matches_check_constraint(g, constraints):
    """`satisfies` agrees with the reference `check_constraint` on a
    graph element and on its sample record as a loaded catalog holds it."""
    for i in range(g.n_ids):
        record = json.loads(json.dumps(_element_record(g, i)))
        views = [(g.labels_of(i), g.props_of(i)), (record["labels"], record["props"])]
        for c in constraints:
            want = check_constraint(g, {"x": i}, c)
            for labels, props in views:
                assert satisfies([c], labels, props) is want, (c, labels, props)
        want = all(check_constraint(g, {"x": i}, c) for c in constraints)
        for labels, props in views:
            assert satisfies(constraints, labels, props) is want


@pytest.mark.parametrize(
    "c", [Constraint.vertex("x"), Constraint.edge("x"), Constraint.src("x", "y"), Constraint.trg("x", "y")]
)
def test_satisfies_rejects_topology_constraints(c):
    with pytest.raises(ValueError, match="not a data constraint"):
        satisfies([c], frozenset(), {})


@st.composite
def oracle_graphs(draw):
    """2-3 vertices and 1-4 edges, self-loops included.  Most elements
    carry labels and endpoints are drawn evenly, so in- and out-degrees
    often differ and a count that mixes up an edge's direction shows."""
    labels = st.sampled_from([[], ["a"], ["b"], ["a", "b"]])
    props = st.dictionaries(st.sampled_from(["k1", "k2"]), SCALARS, max_size=2)
    n_vertices = 3 - draw(st.integers(0, 1))
    vertices = [(f"v{i}", draw(labels), draw(props)) for i in range(n_vertices)]
    ends = st.sampled_from(range(n_vertices))
    edges = [
        (f"e{j}", f"v{draw(ends)}", f"v{draw(ends)}", draw(labels), draw(props))
        for j in range(draw(st.integers(1, 4)))
    ]
    return PropertyGraph(vertices, edges)


@st.composite
def patterns(draw, shape):
    """A query pattern whose edges form a random forest, isolated
    vertices included (shape "forest"), or one of `CYCLIC_SHAPES` (shape
    "cyclic"); every element may carry labels and a property predicate."""
    if shape == "forest":
        n = 3 - draw(st.integers(0, 2))
        edges = []
        for j in range(1, n):
            if draw(st.integers(0, 3)) < 3:
                anchor = f"u{draw(st.integers(0, j - 1))}"
                ends = (anchor, f"u{j}") if draw(st.booleans()) else (f"u{j}", anchor)
                edges.append((f"f{j}", *ends))
        vertex_ids = [f"u{j}" for j in range(n)]
    else:
        edges = CYCLIC_SHAPES[draw(st.sampled_from(sorted(CYCLIC_SHAPES)))]
        vertex_ids = sorted({v for _, s, t in edges for v in (s, t)})
    doc = {
        "vertices": [{"id": v} for v in vertex_ids],
        "edges": [{"id": e, "src": s, "trg": t} for e, s, t in edges],
    }
    for item in doc["vertices"] + doc["edges"]:
        item["labels"] = draw(st.sampled_from([[], [], ["a"], ["b"], ["a", "b"], ["c"]]))
        if draw(st.integers(0, 4)) == 4:
            op = draw(st.sampled_from(PredicateKind))
            value = draw(st.lists(SCALARS, max_size=2) if op is PredicateKind.IN else SCALARS)
            item["props"] = [{"key": draw(st.sampled_from(["k1", "k2"])), "op": op.value, "value": value}]
    return parse_query(doc)


@pytest.mark.parametrize("shape", ["forest", "cyclic"])
@pytest.mark.parametrize("semantics", ["homomorphic", "isomorphic"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_matches_against_references(shape, semantics, data):
    """Unbudgeted and budgeted calls both equal full enumeration.  A
    homomorphic call on a forest without a budget is counted bottom-up;
    every other call runs the backtracker."""
    g = data.draw(oracle_graphs())
    q = data.draw(patterns(shape))
    want = brute_force_matches(g, q, isomorphic=semantics == "isomorphic")
    if shape == "forest" and semantics == "homomorphic":
        with _refusing(graph._Matcher, "count"):
            assert exact_matches(g, q, semantics) == want
    else:
        with _refusing(graph, "_count_forest"):
            assert exact_matches(g, q, semantics) == want
    with _refusing(graph, "_count_forest"):
        assert exact_matches(g, q, semantics, budget=10**8) == want
