import hashlib
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardest import graph
from cardest.bench import GraphSpec, PropSpec, generate_graph
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
from cardest.stats import Sample, _element_record, build_sample

from conftest import (
    CYCLIC_SHAPES,
    G4_EDGES,
    G4_VERTICES,
    ONE_EDGE_DOC,
    brute_force_matches,
    check_constraint,
    decorated_shape,
    random_graph,
    random_query,
)


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

    @pytest.mark.parametrize(
        "line",
        ['{"id": "g1"} {"id": "g2"}', '\ufeff{"id": "g1"}', "3"],
        ids=["trailing-data", "bom", "bare-number"],
    )
    def test_undecodable_line_keeps_json_loads_error(self, tmp_path, line):
        """A line that the fast decoder rejects, or that holds more than
        one value, reports json.loads's own error for it."""
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        write_lines(vf, ['{"id": "g0"}', line])
        write_lines(ef, [])
        try:
            message = f"expected object, got {json.loads(line)!r}"
        except json.JSONDecodeError as exc:
            message = str(exc)
        with pytest.raises(GraphFormatError) as info:
            load_graph(str(vf), str(ef))
        assert str(info.value) == f"{vf}:2: {message}"

    def test_vertex_error_before_edge_file_opens(self, tmp_path):
        """Records stream into the graph, vertices first, so a duplicate
        vertex id raises before a missing edge file is noticed."""
        vf = tmp_path / "v.jsonl"
        write_lines(vf, ['{"id": "g1"}', '{"id": "g1"}'])
        with pytest.raises(GraphIntegrityError, match="duplicate id 'g1'"):
            load_graph(str(vf), str(tmp_path / "missing.jsonl"))

    def test_label_sets_shared(self, tmp_path):
        """Equal label sets are one frozenset object, in a loaded graph and
        in a generated one."""
        spec = GraphSpec(
            n_vertices=40,
            n_edges=120,
            vertex_labels=("A", "B"),
            edge_labels=("a", "b"),
            vertex_label_prob=0.7,
            edge_label_prob=0.7,
        )
        g = generate_graph(spec, seed=3)
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        save_graph(g, str(vf), str(ef))
        for h in (g, load_graph(str(vf), str(ef))):
            sets = [h.labels_of(i) for i in range(h.n_ids)]
            assert len({id(s) for s in sets}) == len(set(sets)) == 5

    def test_one_shot_inputs(self):
        """A graph built from generators equals one built from lists."""
        rng = random.Random(11)
        g = random_graph(rng, n_vertices=7, n_edges=12)
        vertices = [(g.names[v], sorted(g.labels_of(v)), g.props_of(v)) for v in g.vertices]
        edges = [
            (g.names[e], *(g.names[x] for x in g.endpoints(e)), sorted(g.labels_of(e)), g.props_of(e))
            for e in g.edges
        ]
        once = PropertyGraph(iter(vertices), (row for row in edges))
        assert once.fingerprint() == PropertyGraph(vertices, edges).fingerprint() == g.fingerprint()

    def test_round_trip(self, tmp_path):
        rng = random.Random(7)
        g = random_graph(rng, n_vertices=6, n_edges=8)
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        save_graph(g, str(vf), str(ef))
        g2 = load_graph(str(vf), str(ef))
        assert g == g2
        assert g.fingerprint() == g2.fingerprint()

    def test_golden_file_bytes(self, tmp_path):
        """The fingerprint and the saved files of a seeded graph, plus one
        two-label vertex and one self-loop edge, match recorded digests:
        catalogs store the fingerprint, so its bytes must not drift."""
        spec = GraphSpec(
            n_vertices=30,
            n_edges=60,
            vertex_labels=("A", "B"),
            edge_labels=("a", "b"),
            vertex_label_prob=0.7,
            props=(PropSpec("k", n_values=4), PropSpec("w", n_values=3, on="edge")),
        )
        base = generate_graph(spec, seed=2)
        vertices = [(base.names[v], base.labels_of(v), base.props_of(v)) for v in base.vertices]
        vertices.append(("both", ["B", "A"], {"s": "xé", "f": 0.5, "t": True}))
        edges = []
        for e in base.edges:
            s, t = (base.names[x] for x in base.endpoints(e))
            edges.append((base.names[e], s, t, base.labels_of(e), base.props_of(e)))
        edges.append(("loop", "both", "both", ["b"], {"f": -1.25}))
        g = PropertyGraph(vertices, edges)
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        save_graph(g, str(vf), str(ef))
        assert g.fingerprint() == "e4ec7f59eca9db056e954fda01de22bead7dfcae1c8db80c2395bed8e3cf526e"
        assert hashlib.sha256(vf.read_bytes()).hexdigest() == (
            "264e2912d56a8d57446e4f2ee12072e2d63939504fd6dba68092f1521aee0aa8"
        )
        assert hashlib.sha256(ef.read_bytes()).hexdigest() == (
            "a529285e174ef50f77522d44b4bb9f627e4cf70002b05087e0dc01751f3771ec"
        )


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


def test_scaled_is_exact_past_the_float_range():
    """Inside the float range `scaled` multiplies or divides by
    float(n ** k); past it, it is exact and rounded once, and a result
    past the float range reads inf."""
    assert graph.scaled(3.0, 5000, 4) == 3.0 * float(5000**4)
    assert graph.scaled(3, 5000, -4) == 3 / float(5000**4)
    assert graph.scaled(1, 10, -310) == float(Fraction(1, 10**310)) == 1e-310
    assert graph.scaled(1e-300, 10, 400) == float(Fraction(1e-300) * 10**400)
    assert graph.scaled(10**320, 10, -400) == 1e-80  # a count past the float range too
    assert graph.scaled(0.5, 10, 400) == math.inf and graph.scaled(-0.5, 10, 400) == -math.inf
    assert graph.scaled(0.0, 10, 400) == 0.0 and graph.scaled(math.inf, 10, -400) == math.inf


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

    @pytest.mark.parametrize("values", [(1, True), (True, 1)])
    def test_number_and_bool_predicates_both_hold(self, values):
        """`k = 1 AND k = True` has no match (a bool never equals a
        number), in either order; both predicates stay in the constraint
        set, and neither counter compiles the pattern."""
        g = PropertyGraph([("a", [], {"k": 1}), ("b", [], {"k": True}), ("c", [], {"k": 1.0})], [])
        props = [{"key": "k", "op": "=", "value": v} for v in values]
        for budget in (None, 10**8):
            q = parse_query({"vertices": [{"id": "x", "props": props}]})
            assert exact_matches(g, q, budget=budget) == 0
            assert "compiled" not in vars(q)

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

    @pytest.mark.parametrize("loops", [55108, 55109])
    def test_exact_at_the_int64_edge(self, loops):
        # one vertex with `loops` self-loops: loops**4 walks of length 4,
        # which fit in int64 at 55108 and overflow it at 55109
        g = PropertyGraph([("v", [], {})], [(f"e{j}", "v", "v", [], {}) for j in range(loops)])
        assert (loops**4 < 2**63) is (loops == 55108)
        assert exact_matches(g, _path_query(4)) == loops**4

    def test_budget_selects_backtracker(self, movie_query):
        g = random_graph(random.Random(8), n_vertices=8, n_edges=12)
        exact_matches(g, movie_query)
        with pytest.raises(AssertionError, match="count called"):
            exact_matches(g, movie_query, budget=10**8)


def _matcher_cases():
    """(name, graph, query, isomorphic) cases for the backtracker's pins."""
    yield "g4-one-edge", PropertyGraph(G4_VERTICES, G4_EDGES), parse_query(ONE_EDGE_DOC), False
    rng = random.Random(3)
    g = random_graph(rng, n_vertices=8, n_edges=20, labels=(), keys=())
    yield "unlabelled-3-edge", g, random_query(rng, n_edges=3, label_prob=0.0, prop_prob=0.0), False
    rng = random.Random(21)
    g = random_graph(rng, n_vertices=7, n_edges=12)
    yield "labelled-3-edge-iso", g, random_query(rng, n_edges=3), True
    rng = random.Random(9)
    g = random_graph(rng, n_vertices=6, n_edges=14)
    yield "triangle", g, decorated_shape(rng, CYCLIC_SHAPES["triangle"]), False


@pytest.mark.parametrize(
    "name, count, expansions",
    [("g4-one-edge", 2, 6), ("unlabelled-3-edge", 112, 368), ("labelled-3-edge-iso", 1, 52), ("triangle", 14, 86)],
)
def test_backtracker_expansions_pinned(name, count, expansions):
    """The backtracker's expansion count decides which queries fit a
    budget, so it must not move: these are its counts before the data
    masks existed, and a warm layout and column view must not change them."""
    _, g, q, isomorphic = next(case for case in _matcher_cases() if case[0] == name)
    for _ in range(2):
        matcher = graph._Matcher(g, q, isomorphic, 10**8)
        assert matcher.count() == count
        assert matcher.expansions == expansions
        graph.allowed(g, [Constraint.has_label("x", "a"), Constraint.has_key("x", "k1")])


class TestColumns:
    def test_not_built_by_loading(self, tmp_path):
        g = random_graph(random.Random(4), n_vertices=6, n_edges=9)
        vf, ef = tmp_path / "v.jsonl", tmp_path / "e.jsonl"
        save_graph(g, str(vf), str(ef))
        assert graph._columns not in load_graph(str(vf), str(ef))._derived

    def test_built_once_by_a_key_constraint(self):
        """Label-only counts, by the tree counter and the backtracker, do
        not build the view; the first count with a key predicate does."""
        g = random_graph(random.Random(8), n_vertices=8, n_edges=12)
        labelled = [random_query(random.Random(seed), n_edges=3, prop_prob=0.0, label_prob=0.6) for seed in range(4)]
        keyed = parse_query(
            {"vertices": [{"id": "x", "props": [{"key": "k1", "op": ">", "value": 0}]}, {"id": "y"}]}
        )
        with mock.patch.object(graph, "_columns", wraps=graph._columns) as build:
            for q in labelled:
                assert q.labels and not q.prop_constraints
                exact_matches(g, q)
                exact_matches(g, q, budget=10**8)
                exact_matches(g, q, semantics="isomorphic")
            assert build.call_count == 0
            exact_matches(g, keyed)
            columns = g.derived(graph._columns)
            exact_matches(g, keyed, budget=10**8)
            exact_matches(g, keyed)
            assert g.derived(graph._columns) is columns
        assert build.call_count == 1

    def test_content(self):
        g = PropertyGraph(
            [("v0", [], {"k": 1}), ("v1", [], {"k": True, "j": None}), ("v2", [], {"k": 1.0})],
            [("e0", "v1", "v0", [], {"k": True}), ("e1", "v0", "v1", [], {"j": "a"})],
        )
        columns = g.derived(graph._columns)
        assert columns.keys() == {"k", "j"}
        codes, values = columns["k"]
        assert codes.tolist() == [0, 1, 2, 1, -1]
        assert [(type(v), v) for v in values] == [(int, 1), (bool, True), (float, 1.0)]
        codes, values = columns["j"]
        assert codes.tolist() == [-1, 0, -1, -1, 1] and values == [None, "a"]
        mask = graph.allowed(g, [Constraint.prop_value("x", "k", PredicateKind.EQ, True)])
        assert mask.tolist() == [False, True, False, True, False]
        assert graph.allowed(g, [Constraint.has_key("x", "j")]).tolist() == [False, True, False, False, True]

    def test_identity_unchanged(self):
        g = random_graph(random.Random(6), n_vertices=8, n_edges=12)
        twin = random_graph(random.Random(6), n_vertices=8, n_edges=12)
        fingerprint = g.fingerprint()
        graph.allowed(g, [Constraint.has_key("x", "k1")])
        assert graph._columns in g._derived and graph._columns not in twin._derived
        assert g.fingerprint() == fingerprint == twin.fingerprint()
        assert g == twin and twin == g


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


@st.composite
def layout_graphs(draw):
    """Graphs with isolated vertices, self-loops, parallel edges, and
    unlabelled and multi-labelled elements."""
    labels = st.lists(st.sampled_from("abc"), max_size=3)
    n_vertices = draw(st.integers(0, 6))
    vertices = [(f"v{i}", draw(labels), {}) for i in range(n_vertices)]
    edges = []
    if n_vertices:
        ends = st.integers(0, n_vertices - 1)
        for j in range(draw(st.integers(0, 12))):
            edges.append((f"e{j}", f"v{draw(ends)}", f"v{draw(ends)}", draw(labels), {}))
    return PropertyGraph(vertices, edges)


@pytest.mark.hash_seed
@settings(max_examples=200, deadline=None, derandomize=True)
@given(layout_graphs())
def test_layout_matches_brute_force(g):
    """The element layout and the adjacency lists agree with a scan of
    every element's labels and endpoints, and every id the lists hand out
    is an int.

    Hash seed: the label sets are frozensets, numbered at their first
    occurrence, so numbering them in hash order would fail here under
    one seed.
    """
    n = g.n_vertices
    layout = g.derived(graph._elements)
    labels = [g.labels_of(i) for i in range(g.n_ids)]
    assert [layout.sets[s] for s in layout.of.tolist()] == labels
    numbers: dict = {}  # each label set numbered at its first occurrence
    assert layout.of.tolist() == [numbers.setdefault(s, len(numbers)) for s in labels]
    assert len(set(layout.sets)) == len(layout.sets)
    assert list(zip(layout.src.tolist(), layout.trg.tolist())) == list(g._endpoints)

    def at(end, v, ids):
        return [e for e in ids if g._endpoints[e - n][end] == v]

    for (offsets, positions), end in ((layout.out, 0), (layout.into, 1)):
        runs = [positions[offsets[v] : offsets[v + 1]] + n for v in g.vertices]
        assert [r.tolist() for r in runs] == [at(end, v, g.edges) for v in g.vertices]
    assert [g.out_edges(v) for v in g.vertices] == [at(0, v, g.edges) for v in g.vertices]
    assert [g.in_edges(v) for v in g.vertices] == [at(1, v, g.edges) for v in g.vertices]
    for v in (-1, n, g.n_ids, g.n_ids + 1):
        assert g.out_edges(v) == [] and g.in_edges(v) == []

    handed = [g.out_edges(v) + g.in_edges(v) for v in g.vertices]
    assert all(type(i) is int for ids in handed for i in ids)


# Text that JSON must escape or that ASCII cannot hold: quotes,
# backslashes, control characters and non-ASCII, one in and one beyond
# the basic multilingual plane.
TRICKY_TEXT = st.text(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "☃", "𝄞", "a", "b", " "]), max_size=4
)


@st.composite
def record_graphs(draw):
    """Graphs whose names, labels, keys and string values hold tricky
    text, with None, bool, int and float props (NaN and infinities too),
    empty and shared label sets and self-loops."""
    names = draw(st.lists(TRICKY_TEXT, min_size=1, max_size=8, unique=True))
    n_vertices = draw(st.integers(1, min(3, len(names))))
    labels = st.lists(st.sampled_from(["", "a", 'q"', "\\", "\x01", "é", "𝄞"]), max_size=3)
    values = st.none() | st.booleans() | st.integers() | st.floats() | TRICKY_TEXT
    props = st.dictionaries(TRICKY_TEXT, values, max_size=3)
    vertices = [(name, draw(labels), draw(props)) for name in names[:n_vertices]]
    ends = st.sampled_from(names[:n_vertices])
    edges = [(name, draw(ends), draw(ends), draw(labels), draw(props)) for name in names[n_vertices:]]
    return PropertyGraph(vertices, edges)


def reference_record(g, i):
    """Element i as a record of the file format, built as a dict."""
    rec = {"id": g.names[i], "labels": sorted(g.labels_of(i)), "props": g.props_of(i)}
    if g.is_edge(i):
        rec["src"], rec["trg"] = (g.names[x] for x in g.endpoints(i))
    return rec


@pytest.mark.hash_seed
@settings(max_examples=200, deadline=None, derandomize=True)
@given(record_graphs())
def test_record_texts_match_json_dumps(g):
    """The record-text builder writes every element, in any order, as
    json.dumps writes its record with sorted keys, in the file format's
    form and in the compact form; the fingerprint hashes the compact texts
    in name order, vertices first.

    Hash seed: the builder writes one text per label set, a frozenset, so
    labels written in its iteration order would fail here under one
    seed.
    """
    ids = list(range(g.n_ids))[::-1]
    line = [json.dumps(reference_record(g, i), sort_keys=True) for i in ids]
    compact = [json.dumps(reference_record(g, i), sort_keys=True, separators=(",", ":")) for i in ids]
    assert list(graph._record_texts(g, ids, graph._LINE_ENCODER)) == line
    assert list(graph._record_texts(g, ids, graph._RECORD_ENCODER)) == compact
    h = hashlib.sha256()
    for part in (g.vertices, g.edges):
        for i in sorted(part, key=g.names.__getitem__):
            h.update(json.dumps(reference_record(g, i), sort_keys=True, separators=(",", ":")).encode())
    assert g.fingerprint() == h.hexdigest()


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


@pytest.mark.hash_seed
@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs_with_props(), st.lists(data_constraints(), max_size=4))
@example(
    # 1, 1.0 and True hash alike, but True meets only a bool predicate
    PropertyGraph([("v0", [], {"k1": 1}), ("v1", [], {"k1": 1.0}), ("v2", [], {"k1": True})], []),
    [Constraint.prop_value("x", "k1", op, v) for op, v in ((PredicateKind.EQ, True), (PredicateKind.LEQ, 1))],
)
def test_satisfies_matches_check_constraint(g, constraints):
    """`satisfies` agrees with the reference `check_constraint` on a
    graph element and on its sample record as a loaded catalog holds it,
    and so does the data mask on every id of the graph and on every member
    of a full id sample's view, read back as a loaded catalog holds it.

    Hash seed: the data mask decides each distinct label set, a frozenset,
    once, so an answer read back at the wrong set's number would fail
    here under one seed.
    """
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
    sample = Sample.from_dict(json.loads(json.dumps(build_sample(g, "id", 1.0).to_dict())))
    for cs in [[c] for c in constraints] + [constraints]:
        want = [all(check_constraint(g, {"x": i}, c) for c in cs) for i in range(g.n_ids)]
        assert graph.allowed(g, cs).tolist() == want, cs
        assert graph.allowed(sample.view.records, cs).tolist() == want, cs


@pytest.mark.parametrize("seed", range(3))
def test_allowed_with_and_without_labels_matches_brute_force(seed):
    """On a graph with many label sets, the data mask of key and value
    constraints alone (no label set is decided), and with label
    constraints among them, agrees with `check_constraint` on every id;
    each call returns a new array, which callers may change in place."""
    g = random_graph(random.Random(seed), n_vertices=40, n_edges=60, labels=tuple("abcdef"))
    assert len({g.labels_of(i) for i in range(g.n_ids)}) >= 20
    keyed = [Constraint.has_key("x", "k1"), Constraint.prop_value("x", "k2", PredicateKind.LEQ, 1)]
    labelled = [Constraint.has_label("x", "a"), Constraint.has_label("x", "c")]
    for cs in ([], keyed[:1], keyed, labelled, labelled[:1] + keyed):
        want = [all(check_constraint(g, {"x": i}, c) for c in cs) for i in range(g.n_ids)]
        mask = graph.allowed(g, cs)
        assert mask.tolist() == want, cs
        mask[:] = ~mask
        assert graph.allowed(g, cs).tolist() == want, cs


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
    "cyclic"); every element may carry labels and up to two property
    predicates."""
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
        item["props"] = []
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            op = draw(st.sampled_from(PredicateKind))
            value = draw(st.lists(SCALARS, max_size=2) if op is PredicateKind.IN else SCALARS)
            item["props"].append({"key": draw(st.sampled_from(["k1", "k2"])), "op": op.value, "value": value})
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


@st.composite
def indexed_graphs(draw):
    """Up to 8 vertices and 1-12 edges, self-loops and parallel edges
    included.  Elements carry no label, or "a", "b" or both: the same
    names on vertices and on edges."""
    labels = st.sampled_from([[], ["a"], ["b"], ["a", "b"]])

    def props() -> dict:
        key = draw(st.sampled_from(["k1", "k2", None, None]))
        return {} if key is None else {key: draw(SCALARS)}

    n_vertices = draw(st.integers(1, 8))
    vertices = [(f"v{i}", draw(labels), props()) for i in range(n_vertices)]
    ends = st.integers(0, n_vertices - 1)
    edges = []
    for j in range(draw(st.integers(1, 12))):
        shape = draw(st.sampled_from(["any", "any", "loop", "parallel"]))
        if shape == "parallel" and edges:
            s, t = edges[-1][1:3]
        else:
            s = f"v{draw(ends)}"
            t = s if shape == "loop" else f"v{draw(ends)}"
        edges.append((f"e{j}", s, t, draw(labels), props()))
    return PropertyGraph(vertices, edges)


@st.composite
def wide_forests(draw):
    """Forests of 4 to 6 query vertices: each vertex after the first
    hangs off u0 (so stars of 2-3 children are common) or off any earlier
    vertex, and at most one starts a second tree.  Half the elements
    have no label, the others "a", "b" or both; one element may also get
    "c", which no graph element carries, or a property predicate."""
    n = draw(st.integers(4, 6))
    edges, second_tree = [], False
    for j in range(1, n):
        anchor = draw(st.sampled_from(["u0", "earlier", "earlier", "none"]))
        if anchor == "none" and not second_tree:
            second_tree = True
            continue
        a = "u0" if anchor == "u0" else f"u{draw(st.integers(0, j - 1))}"
        edges.append((f"f{j}", a, f"u{j}") if draw(st.booleans()) else (f"f{j}", f"u{j}", a))
    doc = {
        "vertices": [{"id": f"u{j}"} for j in range(n)],
        "edges": [{"id": e, "src": s, "trg": t} for e, s, t in edges],
    }
    items = doc["vertices"] + doc["edges"]
    for item in items:
        item["labels"] = draw(st.sampled_from([[], [], [], ["a"], ["b"], ["a", "b"]]))
    item, extra = draw(st.sampled_from(items)), draw(st.sampled_from(["", "", "c", "props"]))
    if extra == "c":
        item["labels"] = item["labels"] + ["c"]
    elif extra == "props":
        op = draw(st.sampled_from(PredicateKind))
        value = draw(st.lists(SCALARS, max_size=2) if op is PredicateKind.IN else SCALARS)
        item["props"] = [{"key": draw(st.sampled_from(["k1", "k2"])), "op": op.value, "value": value}]
    return parse_query(doc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(indexed_graphs(), wide_forests())
def test_tree_counter_matches_backtracker(g, q):
    """The tree counter, which pushes numpy tables over the edges the
    data masks allow, counts what the backtracker counts."""
    with _refusing(graph._Matcher, "count"):
        count = exact_matches(g, q)
    with _refusing(graph, "_count_forest"):
        assert exact_matches(g, q, budget=10**8) == count
