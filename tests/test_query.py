import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardest.estimators import sample_estimates
from cardest.graph import PropertyGraph
from cardest.query import (
    Constraint,
    ConstraintKind,
    DATA_KINDS,
    PartialEstimate,
    PredicateKind,
    QueryFormatError,
    constraint_set_key,
    constraints_for_edges,
    cs_pattern_of,
    extract_constraints,
    implied_closure,
    iter_chains,
    iter_stars,
    parse_query,
    predicate_holds,
    shape_mask,
)
from cardest.stats import build_catalog

from conftest import G4_EDGES, G4_VERTICES, MOVIE_QUERY_DOC, ONE_EDGE_DOC, random_query


def edge_sets(q):
    return [constraints_for_edges(q, (e,)) for e in sorted(q.edges)]


def chain_sets(q, n):
    return [constraints_for_edges(q, chain) for chain in iter_chains(q, n)]


def star_sets(q, n, direction):
    end = 0 if direction == "source" else 1
    return [
        constraints_for_edges(q, edges)
        for center, edges in iter_stars(q, n)
        if all(q.endpoints[e][end] == center for e in edges)
    ]


def cs_pattern_sets(q):
    infos = (cs_pattern_of(q, v) for v in sorted(q.vertices))
    return [q.compiled.view(info["mask"]) for info in infos if info is not None]


def edge_pattern_sets(q):
    """The per-edge-pattern constraint sets an edge-pattern sample serves."""
    catalog = build_catalog(PropertyGraph(G4_VERTICES, G4_EDGES), samples=[("edge_pattern", 1.0, 0)])
    return [pe.constraints for pe in sample_estimates(q, catalog)]


class TestParseQuery:
    def test_movie_query_shape(self, movie_query):
        assert len(movie_query.vertices) == 5
        assert len(movie_query.edges) == 4
        assert sum(len(ls) for ls in movie_query.labels.values()) == 9
        assert len(movie_query.prop_constraints) == 3

    def test_single_vertex(self):
        q = parse_query({"vertices": [{"id": "q1"}], "edges": []})
        assert q.ids == {"q1"}

    def test_dangling_endpoint(self):
        doc = {"vertices": [{"id": "a"}], "edges": [{"id": "e", "src": "a", "trg": "b"}]}
        with pytest.raises(QueryFormatError):
            parse_query(doc)

    def test_unknown_predicate(self):
        doc = {
            "vertices": [{"id": "a", "props": [{"key": "k", "op": "~", "value": 1}]}],
            "edges": [],
        }
        with pytest.raises(QueryFormatError):
            parse_query(doc)

    def test_rejects_disjunctions(self):
        doc = dict(ONE_EDGE_DOC)
        doc["anyOf"] = [[{"id": "q1", "labels": ["x"]}]]
        with pytest.raises(QueryFormatError):
            parse_query(doc)

    @pytest.mark.parametrize("labels", ["person", ["person", 3], {"person": True}])
    def test_labels_must_be_a_list_of_strings(self, labels):
        with pytest.raises(QueryFormatError, match="list of strings"):
            parse_query({"vertices": [{"id": "v", "labels": labels}]})

    @pytest.mark.parametrize("doc", [{"vertices": "ab"}, {"vertices": [1]}, {"edges": 5}])
    def test_elements_must_be_lists_of_objects(self, doc):
        with pytest.raises(QueryFormatError, match="list of objects"):
            parse_query(doc)

    @pytest.mark.parametrize(
        "edges, vertex_props, message",
        [
            ([{"src": "a", "trg": "a"}], [], "edge without id"),
            ([{"id": "a", "src": "a", "trg": "a"}], [], "duplicate id 'a'"),
            ([{"id": "e", "src": "b", "trg": "a"}], [], "edge 'e' references undeclared vertex"),
            ([{"id": "e", "src": "a"}], [], "edge 'e' references undeclared vertex"),
            (
                [{"id": "e", "src": "a", "trg": "a"}, {"id": "f", "src": "e", "trg": "a"}],
                [],
                "edge 'f' references undeclared vertex",
            ),
            ([], [{"key": "k"}], "bad property constraint on 'a': {'key': 'k'}"),
            ([], [{"key": "k", "op": "IN", "value": 1}], "IN predicate on 'a' needs a list value"),
            ([], [{"key": 1, "op": "=", "value": 1}], "property key on 'a' must be a string: 1"),
            ([{"id": 7, "src": "a", "trg": "a"}], [], "edge id must be a string: 7"),
            ([{"id": "e", "src": 1, "trg": "a"}], [], "src and trg of edge 'e' must be strings: (1, 'a')"),
        ],
    )
    def test_single_error_messages(self, edges, vertex_props, message):
        doc = {"vertices": [{"id": "a", "props": vertex_props}], "edges": edges}
        with pytest.raises(QueryFormatError) as info:
            parse_query(doc)
        assert str(info.value) == message

    def test_accepts_json_text(self):
        import json

        q = parse_query(json.dumps(ONE_EDGE_DOC))
        assert len(q.edges) == 1


class TestExtractConstraints:
    def test_movie_query_has_32(self, movie_query):
        assert len(extract_constraints(movie_query)) == 32

    def test_single_edge_rule123(self, one_edge_query):
        cs = extract_constraints(one_edge_query)
        assert cs == frozenset(
            {
                Constraint.vertex("q1"),
                Constraint.vertex("q3"),
                Constraint.edge("q2"),
                Constraint.src("q1", "q2"),
                Constraint.trg("q3", "q2"),
            }
        )

    def test_two_props_on_distinct_keys(self):
        q = parse_query(
            {
                "vertices": [
                    {
                        "id": "a",
                        "props": [
                            {"key": "k1", "op": "=", "value": 1},
                            {"key": "k2", "op": "<", "value": 5},
                        ],
                    }
                ],
                "edges": [],
            }
        )
        cs = extract_constraints(q)
        assert len(cs) == 5  # vertex + 2 hasKey + 2 propValue

    def test_order_independent(self):
        doc1 = MOVIE_QUERY_DOC
        doc2 = {
            "vertices": list(reversed(MOVIE_QUERY_DOC["vertices"])),
            "edges": list(reversed(MOVIE_QUERY_DOC["edges"])),
        }
        cs1 = extract_constraints(parse_query(doc1))
        cs2 = extract_constraints(parse_query(doc2))
        assert cs1 == cs2
        assert constraint_set_key(cs1) == constraint_set_key(cs2)


class TestImpliedClosure:
    def test_src_implies_vertex_and_edge(self):
        s = frozenset({Constraint.src("q1", "q2")})
        assert implied_closure(s) == frozenset(
            {Constraint.src("q1", "q2"), Constraint.vertex("q1"), Constraint.edge("q2")}
        )

    def test_vertex_is_fixed_point(self):
        s = frozenset({Constraint.vertex("q1")})
        assert implied_closure(s) == s

    def test_prop_value_implies_has_key(self):
        pv = Constraint.prop_value("i", "k", PredicateKind.EQ, 5)
        closed = implied_closure(frozenset({pv}))
        assert Constraint.has_key("i", "k") in closed

    @pytest.mark.parametrize("seed", range(10))
    def test_closure_properties(self, seed, movie_query):
        rng = random.Random(seed)
        full = sorted(extract_constraints(movie_query), key=lambda c: c.sort_key())
        subset = frozenset(c for c in full if rng.random() < 0.4)
        if not subset:
            subset = frozenset(full[:1])
        closed = implied_closure(subset)
        assert subset <= closed, "inflationary"
        assert implied_closure(closed) == closed, "idempotent"
        assert closed <= extract_constraints(movie_query), "stays inside C(q)"
        bigger = implied_closure(subset | {full[0]})
        assert closed <= bigger | closed, "monotone"


class TestEnumerateSubpatterns:
    def test_movie_query_counts(self, movie_query):
        assert len(edge_sets(movie_query)) == 4
        assert len(chain_sets(movie_query, 2)) == 2
        assert len(star_sets(movie_query, 2, "source")) == 2
        assert len(star_sets(movie_query, 2, "target")) == 0

    def test_single_edge_has_no_chain2(self, one_edge_query):
        assert chain_sets(one_edge_query, 2) == []

    def test_movie_query_cs_patterns(self, movie_query):
        infos = [cs_pattern_of(movie_query, v) for v in sorted(movie_query.vertices)]
        elements = {i["center"]: set(i["elements"]) for i in infos if i is not None}
        assert elements["id0"] == {"budget", "votes"}
        assert elements["id6"] == {"cast_info_person", "cast_info_movie", "note"}
        assert elements["id8"] == {"gender", "name"}
        assert "id2" not in elements and "id4" not in elements

    def test_source_star_includes_budget_votes(self, movie_query):
        stars = star_sets(movie_query, 2, "source")
        wanted = None
        for cs in stars:
            labels = {c.label for c in cs if c.kind is ConstraintKind.HAS_LABEL}
            if {"budget", "votes"} <= labels:
                wanted = cs
        assert wanted is not None
        ids = {i for c in wanted for i in c.ids}
        assert ids == {"id0", "id1", "id2", "id3", "id4"}

    def test_per_id_returns_data_constraints(self, movie_query):
        groups = movie_query.data_by_id
        assert len(groups) == 9  # every id carries at least a label
        for cs in groups.values():
            assert all(
                c.kind in (ConstraintKind.HAS_LABEL, ConstraintKind.HAS_KEY, ConstraintKind.PROP_VALUE)
                for c in cs
            )
            assert len({i for c in cs for i in c.ids}) == 1

    def test_per_edge_pattern(self, movie_query):
        groups = edge_pattern_sets(movie_query)
        assert len(groups) == 4
        full = extract_constraints(movie_query)
        for cs in groups:
            ids = {i for c in cs for i in c.ids}
            assert len(ids) == 3
            assert cs == frozenset(c for c in full if set(c.ids) <= ids)

    def test_subpattern_constraints_are_subset(self, movie_query):
        full = extract_constraints(movie_query)
        for sets in [
            edge_sets(movie_query),
            chain_sets(movie_query, 2),
            star_sets(movie_query, 2, "source"),
            cs_pattern_sets(movie_query),
        ]:
            for cs in sets:
                assert cs <= full


def reference_shape(q, edges):
    """The memberships and src/trg of the ids the edges span, and the
    labels of the edges and their endpoints."""
    ids = set(edges).union(*(q.endpoints[e] for e in edges))
    return frozenset(
        c
        for c in extract_constraints(q)
        if (c.kind in (ConstraintKind.VERTEX, ConstraintKind.EDGE, ConstraintKind.HAS_LABEL) and c.ids[0] in ids)
        or (c.kind in (ConstraintKind.SRC, ConstraintKind.TRG) and c.ids[1] in edges)
    )


def reference_cs_pattern(q, center, star_edges):
    """Each star edge's membership, src, trg, endpoint memberships and
    labels, the center's membership and a hasKey per key of the center."""
    out = {Constraint.vertex(center)}
    for e in star_edges:
        s, t = q.endpoints[e]
        out |= {Constraint.edge(e), Constraint.src(s, e), Constraint.trg(t, e)}
        out |= {Constraint.vertex(s), Constraint.vertex(t)}
        out |= {Constraint.has_label(e, l) for l in q.labels_of(e)}
    out |= {Constraint.has_key(center, key) for i, key, _, _ in q.prop_constraints if i == center}
    return frozenset(out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n_edges=st.integers(0, 3))
def test_sets_by_ids_and_kinds_match_brute_force(seed, n_edges):
    """A compiled query's sets named by ids and kinds, its shape masks,
    its data groups and its characteristic-set masks hold the constraints
    a filter over the whole set picks."""
    rng = random.Random(seed)
    q = random_query(rng, n_edges=n_edges, keys=("k1", "k2"), prop_prob=0.5, label_prob=0.5)
    cq, full = q.compiled, extract_constraints(q)
    for _ in range(5):
        ids = tuple(i for i in sorted(q.ids) for _ in range(rng.randint(0, 2)))  # some twice
        kinds = frozenset(k for k in ConstraintKind if rng.random() < 0.5)
        expected = frozenset(c for c in full if set(c.ids) <= set(ids) and c.kind in kinds)
        assert cq.view(cq.within(ids) & cq.kinds(kinds)) == expected
        edges = tuple(e for e in sorted(q.edges) if rng.random() < 0.5)
        assert cq.view(shape_mask(q, edges)) == reference_shape(q, edges)
        assert constraints_for_edges(q, edges) == reference_shape(q, edges)
    assert q.data_by_id == {i: v for i in q.ids if (v := cq.view(cq.within((i,)) & cq.kinds(DATA_KINDS)))}
    for center in sorted(q.vertices):
        for direction, star_edges in (("out", q.out_query_edges(center)), ("in", q.in_query_edges(center))):
            info = cs_pattern_of(q, center, direction)
            if info is not None:
                assert cq.view(info["mask"]) == reference_cs_pattern(q, center, star_edges)


class TestPredicates:
    def test_numeric_coercion(self):
        assert predicate_holds(PredicateKind.EQ, 5, 5.0)
        assert predicate_holds(PredicateKind.LEQ, 5, 5.0)
        assert predicate_holds(PredicateKind.LT, 4, 4.5)

    def test_bool_is_not_int(self):
        assert not predicate_holds(PredicateKind.EQ, True, 1)
        assert predicate_holds(PredicateKind.EQ, True, True)

    def test_cross_type_is_false(self):
        assert not predicate_holds(PredicateKind.LT, "5", 6)
        assert not predicate_holds(PredicateKind.NEQ, "5", 6)
        assert not predicate_holds(PredicateKind.CONTAINS, 55, "5")

    def test_strings_compare_lexicographically(self):
        assert predicate_holds(PredicateKind.LT, "abc", "abd")
        assert predicate_holds(PredicateKind.GEQ, "b", "ab")

    def test_contains_case_sensitive(self):
        assert predicate_holds(PredicateKind.CONTAINS, "Timothy", "Tim")
        assert not predicate_holds(PredicateKind.CONTAINS, "timothy", "Tim")

    def test_in_membership(self):
        assert predicate_holds(PredicateKind.IN, "x", ("x", "y"))
        assert not predicate_holds(PredicateKind.IN, "z", ("x", "y"))
        assert not predicate_holds(PredicateKind.IN, 1, (True,))


class TestPartialEstimate:
    def test_validation(self):
        c = frozenset({Constraint.vertex("a")})
        with pytest.raises(ValueError):
            PartialEstimate(frozenset(), 0.5)
        with pytest.raises(ValueError):
            PartialEstimate(c, 1.5)
        PartialEstimate(c, 0.5, "t")

    def test_kind(self):
        c = frozenset({Constraint.vertex("a")})
        assert PartialEstimate(c, 0.5, "t").kind == "exact"
        for kind in ("exact", "estimate", "upper"):
            assert PartialEstimate(c, 0.5, "t", kind).kind == kind
        for kind in ("lower", "Exact", "sketch", ""):
            with pytest.raises(ValueError, match="unknown estimate kind"):
                PartialEstimate(c, 0.5, "t", kind)

    def test_random_queries_enumerate_cleanly(self):
        rng = random.Random(5)
        for _ in range(20):
            q = random_query(rng, n_edges=3)
            for sets in [
                edge_sets(q),
                chain_sets(q, 2),
                star_sets(q, 2, "source"),
                star_sets(q, 2, "target"),
                cs_pattern_sets(q),
                list(q.data_by_id.values()),
                edge_pattern_sets(q),
            ]:
                for cs in sets:
                    assert cs <= extract_constraints(q)
