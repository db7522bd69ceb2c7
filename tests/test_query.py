import random

import pytest

from cardest.query import (
    Constraint,
    ConstraintKind,
    PartialEstimate,
    PredicateKind,
    QueryFormatError,
    constraint_set_key,
    cs_pattern_of,
    enumerate_subpatterns,
    extract_constraints,
    implied_closure,
    parse_query,
    predicate_holds,
)

from conftest import MOVIE_QUERY_DOC, ONE_EDGE_DOC, random_query


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
        assert len(enumerate_subpatterns(movie_query, "edge")) == 4
        assert len(enumerate_subpatterns(movie_query, "chain", 2)) == 2
        assert len(enumerate_subpatterns(movie_query, "source_star", 2)) == 2
        assert len(enumerate_subpatterns(movie_query, "target_star", 2)) == 0

    def test_single_edge_has_no_chain2(self, one_edge_query):
        assert enumerate_subpatterns(one_edge_query, "chain", 2) == []

    def test_movie_query_cs_patterns(self, movie_query):
        infos = [cs_pattern_of(movie_query, v) for v in sorted(movie_query.vertices)]
        elements = {i["center"]: set(i["elements"]) for i in infos if i is not None}
        assert elements["id0"] == {"budget", "votes"}
        assert elements["id6"] == {"cast_info_person", "cast_info_movie", "note"}
        assert elements["id8"] == {"gender", "name"}
        assert "id2" not in elements and "id4" not in elements

    def test_source_star_includes_budget_votes(self, movie_query):
        stars = enumerate_subpatterns(movie_query, "source_star", 2)
        wanted = None
        for cs in stars:
            labels = {c.label for c in cs if c.kind is ConstraintKind.HAS_LABEL}
            if {"budget", "votes"} <= labels:
                wanted = cs
        assert wanted is not None
        ids = {i for c in wanted for i in c.ids}
        assert ids == {"id0", "id1", "id2", "id3", "id4"}

    def test_per_id_returns_data_constraints(self, movie_query):
        groups = enumerate_subpatterns(movie_query, "per_id")
        assert len(groups) == 9  # every id carries at least a label
        for cs in groups:
            assert all(
                c.kind in (ConstraintKind.HAS_LABEL, ConstraintKind.HAS_KEY, ConstraintKind.PROP_VALUE)
                for c in cs
            )
            assert len({i for c in cs for i in c.ids}) == 1

    def test_per_edge_pattern(self, movie_query):
        groups = enumerate_subpatterns(movie_query, "per_edge_pattern")
        assert len(groups) == 4
        full = extract_constraints(movie_query)
        for cs in groups:
            ids = {i for c in cs for i in c.ids}
            assert len(ids) == 3
            assert cs == frozenset(c for c in full if set(c.ids) <= ids)

    def test_subpattern_constraints_are_subset(self, movie_query):
        full = extract_constraints(movie_query)
        for kind, size in [("edge", None), ("chain", 2), ("source_star", 2), ("cs_pattern", None)]:
            for cs in enumerate_subpatterns(movie_query, kind, size):
                assert cs <= full


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
        pe = PartialEstimate(c, 0.5, "t")
        assert pe.id_set == {"a"}

    def test_random_queries_enumerate_cleanly(self):
        rng = random.Random(5)
        for _ in range(20):
            q = random_query(rng, n_edges=3)
            for kind, size in [
                ("edge", None),
                ("chain", 2),
                ("source_star", 2),
                ("target_star", 2),
                ("cs_pattern", None),
                ("per_id", None),
                ("per_edge_pattern", None),
            ]:
                for cs in enumerate_subpatterns(q, kind, size):
                    assert cs <= extract_constraints(q)
