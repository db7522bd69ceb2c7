import random

import pytest

from cardest.implications import add_implication_unions, add_implied_closures
from cardest.query import (
    Constraint,
    PartialEstimate,
    PredicateKind,
    extract_constraints,
    parse_query,
)

from conftest import random_graph
from test_estimators import oracle_sel


# edge q2 runs from vertex q1 to vertex q3; vertex q1 has a predicate on k
EDGE_QUERY = parse_query(
    {
        "vertices": [{"id": "q1", "props": [{"key": "k", "op": "=", "value": 5}]}, {"id": "q3"}],
        "edges": [{"id": "q2", "src": "q1", "trg": "q3"}],
    }
)


class TestImpliedClosures:
    def test_src_pe_gets_closed(self):
        pe = PartialEstimate(frozenset({Constraint.src("q1", "q2")}), 0.125, "individual:exact")
        added = add_implied_closures([pe], EDGE_QUERY)
        assert len(added) == 1
        assert added[0].constraints == frozenset(
            {Constraint.src("q1", "q2"), Constraint.vertex("q1"), Constraint.edge("q2")}
        )
        assert added[0].selectivity == 0.125

    def test_closed_pe_adds_nothing(self):
        pe = PartialEstimate(frozenset({Constraint.vertex("q1")}), 0.5, "x")
        assert add_implied_closures([pe], EDGE_QUERY) == []

    def test_prop_value_adds_key(self):
        pv = Constraint.prop_value("q1", "k", PredicateKind.EQ, 5)
        pe = PartialEstimate(frozenset({pv}), 0.01, "x")
        added = add_implied_closures([pe], EDGE_QUERY)
        assert added[0].constraints == frozenset({pv, Constraint.has_key("q1", "k")})

    def test_idempotent(self):
        pes = [
            PartialEstimate(frozenset({Constraint.src("q1", "q2")}), 0.125, "x"),
            PartialEstimate(frozenset({Constraint.trg("q3", "q2")}), 0.125, "x"),
        ]
        first = add_implied_closures(pes, EDGE_QUERY)
        assert len(first) == 2
        again = add_implied_closures(pes + first, EDGE_QUERY)
        assert again == []

    def test_accepts_an_iterator(self):
        pe = PartialEstimate(frozenset({Constraint.src("q1", "q2")}), 0.125, "x")
        assert add_implied_closures(iter([pe]), EDGE_QUERY) == add_implied_closures([pe], EDGE_QUERY)


class TestImplicationUnions:
    def prop_pes(self):
        gender = Constraint.prop_value("id8", "gender", PredicateKind.EQ, "m")
        name = Constraint.prop_value("id8", "name", PredicateKind.CONTAINS, "Tim")
        k_gender = Constraint.has_key("id8", "gender")
        k_name = Constraint.has_key("id8", "name")
        return [
            PartialEstimate(frozenset({k_gender}), 0.0157, "individual:exact"),
            PartialEstimate(frozenset({gender}), 0.0101, "individual:exact"),
            PartialEstimate(frozenset({k_name}), 0.0491, "individual:exact"),
            PartialEstimate(frozenset({name}), 1.50e-4, "individual:exact"),
        ]

    def test_min_rule_reproduces_worked_value(self, movie_query):
        added = add_implication_unions(self.prop_pes(), movie_query, "id", "p")
        assert len(added) == 1
        assert added[0].selectivity == 1.50e-4
        assert len(added[0].constraints) == 4

    def test_single_pe_no_addition(self, movie_query):
        one = [self.prop_pes()[0]]
        assert add_implication_unions(one, movie_query, "id", "p") == []

    def test_min_of_three(self, one_edge_query):
        mk = lambda key, s: PartialEstimate(
            frozenset({Constraint.prop_value("q1", key, PredicateKind.EQ, 1)}), s, "x"
        )
        pes = [mk("a", 0.3), mk("b", 0.2), mk("c", 0.5)]
        added = add_implication_unions(pes, one_edge_query, "id", "pv")
        assert len(added) == 1
        assert added[0].selectivity == 0.2

    def test_never_below_or_above_min(self, movie_query):
        rng = random.Random(0)
        for _ in range(25):
            pes = [
                PartialEstimate(
                    frozenset({Constraint.prop_value("id8", f"k{j}", PredicateKind.EQ, 1)}),
                    rng.random(),
                    "x",
                )
                for j in range(rng.randint(2, 5))
            ]
            added = add_implication_unions(pes, movie_query, "id", "pv")
            assert added[0].selectivity == min(pe.selectivity for pe in pes)

    def test_constraint_class_filtering(self, movie_query):
        label = Constraint.has_label("id8", "person")
        key = Constraint.has_key("id8", "gender")
        pes = [
            PartialEstimate(frozenset({label}), 0.1, "x"),
            PartialEstimate(frozenset({key}), 0.2, "x"),
        ]
        # 'pv' admits neither, 'p' only the key constraint, 'a' both
        assert add_implication_unions(pes, movie_query, "id", "pv") == []
        assert add_implication_unions(pes, movie_query, "id", "p") == []
        both = add_implication_unions(pes, movie_query, "id", "a")
        assert len(both) == 1 and both[0].selectivity == 0.1

    def test_edge_pattern_scope(self, movie_query):
        lab_e = Constraint.has_label("id7", "cast_info_person")
        lab_t = Constraint.has_label("id8", "person")
        pes = [
            PartialEstimate(frozenset({lab_e}), 0.05, "x"),
            PartialEstimate(frozenset({lab_t}), 0.3, "x"),
        ]
        added = add_implication_unions(pes, movie_query, "ep", "a")
        assert len(added) == 1
        assert added[0].selectivity == 0.05
        assert added[0].constraints == frozenset({lab_e, lab_t})

    def test_bad_classes_rejected(self, movie_query):
        with pytest.raises(ValueError):
            add_implication_unions([], movie_query, "triangle", "a")
        with pytest.raises(ValueError):
            add_implication_unions([], movie_query, "id", "weird")

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_inputs_never_underestimate(self, seed):
        """With exact inputs the union estimate is >= the true selectivity."""
        rng = random.Random(seed)
        g = random_graph(rng, n_vertices=6, n_edges=8)
        doc = {
            "vertices": [
                {
                    "id": "a",
                    "labels": ["a"] if rng.random() < 0.5 else [],
                    "props": [
                        {"key": "k1", "op": "=", "value": rng.randint(0, 3)},
                        {"key": "k2", "op": "<", "value": rng.randint(1, 4)},
                    ],
                }
            ],
            "edges": [],
        }
        q = parse_query(doc)
        singles = [
            PartialEstimate(frozenset({c}), oracle_sel(g, q, [c]), "individual:exact")
            for c in extract_constraints(q)
            if c.kind.value != "vertex"
        ]
        for added in add_implication_unions(singles, q, "id", "a"):
            truth = oracle_sel(g, q, added.constraints)
            assert added.selectivity >= truth - 1e-12
