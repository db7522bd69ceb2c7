import functools
import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cardest.engine as engine_mod
from cardest.bench import GraphSpec, PropSpec, enumerate_subqueries, generate_graph
from cardest.combine import _EXACT_ENUM_LIMIT, MPS_HARD_CAP, MaxEntError
from cardest.engine import (
    ConfigError,
    EstimatorConfig,
    ExpansionLimitError,
    estimate,
    estimate_with_disjunctions,
    expand_disjunctions,
)
from cardest.graph import PropertyGraph, exact_matches, exact_selectivity
from cardest.estimators import individual_estimate
from cardest.query import (
    CompiledQuery,
    Constraint,
    ConstraintKind,
    PartialEstimate,
    QueryFormatError,
    QueryPattern,
    constraint_set_key,
    extract_constraints,
    implied_closure,
    parse_query,
)
from cardest.stats import StaleCatalogWarning, build_catalog

from conftest import ONE_EDGE_DOC, decorated_shape, random_graph, random_query


class TestConfig:
    def test_parse_round_trip(self):
        cfg = EstimatorConfig.parse(
            "pets=EP,c2,SysR,S(id,0.5),WJ(100); epests=IP(id,p),implied; ct=condIndep(NdSa); seed=3"
        )
        assert cfg.pets == ("EP", "c2", "SysR", "S(id,0.5)", "WJ(100)")
        assert cfg.epests == ("IP(id,p)", "implied")
        assert cfg.ct == "condIndep(NdSa)"
        assert cfg.seed == 3

    def test_rejects_unknown_tags(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(pets=("XX",))
        with pytest.raises(ConfigError):
            EstimatorConfig(epests=("IP(triangle,a)",))
        with pytest.raises(ConfigError):
            EstimatorConfig(ct="vibes")

    @pytest.mark.parametrize(
        "text",
        [
            "ct=condIndep(Foo)", "ct=maxEnt(0)", "pets=S(id,e)", "pets=S(id,0)", "pets=S(ep,1.5)",
            "pets=EP,WJ(0)", "pets=WJ(00)", "seed=abc", "ct=maxEnt(mps=21)", "ct=maxEnt(mps=0021)",
        ],  # fmt: skip
    )
    def test_bad_values_rejected(self, text):
        with pytest.raises(ConfigError):
            EstimatorConfig.parse(text)

    def test_repeated_key_rejected(self):
        """A key given twice would silently keep only its last value."""
        with pytest.raises(ConfigError, match="config key given twice: 'pets'"):
            EstimatorConfig.parse("pets=EP; pets=c2; ct=bounds")
        with pytest.raises(ConfigError, match="config key given twice: 'ct'"):
            EstimatorConfig.parse("pets=EP; ct=bounds; ct=condIndep(MoDi)")

    def test_known_tags_accepted(self):
        EstimatorConfig(
            pets=("EP", "c3", "s4", "t2", "SysR", "CS", "BS", "MDH", "S(ep,0.001)", "WJ(500)", "defaults"),
            epests=("IP(id,pv)", "IP(id,p)", "IP(id,a)", "IP(ep,p)", "IP(ep,a)"),
            ct="maxEnt(mps=6)",
        )
        EstimatorConfig.parse(f"ct=maxEnt(mps={MPS_HARD_CAP})")


class TestEstimate:
    def test_g4_one_edge(self, g4, one_edge_query):
        catalog = build_catalog(g4)
        report = estimate(one_edge_query, g4, catalog, EstimatorConfig())
        assert report.selectivity == pytest.approx(1 / 32)
        assert report.cardinality == pytest.approx(2.0, abs=1e-9)

    def test_empty_query(self, g4):
        catalog = build_catalog(g4)
        q = parse_query({"vertices": [], "edges": []})
        report = estimate(q, g4, catalog, EstimatorConfig())
        assert report.selectivity == 1.0
        assert report.cardinality == 1.0

    def test_trace_factors_multiply_to_selectivity(self, g4, two_chain_query):
        catalog = build_catalog(g4, synopses=[("edge", 1), ("chain", 2)])
        config = EstimatorConfig(pets=("EP", "c2"), ct="condIndep(MoDi)")
        report = estimate(two_chain_query, g4, catalog, config)
        prod = 1.0
        for step in report.combiner_trace:
            if step.factor is not None:
                prod *= step.factor
        assert prod == pytest.approx(report.selectivity, rel=1e-12)

    def test_deterministic(self, g4, two_chain_query):
        catalog = build_catalog(g4, synopses=[("edge", 1)], samples=[("id", 0.9, 5)])
        config = EstimatorConfig(pets=("EP", "S(id,0.9)", "WJ(50)"), seed=11)
        r1 = estimate(two_chain_query, g4, catalog, config)
        r2 = estimate(two_chain_query, g4, catalog, config)
        assert r1.selectivity == r2.selectivity
        assert r1.cardinality == r2.cardinality

    @pytest.mark.parametrize(
        "pets",
        [
            (),
            ("EP",),
            ("c2",),
            ("s2",),
            ("t2",),
            ("SysR",),
            ("CS",),
            ("BS",),
            ("MDH",),
            ("S(id,0.5)",),
            ("WJ(30)",),
        ],
    )
    def test_any_single_technique_works(self, pets):
        rng = random.Random(hash(pets) % 1000)
        g = random_graph(rng, n_vertices=7, n_edges=10)
        q = random_query(rng, n_edges=2)
        catalog = build_catalog(
            g,
            synopses=[("edge", 1), ("chain", 2), ("source_star", 2), ("target_star", 2)],
            with_sysr=True,
            cs_max=50,
            sketch_buckets=2,
            samples=[("id", 0.5, 1)],
        )
        report = estimate(q, g, catalog, EstimatorConfig(pets=pets))
        assert 0.0 <= report.selectivity <= 1.0
        assert report.cardinality >= 0.0

    def test_sample_tag_must_match_catalog(self, g4):
        from cardest.engine import run_techniques

        catalog = build_catalog(g4, samples=[("id", 1.0, 3)])
        q = parse_query(
            {"vertices": [{"id": "a", "props": [{"key": "k", "op": "=", "value": 1}]}], "edges": []}
        )
        matching = run_techniques(q, g4, catalog, EstimatorConfig(pets=("S(id,1.0)",)))
        assert any(pe.provenance.startswith("sampling") for pe in matching)
        # a tag referencing a sample the catalog does not hold is skipped
        mismatched = run_techniques(q, g4, catalog, EstimatorConfig(pets=("S(id,0.5)",)))
        assert not any(pe.provenance.startswith("sampling") for pe in mismatched)

    def test_missing_stats_never_crash(self):
        # techniques enabled but none of their statistics in the catalog
        rng = random.Random(0)
        g = random_graph(rng, n_vertices=6, n_edges=8)
        q = random_query(rng, n_edges=2)
        catalog = build_catalog(g)  # basic only
        config = EstimatorConfig(pets=("EP", "c2", "SysR", "CS", "BS", "MDH", "S(id,0.5)"))
        report = estimate(q, g, catalog, config)
        assert 0.0 <= report.selectivity <= 1.0

    def test_stale_catalog_flagged(self, g4):
        rng = random.Random(1)
        other = random_graph(rng, n_vertices=4, n_edges=4)
        catalog = build_catalog(other)
        q = parse_query(ONE_EDGE_DOC)
        with pytest.warns(StaleCatalogWarning):
            report = estimate(q, g4, catalog, EstimatorConfig())
        assert "stale-catalog" in report.flags

    def test_maxent_ct(self, g4, one_edge_query):
        catalog = build_catalog(g4)
        report = estimate(one_edge_query, g4, catalog, EstimatorConfig(ct="maxEnt(mps=8)"))
        assert 0.0 <= report.selectivity <= 1.0
        prod = 1.0
        for part, mass in report.combiner_trace:
            prod *= mass
        assert prod == pytest.approx(report.selectivity, rel=1e-12)

    def test_maxent_flags_dropped_estimates(self, g4, one_edge_query, monkeypatch):
        catalog = build_catalog(g4)
        incidence = frozenset(
            {Constraint.src("q1", "q2"), Constraint.vertex("q1"), Constraint.edge("q2")}
        )
        run_techniques = engine_mod.run_techniques

        def with_incidence(q, g, catalog, config):
            return run_techniques(q, g, catalog, config) + [PartialEstimate(incidence, 0.125, "x")]

        monkeypatch.setattr(engine_mod, "run_techniques", with_incidence)
        report = estimate(one_edge_query, g4, catalog, EstimatorConfig(ct="maxEnt(mps=2)"))
        assert "maxent-dropped(1)" in report.flags
        report = estimate(one_edge_query, g4, catalog, EstimatorConfig(ct="maxEnt(mps=3)"))
        assert report.flags == []

    def test_maxent_failure_falls_back(self, g4, one_edge_query, monkeypatch):
        catalog = build_catalog(g4)

        def boom(*args, **kwargs):
            raise MaxEntError("forced", residual=0.5)

        monkeypatch.setattr(engine_mod, "combine_max_ent", boom)
        report = estimate(one_edge_query, g4, catalog, EstimatorConfig(ct="maxEnt(8)"))
        assert any(f.startswith("maxent-failed") for f in report.flags)
        assert report.selectivity == pytest.approx(1 / 32)  # condIndep(MoDi) fallback

    def test_bounds_ct(self, g4, one_edge_query):
        catalog = build_catalog(g4)
        report = estimate(one_edge_query, g4, catalog, EstimatorConfig(ct="bounds"))
        assert report.upper is not None and report.lower is not None
        assert report.lower <= exact_selectivity(g4, one_edge_query) <= report.upper
        assert report.selectivity == report.upper

    @staticmethod
    def bounds_report(report):
        d = report.to_dict()
        return d["factors"], d["lower"], d["upper"], d["flags"]

    def test_bounds_report_factors(self, g4, one_edge_query):
        # an incidence estimate (1/8) times the other endpoint's vertex
        # estimate (1/2) is the smallest id-disjoint product; the factors
        # come in input order, not by selectivity
        catalog = build_catalog(g4)
        report = estimate(one_edge_query, g4, catalog, EstimatorConfig(ct="bounds"))
        assert self.bounds_report(report) == (
            [
                {"technique": "individual:exact", "selectivity": 0.5, "factor": 0.5, "reason": "upper-factor"},
                {"technique": "individual:exact", "selectivity": 0.125, "factor": 0.125, "reason": "upper-factor"},
            ],
            0.0,
            0.0625,
            [],
        )

    def test_bounds_report_greedy_factors(self, g4, one_edge_query, monkeypatch):
        """More estimates than `_EXACT_ENUM_LIMIT` take the greedy path: the
        smallest selectivity first, then the smallest id-disjoint ones."""
        catalog = build_catalog(g4)
        constraints = sorted(extract_constraints(one_edge_query), key=lambda c: c.sort_key())
        subsets = [*itertools.combinations(constraints, 2), *itertools.combinations(constraints, 3)]
        extra = [PartialEstimate(frozenset(s), (k + 1) / 64, f"x{k}") for k, s in enumerate(subsets)]
        run_techniques = engine_mod.run_techniques

        def with_extra(q, g, catalog, config):
            return run_techniques(q, g, catalog, config) + extra

        monkeypatch.setattr(engine_mod, "run_techniques", with_extra)
        report = estimate(one_edge_query, g4, catalog, EstimatorConfig(ct="bounds"))
        assert len(report.estimates) > _EXACT_ENUM_LIMIT
        assert self.bounds_report(report) == (
            [
                {"technique": "individual:exact", "selectivity": 0.5, "factor": 0.5, "reason": "upper-factor"},
                {"technique": "x0", "selectivity": 1 / 64, "factor": 1 / 64, "reason": "upper-factor"},
            ],
            0.0,
            1 / 128,
            ["bounds-greedy"],
        )

    def test_report_dict_is_json_ready(self, g4, one_edge_query):
        import json

        catalog = build_catalog(g4)
        report = estimate(one_edge_query, g4, catalog, EstimatorConfig())
        text = json.dumps(report.to_dict())
        assert "selectivity" in text


class TestWorkedExampleEndToEnd:
    """Reproduce the published estimation walk-through via the whole
    pipeline: a catalog whose statistics yield the documented partial
    estimates must combine to a cardinality of about 3.93."""

    I = 171983550
    V = 52639796
    E = 119343754

    def catalog(self):
        from cardest.stats import (
            BasicStats,
            LabeledTopoSynopsis,
            StatisticsCatalog,
            SysRStats,
            edge_key,
            exact_key,
        )

        def cnt(sel, k=1):
            return round(sel * float(self.I) ** k)

        basic = BasicStats(
            self.V,
            self.E,
            self.I,
            label_sel={
                "title": (cnt(0.015), 0),
                "movieInfo": (14835720, 0),
                "movieInfoIdx": (1380035, 0),
                "cast_info": (36244344, 0),
                "person": (4167491, 0),
                "budget": (0, cnt(2.40e-20, 3)),
                "votes": (0, cnt(9.04e-20, 3)),
                "cast_info_movie": (0, cnt(7.13e-18, 3)),
                "cast_info_person": (0, cnt(7.13e-18, 3)),
            },
            key_sel={"note": cnt(0.0994), "gender": cnt(0.0157), "name": cnt(0.0491)},
            prop_exact={
                exact_key("gender", "=", "m"): cnt(0.0101),
                exact_key("name", "CONTAINS", "Tim"): cnt(1.50e-4),
                exact_key("note", "IN", ("(producer)", "(executive producer)")): cnt(0.0138),
            },
        )
        n_budget = cnt(2.40e-20, 3)
        n_votes = cnt(9.04e-20, 3)
        n_cast = cnt(7.13e-18, 3)
        synopsis = LabeledTopoSynopsis(
            "edge",
            1,
            {
                edge_key("title", "budget", "movieInfo"): n_budget,
                edge_key("title", "votes", "movieInfoIdx"): n_votes,
                edge_key("cast_info", "cast_info_movie", "title"): n_cast,
                edge_key("cast_info", "cast_info_person", "person"): n_cast,
            },
        )
        # distinct-title count of the movie edge chosen so the star
        # estimate at the title vertex lands on the documented 4.26e-52
        target = 4.26e-52 * float(self.I) ** 7
        x_cim = round(n_budget * n_cast / target)
        sysr = SysRStats(
            entries={
                edge_key("title", "budget", "movieInfo"): (n_budget, n_budget, n_budget),
                edge_key("title", "votes", "movieInfoIdx"): (n_votes, n_votes, n_votes),
                edge_key("cast_info", "cast_info_movie", "title"): (n_cast, n_cast, x_cim),
                edge_key("cast_info", "cast_info_person", "person"): (n_cast, n_cast, n_cast),
            }
        )
        return StatisticsCatalog(basic=basic, synopses=[synopsis], sysr=sysr)

    def test_framework_reproduces_worked_cardinality(self, movie_query):
        config = EstimatorConfig(
            pets=("EP", "SysR"), epests=("IP(id,p)",), ct="condIndep(NdSa)"
        )
        report = estimate(movie_query, None, self.catalog(), config)
        assert report.selectivity == pytest.approx(2.98e-74, rel=1e-2)
        assert report.cardinality == pytest.approx(3.93, rel=1e-2)

    def test_derived_implication_estimates_match_figure(self, movie_query):
        from cardest.engine import extend_estimates, run_techniques

        config = EstimatorConfig(pets=("EP", "SysR"), epests=("IP(id,p)",))
        pes = extend_estimates(run_techniques(movie_query, None, self.catalog(), config), movie_query, config)
        by_tag = {}
        for pe in pes:
            if pe.provenance.startswith("ip("):
                ids = {i for c in pe.constraints for i in c.ids}
                by_tag[frozenset(ids)] = pe.selectivity
        assert by_tag[frozenset({"id8"})] == pytest.approx(1.50e-4, rel=1e-2)
        assert by_tag[frozenset({"id6"})] == pytest.approx(1.38e-2, rel=1e-2)


class TestDisjunctions:
    def graph_with_labels(self):
        vertices = [("v0", ["x"], {}), ("v1", ["y"], {}), ("v2", [], {})]
        edges = [
            ("e0", "v0", "v1", ["a"], {}),
            ("e1", "v1", "v2", ["b"], {}),
            ("e2", "v2", "v0", [], {}),
        ]
        return PropertyGraph(vertices, edges)

    def doc(self):
        return {
            "vertices": [{"id": "q1"}, {"id": "q3"}],
            "edges": [{"id": "q2", "src": "q1", "trg": "q3"}],
            "anyOf": [
                [
                    {"id": "q2", "labels": ["a"]},
                    {"id": "q2", "labels": ["b"]},
                ]
            ],
        }

    def test_expansion_shapes(self):
        docs = expand_disjunctions(self.doc())
        assert len(docs) == 2
        assert all("anyOf" not in d for d in docs)
        labels = sorted(d["edges"][0]["labels"][0] for d in docs)
        assert labels == ["a", "b"]

    def test_sum_of_two_runs(self):
        g = self.graph_with_labels()
        catalog = build_catalog(g, synopses=[("edge", 1)])
        config = EstimatorConfig(pets=("EP",))
        report = estimate_with_disjunctions(self.doc(), g, catalog, config)
        da, db = expand_disjunctions(self.doc())
        ra = estimate(parse_query(da), g, catalog, config)
        rb = estimate(parse_query(db), g, catalog, config)
        assert report.cardinality == pytest.approx(ra.cardinality + rb.cardinality)

    def test_union_trace_in_to_dict(self):
        g = self.graph_with_labels()
        catalog = build_catalog(g, synopses=[("edge", 1)])
        config = EstimatorConfig(pets=("EP",))
        report = estimate_with_disjunctions(self.doc(), g, catalog, config)
        docs = expand_disjunctions(self.doc())
        cards = [estimate(parse_query(d), g, catalog, config).cardinality for d in docs]
        assert report.to_dict()["factors"] == [{"union_cardinalities": cards}]

    def test_disjoint_alternatives_match_union_oracle(self):
        g = self.graph_with_labels()
        catalog = build_catalog(g, synopses=[("edge", 1)])
        config = EstimatorConfig(pets=("EP",))
        report = estimate_with_disjunctions(self.doc(), g, catalog, config)
        da, db = expand_disjunctions(self.doc())
        union_count = exact_matches(g, parse_query(da)) + exact_matches(g, parse_query(db))
        assert report.cardinality == pytest.approx(union_count)

    def test_no_disjunctions_identical(self, g4, one_edge_query):
        catalog = build_catalog(g4)
        config = EstimatorConfig()
        r1 = estimate_with_disjunctions(ONE_EDGE_DOC, g4, catalog, config)
        r2 = estimate(one_edge_query, g4, catalog, config)
        assert r1.selectivity == r2.selectivity

    def test_expansion_cap(self):
        doc = self.doc()
        doc["anyOf"] = [
            [{"id": "q2", "labels": [l]} for l in "abcdefgh"],
            [{"id": "q1", "labels": [l]} for l in "abcdefgh"],
        ]
        with pytest.raises(ExpansionLimitError, match="cap"):
            expand_disjunctions(doc, cap=16)

    def test_non_object_document_rejected(self):
        with pytest.raises(QueryFormatError, match="object"):
            expand_disjunctions("[1]")

    def test_invalid_json_rejected(self):
        with pytest.raises(QueryFormatError, match="invalid query document"):
            expand_disjunctions("not json")

    def test_non_object_alternative_rejected(self):
        doc = self.doc()
        doc["anyOf"] = [["x"]]
        with pytest.raises(ExpansionLimitError, match="objects"):
            expand_disjunctions(doc)

    def test_string_labels_in_alternative_rejected(self):
        doc = self.doc()
        doc["anyOf"] = [[{"id": "q2", "labels": "ab"}]]
        with pytest.raises(QueryFormatError, match="list of strings"):
            expand_disjunctions(doc)

    def test_element_without_id_rejected(self):
        doc = self.doc()
        doc["vertices"].append({"labels": ["x"]})
        with pytest.raises(QueryFormatError, match="without id"):
            expand_disjunctions(doc)

    @pytest.mark.parametrize("key, value", [("vertices", "q1"), ("edges", {"id": "q2"})])
    def test_element_lists_must_be_lists(self, key, value):
        doc = dict(self.doc(), **{key: value})
        with pytest.raises(QueryFormatError, match="list of objects"):
            expand_disjunctions(doc)

    def test_non_list_props_in_alternative_rejected(self):
        doc = self.doc()
        doc["anyOf"] = [[{"id": "q2", "props": 5}]]
        with pytest.raises(QueryFormatError, match="props"):
            expand_disjunctions(doc)

    def test_clamped_selectivity_flagged(self):
        g = PropertyGraph([("v0", [], {}), ("v1", [], {}), ("v2", [], {})], [])
        catalog = build_catalog(g)
        doc = {
            "vertices": [{"id": "q1"}],
            "edges": [],
            "anyOf": [[{"id": "q1", "labels": []}, {"id": "q1", "labels": []}]],
        }
        config = EstimatorConfig()
        report = estimate_with_disjunctions(doc, g, catalog, config)
        assert report.selectivity <= 1.0
        assert "disjunction-clamped" in report.flags


# The four grade configurations of the benchmark plus a max-entropy one.
GOLDEN_CONFIGS = [
    EstimatorConfig.parse(text)
    for text in (
        "name=ci; pets=EP,c2,SysR; epests=IP(id,p); ct=condIndep(MoDi)",
        "name=rich; pets=EP,c2,s3,t2,CS,BS,MDH,S(id,0.05); epests=implied,IP(id,a); ct=condIndep(MoDi)",
        "name=bounds; pets=EP,c2,s3,BS; ct=bounds",
        "name=wj; pets=EP,WJ(1000); ct=condIndep(MoDi)",
        "pets=EP,c2,s3; epests=implied; ct=maxEnt(mps=8)",
    )
]


@functools.cache
def golden_inputs():
    """The seeded graph and catalog the golden digest estimates on."""
    spec = GraphSpec(
        n_vertices=60,
        n_edges=180,
        vertex_labels=("A", "B"),
        edge_labels=("A", "B"),
        degree_exponent=0.8,
        props=(
            PropSpec("k1", n_values=4, base_prob=0.5, given="A", boost=0.5),
            PropSpec("k2", n_values=4, base_prob=0.4, given="k1", boost=0.5),
            PropSpec("w", n_values=4, base_prob=0.4, on="edge"),
        ),
    )
    g = generate_graph(spec, seed=3)
    catalog = build_catalog(
        g,
        synopses=[("edge", 1), ("chain", 2), ("source_star", 3), ("target_star", 2)],
        with_sysr=True,
        cs_max=1000,
        sketch_buckets=16,
        samples=[("id", 0.05, 3)],
        md_keys=[("k1", "k2")],
    )
    return g, catalog


def golden_reports():
    """(row id, configuration, report) of the five configurations on every
    connected subquery of ten seeded random queries, with and without
    their property predicates."""
    g, catalog = golden_inputs()
    rng = random.Random(7)
    for n in range(10):
        q = random_query(
            rng,
            n_edges=rng.randint(1, 3),
            labels=("A", "B"),
            keys=("k1", "k2", "w"),
        )
        for with_props in (True, False):
            for sub_id, sub in enumerate_subqueries(q, 3, include_props=with_props):
                qid = f"q{n}:{sub_id}:{'p' if with_props else 'np'}"
                for config in GOLDEN_CONFIGS:
                    yield qid, config, estimate(sub, g, catalog, config)


@pytest.mark.hash_seed
def test_estimates_golden_digest():
    """Every golden report's cardinality and flags hash to a recorded
    digest.

    Hash seed: each estimate's constraints are a frozenset, so a sum, a
    product or a tie-break taken in their iteration order would change
    the digest.
    """
    h = hashlib.sha256()
    for qid, config, report in golden_reports():
        row = (qid, config.label, repr(report.cardinality), report.flags)
        h.update(repr(row).encode())
    assert h.hexdigest() == (
        "9897404549f7c922e72302d30e5ede5a6d0d0e95b2fdb12090612924865c3619"
    )


@pytest.mark.hash_seed
def test_report_golden_digest():
    """Every golden report's JSON form but its wall time hashes to a
    recorded digest: besides the cardinalities, the estimate sets, the
    condIndep and upper-bound factor traces in their order, the maxEnt
    partitions and masses, and the lower and upper bounds.

    Hash seed: the constraint sets are frozensets, so a trace, a partition
    or a sum taken in their iteration order would change the digest.
    """
    h = hashlib.sha256()
    n_reports = 0
    for _, _, report in golden_reports():
        doc = report.to_dict()
        del doc["wall_time"]
        h.update(json.dumps(doc, sort_keys=True).encode())
        n_reports += 1
    assert n_reports == 340
    assert h.hexdigest() == (
        "688065f352ab31dc1325363fa85ac886cc5744a31613fbfbf02e6e9d3a029cd7"
    )


def label_free_chain(n_edges: int) -> QueryPattern:
    return parse_query({
        "vertices": [{"id": f"v{i}"} for i in range(n_edges + 1)],
        "edges": [{"id": f"e{i}", "src": f"v{i}", "trg": f"v{i + 1}"} for i in range(n_edges)],
    })  # fmt: skip


def test_chain_past_the_float_range_estimates():
    """A 42-edge chain has 85 ids, and 5000 ** 85 mappings lie past the
    float range: its exact selectivity is the exact count over them,
    rounded once, and every golden configuration estimates a finite
    cardinality."""
    g = generate_graph(GraphSpec(1000, 4000), 1)
    q = label_free_chain(42)
    assert len(q.ids) == 85 and g.n_ids ** 85 > int(sys.float_info.max)
    count = exact_matches(g, q)
    assert exact_selectivity(g, q) == float(Fraction(count, g.n_ids**85)) > 0.0
    catalog = build_catalog(
        g,
        synopses=[("edge", 1), ("chain", 2), ("source_star", 3), ("target_star", 2)],
        with_sysr=True,
        cs_max=1000,
        sketch_buckets=16,
        samples=[("id", 0.05, 3)],
        md_keys=[("k1", "k2")],
    )
    for config in GOLDEN_CONFIGS:
        assert math.isfinite(estimate(q, g, catalog, config).cardinality), config


def _stated_kind(pe: PartialEstimate) -> str:
    """The kind each technique states for its estimates: counts the
    catalog holds are exact, the bound sketch gives upper bounds, and a
    synopsis chain longer than the stored size is a Markov extension."""
    prov = pe.provenance
    if prov.startswith("synopsis:c"):
        n_edges = sum(c.kind is ConstraintKind.EDGE for c in pe.constraints)
        return "exact" if n_edges <= int(prov[len("synopsis:c") :]) else "estimate"
    if prov in ("individual:exact", "synopsis:EP") or prov.startswith(("synopsis:s", "synopsis:t")):
        return "exact"
    return "upper" if prov == "sketch" else "estimate"


def test_estimates_state_their_technique_kind():
    """Every phase-1 and phase-2 estimate on the golden inputs carries the
    kind its technique states; implied closures keep their source's."""
    g, catalog = golden_inputs()
    rng = random.Random(7)
    queries = [
        random_query(rng, n_edges=rng.randint(1, 3), labels=("A", "B"), keys=("k1", "k2", "w")) for _ in range(10)
    ]
    # and a directed 3-chain, which c2 extends past its stored size
    chain = [{"id": f"e{i}", "src": f"v{i}", "trg": f"v{i + 1}"} for i in range(3)]
    queries.append(parse_query({"vertices": [{"id": f"v{i}"} for i in range(4)], "edges": chain}))
    seen = set()
    for q in queries:
        for with_props in (True, False):
            for _, sub in enumerate_subqueries(q, 3, include_props=with_props):
                for config in GOLDEN_CONFIGS:
                    phase1 = engine_mod.run_techniques(sub, g, catalog, config)
                    for pe in phase1 + engine_mod.extend_estimates(phase1, sub, config):
                        assert pe.kind == _stated_kind(pe), (pe.provenance, sorted(map(repr, pe.constraints)))
                        n_edges = sum(c.kind is ConstraintKind.EDGE for c in pe.constraints)
                        seen.add((pe.provenance, n_edges, pe.kind))
    # a c2 chain of 3 edges is estimated, a sketch estimate is a bound,
    # and the fallback steps of a value predicate state their own kinds
    assert ("synopsis:c2", 3, "estimate") in seen
    assert ("synopsis:c2", 2, "exact") in seen
    assert {kind for prov, _, kind in seen if prov == "sketch"} == {"upper"}
    assert {kind for prov, _, kind in seen if prov.startswith("individual:")} == {"exact", "estimate"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n_edges=st.integers(1, 3), config=st.sampled_from(GOLDEN_CONFIGS))
def test_masks_match_frozenset_view(seed, n_edges, config):
    """Every phase-1 and phase-2 estimate's mask holds exactly its
    constraints, its closure mask is their implied closure, and its key
    is their canonical key."""
    g, catalog = golden_inputs()
    q = random_query(random.Random(seed), n_edges=n_edges, labels=("A", "B"), keys=("k1", "k2", "w"))
    cq = q.compiled
    phase1 = engine_mod.run_techniques(q, g, catalog, config)
    for pe in phase1 + engine_mod.extend_estimates(phase1, q, config):
        mask = cq.mask_of(pe)
        assert mask.bit_count() == len(pe.constraints)
        assert {cq.constraints[i] for i in cq.bits(mask)} == pe.constraints
        assert cq.view(cq.closure(mask)) == implied_closure(pe.constraints)
        assert pe.key() == constraint_set_key(pe.constraints)


BOUNDS_CONFIG = EstimatorConfig.parse("pets=EP,c2,s3,BS; ct=bounds")
# float products and sums of selectivities may land an ulp or so off the
# true bound: grade's q2/e0+e1/noprops reads 212.99999999999997 against 213
BOUNDS_RTOL = 1e-9


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n_edges=st.integers(3, 4), chain=st.booleans())
def test_bounds_hold_end_to_end(seed, n_edges, chain):
    """On random small graphs with self-loops, parallel edges and
    multi-labelled elements, the bounds combiner's upper and lower values,
    scaled to match counts, bracket the exact count of 3- and 4-edge
    chains, which c2 extends past its stored size, and trees."""
    rng = random.Random(seed)
    g = random_graph(rng, n_vertices=rng.randint(3, 7), n_edges=rng.randint(4, 14))
    if chain:
        q = decorated_shape(rng, [(f"f{i}", f"u{i}", f"u{i + 1}") for i in range(n_edges)])
    else:
        q = random_query(rng, n_edges=n_edges, keys=("k1", "k2"))
    catalog = build_catalog(
        g,
        synopses=[("edge", 1), ("chain", 2), ("source_star", 3)],
        sketch_buckets=16,
        sketch_seed=seed,
    )
    report = estimate(q, g, catalog, BOUNDS_CONFIG)
    n_k = float(g.n_ids) ** len(q.ids)
    truth = exact_matches(g, q)
    assert report.upper * n_k >= truth * (1.0 - BOUNDS_RTOL)
    assert report.lower * n_k <= truth * (1.0 + BOUNDS_RTOL)


def test_compiled_query_builds_no_constraint(monkeypatch):
    """Once a pattern is compiled, estimating it under any golden
    configuration builds no Constraint, and the four grade configurations
    share one compile per pattern."""
    g, catalog = golden_inputs()
    built = {"constraints": 0, "compiles": 0}

    def counting(cls, name):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", wrapped)

    counting(CompiledQuery, "compiles")
    rng = random.Random(11)
    queries = [random_query(rng, n_edges=3, labels=("A", "B"), keys=("k1", "k2", "w")) for _ in range(6)]
    subs = [
        sub
        for q in queries
        for with_props in (True, False)
        for _, sub in enumerate_subqueries(q, 3, include_props=with_props)
    ]
    for sub in subs:
        for config in GOLDEN_CONFIGS[:4]:
            estimate(sub, g, catalog, config)
    assert built["compiles"] == len(subs)
    counting(Constraint, "constraints")
    for sub in subs:
        for config in GOLDEN_CONFIGS:
            estimate(sub, g, catalog, config)
    assert built == {"constraints": 0, "compiles": len(subs)}


def test_empty_graph_estimates_zero():
    """On a graph with no ids every configuration estimates 0 matches, and
    every topology, label and key singleton reads 0."""
    g = PropertyGraph([], [])
    catalog = build_catalog(
        g,
        synopses=[("edge", 1), ("chain", 2), ("source_star", 3), ("target_star", 2)],
        with_sysr=True,
        cs_max=1000,
        sketch_buckets=16,
        samples=[("id", 0.05, 3), ("edge_pattern", 0.05, 3)],
        histogram_keys=[("k1", "equi_depth", 10)],
        md_keys=[("k1", "k2")],
    )
    k1 = {"key": "k1", "op": "=", "value": 1}
    k2 = {"key": "k2", "op": "<", "value": 2}
    q = parse_query(
        {
            "vertices": [{"id": "a", "labels": ["A"], "props": [k1, k2]}, {"id": "b", "labels": ["B"]}],
            "edges": [{"id": "e", "src": "a", "trg": "b", "labels": ["A"], "props": [k1]}],
        }
    )
    for config in GOLDEN_CONFIGS:
        assert estimate(q, g, catalog, config).cardinality == 0.0, config.label
    singletons = [c for c in extract_constraints(q) if c.kind is not ConstraintKind.PROP_VALUE]
    assert len(singletons) == 11  # 3 memberships, src, trg, 3 labels, 3 keys
    for c in singletons:
        assert individual_estimate(c, catalog).selectivity == 0.0, c
