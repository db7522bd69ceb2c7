import hashlib
import random

import pytest

import cardest.engine as engine_mod
from cardest.bench import GraphSpec, PropSpec, enumerate_subqueries, generate_graph
from cardest.combine import MaxEntError
from cardest.engine import (
    ConfigError,
    EstimatorConfig,
    ExpansionLimitError,
    estimate,
    estimate_with_disjunctions,
    expand_disjunctions,
)
from cardest.graph import PropertyGraph, exact_matches, exact_selectivity
from cardest.query import Constraint, PartialEstimate, QueryFormatError, parse_query
from cardest.stats import StaleCatalogWarning, build_catalog

from conftest import ONE_EDGE_DOC, random_graph, random_query


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
        ["ct=condIndep(Foo)", "ct=maxEnt(0)", "pets=S(id,e)", "pets=S(id,0)", "pets=S(ep,1.5)", "seed=abc"],
    )
    def test_bad_values_rejected(self, text):
        with pytest.raises(ConfigError):
            EstimatorConfig.parse(text)

    def test_known_tags_accepted(self):
        EstimatorConfig(
            pets=("EP", "c3", "s4", "t2", "SysR", "CS", "BS", "MDH", "S(ep,0.001)", "WJ(500)", "defaults"),
            epests=("IP(id,pv)", "IP(id,p)", "IP(id,a)", "IP(ep,p)", "IP(ep,a)"),
            ct="maxEnt(mps=6)",
        )


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
                ("gender", "=", "m"): cnt(0.0101),
                ("name", "CONTAINS", "Tim"): cnt(1.50e-4),
                ("note", "IN", ("(producer)", "(executive producer)")): cnt(0.0138),
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


def test_estimates_golden_digest():
    """Every estimate, cardinality and flag of the five configurations on
    every connected subquery of ten seeded random queries, with and
    without their property predicates, hashes to a recorded digest."""
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
    rng = random.Random(7)
    h = hashlib.sha256()
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
                    report = estimate(sub, g, catalog, config)
                    row = (qid, config.label, repr(report.cardinality), report.flags)
                    h.update(repr(row).encode())
    assert h.hexdigest() == (
        "864013a31c83b796bdbde5169e59060f634c91e1371e97b27bce63762b920b03"
    )
