import hashlib
import itertools
import json
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardest import stats
from cardest.fileform import FormError
from cardest.bench import GraphSpec, generate_graph
from cardest.estimators import individual_estimate, md_histogram_estimates, sample_estimates
from cardest.graph import PropertyGraph, exact_matches, exact_selectivity
from cardest.query import Constraint, ConstraintKind, PredicateKind, extract_constraints, parse_query, predicate_holds
from cardest.stats import (
    WILDCARD,
    BoundSketch,
    CatalogFormatError,
    LabeledTopoSynopsis,
    StatisticsCatalog,
    SysRStats,
    bucket_of,
    build_basic,
    build_bound_sketch,
    build_catalog,
    build_char_sets,
    build_histogram,
    build_labeled_synopsis,
    build_md_histogram,
    build_sample,
    build_system_r,
    chain_key,
    edge_key,
    exact_key,
    histogram_estimate,
    load_catalog,
    md_fraction,
    save_catalog,
    star_key,
)

from conftest import random_graph

# strings that share no prefix of stats.PREFIX_LEN characters
ONE_PER_PREFIX = ["", "a", "b", "cd", "ef"]

# the operators a point bucket answers exactly
POINT_OPS = [
    PredicateKind.EQ,
    PredicateKind.NEQ,
    PredicateKind.LT,
    PredicateKind.LEQ,
    PredicateKind.GT,
    PredicateKind.GEQ,
]


def chain_query_from_slots(slots):
    """Rebuild the query pattern a chain synopsis key refers to."""
    n = (len(slots) - 1) // 2
    vertices = [{"id": f"u{i}"} for i in range(n + 1)]
    edges = [{"id": f"f{i}", "src": f"u{i}", "trg": f"u{i+1}"} for i in range(n)]
    doc = {"vertices": vertices, "edges": edges}
    items = {it["id"]: it for it in vertices + edges}
    order = [f"u{0}"]
    for i in range(n):
        order += [f"f{i}", f"u{i+1}"]
    for ident, lab in zip(order, slots):
        if lab != "*":
            items[ident]["labels"] = [lab]
    return parse_query(doc)


def star_query_from_key(center_label, branches, outgoing=True):
    vertices = [{"id": "c"}] + [{"id": f"w{i}"} for i in range(len(branches))]
    if center_label != "*":
        vertices[0]["labels"] = [center_label]
    edges = []
    for i, (le, lo) in enumerate(branches):
        if lo != "*":
            vertices[i + 1]["labels"] = [lo]
        e = {"id": f"f{i}"}
        if outgoing:
            e.update(src="c", trg=f"w{i}")
        else:
            e.update(src=f"w{i}", trg="c")
        if le != "*":
            e["labels"] = [le]
        edges.append(e)
    return parse_query({"vertices": vertices, "edges": edges})


class TestBasicStats:
    def test_g4(self, g4):
        b = build_basic(g4)
        assert (b.n_vertices, b.n_edges, b.n_ids) == (2, 2, 4)

    def test_empty(self):
        g = PropertyGraph([], [])
        b = build_basic(g)
        assert (b.n_vertices, b.n_edges, b.n_ids) == (0, 0, 0)
        assert b.label_sel == {} and b.key_sel == {}

    def test_random_label_recount(self):
        rng = random.Random(0)
        g = random_graph(rng, n_vertices=10, n_edges=15)
        b = build_basic(g)
        for label, (vc, ec) in b.label_sel.items():
            assert vc == sum(1 for v in g.vertices if label in g.labels_of(v))
            assert ec == sum(1 for e in g.edges if label in g.labels_of(e))
        for key, n in b.key_sel.items():
            assert n == sum(1 for i in range(g.n_ids) if key in g.props_of(i))

    def test_prop_exact(self):
        rng = random.Random(1)
        g = random_graph(rng, n_vertices=10, n_edges=10)
        b = build_basic(g, prop_exact_triples=[("k1", "=", 2), ("k1", "<", 2)])
        eq = sum(1 for i in range(g.n_ids) if g.prop(i, "k1") == 2)
        lt = sum(
            1
            for i in range(g.n_ids)
            if g.prop(i, "k1") is not None and g.prop(i, "k1") < 2
        )
        assert b.prop_exact[exact_key("k1", "=", 2)] == eq
        assert b.prop_exact[exact_key("k1", "<", 2)] == lt

    def test_prop_exact_keeps_number_and_bool_apart(self, tmp_path):
        """(k, =, 1) and (k, =, True) are two rows, built and loaded, and
        the exact estimate of `k = 1` counts only the 1."""
        g = PropertyGraph([("a", [], {"k": 1}), ("b", [], {"k": True}), ("c", [], {"k": True})], [])
        catalog = build_catalog(g, prop_exact=[("k", "=", 1), ("k", "=", True)])
        path = str(tmp_path / "catalog.json")
        save_catalog(catalog, path)
        for read in (catalog, load_catalog(path)):
            assert read.basic.to_dict()["prop_exact"] == [["k", "=", 1, 1], ["k", "=", True, 2]]
            for value, count in ((1, 1), (True, 2)):
                pe = individual_estimate(Constraint.prop_value("x", "k", PredicateKind.EQ, value), read)
                assert (pe.selectivity, pe.provenance) == (count / 3, "individual:exact")


    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("label_sel", {"A": [5, 0]}, "label_sel['A'][0]"),
            ("label_sel", {"A": [0, -1]}, "label_sel['A'][1]"),
            ("key_sel", {"k": 10**400}, "key_sel['k']"),
            ("prop_exact", [["k", "=", 1, 5]], "prop_exact[('k', '=', 1)]"),
        ],
    )
    def test_count_outside_the_ids_rejected(self, field, value, path):
        """A read count lies in [0, n_ids], so no selectivity is scaled
        from one past the float range."""
        doc = {"n_vertices": 3, "n_edges": 1, "n_ids": 4, field: value}
        with pytest.raises(CatalogFormatError, match=re.escape(f"{path}: expected a count in [0, 4], got")):
            stats.BasicStats.from_dict(doc)


class TestSynopses:
    def test_g4_edge_and_chain(self, g4):
        syn = build_labeled_synopsis(g4, "edge")
        assert syn.count_edge("*", "*", "*") == 2
        chain = build_labeled_synopsis(g4, "chain", 2)
        assert chain.count_chain(["*"] * 5) == 2
        assert chain.count_chain(["*"] * 3) == 2  # size-1 chains stored too

    def test_no_edges(self):
        g = PropertyGraph([("v0", ["a"], {})], [])
        for klass in ("edge", "chain", "source_star", "target_star"):
            syn = build_labeled_synopsis(g, klass, 2 if klass != "edge" else 1)
            assert syn.counts == {}

    def test_guard(self, g4):
        with pytest.raises(ValueError):
            build_labeled_synopsis(g4, "chain", 5)
        with pytest.raises(ValueError):
            build_labeled_synopsis(g4, "nope")

    @pytest.mark.parametrize("klass, size", [("nope", 1), ("chain", 0), ("edge", 0)])
    def test_builder_rejects_as_a_read_synopsis(self, g4, klass, size):
        with pytest.raises(FormError) as built:
            build_labeled_synopsis(g4, klass, size)
        with pytest.raises(CatalogFormatError) as read:
            LabeledTopoSynopsis.from_dict({"class": klass, "max_size": size, "counts": {}})
        assert str(built.value) == str(read.value)

    @pytest.mark.parametrize("seed", range(5))
    def test_chain2_counts_match_oracle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n_vertices=5, n_edges=7)
        syn = build_labeled_synopsis(g, "chain", 2)
        # seed 0 checks every stored key exhaustively, the rest spot-check
        limit = None if seed == 0 else 12
        checked = 0
        for key, count in sorted(syn.counts.items()):
            slots = json.loads(key)
            if len(slots) != 5:
                continue
            q = chain_query_from_slots(slots)
            assert count == exact_matches(g, q), key
            checked += 1
            if limit is not None and checked >= limit:
                break
        assert checked > 0

    @pytest.mark.parametrize("klass,outgoing", [("source_star", True), ("target_star", False)])
    def test_star2_counts_match_oracle(self, klass, outgoing):
        rng = random.Random(42)
        g = random_graph(rng, n_vertices=5, n_edges=8)
        syn = build_labeled_synopsis(g, klass, 2)
        checked = 0
        for key, count in sorted(syn.counts.items()):
            center, branches = json.loads(key)
            if len(branches) != 2:
                continue
            q = star_query_from_key(center, branches, outgoing=outgoing)
            assert count == exact_matches(g, q), key
            checked += 1
            if checked >= 12:
                break
        assert checked > 0

    def test_star_with_repeated_branch_descriptor(self):
        # two a-labeled out-edges; a star with two identical branches counts
        # mappings homomorphically (edges may repeat across branches): 2*2
        g = PropertyGraph(
            [("c", [], {}), ("x", ["t"], {}), ("y", ["t"], {})],
            [("e0", "c", "x", ["a"], {}), ("e1", "c", "y", ["a"], {})],
        )
        syn = build_labeled_synopsis(g, "source_star", 2)
        key_count = syn.count_star("*", [("a", "t"), ("a", "t")])
        assert key_count == 4
        q = star_query_from_key("*", [["a", "t"], ["a", "t"]], outgoing=True)
        assert exact_matches(g, q) == 4

    def test_star_branches_sorted_as_label_pairs(self):
        # ("a", "z") sorts before ("a!", "c"), but the JSON text ["a!","c"]
        # sorts before ["a","z"]: keys follow star_key's order
        g = PropertyGraph(
            [("c", [], {}), ("x", ["z"], {}), ("y", ["c"], {})],
            [("e0", "c", "x", ["a"], {}), ("e1", "c", "y", ["a!"], {})],
        )
        syn = build_labeled_synopsis(g, "source_star", 2)
        assert syn.count_star("*", [("a", "z"), ("a!", "c")]) == 1

    def test_edge_counts_match_oracle(self):
        rng = random.Random(17)
        g = random_graph(rng, n_vertices=6, n_edges=9)
        syn = build_labeled_synopsis(g, "edge")
        for key, count in sorted(syn.counts.items()):
            ls, le, lt = json.loads(key)
            q = star_query_from_key("*", [(le, lt)], outgoing=True)
            if ls != "*":
                q = star_query_from_key(ls, [(le, lt)], outgoing=True)
            assert count == exact_matches(g, q), key


# ---------------------------------------------------------------------------
# Brute-force reference builders: enumerate every walk, star and edge and
# expand its label options one instance at a time.


def _options(g, i):
    return sorted(g.labels_of(i)) + [WILDCARD]


def _edge_combos(g, e):
    s, t = g.endpoints(e)
    return itertools.product(_options(g, s), _options(g, e), _options(g, t))


def _walks(g, size):
    def extend(seq):
        if len(seq) == size:
            yield tuple(seq)
            return
        for e in g.out_edges(g.endpoints(seq[-1])[1]):
            yield from extend(seq + [e])

    for e in g.edges:
        yield from extend([e])


def reference_synopsis(g, klass, max_size):
    counts = {}
    if klass == "edge":
        for e in g.edges:
            for combo in _edge_combos(g, e):
                k = edge_key(*combo)
                counts[k] = counts.get(k, 0) + 1
        return LabeledTopoSynopsis("edge", 1, counts)
    if klass == "chain":
        for size in range(1, max_size + 1):
            for walk in _walks(g, size):
                slots = [g.endpoints(walk[0])[0]]
                for e in walk:
                    slots += [e, g.endpoints(e)[1]]
                for combo in itertools.product(*[_options(g, x) for x in slots]):
                    k = chain_key(combo)
                    counts[k] = counts.get(k, 0) + 1
        return LabeledTopoSynopsis("chain", max_size, counts)
    outgoing = klass == "source_star"
    for v in g.vertices:
        delta = {}
        for e in g.out_edges(v) if outgoing else g.in_edges(v):
            other = g.endpoints(e)[1 if outgoing else 0]
            for d in itertools.product(_options(g, e), _options(g, other)):
                delta[d] = delta.get(d, 0) + 1
        for size in range(1, max_size + 1):
            for multiset in itertools.combinations_with_replacement(sorted(delta), size):
                prod = 1
                for d in multiset:
                    prod *= delta[d]
                for lc in _options(g, v):
                    k = star_key(lc, multiset)
                    counts[k] = counts.get(k, 0) + prod
    return LabeledTopoSynopsis(klass, max_size, counts)


def reference_system_r(g):
    n, srcs, trgs = {}, {}, {}
    for e in g.edges:
        s, t = g.endpoints(e)
        for combo in _edge_combos(g, e):
            k = edge_key(*combo)
            n[k] = n.get(k, 0) + 1
            srcs.setdefault(k, set()).add(s)
            trgs.setdefault(k, set()).add(t)
    return SysRStats(entries={k: (n[k], len(srcs[k]), len(trgs[k])) for k in n})


def reference_bound_sketch(g, n_buckets, hash_seed):
    degrees = {}
    for e in g.edges:
        s, t = g.endpoints(e)
        for combo in _edge_combos(g, e):
            for role, v in (("src", s), ("trg", t)):
                key = (edge_key(*combo), role, v)
                degrees[key] = degrees.get(key, 0) + 1
    entries = {}
    for (k, role, v), deg in degrees.items():
        buckets = entries.setdefault(k, {}).setdefault(role, {})
        b = bucket_of(v, hash_seed, n_buckets)
        n, top = buckets.get(b, (0, 0))
        buckets[b] = (n + deg, max(top, deg))
    return BoundSketch(n_buckets=n_buckets, seed=hash_seed, entries=entries)


@st.composite
def small_graphs(draw):
    """Graphs with isolated vertices, self-loops, parallel edges and
    empty or multi-label elements."""
    labels = st.lists(st.sampled_from("ab"), max_size=2)
    n_vertices = draw(st.integers(0, 5))
    vertices = [(f"v{i}", draw(labels), {}) for i in range(n_vertices)]
    edges = []
    if n_vertices:
        ends = st.integers(0, n_vertices - 1)
        for j in range(draw(st.integers(0, 8))):
            edges.append((f"e{j}", f"v{draw(ends)}", f"v{draw(ends)}", draw(labels), {}))
    return PropertyGraph(vertices, edges)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_graphs(), st.integers(0, 5))
def test_builders_match_brute_force(g, hash_seed):
    assert build_labeled_synopsis(g, "edge").to_dict() == reference_synopsis(g, "edge", 1).to_dict()
    for klass in ("chain", "source_star", "target_star"):
        for size in (1, 2, 3):
            got = build_labeled_synopsis(g, klass, size).to_dict()
            assert got == reference_synopsis(g, klass, size).to_dict(), (klass, size)
    assert build_system_r(g).to_dict() == reference_system_r(g).to_dict()
    for n_buckets in (1, 3, 16):
        got = build_bound_sketch(g, n_buckets, hash_seed).to_dict()
        assert got == reference_bound_sketch(g, n_buckets, hash_seed).to_dict(), n_buckets


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_graphs())
def test_stars_of_four_branches_match_brute_force(g):
    # only size 4, the resource guard's limit, reaches the star DFS's deepest level
    for klass in ("source_star", "target_star"):
        got = build_labeled_synopsis(g, klass, 4).to_dict()
        assert got == reference_synopsis(g, klass, 4).to_dict(), klass


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_graphs())
def test_chains_of_four_edges_match_brute_force(g):
    # the resource guard's limit: the walk DP's deepest step
    got = build_labeled_synopsis(g, "chain", 4).to_dict()
    assert got == reference_synopsis(g, "chain", 4).to_dict()


def test_star_counts_stay_exact_past_int64():
    # 55109 ** 4 > 2 ** 63 - 1: a builder that wraps int64 reads a wrong count
    n = 55109
    g = PropertyGraph([("v", [], {})], [(f"e{j}", "v", "v", [], {}) for j in range(n)])
    for klass in ("source_star", "target_star"):
        syn = build_labeled_synopsis(g, klass, 4)
        assert syn.count_star(WILDCARD, [(WILDCARD, WILDCARD)] * 4) == n**4 == 9223380425197538161
        assert syn.count_star(WILDCARD, [(WILDCARD, WILDCARD)] * 2) == n**2


def test_chain_counts_stay_exact_past_int64():
    # the 4-walks of one vertex with n self-loops number n ** 4 > 2 ** 63 - 1
    n = 55109
    g = PropertyGraph([("v", [], {})], [(f"e{j}", "v", "v", [], {}) for j in range(n)])
    syn = build_labeled_synopsis(g, "chain", 4)
    assert syn.count_chain([WILDCARD] * 9) == n**4 == 9223380425197538161
    assert syn.count_chain([WILDCARD] * 5) == n**2


def test_chains_over_many_label_sets_match_brute_force():
    # 300 vertex and 300 edge label sets: a 4-chain's 9 slots packed into
    # one id in base 600 would overflow int64 many times over
    rng = random.Random(0)
    vertices = [(f"v{i}", [f"V{i}"], {}) for i in range(300)]
    edges = [(f"e{j}", f"v{rng.randrange(300)}", f"v{rng.randrange(300)}", [f"E{j}"], {}) for j in range(300)]
    g = PropertyGraph(vertices, edges)
    got = build_labeled_synopsis(g, "chain", 4)
    assert got.to_dict() == reference_synopsis(g, "chain", 4).to_dict()
    assert got.count_chain([WILDCARD] * 9) > 0


def test_catalog_builders_share_element_arrays():
    """The basic, edge, chain, star, SysR and sketch builders of one
    catalog read one set of per-element arrays, which the graph keeps
    read-only."""
    g = generate_graph(GraphSpec(60, 200), seed=4)
    with mock.patch.object(stats, "_elements", wraps=stats._elements) as elements:
        synopses = [("edge", 1), ("chain", 2), ("source_star", 2), ("target_star", 2)]
        build_catalog(g, synopses=synopses, with_sysr=True, sketch_buckets=4)
        build_labeled_synopsis(g, "chain", 3)
    elements.assert_called_once_with(g)
    of = g.derived(elements).of
    with pytest.raises(ValueError):
        of[0] = 1


@pytest.mark.hash_seed
def test_golden_digest():
    """The synopses, sysr and sketch sections of a seeded catalog are
    byte-identical to those of the walk-enumerating builders.

    Hash seed: the builders group elements by label sets, which are
    frozensets, so a key or an order taken from their iteration order
    would change the bytes.
    """
    spec = GraphSpec(300, 1200, vertex_labels=("A", "B", "C"), edge_labels=("x", "y", "z"))
    g = generate_graph(spec, seed=1)
    catalog = build_catalog(
        g,
        synopses=[("edge", 1), ("chain", 2), ("source_star", 3), ("target_star", 2)],
        with_sysr=True,
        sketch_buckets=16,
    ).to_dict()
    sections = {k: catalog[k] for k in ("synopses", "sysr", "sketches")}
    blob = json.dumps(sections, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "f45298324fc8b3e3732725b6da4d45b8aa0e8313b829494a6cb35099dde4b4fd"
    )


def test_histogram_golden_digest():
    """The histogram and grid sections for an equi-width float key, an
    equi-depth int key, a constant key, a string key, a 2-key and a 3-key
    grid hash to a recorded digest, so every bound repeats bit for bit."""
    rng = random.Random(11)
    vertices = []
    for i in range(60):
        props = {
            "x": rng.uniform(-3.0, 7.0),
            "y": rng.randint(0, 20),
            "c": 4,
            "s": rng.choice(["ant", "bee", "cat", "cow"]),
        }
        if i % 7 == 0:
            del props["y"]
        vertices.append((f"v{i}", [], props))
    catalog = build_catalog(
        PropertyGraph(vertices, []),
        histogram_keys=[
            ("x", "equi_width", 7),
            ("y", "equi_depth", 5),
            ("c", "equi_width", 4),
            ("s", "equi_depth", 3),
        ],
        md_keys=[("x", "y"), ("x", "y", "c")],
    ).to_dict()
    sections = {k: catalog[k] for k in ("histograms", "md_histograms")}
    blob = json.dumps(sections, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "6045e6030c894255dfc1c0545cd8af2b9a5fe79a7dcd2562cc75a9b3282cb8e4"
    )


def full_catalog_graph(seed=23):
    """A seeded graph with labelled and unlabelled elements, a self-loop,
    and int, float and string keys, some of them absent."""
    rng = random.Random(seed)
    vertices = []
    for i in range(14):
        props = {
            "k": rng.randint(0, 3),
            "x": rng.uniform(-2.0, 5.0),
            "y": rng.randint(0, 9),
            "s": rng.choice(["ant", "bee", "cat"]),
        }
        for key in ("k", "y", "s"):
            if rng.random() < 0.2:
                del props[key]
        vertices.append((f"v{i}", [l for l in "ABC" if rng.random() < 0.4], props))
    edges = [("e0", "v0", "v0", ["x"], {"w": 2})]
    for j in range(1, 40):
        props = {"w": rng.randint(0, 4)} if rng.random() < 0.5 else {}
        edges.append((f"e{j}", f"v{rng.randrange(14)}", f"v{rng.randrange(14)}", [rng.choice("xyz")], props))
    return PropertyGraph(vertices, edges)


def full_catalog(g, seed=3):
    """Every catalog section: exact triples (one an IN list), all four
    synopsis classes, sysr, both CS directions (the 'in' one merged down to
    two entries), a sketch, all three sample types, the three histogram
    forms and a 2-key and a 3-key grid."""
    catalog = build_catalog(
        g,
        synopses=[("edge", 1), ("chain", 2), ("source_star", 2), ("target_star", 2)],
        with_sysr=True,
        cs_max=10000,
        sketch_buckets=4,
        sketch_seed=seed,
        samples=[("id", 0.3, seed), ("vertex", 0.5, seed), ("edge_pattern", 0.6, seed)],
        histogram_keys=[("x", "equi_width", 5), ("y", "equi_depth", 4), ("s", "equi_depth", 3)],
        md_keys=[("k", "y"), ("k", "x", "y")],
        prop_exact=[("k", "=", 1), ("s", "IN", ["ant", "cat"]), ("x", "<", 1.5)],
    )
    catalog.char_sets.append(build_char_sets(g, 2, "in"))
    return catalog


@pytest.mark.hash_seed
def test_full_catalog_golden_digest(tmp_path):
    """The saved bytes of a catalog with every section hash to a recorded
    digest, so the file form of each section repeats byte for byte.

    Hash seed: every section reads label sets or key sets, which are
    frozensets, so a key or an order taken from their iteration order
    would change the bytes.
    """
    g = full_catalog_graph()
    catalog = full_catalog(g)
    assert len(build_char_sets(g, 10000, "in").entries) > 2  # the 'in' store merged
    assert any(m.get("loop") for m in catalog.sample("edge_pattern").members)
    assert [h.domain for h in catalog.histograms] == ["numeric", "numeric", "string_prefix"]
    path = tmp_path / "catalog.json"
    save_catalog(catalog, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "d98ce1b42146d9a21c6b3d7d80699b1463a8e19b62aee996069cd4851f739f75"
    )


@st.composite
def prop_graphs(draw):
    """small_graphs with some of the int, float and string keys of
    full_catalog_graph on each element."""
    labels = st.lists(st.sampled_from("ab"), max_size=2)
    values = {
        "k": st.integers(0, 3),
        "x": st.floats(-2.0, 5.0),
        "y": st.integers(0, 9),
        "s": st.sampled_from(["ant", "bee", "cat"]),
    }
    props = st.fixed_dictionaries({}, optional=values)
    n_vertices = draw(st.integers(0, 5))
    vertices = [(f"v{i}", draw(labels), draw(props)) for i in range(n_vertices)]
    edges = []
    if n_vertices:
        ends = st.integers(0, n_vertices - 1)
        for j in range(draw(st.integers(0, 8))):
            edges.append((f"e{j}", f"v{draw(ends)}", f"v{draw(ends)}", draw(labels), draw(props)))
    return PropertyGraph(vertices, edges)


def json_nodes(node, path=()):
    """(path, node) of every object and scalar in a JSON document."""
    if isinstance(node, dict):
        yield path, node
        for k, v in node.items():
            yield from json_nodes(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from json_nodes(v, path + (i,))
    else:
        yield path, node


def wrong_types(path, node):
    """Values whose type the catalog's file form does not allow at path."""
    if isinstance(node, dict):
        return [[]]  # a list for an object
    if "props" in path or path[:2] == ("basic", "prop_exact") and path[3:4] == (2,):
        return [{}]  # property values may be any scalar
    if isinstance(node, bool):
        return [1]
    if isinstance(node, int):
        return ["3", True]
    if isinstance(node, float):
        return ["1.5"]
    return [5]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(prop_graphs(), st.integers(0, 5), st.data())
def test_catalog_file_form_round_trips_and_rejects_wrong_types(tmp_path_factory, g, seed, data):
    """A full catalog reads back to the same dict, and replacing any one
    value with one of a wrong type makes load_catalog name where it is."""
    catalog = full_catalog(g, seed)
    doc = json.loads(json.dumps(catalog.to_dict()))
    assert StatisticsCatalog.from_dict(doc).to_dict() == catalog.to_dict()

    nodes = [(path, node) for path, node in json_nodes(doc) if path]
    path, node = data.draw(st.sampled_from(nodes))
    wrong = data.draw(st.sampled_from(wrong_types(path, node)))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = wrong
    file = tmp_path_factory.mktemp("catalog") / "catalog.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CatalogFormatError) as info:
        load_catalog(str(file))
    message = str(info.value)
    assert message.startswith(f"{file}: ")
    if path == ("version",):
        assert "unsupported catalog version" in message
        return
    rest, at = "." + message[len(f"{file}: ") :], 0
    for step in path:  # the path's steps, in order
        forms = [f"[{step}]"] if isinstance(step, int) else [f".{step}", f"[{step!r}]"]
        found = [rest.find(form, at) for form in forms if rest.find(form, at) >= 0]
        assert found, (path, message)
        at = min(found) + 1


class TestSystemR:
    def test_g4(self, g4):
        s = build_system_r(g4)
        assert s.lookup("*", "*", "*") == (2, 2, 2)

    def test_empty(self):
        s = build_system_r(PropertyGraph([], []))
        assert s.entries == {}

    def test_random_distinct_recount(self):
        rng = random.Random(5)
        g = random_graph(rng, n_vertices=6, n_edges=10)
        s = build_system_r(g)
        for key, (n, ds, dt) in s.entries.items():
            ls, le, lt = json.loads(key)
            matching = []
            for e in g.edges:
                src, trg = g.endpoints(e)
                if ls != "*" and ls not in g.labels_of(src):
                    continue
                if le != "*" and le not in g.labels_of(e):
                    continue
                if lt != "*" and lt not in g.labels_of(trg):
                    continue
                matching.append((src, trg))
            assert n == len(matching)
            assert ds == len({s_ for s_, _ in matching})
            assert dt == len({t_ for _, t_ in matching})


class TestCharSets:
    def test_uniform_fixture_single_entry(self):
        # 3 vertices in a cycle, each with out-edges labeled a and b and key k
        vertices = [(f"v{i}", [], {"k": 1}) for i in range(3)]
        edges = []
        for i in range(3):
            edges.append((f"ea{i}", f"v{i}", f"v{(i+1)%3}", ["a"], {}))
            edges.append((f"eb{i}", f"v{i}", f"v{(i+2)%3}", ["b"], {}))
        g = PropertyGraph(vertices, edges)
        store = build_char_sets(g)
        assert len(store.entries) == 1
        entry = store.entries[0]
        assert entry.cs == {"a", "b", "k"}
        assert entry.count == 3
        assert entry.label_counts == {"a": 3, "b": 3}

    def test_counts_sum_to_vertices(self):
        rng = random.Random(9)
        g = random_graph(rng, n_vertices=12, n_edges=18)
        store = build_char_sets(g)
        assert sum(e.count for e in store.entries) == g.n_vertices

    def test_merge_keeps_sum_and_budget(self):
        rng = random.Random(10)
        g = random_graph(rng, n_vertices=30, n_edges=45, labels=("a", "b", "c"))
        full = build_char_sets(g, max_entries=10**6)
        merged = build_char_sets(g, max_entries=3)
        assert sum(e.count for e in merged.entries) == g.n_vertices
        # budget may be softly exceeded only by victims sharing nothing with kept entries
        assert len(merged.entries) <= max(3, len(full.entries))
        # for a victim folded into a kept superset, superset lookups with the
        # victim's own set can only grow: its vertices stay findable and the
        # kept supersets keep theirs
        kept_keys = {
            e.cs for e in sorted(full.entries, key=lambda e: (-e.count, sorted(e.cs)))[:3]
        }
        direct_checked = 0
        for entry in full.entries:
            if entry.cs in kept_keys:
                continue
            if not any(k >= entry.cs for k in kept_keys):
                continue  # split path: counts migrate to fragments
            pre_kept = sum(x.count for x in full.supersets(entry.cs) if x.cs in kept_keys)
            post = sum(x.count for x in merged.supersets(entry.cs))
            assert post >= pre_kept + entry.count
            direct_checked += 1
        assert direct_checked >= 1

    def test_in_direction(self):
        g = PropertyGraph(
            [("v0", [], {}), ("v1", [], {"k": 1})],
            [("e0", "v0", "v1", ["a"], {})],
        )
        store = build_char_sets(g, direction="in")
        by_cs = {e.cs: e.count for e in store.entries}
        assert by_cs[frozenset({"a", "k"})] == 1  # v1: incoming a, key k
        assert by_cs[frozenset()] == 1  # v0 has nothing


    def test_builder_rejects_as_a_read_store(self, g4):
        with pytest.raises(FormError) as built:
            build_char_sets(g4, 10, "sideways")
        with pytest.raises(CatalogFormatError) as read:
            stats.CharacteristicSetStore.from_dict({"entries": [], "max_entries": 10, "direction": "sideways"})
        assert str(built.value) == str(read.value) == "direction: expected out or in, got 'sideways'"


class TestBoundSketch:
    def test_g4_single_bucket(self, g4):
        sk = build_bound_sketch(g4, n_buckets=1)
        part = sk.partition("*", "*", "*", "src")
        assert list(part.values()) == [(2, 1)]

    def test_empty(self):
        sk = build_bound_sketch(PropertyGraph([], []), n_buckets=2)
        assert sk.entries == {}

    def test_bucket_counts_sum_to_cardinality(self):
        rng = random.Random(2)
        g = random_graph(rng, n_vertices=8, n_edges=14)
        sk = build_bound_sketch(g, n_buckets=4, hash_seed=3)
        sysr = build_system_r(g)
        for key, roles in sk.entries.items():
            n = sysr.entries[key][0]
            for role in ("src", "trg"):
                assert sum(c for c, _ in roles[role].values()) == n


class TestSamples:
    def test_exhaustive_id_sample(self, g4):
        s = build_sample(g4, "id", 1.0, seed=1)
        assert len(s.members) == 4
        kinds = [m["kind"] for m in s.members]
        assert kinds.count("vertex") == 2 and kinds.count("edge") == 2

    def test_reproducible(self):
        rng = random.Random(3)
        g = random_graph(rng, n_vertices=20, n_edges=20)
        s1 = build_sample(g, "id", 0.5, seed=9)
        s2 = build_sample(g, "id", 0.5, seed=9)
        assert s1.members == s2.members
        s3 = build_sample(g, "id", 0.5, seed=10)
        assert s1.members != s3.members  # overwhelmingly likely

    def test_edge_pattern_sample_materializes_endpoints(self, g4):
        s = build_sample(g4, "edge_pattern", 1.0, seed=0)
        assert len(s.members) == 2
        assert all("src" in m and "trg" in m for m in s.members)

    def test_edge_pattern_sample_counts_self_loops(self):
        g = PropertyGraph(
            [("v0", ["a"], {}), ("v1", ["a"], {})],
            [
                ("e0", "v0", "v0", ["r"], {}),
                ("e1", "v1", "v1", ["r"], {}),
                ("e2", "v0", "v1", ["r"], {}),
                ("e3", "v1", "v0", ["r"], {}),
            ],
        )
        q = parse_query(
            {"vertices": [{"id": "u"}], "edges": [{"id": "f", "src": "u", "trg": "u", "labels": ["r"]}]}
        )
        catalog = build_catalog(g, samples=[("edge_pattern", 1.0, 0)])
        (pe,) = sample_estimates(q, catalog)
        assert pe.selectivity == pytest.approx(exact_selectivity(g, q)) == pytest.approx(2 / 36)
        # only loop members carry the flag, so loop-free samples are unchanged
        assert [m.get("loop") for m in catalog.samples[0].members] == [True, True, None, None]

    def test_bad_params(self, g4):
        with pytest.raises(ValueError):
            build_sample(g4, "id", 0.0)
        with pytest.raises(ValueError):
            build_sample(g4, "triangle", 0.5)


class TestHistograms:
    def test_equi_width_uniform(self):
        vertices = [(f"v{i}", [], {"x": i}) for i in range(1, 101)]
        g = PropertyGraph(vertices, [])
        h = build_histogram(g, "x", "equi_width", 10)
        assert h.total == 100
        assert [b["count"] for b in h.buckets] == [10] * 10

    def test_equi_depth_counts(self):
        rng = random.Random(4)
        vertices = [(f"v{i}", [], {"x": rng.randint(0, 50)}) for i in range(37)]
        vertices.append(("w", [], {}))
        g = PropertyGraph(vertices, [])
        h = build_histogram(g, "x", "equi_depth", 8)
        assert sum(b["count"] for b in h.buckets) == 37
        counts = [b["count"] for b in h.buckets]
        assert max(counts) - min(counts) <= 1

    def test_absent_key_empty(self, g4):
        h = build_histogram(g4, "nope")
        assert h.total == 0 and h.buckets == []
        assert histogram_estimate(h, PredicateKind.EQ, 5) == 0.0

    def test_null_values_skipped(self):
        # a null satisfies no value predicate, so it neither flips the key
        # to the string-prefix domain nor counts in the total; key_sel
        # still counts the key
        g = PropertyGraph([(f"v{i}", [], {"k": k}) for i, k in enumerate([1, 5, None, 3])], [])
        h = build_histogram(g, "k", "equi_depth", 2)
        assert (h.domain, h.total) == ("numeric", 3)
        assert histogram_estimate(h, PredicateKind.LEQ, 3) == 2.0
        assert build_basic(g).key_sel == {"k": 4}
        only_null = build_histogram(PropertyGraph([("v", [], {"k": None})], []), "k")
        assert only_null.total == 0 and only_null.buckets == []

    def test_point_estimates(self):
        vertices = [(f"v{i}", [], {"x": i % 10}) for i in range(100)]
        g = PropertyGraph(vertices, [])
        h = build_histogram(g, "x", "equi_depth", 5)
        est = histogram_estimate(h, PredicateKind.EQ, 3)
        assert est == pytest.approx(10.0, rel=0.3)
        lt = histogram_estimate(h, PredicateKind.LT, 5)
        assert lt == pytest.approx(50.0, rel=0.3)
        assert histogram_estimate(h, PredicateKind.CONTAINS, "x") is None

    def test_string_prefix_domain(self):
        vertices = [
            ("v0", [], {"s": "apple"}),
            ("v1", [], {"s": "apricot"}),
            ("v2", [], {"s": "banana"}),
            ("v3", [], {"s": 5}),
        ]
        g = PropertyGraph(vertices, [])
        h = build_histogram(g, "s", "equi_depth", 4)
        assert h.domain == "string_prefix"
        assert h.total == 3  # no string predicate holds on 5, so it is left out
        est = histogram_estimate(h, PredicateKind.EQ, "avocado")
        assert est == pytest.approx(1.0)  # bucket "a": 2 values, 2 distinct

    def test_string_prefix_holds_strings_only(self):
        g = PropertyGraph([(f"v{i}", [], {"k": i % 10}) for i in range(90)]
                          + [(f"w{i}", [], {"k": "x"}) for i in range(10)], [])  # fmt: skip
        h = build_histogram(g, "k", "equi_depth", 10)
        assert (h.domain, h.total, h.buckets) == ("string_prefix", 10, [{"prefix": "x", "count": 10, "distinct": 1}])
        for op, value in [("=", "5"), ("<", "9"), ("!=", "x")]:
            q = parse_query({"vertices": [{"id": "v", "props": [{"key": "k", "op": op, "value": value}]}]})
            assert histogram_estimate(h, PredicateKind.from_op(op), value) == 0.0 == exact_matches(g, q)
        assert histogram_estimate(h, PredicateKind.EQ, 5) is None

    def test_key_without_strings_has_no_answer_for_other_values(self):
        # bools are not numbers, so the key gets the string domain, which holds none of them
        g = PropertyGraph([(f"v{i}", [], {"k": i % 2 == 0}) for i in range(4)] + [("n", [], {"k": 1})], [])
        h = build_histogram(g, "k", "equi_depth", 4)
        assert (h.domain, h.total, h.buckets) == ("string_prefix", 0, [])
        assert histogram_estimate(h, PredicateKind.EQ, True) is None
        assert histogram_estimate(h, PredicateKind.IN, [1]) is None
        assert histogram_estimate(h, PredicateKind.EQ, "a") == 0.0

    def test_empty_string_keeps_the_prefix_length(self):
        words = ["", "apple", "apricot", "banana", "cherry", "cider"]
        h = build_histogram(PropertyGraph([(w, [], {"s": w}) for w in words], []), "s", "equi_depth", 4)
        assert histogram_estimate(h, PredicateKind.EQ, "zebra") == 0.0
        # "", apple and apricot, and half of the bucket the value's prefix shares
        assert histogram_estimate(h, PredicateKind.LT, "b") == 3.5
        assert histogram_estimate(h, PredicateKind.EQ, "") == 1.0

    def test_only_string_is_empty(self):
        g = PropertyGraph([("a", [], {"s": ""}), ("b", [], {"s": ""}), ("c", [], {"s": 3})], [])
        h = build_histogram(g, "s", "equi_depth", 4)
        assert h.buckets == [{"prefix": "", "count": 2, "distinct": 1}]
        assert histogram_estimate(h, PredicateKind.EQ, "") == 2.0
        assert histogram_estimate(h, PredicateKind.NEQ, "") == 0.0
        assert histogram_estimate(h, PredicateKind.EQ, "a") == 0.0
        assert histogram_estimate(h, PredicateKind.NEQ, "a") == 2.0

    @pytest.mark.parametrize("op", POINT_OPS + [PredicateKind.IN])
    def test_empty_string_bucket_is_exact(self, op):
        # the "" bucket holds "" alone, so every predicate on it is exact
        values = ["", "", "", "", "b"]
        g = PropertyGraph([(f"v{i}", [], {"s": v}) for i, v in enumerate(values)], [])
        h = build_histogram(g, "s", "equi_depth", 4)
        value = [""] if op is PredicateKind.IN else ""
        assert histogram_estimate(h, op, value) == sum(predicate_holds(op, v, value) for v in values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        runs=st.dictionaries(st.integers(-3, 6), st.integers(1, 3), min_size=1, max_size=5),
        depth=st.integers(1, 3),
        op=st.sampled_from(POINT_OPS),
        value=st.integers(-4, 7),
    )
    def test_point_buckets_are_exact(self, runs, depth, op, value):
        """Each value fills whole buckets of `depth` elements, so every
        equi-depth bucket is a point bucket and the estimate is exact."""
        values = [v for v, m in sorted(runs.items()) for _ in range(m * depth)]
        vertices = [(f"v{i}", [], {"x": v}) for i, v in enumerate(values)]
        g = PropertyGraph(vertices + [("w", [], {})], [])
        h = build_histogram(g, "x", "equi_depth", sum(runs.values()))
        assert all(b["lo"] == b["hi"] for b in h.buckets)
        exact = sum(predicate_holds(op, v, value) for v in values)
        assert histogram_estimate(h, op, value) == exact

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        strings=st.lists(st.sampled_from(ONE_PER_PREFIX), max_size=8),
        others=st.lists(st.one_of(st.integers(-2, 2), st.floats(-2, 2), st.booleans(), st.none()), max_size=6),
        op=st.sampled_from([PredicateKind.EQ, PredicateKind.NEQ, PredicateKind.IN]),
        probes=st.lists(st.sampled_from(ONE_PER_PREFIX + ["z", "zz"]), min_size=1, max_size=4),
        other=st.one_of(st.integers(-2, 2), st.floats(-2, 2), st.booleans(), st.none()),
    )
    def test_one_string_buckets_are_exact(self, strings, others, op, probes, other):
        """When each prefix bucket holds one distinct string, `=`, `!=` and
        `IN` (repeats included) of strings read the exact count, whatever
        other types the key holds; a non-string value has no answer."""
        values = strings + others
        g = PropertyGraph([(f"v{i}", [], {"s": v}) for i, v in enumerate(values)], [])
        h = build_histogram(g, "s", "equi_depth", 4)
        assume(h.domain == "string_prefix")
        assert all(b["distinct"] == 1 for b in h.buckets)
        value = probes + probes[:1] if op is PredicateKind.IN else probes[0]
        exact = sum(predicate_holds(op, v, value) for v in values)
        assert histogram_estimate(h, op, value) == exact
        assert histogram_estimate(h, op, probes + [other] if op is PredicateKind.IN else other) is None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        xs=st.lists(st.integers(-3, 6), min_size=1, max_size=12),
        alternatives=st.lists(st.one_of(st.integers(-4, 7), st.integers(-4, 7).map(float), st.booleans()), max_size=6),
        kind=st.sampled_from(["equi_width", "equi_depth"]),
    )
    def test_in_counts_each_alternative_once(self, xs, alternatives, kind):
        """`IN` of a numeric list reads `IN` of its distinct alternatives,
        under the equality of `predicate_holds`, on the 1-D histogram and
        on the grid."""
        distinct = [a for i, a in enumerate(alternatives)
                    if not any(predicate_holds(PredicateKind.EQ, b, a) for b in alternatives[:i])]  # fmt: skip
        g = PropertyGraph([(f"v{i}", [], {"x": x, "y": 0}) for i, x in enumerate(xs)], [])
        h = build_histogram(g, "x", kind, 3)
        assert histogram_estimate(h, PredicateKind.IN, alternatives) == histogram_estimate(h, PredicateKind.IN, distinct)
        mdh = build_md_histogram(g, ["x", "y"], 3)
        assert md_fraction(mdh, [("x", PredicateKind.IN, alternatives)]) == md_fraction(
            mdh, [("x", PredicateKind.IN, distinct)]
        )

    def test_in_clamps_per_bucket(self):
        vertices = [(f"v{i}", [], {"x": i % 4}) for i in range(20)]
        h = build_histogram(PropertyGraph(vertices, []), "x", "equi_depth", 2)
        # buckets [0, 1] and [2, 3] of 10: alternatives that overfill the
        # first fill it once, and a repeated alternative counts once
        assert histogram_estimate(h, PredicateKind.IN, [0, 0.5, 1]) == 10.0
        assert histogram_estimate(h, PredicateKind.IN, [0, 0, 0]) == 5.0

    def test_in_repeats_on_equi_width(self):
        vertices = [(f"v{i}", [], {"k": i % 4}) for i in range(40)]
        h = build_histogram(PropertyGraph(vertices, []), "k", "equi_width", 2)
        for alternatives in ([1], [1, 1], [1, 1.0]):
            assert histogram_estimate(h, PredicateKind.IN, alternatives) == 10.0

    @staticmethod
    def cycled(key, values, value, op="!="):
        """Nine vertices cycling through values, an equi-depth histogram on
        the key, and the one-vertex query ``key op value``."""
        g = PropertyGraph([(f"v{i}", [], {key: values[i % 3]}) for i in range(9)], [])
        h = build_histogram(g, key, "equi_depth", 10)
        prop = {"key": key, "op": op, "value": value}
        return g, h, parse_query({"vertices": [{"id": "v", "props": [prop]}]})

    def test_numeric_neq_other_type_is_zero(self):
        # every element a numeric histogram counts is a number, and no
        # number differs from a string by the cross-type rule
        g, h, q = self.cycled("x", [0, 1, 2], "a")
        assert h.domain == "numeric"
        assert histogram_estimate(h, PredicateKind.NEQ, "a") == 0.0
        assert exact_matches(g, q) == 0

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_numeric_order_other_type_is_zero(self, op):
        # no number is ordered against a string, and the histogram holds
        # every value of the key, so the estimate is 0 and not the default
        g = PropertyGraph([(f"v{i}", [], {"k": i % 5}) for i in range(20)], [])
        q = parse_query({"vertices": [{"id": "v", "props": [{"key": "k", "op": op, "value": "a"}]}]})
        catalog = build_catalog(g, histogram_keys=[("k", "equi_depth", 4)])
        assert catalog.histograms[0].domain == "numeric"
        assert histogram_estimate(catalog.histograms[0], PredicateKind.from_op(op), "a") == 0.0
        (c,) = [c for c in extract_constraints(q) if c.kind is ConstraintKind.PROP_VALUE]
        pe = individual_estimate(c, catalog)
        assert pe.provenance != "individual:default"
        assert pe.selectivity == 0.0 == exact_matches(g, q)

    def test_string_neq_number_has_no_answer(self):
        g, h, q = self.cycled("s", ["p", "q", "r"], 5)
        assert h.domain == "string_prefix"
        assert histogram_estimate(h, PredicateKind.NEQ, 5) is None
        assert exact_matches(g, q) == 0

    def test_mixed_key_neq_number_has_no_answer(self):
        # the buckets hold only the strings, so the histogram cannot tell
        # how many elements differ from 5
        g, h, q = self.cycled("m", [1, 2, "z"], 5)
        assert h.domain == "string_prefix"
        assert histogram_estimate(h, PredicateKind.NEQ, 5) is None
        assert exact_matches(g, q) == 6

    @pytest.mark.parametrize("op, value, exact", [("=", 1, 3), ("IN", [1, 2], 6)])
    def test_mixed_key_number_falls_back(self, op, value, exact):
        # the buckets hold only the strings, so the histogram cannot count
        # the numbers; the singleton comes from the operator default
        g, h, q = self.cycled("m", [1, 2, "z"], value, op)
        assert h.domain == "string_prefix"
        assert histogram_estimate(h, PredicateKind.from_op(op), value) is None
        catalog = build_catalog(g, histogram_keys=[("m", "equi_depth", 10)])
        (c,) = [c for c in extract_constraints(q) if c.kind is ConstraintKind.PROP_VALUE]
        assert individual_estimate(c, catalog).provenance == "individual:default"
        assert exact_matches(g, q) == exact

    @pytest.mark.parametrize("kind, n_buckets", [("equi_width", 0), ("equi_depth", 0), ("equi_width", -2)])
    def test_fewer_than_one_bucket_rejected(self, kind, n_buckets):
        g = PropertyGraph([("a", [], {"x": 1}), ("b", [], {"x": 2})], [])
        with pytest.raises(ValueError, match="n_buckets must be >= 1"):
            build_histogram(g, "x", kind, n_buckets)


    def test_query_value_past_the_float_range_meets_bucket_ends(self):
        """An int past the float range is compared with the buckets' ends
        as it is: above every bucket, or below every one."""
        big = 10**400
        g = PropertyGraph([(f"v{i}", [], {"x": i, "y": i % 3}) for i in range(10)], [])
        h = build_histogram(g, "x", "equi_width", 3)
        mdh = build_md_histogram(g, ["x", "y"], 3)
        for op, above, below in (
            (PredicateKind.LT, 1, 0),
            (PredicateKind.LEQ, 1, 0),
            (PredicateKind.GT, 0, 1),
            (PredicateKind.GEQ, 0, 1),
            (PredicateKind.EQ, 0, 0),
            (PredicateKind.NEQ, 1, 1),
        ):
            for value, share in ((big, above), (-big, below)):
                assert histogram_estimate(h, op, value) == 10 * share, (op, value)
                assert md_fraction(mdh, [("x", op, value)]) == share, (op, value)
        assert histogram_estimate(h, PredicateKind.IN, [big, 5]) == histogram_estimate(h, PredicateKind.EQ, 5) > 0

    def test_graph_value_past_the_float_range_rejected(self):
        g = PropertyGraph([("a", [], {"k": 1, "j": 1}), ("b", [], {"k": 10**400, "j": 2})], [])
        message = re.escape("a value of 'k' lies past the float range: 1000")
        with pytest.raises(ValueError, match=message):
            build_histogram(g, "k")
        with pytest.raises(ValueError, match=message):
            build_md_histogram(g, ["j", "k"])

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (-1e308, 1e308)])
    def test_span_past_the_float_range_rejected_by_equal_widths(self, lo, hi):
        """Equal widths cannot split a span past the float range, and say
        so with the key and the ends; equal depths split it."""
        g = PropertyGraph([(f"v{x}", [], {"k": x, "j": 1}) for x in (lo, 0.5, hi)], [])
        message = re.escape(f"the values of 'k' span {lo!r} to {hi!r}, a width past the float range")
        with pytest.raises(ValueError, match=message):
            build_histogram(g, "k", "equi_width", 3)
        with pytest.raises(ValueError, match=message):
            build_md_histogram(g, ["j", "k"])
        h = build_histogram(g, "k", "equi_depth", 3)
        assert [(b["lo"], b["hi"]) for b in h.buckets] == [(lo, lo), (0.5, 0.5), (hi, hi)]


class TestMDHistogram:
    def test_grid_totals(self):
        rng = random.Random(6)
        vertices = []
        for i in range(50):
            props = {"x": rng.randint(0, 9), "y": rng.randint(0, 9)}
            if i % 5 == 0:
                del props["y"]
            vertices.append((f"v{i}", [], props))
        g = PropertyGraph(vertices, [])
        mdh = build_md_histogram(g, ["x", "y"], 4)
        both = sum(1 for i in range(g.n_ids) if "x" in g.props_of(i) and "y" in g.props_of(i))
        assert mdh.total == both
        assert sum(mdh.grid.values()) == both

    def test_full_bucket_fraction(self):
        # x in {0,1}, y in {0,1}: with 1 bucket per pair the fractions are exact
        vertices = [(f"v{i}", [], {"x": i % 2, "y": (i // 2) % 2}) for i in range(40)]
        g = PropertyGraph(vertices, [])
        mdh = build_md_histogram(g, ["x", "y"], 2)
        # 0.5 is exactly the first axis bucket's upper bound: selects it fully
        frac = md_fraction(mdh, [("x", PredicateKind.LEQ, 0.5)])
        assert frac == pytest.approx(0.5)

    def test_point_eq_uses_distincts(self):
        vertices = [(f"v{i}", [], {"x": float(i % 4), "y": 0.0}) for i in range(40)]
        g = PropertyGraph(vertices, [])
        mdh = build_md_histogram(g, ["x", "y"], 1)
        # one bucket holding 4 distinct x values; EQ picks 1/4 of it
        frac = md_fraction(mdh, [("x", PredicateKind.EQ, 2.0)])
        assert frac == pytest.approx(0.25)

    def test_in_repeats_count_once(self):
        g = PropertyGraph([(f"v{i}", [], {"x": i % 40, "y": i % 3}) for i in range(400)], [])
        mdh = build_md_histogram(g, ["x", "y"], 8)
        once = md_fraction(mdh, [("x", PredicateKind.IN, [1]), ("y", PredicateKind.EQ, 0)])
        assert 400 * once == pytest.approx(3.4)
        assert md_fraction(mdh, [("x", PredicateKind.IN, [1, 1]), ("y", PredicateKind.EQ, 0)]) == once

    def test_outside_bounds_zero(self):
        vertices = [(f"v{i}", [], {"x": i, "y": i}) for i in range(10)]
        g = PropertyGraph(vertices, [])
        mdh = build_md_histogram(g, ["x", "y"], 3)
        assert md_fraction(mdh, [("x", PredicateKind.EQ, 99)]) == 0.0

    @pytest.mark.parametrize("op", [PredicateKind.LT, PredicateKind.LEQ, PredicateKind.GT, PredicateKind.GEQ])
    def test_nan_meets_no_order_predicate(self, op):
        """As in `predicate_holds`, so a NaN scores 0 in every bucket, 1-D
        or grid, and a grid's zero fraction stays 0 whatever follows it."""
        nan = float("nan")
        g = PropertyGraph([(f"v{i}", [], {"x": i, "y": i % 3}) for i in range(10)], [])
        mdh = build_md_histogram(g, ["x", "y"], 3)
        assert md_fraction(mdh, [("x", op, nan)]) == 0.0
        assert md_fraction(mdh, [("x", PredicateKind.LT, -1), ("x", op, nan)]) == 0.0
        assert histogram_estimate(build_histogram(g, "x", "equi_width", 3), op, nan) == 0.0

    @pytest.mark.parametrize("n_buckets", [0, -2])
    def test_fewer_than_one_bucket_rejected(self, n_buckets):
        g = PropertyGraph([("a", [], {"x": 1, "y": 1}), ("b", [], {"x": 2, "y": 2})], [])
        with pytest.raises(ValueError, match="n_buckets_per_axis must be >= 1"):
            build_md_histogram(g, ["x", "y"], n_buckets)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        xs=st.lists(st.integers(0, 9), min_size=1, max_size=12),
        c=st.integers(-2, 2),
        op=st.sampled_from(POINT_OPS),
        value=st.integers(-3, 3),
    )
    def test_constant_axis_is_exact(self, xs, c, op, value):
        """A key holding one value everywhere has a point bucket on its axis."""
        g = PropertyGraph([(f"v{i}", [], {"x": x, "y": c}) for i, x in enumerate(xs)], [])
        mdh = build_md_histogram(g, ["x", "y"], 4)
        expected = 1.0 if predicate_holds(op, c, value) else 0.0
        assert md_fraction(mdh, [("y", op, value)]) == expected


def reference_md_fraction(mdh, constraints, cells):
    """The grid fraction as a loop per cell: over the given cells in
    order, each cell's product of its buckets' fractions, with an early
    break at 0, weighted by its count and summed."""
    if mdh.total == 0:
        return 0.0
    by_axis = {}
    for key, op, value in constraints:
        by_axis.setdefault(mdh.keys.index(key), []).append((op, value))
    acc = 0.0
    for cell in cells:
        frac = 1.0
        for a, preds in by_axis.items():
            lo = mdh.axes[a]["bounds"][cell[a]]
            hi = mdh.axes[a]["bounds"][cell[a] + 1]
            distinct = mdh.axes[a]["distincts"][cell[a]]
            for op, value in preds:
                frac *= stats._bucket_fraction(lo, hi, distinct, op, value)
                if frac == 0.0:
                    break
        acc += mdh.grid[cell] * frac
    return acc / mdh.total


def random_grid(rng):
    """A grid of 2 or 3 axes of 1, 3 or 8 buckets (or one point bucket),
    its cells in a random order."""
    axes = []
    for _ in range(rng.randint(2, 3)):
        lo, n = rng.uniform(-1, 3), rng.choice([0, 1, 3, 8])  # 0: one point bucket
        bounds = sorted(lo + rng.uniform(0, 2 * n) for _ in range(n + 1)) if n else [lo, lo]
        axes.append({"bounds": bounds, "distincts": [rng.randint(0, 5) for _ in range(max(n, 1))]})
    cells = list(itertools.product(*(range(len(axis["distincts"])) for axis in axes)))
    cells = rng.sample(cells, rng.randint(1, len(cells)))
    grid = {cell: rng.randint(1, 1000) for cell in cells}
    keys = ["k0", "k1", "k2"][: len(axes)]
    return stats.MDHistogram(keys=keys, axes=axes, grid=grid, total=sum(grid.values()) + rng.randint(0, 5))


def random_md_value(rng):
    """A number on or off the grid's span, or one of the values that are not numbers."""
    r = rng.random()
    if r < 0.1:
        return rng.choice(["x", True, None, float("nan")])
    return rng.randint(-2, 12) if r < 0.4 else rng.uniform(-2, 12)


def test_md_fraction_matches_per_cell_reference():
    """Scored by axis, the grid repeats the per-cell loop over sorted cells
    bit for bit, for repeated and interleaved keys, `IN` lists and values
    that are not numbers; as every bucket fraction is finite, the loop's
    early break moves no bit."""
    rng = random.Random(11)
    for _ in range(3000):
        mdh = random_grid(rng)
        constraints = []
        for _ in range(rng.randint(1, 5)):
            op = rng.choice(POINT_OPS + [PredicateKind.IN])
            n = rng.randint(0, 3)
            value = [random_md_value(rng) for _ in range(n)] if op is PredicateKind.IN else random_md_value(rng)
            constraints.append((rng.choice(mdh.keys), op, value))
        want = reference_md_fraction(mdh, constraints, sorted(mdh.grid))
        assert md_fraction(mdh, constraints).hex() == want.hex(), (mdh, constraints)


def test_reloaded_grid_scores_like_the_built_one(tmp_path):
    """A reloaded grid holds its cells in the file's sorted key order,
    which for 12 buckets an axis is not cell order ("0,10" < "0,2"), and a
    built one in first-occurrence order; scored over sorted cells, both
    give every fraction and estimate bit for bit."""
    rng = random.Random(8)
    ops = ["=", "!=", "<", "<=", ">", ">="]
    for n_keys in (2, 3):
        keys = ["x", "y", "z"][:n_keys]
        for n_buckets in (1, 3, 8, 12):
            g = PropertyGraph([(f"v{i}", [], {k: rng.uniform(0, 50) for k in keys}) for i in range(300)], [])
            built = StatisticsCatalog(basic=build_basic(g), md_histograms=[build_md_histogram(g, keys, n_buckets)])
            path = tmp_path / f"{n_keys}-{n_buckets}.json"
            save_catalog(built, str(path))
            reloaded = load_catalog(str(path))
            for _ in range(100):
                props = [{"key": k, "op": rng.choice(ops), "value": rng.uniform(0, 50)} for k in keys]
                constraints = [(p["key"], PredicateKind.from_op(p["op"]), p["value"]) for p in props]
                fractions = [md_fraction(c.md_histograms[0], constraints) for c in (built, reloaded)]
                assert fractions[0].hex() == fractions[1].hex(), (n_keys, n_buckets)
                q = parse_query({"vertices": [{"id": "a", "props": props}]})
                (a,), (b,) = (md_histogram_estimates(q, c) for c in (built, reloaded))
                assert a.selectivity.hex() == b.selectivity.hex(), (n_keys, n_buckets)


class TestCatalogPersistence:
    def build(self, seed=0):
        rng = random.Random(seed)
        g = random_graph(rng, n_vertices=8, n_edges=12)
        catalog = build_catalog(
            g,
            synopses=[("edge", 1), ("chain", 2), ("source_star", 2)],
            with_sysr=True,
            cs_max=100,
            sketch_buckets=4,
            samples=[("id", 0.5, 7)],
            histogram_keys=[("k1", "equi_depth", 4)],
            md_keys=[("k1", "k2")],
            prop_exact=[("k1", "=", 1)],
        )
        return g, catalog

    def test_round_trip_bit_identical(self, tmp_path):
        _, catalog = self.build()
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        save_catalog(catalog, str(p1))
        reloaded = load_catalog(str(p1))
        save_catalog(reloaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_sample_population_key_still_loads(self, g4, tmp_path):
        """A catalog file whose samples still hold `population`, the number
        of instances a sample was drawn from (no estimate reads it), loads
        as the catalog without it and saves the same bytes."""
        samples = [("id", 1.0, 0), ("vertex", 1.0, 0), ("edge_pattern", 1.0, 0)]
        p, old = tmp_path / "c.json", tmp_path / "old.json"
        save_catalog(build_catalog(g4, samples=samples), str(p))
        doc = json.loads(p.read_text(encoding="utf-8"))
        for sample, population in zip(doc["samples"], (4, 2, 2)):
            sample["population"] = population
        old.write_text(json.dumps(doc), encoding="utf-8")
        reloaded = load_catalog(str(old))
        assert reloaded == load_catalog(str(p))
        assert [len(s.members) for s in reloaded.samples] == [4, 2, 2]
        save_catalog(reloaded, str(old))
        assert old.read_bytes() == p.read_bytes()

    @pytest.mark.parametrize(
        "section, entry, message",
        [
            ("synopses", {"class": "cycle", "max_size": 2, "counts": {}},
             "synopses[0].class: expected edge or chain or source_star or target_star, got 'cycle'"),
            ("synopses", {"class": "chain", "max_size": 0, "counts": {}},
             "synopses[0].max_size: expected a size >= 1, got 0"),
            ("char_sets", {"entries": [], "max_entries": 10, "direction": "sideways"},
             "char_sets[0].direction: expected out or in, got 'sideways'"),
        ],  # fmt: skip
    )
    def test_unknown_enumerated_field_rejected(self, tmp_path, section, entry, message):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"version": 1, section: [entry]}), encoding="utf-8")
        with pytest.raises(CatalogFormatError) as exc:
            load_catalog(str(p))
        assert str(exc.value) == f"{p}: {message}"

    def test_corrupted_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(CatalogFormatError):
            load_catalog(str(p))

    def test_g4_catalog_reload(self, g4, tmp_path):
        catalog = build_catalog(g4)
        p = tmp_path / "g4.json"
        save_catalog(catalog, str(p))
        reloaded = load_catalog(str(p))
        assert reloaded.basic.n_ids == 4
        assert reloaded.fingerprint == g4.fingerprint()
