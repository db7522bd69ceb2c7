import itertools
import random

import pytest

from cardest.graph import PropertyGraph
from cardest.query import (
    Constraint,
    ConstraintKind,
    QueryPattern,
    extract_constraints,
    parse_query,
    predicate_holds,
)

# Two vertices, two edges forming a 2-cycle; the standard tiny fixture.
G4_VERTICES = [("g1", [], {}), ("g3", [], {})]
G4_EDGES = [("g2", "g1", "g3", [], {}), ("g4", "g3", "g1", [], {})]

MOVIE_QUERY_DOC = {
    "vertices": [
        {"id": "id0", "labels": ["title"]},
        {"id": "id2", "labels": ["movieInfo"]},
        {"id": "id4", "labels": ["movieInfoIdx"]},
        {
            "id": "id6",
            "labels": ["cast_info"],
            "props": [
                {"key": "note", "op": "IN", "value": ["(producer)", "(executive producer)"]}
            ],
        },
        {
            "id": "id8",
            "labels": ["person"],
            "props": [
                {"key": "gender", "op": "=", "value": "m"},
                {"key": "name", "op": "CONTAINS", "value": "Tim"},
            ],
        },
    ],
    "edges": [
        {"id": "id1", "src": "id0", "trg": "id2", "labels": ["budget"]},
        {"id": "id3", "src": "id0", "trg": "id4", "labels": ["votes"]},
        {"id": "id5", "src": "id6", "trg": "id0", "labels": ["cast_info_movie"]},
        {"id": "id7", "src": "id6", "trg": "id8", "labels": ["cast_info_person"]},
    ],
}

ONE_EDGE_DOC = {
    "vertices": [{"id": "q1"}, {"id": "q3"}],
    "edges": [{"id": "q2", "src": "q1", "trg": "q3"}],
}

TWO_CHAIN_DOC = {
    "vertices": [{"id": "q1"}, {"id": "q3"}, {"id": "q5"}],
    "edges": [
        {"id": "q2", "src": "q1", "trg": "q3"},
        {"id": "q4", "src": "q3", "trg": "q5"},
    ],
}


@pytest.fixture
def g4() -> PropertyGraph:
    return PropertyGraph(G4_VERTICES, G4_EDGES)


@pytest.fixture
def one_edge_query() -> QueryPattern:
    return parse_query(ONE_EDGE_DOC)


@pytest.fixture
def two_chain_query() -> QueryPattern:
    return parse_query(TWO_CHAIN_DOC)


@pytest.fixture
def movie_query() -> QueryPattern:
    return parse_query(MOVIE_QUERY_DOC)


def check_constraint(g: PropertyGraph, m: dict, c: Constraint) -> bool:
    """Does mapping m satisfy constraint c on graph g?

    Every id appearing in c must be assigned in m.  Written apart from
    the package's `satisfies` and matcher: it is the independent
    reference the tests check against.
    """
    kind = c.kind
    if kind is ConstraintKind.VERTEX:
        return g.is_vertex(m[c.ids[0]])
    if kind is ConstraintKind.EDGE:
        return g.is_edge(m[c.ids[0]])
    if kind is ConstraintKind.SRC:
        e = m[c.ids[1]]
        return g.is_edge(e) and g.endpoints(e)[0] == m[c.ids[0]]
    if kind is ConstraintKind.TRG:
        e = m[c.ids[1]]
        return g.is_edge(e) and g.endpoints(e)[1] == m[c.ids[0]]
    if kind is ConstraintKind.HAS_LABEL:
        return c.label in g.labels_of(m[c.ids[0]])
    if kind is ConstraintKind.HAS_KEY:
        return c.key in g.props_of(m[c.ids[0]])
    # PROP_VALUE
    w = g.prop(m[c.ids[0]], c.key)
    return w is not None and predicate_holds(c.op, w, c.value)


def oracle_constraint_sel(g: PropertyGraph, constraints) -> float:
    """Exact selectivity of an arbitrary constraint set, by enumeration.

    Independent of the production matcher: filters per-id domains by the
    single-id constraints, then backtracks over the ids, each one after an
    id it shares a two-id constraint with where there is one, and checks
    every two-id constraint as soon as both ids are assigned.
    """
    constraints = list(constraints)
    ids = sorted({i for c in constraints for i in c.ids})
    if not ids:
        return 1.0
    if g.n_ids == 0:
        return 0.0
    single = {i: [] for i in ids}
    pairs = []
    for c in constraints:
        if len(c.ids) == 1:
            single[c.ids[0]].append(c)
        else:
            pairs.append(c)
    domains = {}
    for i in ids:
        domains[i] = [
            x for x in range(g.n_ids) if all(check_constraint(g, {i: x}, c) for c in single[i])
        ]
    # edges first, and every later id next to an id it shares a pair
    # constraint with, so that the pairs prune as early as they can
    edge_like = {c.ids[1] for c in pairs}
    remaining = sorted(ids, key=lambda i: (i not in edge_like, i))
    neighbours = {i: set() for i in ids}
    for c in pairs:
        neighbours[c.ids[0]].add(c.ids[1])
        neighbours[c.ids[1]].add(c.ids[0])
    order = []
    while remaining:
        placed = set(order)
        i = next((i for i in remaining if neighbours[i] & placed), remaining[0])
        remaining.remove(i)
        order.append(i)

    def rec(k: int, assignment: dict) -> int:
        if k == len(order):
            return 1
        i = order[k]
        total = 0
        for x in domains[i]:
            assignment[i] = x
            ok = all(
                check_constraint(g, assignment, c)
                for c in pairs
                if i in c.ids and all(j in assignment for j in c.ids)
            )
            if ok:
                total += rec(k + 1, assignment)
            del assignment[i]
        return total

    return rec(0, {}) / float(g.n_ids ** len(ids))


def brute_force_matches(g: PropertyGraph, q: QueryPattern, isomorphic: bool = False) -> int:
    """Independent reference: enumerate every possible mapping and check
    every constraint, and every property predicate as the query writes it
    (not only as the constraint set holds it).  Only usable on tiny
    graphs/queries."""
    ids = sorted(q.ids)
    written = [Constraint.prop_value(i, key, op, value) for i, key, op, value in q.prop_constraints]
    constraints = [*extract_constraints(q), *written]
    count = 0
    for combo in itertools.product(range(g.n_ids), repeat=len(ids)):
        if isomorphic and len(set(combo)) != len(combo):
            continue
        m = dict(zip(ids, combo))
        if all(check_constraint(g, m, c) for c in constraints):
            count += 1
    return count


def random_graph(
    rng: random.Random,
    n_vertices: int = 5,
    n_edges: int = 6,
    labels=("a", "b"),
    keys=("k1", "k2"),
) -> PropertyGraph:
    vertices = []
    for i in range(n_vertices):
        labs = [l for l in labels if rng.random() < 0.5]
        props = {k: rng.randint(0, 3) for k in keys if rng.random() < 0.5}
        vertices.append((f"v{i}", labs, props))
    edges = []
    for j in range(n_edges):
        s = f"v{rng.randrange(n_vertices)}"
        t = f"v{rng.randrange(n_vertices)}"
        labs = [l for l in labels if rng.random() < 0.5]
        props = {k: rng.randint(0, 3) for k in keys if rng.random() < 0.4}
        edges.append((f"e{j}", s, t, labs, props))
    return PropertyGraph(vertices, edges)


def random_query(
    rng: random.Random,
    n_edges: int = 2,
    labels=("a", "b"),
    keys=("k1",),
    prop_prob: float = 0.3,
    label_prob: float = 0.4,
    values: tuple[int, int] = (0, 3),
) -> QueryPattern:
    """A small connected random pattern: each new edge attaches to an
    existing vertex (or starts the pattern)."""
    vertices = [{"id": "u0"}]
    edges = []
    vertex_ids = ["u0"]
    for j in range(n_edges):
        new = f"u{j + 1}"
        vertices.append({"id": new})
        anchor = rng.choice(vertex_ids)
        if rng.random() < 0.5:
            src, trg = anchor, new
        else:
            src, trg = new, anchor
        edges.append({"id": f"f{j}", "src": src, "trg": trg})
        vertex_ids.append(new)
    doc = {"vertices": vertices, "edges": edges}
    for item in doc["vertices"] + doc["edges"]:
        if rng.random() < label_prob:
            item["labels"] = [rng.choice(labels)]
        if rng.random() < prop_prob:
            item["props"] = [{"key": rng.choice(keys), "op": "=", "value": rng.randint(*values)}]
    return parse_query(doc)


# Edge lists of cyclic query shapes (a wander-join walk over them meets
# an already-mapped vertex); random_query only draws trees.
CYCLIC_SHAPES = {
    "loop_first": [("f0", "u0", "u0"), ("f1", "u0", "u1")],
    "loop_later": [("f0", "u0", "u1"), ("f1", "u1", "u1")],
    "two_cycle": [("f0", "u0", "u1"), ("f1", "u1", "u0")],
    "triangle": [("f0", "u0", "u1"), ("f1", "u1", "u2"), ("f2", "u0", "u2")],
    "parallel": [("f0", "u0", "u1"), ("f1", "u0", "u1")],
}


def decorated_shape(rng, edges, labels=("a", "b"), keys=("k1", "k2")):
    """A query with the given edges and random labels and predicates."""
    vertex_ids = sorted({v for _, s, t in edges for v in (s, t)})
    doc = {
        "vertices": [{"id": v} for v in vertex_ids],
        "edges": [{"id": e, "src": s, "trg": t} for e, s, t in edges],
    }
    for item in doc["vertices"] + doc["edges"]:
        if rng.random() < 0.25:
            item["labels"] = [rng.choice(labels)]
        if rng.random() < 0.15:
            item["props"] = [{"key": rng.choice(keys), "op": "=", "value": rng.randint(0, 3)}]
    return parse_query(doc)
