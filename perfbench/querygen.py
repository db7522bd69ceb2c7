"""Graph-sampled query patterns.

Every query is cut from a real instance in the graph: a connected shape
of one to three edges is matched by a random walk outward from a random
edge, and each label and property predicate of the instance is kept with
a seeded probability.  Predicates always hold on the instance, so every
query has an exact count of at least one.
"""

from __future__ import annotations

import random

# Each shape lists its edges as (source variable, target variable); every
# edge after the first shares exactly one variable with the edges before
# it, so an instance is found by extending a partial match one edge at a
# time.
SHAPES = {
    "edge": ((0, 1),),
    "chain2": ((0, 1), (1, 2)),
    "ostar2": ((0, 1), (0, 2)),
    "istar2": ((1, 0), (2, 0)),
    "chain3": ((0, 1), (1, 2), (2, 3)),
    "ostar3": ((0, 1), (0, 2), (0, 3)),
    "istar3": ((1, 0), (2, 0), (3, 0)),
    "fork3": ((0, 1), (1, 2), (1, 3)),
    "join3": ((0, 1), (1, 2), (3, 2)),
}


def _instance(g, shape, rng: random.Random, attempts: int = 50):
    """Graph vertex per variable and graph edge per shape edge, or None."""
    for _ in range(attempts):
        first = rng.randrange(g.n_vertices, g.n_ids)
        s, t = g.endpoints(first)
        var = {shape[0][0]: s, shape[0][1]: t}
        edges = [first]
        for a, b in shape[1:]:
            if a in var:
                cands = [e for e in g.out_edges(var[a]) if e not in edges]
            else:
                cands = [e for e in g.in_edges(var[b]) if e not in edges]
            if not cands:
                break
            e = rng.choice(cands)
            edges.append(e)
            var[a], var[b] = g.endpoints(e)
        else:
            return var, edges
    return None


def _item(g, element: int, ident: str, rng: random.Random, label_p: float, prop_p: float) -> dict:
    item = {"id": ident}
    labels = sorted(g.labels_of(element))
    if labels and rng.random() < label_p:
        item["labels"] = [rng.choice(labels)]
    props = []
    for key, value in sorted(g.props_of(element).items()):
        if rng.random() >= prop_p:
            continue
        if rng.random() < 0.5:
            props.append({"key": key, "op": "=", "value": value})
        else:
            width = rng.randint(0, 2)
            props.append({"key": key, "op": ">=", "value": value - width})
            props.append({"key": key, "op": "<=", "value": value + width})
    if props:
        item["props"] = props
    return item


def draw_query(
    g, rng: random.Random, shape: str, label_p: float = 0.7, prop_p: float = 0.3
) -> dict | None:
    """One query document of the given shape, or None if the graph holds
    no instance of it within a few attempts."""
    found = _instance(g, SHAPES[shape], rng)
    if found is None:
        return None
    var, edges = found
    vertices = [_item(g, var[v], f"v{v}", rng, label_p, prop_p) for v in sorted(var)]
    doc_edges = []
    for k, ((a, b), e) in enumerate(zip(SHAPES[shape], edges)):
        item = _item(g, e, f"e{k}", rng, label_p, prop_p)
        item.update(src=f"v{a}", trg=f"v{b}")
        doc_edges.append(item)
    return {"vertices": vertices, "edges": doc_edges}
