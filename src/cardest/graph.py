"""Property-graph instances and the exact ground-truth matcher.

Graphs are immutable after construction and safe for unsynchronized
concurrent reads.  Element ids are opaque strings in files and densely
re-numbered to integers internally (vertices first, then edges).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Optional

from .query import (
    Constraint,
    ConstraintKind,
    QueryPattern,
    Scalar,
    data_constraints_by_id,
    predicate_holds,
    satisfies,
)


class GraphFormatError(ValueError):
    """A graph file line could not be parsed."""


class GraphIntegrityError(ValueError):
    """Graph content violates structural invariants (duplicate ids, dangling edges)."""


class OracleBudgetError(RuntimeError):
    """The exact matcher exceeded its node-expansion budget."""


DEFAULT_ORACLE_BUDGET = 10**8


class PropertyGraph:
    """Immutable property graph with adjacency indexes.

    Internally ids are ints: vertices are 0..n_vertices-1 and edges
    n_vertices..n_ids-1.  External string names are kept for I/O.
    """

    __slots__ = (
        "names",
        "n_vertices",
        "n_edges",
        "_name_to_id",
        "_endpoints",
        "_labels",
        "_props",
        "_out",
        "_in",
        "_out_by_label",
        "_in_by_label",
        "_fingerprint",
    )

    def __init__(
        self,
        vertices: Iterable[tuple[str, Iterable[str], dict[str, Scalar]]],
        edges: Iterable[tuple[str, str, str, Iterable[str], dict[str, Scalar]]],
    ) -> None:
        names: list[str] = []
        name_to_id: dict[str, int] = {}
        labels: list[frozenset[str]] = []
        props: list[dict[str, Scalar]] = []

        vertex_rows = list(vertices)
        edge_rows = list(edges)
        for name, labs, pr in vertex_rows:
            if name in name_to_id:
                raise GraphIntegrityError(f"duplicate id {name!r}")
            name_to_id[name] = len(names)
            names.append(name)
            labels.append(frozenset(labs))
            props.append(dict(pr))
        self.n_vertices = len(names)

        endpoints: list[tuple[int, int]] = []
        for name, src, trg, labs, pr in edge_rows:
            if name in name_to_id:
                raise GraphIntegrityError(f"duplicate id {name!r}")
            if src not in name_to_id or name_to_id[src] >= self.n_vertices:
                raise GraphIntegrityError(f"edge {name!r} references missing vertex {src!r}")
            if trg not in name_to_id or name_to_id[trg] >= self.n_vertices:
                raise GraphIntegrityError(f"edge {name!r} references missing vertex {trg!r}")
            name_to_id[name] = len(names)
            names.append(name)
            labels.append(frozenset(labs))
            props.append(dict(pr))
            endpoints.append((name_to_id[src], name_to_id[trg]))
        self.n_edges = len(endpoints)

        self.names = tuple(names)
        self._name_to_id = name_to_id
        self._endpoints = tuple(endpoints)
        self._labels = tuple(labels)
        self._props = tuple(props)

        out: dict[int, list[int]] = {}
        inn: dict[int, list[int]] = {}
        out_by_label: dict[tuple[int, str], list[int]] = {}
        in_by_label: dict[tuple[int, str], list[int]] = {}
        for k, (s, t) in enumerate(endpoints):
            e = self.n_vertices + k
            out.setdefault(s, []).append(e)
            inn.setdefault(t, []).append(e)
            for l in labels[e]:
                out_by_label.setdefault((s, l), []).append(e)
                in_by_label.setdefault((t, l), []).append(e)
        self._out = out
        self._in = inn
        self._out_by_label = out_by_label
        self._in_by_label = in_by_label
        self._fingerprint: Optional[str] = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n_ids(self) -> int:
        return self.n_vertices + self.n_edges

    def is_vertex(self, i: int) -> bool:
        return 0 <= i < self.n_vertices

    def is_edge(self, i: int) -> bool:
        return self.n_vertices <= i < self.n_ids

    @property
    def vertices(self) -> range:
        return range(self.n_vertices)

    @property
    def edges(self) -> range:
        return range(self.n_vertices, self.n_ids)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self._endpoints[e - self.n_vertices]

    def labels_of(self, i: int) -> frozenset[str]:
        return self._labels[i]

    def props_of(self, i: int) -> dict[str, Scalar]:
        return self._props[i]

    def prop(self, i: int, key: str) -> Optional[Scalar]:
        return self._props[i].get(key)

    def id_of(self, name: str) -> int:
        return self._name_to_id[name]

    def out_edges(self, v: int, label: Optional[str] = None) -> list[int]:
        """Edges whose source is v, optionally filtered by label."""
        if label is None:
            return self._out.get(v, [])
        return self._out_by_label.get((v, label), [])

    def in_edges(self, v: int, label: Optional[str] = None) -> list[int]:
        """Edges whose target is v, optionally filtered by label."""
        if label is None:
            return self._in.get(v, [])
        return self._in_by_label.get((v, label), [])

    # -- content hash --------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash; identical graphs hash identically."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            for i in sorted(self.vertices, key=lambda i: self.names[i]):
                h.update(_element_blob(self, i, None))
            for e in sorted(self.edges, key=lambda e: self.names[e]):
                h.update(_element_blob(self, e, self.endpoints(e)))
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PropertyGraph) and self.fingerprint() == other.fingerprint()

    def __repr__(self) -> str:
        return f"PropertyGraph(|V|={self.n_vertices}, |E|={self.n_edges})"


def _element_blob(g: PropertyGraph, i: int, ends: Optional[tuple[int, int]]) -> bytes:
    rec: dict[str, Any] = {
        "id": g.names[i],
        "labels": sorted(g.labels_of(i)),
        "props": {k: g.prop(i, k) for k in sorted(g.props_of(i))},
    }
    if ends is not None:
        rec["src"] = g.names[ends[0]]
        rec["trg"] = g.names[ends[1]]
    return json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# File I/O: one JSON record per line, vertices and edges in separate files.


def _parse_lines(path: str, required: tuple[str, ...]) -> Iterable[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
            if not isinstance(rec, dict) or any(k not in rec for k in required):
                raise GraphFormatError(f"{path}:{lineno}: record missing {required}")
            yield rec


def load_graph(vertex_file: str, edge_file: str) -> PropertyGraph:
    """Load a graph from line-delimited JSON vertex and edge files."""
    vertices = [
        (rec["id"], rec.get("labels", ()), rec.get("props", {}))
        for rec in _parse_lines(vertex_file, ("id",))
    ]
    edges = [
        (rec["id"], rec["src"], rec["trg"], rec.get("labels", ()), rec.get("props", {}))
        for rec in _parse_lines(edge_file, ("id", "src", "trg"))
    ]
    return PropertyGraph(vertices, edges)


def save_graph(g: PropertyGraph, vertex_file: str, edge_file: str) -> None:
    """Write a graph back to the line-delimited file format."""
    with open(vertex_file, "w", encoding="utf-8") as fh:
        for v in g.vertices:
            rec = {"id": g.names[v], "labels": sorted(g.labels_of(v)), "props": g.props_of(v)}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(edge_file, "w", encoding="utf-8") as fh:
        for e in g.edges:
            s, t = g.endpoints(e)
            rec = {
                "id": g.names[e],
                "src": g.names[s],
                "trg": g.names[t],
                "labels": sorted(g.labels_of(e)),
                "props": g.props_of(e),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Constraint checking and the exact matcher.

Mapping = dict[str, int]


def check_constraint(g: PropertyGraph, m: Mapping, c: Constraint) -> bool:
    """Does mapping m satisfy constraint c on graph g?

    Every id appearing in c must be assigned in m.  Nothing in the package
    calls this; it is the independent reference the tests check against.
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


class _Matcher:
    """Backtracking search over assignments, most-constrained id first."""

    def __init__(self, g: PropertyGraph, q: QueryPattern, isomorphic: bool, budget: int):
        self.g = g
        self.q = q
        self.isomorphic = isomorphic
        self.budget = budget
        self.expansions = 0
        # Per-id data constraints are checked eagerly while extending.
        self.data_constraints = data_constraints_by_id(q)

    def count(self) -> int:
        q = self.q
        if not q.ids:
            return 1
        assignment: Mapping = {}
        used: set[int] = set()
        order = sorted(q.ids)
        return self._search(assignment, used, set(order))

    def _candidates(self, i: str, assignment: Mapping) -> Optional[list[int]]:
        """Candidate graph ids for query id i under the partial assignment.

        Returns None to mean "everything of the right kind" (kept lazy so
        the most-constrained choice can prefer ids with real candidate
        lists before falling back to a full scan).
        """
        g, q = self.g, self.q
        if i in q.edges:
            s, t = q.endpoints[i]
            if s in assignment and t in assignment:
                cands = [e for e in g.out_edges(assignment[s]) if g.endpoints(e)[1] == assignment[t]]
            elif s in assignment:
                cands = list(g.out_edges(assignment[s]))
            elif t in assignment:
                cands = list(g.in_edges(assignment[t]))
            else:
                return None
            return cands
        # vertex: every assigned incident edge forces an endpoint; all of
        # them must agree, so intersect the forced sets
        forced: Optional[set[int]] = None
        for e in q.incident_query_edges(i):
            if e not in assignment:
                continue
            s, t = q.endpoints[e]
            gs, gt = g.endpoints(assignment[e])
            if s == i and t == i:
                this = {gs} if gs == gt else set()
            elif s == i:
                this = {gs}
            else:
                this = {gt}
            forced = this if forced is None else forced & this
        if forced is not None:
            return sorted(forced)
        return None

    def _search(self, assignment: Mapping, used: set[int], remaining: set[str]) -> int:
        if not remaining:
            return 1
        g = self.g
        # pick the unassigned id with the smallest candidate set
        best_id, best_cands = None, None
        for i in sorted(remaining):
            cands = self._candidates(i, assignment)
            if cands is None:
                continue
            if best_cands is None or len(cands) < len(best_cands):
                best_id, best_cands = i, cands
                if not best_cands:
                    break
        if best_id is None:
            best_id = min(remaining)
            best_cands = list(g.edges) if best_id in self.q.edges else list(g.vertices)

        remaining.discard(best_id)
        data = self.data_constraints.get(best_id)
        total = 0
        for cand in best_cands:
            self.expansions += 1
            if self.expansions > self.budget:
                raise OracleBudgetError(
                    f"exact matcher exceeded budget of {self.budget} expansions"
                )
            if self.isomorphic and cand in used:
                continue
            if data and not satisfies(data, g._labels[cand], g._props[cand]):
                continue
            assignment[best_id] = cand
            if self.isomorphic:
                used.add(cand)
            total += self._search(assignment, used, remaining)
            if self.isomorphic:
                used.discard(cand)
            del assignment[best_id]
        remaining.add(best_id)
        return total


def exact_matches(
    g: PropertyGraph,
    q: QueryPattern,
    semantics: str = "homomorphic",
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> int:
    """Exact number of matches of q on g; the oracle for all estimators.

    semantics is 'homomorphic' (default) or 'isomorphic' (all query ids
    map to pairwise-distinct graph ids).  Intended for desk-scale graphs;
    raises OracleBudgetError past the expansion budget.
    """
    if semantics not in ("homomorphic", "isomorphic"):
        raise ValueError(f"unknown semantics: {semantics!r}")
    return _Matcher(g, q, semantics == "isomorphic", budget).count()


def exact_selectivity(
    g: PropertyGraph, q: QueryPattern, budget: int = DEFAULT_ORACLE_BUDGET
) -> float:
    """Fraction of all possible mappings that are homomorphic matches."""
    if not q.ids:
        return 1.0
    if g.n_ids == 0:
        return 0.0
    return exact_matches(g, q, budget=budget) / float(g.n_ids ** len(q.ids))
