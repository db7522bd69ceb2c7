"""Query patterns, their constraint sets, and subpattern enumeration.

A query pattern is a small directed graph whose vertices and edges carry
label sets and property predicates.  Every pattern compiles to a set of
atomic constraints (vertex/edge membership, src/trg incidence, label,
key presence, key-value predicate); all estimation downstream works on
those constraint sets.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Collection, Iterable, Optional, Union

Scalar = Union[str, int, float, bool]


class QueryFormatError(ValueError):
    """Raised when a query document is malformed."""


class PredicateKind(Enum):
    EQ = "="
    NEQ = "!="
    LT = "<"
    LEQ = "<="
    GT = ">"
    GEQ = ">="
    IN = "IN"
    CONTAINS = "CONTAINS"

    @classmethod
    def from_op(cls, op: str) -> "PredicateKind":
        for kind in cls:
            if kind.value == op:
                return kind
        raise QueryFormatError(f"unknown predicate operator: {op!r}")


_ORDER_OPS = (PredicateKind.LT, PredicateKind.LEQ, PredicateKind.GT, PredicateKind.GEQ)


def _type_class(v: Any) -> str:
    # bool is checked before int: Python bools are ints but graphs treat
    # them as a separate scalar type (cross-type comparison is false).
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "num"
    if isinstance(v, str):
        return "str"
    return "other"


def _same_class_eq(actual: Scalar, expected: Scalar) -> bool:
    return _type_class(actual) == _type_class(expected) and actual == expected


def predicate_holds(op: PredicateKind, actual: Scalar, expected: Any) -> bool:
    """Evaluate ``actual op expected``.

    Cross-type comparisons are unsatisfied rather than errors; int and
    float compare as numbers, strings compare lexicographically.
    """
    if op is PredicateKind.EQ:
        return _same_class_eq(actual, expected)
    if op is PredicateKind.NEQ:
        return _type_class(actual) == _type_class(expected) and actual != expected
    if op in _ORDER_OPS:
        cls = _type_class(actual)
        if cls != _type_class(expected) or cls not in ("num", "str"):
            return False
        if op is PredicateKind.LT:
            return actual < expected
        if op is PredicateKind.LEQ:
            return actual <= expected
        if op is PredicateKind.GT:
            return actual > expected
        return actual >= expected
    if op is PredicateKind.IN:
        return any(_same_class_eq(actual, alt) for alt in expected)
    if op is PredicateKind.CONTAINS:
        return isinstance(actual, str) and isinstance(expected, str) and expected in actual
    raise AssertionError(op)


def satisfies(constraints: Iterable[Constraint], labels: Collection[str], props: dict) -> bool:
    """Does an element meet every hasLabel, hasKey and propValue constraint?

    The element is given by its labels and props: a graph element's, or
    a sample record's "labels"/"props" or those of its "src"/"trg"
    sub-records.  Topology constraints raise ValueError.
    """
    for c in constraints:
        kind = c.kind
        if kind is ConstraintKind.HAS_LABEL:
            if c.label not in labels:
                return False
        elif kind is ConstraintKind.HAS_KEY:
            if c.key not in props:
                return False
        elif kind is ConstraintKind.PROP_VALUE:
            w = props.get(c.key)
            if w is None or not predicate_holds(c.op, w, c.value):
                return False
        else:
            raise ValueError(f"not a data constraint: {c!r}")
    return True


class ConstraintKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    SRC = "src"
    TRG = "trg"
    HAS_LABEL = "hasLabel"
    HAS_KEY = "hasKey"
    PROP_VALUE = "propValue"


_KIND_ORDER = {kind: i for i, kind in enumerate(ConstraintKind)}

# Data constraints restrict labels/properties of a single id; the rest
# restrict the topology.
DATA_KINDS = frozenset(
    {ConstraintKind.HAS_LABEL, ConstraintKind.HAS_KEY, ConstraintKind.PROP_VALUE}
)
PROP_KINDS = frozenset({ConstraintKind.HAS_KEY, ConstraintKind.PROP_VALUE})


@dataclass(frozen=True)
class Constraint:
    """One atomic requirement on a mapping from query ids to graph ids."""

    kind: ConstraintKind
    ids: tuple[str, ...]
    label: Optional[str] = None
    key: Optional[str] = None
    op: Optional[PredicateKind] = None
    value: Any = None

    @staticmethod
    def vertex(i: str) -> "Constraint":
        return Constraint(ConstraintKind.VERTEX, (i,))

    @staticmethod
    def edge(i: str) -> "Constraint":
        return Constraint(ConstraintKind.EDGE, (i,))

    @staticmethod
    def src(v: str, e: str) -> "Constraint":
        return Constraint(ConstraintKind.SRC, (v, e))

    @staticmethod
    def trg(v: str, e: str) -> "Constraint":
        return Constraint(ConstraintKind.TRG, (v, e))

    @staticmethod
    def has_label(i: str, label: str) -> "Constraint":
        return Constraint(ConstraintKind.HAS_LABEL, (i,), label=label)

    @staticmethod
    def has_key(i: str, key: str) -> "Constraint":
        return Constraint(ConstraintKind.HAS_KEY, (i,), key=key)

    @staticmethod
    def prop_value(i: str, key: str, op: PredicateKind, value: Any) -> "Constraint":
        if isinstance(value, list):
            value = tuple(value)
        return Constraint(ConstraintKind.PROP_VALUE, (i,), key=key, op=op, value=value)

    @property
    def id_set(self) -> frozenset[str]:
        return frozenset(self.ids)

    def sort_key(self) -> tuple:
        return (
            _KIND_ORDER[self.kind],
            self.ids,
            self.label or "",
            self.key or "",
            self.op.value if self.op else "",
            repr(self.value),
        )

    def __repr__(self) -> str:  # compact, used in traces
        if self.kind in (ConstraintKind.VERTEX, ConstraintKind.EDGE):
            return f"{self.kind.value}({self.ids[0]})"
        if self.kind in (ConstraintKind.SRC, ConstraintKind.TRG):
            return f"{self.kind.value}({self.ids[0]},{self.ids[1]})"
        if self.kind is ConstraintKind.HAS_LABEL:
            return f"hasLabel({self.ids[0]},{self.label})"
        if self.kind is ConstraintKind.HAS_KEY:
            return f"hasKey({self.ids[0]},{self.key})"
        return f"propValue({self.ids[0]},{self.key},{self.op.value},{self.value!r})"


def constraint_set_key(constraints: Iterable[Constraint]) -> tuple:
    """Canonical, deterministic key for a set of constraints."""
    return tuple(sorted(c.sort_key() for c in constraints))


def ids_of(constraints: Iterable[Constraint]) -> frozenset[str]:
    out: set[str] = set()
    for c in constraints:
        out.update(c.ids)
    return frozenset(out)


@dataclass(frozen=True)
class PartialEstimate:
    """A constraint set together with a selectivity estimate for it."""

    constraints: frozenset[Constraint]
    selectivity: float
    provenance: str = ""
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("partial estimate needs at least one constraint")
        if not (0.0 <= self.selectivity <= 1.0):
            raise ValueError(f"selectivity out of range: {self.selectivity}")
        object.__setattr__(self, "_key", constraint_set_key(self.constraints))

    @property
    def id_set(self) -> frozenset[str]:
        return ids_of(self.constraints)

    def key(self) -> tuple:
        """The canonical key of the constraint set.

        Computed once, when the estimate is made: the constraint set is
        frozen, so the key is the one `constraint_set_key` would return
        on every call.
        """
        return self._key


@dataclass
class QueryPattern:
    """A conjunctive graph pattern with labels and property predicates.

    Instances are immutable by convention; all operations treat them as
    read-only shared data.
    """

    vertices: frozenset[str]
    edges: frozenset[str]
    endpoints: dict[str, tuple[str, str]]
    labels: dict[str, frozenset[str]] = field(default_factory=dict)
    prop_constraints: list[tuple[str, str, PredicateKind, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.vertices & self.edges:
            raise QueryFormatError("vertex and edge id sets overlap")
        for e in self.edges:
            if e not in self.endpoints:
                raise QueryFormatError(f"edge {e!r} has no endpoints")
            s, t = self.endpoints[e]
            if s not in self.vertices or t not in self.vertices:
                raise QueryFormatError(f"edge {e!r} references undeclared vertex")
        all_ids = self.ids
        for i in self.labels:
            if i not in all_ids:
                raise QueryFormatError(f"label on unknown id {i!r}")
        for i, _, _, _ in self.prop_constraints:
            if i not in all_ids:
                raise QueryFormatError(f"property constraint on unknown id {i!r}")

    @property
    def ids(self) -> frozenset[str]:
        return self.vertices | self.edges

    def labels_of(self, i: str) -> frozenset[str]:
        return self.labels.get(i, frozenset())

    def out_query_edges(self, v: str) -> list[str]:
        return sorted(e for e in self.edges if self.endpoints[e][0] == v)

    def in_query_edges(self, v: str) -> list[str]:
        return sorted(e for e in self.edges if self.endpoints[e][1] == v)

    def incident_query_edges(self, v: str) -> list[str]:
        return sorted(e for e in self.edges if v in self.endpoints[e])


def load_document(doc: Union[str, dict]) -> dict:
    """A query document as a dict; raises QueryFormatError for invalid
    JSON text and for anything but an object."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise QueryFormatError(f"invalid query document: {exc}") from exc
    if not isinstance(doc, dict):
        raise QueryFormatError("query document must be an object")
    return doc


def label_list(labels: Any, ident: Any) -> list[str]:
    """An element's "labels" entry; raises QueryFormatError unless it is a
    list of strings (a bare string would split into one-letter labels)."""
    if not isinstance(labels, (list, tuple)) or not all(isinstance(l, str) for l in labels):
        raise QueryFormatError(f"labels of {ident!r} must be a list of strings: {labels!r}")
    return list(labels)


def parse_query(doc: Union[str, dict]) -> QueryPattern:
    """Parse a query document (JSON text or parsed dict) into a pattern.

    Documents with ``anyOf`` groups must be expanded first (see the
    engine's disjunction handling); this parser rejects them.
    """
    doc = load_document(doc)
    if doc.get("anyOf"):
        raise QueryFormatError("query contains anyOf groups; expand disjunctions first")
    for key in ("vertices", "edges"):
        items = doc.get(key, ())
        if not isinstance(items, (list, tuple)) or not all(isinstance(i, dict) for i in items):
            raise QueryFormatError(f"{key!r} must be a list of objects")

    vertices: set[str] = set()
    edges: set[str] = set()
    endpoints: dict[str, tuple[str, str]] = {}
    labels: dict[str, frozenset[str]] = {}
    props: list[tuple[str, str, PredicateKind, Any]] = []

    def add_common(item: dict, ident: str) -> None:
        labs = frozenset(label_list(item.get("labels", ()), ident))
        if labs:
            labels[ident] = labs
        for p in item.get("props", ()):
            try:
                key, op, value = p["key"], p["op"], p["value"]
            except (KeyError, TypeError) as exc:
                raise QueryFormatError(f"bad property constraint on {ident!r}: {p!r}") from exc
            kind = PredicateKind.from_op(op)
            if kind is PredicateKind.IN and not isinstance(value, (list, tuple)):
                raise QueryFormatError(f"IN predicate on {ident!r} needs a list value")
            props.append((ident, key, kind, tuple(value) if isinstance(value, list) else value))

    for item in doc.get("vertices", ()):
        ident = item.get("id")
        if not ident:
            raise QueryFormatError("vertex without id")
        if ident in vertices or ident in edges:
            raise QueryFormatError(f"duplicate id {ident!r}")
        vertices.add(ident)
        add_common(item, ident)
    for item in doc.get("edges", ()):
        ident = item.get("id")
        if not ident:
            raise QueryFormatError("edge without id")
        if ident in vertices or ident in edges:
            raise QueryFormatError(f"duplicate id {ident!r}")
        src, trg = item.get("src"), item.get("trg")
        if src not in vertices or trg not in vertices:
            raise QueryFormatError(f"edge {ident!r} references undeclared vertex")
        edges.add(ident)
        endpoints[ident] = (src, trg)
        add_common(item, ident)

    return QueryPattern(
        vertices=frozenset(vertices),
        edges=frozenset(edges),
        endpoints=endpoints,
        labels=labels,
        prop_constraints=props,
    )


def extract_constraints(q: QueryPattern) -> frozenset[Constraint]:
    """The full constraint set of a pattern.

    A mapping is a homomorphic match exactly when it satisfies every
    constraint returned here.
    """
    out: set[Constraint] = set()
    for v in q.vertices:
        out.add(Constraint.vertex(v))
    for e in q.edges:
        out.add(Constraint.edge(e))
        s, t = q.endpoints[e]
        out.add(Constraint.src(s, e))
        out.add(Constraint.trg(t, e))
    for i, labs in q.labels.items():
        for l in labs:
            out.add(Constraint.has_label(i, l))
    for i, key, op, value in q.prop_constraints:
        out.add(Constraint.has_key(i, key))
        out.add(Constraint.prop_value(i, key, op, value))
    return frozenset(out)


def implied_closure(constraints: Iterable[Constraint]) -> frozenset[Constraint]:
    """Close a constraint set under its deterministic implications.

    src/trg incidence implies vertex and edge membership of its ids; a
    key-value predicate implies presence of the key.  Inflationary and
    idempotent; never introduces constraints outside the pattern's set.
    """
    out = set(constraints)
    for c in list(out):
        if c.kind in (ConstraintKind.SRC, ConstraintKind.TRG):
            out.add(Constraint.vertex(c.ids[0]))
            out.add(Constraint.edge(c.ids[1]))
        elif c.kind is ConstraintKind.PROP_VALUE:
            out.add(Constraint.has_key(c.ids[0], c.key))
    return frozenset(out)


def iter_chains(q: QueryPattern, n: int) -> list[tuple[str, ...]]:
    """All directed chains of n distinct query edges over distinct vertices."""
    if n < 1:
        return []
    chains: list[tuple[str, ...]] = []

    def extend(seq: list[str], seen_vertices: set[str]) -> None:
        if len(seq) == n:
            chains.append(tuple(seq))
            return
        tail = q.endpoints[seq[-1]][1]
        for e in q.out_query_edges(tail):
            if e in seq:
                continue
            t = q.endpoints[e][1]
            if t in seen_vertices:
                continue
            seq.append(e)
            seen_vertices.add(t)
            extend(seq, seen_vertices)
            seen_vertices.discard(t)
            seq.pop()

    for e in sorted(q.edges):
        s, t = q.endpoints[e]
        if s == t:
            continue
        extend([e], {s, t})
    return chains


def iter_stars(q: QueryPattern, n: int, direction: str) -> list[tuple[str, tuple[str, ...]]]:
    """All (center, edge-subset) stars of size n.

    direction 'source' / 'target' restricts to common-source or
    common-target stars; 'any' allows mixed incidence.  The non-center
    endpoints must be pairwise distinct and differ from the center.
    """
    if n < 1:
        return []
    stars: list[tuple[str, tuple[str, ...]]] = []
    for v in sorted(q.vertices):
        if direction == "source":
            incident = q.out_query_edges(v)
        elif direction == "target":
            incident = q.in_query_edges(v)
        elif direction == "any":
            incident = q.incident_query_edges(v)
        else:
            raise ValueError(f"unknown star direction: {direction!r}")
        incident = [e for e in incident if q.endpoints[e][0] != q.endpoints[e][1]]
        for combo in itertools.combinations(incident, n):
            others = [_other_endpoint(q, e, v) for e in combo]
            if len(set(others)) == len(others) and v not in others:
                stars.append((v, combo))
    return stars


def _other_endpoint(q: QueryPattern, e: str, v: str) -> str:
    s, t = q.endpoints[e]
    return t if s == v else s


def constraints_for_edges(
    q: QueryPattern, edges: Iterable[str], with_labels: bool = True
) -> frozenset[Constraint]:
    """Topology (+ label) constraints of the subpattern spanned by edges."""
    out: set[Constraint] = set()
    ids: set[str] = set()
    for e in edges:
        s, t = q.endpoints[e]
        out.update((Constraint.edge(e), Constraint.src(s, e), Constraint.trg(t, e)))
        out.update((Constraint.vertex(s), Constraint.vertex(t)))
        ids.update((e, s, t))
    if with_labels:
        for i in ids:
            for l in q.labels_of(i):
                out.add(Constraint.has_label(i, l))
    return frozenset(out)


def data_constraints_by_id(q: QueryPattern) -> dict[str, frozenset[Constraint]]:
    """Per query id, its label / key / key-value constraints (non-empty only)."""
    per_id: dict[str, set[Constraint]] = {}
    for c in extract_constraints(q):
        if c.kind in DATA_KINDS:
            per_id.setdefault(c.ids[0], set()).add(c)
    return {i: frozenset(cs) for i, cs in per_id.items()}


def cs_pattern_of(q: QueryPattern, center: str, direction: str = "out") -> Optional[dict]:
    """The same-direction star of `center` plus its key constraints.

    Returns None when the pattern is unusable for characteristic-set
    lookup: no elements at all, duplicate edge labels, or a star edge
    without exactly one label.
    """
    if direction == "out":
        star_edges = q.out_query_edges(center)
        others = [q.endpoints[e][1] for e in star_edges]
    elif direction == "in":
        star_edges = q.in_query_edges(center)
        others = [q.endpoints[e][0] for e in star_edges]
    else:
        raise ValueError(f"unknown direction: {direction!r}")
    if len(set(others)) != len(others) or center in others:
        return None
    edge_labels: list[str] = []
    for e in star_edges:
        labs = q.labels_of(e)
        if len(labs) != 1:
            return None
        edge_labels.append(next(iter(labs)))
    keys = sorted({key for i, key, _, _ in q.prop_constraints if i == center})
    elements = set(edge_labels) | set(keys)
    if not elements or len(set(edge_labels)) != len(edge_labels):
        return None
    constraints = set(constraints_for_edges(q, star_edges, with_labels=False))
    constraints.add(Constraint.vertex(center))
    for e, l in zip(star_edges, edge_labels):
        constraints.add(Constraint.has_label(e, l))
    for k in keys:
        constraints.add(Constraint.has_key(center, k))
    return {
        "center": center,
        "edge_labels": tuple(edge_labels),
        "keys": tuple(keys),
        "elements": frozenset(elements),
        "constraints": frozenset(constraints),
    }
