"""Query patterns, their constraint sets, and subpattern enumeration.

A query pattern is a small directed graph whose vertices and edges carry
label sets and property predicates.  Every pattern compiles to a set of
atomic constraints (vertex/edge membership, src/trg incidence, label,
key presence, key-value predicate); all estimation downstream works on
those constraint sets.

A pattern compiles once, on first use (`QueryPattern.compiled`, a
`CompiledQuery`).  The compiled form holds the constraints in canonical
order (`Constraint.sort_key`), so bit i of an int stands for the i-th
constraint and a constraint set is an int mask whose ascending bits list
it in canonical order.  Per bit it holds the implied closure as a mask,
and per query id the mask of the constraints that name it.  A phase-1
technique names the set it estimates by its ids and kinds,
`within(ids) & kinds(ks)`; the subpattern some edges span is
`shape_mask`.  Each id's data constraints are grouped on the pattern
instead (`QueryPattern.data_by_id`), so the exact matcher reads them
without compiling it.  Every constraint the compiled form hands out is
one of its own objects, and phases 1-3 do their set work on masks:
unions, intersections, subset tests, closures (an OR of per-bit
closures) and overlap counts (`int.bit_count`).  A `PartialEstimate`
keeps its frozenset of constraints as the public view and caches its
mask in the compiled query it was last read through, so each estimate's
mask is computed once per `estimate()` call.  It also states its kind
(one of `ESTIMATE_KINDS`), set by the technique that makes it: later
phases read that field and never the provenance text.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Collection, Iterable, Iterator, Optional, Union

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

    The element is given by its labels and props.  `graph.allowed`, the
    data mask over a graph's ids and over a sample's records, calls it
    once per distinct label set and once per distinct value of a key; it
    is the predicate's one definition.  Topology constraints raise
    ValueError.
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

    # The hash and the sort key are kept once computed: a constraint is
    # hashed and ordered far more often than it is built.
    _hash = None
    _sort_key = None

    def __eq__(self, other: object) -> bool:
        """Equal exactly when the sort keys are: the key reads a value by
        its repr, so 1, 1.0 and True (all == each other) stay three
        predicates, as they are for `predicate_holds`."""
        if other.__class__ is not Constraint:
            return NotImplemented
        return self is other or self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.sort_key()))
        return self._hash

    def __reduce__(self) -> tuple:
        # rebuilt, not copied: a string's hash differs between processes
        return (Constraint, (self.kind, self.ids, self.label, self.key, self.op, self.value))

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

    def sort_key(self) -> tuple:
        if self._sort_key is None:
            object.__setattr__(self, "_sort_key", (
                _KIND_ORDER[self.kind],
                self.ids,
                self.label or "",
                self.key or "",
                self.op.value if self.op else "",
                repr(self.value),
            ))  # fmt: skip
        return self._sort_key

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


# What an estimate's number is, in the order dedup prefers them: an exact
# count, an estimate, an upper bound (Cai, Balazinska and Suciu's
# pessimistic bounds).
ESTIMATE_KINDS = ("exact", "estimate", "upper")


@dataclass(frozen=True)
class PartialEstimate:
    """A constraint set together with a selectivity estimate for it.

    `kind` says what the selectivity is (see ESTIMATE_KINDS).  It defaults
    to "exact": whoever builds an estimate by hand vouches for its number.
    """

    constraints: frozenset[Constraint]
    selectivity: float
    provenance: str = ""
    kind: str = "exact"
    # (compiled query, the constraint set as its mask), see CompiledQuery.mask_of
    _mask: tuple = field(default=(None, 0), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("partial estimate needs at least one constraint")
        if not (0.0 <= self.selectivity <= 1.0):
            raise ValueError(f"selectivity out of range: {self.selectivity}")
        if self.kind not in ESTIMATE_KINDS:
            raise ValueError(f"unknown estimate kind: {self.kind!r}")

    def key(self) -> tuple:
        """The canonical key of the constraint set."""
        return constraint_set_key(self.constraints)


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

    @functools.cached_property
    def compiled(self) -> "CompiledQuery":
        """The constraint set as bit positions, built on first use."""
        return CompiledQuery(self._constraints)

    @functools.cached_property
    def _constraints(self) -> frozenset[Constraint]:
        """The constraints the pattern compiles to, built once; closed
        under implied_closure."""
        return frozenset(_pattern_constraints(self))

    @functools.cached_property
    def data_by_id(self) -> dict[str, frozenset[Constraint]]:
        """Per query id, its hasLabel, hasKey and propValue constraints
        (ids without any are absent).  It does not compile the pattern:
        the oracle, which reads it first, does not pay for a compile."""
        per_id: dict[str, list[Constraint]] = {}
        for c in self._constraints:
            if c.kind in DATA_KINDS:
                per_id.setdefault(c.ids[0], []).append(c)
        return {i: frozenset(cs) for i, cs in per_id.items()}

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


# the Python types of a JSON scalar: a predicate value, or an IN list's item
_JSON_SCALARS = (str, int, float, bool, type(None))


def parse_query(doc: Union[str, dict]) -> QueryPattern:
    """Parse a query document (JSON text or parsed dict) into a pattern.

    Documents with ``anyOf`` groups must be expanded first (see the
    engine's disjunction handling); this parser rejects them.
    """
    doc = load_document(doc)
    if doc.get("anyOf"):
        raise QueryFormatError("query contains anyOf groups; expand disjunctions first")
    vertices: set[str] = set()
    edges: set[str] = set()
    endpoints: dict[str, tuple[str, str]] = {}
    labels: dict[str, frozenset[str]] = {}
    props: list[tuple[str, str, PredicateKind, Any]] = []
    # edge endpoints are checked by QueryPattern, once every vertex is known
    for part, noun, ids in (("vertices", "vertex", vertices), ("edges", "edge", edges)):
        items = doc.get(part, ())
        if not isinstance(items, (list, tuple)) or not all(isinstance(i, dict) for i in items):
            raise QueryFormatError(f"{part!r} must be a list of objects")
        for item in items:
            ident = item.get("id")
            if not ident:
                raise QueryFormatError(f"{noun} without id")
            if not isinstance(ident, str):
                raise QueryFormatError(f"{noun} id must be a string: {ident!r}")
            if ident in vertices or ident in edges:
                raise QueryFormatError(f"duplicate id {ident!r}")
            ids.add(ident)
            if ids is edges:
                ends = (item.get("src"), item.get("trg"))
                if not all(end is None or isinstance(end, str) for end in ends):
                    raise QueryFormatError(f"src and trg of edge {ident!r} must be strings: {ends!r}")
                endpoints[ident] = ends
            labs = frozenset(label_list(item.get("labels", ()), ident))
            if labs:
                labels[ident] = labs
            for p in item.get("props", ()):
                try:
                    key, op, value = p["key"], p["op"], p["value"]
                except (KeyError, TypeError) as exc:
                    raise QueryFormatError(f"bad property constraint on {ident!r}: {p!r}") from exc
                if not isinstance(key, str):
                    raise QueryFormatError(f"property key on {ident!r} must be a string: {key!r}")
                kind = PredicateKind.from_op(op)
                listed = kind is PredicateKind.IN
                if listed and not isinstance(value, (list, tuple)):
                    raise QueryFormatError(f"IN predicate on {ident!r} needs a list value")
                if not all(isinstance(v, _JSON_SCALARS) for v in (value if listed else (value,))):
                    raise QueryFormatError(f"predicate value on {ident!r} is not a JSON scalar: {value!r}")
                props.append((ident, key, kind, tuple(value) if listed else value))

    return QueryPattern(
        vertices=frozenset(vertices),
        edges=frozenset(edges),
        endpoints=endpoints,
        labels=labels,
        prop_constraints=props,
    )


def _pattern_constraints(q: QueryPattern) -> set[Constraint]:
    """Build the constraints a pattern compiles to."""
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
    return out


def extract_constraints(q: QueryPattern) -> frozenset[Constraint]:
    """The full constraint set of a pattern.

    A mapping is a homomorphic match exactly when it satisfies every
    constraint returned here.
    """
    return q._constraints


def implied_closure(constraints: Iterable[Constraint]) -> frozenset[Constraint]:
    """Close a constraint set under its deterministic implications.

    src/trg incidence implies vertex and edge membership of its ids; a
    key-value predicate implies presence of the key.  Inflationary and
    idempotent; never introduces constraints outside the pattern's set.
    A compiled query holds each of its constraints' closures as a mask
    (`CompiledQuery.closure`), so the estimate path does not call this.
    """
    out = set(constraints)
    for c in list(out):
        if c.kind in (ConstraintKind.SRC, ConstraintKind.TRG):
            out.add(Constraint.vertex(c.ids[0]))
            out.add(Constraint.edge(c.ids[1]))
        elif c.kind is ConstraintKind.PROP_VALUE:
            out.add(Constraint.has_key(c.ids[0], c.key))
    return frozenset(out)


def _selectors(mask: int) -> Iterator[bool]:
    """Whether each bit of mask is set, lowest bit first."""
    return map("1".__eq__, reversed(bin(mask)))


def union(masks: Iterable[int]) -> int:
    """The union of constraint masks."""
    return functools.reduce(operator.or_, masks, 0)


class CompiledQuery:
    """A constraint set with every constraint at a bit position.

    Bit i stands for `constraints[i]`; the constraints are in canonical
    order, so the ascending bits of a mask list its set in canonical
    order, and comparing two masks' ascending bit tuples orders them as
    their `constraint_set_key`s.  The set is closed under
    `implied_closure`.  Per bit it holds the implied closure (`closures`)
    as a mask, and per query id, in sorted order, the mask of the
    constraints that name it (`naming`; bit j of an id mask stands for
    the j-th id).  A set of constraints is named by its ids and kinds,
    `within(ids) & kinds(ks)`; the shape of the subpattern some edges
    span is `shape_mask` (each id's data constraints are grouped on the
    pattern).  A pattern's compiled form is `QueryPattern.compiled`;
    estimates that name constraints outside their pattern compile one
    over both (`compiled_for`).
    """

    def __init__(self, constraints: Iterable[Constraint]) -> None:
        """constraints: a set closed under `implied_closure`."""
        cs = tuple(sorted(set(constraints), key=Constraint.sort_key))
        self.constraints = cs
        self._bit = {c: 1 << i for i, c in enumerate(cs)}
        self._bit_tuples: dict[int, tuple[int, ...]] = {}
        self._views: dict[int, frozenset[Constraint]] = {}
        self._within: dict[Collection[str], int] = {}
        self._shapes: dict[tuple[str, ...], int] = {}  # see shape_mask
        naming = dict.fromkeys(sorted({i for c in cs for i in c.ids}), 0)
        self._kind_masks = [0] * len(_KIND_ORDER)
        implied: dict[Any, int] = {}  # id -> its membership's bit, (id, key) -> its hasKey's bit
        closures = []
        # one pass in canonical order, which puts the memberships before
        # the src/trg that imply them and each hasKey before the
        # propValue that implies it
        for n, c in enumerate(cs):
            bit, kind, i = 1 << n, c.kind, c.ids[0]
            self._kind_masks[_KIND_ORDER[kind]] |= bit
            naming[i] |= bit
            closure = bit
            if kind is ConstraintKind.VERTEX or kind is ConstraintKind.EDGE:
                implied[i] = bit
            elif kind is ConstraintKind.HAS_KEY:
                implied[(i, c.key)] = bit
            elif kind is ConstraintKind.SRC or kind is ConstraintKind.TRG:
                naming[c.ids[1]] |= bit
                closure |= implied[i] | implied[c.ids[1]]
            elif kind is ConstraintKind.PROP_VALUE:
                closure |= implied[(i, c.key)]
            closures.append(closure)
        self.closures, self.naming = tuple(closures), naming

    def mask(self, constraints: Iterable[Constraint]) -> int:
        """The mask of constraints equal to some of this set's."""
        return union(map(self._bit.__getitem__, constraints))

    def mask_of(self, pe: PartialEstimate) -> int:
        """An estimate's mask, cached on the estimate for this compiled query."""
        compiled, mask = pe._mask
        if compiled is not self:
            mask = self.mask(pe.constraints)
            object.__setattr__(pe, "_mask", (self, mask))
        return mask

    def estimate(self, mask: int, selectivity: float, provenance: str, kind: str) -> PartialEstimate:
        """A partial estimate of the given kind over the constraints of mask."""
        pe = PartialEstimate(self.view(mask), selectivity, provenance, kind)
        object.__setattr__(pe, "_mask", (self, mask))
        return pe

    def select(self, mask: int) -> Iterator[Constraint]:
        """The constraints of mask, in canonical order."""
        return itertools.compress(self.constraints, _selectors(mask))

    def view(self, mask: int) -> frozenset[Constraint]:
        """The constraints of mask as a frozenset; memoized like `bits`."""
        view = self._views.get(mask)
        if view is None:
            view = self._views[mask] = frozenset(self.select(mask))
        return view

    def bits(self, mask: int) -> tuple[int, ...]:
        """The ascending bits of mask: a tie-break that orders sets as
        their canonical keys do.  Memoized: sorts ask for the same masks
        again and again, and a query has few."""
        bits = self._bit_tuples.get(mask)
        if bits is None:
            bits = self._bit_tuples[mask] = tuple(itertools.compress(itertools.count(), _selectors(mask)))
        return bits

    def closure(self, mask: int) -> int:
        """The mask of `implied_closure` of the constraints of mask."""
        return union(itertools.compress(self.closures, _selectors(mask)))

    def ids_of(self, mask: int) -> int:
        """The ids the constraints of mask mention, as an id mask."""
        return union(1 << j for j, naming in enumerate(self.naming.values()) if naming & mask)

    def within(self, ids: Collection[str]) -> int:
        """The mask of every constraint whose ids all lie in ids (a tuple
        or a frozenset of query ids): a src/trg names two of them, any
        other constraint one.  Memoized: the techniques ask for the same
        few id sets, once per estimate call."""
        mask = self._within.get(ids)
        if mask is None:
            once = twice = 0  # the constraints that name at least one, two of ids
            for i in set(ids):
                naming = self.naming.get(i, 0)
                twice |= once & naming
                once |= naming
            mask = self._within[ids] = once & ~self.kinds((ConstraintKind.SRC, ConstraintKind.TRG)) | twice
        return mask

    def kinds(self, kinds: Iterable[ConstraintKind]) -> int:
        """The mask of every constraint of one of kinds."""
        return union(self._kind_masks[_KIND_ORDER[k]] for k in kinds)


def compiled_for(pes: list[PartialEstimate], q: QueryPattern) -> tuple[CompiledQuery, list[int]]:
    """q's compiled form when it holds every constraint of the estimates,
    else one compiled over q's constraints and theirs (estimates made by
    hand may name constraints of no query), with the estimates' masks."""
    try:
        return q.compiled, list(map(q.compiled.mask_of, pes))
    except KeyError:
        given = itertools.chain(q.compiled.constraints, *(pe.constraints for pe in pes))
        cq = CompiledQuery(implied_closure(given))
        return cq, list(map(cq.mask_of, pes))


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


def iter_stars(q: QueryPattern, n: int) -> list[tuple[str, tuple[str, ...]]]:
    """All (center, edge-subset) stars of size n, in any mix of directions.

    The non-center endpoints must be pairwise distinct and differ from
    the center.
    """
    if n < 1:
        return []
    stars: list[tuple[str, tuple[str, ...]]] = []
    for v in sorted(q.vertices):
        incident = [e for e in q.incident_query_edges(v) if q.endpoints[e][0] != q.endpoints[e][1]]
        for combo in itertools.combinations(incident, n):
            others = [_other_endpoint(q, e, v) for e in combo]
            if len(set(others)) == len(others) and v not in others:
                stars.append((v, combo))
    return stars


def _other_endpoint(q: QueryPattern, e: str, v: str) -> str:
    s, t = q.endpoints[e]
    return t if s == v else s


def shape_mask(q: QueryPattern, edges: tuple[str, ...]) -> int:
    """The mask of the subpattern the edges span, in `q.compiled`: every
    constraint on the edges and their endpoints but the property ones,
    i.e. their memberships, src/trg and labels.  Memoized per edge tuple."""
    cq = q.compiled
    mask = cq._shapes.get(edges)
    if mask is None:
        ids = frozenset(itertools.chain(edges, *map(q.endpoints.__getitem__, edges)))
        mask = cq._shapes[edges] = cq.within(ids) & ~cq.kinds(PROP_KINDS)
    return mask


def constraints_for_edges(q: QueryPattern, edges: Iterable[str]) -> frozenset[Constraint]:
    """Topology and label constraints of the subpattern spanned by edges."""
    return q.compiled.view(shape_mask(q, tuple(edges)))


def cs_pattern_of(q: QueryPattern, center: str, direction: str = "out") -> Optional[dict]:
    """The same-direction star of `center` plus its key constraints.

    The constraints come as a mask of `q.compiled`: the star's shape
    without the vertices' labels, and the center's membership and hasKey
    constraints.  Returns None when the pattern is unusable for
    characteristic-set lookup: no elements at all, duplicate edge labels,
    or a star edge without exactly one label.
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
    keys = sorted({c.key for c in q.data_by_id.get(center, ()) if c.kind is ConstraintKind.HAS_KEY})
    elements = set(edge_labels) | set(keys)
    if not elements or len(set(edge_labels)) != len(edge_labels):
        return None
    # the star edges keep their labels; the vertices' labels are no part of a CS
    cq = q.compiled
    vertex_labels = cq.within(q.vertices) & cq.kinds((ConstraintKind.HAS_LABEL,))
    mask = shape_mask(q, tuple(star_edges)) & ~vertex_labels
    mask |= cq.within((center,)) & cq.kinds((ConstraintKind.VERTEX, ConstraintKind.HAS_KEY))
    return {
        "center": center,
        "edge_labels": tuple(edge_labels),
        "keys": tuple(keys),
        "elements": frozenset(elements),
        "mask": mask,
    }
