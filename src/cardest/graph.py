"""Property-graph instances and the exact ground-truth matcher.

Graphs are immutable after construction and safe for unsynchronized
concurrent reads.  Element ids are opaque strings in files and densely
re-numbered to integers internally (vertices first, then edges).  Each
graph has one element layout (`_Elements`), built on first use through
`PropertyGraph.derived`; the adjacency lists, the data masks and the
statistics builders all read it.

A query id's data constraints select graph elements, and the records of
a sample (`stats.Sample.view`), through one mask (`allowed`), a boolean
array over all ids.  It decides labels once per distinct label set of
the layout and key and value predicates once per distinct value of a
key, which it reads from the graph's column view (`_columns`), built by
the first mask that names a key.  The oracle counts acyclic patterns
bottom-up over the query tree with numpy (`_count_forest`) and
backtracks over the matches of every other pattern (`_Matcher`); both
check data constraints on the mask.  Two threads that race to build a
derived value build equal ones, and either may be kept.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, TypedDict, TypeVar

import numpy as np

from .fileform import FormError, MissingKey, codec
from .query import Constraint, ConstraintKind, QueryPattern, Scalar, satisfies


class GraphFormatError(ValueError):
    """A graph file line could not be parsed."""


class GraphIntegrityError(ValueError):
    """Graph content violates structural invariants (duplicate ids, dangling edges)."""


class OracleBudgetError(RuntimeError):
    """The exact matcher exceeded its node-expansion budget."""


DEFAULT_ORACLE_BUDGET = 10**8

_T = TypeVar("_T")


class PropertyGraph:
    """Immutable property graph with adjacency indexes.

    Internally ids are ints: vertices are 0..n_vertices-1 and edges
    n_vertices..n_ids-1.  External string names are kept for I/O.  Each
    distinct label set is stored once, numbered in order of first
    occurrence, and each id keeps its set's number.  The constructor reads
    `vertices` and then `edges` once each, so either may be a generator.
    """

    __slots__ = (
        "names",
        "n_vertices",
        "n_edges",
        "_name_to_id",
        "_endpoints",
        "_of",
        "_sets",
        "_props",
        "_fingerprint",
        "_derived",
    )

    def __init__(
        self,
        vertices: Iterable[tuple[str, Iterable[str], dict[str, Scalar]]],
        edges: Iterable[tuple[str, str, str, Iterable[str], dict[str, Scalar]]],
    ) -> None:
        names: list[str] = []
        name_to_id: dict[str, int] = {}
        of: list[int] = []
        number: dict[frozenset[str], int] = {}
        props: list[dict[str, Scalar]] = []

        # no list(): a record streamed from a file is freed once it has been read
        for name, labs, pr in vertices:
            if name in name_to_id:
                raise GraphIntegrityError(f"duplicate id {name!r}")
            name_to_id[name] = len(names)
            names.append(name)
            of.append(number.setdefault(frozenset(labs), len(number)))
            props.append(dict(pr))
        self.n_vertices = len(names)

        endpoints: list[tuple[int, int]] = []
        for name, src, trg, labs, pr in edges:
            if name in name_to_id:
                raise GraphIntegrityError(f"duplicate id {name!r}")
            if src not in name_to_id or name_to_id[src] >= self.n_vertices:
                raise GraphIntegrityError(f"edge {name!r} references missing vertex {src!r}")
            if trg not in name_to_id or name_to_id[trg] >= self.n_vertices:
                raise GraphIntegrityError(f"edge {name!r} references missing vertex {trg!r}")
            name_to_id[name] = len(names)
            names.append(name)
            of.append(number.setdefault(frozenset(labs), len(number)))
            props.append(dict(pr))
            endpoints.append((name_to_id[src], name_to_id[trg]))
        self.n_edges = len(endpoints)

        self.names = tuple(names)
        self._name_to_id = name_to_id
        self._endpoints = tuple(endpoints)
        self._of = of
        self._sets = tuple(number)
        self._props = tuple(props)
        self._fingerprint: Optional[str] = None
        self._derived: dict[Callable[[PropertyGraph], Any], Any] = {}

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
        return self._sets[self._of[i]]

    def props_of(self, i: int) -> dict[str, Scalar]:
        return self._props[i]

    def prop(self, i: int, key: str) -> Optional[Scalar]:
        return self._props[i].get(key)

    def id_of(self, name: str) -> int:
        return self._name_to_id[name]

    def out_edges(self, v: int) -> list[int]:
        """Edges whose source is v, ascending; [] if v is no vertex."""
        return self.derived(_adjacency)[0][v] if 0 <= v < self.n_vertices else []

    def in_edges(self, v: int) -> list[int]:
        """Edges whose target is v, ascending; [] if v is no vertex."""
        return self.derived(_adjacency)[1][v] if 0 <= v < self.n_vertices else []

    # -- content hash --------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash; identical graphs hash identically."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            for ids in (self.vertices, self.edges):
                for text in _record_texts(self, sorted(ids, key=self.names.__getitem__), _RECORD_ENCODER):
                    h.update(text.encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def derived(self, build: Callable[["PropertyGraph"], _T]) -> _T:
        """build(self), computed on the first call with that function and
        kept with the graph, which never changes: its element layout, the
        adjacency lists, the column view and the wander-join walk store
        (`estimators._walk_store`, a dict that the walks fill as they are
        drawn)."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PropertyGraph) and self.fingerprint() == other.fingerprint()

    def __repr__(self) -> str:
        return f"PropertyGraph(|V|={self.n_vertices}, |E|={self.n_edges})"


class _Elements(NamedTuple):
    """The graph's element layout: each element's label set as an id into
    `sets`, the distinct label sets, every edge's source and target in
    edge order, and the edges grouped by source (`out`) and by target
    (`into`) as `_runs` of those arrays.  Built once, so read-only."""

    of: np.ndarray
    sets: tuple[frozenset[str], ...]
    src: np.ndarray
    trg: np.ndarray
    out: tuple[np.ndarray, np.ndarray]
    into: tuple[np.ndarray, np.ndarray]


def _elements(g: PropertyGraph) -> _Elements:
    of = np.array(g._of, np.int64)
    src, trg = np.fromiter(itertools.chain.from_iterable(g._endpoints), np.int64, 2 * g.n_edges).reshape(-1, 2).T
    layout = _Elements(of, g._sets, src, trg, _runs(src, g.n_vertices), _runs(trg, g.n_vertices))
    for a in (of, src, trg, *layout.out, *layout.into):
        a.flags.writeable = False
    return layout


def _runs(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The offsets of every key's run, for keys in 0..n-1, and the
    positions of `keys` ordered by key, stably: the positions of key k
    are positions[offsets[k] : offsets[k + 1]], ascending."""
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return offsets, np.argsort(keys, kind="stable")


def _listed(a: np.ndarray, ints: list[int]) -> list[int]:
    """The values of `a` as the objects at those positions of `ints`, so
    that the lists built from one `ints` hold each int once."""
    return list(map(ints.__getitem__, a.tolist()))


def _adjacency(g: PropertyGraph) -> list[list[list[int]]]:
    """Each vertex's out-edges and in-edges, cut once from the layout."""
    layout, edge, lists = g.derived(_elements), list(g.edges), []
    for offsets, positions in (layout.out, layout.into):
        ids, bounds = _listed(positions, edge), offsets.tolist()
        lists.append([ids[bounds[v] : bounds[v + 1]] for v in g.vertices])
    return lists


def _columns(g: PropertyGraph) -> dict[str, tuple[np.ndarray, list[Optional[Scalar]]]]:
    """Per key, (codes, values): each id's value under the key as a code
    into the key's distinct values, -1 where the key is absent.  Values
    are told apart by type too, as `1`, `1.0` and `True` hash alike."""
    ids: dict[str, list[int]] = {}
    codes: dict[str, list[int]] = {}
    seen: dict[str, dict[tuple[type, Any], int]] = {}
    for i, props in enumerate(g._props):
        for key, v in props.items():
            if key not in seen:
                ids[key], codes[key], seen[key] = [], [], {}
            ids[key].append(i)
            codes[key].append(seen[key].setdefault((type(v), v), len(seen[key])))
    columns = {}
    for key, distinct in seen.items():
        column = np.full(g.n_ids, -1, np.int64)
        column[ids[key]] = codes[key]
        column.flags.writeable = False
        columns[key] = column, [v for _, v in distinct]
    return columns


def allowed(g: PropertyGraph, constraints: Iterable[Constraint]) -> np.ndarray:
    """A new boolean array over all ids: which elements meet every one of
    the data constraints.  `satisfies` decides it once per distinct label
    set when a label constraint is among them, and once per distinct value
    of each key the constraints name; only a key or value constraint
    builds the graph's column view (`_columns`)."""
    layout = g.derived(_elements)
    labels: list[Constraint] = []
    by_key: dict[Optional[str], list[Constraint]] = {}
    for c in constraints:
        if c.kind is ConstraintKind.HAS_LABEL:
            labels.append(c)
        else:
            by_key.setdefault(c.key, []).append(c)
    if labels:
        mask = np.array([satisfies(labels, s, {}) for s in layout.sets], bool)[layout.of]
    else:
        mask = np.ones(g.n_ids, bool)
    for key, cs in by_key.items():
        codes, values = g.derived(_columns).get(key, (-1, []))
        # the absent key's answer goes last, where code -1 reads it
        answers = [satisfies(cs, (), {key: v}) for v in values] + [satisfies(cs, (), {})]
        mask &= np.array(answers, bool)[codes]
    return mask


# the compact, key-sorted JSON text of a record, as json.dumps writes it
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# a record's line in the graph files: json.dumps(record, sort_keys=True)
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def _record_texts(g: PropertyGraph, ids: Iterable[int], encoder: json.JSONEncoder) -> Iterator[str]:
    """Each element of `ids` as `encoder` writes its record, one at a time:
    the line of the file format that the fingerprint hashes too, with keys
    "id", "labels" (sorted), "props" and an edge's "src" and "trg".  Names
    and labels go through json's ASCII string encoder, each distinct label
    set once; props go through `encoder` only when there are any."""
    string = json.encoder.encode_basestring_ascii
    comma, colon = encoder.item_separator, encoder.key_separator
    # the text between an element's name and its props, per label set
    middle = [f'{comma}"labels"{colon}[{comma.join(map(string, sorted(s)))}]{comma}"props"{colon}' for s in g._sets]
    at_id, at_src, at_trg = '{"id"' + colon, f'{comma}"src"{colon}', f'{comma}"trg"{colon}'
    of, names, props, ends, nv = g._of, g.names, g._props, g._endpoints, g.n_vertices
    for i in ids:
        text = f"{at_id}{string(names[i])}{middle[of[i]]}{encoder.encode(props[i]) if props[i] else '{}'}"
        if i < nv:
            yield text + "}"
        else:
            s, t = ends[i - nv]
            yield f"{text}{at_src}{string(names[s])}{at_trg}{string(names[t])}}}"


# ---------------------------------------------------------------------------
# File I/O: one JSON record per line, vertices and edges in separate files.


class _Named(TypedDict):
    id: str


class VertexRecord(_Named, total=False):
    """One line of a vertex file."""

    labels: list[str]
    props: dict[str, Optional[Scalar]]


class EdgeRecord(VertexRecord):
    """One line of an edge file."""

    src: str
    trg: str


_CHUNK = 128
_DECODER = json.JSONDecoder()


def _read_records(path: str, form: type) -> Iterable[dict]:
    """The records of one line-delimited JSON file, each checked against
    `form`; a malformed line raises GraphFormatError naming it.

    The records are yielded as they are read, and checked _CHUNK at a
    time, so that few of them are alive at once: a parsed record that
    outlives a few young-generation collections is promoted, and enough
    promoted objects start a full collection, which traverses the whole
    heap.  Each line is decoded by the C scanner alone; a line that it
    rejects, or that has text after its value, is decoded again by
    json.loads for json.loads's own error."""
    chunk: list = []
    linenos: list[int] = []

    def checked() -> list:
        try:
            return codec(form).decode(chunk)
        except FormError as exc:
            raise GraphFormatError(f"{path}:{linenos[exc.row]}: {exc}") from None
        except MissingKey as exc:
            raise GraphFormatError(f"{path}:{linenos[exc.row]}: record missing {exc}") from None

    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    try:
                        rec, end = _DECODER.raw_decode(line)
                    except json.JSONDecodeError:
                        end = -1
                    if end != len(line):
                        rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
                chunk.append(rec)
                linenos.append(lineno)
                if len(chunk) == _CHUNK:
                    yield from checked()
                    chunk, linenos = [], []
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    yield from checked()


def load_graph(vertex_file: str, edge_file: str) -> PropertyGraph:
    """Load a graph from line-delimited JSON vertex and edge files.

    The records stream into the graph, the vertex file's first, and a
    duplicate id or a dangling edge raises when the graph reads it.  So
    any error in the vertex file raises before the edge file is opened
    (a duplicate vertex id wins over a missing edge file), and within a
    file a record's integrity error wins over the format errors of later
    chunks of _CHUNK lines."""
    vertices = (
        (rec["id"], rec.get("labels", ()), rec.get("props", {}))
        for rec in _read_records(vertex_file, VertexRecord)
    )
    edges = (
        (rec["id"], rec["src"], rec["trg"], rec.get("labels", ()), rec.get("props", {}))
        for rec in _read_records(edge_file, EdgeRecord)
    )
    return PropertyGraph(vertices, edges)


def save_graph(g: PropertyGraph, vertex_file: str, edge_file: str) -> None:
    """Write a graph back to the line-delimited file format."""
    for path, ids in ((vertex_file, g.vertices), (edge_file, g.edges)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(text + "\n" for text in _record_texts(g, ids, _LINE_ENCODER))


# ---------------------------------------------------------------------------
# The exact matcher.

Mapping = dict[str, int]


class _Matcher:
    """Backtracking search over assignments, most-constrained id first."""

    def __init__(self, g: PropertyGraph, q: QueryPattern, isomorphic: bool, budget: int):
        self.g = g
        self.q = q
        self.isomorphic = isomorphic
        self.budget = budget
        self.expansions = 0
        # Per-id data constraints are checked eagerly while extending.
        self.masks = {i: allowed(g, cs).tolist() for i, cs in q.data_by_id.items()}

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
        ok = self.masks.get(best_id)
        total = 0
        for cand in best_cands:
            self.expansions += 1
            if self.expansions > self.budget:
                raise OracleBudgetError(
                    f"exact matcher exceeded budget of {self.budget} expansions"
                )
            if self.isomorphic and cand in used:
                continue
            if ok is not None and not ok[cand]:
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


def _is_forest(q: QueryPattern) -> bool:
    """Is q acyclic: no self-loop, no parallel query edges, no cycle?"""
    parent = {v: v for v in q.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            v = parent[v]
        return v

    for s, t in q.endpoints.values():
        rs, rt = find(s), find(t)
        if rs == rt:
            return False
        parent[rs] = rt
    return True


def _count_forest(g: PropertyGraph, q: QueryPattern) -> int:
    """Homomorphic match count of an acyclic pattern, bottom-up.

    Each query tree is rooted and visited in post-order.  A query
    vertex's table holds, per graph vertex, the number of matches of its
    subtree with the query vertex there; it starts as the vertex's mask
    (`allowed`), 1 where the vertex meets the query vertex's constraints.
    A child's table is pushed to its parent over the graph edges that the
    connecting query edge allows, from the child's end of each edge to
    the parent's, and the parent's table is multiplied by that message.
    The count is the product over trees of the sum of the root's table.

    A table entry is at most max_degree ** (edges below it), where
    max_degree is the largest out- or in-degree, so the tables hold int64
    while n_vertices * max_degree ** len(q.edges) stays below 2**63, and
    Python ints in object arrays beyond it.
    """
    data = q.data_by_id
    layout, n = g.derived(_elements), g.n_vertices
    max_degree = max(int(np.diff(offsets).max(initial=0)) for offsets, _ in (layout.out, layout.into))
    dtype = np.int64 if n * max_degree ** len(q.edges) < 2**63 else object
    tables = {u: allowed(g, data.get(u, ()))[:n].astype(np.int64).astype(dtype) for u in q.vertices}
    adjacent: dict[str, list[tuple[str, str]]] = {v: [] for v in q.vertices}
    for e, (s, t) in q.endpoints.items():
        adjacent[s].append((e, t))
        adjacent[t].append((e, s))

    total = 1
    seen: set[str] = set()
    for root in sorted(q.vertices):
        if root in seen:
            continue
        seen.add(root)
        # pre-order with each vertex's edge to its parent; reversed, every
        # child comes before its parent
        order: list[tuple[str, Optional[str], Optional[str]]] = []
        stack: list[tuple[str, Optional[str], Optional[str]]] = [(root, None, None)]
        while stack:
            u, via, up = stack.pop()
            order.append((u, via, up))
            for e, w in adjacent[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, e, u))

        for u, via, up in reversed(order):
            if via is None:
                total *= int(tables[u].sum())
                continue
            near, far = (layout.trg, layout.src) if q.endpoints[via][1] == u else (layout.src, layout.trg)
            keep = np.flatnonzero(allowed(g, data.get(via, ()))[n:])
            message = np.zeros(n, dtype)
            np.add.at(message, far[keep], tables[u][near[keep]])
            tables[up] *= message
    return total


def exact_matches(
    g: PropertyGraph,
    q: QueryPattern,
    semantics: str = "homomorphic",
    budget: Optional[int] = None,
) -> int:
    """Exact number of matches of q on g; the oracle for all estimators.

    semantics is 'homomorphic' (default) or 'isomorphic' (all query ids
    map to pairwise-distinct graph ids).  A homomorphic call on an
    acyclic pattern without a budget is counted bottom-up over the query
    tree, in time that does not grow with the number of matches.  Every
    other call, and every call that passes a budget, runs the
    backtracking matcher, which visits each match and raises
    OracleBudgetError past `budget` expansions (DEFAULT_ORACLE_BUDGET
    when None).
    """
    if semantics not in ("homomorphic", "isomorphic"):
        raise ValueError(f"unknown semantics: {semantics!r}")
    if semantics == "homomorphic" and budget is None and _is_forest(q):
        return _count_forest(g, q)
    if budget is None:
        budget = DEFAULT_ORACLE_BUDGET
    return _Matcher(g, q, semantics == "isomorphic", budget).count()


def scaled(x: float, n_ids: int, k: int) -> float:
    """x * n_ids ** k, for k of either sign (n_ids >= 1 when k < 0): at
    k = -len(ids) a match count becomes a selectivity, and at k = len(ids)
    a selectivity a match count.  While n_ids ** |k| converts to a float,
    this is x times or over float(n_ids ** |k|); past the float range it
    is exact (`Fraction`), rounded once, and inf when the result lies past
    it too.  An infinite or NaN x stays as it is."""
    scale = n_ids ** abs(k)
    try:
        f = float(scale)
    except OverflowError:
        if isinstance(x, float) and not math.isfinite(x):
            return x
        exact = Fraction(x) * scale if k >= 0 else Fraction(x) / scale
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf
    return x * f if k >= 0 else x / f


def exact_selectivity(g: PropertyGraph, q: QueryPattern, budget: Optional[int] = None) -> float:
    """Fraction of all possible mappings that are homomorphic matches."""
    if not q.ids:
        return 1.0
    if g.n_ids == 0:
        return 0.0
    return scaled(exact_matches(g, q, budget=budget), g.n_ids, -len(q.ids))
