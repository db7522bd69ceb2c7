"""Statistics catalog: everything the estimators can consume.

Builders scan an immutable graph and produce exact summaries: basic
counts, labeled topological synopses, per-edge-pattern join statistics,
characteristic sets, bound sketches, samples, and histograms.  The whole
bundle persists as a single JSON file tied to the source graph by a
content fingerprint.  The label counts, the synopses, SysR and the bound
sketch read the graph's one element layout (`graph._Elements`): label-set
ids, edge endpoints and the edges grouped by source and by target.

Each section is a dataclass whose file form follows its field
annotations: `to_dict` and `from_dict` come from one codec
(`fileform.codec`), which checks the type of every value it reads, so a
wrong-typed value or a missing key raises CatalogFormatError naming its
path.  A field whose file form differs from its annotation's declares it
with `fileform.stored`, next to the field.  A condition that spans a
section's fields is checked in its `__post_init__`, when the section is
built and when it is read: a sample's pattern type must be known, its
probability in (0, 1] and its members of the kinds the pattern type
holds, with their endpoints in an edge-pattern sample; a synopsis's
class must be known and its size at least one; a characteristic-set
store's direction must be `out` or `in`; a histogram's domain must be
known and its buckets hold the domain's keys; and a grid's cells must
lie within its axes.

Wildcard label slots are encoded as "*"; synopsis/sketch keys are compact
JSON arrays so arbitrary label strings stay unambiguous.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import reprlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence, TypedDict, Union

import numpy as np

from .fileform import FormError, MissingKey, codec, require, stored
from .graph import PropertyGraph, _elements, allowed
from .query import Constraint, PredicateKind, Scalar, predicate_holds

WILDCARD = "*"
CATALOG_VERSION = 1


class CatalogFormatError(ValueError):
    """A persisted catalog could not be parsed."""


class StaleCatalogWarning(UserWarning):
    """Catalog fingerprint does not match the graph it is used with."""


class _Section:
    """A catalog section: its file form follows its field annotations."""

    def to_dict(self) -> dict:
        return codec(type(self)).encode(self)

    @classmethod
    def from_dict(cls, d: dict):
        try:
            return codec(cls).decode([d])[0]
        except FormError as exc:
            raise CatalogFormatError(str(exc)) from None
        except MissingKey as exc:
            where = f"{exc.path.lstrip('.')}: " if exc.path else ""
            raise CatalogFormatError(f"{where}malformed catalog (KeyError: {exc})") from None


def _label_options(labels: frozenset[str]) -> list[str]:
    return sorted(labels) + [WILDCARD]


def _compact(x: Any) -> str:
    return json.dumps(x, separators=(",", ":"))


def edge_key(ls: str, le: str, lt: str) -> str:
    return _compact([ls, le, lt])


def chain_key(slots: Sequence[str]) -> str:
    return _compact(list(slots))


def star_key(center: str, branches: Iterable[tuple[str, str]]) -> str:
    return _star_text(_compact(center), [_compact(list(b)) for b in sorted(branches)])


def _star_text(center: str, branches: Sequence[str]) -> str:
    """A star key from the JSON texts of its center label and sorted branches."""
    return _joined([center, _joined(branches)])


def _joined(texts: Iterable[str]) -> str:
    """The compact JSON array of the values with these JSON texts."""
    return "[" + ",".join(texts) + "]"


# ---------------------------------------------------------------------------
# Basic statistics


# an exact triple's value: a scalar, or the list of an IN predicate (a tuple)
_Value = Union[Optional[Scalar], tuple[Optional[Scalar], ...]]


def exact_key(key: str, op: str, value: _Value) -> tuple[str, str, _Value, str]:
    """The `BasicStats.prop_exact` key of a (key, op, value) triple: the
    triple and its value's repr, which tells 1, 1.0 and True apart as
    `Constraint.sort_key` does (1 == 1.0 == True would merge their rows)."""
    return key, op, value, repr(value)


@dataclass
class BasicStats(_Section):
    n_vertices: int
    n_edges: int
    n_ids: int
    label_sel: dict[str, tuple[int, int]] = field(default_factory=dict)
    key_sel: dict[str, int] = field(default_factory=dict)
    # keyed by `exact_key`; stored as [key, op, value, count] rows, in repr order
    prop_exact: dict[tuple[str, str, _Value, str], int] = field(
        default_factory=dict,
        metadata=stored(
            list[tuple[str, str, _Value, int]],
            out=lambda m: [(k, op, v, n) for (k, op, v, _), n in sorted(m.items(), key=repr)],
            back=lambda rows: {exact_key(k, op, v): n for k, op, v, n in rows},
        ),
    )

    def __post_init__(self) -> None:
        """Every count of a label, a key or an exact triple lies in [0, n_ids]."""
        counts = [(f".label_sel[{l!r}][{j}]", n) for l, pair in self.label_sel.items() for j, n in enumerate(pair)]
        counts += [(f".key_sel[{k!r}]", n) for k, n in self.key_sel.items()]
        counts += [(f".prop_exact[{triple[:3]!r}]", n) for triple, n in self.prop_exact.items()]
        for path, n in counts:
            if not 0 <= n <= self.n_ids:
                raise FormError(f"a count in [0, {self.n_ids}]", n, path=path)

    def label_count(self, label: str) -> int:
        v, e = self.label_sel.get(label, (0, 0))
        return v + e


def build_basic(
    g: PropertyGraph,
    prop_exact_triples: Iterable[tuple[str, Union[str, PredicateKind], Any]] = (),
) -> BasicStats:
    """Exact element counts plus, optionally, exact counts for configured
    (key, op, value) triples; an IN triple's value must be a list."""
    layout, n = g.derived(_elements), g.n_vertices
    per_set = (np.bincount(of, minlength=len(layout.sets)).tolist() for of in (layout.of[:n], layout.of[n:]))
    label_sel: dict[str, tuple[int, int]] = {}
    for labels, v, e in zip(layout.sets, *per_set):
        for l in labels:
            lv, le = label_sel.get(l, (0, 0))
            label_sel[l] = (lv + v, le + e)
    key_sel = dict(Counter(k for i in range(g.n_ids) for k in g.props_of(i)))

    prop_exact: dict[tuple[str, str, _Value, str], int] = {}
    for key, op, value in prop_exact_triples:
        kind = op if isinstance(op, PredicateKind) else PredicateKind.from_op(op)
        if kind is PredicateKind.IN and not isinstance(value, (list, tuple)):
            raise ValueError(f"IN predicate on {key!r} needs a list value")
        c = Constraint.prop_value("x", key, kind, value)
        prop_exact[exact_key(key, kind.value, c.value)] = int(np.count_nonzero(allowed(g, [c])))

    return BasicStats(
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        n_ids=g.n_ids,
        label_sel=label_sel,
        key_sel=key_sel,
        prop_exact=prop_exact,
    )


# ---------------------------------------------------------------------------
# Labeled topological synopses

SYNOPSIS_CLASSES = ("edge", "chain", "source_star", "target_star")


@dataclass
class LabeledTopoSynopsis(_Section):
    """Exact cardinalities of small labeled patterns of one class.

    Counts cover every label combination that occurs, including wildcard
    slots, for all sizes 1..max_size.  A count keyed with all-wildcard
    labels is the purely topological cardinality.
    """

    klass: str = field(metadata=stored(key="class"))
    max_size: int
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """A known class and a size of at least one."""
        if self.klass not in SYNOPSIS_CLASSES:
            raise FormError(" or ".join(SYNOPSIS_CLASSES), self.klass, path=".class")
        if self.max_size < 1:
            raise FormError("a size >= 1", self.max_size, path=".max_size")

    def count_edge(self, ls: str, le: str, lt: str) -> Optional[int]:
        return self.counts.get(edge_key(ls, le, lt))

    def count_chain(self, slots: Sequence[str]) -> Optional[int]:
        return self.counts.get(chain_key(slots))

    def count_star(self, center: str, branches: Iterable[tuple[str, str]]) -> Optional[int]:
        return self.counts.get(star_key(center, branches))


def _positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions starts[i] .. starts[i] + lengths[i] - 1 of every run
    i, run after run."""
    pos = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    pos += np.arange(len(pos))
    return pos


def _extended(prefixes: np.ndarray, packed: np.ndarray, n_symbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's prefix (a row of prefixes) followed by a symbol, packed
    as prefix * n_symbols + symbol: the distinct extended prefixes,
    ascending, and each row's index among them.  Re-indexing keeps the
    ids dense, so no packed id outgrows int64 however long the prefixes
    get."""
    space = len(prefixes) * n_symbols
    if space <= len(packed):
        # a table over every (prefix, symbol) pair: no longer than the rows, and no sort
        seen = np.zeros(space, bool)
        seen[packed] = True
        distinct, index = np.flatnonzero(seen), (np.cumsum(seen) - 1)[packed]
    else:
        distinct, index = _grouped(packed)
    return np.column_stack([prefixes[distinct // n_symbols], distinct % n_symbols]), index


def _grouped(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and each key's index among them:
    np.unique(keys, return_inverse=True), by the stable argsort that the
    builders load anyway (np.unique's quicksort added 0.2 MB to grade's
    peak RSS)."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(len(keys), bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    index = np.empty(len(keys), np.int64)
    index[order] = np.cumsum(first) - 1
    return ordered[first], index


def _sums(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The values summed per index into n slots, exactly in their dtype
    (int64, or Python ints in an object array)."""
    out = np.zeros(n, values.dtype)
    np.add.at(out, index, values)
    return out


def _keys(signatures: np.ndarray, sets: Sequence[frozenset[str]]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every label/wildcard combination of the signatures' slots (rows of
    ids into sets) as a key text, and every (signature, key) pair of a
    signature and a key it matches, as two index arrays."""
    labels: dict[str, int] = {}
    options = [[labels.setdefault(o, len(labels)) for o in _label_options(s)] for s in sets]
    lengths = np.array([len(os) for os in options], np.int64)
    starts = np.cumsum(lengths) - lengths
    flat = np.array([o for os in options for o in os], np.int64)
    rows = np.arange(len(signatures))
    combos, ids = np.zeros((1, 0), np.int64), np.zeros(len(signatures), np.int64)
    for slot in signatures.T:
        at = slot[rows]
        n_options = lengths[at]
        pos = _positions(starts[at], n_options)
        rows = np.repeat(rows, n_options)
        combos, ids = _extended(combos, np.repeat(ids, n_options) * len(labels) + flat[pos], len(labels))
    texts = np.array([_compact(l) for l in labels], object)
    return list(map(_joined, texts[combos].tolist())), rows, ids


def _chain_counts(g: PropertyGraph, max_size: int) -> dict[str, int]:
    """The chain synopsis's counts by key (see build_labeled_synopsis)."""
    n = g.n_vertices
    of, sets, src, trg, (offsets, by_source), _ = g.derived(_elements)
    # no count below exceeds the number of walks of its size, and the
    # float sums of those numbers err by far less than the factor 2 that
    # 2**62 leaves below int64's limit
    walks, most = np.ones(n), 0.0
    for _ in range(max_size):
        walks = np.bincount(trg, weights=walks[src], minlength=n)
        most = max(most, walks.sum())
    dtype = np.int64 if most < 2**62 else object
    # each edge's step (L(edge), L(target)) as a row of steps; edges by source
    steps, step = _extended(np.arange(len(sets))[:, None], of[n:] * len(sets) + of[trg], len(sets))
    step, trg = step[by_source], trg[by_source]
    first, degree = offsets[:-1], np.diff(offsets)
    # walk states: end vertex, signature (a row of signatures: L(v0), then
    # a step per edge) and the number of walks
    end, sig, count = np.arange(n), of[:n], np.ones(n, dtype)
    signatures = np.arange(len(sets))[:, None]
    counts: dict[str, int] = {}
    for size in range(1, max_size + 1):
        # join every state with the out-edges of its end vertex
        out = degree[end]
        pos = _positions(first[end], out)
        if not len(pos):
            break
        packed = np.repeat(sig * len(steps), out)
        packed += step[pos]
        signatures, sig = _extended(signatures, packed, len(steps))
        count = np.repeat(count, out)
        slots = np.column_stack([signatures[:, 0], steps[signatures[:, 1:]].reshape(len(signatures), 2 * size)])
        texts, rows, ids = _keys(slots, sets)
        per_key = _sums(ids, _sums(sig, count, len(signatures))[rows], len(texts))
        counts.update(zip(texts, per_key.tolist()))
        if size < max_size:
            # merge the walks that share their end vertex and signature
            packed = trg[pos]
            packed *= len(signatures)
            packed += sig
            states, state = _extended(np.arange(n)[:, None], packed, len(signatures))
            end, sig, count = states[:, 0], states[:, 1], _sums(state, count, len(states))
    return counts


def _edge_pattern_degrees(g: PropertyGraph) -> Iterator[tuple[str, list[tuple[np.ndarray, np.ndarray]]]]:
    """Per labeled edge pattern that occurs, its key and, as sources and
    as targets, the vertices of nonzero degree among its edges and their
    degrees.  Each signature (L(src), L(edge), L(trg)) keeps the degrees
    of its own edges' vertices, and a key sums those of the signatures it
    matches, one key at a time, so no vertex-length array outlives its key."""
    n = g.n_vertices
    of, sets, src, trg, _, _ = g.derived(_elements)
    pairs, pair = _extended(np.arange(len(sets))[:, None], of[src] * len(sets) + of[n:], len(sets))
    signatures, sig = _extended(pairs, pair * len(sets) + of[trg], len(sets))
    # per role, each signature's (vertex, degree) pairs, signature after signature
    roles = []
    for ends in (src, trg):
        packed, at = _grouped(sig * n + ends)
        degree = np.bincount(at)
        roles.append((np.searchsorted(packed // n, np.arange(len(signatures) + 1)), packed % n, degree))
    texts, rows, ids = _keys(signatures, sets)
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(len(texts) + 1)).tolist()
    for k, text in enumerate(texts):
        members = rows[order[bounds[k] : bounds[k + 1]]].tolist()
        out = []
        for first, vertex, degree in roles:
            total = np.zeros(n, np.int64)
            for s in members:
                total[vertex[first[s] : first[s + 1]]] += degree[first[s] : first[s + 1]]
            nonzero = np.flatnonzero(total)
            out.append((nonzero, total[nonzero]))
        yield text, out


def _multiset_sums(m: np.ndarray, max_size: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every multiset of 1..max_size columns of m (ascending column
    indices, repeats allowed) whose product over a row, summed over the
    rows, is not 0, with that sum.  m holds no negative entry, so a
    multiset whose sum is 0 extends to none that is not."""
    # a multiset, its product per row (rows where it is 0 dropped), the
    # first column that may extend it (its last) and the columns from there
    stack = [((), np.ones(len(m), m.dtype), 0, m)]
    while stack:
        multiset, product, first, rest = stack.pop()
        for j, n in enumerate((product @ rest).tolist()):
            if n:
                longer = multiset + (first + j,)
                yield longer, n
                if len(longer) < max_size:
                    p = product * rest[:, j]
                    keep = np.flatnonzero(p)
                    stack.append((longer, p[keep], first + j, rest[keep, j:]))


def _star_counts(g: PropertyGraph, outgoing: bool, max_size: int) -> dict[str, int]:
    """The star synopsis's counts by key (see build_labeled_synopsis)."""
    n = g.n_vertices
    of, sets, src, trg, _, _ = g.derived(_elements)
    center, other = (src, trg) if outgoing else (trg, src)
    # each edge's branch (L(e), L(other end)) as descriptor columns, sorted as star keys sort them
    texts, edge, descriptor = _keys(np.column_stack([of[n:], of[other]]), sets)
    order = sorted(range(len(texts)), key=lambda j: json.loads(texts[j]))
    texts, width = [texts[j] for j in order], len(texts)
    cells = center[edge] * width + np.argsort(order)[descriptor]
    # center x descriptor: the center's incident edges that match it
    delta = np.bincount(cells, minlength=n * width).reshape(n, width)
    degree = np.bincount(center, minlength=n)
    # no sum or product below exceeds sum(deg(v) ** max_size)
    if sum(d**max_size for d in degree.tolist()) >= 2**63:
        delta = delta.astype(object)
    centers = np.flatnonzero(degree)
    counts: dict[str, int] = {}
    for s in np.unique(of[centers]).tolist():
        center_options = [_compact(lc) for lc in _label_options(sets[s])]
        for multiset, n_matches in _multiset_sums(delta[centers[of[centers] == s]], max_size):
            parts = [texts[j] for j in multiset]
            for center_text in center_options:
                key = _star_text(center_text, parts)
                counts[key] = counts.get(key, 0) + n_matches
    return counts


def build_labeled_synopsis(g: PropertyGraph, klass: str, max_size: int = 1) -> LabeledTopoSynopsis:
    """Count the homomorphic cardinality of every labeled pattern of the
    class up to max_size (chains/stars store all sizes 1..max_size).

    Chains (an edge is a 1-chain) count walks by a sparse DP over numpy
    arrays.  A walk state is an end vertex, a signature (L(v0), then
    L(e), L(v) per edge, as an id) and a count.  Each step joins the
    states with their end vertex's out-edges, grouped by source in the
    graph's layout, re-indexes the longer signatures so that their ids
    stay dense however many label sets occur, and merges the states that
    share their end vertex and signature by an exact sum.  Each size's
    signatures expand into their label/wildcard combinations by the same
    re-indexed joins, and a key counts the walks of every signature it
    matches.  Stars count from one matrix: a row per center with
    incident edges, a column per branch descriptor (an (L(e) option,
    L(other end) option) pair, expanded by the same joins, sorted)
    holding the center's incident edges that match it.  Per center
    label set, a depth-first walk over the sorted descriptor multisets
    multiplies the prefix's per-row product by the remaining columns and
    sums over the rows in one numpy call, descending only into nonzero
    sums; each sum counts for every label option of the center.  Counts
    are exact: chains count in int64 while the walks of every size
    number below 2**62, and the star matrix holds int64 when
    sum(deg(v) ** max_size) fits; both count in Python ints otherwise.
    """
    synopsis = LabeledTopoSynopsis(klass, max_size)  # checks the class and the size
    if max_size > 4:
        raise ValueError("max_size > 4 is not supported (resource guard)")
    if klass in ("edge", "chain"):
        synopsis.max_size = max_size if klass == "chain" else 1
        synopsis.counts = _chain_counts(g, synopsis.max_size)
    else:
        synopsis.counts = _star_counts(g, klass == "source_star", max_size)
    return synopsis


# ---------------------------------------------------------------------------
# System R style per-edge-pattern statistics


@dataclass
class SysRStats(_Section):
    """Per labeled edge pattern: cardinality and distinct endpoint counts."""

    entries: dict[str, tuple[int, int, int]] = field(default_factory=dict)

    def lookup(self, ls: str, le: str, lt: str) -> tuple[int, int, int]:
        return self.entries.get(edge_key(ls, le, lt), (0, 0, 0))


def build_system_r(g: PropertyGraph) -> SysRStats:
    """Per labeled edge pattern, the edge count and the numbers of
    distinct sources and targets: the sum of the pattern's source
    degrees and the counts of its nonzero source and target degrees
    (see _edge_pattern_degrees)."""
    entries = {
        key: (int(degree.sum()), len(sources), len(targets))
        for key, ((sources, degree), (targets, _)) in _edge_pattern_degrees(g)
    }
    return SysRStats(entries=entries)


# ---------------------------------------------------------------------------
# Characteristic sets


@dataclass
class CSEntry:
    cs: frozenset[str]
    count: int
    label_counts: dict[str, int] = field(default_factory=dict)


def _cs_rank(e: CSEntry) -> tuple:
    """Most frequent first, then by sorted labels."""
    return (-e.count, sorted(e.cs))


@dataclass
class CharacteristicSetStore(_Section):
    """Counts of vertices per characteristic set.

    The characteristic set of a vertex is the set of labels on its
    outgoing (or, for direction 'in', incoming) edges plus its property
    keys.  Property keys carry no explicit per-label count: their count
    equals the vertex count of the entry.
    """

    entries: list[CSEntry] = field(default_factory=list, metadata=stored(out=lambda es: sorted(es, key=_cs_rank)))
    max_entries: int = 10000
    direction: str = "out"

    def __post_init__(self) -> None:
        """A direction of `out` or `in`."""
        if self.direction not in ("out", "in"):
            raise FormError("out or in", self.direction, path=".direction")

    def supersets(self, elements: frozenset[str]) -> list[CSEntry]:
        return [e for e in self.entries if e.cs >= elements]


def build_char_sets(
    g: PropertyGraph, max_entries: int = 10000, direction: str = "out"
) -> CharacteristicSetStore:
    """One entry per distinct characteristic set, merged down to at most
    max_entries (keep the most frequent, fold the rest into supersets)."""
    store = CharacteristicSetStore(max_entries=max_entries, direction=direction)  # checks the direction
    if max_entries < 1:
        raise ValueError("max_entries must be >= 1")

    by_cs: dict[frozenset[str], CSEntry] = {}
    for v in g.vertices:
        incident = g.out_edges(v) if direction == "out" else g.in_edges(v)
        labels: list[str] = []
        for e in incident:
            labels.extend(g.labels_of(e))
        # vertices with no incident edges and no keys land in an empty-set
        # entry so entry counts always sum to the vertex total
        cs = frozenset(labels) | frozenset(g.props_of(v))
        entry = by_cs.get(cs)
        if entry is None:
            entry = by_cs[cs] = CSEntry(cs, 0, {})
        entry.count += 1
        for l in labels:
            entry.label_counts[l] = entry.label_counts.get(l, 0) + 1

    entries = sorted(by_cs.values(), key=_cs_rank)
    if len(entries) > max_entries:
        kept = entries[:max_entries]
        victims = sorted(entries[max_entries:], key=lambda e: (e.count, sorted(e.cs)))
        for victim in victims:
            _merge_cs(kept, victim.cs, victim.count, victim.label_counts)
        entries = kept
    store.entries = entries
    return store


def _merge_cs(
    kept: list[CSEntry], cs: frozenset[str], count: int, label_counts: dict[str, int]
) -> None:
    supersets = [e for e in kept if e.cs >= cs]
    if supersets:
        # smallest superset, most frequent on ties, then lexicographic
        target = min(supersets, key=lambda e: (len(e.cs), -e.count, sorted(e.cs)))
        target.count += count
        for l, c in label_counts.items():
            target.label_counts[l] = target.label_counts.get(l, 0) + c
        return
    # no direct superset: split off the largest piece contained in a kept
    # CS and merge the parts separately (the vertex count stays with the
    # matched piece so entry counts still sum to the vertex total)
    best: Optional[frozenset[str]] = None
    for e in kept:
        inter = cs & e.cs
        if inter and (best is None or (len(inter), sorted(inter)) > (len(best), sorted(best))):
            best = inter
    if best is None:
        # shares nothing with any kept entry; keep it rather than lose the counts
        kept.append(CSEntry(cs, count, dict(label_counts)))
        return
    rest = cs - best
    _merge_cs(kept, best, count, {l: c for l, c in label_counts.items() if l in best})
    if rest:
        _merge_cs(kept, rest, 0, {l: c for l, c in label_counts.items() if l in rest})


# ---------------------------------------------------------------------------
# Bound sketch


@dataclass
class BoundSketch(_Section):
    """Per labeled edge pattern and join role: bucketed (count, max degree).

    Buckets come from a seeded multiplicative hash of the join vertex;
    n_buckets=1 degenerates to one global (count, max-degree) pair.
    """

    n_buckets: int
    seed: int
    entries: dict[str, dict[str, dict[int, tuple[int, int]]]] = field(default_factory=dict)

    def partition(self, ls: str, le: str, lt: str, role: str) -> dict[int, tuple[int, int]]:
        return self.entries.get(edge_key(ls, le, lt), {}).get(role, {})


_MASK64 = (1 << 64) - 1


def bucket_of(vertex_id: Union[int, np.ndarray], seed: int, n_buckets: int) -> Union[int, np.ndarray]:
    """The bucket of a vertex id, or of each id in a uint64 array, whose
    wraparound does what the mask does for an int."""
    h = ((vertex_id + 1) * 0x9E3779B97F4A7C15 + (seed * 0xBF58476D1CE4E5B9 & _MASK64)) & _MASK64
    return (h >> 32) % n_buckets


def build_bound_sketch(g: PropertyGraph, n_buckets: int = 16, hash_seed: int = 0) -> BoundSketch:
    """Per labeled edge pattern and role, bucketed (edge count, max
    degree): each vertex of nonzero source (or target) degree in the
    pattern falls in its bucket_of bucket, and a bucket holds the sum
    and the maximum of its vertices' degrees (see _edge_pattern_degrees)."""
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    bucket = bucket_of(np.arange(g.n_vertices, dtype=np.uint64), hash_seed, n_buckets).astype(np.int64)
    entries: dict[str, dict[str, dict[int, tuple[int, int]]]] = {}
    for key, roles in _edge_pattern_degrees(g):
        entries[key] = {role: _bucketed(bucket[v], d) for role, (v, d) in zip(("src", "trg"), roles)}
    return BoundSketch(n_buckets=n_buckets, seed=hash_seed, entries=entries)


def _bucketed(buckets: np.ndarray, degrees: np.ndarray) -> dict[int, tuple[int, int]]:
    """Per bucket that occurs, the sum and the maximum of its degrees."""
    occurring, at = _grouped(buckets)
    total, top = _sums(at, degrees, len(occurring)), np.zeros(len(occurring), np.int64)
    np.maximum.at(top, at, degrees)
    return dict(zip(occurring.tolist(), zip(total.tolist(), top.tolist())))


# ---------------------------------------------------------------------------
# Samples

# per pattern type, the records a member holds (its own, then its
# endpoints' under `src` and `trg`) and the kinds each record may have
_RECORDS = {
    "id": (("", ("vertex", "edge")),),
    "vertex": (("", ("vertex",)),),
    "edge_pattern": (("", ("edge",)), ("src", ("vertex",)), ("trg", ("vertex",))),
}
SAMPLE_TYPES = tuple(_RECORDS)
# short names a sample tag or token may use for a pattern type
SAMPLE_TYPE_ALIASES = {"ep": "edge_pattern"}


class _Element(TypedDict):
    kind: str  # vertex | edge
    labels: list[str]
    props: dict[str, Optional[Scalar]]


class Member(_Element, total=False):
    """A sampled element; an edge-pattern member also holds its endpoints
    and, if they are one vertex, `loop`."""

    src: _Element
    trg: _Element
    loop: bool


class SampleView(NamedTuple):
    """A sample's records as the vertices of an edgeless graph, for
    `graph.allowed`: the members in order, then an edge-pattern sample's
    sources, then its targets; and per member, is it a vertex, a loop?"""

    records: PropertyGraph
    vertex: np.ndarray
    loop: np.ndarray


@dataclass
class Sample(_Section):
    """An i.i.d. sample of instances of one pattern type, with labels and
    properties materialized; reproducible from the seed.  The estimators
    score its members through `view`, so that one data mask,
    `graph.allowed`, serves graph elements and sample records alike."""

    pattern_type: str
    probability: float
    seed: int
    members: list[Member] = field(default_factory=list)

    def __post_init__(self) -> None:
        """A known pattern type, a probability in (0, 1], and members of
        the kinds the pattern type holds (`_RECORDS`): an edge-pattern
        sample's are edges that hold their endpoints, which are vertices."""
        if self.pattern_type not in _RECORDS:
            raise FormError(" or ".join(SAMPLE_TYPES), self.pattern_type, path=".pattern_type")
        if not 0.0 < self.probability <= 1.0:
            raise FormError("a probability in (0, 1]", self.probability, path=".probability")
        slots = _RECORDS[self.pattern_type]
        require(self.members, [slot for slot, _ in slots if slot], "members")
        for slot, ok in slots:
            for n, r in enumerate(self._records(slot)):
                if r["kind"] not in ok:
                    where = f".members[{n}].{slot}" if slot else f".members[{n}]"
                    raise FormError(" or ".join(ok), r["kind"], path=f"{where}.kind")

    def _records(self, slot: str) -> list[_Element]:
        """Each member's own record, or that of its endpoint under `slot`."""
        return [m[slot] for m in self.members] if slot else self.members

    @functools.cached_property
    def view(self) -> SampleView:
        """The view the estimators score, built on first use and kept, as
        a sample's members do not change once it is built; not a field,
        so the file form and equality never see it."""
        records = itertools.chain.from_iterable(self._records(slot) for slot, _ in _RECORDS[self.pattern_type])
        graph = PropertyGraph(((str(n), r["labels"], r["props"]) for n, r in enumerate(records)), ())
        vertex = np.array([m["kind"] == "vertex" for m in self.members], bool)
        loop = np.array([m.get("loop", False) for m in self.members], bool)
        vertex.flags.writeable = loop.flags.writeable = False
        return SampleView(graph, vertex, loop)


def _element_record(g: PropertyGraph, i: int) -> Member:
    return {
        "kind": "vertex" if g.is_vertex(i) else "edge",
        "labels": sorted(g.labels_of(i)),
        "props": {k: g.prop(i, k) for k in sorted(g.props_of(i))},
    }


def build_sample(g: PropertyGraph, pattern_type: str, pr: float, seed: int = 0) -> Sample:
    """Each instance of the pattern type, drawn with the given
    probability; the sample, made empty first, checks the pattern type
    and the probability before any draw."""
    sample = Sample(pattern_type, pr, seed)
    rng = random.Random(seed)
    members = sample.members
    if pattern_type in ("id", "vertex"):
        for i in range(g.n_ids) if pattern_type == "id" else g.vertices:
            if rng.random() < pr:
                members.append(_element_record(g, i))
    else:
        for e in g.edges:
            if rng.random() < pr:
                s, t = g.endpoints(e)
                rec = _element_record(g, e)
                rec["src"] = _element_record(g, s)
                rec["trg"] = _element_record(g, t)
                if s == t:
                    rec["loop"] = True
                members.append(rec)
    return sample


# ---------------------------------------------------------------------------
# Histograms


class _Bucket(TypedDict):
    count: int
    distinct: int


class Bucket(_Bucket, total=False):
    """A numeric bucket spans [lo, hi]; a string bucket holds one prefix."""

    lo: float
    hi: float
    prefix: str


# the keys each bucket of a histogram's domain holds
_BUCKET_KEYS = {"numeric": ("lo", "hi"), "string_prefix": ("prefix",)}


@dataclass
class Histogram(_Section):
    key: str
    kind: str  # equi_width | equi_depth
    domain: str  # numeric | string_prefix
    total: int
    buckets: list[Bucket] = field(default_factory=list)

    def __post_init__(self) -> None:
        """The domain is known, and each bucket holds its keys."""
        if self.domain not in _BUCKET_KEYS:
            raise FormError(" or ".join(_BUCKET_KEYS), self.domain, path=".domain")
        require(self.buckets, _BUCKET_KEYS[self.domain], "buckets")


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Length of the string prefixes a string histogram buckets by and compares
# values at (a shorter string is its own prefix); catalogs do not record it.
PREFIX_LEN = 1


def build_histogram(
    g: PropertyGraph, key: str, kind: str = "equi_depth", n_buckets: int = 10
) -> Histogram:
    """Summarize the value distribution of one property key.

    A key whose values are all numbers gets range buckets (equi-width or
    equi-depth); any other key gets PREFIX_LEN-character prefix buckets
    of its strings alone, as no string predicate holds on another type.
    A None value satisfies no value predicate (`query.satisfies`), so it
    is left out.  An absent key, or one that holds only None, yields an
    empty histogram.
    """
    if kind not in ("equi_width", "equi_depth"):
        raise ValueError(f"unknown histogram kind: {kind!r}")
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    values = [v for i in range(g.n_ids) if (v := g.prop(i, key)) is not None]
    if not values:
        return Histogram(key, kind, "numeric", 0, [])
    if all(_is_number(v) for v in values):
        return _numeric_histogram(key, kind, n_buckets, [_float_value(key, v) for v in values])
    strings = sorted(v for v in values if isinstance(v, str))
    groups = [(p, list(vs)) for p, vs in itertools.groupby(strings, key=lambda v: v[:PREFIX_LEN])]
    buckets = [{"prefix": p, "count": len(vs), "distinct": len(set(vs))} for p, vs in groups]
    return Histogram(key, kind, "string_prefix", len(strings), buckets)


def _float_value(key: str, v: Union[int, float]) -> float:
    """A graph's number under `key` as a float statistic holds it; a
    ValueError names an int past the float range."""
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"a value of {key!r} lies past the float range: {reprlib.repr(v)}") from None


def _numeric_histogram(key: str, kind: str, n_buckets: int, values: list[float]) -> Histogram:
    values.sort()
    total = len(values)
    buckets: list[Bucket] = []
    if kind == "equi_width":
        bounds, column, distincts = _equi_width(key, values, n_buckets)
        counts = Counter(column)
        for b, (lo, hi, distinct) in enumerate(zip(bounds, bounds[1:], distincts)):
            buckets.append({"lo": lo, "hi": hi, "count": counts[b], "distinct": distinct})
    else:  # equi_depth: quantile slices differing in count by at most one
        n = min(n_buckets, total)
        base, extra = divmod(total, n)
        start = 0
        for i in range(n):
            size = base + (1 if i < extra else 0)
            vs = values[start : start + size]
            start += size
            buckets.append(
                {"lo": vs[0], "hi": vs[-1], "count": len(vs), "distinct": len(set(vs))}
            )
    return Histogram(key, kind, "numeric", total, buckets)


def _equi_width(key: str, values: Sequence[float], n: int) -> tuple[list[float], list[int], list[int]]:
    """Split the values' span into n equal-width buckets: the bounds
    b0..bn, each value's bucket, and each bucket's distinct count.  A span
    of one point (or no values) gets a single bucket; a ValueError names
    the key of a span past the float range.  The 1-D equi-width histogram
    and every grid axis are this split."""
    lo, hi = (min(values), max(values)) if values else (0.0, 0.0)
    if math.isinf(hi - lo):
        raise ValueError(f"the values of {key!r} span {lo!r} to {hi!r}, a width past the float range")
    if lo == hi:
        bounds, column = [lo, hi], [0] * len(values)
    else:
        width = (hi - lo) / n
        bounds = [lo + i * width for i in range(n)] + [hi]
        column = [min(int((v - lo) / width), n - 1) for v in values]
    distinct = Counter(b for b, _ in set(zip(column, values)))
    return bounds, column, [distinct[b] for b in range(len(bounds) - 1)]


def histogram_estimate(hist: Histogram, op: PredicateKind, value: Any) -> Optional[float]:
    """Estimated number of elements with the key satisfying ``op value``:
    the sum over buckets of each bucket's count times the fraction of it
    that meets the predicate (`_bucket_fraction` for a numeric bucket,
    `_prefix_fraction` for a string-prefix one).

    Returns None for substring matching, an `IN` without a list, and a
    non-string value (alone or in an `IN` list) on a string histogram,
    which holds only its key's strings.  Cross-type predicates never
    hold, so a numeric histogram, which holds every value of its key,
    answers any other predicate with a non-number by 0; an empty one
    answers 0.
    """
    listed = op is PredicateKind.IN
    if hist.domain == "numeric" and hist.total == 0:
        return 0.0
    if op is PredicateKind.CONTAINS or (listed and not isinstance(value, (list, tuple))):
        return None
    if hist.domain == "numeric":
        if not listed and not _is_number(value):
            return 0.0
        fractions = (_bucket_fraction(b["lo"], b["hi"], b["distinct"], op, value) for b in hist.buckets)
    elif all(isinstance(v, str) for v in (value if listed else (value,))):
        fractions = (_prefix_fraction(b["prefix"], b["distinct"], op, value) for b in hist.buckets)
    else:
        return None
    return sum((b["count"] * f for b, f in zip(hist.buckets, fractions)), 0.0)


# ---------------------------------------------------------------------------
# Multidimensional histograms (fixed grid)


class Axis(TypedDict):
    bounds: list[float]  # b0..bn
    distincts: list[int]  # per bucket


@dataclass
class MDHistogram(_Section):
    """Equi-width grid over 2..3 numeric property keys of the same element."""

    keys: list[str]
    axes: list[Axis]
    grid: dict[tuple[int, ...], int]  # cell -> count
    total: int

    def __post_init__(self) -> None:
        """An axis per key, a distinct count per bucket of an axis, and a
        bucket index per axis in each cell."""
        if len(self.axes) != len(self.keys):
            raise FormError(f"{len(self.keys)} axes, one per key", self.axes, path=".axes")
        for a, axis in enumerate(self.axes):
            if len(axis["distincts"]) != len(axis["bounds"]) - 1:
                raise FormError("a count per bucket", axis["distincts"], path=f".axes[{a}].distincts")
        sizes = [len(axis["distincts"]) for axis in self.axes]
        for cell in self.grid:
            if len(cell) != len(sizes) or not all(0 <= b < n for b, n in zip(cell, sizes)):
                where = ",".join(map(str, cell))
                raise FormError(f"a cell within the {len(sizes)} axes", cell, path=f".grid[{where!r}]")


def build_md_histogram(g: PropertyGraph, keys: Sequence[str], n_buckets_per_axis: int = 8) -> MDHistogram:
    keys = list(keys)
    if not (2 <= len(keys) <= 3):
        raise ValueError("md histogram takes 2..3 keys")
    if n_buckets_per_axis < 1:
        raise ValueError("n_buckets_per_axis must be >= 1")
    rows: list[tuple[float, ...]] = []
    for i in range(g.n_ids):
        props = g.props_of(i)
        if all(k in props and _is_number(props[k]) for k in keys):
            rows.append(tuple(_float_value(k, props[k]) for k in keys))
    axes: list[Axis] = []
    columns: list[list[int]] = []  # per axis, each row's bucket
    for a in range(len(keys)):
        bounds, column, distincts = _equi_width(keys[a], [r[a] for r in rows], n_buckets_per_axis)
        axes.append({"bounds": bounds, "distincts": distincts})
        columns.append(column)
    grid = dict(Counter(zip(*columns)))
    return MDHistogram(keys=keys, axes=axes, grid=grid, total=len(rows))


def md_fraction(mdh: MDHistogram, constraints: Iterable[tuple[str, PredicateKind, Any]]) -> float:
    """Fraction of the grid population satisfying the given (key, op,
    value) predicates, with intra-bucket uniformity per axis: each
    predicate's `_bucket_fraction` per bucket of its axis, multiplied per
    cell (axes in order of first mention), and the cells' counts times
    fractions added one after another in ascending cell order, so that a
    built grid and a reloaded one agree."""
    if mdh.total == 0:
        return 0.0
    by_axis: dict[int, list[tuple[PredicateKind, Any]]] = {}
    for key, op, value in constraints:
        if key not in mdh.keys:
            raise ValueError(f"key {key!r} not covered by this histogram")
        by_axis.setdefault(mdh.keys.index(key), []).append((op, value))
    cells = sorted(mdh.grid)
    frac = np.ones(len(cells))
    for a, preds in by_axis.items():
        bounds, distincts = mdh.axes[a]["bounds"], mdh.axes[a]["distincts"]
        at = np.array([cell[a] for cell in cells], np.intp)
        for op, value in preds:
            fractions = [_bucket_fraction(lo, hi, d, op, value) for lo, hi, d in zip(bounds, bounds[1:], distincts)]
            frac = frac * np.array(fractions, np.float64)[at]
    weighted = np.array([mdh.grid[cell] for cell in cells], np.float64) * frac
    return (float(np.add.accumulate(weighted)[-1]) if cells else 0.0) / mdh.total


# Looking up an Enum member costs about as much as the rest of a bucket's
# arithmetic, and the kernels below run once per bucket.
_BELOW = (PredicateKind.LT, PredicateKind.LEQ)
_ABOVE = (PredicateKind.GT, PredicateKind.GEQ)


def _bucket_fraction(lo: float, hi: float, distinct: int, op: PredicateKind, value: Any) -> float:
    """Fraction of a numeric bucket's elements, all valued in [lo, hi],
    that satisfy ``op value``: the 1-D histogram's and the grid's shared
    bucket model.

    A point bucket (lo == hi) is evaluated exactly.  Any other bucket
    assumes its values spread uniformly over the span, `distinct` equally
    frequent ones among them.
    """
    if op is PredicateKind.IN:
        if not isinstance(value, (list, tuple)):
            return 0.0
        return min(1.0, sum(_bucket_fraction(lo, hi, distinct, PredicateKind.EQ, v) for v in _alternatives(value)))
    if not _is_number(value):
        return 0.0
    if lo == hi:
        return 1.0 if predicate_holds(op, lo, value) else 0.0
    # compared before it is converted, so an int past the float range
    # falls outside the bucket; `not value > lo` and `not value < hi` hold
    # for a NaN, which meets no order predicate
    if op in _BELOW:
        if not value > lo:
            return 0.0
        if value >= hi:
            return 1.0
        return (float(value) - lo) / (hi - lo)
    if op in _ABOVE:
        if not value < hi:
            return 0.0
        if value <= lo:
            return 1.0
        return (hi - float(value)) / (hi - lo)
    eq = (1.0 / (distinct or 1)) if lo <= value <= hi else 0.0
    if op is PredicateKind.EQ:
        return eq
    if op is PredicateKind.NEQ:
        return 1.0 - eq
    return 0.0  # CONTAINS never matches numerics


def _prefix_fraction(prefix: str, distinct: int, op: PredicateKind, value: Any) -> float:
    """Fraction of a string bucket's elements, all with the given prefix,
    that satisfy ``op value`` (`value` a string, a list of them for `IN`).

    A prefix shorter than PREFIX_LEN is the one string its bucket holds,
    and is evaluated exactly.  Any other bucket is compared at the value's
    first PREFIX_LEN characters: `=` takes one of `distinct` equally
    frequent values, an order predicate half of the bucket with an equal
    prefix and all or none of any other.
    """
    if len(prefix) < PREFIX_LEN:
        return 1.0 if predicate_holds(op, prefix, value) else 0.0
    if op is PredicateKind.IN:
        return min(1.0, sum(_prefix_fraction(prefix, distinct, PredicateKind.EQ, v) for v in _alternatives(value)))
    at = value[:PREFIX_LEN]
    if op in _BELOW or op in _ABOVE:
        below = 1.0 if prefix < at else 0.5 if prefix == at else 0.0
        return below if op in _BELOW else 1.0 - below
    eq = (1.0 / (distinct or 1)) if prefix == at else 0.0
    return eq if op is PredicateKind.EQ else 1.0 - eq


def _alternatives(values: Sequence[Any]) -> list[Any]:
    """An `IN` list's alternatives, each once under the equality of
    `predicate_holds`: 1 and 1.0 are one number, and True is not one."""
    return [v for _, v in dict.fromkeys((isinstance(v, bool), v) for v in values)]


# ---------------------------------------------------------------------------
# The catalog


@dataclass
class StatisticsCatalog(_Section):
    fingerprint: str = ""
    basic: Optional[BasicStats] = None
    synopses: list[LabeledTopoSynopsis] = field(default_factory=list)
    sysr: Optional[SysRStats] = None
    char_sets: list[CharacteristicSetStore] = field(default_factory=list)
    sketches: list[BoundSketch] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    histograms: list[Histogram] = field(default_factory=list)
    md_histograms: list[MDHistogram] = field(default_factory=list)

    def synopsis(self, klass: str) -> Optional[LabeledTopoSynopsis]:
        for s in self.synopses:
            if s.klass == klass:
                return s
        return None

    def histogram(self, key: str) -> Optional[Histogram]:
        for h in self.histograms:
            if h.key == key:
                return h
        return None

    def sample(self, pattern_type: str) -> Optional[Sample]:
        for s in self.samples:
            if s.pattern_type == pattern_type:
                return s
        return None

    def to_dict(self) -> dict:
        return {"version": CATALOG_VERSION, **super().to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "StatisticsCatalog":
        version = d.get("version")
        if type(version) is not int or version != CATALOG_VERSION:
            raise CatalogFormatError(f"unsupported catalog version: {version!r}")
        return super().from_dict(d)


def save_catalog(catalog: StatisticsCatalog, path: str) -> None:
    # one dumps, not json.dump: dumps runs json's C encoder, dump its Python one
    text = json.dumps(catalog.to_dict(), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_catalog(path: str) -> StatisticsCatalog:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CatalogFormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CatalogFormatError(f"{path}: catalog must be a JSON object")
    try:
        return StatisticsCatalog.from_dict(data)
    except CatalogFormatError as exc:  # a wrong version, a value of the wrong type or a missing key
        raise CatalogFormatError(f"{path}: {exc}") from exc


def build_catalog(
    g: PropertyGraph,
    synopses: Iterable[tuple[str, int]] = (),
    with_sysr: bool = False,
    cs_max: Optional[int] = None,
    cs_directions: Iterable[str] = ("out",),
    sketch_buckets: Optional[int] = None,
    sketch_seed: int = 0,
    samples: Iterable[tuple[str, float, int]] = (),
    histogram_keys: Iterable[tuple[str, str, int]] = (),
    md_keys: Iterable[Sequence[str]] = (),
    prop_exact: Iterable[tuple[str, Union[str, PredicateKind], Any]] = (),
) -> StatisticsCatalog:
    """Build a full catalog in one pass of configuration."""
    catalog = StatisticsCatalog(fingerprint=g.fingerprint())
    catalog.basic = build_basic(g, prop_exact)
    for klass, size in synopses:
        catalog.synopses.append(build_labeled_synopsis(g, klass, size))
    if with_sysr:
        catalog.sysr = build_system_r(g)
    if cs_max is not None:
        for direction in cs_directions:
            catalog.char_sets.append(build_char_sets(g, cs_max, direction))
    if sketch_buckets is not None:
        catalog.sketches.append(build_bound_sketch(g, sketch_buckets, sketch_seed))
    for pt, pr, seed in samples:
        catalog.samples.append(build_sample(g, pt, pr, seed))
    for key, kind, n in histogram_keys:
        catalog.histograms.append(build_histogram(g, key, kind, n))
    for keys in md_keys:
        catalog.md_histograms.append(build_md_histogram(g, keys))
    return catalog
