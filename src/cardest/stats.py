"""Statistics catalog: everything the estimators can consume.

Builders scan an immutable graph and produce exact summaries: basic
counts, labeled topological synopses, per-edge-pattern join statistics,
characteristic sets, bound sketches, samples, and histograms.  The whole
bundle persists as a single JSON file tied to the source graph by a
content fingerprint.

Wildcard label slots are encoded as "*"; synopsis/sketch keys are compact
JSON arrays so arbitrary label strings stay unambiguous.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Union

from .graph import PropertyGraph
from .query import PredicateKind, predicate_holds

WILDCARD = "*"
CATALOG_VERSION = 1


class CatalogFormatError(ValueError):
    """A persisted catalog could not be parsed."""


class StaleCatalogWarning(UserWarning):
    """Catalog fingerprint does not match the graph it is used with."""


def _label_options(labels: frozenset[str]) -> list[str]:
    return sorted(labels) + [WILDCARD]


def edge_key(ls: str, le: str, lt: str) -> str:
    return json.dumps([ls, le, lt], separators=(",", ":"))


def chain_key(slots: Sequence[str]) -> str:
    return json.dumps(list(slots), separators=(",", ":"))


def star_key(center: str, branches: Iterable[tuple[str, str]]) -> str:
    ordered = sorted(branches)
    return json.dumps([center, [list(b) for b in ordered]], separators=(",", ":"))


# ---------------------------------------------------------------------------
# Basic statistics


@dataclass
class BasicStats:
    n_vertices: int
    n_edges: int
    n_ids: int
    label_sel: dict[str, tuple[int, int]] = field(default_factory=dict)
    key_sel: dict[str, int] = field(default_factory=dict)
    prop_exact: dict[tuple[str, str, Any], int] = field(default_factory=dict)

    def label_count(self, label: str) -> int:
        v, e = self.label_sel.get(label, (0, 0))
        return v + e

    def to_dict(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "n_ids": self.n_ids,
            "label_sel": {l: list(c) for l, c in sorted(self.label_sel.items())},
            "key_sel": dict(sorted(self.key_sel.items())),
            "prop_exact": [
                [k, op, _plain(v), n] for (k, op, v), n in sorted(self.prop_exact.items(), key=repr)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BasicStats":
        return cls(
            n_vertices=d["n_vertices"],
            n_edges=d["n_edges"],
            n_ids=d["n_ids"],
            label_sel={l: (c[0], c[1]) for l, c in d["label_sel"].items()},
            key_sel=dict(d["key_sel"]),
            prop_exact={(k, op, _freeze(v)): n for k, op, v, n in d["prop_exact"]},
        )


def _freeze(v: Any) -> Any:
    return tuple(v) if isinstance(v, list) else v


def _plain(v: Any) -> Any:
    return list(v) if isinstance(v, tuple) else v


def build_basic(
    g: PropertyGraph,
    prop_exact_triples: Iterable[tuple[str, Union[str, PredicateKind], Any]] = (),
) -> BasicStats:
    """Exact element counts plus, optionally, exact counts for configured
    (key, op, value) triples."""
    label_sel: dict[str, list[int]] = {}
    key_sel: dict[str, int] = {}
    for i in range(g.n_ids):
        slot = 0 if g.is_vertex(i) else 1
        for l in g.labels_of(i):
            label_sel.setdefault(l, [0, 0])[slot] += 1
        for k in g.props_of(i):
            key_sel[k] = key_sel.get(k, 0) + 1

    prop_exact: dict[tuple[str, str, Any], int] = {}
    for key, op, value in prop_exact_triples:
        kind = op if isinstance(op, PredicateKind) else PredicateKind.from_op(op)
        value = _freeze(value)
        n = 0
        for i in range(g.n_ids):
            w = g.prop(i, key)
            if w is not None and predicate_holds(kind, w, value):
                n += 1
        prop_exact[(key, kind.value, value)] = n

    return BasicStats(
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        n_ids=g.n_ids,
        label_sel={l: (c[0], c[1]) for l, c in label_sel.items()},
        key_sel=key_sel,
        prop_exact=prop_exact,
    )


# ---------------------------------------------------------------------------
# Labeled topological synopses

SYNOPSIS_CLASSES = ("edge", "chain", "source_star", "target_star")


@dataclass
class LabeledTopoSynopsis:
    """Exact cardinalities of small labeled patterns of one class.

    Counts cover every label combination that occurs, including wildcard
    slots, for all sizes 1..max_size.  A count keyed with all-wildcard
    labels is the purely topological cardinality.
    """

    klass: str
    max_size: int
    counts: dict[str, int] = field(default_factory=dict)

    def count_edge(self, ls: str, le: str, lt: str) -> Optional[int]:
        return self.counts.get(edge_key(ls, le, lt))

    def count_chain(self, slots: Sequence[str]) -> Optional[int]:
        return self.counts.get(chain_key(slots))

    def count_star(self, center: str, branches: Iterable[tuple[str, str]]) -> Optional[int]:
        return self.counts.get(star_key(center, branches))

    def to_dict(self) -> dict:
        return {
            "class": self.klass,
            "max_size": self.max_size,
            "counts": dict(sorted(self.counts.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LabeledTopoSynopsis":
        return cls(klass=d["class"], max_size=d["max_size"], counts=dict(d["counts"]))


def _by_key(signatures: Iterable[tuple[frozenset[str], ...]]) -> dict[tuple[str, ...], list]:
    """Every label-slot combination, with the label-set signatures it matches."""
    out: dict[tuple[str, ...], list] = {}
    for sig in signatures:
        for combo in itertools.product(*map(_label_options, sig)):
            out.setdefault(combo, []).append(sig)
    return out


def _edge_groups(g: PropertyGraph) -> dict[tuple[frozenset[str], ...], list[tuple[int, int]]]:
    """Edge endpoints grouped by signature (L(src), L(edge), L(trg))."""
    groups: dict[tuple[frozenset[str], ...], list[tuple[int, int]]] = {}
    for e in g.edges:
        s, t = g.endpoints(e)
        groups.setdefault((g.labels_of(s), g.labels_of(e), g.labels_of(t)), []).append((s, t))
    return groups


def _walk_signatures(g: PropertyGraph, max_size: int) -> dict[tuple[frozenset[str], ...], int]:
    """Directed walks of 1..max_size edges (elements may repeat), counted
    per signature (L(v0), L(e1), L(v1), ..., L(ek), L(vk))."""
    # end vertex -> signature without L(end) -> walks; starts at 0 edges
    ending: dict[int, dict[tuple, int]] = {v: {(): 1} for v in g.vertices}
    walks: dict[tuple[frozenset[str], ...], int] = {}
    for _ in range(max_size):
        longer: dict[int, dict[tuple, int]] = {}
        for e in g.edges:
            s, t = g.endpoints(e)
            if s in ending:
                there = longer.setdefault(t, {})
                step = (g.labels_of(s), g.labels_of(e))
                for p, n in ending[s].items():
                    there[p + step] = there.get(p + step, 0) + n
        ending = longer
        for t, there in ending.items():
            end = (g.labels_of(t),)
            for p, n in there.items():
                walks[p + end] = walks.get(p + end, 0) + n
    return walks


def build_labeled_synopsis(g: PropertyGraph, klass: str, max_size: int = 1) -> LabeledTopoSynopsis:
    """Count the homomorphic cardinality of every labeled pattern of the
    class up to max_size (chains/stars store all sizes 1..max_size).

    Instances are counted per label-set signature, and each signature is
    expanded into its label/wildcard combinations once.  Chains count
    walks by a DP over their end vertices (an edge is a 1-chain); stars
    group centers by label set and multiset of branch label sets.
    """
    if klass not in SYNOPSIS_CLASSES:
        raise ValueError(f"unknown synopsis class: {klass!r}")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if max_size > 4:
        raise ValueError("max_size > 4 is not supported (resource guard)")

    if klass in ("edge", "chain"):
        size = max_size if klass == "chain" else 1
        walks = _walk_signatures(g, size)
        counts = {chain_key(k): sum(map(walks.get, sigs)) for k, sigs in _by_key(walks).items()}
        return LabeledTopoSynopsis(klass, size, counts)

    outgoing = klass == "source_star"
    other = 1 if outgoing else 0
    centers: dict[tuple, int] = {}  # signature -> centers with it
    for v in g.vertices:
        incident = g.out_edges(v) if outgoing else g.in_edges(v)
        branches = Counter((g.labels_of(e), g.labels_of(g.endpoints(e)[other])) for e in incident)
        sig = (g.labels_of(v), frozenset(branches.items()))
        centers[sig] = centers.get(sig, 0) + 1
    totals: dict[tuple, int] = {}
    for (center, branches), n_centers in centers.items():
        # branch descriptor -> number of incident edges matching it
        delta: dict[tuple[str, str], int] = {}
        for (le, lo), n in branches:
            for d in itertools.product(_label_options(le), _label_options(lo)):
                delta[d] = delta.get(d, 0) + n
        center_options = _label_options(center)
        for size in range(1, max_size + 1):
            for multiset in itertools.combinations_with_replacement(sorted(delta), size):
                prod = n_centers
                for d in multiset:
                    prod *= delta[d]
                for lc in center_options:
                    totals[lc, multiset] = totals.get((lc, multiset), 0) + prod
    counts = {star_key(lc, multiset): n for (lc, multiset), n in totals.items()}
    return LabeledTopoSynopsis(klass, max_size, counts)


# ---------------------------------------------------------------------------
# System R style per-edge-pattern statistics


@dataclass
class SysRStats:
    """Per labeled edge pattern: cardinality and distinct endpoint counts."""

    entries: dict[str, tuple[int, int, int]] = field(default_factory=dict)

    def lookup(self, ls: str, le: str, lt: str) -> tuple[int, int, int]:
        return self.entries.get(edge_key(ls, le, lt), (0, 0, 0))

    def to_dict(self) -> dict:
        return {"entries": {k: list(v) for k, v in sorted(self.entries.items())}}

    @classmethod
    def from_dict(cls, d: dict) -> "SysRStats":
        return cls(entries={k: (v[0], v[1], v[2]) for k, v in d["entries"].items()})


def build_system_r(g: PropertyGraph) -> SysRStats:
    """Per labeled edge pattern, the edge count and the distinct sources
    and targets: edges are grouped by label-set signature, and each
    pattern unions the groups it matches."""
    groups = _edge_groups(g)
    entries: dict[str, tuple[int, int, int]] = {}
    for k, sigs in _by_key(groups).items():
        pairs = [p for sig in sigs for p in groups[sig]]
        entries[edge_key(*k)] = (len(pairs), len({s for s, _ in pairs}), len({t for _, t in pairs}))
    return SysRStats(entries=entries)


# ---------------------------------------------------------------------------
# Characteristic sets


@dataclass
class CSEntry:
    cs: frozenset[str]
    count: int
    label_counts: dict[str, int] = field(default_factory=dict)


@dataclass
class CharacteristicSetStore:
    """Counts of vertices per characteristic set.

    The characteristic set of a vertex is the set of labels on its
    outgoing (or, for direction 'in', incoming) edges plus its property
    keys.  Property keys carry no explicit per-label count: their count
    equals the vertex count of the entry.
    """

    entries: list[CSEntry] = field(default_factory=list)
    max_entries: int = 10000
    direction: str = "out"

    def supersets(self, elements: frozenset[str]) -> list[CSEntry]:
        return [e for e in self.entries if e.cs >= elements]

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "max_entries": self.max_entries,
            "entries": [
                {
                    "cs": sorted(e.cs),
                    "count": e.count,
                    "label_counts": dict(sorted(e.label_counts.items())),
                }
                for e in sorted(self.entries, key=lambda e: (-e.count, sorted(e.cs)))
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CharacteristicSetStore":
        return cls(
            entries=[
                CSEntry(frozenset(e["cs"]), e["count"], dict(e["label_counts"]))
                for e in d["entries"]
            ],
            max_entries=d["max_entries"],
            direction=d["direction"],
        )


def build_char_sets(
    g: PropertyGraph, max_entries: int = 10000, direction: str = "out"
) -> CharacteristicSetStore:
    """One entry per distinct characteristic set, merged down to at most
    max_entries (keep the most frequent, fold the rest into supersets)."""
    if max_entries < 1:
        raise ValueError("max_entries must be >= 1")
    if direction not in ("out", "in"):
        raise ValueError("direction must be 'out' or 'in'")

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

    entries = sorted(by_cs.values(), key=lambda e: (-e.count, sorted(e.cs)))
    if len(entries) > max_entries:
        kept = entries[:max_entries]
        victims = sorted(entries[max_entries:], key=lambda e: (e.count, sorted(e.cs)))
        for victim in victims:
            _merge_cs(kept, victim.cs, victim.count, victim.label_counts)
        entries = kept
    return CharacteristicSetStore(entries=entries, max_entries=max_entries, direction=direction)


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
class BoundSketch:
    """Per labeled edge pattern and join role: bucketed (count, max degree).

    Buckets come from a seeded multiplicative hash of the join vertex;
    n_buckets=1 degenerates to one global (count, max-degree) pair.
    """

    n_buckets: int
    seed: int
    entries: dict[str, dict[str, dict[int, tuple[int, int]]]] = field(default_factory=dict)

    def partition(self, ls: str, le: str, lt: str, role: str) -> dict[int, tuple[int, int]]:
        return self.entries.get(edge_key(ls, le, lt), {}).get(role, {})

    def to_dict(self) -> dict:
        return {
            "n_buckets": self.n_buckets,
            "seed": self.seed,
            "entries": {
                k: {
                    role: {str(b): list(cv) for b, cv in sorted(buckets.items())}
                    for role, buckets in sorted(roles.items())
                }
                for k, roles in sorted(self.entries.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoundSketch":
        return cls(
            n_buckets=d["n_buckets"],
            seed=d["seed"],
            entries={
                k: {
                    role: {int(b): (cv[0], cv[1]) for b, cv in buckets.items()}
                    for role, buckets in roles.items()
                }
                for k, roles in d["entries"].items()
            },
        )


_MASK64 = (1 << 64) - 1


def bucket_of(vertex_id: int, seed: int, n_buckets: int) -> int:
    h = ((vertex_id + 1) * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9) & _MASK64
    return (h >> 32) % n_buckets


def build_bound_sketch(g: PropertyGraph, n_buckets: int = 16, hash_seed: int = 0) -> BoundSketch:
    """Per labeled edge pattern and role, bucketed (edge count, max
    degree).  Edges are grouped by label-set signature; each pattern
    counts the degrees over the groups it matches, then buckets them."""
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    groups = _edge_groups(g)
    bucket = [bucket_of(v, hash_seed, n_buckets) for v in g.vertices]
    entries: dict[str, dict[str, dict[int, tuple[int, int]]]] = {}
    for k, sigs in _by_key(groups).items():
        roles = entries[edge_key(*k)] = {}
        for role, end in (("src", 0), ("trg", 1)):
            buckets = roles[role] = {}
            for v, deg in Counter(p[end] for sig in sigs for p in groups[sig]).items():
                n, top = buckets.get(bucket[v], (0, 0))
                buckets[bucket[v]] = (n + deg, max(top, deg))
    return BoundSketch(n_buckets=n_buckets, seed=hash_seed, entries=entries)


# ---------------------------------------------------------------------------
# Samples

SAMPLE_TYPES = ("id", "vertex", "edge_pattern")


@dataclass
class Sample:
    """An i.i.d. sample of instances of one pattern type, with labels and
    properties materialized; reproducible from the seed."""

    pattern_type: str
    probability: float
    seed: int
    population: int
    members: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "pattern_type": self.pattern_type,
            "probability": self.probability,
            "seed": self.seed,
            "population": self.population,
            "members": self.members,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Sample":
        return cls(
            pattern_type=d["pattern_type"],
            probability=d["probability"],
            seed=d["seed"],
            population=d["population"],
            members=list(d["members"]),
        )


def _element_record(g: PropertyGraph, i: int) -> dict:
    return {
        "kind": "vertex" if g.is_vertex(i) else "edge",
        "labels": sorted(g.labels_of(i)),
        "props": {k: g.prop(i, k) for k in sorted(g.props_of(i))},
    }


def build_sample(g: PropertyGraph, pattern_type: str, pr: float, seed: int = 0) -> Sample:
    if pattern_type not in SAMPLE_TYPES:
        raise ValueError(f"unknown sample pattern type: {pattern_type!r}")
    if not (0.0 < pr <= 1.0):
        raise ValueError("sampling probability must be in (0, 1]")
    rng = random.Random(seed)
    members: list[dict] = []
    if pattern_type in ("id", "vertex"):
        instances = range(g.n_ids) if pattern_type == "id" else g.vertices
        population = g.n_ids if pattern_type == "id" else g.n_vertices
        for i in instances:
            if rng.random() < pr:
                members.append(_element_record(g, i))
    else:
        population = g.n_edges
        for e in g.edges:
            if rng.random() < pr:
                s, t = g.endpoints(e)
                rec = _element_record(g, e)
                rec["src"] = _element_record(g, s)
                rec["trg"] = _element_record(g, t)
                if s == t:
                    rec["loop"] = True
                members.append(rec)
    return Sample(pattern_type, pr, seed, population, members)


# ---------------------------------------------------------------------------
# Histograms


@dataclass
class Histogram:
    key: str
    kind: str  # equi_width | equi_depth
    domain: str  # numeric | string_prefix
    total: int
    buckets: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "domain": self.domain,
            "total": self.total,
            "buckets": self.buckets,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Histogram":
        return cls(d["key"], d["kind"], d["domain"], d["total"], list(d["buckets"]))


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def build_histogram(
    g: PropertyGraph, key: str, kind: str = "equi_depth", n_buckets: int = 10, prefix_len: int = 1
) -> Histogram:
    """Summarize the value distribution of one property key.

    Numeric values get range buckets (equi-width or equi-depth); if any
    value is non-numeric the key is summarized by fixed-length string
    prefixes instead.  An absent key yields an empty histogram.
    """
    if kind not in ("equi_width", "equi_depth"):
        raise ValueError(f"unknown histogram kind: {kind!r}")
    values = [g.prop(i, key) for i in range(g.n_ids) if key in g.props_of(i)]
    if not values:
        return Histogram(key, kind, "numeric", 0, [])
    if all(_is_number(v) for v in values):
        return _numeric_histogram(key, kind, n_buckets, [float(v) for v in values])
    strings = sorted(str(v) for v in values)
    groups: dict[str, list[str]] = {}
    for v in strings:
        groups.setdefault(v[:prefix_len], []).append(v)
    buckets = [
        {"prefix": p, "count": len(vs), "distinct": len(set(vs))} for p, vs in sorted(groups.items())
    ]
    return Histogram(key, kind, "string_prefix", len(strings), buckets)


def _numeric_histogram(key: str, kind: str, n_buckets: int, values: list[float]) -> Histogram:
    values.sort()
    total = len(values)
    buckets: list[dict] = []
    if kind == "equi_width":
        lo, hi = values[0], values[-1]
        if lo == hi:
            buckets.append({"lo": lo, "hi": hi, "count": total, "distinct": len(set(values))})
        else:
            width = (hi - lo) / n_buckets
            slots: list[list[float]] = [[] for _ in range(n_buckets)]
            for v in values:
                idx = min(int((v - lo) / width), n_buckets - 1)
                slots[idx].append(v)
            for i, vs in enumerate(slots):
                buckets.append(
                    {
                        "lo": lo + i * width,
                        "hi": lo + (i + 1) * width if i < n_buckets - 1 else hi,
                        "count": len(vs),
                        "distinct": len(set(vs)),
                    }
                )
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


def histogram_estimate(hist: Histogram, op: PredicateKind, value: Any) -> Optional[float]:
    """Estimated number of elements with the key satisfying ``op value``.

    Returns None when the histogram cannot serve the predicate (substring
    matching, domain mismatch).  Intra-bucket estimation assumes uniform
    spread over uniformly frequent distinct values.
    """
    if hist.total == 0:
        return 0.0
    if op is PredicateKind.IN:
        if not isinstance(value, (list, tuple)):
            return None
        parts = [histogram_estimate(hist, PredicateKind.EQ, v) for v in value]
        if any(p is None for p in parts):
            return None
        return min(float(sum(parts)), float(hist.total))
    if op is PredicateKind.NEQ:
        eq = histogram_estimate(hist, PredicateKind.EQ, value)
        return None if eq is None else hist.total - eq
    if hist.domain == "numeric":
        if not _is_number(value):
            return 0.0 if op is PredicateKind.EQ else None
        v = float(value)
        if op is PredicateKind.EQ:
            est = 0.0
            for b in hist.buckets:
                if b["lo"] <= v <= b["hi"] and b["distinct"] > 0:
                    est += b["count"] / b["distinct"]
            return est
        if op in (PredicateKind.LT, PredicateKind.LEQ, PredicateKind.GT, PredicateKind.GEQ):
            below = 0.0  # estimated mass with value < v (continuous model)
            for b in hist.buckets:
                if b["hi"] < v:
                    below += b["count"]
                elif b["lo"] < v:
                    span = b["hi"] - b["lo"]
                    frac = (v - b["lo"]) / span if span > 0 else 0.5
                    below += b["count"] * frac
            if op in (PredicateKind.LT, PredicateKind.LEQ):
                return below
            return hist.total - below
        return None  # CONTAINS on numbers
    # string_prefix domain
    if not isinstance(value, str):
        return 0.0 if op is PredicateKind.EQ else None
    plen = len(hist.buckets[0]["prefix"]) if hist.buckets else 1
    vp = value[:plen]
    if op is PredicateKind.EQ:
        for b in hist.buckets:
            if b["prefix"] == vp and b["distinct"] > 0:
                return b["count"] / b["distinct"]
        return 0.0
    if op in (PredicateKind.LT, PredicateKind.LEQ, PredicateKind.GT, PredicateKind.GEQ):
        below = 0.0
        for b in hist.buckets:
            if b["prefix"] < vp:
                below += b["count"]
            elif b["prefix"] == vp:
                below += b["count"] * 0.5
        if op in (PredicateKind.LT, PredicateKind.LEQ):
            return below
        return hist.total - below
    return None


# ---------------------------------------------------------------------------
# Multidimensional histograms (fixed grid)


@dataclass
class MDHistogram:
    """Equi-width grid over 2..3 numeric property keys of the same element."""

    keys: list[str]
    axes: list[dict]  # per axis: {"bounds": [b0..bn], "distincts": [per bucket]}
    grid: dict[tuple[int, ...], int]
    total: int

    def to_dict(self) -> dict:
        return {
            "keys": self.keys,
            "axes": self.axes,
            "grid": {",".join(map(str, c)): n for c, n in sorted(self.grid.items())},
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MDHistogram":
        return cls(
            keys=list(d["keys"]),
            axes=list(d["axes"]),
            grid={tuple(int(x) for x in c.split(",")): n for c, n in d["grid"].items()},
            total=d["total"],
        )


def build_md_histogram(g: PropertyGraph, keys: Sequence[str], n_buckets_per_axis: int = 8) -> MDHistogram:
    keys = list(keys)
    if not (2 <= len(keys) <= 3):
        raise ValueError("md histogram takes 2..3 keys")
    rows: list[tuple[float, ...]] = []
    for i in range(g.n_ids):
        props = g.props_of(i)
        if all(k in props and _is_number(props[k]) for k in keys):
            rows.append(tuple(float(props[k]) for k in keys))
    axes: list[dict] = []
    index_fns = []
    for a in range(len(keys)):
        vals = [r[a] for r in rows]
        lo = min(vals) if vals else 0.0
        hi = max(vals) if vals else 0.0
        n = n_buckets_per_axis if hi > lo else 1
        width = (hi - lo) / n if hi > lo else 1.0
        bounds = [lo + i * width for i in range(n)] + [hi]
        axes.append({"bounds": bounds, "distincts": [0] * n})

        def make_index(lo=lo, width=width, n=n):
            def idx(v: float) -> int:
                return min(int((v - lo) / width), n - 1) if n > 1 else 0

            return idx

        index_fns.append(make_index())
    grid: dict[tuple[int, ...], int] = {}
    per_axis_values: list[dict[int, set[float]]] = [dict() for _ in keys]
    for r in rows:
        cell = tuple(index_fns[a](r[a]) for a in range(len(keys)))
        grid[cell] = grid.get(cell, 0) + 1
        for a in range(len(keys)):
            per_axis_values[a].setdefault(cell[a], set()).add(r[a])
    for a, ax in enumerate(axes):
        for b, vals in per_axis_values[a].items():
            ax["distincts"][b] = len(vals)
    return MDHistogram(keys=keys, axes=axes, grid=grid, total=len(rows))


def md_fraction(mdh: MDHistogram, constraints: Iterable[tuple[str, PredicateKind, Any]]) -> float:
    """Fraction of the grid population satisfying the given (key, op,
    value) predicates, with intra-bucket uniformity per axis."""
    if mdh.total == 0:
        return 0.0
    by_axis: dict[int, list[tuple[PredicateKind, Any]]] = {}
    for key, op, value in constraints:
        if key not in mdh.keys:
            raise ValueError(f"key {key!r} not covered by this histogram")
        by_axis.setdefault(mdh.keys.index(key), []).append((op, value))
    acc = 0.0
    for cell, count in mdh.grid.items():
        frac = 1.0
        for a, preds in by_axis.items():
            lo = mdh.axes[a]["bounds"][cell[a]]
            hi = mdh.axes[a]["bounds"][cell[a] + 1]
            distinct = mdh.axes[a]["distincts"][cell[a]] or 1
            for op, value in preds:
                frac *= _axis_fraction(lo, hi, distinct, op, value)
                if frac == 0.0:
                    break
        acc += count * frac
    return acc / mdh.total


def _axis_fraction(lo: float, hi: float, distinct: int, op: PredicateKind, value: Any) -> float:
    if op is PredicateKind.IN:
        if not isinstance(value, (list, tuple)):
            return 0.0
        return min(1.0, sum(_axis_fraction(lo, hi, distinct, PredicateKind.EQ, v) for v in value))
    if not _is_number(value):
        return 0.0
    v = float(value)
    span = hi - lo
    if op is PredicateKind.EQ:
        return (1.0 / distinct) if lo <= v <= hi else 0.0
    if op is PredicateKind.NEQ:
        return 1.0 - ((1.0 / distinct) if lo <= v <= hi else 0.0)
    if op in (PredicateKind.LT, PredicateKind.LEQ):
        if v <= lo:
            return 0.0
        if v >= hi:
            return 1.0
        return (v - lo) / span if span > 0 else 0.5
    if op in (PredicateKind.GT, PredicateKind.GEQ):
        if v >= hi:
            return 0.0
        if v <= lo:
            return 1.0
        return (hi - v) / span if span > 0 else 0.5
    return 0.0  # CONTAINS never matches numerics


# ---------------------------------------------------------------------------
# The catalog


@dataclass
class StatisticsCatalog:
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
        return {
            "version": CATALOG_VERSION,
            "fingerprint": self.fingerprint,
            "basic": self.basic.to_dict() if self.basic else None,
            "synopses": [s.to_dict() for s in self.synopses],
            "sysr": self.sysr.to_dict() if self.sysr else None,
            "char_sets": [c.to_dict() for c in self.char_sets],
            "sketches": [s.to_dict() for s in self.sketches],
            "samples": [s.to_dict() for s in self.samples],
            "histograms": [h.to_dict() for h in self.histograms],
            "md_histograms": [m.to_dict() for m in self.md_histograms],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StatisticsCatalog":
        if d.get("version") != CATALOG_VERSION:
            raise CatalogFormatError(f"unsupported catalog version: {d.get('version')!r}")
        return cls(
            fingerprint=d.get("fingerprint", ""),
            basic=BasicStats.from_dict(d["basic"]) if d.get("basic") else None,
            synopses=[LabeledTopoSynopsis.from_dict(x) for x in d.get("synopses", [])],
            sysr=SysRStats.from_dict(d["sysr"]) if d.get("sysr") else None,
            char_sets=[CharacteristicSetStore.from_dict(x) for x in d.get("char_sets", [])],
            sketches=[BoundSketch.from_dict(x) for x in d.get("sketches", [])],
            samples=[Sample.from_dict(x) for x in d.get("samples", [])],
            histograms=[Histogram.from_dict(x) for x in d.get("histograms", [])],
            md_histograms=[MDHistogram.from_dict(x) for x in d.get("md_histograms", [])],
        )


def save_catalog(catalog: StatisticsCatalog, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog.to_dict(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_catalog(path: str) -> StatisticsCatalog:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CatalogFormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CatalogFormatError(f"{path}: catalog must be a JSON object")
    return StatisticsCatalog.from_dict(data)


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
