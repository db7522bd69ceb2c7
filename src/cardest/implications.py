"""Phase-2: derive new partial estimates from existing ones.

Two mechanisms: deterministic implications (src/trg incidence implies
vertex and edge membership, a value predicate implies key presence), and
implication assumptions, where within a pattern scope the most selective
estimate is assumed to imply the rest.
"""

from __future__ import annotations

from typing import Iterable

from .query import (
    CompiledQuery,
    ConstraintKind,
    PROP_KINDS,
    PartialEstimate,
    QueryPattern,
    compiled_for,
    implied_closure,  # noqa: F401 (looked up here by perfbench's tracer)
    union,
)

CONSTRAINT_CLASSES = {
    "pv": frozenset({ConstraintKind.PROP_VALUE}),
    "p": PROP_KINDS,
    "a": frozenset(ConstraintKind),
}

PATTERN_CLASSES = ("id", "ep")


def add_implied_closures(pes: Iterable[PartialEstimate], q: QueryPattern) -> list[PartialEstimate]:
    """For every estimate, derive the estimate over its implied closure
    (larger only for one with a src/trg or value predicate) at the same
    selectivity and of the same kind.

    The implied constraints hold whenever the original ones do, so the
    selectivity carries over exactly.  Returns only estimates whose
    constraint sets are not already present.  Closures are masks of q's
    compiled form.
    """
    pes = list(pes)
    cq, masks = compiled_for(pes, q)
    closures = ((cq.closure(mask), pe.selectivity, pe.provenance, pe.kind) for pe, mask in zip(pes, masks))
    return _new_sets(cq, masks, closures)


def add_implication_unions(
    pes: Iterable[PartialEstimate],
    q: QueryPattern,
    pattern_class: str,
    constraint_class: str,
) -> list[PartialEstimate]:
    """Implication-assumption estimates.

    For every pattern instance of `pattern_class` ('id': each query id;
    'ep': each query edge with its endpoints), collect the estimates
    whose constraints all belong to `constraint_class` ('pv' value
    predicates, 'p' property constraints, 'a' all kinds) and whose ids
    fall inside the instance.  With at least two of them, the one with
    the lowest selectivity is assumed to imply the union of them all; the
    union rests on that assumption, so it is an "estimate".
    """
    if pattern_class not in PATTERN_CLASSES:
        raise ValueError(f"unknown pattern class: {pattern_class!r}")
    allowed = CONSTRAINT_CLASSES.get(constraint_class)
    if allowed is None:
        raise ValueError(f"unknown constraint class: {constraint_class!r}")

    pes = list(pes)
    cq, masks = compiled_for(pes, q)
    if pattern_class == "id":
        instances = [(i,) for i in sorted(q.ids)]
    else:
        instances = [(e, *q.endpoints[e]) for e in sorted(q.edges)]
    tag = f"ip({pattern_class},{constraint_class})"
    # (mask, estimate) of each estimate of allowed kinds only
    kinds = cq.kinds(allowed)
    eligible = [(mask, pe) for pe, mask in zip(pes, masks) if not mask & ~kinds]
    unions: list[tuple[int, float, str, str]] = []
    for ids in instances:
        inside = cq.within(ids)
        group = [(mask, pe) for mask, pe in eligible if not mask & ~inside]
        if len(group) < 2:
            continue
        # lowest selectivity wins; ties prefer the more informative
        # implicant, then the canonical key
        _, chosen = min(group, key=lambda g: (g[1].selectivity, -len(g[1].constraints), cq.bits(g[0])))
        unions.append((union(mask for mask, _ in group), chosen.selectivity, tag, "estimate"))
    return _new_sets(cq, masks, unions)


def _new_sets(
    cq: CompiledQuery, masks: list[int], derived: Iterable[tuple[int, float, str, str]]
) -> list[PartialEstimate]:
    """Estimates for the derived (mask, selectivity, provenance, kind)
    tuples whose sets neither `masks` nor an earlier derived tuple holds."""
    present = set(masks)
    out: list[PartialEstimate] = []
    for mask, selectivity, provenance, kind in derived:
        if mask not in present:
            present.add(mask)
            out.append(cq.estimate(mask, selectivity, provenance, kind))
    return out
