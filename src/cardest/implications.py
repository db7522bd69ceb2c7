"""Phase-2: derive new partial estimates from existing ones.

Two mechanisms: deterministic implications (src/trg incidence implies
vertex and edge membership, a value predicate implies key presence), and
implication assumptions, where within a pattern scope the most selective
estimate is assumed to imply the rest.
"""

from __future__ import annotations

from typing import Iterable

from .query import (
    Constraint,
    ConstraintKind,
    DATA_KINDS,
    PROP_KINDS,
    PartialEstimate,
    QueryPattern,
    implied_closure,
)

_TRIGGER_KINDS = frozenset(
    {ConstraintKind.SRC, ConstraintKind.TRG, ConstraintKind.PROP_VALUE}
)

CONSTRAINT_CLASSES = {
    "pv": frozenset({ConstraintKind.PROP_VALUE}),
    "p": PROP_KINDS,
    "a": frozenset(ConstraintKind),
}

PATTERN_CLASSES = ("id", "ep")


def add_implied_closures(pes: Iterable[PartialEstimate]) -> list[PartialEstimate]:
    """For every estimate containing a src/trg or value predicate, derive
    the estimate over its implied closure at the same selectivity.

    The implied constraints hold whenever the original ones do, so the
    selectivity carries over exactly.  Returns only estimates whose
    constraint sets are not already present.
    """
    pes = list(pes)
    closures = (
        PartialEstimate(implied_closure(pe.constraints), pe.selectivity, pe.provenance)
        for pe in pes
        if any(c.kind in _TRIGGER_KINDS for c in pe.constraints)
    )
    return _new_sets(pes, closures)


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
    the lowest selectivity is assumed to imply the union of them all.
    """
    if pattern_class not in PATTERN_CLASSES:
        raise ValueError(f"unknown pattern class: {pattern_class!r}")
    allowed = CONSTRAINT_CLASSES.get(constraint_class)
    if allowed is None:
        raise ValueError(f"unknown constraint class: {constraint_class!r}")

    if pattern_class == "id":
        instances = [frozenset({i}) for i in sorted(q.ids)]
    else:
        instances = [frozenset({e, *q.endpoints[e]}) for e in sorted(q.edges)]

    pes = list(pes)
    tag = f"ip({pattern_class},{constraint_class})"
    unions: list[PartialEstimate] = []
    for ids in instances:
        group = [
            pe
            for pe in pes
            if pe.id_set <= ids and all(c.kind in allowed for c in pe.constraints)
        ]
        if len(group) < 2:
            continue
        union = frozenset().union(*(pe.constraints for pe in group))
        # lowest selectivity wins; ties prefer the more informative
        # implicant, then the canonical key
        chosen = min(group, key=lambda pe: (pe.selectivity, -len(pe.constraints), pe.key()))
        unions.append(PartialEstimate(union, chosen.selectivity, tag))
    return _new_sets(pes, unions)


def _new_sets(pes: list[PartialEstimate], derived: Iterable[PartialEstimate]) -> list[PartialEstimate]:
    """The derived estimates whose constraint sets neither `pes` nor an
    earlier derived estimate holds."""
    present = {pe.key() for pe in pes}
    out: list[PartialEstimate] = []
    for pe in derived:
        if pe.key() not in present:
            present.add(pe.key())
            out.append(pe)
    return out
