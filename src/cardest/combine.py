"""Phase-3: complete an estimate set and combine it into one selectivity.

Three combiners are available: the chain rule of probability with
conditional-independence assumptions (in a configurable processing
order), a maximum-entropy distribution over constraint atoms solved by
iterative proportional fitting, and upper/lower selectivity bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .estimators import individual_estimate
from .query import (
    Constraint,
    PartialEstimate,
    QueryPattern,
    constraint_set_key,
    extract_constraints,
    implied_closure,
)
from .stats import StatisticsCatalog

SORT_STRATEGIES = ("SaNd", "Sd", "NdSa", "NdSd", "NaSd", "NaSa", "Di", "MoNd", "MoDi")

RECURSION_LIMIT = 2
DEFAULT_MPS = 8
MPS_HARD_CAP = 20
IPF_TOL = 1e-9
IPF_MAX_ITER = 10000


class MaxEntError(RuntimeError):
    """The max-entropy program failed to converge (often an inconsistent
    estimate set); carries the worst marginal residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# With the structural zeros seeded, consistent estimates are usually fitted
# at a geometric rate.  Estimate sets that force further atoms to zero, or
# nearly so (through three or more estimates together, or selectivities
# that agree only approximately), put the solution on or near the boundary
# of the simplex, where the residual decays only like 1/iterations;
# residuals below this after max_iter count as converged, larger ones as
# an inconsistent estimate set.
FEASIBILITY_TOL = 1e-4

# Rounding allowances when selectivities are compared to find empty cells:
# relative between two selectivities, which can lie far below 1e-15 when
# they count matches over several ids, and absolute for a sum near 1.
_EMPTY_CELL_RTOL = 1e-12
_EMPTY_CELL_SLACK = 1e-15


def make_complete(
    pes: Iterable[PartialEstimate], q: QueryPattern, catalog: StatisticsCatalog
) -> list[PartialEstimate]:
    """Ensure every query constraint occurs in at least one estimate by
    adding singleton estimates (individual fallback chain) for the rest."""
    pes = list(pes)
    return pes + [individual_estimate(c, catalog) for c in _uncovered(extract_constraints(q), pes)]


def _uncovered(
    constraints: frozenset[Constraint], pes: Iterable[PartialEstimate]
) -> list[Constraint]:
    """The constraints that no estimate covers, in canonical order."""
    covered = set().union(*(pe.constraints for pe in pes))
    return sorted(constraints - covered, key=lambda c: c.sort_key())


def _singleton_product(
    constraints: Iterable[Constraint], resolve: Callable[[Constraint], float]
) -> float:
    """Product of the constraints' singleton selectivities, in canonical
    order: float products must not depend on set iteration order."""
    return math.prod((resolve(c) for c in sorted(constraints, key=lambda c: c.sort_key())), start=1.0)


def _singleton_resolver(
    pes: Iterable[PartialEstimate], catalog: Optional[StatisticsCatalog]
) -> Callable[[Constraint], float]:
    """Singleton selectivity of a constraint: its first singleton estimate,
    else its individual estimate from the catalog, memoized."""
    singles: dict[Constraint, float] = {}
    for pe in pes:
        if len(pe.constraints) == 1:
            singles.setdefault(next(iter(pe.constraints)), pe.selectivity)

    def resolve(c: Constraint) -> float:
        s = singles.get(c)
        if s is None:
            if catalog is None or catalog.basic is None:
                raise ValueError(f"no singleton selectivity available for {c!r}")
            s = singles[c] = individual_estimate(c, catalog).selectivity
        return s

    return resolve


def deviation_from_independence(
    pe: PartialEstimate, resolve: Callable[[Constraint], float]
) -> float:
    """How far an estimate is from the product of its constraints'
    singleton selectivities (looked up with `resolve`); 1 means
    independent, +inf a hard conflict."""
    if len(pe.constraints) == 1:
        return 1.0
    prod = _singleton_product(pe.constraints, resolve)
    s = pe.selectivity
    if prod == 0.0 and s == 0.0:
        return 1.0
    if prod == 0.0 or s == 0.0:
        return math.inf
    return max(s / prod, prod / s)


def _order_estimates(
    pes: list[PartialEstimate],
    strategy: str,
    resolve: Callable[[Constraint], float],
) -> list[tuple[frozenset[Constraint], PartialEstimate]]:
    """The estimates in the processing order of a sort strategy, each
    with its implied closure.

    The maximum-overlap strategies (MoNd, MoDi) pick greedily: next comes
    the estimate whose implied closure shares the most constraints with
    the closure of those already picked, then by the secondary and the
    final rank.  Each estimate's closure and ranks are computed once, and
    the picked closure grows by union: `implied_closure` maps every
    constraint on its own, so the closure of a union is the union of the
    closures, and the order is the one that recomputing them at every
    step gives.
    """
    if strategy not in SORT_STRATEGIES:
        raise ValueError(f"unknown sort strategy: {strategy!r}")

    # ties always resolve by (fewest constraints, canonical key)
    def final(pe: PartialEstimate) -> tuple:
        return (len(pe.constraints), pe.key())

    rank = {
        "SaNd": lambda pe: (pe.selectivity, -len(pe.constraints)),
        "Sd": lambda pe: (-pe.selectivity,),
        "NdSa": lambda pe: (-len(pe.constraints), pe.selectivity),
        "NdSd": lambda pe: (-len(pe.constraints), -pe.selectivity),
        "NaSd": lambda pe: (len(pe.constraints), -pe.selectivity),
        "NaSa": lambda pe: (len(pe.constraints), pe.selectivity),
        "Di": lambda pe: (-deviation_from_independence(pe, resolve), pe.selectivity),
        # the maximum-overlap strategies' secondary rank
        "MoNd": lambda pe: (-len(pe.constraints),),
        "MoDi": lambda pe: (-deviation_from_independence(pe, resolve),),
    }[strategy]
    ranked = [
        (implied_closure(pe.constraints), pe)
        for pe in sorted(pes, key=lambda pe: rank(pe) + final(pe))
    ]
    if strategy not in ("MoNd", "MoDi"):
        return ranked

    # maximum-overlap strategies pick greedily against the constraints
    # already processed; `ranked` is sorted by rank, so the first estimate
    # of largest overlap is the one the rank prefers
    ordered: list[tuple[frozenset[Constraint], PartialEstimate]] = []
    done_impl: frozenset[Constraint] = frozenset()
    while ranked:
        best = max(range(len(ranked)), key=lambda i: len(done_impl & ranked[i][0]))
        closure, pe = ranked.pop(best)
        ordered.append((closure, pe))
        done_impl |= closure
    return ordered


@dataclass
class CombineStep:
    constraints_key: tuple
    provenance: str
    selectivity: float
    factor: Optional[float]
    reason: str


def combine_cond_indep(
    cpes: Iterable[PartialEstimate],
    q: QueryPattern,
    strategy: str = "MoDi",
    catalog: Optional[StatisticsCatalog] = None,
    trace: Optional[list[CombineStep]] = None,
    _depth: int = 0,
) -> float:
    """Chain rule over the estimates, in strategy order.

    Disjoint estimates multiply in directly; partially overlapping ones
    are conditioned by dividing out an estimate of the shared part
    (resolved recursively from subset estimates, with a depth cap falling
    back to the singleton product); fully covered ones are skipped.
    """
    pes = list(cpes)
    resolve = _singleton_resolver(pes, catalog)
    # the closure of the processed constraints, grown by union as in
    # _order_estimates
    done_impl: frozenset[Constraint] = frozenset()
    result = 1.0
    for c_impl, pe in _order_estimates(pes, strategy, resolve):
        intersection = done_impl & c_impl
        factor: Optional[float]
        if not intersection:
            factor = pe.selectivity
            reason = "independent"
        elif intersection != c_impl:
            if pe.selectivity == 0.0:
                factor = 0.0
            else:
                shared = _estimate_subset(
                    intersection, pes, resolve, q, strategy, catalog, _depth
                )
                factor = pe.selectivity / max(pe.selectivity, shared)
            reason = "conditioned"
        else:
            factor = None
            reason = "covered"
        if factor is not None:
            result *= factor
        if trace is not None:
            trace.append(
                CombineStep(pe.key(), pe.provenance, pe.selectivity, factor, reason)
            )
        done_impl |= c_impl
    return min(max(result, 0.0), 1.0)


def _estimate_subset(
    constraints: frozenset[Constraint],
    pes: list[PartialEstimate],
    resolve: Callable[[Constraint], float],
    q: QueryPattern,
    strategy: str,
    catalog: Optional[StatisticsCatalog],
    depth: int,
) -> float:
    """Selectivity of a constraint subset, for the conditioning step."""
    if depth >= RECURSION_LIMIT:
        return _singleton_product(constraints, resolve)
    sub = [pe for pe in pes if pe.constraints <= constraints]
    sub += [PartialEstimate(frozenset({c}), resolve(c), "singleton") for c in _uncovered(constraints, sub)]
    return combine_cond_indep(sub, q, strategy, catalog, None, depth + 1)


# ---------------------------------------------------------------------------
# Maximum entropy


def _greedy_partitions(
    pes: list[PartialEstimate], all_constraints: list[Constraint], mps: int
) -> list[list[Constraint]]:
    parts: list[set[Constraint]] = []
    for pe in sorted(pes, key=lambda pe: (-len(pe.constraints), pe.key())):
        s = set(pe.constraints)
        if len(s) > mps or any(s <= p for p in parts):
            continue
        touching = [p for p in parts if p & s]
        if not touching:
            for p in parts:
                if len(p | s) <= mps:
                    p |= s
                    break
            else:
                parts.append(s)
        elif len(touching) == 1 and len(touching[0] | s) <= mps:
            touching[0] |= s
        # spanning several partitions: the estimate will be dropped
    for c in all_constraints:
        if not any(c in p for p in parts):
            for p in parts:
                if len(p) < mps:
                    p.add(c)
                    break
            else:
                parts.append({c})
    return [sorted(p, key=lambda c: c.sort_key()) for p in parts]


def _solve_max_ent_partition(
    constraints: list[Constraint],
    pes: list[PartialEstimate],
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """Iterative proportional fitting over the 2^k atoms of one partition.

    Atom a makes constraint i true when bit i of a is set.  Every
    estimate in `pes` must lie inside the partition; the fit scales the
    atoms until each estimate's selectivity is the mass of the atoms where
    all its constraints hold.  Atoms no such distribution can give mass
    are structural zeros: they start and stay at mass 0, and the others
    start uniform.  They are the atoms on which a constraint holds but
    one it implies (`implied_closure`, within the partition) does not,
    and the empty cells of estimate pairs: where one estimate holds
    without an estimate that implies it at no lower selectivity, and
    where neither of two disjoint estimates holds when their union's
    estimate says that one of them always does.  Returns the fitted atom
    masses.
    """
    index = {c: i for i, c in enumerate(constraints)}
    atom_ids = np.arange(1 << len(constraints))

    def holds(cs: Iterable[Constraint]) -> np.ndarray:
        mask = _bits(cs, index)
        return (atom_ids & mask) == mask

    feasible = np.ones(len(atom_ids), dtype=bool)
    for c in constraints:
        feasible &= ~holds((c,)) | holds(d for d in implied_closure((c,)) if d in index)
    selectivity = {pe.constraints: pe.selectivity for pe in pes}
    for pe in pes:
        pe_closure = implied_closure(pe.constraints)
        for other in pes:
            if other.constraints < pe_closure and (
                other.selectivity <= pe.selectivity * (1.0 + _EMPTY_CELL_RTOL)
            ):
                feasible &= ~holds(other.constraints) | holds(pe.constraints)
            if other.constraints < pe.constraints:
                rest = pe.constraints - other.constraints
                if rest in selectivity and (
                    other.selectivity + selectivity[rest] - pe.selectivity
                    >= 1.0 - _EMPTY_CELL_SLACK
                ):
                    feasible &= holds(other.constraints) | holds(rest)
    atoms = feasible / np.count_nonzero(feasible)
    marginals = []
    for pe in pes:
        included = holds(pe.constraints)
        inside = np.flatnonzero(feasible & included)
        outside = np.flatnonzero(feasible & ~included)
        marginals.append((inside, outside, pe.selectivity))
    worst = math.inf
    for _ in range(max_iter):
        worst = 0.0
        for inside, outside, s in marginals:
            m = float(atoms[inside].sum())
            worst = max(worst, abs(m - s))
            if m == 0.0:
                if s > 1e-15:
                    raise MaxEntError("zero mass on a positive marginal", residual=s)
                continue
            if m >= 1.0 and s < 1.0:
                raise MaxEntError("full mass on a partial marginal", residual=1.0 - s)
            atoms[inside] *= s / m
            if m < 1.0:
                atoms[outside] *= (1.0 - s) / (1.0 - m)
        if worst < tol:
            return atoms
    if worst < FEASIBILITY_TOL:
        return atoms
    raise MaxEntError(f"no convergence after {max_iter} iterations", residual=worst)


def _bits(constraints: Iterable[Constraint], index: dict[Constraint, int]) -> int:
    mask = 0
    for c in constraints:
        mask |= 1 << index[c]
    return mask


def combine_max_ent(
    cpes: Iterable[PartialEstimate],
    q: QueryPattern,
    mps: int = DEFAULT_MPS,
    tol: float = IPF_TOL,
    max_iter: int = IPF_MAX_ITER,
    trace: Optional[list] = None,
    dropped: Optional[list[PartialEstimate]] = None,
) -> float:
    """Most uniform joint distribution consistent with the estimates.

    Constraints are greedily partitioned so each estimate lands inside
    one partition of at most mps constraints; estimates larger than mps
    or spanning partitions are dropped (and appended to `dropped` when
    given).  Within a partition, atoms that violate an implication
    between its constraints are structural zeros.  Partitions are assumed
    independent and each contributes the mass of its all-true atom.
    """
    if mps < 1:
        raise ValueError("mps must be >= 1")
    mps = min(mps, MPS_HARD_CAP)
    pes = list(cpes)
    all_constraints = sorted(set().union(*(pe.constraints for pe in pes)), key=lambda c: c.sort_key())
    parts = _greedy_partitions(pes, all_constraints, mps)
    placed: set[int] = set()
    result = 1.0
    for part in parts:
        members = set(part)
        inside = [j for j, pe in enumerate(pes) if pe.constraints <= members]
        placed.update(inside)
        mass = 1.0  # no estimate constrains this partition
        if inside:
            atoms = _solve_max_ent_partition(part, [pes[j] for j in inside], tol, max_iter)
            mass = float(atoms[-1])
        if trace is not None:
            trace.append((constraint_set_key(part), mass))
        result *= mass
    if dropped is not None:
        dropped.extend(pe for j, pe in enumerate(pes) if j not in placed)
    return min(max(result, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Bounds


@dataclass
class BoundsResult:
    lower: float
    upper: float
    exact_upper: bool


_EXACT_ENUM_LIMIT = 20
_ENUM_WORK_BUDGET = 200000


def combine_bounds(
    cpes: Iterable[PartialEstimate],
    q: QueryPattern,
    trace: Optional[list[CombineStep]] = None,
) -> BoundsResult:
    """Upper and lower selectivity bounds from the estimate set.

    Upper: minimum product over subsets of estimates with pairwise
    disjoint id sets (exact enumeration for small sets, greedy beyond).
    Each estimate of the chosen product is appended to `trace`, in input
    order, as an "upper-factor" step.
    Lower: one minus the summed miss mass, after discarding estimates
    whose constraint set is contained in another's.
    """
    given = list(cpes)
    if not given:
        return BoundsResult(0.0, 1.0, True)
    rank = sorted(range(len(given)), key=lambda i: (given[i].selectivity, given[i].key()))
    pes = [given[i] for i in rank]

    id_sets = [pe.id_set for pe in pes]
    upper, chosen = 1.0, []
    exact = len(pes) <= _EXACT_ENUM_LIMIT
    if exact:
        work = 0

        def dfs(start: int, ids: frozenset, prod: float, picked: list[int]) -> bool:
            nonlocal work, upper, chosen
            if picked and prod < upper:
                upper, chosen = prod, list(picked)
            for j in range(start, len(pes)):
                work += 1
                if work > _ENUM_WORK_BUDGET:
                    return False
                if ids & id_sets[j]:
                    continue
                picked.append(j)
                ok = dfs(j + 1, ids | id_sets[j], prod * pes[j].selectivity, picked)
                picked.pop()
                if not ok:
                    return False
            return True

        exact = dfs(0, frozenset(), 1.0, [])
    if not exact:
        # greedy: smallest selectivities first, keep id-disjoint ones
        upper, chosen = 1.0, []
        ids: frozenset = frozenset()
        for j, pe in enumerate(pes):
            if ids & id_sets[j]:
                continue
            upper *= pe.selectivity
            ids |= id_sets[j]
            chosen.append(j)
    if trace is not None:
        for i in sorted(rank[j] for j in chosen):
            pe = given[i]
            trace.append(CombineStep(pe.key(), pe.provenance, pe.selectivity, pe.selectivity, "upper-factor"))

    # lower bound: drop estimates subsumed by a larger one; of equal sets
    # the first copy stays
    pruned = [
        pe
        for i, pe in enumerate(pes)
        if not any(
            pe.constraints < other.constraints or (pe.constraints == other.constraints and j < i)
            for j, other in enumerate(pes)
        )
    ]
    lower = max(0.0, 1.0 - sum(1.0 - pe.selectivity for pe in pruned))
    upper = min(max(upper, 0.0), 1.0)
    return BoundsResult(lower=min(lower, upper), upper=upper, exact_upper=exact)


def selectivity_to_cardinality(s: float, q: QueryPattern, catalog: StatisticsCatalog) -> float:
    """Scale a selectivity to a match count: s * |ids|^{query ids}."""
    if catalog.basic is None:
        raise ValueError("basic statistics required")
    return s * float(catalog.basic.n_ids) ** len(q.ids)
