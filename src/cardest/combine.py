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
from .graph import scaled
from .query import (
    CompiledQuery,
    PartialEstimate,
    QueryPattern,
    compiled_for,
    constraint_set_key,
    implied_closure,  # noqa: F401 (looked up here by perfbench's tracer)
    union,
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
    cq, masks = compiled_for(pes, q)
    wanted = cq.mask(q.compiled.constraints)
    return pes + [individual_estimate(cq.constraints[i], catalog) for i in _uncovered(cq, wanted, masks)]


def _uncovered(cq: CompiledQuery, mask: int, masks: Iterable[int]) -> tuple[int, ...]:
    """The bits of mask that none of masks covers, in canonical order."""
    return cq.bits(mask & ~union(masks))


def _singleton_product(cq: CompiledQuery, mask: int, resolve: Callable[[int], float]) -> float:
    """Product of the singleton selectivities of mask's constraints, taken
    over its ascending bits, which is canonical order: float products
    must not depend on set iteration order."""
    return math.prod(map(resolve, cq.bits(mask)), start=1.0)


def _singleton_resolver(
    cq: CompiledQuery,
    pes: Iterable[PartialEstimate],
    masks: Iterable[int],
    catalog: Optional[StatisticsCatalog],
) -> Callable[[int], float]:
    """Singleton selectivity of the constraint at a bit of cq: its first
    singleton estimate (the estimates' sets given as masks), else its
    individual estimate from the catalog, memoized."""
    singles: dict[int, float] = {}
    for pe, mask in zip(pes, masks):
        if mask.bit_count() == 1:
            singles.setdefault(mask.bit_length() - 1, pe.selectivity)

    def resolve(i: int) -> float:
        s = singles.get(i)
        if s is None:
            c = cq.constraints[i]
            if catalog is None or catalog.basic is None:
                raise ValueError(f"no singleton selectivity available for {c!r}")
            s = singles[i] = individual_estimate(c, catalog).selectivity
        return s

    return resolve


def deviation_from_independence(
    pe: PartialEstimate, resolve: Callable[[int], float], cq: CompiledQuery
) -> float:
    """How far an estimate is from the product of its constraints'
    singleton selectivities (looked up by bit of cq with `resolve`); 1
    means independent, +inf a hard conflict."""
    if len(pe.constraints) == 1:
        return 1.0
    prod = _singleton_product(cq, cq.mask_of(pe), resolve)
    s = pe.selectivity
    if prod == 0.0 and s == 0.0:
        return 1.0
    if prod == 0.0 or s == 0.0:
        return math.inf
    return max(s / prod, prod / s)


def _order_estimates(
    pes: list[PartialEstimate],
    strategy: str,
    resolve: Callable[[int], float],
    cq: CompiledQuery,
) -> list[tuple[int, PartialEstimate]]:
    """The estimates in the processing order of a sort strategy, each
    with the mask of its implied closure in cq.

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

    # ties always resolve by (fewest constraints, canonical key), and
    # ascending bit tuples order sets as their canonical keys do
    def final(pe: PartialEstimate) -> tuple:
        return (len(pe.constraints), cq.bits(cq.mask_of(pe)))

    rank = {
        "SaNd": lambda pe: (pe.selectivity, -len(pe.constraints)),
        "Sd": lambda pe: (-pe.selectivity,),
        "NdSa": lambda pe: (-len(pe.constraints), pe.selectivity),
        "NdSd": lambda pe: (-len(pe.constraints), -pe.selectivity),
        "NaSd": lambda pe: (len(pe.constraints), -pe.selectivity),
        "NaSa": lambda pe: (len(pe.constraints), pe.selectivity),
        "Di": lambda pe: (-deviation_from_independence(pe, resolve, cq), pe.selectivity),
        # the maximum-overlap strategies' secondary rank
        "MoNd": lambda pe: (-len(pe.constraints),),
        "MoDi": lambda pe: (-deviation_from_independence(pe, resolve, cq),),
    }[strategy]
    ranked = [
        (cq.closure(cq.mask_of(pe)), pe)
        for pe in sorted(pes, key=lambda pe: rank(pe) + final(pe))
    ]
    if strategy not in ("MoNd", "MoDi"):
        return ranked

    # maximum-overlap strategies pick greedily against the constraints
    # already processed; `ranked` is sorted by rank, so the first estimate
    # of largest overlap is the one the rank prefers
    ordered: list[tuple[int, PartialEstimate]] = []
    done_impl = 0
    while ranked:
        overlaps = [(done_impl & closure).bit_count() for closure, _ in ranked]
        closure, pe = ranked.pop(overlaps.index(max(overlaps)))
        ordered.append((closure, pe))
        done_impl |= closure
    return ordered


@dataclass
class CombineStep:
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
) -> float:
    """Chain rule over the estimates, in strategy order.

    Disjoint estimates multiply in directly; partially overlapping ones
    are conditioned by dividing out an estimate of the shared part; fully
    covered ones are skipped.  The shared part's estimate is the chain
    rule again, over the estimates inside it and a singleton estimate for
    each of its constraints that none of them covers, down to
    RECURSION_LIMIT levels, where the singleton product stands in.  Every
    level reads the call's compiled query, singleton selectivities
    (`_singleton_resolver`) and strategy, and clamps its product to
    [0, 1]; only the top level's steps go to `trace`.
    """
    pes = list(cpes)
    cq, masks = compiled_for(pes, q)
    resolve = _singleton_resolver(cq, pes, masks, catalog)

    def chain(pairs: list[tuple[int, PartialEstimate]], depth: int, steps: Optional[list[CombineStep]]) -> float:
        """The chain rule over (mask, estimate) pairs, at a recursion depth."""
        # the closure of the processed constraints, grown by union as in
        # _order_estimates
        done_impl = 0
        result = 1.0
        for c_impl, pe in _order_estimates([pe for _, pe in pairs], strategy, resolve, cq):
            intersection = done_impl & c_impl
            factor: Optional[float]
            if not intersection:
                factor = pe.selectivity
                reason = "independent"
            elif intersection != c_impl:
                reason = "conditioned"
                if pe.selectivity == 0.0:
                    factor = 0.0
                elif depth >= RECURSION_LIMIT:
                    factor = pe.selectivity / max(pe.selectivity, _singleton_product(cq, intersection, resolve))
                else:
                    inside = [(m, p) for m, p in pairs if not m & ~intersection]
                    singles = [
                        (1 << i, cq.estimate(1 << i, resolve(i), "singleton", "estimate"))
                        for i in _uncovered(cq, intersection, (m for m, _ in inside))
                    ]
                    factor = pe.selectivity / max(pe.selectivity, chain(inside + singles, depth + 1, None))
            else:
                factor = None
                reason = "covered"
            if factor is not None:
                result *= factor
            if steps is not None:
                steps.append(CombineStep(pe.provenance, pe.selectivity, factor, reason))
            done_impl |= c_impl
        return min(max(result, 0.0), 1.0)

    return chain(list(zip(masks, pes)), 0, trace)


# ---------------------------------------------------------------------------
# Maximum entropy


def _greedy_partitions(cq: CompiledQuery, masks: list[int], mps: int) -> list[int]:
    """Masks of at most mps constraints that cover every estimate's
    constraints (`masks`); an estimate that fits in none is left to be
    dropped."""
    parts: list[int] = []
    for s in sorted(masks, key=lambda s: (-s.bit_count(), cq.bits(s))):
        if s.bit_count() > mps or any(not s & ~p for p in parts):
            continue
        touching = [k for k, p in enumerate(parts) if p & s]
        if not touching:
            for k, p in enumerate(parts):
                if (p | s).bit_count() <= mps:
                    parts[k] = p | s
                    break
            else:
                parts.append(s)
        elif len(touching) == 1 and (parts[touching[0]] | s).bit_count() <= mps:
            parts[touching[0]] |= s
        # spanning several partitions: the estimate will be dropped
    for i in cq.bits(union(masks)):
        if not any(p >> i & 1 for p in parts):
            for k, p in enumerate(parts):
                if p.bit_count() < mps:
                    parts[k] = p | 1 << i
                    break
            else:
                parts.append(1 << i)
    return parts


def _solve_max_ent_partition(
    cq: CompiledQuery,
    part: int,
    pes: list[PartialEstimate],
    masks: list[int],
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """Iterative proportional fitting over the feasible atoms of one
    partition.

    The partition is the mask `part` of cq, and `masks` are the
    estimates' sets in cq.  Atom a makes the partition's j-th constraint
    (in canonical order) true when bit j of a is set.  Every estimate
    in `pes` must lie inside the partition; the fit scales the
    atoms until each estimate's selectivity is the mass of the atoms where
    all its constraints hold.  Atoms no such distribution can give mass
    are structural zeros: the atoms on which a constraint holds but one
    it implies (`implied_closure`, within the partition) does not, and
    the empty cells of estimate pairs: where one estimate holds without
    an estimate that implies it at no lower selectivity, and where
    neither of two disjoint estimates holds when their union's estimate
    says that one of them always does.  They are found on Python-int
    bitsets, bit a for atom a, and the fit runs over the other atoms
    alone, in ascending order, from a uniform start: each marginal step
    sums its atoms and scales every atom by one of two factors, so every
    sum and product is the one a fit over all 2^k atoms makes.  Returns
    the fitted masses of all 2^k atoms, 0 at each structural zero.
    """
    positions = cq.bits(part)
    n = 1 << len(positions)
    full = (1 << n) - 1
    # the atoms where a constraint holds: its base block of 2^(j+1) bits,
    # upper half set, doubled until it spans all n atoms
    rows: dict[int, int] = {}
    for j, i in enumerate(positions):
        row, width = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while width < n:
            row |= row << width
            width <<= 1
        rows[i] = row

    def holds(mask: int) -> int:
        """The atoms where every constraint of mask in the partition holds."""
        h = full
        for i, row in rows.items():
            if mask >> i & 1:
                h &= row
        return h

    def unpacked(atom_set: int) -> np.ndarray:
        """An int of atoms as one bool per atom."""
        packed = np.frombuffer(atom_set.to_bytes((n + 7) // 8, "little"), np.uint8)
        return np.unpackbits(packed, count=n, bitorder="little").view(bool)

    feasible = full
    for i, row in rows.items():
        feasible &= ~row | holds(cq.closures[i])
    # per estimate, once: (mask, selectivity, atoms where it holds, closure)
    cells = [(m, pe.selectivity, holds(m), cq.closure(m)) for m, pe in zip(masks, pes)]
    selectivity = {m: s for m, s, _, _ in cells}
    held = {m: h for m, _, h, _ in cells}
    for m, s, h, closure in cells:
        for o, s_o, h_o, _ in cells:
            if o != closure and not o & ~closure and s_o <= s * (1.0 + _EMPTY_CELL_RTOL):
                feasible &= ~h_o | h
            if o != m and not o & ~m:
                rest = m & ~o
                if rest in selectivity and s_o + selectivity[rest] - s >= 1.0 - _EMPTY_CELL_SLACK:
                    feasible &= h_o | held[rest]
    ids = unpacked(feasible).nonzero()[0]
    atoms = np.full(len(ids), 1.0 / len(ids))
    # per marginal: the positions in atoms where it holds, and per atom 1
    # where it holds and 0 where it does not
    marginals = []
    for _, s, h, _ in cells:
        included = unpacked(h)[ids]
        marginals.append((included.nonzero()[0], included.astype(np.intp), s))
    worst = math.inf
    for _ in range(max_iter):
        worst = 0.0
        for inside, side, s in marginals:
            m = float(np.add.reduce(atoms[inside]))
            worst = max(worst, abs(m - s))
            if m == 0.0:
                if s > 1e-15:
                    raise MaxEntError("zero mass on a positive marginal", residual=s)
                continue
            if m >= 1.0 and s < 1.0:
                raise MaxEntError("full mass on a partial marginal", residual=1.0 - s)
            atoms *= np.array((1.0 if m >= 1.0 else (1.0 - s) / (1.0 - m), s / m))[side]
        if worst < tol:
            break
    else:
        if worst >= FEASIBILITY_TOL:
            raise MaxEntError(f"no convergence after {max_iter} iterations", residual=worst)
    fitted = np.zeros(n)
    fitted[ids] = atoms
    return fitted


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
    cq, masks = compiled_for(pes, q)
    placed: set[int] = set()
    result = 1.0
    for part in _greedy_partitions(cq, masks, mps):
        inside = [j for j, m in enumerate(masks) if not m & ~part]
        placed.update(inside)
        mass = 1.0  # no estimate constrains this partition
        if inside:
            atoms = _solve_max_ent_partition(
                cq, part, [pes[j] for j in inside], [masks[j] for j in inside], tol, max_iter
            )
            mass = float(atoms[-1])
        if trace is not None:
            trace.append((constraint_set_key(cq.select(part)), mass))
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

    Only estimates whose kind vouches for their number take part: one
    made under an assumption ("estimate") can err either way.
    Upper: minimum product over subsets of the "exact" and "upper"
    estimates with pairwise disjoint id sets (exact enumeration for small
    sets, greedy beyond); 1 when there are none.  Each estimate of the
    chosen product is appended to `trace`, in input order, as an
    "upper-factor" step.
    Lower: one minus the summed miss mass of the "exact" estimates, after
    discarding those whose constraint set is contained in another's; 0
    unless they cover every constraint that the whole set covers.
    """
    given = list(cpes)
    if not given:
        return BoundsResult(0.0, 1.0, True)
    cq, given_masks = compiled_for(given, q)
    rank = sorted(
        (i for i, pe in enumerate(given) if pe.kind != "estimate"),
        key=lambda i: (given[i].selectivity, cq.bits(given_masks[i])),
    )
    pes = [given[i] for i in rank]
    masks = [given_masks[i] for i in rank]

    id_sets = [cq.ids_of(m) for m in masks]
    upper, chosen = 1.0, []
    exact = len(pes) <= _EXACT_ENUM_LIMIT
    if exact:
        work = 0

        def dfs(start: int, ids: int, prod: float, picked: list[int]) -> bool:
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

        exact = dfs(0, 0, 1.0, [])
    if not exact:
        # greedy: smallest selectivities first, keep id-disjoint ones
        upper, chosen = 1.0, []
        ids = 0
        for j, pe in enumerate(pes):
            if ids & id_sets[j]:
                continue
            upper *= pe.selectivity
            ids |= id_sets[j]
            chosen.append(j)
    if trace is not None:
        for i in sorted(rank[j] for j in chosen):
            pe = given[i]
            trace.append(CombineStep(pe.provenance, pe.selectivity, pe.selectivity, "upper-factor"))

    # lower bound: drop exact estimates subsumed by a larger one; of equal
    # sets the first copy stays
    exact_inputs = [(pe, m) for pe, m in zip(pes, masks) if pe.kind == "exact"]
    lower = 0.0
    if union(m for _, m in exact_inputs) == union(given_masks):
        pruned = [
            pe
            for i, (pe, m) in enumerate(exact_inputs)
            if not any(not m & ~o and (m != o or j < i) for j, (_, o) in enumerate(exact_inputs))
        ]
        lower = max(0.0, 1.0 - sum(1.0 - pe.selectivity for pe in pruned))
    upper = min(max(upper, 0.0), 1.0)
    return BoundsResult(lower=min(lower, upper), upper=upper, exact_upper=exact)


def selectivity_to_cardinality(s: float, q: QueryPattern, catalog: StatisticsCatalog) -> float:
    """Scale a selectivity to a match count: s * |ids|^{query ids}
    (`graph.scaled`), inf past the float range."""
    if catalog.basic is None:
        raise ValueError("basic statistics required")
    return scaled(s, catalog.basic.n_ids, len(q.ids))
