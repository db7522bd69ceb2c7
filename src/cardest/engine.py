"""End-to-end estimation: run the configured techniques, extend the
estimate set, combine, and report.

Phase 1 gives every constraint of the query a singleton estimate, so
the set that reaches the combiner is complete without a completion step.

A configuration names the enabled techniques with the tags used
throughout (EP, c2, s3, t2, SysR, CS, BS, S(id,0.001), WJ(1000), MDH for
phase 1; implied and IP(id,p) etc. for phase 2; condIndep(MoDi),
maxEnt(mps=8) or bounds for phase 3).
"""

from __future__ import annotations

import json
import re
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from . import combine, estimators, implications, stats
from .combine import (
    CombineStep,
    MaxEntError,
    combine_bounds,
    combine_cond_indep,
    combine_max_ent,
    make_complete,  # noqa: F401 (looked up here by perfbench's tracer)
    selectivity_to_cardinality,
)
from .estimators import dedup_estimates
from .graph import PropertyGraph
from .implications import add_implication_unions, add_implied_closures
from .query import (
    PartialEstimate,
    QueryFormatError,
    QueryPattern,
    label_list,
    load_document,
    parse_query,
)
from .stats import StatisticsCatalog, StaleCatalogWarning


class ConfigError(ValueError):
    """An estimator configuration or a statistics token could not be parsed."""


class ExpansionLimitError(RuntimeError):
    """Disjunction expansion exceeded the configured cap."""


def _split_tags(value: str) -> tuple[str, ...]:
    """Split a tag list on commas outside parentheses."""
    tags: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in value:
        if ch == "," and depth == 0:
            tags.append("".join(current))
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        current.append(ch)
    tags.append("".join(current))
    return tuple(t.strip() for t in tags if t.strip())


# a synopsis tag's size lands in the group named after its synopsis class
_PET_RE = re.compile(
    r"^(?:EP|c(?P<chain>\d+)|s(?P<source_star>\d+)|t(?P<target_star>\d+)|SysR|CS|BS|MDH|defaults"
    rf"|S\((?P<sample>{'|'.join((*stats.SAMPLE_TYPES, *stats.SAMPLE_TYPE_ALIASES))}),"
    r"(?P<pr>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\)"
    r"|WJ\((?P<walks>0*[1-9]\d*)\))$"
)
_IP_RE = re.compile(
    rf"^IP\((?P<pattern_class>{'|'.join(implications.PATTERN_CLASSES)}),"
    rf"(?P<constraint_class>{'|'.join(implications.CONSTRAINT_CLASSES)})\)$"
)
_CT_RE = re.compile(
    rf"^(?:condIndep\((?P<strategy>{'|'.join(combine.SORT_STRATEGIES)})\)"
    r"|maxEnt\((?:mps=)?(?P<mps>0*[1-9]\d*)\)|maxEnt|bounds)$"
)


@dataclass
class EstimatorConfig:
    """Which techniques run and how the estimates are combined."""

    pets: tuple[str, ...] = ()
    epests: tuple[str, ...] = ()
    ct: str = "condIndep(MoDi)"
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        for tag in self.pets:
            m = _PET_RE.match(tag)
            if not m:
                raise ConfigError(f"unknown technique tag: {tag!r}")
            if m["pr"] is not None and not 0.0 < float(m["pr"]) <= 1.0:
                raise ConfigError(f"sample probability in {tag!r} must be in (0, 1]")
        for tag in self.epests:
            if tag != "implied" and not _IP_RE.match(tag):
                raise ConfigError(f"unknown extension tag: {tag!r}")
        m = _CT_RE.match(self.ct)
        if not m:
            raise ConfigError(f"unknown combination tag: {self.ct!r}")
        if m["mps"] is not None and int(m["mps"]) > combine.MPS_HARD_CAP:
            raise ConfigError(f"maxEnt partition size in {self.ct!r} must be at most {combine.MPS_HARD_CAP}")

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        return "+".join(self.pets) + "|" + "+".join(self.epests) + "|" + self.ct

    @classmethod
    def parse(cls, text: str) -> "EstimatorConfig":
        """Parse 'pets=EP,c2; epests=IP(id,p); ct=condIndep(MoDi); seed=1'."""
        fields: dict[str, Any] = {}
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(f"bad config fragment: {part!r}")
            key, value = part.split("=", 1)
            key, value = key.strip(), value.strip()
            if key in fields:
                raise ConfigError(f"config key given twice: {key!r}")
            if key == "pets":
                fields["pets"] = _split_tags(value)
            elif key == "epests":
                fields["epests"] = _split_tags(value)
            elif key == "ct":
                fields["ct"] = value
            elif key == "seed":
                try:
                    fields["seed"] = int(value)
                except ValueError:
                    raise ConfigError(f"seed must be an integer: {value!r}") from None
            elif key == "name":
                fields["name"] = value
            else:
                raise ConfigError(f"unknown config key: {key!r}")
        return cls(**fields)


@dataclass
class EstimateReport:
    selectivity: float
    cardinality: float
    estimates: list[PartialEstimate] = field(default_factory=list)
    combiner_trace: list = field(default_factory=list)
    wall_time: float = 0.0
    flags: list[str] = field(default_factory=list)
    lower: Optional[float] = None
    upper: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "selectivity": self.selectivity,
            "cardinality": self.cardinality,
            "lower": self.lower,
            "upper": self.upper,
            "flags": self.flags,
            "wall_time": self.wall_time,
            "estimates": [
                {
                    "constraints": sorted(repr(c) for c in pe.constraints),
                    "selectivity": pe.selectivity,
                    "technique": pe.provenance,
                }
                for pe in self.estimates
            ],
            "factors": [_trace_entry(step) for step in self.combiner_trace],
        }


def _trace_entry(step) -> dict:
    """One combiner trace step: a condIndep or bounds factor, a maxEnt
    partition's mass, or a disjunction's per-expansion cardinalities."""
    if isinstance(step, CombineStep):
        return {
            "technique": step.provenance,
            "selectivity": step.selectivity,
            "factor": step.factor,
            "reason": step.reason,
        }
    head, value = step
    if head == "union-cardinalities":
        return {"union_cardinalities": value}
    return {"partition": str(head), "mass": value}


def run_techniques(
    q: QueryPattern,
    g: Optional[PropertyGraph],
    catalog: StatisticsCatalog,
    config: EstimatorConfig,
) -> list[PartialEstimate]:
    """Phase 1: singleton estimates plus every configured technique whose
    statistics are available, deduplicated."""
    pes: list[PartialEstimate] = estimators.individual_estimates(q, catalog)
    synopsis_classes: dict[str, int] = {}
    wanted_samples: list[tuple[str, float]] = []
    for tag in config.pets:
        m = _PET_RE.match(tag)
        if tag == "EP":
            synopsis_classes["edge"] = 1
        elif m.lastgroup in ("chain", "source_star", "target_star"):
            synopsis_classes[m.lastgroup] = int(m[m.lastgroup])
        elif tag == "SysR":
            pes.extend(estimators.system_r_estimates(q, catalog))
        elif tag == "CS":
            pes.extend(estimators.char_set_estimates(q, catalog))
        elif tag == "BS":
            pes.extend(estimators.bound_sketch_estimates(q, catalog))
        elif tag == "MDH":
            pes.extend(estimators.md_histogram_estimates(q, catalog))
        elif m["sample"]:
            pt = m["sample"]
            wanted_samples.append((stats.SAMPLE_TYPE_ALIASES.get(pt, pt), float(m["pr"])))
        elif m["walks"] and g is not None:
            pe = estimators.wander_join_estimate(q, g, int(m["walks"]), config.seed)
            if pe is not None:
                pes.append(pe)
        # 'defaults' adds nothing: the individual fallback chain covers it
    if wanted_samples:
        pes.extend(estimators.sample_estimates(q, catalog, wanted_samples))
    if synopsis_classes:
        pes.extend(estimators.synopsis_estimates(q, catalog, synopsis_classes))
    return dedup_estimates(pes, q)


def extend_estimates(
    pes: list[PartialEstimate], q: QueryPattern, config: EstimatorConfig
) -> list[PartialEstimate]:
    """Phase 2: implied closures and implication-assumption unions."""
    out = list(pes)
    for tag in config.epests:
        if tag == "implied":
            out.extend(add_implied_closures(out, q))
            continue
        m = _IP_RE.match(tag)
        out.extend(add_implication_unions(out, q, m["pattern_class"], m["constraint_class"]))
    return dedup_estimates(out, q)


def _check_fingerprint(
    g: Optional[PropertyGraph], catalog: StatisticsCatalog, flags: list[str]
) -> None:
    if g is not None and catalog.fingerprint and catalog.fingerprint != g.fingerprint():
        warnings.warn(
            "catalog was built from a different graph", StaleCatalogWarning, stacklevel=3
        )
        flags.append("stale-catalog")


def estimate(
    q: QueryPattern,
    g: Optional[PropertyGraph],
    catalog: StatisticsCatalog,
    config: EstimatorConfig,
) -> EstimateReport:
    """Run the full pipeline on one query."""
    start = time.perf_counter()
    flags: list[str] = []
    _check_fingerprint(g, catalog, flags)
    if catalog.basic is None:
        raise ValueError("catalog has no basic statistics")

    if not q.ids:
        return EstimateReport(1.0, 1.0, wall_time=time.perf_counter() - start)

    pes = run_techniques(q, g, catalog, config)
    cpes = extend_estimates(pes, q, config)

    trace: list = []
    lower = upper = None
    m = _CT_RE.match(config.ct)
    if m["strategy"]:
        sel = combine_cond_indep(cpes, q, m["strategy"], catalog, trace)
    elif config.ct == "bounds":  # report the upper bound as the point estimate
        bounds = combine_bounds(cpes, q, trace)
        sel = bounds.upper
        lower, upper = bounds.lower, bounds.upper
        if not bounds.exact_upper:
            flags.append("bounds-greedy")
    else:
        mps = int(m["mps"]) if m["mps"] else combine.DEFAULT_MPS
        dropped: list[PartialEstimate] = []
        try:
            # positional: perfbench/spans.py reads mps and trace by position
            sel = combine_max_ent(cpes, q, mps, combine.IPF_TOL, combine.IPF_MAX_ITER, trace, dropped)
        except MaxEntError as exc:
            flags.append(f"maxent-failed(residual={exc.residual:.3g})")
            trace = []
            sel = combine_cond_indep(cpes, q, "MoDi", catalog, trace)
        else:
            if dropped:
                flags.append(f"maxent-dropped({len(dropped)})")

    card = selectivity_to_cardinality(sel, q, catalog)
    return EstimateReport(
        selectivity=sel,
        cardinality=card,
        estimates=cpes,
        combiner_trace=trace,
        wall_time=time.perf_counter() - start,
        flags=flags,
        lower=lower,
        upper=upper,
    )


# ---------------------------------------------------------------------------
# Disjunctions


def expand_disjunctions(doc: Union[str, dict], cap: int = 64) -> list[dict]:
    """Cartesian expansion of a query document's anyOf groups.

    Each group lists alternatives; an alternative is an object with an
    "id" plus "labels" and/or "props" to merge into that element.
    Raises QueryFormatError for a document whose part outside the
    groups `parse_query` rejects, for an alternative whose id is not a
    string and for labels or props that are not lists, and
    ExpansionLimitError for a malformed group.
    """
    doc = load_document(doc)
    groups = doc.get("anyOf") or []
    base = {k: v for k, v in doc.items() if k != "anyOf"}
    if not groups:
        return [base]
    parse_query(base)  # every element must be an object with an id before it is indexed
    total = 1
    for group in groups:
        if not isinstance(group, list) or not group or not all(isinstance(a, dict) for a in group):
            raise ExpansionLimitError("anyOf groups must be non-empty lists of objects")
        total *= len(group)
        if total > cap:
            raise ExpansionLimitError(
                f"disjunction expansion needs {total} queries, cap is {cap}"
            )
    docs = []
    import itertools as _it

    for combo in _it.product(*groups):
        expanded = json.loads(json.dumps(base))
        index: dict[str, dict] = {}
        for item in expanded.get("vertices", []) + expanded.get("edges", []):
            index[item["id"]] = item
        for alt in combo:
            if not isinstance(alt.get("id"), str):
                raise QueryFormatError(f"anyOf alternative id must be a string: {alt.get('id')!r}")
            target = index.get(alt["id"])
            if target is None:
                raise ExpansionLimitError(f"anyOf refers to unknown id {alt.get('id')!r}")
            if "labels" in alt:
                merged = set(label_list(target.get("labels", ()), target["id"]))
                target["labels"] = sorted(merged | set(label_list(alt["labels"], alt["id"])))
            if "props" in alt:
                props = target.get("props", [])
                if not isinstance(props, list) or not isinstance(alt["props"], (list, tuple)):
                    raise QueryFormatError(f"props of {alt['id']!r} must be a list")
                target["props"] = props + list(alt["props"])
        docs.append(expanded)
    return docs


def estimate_with_disjunctions(
    doc: Union[str, dict],
    g: Optional[PropertyGraph],
    catalog: StatisticsCatalog,
    config: EstimatorConfig,
) -> EstimateReport:
    """Estimate a document that may contain anyOf groups: estimate each
    expansion and sum the cardinalities, assuming disjoint result sets."""
    start = time.perf_counter()
    queries = [parse_query(d) for d in expand_disjunctions(doc)]
    reports = [estimate(q, g, catalog, config) for q in queries]
    if len(reports) == 1:
        return reports[0]
    card = sum(r.cardinality for r in reports)
    # the expansions differ only in labels and predicates, so share one id count
    denom = selectivity_to_cardinality(1.0, queries[0], catalog)
    sel = card / denom if denom else 0.0
    flags = sorted({f for r in reports for f in r.flags})
    if sel > 1.0:
        sel = 1.0
        card = denom
        flags.append("disjunction-clamped")
    return EstimateReport(
        selectivity=sel,
        cardinality=card,
        estimates=[pe for r in reports for pe in r.estimates],
        combiner_trace=[("union-cardinalities", [r.cardinality for r in reports])],
        wall_time=time.perf_counter() - start,
        flags=flags,
    )
