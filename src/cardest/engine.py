"""End-to-end estimation: run the configured techniques, extend and
complete the estimate set, combine, and report.

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

from . import combine, estimators
from .combine import (
    CombineStep,
    MaxEntError,
    combine_bounds,
    combine_cond_indep,
    combine_max_ent,
    make_complete,
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


_PET_RE = re.compile(
    r"^(EP|c(\d+)|s(\d+)|t(\d+)|SysR|CS|BS|MDH|defaults"
    r"|S\((id|vertex|ep|edge_pattern),((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\)"
    r"|WJ\((\d+)\))$"
)
_IP_RE = re.compile(r"^IP\((id|ep),(pv|p|a)\)$")
_CT_RE = re.compile(
    rf"^(condIndep\(({'|'.join(combine.SORT_STRATEGIES)})\)"
    r"|maxEnt\((?:mps=)?(0*[1-9]\d*)\)|maxEnt|bounds)$"
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
            if m.group(6) is not None and not 0.0 < float(m.group(6)) <= 1.0:
                raise ConfigError(f"sample probability in {tag!r} must be in (0, 1]")
        for tag in self.epests:
            if tag != "implied" and not _IP_RE.match(tag):
                raise ConfigError(f"unknown extension tag: {tag!r}")
        if not _CT_RE.match(self.ct):
            raise ConfigError(f"unknown combination tag: {self.ct!r}")

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
            "factors": [
                {
                    "technique": step.provenance,
                    "selectivity": step.selectivity,
                    "factor": step.factor,
                    "reason": step.reason,
                }
                if isinstance(step, CombineStep)
                else {"partition": str(step[0]), "mass": step[1]}
                for step in self.combiner_trace
            ],
        }


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
        if tag == "EP":
            synopsis_classes["edge"] = 1
        elif tag.startswith("c") and tag[1:].isdigit():
            synopsis_classes["chain"] = int(tag[1:])
        elif tag.startswith("s") and tag[1:].isdigit():
            synopsis_classes["source_star"] = int(tag[1:])
        elif tag.startswith("t") and tag[1:].isdigit():
            synopsis_classes["target_star"] = int(tag[1:])
        elif tag == "SysR":
            pes.extend(estimators.system_r_estimates(q, catalog))
        elif tag == "CS":
            pes.extend(estimators.char_set_estimates(q, catalog))
        elif tag == "BS":
            pes.extend(estimators.bound_sketch_estimates(q, catalog))
        elif tag == "MDH":
            pes.extend(estimators.md_histogram_estimates(q, catalog))
        elif tag.startswith("S("):
            pt, pr = tag[2:-1].split(",")
            pt = {"ep": "edge_pattern"}.get(pt, pt)
            wanted_samples.append((pt, float(pr)))
        elif tag.startswith("WJ("):
            if g is not None:
                walks = int(tag[3:-1])
                pe = estimators.wander_join_estimate(q, g, walks, config.seed)
                if pe is not None:
                    pes.append(pe)
        # 'defaults' adds nothing: the individual fallback chain covers it
    if wanted_samples:
        pes.extend(estimators.sample_estimates(q, catalog, wanted_samples))
    if synopsis_classes:
        pes.extend(estimators.synopsis_estimates(q, catalog, synopsis_classes))
    return dedup_estimates(pes)


def extend_estimates(
    pes: list[PartialEstimate], q: QueryPattern, config: EstimatorConfig
) -> list[PartialEstimate]:
    """Phase 2: implied closures and implication-assumption unions."""
    out = list(pes)
    for tag in config.epests:
        if tag == "implied":
            out.extend(add_implied_closures(out))
            continue
        m = _IP_RE.match(tag)
        out.extend(add_implication_unions(out, q, m.group(1), m.group(2)))
    return dedup_estimates(out)


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
    pes = extend_estimates(pes, q, config)
    cpes = make_complete(pes, q, catalog)

    trace: list = []
    lower = upper = None
    m = _CT_RE.match(config.ct)
    if m.group(1).startswith("condIndep"):
        sel = combine_cond_indep(cpes, q, m.group(2), catalog, trace)
    elif m.group(1).startswith("maxEnt"):
        mps = int(m.group(3)) if m.group(3) else 8
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
    else:  # bounds: report the upper bound as the point estimate
        bounds = combine_bounds(cpes, q)
        sel = bounds.upper
        lower, upper = bounds.lower, bounds.upper
        if not bounds.exact_upper:
            flags.append("bounds-greedy")
        chosen_keys = set(bounds.chosen)
        trace = [
            CombineStep(pe.key(), pe.provenance, pe.selectivity, pe.selectivity, "upper-factor")
            for pe in cpes
            if pe.key() in chosen_keys
        ]

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
    groups `parse_query` rejects and for labels or props that are not
    lists, and ExpansionLimitError for a malformed group.
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
            target = index.get(alt.get("id"))
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
    docs = expand_disjunctions(doc)
    reports = [estimate(parse_query(d), g, catalog, config) for d in docs]
    if len(reports) == 1:
        return reports[0]
    q = parse_query(docs[0])
    card = sum(r.cardinality for r in reports)
    denom = float(catalog.basic.n_ids) ** len(q.ids) if q.ids else 1.0
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
