"""Spans around the calls into each cardest module, recorded from outside.

`Tracer.install()` replaces the public functions listed in `_TARGETS`, in
the module namespaces their callers look them up in, with wrappers that
record one span per call: (name, start, end, parent, request).  Nothing
under `src/` changes; `uninstall()` puts the originals back.  Spans stay
in memory until `write()`; `layer_metrics()` turns them into per-layer
self times and counts.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap.

Per-layer metrics are averages per request: per set-up for the spans of
the traced set-up, per operation of the timed loop otherwise (one base
query with its subqueries and configurations on grade, one estimate on
maxent, one offline pass with its checks on catalog).

Which end-to-end metric each layer's metrics should move, and where:

  layer         metrics                                 should move                        on
  combine       combine.cond_indep/bounds/make_complete, estimate_ms_p50/p90                grade
                combine.n_estimates
  combine (IPF) combine.max_ent.*                       estimate_ms_p50, qerror_p50/p90    maxent
  query         query.implied_closure.*, query.key.*,   estimate_ms_p50                    grade
                query.parse.self_ms
  estimators    estimators.<t>.self_ms/.n_out,          estimate_ms_p50; wj.zero_share     grade
                estimators.dedup.kept_ratio,            moves success_share, qerror_p90
                estimators.wj.zero_share
  implications  implications.*                          estimate_ms_p50                    grade
  engine        engine.estimate.self_ms,                estimate_ms_p50                    grade, maxent
                engine.run_techniques.self_ms,
                engine.extend_estimates.self_ms
  graph         graph.exact_matches.*, graph.load       oracle_ms_p50/p90, rows_per_s;     grade;
                                                        load_s                             catalog
  stats         stats.build.<s>.self_ms,                catalog_build_s, catalog_bytes,    catalog;
                stats.entries.<s>, stats.save/load      load_s, peak_rss_mb; setup_s       grade, maxent
  bench         bench.enumerate_subqueries.self_ms,     rows_per_s                         grade
                bench.subqueries.n

The cli module is a thin argparse front end; load_s covers its main cost.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time

ESTIMATOR_TAGS = ("individual", "synopsis", "sysr", "cs", "bs", "sample", "wj", "mdh")
STAT_NAMES = (
    "basic", "edge", "chain2", "sstar3", "tstar2", "sysr",
    "cs", "sketch", "sample_id", "sample_ep", "hist", "mdh",
)  # fmt: skip

_SYNOPSIS = {"chain": "chain", "source_star": "sstar", "target_star": "tstar"}
_SAMPLE = {"id": "sample_id", "vertex": "sample_vertex", "edge_pattern": "sample_ep"}


def _entries(stat) -> int:
    for attr in ("counts", "entries", "members", "buckets", "grid"):
        if hasattr(stat, attr):
            return len(getattr(stat, attr))
    return len(stat.label_sel) + len(stat.key_sel) + len(stat.prop_exact)


def _n_out(args, kwargs, result) -> dict:
    if result is None:
        return {"n_out": 0}
    return {"n_out": len(result) if isinstance(result, list) else 1}


def _wj(args, kwargs, result) -> dict:
    return {"n_out": int(result is not None), "zero": int(result is not None and result.selectivity == 0.0)}


def _dedup(args, kwargs, result) -> dict:
    return {} if result is None else {"in": len(args[0]), "kept": len(result)}


def _combine(args, kwargs, result) -> dict:
    return {"n_estimates": len(args[0])}


def _max_ent(args, kwargs, result) -> dict:
    cpes, mps, trace = args[0], args[2], args[5]
    counters = {"n_estimates": len(cpes), "oversize": sum(len(pe.constraints) > mps for pe in cpes)}
    if result is not None:
        counters["partitions"] = len(trace)
    return counters


def _stat(args, kwargs, result) -> dict:
    return {} if result is None else {"entries": _entries(result)}


def _synopsis_name(args, kwargs) -> str:
    klass = args[1] if len(args) > 1 else kwargs["klass"]
    size = args[2] if len(args) > 2 else kwargs.get("max_size", 1)
    return "stats.build." + ("edge" if klass == "edge" else f"{_SYNOPSIS[klass]}{size}")


def _sample_name(args, kwargs) -> str:
    return "stats.build." + _SAMPLE[args[1] if len(args) > 1 else kwargs["pattern_type"]]


# (module, attribute, span name or function of the call's arguments, counter function)
_TARGETS = [
    ("cardest.engine", "estimate", "engine.estimate", None),
    ("cardest.bench", "estimate", "engine.estimate", None),
    ("cardest.engine", "run_techniques", "engine.run_techniques", None),
    ("cardest.engine", "extend_estimates", "engine.extend_estimates", None),
    ("cardest.engine", "make_complete", "combine.make_complete", None),
    ("cardest.engine", "combine_cond_indep", "combine.cond_indep", _combine),
    ("cardest.engine", "combine_max_ent", "combine.max_ent", _max_ent),
    ("cardest.engine", "combine_bounds", "combine.bounds", _combine),
    ("cardest.engine", "dedup_estimates", "estimators.dedup", _dedup),
    ("cardest.engine", "add_implied_closures", "implications.closures", _n_out),
    ("cardest.engine", "add_implication_unions", "implications.unions", _n_out),
    ("cardest.estimators", "individual_estimates", "estimators.individual", _n_out),
    ("cardest.combine", "individual_estimate", "estimators.individual", None),
    ("cardest.estimators", "synopsis_estimates", "estimators.synopsis", _n_out),
    ("cardest.estimators", "system_r_estimates", "estimators.sysr", _n_out),
    ("cardest.estimators", "char_set_estimates", "estimators.cs", _n_out),
    ("cardest.estimators", "bound_sketch_estimates", "estimators.bs", _n_out),
    ("cardest.estimators", "sample_estimates", "estimators.sample", _n_out),
    ("cardest.estimators", "wander_join_estimate", "estimators.wj", _wj),
    ("cardest.estimators", "md_histogram_estimates", "estimators.mdh", _n_out),
    ("cardest.query", "PartialEstimate.key", "query.key", None),
    ("cardest.combine", "implied_closure", "query.implied_closure", None),
    ("cardest.implications", "implied_closure", "query.implied_closure", None),
    ("cardest.bench", "parse_query", "query.parse", None),
    ("cardest.bench", "exact_matches", "graph.exact_matches", None),
    ("cardest.graph", "exact_matches", "graph.exact_matches", None),
    ("cardest.bench", "enumerate_subqueries", "bench.enumerate_subqueries", _n_out),
    ("cardest.graph", "load_graph", "graph.load", None),
    ("cardest.stats", "build_basic", "stats.build.basic", _stat),
    ("cardest.stats", "build_labeled_synopsis", _synopsis_name, _stat),
    ("cardest.stats", "build_system_r", "stats.build.sysr", _stat),
    ("cardest.stats", "build_char_sets", "stats.build.cs", _stat),
    ("cardest.stats", "build_bound_sketch", "stats.build.sketch", _stat),
    ("cardest.stats", "build_sample", _sample_name, _stat),
    ("cardest.stats", "build_histogram", "stats.build.hist", _stat),
    ("cardest.stats", "build_md_histogram", "stats.build.mdh", _stat),
    ("cardest.stats", "save_catalog", "stats.save", None),
    ("cardest.stats", "load_catalog", "stats.load", None),
]


class Tracer:
    """Records spans for one benchmark run.

    `request` is (phase, number) for the benchmark operation in progress:
    phase "setup" for a set-up, "run" for one operation of the timed
    loop.  Per-layer metrics are averages per request of the phase the
    span ran in.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, request, counters)
        self.request = ("setup", 0)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            result, raised = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counters = counter(args, kwargs, result) if counter else {}
                if raised:
                    counters["raised"] = 1
                self.spans[index] = (span_name, start, end, parent, self.request, counters)

        return wrapper

    def install(self) -> None:
        for module_name, path, name, counter in _TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Gzipped JSON lines, one span each; times in seconds from the
        first span, parent as the parent's line number (0-based)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, request, counters in self.spans:
                rec = {"name": name, "start": start - t0, "end": end - t0, "parent": parent,
                       "request": f"{request[0]}/{request[1]}", **counters}  # fmt: skip
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time (ms) and counts, averaged per request of the
        phase they ran in (one set-up, or one operation of the timed loop)."""
        child_time = [0.0] * len(self.spans)
        requests: dict[str, set] = {}
        for name, start, end, parent, request, counters in self.spans:
            if parent is not None:
                child_time[parent] += end - start
            requests.setdefault(request[0], set()).add(request)
        totals: dict[str, float] = {}
        for k, (name, start, end, parent, request, counters) in enumerate(self.spans):
            share = 1.0 / len(requests[request[0]])
            for key, value in (("self_ms", (end - start - child_time[k]) * 1000.0), ("calls", 1), *counters.items()):
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0.0) + value * share
        return _named_metrics(totals)


def _named_metrics(totals: dict) -> dict[str, float]:
    get = lambda key: totals.get(key, 0.0)  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    combiners = ("combine.cond_indep", "combine.bounds")
    max_ent_ok = get("combine.max_ent.calls") - get("combine.max_ent.raised")
    out = {
        "combine.cond_indep.self_ms": get("combine.cond_indep.self_ms"),
        "combine.bounds.self_ms": get("combine.bounds.self_ms"),
        "combine.make_complete.self_ms": get("combine.make_complete.self_ms"),
        "combine.n_estimates": ratio(
            sum(get(c + ".n_estimates") for c in combiners), sum(get(c + ".calls") for c in combiners)
        ),
        "combine.max_ent.self_ms": get("combine.max_ent.self_ms"),
        "combine.max_ent.converged_ratio": ratio(max_ent_ok, get("combine.max_ent.calls")),
        "combine.max_ent.partitions": ratio(get("combine.max_ent.partitions"), max_ent_ok),
        "combine.max_ent.oversize_share": ratio(
            get("combine.max_ent.oversize"), get("combine.max_ent.n_estimates")
        ),
        "query.implied_closure.calls": get("query.implied_closure.calls"),
        "query.implied_closure.self_ms": get("query.implied_closure.self_ms"),
        "query.key.calls": get("query.key.calls"),
        "query.key.self_ms": get("query.key.self_ms"),
        "query.parse.self_ms": get("query.parse.self_ms"),
    }
    for tag in ESTIMATOR_TAGS:
        out[f"estimators.{tag}.self_ms"] = get(f"estimators.{tag}.self_ms")
        out[f"estimators.{tag}.n_out"] = get(f"estimators.{tag}.n_out")
    out["estimators.dedup.kept_ratio"] = ratio(get("estimators.dedup.kept"), get("estimators.dedup.in"))
    out["estimators.wj.zero_share"] = ratio(get("estimators.wj.zero"), get("estimators.wj.n_out"))
    out["implications.closures.self_ms"] = get("implications.closures.self_ms")
    out["implications.unions.self_ms"] = get("implications.unions.self_ms")
    out["implications.n_added"] = get("implications.closures.n_out") + get("implications.unions.n_out")
    out["engine.estimate.self_ms"] = get("engine.estimate.self_ms")
    out["engine.run_techniques.self_ms"] = get("engine.run_techniques.self_ms")
    out["engine.extend_estimates.self_ms"] = get("engine.extend_estimates.self_ms")
    out["graph.exact_matches.self_ms"] = get("graph.exact_matches.self_ms")
    out["graph.exact_matches.calls"] = get("graph.exact_matches.calls")
    out["graph.load.self_ms"] = get("graph.load.self_ms")
    for stat in STAT_NAMES:
        out[f"stats.build.{stat}.self_ms"] = get(f"stats.build.{stat}.self_ms")
        out[f"stats.entries.{stat}"] = get(f"stats.build.{stat}.entries")
    out["stats.save.self_ms"] = get("stats.save.self_ms")
    out["stats.load.self_ms"] = get("stats.load.self_ms")
    out["bench.enumerate_subqueries.self_ms"] = get("bench.enumerate_subqueries.self_ms")
    out["bench.subqueries.n"] = get("bench.enumerate_subqueries.n_out")
    return out
