"""Spans around the calls into sgchrom's layers, recorded from outside the
package.

A traced run replaces module-level functions by reassigning the module
attribute that callers look up: every ``sgchrom`` module that bound the
function (``from .solver import find_sp_hom`` in ``lists``, say) gets the
wrapper, so calls between the package's own modules are seen as well as
the benchmark's.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import wraps
from typing import Any, Callable, Optional


class Tracer:
    """Records (name, start, end, parent) spans and per-span counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrapper(self, fn: Callable, name: Callable[..., str],
                 on_result: Optional[Callable[[Counter, str, Any], None]]) -> Callable:
        @wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args, **kwargs)
            idx = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if on_result is not None:
                on_result(self.counts, span, result)
            return result
        return traced

    def _generator_wrapper(self, fn: Callable, name: str) -> Callable:
        """Each resumption of the generator is one span; items are counted."""
        @wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.counts[name + ".items"] += 1
                yield item
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, module: str, attr: str, *, name: Optional[Callable[..., str]] = None,
              on_result=None, generator: bool = False) -> None:
        """Wrap ``module.attr`` everywhere an sgchrom module bound it."""
        orig = getattr(sys.modules[module], attr)
        label = f"{module.rsplit('.', 1)[-1].lstrip('_')}.{attr}"
        if generator:
            wrapped = self._generator_wrapper(orig, label)
        else:
            wrapped = self._wrapper(orig, name or (lambda *a, **k: label), on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "sgchrom" and getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, orig))

    def unpatch(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (summed duration), max and self time.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            dur = end - start
            agg = out.setdefault(name, {"calls": 0, "busy": 0.0, "max": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["busy"] += dur
            agg["max"] = max(agg["max"], dur)
            agg["self"] += dur - child_time[i]
        return out


# -- the layers sgchrom's benchmark times ------------------------------------


def _count_sat(counts: Counter, span: str, hom) -> None:
    counts[span + ".sat"] += hom is not None


def _count_probes(counts: Counter, span: str, res) -> None:
    counts[span + ".probes"] += len(res.rejected) + 1


def _count_cases(counts: Counter, span: str, rep) -> None:
    counts[span + ".cases"] += rep.cases_checked


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the per-layer metrics name."""
    tracer.patch("sgchrom.solver", "find_sp_hom", on_result=_count_sat)
    tracer.patch("sgchrom.solver", "chi_c", on_result=_count_probes)
    tracer.patch("sgchrom.solver", "verify_hom")
    tracer.patch("sgchrom._canon", "canonical_form")
    tracer.patch("sgchrom.campaigns", "enumerate_signed", generator=True)
    tracer.patch("sgchrom.campaigns", "run_campaign",
                 name=lambda cid, **_: f"campaigns.run_campaign.{cid}")
    tracer.patch("sgchrom.core", "canonical_signature")
    tracer.patch("sgchrom.core", "is_switching_isomorphic")
    tracer.patch("sgchrom.core", "contains_switching_subgraph")
    tracer.patch("sgchrom.criticality", "is_critical")
    tracer.patch("sgchrom.lists", "verify_list_lemma",
                 name=lambda lid: f"lists.verify_list_lemma.{lid}", on_result=_count_cases)
    tracer.patch("sgchrom.catalog", "build")
    tracer.patch("sgchrom.catalog", "apply_indicator")
    tracer.patch("sgchrom.cli", "main")


# Metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "solver.find_sp_hom.calls": "count",
    "solver.find_sp_hom.busy_s": "s",
    "solver.find_sp_hom.max_s": "s",
    "solver.find_sp_hom.sat_frac": "ratio",
    "solver.find_sp_hom.per_call_ms": "ms",
    "solver.chi_c.busy_s": "s",
    "solver.chi_c.probes": "count",
    "solver.verify_hom.busy_s": "s",
    "canon.canonical_form.calls": "count",
    "canon.canonical_form.busy_s": "s",
    "canon.calls_per_class": "ratio",
    "campaigns.enumerate_signed.classes": "count",
    "campaigns.enumerate_signed.self_s": "s",
    "campaigns.run_campaign.BROOKS.busy_s": "s",
    "campaigns.run_campaign.SMALL_CRITICAL.busy_s": "s",
    "campaigns.run_campaign.SMALL_3COLORABLE.busy_s": "s",
    "core.canonical_signature.calls": "count",
    "core.canonical_signature.busy_s": "s",
    "core.is_switching_isomorphic.busy_s": "s",
    "core.contains_switching_subgraph.busy_s": "s",
    "criticality.is_critical.calls": "count",
    "criticality.is_critical.busy_s": "s",
    "lists.verify_list_lemma.NEG_TRI_18.busy_s": "s",
    "lists.verify_list_lemma.K23_INTERVALS.busy_s": "s",
    "lists.NEG_TRI_18.cases_per_s": "1/s",
    "catalog.build.busy_s": "s",
    "catalog.apply_indicator.busy_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = (
    "solver.find_sp_hom.calls",
    "solver.chi_c.probes",
    "canon.canonical_form.calls",
    "campaigns.enumerate_signed.classes",
    "core.canonical_signature.calls",
    "criticality.is_critical.calls",
)

# Counts predicted to be 0 on workloads that bypass enumeration.
BYPASS_COUNTS = (
    "canon.canonical_form.calls",
    "campaigns.enumerate_signed.classes",
    "criticality.is_critical.calls",
)


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    tot = tracer.totals()
    cnt = tracer.counts

    def agg(span: str, key: str) -> float:
        return tot.get(span, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fsh_calls = agg("solver.find_sp_hom", "calls")
    canon_calls = agg("canon.canonical_form", "calls")
    classes = cnt["campaigns.enumerate_signed.items"]
    neg_tri = "lists.verify_list_lemma.NEG_TRI_18"
    out = {
        "solver.find_sp_hom.calls": fsh_calls,
        "solver.find_sp_hom.busy_s": agg("solver.find_sp_hom", "busy"),
        "solver.find_sp_hom.max_s": agg("solver.find_sp_hom", "max"),
        "solver.find_sp_hom.sat_frac": ratio(cnt["solver.find_sp_hom.sat"], fsh_calls),
        "solver.find_sp_hom.per_call_ms": 1000.0 * ratio(agg("solver.find_sp_hom", "busy"), fsh_calls),
        "solver.chi_c.busy_s": agg("solver.chi_c", "busy"),
        "solver.chi_c.probes": cnt["solver.chi_c.probes"],
        "solver.verify_hom.busy_s": agg("solver.verify_hom", "busy"),
        "canon.canonical_form.calls": canon_calls,
        "canon.canonical_form.busy_s": agg("canon.canonical_form", "busy"),
        "canon.calls_per_class": ratio(canon_calls, classes),
        "campaigns.enumerate_signed.classes": classes,
        "campaigns.enumerate_signed.self_s": agg("campaigns.enumerate_signed", "self"),
        "core.canonical_signature.calls": agg("core.canonical_signature", "calls"),
        "core.canonical_signature.busy_s": agg("core.canonical_signature", "busy"),
        "core.is_switching_isomorphic.busy_s": agg("core.is_switching_isomorphic", "busy"),
        "core.contains_switching_subgraph.busy_s": agg("core.contains_switching_subgraph", "busy"),
        "criticality.is_critical.calls": agg("criticality.is_critical", "calls"),
        "criticality.is_critical.busy_s": agg("criticality.is_critical", "busy"),
        "lists.NEG_TRI_18.cases_per_s": ratio(cnt[neg_tri + ".cases"], agg(neg_tri, "busy")),
        "catalog.build.busy_s": agg("catalog.build", "busy"),
        "catalog.apply_indicator.busy_s": agg("catalog.apply_indicator", "busy"),
        "cli.main.self_s": agg("cli.main", "self"),
        "trace.overhead_frac": ratio(traced_wall_s, untraced_wall_s) - 1.0,
    }
    for cid in ("BROOKS", "SMALL_CRITICAL", "SMALL_3COLORABLE"):
        out[f"campaigns.run_campaign.{cid}.busy_s"] = agg(f"campaigns.run_campaign.{cid}", "busy")
    for lid in ("NEG_TRI_18", "K23_INTERVALS"):
        out[f"lists.verify_list_lemma.{lid}.busy_s"] = agg(f"lists.verify_list_lemma.{lid}", "busy")
    return {name: out[name] for name in LAYER_UNITS}
