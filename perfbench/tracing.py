"""Spans around the public functions the harness and regression modules call.

Only the traced child process installs these wrappers; the timed process
never does.  A span records its name, start, end, parent span, experiment
id and a few counts read from the call's arguments and result.  Spans stay
in memory until the pass ends and are then written as JSON lines.

Self time is a span's duration minus the part of it its child spans cover,
so the self times of one experiment add up to its root span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import sdtlearn.harness as harness
import sdtlearn.regression as regression
from sdtlearn.polynomials import MultilinearPolynomial

ROOT_SPAN = "harness.run_experiment"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    exp: int
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.exp = -1
        #: experiment id -> (target tree, hypothesis) as handed to evaluation
        self.captured: dict[int, tuple] = {}
        #: (span index, dataset) for every find call; distinct inputs are
        #: counted after the pass, outside every span
        self.find_inputs: list[tuple[int, object]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.exp)
            self.spans.append(span)
            self._stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, index, args, kwargs, result)
            return result

        return traced

    def count_distinct_inputs(self) -> None:
        for index, dataset in self.find_inputs:
            self.spans[index].counts["distinct_inputs"] = int(np.unique(dataset.packed()).size)
        self.find_inputs.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _rows(tracer, index, args, kwargs, result):
    tracer.spans[index].counts["rows"] = result.m


def _rows_rewritten(tracer, index, args, kwargs, result):
    tracer.spans[index].counts["rows"] = result.corrupted_count


def _find(tracer, index, args, kwargs, result):
    stats = getattr(result, "stats", None)
    tracer.spans[index].counts.update(
        nodes_expanded=getattr(stats, "nodes_expanded", 0),
        cache_hits=getattr(stats, "cache_hits", 0),
    )
    tracer.find_inputs.append((index, args[0] if args else kwargs["dataset"]))


def _linprog(tracer, index, args, kwargs, result):
    # Rows of every constraint block, so a reformulated LP still counts.
    c = args[0] if args else kwargs["c"]
    rows = sum(kwargs[k].shape[0] for k in ("A_ub", "A_eq") if kwargs.get(k) is not None)
    tracer.spans[index].counts.update(
        nit=int(result.nit), failed=int(result.status != 0), lp_rows=rows, lp_cols=len(c)
    )


def _lstsq(tracer, index, args, kwargs, result):
    groups, features = args[0].shape
    tracer.spans[index].counts.update(rank=int(result[2]), design_bytes=groups * features * 8)


def _capture(tracer, index, args, kwargs, result):
    tracer.captured[tracer.exp] = (args[0], args[1])


def _capture_mc(tracer, index, args, kwargs, result):
    _capture(tracer, index, args, kwargs, result)
    tracer.spans[index].counts["trials"] = args[2] if len(args) > 2 else kwargs["trials"]


#: (owner, attribute, span name, hook run after the call returns)
PATCHES = (
    (harness, "run_experiment", ROOT_SPAN, None),
    (harness, "draw_clean", "data.draw_clean", _rows),
    (harness, "corrupt", "data.corrupt", _rows_rewritten),
    (harness, "find", "find.find", _find),
    (regression, "l1_regress", "regression.l1_regress", None),
    (regression, "l2_regress", "regression.l2_regress", None),
    (regression, "linprog", "regression.linprog", _linprog),
    (np.linalg, "lstsq", "regression.lstsq", _lstsq),
    (MultilinearPolynomial, "evaluate_packed", "polynomials.evaluate_packed", None),
    (harness, "exact_opt", "evaluation.exact_opt", None),
    (harness, "exact_error", "evaluation.exact_error", _capture),
    (harness, "mc_error", "evaluation.mc_error", _capture_mc),
)
SPAN_NAMES = tuple(name for _, _, name, _ in PATCHES)


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
    try:
        for owner, attr, name, hook in PATCHES:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def self_times(spans: list[dict]) -> list[float]:
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(i, ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def self_sum_errors(spans: list[dict], walls: list[float]) -> list[float]:
    """|sum of an experiment's self times - its wall time| / wall time."""
    sums = [0.0] * len(walls)
    for span, t in zip(spans, self_times(spans)):
        sums[span["exp"]] += t
    return [abs(total - wall) / wall for total, wall in zip(sums, walls)]


def inclusive_shares(spans: list[dict]) -> dict[str, float]:
    """Share of root time spent in each span that the root calls directly."""
    total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    out: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None and spans[s["parent"]]["parent"] is None:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) / total
    return out


def _self_metric(span: str) -> str:
    return f"{span}.self_s" if span == ROOT_SPAN else f"{span}.s"


#: Count metrics: (name, unit, span, count key, divisor).  A divisor of
#: "exp" gives work per experiment; "call" gives a property of one call.
COUNTS = (
    ("data.draw_clean.rows", "count", "data.draw_clean", "rows", "exp"),
    ("data.corrupt.rows", "count", "data.corrupt", "rows", "exp"),
    ("find.nodes_expanded", "count", "find.find", "nodes_expanded", "exp"),
    ("find.cache_hits", "count", "find.find", "cache_hits", "exp"),
    ("find.distinct_inputs", "count", "find.find", "distinct_inputs", "call"),
    ("regression.linprog.nit", "count", "regression.linprog", "nit", "call"),
    ("regression.linprog.failed", "count", "regression.linprog", "failed", "exp"),
    ("regression.lp_rows", "count", "regression.linprog", "lp_rows", "call"),
    ("regression.lp_cols", "count", "regression.linprog", "lp_cols", "call"),
    ("regression.l2_regress.calls", "count", "regression.l2_regress", None, "exp"),
    ("regression.lstsq.rank", "count", "regression.lstsq", "rank", "call"),
    ("regression.design_bytes", "B_computed", "regression.lstsq", "design_bytes", "call"),
    ("polynomials.evaluate_packed.calls", "count", "polynomials.evaluate_packed", None, "exp"),
    ("evaluation.mc_trials", "count", "evaluation.mc_error", "trials", "exp"),
)


def layer_metrics(spans: list[dict], experiments: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    Self times are seconds per experiment and shares of the summed root
    span time; counts follow the divisor in ``COUNTS``.
    """
    selfs = self_times(spans)
    total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    per_span = dict.fromkeys(SPAN_NAMES, 0.0)
    for span, t in zip(spans, selfs):
        per_span[span["name"]] += t
    out: dict[str, tuple[float, str]] = {}
    for name, t in per_span.items():
        out[_self_metric(name)] = (t / experiments, "s")
        out[f"{name}.share"] = (t / total if total else 0.0, "fraction")
    for metric, unit, span_name, key, divisor in COUNTS:
        calls = [s for s in spans if s["name"] == span_name]
        value = len(calls) if key is None else sum(s["counts"].get(key, 0) for s in calls)
        base = experiments if divisor == "exp" else len(calls)
        out[metric] = (value / base if base else 0.0, unit)
    finds = [s["counts"] for s in spans if s["name"] == "find.find"]
    hits = sum(c["cache_hits"] for c in finds)
    attempts = hits + sum(c["nodes_expanded"] for c in finds)
    out["find.cache_hit_ratio"] = (hits / attempts if attempts else 0.0, "fraction")
    return out
