"""Outside-in tracing of meanstab's layers.

The program is not changed: ``Tracer.install`` rebinds every module
attribute that holds a public function of the traced modules to a wrapper,
so a function imported into several modules (``series_mul`` is bound in
``series`` and ``resultant``) is traced at every call site.  It also wraps
the ``Fraction`` arithmetic dunders to count ``+ - * /``.  ``uninstall``
restores everything.

Each wrapper records a span (name, job, start, end, parent) in memory.  A
function's self time is its span's duration minus the durations of its child
spans; its total time counts only outermost calls, so recursion is not
counted twice.  A few wrappers also record counts from their arguments and
results (``HOOKS``); those counts are exact and repeat run to run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

TRACED_MODULES = ("cli", "solver", "resultant", "catalog", "series",
                  "polynomials", "numeric", "rationals")

FRACTION_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div", "__rtruediv__": "div",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []  # (name index, job, start, end, parent span)
        self.stack: list[list] = []  # [span id, child time]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.active: list[int] = []  # open spans per name, for outermost totals
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct_powers: set = set()
        self.job = -1
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- spans ------------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        for column in (self.calls, self.active):
            column.append(0)
        for column in (self.self_s, self.total_s):
            column.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, hook=None):
        idx = self._index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls, self_s, total_s, active = self.calls, self.self_s, self.total_s, self.active

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            active[idx] += 1
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                active[idx] -= 1
                duration = end - start
                spans[span_id] = (idx, self.job, start, end, parent)
                if stack:
                    stack[-1][1] += duration
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                if not active[idx]:
                    total_s[idx] += duration
                if hook is not None:
                    hook(self, args, kwargs, result, exc)
                    if stack:  # keep the hook out of the caller's self time
                        stack[-1][1] += clock() - end

        return traced

    def run_job(self, job: int, fn, *args):
        """Run one job under a root span named ``job``."""
        self.job = job
        return self._job_span(fn, *args)

    # -- installation -----------------------------------------------------

    def prepare(self) -> None:
        """Build the wrappers for the currently imported meanstab modules."""
        self._job_span = self.wrap("job", lambda fn, *args: fn(*args))
        targets = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"meanstab.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    targets[obj] = self.wrap(name, obj, HOOKS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "meanstab" and not mod_name.startswith("meanstab."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._bindings.append((module, attr, obj, targets[obj]))
        counts = self.counts
        for dunder, op in FRACTION_OPS.items():
            original = getattr(Fraction, dunder)
            self._bindings.append((Fraction, dunder, original, _counting(original, counts, op)))

    def install(self) -> None:
        for owner, attr, _, replacement in self._bindings:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def table(self) -> dict[str, dict]:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "total_s": self.total_s[i]}
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "job", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _counting(original, counts: dict, op: str):
    def counted(a, b):
        result = original(a, b)
        if result is not NotImplemented:
            counts[op] += 1
        return result
    return counted


# ---------------------------------------------------------------------------
# Counts taken from arguments and results.  They use int arithmetic only, so
# the Fraction counters see nothing of the tracer's own work.


def _series_mul(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    a, b, order = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b"), _arg(args, kwargs, 2, "order")
    nonzero_b = []  # nonzero_b[k] = number of nonzero b_j with j <= k
    seen = 0
    for j in range(order + 1):
        if j < len(b) and b[j] != 0:
            seen += 1
        nonzero_b.append(seen)
    c = tracer.counts
    c["series_mul.products"] += sum(
        nonzero_b[order - i] for i in range(min(len(a), order + 1)) if a[i] != 0)
    c["series_mul.order_sum"] += order
    c["series_mul.coeffs"] += len(result)
    c["series_mul.coeff_bits"] += sum(
        x.numerator.bit_length() + x.denominator.bit_length() for x in result)


def _series_power(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    a, order = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 2, "order")
    tracer.counts["series_power.products"] += sum(
        order - k + 1 for k in range(1, min(len(a), order + 1)) if a[k] != 0)


def _resultant_coeffs(tracer, args, kwargs, result, exc):
    inner, order = _arg(args, kwargs, 2, "inner"), _arg(args, kwargs, 3, "order")
    c = tracer.counts
    c["resultant_coeffs.order_sum"] += order
    n1 = inner[1] if order >= 1 else 0
    c["resultant.case2" if n1 == -1 else "resultant.case3" if n1 == 1 else "resultant.case1"] += 1


def _difference_expansion(tracer, args, kwargs, result, exc):
    tracer.counts["difference_expansion.computed"] += _arg(args, kwargs, 3, "order") + 1


def _expand_power_mean(tracer, args, kwargs, result, exc):
    p, order = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "order")
    tracer.distinct_powers.add((getattr(p, "numerator", p), getattr(p, "denominator", 1), order))


def _isolate_real_roots(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    for root in result:
        tracer.counts[f"roots.{type(root).__name__}"] += 1


def _boundary_limit(tracer, args, kwargs, result, exc):
    if isinstance(exc, ValueError):
        tracer.counts["boundary_limit.failed"] += 1
    elif exc is None and result.is_exact:
        tracer.counts["boundary_limit.closed_form"] += 1


HOOKS = {
    "series.series_mul": _series_mul,
    "series.series_power": _series_power,
    "resultant.resultant_coeffs": _resultant_coeffs,
    "solver.difference_expansion": _difference_expansion,
    "catalog.expand_power_mean": _expand_power_mean,
    "polynomials.isolate_real_roots": _isolate_real_roots,
    "numeric.boundary_limit": _boundary_limit,
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as (value, unit)."""
    table = tracer.table()
    c = tracer.counts

    def stat(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    mul_calls = stat("series.series_mul", "calls")
    out: dict[str, tuple[float, str]] = {
        "series.series_mul.calls": (mul_calls, "count"),
        "series.series_mul.self_s": (stat("series.series_mul", "self_s"), "s"),
        "series.series_mul.products": (c["series_mul.products"], "count"),
        "series.series_mul.order_mean": (ratio(c["series_mul.order_sum"], mul_calls), "order"),
        "series.series_power.calls": (stat("series.series_power", "calls"), "count"),
        "series.series_power.self_s": (stat("series.series_power", "self_s"), "s"),
        "series.series_power.products": (c["series_power.products"], "count"),
        "series.series_compose.calls": (stat("series.series_compose", "calls"), "count"),
        "series.series_compose.total_s": (stat("series.series_compose", "total_s"), "s"),
        "series.coeff_bits_mean": (ratio(c["series_mul.coeff_bits"], c["series_mul.coeffs"]), "bits"),
    }
    for op in ("add", "sub", "mul", "div"):
        out[f"rationals.fraction_ops.{op}"] = (c[op], "count")
    diff_calls = stat("solver.difference_expansion", "calls")
    out.update({
        "solver.coefficient_polynomial.calls": (stat("solver.coefficient_polynomial", "calls"), "count"),
        "solver.coefficient_polynomial.self_s": (stat("solver.coefficient_polynomial", "self_s"), "s"),
        "solver.coefficient_polynomial.total_s": (stat("solver.coefficient_polynomial", "total_s"), "s"),
        "solver.difference_expansion.calls": (diff_calls, "count"),
        "solver.difference_expansion.total_s": (stat("solver.difference_expansion", "total_s"), "s"),
        "solver.diff_coeff_use_ratio": (ratio(diff_calls, c["difference_expansion.computed"]), "ratio"),
    })
    for fn in ("optimal_parameters", "is_stable", "stability_parameter_scan"):
        out[f"solver.{fn}.total_s"] = (stat(f"solver.{fn}", "total_s"), "s")
    res_calls = stat("resultant.resultant_coeffs", "calls")
    out.update({
        "resultant.resultant_coeffs.calls": (res_calls, "count"),
        "resultant.resultant_coeffs.self_s": (stat("resultant.resultant_coeffs", "self_s"), "s"),
        "resultant.resultant_coeffs.total_s": (stat("resultant.resultant_coeffs", "total_s"), "s"),
        "resultant.resultant_coeffs.order_mean": (ratio(c["resultant_coeffs.order_sum"], res_calls), "order"),
    })
    for case in (1, 2, 3):
        out[f"resultant.case{case}.calls"] = (c[f"resultant.case{case}"], "count")
    power_calls = stat("catalog.expand_power_mean", "calls")
    out.update({
        "catalog.expand_power_mean.calls": (power_calls, "count"),
        "catalog.expand_power_mean.total_s": (stat("catalog.expand_power_mean", "total_s"), "s"),
        "catalog.expand_power_mean.distinct_ratio": (ratio(len(tracer.distinct_powers), power_calls), "ratio"),
    })
    for fn in ("expand_mean", "expand_quotient_mean", "expand_l_alpha", "expand_s_alpha", "expand_stable"):
        out[f"catalog.{fn}.total_s"] = (stat(f"catalog.{fn}", "total_s"), "s")
    for fn in ("lagrange_interpolate", "isolate_real_roots", "eval_at_root"):
        out[f"polynomials.{fn}.calls"] = (stat(f"polynomials.{fn}", "calls"), "count")
        out[f"polynomials.{fn}.self_s"] = (stat(f"polynomials.{fn}", "self_s"), "s")
    for kind, cls in (("rational", "RationalRoot"), ("surd", "QuadraticSurdRoot"),
                      ("interval", "IntervalRoot")):
        out[f"polynomials.roots.{kind}"] = (c[f"roots.{cls}"], "count")
    out.update({
        "numeric.boundary_limit.calls": (stat("numeric.boundary_limit", "calls"), "count"),
        "numeric.boundary_limit.self_s": (stat("numeric.boundary_limit", "self_s"), "s"),
        "numeric.boundary_limit.closed_form": (c["boundary_limit.closed_form"], "count"),
        "numeric.boundary_limit.failed": (c["boundary_limit.failed"], "count"),
        "cli.main.self_s": (stat("cli.main", "self_s"), "s"),
    })
    return out
