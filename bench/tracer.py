"""Spans around calls into carmen's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every carmen module
namespace that holds it, so calls between modules go through the
wrapper; ``uninstall`` puts the originals back.  Nothing in the package
is edited.  Each span records its name, start, end and parent span, and
spans are kept in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("cli", "truths", "conjugate", "tempering", "ratio", "discriminator", "testing", "numerics")

# (module that defines it, public name)
TRACED_FUNCTIONS = (
    ("cli", "run_scenario"),
    ("cli", "emit_outputs"),
    ("truths", "true_log_ratio"),
    ("conjugate", "temper_update"),
    ("conjugate", "predictive_logpdf"),
    ("conjugate", "predictive_sample"),
    ("tempering", "optimize_t"),
    ("tempering", "curve"),
    ("ratio", "estimate_log_ratio"),
    ("ratio", "estimate_reverse_log_ratio"),
    ("discriminator", "cv_log_odds"),
    ("discriminator", "fit_logistic"),
    ("testing", "t_test_logz"),
    ("numerics", "student_t_cdf"),
)
# Truth sampling is a method on each truth class; all share one span name.
TRUTH_SAMPLE = "truths.sample"


class Tracer:
    """Span recorder for one process; install it, run, then uninstall it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.fits: list[tuple[int, int, int, bool, bool]] = []  # n, d, iterations, converged, ridge bumped
        self.bytes_written = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def take(self) -> tuple[list[list], list[tuple[int, int, int, bool, bool]], int]:
        """Spans, fit records and bytes written since the last call; starts afresh."""
        out = (self.spans, self.fits, self.bytes_written)
        self.spans, self.fits, self.bytes_written = [], [], 0
        return out

    def _wrap(self, name: str, fn, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_fit(self, signature):
        default_ridge = signature.parameters["ridge"].default

        def after(args, kwargs, fit):
            design = args[0] if args else kwargs["design"]
            ridge = kwargs["ridge"] if "ridge" in kwargs else args[1] if len(args) > 1 else default_ridge
            n, d = design.features.shape
            self.fits.append((n, d, fit.iterations, bool(fit.converged), fit.ridge > ridge))

        return after

    def _after_emit(self, args, kwargs, paths):
        self.bytes_written += sum(p.stat().st_size for p in paths)

    def install(self) -> None:
        self.missing = []
        mods = {m: importlib.import_module(f"carmen.{m}") for m in MODULES}
        namespaces = [mod for name, mod in sys.modules.items() if name == "carmen" or name.startswith("carmen.")]
        for module, public in TRACED_FUNCTIONS:
            original = getattr(mods[module], public, None)
            if original is None:
                self.missing.append(f"{module}.{public}")
                continue
            after = None
            if public == "fit_logistic":
                after = self._after_fit(inspect.signature(original))
            elif public == "emit_outputs":
                after = self._after_emit
            wrapper = self._wrap(f"{module}.{public}", original, after)
            for ns in namespaces:
                if vars(ns).get(public) is original:
                    self._undo.append((ns, public, original))
                    setattr(ns, public, wrapper)
        for cls in vars(mods["truths"]).values():
            if isinstance(cls, type) and cls.__module__ == "carmen.truths" and "sample" in vars(cls):
                original = vars(cls)["sample"]
                self._undo.append((cls, "sample", original))
                cls.sample = self._wrap(TRUTH_SAMPLE, original)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def summarize(spans: list[list], wall: float) -> dict:
    """Calls, inclusive seconds and self seconds per span name, plus coverage.

    Self time is a span's duration minus the durations of its children;
    calls are nested, never overlapping, in this single-threaded client.
    ``uncovered_s`` is wall time that no top-level span covers, so the
    self times and ``uncovered_s`` add up to ``wall``.
    """
    child = [0.0] * len(spans)
    covered = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            covered += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
    return {
        "calls": dict(calls),
        "s": dict(total),
        "self_s": dict(self_s),
        "uncovered_s": wall - covered,
        "wall": wall,
    }


def children_of(spans: list[list], parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans directly under a ``parent_name`` span."""
    return sum(1 for name, _, _, p in spans if name == child_name and p >= 0 and spans[p][0] == parent_name)


def fit_counters(fits: list[tuple[int, int, int, bool, bool]]) -> dict:
    iters = [f[2] for f in fits]
    return {
        "iters_total": sum(iters),
        "iters_p50": statistics.median(iters) if iters else 0,
        "iters_max": max(iters, default=0),
        "nonconverged": sum(1 for f in fits if not f[3]),
        "ridge_bumps": sum(1 for f in fits if f[4]),
        "gram_flops": sum(2 * n * (d + 1) ** 2 * it for n, d, it, _, _ in fits),
    }
