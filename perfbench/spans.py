"""Spans around calls into the package's layers, kept in memory, and the
arithmetic that turns them into per-layer self times and counts.

The tracer wraps public names where they are looked up (a module's global
namespace or a class), so a call made through a wrapped name opens a span
whose parent is the innermost open span. Nothing under ``src/`` changes:
``restore`` puts every original object back.

A span is a list ``[group, parent, start, end, counts]``; ``counts`` is a dict
of work counters computed from the call's arguments and result, or ``None``.
"""

from __future__ import annotations

import inspect
import os
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "mcmc_confidence"

# (defining module, function name) -> group; other functions group as "<module>.other"
_GROUPS = {
    ("mcse", "subsample_quantile_se"): "mcse.subsample_quantile_se",
    ("mcse", "mcse_obm"): "mcse.mcse_obm",
    ("mcse", "mcse_bm"): "mcse.mcse_bm",
    ("diagnostics", "running_quantile_se"): "diagnostics.running_quantile_se",
    ("diagnostics", "running_mcse"): "diagnostics.running_mcse",
    ("diagnostics", "running_quantiles"): "diagnostics.running_quantiles",
    ("diagnostics", "kde_1d"): "diagnostics.kde",
    ("diagnostics", "kde_2d"): "diagnostics.kde",
    ("diagnostics", "rb_marginal_mu"): "diagnostics.kde",
    ("distributions", "t_quantile"): "distributions.t_quantile",
    ("cli", "write_csv"): "cli.write_csv",
}

# modules that are one group as a whole, without a per-function split
_MODULE_GROUPS = {"samplers": "samplers", "rng": "samplers", "stopping": "stopping"}


def group_of(module: str, name: str) -> str:
    short = module.rsplit(".", 1)[-1]
    if short in _MODULE_GROUPS:
        return _MODULE_GROUPS[short]
    return _GROUPS.get((short, name), f"{short}.other")


# counters: computed after the span closes, from the bound arguments and result

def _subsample_counts(args, result):
    if result is None:
        return {"windows": 0, "window_elems": 0}
    return {"windows": result.a, "window_elems": result.a * result.b}


def _run_counts(args, result):
    return {"states": len(result), "bytes_copied": 0}


def _extend_counts(args, result):
    chain = args["chain"]
    return {"states": len(result) - len(chain), "bytes_copied": chain.values.nbytes}


def _stopping_counts(args, result):
    return {"checks": len(result.trace), "terminal_n": result.terminal_n}


def _kde_1d_counts(args, result):
    return {"kernel_evals": len(args["samples"]) * result.x.size}


def _kde_2d_counts(args, result):
    return {"kernel_evals": len(args["x_samples"]) * (result.x.size + result.y.size)}


def _rb_counts(args, result):
    mixture = args.get("variant", "plugin") == "mixture"
    return {"kernel_evals": result.x.size * (len(args["theta_values"]) if mixture else 1)}


def _write_csv_counts(args, result):
    return {"bytes": os.path.getsize(args["path"])}


_COUNTERS = {
    "subsample_quantile_se": (_subsample_counts, False),
    "ar1_run": (_run_counts, True),
    "tda_run": (_run_counts, True),
    "nv_gibbs_run": (_run_counts, True),
    "start": (_run_counts, True),
    "extend": (_extend_counts, True),
    "fixed_width_mean": (_stopping_counts, False),
    "fixed_width_quantiles": (_stopping_counts, False),
    "kde_1d": (_kde_1d_counts, True),
    "kde_2d": (_kde_2d_counts, True),
    "rb_marginal_mu": (_rb_counts, True),
    "write_csv": (_write_csv_counts, True),
}

# names a module calls in its own namespace that still get a span of their own
OWN_NAMES = {
    "cli": ("write_csv",),
    "mcse": ("mcse_bm", "mcse_obm", "subsample_quantile_se"),
}

# functions whose peak traced allocation is recorded (tracemalloc runs only inside them)
_ALLOC_TRACED = {"kde_2d"}


class Tracer:
    """Records spans for calls made through the names it has patched."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def open(self, group: str) -> int:
        idx = len(self.spans)
        self.spans.append([group, self._stack[-1] if self._stack else None, time.perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, group: str, name: str):
        counter, needs_args = _COUNTERS.get(name, (None, False))
        signature = inspect.signature(fn) if needs_args else None
        alloc = name in _ALLOC_TRACED

        def traced(*args, **kwargs):
            if alloc:
                tracemalloc.start()
            idx = self.open(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            counts = {}
            if counter is not None:
                arguments = None
                if needs_args:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                counts = counter(arguments, result)
            if alloc:
                counts["peak_alloc_mb"] = peak / 2**20
            if counts:
                self.spans[idx][4] = counts
            return result

        return traced

    def patch(self, owner, name: str, group: str) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(original, group, name))

    def patch_package(self, modules, methods=()) -> None:
        """Patch each module's public functions that come from the package.

        A module's names are wrapped when they were imported from another
        package module, or are listed for it in ``OWN_NAMES``. ``methods``
        holds ``(class, method names)`` pairs to wrap as well.
        """
        for module in modules:
            own = OWN_NAMES.get(module.__name__.rsplit(".", 1)[-1], ())
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                defined_in = getattr(obj, "__module__", "") or ""
                if not defined_in.startswith(PACKAGE + "."):
                    continue
                if defined_in != module.__name__ or name in own:
                    self.patch(module, name, group_of(defined_in, name))
        for cls, names in methods:
            for name in names:
                self.patch(cls, name, group_of(cls.__module__, name))

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for group, parent, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(idx, ()) if e > start and s < end]
        out.append((end - start) - _covered(clipped))
    return out


def group_totals(spans) -> dict:
    """Per group: calls, summed self time, and counters (summed; ``peak_*`` take the max)."""
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        group, counts = span[0], span[4]
        t = totals.setdefault(group, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += own
        for key, value in (counts or {}).items():
            if key.startswith("peak_"):
                t[key] = max(t.get(key, value), value)
            else:
                t[key] = t.get(key, 0) + value
    return totals


def top_level_time(spans) -> float:
    return sum(end - start for _, parent, start, end, _ in spans if parent is None)
