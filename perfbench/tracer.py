"""Outside-in span tracer for kinkfit's seven layer modules.

``Tracer.install()`` replaces each function a layer module exports (its
``__all__``; for ``cli``, which has none, its public functions) by a
recording wrapper, in every kinkfit module that holds a reference to it.
The modules import each other with ``from .x import y``, so rebinding
only the defining module would miss most call sites.  ``uninstall()``
puts every original back.

A wrapper records a span (name, start, end, parent span, run id) and,
at a few boundaries, counts read from the arguments and the result:
kernel points in and out of the clamp window, a fit's iterations and
convergence, and the bootstrap refits used.  Spans stay in memory until
the caller writes them out.  The counting runs outside the span's own
interval, so it is charged to the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from time import perf_counter

import numpy as np

LAYERS = ("kernels", "families", "model", "estimator", "inference", "simulate", "cli")
_MARK = "__perfbench_original__"


def _kernel_counts(fn):
    from kinkfit.kernels import CLAMP

    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        u = args[1] if len(args) > 1 else sig.bind(*args, **kwargs).arguments["u"]
        u = np.asarray(u)
        return {"points": int(u.size),
                "inside": int(np.count_nonzero(np.abs(u) <= CLAMP))}
    return count


def _fit_counts(fn):
    def count(args, kwargs, result):
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    return count


def _bootstrap_counts(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        B = sig.bind(*args, **kwargs).arguments["B"]
        return {"B": int(B), "reps_used": int(result[1])}
    return count


COUNTERS = {
    "kernels.eval_kernel": _kernel_counts,
    "estimator.fit": _fit_counts,
    "inference.bootstrap_ci": _bootstrap_counts,
}


def layer_functions():
    """{qualified name: function} for every function the tracer wraps."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"kinkfit.{layer}")
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    """Spans of one traced call, kept as parallel columns.

    Span i has name ``names[i]``, parent span ``parents[i]`` (-1 at the
    top), interval ``starts[i]`` to ``ends[i]`` and the tracer's run id;
    ``counts`` and ``errors`` map a span index to its boundary counts or
    to the name of the exception it raised.  Columns of plain numbers keep
    the garbage collector's work, and so the tracing overhead, small.
    """

    FIELDS = ("name", "start", "end", "parent", "run", "counts", "error")

    def __init__(self, run=0):
        self.run = run
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.counts, self.errors = {}, {}
        self._stack = []
        self._rebound = []

    def rows(self):
        """One list per span, in the order of ``FIELDS``."""
        return [
            [name, start, end, parent, self.run, self.counts.get(i), self.errors.get(i)]
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents))
        ]

    def _wrap(self, name, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        counts, errors, stack = self.counts, self.errors, self._stack
        make_counter = COUNTERS.get(name)
        count = make_counter(fn) if make_counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            stack.append(i)
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = perf_counter()
                stack.pop()
                errors[i] = type(exc).__name__
                raise
            ends[i] = perf_counter()
            stack.pop()
            if count is not None:
                counts[i] = count(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in layer_functions().items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "kinkfit" or modname.startswith("kinkfit.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None and getattr(wrapper, _MARK) is val:
                    setattr(mod, attr, wrapper)
                    self._rebound.append((mod, attr, val))

    def uninstall(self):
        while self._rebound:
            mod, attr, val = self._rebound.pop()
            setattr(mod, attr, val)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# --- per-layer metrics ------------------------------------------------------

def _self_times(tr):
    dur = np.subtract(tr.ends, tr.starts)
    child = np.zeros(dur.size)
    parents = np.asarray(tr.parents, dtype=int)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    return dur, dur - child


def layer_metrics(tr):
    """Per-layer metrics of one traced call, as {name: (value, unit)}.

    ``total_s`` is the summed duration of a function's spans (no layer
    function calls itself), ``self_s`` that minus its children's.  A ratio
    whose base is zero reads 0.
    """
    dur, self_t = _self_times(tr)
    calls, total, own = {}, {}, {}
    for name, d, st in zip(tr.names, dur.tolist(), self_t.tolist()):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        own[name] = own.get(name, 0.0) + st

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def o(name):
        return own.get(name, 0.0)

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    points = inside = iterations = nonconv = boot_b = boot_used = 0
    for i, name in enumerate(tr.names):
        counted = tr.counts.get(i)
        if name == "kernels.eval_kernel" and counted:
            points += counted["points"]
            inside += counted["inside"]
        elif name == "estimator.fit":
            if counted:
                iterations += counted["iterations"]
                nonconv += not counted["converged"]
            else:
                nonconv += 1  # raised
        elif name == "inference.bootstrap_ci" and counted:
            boot_b += counted["B"]
            boot_used += counted["reps_used"]
    evals = sum(c(f"model.{f}") for f in ("objective", "score", "neg_hessian",
                                          "score_covariance"))
    return {
        "kernels.eval_kernel.calls": (c("kernels.eval_kernel"), "count"),
        "kernels.eval_kernel.self_s": (o("kernels.eval_kernel"), "s"),
        "kernels.eval_kernel.points": (points, "count"),
        "kernels.window_frac": (ratio(inside, points), "ratio"),
        "families.calls": (prefixed(calls, "families."), "count"),
        "families.self_s": (prefixed(own, "families."), "s"),
        "model.segment_term.self_s": (o("model.segment_term"), "s"),
        "model.objective.calls": (c("model.objective"), "count"),
        "model.score.calls": (c("model.score"), "count"),
        "model.neg_hessian.calls": (c("model.neg_hessian"), "count"),
        "model.score_covariance.calls": (c("model.score_covariance"), "count"),
        "model.self_s": (prefixed(own, "model."), "s"),
        "model.evals_per_fit": (ratio(evals, c("estimator.fit")), "evals/fit"),
        "estimator.fit.calls": (c("estimator.fit"), "count"),
        "estimator.fit.total_s": (t("estimator.fit"), "s"),
        "estimator.fit.self_s": (o("estimator.fit"), "s"),
        "estimator.fit.iterations": (iterations, "count"),
        "estimator.fit.nonconverged": (nonconv, "count"),
        "estimator.profile_init.total_s": (t("estimator.profile_init"), "s"),
        "estimator.profile_init.self_s": (o("estimator.profile_init"), "s"),
        "estimator.glm_irls.calls": (c("estimator.glm_irls"), "count"),
        "estimator.glm_irls.self_s": (o("estimator.glm_irls"), "s"),
        "estimator.linearized_fit.total_s": (t("estimator.linearized_fit"), "s"),
        "inference.run_inference.total_s": (t("inference.run_inference"), "s"),
        "inference.run_inference.self_s": (o("inference.run_inference"), "s"),
        "inference.bootstrap_ci.total_s": (t("inference.bootstrap_ci"), "s"),
        "inference.bootstrap_ci.self_s": (o("inference.bootstrap_ci"), "s"),
        "inference.bootstrap_ci.reps_used_frac": (ratio(boot_used, boot_b), "ratio"),
        "inference.sandwich_cov.self_s": (o("inference.sandwich_cov"), "s"),
        "simulate.run.self_s": (o("simulate.run"), "s"),
        "simulate.generate.self_s": (o("simulate.generate"), "s"),
        "cli.main.self_s": (o("cli.main"), "s"),
        "cli.ingest_csv.total_s": (t("cli.ingest_csv"), "s"),
    }
