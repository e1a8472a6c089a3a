"""Per-layer tracing of normreg from outside the package.

Tracer wraps the public functions of each src/normreg module at every place
they are bound (the defining module, every module that imported the name,
and the package namespace), records one span per call and restores the
originals afterwards. Spans are kept in memory; layer metrics are derived
from them when the traced iteration ends.

A span is [name, start, end, parent]; the parent is the index of the span
that was open when the call began. The layer is the part of the name before
the first dot. Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from time import perf_counter

import numpy as np

# A fit is certified when max(kkt_residuals) / max_j |x_j'(y - mean y)| is at
# most this. At the seed commit converged fits stay below 1e-9 on every
# workload, and fits stopped by the sweep cap were seen from 1e-7 upwards.
KKT_THRESHOLD = 1e-8

# (span name, defining module, attribute). Classes that simulate imports from
# oracle (BinaryFeatureModel, Delta, Omega) are not wrapped: replacing a class
# by a function would break isinstance checks inside the package.
FUNCTIONS = (
    ("solver.fit", "normreg.solver", "fit"),
    ("solver.lambda_max", "normreg.solver", "lambda_max"),
    ("normalize.plan", "normreg.normalize", "compute_plan"),
    ("normalize.apply", "normreg.normalize", "apply"),
    ("simulate.run", "normreg.simulate", "run_scenario"),
    ("simulate.gen", "normreg.simulate", "gen_binary"),
    ("simulate.gen", "normreg.simulate", "gen_quasinormal"),
    ("simulate.gen", "normreg.simulate", "inject_correlation"),
    ("simulate.gen", "normreg.simulate", "sigma_for_snr"),
    ("simulate.gen", "normreg.simulate", "correlated_binary_pair"),
    ("oracle.call", "normreg.oracle", "estimator_mean"),
    ("oracle.call", "normreg.oracle", "estimator_variance"),
    ("oracle.call", "normreg.oracle", "maxabs_gumbel"),
    ("oracle.call", "normreg.oracle", "selection_probability"),
    ("evaluate.cv", "normreg.evaluate", "cross_validate"),
    ("io.read", "normreg.io", "read_delimited"),
    ("io.write", "normreg.io", "write_results"),
    ("cli.main", "normreg.cli", "main"),
)

# (span name, defining module, class, method)
METHODS = (
    ("dataset.init", "normreg.dataset", "Dataset", "__post_init__"),
    ("simulate.summarize", "normreg.simulate", "_Collector", "summarize"),
)

LAYERS = ("solver", "normalize", "simulate", "dataset", "oracle", "evaluate", "io", "cli")

_MARK = "__perfbench_original__"
_ROOT = "bench.iteration"
_KKT = "bench.kkt"


class TraceError(RuntimeError):
    """The trace is inconsistent: a wrapper was missed or a span lost its parent."""


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "normreg" or name.startswith("normreg."))]


def kkt_violation(data, penalty, result) -> float:
    """Scale-free KKT violation of a fit on the data and penalty it received.

    max(kkt_residuals) / max_j |x_j'(y - mean y)|. Dividing by lam1 instead
    would blow up on ridge fits, where lam1 = 0.
    """
    from normreg.solver import kkt_residuals

    scale = float(np.max(np.abs(data.x.T @ (data.y - data.y.mean())))) if data.p else 0.0
    worst = max(kkt_residuals(data, penalty, result))
    if scale == 0.0:
        return 0.0 if worst == 0.0 else math.inf
    return worst / scale


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Wraps every binding site on enter, restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {
            "solver.sweeps": 0,
            "solver.capped": 0,
            "solver.uncertified": 0,
            "solver.raised": 0,
            "normalize.apply.bytes": 0,
            "evaluate.folds": 0,
            "io.read.bytes": 0,
            "io.write.bytes": 0,
            "io.write.rows": 0,
        }
        self.sites: dict[str, list[str]] = {}
        self.layer_self: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(rec)
                if post is not None:
                    post(args, kwargs, None, True)
                raise
            self._close(rec)
            if post is not None:
                post(args, kwargs, out, False)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _post_fit(self, args, kwargs, result, raised):
        if raised:
            self.counts["solver.raised"] += 1
            self.counts["solver.uncertified"] += 1
            return
        self.counts["solver.sweeps"] += result.sweeps_used
        self.counts["solver.capped"] += 0 if result.converged else 1
        rec = self._open(_KKT)
        try:
            violation = kkt_violation(
                _arg(args, kwargs, 0, "data"), _arg(args, kwargs, 1, "penalty"), result
            )
        finally:
            self._close(rec)
        if not violation <= KKT_THRESHOLD:
            self.counts["solver.uncertified"] += 1

    def _post_apply(self, args, kwargs, out, raised):
        if not raised:
            self.counts["normalize.apply.bytes"] += out.x.nbytes

    def _post_cv(self, args, kwargs, out, raised):
        plan = _arg(args, kwargs, 1, "plan")
        self.counts["evaluate.folds"] += plan.repeats * plan.folds

    def _post_read(self, args, kwargs, out, raised):
        if not raised:
            self.counts["io.read.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _post_write(self, args, kwargs, out, raised):
        if raised:
            return
        from normreg.io import manifest_path

        path = _arg(args, kwargs, 1, "path")
        self.counts["io.write.bytes"] += os.path.getsize(path) + os.path.getsize(manifest_path(path))
        self.counts["io.write.rows"] += len(_arg(args, kwargs, 0, "table").rows)

    # -- patching --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        posts = {
            "solver.fit": self._post_fit,
            "normalize.apply": self._post_apply,
            "evaluate.cv": self._post_cv,
            "io.read": self._post_read,
            "io.write": self._post_write,
        }
        modules = _package_modules()
        originals = []
        try:
            for name, module, attr in FUNCTIONS:
                original = getattr(sys.modules[module], attr)
                originals.append(original)
                wrapper = self._wrap(name, original, posts.get(name))
                sites = []
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
                            sites.append(f"{mod.__name__}.{key}")
                self.sites[f"{module}.{attr}"] = sites
            for name, module, cls_name, attr in METHODS:
                cls = getattr(sys.modules[module], cls_name)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, None))
                self.sites[f"{module}.{cls_name}.{attr}"] = [f"{module}.{cls_name}.{attr}"]
            missed = [
                f"{mod.__name__}.{key}"
                for mod in modules
                for key, value in vars(mod).items()
                if any(value is original for original in originals)
            ]
            if missed:
                raise TraceError(f"binding sites left unwrapped: {missed}")
        except BaseException:
            self._restore()
            raise
        self._open(_ROOT)
        return self

    def __exit__(self, *exc) -> None:
        if self._stack:
            self._close(self.spans[self._stack[0]])
        self._restore()

    def _restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        left = [
            f"{mod.__name__}.{key}"
            for mod in _package_modules()
            for key, value in vars(mod).items()
            if hasattr(value, _MARK)
        ]
        left += [
            f"{module}.{cls_name}.{attr}"
            for _, module, cls_name, attr in METHODS
            if hasattr(getattr(sys.modules[module], cls_name).__dict__[attr], _MARK)
        ]
        if left:
            raise TraceError(f"wrappers left in place after restore: {left}")

    # -- analysis --------------------------------------------------------

    def check(self) -> None:
        """Raise TraceError unless every span is closed and nested in its parent."""
        if not self.spans or self.spans[0][0] != _ROOT:
            raise TraceError("trace has no root span")
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end < start or end == 0.0:
                raise TraceError(f"span {i} ({name}) was never closed")
            if i == 0:
                continue
            if not 0 <= parent < i:
                raise TraceError(f"span {i} ({name}) has no recorded parent")
            _, p_start, p_end, _ = self.spans[parent]
            if start < p_start or end > p_end:
                raise TraceError(f"span {i} ({name}) lies outside its parent span {parent}")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded trace (see README.md for units).

        Also sets layer_self, the self time of each layer in seconds."""
        self.check()
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
        fit_ms = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            layer_self[name.split(".", 1)[0]] += duration - child[i]
            calls[name] = calls.get(name, 0) + 1
            if not self._nested_in_same(i):
                inclusive[name] = inclusive.get(name, 0.0) + duration
            if name == "solver.fit":
                fit_ms.append(duration * 1e3)
        c = self.counts
        out = {
            "solver.fit.calls": calls.get("solver.fit", 0),
            "solver.fit.s": inclusive.get("solver.fit", 0.0),
            "solver.fit.ms_p50": _percentile(fit_ms, 50),
            "solver.fit.ms_p99": _percentile(fit_ms, 99),
            "solver.sweeps": c["solver.sweeps"],
            "solver.capped": c["solver.capped"],
            "solver.uncertified": c["solver.uncertified"],
            "solver.lambda_max.s": inclusive.get("solver.lambda_max", 0.0),
            "solver.self_s": layer_self["solver"],
            "normalize.plan.calls": calls.get("normalize.plan", 0),
            "normalize.plan.s": inclusive.get("normalize.plan", 0.0),
            "normalize.apply.calls": calls.get("normalize.apply", 0),
            "normalize.apply.s": inclusive.get("normalize.apply", 0.0),
            "normalize.apply.mb": c["normalize.apply.bytes"] / 1e6,
            "normalize.self_s": layer_self["normalize"],
            "simulate.gen.calls": calls.get("simulate.gen", 0),
            "simulate.gen.s": inclusive.get("simulate.gen", 0.0),
            "simulate.summarize.s": inclusive.get("simulate.summarize", 0.0),
            "simulate.self_s": layer_self["simulate"],
            "dataset.init.calls": calls.get("dataset.init", 0),
            "dataset.init.s": inclusive.get("dataset.init", 0.0),
            "oracle.calls": calls.get("oracle.call", 0),
            "oracle.s": inclusive.get("oracle.call", 0.0),
            "evaluate.cv.self_s": layer_self["evaluate"],
            "evaluate.folds": c["evaluate.folds"],
            "io.read.s": inclusive.get("io.read", 0.0),
            "io.read.mb": c["io.read.bytes"] / 1e6,
            "io.write.s": inclusive.get("io.write", 0.0),
            "io.write.mb": c["io.write.bytes"] / 1e6,
            "io.write.rows": c["io.write.rows"],
            "io.self_s": layer_self["io"],
            "cli.self_s": layer_self["cli"],
        }
        self.layer_self = layer_self
        return out

    def _nested_in_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self) -> dict:
        """Spans in a compact columnar form, times relative to the root start."""
        names = sorted({s[0] for s in self.spans})
        index = {name: k for k, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start_us": [round((s[1] - t0) * 1e6, 1) for s in self.spans],
            "end_us": [round((s[2] - t0) * 1e6, 1) for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
