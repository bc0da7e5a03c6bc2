"""Span tracing of the depthwl layers from outside the package.

``Tracer.install`` replaces each function in ``PATCHES`` at the module (or
class) its callers look it up in, e.g. ``depthwl.estimator.irwls_step``,
with a wrapper that records a span: name, start, end, the index of the span
that was open when it started (its parent) and a little information taken
from the arguments or result.  ``Tracer.uninstall`` puts every original back.
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer metrics
named in ``LAYER_METRICS``.

The program runs serially, so spans nest properly and a span's children never
overlap: self time is duration minus the summed durations of its children.
No layer waits on another in a serial run, so no waiting time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

# (where the callers look the function up, span name)
PATCHES = (
    ("depthwl.cli:load_csv_dataset", "cli.load"),
    ("depthwl.simulation:GridConfig.from_dict", "cli.load"),
    ("depthwl.cli:_json_dumps", "cli.serialize"),
    ("depthwl.cli:_write_output", "cli.serialize"),
    ("depthwl.simulation:SimulationReport.to_csv", "cli.serialize"),
    ("depthwl.simulation:SimulationReport.maxima_json", "cli.serialize"),
    ("depthwl.simulation:SimulationReport.maxima_table", "cli.serialize"),
    ("depthwl.cli:empirical_depths", "depth.empirical"),
    ("depthwl.estimator:empirical_depths_all", "depth.empirical"),
    ("depthwl.initializers:empirical_depths_all", "depth.empirical"),
    ("depthwl.simulation:empirical_depths_all", "depth.empirical"),
    ("depthwl.estimator:population_depth_gaussian", "depth.model"),
    ("depthwl.simulation:population_depth_gaussian", "depth.model"),
    ("depthwl.estimator:dpr", "residuals.dpr"),
    ("depthwl.estimator:weight", "residuals.weight"),
    ("depthwl.estimator:apply_trim", "residuals.trim"),
    ("depthwl.estimator:weighted_location_scatter", "gaussian.moments"),
    ("depthwl.initializers:mle_fit", "gaussian.mle"),
    ("depthwl.simulation:mle_fit", "gaussian.mle"),
    ("depthwl.estimator:kl_gaussian", "gaussian.kl"),
    ("depthwl.simulation:kl_gaussian", "gaussian.kl"),
    ("depthwl.estimator:irwls_step", "estimator.step"),
    ("depthwl.estimator:fit", "estimator.fit"),
    ("depthwl.simulation:fit", "estimator.fit"),
    ("depthwl.cli:find_roots", "estimator.find_roots"),
    ("depthwl.simulation:find_roots", "estimator.find_roots"),
    ("depthwl.cli:subsample_inits", "initializers"),
    ("depthwl.cli:depth_init", "initializers"),
    ("depthwl.initializers:InitSpec.make_inits", "initializers"),
    ("depthwl.cli:run_grid", "simulation.grid"),
    ("depthwl.simulation:_run_cell", "simulation.cell"),
    ("depthwl.simulation:generate_dataset", "simulation.generate"),
)

# (name, unit, better) of every metric ``layer_metrics`` returns.
LAYER_METRICS = (
    ("depth.empirical_s", "s", "lower"),
    ("depth.empirical_calls", "count", "lower"),
    ("depth.empirical_work", "count", "lower"),
    ("depth.model_s", "s", "lower"),
    ("depth.model_calls", "count", "lower"),
    ("depth.model_us", "us", "lower"),
    ("residuals.s", "s", "lower"),
    ("residuals.calls", "count", "lower"),
    ("residuals.trimmed_frac", "ratio", "lower"),
    ("gaussian.moments_s", "s", "lower"),
    ("gaussian.mle_s", "s", "lower"),
    ("gaussian.mle_calls", "count", "lower"),
    ("gaussian.kl_s", "s", "lower"),
    ("gaussian.kl_calls", "count", "lower"),
    ("estimator.step_s", "s", "lower"),
    ("estimator.step_calls", "count", "lower"),
    ("estimator.iterations_per_start", "count", "lower"),
    ("estimator.fit_s", "s", "lower"),
    ("estimator.fit_p50_ms", "ms", "lower"),
    ("estimator.fit_p98_ms", "ms", "lower"),
    ("estimator.converged_frac", "ratio", "higher"),
    ("estimator.distinct_frac", "ratio", "lower"),
    ("estimator.dedup_s", "s", "lower"),
    ("estimator.dedup_kl_calls", "count", "lower"),
    ("initializers.s", "s", "lower"),
    ("initializers.accept_frac", "ratio", "higher"),
    ("simulation.generate_s", "s", "lower"),
    ("simulation.rep_p50_ms", "ms", "lower"),
    ("simulation.rep_p98_ms", "ms", "lower"),
    ("simulation.failures", "count", "lower"),
    ("cli.load_s", "s", "lower"),
    ("cli.serialize_s", "s", "lower"),
    ("untraced_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

_ERROR = "error"


def _empirical_work(sig, args, kwargs, result) -> int:
    """Computed work of one empirical-depth call: queries x n for exact
    methods, directions x (n + queries) for projection."""
    bound = sig.bind(*args, **kwargs).arguments
    data = np.asarray(bound["data"])
    n = data.shape[0]
    p = 1 if data.ndim == 1 else data.shape[1]
    method = bound["method"]
    if method.kind == "projection":
        return method.resolved_directions(p) * (n + len(result))
    return len(result) * n


def _trimmed(sig, args, kwargs, result) -> tuple:
    w = np.asarray(sig.bind(*args, **kwargs).arguments["w"])
    return int(np.count_nonzero((result == 0.0) & (w != 0.0))), int(w.size)


def _starts(sig, args, kwargs, result) -> int:
    return len(result) if isinstance(result, list) else 1


# Extra information recorded per span name, from (signature, args, kwargs, result).
_HOOKS = {
    "depth.empirical": _empirical_work,
    "residuals.trim": _trimmed,
    "estimator.fit": lambda sig, a, k, r: (r.converged, r.iterations),
    "estimator.find_roots": lambda sig, a, k, r: (len(r.roots), r.diagnostics["n_converged"]),
    "initializers": _starts,
    "simulation.grid": lambda sig, a, k, r: sum(c.failures for c in r.cells),
}


def _resolve(target: str):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans around the functions in ``PATCHES`` while installed."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, info]
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original value)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = _ERROR
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(sig, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target, name in PATCHES:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__))
            else:
                replacement = self.wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def unrestored(self) -> list:
        """Patched attributes that do not hold their original value."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._saved
                if vars(owner)[attr] is not original]


def _percentile_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(spans: list) -> dict:
    """Reduce spans to the metrics of ``LAYER_METRICS`` (plain numbers),
    plus ``base.*`` counts: the denominators of the ratios."""
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    children: dict = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children.setdefault(s[3], []).append(i)

    def select(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return float(sum(dur[i] for i in select(name)))

    def self_time(name):
        return float(sum(dur[i] - child_time[i] for i in select(name)))

    def infos(name):
        return [spans[i][4] for i in select(name) if spans[i][4] != _ERROR]

    m = {}
    m["depth.empirical_s"] = total("depth.empirical")
    m["depth.empirical_calls"] = len(select("depth.empirical"))
    m["depth.empirical_work"] = sum(infos("depth.empirical"))
    m["depth.model_s"] = total("depth.model")
    m["depth.model_calls"] = len(select("depth.model"))
    m["depth.model_us"] = (m["depth.model_s"] / m["depth.model_calls"] * 1e6
                           if m["depth.model_calls"] else 0.0)

    trims = infos("residuals.trim")
    m["residuals.s"] = sum(total(k) for k in
                           ("residuals.dpr", "residuals.weight", "residuals.trim"))
    m["residuals.calls"] = len(trims)
    entries = sum(t[1] for t in trims)
    m["residuals.trimmed_frac"] = sum(t[0] for t in trims) / entries if entries else 0.0

    m["gaussian.moments_s"] = total("gaussian.moments")
    m["gaussian.mle_s"] = total("gaussian.mle")
    m["gaussian.mle_calls"] = len(select("gaussian.mle"))
    m["gaussian.kl_s"] = total("gaussian.kl")
    m["gaussian.kl_calls"] = len(select("gaussian.kl"))

    fits = infos("estimator.fit")
    m["estimator.step_s"] = self_time("estimator.step")
    m["estimator.step_calls"] = len(select("estimator.step"))
    m["estimator.iterations_per_start"] = (
        sum(f[1] for f in fits) / len(fits) if fits else 0.0)
    m["estimator.fit_s"] = self_time("estimator.fit")
    fit_dur = [dur[i] for i in select("estimator.fit")]
    m["estimator.fit_p50_ms"] = _percentile_ms(fit_dur, 50)
    m["estimator.fit_p98_ms"] = _percentile_ms(fit_dur, 98)
    m["estimator.converged_frac"] = sum(f[0] for f in fits) / len(fits) if fits else 0.0
    roots = infos("estimator.find_roots")
    converged = sum(r[1] for r in roots)
    m["estimator.distinct_frac"] = sum(r[0] for r in roots) / converged if converged else 0.0
    # Deduplication is the part of find_roots outside its depth and fit
    # children, in the calls that compared roots at all (made a KL call).
    dedup_s, dedup_kl = 0.0, 0
    for i in select("estimator.find_roots"):
        kids = children.get(i, [])
        kl = sum(spans[k][0] == "gaussian.kl" for k in kids)
        if kl:
            dedup_kl += kl
            dedup_s += dur[i] - sum(dur[k] for k in kids if spans[k][0] in
                                    ("depth.empirical", "estimator.fit"))
    m["estimator.dedup_s"] = dedup_s
    m["estimator.dedup_kl_calls"] = dedup_kl

    init_spans = select("initializers")
    m["initializers.s"] = total("initializers")
    attempts = sum(1 for i in init_spans for k in children.get(i, [])
                   if spans[k][0] == "gaussian.mle")
    m["initializers.accept_frac"] = (
        sum(spans[i][4] for i in init_spans) / attempts if attempts else 0.0)

    m["simulation.generate_s"] = total("simulation.generate")
    reps = []
    for i in select("simulation.cell"):
        starts = [spans[k][1] for k in children.get(i, [])
                  if spans[k][0] == "simulation.generate"]
        reps += [b - a for a, b in zip(starts, starts[1:] + [spans[i][2]])]
    m["simulation.rep_p50_ms"] = _percentile_ms(reps, 50)
    m["simulation.rep_p98_ms"] = _percentile_ms(reps, 98)
    m["simulation.failures"] = sum(infos("simulation.grid"))

    m["cli.load_s"] = total("cli.load")
    m["cli.serialize_s"] = total("cli.serialize")
    m["untraced_s"] = self_time("cli.main")
    m["trace.spans"] = len(spans)
    # Bases of the ratios above, reported beside them.
    m["base.fits"] = len(fits)
    m["base.converged_starts"] = converged
    m["base.residual_entries"] = entries
    m["base.mle_attempts"] = attempts
    m["base.replications"] = len(reps)
    return m
