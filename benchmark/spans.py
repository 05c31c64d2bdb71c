"""Outside-in span tracing of the levyrates layers.

Spans are recorded around public entry points of each layer by patching
them from the benchmark's side; nothing in the package changes. Every
span keeps its name, the index of the span that was open when it started
(its parent), its start and end times, and an optional size (draws for
the samplers and the batch kernel, relative error estimate for the outer
quadrature). Spans stay in memory and are summarised or written out once
a pass ends.

A span's self time is its duration minus the durations of its children.
The program is single-threaded, so children never overlap and never
cover more than their parent; the summary checks both. Summed over all
spans, self time equals the time covered by the outermost spans; the
rest of a pass's wall time is benchmark code and unspanned program code
(path accumulation, model construction), and must stay a small share.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("curve", "options", "quadrature", "specialfn", "levy")


class NullTracer:
    """Calls straight through; used for every timed, untraced pass."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        # [name, parent index or -1, start, end, size]
        self.spans = []
        self._open = []

    def call(self, name, fn, *args, size=None, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, 0.0, 0.0, size])
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            span = self.spans[idx]
            span[2] = start
            span[3] = end

    def write(self, path):
        """Dump the spans as JSON lines: name, parent, start_s, end_s, size."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, size in self.spans:
                fh.write(json.dumps([name, parent, start - t0, end - t0, size]) + "\n")


@contextmanager
def instrumented(lr, tracer):
    """Wrap each layer's entry points so their calls open spans on tracer.

    - curve: KernelEvaluator construction, refine, log_integral and
      log_integral_batch;
    - options: solve_critical_level and the integrand handed to the outer
      quadrature, as options looks them up;
    - quadrature: adaptive_integrate, as options looks it up;
    - specialfn: psi_integral_batch and reg_upper_gamma, as options looks
      them up;
    - levy: sample_increment of each family.

    termstructure and martingales are left unwrapped: their calls are
    sub-microsecond numpy expressions, so a wrapper would cost more than
    the work, and their time lands in the caller's self time.
    """
    options = lr.options
    saved = []
    call = tracer.call

    def wrap(owner, attr, name, size_of=None):
        """Patch owner.attr; size_of maps the call's (args, kwargs) to a size."""
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        if size_of is None:
            wrapper = lambda *a, **k: call(name, orig, *a, **k)  # noqa: E731
        else:
            wrapper = lambda *a, **k: call(name, orig, *a, size=size_of(a, k), **k)  # noqa: E731
        setattr(owner, attr, wrapper)

    ev = lr.KernelEvaluator
    wrap(ev, "__init__", "curve.evaluator_build")
    wrap(ev, "refine", "curve.refine")
    wrap(ev, "log_integral", "curve.log_integral")
    # log_integral_batch(self, xi, lowers, ...): one draw per xi
    wrap(ev, "log_integral_batch", "curve.log_integral_batch", lambda a, k: int(a[1].size))

    def draws(a, k):  # sample_increment(self, t, rng, size=None); None draws one value
        size = a[3] if len(a) > 3 else k.get("size")
        return 1 if size is None else int(size)

    for fam in (lr.BrownianFamily, lr.JumpDiffusionFamily, lr.GammaFamily, lr.VarianceGammaFamily):
        wrap(fam, "sample_increment", "levy.sample_increment", draws)

    wrap(options, "solve_critical_level", "options.solve_critical_level")
    wrap(options, "psi_integral_batch", "specialfn.psi_integral_batch")
    wrap(options, "reg_upper_gamma", "specialfn.reg_upper_gamma")

    orig_integrate = options.adaptive_integrate

    def adaptive_integrate(f, *a, **k):
        integrand = lambda s: call("options.outer_integrand", f, s)  # noqa: E731
        idx = len(tracer.spans)
        value, err = call("quadrature.adaptive_integrate", orig_integrate, integrand, *a, **k)
        tracer.spans[idx][4] = err / abs(value) if value else 0.0
        return value, err

    saved.append((options, "adaptive_integrate", orig_integrate))
    options.adaptive_integrate = adaptive_integrate
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def summarise(spans, wall_s, prices, max_unspanned):
    """Per-layer metrics of one traced pass, and the ways in which its
    spans fail to account for its wall time (an empty list if none).

    wall_s is the pass's wall time; prices the number of analytic prices
    it computed (the base of the per-price ratios); max_unspanned the
    largest share of the wall time that may lie outside every span.
    """
    problems = set()
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for (name, _, start, end, _), covered in zip(spans, child):
        if covered > end - start + 1e-9:
            problems.add(f"children of a {name} span cover more than its duration")
    calls, incl, self_s, size = {}, {}, {}, {}
    kernel_in_solve = 0
    max_rel_err = 0.0
    for i, (name, parent, start, end, sz) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        if name == "quadrature.adaptive_integrate":
            max_rel_err = max(max_rel_err, sz)
        elif sz is not None:
            size[name] = size.get(name, 0) + sz
        if name == "curve.log_integral":
            p = parent
            while p >= 0 and spans[p][0] != "options.solve_critical_level":
                p = spans[p][1]
            kernel_in_solve += p >= 0

    def self_us(name):
        return 1e6 * self_s[name] / calls[name] if calls.get(name) else 0.0

    def per_size(name):
        return 1e9 * incl[name] / size[name] if size.get(name) else 0.0

    solves = calls.get("options.solve_critical_level", 0)
    m = {}
    for name in (
        "curve.evaluator_build",
        "curve.refine",
        "curve.log_integral",
        "curve.log_integral_batch",
        "options.solve_critical_level",
        "options.outer_integrand",
        "quadrature.adaptive_integrate",
        "specialfn.psi_integral_batch",
        "specialfn.reg_upper_gamma",
        "levy.sample_increment",
    ):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in (
        "curve.evaluator_build",
        "curve.refine",
        "curve.log_integral",
        "options.outer_integrand",
        "quadrature.adaptive_integrate",
        "specialfn.psi_integral_batch",
        "specialfn.reg_upper_gamma",
    ):
        m[f"{name}.self_us"] = (self_us(name), "us")
    m["options.kernel_evals_per_solve"] = (kernel_in_solve / solves if solves else 0.0, "count")
    m["options.solve_critical_level.ms"] = (
        1e3 * incl["options.solve_critical_level"] / solves if solves else 0.0,
        "ms",
    )
    m["quadrature.adaptive_integrate.integrand_calls_per_price"] = (
        calls.get("options.outer_integrand", 0) / prices if prices else 0.0,
        "count",
    )
    m["quadrature.adaptive_integrate.max_rel_err_est"] = (max_rel_err, "ratio")
    for fam in ("gbm", "jd", "gamma", "vg"):
        name = f"options.price_call.{fam}"
        m[f"{name}.ms"] = (1e3 * incl[name] / calls[name] if calls.get(name) else 0.0, "ms")
    m["curve.log_integral_batch.ns_per_draw"] = (per_size("curve.log_integral_batch"), "ns")
    m["levy.sample_increment.ns_per_draw"] = (per_size("levy.sample_increment"), "ns")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, s in self_s.items():
        layer_self[name.split(".", 1)[0]] += s
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (layer_self[layer] / wall_s, "ratio")
    spanned = sum(end - start for _, parent, start, end, _ in spans if parent < 0)
    unspanned = 1.0 - spanned / wall_s
    if not 0.0 <= unspanned <= max_unspanned:
        problems.add(f"unspanned share {unspanned:.4f} is outside [0, {max_unspanned}]")
    m["trace.unspanned_share"] = (unspanned, "ratio")
    return m, sorted(problems)
