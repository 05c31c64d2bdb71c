"""The benchmark's span tracer still fits the package.

`benchmark/spans.instrumented` patches package entry points by name
(`KernelEvaluator.__dict__["refine"]`, `options.adaptive_integrate`, ...).
A rename or deletion of one of them would break a traced benchmark run
with a KeyError; this test fails first. It runs one unit of each
workload traced and holds the summary to the benchmark's own checks,
with the unspanned-share bound left wide open: that share is a timing,
not a property of the code. Across the units, every span that the
tracer opens must be recorded at least once, so a change that routes a
call around a patched name cannot zero a layer's counts unnoticed.
Nothing under benchmark/ is modified.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from time import perf_counter

import numpy as np

import levyrates as lr

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

# units spread over the families and layers: the first jd expiry row
# (its Poisson series cutoff reaches reg_upper_gamma), the first vg
# expiry row (psi_integral_batch), the first third of the jd path, the
# first gamma Monte Carlo call
UNITS = [("option_grid", 10), ("option_grid", 30), ("curve_path", 3), ("mc_batch", 4)]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_units_of_every_workload_pass_their_checks():
    spans, workloads = _load("spans"), _load("workloads")
    with open(BENCHMARK / "reference_seed0.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    counted, recorded = set(), set()
    for name, u in UNITS:
        work = workloads.WORKLOADS[name](0)
        tracer = spans.Tracer()
        with spans.instrumented(lr, tracer):
            start = perf_counter()
            out, _ = work.run_unit(u, tracer)
            wall = perf_counter() - start
        assert not work.errors, work.errors
        prices = work.ops_per_unit if name == "option_grid" else 0
        metrics, problems = spans.summarise(tracer.spans, wall, prices, max_unspanned=1.0)
        assert problems == [], (name, problems)
        # the summary counts calls of exactly the spans the tracer opens
        counted |= {k[: -len(".calls")] for k in metrics if k.endswith(".calls")}
        recorded |= {span[0] for span in tracer.spans}
        want = {k: np.array(v, dtype=float)[work.span(u)] for k, v in reference[name].items()}
        ok = work.check(u, out, want)
        assert ok.all(), (name, u, np.flatnonzero(~ok))
    assert counted - recorded == set(), "spans never recorded by any traced unit"
    # the patches are undone on exit
    assert lr.options.adaptive_integrate is lr.quadrature.adaptive_integrate
