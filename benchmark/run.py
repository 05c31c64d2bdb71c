"""levyrates benchmark: seeded pricing workloads, end to end and traced.

Run from the repository root:

    python3 benchmark/run.py --workload option_grid --seed 0 --seconds 30 --trace 0

The package is imported from ./src next to this directory; an installed
copy is never used. Every operation is checked, and the last line of
standard output is one JSON object with the verdict, the operation
counts and the metrics. See benchmark/README.md for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_seed0.json"
REFERENCE_SEED = 0
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("option_grid", "curve_path", "mc_batch")
# One BLAS thread, so every layer is measured on one core; the only BLAS
# call is the batch kernel's matrix-vector product. Set before numpy is
# first imported.
BLAS_THREADS = "1"
# fresh-process set-ups in an untraced run, spread over its time
SETUP_PROBES = 5
# How many passes of each workload an untraced run makes, at least; each
# throughput is a median over the run's complete passes.
MIN_PASSES = 2
# A traced pass fails its accounting check if more than this share of its
# wall time lies outside every span.
MAX_UNSPANNED_SHARE = 0.02
# exact counts that must repeat across traced passes of one seed
COUNT_KEYS = (
    "options.kernel_evals_per_solve",
    "quadrature.adaptive_integrate.integrand_calls_per_price",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--record-reference",
        action="store_true",
        help=f"write one pass of every workload at seed {REFERENCE_SEED} to {REFERENCE.name}",
    )
    args = p.parse_args(argv)
    if args.workload is None and not (args.probe or args.record_reference):
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(seed, with_reference=True):
    """Import the package from ./src, build the models, draw every input
    and load the reference. Returns (workloads module, workloads, ref)."""
    src = ROOT / "src"
    if not (src / "levyrates" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no levyrates package under {src}")
    sys.path.insert(0, str(src))
    import levyrates

    if Path(levyrates.__file__).resolve().parent != src / "levyrates":
        raise SystemExit(f"benchmark: levyrates was imported from {levyrates.__file__}, not {src}")
    import numpy as np
    import workloads as wl

    for fam in wl.FAMILIES:
        wl.build_model(fam)  # rejects a bad model here rather than in a timed unit
    runs = {name: wl.WORKLOADS[name](seed) for name in WORKLOAD_NAMES}
    ref = None
    if seed == REFERENCE_SEED and with_reference:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = {
                name: {k: np.array(v, dtype=float) for k, v in outs.items()}
                for name, outs in json.load(fh).items()
            }
    return wl, runs, ref


def probe(seed, workload=None):
    """A fresh process that imports the package anew and sets up.

    Returns its set-up time in s and its peak RSS in MB. With a workload,
    the process runs one untraced pass of it before the peak is read, so
    the peak is that workload's alone.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--seed", str(seed)]
    if workload is not None:
        cmd += ["--workload", workload]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup_s, peak_mb = proc.stdout.split()[-2:]
    return float(setup_s), float(peak_mb)


def peak_rss_mb():
    """This process's RSS high-water mark. Read from VmHWM, not ru_maxrss:
    a child's ru_maxrss starts at its parent's RSS when it was forked."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit("benchmark: no VmHWM in /proc/self/status")


def git_commit():
    """The commit checked out at ROOT; None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "levyrates").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


class Verdict:
    """Checks every unit run; counts operations attempted and failed."""

    def __init__(self, ref):
        self.ref = ref
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.consistent = True

    def check(self, work, u, out):
        """Without a recorded reference, a unit's first run is the
        reference for its later runs."""
        if self.ref is not None:
            want = {k: v[work.span(u)] for k, v in self.ref[work.name].items()}
        else:
            want = self.first.setdefault((work.name, u), out)
        ok = work.check(u, out, want)
        self.attempted += ok.size
        self.failed += int(ok.size - ok.sum())

    def check_pass(self, work, outs):
        for u, out in enumerate(outs):
            self.check(work, u, out)

    @property
    def correct(self):
        return self.failed == 0 and self.consistent


def run_pass(work, tracer):
    """One pass of work, every unit once. Returns its wall time, the
    latency of each operation and the outputs of each unit."""
    import numpy as np

    gc.collect()
    start = perf_counter()
    results = [work.run_unit(u, tracer) for u in range(len(work.units))]
    wall = perf_counter() - start
    return wall, np.concatenate([lat for _, lat in results]), [out for out, _ in results]


def mixed_run(runs, seed, seconds, verdict):
    """Units of every workload, interleaved, for at least `seconds` and
    until every workload has made MIN_PASSES passes, with the set-up
    probes spread over the same time.

    The workloads advance in step, pass for pass, unit by unit. Each unit run and each probe runs between two readings of
    its host-speed gauge (hostspeed.py), and the k-th run of a unit, and
    the k-th probe, is pinned to the k-th usable CPU, in turn, so the
    gauge reads the CPU the work ran on.

    Returns, per workload and unit, the (wall time, latencies, scale) of
    each of the unit's runs, and the probes' set-up times scaled to the
    reference host.
    """
    from hostspeed import LARGE_ARRAYS, SMALL_CALLS
    from spans import NullTracer

    gauge = {"option_grid": SMALL_CALLS, "curve_path": SMALL_CALLS, "mc_batch": LARGE_ARRAYS}
    null = NullTracer()
    cpus = sorted(os.sched_getaffinity(0))
    done = dict.fromkeys(runs, 0)
    record = {name: [[] for _ in work.units] for name, work in runs.items()}
    setup_times = []

    def pin(k):
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})

    def passes(name):
        return done[name] / len(runs[name].units)

    gc.collect()
    start = perf_counter()
    try:
        while True:
            elapsed = perf_counter() - start
            if len(setup_times) < min(SETUP_PROBES, 1 + SETUP_PROBES * elapsed / seconds):
                pin(len(setup_times))
                (setup_s, _), _, scale = SMALL_CALLS.timed(probe, seed)
                setup_times.append(setup_s * scale)
                continue
            name = min(runs, key=passes)
            if elapsed >= seconds and passes(name) >= MIN_PASSES:
                break
            work = runs[name]
            u = done[name] % len(work.units)
            pin(len(record[name][u]))
            (out, lat), wall, scale = gauge[name].timed(work.run_unit, u, null)
            record[name][u].append((wall, lat, scale))
            done[name] += 1
            verdict.check(work, u, out)
    finally:
        os.sched_setaffinity(0, cpus)
    for name, work in runs.items():
        scales = [scale for unit in record[name] for _, _, scale in unit]
        print(
            f"{name}: {passes(name):.2f} passes of {work.ops} {work.unit}s; "
            f"gauge scale median {statistics.median(scales):.3f}, "
            f"range {min(scales):.3f}-{max(scales):.3f}"
        )
    return record, setup_times


def end_to_end(runs, verdict, args):
    """The end-to-end metrics, from one untraced mixed run and one probe.

    Every time is a wall time scaled to the reference host at full speed
    by the gauge read around it (hostspeed.py). Throughput is a pass's
    operations over the median scaled time of the run's complete passes,
    a pass's time being the sum of its units' times. p50 and p99 are
    taken over every timed operation; the p99s are printed only.
    peak_rss_mb comes from a fresh process that runs one pass of the
    named workload only.
    """
    import numpy as np

    record, setup_times = mixed_run(runs, args.seed, args.seconds, verdict)
    _, peak_mb = probe(args.seed, args.workload)

    def pass_times(name, scaled=True):
        units = record[name]
        return [
            sum(unit[k][0] * (unit[k][2] if scaled else 1.0) for unit in units)
            for k in range(min(len(unit) for unit in units))
        ]

    def rate(name):
        return runs[name].ops / statistics.median(pass_times(name))

    # operations that failed carry NaN times and are left out
    def latencies(name):
        return np.concatenate([lat * scale for unit in record[name] for _, lat, scale in unit])

    for name, work in runs.items():
        raw = work.ops / statistics.median(pass_times(name, scaled=False))
        print(f"{name}: unscaled {raw:.6g} {work.unit}s/s")
    # Printed, but not metrics of BENCHMARK.json: the host changes speed
    # within a unit run, faster than the gauges follow, so these tails
    # follow the host and spread 0.15-0.3 from run to run.
    # A p99 needs 10 samples beyond it: 1,000 timed prices or states.
    for name, work, scale, unit in (
        ("price_p99_ms", "option_grid", 1e3, "ms"),
        ("state_p99_us", "curve_path", 1e6, "us"),
    ):
        lat = latencies(work)
        if lat.size >= 1000:
            value = scale * float(np.nanpercentile(lat, 99))
            print(f"{name + ' (not gated)':<56} {value:>14.6g} {unit}")
    metrics = {
        "prices_per_s": (rate("option_grid"), "1/s"),
        "price_p50_ms": (1e3 * float(np.nanmedian(latencies("option_grid"))), "ms"),
        "states_per_s": (rate("curve_path"), "1/s"),
        "state_p50_us": (1e6 * float(np.nanmedian(latencies("curve_path"))), "us"),
        "paths_per_s": (rate("mc_batch") * runs["mc_batch"].PATHS, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics, setup_times


def traced(lr, runs, verdict, args):
    """The per-layer metrics: untraced and traced passes of the named
    workload alone, alternating, for `seconds`."""
    from spans import NullTracer, Tracer, instrumented, summarise

    work = runs[args.workload]
    prices = work.ops if work.name == "option_grid" else 0
    plain_walls, traced_walls, summaries = [], [], []
    start = perf_counter()
    while len(summaries) < 2 or perf_counter() - start < args.seconds:
        wall, _, outs = run_pass(work, NullTracer())
        verdict.check_pass(work, outs)
        plain_walls.append(wall)
        tracer = Tracer()
        with instrumented(lr, tracer):
            wall, _, outs = run_pass(work, tracer)
        verdict.check_pass(work, outs)
        traced_walls.append(wall)
        summary, problems = summarise(tracer.spans, wall, prices, MAX_UNSPANNED_SHARE)
        summaries.append(summary)
        for line in problems:
            verdict.consistent = False
            print(f"trace: {line}", file=sys.stderr)

    counts = [
        {k: v for k, (v, _) in s.items() if k.endswith(".calls") or k in COUNT_KEYS}
        for s in summaries
    ]
    if any(c != counts[0] for c in counts[1:]):
        verdict.consistent = False
        print("trace: exact counts differ between traced passes of one seed", file=sys.stderr)

    metrics = {
        k: (statistics.median(s[k][0] for s in summaries), unit)
        for k, (_, unit) in summaries[0].items()
    }
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{work.name}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(
        f"{work.name}: {len(summaries)} untraced and {len(summaries)} traced passes; "
        f"the {len(tracer.spans)} spans of the last are in {path.relative_to(ROOT)}"
    )
    return metrics


def record_reference():
    from spans import NullTracer

    _, runs, _ = setup(REFERENCE_SEED, with_reference=False)
    data = {}
    for name, work in runs.items():
        _, _, outs = run_pass(work, NullTracer())
        for u, out in enumerate(outs):
            if not work.check(u, out, None).all():
                work.report_errors()
                raise SystemExit(f"benchmark: {name} unit {u} fails its checks; nothing written")
        data[name] = {k: [v for out in outs for v in out[k].tolist()] for k in work.recorded}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.record_reference:
        record_reference()
        return 0
    t0 = perf_counter()
    wl, runs, ref = setup(args.seed)
    setup_s = perf_counter() - t0
    if args.probe:
        if args.workload is not None:
            from spans import NullTracer

            run_pass(runs[args.workload], NullTracer())
        print(f"{setup_s!r} {peak_rss_mb()!r}")
        return 0
    print("env " + json.dumps(environment(args)))
    verdict = Verdict(ref)

    if args.trace:
        metrics = traced(wl.lr, runs, verdict, args)
    else:
        metrics, setup_times = end_to_end(runs, verdict, args)
        print(f"own set-up, unscaled: {setup_s:.4f} s")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_times))

    for work in runs.values():
        work.report_errors()
    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value:>14.6g} {unit}")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        verdict.consistent = False  # every operation of some kind failed
        metrics = {k: (v if math.isfinite(v) else 0.0, u) for k, (v, u) in metrics.items()}
    error_rate = verdict.failed / verdict.attempted
    print(f"{'error_rate':<56} {error_rate:>14.6g} failed/attempted")
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
