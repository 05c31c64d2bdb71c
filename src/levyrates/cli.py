"""Command-line front end: simulate | price | surface | validate | bench.

One JSON config describes a model (curve, family, phi) plus per-command
parameters. Output files are deterministic for a fixed config and seed,
down to the byte: every file starts with comment lines naming the units
and a hash of the config+seed, floats print with 17 significant digits,
and Monte Carlo streams are derived per row index.

Exit codes: 0 ok, 1 config or usage error, 2 numerical failure, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .curve import (
    RateModel,
    bond_price,
    forward_rate,
    risk_aversion,
    risk_premium,
    short_rate,
)
from .errors import ConfigError, DomainError, NumericalError, UnsupportedModelError
from .levy import (
    BrownianFamily,
    GammaFamily,
    JumpDiffusionFamily,
    LevyFamily,
    VarianceGammaFamily,
    sample_path,
    spawn_stream,
)
from .martingales import ExpDecayPhi, ModelState
from .options import MC_PATHS, OptionSpec, price_call, price_call_mc
from .termstructure import FlatYieldCurve
from .validation import run_validation, validate_term_structure


# -- config ------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    # the blocks a config may hold; each subcommand reads those it needs
    blocks = ("curve", "family", "phi", "quadrature", "price", "simulate", "surface")
    return _block(cfg, f"config {path}", dict.fromkeys(blocks, lambda block: block))


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _float(value) -> float:
    """A finite number: JSON's NaN and Infinity are errors, and so is a boolean."""
    if isinstance(value, bool):  # float(true) would read as 1.0
        raise TypeError(f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _int(value) -> int:
    """A count: a fraction is an error, not truncated, and so is a boolean."""
    if not _float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _floats(value) -> List[float]:
    return [_float(v) for v in _list(value)]


def _block(cfg, where: str, fields: Dict[str, Callable], required: Sequence[str] = ()) -> dict:
    """Read one config object: its keys converted by `fields`, absent ones left out.

    A value that is not an object, an unknown or missing key, and a value
    its converter rejects are each a ConfigError naming the block.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object, got {cfg!r}")
    extras = set(cfg) - set(fields)
    if extras:
        raise ConfigError(f"unexpected {where} parameters: {sorted(extras)}")
    missing = [k for k in required if k not in cfg]
    if missing:
        raise ConfigError(f"{where} is missing {missing}")
    out = {}
    for key, value in cfg.items():
        try:
            out[key] = fields[key](value)
        except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
            raise ConfigError(f"bad {where} value {key}={value!r}: {exc}") from exc
    return out


def _build(cls, where: str, **kwargs):
    """cls(**kwargs), with a value the constructor rejects as a ConfigError."""
    try:
        return cls(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"bad {where} parameter: {exc}") from exc


def curve_from_config(cfg) -> FlatYieldCurve:
    if not isinstance(cfg, dict) or "form" not in cfg:
        raise ConfigError("curve config needs a 'form' tag, e.g. {\"form\": \"flat\", \"yield\": 0.02}")
    if str(cfg["form"]).lower() != "flat":
        raise ConfigError(f"unknown curve form {cfg['form']!r}; supported: flat")
    p = _block(cfg, "curve", {"form": str, "yield": _float}, required=("yield",))
    return _build(FlatYieldCurve, "flat-curve", y=p["yield"])


def quadrature_from_config(cfg) -> dict:
    """{} or {"rel_tol": x}, 0 < x < 1, from the optional quadrature block; the range is
    checked here too, so that `validate` refuses a bad block before its curve report."""
    p = {} if cfg is None else _block(cfg, "quadrature", {"rel_tol": _float})
    if not 0.0 < p.get("rel_tol", 0.5) < 1.0:
        raise ConfigError(f"bad quadrature value rel_tol={p['rel_tol']!r}: must lie in (0, 1)")
    return p


# family tag -> (class, config key -> constructor argument)
_FAMILIES = {
    "gbm": (BrownianFamily, {}),
    "jd": (JumpDiffusionFamily, {"lambda": "lam", "mu": "mu", "delta": "delta"}),
    "gamma": (GammaFamily, {"m": "m", "kappa": "kappa"}),
    "vg": (VarianceGammaFamily, {"mu": "mu", "sigma": "sigma", "m": "m"}),
}
_FAMILY_ALIASES = {"brownian": "gbm", "jump_diffusion": "jd", "jumpdiffusion": "jd", "variance_gamma": "vg"}


def family_from_config(cfg: dict) -> LevyFamily:
    """Build a family from a config mapping like {"family": "vg", "mu": .5, ...}."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError("family config needs a 'family' tag")
    tag = str(cfg["family"]).lower()
    tag = _FAMILY_ALIASES.get(tag, tag)
    if tag not in _FAMILIES:
        raise ConfigError(f"unknown family tag {cfg['family']!r}")
    cls, args = _FAMILIES[tag]
    where = f"family '{tag}'"
    p = _block(cfg, where, {"family": str, **dict.fromkeys(args, _float)}, required=tuple(args))
    return _build(cls, where, **{args[k]: v for k, v in p.items() if k != "family"})


def phi_from_config(cfg: dict) -> ExpDecayPhi:
    """Build the exponential-decay phi from {"c": ..., "b": ...}."""
    return _build(ExpDecayPhi, "phi", **_block(cfg, "phi", {"c": _float, "b": _float}, required=("c", "b")))


def model_from_config(cfg: dict) -> RateModel:
    """Assemble a RateModel from the curve/family/phi blocks of a config."""
    for key in ("curve", "family", "phi"):
        if key not in cfg:
            raise ConfigError(f"config is missing the '{key}' block")
    ts = curve_from_config(cfg["curve"])
    fam = family_from_config(cfg["family"])
    phi = phi_from_config(cfg["phi"])
    quad = quadrature_from_config(cfg.get("quadrature"))
    try:
        return RateModel(ts=ts, fam=fam, phi=phi, **quad)
    except DomainError as exc:
        raise ConfigError(f"model rejected: {exc}") from exc


def config_hash(cfg: dict, seed: int) -> str:
    """Stable 16-hex-digit digest of the config document and seed."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")) + f"|seed={seed}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- output ------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def _write_lines(out: Optional[str], lines: Sequence[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_lines(header: Sequence[str], columns: Sequence[str], rows) -> List[str]:
    lines = [f"# {h}" for h in header]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return lines


_UNITS = "units: time in years, rates per annum, prices as a fraction of unit notional"


# -- subcommands -------------------------------------------------------------


def cmd_simulate(cfg: dict, seed: int, out: Optional[str], args) -> int:
    model = model_from_config(cfg)
    fields = {"maturity": _float, "steps": _int}
    p = _block(cfg.get("simulate"), "simulate", fields, required=tuple(fields))
    maturity, steps = p["maturity"], p["steps"]
    if maturity <= 0.0 or steps < 1:
        raise ConfigError("simulate needs maturity > 0 and steps >= 1")
    if maturity >= model.s_max:
        raise ConfigError(
            f"simulate maturity {maturity} is beyond the curve's usable horizon {model.s_max:.1f}"
        )

    rng = spawn_stream(seed, 0)
    times = np.linspace(0.0, maturity, steps + 1)
    x = np.concatenate([[0.0], sample_path(model.fam, times[1:], rng)])
    rows = []
    for t_k, x_k in zip(times, x):
        st = ModelState(t=float(t_k), xi=float(x_k))
        rows.append(
            (float(t_k), float(x_k), bond_price(model, st, maturity), short_rate(model, st))
        )
    header = [
        "levyrates simulate: one driver path with the bond and short-rate processes",
        _UNITS,
        f"config_hash={config_hash(cfg, seed)} seed={seed}",
    ]
    _write_lines(out, _csv_lines(header, ["time", "X", "bond_price_to_T", "short_rate"], rows))
    return 0


def _option_entry(
    model: RateModel,
    spec: OptionSpec,
    use_mc: bool,
    paths: int,
    rng_index: int,
    seed: int,
) -> Dict[str, object]:
    res = price_call(model, spec)
    entry: Dict[str, object] = {
        "expiry": spec.expiry,
        "maturity": spec.maturity,
        "strike": spec.strike,
        "price": res.price,
        "status": res.status,
    }
    if res.critical is not None:
        entry["xi_star"] = res.critical.xi_star
        entry["residual"] = res.critical.residual
    if use_mc:
        mc, se = price_call_mc(model, spec, paths, spawn_stream(seed, rng_index))
        entry["mc_price"] = mc
        entry["mc_std_error"] = se
    return entry


def cmd_price(cfg: dict, seed: int, out: Optional[str], args) -> int:
    model = model_from_config(cfg)
    fields = dict.fromkeys(("maturities", "forward_maturities", "premium_maturities"), _floats)
    p = _block(cfg.get("price"), "price", {"t": _float, "xi": _float, "options": _list, **fields})
    t, xi = p.get("t", 0.0), p.get("xi", 0.0)
    state = ModelState(t=t, xi=xi)
    maturities = p.get("maturities", [])
    fwd_mats = p.get("forward_maturities", maturities)
    prem_mats = p.get("premium_maturities", [])
    spec_fields = dict.fromkeys(("expiry", "maturity", "strike"), _float)
    specs = [
        _build(OptionSpec, "option entry", **_block(o, "option entry", spec_fields, tuple(spec_fields)))
        for o in p.get("options", [])
    ]

    doc: Dict[str, object] = {
        "config_hash": config_hash(cfg, seed),
        "seed": seed,
        "state": {"t": t, "xi": xi},
        "bonds": [
            {"maturity": T, "price": bond_price(model, state, T)} for T in maturities
        ],
        "short_rate": short_rate(model, state),
        "forwards": [
            {"maturity": T, "rate": forward_rate(model, state, T)} for T in fwd_mats
        ],
        "risk_aversion": risk_aversion(model, state),
        "risk_premiums": [
            {"maturity": T, "premium": risk_premium(model, state, T)} for T in prem_mats
        ],
    }
    doc["options"] = [
        _option_entry(model, spec, args.mc, args.paths, i, seed) for i, spec in enumerate(specs)
    ]
    _write_lines(out, [json.dumps(doc, indent=2, sort_keys=True)])
    return 0


def cmd_surface(cfg: dict, seed: int, out: Optional[str], args) -> int:
    model = model_from_config(cfg)
    fields = {"bond_maturity": _float, "expiries": _floats, "strikes": _floats}
    p = _block(cfg.get("surface"), "surface", fields, required=tuple(fields))
    T, expiries, strikes = p["bond_maturity"], p["expiries"], p["strikes"]
    if not expiries or not strikes:
        raise ConfigError("surface needs nonempty expiries and strikes")

    rows = []
    for i, (e, k) in enumerate((e, k) for e in expiries for k in strikes):
        spec = OptionSpec(expiry=e, maturity=T, strike=k)
        entry = _option_entry(model, spec, args.mc, args.paths, i, seed)
        row = [e, k, entry["price"], entry["status"]]
        row.append(entry.get("xi_star", math.nan))
        row.append(entry.get("residual", math.nan))
        if args.mc:
            row.extend([entry["mc_price"], entry["mc_std_error"]])
        rows.append(row)

    columns = ["expiry", "strike", "price", "status", "xi_star", "residual"]
    if args.mc:
        columns += ["mc_price", "mc_std_error"]
    header = [
        "levyrates surface: European calls on one bond over an expiry x strike grid",
        f"bond_maturity={_fmt(T)}",
        _UNITS,
        f"config_hash={config_hash(cfg, seed)} seed={seed}",
    ]
    _write_lines(out, _csv_lines(header, columns, rows))
    return 0


def cmd_validate(cfg: dict, seed: int, out: Optional[str], args) -> int:
    # vet the curve alone first: a curve that breaks its own contract (say
    # a negative flat yield) should yield a failing report, not a crash
    # while assembling the model around it
    if "curve" not in cfg:
        raise ConfigError("config is missing the 'curve' block")
    ts = curve_from_config(cfg["curve"])
    quadrature_from_config(cfg.get("quadrature"))  # a malformed block is an error even here
    header = [
        "# levyrates validate: model invariant suite",
        f"# config_hash={config_hash(cfg, seed)} seed={seed}",
    ]
    curve_report = validate_term_structure(ts)
    if not curve_report.passed:
        lines = [c.line() for c in curve_report.checks]
        lines.append("FAILED: the initial curve violates its contract; model checks skipped")
        _write_lines(out, header + lines)
        return 3
    model = model_from_config(cfg)
    report = run_validation(model, seed=seed, paths=args.paths)
    _write_lines(out, header + report.lines())
    if out is not None:
        sys.stdout.write(("OK" if report.passed else "FAILED") + f": report written to {out}\n")
    return 0 if report.passed else 3


# Same market setting as the surface demo configs: flat 3% curve and an
# exponentially decaying tilt (sign flipped for the gamma driver, whose
# support is one-sided).
_BENCH_MODELS = {
    "gbm": {
        "curve": {"form": "flat", "yield": 0.03},
        "family": {"family": "gbm"},
        "phi": {"c": 1.0, "b": 0.02},
    },
    "jd": {
        "curve": {"form": "flat", "yield": 0.03},
        "family": {"family": "jd", "lambda": 5.0, "mu": 0.0, "delta": 1.0},
        "phi": {"c": 1.0, "b": 0.02},
    },
    "gamma": {
        "curve": {"form": "flat", "yield": 0.03},
        "family": {"family": "gamma", "m": 1.0, "kappa": 0.5},
        "phi": {"c": -1.0, "b": 0.02},
    },
    "vg": {
        "curve": {"form": "flat", "yield": 0.03},
        "family": {"family": "vg", "mu": 0.02, "sigma": 0.3, "m": 20.0},
        "phi": {"c": 1.0, "b": 0.02},
    },
}


# timed runs per family in `bench`; the table keeps the fastest
_BENCH_RUNS = 3


def cmd_bench(cfg: None, seed: int, out: Optional[str], args) -> int:
    """Time 100 analytic call prices for each driver family; reads no config.

    Each family is priced _BENCH_RUNS times on a fresh model (cold
    evaluator caches), the runs of the families interleaved, and the table
    reports each family's fastest run: a slow spell of a shared host that
    hits one run does not decide the ordering. Timings go to stdout; the
    optional output file carries only the price values so reruns stay
    byte-identical.
    """
    # the gamma driver's one-sided support caps bond prices from below at
    # P(t,T,0) ~ 0.996 x forward on this grid, so the strike band hugs the
    # forward to keep every strike attainable for every family
    expiries = np.linspace(0.5, 3.0, 10).tolist()
    factors = np.linspace(0.998, 1.030, 10).tolist()
    tenor = 2.0
    n = len(expiries) * len(factors)
    best: Dict[str, float] = {}
    rows: Dict[str, list] = {}
    for _ in range(_BENCH_RUNS):
        for name, mcfg in _BENCH_MODELS.items():
            model = model_from_config(mcfg)
            jobs = []
            for e in expiries:
                fwd = model.ts.forward_price(e, e + tenor)
                for f in factors:
                    jobs.append(OptionSpec(expiry=e, maturity=e + tenor, strike=f * fwd))
            t0 = time.perf_counter()
            prices = [price_call(model, spec).price for spec in jobs]
            best[name] = min(best.get(name, math.inf), time.perf_counter() - t0)
            rows[name] = [(name, s.expiry, s.maturity, s.strike, p) for s, p in zip(jobs, prices)]

    sys.stdout.write(f"{'family':<8}{'prices':>8}{'seconds':>12}{'ms/price':>12}\n")
    for name, elapsed in best.items():
        sys.stdout.write(f"{name:<8}{n:>8}{elapsed:>12.3f}{1e3 * elapsed / n:>12.2f}\n")
    sys.stdout.write(f"slowest: {max(best, key=best.get)}\n")

    if out is not None:
        header = [
            "levyrates bench: analytic call prices on the benchmark grid",
            _UNITS,
            f"config_hash={config_hash({}, seed)} seed={seed}",
        ]
        table = [row for family in rows.values() for row in family]
        _write_lines(
            out,
            _csv_lines(header, ["family", "expiry", "maturity", "strike", "price"], table),
        )
    return 0


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are config errors (exit 1): exit 2 is a
    numerical failure here, not a malformed command line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# subcommand -> (handler, help, the flags beyond --seed/--out it reads)
_COMMANDS = {
    "simulate": (cmd_simulate, "simulate one driver path with bond and short-rate columns (CSV)", ("--config",)),
    "price": (cmd_price, "price bonds, rates, and options at one state (JSON)", ("--config", "--mc", "--paths")),
    "surface": (
        cmd_surface, "price a call option grid over expiries and strikes (CSV)", ("--config", "--mc", "--paths")
    ),
    "validate": (cmd_validate, "run the model invariant suite", ("--config", "--paths")),
    "bench": (cmd_bench, "time 100 analytic call prices per family", ()),
}


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    p = _Parser(
        prog="levyrates",
        description="Rational term-structure models driven by exponential Levy martingales",
    )
    sub = p.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, help_text, flags) in _COMMANDS.items():
        q = commands[name] = sub.add_parser(name, help=help_text)
        if "--config" in flags:
            q.add_argument("--config", required=True, help="path to the JSON config")
        q.add_argument("--seed", type=int, default=0, help="random seed (unsigned 64-bit)")
        q.add_argument("--out", help="output file path (default: stdout)")
        if "--mc" in flags:
            q.add_argument("--mc", action="store_true", help="add Monte Carlo price columns")
        if "--paths" in flags:
            q.add_argument("--paths", type=int, help=f"Monte Carlo path count (default {MC_PATHS})")
    return p, commands


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser, commands = _build_parser()
        # argparse hands a subcommand's unknown flags up to the top-level
        # parser; report them with the subcommand's own usage line
        args, extra = parser.parse_known_args(argv)
        usage_error = commands[args.command].error
        if extra:
            usage_error(f"unrecognized arguments: {' '.join(extra)}")
        if not (0 <= args.seed < 2**64):
            raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {args.seed}")
        if "mc" in args and args.paths is not None and not args.mc:
            usage_error(f"{args.command}: --paths needs --mc")
        if "paths" in args:
            if args.paths is None:
                args.paths = MC_PATHS
            elif args.paths < 1000:
                raise ConfigError(f"--paths must be at least 1000, got {args.paths}")
        cfg = load_config(args.config) if "config" in args else None
        return _COMMANDS[args.command][0](cfg, args.seed, args.out, args)
    except (ConfigError, DomainError, UnsupportedModelError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
