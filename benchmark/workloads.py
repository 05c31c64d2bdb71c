"""Seeded inputs, units of work and output checks of the three workloads.

Each workload draws its inputs from the seed once, at set-up, and splits
one pass over them into units: an expiry row of option prices, one
third of a driver path's states, one Monte Carlo option. A unit builds a
fresh RateModel, so it starts with a cold evaluator cache, as a CLI run
does, and runs its inputs through the package's public API. Evaluators
are keyed by valuation time and no two units share one, so a unit does
the same work and gives the same outputs whatever ran before it.

Every operation is checked. Checks that need no reference hold for any
seed; with a reference (the recorded outputs for seed 0, or the first
run of the same unit for any other seed) every output must also agree
with it to relative 1e-10, the package's quadrature contract.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

import levyrates as lr

FAMILIES = ("gbm", "jd", "gamma", "vg")
YIELD = 0.03
TILT_DECAY = 0.02
REL_TOL = 1e-10  # the package's quadrature contract
RESIDUAL_TOL = 1e-12  # the critical-level solver's residual contract
MC_SE_LIMIT = 4.0
MAX_REPORTED_ERRORS = 5


def family(name):
    """The four drivers of the package's `bench` command."""
    if name == "gbm":
        return lr.BrownianFamily()
    if name == "jd":
        return lr.JumpDiffusionFamily(lam=5.0, mu=0.0, delta=1.0)
    if name == "gamma":
        return lr.GammaFamily(m=1.0, kappa=0.5)
    return lr.VarianceGammaFamily(mu=0.02, sigma=0.3, m=20.0)


def build_model(name):
    # the one-sided gamma driver needs the increasing (negative) tilt
    c = -1.0 if name == "gamma" else 1.0
    return lr.RateModel(
        ts=lr.FlatYieldCurve(y=YIELD), fam=family(name), phi=lr.ExpDecayPhi(c=c, b=TILT_DECAY)
    )


class Workload:
    """Seeded inputs split into units; one pass runs every unit once.

    Subclasses set `name`, `unit` (what one operation is), `ops_per_unit`,
    `recorded` (output name -> absolute floor under the relative
    tolerance, for values that may sit near zero) and `units`, and
    implement `run_unit` and `check_unit`.
    """

    name = ""
    unit = ""
    ops_per_unit = 0
    recorded = {}
    units = ()

    def __init__(self, seed):
        self.seed = seed
        self.errors = []

    @property
    def ops(self):
        """Operations in one pass."""
        return self.ops_per_unit * len(self.units)

    def span(self, u):
        return slice(u * self.ops_per_unit, (u + 1) * self.ops_per_unit)

    def _fail(self, exc):
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"{self.name}: {type(exc).__name__}: {exc}")

    def _empty(self, keys):
        return {k: np.full(self.ops_per_unit, np.nan) for k in keys}

    def check(self, u, out, want):
        """Boolean array, one entry per operation of unit u; want holds the
        unit's reference outputs, or is None."""
        ok = self.check_unit(u, out)
        if want is not None:
            for key, floor in self.recorded.items():
                ok &= np.abs(out[key] - want[key]) <= REL_TOL * np.abs(want[key]) + floor
        return ok

    def report_errors(self):
        for line in self.errors:
            print(line, file=sys.stderr)


class OptionGrid(Workload):
    """Analytic calls on a seeded expiry x strike grid, 100 per family.

    Per family: 10 expiries in U[0.5, 3] x 10 strike factors in
    U[0.998, 1.030] times the forward bond price, on a 2-year tenor. The
    band hugs the forward because the gamma driver's one-sided support
    caps bond prices from below near 0.996 x forward; every strike in it
    is attainable for every family. A unit is one expiry row.
    """

    name = "option_grid"
    unit = "price"
    TENOR = 2.0
    EXPIRIES = 10
    STRIKES = 10
    ops_per_unit = STRIKES
    # critical levels can sit near zero, and the solver pins them to an
    # absolute xtol of 1e-14; far out-of-the-money prices can be tiny
    recorded = {"price": 1e-15, "xi_star": 1e-13}

    def __init__(self, seed):
        super().__init__(seed)
        P0 = lr.FlatYieldCurve(y=YIELD).discount_factor
        units = []
        for k, fam in enumerate(FAMILIES):
            rng = lr.spawn_stream(seed, k)
            expiries = np.sort(rng.uniform(0.5, 3.0, self.EXPIRIES))
            factors = np.sort(rng.uniform(0.998, 1.030, self.STRIKES))
            for e in expiries:
                T = e + self.TENOR
                p_t, p_T = float(P0(e)), float(P0(T))
                specs = [
                    lr.OptionSpec(expiry=float(e), maturity=float(T), strike=float(f * p_T / p_t))
                    for f in factors
                ]
                lower = np.array([max(p_T - s.strike * p_t, 0.0) for s in specs])
                units.append((fam, specs, lower, p_T))
        self.units = units

    def run_unit(self, u, tracer):
        fam, specs, _, _ = self.units[u]
        out = self._empty(("price", "xi_star", "residual"))
        status_ok = np.zeros(self.ops_per_unit, dtype=bool)
        lat = np.empty(self.ops_per_unit)
        model = build_model(fam)
        span = f"options.price_call.{fam}"
        for i, spec in enumerate(specs):
            t0 = perf_counter()
            try:
                res = tracer.call(span, lr.price_call, model, spec)
            except Exception as exc:  # counted as a failed operation
                self._fail(exc)
            else:
                out["price"][i] = res.price
                status_ok[i] = res.status == "ok"
                if res.critical is not None:
                    out["xi_star"][i] = res.critical.xi_star
                    out["residual"][i] = res.critical.residual
            lat[i] = perf_counter() - t0
        out["status_ok"] = status_ok
        return out, lat

    def check_unit(self, u, out):
        _, _, lower, upper = self.units[u]
        price = out["price"]
        # the bounds are exact; allow the quadrature contract's error
        slack = REL_TOL * upper
        ok = out["status_ok"] & (out["residual"] <= RESIDUAL_TOL)
        ok &= (price >= lower - slack) & (price <= upper + slack)
        # strikes ascend along the row: prices must not rise
        ok[1:] &= price[1:] <= price[:-1] + slack
        return ok


class CurvePath(Workload):
    """Bond price to T=5 and short rate along one exact path per family.

    Each family draws one driver path with `sample_path` on 500 steps to
    T=5 from a seeded stream, then values the bond and the short rate at
    each of the 501 states. Every state has a new valuation time, so each
    one builds a kernel evaluator and refines it.

    A unit is a third of one path: it builds a fresh model, draws the
    whole path from the path's stream (the same path every time; the draw
    is about 1% of the unit) and values its 167 states. Units of about
    0.2 s, rather than whole paths, put the host-speed gauge readings
    around a unit closer to the work they scale.
    """

    name = "curve_path"
    unit = "state"
    MATURITY = 5.0
    STEPS = 500
    CHUNKS = 3
    ops_per_unit = (STEPS + 1) // CHUNKS
    recorded = {"x": 0.0, "bond": 0.0, "rate": 0.0}

    def __init__(self, seed):
        super().__init__(seed)
        self.times = np.linspace(0.0, self.MATURITY, self.STEPS + 1)
        # (family index, third of the path)
        self.units = [(k, c) for k in range(len(FAMILIES)) for c in range(self.CHUNKS)]

    def run_unit(self, u, tracer):
        k, c = self.units[u]
        states = range(c * self.ops_per_unit, (c + 1) * self.ops_per_unit)
        out = self._empty(("x", "bond", "rate"))
        lat = np.full(self.ops_per_unit, np.nan)
        model = build_model(FAMILIES[k])
        rng = lr.spawn_stream(self.seed, 10 + k)
        try:
            x = tracer.call("levy.sample_path", lr.sample_path, model.fam, self.times[1:], rng)
        except Exception as exc:  # every state of the unit fails
            self._fail(exc)
            return out, lat
        out["x"] = np.concatenate([[0.0], x])[states]
        for i, j in enumerate(states):
            state = lr.ModelState(t=float(self.times[j]), xi=float(out["x"][i]))
            t0 = perf_counter()
            try:
                out["bond"][i] = tracer.call(
                    "curve.bond_price", lr.bond_price, model, state, self.MATURITY
                )
                out["rate"][i] = tracer.call("curve.short_rate", lr.short_rate, model, state)
            except Exception as exc:  # counted as a failed operation
                self._fail(exc)
            lat[i] = perf_counter() - t0
        return out, lat

    def check_unit(self, u, out):
        bond, rate = out["bond"], out["rate"]
        ok = (bond > 0.0) & (bond <= 1.0) & (rate > 0.0) & np.isfinite(rate)
        if self.units[u][1] == self.CHUNKS - 1:
            ok[-1] &= bond[-1] == 1.0  # the bond at its maturity
        return ok


class MCBatch(Workload):
    """Monte Carlo calls, 200,000 seeded exact draws per option.

    Per family, two at-the-money-forward calls (expiry 1 and 2, tenor 2),
    each from its own seeded stream. A unit is one option. The estimate
    must lie within 4 standard errors of the analytic price, which is
    computed once, outside any timed region.
    """

    name = "mc_batch"
    unit = "option"
    PATHS = 200_000
    TENOR = 2.0
    ops_per_unit = 1
    recorded = {"estimate": 0.0, "std_error": 0.0}

    def __init__(self, seed):
        super().__init__(seed)
        P0 = lr.FlatYieldCurve(y=YIELD).discount_factor
        specs = []
        for e in (1.0, 2.0):
            T = e + self.TENOR
            specs.append(lr.OptionSpec(expiry=e, maturity=T, strike=float(P0(T)) / float(P0(e))))
        self.units = [(fam, spec) for fam in FAMILIES for spec in specs]
        self._analytic = {}

    def run_unit(self, u, tracer):
        fam, spec = self.units[u]
        out = self._empty(("estimate", "std_error"))
        model = build_model(fam)
        rng = lr.spawn_stream(self.seed, 20 + u)
        t0 = perf_counter()
        try:
            est, se = tracer.call(
                "options.price_call_mc", lr.price_call_mc, model, spec, self.PATHS, rng
            )
        except Exception as exc:  # counted as a failed operation
            self._fail(exc)
        else:
            out["estimate"][0], out["std_error"][0] = est, se
        return out, np.array([perf_counter() - t0])

    def check_unit(self, u, out):
        if u not in self._analytic:
            fam, spec = self.units[u]
            self._analytic[u] = lr.price_call(build_model(fam), spec).price
        est, se = out["estimate"], out["std_error"]
        return (se > 0.0) & (np.abs(est - self._analytic[u]) <= MC_SE_LIMIT * se)


WORKLOADS = {w.name: w for w in (OptionGrid, CurvePath, MCBatch)}
