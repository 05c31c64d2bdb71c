"""Acceptance suite: ten go/no-go criteria, one printed verdict line each.

Each criterion prints one PASS/FAIL line; the lines are also replayed in
the terminal summary (see conftest) so they stay visible under output
capture. Statistical checks use fixed seeds and stated confidence bands
(4 SE for means, 3 SE for the pricing oracle); runtime budgets are
asserted where a criterion carries one.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

import levyrates as lr
from levyrates import ModelState, OptionSpec, bond_price
from levyrates.cli import main as cli_main
from levyrates.options import _poisson_cutoff, price_call, solve_critical_level
from levyrates.specialfn import reg_upper_gamma
from oracles import PsiArgs, norm_cdf, psi_integral


# verdict lines are replayed by the terminal-summary hook in conftest.py so
# they stay visible under output capture
VERDICTS: list = []


def _announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"acceptance {num:>2} [{tag}] {name}"
    if detail:
        line += f": {detail}"
    VERDICTS.append(line)
    print(line, flush=True)


class _Report:
    detail = ""


@contextmanager
def criterion(num: int, name: str):
    rep = _Report()
    try:
        yield rep
    except BaseException as exc:
        extra = rep.detail or f"{type(exc).__name__}: {exc}"
        _announce(num, name, False, extra)
        raise
    _announce(num, name, True, rep.detail)


# -- 1: martingale normalization ------------------------------------------------


def test_criterion_1_martingale_unit_mean(all_figure_models):
    with criterion(1, "martingale unit mean, 1e6 exact draws per case") as rep:
        t0 = time.perf_counter()
        n = 1_000_000
        worst = 0.0
        cases = 0
        for idx, (name, model) in enumerate(all_figure_models.items()):
            fam, phi = model.fam, model.phi
            for jdx, t in enumerate((1.0, 5.0)):
                rng = lr.spawn_stream(101, 10 * idx + jdx)
                x = np.asarray(fam.sample_increment(t, rng, n), dtype=float)
                for s in sorted({t, 5.0, 10.0}):
                    ph = float(phi(s))
                    m = np.exp(ph * x - t * float(fam.exponent(ph)))
                    se = m.std(ddof=1) / math.sqrt(n)
                    z = abs(float(m.mean()) - 1.0) / se
                    worst = max(worst, z)
                    cases += 1
        elapsed = time.perf_counter() - t0
        rep.detail = f"{cases} cases, max |z| = {worst:.2f}, {elapsed:.1f}s"
        assert worst <= 4.0
        assert elapsed <= 60.0


# -- 2: kernel mean recovers the initial curve -----------------------------------


def test_criterion_2_kernel_consistency(all_figure_models):
    with criterion(2, "pricing-kernel mean equals P0(t), all families") as rep:
        t0 = time.perf_counter()
        n = 1_000_000
        worst = 0.0
        for idx, (name, model) in enumerate(all_figure_models.items()):
            for jdx, t in enumerate((1.0, 5.0)):
                rng = lr.spawn_stream(202, 10 * idx + jdx)
                xi = np.asarray(model.fam.sample_increment(t, rng, n), dtype=float)
                ev = model.evaluator(t)
                vals = np.exp(ev.log_integral_batch(xi, [t])[t])
                se = vals.std(ddof=1) / math.sqrt(n)
                z = abs(float(vals.mean()) - float(model.ts.discount_factor(t))) / se
                worst = max(worst, z)
        elapsed = time.perf_counter() - t0
        rep.detail = f"8 cases, max |z| = {worst:.2f}, {elapsed:.1f}s"
        assert worst <= 4.0
        assert elapsed <= 300.0


# -- 3: closed forms against the Monte Carlo oracle -------------------------------

# strike factors are multiples of the forward bond price, with OTM factors
# sized to the bond-ratio distribution at each (t, T) so every strike keeps
# a real exercise probability at 1e6 paths; the gamma entries are resolved
# at runtime against the attainable floor P(t, T, 0)
PRICING_PLAN = [
    ("gbm_fig1", "gbm", [
        (0.5, 2.0, (0.96, 1.0, 1.005)),
        (1.0, 3.0, (0.96, 1.0, 1.009)),
        (1.0, 5.0, (0.96, 1.0, 1.02)),
        (3.0, 5.0, (0.96, 1.0, 1.02)),
    ]),
    ("jd_fig2", "jd", [
        (1.0, 3.0, (0.96, 1.0, 1.010)),
        (1.0, 5.0, (0.96, 1.0, 1.02)),
    ]),
    ("jd_fig5", "jd5", [
        (1.0, 5.0, (0.90, 1.0, 1.05)),
        (2.0, 5.0, (0.90, 1.0, 1.05)),
    ]),
    ("gamma_fig3", "gamma", [
        (0.5, 2.0, None),
        (1.0, 3.0, None),
        (1.0, 5.0, None),
        (3.0, 5.0, None),
    ]),
    ("vg_fig4", "vg", [
        (1.0, 3.0, (0.96, 1.0, 1.011)),
        (1.0, 5.0, (0.96, 1.0, 1.02)),
    ]),
    ("vg_fig5", "vg5", [
        (1.0, 5.0, (0.95, 1.0, 1.03)),
        (2.0, 5.0, (0.95, 1.0, 1.03)),
    ]),
]


def _gamma_strikes(model, t, T):
    # attainable band is (P(t,T,0), 1); pick strikes solidly inside it on
    # the ITM side, at the forward, and a symmetric distance OTM
    fwd = float(model.ts.discount_factor(T)) / float(model.ts.discount_factor(t))
    floor = bond_price(model, ModelState(t=t, xi=0.0), T)
    gap = fwd - floor
    return (floor + 0.3 * gap, fwd, fwd + gap)


def _jd_weight_minus(fam, t, xi_star, phi_s, n_max):
    # the rejected sign choice for the tilted jump intensity, kept here as
    # the counter-hypothesis the oracle must rule out
    from scipy.special import gammaln, ndtr

    lam_t = t * fam.lam * np.exp(phi_s * fam.mu - 0.5 * phi_s * phi_s * fam.delta**2)
    n = np.arange(n_max + 1, dtype=float)
    v_n = np.sqrt(t + n * fam.delta**2)
    with np.errstate(divide="ignore"):
        log_w = n[None, :] * np.log(lam_t[:, None]) - lam_t[:, None] - gammaln(n + 1.0)[None, :]
    args = (xi_star - n[None, :] * fam.mu) / v_n[None, :] - phi_s[:, None] * v_n[None, :]
    return np.einsum("sn,sn->s", np.exp(log_w), ndtr(args))


def _price_jd_minus(model, spec):
    crit = solve_critical_level(model, spec)
    t, T, K = spec.expiry, spec.maturity, spec.strike
    phi_t = float(model.phi(t))
    lam_max = t * model.fam.lam * math.exp(
        phi_t * model.fam.mu + 0.5 * phi_t * phi_t * model.fam.delta**2
    )
    n_max = _poisson_cutoff(lam_max, 1e-12)
    rho = model.ts.density

    def integrand(s):
        phi_s = np.array([float(model.phi(s))])
        return float(rho(s)) * float(_jd_weight_minus(model.fam, t, crit.xi_star, phi_s, n_max)[0])

    def outer(lower):  # breakpoints: an 8-way equal split of [lower, S_max]
        pts = np.linspace(lower, model.s_max, 9)
        return quad(integrand, lower, model.s_max, points=pts[1:-1], epsrel=1e-10, epsabs=1e-14, limit=500)[0]

    return outer(T) - K * outer(t)


def test_criterion_3_analytic_vs_oracle(all_figure_models, jd5_model, vg5_model):
    with criterion(3, "48 option prices within 3 SE of 1e6-path MC; JD tilt sign adjudicated") as rep:
        t0 = time.perf_counter()
        models = dict(all_figure_models)
        models["jd5"] = jd5_model
        models["vg5"] = vg5_model
        n = 1_000_000
        worst = 0.0
        triples = 0
        jd_sign_margin = None
        for gi, (label, key, pairs) in enumerate(PRICING_PLAN):
            model = models[key]
            by_t = {}
            for t, T, factors in pairs:
                by_t.setdefault(t, []).append((T, factors))
            for t, targets in by_t.items():
                rng = lr.spawn_stream(303, 100 * gi + int(10 * t))
                xi = np.asarray(model.fam.sample_increment(t, rng, n), dtype=float)
                ev = model.evaluator(t)
                lowers = [t] + sorted({T for T, _ in targets if T > t})
                logs = ev.log_integral_batch(xi, lowers)
                k_t = np.exp(logs[t])
                for T, factors in targets:
                    k_T = np.exp(logs[T])
                    fwd = float(model.ts.discount_factor(T)) / float(model.ts.discount_factor(t))
                    strikes = (
                        _gamma_strikes(model, t, T) if factors is None else tuple(f * fwd for f in factors)
                    )
                    for K in strikes:
                        spec = OptionSpec(expiry=t, maturity=T, strike=K)
                        res = price_call(model, spec)
                        assert res.status == "ok", (label, t, T, K, res.status)
                        payoff = np.maximum(k_T - K * k_t, 0.0)
                        mc = float(payoff.mean())
                        se = float(payoff.std(ddof=1)) / math.sqrt(n)
                        assert se > 0.0, (label, t, T, K, "no exercise hits")
                        z = abs(res.price - mc) / se
                        worst = max(worst, z)
                        triples += 1
                        if label == "jd_fig5" and t == 1.0 and K == fwd:
                            wrong = _price_jd_minus(model, spec)
                            jd_sign_margin = abs(wrong - mc) / se
        elapsed = time.perf_counter() - t0
        rep.detail = (
            f"{triples} triples, max |z| = {worst:.2f}; "
            f"rejected JD sign off by {jd_sign_margin:.0f} SE; {elapsed:.0f}s"
        )
        assert triples == 48
        assert worst <= 3.0
        assert jd_sign_margin is not None and jd_sign_margin > 10.0
        assert elapsed <= 600.0


# -- 4: trivial limits are exact ---------------------------------------------------


def test_criterion_4_trivial_limits(all_figure_models, flat2):
    with criterion(4, "constant-phi, t=0, and T=t limits exact to stated precision") as rep:
        const_model = lr.RateModel(
            ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=0.5, b=0.0)
        )
        P0 = flat2.discount_factor
        rng = lr.spawn_stream(404, 0)
        worst_const = 0.0
        for _ in range(20):
            t = float(rng.uniform(0.1, 4.0))
            xi = float(rng.normal(0.0, 2.0))
            for dT in (1.0, 4.0, 9.0):
                got = lr.bond_price(const_model, ModelState(t=t, xi=xi), t + dT)
                want = float(P0(t + dT)) / float(P0(t))
                worst_const = max(worst_const, abs(got - want))
        worst_zero = 0.0
        for model in all_figure_models.values():
            state = ModelState(t=0.0, xi=0.0)
            for T in (0.5, 2.0, 5.0, 10.0, 20.0):
                got = lr.bond_price(model, state, T)
                worst_zero = max(worst_zero, abs(got - float(model.ts.discount_factor(T))))
        exact_one = all(
            lr.bond_price(m, ModelState(t=1.5, xi=0.25), 1.5) == 1.0
            for m in all_figure_models.values()
        )
        rep.detail = f"constant-phi err {worst_const:.2e}, t=0 err {worst_zero:.2e}, T=t exact"
        assert worst_const <= 1e-12
        assert worst_zero <= 1e-12
        assert exact_one


# -- 5: risk premium positivity -----------------------------------------------------


def test_criterion_5_risk_premium_positive(gbm_model, gamma_model):
    with criterion(5, "risk premium positive at 10^4 sampled states, both phi classes") as rep:
        states_per_t = 3400
        checked = 0
        min_premium = math.inf
        for mi, model in enumerate((gbm_model, gamma_model)):
            for ti, t in enumerate((0.5, 1.0, 3.0)):
                rng = lr.spawn_stream(505, 10 * mi + ti)
                xi = np.asarray(model.fam.sample_increment(t, rng, states_per_t), dtype=float)
                ev = model.evaluator(t)
                lowers = [t, t + 1.0, t + 4.0]
                avg = ev.phi_average_batch(xi, lowers)
                phi_tt = avg[t]
                for T in (t + 1.0, t + 4.0):
                    premium = phi_tt * (phi_tt - avg[T])
                    checked += premium.size
                    min_premium = min(min_premium, float(premium.min()))
                    assert np.all(premium > 0.0)
        rep.detail = f"{checked} premiums over 20400 states, min = {min_premium:.3e}"
        assert checked >= 2 * 10_000


# -- 6: bond price monotone in the driver --------------------------------------------


def test_criterion_6_monotone_in_driver(gbm_model, gamma_model):
    with criterion(6, "P(t,T,xi) strictly monotone on 201-point grids; residuals <= 1e-12") as rep:
        t, T = 1.0, 3.0
        down = np.array([bond_price(gbm_model, ModelState(t=t, xi=x), T) for x in np.linspace(-4.0, 4.0, 201)])
        assert np.all(np.diff(down) < 0.0)
        up = np.array([bond_price(gamma_model, ModelState(t=t, xi=x), T) for x in np.linspace(0.0, 8.0, 201)])
        assert np.all(np.diff(up) > 0.0)
        worst_res = 0.0
        for model, strikes in (
            (gbm_model, (0.92, 0.96, 0.985)),
            (gamma_model, (0.956, 0.9608, 0.972)),
        ):
            for K in strikes:
                crit = solve_critical_level(model, OptionSpec(expiry=t, maturity=T, strike=K))
                worst_res = max(worst_res, crit.residual)
        rep.detail = f"both orientations strict; max residual = {worst_res:.2e}"
        assert worst_res <= 1e-12


# -- 7: special function accuracy ------------------------------------------------------


def test_criterion_7_special_functions():
    with criterion(7, "normal CDF, gamma tail, and mixture integral accuracy") as rep:
        import mpmath as mp

        mp.mp.dps = 30
        xs = np.linspace(-8.2, 8.2, 1001)
        worst_cdf = max(abs(norm_cdf(float(x)) - float(mp.ncdf(float(x)))) for x in xs)
        assert worst_cdf <= 1e-12

        grid = np.geomspace(1e-3, 50.0, 200)
        worst_exp = float(np.max(np.abs(reg_upper_gamma(1.0, grid) - np.exp(-grid))))
        assert worst_exp <= 1e-12

        rng = lr.spawn_stream(707, 0)
        worst_z = 0.0
        n = 400_000
        for _ in range(20):
            a = float(rng.uniform(-3.0, 3.0))
            b = float(rng.uniform(-2.0, 2.0))
            c = float(np.exp(rng.uniform(np.log(0.2), np.log(40.0))))
            u = np.maximum(rng.gamma(c, size=n), np.finfo(float).tiny)
            with np.errstate(over="ignore"):
                vals = norm_cdf(a / np.sqrt(u) + b * np.sqrt(u))
            se = vals.std(ddof=1) / math.sqrt(n)
            z = abs(float(vals.mean()) - psi_integral(PsiArgs(a=a, b=b, c=c))) / se
            worst_z = max(worst_z, z)
        rep.detail = (
            f"cdf err {worst_cdf:.1e}, tail err {worst_exp:.1e}, mixture max |z| = {worst_z:.2f}"
        )
        assert worst_z <= 4.0


# -- 8: figure-shape reproduction --------------------------------------------------------


def _read_csv(path):
    lines = open(path).read().splitlines()
    k = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cols = lines[k].split(",")
    rows = [ln.split(",") for ln in lines[k + 1 :]]
    return cols, rows


def test_criterion_8_figure_shapes(tmp_path):
    with criterion(8, "simulated paths show the documented qualitative shapes") as rep:
        configs = {
            "gbm": "configs/fig1_gbm.json",
            "jd": "configs/fig2_jd.json",
            "gamma": "configs/fig3_gamma.json",
            "vg": "configs/fig4_vg.json",
        }
        terminal_ok = True
        for name, cfg in configs.items():
            out = str(tmp_path / f"{name}.csv")
            assert cli_main(["simulate", "--config", cfg, "--seed", "11", "--out", out]) == 0
            cols, rows = _read_csv(out)
            assert cols == ["time", "X", "bond_price_to_T", "short_rate"]
            terminal_ok = terminal_ok and float(rows[-1][2]) == 1.0

        # gamma driver jumps push the short rate strictly down
        _, rows = _read_csv(str(tmp_path / "gamma.csv"))
        x = np.array([float(r[1]) for r in rows])
        r_short = np.array([float(r[3]) for r in rows])
        jumps = np.flatnonzero(np.diff(x) > 0.1)
        assert jumps.size >= 1
        drops = np.diff(r_short)[jumps]
        assert np.all(drops < 0.0)

        # jd paths over 5 years at lam=20 all jump at least once: the
        # zero-jump probability e^{-100} makes even one jumpless path out
        # of 1000 a rejection at overwhelming confidence
        fam = lr.JumpDiffusionFamily(lam=20.0, mu=0.0, delta=0.09)
        _, _, counts = fam.sample_components(5.0, lr.spawn_stream(808, 0), 1000)
        jumpless = int(np.sum(counts == 0))
        rep.detail = (
            f"terminal bonds 1.0; {jumps.size} gamma jumps all lower the short rate; "
            f"{jumpless}/1000 jd paths without jumps"
        )
        assert terminal_ok
        assert jumpless == 0


# -- 9: benchmark ordering ------------------------------------------------------------------


def test_criterion_9_bench_ordering(capsys):
    with criterion(9, "bench: 100 prices per family, JD strictly slowest, total <= 60s") as rep:
        assert cli_main(["bench"]) == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[0] in ("gbm", "jd", "gamma", "vg"):
                rows[parts[0]] = (int(parts[1]), float(parts[2]))
        assert set(rows) == {"gbm", "jd", "gamma", "vg"}
        assert all(n == 100 for n, _ in rows.values())
        total = sum(sec for _, sec in rows.values())
        jd_time = rows["jd"][1]
        others = max(sec for fam, (_, sec) in rows.items() if fam != "jd")
        rep.detail = (
            f"jd {jd_time:.2f}s vs next {others:.2f}s, total {total:.1f}s; 'slowest: jd' reported"
        )
        assert "slowest: jd" in out
        assert jd_time > others
        assert total <= 60.0


# -- 10: convergence stability ------------------------------------------------------------------


def _rep_options(name):
    if name in ("gamma",):
        return [(1.0, 3.0, 0.956), (1.0, 3.0, 0.9608), (1.0, 5.0, 0.93)]
    if name in ("jd5", "vg5"):
        return [(1.0, 5.0, 0.82), (2.0, 5.0, 0.86), (3.0, 5.0, 0.90)]
    return [(1.0, 3.0, 0.92), (1.0, 3.0, 0.96), (1.0, 5.0, 0.90)]


def test_criterion_10_convergence_stability(all_figure_models, jd5_model, vg5_model):
    with criterion(10, "halved tolerance and doubled JD cutoff move no price by 1e-8") as rep:
        models = dict(all_figure_models)
        models["jd5"] = jd5_model
        models["vg5"] = vg5_model
        worst = 0.0
        n_prices = 0
        for name, model in models.items():
            tight = lr.RateModel(ts=model.ts, fam=model.fam, phi=model.phi, rel_tol=model.rel_tol / 2.0)
            for t, T, K in _rep_options(name):
                spec = OptionSpec(expiry=t, maturity=T, strike=K)
                kwargs = {}
                if isinstance(model.fam, lr.JumpDiffusionFamily):
                    phi_t = float(model.phi(t))
                    lam_max = t * model.fam.lam * math.exp(
                        phi_t * model.fam.mu + 0.5 * phi_t * phi_t * model.fam.delta**2
                    )
                    kwargs["jd_n_max"] = 2 * _poisson_cutoff(lam_max, 1e-12)
                base = price_call(model, spec).price
                moved = price_call(tight, spec, **kwargs).price
                worst = max(worst, abs(moved - base))
                n_prices += 1
        rep.detail = f"{n_prices} prices, max shift = {worst:.2e}"
        assert worst < 1e-8
