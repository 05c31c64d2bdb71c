"""Exponent closed forms, domains, and exact-sampler laws."""

from __future__ import annotations

import math

import numpy as np
import pytest

from levyrates import (
    BrownianFamily,
    DomainError,
    GammaFamily,
    JumpDiffusionFamily,
    VarianceGammaFamily,
    sample_path,
    spawn_stream,
)
from levyrates.cli import family_from_config
from levyrates.errors import ConfigError

GBM = BrownianFamily()
JD = JumpDiffusionFamily(lam=20.0, mu=0.0, delta=0.09)
JD5 = JumpDiffusionFamily(lam=5.0, mu=0.1, delta=1.0)
GAMMA = GammaFamily(m=1.0, kappa=0.5)
VG = VarianceGammaFamily(mu=0.5, sigma=0.3, m=5.0)

ALL = [GBM, JD, GAMMA, VG]


# -- exponent values: frozen against a 30-digit independent evaluation --------


def test_exponent_pinned_values():
    assert GBM.exponent(0.3) == pytest.approx(0.045, abs=1e-15)
    assert JD.exponent(0.7) == pytest.approx(0.28472940846688917, rel=1e-14)
    assert JD.exponent(-1.3) == pytest.approx(0.98235954245230573, rel=1e-14)
    assert JD5.exponent(0.8) == pytest.approx(2.7791234882063516, rel=1e-14)
    assert GAMMA.exponent(1.0) == pytest.approx(0.69314718055994531, rel=1e-14)
    assert GAMMA.exponent(-2.0) == pytest.approx(-0.69314718055994531, rel=1e-14)
    assert VG.exponent(1.0) == pytest.approx(0.57705425755663871, rel=1e-14)
    assert VG.exponent(-3.0) == pytest.approx(-0.99015425249567236, rel=1e-14)


def test_exponent_zero_is_exactly_zero():
    for fam in ALL:
        assert fam.exponent(0.0) == 0.0


def test_exponent_vectorized_matches_scalar():
    grid = np.array([-0.8, -0.1, 0.0, 0.4, 1.2])
    for fam in ALL:
        vec = fam.exponent(grid)
        assert vec.shape == grid.shape
        for a, v in zip(grid, vec):
            assert v == fam.exponent(float(a))


def test_vg_kappa_identities():
    # kappa1 - kappa2 = mu/m and 2 kappa1 kappa2 m = sigma^2
    assert VG.kappa1 - VG.kappa2 == pytest.approx(VG.mu / VG.m, rel=1e-14)
    assert 2.0 * VG.kappa1 * VG.kappa2 * VG.m == pytest.approx(VG.sigma**2, rel=1e-14)
    assert VG.kappa1 == pytest.approx(0.15723805294763608, rel=1e-14)
    assert VG.kappa2 == pytest.approx(0.057238052947636083, rel=1e-14)


def test_vg_quadratic_factorization():
    # 1 - (mu/m) a - (sigma^2/2m) a^2 == (1 - kappa1 a)(1 + kappa2 a)
    for a in np.linspace(-17.0, 6.3, 23):
        lhs = 1.0 - (VG.mu / VG.m) * a - (0.5 * VG.sigma**2 / VG.m) * a * a
        rhs = (1.0 - VG.kappa1 * a) * (1.0 + VG.kappa2 * a)
        assert lhs == pytest.approx(rhs, abs=1e-13)


# -- admissible domains -------------------------------------------------------


def test_domain_endpoints():
    assert GBM.exponent_domain() == (-math.inf, math.inf)
    assert JD.exponent_domain() == (-math.inf, math.inf)
    assert GAMMA.exponent_domain() == (-math.inf, 2.0)
    lo, hi = VG.exponent_domain()
    assert lo == pytest.approx(-1.0 / VG.kappa2, rel=1e-14)
    assert hi == pytest.approx(1.0 / VG.kappa1, rel=1e-14)


def test_domain_guard_rejects_boundary():
    with pytest.raises(DomainError):
        GAMMA.exponent(2.0)
    with pytest.raises(DomainError):
        GAMMA.exponent(2.0 - 1e-14)  # inside the bare interval, inside the guard
    lo, hi = VG.exponent_domain()
    with pytest.raises(DomainError):
        VG.exponent(hi)
    with pytest.raises(DomainError):
        VG.exponent(lo)
    assert GAMMA.contains(1.9)
    assert not GAMMA.contains(2.0)
    # unbounded families take any finite argument
    assert GBM.exponent(1e8) == 5e15
    assert np.isfinite(JD.exponent(50.0))


def test_domain_check_is_vectorized():
    with pytest.raises(DomainError):
        GAMMA.exponent(np.array([0.1, 0.5, 2.5]))


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.tag)
def test_domain_check_rejects_nan(fam):
    # a nan lies inside no interval: the exponent raises, never returns nan
    with pytest.raises(DomainError, match="exponent argument nan"):
        fam.exponent(math.nan)
    with pytest.raises(DomainError, match="exponent argument nan"):
        fam.exponent(np.array([0.1, math.nan, 0.2]))


# -- parameter validation -----------------------------------------------------


def test_parameter_validation():
    with pytest.raises(DomainError):
        JumpDiffusionFamily(lam=0.0, mu=0.0, delta=0.1)
    with pytest.raises(DomainError):
        JumpDiffusionFamily(lam=1.0, mu=0.0, delta=0.0)
    with pytest.raises(DomainError):
        GammaFamily(m=-1.0, kappa=0.5)
    with pytest.raises(DomainError):
        GammaFamily(m=1.0, kappa=0.0)
    with pytest.raises(DomainError):
        VarianceGammaFamily(mu=0.1, sigma=0.0, m=5.0)
    with pytest.raises(DomainError):
        VarianceGammaFamily(mu=0.1, sigma=0.3, m=0.0)
    # each of these used to build, with a nan or inf exponent or a domain
    # such as (nan, ...) or (-0.0, 0.0)
    nan, inf = math.nan, math.inf
    for cls, params, bad in [
        (JumpDiffusionFamily, dict(lam=5.0, mu=nan, delta=1.0), "mu"),
        (JumpDiffusionFamily, dict(lam=5.0, mu=-inf, delta=1.0), "mu"),
        (JumpDiffusionFamily, dict(lam=inf, mu=0.0, delta=1.0), "lam"),
        (JumpDiffusionFamily, dict(lam=5.0, mu=0.0, delta=inf), "delta"),
        (GammaFamily, dict(m=inf, kappa=0.5), "m"),
        (GammaFamily, dict(m=1.0, kappa=inf), "kappa"),
        (VarianceGammaFamily, dict(mu=nan, sigma=0.3, m=5.0), "mu"),
        (VarianceGammaFamily, dict(mu=inf, sigma=0.3, m=5.0), "mu"),
        (VarianceGammaFamily, dict(mu=0.1, sigma=inf, m=5.0), "sigma"),
        (VarianceGammaFamily, dict(mu=0.1, sigma=0.3, m=inf), "m"),
    ]:
        with pytest.raises(DomainError, match=f"parameter {bad} must be finite"):
            cls(**params)


def test_family_from_config():
    fam = family_from_config({"family": "variance_gamma", "mu": 0.5, "sigma": 0.3, "m": 5.0})
    assert isinstance(fam, VarianceGammaFamily) and fam.m == 5.0
    assert isinstance(family_from_config({"family": "brownian"}), BrownianFamily)
    with pytest.raises(ConfigError):
        family_from_config({"family": "cauchy"})
    with pytest.raises(ConfigError):
        family_from_config({"family": "jd", "lambda": 1.0, "mu": 0.0})  # delta missing
    with pytest.raises(ConfigError):
        family_from_config({"family": "gbm", "sigma": 1.0})  # gbm takes no parameters
    with pytest.raises(ConfigError):
        family_from_config({"family": "gamma", "m": 1.0, "kappa": -2.0})


# -- exact samplers: mean/variance against exponent derivatives ---------------
# mean rate  psi'(0):  0, lam*mu, m*kappa, mu
# var rate   psi''(0): 1, 1 + lam*(mu^2 + delta^2), m*kappa^2, sigma^2 + mu^2/m

SAMPLER_MOMENTS = [
    (GBM, 0.0, 1.0),
    (JD5, 0.5, 1.0 + 5.0 * (0.01 + 1.0)),
    (GAMMA, 0.5, 0.25),
    (VG, 0.5, 0.09 + 0.05),
]


@pytest.mark.parametrize("fam,mean_rate,var_rate", SAMPLER_MOMENTS, ids=lambda p: getattr(p, "tag", ""))
def test_sampler_moments(fam, mean_rate, var_rate):
    t = 1.7
    n = 200_000
    rng = spawn_stream(2024, 0)
    x = np.asarray(fam.sample_increment(t, rng, n), dtype=float)
    se_mean = x.std(ddof=1) / math.sqrt(n)
    assert abs(x.mean() - mean_rate * t) <= 4.0 * se_mean
    centered = x - x.mean()
    sq = centered * centered
    se_var = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - var_rate * t) <= 4.0 * se_var


@pytest.mark.parametrize("fam,mean_rate,var_rate", SAMPLER_MOMENTS, ids=lambda p: getattr(p, "tag", ""))
def test_sample_path_increments_have_the_law_of_their_gaps(fam, mean_rate, var_rate):
    # X over each gap of an uneven grid, the first from 0, standardised by
    # the mean and variance rates above, must have mean 0 and variance 1
    gaps = np.resize([0.05, 0.2, 0.5, 1.3], 20_000)
    path = sample_path(fam, np.cumsum(gaps), spawn_stream(2025, 0))
    z = (np.diff(path, prepend=0.0) - mean_rate * gaps) / np.sqrt(var_rate * gaps)
    n = z.size
    assert abs(z.mean()) <= 4.0 * z.std(ddof=1) / math.sqrt(n)
    sq = z * z
    assert abs(sq.mean() - 1.0) <= 4.0 * sq.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.tag)
def test_mgf_matches_exponent(fam):
    # E[exp(a X_t)] = exp(t psi(a)) with a chosen so exp(2a X) is integrable
    a = {"gbm": 0.8, "jd": 0.8, "gamma": 0.8, "vg": 2.0}[fam.tag]
    t = 0.9
    n = 400_000
    rng = spawn_stream(11, 3)
    w = np.exp(a * np.asarray(fam.sample_increment(t, rng, n), dtype=float))
    se = w.std(ddof=1) / math.sqrt(n)
    assert abs(w.mean() - math.exp(t * fam.exponent(a))) <= 4.0 * se


def test_gamma_increments_nonnegative_and_paths_monotone():
    rng = spawn_stream(5, 0)
    grid = np.linspace(0.25, 6.0, 24)
    path = sample_path(GAMMA, grid, rng)
    assert path.shape == grid.shape
    assert np.all(np.diff(path) >= 0.0)
    assert path[0] >= 0.0


def test_jd_sample_components():
    rng = spawn_stream(7, 1)
    t = 2.0
    n = 100_000
    diffusion, jumps, counts = JD5.sample_components(t, rng, n)
    # counts are Poisson(lam t)
    mean_n = JD5.lam * t
    se_n = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - mean_n) <= 4.0 * se_n
    # diffusion is N(0, t) regardless of jumps
    se_d = diffusion.std(ddof=1) / math.sqrt(n)
    assert abs(diffusion.mean()) <= 4.0 * se_d
    assert abs(diffusion.var(ddof=1) - t) <= 4.0 * t * math.sqrt(2.0 / (n - 1))
    # a step with no jumps contributes exactly zero jump sum
    assert np.all(jumps[counts == 0] == 0.0)
    assert np.any(counts == 0) and np.any(counts > 0)


@pytest.mark.parametrize("mu", [0.0, -0.05, 0.3])
@pytest.mark.parametrize("size", [None, 1, 7, 200_000])
def test_jd_components_match_one_normal_draw_bit_for_bit(mu, size):
    # the in-place jump sum makes the same draws as rng.normal(mu n,
    # delta sqrt(n)) on an identically seeded stream, and rounds them the
    # same way, signed zeros included
    fam = JumpDiffusionFamily(lam=5.0, mu=mu, delta=1.0)
    for t in (0.25, 1.0, 2.0):
        mine, ref = np.random.default_rng(3), np.random.default_rng(3)
        got = fam.sample_components(t, mine, size)
        n = ref.poisson(fam.lam * t, size)
        diffusion = ref.normal(0.0, math.sqrt(t), size)
        want = (diffusion, ref.normal(mu * n, np.sqrt(n) * fam.delta), n)
        for a, b in zip(got, want):
            assert np.shape(a) == np.shape(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert mine.random() == ref.random()  # both streams moved alike


def test_sample_path_grid_validation():
    rng = spawn_stream(0, 0)
    with pytest.raises(DomainError):
        sample_path(GBM, [0.0, 1.0], rng)
    with pytest.raises(DomainError):
        sample_path(GBM, [1.0, 1.0], rng)
    with pytest.raises(DomainError):
        sample_path(GBM, [], rng)
    with pytest.raises(DomainError):
        GBM.sample_increment(0.0, rng)


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.tag)
@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_sampling_horizon_must_be_finite(fam, t):
    # an infinite horizon gave +-inf draws (gbm, gamma, vg) or numpy's bare
    # "lam value too large" (jd); a nan one gave nan draws
    rng = spawn_stream(0, 0)
    with pytest.raises(DomainError, match="sampling horizon must be positive and finite"):
        fam.sample_increment(t, rng, 3)
    with pytest.raises(DomainError, match="sampling horizon must be positive and finite"):
        sample_path(fam, [1.0, t], rng)


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.tag)
@pytest.mark.parametrize("rng", [None, np.random.RandomState(0), 7], ids=["None", "RandomState", "int"])
def test_samplers_need_a_numpy_generator(fam, rng):
    # a None rng raised "'NoneType' object has no attribute 'normal'"
    with pytest.raises(DomainError, match="rng must be a numpy.random.Generator"):
        fam.sample_increment(1.0, rng, 3)
    with pytest.raises(DomainError, match="rng must be a numpy.random.Generator"):
        sample_path(fam, [0.5, 1.0], rng)


@pytest.mark.parametrize(
    "seed, index",
    [(-1, 0), (0, -1), (1.5, 0), (0, 2.0), (True, 0), (0, False), ("3", 0), (None, 0)],
)
def test_spawn_stream_takes_nonnegative_integers(seed, index):
    # a negative seed or index raised numpy's bare ValueError, a float a
    # TypeError, and a bool or None made a stream
    with pytest.raises(DomainError, match="must be a nonnegative integer"):
        spawn_stream(seed, index)


def test_spawn_stream_takes_numpy_integers():
    a = spawn_stream(np.int64(42), np.uint8(1)).normal(size=5)
    assert np.array_equal(a, spawn_stream(42, 1).normal(size=5))


def test_spawn_stream_reproducible_and_disjoint():
    a1 = spawn_stream(42, 0).normal(size=5)
    a2 = spawn_stream(42, 0).normal(size=5)
    b = spawn_stream(42, 1).normal(size=5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)

