"""Levy-family descriptors, exponents, and exact increment samplers.

Each family describes a one-dimensional Levy process X with exponential
moments: E[exp(a X_t)] = exp(t psi(a)) for a in an open interval A around
zero. The four families are Brownian motion, a compound-Poisson
jump-diffusion, the gamma subordinator, and the variance gamma process
realised as a difference of two independent gamma processes.

Sampling is exact in law for a single increment (no Euler stepping): the
Monte Carlo oracle built on these draws is unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Tuple

import numpy as np

from .errors import DomainError

# Open domain endpoints are excluded with this guard band: the exponent
# diverges at the gamma/VG boundary and a bare "<" admits catastrophic
# cancellation one ulp inside it.
DOMAIN_GUARD = 1e-12


class LevyFamily:
    """Base class: exponent, admissible domain, exact increment sampling."""

    tag: str = "?"
    # lower edge of the driver's state space; subordinators start at 0
    support_lower: float = -math.inf

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"{self.tag} parameter {f.name} must be finite, got {value!r}")

    def exponent_domain(self) -> Tuple[float, float]:
        """Open interval (lo, hi) of admissible exponent arguments."""
        raise NotImplementedError

    def _exponent_impl(self, alpha):
        raise NotImplementedError

    def _guarded_domain(self) -> Tuple[float, float, float]:
        """(lo, hi, guard): the open domain and its guard band."""
        lo, hi = self.exponent_domain()
        width = min(1.0, hi - lo if math.isfinite(hi - lo) else 1.0)
        return lo, hi, DOMAIN_GUARD * width

    def require_admissible(self, alpha) -> None:
        arr = np.asarray(alpha, dtype=float)
        lo, hi, guard = self._guarded_domain()
        if not (np.all(arr > lo + guard) and np.all(arr < hi - guard)):  # a nan is never inside
            bad = float(arr.flat[int(np.argmin((arr > lo + guard) & (arr < hi - guard)))])
            raise DomainError(
                f"{self.tag}: exponent argument {bad!r} outside admissible open interval "
                f"({lo!r}, {hi!r}) with guard band {DOMAIN_GUARD}"
            )

    def exponent(self, alpha):
        """psi(alpha), per year. Scalar or array alpha; psi(0) = 0 exactly."""
        self.require_admissible(alpha)
        return self._exponent_impl(alpha)

    def sample_increment(self, t: float, rng: np.random.Generator, size=None):
        """One exact draw (or `size` draws) of X_t, 0 < t < inf."""
        raise NotImplementedError


@dataclass(frozen=True)
class BrownianFamily(LevyFamily):
    """Standard Brownian motion; psi(a) = a^2 / 2 on all of R."""

    tag: ClassVar[str] = "gbm"

    def exponent_domain(self):
        return (-math.inf, math.inf)

    def _exponent_impl(self, alpha):
        a = np.asarray(alpha, dtype=float)
        out = 0.5 * a * a
        return float(out) if np.ndim(alpha) == 0 else out

    def sample_increment(self, t, rng, size=None):
        _check_horizon(t, rng)
        return rng.normal(0.0, math.sqrt(t), size)


@dataclass(frozen=True)
class JumpDiffusionFamily(LevyFamily):
    """Brownian motion plus compound Poisson jumps with normal jump sizes.

    lam is the jump intensity per year, jumps are Normal(mu, delta^2).
    psi(a) = a^2/2 + lam * (exp(a mu + a^2 delta^2 / 2) - 1), defined on R.
    """

    lam: float
    mu: float
    delta: float
    tag: ClassVar[str] = "jd"

    def __post_init__(self):
        if not (self.lam > 0.0):
            raise DomainError(f"jump intensity must be positive, got {self.lam}")
        if not (self.delta > 0.0):
            raise DomainError(f"jump stdev must be positive, got {self.delta}")
        super().__post_init__()

    def exponent_domain(self):
        return (-math.inf, math.inf)

    def _exponent_impl(self, alpha):
        a = np.asarray(alpha, dtype=float)
        out = 0.5 * a * a + self.lam * np.expm1(a * self.mu + 0.5 * a * a * self.delta**2)
        return float(out) if np.ndim(alpha) == 0 else out

    def sample_increment(self, t, rng, size=None):
        diffusion, jumps, _n = self.sample_components(t, rng, size)
        diffusion += jumps  # in place: no third array of one float per draw
        return diffusion

    def sample_components(self, t, rng, size=None):
        """(diffusion part, jump-sum part, jump count) for one increment.

        Exposed separately so path diagnostics can condition on whether a
        step actually contained jumps.
        """
        _check_horizon(t, rng)
        n = rng.poisson(self.lam * t, size)
        diffusion = rng.normal(0.0, math.sqrt(t), size)
        # sum of n iid Normal(mu, delta^2) collapses to one normal draw, made
        # in place and rounded as rng.normal(mu n, delta sqrt(n)) rounds it
        jumps = rng.standard_normal(size)
        jumps *= np.sqrt(n) * self.delta
        jumps += self.mu * n
        return diffusion, jumps, n


@dataclass(frozen=True)
class GammaFamily(LevyFamily):
    """Gamma subordinator with rate m and scale kappa.

    X_t ~ Gamma(shape m t, scale kappa); psi(a) = -m log(1 - kappa a) on
    (-inf, 1/kappa). Paths are nondecreasing.
    """

    m: float
    kappa: float
    tag: ClassVar[str] = "gamma"
    support_lower: ClassVar[float] = 0.0

    def __post_init__(self):
        if not (self.m > 0.0):
            raise DomainError(f"gamma rate m must be positive, got {self.m}")
        if not (self.kappa > 0.0):
            raise DomainError(f"gamma scale kappa must be positive, got {self.kappa}")
        super().__post_init__()

    def exponent_domain(self):
        return (-math.inf, 1.0 / self.kappa)

    def _exponent_impl(self, alpha):
        a = np.asarray(alpha, dtype=float)
        out = -self.m * np.log1p(-self.kappa * a)
        return float(out) if np.ndim(alpha) == 0 else out

    def sample_increment(self, t, rng, size=None):
        _check_horizon(t, rng)
        return rng.gamma(self.m * t, self.kappa, size)


@dataclass(frozen=True)
class VarianceGammaFamily(LevyFamily):
    """Variance gamma process: Brownian motion with drift mu and volatility
    sigma run on an independent gamma clock with rate m.

    Identical in law to kappa1*G1 - kappa2*G2 for independent gamma
    processes G1, G2 with unit scale and common rate m, where

        kappa1 = (mu + sqrt(mu^2 + 2 sigma^2 m)) / (2m)
        kappa2 = (-mu + sqrt(mu^2 + 2 sigma^2 m)) / (2m)

    so that kappa1 - kappa2 = mu/m and 2 kappa1 kappa2 m = sigma^2. The
    exponent is psi(a) = -m log(1 - (mu/m) a - (sigma^2/2m) a^2); since the
    quadratic factors as (1 - kappa1 a)(1 + kappa2 a), the domain is
    (-1/kappa2, 1/kappa1). Sampling uses the difference-of-gammas form, so
    one increment costs two exact gamma draws.
    """

    mu: float
    sigma: float
    m: float
    tag: ClassVar[str] = "vg"

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise DomainError(f"vg sigma must be positive, got {self.sigma}")
        if not (self.m > 0.0):
            raise DomainError(f"vg rate m must be positive, got {self.m}")
        super().__post_init__()

    @property
    def kappa1(self) -> float:
        return (self.mu + math.sqrt(self.mu**2 + 2.0 * self.sigma**2 * self.m)) / (2.0 * self.m)

    @property
    def kappa2(self) -> float:
        return (-self.mu + math.sqrt(self.mu**2 + 2.0 * self.sigma**2 * self.m)) / (2.0 * self.m)

    def exponent_domain(self):
        return (-1.0 / self.kappa2, 1.0 / self.kappa1)

    def _exponent_impl(self, alpha):
        a = np.asarray(alpha, dtype=float)
        quad = 1.0 - (self.mu / self.m) * a - (0.5 * self.sigma**2 / self.m) * a * a
        out = -self.m * np.log(quad)
        return float(out) if np.ndim(alpha) == 0 else out

    def sample_increment(self, t, rng, size=None):
        _check_horizon(t, rng)
        g1 = rng.gamma(self.m * t, 1.0, size)
        g2 = rng.gamma(self.m * t, 1.0, size)
        # in place, as kappa1 g1 - kappa2 g2 with no temporaries
        g1 *= self.kappa1
        g2 *= self.kappa2
        g1 -= g2
        return g1


def _check_horizon(t, rng) -> None:
    """DomainError unless 0 < t < inf (nan too) and rng is a numpy Generator."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"sampling horizon must be positive and finite, got {t}")
    if not isinstance(rng, np.random.Generator):
        raise DomainError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")


def sample_path(fam: LevyFamily, grid, rng: np.random.Generator) -> np.ndarray:
    """Exact-in-law path values of X on a strictly increasing positive grid.

    Consecutive increments are drawn independently over the grid gaps and
    accumulated, so X at grid[k] has exactly the law of X_{grid[k]}.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise DomainError("grid must be a nonempty 1-d array of times")
    if not (g[0] > 0.0) or np.any(np.diff(g) <= 0.0):
        raise DomainError("grid must be strictly increasing and start after 0")
    gaps = np.diff(np.concatenate([[0.0], g]))
    draws = np.array([fam.sample_increment(dt, rng) for dt in gaps])
    return np.cumsum(draws)


def spawn_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic generator for stream `index` derived from `seed`.

    Parallel workers get independent streams by index; results merged in
    index order are reproducible regardless of scheduling. Both must be
    nonnegative integers (not bools), else DomainError.
    """
    for name, v in (("seed", seed), ("index", index)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
            raise DomainError(f"stream {name} must be a nonnegative integer, got {v!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
