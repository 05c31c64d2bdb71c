"""Bond prices, rates, and risk diagnostics by rho-weighted quadrature.

Everything here evaluates ratios of integrals of the form

    int_L^inf rho_s M(t, s, xi) ds,

truncated at the horizon S_max where the initial curve has decayed to
tail_epsilon of its starting value. The integrand is a product of an
exponentially decaying density and an exponential tilt in phi_s * xi, so
all sums run in log space with a max-exponent shift; the realized driver
value never overflows a price.

A KernelEvaluator owns the panelization for one (model, valuation time)
pair: a sorted edge array and the node data of every panel in
contiguous, panel-sorted arrays, so an integral from a lower bound is a
sum from an array offset. Refinement runs the panel core of
`quadrature`; scalar and batch evaluations share one vectorized routine.
Panels only ever split, so refinement is monotone and evaluations are
deterministic for a fixed call sequence; the critical-level solver
relies on that by freezing the panelization while it brackets.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalError, QuadratureError
from .levy import LevyFamily
from .martingales import ModelState, PhiFunction, _check_state_support, log_martingale_value
from .quadrature import W16, dyadic_breakpoints, panel_estimates, panel_nodes, refine_panels, split
from .termstructure import TermStructure

__all__ = [
    "QuadratureSettings",
    "RateModel",
    "KernelEvaluator",
    "kernel_integral",
    "bond_price",
    "short_rate",
    "forward_rate",
    "phi_average",
    "bond_volatility",
    "risk_aversion",
    "risk_premium",
]

# xi values per pass of the batch kernel: a pass holds a few temporaries
# of _CHUNK x nodes floats (32 MB each at 200 nodes), so this caps the
# peak memory of a Monte Carlo price whatever its path count
_CHUNK = 20000


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances of the quadrature core.

    rel_tol is the per-integral relative error target; tail_epsilon sets
    the truncation horizon (neglected rho-mass relative to P0(0));
    max_subdivisions caps the number of panels per evaluator.
    """

    rel_tol: float = 1e-10
    tail_epsilon: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.tail_epsilon > 0.0 and self.max_subdivisions > 0):
            raise DomainError("quadrature settings must all be positive")


def _phi_tail_values(phi: PhiFunction, horizon: float) -> np.ndarray:
    """Representative phi values over [horizon, inf) for the tail estimate.

    For the decaying classes the tail range of phi runs monotonically from
    phi(horizon) down to 0, so geometric subsamples of phi(horizon) cover
    it; a constant phi contributes the single value it takes.
    """
    edge = float(phi(horizon))
    if phi.monotonicity == "constant":
        return np.array([edge])
    sup = phi.tail_sup_abs(horizon)
    base = math.copysign(max(abs(edge), sup), edge if edge != 0.0 else 1.0)
    return np.concatenate([base * np.power(0.5, np.arange(0, 44)), [0.0]])


@dataclass(frozen=True)
class RateModel:
    """A rational term-structure model: initial curve, driver, tilt.

    The triple (rho, family, phi) determines every price in the model.
    Construction validates that phi stays inside the family's exponent
    domain across [0, S_max] and that the curve decays.
    """

    ts: TermStructure
    fam: LevyFamily
    phi: PhiFunction
    quad: QuadratureSettings = field(default_factory=QuadratureSettings)
    _evaluators: OrderedDict = field(
        default_factory=OrderedDict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        S = self.s_max  # raises DomainError for curves that never decay
        lo, hi = self.phi.range_bounds(S)
        self.fam.require_admissible(lo)
        self.fam.require_admissible(hi)

    @property
    def s_max(self) -> float:
        return self.ts.truncation_horizon(self.quad.tail_epsilon)

    def evaluator(self, t: float) -> "KernelEvaluator":
        """Panelization cache, keyed by valuation time (small LRU)."""
        key = float(t)
        ev = self._evaluators.get(key)
        if ev is None:
            ev = KernelEvaluator(self, key)
            self._evaluators[key] = ev
            if len(self._evaluators) > 32:
                self._evaluators.popitem(last=False)
        else:
            self._evaluators.move_to_end(key)
        return ev


class KernelEvaluator:
    """Adaptive panelization of s -> rho_s M(t, s, xi) over [t, S_max].

    The panel edges run sorted and contiguous from t to S_max. Node data
    (log rho - t psi(phi), and phi) sits in contiguous arrays in panel
    order, shape (panels, 24) in the layout of quadrature.NODES, with flat
    copies of the 16-point nodes and their weights; all of it is rebuilt
    in one call whenever the edges change. Changing xi then costs one
    fused multiply-add plus exponentials per node, and an integral over
    [lower, S_max] is a sum from the array offset of panel `lower`, which
    is registered as a breakpoint first. Panels split monotonically.
    """

    def __init__(self, model: RateModel, t: float):
        if t < 0.0:
            raise DomainError(f"valuation time must be nonnegative, got {t}")
        self.model = model
        self.t = float(t)
        self.S = model.s_max
        if self.t >= self.S:
            raise DomainError(
                f"valuation time {t} is beyond the truncation horizon {self.S:.1f}; "
                "the initial curve carries no mass there"
            )

        # tail estimate ingredients: sup over s >= S of log M(t, s, xi)
        tail_phi = _phi_tail_values(model.phi, self.S)
        model.fam.require_admissible(tail_phi[np.abs(tail_phi) > 0])
        self._tail_phi = tail_phi
        self._tail_psi = np.asarray(model.fam._exponent_impl(tail_phi), dtype=float)
        self._log_tail_mass = math.log(float(model.ts.discount_factor(self.S)))

        self._set_edges(dyadic_breakpoints(self.t, self.S))

    # -- panel bookkeeping -------------------------------------------------

    def _node_data(self, edges: np.ndarray):
        """(log rho - t psi(phi), phi) on the nodes of the given panels."""
        s = panel_nodes(edges)
        phi_vals = np.asarray(self.model.phi(s), dtype=float)
        self.model.fam.require_admissible(phi_vals)
        psi_vals = np.asarray(self.model.fam._exponent_impl(phi_vals), dtype=float)
        return np.asarray(self.model.ts.log_density(s), dtype=float) - self.t * psi_vals, phi_vals

    def _set_edges(self, edges: np.ndarray) -> None:
        self._edges = edges
        self._base, self._phi = self._node_data(edges)
        self._w = (0.5 * (edges[1:] - edges[:-1])[:, None] * W16).ravel()
        self._base16 = self._base[:, :16].ravel()
        self._phi16 = self._phi[:, :16].ravel()

    def ensure_breakpoint(self, x: float) -> None:
        """Split so that x is a panel edge (needed before integrating from x)."""
        x = float(x)
        if x <= self.t or x >= self.S:
            return
        k = int(np.searchsorted(self._edges, x, side="right")) - 1
        if self._edges[k] != x:
            self._set_edges(split(self._edges, k, x))

    def _first_panel(self, lower: float) -> int:
        """Index of the panel from lower on; lower must be registered."""
        return int(np.searchsorted(self._edges, min(max(lower, self.t), self.S)))

    # -- tail --------------------------------------------------------------

    def log_tail_bound(self, xi: float) -> float:
        """log of (neglected mass beyond S_max) x (estimated sup of M there)."""
        g = self._tail_phi * xi - self.t * self._tail_psi
        return self._log_tail_mass + float(np.max(g))

    # -- refinement and evaluation -------------------------------------------

    def refine(self, xi: float, lower: Optional[float] = None, weighted: bool = False) -> None:
        """Split panels on [lower, S_max] until the integral for this xi
        meets rel_tol. Safe to call repeatedly; panels never merge.

        rel_tol governs the quadrature error on the truncated interval;
        the neglected tail beyond S_max is bounded separately (see
        log_tail_bound) and cannot be reduced by splitting.
        """
        lower = self.t if lower is None else float(lower)
        self.ensure_breakpoint(lower)
        start = self._first_panel(lower)
        if start >= len(self._edges) - 1:
            return
        shift = float(np.max(self._base + self._phi * xi))

        def values(base, phi):
            vals = np.exp(base + phi * xi - shift)
            return vals * phi if weighted else vals

        I, E = panel_estimates(self._edges[start:], values(self._base[start:], self._phi[start:]))
        try:
            edges, _, _ = refine_panels(
                self._edges,
                I,
                E,
                lambda e: values(*self._node_data(e)),
                rel_tol=self.model.quad.rel_tol,
                max_panels=self.model.quad.max_subdivisions,
                start=start,
            )
        except QuadratureError as exc:  # name the state; the core knows only its panels
            exc.args = (f"kernel quadrature (t={self.t}, lower={lower}, xi={xi}): {exc}",)
            raise
        if edges is not self._edges:
            self._set_edges(edges)

    def _integrals(
        self, xi: np.ndarray, lowers: Sequence[float], phi_average: bool
    ) -> Dict[float, np.ndarray]:
        """log int_L^S rho M, or the phi average over [L, S], per xi and L.

        Panels are used as-is, 16-point rule only; the shift per xi is the
        largest exponent over all nodes.
        """
        for L in lowers:
            self.ensure_breakpoint(L)  # before any offset is read
        offsets = {float(L): 16 * self._first_panel(L) for L in lowers}
        w_full, base, phiv = self._w, self._base16, self._phi16
        wphi = w_full * phiv if phi_average else None
        out = {L: np.empty(xi.shape, dtype=float) for L in offsets}
        for i0 in range(0, xi.size, _CHUNK):
            x = xi[i0 : i0 + _CHUNK, None]
            E = x * phiv[None, :] + base[None, :]
            shift = E.max(axis=1)
            M = np.exp(E - shift[:, None])
            for L, off in offsets.items():
                vals = M[:, off:] @ w_full[off:]
                if phi_average:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        out[L][i0 : i0 + _CHUNK] = (M[:, off:] @ wphi[off:]) / vals
                else:
                    with np.errstate(divide="ignore"):
                        out[L][i0 : i0 + _CHUNK] = np.log(vals) + shift
        return out

    def log_integral(self, xi: float, lower: Optional[float] = None) -> float:
        """log of int_lower^S rho_s M(t,s,xi) ds on the current panels."""
        lower = self.t if lower is None else float(lower)
        return float(self._integrals(np.array([float(xi)]), [lower], False)[lower][0])

    def weighted_ratio(self, xi: float, lower: Optional[float] = None) -> float:
        """Phi average: int phi rho M / int rho M over [lower, S_max]."""
        lower = self.t if lower is None else float(lower)
        if lower >= self.S:
            raise DomainError(f"no mass beyond lower={lower}")
        ratio = float(self._integrals(np.array([float(xi)]), [lower], True)[lower][0])
        if not math.isfinite(ratio):
            raise NumericalError(f"kernel integral vanished at xi={xi}, lower={lower}")
        return ratio

    def prepare(self, xi_probes, lowers: Sequence[float]) -> None:
        """Refine panels for a batch: every probe xi at every lower bound.

        Probes should cover the extremes and the bulk of the draws (min,
        max, a central value); the exponent is linear in xi, so panels
        that resolve the extreme tilts resolve everything between.
        """
        for L in lowers:
            for p in np.atleast_1d(np.asarray(xi_probes, dtype=float)):
                self.refine(float(p), float(L))

    def log_integral_batch(self, xi: np.ndarray, lowers: Sequence[float]) -> Dict[float, np.ndarray]:
        """log kernel integrals for an array of xi at several lower bounds.

        Panels are used as-is: call prepare() with representative probe
        xi values first; the 16-point rule on panels refined to rel_tol
        leaves bias far below Monte Carlo resolution.
        """
        return self._integrals(np.asarray(xi, dtype=float), lowers, False)

    def phi_average_batch(self, xi: np.ndarray, lowers: Sequence[float]) -> Dict[float, np.ndarray]:
        """Phi_tT for an array of xi at several lower bounds T."""
        return self._integrals(np.asarray(xi, dtype=float), lowers, True)


# -- public operations ------------------------------------------------------


def kernel_integral(model: RateModel, state: ModelState, lower: Optional[float] = None) -> float:
    """int_lower^inf rho_s M(t, s, xi) ds, truncated at S_max.

    With lower = t this is the pricing kernel pi_t itself (its expectation
    over driver draws recovers P0(t)); with lower = T it is the
    numerator of the bond price.
    """
    _check_state_support(model.fam, state)
    lower = state.t if lower is None else float(lower)
    if lower < state.t:
        raise DomainError(f"kernel lower bound {lower} must be >= state time {state.t}")
    ev = model.evaluator(state.t)
    if lower >= ev.S:
        return 0.0
    ev.refine(state.xi, lower)
    return math.exp(ev.log_integral(state.xi, lower))


def bond_price(model: RateModel, state: ModelState, T: float) -> float:
    """P_tT = kernel(T) / kernel(t); equals 1 at T = t, decreasing in T."""
    _check_state_support(model.fam, state)
    if T < state.t:
        raise DomainError(f"bond maturity {T} before valuation time {state.t}")
    if T == state.t:
        return 1.0
    ev = model.evaluator(state.t)
    if T >= ev.S:
        return 0.0
    ev.refine(state.xi, state.t)
    ev.refine(state.xi, T)
    log_num = ev.log_integral(state.xi, T)
    log_den = ev.log_integral(state.xi, state.t)
    return math.exp(log_num - log_den)


def short_rate(model: RateModel, state: ModelState) -> float:
    """r_t = rho_t M(t,t,xi) / kernel(t); strictly positive by construction."""
    _check_state_support(model.fam, state)
    ev = model.evaluator(state.t)
    ev.refine(state.xi, state.t)
    log_num = float(model.ts.log_density(state.t)) + float(
        log_martingale_value(model.fam, model.phi, state, state.t)
    )
    r = math.exp(log_num - ev.log_integral(state.xi, state.t))
    if not (r > 0.0) or not math.isfinite(r):
        raise NumericalError(f"short rate came out non-positive ({r}); quadrature inconsistency")
    return r


def forward_rate(model: RateModel, state: ModelState, T: float) -> float:
    """f_tT = rho_T M(t,T,xi) / kernel(T) = -d/dT log P_tT; positive."""
    _check_state_support(model.fam, state)
    if T < state.t:
        raise DomainError(f"forward maturity {T} before valuation time {state.t}")
    ev = model.evaluator(state.t)
    if T >= ev.S:
        raise DomainError(f"forward maturity {T} beyond truncation horizon {ev.S:.1f}")
    ev.refine(state.xi, T)
    log_num = float(model.ts.log_density(T)) + float(
        log_martingale_value(model.fam, model.phi, state, T)
    )
    f = math.exp(log_num - ev.log_integral(state.xi, T))
    if not (f > 0.0) or not math.isfinite(f):
        raise NumericalError(f"forward rate came out non-positive ({f}); quadrature inconsistency")
    return f


def phi_average(model: RateModel, state: ModelState, T: Optional[float] = None) -> float:
    """Phi_tT: the rho M-weighted average of phi over maturities >= T.

    Lies between the extremes of phi on [T, S_max]. T defaults to t,
    giving the market-price-of-risk building block Phi_tt.
    """
    _check_state_support(model.fam, state)
    T = state.t if T is None else float(T)
    if T < state.t:
        raise DomainError(f"phi average maturity {T} before valuation time {state.t}")
    ev = model.evaluator(state.t)
    ev.refine(state.xi, T)
    ev.refine(state.xi, T, weighted=True)
    return ev.weighted_ratio(state.xi, T)


def bond_volatility(model: RateModel, state: ModelState, T: float) -> float:
    """Omega_tT = Phi_tT - Phi_tt; vanishes at T = t."""
    return phi_average(model, state, T) - phi_average(model, state, state.t)


def risk_aversion(model: RateModel, state: ModelState) -> float:
    """Market price of risk lambda_t = -Phi_tt (sign convention as stated)."""
    return -phi_average(model, state, state.t)


def risk_premium(model: RateModel, state: ModelState, T: float) -> float:
    """lambda_t Omega_tT = Phi_tt (Phi_tt - Phi_tT).

    The product is positive for the admissible monotone phi classes even
    though the factors individually change sign with the class.
    """
    phi_tt = phi_average(model, state, state.t)
    phi_tT = phi_average(model, state, T)
    return phi_tt * (phi_tt - phi_tT)
