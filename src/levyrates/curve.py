"""Bond prices, rates, and risk diagnostics by rho-weighted quadrature.

Everything here evaluates ratios of integrals of the form

    int_L^inf rho_s M(t, s, xi) ds,

truncated at the horizon S_max where the initial curve has decayed to
TAIL_EPSILON of its starting value. The integrand is a product of an
exponentially decaying density and an exponential tilt in phi_s * xi, so
all sums run in log space with a max-exponent shift; the realized driver
value never overflows a price.

A KernelEvaluator owns the panelization for one (model, valuation time)
pair: a sorted edge array and the node data of every panel in
contiguous, panel-sorted arrays, so an integral from a lower bound is a
sum from an array offset. Refinement runs the panel core of
`quadrature`. Panels only ever split, so refinement is monotone and
evaluations are deterministic for a fixed call sequence; the
critical-level solver relies on that by freezing the panelization while
it brackets.

The batch entry points (log_integral_batch, phi_average_batch), and
through them the phi averages of the risk quantities, need no panels.
On the flat curve rho_s = y exp(-y s), the coordinate
u = exp(-beta (s - L)) turns an integral from L into

    int_L^inf rho_s M(t, s, xi) ds = P0(L) int_0^1 (y/beta) u^alpha
                                     M(t, L - ln(u)/beta, xi) du,

with alpha = y/beta - 1. With beta = b for phi_s = c exp(-b s), phi is
linear in u, so a fixed Gauss-Jacobi rule for the weight u^alpha
resolves the rest with a few dozen nodes; each batch checks its rule
against one of half the nodes.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError, QuadratureError, UnsupportedModelError
from .levy import LevyFamily
from .martingales import ExpDecayPhi, ModelState, PhiFunction, _check_state_support, log_martingale_value
from .quadrature import (
    W16,
    dyadic_breakpoints,
    jacobi_rule,
    panel_estimates,
    panel_nodes,
    refine_panels,
    split,
)
from .termstructure import TAIL_EPSILON, FlatYieldCurve

__all__ = [
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

# floats per block of the batch kernel (1 MiB). A block holds as many
# draws as fit, rounded down to a multiple of 16 and at least 16: the
# BLAS matvec sums rows in groups, and a row outside a group can round
# differently in the last bit. One buffer per call is filled in place
# block by block, so the exponents stay in cache from the fill through
# exp to the matvecs, and a batch needs this much memory beyond its
# output arrays whatever its size (more only past 8,192 nodes, where
# the 16-draw floor takes over).
_BLOCK_FLOATS = 1 << 17


def _block_rows(nodes: int) -> int:
    """Draws per block of the batch kernel at this many nodes."""
    return 16 * max(1, _BLOCK_FLOATS // (16 * nodes))


# Gauss-Jacobi rule of the batch kernel: _RULE_NODES nodes per bound,
# checked against half as many and doubled up to _RULE_MAX_NODES; the
# shifts of a call come from a table on _ENVELOPE_POINTS grid points.
_RULE_NODES = 24
_RULE_MAX_NODES = 384
_ENVELOPE_POINTS = 257


def _envelope(phi: np.ndarray, base: np.ndarray, xi: np.ndarray):
    """f(x, out) writing -max_i (phi_i x + base_i) into out for x in
    [min, max] of xi, or None; see KernelEvaluator._rule_integrals."""
    lo = float(xi.min())
    h = (float(xi.max()) - lo) / (_ENVELOPE_POINTS - 1) or 1.0
    if not 1e-300 < h < 1e300:
        return None
    top = (np.multiply.outer(phi, lo + h * np.arange(_ENVELOPE_POINTS)) + base[:, None]).argmax(axis=0)
    p, q = -phi[top], -base[top]  # -(phi x + base) is (-phi) x + (-base), bit for bit
    j = np.flatnonzero(p[1:] < p[:-1])
    x = (q[j] - q[j + 1]) / (p[j + 1] - p[j])  # where a cell's two top lines cross
    tops = np.minimum(p[j] * x + q[j], p[j + 1] * x + q[j + 1])
    if np.any((np.multiply.outer(phi, x) + base[:, None]).max(axis=0) > -tops):
        return None
    pb, qb = np.append(p[1:], p[-1]), np.append(q[1:], q[-1])

    def minus_shift(x, out):
        c = ((x - lo) / h).astype(np.intp)
        return np.minimum(p[c] * x + q[c], pb[c] * x + qb[c], out=out)

    return minus_shift


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

    The triple (rho, family, phi) determines every price in the model;
    rel_tol, the one numerical setting, is every integral's relative error
    target. Construction validates 0 < rel_tol < 1, that the curve is a
    FlatYieldCurve (the batch kernel's rule is built for its density), that
    it decays, and that phi stays inside the family's exponent domain
    across [0, S_max].
    """

    ts: FlatYieldCurve
    fam: LevyFamily
    phi: PhiFunction
    rel_tol: float = 1e-10
    _evaluators: OrderedDict = field(
        default_factory=OrderedDict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:  # nan too
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not isinstance(self.ts, FlatYieldCurve):
            raise UnsupportedModelError(
                f"the initial curve must be a FlatYieldCurve, got {type(self.ts).__name__}"
            )
        S = self.s_max  # raises DomainError for curves that never decay
        lo, hi = self.phi.range_bounds(S)
        self.fam.require_admissible(lo)
        self.fam.require_admissible(hi)

    @property
    def s_max(self) -> float:
        return self.ts.truncation_horizon(TAIL_EPSILON)

    @property
    def rule_rate(self) -> float:
        """beta of the batch kernel's coordinate u = exp(-beta (s - L)):
        the tilt's decay rate b for ExpDecayPhi with b > 0, which makes phi
        linear in u; the flat yield y for a bump or constant tilt."""
        if isinstance(self.phi, ExpDecayPhi) and self.phi.b > 0.0:
            return self.phi.b
        return self.ts.y

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
        psi_vals = np.asarray(self.model.fam.exponent(phi_vals), dtype=float)
        return np.asarray(self.model.ts.log_density(s), dtype=float) - self.t * psi_vals, phi_vals

    def _set_edges(self, edges: np.ndarray) -> None:
        self._edges = edges
        self._offset_cache: Dict[tuple, Dict[float, int]] = {}
        self._base, self._phi = self._node_data(edges)
        self._w = (0.5 * (edges[1:] - edges[:-1])[:, None] * W16).ravel()
        self._base16 = self._base[:, :16].ravel()
        self._phi16 = self._phi[:, :16].ravel()

    def ensure_breakpoint(self, x: float) -> None:
        """Split so that x is a panel edge (needed before integrating from x)."""
        x = float(x)
        if x <= self.t or x >= self.S:
            return
        k = int(self._edges.searchsorted(x, side="right")) - 1
        if self._edges[k] != x:
            self._set_edges(split(self._edges, k, x))

    def _first_panel(self, lower: float) -> int:
        """Index of the panel from lower on; lower must be registered."""
        return int(self._edges.searchsorted(min(max(lower, self.t), self.S)))

    # -- tail --------------------------------------------------------------

    def log_tail_bound(self, xi: float) -> float:
        """log of (neglected mass beyond S_max) x (estimated sup of M there)."""
        g = self._tail_phi * xi - self.t * self._tail_psi
        return self._log_tail_mass + float(np.max(g))

    # -- refinement and evaluation -------------------------------------------

    def refine(self, xi: float, *lowers: float) -> None:
        """Split panels until the integral for this xi from each lower bound
        to S_max meets rel_tol, bound by bound in the order given (from t
        when no bound is given). Safe to call repeatedly; panels never merge.

        One exp pass over every node, shifted by the largest exponent,
        gives the panel estimates; a bound met on unchanged panels reads
        them from its first panel on, and a split makes the next bound
        redo the pass. So a later bound reads estimates from an earlier
        bound's pass, which can differ in the last bit from a pass started
        at the bound; that matters only for an estimate that ties rel_tol.
        rel_tol governs the quadrature error on the truncated interval;
        splitting cannot reduce the tail beyond S_max.
        """
        xi = float(xi)

        def values(base, phi):
            return np.exp(base + phi * xi - shift)

        pass_edges = None
        for lower in lowers or (self.t,):
            lower = float(lower)
            self.ensure_breakpoint(lower)
            start = self._first_panel(lower)
            if start >= len(self._edges) - 1:
                continue
            if pass_edges is not self._edges:
                pass_edges = self._edges
                z = self._base + self._phi * xi
                shift = float(np.max(z))
                I, E = panel_estimates(pass_edges, np.exp(z - shift))
            try:
                edges, _, _ = refine_panels(
                    pass_edges,
                    I[start:],
                    E[start:],
                    lambda e: values(*self._node_data(e)),
                    rel_tol=self.model.rel_tol,
                    start=start,
                )
            except QuadratureError as exc:  # name the state; the core knows only its panels
                exc.args = (f"kernel quadrature (t={self.t}, lower={lower}, xi={xi}): {exc}",)
                raise
            if edges is not pass_edges:
                self._set_edges(edges)

    def _offsets(self, lowers: Sequence[float]) -> Dict[float, int]:
        """Node offset of each lower bound, registering the bounds as
        edges first; cached per bounds tuple until the edges change,
        because a critical-level solve makes about ten passes at the
        same bounds (t, T) on unchanged panels."""
        key = tuple(lowers)
        offsets = self._offset_cache.get(key)
        if offsets is None:
            for L in lowers:
                self.ensure_breakpoint(L)  # before any offset is read
            offsets = {float(L): 16 * self._first_panel(L) for L in lowers}
            self._offset_cache[key] = offsets
        return offsets

    def _integrals(self, xi: np.ndarray, lowers: Sequence[float], phi_average: bool) -> dict:
        """log int_L^S rho M per xi and L; with phi_average, the pair
        (that log integral, the phi average over [L, S]) from the same pass.

        Panels are used as-is, 16-point rule only; the shift per xi is the
        largest exponent over all nodes. The draws run in blocks of
        _BLOCK_FLOATS floats, each filled in place in one buffer.
        """
        offsets = self._offsets(lowers)
        w_full, base, phiv = self._w, self._base16, self._phi16
        wphi = w_full * phiv if phi_average else None
        out = {L: np.empty(xi.shape, dtype=float) for L in offsets}
        avg = {L: np.empty(xi.shape, dtype=float) for L in offsets} if phi_average else None
        rows = _block_rows(base.size)
        buf = np.empty((min(rows, xi.size), base.size), dtype=float)
        for i0 in range(0, xi.size, rows):
            i1 = min(i0 + rows, xi.size)
            M = buf[: i1 - i0]
            np.multiply(xi[i0:i1, None], phiv, out=M)
            M += base
            shift = M.max(axis=1)
            M -= shift[:, None]
            np.exp(M, out=M)
            with np.errstate(divide="ignore", invalid="ignore"):  # a vanished integral
                for L, off in offsets.items():
                    vals = M[:, off:] @ w_full[off:]
                    out[L][i0:i1] = np.log(vals) + shift
                    if phi_average:
                        avg[L][i0:i1] = (M[:, off:] @ wphi[off:]) / vals
        return {L: (out[L], avg[L]) for L in offsets} if phi_average else out

    def log_integral(self, xi: float, lower: Optional[float] = None) -> float:
        """log of int_lower^S rho_s M(t,s,xi) ds on the current panels."""
        lower = self.t if lower is None else float(lower)
        return float(self._integrals(np.array([float(xi)]), [lower], False)[lower][0])

    def log_bond_and_slope(self, xi: float, T: float) -> Tuple[float, float]:
        """(log P(t, T, xi), d log P / d xi) on the current panels, one pass.

        The slope is Phi_tT - Phi_tt, the bond volatility: the exact
        derivative in xi of the quadrature sums that give log P.
        """
        pairs = self._integrals(np.array([float(xi)]), [self.t, float(T)], True)
        (log_t, avg_t), (log_T, avg_T) = pairs[self.t], pairs[float(T)]
        return float(log_T[0] - log_t[0]), float(avg_T[0] - avg_t[0])

    # -- batch kernel: Gauss-Jacobi rule in u = exp(-beta (s - L)) -----------

    def _rule_data(self, bounds: Sequence[float], n: int):
        """Node data of the n-point rule from every bound and from S_max.

        Returns (phi, log(P0(L) w_i) - t psi(phi)) at the nodes of each
        bound, then of S_max, and the (nodes x bounds) matrix that sums
        a bound's nodes minus the S_max nodes, which truncates every
        integral at S_max. A bound at or beyond S_max sums nothing.
        """
        model = self.model
        beta = model.rule_rate
        log_u, log_w = jacobi_rule(n, model.ts.y / beta - 1.0)
        starts = np.array([min(max(L, self.t), self.S) for L in bounds] + [self.S])
        s = (starts[:, None] - log_u / beta).ravel()
        phi = np.asarray(model.phi(s), dtype=float)
        psi = np.asarray(model.fam.exponent(phi), dtype=float)
        log_p0 = np.log(np.asarray(model.ts.discount_factor(starts), dtype=float))
        base = (log_p0[:, None] + log_w).ravel() - self.t * psi
        W = np.zeros((len(bounds), s.size))
        for j in range(len(bounds)):
            if starts[j] < self.S:
                W[j, j * n : (j + 1) * n] = 1.0
                W[j, -n:] = -1.0
        return phi, base, W

    def _rule_integrals(self, xi: np.ndarray, data, phi_average: bool):
        """(log int_L^S rho M, phi average over [L, S] or None), each of
        shape (bounds, draws), on the rule whose node data _rule_data gave.

        Blocks of _BLOCK_FLOATS floats, nodes x draws, take three passes:
        [phi, base, 1] times the draws over ones over minus their shifts
        (one product that rounds as the three steps would), exp, W @ M.
        A shift is the draw's largest exponent phi_i xi + base_i: in calls
        of more than 16 draws, the larger of the two lines that _envelope's
        table gives for the draw's cell. Such a line is never above the max
        and short of it by at most (phi spread x cell width) / 4, only where
        a third line tops the cell; the table refuses such cells, and then,
        as in smaller calls, each block subtracts its own max in two more
        passes. A partial block is padded with its first draw to a multiple
        of 16: the BLAS products sum a draw's column the same way at any
        such width, so each draw gets the same value in any batch.
        """
        phi, base, W = data
        k, nodes = W.shape[0], phi.size
        if phi_average:
            W = np.vstack([W, W * phi])
        minus_shift = _envelope(phi, base, xi) if xi.size > 16 else None
        A = np.column_stack([phi, base] if minus_shift is None else [phi, base, np.ones(nodes)])
        out = np.empty((k, xi.size))
        avg = np.empty((k, xi.size)) if phi_average else None
        rows = _block_rows(nodes)
        width = min(rows, -(-xi.size // 16) * 16)
        buf = np.empty(nodes * width)
        B = np.ones((A.shape[1], width))
        for i0 in range(0, xi.size, rows):
            x = xi[i0 : i0 + rows]
            m, cols = x.size, slice(i0, i0 + x.size)
            w = -(-m // 16) * 16
            B[0, :m] = x
            B[0, m:w] = x[0]
            M = buf[: nodes * w].reshape(nodes, w)
            if minus_shift is not None:
                neg = minus_shift(B[0, :w], out=B[2, :w])
            np.matmul(A, B[:, :w], out=M)
            if minus_shift is None:  # the product's own max
                neg = np.negative(M.max(axis=0))
                M += neg
            np.exp(M, out=M)
            V = W @ M
            with np.errstate(divide="ignore", invalid="ignore"):  # a vanished integral
                np.log(V[:k, :m], out=out[:, cols])
                out[:, cols] -= neg[:m]
                if phi_average:
                    np.divide(V[k:, :m], V[:k, :m], out=avg[:, cols])
        return out, avg

    def _rule_nodes(self, xi: np.ndarray, bounds: Sequence[float], phi_average: bool):
        """(node data, _rule_integrals at the probes) of the first n-point
        rule from _RULE_NODES on, doubling, at which n and n/2 nodes agree
        to rel_tol in every log integral (and phi average, when asked for)
        at the batch's min, mean and max draw, each node set built once.
        Only a bound at or past S_max may give a value that is not finite
        (an empty integral). An empty batch gets the _RULE_NODES rule and
        no probe values. Raises DomainError when a probe is not finite or
        lies below the driver's support, QuadratureError past
        _RULE_MAX_NODES.
        """
        if xi.size == 0:
            return self._rule_data(bounds, _RULE_NODES), None
        with np.errstate(over="ignore"):  # a mean that overflows is refused below
            probes = np.array([xi.min(), xi.mean(), xi.max()])
        fam = self.model.fam
        if not np.isfinite(probes).all():
            raise DomainError(f"driver draws must be finite, got min, mean, max = {probes.tolist()}")
        if probes[0] < fam.support_lower:
            raise DomainError(f"{fam.tag} driver state must be nonnegative, got xi={probes[0]}")
        tol = self.model.rel_tol
        past = np.array([L >= self.S for L in bounds])[:, None]

        def values(n):
            data = self._rule_data(bounds, n)
            got = self._rule_integrals(probes, data, phi_average)
            return data, got, np.hstack(got) if phi_average else got[0]

        n, coarse = _RULE_NODES, values(_RULE_NODES // 2)[2]
        while True:
            data, got, fine = values(n)
            with np.errstate(invalid="ignore"):  # -inf - -inf, nan
                ok = past | (np.abs(fine - coarse) <= tol)
            if ok.all():
                return data, got
            if 2 * n > _RULE_MAX_NODES:
                j, i = np.argwhere(~ok)[0]
                gap = abs(fine[j, i] - coarse[j, i])
                why = (
                    f"differ by {gap:.3e}, above rel_tol {tol:g}"
                    if math.isfinite(gap)
                    else f"give {fine[j, i]} and {coarse[j, i]}, not finite"
                )
                raise QuadratureError(
                    f"kernel rule (t={self.t}, bounds={list(bounds)}, xi={probes[i % 3]}): "
                    f"{n} and {n // 2} nodes {why}",
                    rel_err=float(gap),
                )
            n, coarse = 2 * n, fine

    def _batch(self, xi, lowers: Sequence[float], phi_average: bool) -> dict:
        xi = np.asarray(xi, dtype=float)
        bounds = list(dict.fromkeys(float(L) for L in lowers))
        data, probed = self._rule_nodes(xi, bounds, phi_average)
        if xi.size == 1:  # its probes are the draw, padded to 16 columns as it would be
            out, avg = (None if v is None else v[:, :1] for v in probed)
        else:
            out, avg = self._rule_integrals(xi, data, phi_average)
        return {L: (avg if phi_average else out)[j] for j, L in enumerate(bounds)}

    def log_integral_batch(self, xi: np.ndarray, lowers: Sequence[float]) -> Dict[float, np.ndarray]:
        """log kernel integrals for an array of xi at several lower bounds,
        on the Gauss-Jacobi rule of the module docstring minus the same rule
        from S_max (no panels, so no refine), with the nodes _rule_nodes
        checks. Every xi gets its exact value on that rule, in blocks of
        about 1 MiB (_BLOCK_FLOATS), so the memory a call needs beyond its
        outputs does not grow with the batch.
        """
        return self._batch(xi, lowers, False)

    def phi_average_batch(self, xi: np.ndarray, lowers: Sequence[float]) -> Dict[float, np.ndarray]:
        """Phi_tT for an array of xi at several lower bounds T, on the rule
        of log_integral_batch; its check covers the phi averages too.
        A bound at or beyond S_max has no mass to average over and raises
        DomainError."""
        for L in lowers:
            if L >= self.S:
                raise DomainError(f"no mass beyond lower={L}")
        return self._batch(xi, lowers, True)


# -- public operations ------------------------------------------------------


def kernel_integral(model: RateModel, state: ModelState, lower: Optional[float] = None) -> float:
    """int_lower^inf rho_s M(t, s, xi) ds, truncated at S_max.

    With lower = t this is the pricing kernel pi_t itself (its expectation
    over driver draws recovers P0(t)); with lower = T it is the
    numerator of the bond price.
    """
    _check_state_support(model.fam, state)
    lower = state.t if lower is None else float(lower)
    if not lower >= state.t:  # nan too
        raise DomainError(f"kernel lower bound {lower} must be >= state time {state.t}")
    ev = model.evaluator(state.t)
    if lower >= ev.S:
        return 0.0
    ev.refine(state.xi, lower)
    return math.exp(ev.log_integral(state.xi, lower))


def bond_price(model: RateModel, state: ModelState, T: float) -> float:
    """P_tT = kernel(T) / kernel(t); equals 1 at T = t, decreasing in T."""
    _check_state_support(model.fam, state)
    if not T >= state.t:  # nan too
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
    """r_t = f_tt, the forward rate at T = t; strictly positive."""
    return forward_rate(model, state, state.t)


def forward_rate(model: RateModel, state: ModelState, T: float) -> float:
    """f_tT = rho_T M(t,T,xi) / kernel(T) = -d/dT log P_tT; positive."""
    _check_state_support(model.fam, state)
    if not T >= state.t:  # nan too
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


def _phi_averages(model: RateModel, state: ModelState, T: float) -> Tuple[float, float]:
    """(Phi_tt, Phi_tT) from one pass of the batch rule at the state's draw.
    DomainError for T before t or at or past S_max; the rule's check fails
    a value that is not finite, so a vanished integral raises
    QuadratureError, never a nan."""
    T = float(T)
    if not T >= state.t:  # nan too
        raise DomainError(f"phi average maturity {T} before valuation time {state.t}")
    avg = model.evaluator(state.t).phi_average_batch(np.array([float(state.xi)]), [state.t, T])
    return float(avg[float(state.t)][0]), float(avg[T][0])


def phi_average(model: RateModel, state: ModelState, T: Optional[float] = None) -> float:
    """Phi_tT: the rho M-weighted average of phi over maturities >= T.

    Lies between the extremes of phi on [T, S_max]. T defaults to t,
    giving the market-price-of-risk building block Phi_tt.
    """
    return _phi_averages(model, state, state.t if T is None else T)[1]


def bond_volatility(model: RateModel, state: ModelState, T: float) -> float:
    """Omega_tT = Phi_tT - Phi_tt; vanishes at T = t."""
    phi_tt, phi_tT = _phi_averages(model, state, T)
    return phi_tT - phi_tt


def risk_aversion(model: RateModel, state: ModelState) -> float:
    """Market price of risk lambda_t = -Phi_tt (sign convention as stated)."""
    return -_phi_averages(model, state, state.t)[0]


def risk_premium(model: RateModel, state: ModelState, T: float) -> float:
    """lambda_t Omega_tT = Phi_tt (Phi_tt - Phi_tT).

    The product is positive for the admissible monotone phi classes even
    though the factors individually change sign with the class.
    """
    phi_tt, phi_tT = _phi_averages(model, state, T)
    return phi_tt * (phi_tt - phi_tT)
