"""Bond prices, rates, and risk diagnostics by rho-weighted quadrature.

Everything here evaluates ratios of integrals of the form

    int_L^inf rho_s M(t, s, xi) ds,

truncated at the horizon S_max where the initial curve has decayed to
TAIL_EPSILON of its starting value. The integrand is a product of an
exponentially decaying density and an exponential tilt in phi_s * xi, so
all sums run in log space with a max-exponent shift; the realized driver
value never overflows a price.

Every integral runs on one rule. On the flat curve rho_s = y exp(-y s),
the coordinate u = exp(-beta (s - L)) turns an integral from L into

    int_L^inf rho_s M(t, s, xi) ds = P0(L) int_0^1 (y/beta) u^alpha
                                     M(t, L - ln(u)/beta, xi) du,

with alpha = y/beta - 1. With beta = b for phi_s = c exp(-b s), phi is
linear in u, so a fixed Gauss-Jacobi rule for the weight u^alpha
resolves the rest with 16 nodes; the same rule from S_max, subtracted,
truncates the integral there. The rule is checked against the 12-node
rule and climbs a ladder of node counts where they differ. A
KernelEvaluator holds it for one (model, valuation time) pair: a batch
(log_integral_batch, phi_average_batch, and through them Monte Carlo
and the phi averages of the risk quantities) checks it at its own
draws, and refine checks it at one draw for the scalar quantities and
the critical-level solve, which then evaluate on the rule refine
accepted.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError, QuadratureError, UnsupportedModelError
from .levy import LevyFamily
from .martingales import ExpDecayPhi, ModelState, PhiFunction, _check_state_support, log_martingale_value
from .quadrature import jacobi_rule
from .termstructure import TAIL_EPSILON, FlatYieldCurve

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


# Gauss-Jacobi rule of the kernel: nodes per bound, each rung checked
# against the one before, so _RULE_NODES is the first a batch can take;
# the shifts of a call come from a table on _ENVELOPE_POINTS grid points.
_RULE_LADDER = (12, 16, 24, 48, 96, 192, 384)
_RULE_NODES = _RULE_LADDER[1]
_ENVELOPE_POINTS = 257
# entries an evaluator keeps per memo: node data per (bounds, node count),
# rule checks per (bounds, draw) and the accepted rule per bounds; past
# this many the oldest goes
_MEMO = 64


def _remember(memo: dict, key, value):
    """memo[key] = value, dropping the oldest entry past _MEMO; value."""
    memo[key] = value
    if len(memo) > _MEMO:
        del memo[next(iter(memo))]
    return value


class _Rule(tuple):
    """(phi, base, W) of KernelEvaluator._rule_data, with the operands
    of _rule_integrals built once per rule: the columns [phi, base], and
    W over W * phi, which also sums the phi averages."""

    @functools.cached_property
    def columns(self) -> np.ndarray:
        return np.column_stack(self[:2])

    @functools.cached_property
    def W_phi(self) -> np.ndarray:
        phi, _, W = self
        return np.vstack([W, W * phi])


def _envelope(phi: np.ndarray, base: np.ndarray, lo: float, hi: float):
    """f(x, out) writing -max_i (phi_i x + base_i) into out for x in
    [lo, hi], or None; see KernelEvaluator._rule_integrals."""
    h = (hi - lo) / (_ENVELOPE_POINTS - 1) or 1.0
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


@dataclass(frozen=True)
class RateModel:
    """A rational term-structure model: initial curve, driver, tilt.

    The triple (rho, family, phi) determines every price in the model;
    rel_tol, the one numerical setting, is every integral's relative error
    target. Construction validates 0 < rel_tol < 1, that the curve is a
    FlatYieldCurve (the kernel's rule is built for its density), that
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
        """beta of the kernel rule's coordinate u = exp(-beta (s - L)):
        the tilt's decay rate b for ExpDecayPhi with b > 0, which makes phi
        linear in u; the flat yield y for a bump or constant tilt."""
        if isinstance(self.phi, ExpDecayPhi) and self.phi.b > 0.0:
            return self.phi.b
        return self.ts.y

    def evaluator(self, t: float) -> "KernelEvaluator":
        """Kernel evaluator, and with it its rules, per valuation time (small LRU)."""
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
    """The kernel s -> rho_s M(t, s, xi) on [t, S_max] at one valuation
    time, on the Gauss-Jacobi rule of the module docstring.

    refine(xi, *lowers) checks the rule at one draw, as a batch of that
    draw would, and keeps the rule it accepts for that tuple of bounds
    with its values there. log_integral and log_bond_and_slope evaluate
    on the rule the latest refine of their bounds accepted, so a solve
    that refines at its bracket ends sees one smooth function of xi, and
    they read the check's values at the draw it checked. The node data
    of each (bounds, node count) is built once, for the _MEMO latest.
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
        self._data: Dict[tuple, tuple] = {}  # (bounds, n) -> _rule_data
        self._checks: Dict[tuple, tuple] = {}  # (bounds, xi) -> (data, xi, log integrals at xi)
        self._rules: Dict[tuple, tuple] = {}  # bounds -> the entry of its latest refine

    def _bounds(self, lowers: Sequence[float]) -> tuple:
        """The distinct lower bounds, in order. DomainError for none, or for
        one that is nan or before t."""
        bounds = tuple(dict.fromkeys(float(L) for L in lowers))
        if not bounds:
            raise DomainError("kernel integrals need at least one lower bound")
        for L in bounds:
            if not L >= self.t:  # nan too
                raise DomainError(f"kernel lower bound {L} must be >= valuation time {self.t}")
        return bounds

    # -- the scalar entry points ---------------------------------------------

    def _check(self, xi: float, bounds: tuple) -> tuple:
        """(node data, xi, log integrals at xi) of the rule the check at
        this draw accepts, kept as the rule of bounds. The check is a
        function of (bounds, xi), run once while the memo keeps it."""
        xi = float(xi)
        got = self._checks.get((bounds, xi))
        if got is None:
            data, _, (logs, _) = self._rule_nodes(np.array([xi]), bounds, False)
            got = _remember(self._checks, (bounds, xi), (data, xi, logs[:, 0]))
        return _remember(self._rules, bounds, got)

    def refine(self, xi: float, *lowers: float) -> None:
        """Check the rule at this xi for the integrals from each lower bound
        (from t when none is given) to S_max, climbing _RULE_LADDER as a
        batch of this one draw would, and keep the rule it accepts for
        these bounds. rel_tol governs the quadrature error on the
        truncated interval; no rule reduces the tail beyond S_max.
        """
        self._check(xi, self._bounds(lowers or (self.t,)))

    def _accepted(self, xi: float, bounds: tuple) -> tuple:
        """(node data, draw, log integrals there) of the rule accepted for
        bounds, checked at xi first when these bounds were never refined."""
        got = self._rules.get(bounds)
        return self._check(xi, bounds) if got is None else got

    def log_integral(self, xi: float, lower: Optional[float] = None) -> float:
        """log of int_lower^S rho_s M(t,s,xi) ds on the rule refine accepted."""
        xi = float(xi)
        data, checked, logs = self._accepted(xi, self._bounds((self.t if lower is None else lower,)))
        if checked != xi:
            logs = self._rule_integrals(np.array([xi]), data, False)[0][:, 0]
        return float(logs[0])

    def log_bond_and_slope(self, xi: float, T: float) -> Tuple[float, float]:
        """(log P(t, T, xi), d log P / d xi) in one pass of the rule that
        refine(xi, t, T) accepted.

        The slope is Phi_tT - Phi_tt, the bond volatility: the exact
        derivative in xi of the quadrature sums that give log P.
        """
        xi = float(xi)
        bounds = self._bounds((self.t, T))
        logs, avgs = self._rule_integrals(np.array([xi]), self._accepted(xi, bounds)[0], True)
        j = len(bounds) - 1  # T, or t itself at T = t
        return float(logs[j, 0] - logs[0, 0]), float(avgs[j, 0] - avgs[0, 0])

    # -- the rule: Gauss-Jacobi in u = exp(-beta (s - L)) ---------------------

    def _rule_data(self, bounds: Sequence[float], n: int):
        """Node data of the n-point rule from every bound and from S_max,
        built once per (bounds, n) while the memo keeps it.

        Returns (phi, log(P0(L) w_i) - t psi(phi)) at the nodes of each
        bound, then of S_max, and the (nodes x bounds) matrix that sums
        a bound's nodes minus the S_max nodes, which truncates every
        integral at S_max. A bound at or beyond S_max sums nothing.
        """
        key = (tuple(bounds), n)
        if key in self._data:
            return self._data[key]
        model = self.model
        beta = model.rule_rate
        log_u, log_w = jacobi_rule(n, model.ts.y / beta - 1.0)
        starts = np.array([min(L, self.S) for L in bounds] + [self.S])
        s = (starts[:, None] - log_u / beta).ravel()
        phi = np.asarray(model.phi(s), dtype=float)
        psi = np.asarray(model.fam.exponent(phi), dtype=float)
        base = (-model.ts.y * starts[:, None] + log_w).ravel() - self.t * psi  # ln P0(L) = -y L
        W = np.zeros((len(bounds), s.size))
        for j in range(len(bounds)):
            if starts[j] < self.S:
                W[j, j * n : (j + 1) * n] = 1.0
                W[j, -n:] = -1.0
        return _remember(self._data, key, _Rule((phi, base, W)))

    def _rule_integrals(self, xi: np.ndarray, data, phi_average: bool, span=None):
        """(log int_L^S rho M, phi average over [L, S] or None), each of
        shape (bounds, draws), on the rule whose node data _rule_data gave;
        calls of more than 16 draws need span, the (min, max) of xi.

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
            W = data.W_phi
        minus_shift = _envelope(phi, base, *span) if xi.size > 16 else None
        A = data.columns if minus_shift is None else np.column_stack([phi, base, np.ones(nodes)])
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
        """(node data, probes, _rule_integrals at the probes) of the first
        rung of _RULE_LADDER, from _RULE_NODES on, that agrees with the
        rung before it to rel_tol in every log integral (and phi average,
        when asked for) at the probes, the batch's min, mean and max draw,
        on node sets from the _rule_data memo. Only a bound at or past S_max may give a
        value that is not finite (an empty integral). Raises DomainError
        when a probe is not finite or lies below the driver's support,
        QuadratureError when the top two rungs (384 and 192) differ.
        """
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

        fine = values(_RULE_LADDER[0])[2]
        for m, n in zip(_RULE_LADDER, _RULE_LADDER[1:]):
            coarse, (data, got, fine) = fine, values(n)
            with np.errstate(invalid="ignore"):  # -inf - -inf, nan
                ok = past | (np.abs(fine - coarse) <= tol)
            if ok.all():
                return data, probes, got
        j, i = np.argwhere(~ok)[0]
        gap = abs(fine[j, i] - coarse[j, i])
        why = (
            f"differ by {gap:.3e}, above rel_tol {tol:g}"
            if math.isfinite(gap)
            else f"give {fine[j, i]} and {coarse[j, i]}, not finite"
        )
        raise QuadratureError(
            f"kernel rule (t={self.t}, bounds={list(bounds)}, xi={probes[i % 3]}): "
            f"{n} and {m} nodes {why}",
            rel_err=float(gap),
        )

    def _batch(self, xi, lowers: Sequence[float], phi_average: bool) -> dict:
        xi = np.asarray(xi, dtype=float)
        if xi.ndim > 1:
            raise DomainError(f"driver draws must be a scalar or a 1-D array, got shape {xi.shape}")
        bounds = self._bounds(lowers)
        if xi.size == 0:
            return {L: np.empty(0) for L in bounds}
        data, probes, probed = self._rule_nodes(xi, bounds, phi_average)
        if xi.size == 1:  # its probes are the draw, padded to 16 columns as it would be
            out, avg = (None if v is None else v[:, :1] for v in probed)
        else:
            out, avg = self._rule_integrals(xi, data, phi_average, (float(probes[0]), float(probes[2])))
        return {L: (avg if phi_average else out)[j] for j, L in enumerate(bounds)}

    def log_integral_batch(self, xi: np.ndarray, lowers: Sequence[float]) -> Dict[float, np.ndarray]:
        """log kernel integrals for an array of xi at several lower bounds,
        on the Gauss-Jacobi rule of the module docstring minus the same rule
        from S_max, checked at the batch's own draws (no refine): 16 nodes
        per bound where they agree with 12, else the rung of _rule_nodes.
        Every xi gets its exact value on that rule, in blocks of about 1 MiB
        (_BLOCK_FLOATS), so the memory a call needs beyond its outputs does
        not grow with the batch.
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
    try:
        f = math.exp(log_num - ev.log_integral(state.xi, T))
    except OverflowError:
        f = math.inf
    if not (f > 0.0) or not math.isfinite(f):
        raise NumericalError(f"forward rate came out {f}, not positive and finite; quadrature inconsistency")
    return f


def _phi_averages(model: RateModel, state: ModelState, T: float) -> Tuple[float, float]:
    """(Phi_tt, Phi_tT) from one pass of the kernel rule at the state's draw.
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
