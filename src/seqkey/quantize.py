"""Scalar quantization analysis for jointly Gaussian (X, Y).

Two quantizer flavours live here. The uniform one follows the analytic
construction behind the exponential-gap bound: cell n carries mass
p_X(t_n) Delta at center t_n = Delta/2 + (n-1) Delta, i.e. density times
width rather than the exact cell integral. Those masses do not sum to one,
so they are renormalized into proper pmfs before any entropy is taken (the
factor is reported by quantizer_marginal); without the renormalization the
raw Riemann sums overshoot I(X;Y) once Delta approaches sigma_x. The
construction is only meaningful while the mass sum is already close to 1,
which is enforced as a precondition (|sum - 1| <= 1e-6, reached for
Delta <~ 1.16 sigma_x); coarser widths raise instead of returning numbers
the analysis does not cover.

A warning about expectations: midpoint sums of Gaussian-type integrands
converge spectrally, so the measured gap I(X;Y) - I(X_Q;Y) collapses to
float precision once Delta < ~0.7 sigma_x, far faster than the analytic
bound's e^{-R1} envelope. bound_check therefore clips gaps at GAP_FLOOR
before anyone takes a log.

The non-uniform path (Partition, optimize_partition) is the honest
quantizer: exact per-cell masses from the Gaussian cdf and conditional
masses integrated over y. optimize_partition takes BFGS steps on the
boundary positions; the objective and its analytic gradient come from one
vectorized pass over a fixed composite Gauss-Legendre rule in y, and the
solve stops when the gradient inf-norm reaches 1e-8 or raises
ConvergenceError. This is the comparison showing scalar quantization
nearly closing the gap to the rate-limited capacity at high rate.

All quantities are in nats.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from seqkey.errors import ConvergenceError, ParameterError
from seqkey.gaussian import GaussianSource, h_x_given_y
from seqkey.measures import (
    ZERO_MASS,
    DiscreteDist,
    check_int,
    check_rate,
    entropy_nats,
    gaussian_mi,
)

GAP_FLOOR = 1e-16
_Y_TOL = 1e-9          # absolute tolerance of the y-integration
_Y_HALFWIDTH = 8.5     # integration window in units of sigma_y
_Y_PANELS = 64         # panels of the fixed y-rule inside optimize_partition
_GRAD_TOL = 1e-8       # optimize_partition stops at this gradient inf-norm
PARTITION_ITERS = 400  # optimize_partition's BFGS step budget
_SUPPORT_SIGMAS = 8.0  # center grid half-width over sigma_x (tail < 1e-15)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ERF = np.vectorize(math.erf, otypes=[float])


def _norm_cdf(t):
    return 0.5 * (1.0 + _ERF(t / math.sqrt(2.0)))


def _std_pdf(t):
    return np.exp(-0.5 * t * t) / _SQRT_2PI


def _y_density(y, sy):
    return np.exp(-y * y / (2.0 * sy * sy)) / (_SQRT_2PI * sy)


@functools.lru_cache(maxsize=None)
def _leggauss(order):
    # Gauss-Legendre nodes and weights on [-1, 1], built once per order
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _adaptive_gl(fun, lo, hi, tol, order=16, max_depth=26):
    """Adaptive Gauss-Legendre integration of a vectorized integrand.

    Panels whose halves disagree by more than their proportional share of
    ``tol`` are split; the error estimate is the usual |coarse - fine|.
    """
    nodes, weights = _leggauss(order)
    full = hi - lo

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(fun(mid + half * nodes) @ weights)

    total = 0.0
    stack = [(lo, hi, panel(lo, hi), 0)]
    while stack:
        a, b, coarse, depth = stack.pop()
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        fine = left + right
        if abs(fine - coarse) <= tol * (b - a) / full or depth >= max_depth:
            total += fine
        else:
            stack.append((a, m, left, depth + 1))
            stack.append((m, b, right, depth + 1))
    return total


@dataclass(frozen=True)
class UniformQuantizer:
    """Uniform cell width. The center grid covers 8 sigma_x of the source
    on each side (tail mass < 1e-15).
    """

    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ParameterError(f"delta must be > 0, got {self.delta!r}")

    def centers(self, halfwidth):
        """Cell centers t_n = delta/2 + (n-1) delta covering [-hw, hw]."""
        k = int(math.ceil(halfwidth / self.delta + 0.5))
        return (np.arange(-k + 1, k + 1) - 0.5) * self.delta


def _geometry(src):
    # additive view of the pair: sigma_y, the regression slope of
    # E[X|Y=y] = (sigma_x^2/sigma_y^2) y, and the conditional std
    rho = abs(src.rho_xy)
    if not 0.0 < rho < 1.0:
        raise ParameterError(
            f"the additive-noise view needs 0 < |rho_xy| < 1, got "
            f"{src.rho_xy!r}")
    sy = src.sigma_x / rho
    slope = src.sigma_x**2 / sy**2
    sc = src.sigma_x * math.sqrt(1.0 - rho * rho)
    return sy, slope, sc


def quantizer_marginal(src, q):
    """Renormalized pmf of the uniformly quantized source, with its factor.

    Returns ``(dist, factor)`` where factor is the raw sum of the
    p_X(t_n) Delta masses; the pmf is the masses divided by it. Raises when
    coarseness pushes the factor outside [1 - 1e-6, 1 + 1e-6].
    """
    t = q.centers(_SUPPORT_SIGMAS * src.sigma_x)
    masses = q.delta * np.exp(-t * t / (2.0 * src.sigma_x**2)) / (
        _SQRT_2PI * src.sigma_x)
    factor = float(masses.sum())
    if abs(factor - 1.0) > 1.0e-6:
        raise ParameterError(
            f"density-times-width masses sum to {factor!r}; delta = "
            f"{q.delta!r} is too coarse for the midpoint construction "
            "(keep delta below about 1.16 sigma_x)")
    return DiscreteDist(masses / factor), factor


def quantized_mi(src, q):
    """I(X_Q;Y) of the uniform pseudo-quantizer, nats.

    H(U) - H(U|Y) with the cell-center masses renormalized per pmf: the
    marginal over the center grid, and for each y the conditional masses
    p_{X|Y}(t_n|y) Delta. The y-integration is adaptive Gauss-Legendre to
    1e-9 absolute. Within the coarseness precondition the result stays
    below gaussian_mi(rho_xy) up to float dust.
    """
    if src.rho_xy == 0.0:
        return 0.0
    marg, _ = quantizer_marginal(src, q)
    sy, slope, sc = _geometry(src)
    t = q.centers(_SUPPORT_SIGMAS * src.sigma_x)
    log_norm = math.log(q.delta / (sc * _SQRT_2PI))

    def integrand(y):
        arg = (t[None, :] - slope * y[:, None]) / sc
        cond = np.exp(-0.5 * arg * arg + log_norm)
        cond /= cond.sum(axis=1, keepdims=True)
        return _y_density(y, sy) * entropy_nats(cond, axis=1)

    lim = _Y_HALFWIDTH * sy
    h_cond = _adaptive_gl(integrand, -lim, lim, _Y_TOL)
    return float(entropy_nats(marg.masses) - h_cond)


@dataclass(frozen=True)
class GapBoundConstants:
    """The alpha, beta, K of the gap bound and their four ingredients."""

    alpha: float
    beta: float
    kappa: float
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float


def gap_constants(src):
    """Assemble the bound constants from sigma_x and the additive noise.

    alpha1 and beta1 come from the tail of -p_X log p_X, alpha2 and beta2
    from the conditional counterpart; kappa is the stated closed-form upper
    bound on the curvature constant (the exact max-of-second-derivatives
    expression is not carried out analytically anywhere, so the bound is
    the implementable choice).
    """
    sy, _, _ = _geometry(src)
    sx = src.sigma_x
    sn = src.sigma_n
    a1 = 1.0 / (_SQRT_2PI * sx)
    b1 = abs(math.log(1.0 / (_SQRT_2PI * sx)) - 0.5)
    a2 = (1.0 / _SQRT_2PI) * (sy**2 - sx**2 / (math.sqrt(2.0) * sn))**2 / (
        sy**2 * sn**3)
    b2 = 0.5 * math.sqrt(math.pi) * a2 + abs(
        (1.0 / (2.0 * math.sqrt(2.0) * sn))
        * ((sx**2 / sy**2) / (2.0 * sn**2)
           - math.log((sy**2 / sx**2) / (2.0 * math.pi * sn**2))))
    kappa = (abs(math.log(_SQRT_2PI * sx)) + 11.0 + 4.0 * b2
             + math.sqrt(math.pi) * a2
             * (11.0 / math.sqrt(2.0 * sn**2) - 2.0)) / (
        24.0 * math.sqrt(math.pi) * sx**2)
    consts = GapBoundConstants(alpha=a1 + a2, beta=b1 + b2, kappa=kappa,
                               alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)
    for name in ("alpha", "beta", "kappa", "alpha1", "beta1", "alpha2",
                 "beta2"):
        if not getattr(consts, name) > 0.0:
            raise ParameterError(
                f"bound constant {name} is not positive for sigma_x = "
                f"{sx!r}, sigma_n = {sn!r}")
    return consts


def gap_bound(src, r1, consts=None):
    """Analytic bound on |I(X;Y) - I(Y;U)| at rate r1, nats.

    ``[alpha r1 + beta] e^{-r1} + K sqrt(r1) e^{2 (h(X|Y) - r1)}``.
    Loose by design: the measured gap sits far below it.
    """
    r1 = check_rate(r1, positive=True)
    c = consts or gap_constants(src)
    h_cond = h_x_given_y(src)
    return ((c.alpha * r1 + c.beta) * math.exp(-r1)
            + c.kappa * math.sqrt(r1) * math.exp(2.0 * (h_cond - r1)))


@dataclass(frozen=True)
class BoundCheckReport:
    """Per-rate curves from bound_check (all arrays aligned with r1)."""

    r1: np.ndarray
    delta: np.ndarray
    mi: np.ndarray
    gap: np.ndarray          # raw gaussian_mi - quantized_mi, may touch 0
    gap_clipped: np.ndarray  # max(gap, GAP_FLOOR), safe for logs
    bound: np.ndarray
    h_cond: float
    all_within: bool


def bound_check(src, r1_grid):
    """Verify gap <= bound with Delta = e^{h(X|Y) - R1} at each rate.

    Rates must exceed h(X|Y): that is the regime where the construction's
    Delta falls below 1 and the bound decays. Gaps are reported raw and
    clipped at GAP_FLOOR (the spectral convergence note in the module
    docstring explains why the floor is reached almost immediately).
    """
    h_cond = h_x_given_y(src)
    rates = np.asarray(r1_grid, dtype=float)
    if rates.ndim != 1 or rates.size == 0:
        raise ParameterError("r1_grid must be a non-empty 1-D array")
    if not np.all(rates > h_cond):
        raise ParameterError(
            f"every rate must exceed h(X|Y) = {h_cond!r} for the gap bound "
            "to decay")
    consts = gap_constants(src)
    gmi = gaussian_mi(src.rho_xy)
    deltas = np.exp(h_cond - rates)
    mis = np.array([quantized_mi(src, UniformQuantizer(float(d)))
                    for d in deltas])
    gaps = gmi - mis
    bounds = np.array([gap_bound(src, float(r), consts) for r in rates])
    clipped = np.maximum(gaps, GAP_FLOOR)
    return BoundCheckReport(
        r1=rates, delta=deltas, mi=mis, gap=gaps, gap_clipped=clipped,
        bound=bounds, h_cond=h_cond,
        all_within=bool(np.all(clipped <= bounds)))


@dataclass(frozen=True)
class Partition:
    """Cell boundaries of a non-uniform scalar quantizer (L-1 reals)."""

    boundaries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.boundaries, dtype=float)
        if arr.ndim != 1 or not 1 <= arr.size <= 14:
            raise ParameterError(
                "boundaries must be 1-D with 1..14 entries (2 to 15 cells), "
                f"got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("boundaries must be finite")
        if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
            raise ParameterError(
                f"boundaries must be strictly increasing, got {arr.tolist()!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "boundaries", arr)

    @property
    def n_cells(self):
        return self.boundaries.size + 1


def _cell_masses(edges_scaled):
    # exact Gaussian masses between consecutive scaled edges, tails included
    cdf = _norm_cdf(edges_scaled)
    if cdf.ndim == 1:
        return np.diff(np.concatenate(([0.0], cdf, [1.0])))
    pad = np.zeros((cdf.shape[0], 1))
    return np.diff(np.concatenate((pad, cdf, 1.0 - pad), axis=1), axis=1)


def _cond_cells(b, y, slope, sc):
    # scaled boundaries (b - E[X|y]) / sigma_c for each y (rows) and the
    # conditional cell masses P(cell | y) they cut
    a = (b[None, :] - slope * y[:, None]) / sc
    return a, _cell_masses(a)


def _h_cells_given_y(src, part, tol):
    # H(U|Y) in nats: the cell entropy given y, integrated over y
    sy, slope, sc = _geometry(src)
    b = part.boundaries

    def integrand(y):
        _, cond = _cond_cells(b, y, slope, sc)
        return _y_density(y, sy) * entropy_nats(cond, axis=1)

    lim = _Y_HALFWIDTH * sy
    return _adaptive_gl(integrand, -lim, lim, tol)


def partition_mi(src, part, tol=_Y_TOL):
    """I(X_Q;Y) of a boundary partition with exact cell masses, nats."""
    if src.rho_xy == 0.0:
        return 0.0
    h_u = entropy_nats(_cell_masses(part.boundaries / src.sigma_x))
    return float(h_u - _h_cells_given_y(src, part, tol))


def partition_rate(src, part, tol=_Y_TOL):
    """H(U|Y) of the partition in nats: the reconciliation budget it needs."""
    return float(_h_cells_given_y(src, part, tol))


def _unit_y_rule(src):
    # slope, sigma_c and a fixed y-rule in units of sigma_x, where the MI of
    # a partition depends on the boundaries over sigma_x alone: composite
    # 16-node Gauss-Legendre over _Y_PANELS equal panels of the
    # +-8.5 sigma_y window, with the density p(y) folded into the weights
    sy, slope, sc = _geometry(src)
    sy /= src.sigma_x
    nodes, weights = _leggauss(16)
    lim = _Y_HALFWIDTH * sy
    edges = np.linspace(-lim, lim, _Y_PANELS + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    y = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    return slope, sc / src.sigma_x, y, w * _y_density(y, sy)


def _log_ratio(masses):
    # ln(P_i / P_{i+1}) across each boundary (last axis); 0 where a side
    # holds no mass, which only happens where the density weight vanishes
    lo, hi = masses[..., :-1], masses[..., 1:]
    both = (lo > ZERO_MASS) & (hi > ZERO_MASS)
    return np.log(np.where(both, lo, 1.0) / np.where(both, hi, 1.0))


def _mi_and_grad(u, slope, sc, y, wy):
    """I(X_Q;Y) and its gradient on a fixed y-rule, in units of sigma_x.

    ``u`` are the boundaries over sigma_x and ``sc``, ``y`` and ``wy`` are
    scaled the same way, so the gradient is dI/du:
    dI/du_i = -phi(u_i) ln(P_i/P_{i+1})
              + int p(y) phi(u_i|y) ln(P_{i|y}/P_{i+1|y}) dy,
    both terms from the same cell masses as the value.
    """
    a, cond = _cond_cells(u, y, slope, sc)
    masses = _cell_masses(u)
    mi = entropy_nats(masses) - wy @ entropy_nats(cond, axis=1)
    grad = (wy @ (_std_pdf(a) * _log_ratio(cond)) / sc
            - _std_pdf(u) * _log_ratio(masses))
    return float(mi), grad


def optimize_partition(src, n_cells):
    """Boundaries maximizing I(X_Q;Y) for L cells, by BFGS ascent.

    Starts from the quantile partition (equal cell masses). Each step
    moves along the BFGS direction and halves it until the boundaries stay
    strictly increasing and the Armijo condition holds. The objective and
    its analytic gradient come from one vectorized pass over a fixed
    y-rule (64 panels of 16 Gauss-Legendre nodes on +-8.5 sigma_y). The
    solve runs on the boundaries in units of sigma_x, on which the MI
    alone depends, and converges once the gradient inf-norm there is at
    most 1e-8; when PARTITION_ITERS (400) steps do not get there, or the
    step halving stalls, it raises ConvergenceError. Returns
    ``(Partition, mi)`` with mi from ``partition_mi(tol=1e-11)`` at the
    final boundaries.
    """
    n_cells = check_int(n_cells, "cell count", 2, 15)
    rule = _unit_y_rule(src)  # validates rho; rho = 0 has no optimum
    quant = statistics.NormalDist()
    u = np.array([quant.inv_cdf(i / n_cells) for i in range(1, n_cells)])

    cur, grad = _mi_and_grad(u, *rule)
    inv_hess = np.eye(u.size)
    iters = 0
    while np.abs(grad).max() > _GRAD_TOL:
        if iters == PARTITION_ITERS:
            raise ConvergenceError(
                f"{n_cells}-cell partition: gradient inf-norm "
                f"{np.abs(grad).max():.3e} > {_GRAD_TOL:g} after "
                f"{PARTITION_ITERS} iterations")
        iters += 1
        step = inv_hess @ grad
        rise = grad @ step
        t = 1.0
        while True:
            cand = u + t * step
            if np.all(np.diff(cand) > 1e-9):
                val, cand_grad = _mi_and_grad(cand, *rule)
                if val >= cur + 1e-4 * t * rise:
                    break
            t *= 0.5
            if t < 1e-12:
                raise ConvergenceError(
                    f"{n_cells}-cell partition: line search stalled at "
                    f"gradient inf-norm {np.abs(grad).max():.3e} after "
                    f"{iters} iterations")
        s, dg = cand - u, grad - cand_grad
        curv = s @ dg
        if curv > 0.0:
            if iters == 1:
                inv_hess *= curv / (dg @ dg)
            left = np.eye(u.size) - np.outer(s, dg) / curv
            inv_hess = left @ inv_hess @ left.T + np.outer(s, s) / curv
        u, cur, grad = cand, val, cand_grad
    part = Partition(src.sigma_x * u)
    return part, partition_mi(src, part, tol=1e-11)
