"""Closed-form binary capacities and the reconciliation counterexample.

Two binary source families live here. ``BscCascadeSource`` is the symmetric
degraded cascade X -> Y -> Z (BSC(p) then BSC(q)) whose rate-limited
reconciliation and weak secret-key capacities have closed forms through the
root beta0 of ``H_b(p * beta) - H_b(beta) = R1`` when the input is uniform.
``AsymBinarySource`` is the asymmetric cascade behind the counterexample
showing that reconciliation and privacy amplification are not independent
under a rate limit: the test channel that maximizes the reconciliation rate
f subject to the public-rate constraint (h - f) = R1 can be strictly worse
for the achievable key rate (f - g) than the key-rate optimum, by more than
ten percent on the reference parameter set.

All rates here are in bits. Closed forms assume a uniform input; a
non-uniform prior routes through the generic test-channel optimizer instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from seqkey.errors import InfeasibleError, ParameterError, RateSaturated
from seqkey.measures import (
    LN2,
    binary_entropy,
    bisect,
    check_int,
    check_prob,
    check_rate,
    conditional_entropy,
    joint_from_cascade,
    mutual_information,
    star,
    xlogx,
)
from seqkey.measures import binary_entropy_unchecked as _h2

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SCAN_SLACK = 1e-12  # bits; far above the scan's rounding, below its steps
RESIDUAL_REL = 1e-6  # largest constraint residual reported, relative to r1


def bsc_matrix(t):
    """Row-stochastic binary symmetric channel with crossover t."""
    t = check_prob(t, "crossover")
    return np.array([[1.0 - t, t], [t, 1.0 - t]])


@dataclass(frozen=True)
class BscCascadeSource:
    """X -> Y -> Z through BSC(p) then BSC(q), with X ~ Bernoulli(prior).

    The closed-form capacity paths require ``prior = 1/2``; other priors are
    legal and fall back to the generic optimizer on the induced joint.
    """

    p: float
    q: float
    prior: float = 0.5

    def __post_init__(self):
        check_prob(self.p, "p")
        check_prob(self.q, "q")
        check_prob(self.prior, "prior")

    def _px(self):
        return np.array([1.0 - self.prior, self.prior])

    def joint_xy(self):
        """Induced joint over (X, Y) with a singleton Z axis."""
        return joint_from_cascade(self._px(), bsc_matrix(self.p))

    def joint(self):
        """Induced degraded joint over (X, Y, Z)."""
        return joint_from_cascade(self._px(), bsc_matrix(self.p),
                                  bsc_matrix(self.q))

    def h_x_given_y(self):
        """H(X|Y) in bits; equals H_b(p) at the uniform prior."""
        return conditional_entropy(self.joint_xy(), "x", "y")


def beta0_solve(p, r1):
    """Solve ``H_b(p * beta) - H_b(beta) = r1`` for beta.

    Parameters
    ----------
    p : float
        BSC crossover, strictly inside (0, 1/2).
    r1 : float
        Public communication rate in bits, 0 < r1 <= H_b(p).

    Returns
    -------
    (float, float)
        The two symmetric roots (beta0, 1 - beta0), the first in [0, 1/2].

    The left side decreases strictly from H_b(p) at beta = 0 to 0 at
    beta = 1/2, so bisection brackets the unique root in [0, 1/2]; the
    mirror root follows from the beta <-> 1 - beta symmetry of both entropy
    terms. Rates above H_b(p) = H(X|Y) raise RateSaturated so callers can
    switch to the unconstrained formula.
    """
    p = check_prob(p, "p")
    if not 0.0 < p < 0.5:
        raise ParameterError(f"crossover must lie strictly in (0, 1/2), got {p!r}")
    r1 = check_rate(r1, positive=True)
    cap = binary_entropy(p)
    if r1 > cap:
        raise RateSaturated(
            f"rate {r1!r} exceeds H(X|Y) = {cap!r}; the constraint is inactive")
    beta = bisect(
        lambda b: binary_entropy(star(p, b)) - binary_entropy(b) > r1, 0.0, 0.5)
    return beta, 1.0 - beta


def _optimized(joint, points):
    # non-uniform priors have no closed form: saturated rates take the
    # unconstrained value, every other (r1, objective) point goes to the
    # generic optimizer, all in one sweep
    from seqkey.optimizer import optimize_sweep

    hxy = conditional_entropy(joint, "x", "y")
    solved = iter(optimize_sweep(joint, [pt for pt in points if pt[0] < hxy]))
    values = []
    for r1, objective in points:
        if r1 < hxy:
            values.append(next(solved).value)
            continue
        val = mutual_information(joint, "x", "y")
        if objective == "wsk":
            val -= mutual_information(joint, "x", "z")
        values.append(max(val, 0.0))
    return values


def _bsc_point(src, r1):
    """(c_rec, c_wsk, beta0) of the cascade at the uniform prior.

    One beta0_solve serves both capacities and the column. Outside the
    binding constraint beta0 is the attaining channel: 0 (the identity)
    for a noiseless pair or a rate above H_b(p), 1/2 (the useless channel)
    for p = 1/2 or r1 = 0. At r1 = H_b(p) exactly it is the bisection's
    root, while the capacities take their saturated values.
    """
    pp = min(src.p, 1.0 - src.p)  # relabeling Y maps p to 1-p, capacities agree
    qq = min(src.q, 1.0 - src.q)
    h = binary_entropy(pp)
    if pp == 0.5 or (r1 == 0.0 and pp > 0.0):
        beta = 0.5
    elif pp == 0.0 or r1 > h:
        beta = 0.0
    else:
        beta, _ = beta0_solve(pp, r1)
    if r1 >= h:
        e = pp
    elif r1 == 0.0 or pp == 0.5:
        return 0.0, 0.0, beta
    else:
        e = star(pp, beta)
    return (1.0 - binary_entropy(e),
            binary_entropy(star(e, qq)) - binary_entropy(e), beta)


def c_rec_bsc(src, r1):
    """Rate-limited reconciliation capacity of the BSC cascade, in bits.

    ``1 - H_b(p * beta0)`` while the rate constraint binds, saturating at
    ``1 - H_b(p) = I(X;Y)`` once r1 reaches H(X|Y).
    """
    r1 = check_rate(r1)
    if src.prior != 0.5:
        return _optimized(src.joint(), [(r1, "rec")])[0]
    return _bsc_point(src, r1)[0]


def c_wsk_bsc(src, r1):
    """Rate-limited weak secret-key capacity of the BSC cascade, in bits.

    ``H_b(p * beta0 * q) - H_b(p * beta0)`` while the constraint binds,
    saturating at ``H_b(p * q) - H_b(p)``. Reduces to c_rec_bsc when
    q = 1/2 (the eavesdropper's symbol carries nothing).
    """
    r1 = check_rate(r1)
    if src.prior != 0.5:
        return _optimized(src.joint(), [(r1, "wsk")])[0]
    return _bsc_point(src, r1)[1]


def c_wsk_bec(src, epsilon, r1):
    """WSK capacity when the eavesdropper sees Y through a BEC.

    ``epsilon`` is the erasure probability, so epsilon = 1 blinds the
    eavesdropper completely and recovers the reconciliation capacity. The
    value is epsilon * c_rec_bsc(src, r1) at every rate.
    """
    epsilon = check_prob(epsilon, "epsilon")
    return epsilon * c_rec_bsc(src, r1)


def capacity_curves(src, rates, erasure=None):
    """The (c_rec, c_wsk, beta0) columns of a capacity curve, as lists.

    c_rec_bsc at every rate, and c_wsk_bsc or, with ``erasure``,
    c_wsk_bec(src, erasure, r1), with the values the point-by-point calls
    give. At the uniform prior each rate solves beta0 once for all three
    columns (see _bsc_point); a non-uniform prior has no closed form, so
    its beta0 column is NaN, and it solves every rec point once and every
    wsk point that needs it in one optimizer sweep.
    """
    if erasure is not None:
        erasure = check_prob(erasure, "epsilon")
    rates = [check_rate(r1) for r1 in rates]
    if src.prior != 0.5:
        objectives = ("rec",) if erasure is not None else ("rec", "wsk")
        values = _optimized(src.joint(),
                            [(r1, o) for o in objectives for r1 in rates])
        rec, wsk = values[:len(rates)], values[len(rates):]
        beta = [math.nan] * len(rates)
    else:
        points = [_bsc_point(src, r1) for r1 in rates]
        rec, wsk, beta = ([pt[i] for pt in points] for i in range(3))
    if erasure is not None:
        wsk = [erasure * value for value in rec]
    return rec, wsk, beta


@dataclass(frozen=True)
class AsymBinarySource:
    """X ~ Bernoulli(p) through asymmetric binary channels X -> Y -> Z.

    beta1 and gamma1 are the crossover probabilities out of symbol 0,
    beta2 and gamma2 out of symbol 1; so beta1 = P[Y=1|X=0] and
    beta2 = P[Y=0|X=1]. Under this convention the derived quantities read
    p_y = P[Y=0] and p_z = P[Z=0]; only their (symmetric) entropies enter
    the f/g/h formulas, so the 0/1 orientation is immaterial.
    """

    p: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        for name in ("p", "beta1", "beta2", "gamma1", "gamma2"):
            check_prob(getattr(self, name), name)
        check_prob(self.p_y, "p_y")
        check_prob(self.p_z, "p_z")

    @property
    def p_y(self):
        """P[Y = 0]."""
        return (1.0 - self.p) * (1.0 - self.beta1) + self.p * self.beta2

    @property
    def p_z(self):
        """P[Z = 0]."""
        return self.p_y * (1.0 - self.gamma1) + (1.0 - self.p_y) * self.gamma2

    def channel_xy(self):
        return np.array([[1.0 - self.beta1, self.beta1],
                         [self.beta2, 1.0 - self.beta2]])

    def channel_yz(self):
        return np.array([[1.0 - self.gamma1, self.gamma1],
                         [self.gamma2, 1.0 - self.gamma2]])

    def joint(self):
        """Induced degraded joint over (X, Y, Z)."""
        px = np.array([1.0 - self.p, self.p])
        return joint_from_cascade(px, self.channel_xy(), self.channel_yz())

    def h_x_given_y(self):
        """H(X|Y) in bits."""
        return conditional_entropy(self.joint(), "x", "y")


@dataclass(frozen=True)
class AlphaPair:
    """The two parameters of the binary test channel U.

    alpha1 = P[X=1 | U=u1] and alpha2 = P[X=0 | U=u2]; the mixture weight
    p_u = P[U=u1] is pinned by consistency with P[X=1] = p.
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        check_prob(self.alpha1, "alpha1")
        check_prob(self.alpha2, "alpha2")


def mixture_weight(src, ap):
    """P[U = u1] implied by the pair; raises InfeasibleError off the region."""
    return _weight(src.p, ap.alpha1, ap.alpha2)


def _weight(p, a1, a2):
    # mixture_weight of the pair (a1, a2) at P[X=1] = p
    denom = (1.0 - a2) - a1
    if abs(denom) < 1e-15:
        raise InfeasibleError(
            "alpha1 = 1 - alpha2 leaves the mixture weight undefined")
    pu = ((1.0 - a2) - p) / denom
    if not -1e-12 <= pu <= 1.0 + 1e-12:
        raise InfeasibleError(
            f"pair ({a1}, {a2}) implies P[U=u1] = {pu}, outside [0, 1]")
    return min(max(pu, 0.0), 1.0)


def counterexample_channel(src, ap):
    """(p_U, p_{X|U}) of the induced test channel, rows indexed by U."""
    pu = mixture_weight(src, ap)
    p_u = np.array([pu, 1.0 - pu])
    x_given_u = np.array([[1.0 - ap.alpha1, ap.alpha1],
                          [ap.alpha2, 1.0 - ap.alpha2]])
    return p_u, x_given_u


def counterexample_fgh(src, ap):
    """The triple (f, g, h) in bits for a feasible test-channel pair.

    f is the forward rate term I(Y;U), g the eavesdropper term I(Z;U) and
    h the source term I(X;U); h - f equals the public rate I(X;U|Y) spent
    by the pair, and f - g the key rate it achieves.
    """
    return _fgh(src, ap.alpha1, ap.alpha2, mixture_weight(src, ap),
                binary_entropy)


def _h2_array(p):
    # binary entropy in bits, elementwise, from the shared kernel
    return -(xlogx(p) + xlogx(1.0 - p)) / LN2


def _fgh(src, a1, a2, pu, h2):
    # (f, g, h) with the binary entropy h2; floats or arrays of pairs
    a1b, a2b = 1.0 - a1, 1.0 - a2
    b1, b2 = src.beta1, src.beta2
    g1, g2 = src.gamma1, src.gamma2
    a = a1 * b2 + a1b * (1.0 - b1)
    b = a2 * (1.0 - b1) + a2b * b2
    c = (a1b * (1.0 - b1) * (1.0 - g1) + a1b * b1 * g2
         + a1 * b2 * (1.0 - g1) + a1 * (1.0 - b2) * g2)
    d = (a2b * (1.0 - b2) * g2 + a2b * b2 * (1.0 - g1)
         + a2 * (1.0 - b1) * (1.0 - g1) + a2 * b1 * g2)
    pub = 1.0 - pu
    f = h2(src.p_y) - pu * h2(a) - pub * h2(b)
    g = h2(src.p_z) - pu * h2(c) - pub * h2(d)
    h = h2(src.p) - pu * h2(a1) - pub * h2(a2)
    return f, g, h


@dataclass(frozen=True)
class CounterexampleReport:
    """Both constrained optima of the counterexample and their gap."""

    r1: float
    c_wsk: float                  # max (f - g) subject to (h - f) = r1
    wsk_pair: AlphaPair
    c_rec: float                  # max f subject to the same constraint
    rec_pair: AlphaPair
    key_rate_at_rec: float        # (f - g) at the reconciliation optimum
    relative_loss: float          # 1 - key_rate_at_rec / c_wsk
    constraint_residual: float    # max |h - f - r1| over the two optima


def _trace_alpha2(src, a1, r1):
    # root of (h - f)(a1, .) = r1 in [0, 1 - p); the constraint decreases
    # from its value at alpha2 = 0 to 0 as the channel degenerates. Each
    # step computes h - f as _fgh does, float by float, but takes the
    # entropies that do not depend on alpha2 once per trace, skips g, and
    # uses the unchecked entropy: every argument is a mixture of
    # probabilities, so it lies in [0, 1]
    b1, b2 = src.beta1, src.beta2
    h_y, h_a = _h2(src.p_y), _h2(a1 * b2 + (1.0 - a1) * (1.0 - b1))
    h_x, h_a1 = _h2(src.p), _h2(a1)

    def spent(a2):
        pu = _weight(src.p, a1, a2)
        pub = 1.0 - pu
        f = h_y - pu * h_a - pub * _h2(a2 * (1.0 - b1) + (1.0 - a2) * b2)
        h = h_x - pu * h_a1 - pub * _h2(a2)
        return h - f

    if spent(0.0) < r1:
        return None
    return bisect(lambda a2: spent(a2) >= r1, 0.0, 1.0 - src.p - 1e-13)


def _scan(src, r1, alphas):
    """Key rates f - g and rates f along the constraint curve, per alpha1.

    The scalar ``_trace_alpha2`` run for every alpha1 at once: one
    feasibility mask, one array bisection for alpha2 and f, g on arrays;
    -inf marks the points off the feasible region.
    """
    def fgh(a1, a2):
        # alpha1 < p and alpha2 < 1 - p keep the weight's denominator
        # positive and the weight in [0, 1] up to rounding
        pu = np.clip(((1.0 - a2) - src.p) / ((1.0 - a2) - a1), 0.0, 1.0)
        return _fgh(src, a1, a2, pu, _h2_array)

    def spent(a1, a2):
        f, _, h = fgh(a1, a2)
        return h - f

    feasible = spent(alphas, 0.0) >= r1
    if not feasible.any():
        raise InfeasibleError(
            "the constraint curve is empty in the feasible region")
    a1 = alphas[feasible]
    a2 = bisect(lambda a2, i: spent(a1[i], a2) >= r1, np.zeros_like(a1),
                np.full_like(a1, 1.0 - src.p - 1e-13))
    f, g, _ = fgh(a1, a2)
    wsk = np.full(alphas.shape, -math.inf)
    rec = np.full(alphas.shape, -math.inf)
    wsk[feasible], rec[feasible] = f - g, f
    return wsk, rec


def _golden_max(fun, lo, hi, tol=1e-11):
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = fun(d)
    return 0.5 * (lo + hi)


def counterexample_solve(src, r1, grid=512):
    """Both constrained optima of the counterexample source.

    Parameters
    ----------
    src : AsymBinarySource
    r1 : float
        Public rate in bits, strictly inside (0, H(X|Y)). Both optima must
        meet the constraint within RESIDUAL_REL r1, else ParameterError:
        on the reference source 1e-9 passes (residual 1.4e-7 r1) and
        1e-12 does not (2e-4 r1), where the optima are rounding dust.
    grid : int
        Points of the alpha1 sweep before golden-section refinement, at
        least 2.

    Returns
    -------
    CounterexampleReport

    The feasible pairs form a 1-D curve: for each alpha1 in [0, p) the
    constraint (h - f) = r1 pins alpha2 by bisection (the mirror region
    alpha1 > p describes the same channels with the U labels swapped, so
    sweeping one region is exhaustive). Both objectives are maximized
    along the curve by a scan plus golden-section refinement. The scan
    solves every grid point in one array bisection; the grid points within
    SCAN_SLACK of its maximum are compared again on scalar floats, and the
    first maximum (the smallest alpha1 of a tie) is the refinement's
    center. The refinement and every reported number run on scalar floats;
    each alpha1 it visits costs one scalar bisection for alpha2, whose
    steps evaluate only h - f, with the alpha2-free entropies taken once.
    """
    r1 = check_rate(r1, positive=True)
    hxy = src.h_x_given_y()
    if r1 >= hxy:
        raise ParameterError(
            f"rate must lie strictly inside (0, H(X|Y)) = (0, {hxy}), got {r1!r}")
    grid = check_int(grid, "grid", 2)

    @functools.cache  # both objectives re-check the same grid points
    def on_curve(a1):
        a2 = _trace_alpha2(src, a1, r1)
        if a2 is None:
            return None
        pair = AlphaPair(a1, a2)
        return (pair, *counterexample_fgh(src, pair))

    def value(a1, key):
        got = on_curve(a1)
        if got is None:
            return -math.inf
        _, f, g, _ = got
        return f - g if key == "wsk" else f

    alphas = np.linspace(0.0, src.p, grid, endpoint=False)
    step = float(alphas[1] - alphas[0])  # keeps alpha1 a Python float

    def center(scanned, key):
        # the scan's floats can differ from the scalar ones in the last
        # bits (np.log against math.log), which decides a maximum only
        # where the curve is flat to rounding; so the first scalar
        # maximum among the points near the scan's maximum is the center
        near = alphas[scanned >= scanned.max() - SCAN_SLACK]
        exact = [value(float(a1), key) for a1 in near]
        return float(near[int(np.argmax(exact))])

    def refined(center, key):
        lo = max(center - step, 0.0)
        hi = min(center + step, src.p - 1e-12)
        a1 = _golden_max(lambda a1: value(a1, key), lo, hi)
        got = on_curve(a1)
        return got if got is not None else on_curve(center)

    wsk, rec = _scan(src, r1, alphas)
    wsk_pair, fw, gw, hw = refined(center(wsk, "wsk"), "wsk")
    rec_pair, fr, gr, hr = refined(center(rec, "rec"), "rec")
    c_wsk = fw - gw
    key_at_rec = fr - gr
    loss = 1.0 - key_at_rec / c_wsk if c_wsk > 0.0 else 0.0
    residual = max(abs(hw - fw - r1), abs(hr - fr - r1))
    if residual > RESIDUAL_REL * r1:
        # the alpha2 bracket stops 1e-13 short of the degenerate channel,
        # so rates near its rounding leave only dust to report
        raise ParameterError(
            f"rate {r1!r} is below what the constraint trace resolves: "
            f"its residual {residual:.3g} exceeds {RESIDUAL_REL:g} r1")
    return CounterexampleReport(
        r1=r1,
        c_wsk=c_wsk,
        wsk_pair=wsk_pair,
        c_rec=fr,
        rec_pair=rec_pair,
        key_rate_at_rec=key_at_rec,
        relative_loss=loss,
        constraint_residual=residual,
    )
