"""Numerical optimizer for the one-way rate-limited capacity problems.

Maximize I(Y;U) (rec) or I(Y;U) - I(Z;U) (wsk) over test channels p_{U|X}
with |U| <= |X| and I(X;U|Y) = R1. On degraded sources the objective and
the constraint are convex in p_{U|X}, so the maximum over the sublevel set
{I(X;U|Y) <= R1} lies on its boundary and the equality loses nothing.

The search maximizes the Lagrangian V - R / s, with V the objective,
R = I(X;U|Y) and s = 1/lambda > 0. As U -> X -> (Y, Z) is Markov,
R = I(X;U) - I(Y;U): for rec this is the information bottleneck (Tishby,
Pereira & Bialek 1999), for wsk the bottleneck with side information
(Chechik & Tishby 2002). Stationary channels are fixed points of

    p(u|x) ~ p(u) exp(-beta KL(p_{Y|x}||p_{Y|u}) + gamma KL(p_{Z|x}||p_{Z|u}))

with beta = 1 + s, and gamma = s (wsk) or 0 (rec). The map's move in the
logits log p(u|x) is the Lagrangian's gradient over p(x), and the full step
climbs when s D(p'_{ZU}||p_{ZU}) <= (1 + s) D(p'_{YU}||p_{YU}), which data
processing gives for rec and on degraded sources; elsewhere the wsk map can
overshoot (swap the U labels back and forth), so steps are damped. The
identity and ``starts`` Dirichlet(1) channels are the members of a point;
they iterate in lockstep as one (B, |X|, |U|) tensor of logits, accelerated
by SQUAREM (Varadhan & Roland, Scand. J. Stat. 2008). ``measures.bisect``
searches log s over S_BRACKET for the point where the best member starts to
spend R1, warm-starting each fixed point from the last s that spent at least
R1 (a collapsed channel never leaves the collapse). ConvergenceError is
raised when the best member of a fixed point still moves after
FIXED_POINT_ITERS cycles, or when no s gives a channel that spends R1 within
RATE_TOL (the bracket misses R1, or the rate jumps over it at a transition).
Closed-form binary sources bound the optimizer's error in the test suite.

``optimize_sweep`` solves many (R1, objective) points of one source at once,
and ``optimize_oneway`` is its one-point case. The points' bisections run in
lockstep through ``bisect``'s array brackets: a round stacks the members of
every live point into one tensor, rec points first so that the Z terms of
the wsk members are one slice, and each member carries its point's s, beta,
gamma, stopping move and step size. Every operation acts on each member
alone and each point keeps its own warm start, drop of unsettled members
and verdict, so a point's result is the one it gets alone, bit for bit.
So members of a point whose logits are equal, bit for bit, stay equal:
each warm start keeps them once, with a multiplicity, and ``cycles``
still counts every member.
The sweep raises ConvergenceError as soon as one of its points fails, and
the message names that point's R1 and objective.

On non-degraded sources the wsk problem keeps I(X;U|Y) <= R1. The
Lagrangian's maximizers trace the concave envelope of the (R, V) pairs, so
the same search answers it where the maximum lies on that envelope: at R1
if a multiplier reaches it, else with the best channel of the largest s
that spends less, and never below the useless channel's 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from seqkey.errors import ConvergenceError, ParameterError
from seqkey.measures import (
    BITS,
    LN2,
    ZERO_MASS,
    DiscreteJoint,
    bisect,
    check_int,
    check_rate,
    check_stochastic,
    conditional_entropy,
    entropy_nats,
    xlogx,
)

S_BRACKET = (1e-3, 1e4)    # bisection bracket of the multiplier s = 1/lambda
FIXED_POINT_ITERS = 10000  # SQUAREM cycles allowed per fixed point
FIXED_POINT_TOL = 1e-14    # channel-entry move per unit of beta that ends it
RATE_TOL = 1e-9            # largest |I(X;U|Y) - r1| accepted at the answer
ALPHA_MAX = 1e3            # longest SQUAREM extrapolation, in plain steps
ARMIJO = 1e-4              # share of its first-order gain a step must realize
LAG_NOISE = 1e-13          # rounding allowance of V and of R, in bits
LOG_FLOOR = math.log(ZERO_MASS)  # logits of channel entries that are zero

_OBJECTIVES = ("rec", "wsk")


class TestChannel:
    """Row-stochastic conditional p_{U|X}, rows indexed by x."""

    __test__ = False  # not a test case, despite what pytest thinks
    __slots__ = ("rows",)

    def __init__(self, rows):
        arr = check_stochastic(rows, "test channel", axis=1,
                               shape=("|X|", "|U|"))
        if arr.shape[1] > arr.shape[0]:
            raise ParameterError(
                f"|U| = {arr.shape[1]} exceeds |X| = {arr.shape[0]}; the "
                "capacity problems never need a larger auxiliary alphabet")
        self.rows = arr

    @property
    def u_size(self):
        return self.rows.shape[1]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def uniform(cls, n):
        return cls(np.full((n, n), 1.0 / n))

    @classmethod
    def bsc(cls, beta):
        return cls([[1.0 - beta, beta], [beta, 1.0 - beta]])

    def __repr__(self):
        return f"TestChannel({self.rows.tolist()!r})"


@dataclass(frozen=True)
class OptimizerOptions:
    """Restarts of optimize_oneway's fixed point.

    ``starts`` Dirichlet(1) channels drawn from ``default_rng((seed, b))``,
    b = 0 .. starts - 1, plus the identity channel, iterate together; the
    map can stop at a local optimum, so more starts search more widely.
    """

    starts: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            object.__setattr__(self, name, check_int(value, name))


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of one optimize_oneway point (value in ``units``).

    ``rounds`` counts the Lagrangian fixed points solved for the point and
    ``cycles`` the SQUAREM cycles its members ran, summed over members and
    fixed points; zero-rate and saturated answers solve none and report 0.
    """

    value: float
    units: str
    channel: TestChannel
    constraint_residual: float
    rate_used: float
    method: str
    status: str
    rounds: int = field(default=0, compare=False)
    cycles: int = field(default=0, compare=False)


@dataclass(frozen=True)
class _Pre:
    p_xy: np.ndarray
    p_xz: np.ndarray
    p_x: np.ndarray
    h_y: float
    h_z: float
    h_xy_cond: float  # H(X|Y) in bits


def _precompute(j):
    p_xy = j.marginal("xy")
    p_xz = j.marginal("xz")
    p_x = j.marginal("x")
    return _Pre(
        p_xy=p_xy,
        p_xz=p_xz,
        p_x=p_x,
        h_y=float(entropy_nats(j.marginal("y")) / LN2),
        h_z=float(entropy_nats(j.marginal("z")) / LN2),
        h_xy_cond=conditional_entropy(j, "x", "y"),
    )


class _Masses(NamedTuple):
    """A (B, nx, nu) batch of channels, its ``n_rec`` rec members first,
    with the masses that the map and the Lagrangian share: p(u), p(u,y)
    and, for the wsk members only, p(u,z)."""

    tc: np.ndarray
    p_u: np.ndarray
    p_uy: np.ndarray
    p_uz: np.ndarray | None
    n_rec: int

    def take(self, idx):
        # idx increases, so the rec members stay first
        n_rec = int(np.searchsorted(idx, self.n_rec))
        p_uz = (None if n_rec == len(idx)
                else self.p_uz[idx[n_rec:] - self.n_rec])
        return _Masses(self.tc[idx], self.p_u[idx], self.p_uy[idx], p_uz,
                       n_rec)


def _masses(tc, pre, n_rec):
    p_u = np.einsum("bxu,x->bu", tc, pre.p_x)
    p_uy = np.einsum("bxu,xa->bua", tc, pre.p_xy)
    p_uz = (np.einsum("bxu,xa->bua", tc[n_rec:], pre.p_xz)
            if n_rec < len(tc) else None)
    return _Masses(tc, p_u, p_uy, p_uz, n_rec)


def _value_rate(m, pre):
    """(V, R) per batch member in bits, with one H(U,Y) for both."""
    h_uy = entropy_nats(m.p_uy, (1, 2)) / LN2
    # I(X;U|Y) = H(U,Y) - H(Y) - H(U|X), valid because U depends on X alone
    h_u_x = -(pre.p_x[None, :, None] * xlogx(m.tc)).sum(axis=(1, 2)) / LN2
    rate = h_uy - pre.h_y - h_u_x
    k = m.n_rec
    value = []
    if k:
        value.append(entropy_nats(m.p_u[:k], 1) / LN2 + pre.h_y - h_uy[:k])
    if m.p_uz is not None:
        h_uz = entropy_nats(m.p_uz, (1, 2)) / LN2
        value.append((h_uz - pre.h_z) - (h_uy[k:] - pre.h_y))
    return value[0] if len(value) == 1 else np.concatenate(value), rate


def _rate_bits(tc, pre):
    return _value_rate(_masses(tc, pre, len(tc)), pre)[1]


def _value_bits(tc, pre, objective):
    n_rec = len(tc) if objective == "rec" else 0
    return _value_rate(_masses(tc, pre, n_rec), pre)[0]


def _check_pair(j, tc):
    if not isinstance(j, DiscreteJoint):
        j = DiscreteJoint(j)
    check_stochastic(tc.rows, "test channel", axis=1,
                     shape=(j.dims[0], "|U|"))
    return j


def rate_constraint(j, tc):
    """I(X;U|Y) in bits spent by the test channel on this source."""
    j = _check_pair(j, tc)
    return float(_rate_bits(tc.rows[None], _precompute(j))[0])


def objective_rec(j, tc):
    """I(Y;U) in bits: the reconciliation objective."""
    j = _check_pair(j, tc)
    return float(_value_bits(tc.rows[None], _precompute(j), "rec")[0])


def objective_wsk(j, tc):
    """I(Y;U) - I(Z;U) in bits: the weak secret-key objective."""
    j = _check_pair(j, tc)
    return float(_value_bits(tc.rows[None], _precompute(j), "wsk")[0])


def _log_softmax(theta):
    # normalize logits over U, so that exp(theta) is row-stochastic
    top = theta.max(axis=2, keepdims=True)
    return theta - top - np.log(np.exp(theta - top).sum(axis=2, keepdims=True))


def _log_mass(a):
    # floored at ZERO_MASS, so every logit stays finite
    return np.log(np.maximum(a, ZERO_MASS))


class _Members(NamedTuple):
    """Per-member parameters of a batch whose ``n_rec`` rec members come
    first: the multiplier s, beta = 1 + s, the weight -gamma of the Z term
    (gamma = s for wsk, 0 for rec), the weight 1 - beta + gamma of log p(u)
    and the move tol = FIXED_POINT_TOL * beta that stops a member. The
    factors are repeated to the shapes they multiply, (B, nx, nu) and
    (B, 1, nu), which numpy multiplies faster than broadcast ones."""

    n_rec: int
    s: np.ndarray
    beta: np.ndarray
    neg_gamma: np.ndarray
    coef: np.ndarray
    tol: np.ndarray

    @classmethod
    def build(cls, s, wsk, sizes, nx, nu):
        """Members of points with multipliers ``s`` and wsk flags ``wsk``
        (rec points first), ``sizes`` members each; each point's parameters
        are Python floats, as for one point alone."""
        beta = [1.0 + x for x in s]
        gamma = [x if w else 0.0 for x, w in zip(s, wsk)]
        s, beta, neg_gamma, coef, tol = np.array([
            s, beta, [-g for g in gamma],
            [1.0 - b + g for b, g in zip(beta, gamma)],
            [FIXED_POINT_TOL * b for b in beta]]).repeat(sizes, axis=1)
        n_rec = sum(n for n, w in zip(sizes, wsk) if not w)
        return cls(n_rec, s, beta.repeat(nx * nu).reshape(-1, nx, nu),
                   neg_gamma.repeat(nx * nu).reshape(-1, nx, nu),
                   coef.repeat(nu).reshape(-1, 1, nu), tol)

    def take(self, idx):
        # idx increases, so the rec members stay first
        return _Members(int(np.searchsorted(idx, self.n_rec)),
                        *(a[idx] for a in self[1:]))


def _step(m, pre, par):
    """One update of the logits log p(u|x) by the module docstring's map,
    from the masses of the current channels: without the KL terms in x
    alone, which the normalization cancels, it is
    (1 - beta + gamma) log p(u) + E[beta log p(u,Y) - gamma log p(u,Z) | x]."""
    cross = 0.0 + par.beta * np.einsum("xa,bua->bxu", pre.p_xy,
                                       _log_mass(m.p_uy))
    if m.p_uz is not None:  # the wsk members, after the rec ones
        k = m.n_rec
        cross[k:] += par.neg_gamma[k:] * np.einsum("xa,bua->bxu", pre.p_xz,
                                                   _log_mass(m.p_uz))
    # symbols x with p(x) = 0 get cross = 0; their rows move no marginal
    logit = (par.coef * _log_mass(m.p_u)[:, None, :]
             + cross / np.maximum(pre.p_x, ZERO_MASS)[:, None])
    return np.maximum(_log_softmax(logit), LOG_FLOOR)


def _lagrangian(m, pre, s):
    """(V - R / s, R) per batch member, in bits."""
    value, rate = _value_rate(m, pre)
    return value - rate / s, rate


def _fixed_point(theta, pre, par):
    """Stationary logits of V - R / s from ``theta``, per batch member.

    A cycle steps theta + eta (map(theta) - theta) twice and extrapolates
    from the two steps (SQUAREM, scheme S3). The extrapolated point, else
    the first step, is kept if its Lagrangian rises by ARMIJO of the first
    step's first-order gain, less LAG_NOISE; else the member stays and its
    eta halves. A member stops once no channel entry of its map moves more
    than its ``tol`` (the logits' rounding error grows with beta), or after
    FIXED_POINT_ITERS cycles. Every operation acts on each member alone, so
    a member's logits do not depend on the rest of the batch. Returns the
    logits, the mask of the members still moving, their Lagrangians and
    rates, and the cycles each member ran.
    """
    theta = theta.copy()
    here = _masses(np.exp(theta), pre, par.n_rec)
    mapped = _step(here, pre, par)
    lag, rate = _lagrangian(here, pre, par.s)
    eta = np.ones(len(theta))
    moving = np.ones(len(theta), dtype=bool)
    ran = np.zeros(len(theta), dtype=int)
    m = ()
    for _ in range(FIXED_POINT_ITERS):
        moving &= (np.abs(np.exp(mapped) - np.exp(theta)).max(axis=(1, 2))
                   > par.tol)
        if not moving.any():
            break
        ran += moving
        if len(m) != np.count_nonzero(moving):  # members only ever stop
            m = np.flatnonzero(moving)
            pm = par if len(m) == len(moving) else par.take(m)
        t0, d, e = theta[m], mapped[m] - theta[m], eta[m][:, None, None]
        t1 = _log_softmax(t0 + e * d)
        at_t1 = _masses(np.exp(t1), pre, pm.n_rec)
        m1 = _step(at_t1, pre, pm)
        r = t1 - t0
        v = _log_softmax(t1 + e * (m1 - t1)) - 2.0 * t1 + t0
        # |r| / |v| in Frobenius norms, clipped to [1, ALPHA_MAX]; spelt
        # out, as np.linalg.norm and np.clip compute it, at less call cost
        ratio = np.sqrt((r * r).sum(axis=(1, 2))) / np.maximum(
            np.sqrt((v * v).sum(axis=(1, 2))), ZERO_MASS)
        a = -np.minimum(np.maximum(ratio, 1.0), ALPHA_MAX)[:, None, None]
        new = _log_softmax(t0 - 2.0 * a * r + a * a * v)
        at_new = _masses(np.exp(new), pre, pm.n_rec)
        new_mapped = _step(at_new, pre, pm)
        new_lag, new_rate = _lagrangian(at_new, pre, pm.s)
        # the map's move d is the Lagrangian's gradient over p(x), up to a
        # constant per row, which a row-stochastic change cancels
        rise = (pre.p_x[:, None] * (at_t1.tc - np.exp(t0)) * d).sum(
            axis=(1, 2)) / (pm.s * LN2)
        need = lag[m] + ARMIJO * rise - LAG_NOISE * (1.0 + 1.0 / pm.s)
        # the extrapolation fails: try the first step
        back = np.flatnonzero(new_lag < need)
        if len(back):
            new[back], new_mapped[back] = t1[back], m1[back]
            new_lag[back], new_rate[back] = _lagrangian(
                at_t1.take(back), pre, pm.s[back])
        climbs = new_lag >= need
        up = m[climbs]
        theta[up], mapped[up] = new[climbs], new_mapped[climbs]
        lag[up], rate[up] = new_lag[climbs], new_rate[climbs]
        eta[m[~climbs]] *= 0.5
    return theta, moving, lag, rate, ran


def _result(value, channel, residual, rate_used, method, rounds=0,
            cycles=0):
    return CapacityResult(value=float(value), units=BITS, channel=channel,
                          constraint_residual=float(residual),
                          rate_used=float(rate_used), method=method,
                          status="converged", rounds=rounds, cycles=cycles)


@dataclass(slots=True)
class _Point:
    """One (r1, objective) point of a sweep and its bisection's state: the
    logits of the last s that spent at least r1 (``warm``) and its best
    channel (``best``), the best channel of the last s that spent less
    (``below``), and the work so far. ``warm`` holds each bitwise-distinct
    member once, and ``mult`` the number of restart members each stands
    for (one each by default)."""

    r1: float
    objective: str
    at_most: bool  # best channel found that spends no more than r1
    warm: np.ndarray
    best: np.ndarray | None = None
    below: np.ndarray | None = None
    rounds: int = 0
    cycles: int = 0
    mult: np.ndarray | None = None

    def __post_init__(self):
        if self.mult is None:
            self.mult = np.ones(len(self.warm), dtype=int)


def _distinct(theta, mult):
    """The bitwise-distinct rows of ``theta`` in order of first appearance,
    so -0.0 and 0.0 stay apart and argmax still picks the first of a tie,
    with the summed multiplicities ``mult`` of the rows each stands for."""
    first, kept, total = {}, [], []
    for i, (row, k) in enumerate(zip(theta, mult.tolist())):
        n = first.setdefault(row.tobytes(), len(kept))
        if n == len(kept):
            kept.append(i)
            total.append(k)
        else:
            total[n] += k
    if len(kept) == len(theta):
        return theta, mult
    return theta[kept], np.array(total)


def _starts(nx, opts):
    """Logits of the ``opts.starts`` Dirichlet(1) channels and the identity."""
    draws = [np.random.default_rng((opts.seed, b)).gamma(1.0, size=(nx, nx))
             for b in range(opts.starts)]
    starts = np.stack(draws + [np.eye(nx)])
    return _log_mass(starts / starts.sum(axis=2, keepdims=True))


def _solve(pre, points):
    """Bisect log s over S_BRACKET for every point at once, rec points
    first, each from its own warm start (a collapsed channel never leaves
    the collapse). A round solves one fixed point over the members of all
    live points; then each point drops its members still moving (they are
    not the answer), keeps its best member's channel and stores its next
    warm start with each bitwise-distinct member once. Members act alone
    in the fixed point, so equal members end equal and one stands for all;
    ``cycles`` counts each by its multiplicity. Raises when a point's best
    member still moves after FIXED_POINT_ITERS cycles."""

    def spends_less(log_s, live):
        pts = [points[i] for i in live]
        sizes = [len(p.warm) for p in pts]
        # math.exp, as one point alone: np.exp differs in the last bit
        s = [math.exp(x) for x in log_s.tolist()]
        warm = np.concatenate([p.warm for p in pts])
        theta, moving, lag, rate, ran = _fixed_point(warm, pre, _Members.build(
            s, [p.objective == "wsk" for p in pts], sizes, *warm.shape[1:]))
        kept, a = [], 0
        for p, s_p, n in zip(pts, s, sizes):
            b = a + n
            if moving[a + lag[a:b].argmax()]:
                raise ConvergenceError(
                    f"{p.objective} at r1 = {p.r1!r}: Lagrangian fixed "
                    f"point at s = {s_p!r} still moving after "
                    f"{FIXED_POINT_ITERS} SQUAREM cycles")
            p.rounds += 1
            p.cycles += int(ran[a:b] @ p.mult)
            kept.append(n - int(moving[a:b].sum()))
            a = b
        keep = np.flatnonzero(~moving)
        mult = np.concatenate([p.mult for p in pts])[keep]
        theta, warm, lag, rate = theta[keep], warm[keep], lag[keep], rate[keep]
        spent_less, a = np.empty(len(pts), dtype=bool), 0
        for n, (p, size) in enumerate(zip(pts, kept)):
            b = a + size
            i = a + int(lag[a:b].argmax())
            spent_less[n] = rate[i] < p.r1
            if spent_less[n]:
                p.below, nxt = np.exp(theta[i]), warm[a:b]
            else:
                p.best, nxt = np.exp(theta[i]), theta[a:b]
            p.warm, p.mult = _distinct(nxt, mult[a:b])
            a = b
        return spent_less

    lo, hi = np.log(S_BRACKET)
    bisect(spends_less, np.full(len(points), lo), np.full(len(points), hi))


def _answer(pre, p, method):
    """A solved point's result: the best channel of the last s that spent
    r1 within RATE_TOL or, with ``at_most``, the best channel below r1."""
    work = dict(rounds=p.rounds, cycles=p.cycles)
    residual = (math.inf if p.best is None
                else _rate_bits(p.best[None], pre)[0] - p.r1)
    if abs(residual) <= RATE_TOL:
        return _result(_value_bits(p.best[None], pre, p.objective)[0],
                       TestChannel(p.best), residual, p.r1, method, **work)
    if p.at_most and p.below is not None:
        # the channel sits on its own surface, below the budget
        return _result(_value_bits(p.below[None], pre, p.objective)[0],
                       TestChannel(p.below), 0.0,
                       _rate_bits(p.below[None], pre)[0], method, **work)
    raise ConvergenceError(
        f"{p.objective} at r1 = {p.r1!r}: no multiplier s in {S_BRACKET} "
        f"spends the rate {p.r1!r} within {RATE_TOL}; the closest spends "
        f"{p.r1 + residual!r}")


def optimize_sweep(j, points, opts=None):
    """optimize_oneway at every (r1, objective) pair of ``points``, solved
    together.

    The pairs share the source and ``opts``; each gets the result that
    optimize_oneway gives it alone, bit for bit, with its own ``rounds``
    and ``cycles``. Zero-rate and saturated points take their direct
    answers; the others bisect in lockstep (see the module docstring).

    Returns
    -------
    list of CapacityResult
        One per pair, in the order of ``points``.

    Raises
    ------
    ParameterError
        A pair has an unknown objective or a rate outside [0, H(X|Y)].
    ConvergenceError
        Some point does not converge; the message names its r1 and
        objective.
    """
    points = list(points)
    for _, objective in points:
        if objective not in _OBJECTIVES:
            raise ParameterError(f"objective must be one of {_OBJECTIVES}, "
                                 f"got {objective!r}")
    if not isinstance(j, DiscreteJoint):
        j = DiscreteJoint(j)
    opts = opts or OptimizerOptions()
    pre = _precompute(j)
    nx = j.dims[0]
    # equality in the constraint is only proved for degraded sources; on
    # the others a wsk answer spends at most r1 and is never below the
    # useless channel's 0
    wsk_at_most = any(o == "wsk" for _, o in points) and not j.is_degraded()
    results = [None] * len(points)
    solving = []
    for n, (r1, objective) in enumerate(points):
        r1 = check_rate(r1)
        if r1 > pre.h_xy_cond + 1e-12:
            raise ParameterError(
                f"rate {r1!r} exceeds H(X|Y) = {pre.h_xy_cond!r}; the "
                "equality surface is empty (use the saturated closed form "
                "instead)")
        r1 = min(r1, pre.h_xy_cond)
        if r1 == 0.0:
            # only channels independent of X are feasible; every objective
            # is 0
            results[n] = _result(0.0, TestChannel.uniform(nx), 0.0, 0.0,
                                 "degenerate-zero-rate")
        elif abs(r1 - pre.h_xy_cond) <= 1e-12:
            # saturation: the identity channel is feasible and optimal
            tc = TestChannel.identity(nx)
            results[n] = _result(
                _value_bits(tc.rows[None], pre, objective)[0], tc,
                _rate_bits(tc.rows[None], pre)[0] - r1, r1,
                "saturated-identity")
        else:
            solving.append((n, r1, objective))
    if solving:
        warm = _starts(nx, opts)
        solving = [(n, _Point(r1, objective,
                              objective == "wsk" and wsk_at_most, warm))
                   for n, r1, objective in solving]
        _solve(pre, [p for _, p in sorted(
            solving, key=lambda t: t[1].objective != "rec")])
        method = f"lagrangian-squarem[{opts.starts + 1}]"
        for n, p in solving:
            results[n] = _answer(pre, p, method)
    for n, (_, objective) in enumerate(points):
        res = results[n]
        if objective == "wsk" and wsk_at_most and res.value < 0.0:
            results[n] = _result(0.0, TestChannel.uniform(nx), 0.0, 0.0,
                                 "useless", res.rounds, res.cycles)
    return results


def optimize_oneway(j, r1, objective="wsk", opts=None):
    """Maximize a capacity objective on the surface I(X;U|Y) = r1.

    The one-point case of optimize_sweep.

    Parameters
    ----------
    j : DiscreteJoint
        Source model p_XYZ. For the wsk objective on a non-degraded source
        the constraint is I(X;U|Y) <= r1 (see module docstring).
    r1 : float
        Public rate in bits, 0 <= r1 <= H(X|Y).
    objective : {"rec", "wsk"}
    opts : OptimizerOptions

    Returns
    -------
    CapacityResult
        Best value (bits), the maximizing channel, the achieved constraint
        residual I(X;U|Y) - r1 (``rate_used`` and 0 for a non-degraded wsk
        channel that spends less), ``status`` "converged" (always: a
        solve that misses its tolerances raises instead), and the work
        done in ``rounds`` and ``cycles``.

    Raises
    ------
    ConvergenceError
        The best channel of a fixed point still moved after
        FIXED_POINT_ITERS cycles, or no multiplier in S_BRACKET gives a
        channel that spends r1 within RATE_TOL (nor, for non-degraded wsk,
        less than r1).
    """
    return optimize_sweep(j, [(r1, objective)], opts)[0]


@dataclass(frozen=True)
class TwoWayChannels:
    """A supplied (U, V) pair: p_{U|X} plus p_{V|Y,U}.

    The Markov requirements U -> X -> (Y,Z) and V -> (Y,U) -> (X,Z) hold by
    construction because U is built from X alone and V from (Y,U) alone.
    """

    u_channel: TestChannel
    v_given_yu: np.ndarray

    def __post_init__(self):
        arr = check_stochastic(self.v_given_yu, "v channel", axis=2,
                               shape=("|Y|", self.u_channel.u_size, "|V|"))
        object.__setattr__(self, "v_given_yu", arr)


def objective_twoway(j, tw, mode="sk"):
    """Evaluate the two-round objective for supplied channels.

    Returns ``(value, r1_used, r2_used)`` in bits, where value is
    I(Y;U) + I(X;V|U) for sk mode or the sum of clipped differences
    [I(Y;U) - I(Z;U)]+ + [I(X;V|U) - I(Z;V|U)]+ for wsk mode, and the used
    rates are I(X;U|Y) and I(Y;UV|X) for the caller's budget check. The
    search over (U, V) pairs is out of scope; only evaluation is offered.
    """
    if mode not in ("sk", "wsk"):
        raise ParameterError(f"mode must be sk or wsk, got {mode!r}")
    if not isinstance(j, DiscreteJoint):
        j = DiscreteJoint(j)
    u = check_stochastic(tw.u_channel.rows, "u channel", axis=1,
                         shape=(j.dims[0], "|U|"))
    v = check_stochastic(tw.v_given_yu, "v channel", axis=2,
                         shape=(j.dims[1], u.shape[1], "|V|"))
    big = np.einsum("xyz,xu,yuv->xyzuv", j.masses, u, v)

    def h(*keep):
        drop = tuple(i for i in range(5) if i not in keep)
        return float(entropy_nats(big.sum(axis=drop)) / LN2)

    i_yu = h(1) + h(3) - h(1, 3)
    i_xv_u = h(0, 3) + h(3, 4) - h(0, 3, 4) - h(3)
    r1_used = h(0, 1) + h(1, 3) - h(0, 1, 3) - h(1)
    r2_used = h(0, 1) + h(0, 3, 4) - h(0, 1, 3, 4) - h(0)
    if mode == "sk":
        value = i_yu + i_xv_u
    else:
        i_zu = h(2) + h(3) - h(2, 3)
        i_zv_u = h(2, 3) + h(3, 4) - h(2, 3, 4) - h(3)
        value = max(i_yu - i_zu, 0.0) + max(i_xv_u - i_zv_u, 0.0)
    return value, r1_used, r2_used


@dataclass(frozen=True)
class ProbeReport:
    """Worst convexity violation seen by convexity_probe."""

    objective: str
    probes: int
    max_violation: float


def convexity_probe(j, objective, probes=1000, seed=0):
    """Sample mixture probes of a functional that should be convex.

    ``objective`` picks the functional: "rec" for I(Y;U), "rate" for
    I(X;U|Y), "wsk" for I(Y;U) - I(Z;U). The first two are convex in
    p_{U|X} for any source; the difference is convex for degraded sources
    (where it equals I(Y;U|Z)), so pass degraded joints when probing it.
    Returns the maximum of f(mix) - [lam f(tc1) + (1-lam) f(tc2)] over all
    probes; a positive value beyond float noise is a counterexample.
    """
    if objective not in ("rec", "rate", "wsk"):
        raise ParameterError(
            f"objective must be rec, rate or wsk, got {objective!r}")
    probes = check_int(probes, "probes", 1)
    if not isinstance(j, DiscreteJoint):
        j = DiscreteJoint(j)
    pre = _precompute(j)
    nx = j.dims[0]
    rng = np.random.default_rng(check_int(seed, "seed"))

    def sample():
        g = rng.gamma(1.0, size=(probes, nx, nx))
        return g / g.sum(axis=2, keepdims=True)

    tc1 = sample()
    tc2 = sample()
    lam = rng.uniform(0.0, 1.0, size=probes)

    def f(tc):
        if objective == "rate":
            return _rate_bits(tc, pre)
        return _value_bits(tc, pre, objective)

    mix = lam[:, None, None] * tc1 + (1.0 - lam)[:, None, None] * tc2
    viol = f(mix) - (lam * f(tc1) + (1.0 - lam) * f(tc2))
    return ProbeReport(objective=objective, probes=probes,
                       max_violation=float(viol.max()))
