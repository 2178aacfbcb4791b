"""Reference for the optimizer tests: the one-point Lagrangian solve.

This is how ``seqkey.optimizer`` solved before the points of a sweep ran
in lockstep: one bisection on log s per (r1, objective) point, each step a
SQUAREM fixed point over the point's own members, with the multiplier,
beta, gamma and the stopping move as scalars. The functions are copied
from that version as they were; they also count the fixed points solved
and the SQUAREM cycles the members ran, so a test can ask the batched
library for the same result, work included, point for point.
"""

import math

import numpy as np

from seqkey.errors import ConvergenceError, ParameterError
from seqkey.measures import (
    BITS,
    LN2,
    ZERO_MASS,
    DiscreteJoint,
    bisect,
    check_rate,
    entropy_nats,
    xlogx,
)
from seqkey.optimizer import (
    ALPHA_MAX,
    ARMIJO,
    FIXED_POINT_ITERS,
    FIXED_POINT_TOL,
    LAG_NOISE,
    LOG_FLOOR,
    RATE_TOL,
    S_BRACKET,
    CapacityResult,
    OptimizerOptions,
    TestChannel,
    _precompute,
)


def _log_softmax(theta):
    # normalize logits over U, so that exp(theta) is row-stochastic
    top = theta.max(axis=2, keepdims=True)
    return theta - top - np.log(np.exp(theta - top).sum(axis=2, keepdims=True))


def _log_mass(a):
    # floored at ZERO_MASS, so every logit stays finite
    return np.log(np.maximum(a, ZERO_MASS))


class _Masses:
    def __init__(self, tc, p_u, p_uy, p_uz):
        self.tc, self.p_u, self.p_uy, self.p_uz = tc, p_u, p_uy, p_uz

    def take(self, idx):
        return _Masses(*(None if a is None else a[idx]
                         for a in (self.tc, self.p_u, self.p_uy, self.p_uz)))


def _masses(tc, pre, objective):
    p_u = np.einsum("bxu,x->bu", tc, pre.p_x)
    p_uy = np.einsum("bxu,xa->bua", tc, pre.p_xy)
    p_uz = (np.einsum("bxu,xa->bua", tc, pre.p_xz) if objective == "wsk"
            else None)
    return _Masses(tc, p_u, p_uy, p_uz)


def _value_rate(m, pre, objective):
    h_uy = entropy_nats(m.p_uy, (1, 2)) / LN2
    h_u_x = -(pre.p_x[None, :, None] * xlogx(m.tc)).sum(axis=(1, 2)) / LN2
    rate = h_uy - pre.h_y - h_u_x
    if objective == "rec":
        return entropy_nats(m.p_u, 1) / LN2 + pre.h_y - h_uy, rate
    h_uz = entropy_nats(m.p_uz, (1, 2)) / LN2
    return (h_uz - pre.h_z) - (h_uy - pre.h_y), rate


def _rate_bits(tc, pre):
    return _value_rate(_masses(tc, pre, "rec"), pre, "rec")[1]


def _value_bits(tc, pre, objective):
    return _value_rate(_masses(tc, pre, objective), pre, objective)[0]


def _step(m, pre, beta, gamma):
    cross = 0.0
    for weight, p_xa, p_ua in ((beta, pre.p_xy, m.p_uy),
                               (-gamma, pre.p_xz, m.p_uz)):
        if weight:
            cross = cross + weight * np.einsum("xa,bua->bxu", p_xa,
                                               _log_mass(p_ua))
    logit = ((1.0 - beta + gamma) * _log_mass(m.p_u)[:, None, :]
             + cross / np.maximum(pre.p_x, ZERO_MASS)[:, None])
    return np.maximum(_log_softmax(logit), LOG_FLOOR)


def _lagrangian(m, pre, objective, s):
    value, rate = _value_rate(m, pre, objective)
    return value - rate / s, rate


def _fixed_point(theta, pre, objective, s):
    """Returns the logits, the mask of the members that stopped and the
    SQUAREM cycles the members ran, summed over members."""
    beta, gamma = 1.0 + s, (s if objective == "wsk" else 0.0)
    tol = FIXED_POINT_TOL * beta

    def masses(t):
        return _masses(np.exp(t), pre, objective)

    theta = theta.copy()
    here = masses(theta)
    mapped = _step(here, pre, beta, gamma)
    lag = _lagrangian(here, pre, objective, s)[0]
    eta = np.ones(len(theta))
    moving = np.ones(len(theta), dtype=bool)
    cycles = 0
    for _ in range(FIXED_POINT_ITERS):
        moving &= (np.abs(np.exp(mapped) - np.exp(theta)).max(axis=(1, 2))
                   > tol)
        if not moving.any():
            break
        m = np.flatnonzero(moving)
        cycles += len(m)
        t0, d, e = theta[m], mapped[m] - theta[m], eta[m][:, None, None]
        t1 = _log_softmax(t0 + e * d)
        at_t1 = masses(t1)
        m1 = _step(at_t1, pre, beta, gamma)
        r = t1 - t0
        v = _log_softmax(t1 + e * (m1 - t1)) - 2.0 * t1 + t0
        ratio = np.linalg.norm(r, axis=(1, 2)) / np.maximum(
            np.linalg.norm(v, axis=(1, 2)), ZERO_MASS)
        a = -np.clip(ratio, 1.0, ALPHA_MAX)[:, None, None]
        new = _log_softmax(t0 - 2.0 * a * r + a * a * v)
        at_new = masses(new)
        new_mapped = _step(at_new, pre, beta, gamma)
        new_lag = _lagrangian(at_new, pre, objective, s)[0]
        rise = (pre.p_x[:, None] * (at_t1.tc - np.exp(t0)) * d).sum(
            axis=(1, 2)) / (s * LN2)
        need = lag[m] + ARMIJO * rise - LAG_NOISE * (1.0 + 1.0 / s)
        back = new_lag < need
        if back.any():
            new[back], new_mapped[back] = t1[back], m1[back]
            new_lag[back] = _lagrangian(at_t1.take(back), pre, objective,
                                        s)[0]
        climbs = new_lag >= need
        up = m[climbs]
        theta[up], mapped[up], lag[up] = (new[climbs], new_mapped[climbs],
                                          new_lag[climbs])
        eta[m[~climbs]] *= 0.5
    if moving[np.argmax(lag)]:
        raise ConvergenceError(
            f"Lagrangian fixed point at s = {s!r} still moving after "
            f"{FIXED_POINT_ITERS} SQUAREM cycles")
    return theta, ~moving, cycles


def _result(value, channel, residual, rate_used, method, rounds=0,
            cycles=0):
    return CapacityResult(value=float(value), units=BITS, channel=channel,
                          constraint_residual=float(residual),
                          rate_used=float(rate_used), method=method,
                          status="converged", rounds=rounds, cycles=cycles)


def _solve(j, pre, r1, objective, opts, at_most=False):
    nx = j.dims[0]
    if abs(r1 - pre.h_xy_cond) <= 1e-12:
        tc = TestChannel.identity(nx)
        val = _value_bits(tc.rows[None], pre, objective)[0]
        resid = _rate_bits(tc.rows[None], pre)[0] - r1
        return _result(val, tc, resid, r1, "saturated-identity")

    draws = [np.random.default_rng((opts.seed, b)).gamma(1.0, size=(nx, nx))
             for b in range(opts.starts)]
    starts = np.stack(draws + [np.eye(nx)])
    warm = _log_mass(starts / starts.sum(axis=2, keepdims=True))
    best = below = None
    rounds = cycles = 0

    def spends_less(log_s):
        nonlocal warm, best, below, rounds, cycles
        s = math.exp(log_s)
        theta, settled, ran = _fixed_point(warm, pre, objective, s)
        rounds, cycles = rounds + 1, cycles + ran
        theta, warm = theta[settled], warm[settled]
        lag, rate = _lagrangian(_masses(np.exp(theta), pre, objective),
                                pre, objective, s)
        i = int(np.argmax(lag))
        if rate[i] < r1:
            below = np.exp(theta[i])
            return True
        warm, best = theta, np.exp(theta[i])
        return False

    bisect(spends_less, *np.log(S_BRACKET))
    method = f"lagrangian-squarem[{opts.starts + 1}]"
    work = dict(rounds=rounds, cycles=cycles)
    residual = (math.inf if best is None
                else _rate_bits(best[None], pre)[0] - r1)
    if abs(residual) <= RATE_TOL:
        return _result(_value_bits(best[None], pre, objective)[0],
                       TestChannel(best), residual, r1, method, **work)
    if at_most and below is not None:
        return _result(_value_bits(below[None], pre, objective)[0],
                       TestChannel(below), 0.0,
                       _rate_bits(below[None], pre)[0], method, **work)
    raise ConvergenceError(
        f"no multiplier s in {S_BRACKET} spends the rate {r1!r} within "
        f"{RATE_TOL}; the closest spends {r1 + residual!r}")


def oracle_oneway(j, r1, objective="wsk", opts=None):
    """``optimize_oneway`` as the one-point solver computed it."""
    if objective not in ("rec", "wsk"):
        raise ParameterError(f"objective must be rec or wsk, got "
                             f"{objective!r}")
    if not isinstance(j, DiscreteJoint):
        j = DiscreteJoint(j)
    opts = opts or OptimizerOptions()
    r1 = check_rate(r1)
    pre = _precompute(j)
    if r1 > pre.h_xy_cond + 1e-12:
        raise ParameterError(f"rate {r1!r} exceeds H(X|Y)")
    r1 = min(r1, pre.h_xy_cond)
    nx = j.dims[0]
    if r1 == 0.0:
        return _result(0.0, TestChannel.uniform(nx), 0.0, 0.0,
                       "degenerate-zero-rate")
    if objective == "wsk" and not j.is_degraded():
        best = _solve(j, pre, r1, objective, opts, at_most=True)
        if best.value < 0.0:
            return _result(0.0, TestChannel.uniform(nx), 0.0, 0.0,
                           "useless", best.rounds, best.cycles)
        return best
    return _solve(j, pre, r1, objective, opts)
