"""Numerical optimizer for the one-way rate-limited capacity problems.

The problems solved here are: maximize I(Y;U) (reconciliation) or
I(Y;U) - I(Z;U) (weak secret key) over test channels p_{U|X} with
|U| <= |X|, subject to the equality constraint I(X;U|Y) = R1. The equality
form is justified for degraded sources: both the objective and the
constraint are convex in p_{U|X}, so the maximum over the (convex, compact)
sublevel set {I(X;U|Y) <= R1} is attained at an extreme point, and the
extreme points lie on the constraint boundary. No algorithm is published
for the search itself, so this module uses multistart projected coordinate
ascent:

* a batch of Dirichlet(1) random channels (plus the identity) advances in
  lockstep as one (B, |X|, |U|) tensor,
* each candidate is projected onto the equality surface by bisection along
  the segment toward the identity channel (constraint too small) or toward
  the uniform useless channel (too large) - the constraint is convex along
  either segment and crosses the level exactly once,
* coordinate moves transfer mass between two entries of one row, with a
  golden-section search on the transfer evaluating the projected objective,
* sweeps repeat until the best improvement falls below a threshold, and the
  final answer is the max over the batch.

Everything is exact dense arithmetic in bits; closed-form binary sources
bound the optimizer's error in the test suite.

For non-degraded joints with the wsk objective the equality reduction is
not justified, so the optimizer sweeps equality surfaces R' <= R1 on a
small grid and returns the best (the useless channel, value 0, is always a
candidate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from seqkey.errors import ParameterError
from seqkey.measures import (
    BITS,
    LN2,
    SUM_TOL,
    DiscreteJoint,
    _clipped,
    check_rate,
    conditional_entropy,
    entropy_nats,
    xlogx,
)

GOLD = (math.sqrt(5.0) - 1.0) / 2.0
IMPROVE_TOL = 1e-8   # sweep improvement below this stops the ascent
PROJECT_ITERS = 46   # bisection steps for the surface projection

_OBJECTIVES = ("rec", "wsk")


class TestChannel:
    """Row-stochastic conditional p_{U|X}, rows indexed by x."""

    __test__ = False  # not a test case, despite what pytest thinks
    __slots__ = ("rows",)

    def __init__(self, rows):
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2:
            raise ParameterError(f"test channel must be 2-D, got shape {arr.shape}")
        if arr.shape[1] > arr.shape[0]:
            raise ParameterError(
                f"|U| = {arr.shape[1]} exceeds |X| = {arr.shape[0]}; the "
                "capacity problems never need a larger auxiliary alphabet")
        arr = _clipped(arr)
        sums = arr.sum(axis=1)
        if np.abs(sums - 1.0).max() > SUM_TOL:
            raise ParameterError(
                f"rows must sum to 1 within {SUM_TOL}; sums are {sums.tolist()!r}")
        arr.flags.writeable = False
        self.rows = arr

    @property
    def u_size(self):
        return self.rows.shape[1]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def uniform(cls, n, m=None):
        m = n if m is None else m
        return cls(np.full((n, m), 1.0 / m))

    @classmethod
    def bsc(cls, beta):
        return cls([[1.0 - beta, beta], [beta, 1.0 - beta]])

    def __repr__(self):
        return f"TestChannel({self.rows.tolist()!r})"


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs of optimize_oneway; the defaults favour accuracy over speed."""

    starts: int = 32          # Dirichlet(1) random starts (identity is added)
    seed: int = 0
    max_sweeps: int = 60
    golden_iters: int = 24    # line-search refinement steps
    rate_grid: int = 8        # R' grid size for non-degraded wsk inputs


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of one optimize_oneway call (value in ``units``)."""

    value: float
    units: str
    channel: TestChannel
    constraint_residual: float
    rate_used: float
    method: str
    status: str


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


def _h_joint_bits(tc, p_xa):
    # H(U, A) for A with pair masses p_xa; tc is (B, nx, nu)
    p_ua = np.einsum("bxu,xa->bua", tc, p_xa)
    return entropy_nats(p_ua, (1, 2)) / LN2


def _h_u_given_x_bits(tc, p_x):
    return -(p_x[None, :, None] * xlogx(tc)).sum(axis=(1, 2)) / LN2


def _rate_bits(tc, pre):
    # I(X;U|Y) = H(U,Y) - H(Y) - H(U|X), valid because U depends on X alone
    return _h_joint_bits(tc, pre.p_xy) - pre.h_y - _h_u_given_x_bits(tc, pre.p_x)


def _value_bits(tc, pre, objective):
    h_uy = _h_joint_bits(tc, pre.p_xy)
    if objective == "rec":
        p_u = np.einsum("bxu,x->bu", tc, pre.p_x)
        return entropy_nats(p_u, 1) / LN2 + pre.h_y - h_uy
    h_uz = _h_joint_bits(tc, pre.p_xz)
    return (h_uz - pre.h_z) - (h_uy - pre.h_y)


def _check_pair(j, tc):
    if not isinstance(j, DiscreteJoint):
        j = DiscreteJoint(j)
    if tc.rows.shape[0] != j.dims[0]:
        raise ParameterError(
            f"channel has {tc.rows.shape[0]} rows but |X| = {j.dims[0]}")
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


def _project(tc, r1, pre):
    """Pull every batch element onto the surface I(X;U|Y) = r1.

    Bisection along the segment to the identity channel when the constraint
    is short, to the uniform channel when long; the constraint is convex on
    either segment with the target level strictly between the endpoint
    values, so each predicate below is monotone in the step size.
    """
    b, nx, nu = tc.shape
    cur = _rate_bits(tc, pre)
    toward_id = cur < r1
    eye = np.eye(nx)[:, :nu]
    flat = np.full((nx, nu), 1.0 / nu)
    ends = np.where(toward_id[:, None, None], eye[None], flat[None])
    lo = np.zeros(b)
    hi = np.ones(b)
    mid = 0.5 * (lo + hi)
    for _ in range(PROJECT_ITERS):
        mid = 0.5 * (lo + hi)
        cand = tc + mid[:, None, None] * (ends - tc)
        cm = _rate_bits(cand, pre)
        if np.abs(cm - r1).max() <= 1e-13:
            return cand
        inside = np.where(toward_id, cm < r1, cm > r1)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    lam = 0.5 * (lo + hi)
    return tc + lam[:, None, None] * (ends - tc)


def _golden_batch(fun, lo, hi, iters):
    """Elementwise golden-section maximization of fun over [lo, hi]."""
    c = hi - GOLD * (hi - lo)
    d = lo + GOLD * (hi - lo)
    fc = fun(c)
    fd = fun(d)
    for _ in range(iters):
        swap = fc > fd
        hi = np.where(swap, d, hi)
        lo = np.where(swap, lo, c)
        fresh = np.where(swap, hi - GOLD * (hi - lo), lo + GOLD * (hi - lo))
        f_fresh = fun(fresh)
        c, d = np.where(swap, fresh, d), np.where(swap, c, fresh)
        fc, fd = np.where(swap, f_fresh, fd), np.where(swap, fc, f_fresh)
    best = fc > fd
    return np.where(best, c, d), np.where(best, fc, fd)


def _line_search(tc, val, x, u1, u2, r1, pre, objective, opts):
    lo = -tc[:, x, u2]
    hi = tc[:, x, u1]

    def shifted(tau):
        cand = tc.copy()
        cand[:, x, u1] = tc[:, x, u1] - tau
        cand[:, x, u2] = tc[:, x, u2] + tau
        return _project(cand, r1, pre)

    def fval(tau):
        return _value_bits(shifted(tau), pre, objective)

    tau, _ = _golden_batch(fval, lo, hi, opts.golden_iters)
    cand = shifted(tau)
    cval = _value_bits(cand, pre, objective)
    better = cval > val
    if not better.any():
        return tc, val, 0.0
    gain = float(np.where(better, cval - val, 0.0).max())
    tc = np.where(better[:, None, None], cand, tc)
    val = np.where(better, cval, val)
    return tc, val, gain


def _result(value, channel, residual, rate_used, method, status):
    return CapacityResult(value=float(value), units=BITS, channel=channel,
                          constraint_residual=float(residual),
                          rate_used=float(rate_used), method=method,
                          status=status)


def _solve_equality(j, pre, r1, objective, opts):
    nx = j.dims[0]
    if abs(r1 - pre.h_xy_cond) <= 1e-12:
        # saturation: the identity channel is feasible and optimal
        tc = TestChannel.identity(nx)
        val = _value_bits(tc.rows[None], pre, objective)[0]
        resid = _rate_bits(tc.rows[None], pre)[0] - r1
        return _result(val, tc, resid, r1, "saturated-identity", "converged")

    branches = []
    for b in range(opts.starts):
        g = np.random.default_rng((opts.seed, b)).gamma(1.0, size=(nx, nx))
        branches.append(g / g.sum(axis=1, keepdims=True))
    branches.append(np.eye(nx))
    tc = _project(np.stack(branches), r1, pre)
    val = _value_bits(tc, pre, objective)

    pairs = [(a, b) for a in range(nx) for b in range(nx) if a < b]
    status = "max_sweeps"
    for _ in range(opts.max_sweeps):
        sweep_gain = 0.0
        for x in range(nx):
            for u1, u2 in pairs:
                tc, val, gain = _line_search(
                    tc, val, x, u1, u2, r1, pre, objective, opts)
                sweep_gain = max(sweep_gain, gain)
        if sweep_gain < IMPROVE_TOL:
            status = "converged"
            break
    best = int(np.argmax(val))
    channel = TestChannel(tc[best])
    residual = _rate_bits(tc[best][None], pre)[0] - r1
    method = f"multistart[{opts.starts + 1}]-projected-coordinate-ascent"
    return _result(val[best], channel, residual, r1, method, status)


def optimize_oneway(j, r1, objective="wsk", opts=None):
    """Maximize a capacity objective on the surface I(X;U|Y) = r1.

    Parameters
    ----------
    j : DiscreteJoint
        Source model p_XYZ; must be degraded for the wsk objective unless
        the rate-sweep fallback is acceptable (see module docstring).
    r1 : float
        Public rate in bits, 0 <= r1 <= H(X|Y).
    objective : {"rec", "wsk"}
    opts : OptimizerOptions

    Returns
    -------
    CapacityResult
        Best value (bits), the maximizing channel, the achieved constraint
        residual, and a status flag ("converged" or "max_sweeps": the sweep
        budget ran out while still improving, value is best-so-far).
    """
    if objective not in _OBJECTIVES:
        raise ParameterError(f"objective must be one of {_OBJECTIVES}, "
                             f"got {objective!r}")
    if not isinstance(j, DiscreteJoint):
        j = DiscreteJoint(j)
    opts = opts or OptimizerOptions()
    r1 = check_rate(r1)
    pre = _precompute(j)
    if r1 > pre.h_xy_cond + 1e-12:
        raise ParameterError(
            f"rate {r1!r} exceeds H(X|Y) = {pre.h_xy_cond!r}; the equality "
            "surface is empty (use the saturated closed form instead)")
    r1 = min(r1, pre.h_xy_cond)
    nx = j.dims[0]
    if r1 == 0.0:
        # only channels independent of X are feasible; every objective is 0
        return _result(0.0, TestChannel.uniform(nx), 0.0, 0.0,
                       "degenerate-zero-rate", "converged")
    if objective == "wsk" and not j.is_degraded():
        # equality in the constraint is only proved for degraded sources;
        # sweep equality surfaces at and below the budget and keep the best
        best = None
        for rp in np.linspace(r1 / opts.rate_grid, r1, opts.rate_grid):
            res = _solve_equality(j, pre, float(rp), objective, opts)
            if best is None or res.value > best.value:
                best = res
        if best.value < 0.0:
            return _result(0.0, TestChannel.uniform(nx), 0.0, 0.0,
                           "rate-sweep-useless", "converged")
        return best
    return _solve_equality(j, pre, r1, objective, opts)


@dataclass(frozen=True)
class TwoWayChannels:
    """A supplied (U, V) pair: p_{U|X} plus p_{V|Y,U}.

    The Markov requirements U -> X -> (Y,Z) and V -> (Y,U) -> (X,Z) hold by
    construction because U is built from X alone and V from (Y,U) alone.
    """

    u_channel: TestChannel
    v_given_yu: np.ndarray

    def __post_init__(self):
        arr = np.array(self.v_given_yu, dtype=float)
        if arr.ndim != 3:
            raise ParameterError(
                f"v channel must be (|Y|, |U|, |V|), got shape {arr.shape}")
        arr = _clipped(arr)
        sums = arr.sum(axis=2)
        if np.abs(sums - 1.0).max() > SUM_TOL:
            raise ParameterError("v channel rows must sum to 1")
        if arr.shape[1] != self.u_channel.u_size:
            raise ParameterError(
                f"v channel indexes {arr.shape[1]} u symbols but |U| = "
                f"{self.u_channel.u_size}")
        arr.flags.writeable = False
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
    u = tw.u_channel.rows
    v = tw.v_given_yu
    if u.shape[0] != j.dims[0]:
        raise ParameterError(
            f"u channel has {u.shape[0]} rows but |X| = {j.dims[0]}")
    if v.shape[0] != j.dims[1]:
        raise ParameterError(
            f"v channel indexes {v.shape[0]} y symbols but |Y| = {j.dims[1]}")
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
    if not isinstance(j, DiscreteJoint):
        j = DiscreteJoint(j)
    pre = _precompute(j)
    nx = j.dims[0]
    rng = np.random.default_rng(seed)

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
