"""Reference solver for the optimizer tests: multistart projected
coordinate ascent on the surface I(X;U|Y) = r1.

This is the search the library used before its Lagrangian fixed point.
It shares nothing with that solver but the objective and rate
evaluations, so a test can ask the library to do at least as well:

* a batch of Dirichlet(1) random channels (plus the identity) advances in
  lockstep as one (B, |X|, |U|) tensor,
* each candidate is projected onto the equality surface by bisection along
  the segment toward the identity channel (constraint too small) or toward
  the uniform useless channel (too large) - the constraint is convex along
  either segment and crosses the level exactly once,
* coordinate moves transfer mass between two entries of one row, with a
  golden-section search on the transfer evaluating the projected objective,
* sweeps repeat until the best improvement falls below IMPROVE_TOL, and the
  answer is the max over the batch.
"""

import math

import numpy as np

from seqkey.optimizer import _precompute, _rate_bits, _value_bits

GOLD = (math.sqrt(5.0) - 1.0) / 2.0
IMPROVE_TOL = 1e-8   # sweep improvement below this stops the ascent
PROJECT_ITERS = 46   # bisection steps for the surface projection


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


def _line_search(tc, val, x, u1, u2, r1, pre, objective, golden_iters):
    lo = -tc[:, x, u2]
    hi = tc[:, x, u1]

    def shifted(tau):
        cand = tc.copy()
        cand[:, x, u1] = tc[:, x, u1] - tau
        cand[:, x, u2] = tc[:, x, u2] + tau
        return _project(cand, r1, pre)

    def fval(tau):
        return _value_bits(shifted(tau), pre, objective)

    tau, _ = _golden_batch(fval, lo, hi, golden_iters)
    cand = shifted(tau)
    cval = _value_bits(cand, pre, objective)
    better = cval > val
    if not better.any():
        return tc, val, 0.0
    gain = float(np.where(better, cval - val, 0.0).max())
    tc = np.where(better[:, None, None], cand, tc)
    val = np.where(better, cval, val)
    return tc, val, gain


def multistart_value(j, r1, objective, starts=8, seed=0, max_sweeps=40,
                     golden_iters=20):
    """Best objective value (bits) the ascent finds on I(X;U|Y) = r1.

    ``r1`` must lie strictly inside (0, H(X|Y)); the ascent has no
    saturated or zero-rate branch.
    """
    pre = _precompute(j)
    nx = j.dims[0]
    branches = []
    for b in range(starts):
        g = np.random.default_rng((seed, b)).gamma(1.0, size=(nx, nx))
        branches.append(g / g.sum(axis=1, keepdims=True))
    branches.append(np.eye(nx))
    tc = _project(np.stack(branches), r1, pre)
    val = _value_bits(tc, pre, objective)
    pairs = [(a, b) for a in range(nx) for b in range(nx) if a < b]
    for _ in range(max_sweeps):
        sweep_gain = 0.0
        for x in range(nx):
            for u1, u2 in pairs:
                tc, val, gain = _line_search(
                    tc, val, x, u1, u2, r1, pre, objective, golden_iters)
                sweep_gain = max(sweep_gain, gain)
        if sweep_gain < IMPROVE_TOL:
            break
    return float(val.max())
