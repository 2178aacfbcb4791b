"""Reference for the counterexample tests: the scalar alpha1 scan.

This is how ``counterexample_solve`` scanned its grid before the scan ran
as one array bisection: one scalar ``_trace_alpha2`` bisection per grid
point on the ``math.log`` entropy, keeping a candidate only on strict
improvement from the low end. The refinement and the report are copied
from that version as they were, so a test can ask the library for the
same report, bit for bit. ``oracle_trace_alpha2`` is the trace as it was
before it took its alpha2-free entropies once per trace: every bisection
step evaluates ``counterexample_fgh`` on a fresh ``AlphaPair``.
"""

import math

import numpy as np

from seqkey.binary import (
    AlphaPair,
    CounterexampleReport,
    _golden_max,
    counterexample_fgh,
)
from seqkey.errors import InfeasibleError, ParameterError
from seqkey.measures import bisect


def oracle_trace_alpha2(src, a1, r1):
    """The alpha2 on the constraint curve at alpha1 = a1, or None."""
    def spent(a2):
        f, _, h = counterexample_fgh(src, AlphaPair(a1, a2))
        return h - f

    if spent(0.0) < r1:
        return None
    return bisect(lambda a2: spent(a2) >= r1, 0.0, 1.0 - src.p - 1e-13)


def oracle_solve(src, r1, grid=512):
    """``counterexample_solve`` with the scan done point by point."""
    r1 = float(r1)
    hxy = src.h_x_given_y()
    if not 0.0 < r1 < hxy:
        raise ParameterError(
            f"rate must lie strictly inside (0, H(X|Y)) = (0, {hxy}), got {r1!r}")

    def on_curve(a1):
        a2 = oracle_trace_alpha2(src, a1, r1)
        if a2 is None:
            return None
        pair = AlphaPair(a1, a2)
        f, g, _ = counterexample_fgh(src, pair)
        return pair, f, g

    alphas = np.linspace(0.0, src.p, grid, endpoint=False)
    best_wsk = best_rec = None
    step = alphas[1] - alphas[0]
    for a1 in alphas:
        got = on_curve(float(a1))
        if got is None:
            continue
        pair, f, g = got
        if best_wsk is None or f - g > best_wsk[0]:
            best_wsk = (f - g, pair)
        if best_rec is None or f > best_rec[0]:
            best_rec = (f, pair)
    if best_wsk is None:
        raise InfeasibleError("the constraint curve is empty in the feasible region")

    def refined(center, key):
        lo = max(center - step, 0.0)
        hi = min(center + step, src.p - 1e-12)

        def value(a1):
            got = on_curve(a1)
            if got is None:
                return -math.inf
            _, f, g = got
            return f - g if key == "wsk" else f

        a1 = _golden_max(value, lo, hi)
        got = on_curve(a1)
        return got if got is not None else on_curve(center)

    wsk_pair, fw, gw = refined(best_wsk[1].alpha1, "wsk")
    rec_pair, fr, gr = refined(best_rec[1].alpha1, "rec")
    _, _, hw = counterexample_fgh(src, wsk_pair)
    _, _, hr = counterexample_fgh(src, rec_pair)
    c_wsk = fw - gw
    key_at_rec = fr - gr
    loss = 1.0 - key_at_rec / c_wsk if c_wsk > 0.0 else 0.0
    residual = max(abs(hw - fw - r1), abs(hr - fr - r1))
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
