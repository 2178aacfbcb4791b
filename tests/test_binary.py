"""Tests for seqkey.binary: beta0 root, closed forms, counterexample optima."""

import math

import numpy as np
import pytest

from seqkey.binary import (
    AlphaPair,
    AsymBinarySource,
    BscCascadeSource,
    beta0_solve,
    bsc_matrix,
    c_rec_bsc,
    c_wsk_bec,
    c_wsk_bsc,
    counterexample_channel,
    counterexample_fgh,
    counterexample_solve,
    mixture_weight,
)
from seqkey.errors import InfeasibleError, ParameterError, RateSaturated
from seqkey.measures import (
    binary_entropy,
    conditional_mutual_information,
    joint_from_cascade,
    mutual_information,
    star,
)

from counterexample_oracle import oracle_solve

# the reference counterexample parameter set
PAPER_SRC = AsymBinarySource(p=0.23, beta1=0.01, beta2=0.03,
                             gamma1=0.03, gamma2=0.01)


# ------------------------------------------------------------ beta0_solve

def test_beta0_at_full_rate_is_noiseless():
    b, mirror = beta0_solve(0.1, binary_entropy(0.1))
    assert b == pytest.approx(0.0, abs=1e-12)
    assert mirror == pytest.approx(1.0, abs=1e-12)


def test_beta0_at_vanishing_rate_is_useless():
    b, _ = beta0_solve(0.1, 1e-9)
    assert b == pytest.approx(0.5, abs=1e-4)


def test_beta0_direct_value_and_residual():
    b, mirror = beta0_solve(0.1, 0.2)
    # frozen from an independent bisection on the defining equation
    assert b == pytest.approx(0.108019159698074, abs=1e-12)
    assert binary_entropy(star(0.1, b)) - binary_entropy(b) == pytest.approx(
        0.2, abs=1e-10)
    # the two roots are interchangeable in every capacity formula
    assert binary_entropy(star(0.1, mirror)) == pytest.approx(
        binary_entropy(star(0.1, b)), abs=1e-12)


def test_beta0_errors():
    with pytest.raises(ParameterError):
        beta0_solve(0.1, 0.0)
    with pytest.raises(ParameterError):
        beta0_solve(0.1, -0.5)
    with pytest.raises(RateSaturated):
        beta0_solve(0.1, binary_entropy(0.1) + 1e-6)
    with pytest.raises(ParameterError):
        beta0_solve(0.5, 0.2)
    with pytest.raises(ParameterError):
        beta0_solve(0.0, 0.2)


# ----------------------------------------------------------- closed forms

def test_c_rec_bsc_values():
    src = BscCascadeSource(p=0.1, q=0.2)
    assert c_rec_bsc(src, 0.0) == 0.0
    # frozen oracle: beta0 bisection + formula evaluated independently
    assert c_rec_bsc(src, 0.2) == pytest.approx(0.306087918371204, abs=1e-12)
    sat = 1.0 - binary_entropy(0.1)
    assert c_rec_bsc(src, binary_entropy(0.1)) == pytest.approx(sat, abs=1e-12)
    assert c_rec_bsc(src, 5.0) == pytest.approx(0.531004406410719, abs=1e-12)


def test_c_wsk_bsc_values():
    src = BscCascadeSource(p=0.1, q=0.2)
    assert c_wsk_bsc(src, 0.0) == 0.0
    assert c_wsk_bsc(src, 0.2) == pytest.approx(0.201384437197100, abs=1e-12)
    assert c_wsk_bsc(src, 1.0) == pytest.approx(0.357750778903337, abs=1e-12)


def test_c_wsk_reduces_to_c_rec_when_z_is_blind():
    src_half = BscCascadeSource(p=0.1, q=0.5)
    for r1 in [0.0, 0.05, 0.2, 0.4, 1.0]:
        assert c_wsk_bsc(src_half, r1) == pytest.approx(
            c_rec_bsc(src_half, r1), abs=1e-12)


def test_capacities_monotone_and_ordered():
    src = BscCascadeSource(p=0.15, q=0.3)
    rates = np.linspace(0.0, 1.0, 41)
    rec = [c_rec_bsc(src, r) for r in rates]
    wsk = [c_wsk_bsc(src, r) for r in rates]
    hxy = binary_entropy(0.15)
    for a, b in zip(rec, rec[1:]):
        assert b >= a - 1e-12
    for a, b in zip(wsk, wsk[1:]):
        assert b >= a - 1e-12
    for r, cr, cw in zip(rates, rec, wsk):
        assert cw <= cr + 1e-12
        if r >= hxy:
            assert cr == pytest.approx(1.0 - binary_entropy(0.15), abs=1e-12)


def test_c_wsk_bec_proportionality():
    src = BscCascadeSource(p=0.1, q=0.0)
    for r1 in [0.05, 0.2, 0.5]:
        assert c_wsk_bec(src, 0.0, r1) == 0.0
        assert c_wsk_bec(src, 1.0, r1) == pytest.approx(
            c_rec_bsc(src, r1), abs=1e-12)
        assert c_wsk_bec(src, 0.3, r1) == pytest.approx(
            0.3 * c_rec_bsc(src, r1), abs=1e-12)


def test_bsc_matrix_is_row_stochastic():
    m = bsc_matrix(0.1)
    assert m.sum(axis=1) == pytest.approx([1.0, 1.0])
    assert m[0, 1] == 0.1 and m[1, 0] == 0.1


# --------------------------------------------------------- counterexample

def test_fgh_feasibility_guards():
    with pytest.raises(InfeasibleError):
        counterexample_fgh(PAPER_SRC, AlphaPair(0.3, 0.7))  # alpha2bar == alpha1
    with pytest.raises(InfeasibleError):
        counterexample_fgh(PAPER_SRC, AlphaPair(0.5, 0.1))  # p_u > 1


def test_fgh_identity_test_channel():
    # alpha1 = alpha2 = 0 makes U a copy of X
    f, g, h = counterexample_fgh(PAPER_SRC, AlphaPair(0.0, 0.0))
    assert h == pytest.approx(binary_entropy(0.23), abs=1e-12)
    h_y_given_x = (0.77 * binary_entropy(0.01) + 0.23 * binary_entropy(0.03))
    assert f == pytest.approx(
        binary_entropy(PAPER_SRC.p_y) - h_y_given_x, abs=1e-12)
    assert h - f == pytest.approx(PAPER_SRC.h_x_given_y(), abs=1e-12)


def test_fgh_matches_information_measures():
    # f = I(Y;U), g = I(Z;U), h = I(X;U) on the induced joints
    rng = np.random.default_rng(23)
    for _ in range(20):
        a1 = float(rng.uniform(0.0, PAPER_SRC.p - 1e-6))
        a2 = float(rng.uniform(0.0, 1.0 - PAPER_SRC.p - 1e-6))
        ap = AlphaPair(a1, a2)
        f, g, h = counterexample_fgh(PAPER_SRC, ap)
        pu, x_given_u = counterexample_channel(PAPER_SRC, ap)
        uxy = joint_from_cascade(pu, x_given_u, PAPER_SRC.channel_xy())
        y_given_u = x_given_u @ PAPER_SRC.channel_xy()
        uyz = joint_from_cascade(pu, y_given_u, PAPER_SRC.channel_yz())
        assert h == pytest.approx(mutual_information(uxy, "x", "y"), abs=1e-10)
        assert f == pytest.approx(mutual_information(uxy, "x", "z"), abs=1e-10)
        assert g == pytest.approx(mutual_information(uyz, "x", "z"), abs=1e-10)
        # the rate spent is exactly I(X;U|Y)
        assert h - f == pytest.approx(
            conditional_mutual_information(uxy, "y", "x", "z"), abs=1e-10)


def test_mixture_weight_consistency():
    ap = AlphaPair(0.1, 0.2)
    pu = mixture_weight(PAPER_SRC, ap)
    assert pu * 0.1 + (1.0 - pu) * 0.8 == pytest.approx(0.23, abs=1e-12)


def test_counterexample_solve_reference_parameters():
    hxy = PAPER_SRC.h_x_given_y()
    assert hxy == pytest.approx(0.105528866947429, abs=1e-12)
    rep = counterexample_solve(PAPER_SRC, hxy / 3.0)
    # frozen from the dense-grid (step 1e-3) + refinement oracle
    assert rep.c_wsk == pytest.approx(0.050180873783, abs=2e-6)
    assert rep.c_rec == pytest.approx(0.366303865947, abs=2e-6)
    assert rep.key_rate_at_rec == pytest.approx(0.044350834130, abs=2e-6)
    assert rep.relative_loss == pytest.approx(0.116181, abs=1e-4)
    assert rep.wsk_pair.alpha1 == pytest.approx(0.014329505, abs=1e-5)
    assert rep.wsk_pair.alpha2 == pytest.approx(0.402801655, abs=1e-4)
    assert rep.rec_pair.alpha1 == pytest.approx(0.053833862, abs=1e-5)
    assert rep.rec_pair.alpha2 == pytest.approx(0.159533377, abs=1e-4)
    # the published ordering
    assert rep.c_wsk > 0.050
    assert rep.key_rate_at_rec < 0.045
    assert rep.relative_loss > 0.10
    assert rep.constraint_residual <= 1e-9
    # plain floats, so the pairs print like any other number
    for pair in (rep.wsk_pair, rep.rec_pair):
        assert type(pair.alpha1) is float and type(pair.alpha2) is float


def test_counterexample_solve_symmetric_source_has_no_gap():
    src = AsymBinarySource(p=0.5, beta1=0.05, beta2=0.05,
                           gamma1=0.08, gamma2=0.08)
    rep = counterexample_solve(src, src.h_x_given_y() / 3.0)
    assert rep.relative_loss == pytest.approx(0.0, abs=1e-6)
    assert rep.c_wsk == pytest.approx(rep.key_rate_at_rec, abs=1e-7)


def test_counterexample_solve_rate_domain():
    with pytest.raises(ParameterError):
        counterexample_solve(PAPER_SRC, 0.0)
    with pytest.raises(ParameterError):
        counterexample_solve(PAPER_SRC, PAPER_SRC.h_x_given_y())


@pytest.mark.parametrize("grid", [1, 0, -3])
def test_counterexample_solve_rejects_grid_below_two(grid):
    with pytest.raises(ParameterError, match="at least 2"):
        counterexample_solve(PAPER_SRC, PAPER_SRC.h_x_given_y() / 3.0,
                             grid=grid)


SYMMETRIC_SRC = AsymBinarySource(p=0.5, beta1=0.05, beta2=0.05,
                                 gamma1=0.08, gamma2=0.08)
# (source, grids): the dense grid only for the command's own sources
_SCAN_CASES = [
    (PAPER_SRC, (2, 64, 512)),
    (SYMMETRIC_SRC, (2, 64, 512)),
    (AsymBinarySource(0.7, 0.12, 0.04, 0.2, 0.09), (2, 64)),
    (AsymBinarySource(0.35, 0.25, 0.1, 0.05, 0.15), (2, 64)),
    # Y independent of X: f and f - g are 0 along the whole curve, up to
    # rounding, so only the scalar floats can pick the same maximum
    (AsymBinarySource(0.3, 0.5, 0.5, 0.1, 0.2), (2, 64)),
]


@pytest.mark.parametrize("src,grids", _SCAN_CASES, ids=[
    "reference", "symmetric", "skew_a", "skew_b", "flat"])
@pytest.mark.parametrize("share", [0.05, 1.0 / 3.0, 0.7])
def test_counterexample_solve_equals_scalar_scan(src, grids, share):
    # the array scan must pick the grid points the point-by-point scan
    # picks, so every reported float is the same
    r1 = src.h_x_given_y() * share
    for grid in grids:
        assert counterexample_solve(src, r1, grid=grid) == oracle_solve(
            src, r1, grid=grid)
