"""Tests for seqkey.gaussian: closed forms, channel round trip, orderings."""

import math

import numpy as np
import pytest

from seqkey.errors import ParameterError
from seqkey.gaussian import (
    GaussianSource,
    c_rec_gauss,
    c_wsk_gauss,
    channel_mi_y,
    channel_noise_var,
    channel_rate,
    sigma0,
)
from seqkey.measures import gaussian_mi


# ---------------------------------------------------------------- source

def test_source_defaults_to_degraded():
    src = GaussianSource(rho_xy=0.8, rho_yz=0.4)
    assert src.rho_xz == pytest.approx(0.32, abs=1e-15)
    assert src.is_degraded()
    assert not GaussianSource(rho_xy=0.8, rho_yz=0.4, rho_xz=0.1).is_degraded()


def test_source_sigma_n_derivation():
    src = GaussianSource(rho_xy=0.75, sigma_x=1.0)
    # additive view: rho^2 = sigma_x^2 / (sigma_x^2 + sigma_n^2)
    expected = math.sqrt(1.0 / 0.75**2 - 1.0)
    assert src.sigma_n == pytest.approx(expected, rel=1e-12)
    # derived, never given: one correlation gives one source
    with pytest.raises(TypeError):
        GaussianSource(rho_xy=0.75, sigma_n=expected)
    with pytest.raises(AttributeError):
        src.sigma_n = expected
    assert src == GaussianSource(rho_xy=0.75)
    assert GaussianSource(rho_xy=0.0).sigma_n is None
    assert GaussianSource(rho_xy=1.0).sigma_n is None


def test_source_validation():
    with pytest.raises(ParameterError):
        GaussianSource(rho_xy=1.2)
    with pytest.raises(ParameterError):
        GaussianSource(rho_xy=0.5, sigma_x=0.0)
    # rho_xy = rho_yz = 0.9 with rho_xz = -0.9 is not PSD
    with pytest.raises(ParameterError):
        GaussianSource(rho_xy=0.9, rho_yz=0.9, rho_xz=-0.9)


# ---------------------------------------------------------------- sigma0

def test_sigma0_direct_value():
    src = GaussianSource(rho_xy=0.8, sigma_x=1.0)
    # 1 + 0.2 / (e - 1), frozen from direct evaluation
    assert sigma0(src, 0.5) == pytest.approx(1.1163953413738652, abs=1e-15)


def test_sigma0_limits():
    src = GaussianSource(rho_xy=0.8)
    assert sigma0(src, 50.0) == pytest.approx(1.0, abs=1e-12)
    unit = GaussianSource(rho_xy=1.0)  # boundary correlation is representable
    for r1 in [0.1, 1.0, 10.0]:
        assert sigma0(unit, r1) == pytest.approx(1.0, abs=1e-15)
    # strictly decreasing, divergent toward r1 = 0
    rates = np.linspace(0.01, 3.0, 40)
    vals = [sigma0(src, r) for r in rates]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert sigma0(src, 1e-9) > 1e8
    with pytest.raises(ParameterError):
        sigma0(src, 0.0)


# ----------------------------------------------------------- closed forms

def test_c_rec_gauss_values():
    src = GaussianSource(rho_xy=0.75)
    assert c_rec_gauss(src, 0.0) == 0.0
    # frozen: 0.5 ln[(1 - 0.5625 e^{-2})/(1 - 0.5625)]
    assert c_rec_gauss(src, 1.0) == pytest.approx(0.373749444055398, abs=1e-14)
    assert c_rec_gauss(src, 40.0) == pytest.approx(
        gaussian_mi(0.75), abs=1e-12)
    # approaches but never attains (checked where the gap is resolvable)
    assert c_rec_gauss(src, 5.0) < gaussian_mi(0.75)


def test_c_wsk_gauss_values():
    src = GaussianSource(rho_xy=0.8, rho_yz=0.4, rho_xz=0.32)
    assert c_wsk_gauss(src, 0.0) == 0.0
    # frozen direct evaluation at the degraded triple
    assert c_wsk_gauss(src, 1.0) == pytest.approx(0.414544972553811, abs=1e-14)
    assert c_wsk_gauss(src, 1.0) <= c_rec_gauss(src, 1.0)


def test_c_wsk_gauss_blind_eavesdropper_collapses_to_rec():
    src = GaussianSource(rho_xy=0.8, rho_yz=0.0, rho_xz=0.0)
    for r1 in [0.1, 0.5, 1.0, 3.0]:
        assert c_wsk_gauss(src, r1) == pytest.approx(
            c_rec_gauss(src, r1), abs=1e-13)


def test_c_wsk_gauss_degradedness_gate():
    bad = GaussianSource(rho_xy=0.8, rho_yz=0.4, rho_xz=0.1)
    with pytest.raises(ParameterError):
        c_wsk_gauss(bad, 1.0)
    val = c_wsk_gauss(bad, 1.0, extrapolate=True)
    assert math.isfinite(val)


def test_capacity_curves_ordered_and_increasing():
    # the acceptance grid in miniature: ordering plus strict monotonicity
    rhos = [(0.9, 0.5), (0.75, 0.3), (0.6, 0.6), (0.3, 0.8), (0.95, 0.1)]
    rates = np.logspace(-3, 1, 20)
    for xy, yz in rhos:
        src = GaussianSource(rho_xy=xy, rho_yz=yz)
        rec = np.array([c_rec_gauss(src, r) for r in rates])
        wsk = np.array([c_wsk_gauss(src, r) for r in rates])
        assert (wsk <= rec + 1e-13).all()
        for r in rates:
            assert c_rec_gauss(src, r + 1e-4) > c_rec_gauss(src, r)
            assert c_wsk_gauss(src, r + 1e-4) > c_wsk_gauss(src, r)


def test_c_rec_gauss_asymptotic_rate():
    # gaussian_mi(rho) - c_rec decays like e^{-2 R1}: slope of the log gap
    # within 5% of -2
    src = GaussianSource(rho_xy=0.75)
    rates = np.linspace(2.0, 6.0, 9)
    gaps = np.array([gaussian_mi(0.75) - c_rec_gauss(src, r) for r in rates])
    slope = np.polyfit(rates, np.log(gaps), 1)[0]
    assert slope == pytest.approx(-2.0, rel=0.05)


# ------------------------------------------------------- channel round trip

def test_channel_rate_round_trip():
    src = GaussianSource(rho_xy=0.8, sigma_x=1.3)
    for r1 in [0.05, 0.3, 0.7, 2.0, 5.0]:
        nv = channel_noise_var(src, r1)
        assert channel_rate(src, nv) == pytest.approx(r1, abs=1e-10)


def test_channel_mi_y_reproduces_c_rec():
    for xy, sx in [(0.8, 1.0), (0.6, 2.5), (0.95, 0.7)]:
        src = GaussianSource(rho_xy=xy, sigma_x=sx)
        for r1 in [0.1, 0.7, 2.0]:
            nv = channel_noise_var(src, r1)
            assert channel_mi_y(src, nv) == pytest.approx(
                c_rec_gauss(src, r1), abs=1e-12)


def test_channel_validation():
    src = GaussianSource(rho_xy=0.8)
    with pytest.raises(ParameterError):
        channel_noise_var(src, 0.0)
    with pytest.raises(ParameterError):
        channel_rate(src, -1.0)
    with pytest.raises(ParameterError):
        c_rec_gauss(GaussianSource(rho_xy=1.0), 1.0)


def test_h_x_given_y_value():
    from seqkey.gaussian import h_x_given_y
    # sigma_c^2 = sigma_x^2 (1 - rho^2) = 0.4375 at rho = 0.75
    src = GaussianSource(rho_xy=0.75)
    assert h_x_given_y(src) == pytest.approx(1.0055992466124386, abs=1e-15)
    # independence limit: h(X|Y) = h(X)
    assert h_x_given_y(GaussianSource(rho_xy=0.0, sigma_x=2.0)) == (
        pytest.approx(0.5 * math.log(2.0 * math.pi * math.e * 4.0), abs=1e-15))
    with pytest.raises(ParameterError):
        h_x_given_y(GaussianSource(rho_xy=1.0))
