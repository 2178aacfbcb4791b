"""Closed-form rate-limited capacities for degraded Gaussian sources.

All quantities here are in nats: the capacity expressions mix a logarithm
with ``exp(-2 R1)`` interiors, and measuring both the rate budget and the
result in nats is the only internally consistent reading. Use
``measures.convert_units`` for display in bits.

A note on the optimal test-channel variance: the published expression
``sigma0 = sigma_x (1 + (1 - rho_xy)/(e^{2 R1} - 1))`` is reproduced
verbatim by :func:`sigma0`, but an additive-noise channel U = X + W built
from it does not meet the rate constraint I(X;U|Y) = R1. The channel that
does (and that reproduces :func:`c_rec_gauss` exactly through I(Y;U)) has
noise variance ``sigma_x^2 (1 - rho_xy^2)/(e^{2 R1} - 1)``; that squared
form is what :func:`channel_noise_var` returns, and
:func:`channel_rate` / :func:`channel_mi_y` evaluate the constraint and the
objective for any additive-noise variance so the round trip can be checked
to machine accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from seqkey.errors import ParameterError
from seqkey.measures import DEGRADED_TOL, check_rate


@dataclass(frozen=True)
class GaussianSource:
    """Zero-mean jointly Gaussian (X, Y, Z) given by correlations.

    ``rho_xz`` defaults to ``rho_xy * rho_yz``, which is exactly the
    degraded (Markov) case; pass it explicitly to model anything else.
    The read-only ``sigma_n`` is the noise standard deviation of the
    additive view Y = X + N used by the quantizer, derived from sigma_x
    and rho_xy (None unless 0 < |rho_xy| < 1).
    """

    rho_xy: float
    rho_yz: float = 0.0
    rho_xz: float = None
    sigma_x: float = 1.0

    def __post_init__(self):
        if self.rho_xz is None:
            object.__setattr__(self, "rho_xz", self.rho_xy * self.rho_yz)
        for name in ("rho_xy", "rho_yz", "rho_xz"):
            r = float(getattr(self, name))
            if math.isnan(r) or not -1.0 <= r <= 1.0:
                raise ParameterError(f"{name} must lie in [-1, 1], got {r!r}")
        if not 0.0 < self.sigma_x < math.inf:
            raise ParameterError(
                f"sigma_x must be finite and > 0, got {self.sigma_x!r}")
        if self.correlation_det() < -1e-12:
            raise ParameterError(
                "correlation coefficients do not form a positive semidefinite "
                f"matrix (det = {self.correlation_det()!r})")

    @property
    def sigma_n(self):
        if not 0.0 < abs(self.rho_xy) < 1.0:
            return None
        return self.sigma_x * math.sqrt(1.0 / self.rho_xy**2 - 1.0)

    def correlation_det(self):
        """Determinant of the 3x3 correlation matrix."""
        xy, yz, xz = self.rho_xy, self.rho_yz, self.rho_xz
        return 1.0 + 2.0 * xy * yz * xz - xy * xy - yz * yz - xz * xz

    def is_degraded(self):
        """True when rho_xz = rho_xy rho_yz (Gaussian Markov)."""
        return abs(self.rho_xz - self.rho_xy * self.rho_yz) <= DEGRADED_TOL


def _strict_rho(src):
    if not abs(src.rho_xy) < 1.0:
        raise ParameterError(
            f"|rho_xy| must be < 1 for this formula, got {src.rho_xy!r}")
    return src.rho_xy


def sigma0(src, r1):
    """The published test-channel scale, verbatim.

    ``sigma_x (1 + (1 - rho_xy)/(e^{2 R1} - 1))``: strictly decreasing in
    r1, divergent as r1 -> 0+, and equal to sigma_x in the r1 -> infinity
    limit (or whenever rho_xy = 1). See the module docstring for why this
    expression is kept separate from the constraint-satisfying channel.
    """
    r1 = check_rate(r1, positive=True)
    return src.sigma_x * (1.0 + (1.0 - src.rho_xy) / math.expm1(2.0 * r1))


def h_x_given_y(src):
    """Differential entropy h(X|Y) in nats.

    ``(1/2) ln(2 pi e sigma_x^2 (1 - rho_xy^2))``, the entropy of the
    conditional N(mu_y, sigma_x^2 (1 - rho_xy^2)); equals
    ``(1/2) ln(2 pi e sigma_x^2 sigma_n^2 / sigma_y^2)`` in the additive
    view Y = X + N.
    """
    rho = _strict_rho(src)
    var = src.sigma_x**2 * (1.0 - rho * rho)
    return 0.5 * math.log(2.0 * math.pi * math.e * var)


def c_rec_gauss(src, r1):
    """Rate-limited reconciliation capacity, nats.

    ``(1/2) ln[(1 - rho_xy^2 e^{-2 R1}) / (1 - rho_xy^2)]``: zero at r1 = 0,
    strictly increasing, approaching gaussian_mi(rho_xy) asymptotically
    without attaining it.
    """
    r1 = check_rate(r1)
    rho = _strict_rho(src)
    r2 = rho * rho
    return 0.5 * (math.log1p(-r2 * math.exp(-2.0 * r1)) - math.log1p(-r2))


def c_wsk_gauss(src, r1, extrapolate=False):
    """Rate-limited weak secret-key capacity of a degraded source, nats.

    The closed form is stated for degraded sources (rho_xz = rho_xy
    rho_yz); pass ``extrapolate=True`` to evaluate it outside that domain
    anyway, e.g. to plot the expression's behaviour. The denominator is
    the determinant of the correlation matrix, so a singular correlation
    structure has no finite value.
    """
    r1 = check_rate(r1)
    if not (extrapolate or src.is_degraded()):
        raise ParameterError(
            "source is not degraded (rho_xz != rho_xy * rho_yz); "
            "pass extrapolate=True to evaluate the formula regardless")
    a = (1.0 - src.rho_yz**2) * (1.0 - src.rho_xz**2)
    b = (src.rho_xy - src.rho_yz * src.rho_xz) ** 2
    det = a - b
    if det <= 0.0:
        raise ParameterError(
            "correlation matrix is singular; the secret-key expression "
            f"diverges (det = {det!r})")
    if a <= 0.0:
        raise ParameterError(
            "|rho_yz| and |rho_xz| must be < 1 for this formula")
    val = 0.5 * (math.log1p(-(b / a) * math.exp(-2.0 * r1))
                 + math.log(a) - math.log(det))
    return max(val, 0.0)  # provably >= 0; rounding can leave -1e-16 at r1 = 0


def channel_noise_var(src, r1):
    """Noise variance of the additive test channel meeting I(X;U|Y) = r1.

    U = X + W with W ~ N(0, sigma_x^2 (1 - rho_xy^2)/(e^{2 r1} - 1)); the
    round trip channel_rate(src, channel_noise_var(src, r1)) == r1 holds to
    machine accuracy, and channel_mi_y at this variance reproduces
    c_rec_gauss(src, r1).
    """
    r1 = check_rate(r1, positive=True)
    rho = _strict_rho(src)
    return src.sigma_x**2 * (1.0 - rho * rho) / math.expm1(2.0 * r1)


def channel_rate(src, noise_var):
    """I(X;U|Y) in nats for the additive test channel U = X + W."""
    nv = float(noise_var)
    if not nv > 0.0:
        raise ParameterError(f"noise variance must be > 0, got {noise_var!r}")
    rho = _strict_rho(src)
    return 0.5 * math.log1p(src.sigma_x**2 * (1.0 - rho * rho) / nv)


def channel_mi_y(src, noise_var):
    """I(Y;U) in nats for the additive test channel U = X + W."""
    nv = float(noise_var)
    if not nv > 0.0:
        raise ParameterError(f"noise variance must be > 0, got {noise_var!r}")
    rho = _strict_rho(src)
    sx2 = src.sigma_x**2
    return 0.5 * math.log((sx2 + nv) / (sx2 * (1.0 - rho * rho) + nv))
