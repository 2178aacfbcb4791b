"""Information-theoretic primitives over finite joints and Gaussian correlations.

Every other module builds on this one, so the package-wide conventions are
fixed here:

* Discrete quantities default to bits and Gaussian ones to nats. Functions
  returning an information quantity take a ``units`` argument (``BITS`` or
  ``NATS``) rather than baking the base in, and values never carry an
  implicit unit across module boundaries.
* ``0 log 0 = 0``. Masses at or below ``ZERO_MASS`` are exact zeros.
* Distributions must sum to one within ``SUM_TOL``. Tiny negative masses
  above ``-SUM_TOL`` (float dust from upstream arithmetic) are clipped to
  zero; anything more negative is rejected.
* Joints are dense arrays indexed ``(x, y, z)``. Alphabets in this package
  stay small (tens of symbols per axis), so dense storage is both faster
  and easier to audit than sparse.

Axis arguments name a joint's coordinates by letter (``"x"``, ``"yz"``) or
by index (``0``, ``(1, 2)``).

The numeric primitives the other modules share have their only
implementation here: ``xlogx`` and ``entropy_nats`` (the entropy kernel),
``binary_entropy_unchecked`` (the scalar binary entropy, which
``binary_entropy`` calls after its check), ``bisect`` (bisection, one root
or one per array element), and the acceptance checks of the package's
inputs: ``check_rate`` (finite public rates),
``check_stochastic`` (every pmf and channel, the rule above) and
``check_int`` (every integer parameter: a Python or numpy int, never a
bool, within a range).
"""

from __future__ import annotations

import math

import numpy as np

from seqkey.errors import ParameterError

BITS = "bits"
NATS = "nats"
LN2 = math.log(2.0)

SUM_TOL = 1e-12        # normalization slack for incoming distributions
DEGRADED_TOL = 1e-10   # conditional-equality slack for X -> Y -> Z checks
ZERO_MASS = 1e-300     # at or below this a mass is an exact zero

_AXIS_BY_NAME = {"x": 0, "y": 1, "z": 2}


def _scale(units):
    # factor converting nats into the requested units
    if units == NATS:
        return 1.0
    if units == BITS:
        return 1.0 / LN2
    raise ParameterError(f"unknown units {units!r}; expected {BITS!r} or {NATS!r}")


def convert_units(value, src, dst):
    """Convert an information quantity between bits and nats."""
    s, d = _scale(src), _scale(dst)
    return float(value) if src == dst else float(value) * d / s


def check_prob(value, name="probability"):
    """Validate a probability and return it as a float."""
    v = float(value)
    if math.isnan(v) or not 0.0 <= v <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def bisect(below, lo, hi):
    """Bisection for the point where the predicate ``below`` turns false.

    ``below(x)`` must be true left of the root and false right of it inside
    [lo, hi]. Runs 200 halvings or stops once the midpoint no longer lies
    strictly inside the interval (float resolution); returns the midpoint
    of the last interval.

    Array brackets (``lo`` or ``hi`` not 0-d) solve one root per element:
    every interval is halved at once and an element stops as a scalar
    bracket would, so each element gets the float the scalar bracket would
    give. ``below(mid, idx)`` is asked about the live elements only: it
    gets their midpoints and their indices into the flattened bracket, in
    increasing order, and returns a bool per midpoint. So a predicate that
    keeps state per element sees each element exactly at the midpoints its
    scalar bracket would. The loop ends when all have stopped. Scalar
    brackets keep a plain float loop.
    """
    if np.ndim(lo) or np.ndim(hi):
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        shape = lo.shape
        lo, hi = lo.flatten(), hi.flatten()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            live = np.flatnonzero((lo < mid) & (mid < hi))
            if not len(live):
                break
            mid = mid[live]
            up = np.asarray(below(mid, live), dtype=bool)
            lo[live[up]] = mid[up]
            hi[live[~up]] = mid[~up]
        return (0.5 * (lo + hi)).reshape(shape)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_rate(r1, positive=False):
    """Validate a finite public rate (>= 0, or > 0 with ``positive``) as a
    float."""
    r = float(r1)
    if math.isnan(r) or r < 0.0 or (positive and r == 0.0):
        kind = "positive" if positive else ">= 0"
        raise ParameterError(f"rate must be {kind}, got {r!r}")
    if r == math.inf:
        raise ParameterError(f"rate must be finite, got {r!r}")
    return r


def xlogx(a):
    """Elementwise ``a ln a`` with masses at or below ZERO_MASS giving 0."""
    a = np.asarray(a, dtype=float)
    pos = a > ZERO_MASS
    return np.where(pos, a * np.log(np.where(pos, a, 1.0)), 0.0)


def entropy_nats(masses, axis=None):
    """Entropy ``-sum a ln a`` of a mass array in nats, summed over ``axis``
    (all axes by default). No validation: callers pass pmfs."""
    return -xlogx(masses).sum(axis=axis)


def star(p, q):
    """Binary convolution ``p(1-q) + (1-p)q``.

    Commutative and associative; 0 is the identity and 1/2 is absorbing.
    """
    p = check_prob(p, "p")
    q = check_prob(q, "q")
    return p * (1.0 - q) + (1.0 - p) * q


def binary_entropy(p, units=BITS):
    """Entropy of a Bernoulli(p) variable, in ``units``."""
    return binary_entropy_unchecked(check_prob(p, "p"), _scale(units))


def binary_entropy_unchecked(p, scale=1.0 / LN2):
    """``binary_entropy`` of a float p already known to lie in [0, 1], in
    bits, or in the units of ``scale`` per nat; for scalar loops that
    cannot afford the check."""
    if p <= ZERO_MASS or 1.0 - p <= ZERO_MASS:
        return 0.0
    return scale * (-p * math.log(p) - (1.0 - p) * math.log(1.0 - p))


def inverse_binary_entropy(h):
    """The unique p in [0, 1/2] with ``binary_entropy(p) == h`` (bits).

    Bisection runs to float resolution in p, which leaves an entropy
    residual well inside the public tolerance of 1e-12.
    """
    h = float(h)
    if math.isnan(h) or not 0.0 <= h <= 1.0:
        raise ParameterError(f"binary entropy must lie in [0, 1] bits, got {h!r}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    return bisect(lambda p: binary_entropy(p) < h, 0.0, 0.5)


def check_stochastic(masses, name, axis=None, shape=None):
    """``masses`` as a read-only float array of pmfs along ``axis``.

    Every slice along ``axis`` (the whole array when None) must sum to 1
    within SUM_TOL. Masses must be finite; negative float dust above
    -SUM_TOL is clipped to zero and anything more negative is rejected.
    ``shape``, when given, fixes the number of axes: its int entries fix
    those lengths, and any other entry (a label such as ``"|U|"``) leaves
    its length free. Raises ParameterError naming ``name``.
    """
    arr = np.asarray(masses, dtype=float)
    if shape is not None and (arr.ndim != len(shape) or any(
            isinstance(want, int) and want != got
            for want, got in zip(shape, arr.shape))):
        dims = ", ".join(map(str, shape))
        raise ParameterError(
            f"{name} must be shaped ({dims}), got {arr.shape}")
    if arr.size == 0:
        raise ParameterError(f"{name} holds no mass")
    low, high = float(arr.min()), float(arr.max())  # NaN propagates
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ParameterError(f"{name} masses must be finite")
    if low < -SUM_TOL:
        raise ParameterError(f"{name} has a negative mass {low!r}")
    arr = np.where(arr > 0.0, arr, 0.0)
    sums = np.ravel(arr.sum(axis=axis))
    off = np.abs(sums - 1.0)
    if off.max() > SUM_TOL:
        worst = float(sums[off.argmax()])
        raise ParameterError(
            f"{name} sums to {worst!r}; expected 1 within {SUM_TOL}")
    arr.flags.writeable = False
    return arr


def check_int(value, name, lo=0, hi=None):
    """``value`` as a Python int, once it is a Python or numpy int (never
    a bool) in [lo, hi], or at least lo when ``hi`` is None. Raises
    ParameterError naming ``name``."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return int(value)
    if hi is not None:
        want = f"an int in [{lo}, {hi}]"
    else:
        want = "a non-negative int" if lo == 0 else f"an int of at least {lo}"
    raise ParameterError(f"{name} must be {want}, got {value!r}")


class DiscreteDist:
    """A validated pmf over one finite alphabet."""

    __slots__ = ("masses",)

    def __init__(self, masses):
        self.masses = check_stochastic(
            np.asarray(masses, dtype=float).reshape(-1), "distribution")

    def __len__(self):
        return self.masses.size

    def __repr__(self):
        return f"DiscreteDist({self.masses.tolist()!r})"


class DiscreteJoint:
    """A dense joint pmf over (X, Y, Z), indexed ``masses[x, y, z]``.

    Two-axis arrays are accepted and promoted to a singleton Z axis, so pair
    sources and triple sources share one type.
    """

    __slots__ = ("masses",)

    def __init__(self, masses):
        arr = np.asarray(masses, dtype=float)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        self.masses = check_stochastic(arr, "joint",
                                       shape=("|X|", "|Y|", "|Z|"))

    @property
    def dims(self):
        return self.masses.shape

    def marginal(self, axes):
        """Marginal mass array over ``axes``, axes kept in (x, y, z) order."""
        keep = _normalize_axes(axes)
        drop = tuple(i for i in range(3) if i not in keep)
        return self.masses.sum(axis=drop) if drop else self.masses

    def dist(self, axis):
        """One-axis marginal as a DiscreteDist."""
        return DiscreteDist(self.marginal(axis))

    def is_degraded(self):
        """True when p(z | x, y) = p(z | y) wherever p(x, y) > 0."""
        m = self.masses
        pxy = m.sum(axis=2)
        py = pxy.sum(axis=0)
        pzy = m.sum(axis=0)
        cond_y = np.divide(pzy, py[:, None],
                           out=np.zeros_like(pzy), where=py[:, None] > ZERO_MASS)
        cond_xy = np.divide(m, pxy[:, :, None],
                            out=np.zeros(m.shape), where=pxy[:, :, None] > ZERO_MASS)
        mask = pxy > ZERO_MASS
        if not mask.any():
            return True
        gap = np.abs(cond_xy - cond_y[None, :, :]).max(axis=2)
        return bool(gap[mask].max() <= DEGRADED_TOL)

    def __repr__(self):
        return f"DiscreteJoint(dims={self.dims})"


def _normalize_axes(axes):
    if isinstance(axes, str):
        bad = [c for c in axes if c not in _AXIS_BY_NAME]
        if bad:
            raise ParameterError(f"unknown axis letters {bad!r}; use x, y, z")
        idx = tuple(_AXIS_BY_NAME[c] for c in axes)
    elif isinstance(axes, (int, np.integer)):
        idx = (int(axes),)
    else:
        idx = tuple(int(a) for a in axes)
    if not idx:
        raise ParameterError("empty axis set")
    if any(a not in (0, 1, 2) for a in idx):
        raise ParameterError(f"axis indices must be 0, 1 or 2, got {idx!r}")
    if len(set(idx)) != len(idx):
        raise ParameterError(f"repeated axis in {axes!r}")
    return tuple(sorted(idx))


def _disjoint(*sets):
    seen = set()
    for s in sets:
        if seen & set(s):
            raise ParameterError("axis sets must be pairwise disjoint")
        seen |= set(s)


def entropy(d, units=BITS):
    """Shannon entropy of a distribution (DiscreteDist or mass array)."""
    if not isinstance(d, DiscreteDist):
        d = DiscreteDist(d)
    return float(_scale(units) * entropy_nats(d.masses))


def min_entropy(d):
    """Min-entropy -log2 max_i p_i, in bits."""
    if not isinstance(d, DiscreteDist):
        d = DiscreteDist(d)
    return -math.log2(float(d.masses.max()))


def mutual_information(j, first, second, units=BITS):
    """I(first; second) on a DiscreteJoint, via H(A) + H(B) - H(AB)."""
    a = _normalize_axes(first)
    b = _normalize_axes(second)
    _disjoint(a, b)
    val = (entropy_nats(j.marginal(a)) + entropy_nats(j.marginal(b))
           - entropy_nats(j.marginal(a + b)))
    return max(float(_scale(units) * val), 0.0)


def conditional_mutual_information(j, first, second, given, units=BITS):
    """I(first; second | given) via H(AC) + H(BC) - H(ABC) - H(C)."""
    a = _normalize_axes(first)
    b = _normalize_axes(second)
    c = _normalize_axes(given)
    _disjoint(a, b, c)
    val = (entropy_nats(j.marginal(tuple(sorted(a + c))))
           + entropy_nats(j.marginal(tuple(sorted(b + c))))
           - entropy_nats(j.marginal(tuple(sorted(a + b + c))))
           - entropy_nats(j.marginal(c)))
    return max(float(_scale(units) * val), 0.0)


def conditional_entropy(j, target, given, units=BITS):
    """H(target | given) via H(TG) - H(G)."""
    t = _normalize_axes(target)
    g = _normalize_axes(given)
    _disjoint(t, g)
    val = (entropy_nats(j.marginal(tuple(sorted(t + g))))
           - entropy_nats(j.marginal(g)))
    return max(float(_scale(units) * val), 0.0)


def gaussian_mi(rho):
    """Mutual information of a bivariate normal with correlation rho, nats."""
    r = float(rho)
    if math.isnan(r) or not abs(r) < 1.0:
        raise ParameterError(f"correlation must satisfy |rho| < 1, got {rho!r}")
    return -0.5 * math.log1p(-r * r)


def joint_from_cascade(p_x, p_y_given_x, p_z_given_y=None):
    """Joint p(x) p(y|x) p(z|y) of a Markov cascade X -> Y -> Z.

    Channel arrays are row-stochastic with rows indexed by the input symbol.
    With ``p_z_given_y`` omitted the result keeps a singleton Z axis. The
    construction is degraded by definition, which makes it the standard way
    to build sources for the closed-form capacity paths.
    """
    px = DiscreteDist(p_x).masses
    ch1 = check_stochastic(p_y_given_x, "channel X->Y", axis=1,
                           shape=(px.size, "|Y|"))
    pxy = px[:, None] * ch1
    if p_z_given_y is None:
        return DiscreteJoint(pxy)
    ch2 = check_stochastic(p_z_given_y, "channel Y->Z", axis=1,
                           shape=(ch1.shape[1], "|Z|"))
    return DiscreteJoint(pxy[:, :, None] * ch2[None, :, :])
