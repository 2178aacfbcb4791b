"""Tests for seqkey.measures: exact values, algebraic identities, validation."""

import math

import numpy as np
import pytest

from seqkey.errors import ParameterError
from seqkey.measures import (
    BITS,
    LN2,
    NATS,
    ZERO_MASS,
    DiscreteDist,
    DiscreteJoint,
    binary_entropy,
    bisect,
    check_rate,
    conditional_entropy,
    conditional_mutual_information,
    convert_units,
    entropy,
    entropy_nats,
    gaussian_mi,
    inverse_binary_entropy,
    joint_from_cascade,
    min_entropy,
    mutual_information,
    star,
)


def random_joint(rng, dims):
    m = rng.random(dims)
    return DiscreteJoint(m / m.sum())


# ---------------------------------------------------------------- star

def test_star_absorbing_and_identity():
    for q in np.linspace(0.0, 1.0, 21):
        assert star(0.5, q) == pytest.approx(0.5, abs=1e-15)
        assert star(0.0, q) == pytest.approx(q, abs=1e-15)


def test_star_direct_value():
    # 0.23 * 0.99 + 0.77 * 0.01 = 1177/5000, frozen via rational arithmetic
    assert star(0.23, 0.01) == pytest.approx(0.2354, abs=1e-15)


def test_star_commutative_associative_on_grid():
    grid = np.arange(0.0, 1.0 + 1e-9, 0.05)
    for p in grid:
        for q in grid:
            assert abs(star(p, q) - star(q, p)) <= 1e-12
            for r in grid:
                assert abs(star(star(p, q), r) - star(p, star(q, r))) <= 1e-12


def test_star_rejects_out_of_range():
    with pytest.raises(ParameterError):
        star(-0.1, 0.2)
    with pytest.raises(ParameterError):
        star(0.2, 1.1)


# ------------------------------------------------------- binary entropy

def test_binary_entropy_trivial_points():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_direct_value():
    # frozen from direct evaluation of -p log2 p - (1-p) log2 (1-p)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)


def test_binary_entropy_symmetry_and_units():
    for p in np.linspace(0.01, 0.49, 13):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-14)
        assert binary_entropy(p, NATS) == pytest.approx(
            binary_entropy(p, BITS) * math.log(2.0), abs=1e-14)
        assert binary_entropy(p) < 1.0


def test_inverse_binary_entropy_endpoints():
    assert inverse_binary_entropy(0.0) == 0.0
    assert inverse_binary_entropy(1.0) == 0.5


def test_inverse_binary_entropy_round_trip():
    assert inverse_binary_entropy(binary_entropy(0.3)) == pytest.approx(0.3, abs=1e-10)
    # the contract is an entropy residual, so check it where the slope is steep
    for h in [1e-6, 1e-3, 0.05, 0.25, 0.499916, 0.75, 0.97, 0.9999]:
        p = inverse_binary_entropy(h)
        assert 0.0 <= p <= 0.5
        assert abs(binary_entropy(p) - h) <= 1e-12


def test_inverse_binary_entropy_domain():
    with pytest.raises(ParameterError):
        inverse_binary_entropy(-0.01)
    with pytest.raises(ParameterError):
        inverse_binary_entropy(1.01)


# --------------------------------------------------------------- entropy

def test_entropy_trivial_values():
    assert entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-14)
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert entropy([0.25, 0.75]) == pytest.approx(binary_entropy(0.25), abs=1e-14)


def test_entropy_bounds_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = rng.random(n)
        d = DiscreteDist(m / m.sum())
        h = entropy(d)
        assert -1e-12 <= h <= math.log2(n) + 1e-12
        assert min_entropy(d) <= h + 1e-12


def test_min_entropy_values():
    assert min_entropy([0.125] * 8) == pytest.approx(3.0, abs=1e-14)
    assert min_entropy([1.0]) == 0.0
    assert min_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------------------ dist types

def test_dist_validation():
    with pytest.raises(ParameterError):
        DiscreteDist([0.5, 0.6])
    with pytest.raises(ParameterError):
        DiscreteDist([0.7, -0.3, 0.6])
    with pytest.raises(ParameterError):
        DiscreteDist([])
    # float dust above -1e-12 is clipped, and the result is immutable
    d = DiscreteDist([1.0 + 1e-13, -1e-13])
    assert d.masses[1] == 0.0
    with pytest.raises(ValueError):
        d.masses[0] = 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_masses_rejected(bad):
    # a NaN used to be clipped to 0 and accepted
    with pytest.raises(ParameterError):
        DiscreteDist([bad, 1.0])
    with pytest.raises(ParameterError):
        DiscreteJoint([[bad, 0.5], [0.25, 0.25]])


def test_joint_promotion_and_dims():
    j = DiscreteJoint(np.full((2, 2), 0.25))
    assert j.dims == (2, 2, 1)
    assert j.marginal("z").shape == (1,)
    assert j.dist("x").masses == pytest.approx([0.5, 0.5])


def test_joint_degradedness():
    # cascade construction is degraded by definition
    bsc = lambda t: np.array([[1 - t, t], [t, 1 - t]])
    j = joint_from_cascade([0.5, 0.5], bsc(0.1), bsc(0.2))
    assert j.is_degraded()
    # Z = X directly (conditioned on Y, Z still depends on X): not degraded
    m = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            m[x, y, x] = 0.25 * (0.9 if x == y else 0.1) * 2
    j2 = DiscreteJoint(m / m.sum())
    assert not j2.is_degraded()


def test_joint_axis_errors():
    j = random_joint(np.random.default_rng(0), (2, 2, 2))
    with pytest.raises(ParameterError):
        mutual_information(j, "xy", "y")
    with pytest.raises(ParameterError):
        conditional_mutual_information(j, "x", "y", "x")
    with pytest.raises(ParameterError):
        mutual_information(j, "x", "w")
    with pytest.raises(ParameterError):
        mutual_information(j, "x", ())


# ---------------------------------------------------- mutual information

def test_mi_product_joint_is_zero():
    px = np.array([0.3, 0.7])
    py = np.array([0.2, 0.5, 0.3])
    j = DiscreteJoint(px[:, None] * py[None, :])
    assert mutual_information(j, "x", "y") == pytest.approx(0.0, abs=1e-12)


def test_mi_identity_channel():
    n = 4
    m = np.zeros((n, n))
    np.fill_diagonal(m, 1.0 / n)
    j = DiscreteJoint(m)
    assert mutual_information(j, "x", "y") == pytest.approx(math.log2(n), abs=1e-12)


def test_mi_bsc_uniform_input():
    # analytic BSC capacity at uniform input: 1 - H_b(0.1)
    j = joint_from_cascade([0.5, 0.5], np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert mutual_information(j, "x", "y") == pytest.approx(
        0.531004406410719, abs=1e-12)


def test_mi_matches_kl_definition():
    rng = np.random.default_rng(42)
    for _ in range(25):
        dims = tuple(int(rng.integers(2, 5)) for _ in range(3))
        j = random_joint(rng, dims)
        pa = j.marginal("x")
        pb = j.marginal("yz")
        pab = j.marginal("xyz")
        kl = 0.0
        for x in range(dims[0]):
            for y in range(dims[1]):
                for z in range(dims[2]):
                    v = pab[x, y, z]
                    if v > 0:
                        kl += v * math.log2(v / (pa[x] * pb[y, z]))
        assert mutual_information(j, "x", "yz") == pytest.approx(kl, abs=1e-10)


def test_chain_rule_entropy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        j = random_joint(rng, (3, 4, 2))
        h_a = entropy(DiscreteDist(j.marginal("x")))
        h_b_given_a = conditional_entropy(j, "yz", "x")
        h_ab = entropy(DiscreteDist(j.marginal("xyz").reshape(-1)))
        assert h_a + h_b_given_a == pytest.approx(h_ab, abs=1e-10)


def test_chain_rule_mutual_information():
    rng = np.random.default_rng(11)
    for _ in range(25):
        j = random_joint(rng, (3, 3, 3))
        lhs = mutual_information(j, "x", "yz")
        rhs = (mutual_information(j, "x", "z")
               + conditional_mutual_information(j, "x", "y", "z"))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------- conditional information

def test_cmi_markov_chain_is_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        px = rng.random(2)
        px /= px.sum()
        ch1 = rng.random((2, 3))
        ch1 /= ch1.sum(axis=1, keepdims=True)
        ch2 = rng.random((3, 2))
        ch2 /= ch2.sum(axis=1, keepdims=True)
        j = joint_from_cascade(px, ch1, ch2)
        assert conditional_mutual_information(j, "x", "z", "y") == pytest.approx(
            0.0, abs=1e-10)


def test_cmi_constant_conditioner():
    rng = np.random.default_rng(9)
    m = rng.random((3, 4, 1))
    j = DiscreteJoint(m / m.sum())
    assert conditional_mutual_information(j, "x", "y", "z") == pytest.approx(
        mutual_information(j, "x", "y"), abs=1e-12)


def test_cmi_brute_force_oracle():
    # joint drawn once with rng(20240811); value frozen from the
    # direct-definition sum over all eight cells
    m = np.array([
        [[0.10589761711533319, 0.06364522920198314],
         [0.24637251950066516, 0.23104841653940286]],
        [[0.07409600576133278, 0.02709969986614361],
         [0.23919167101655514, 0.012648840998584193]],
    ])
    j = DiscreteJoint(m / m.sum())
    assert conditional_mutual_information(j, "x", "y", "z") == pytest.approx(
        0.026862736042859, abs=1e-10)


# --------------------------------------------------------- gaussian mi

def test_gaussian_mi_values():
    assert gaussian_mi(0.0) == 0.0
    assert gaussian_mi(0.6) == pytest.approx(0.22314355131420974, abs=1e-15)
    assert gaussian_mi(-0.6) == gaussian_mi(0.6)


def test_gaussian_mi_monotone_and_domain():
    rhos = np.linspace(0.0, 0.99, 34)
    vals = [gaussian_mi(r) for r in rhos]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        gaussian_mi(1.0)
    with pytest.raises(ParameterError):
        gaussian_mi(-1.5)


# ------------------------------------------------------------ MGL check

def test_mrs_gerber_inequality():
    # BSC(p) from X to Y, arbitrary test channel U: per-u the bound holds
    # with equality (binary X), and the u-average preserves the inequality.
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = float(rng.uniform(0.02, 0.48))
        pi = float(rng.uniform(0.05, 0.95))
        nu = int(rng.integers(2, 5))
        ch_ux = rng.random((2, nu))
        ch_ux /= ch_ux.sum(axis=1, keepdims=True)
        # joint over (U, X, Y) laid out on axes (x=U, y=X, z=Y)
        px = np.array([1 - pi, pi])
        pux = px[None, :] * ch_ux.T
        bsc = np.array([[1 - p, p], [p, 1 - p]])
        m = pux[:, :, None] * bsc[None, :, :]
        j = DiscreteJoint(m)
        pu = j.marginal("x")
        avg_hx = avg_hy = 0.0
        for u in range(nu):
            if pu[u] <= 0:
                continue
            x_u = m[u, 1, :].sum() / pu[u]
            h_x = binary_entropy(x_u)
            h_y = binary_entropy(star(x_u, p))
            bound = binary_entropy(star(p, inverse_binary_entropy(h_x)))
            assert h_y >= bound - 1e-12
            assert h_y == pytest.approx(bound, abs=1e-9)
            avg_hx += pu[u] * h_x
            avg_hy += pu[u] * h_y
        assert avg_hy >= binary_entropy(
            star(p, inverse_binary_entropy(avg_hx))) - 1e-12


# ----------------------------------------------------------------- units

def test_unit_conversion():
    assert convert_units(1.0, BITS, NATS) == pytest.approx(math.log(2.0), abs=1e-15)
    assert convert_units(math.log(2.0), NATS, BITS) == pytest.approx(1.0, abs=1e-15)
    assert convert_units(0.37, BITS, BITS) == 0.37
    with pytest.raises(ParameterError):
        entropy([0.5, 0.5], "trits")


# ------------------------------------------------------ shared primitives

def test_bisect_known_roots():
    assert abs(bisect(lambda x: x * x < 2.0, 1.0, 2.0) - math.sqrt(2.0)) \
        <= math.ulp(math.sqrt(2.0))
    assert abs(bisect(lambda x: math.cos(x) > 0.0, 0.0, 3.0) - math.pi / 2) \
        <= 2 * math.ulp(math.pi / 2)
    assert bisect(lambda x: x < 0.3, 0.3, 0.3) == 0.3


def test_bisect_stops_at_float_resolution_or_200_halvings():
    calls = []

    def below(x):
        calls.append(x)
        return x * x < 2.0

    bisect(below, 1.0, 2.0)
    # [1, 2] holds 2^52 floats: the midpoint stops moving after ~52 halvings
    assert 50 <= len(calls) <= 54
    calls.clear()
    # a root at 0 exactly: halving [0, 1] never runs out of floats first
    assert bisect(lambda x: calls.append(x) or False, 0.0, 1.0) == 2.0 ** -201
    assert len(calls) == 200


def test_bisect_array_brackets_match_scalar_brackets():
    # an inner root, roots at either end, an empty and a reversed bracket,
    # the 200-halving cap (root at 0) and a bracket of a few ulps
    c = np.array([2.0, 1.0, 4.0, 3.0, 3.0, 0.0, 2.5, 2.0])
    lo = np.array([1.0, 1.0, 1.0, 1.7, 1.9, 0.0, 1.5,
                   math.sqrt(2.0) - 4e-16])
    hi = np.array([2.0, 2.0, 2.0, 1.7, 1.2, 1.0, 1.6,
                   math.sqrt(2.0) + 4e-16])
    got = bisect(lambda x, i: x * x < c[i], lo, hi)
    want = [bisect(lambda x, ci=ci: x * x < ci, a, b)
            for ci, a, b in zip(c.tolist(), lo.tolist(), hi.tolist())]
    assert got.shape == c.shape
    assert got.tolist() == want
    # a scalar end broadcasts against an array end
    got = bisect(lambda x, i: x * x < c[i], 0.0, hi[:3])
    assert got.tolist() == [bisect(lambda x, ci=ci: x * x < ci, 0.0, b)
                            for ci, b in zip(c[:3].tolist(), hi[:3].tolist())]


def test_bisect_asks_only_about_live_elements():
    # a predicate with state per element must see each element at the
    # midpoints its scalar bracket would, and never once it has stopped
    c = np.array([[2.0, 0.0], [3.0, 2.0]])
    lo = np.array([[1.0, 0.0], [1.7, 1.0]])
    hi = np.array([[2.0, 1.0], [1.2, 1.0]])
    seen = [[] for _ in range(c.size)]

    def below(mid, idx):
        assert np.all(np.diff(idx) > 0)
        for x, i in zip(mid.tolist(), idx.tolist()):
            seen[i].append(x)
        return mid * mid < c.flat[idx]

    got = bisect(below, lo, hi)
    assert got.shape == c.shape
    for i, (ci, a, b) in enumerate(zip(c.flat, lo.flat, hi.flat)):
        calls = []
        want = bisect(lambda x: calls.append(x) or x * x < ci, a, b)
        assert got.flat[i] == want
        assert seen[i] == calls
    # the root at 0 runs 200 halvings; the empty and the reversed
    # brackets are never asked about
    assert len(seen[1]) == 200
    assert seen[2] == seen[3] == []


def _entropy_oracles(a, axis):
    """The entropy formulas the package used before the shared kernel."""
    safe = np.where(a > 0.0, a, 1.0)
    log2_form = -np.sum(np.where(a > 0.0, a * np.log2(safe), 0.0),
                        axis=axis) * LN2
    positive_mask = -np.sum(np.where(a > 0.0, a * np.log(safe), 0.0),
                            axis=axis)
    safe = np.where(a > ZERO_MASS, a, 1.0)
    zero_mass_mask = -np.where(a > ZERO_MASS, a * np.log(safe),
                               0.0).sum(axis=axis)
    # the compressed sum, one slice at a time
    keep = tuple(i for i in range(a.ndim)
                 if i not in (axis if isinstance(axis, tuple) else (axis,)))
    moved = np.moveaxis(a, keep, tuple(range(len(keep))))
    flat = moved.reshape(moved.shape[:len(keep)] + (-1,))
    compressed = np.empty(flat.shape[:-1])
    for idx in np.ndindex(*flat.shape[:-1]):
        s = flat[idx][flat[idx] > ZERO_MASS]
        compressed[idx] = -(s * np.log(s)).sum()
    return log2_form, positive_mask, zero_mass_mask, compressed


@pytest.mark.parametrize("axis", [0, 1, 2, (1, 2), (0, 2)])
def test_entropy_nats_matches_old_formulas(axis):
    rng = np.random.default_rng(11)
    for dims in [(2, 3, 4), (5, 5, 5), (3, 17, 2)]:
        a = rng.random(dims)
        a[rng.random(dims) < 0.3] = 0.0
        tiny = rng.random(dims) < 0.1
        a[tiny] = 10.0 ** rng.uniform(-320.0, -300.0, tiny.sum())
        # every slice keeps one ordinary mass, so relative error is defined
        first = [slice(None)] * 3
        for ax in (axis if isinstance(axis, tuple) else (axis,)):
            first[ax] = 0
        a[tuple(first)] = rng.uniform(0.1, 1.0, a[tuple(first)].shape)
        got = entropy_nats(a, axis=axis)
        for oracle in _entropy_oracles(a, axis):
            assert got.shape == oracle.shape
            assert np.all(np.abs(got - oracle) <= 1e-15 * np.abs(oracle))


def test_entropy_nats_zero_mass_convention():
    assert entropy_nats([1.0, 0.0, ZERO_MASS]) == 0.0
    assert entropy_nats([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-16)
    assert entropy_nats(np.array([[0.5, 0.5], [1.0, 0.0]]), axis=1) \
        == pytest.approx([math.log(2.0), 0.0], abs=1e-16)


def test_public_measures_return_python_floats():
    j = random_joint(np.random.default_rng(2), (2, 3, 2))
    for val in (entropy([0.25, 0.75]), mutual_information(j, "x", "y"),
                conditional_mutual_information(j, "x", "y", "z"),
                conditional_entropy(j, "x", "yz")):
        assert type(val) is float


def test_check_rate():
    assert check_rate(0.0) == 0.0
    assert type(check_rate(np.float64(0.25))) is float
    assert check_rate(0.25, positive=True) == 0.25
    for bad, positive in [(math.nan, False), (-0.5, False), (-0.5, True),
                          (math.nan, True), (0.0, True)]:
        kind = "positive" if positive else ">= 0"
        with pytest.raises(ParameterError,
                           match=f"^rate must be {kind}, got "):
            check_rate(bad, positive=positive)
