"""Quantization tests.

Numeric expectations were frozen from independent integrations (Simpson on
dense grids via scipy in a scratch environment, plus hand evaluation of the
closed-form constants) before this module's Gauss-Legendre path produced
them. The constants fixture is rho_xy = 0.75, sigma_x = 1, where
sigma_n = 0.8819171036881968 and h(X|Y) = 1.0055992466124386 nats.
"""

import math

import numpy as np
import pytest

from seqkey import quantize
from seqkey.errors import ConvergenceError, ParameterError
from seqkey.gaussian import GaussianSource, c_rec_gauss, h_x_given_y
from seqkey.measures import gaussian_mi
from seqkey.quantize import (
    GAP_FLOOR,
    BoundCheckReport,
    GapBoundConstants,
    Partition,
    UniformQuantizer,
    _mi_and_grad,
    _unit_y_rule,
    bound_check,
    gap_bound,
    gap_constants,
    optimize_partition,
    partition_mi,
    partition_rate,
    quantized_mi,
    quantizer_marginal,
)

SRC = GaussianSource(rho_xy=0.75)
GMI = gaussian_mi(0.75)


class TestUniformQuantizer:
    def test_validation(self):
        with pytest.raises(ParameterError):
            UniformQuantizer(0.0)
        with pytest.raises(ParameterError):
            UniformQuantizer(-0.5)

    def test_centers_grid(self):
        q = UniformQuantizer(1.0)
        t = q.centers(4.0)
        assert np.allclose(np.diff(t), 1.0)
        # half-offset grid: centers at +-delta/2, +-3 delta/2, ...
        assert np.allclose(t + t[::-1], 0.0)
        assert t.max() >= 4.0
        assert np.allclose(np.abs(t) % 1.0, 0.5)


class TestGapConstants:
    def test_ingredient_values(self):
        c = gap_constants(SRC)
        assert c.alpha1 == pytest.approx(0.3989422804014327, abs=1e-15)
        assert c.beta1 == pytest.approx(1.4189385332046727, abs=1e-15)
        assert c.alpha2 == pytest.approx(0.31163314219286375, abs=1e-14)
        assert c.beta2 == pytest.approx(0.8265242902802485, abs=1e-14)

    def test_assembly(self):
        c = gap_constants(SRC)
        assert c.alpha == c.alpha1 + c.alpha2
        assert c.beta == c.beta1 + c.beta2
        assert c.kappa == pytest.approx(0.44645943597551163, abs=1e-14)

    def test_alpha1_is_peak_density(self):
        c = gap_constants(SRC)
        assert c.alpha1 == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))

    @pytest.mark.parametrize("rho", [0.3, 0.75, 0.95])
    def test_all_positive(self, rho):
        c = gap_constants(GaussianSource(rho_xy=rho))
        for name in ("alpha", "beta", "kappa", "alpha1", "beta1",
                     "alpha2", "beta2"):
            assert getattr(c, name) > 0.0

    def test_independent_source_rejected(self):
        with pytest.raises(ParameterError):
            gap_constants(GaussianSource(rho_xy=0.0))


class TestGapBound:
    def test_frozen_value_at_twice_h(self):
        h = h_x_given_y(SRC)
        assert gap_bound(SRC, 2.0 * h) == pytest.approx(
            0.5764950529125629, abs=1e-14)

    def test_vanishes_at_large_rate(self):
        assert gap_bound(SRC, 200.0) < 1e-80

    def test_second_term_at_rate_h(self):
        # exponent of the second term crosses zero exactly at R1 = h(X|Y)
        h = h_x_given_y(SRC)
        c = gap_constants(SRC)
        first = (c.alpha * h + c.beta) * math.exp(-h)
        assert gap_bound(SRC, h) - first == pytest.approx(
            c.kappa * math.sqrt(h), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ParameterError):
            gap_bound(SRC, 0.0)
        with pytest.raises(ParameterError):
            gap_bound(SRC, -1.0)


class TestQuantizerMarginal:
    def test_factor_near_one_and_pmf_proper(self):
        dist, factor = quantizer_marginal(SRC, UniformQuantizer(1.1))
        assert factor == pytest.approx(1.0, abs=1e-6)
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coarse_width_rejected(self):
        with pytest.raises(ParameterError, match="too coarse"):
            quantizer_marginal(SRC, UniformQuantizer(2.0))


class TestQuantizedMi:
    def test_independent_pair_gives_zero(self):
        src = GaussianSource(rho_xy=0.0, sigma_x=2.0)
        for d in (0.1, 0.7, 1.3):
            assert quantized_mi(src, UniformQuantizer(d)) == pytest.approx(
                0.0, abs=1e-9)

    def test_fine_width_reaches_mi(self):
        # midpoint sums converge spectrally; at delta = 0.2 the gap is
        # already below float resolution
        mi = quantized_mi(SRC, UniformQuantizer(0.2))
        assert mi == pytest.approx(GMI, abs=1e-12)

    def test_frozen_value_coarsest_in_spec(self):
        mi = quantized_mi(SRC, UniformQuantizer(1.1))
        assert mi == pytest.approx(0.41333240562410345, abs=1e-9)
        assert GMI - mi > 1e-6  # the information loss is measurable here

    def test_never_exceeds_source_mi(self):
        for d in (0.3, 0.5, 0.7, 0.9, 1.1, 1.15):
            mi = quantized_mi(SRC, UniformQuantizer(d))
            assert mi <= GMI + 1e-12

    def test_refinement_chain_monotone(self):
        mis = [quantized_mi(SRC, UniformQuantizer(d)) for d in (0.8, 0.4, 0.2)]
        assert mis[1] >= mis[0] - 1e-9
        assert mis[2] >= mis[1] - 1e-9

    def test_within_bound_at_fine_width(self):
        # delta = 0.05 corresponds to R1 = h(X|Y) - ln(delta)
        mi = quantized_mi(SRC, UniformQuantizer(0.05))
        r1 = h_x_given_y(SRC) - math.log(0.05)
        assert GMI - mi <= gap_bound(SRC, r1)

    def test_coarse_width_rejected(self):
        with pytest.raises(ParameterError, match="too coarse"):
            quantized_mi(SRC, UniformQuantizer(1.5))


@pytest.fixture(scope="module")
def report():
    h = h_x_given_y(SRC)
    grid = h + np.logspace(math.log10(0.03), math.log10(3.0), 10)
    return bound_check(SRC, grid)


class TestBoundCheck:
    def test_every_point_within_bound(self, report):
        assert isinstance(report, BoundCheckReport)
        assert report.all_within
        assert np.all(report.gap_clipped <= report.bound)

    def test_delta_correspondence(self, report):
        assert np.allclose(report.delta,
                           np.exp(report.h_cond - report.r1), atol=0)

    def test_gap_decreasing_up_to_float_dust(self, report):
        # below ~1e-13 the measured gap is integration noise, so the
        # decrease is only required down to that resolution
        assert np.all(np.diff(report.gap_clipped) <= 1e-13)

    def test_log_slope_steeper_than_minus_one(self, report):
        slope = np.polyfit(report.r1, np.log(report.gap_clipped), 1)[0]
        assert slope <= -1.0

    def test_clip_floor(self, report):
        assert np.all(report.gap_clipped >= GAP_FLOOR)

    def test_rates_below_conditional_entropy_rejected(self):
        h = h_x_given_y(SRC)
        with pytest.raises(ParameterError):
            bound_check(SRC, np.array([h, h + 1.0]))
        with pytest.raises(ParameterError):
            bound_check(SRC, np.array([0.5 * h]))

    def test_grid_shape_validated(self):
        with pytest.raises(ParameterError):
            bound_check(SRC, np.array([]))
        with pytest.raises(ParameterError):
            bound_check(SRC, np.ones((2, 2)))


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Partition([])
        with pytest.raises(ParameterError):
            Partition([1.0, 0.5])       # not increasing
        with pytest.raises(ParameterError):
            Partition([0.0, 0.0])       # not strictly
        with pytest.raises(ParameterError):
            Partition(list(range(15)))  # 16 cells
        with pytest.raises(ParameterError):
            Partition([0.0, math.inf])

    def test_cell_count(self):
        assert Partition([0.0]).n_cells == 2
        assert Partition(list(range(14))).n_cells == 15

    def test_boundaries_read_only(self):
        p = Partition([-1.0, 1.0])
        with pytest.raises(ValueError):
            p.boundaries[0] = 0.0


class TestPartitionMi:
    def test_sign_quantizer_frozen_value(self):
        assert partition_mi(SRC, Partition([0.0])) == pytest.approx(
            0.2243044256398350, abs=1e-9)

    def test_sign_quantizer_rate_frozen_value(self):
        assert partition_rate(SRC, Partition([0.0])) == pytest.approx(
            0.46884275492011024, abs=1e-9)

    def test_rate_plus_mi_is_cell_entropy(self):
        # H(U) = I(U;Y) + H(U|Y) for any partition
        part = Partition([-0.7, 0.2, 1.1])
        masses = np.diff([0.0] + [0.5 * (1 + math.erf(b / math.sqrt(2)))
                                  for b in part.boundaries] + [1.0])
        h_u = -sum(m * math.log(m) for m in masses)
        total = partition_mi(SRC, part) + partition_rate(SRC, part)
        assert total == pytest.approx(h_u, abs=1e-8)

    def test_independent_pair(self):
        assert partition_mi(GaussianSource(rho_xy=0.0),
                            Partition([0.0])) == 0.0


class TestOptimizePartition:
    def test_two_cells_symmetric_optimum(self):
        part, mi = optimize_partition(SRC, 2)
        assert abs(part.boundaries[0]) < 1e-7
        assert mi == pytest.approx(0.2243044256398350, abs=1e-9)

    def test_mi_increases_with_cells(self):
        vals = [optimize_partition(SRC, n)[1] for n in (2, 3, 4, 5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v <= GMI for v in vals)

    def test_three_cells_symmetric(self):
        part, _ = optimize_partition(SRC, 3)
        assert part.boundaries[0] == pytest.approx(-part.boundaries[1],
                                                   abs=1e-4)

    def test_cell_count_domain(self):
        for bad in (1, 16, 0, -3):
            with pytest.raises(ParameterError):
                optimize_partition(SRC, bad)
        with pytest.raises(ParameterError):
            optimize_partition(SRC, 2.0)

    def test_independent_pair_rejected(self):
        with pytest.raises(ParameterError):
            optimize_partition(GaussianSource(rho_xy=0.0), 2)

    def test_beats_quantile_init(self):
        # the ascent must strictly improve on its own starting point
        import statistics
        init = Partition([statistics.NormalDist().inv_cdf(i / 4)
                          for i in range(1, 4)])
        _, mi = optimize_partition(SRC, 4)
        assert mi > partition_mi(SRC, init)


def _fixed_rule_pass(src, bounds):
    # value and gradient in the boundaries themselves, not over sigma_x
    mi, grad = _mi_and_grad(np.asarray(bounds) / src.sigma_x,
                            *_unit_y_rule(src))
    return mi, grad / src.sigma_x


class TestPartitionSolver:
    @pytest.mark.parametrize("rho, sigma_x", [(0.5, 1.0), (0.9, 1.0),
                                              (0.9, 2.0)])
    def test_gradient_matches_central_differences(self, rho, sigma_x):
        src = GaussianSource(rho_xy=rho, sigma_x=sigma_x)
        rng = np.random.default_rng(11)
        h = 1e-5 * sigma_x
        for cells in range(2, 7):
            b = np.sort(rng.uniform(-2.0, 2.0, cells - 1)) * sigma_x
            _, grad = _fixed_rule_pass(src, b)
            for i, e in enumerate(np.eye(cells - 1)):
                up = partition_mi(src, Partition(b + h * e), tol=1e-11)
                down = partition_mi(src, Partition(b - h * e), tol=1e-11)
                assert grad[i] == pytest.approx((up - down) / (2.0 * h),
                                                abs=1e-8)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.75, 0.9, 0.99, 0.999])
    def test_fixed_rule_matches_adaptive(self, rho):
        src = GaussianSource(rho_xy=rho)
        rng = np.random.default_rng(3)
        for cells in (2, 5, 10, 15):
            b = np.sort(rng.uniform(-2.5, 2.5, cells - 1))
            mi, _ = _fixed_rule_pass(src, b)
            assert mi == pytest.approx(
                partition_mi(src, Partition(b), tol=1e-12), abs=1e-12)

    def test_not_below_finite_difference_optimum(self):
        # values the finite-difference ascent returned at rho = 0.75; it
        # stopped short of the optimum at 4 and 5 cells
        previous = {3: 0.3062136202933248, 4: 0.3445348717157568,
                    5: 0.36540237027379585}
        for cells, value in previous.items():
            _, mi = optimize_partition(SRC, cells)
            assert mi >= value - 1e-12

    @pytest.mark.parametrize("rho", [0.75, 0.9])
    def test_converges_for_every_cell_count(self, rho):
        src = GaussianSource(rho_xy=rho)
        vals = []
        for cells in range(2, 16):
            part, mi = optimize_partition(src, cells)
            _, grad = _fixed_rule_pass(src, part.boundaries)
            assert np.abs(grad).max() <= 1e-8
            assert mi == partition_mi(src, part, tol=1e-11)
            vals.append(mi)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < gaussian_mi(rho)

    def test_scale_invariant(self):
        # the MI depends on the boundaries over sigma_x alone, and so does
        # the solve
        unit, mi = optimize_partition(SRC, 6)
        for sigma_x in (0.01, 100.0):
            src = GaussianSource(rho_xy=0.75, sigma_x=sigma_x)
            part, scaled_mi = optimize_partition(src, 6)
            assert np.allclose(part.boundaries / sigma_x, unit.boundaries,
                               rtol=0.0, atol=1e-6)
            assert scaled_mi == pytest.approx(mi, abs=1e-12)

    def test_iteration_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(quantize, "PARTITION_ITERS", 1)
        with pytest.raises(ConvergenceError, match="gradient inf-norm"):
            optimize_partition(SRC, 5)
