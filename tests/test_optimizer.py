"""Optimizer checks: closed-form agreement, fixed points, and invariants."""

import numpy as np
import pytest

from seqkey.binary import (
    AsymBinarySource,
    BscCascadeSource,
    c_rec_bsc,
    c_wsk_bsc,
    counterexample_solve,
)
from seqkey.errors import ConvergenceError, ParameterError
from seqkey.measures import (
    DiscreteJoint,
    binary_entropy,
    conditional_entropy,
    joint_from_cascade,
    mutual_information,
    star,
)
from seqkey.optimizer import (
    CapacityResult,
    OptimizerOptions,
    TestChannel,
    TwoWayChannels,
    convexity_probe,
    objective_rec,
    objective_twoway,
    objective_wsk,
    optimize_oneway,
    optimize_sweep,
    rate_constraint,
)
from seqkey import optimizer
from multistart_oracle import multistart_value
from oneway_oracle import oracle_oneway

SRC = BscCascadeSource(0.1, 0.2)
JOINT = SRC.joint()
H_XY = SRC.h_x_given_y()

# trimmed-down options keep the unit tests fast; accuracy margins stay huge
FAST = OptimizerOptions(starts=8)


def random_joint(seed, dims=(2, 2, 2)):
    rng = np.random.default_rng(seed)
    m = rng.random(dims)
    return DiscreteJoint(m / m.sum())


def random_cascade(seed, dims):
    # a degraded joint X -> Y -> Z with random prior and channel rows
    rng = np.random.default_rng(seed)
    p_x = rng.random(dims[0])
    y_x, z_y = rng.random(dims[:2]), rng.random(dims[1:])
    return joint_from_cascade(p_x / p_x.sum(),
                              y_x / y_x.sum(axis=1, keepdims=True),
                              z_y / z_y.sum(axis=1, keepdims=True))


def nondegraded_tap():
    # Z taps X directly instead of Y: non-degraded by construction
    bsc = lambda t: np.array([[1.0 - t, t], [t, 1.0 - t]])
    m = 0.5 * np.einsum("xy,xz->xyz", bsc(0.1), bsc(0.4))
    return DiscreteJoint(m)


class TestTestChannel:
    def test_shapes_and_validation(self):
        tc = TestChannel([[0.7, 0.3], [0.2, 0.8]])
        assert tc.u_size == 2
        with pytest.raises(ParameterError):
            TestChannel([0.5, 0.5])
        with pytest.raises(ParameterError):
            TestChannel([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])  # |U| > |X|
        with pytest.raises(ParameterError):
            TestChannel([[0.7, 0.2], [0.2, 0.8]])
        with pytest.raises(ParameterError):
            TestChannel([[1.2, -0.2], [0.2, 0.8]])

    def test_constructors(self):
        assert np.array_equal(TestChannel.identity(3).rows, np.eye(3))
        assert np.array_equal(TestChannel.uniform(4).rows,
                              np.full((4, 4), 0.25))
        assert TestChannel.bsc(0.1).rows[0, 1] == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(ParameterError):
            TestChannel([[bad, 1.0], [0.5, 0.5]])

    def test_rows_read_only(self):
        tc = TestChannel.identity(2)
        with pytest.raises(ValueError):
            tc.rows[0, 0] = 0.5


class TestObjectives:
    def test_identity_channel_values(self):
        tc = TestChannel.identity(2)
        assert rate_constraint(JOINT, tc) == pytest.approx(H_XY, abs=1e-12)
        assert objective_rec(JOINT, tc) == pytest.approx(
            mutual_information(JOINT, "x", "y"), abs=1e-12)
        assert objective_wsk(JOINT, tc) == pytest.approx(
            mutual_information(JOINT, "x", "y")
            - mutual_information(JOINT, "x", "z"), abs=1e-12)

    def test_constant_channel_is_free_and_useless(self):
        tc = TestChannel.uniform(2)
        assert rate_constraint(JOINT, tc) == pytest.approx(0.0, abs=1e-12)
        assert objective_rec(JOINT, tc) == pytest.approx(0.0, abs=1e-12)
        assert objective_wsk(JOINT, tc) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_channel_closed_form(self):
        # cascading BSC(beta) onto X gives U with crossover p*beta to Y
        beta = 0.12
        p, q = 0.1, 0.2
        tc = TestChannel.bsc(beta)
        assert objective_rec(JOINT, tc) == pytest.approx(
            1.0 - binary_entropy(star(p, beta)), abs=1e-12)
        assert objective_wsk(JOINT, tc) == pytest.approx(
            binary_entropy(star(star(p, beta), q))
            - binary_entropy(star(p, beta)), abs=1e-12)
        assert rate_constraint(JOINT, tc) == pytest.approx(
            binary_entropy(star(p, beta)) - binary_entropy(beta), abs=1e-12)

    def test_u_relabel_invariance(self):
        tc = TestChannel([[0.7, 0.3], [0.2, 0.8]])
        flipped = TestChannel(tc.rows[:, ::-1])
        assert objective_wsk(JOINT, flipped) == pytest.approx(
            objective_wsk(JOINT, tc), abs=1e-13)
        assert rate_constraint(JOINT, flipped) == pytest.approx(
            rate_constraint(JOINT, tc), abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            objective_rec(random_joint(1, (3, 2, 2)), TestChannel.identity(2))


class TestOptimizeOneway:
    def test_rec_matches_closed_form(self):
        for frac in (0.2, 0.5, 0.9):
            r1 = frac * H_XY
            res = optimize_oneway(JOINT, r1, objective="rec", opts=FAST)
            assert res.value == pytest.approx(c_rec_bsc(SRC, r1), abs=1e-3)
            assert abs(res.constraint_residual) <= 1e-6

    def test_wsk_matches_closed_form(self):
        for frac in (0.2, 0.5, 0.9):
            r1 = frac * H_XY
            res = optimize_oneway(JOINT, r1, objective="wsk", opts=FAST)
            assert res.value == pytest.approx(c_wsk_bsc(SRC, r1), abs=1e-3)
            assert abs(res.constraint_residual) <= 1e-6

    def test_saturation_returns_identity(self):
        res = optimize_oneway(JOINT, H_XY, objective="rec", opts=FAST)
        assert res.method == "saturated-identity"
        assert res.value == pytest.approx(
            mutual_information(JOINT, "x", "y"), abs=1e-12)
        assert np.array_equal(res.channel.rows, np.eye(2))
        assert res.rounds == res.cycles == 0

    def test_zero_rate_is_zero_value(self):
        res = optimize_oneway(JOINT, 0.0, opts=FAST)
        assert res.value == 0.0
        assert res.status == "converged"
        assert res.rounds == res.cycles == 0

    def test_rate_domain_errors(self):
        with pytest.raises(ParameterError):
            optimize_oneway(JOINT, -0.1, opts=FAST)
        with pytest.raises(ParameterError):
            optimize_oneway(JOINT, H_XY + 1e-3, opts=FAST)
        with pytest.raises(ParameterError):
            optimize_oneway(JOINT, 0.1, objective="sk", opts=FAST)

    def test_monotone_in_rate(self):
        values = [optimize_oneway(JOINT, r1, objective="rec", opts=FAST).value
                  for r1 in np.linspace(0.1, 0.9, 5) * H_XY]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_wsk_at_most_rec(self):
        r1 = 0.4 * H_XY
        wsk = optimize_oneway(JOINT, r1, objective="wsk", opts=FAST).value
        rec = optimize_oneway(JOINT, r1, objective="rec", opts=FAST).value
        assert wsk <= rec + 1e-12

    def test_seed_stability(self):
        a = optimize_oneway(JOINT, 0.2, objective="wsk",
                            opts=OptimizerOptions(starts=8, seed=1)).value
        b = optimize_oneway(JOINT, 0.2, objective="wsk",
                            opts=OptimizerOptions(starts=8, seed=99)).value
        assert abs(a - b) <= 1e-5

    def test_options_validated(self):
        # a negative seed reached numpy's default_rng, and starts = -5 ran
        # the identity channel alone under the method "lagrangian-squarem[-4]"
        OptimizerOptions(starts=0, seed=0)
        for bad in (dict(starts=-5), dict(seed=-1), dict(starts=2.0),
                    dict(seed="1")):
            with pytest.raises(ParameterError):
                OptimizerOptions(**bad)

    def test_result_channel_reproduces_residual(self):
        res = optimize_oneway(JOINT, 0.3, objective="rec", opts=FAST)
        assert rate_constraint(JOINT, res.channel) - 0.3 == pytest.approx(
            res.constraint_residual, abs=1e-12)

    def test_nondegraded_wsk_sweeps_rates(self):
        j = nondegraded_tap()
        h = conditional_entropy(j, "x", "y")
        opts = OptimizerOptions(starts=8)
        res = optimize_oneway(j, 0.6 * h, objective="wsk", opts=opts)
        assert res.value > 0.3
        assert res.rate_used <= 0.6 * h + 1e-12
        assert abs(res.constraint_residual) <= 1e-6

    def test_three_symbol_source(self):
        j = random_joint(11, (3, 3, 2))
        h = conditional_entropy(j, "x", "y")
        res = optimize_oneway(j, 0.5 * h, objective="rec", opts=FAST)
        assert 0.0 < res.value <= mutual_information(j, "x", "y") + 1e-9
        assert abs(res.constraint_residual) <= 1e-6


class TestSweep:
    # every point of a sweep must get the one-point solver's result, bit
    # for bit and with the same work, whatever else the sweep holds

    @staticmethod
    def assert_matches_oracle(j, points, opts=None):
        got = optimize_sweep(j, points, opts)
        assert len(got) == len(points)
        for res, (r1, objective) in zip(got, points):
            assert repr(res) == repr(oracle_oneway(j, r1, objective, opts))
        return got

    def test_nonuniform_prior_grid(self):
        j = BscCascadeSource(0.1, 0.2, prior=0.3).joint()
        grid = np.linspace(0.1, 0.4, 4)
        got = self.assert_matches_oracle(
            j, [(r1, o) for o in ("wsk", "rec") for r1 in grid])
        assert all(res.rounds > 0 and res.cycles > 0 for res in got)

    def test_blind_eavesdropper_grid(self):
        # the source of capacity bec --prior, whose wsk column scales rec
        j = BscCascadeSource(0.1, 0.5, prior=0.3).joint()
        self.assert_matches_oracle(j, [(r1, "rec") for r1 in (0.1, 0.3)])

    def test_degraded_cascade(self):
        j = random_cascade(1, (3, 3, 2))
        h = conditional_entropy(j, "x", "y")
        self.assert_matches_oracle(
            j, [(f * h, o) for o in ("rec", "wsk") for f in (0.2, 0.5)], FAST)

    @pytest.mark.parametrize("seed, method", [
        (1, "lagrangian-squarem[3]"),  # a channel below the budget
        (6, "useless"),
    ])
    def test_nondegraded_wsk_answers(self, seed, method):
        j = random_joint(seed)
        h = conditional_entropy(j, "x", "y")
        got = self.assert_matches_oracle(j, [(0.2 * h, "wsk"),
                                             (0.5 * h, "rec")],
                                         OptimizerOptions(starts=2))
        assert got[0].method == method
        assert got[0].rate_used < 0.2 * h

    def test_saturated_zero_rate_and_duplicate_points(self):
        j = BscCascadeSource(0.1, 0.2, prior=0.3).joint()
        h = conditional_entropy(j, "x", "y")
        points = [(0.3, "wsk"), (0.0, "rec"), (h, "wsk"), (0.3, "wsk"),
                  (0.3, "rec"), (h - 1e-13, "rec"), (0.0, "wsk")]
        got = self.assert_matches_oracle(j, points)
        assert [res.method for res in got[1:3]] == [
            "degenerate-zero-rate", "saturated-identity"]
        assert all(res.rounds == res.cycles == 0 for res in got[1:3])
        assert got[0].rounds == got[3].rounds > 0

    def test_saturated_nondegraded_wsk_is_useless(self):
        # Z sees X better than Y does: the identity channel's key rate is
        # negative, so the answer at H(X|Y) is the useless channel
        bsc = lambda t: np.array([[1.0 - t, t], [t, 1.0 - t]])
        j = DiscreteJoint(0.5 * np.einsum("xy,xz->xyz", bsc(0.3), bsc(0.01)))
        h = conditional_entropy(j, "x", "y")
        got = self.assert_matches_oracle(j, [(h, "wsk"), (h, "rec")])
        assert [res.method for res in got] == ["useless",
                                               "saturated-identity"]

    def test_empty_sweep(self):
        assert optimize_sweep(JOINT, []) == []

    def test_rejects_bad_points(self):
        with pytest.raises(ParameterError):
            optimize_sweep(JOINT, [(0.3, "rec"), (0.3, "sk")])
        with pytest.raises(ParameterError):
            optimize_sweep(JOINT, [(0.3, "rec"), (H_XY + 1e-3, "wsk")])

    def test_failing_point_is_named(self, monkeypatch):
        # every multiplier below the first transition leaves U useless
        monkeypatch.setattr(optimizer, "S_BRACKET", (1e-3, 1e-2))
        with pytest.raises(ConvergenceError,
                           match=r"^wsk at r1 = 0\.3: no multiplier"):
            optimize_sweep(JOINT, [(0.0, "rec"), (0.3, "wsk"),
                                   (0.2, "rec")], FAST)


class TestCounterexampleCrossCheck:
    # the counterexample solver traces the constraint curve of the
    # reference asymmetric source by bisection and golden-section search,
    # independently of the test-channel optimizer
    SRC = AsymBinarySource(0.23, 0.01, 0.03, 0.03, 0.01)

    @pytest.mark.parametrize("r1", [None, 0.05])
    def test_optimizer_matches_counterexample_solver(self, r1):
        r1 = self.SRC.h_x_given_y() / 3.0 if r1 is None else r1
        rep = counterexample_solve(self.SRC, r1)
        j = self.SRC.joint()
        wsk = optimize_oneway(j, r1, objective="wsk")
        rec = optimize_oneway(j, r1, objective="rec")
        assert abs(wsk.value - rep.c_wsk) <= 1e-9
        assert abs(rec.value - rep.c_rec) <= 1e-9


class TestAgainstMultistartOracle:
    # the Lagrangian solver must do at least as well as the projected
    # coordinate ascent it replaced, wherever that ascent is available

    @pytest.mark.parametrize("objective", ["rec", "wsk"])
    @pytest.mark.parametrize("r1", [0.3, 0.4])
    def test_nonuniform_prior(self, r1, objective):
        j = BscCascadeSource(0.1, 0.2, prior=0.3).joint()
        got = optimize_oneway(j, r1, objective=objective).value
        assert got >= multistart_value(j, r1, objective) - 1e-9

    @pytest.mark.parametrize("frac", [0.3, 0.6])
    def test_nondegraded_surfaces(self, frac):
        j = nondegraded_tap()
        r1 = frac * conditional_entropy(j, "x", "y")
        # the surface I(X;U|Y) = r1 itself, which optimize_oneway does not
        # ask for on a non-degraded source
        pre = optimizer._precompute(j)
        point = optimizer._Point(r1, "wsk", False,
                                 optimizer._starts(2, OptimizerOptions()))
        optimizer._solve(pre, [point])
        res = optimizer._answer(pre, point, "lagrangian-squarem[33]")
        assert abs(res.constraint_residual) <= 1e-9
        assert res.value >= multistart_value(j, r1, "wsk") - 1e-9

    def test_three_symbol_source(self):
        j = random_joint(11, (3, 3, 2))
        r1 = 0.5 * conditional_entropy(j, "x", "y")
        got = optimize_oneway(j, r1, objective="rec").value
        assert got >= multistart_value(j, r1, "rec", starts=8) - 1e-9


class TestHardSources:
    def test_nondegraded_wsk_where_the_map_swaps_labels(self):
        # the undamped wsk map sends the identity channel to its label swap
        # and back forever here; the damped step settles on the useless
        # channel, as the projected ascent did (value 0 on every surface)
        j = random_joint(1, (2, 2, 2))
        r1 = 0.2 * conditional_entropy(j, "x", "y")
        res = optimize_oneway(j, r1, objective="wsk")
        assert abs(res.value) <= 1e-9
        assert res.rate_used <= r1 + 1e-12
        assert res.status == "converged"

    def test_label_swap_is_damped(self):
        # the identity channel alone: the plain map swaps its U labels and
        # back, at an equal Lagrangian, so a step must also realize part of
        # its first-order gain to be kept
        j = random_joint(1, (2, 2, 2))
        theta = optimizer._log_mass(np.eye(2))[None]
        par = optimizer._Members.build([1000.0], [True], [1], 2, 2)
        _, moving, *_ = optimizer._fixed_point(
            theta, optimizer._precompute(j), par)
        assert not moving.any()

    def test_slow_member_that_is_not_the_answer_is_dropped(self):
        # at s = 10.46 one restart's U column dies too slowly to settle
        # within FIXED_POINT_ITERS cycles; the best member settles
        j = random_cascade(1, (4, 3, 2))
        r1 = 0.5 * conditional_entropy(j, "x", "y")
        res = optimize_oneway(j, r1, objective="wsk")
        assert abs(res.constraint_residual) <= 1e-9
        # the multistart projected ascent (33 starts) stopped at its sweep
        # cap here with 0.14626238456799534
        assert res.value >= 0.14626238456799534 - 1e-9


class TestVerdict:
    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(optimizer, "FIXED_POINT_ITERS", 1)
        with pytest.raises(ConvergenceError):
            optimize_oneway(JOINT, 0.3, objective="wsk", opts=FAST)

    def test_rate_miss_raises(self, monkeypatch):
        # no channel can meet a negative tolerance on |R - r1|
        monkeypatch.setattr(optimizer, "RATE_TOL", -1.0)
        with pytest.raises(ConvergenceError, match="spends the rate"):
            optimize_oneway(JOINT, 0.3, objective="rec", opts=FAST)

    def test_bracket_missing_the_rate_raises(self, monkeypatch):
        # every multiplier below the first transition leaves U useless
        monkeypatch.setattr(optimizer, "S_BRACKET", (1e-3, 1e-2))
        with pytest.raises(ConvergenceError, match="spends the rate"):
            optimize_oneway(JOINT, 0.3, objective="rec", opts=FAST)


class TestNonuniformPriorFallback:
    def test_rec_routes_through_optimizer(self):
        src = BscCascadeSource(0.1, 0.2, prior=0.3)
        j = src.joint()
        h = src.h_x_given_y()
        r1 = 0.5 * h
        val = c_rec_bsc(src, r1)
        direct = optimize_oneway(j, r1, objective="rec").value
        assert val == pytest.approx(direct, abs=1e-9)
        assert 0.0 < val < mutual_information(j, "x", "y")

    def test_saturated_nonuniform_is_mi(self):
        src = BscCascadeSource(0.1, 0.2, prior=0.3)
        assert c_rec_bsc(src, src.h_x_given_y() + 0.5) == pytest.approx(
            mutual_information(src.joint(), "x", "y"), abs=1e-12)


class TestTwoWay:
    def test_constant_v_reduces_to_oneway(self):
        tc = TestChannel.bsc(0.12)
        v = np.zeros((2, 2, 1))
        v[:, :, 0] = 1.0
        val, r1u, r2u = objective_twoway(JOINT, TwoWayChannels(tc, v), "sk")
        assert val == pytest.approx(objective_rec(JOINT, tc), abs=1e-12)
        assert r1u == pytest.approx(rate_constraint(JOINT, tc), abs=1e-12)
        assert r2u == pytest.approx(0.0, abs=1e-12)

    def test_constant_u_with_v_copying_y(self):
        u = TestChannel(np.ones((2, 1)))
        v = np.zeros((2, 1, 2))
        v[0, 0, 0] = 1.0
        v[1, 0, 1] = 1.0
        val, r1u, r2u = objective_twoway(JOINT, TwoWayChannels(u, v), "sk")
        assert val == pytest.approx(
            mutual_information(JOINT, "x", "y"), abs=1e-12)
        assert r1u == pytest.approx(0.0, abs=1e-12)
        assert r2u == pytest.approx(
            conditional_entropy(JOINT, "y", "x"), abs=1e-12)

    def test_wsk_mode_clips_and_stays_nonnegative(self):
        rng = np.random.default_rng(5)
        g = rng.gamma(1.0, size=(2, 2))
        u = TestChannel(g / g.sum(axis=1, keepdims=True))
        gv = rng.gamma(1.0, size=(2, 2, 2))
        v = gv / gv.sum(axis=2, keepdims=True)
        val, _, _ = objective_twoway(JOINT, TwoWayChannels(u, v), "wsk")
        assert val >= 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            TwoWayChannels(TestChannel.identity(2), np.ones((2, 2, 2)))
        with pytest.raises(ParameterError):
            objective_twoway(JOINT, TwoWayChannels(
                TestChannel.identity(2),
                np.full((3, 2, 2), 0.5)), "sk")
        tc = TwoWayChannels(TestChannel.identity(2), np.full((2, 2, 2), 0.5))
        with pytest.raises(ParameterError):
            objective_twoway(JOINT, tc, "both")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass_rejected(self, bad):
        v = np.full((2, 2, 2), 0.5)
        v[1, 0] = (bad, 1.0)
        with pytest.raises(ParameterError):
            TwoWayChannels(TestChannel.identity(2), v)


class TestConvexityProbe:
    def test_rec_and_rate_convex_on_random_joints(self):
        j = random_joint(7)
        for obj in ("rec", "rate"):
            rep = convexity_probe(j, obj, probes=500, seed=3)
            assert rep.max_violation <= 1e-10
            assert rep.probes == 500

    def test_wsk_convex_on_degraded_joints(self):
        rep = convexity_probe(JOINT, "wsk", probes=500, seed=3)
        assert rep.max_violation <= 1e-10

    def test_wsk_can_violate_without_degradedness(self):
        # documents why the degraded scoping matters
        rep = convexity_probe(random_joint(7), "wsk", probes=500, seed=3)
        assert rep.max_violation > 1e-3

    def test_trivial_mixtures_are_exact(self):
        tc1 = TestChannel([[0.7, 0.3], [0.2, 0.8]])
        f = objective_rec(JOINT, tc1)
        # lam in {0, 1} and tc1 == tc2 collapse to plain evaluation
        mix = TestChannel(1.0 * tc1.rows + 0.0 * tc1.rows)
        assert objective_rec(JOINT, mix) == f

    def test_bad_objective(self):
        with pytest.raises(ParameterError):
            convexity_probe(JOINT, "secrecy")
