"""A point's bitwise-equal restart members are solved once.

Members act alone in the Lagrangian fixed point, so members that hold the
same logits end with the same logits; the sweep keeps one of them, with a
multiplicity that keeps ``cycles`` counting every restart member.
"""

import numpy as np
import pytest

from seqkey import optimizer
from seqkey.binary import BscCascadeSource
from seqkey.optimizer import OptimizerOptions, optimize_sweep

from oneway_oracle import oracle_oneway

PRIOR_SWEEP = [(r1, o) for o in ("rec", "wsk") for r1 in (0.3, 0.4)]


def test_equal_rows_collapse_in_first_appearance_order():
    theta = np.array([[[1.0, 2.0]], [[3.0, 4.0]], [[1.0, 2.0]],
                      [[5.0, 6.0]], [[3.0, 4.0]], [[1.0, 2.0]]])
    kept, mult = optimizer._distinct(theta, np.array([1, 2, 3, 4, 5, 6]))
    assert kept.tolist() == [[[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]]]
    assert mult.tolist() == [1 + 3 + 6, 2 + 5, 4]


def test_signed_zeros_stay_apart():
    theta = np.array([[[0.0, -1.0]], [[-0.0, -1.0]], [[0.0, -1.0]]])
    kept, mult = optimizer._distinct(theta, np.ones(3, dtype=int))
    assert len(kept) == 2
    assert np.signbit(kept[:, 0, 0]).tolist() == [False, True]
    assert mult.tolist() == [2, 1]


def test_distinct_rows_pass_through():
    theta = np.arange(12.0).reshape(3, 2, 2)
    mult = np.array([2, 1, 5])
    kept, got = optimizer._distinct(theta, mult)
    assert np.array_equal(kept, theta)
    assert got.tolist() == [2, 1, 5]


def test_multiplicities_sum_to_the_members():
    rng = np.random.default_rng(3)
    theta = rng.integers(0, 3, size=(40, 2, 2)).astype(float)
    mult = rng.integers(1, 4, size=40)
    kept, got = optimizer._distinct(theta, mult)
    assert got.sum() == mult.sum()
    assert len({row.tobytes() for row in kept}) == len(kept)
    # each kept row's weight is the summed weight of its copies
    for row, k in zip(kept, got.tolist()):
        copies = (theta == row).all(axis=(1, 2))
        assert mult[copies].sum() == k


def test_a_point_built_from_its_fields_counts_each_member_once():
    warm = optimizer._starts(2, OptimizerOptions(starts=4))
    point = optimizer._Point(0.3, "rec", False, warm)
    assert point.mult.tolist() == [1] * 5


def test_prior_sweep_solves_fewer_rows_as_members_merge(monkeypatch):
    # the perfbench prior-0.3 sweep: 4 points of 33 members each
    sizes = []
    fixed_point = optimizer._fixed_point

    def recording(theta, pre, par):
        sizes.append(len(theta))
        return fixed_point(theta, pre, par)

    monkeypatch.setattr(optimizer, "_fixed_point", recording)
    j = BscCascadeSource(0.1, 0.2, prior=0.3).joint()
    got = optimize_sweep(j, PRIOR_SWEEP)
    assert sizes[0] == 4 * 33
    assert sizes[19] <= 40
    for res, (r1, objective) in zip(got, PRIOR_SWEEP):
        want = oracle_oneway(j, r1, objective)
        assert repr(res) == repr(want)
        assert (res.rounds, res.cycles) == (want.rounds, want.cycles)


@pytest.mark.parametrize("objective", ["rec", "wsk"])
def test_one_point_counts_the_cycles_of_every_member(objective):
    j = BscCascadeSource(0.1, 0.2, prior=0.3).joint()
    got = optimize_sweep(j, [(0.05, objective)])[0]
    want = oracle_oneway(j, 0.05, objective)
    assert repr(got) == repr(want)
    assert got.cycles == want.cycles
