"""One table of bad inputs for every pmf, channel and integer parameter.

Each site takes its input through ``measures.check_stochastic`` or
``measures.check_int``, so one table of bad values covers them all: every
entry must raise ParameterError at every site, and the CLI must exit 2 on
the ones it can be given.
"""

import math

import numpy as np
import pytest

from seqkey import binary
from seqkey.binary import (
    AsymBinarySource,
    BscCascadeSource,
    capacity_curves,
    counterexample_solve,
)
from seqkey.cli import main
from seqkey.errors import ParameterError
from seqkey.gaussian import GaussianSource
from seqkey.gf2n import gf_mul
from seqkey.measures import (
    DiscreteDist,
    DiscreteJoint,
    binary_entropy,
    joint_from_cascade,
)
from seqkey.optimizer import (
    OptimizerOptions,
    TestChannel,
    TwoWayChannels,
    convexity_probe,
)
from seqkey.protocol import (
    ProtocolParams,
    ReconCode,
    privacy_amplify,
    sample_source,
)
from seqkey.quantize import optimize_partition

J_BSC = BscCascadeSource(0.1, 0.3).joint()
TC_ID = TestChannel.identity(2)

# ------------------------------------------------------------ pmfs

# one row of two masses; each site puts it into an otherwise valid input
BAD_ROWS = {
    "nan": [math.nan, 1.0],
    "inf": [math.inf, 0.0],
    "negative": [-1e-3, 1.001],
    "sum_1e-9_high": [0.5, 0.5 + 1e-9],
    # np.allclose's default rtol of 1e-5 let this row into ReconCode.generate
    "sum_1.000009": [0.5, 0.500009],
}
DUST_ROW = [-1e-18, 1.0]


def _v_channel(row):
    v = np.full((2, 2, 2), 0.5)
    v[1, 0] = row
    return v


def _generate(v_given_yu):
    return ReconCode.generate(J_BSC, TC_ID, n=4, epsilon=0.15, seed=0,
                              v_given_yu=v_given_yu)


# site: (call on a whole input, the input built from one row, an input of
# the wrong rank or None where any rank is a pmf)
PMF_SITES = {
    "DiscreteDist": (DiscreteDist, list, None),
    "DiscreteJoint": (
        DiscreteJoint, lambda row: np.reshape(row, (2, 1, 1)), [0.5, 0.5]),
    "joint_from_cascade.p_x": (
        lambda p_x: joint_from_cascade(p_x, np.eye(2)), list, None),
    "joint_from_cascade.x_to_y": (
        lambda ch: joint_from_cascade([0.5, 0.5], ch),
        lambda row: [row, [0.5, 0.5]], [0.5, 0.5]),
    "joint_from_cascade.y_to_z": (
        lambda ch: joint_from_cascade([0.5, 0.5], np.eye(2), ch),
        lambda row: [[0.5, 0.5], row], [[[0.5, 0.5]], [[0.5, 0.5]]]),
    "TestChannel": (
        TestChannel, lambda row: [row, [0.5, 0.5]], [0.5, 0.5]),
    "TwoWayChannels": (
        lambda v: TwoWayChannels(TC_ID, v), _v_channel,
        np.full((2, 2), 0.5)),
    "ReconCode.generate": (_generate, _v_channel, np.full((2, 2), 0.5)),
}


def _pmf_cases():
    for site, (call, embed, wrong_rank) in PMF_SITES.items():
        for bad, row in BAD_ROWS.items():
            yield pytest.param(call, embed(row), id=f"{site}-{bad}")
        if wrong_rank is not None:
            yield pytest.param(call, wrong_rank, id=f"{site}-rank")


@pytest.mark.parametrize("call, masses", _pmf_cases())
def test_bad_pmf_is_refused(call, masses):
    with pytest.raises(ParameterError):
        call(masses)


@pytest.mark.parametrize("site", sorted(PMF_SITES))
def test_float_dust_is_clipped(site):
    # the V channel of ReconCode.generate refused -1e-18, which every
    # other site clips
    call, embed, _ = PMF_SITES[site]
    call(embed(DUST_ROW))


def test_cascade_checks_its_channel_rows():
    # the rows sum to 0.9 and 1.1, and the joint to 1: it was accepted
    with pytest.raises(ParameterError):
        joint_from_cascade([0.5, 0.5], [[0.5, 0.4], [0.5, 0.6]])


def test_checked_v_channel_keeps_the_code():
    v = _v_channel([0.25, 0.75])
    code = _generate(v)
    assert np.array_equal(code.v_given_yu, v)
    assert code.pmf_uyv.sum() == pytest.approx(1.0, abs=1e-15)


# ------------------------------------------------------------ integers

BAD_INTS = {"bool": True, "float": 2.0, "negative": -1, "str": "3"}
SRC_CE = AsymBinarySource(p=0.23, beta1=0.01, beta2=0.03, gamma1=0.03,
                          gamma2=0.01)
GAUSS = GaussianSource(rho_xy=0.75)
PARAMS = dict(n=8, m=1, k=4, epsilon=0.15, trials=10, seed=0)
BITS = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)


def _code_key(code):
    return code.rates, code.u_head.tobytes(), code.seed


# site: (call on the parameter, a valid value, a comparable result)
INT_SITES = {
    "generate.n": (
        lambda v: _code_key(ReconCode.generate(J_BSC, TC_ID, n=v,
                                               epsilon=0.15, seed=0)), 8),
    "generate.seed": (
        lambda v: _code_key(ReconCode.generate(J_BSC, TC_ID, n=8,
                                               epsilon=0.15, seed=v)), 3),
    "sample_source.n": (
        lambda v: [a.tolist() for a in sample_source(J_BSC, v, 1)], 5),
    "sample_source.seed": (
        lambda v: [a.tolist() for a in sample_source(J_BSC, 5, v)], 1),
    **{f"ProtocolParams.{name}": (
        lambda v, name=name: ProtocolParams(**dict(PARAMS, **{name: v})),
        PARAMS[name]) for name in ("n", "m", "k", "trials", "seed")},
    "privacy_amplify.k": (
        lambda v: privacy_amplify(BITS, BITS[::-1], v).tolist(), 2),
    "OptimizerOptions.starts": (lambda v: OptimizerOptions(starts=v), 2),
    "OptimizerOptions.seed": (lambda v: OptimizerOptions(seed=v), 3),
    "counterexample_solve.grid": (
        lambda v: counterexample_solve(SRC_CE, SRC_CE.h_x_given_y() / 3.0,
                                       grid=v), 8),
    "optimize_partition.n_cells": (
        lambda v: optimize_partition(GAUSS, v)[1], 2),
    "convexity_probe.probes": (
        lambda v: convexity_probe(J_BSC, "rec", probes=v), 4),
    "convexity_probe.seed": (
        lambda v: convexity_probe(J_BSC, "rec", probes=4, seed=v), 3),
    "gf_mul.n": (lambda v: int(gf_mul(3, 5, v)), 8),
}


@pytest.mark.parametrize("site", sorted(INT_SITES))
@pytest.mark.parametrize("bad", sorted(BAD_INTS))
def test_bad_int_is_refused(site, bad):
    # True ran as 1 wherever isinstance(v, int) was the check
    with pytest.raises(ParameterError):
        INT_SITES[site][0](BAD_INTS[bad])


@pytest.mark.parametrize("site", sorted(INT_SITES))
def test_numpy_int_is_an_int(site):
    # ProtocolParams refused np.int64(2) where counterexample_solve took it
    call, good = INT_SITES[site]
    assert call(np.int64(good)) == call(good)


def test_params_store_python_ints():
    params = ProtocolParams(**{k: np.int64(v) if isinstance(v, int) else v
                               for k, v in PARAMS.items()})
    assert all(type(getattr(params, name)) is int
               for name in ("n", "m", "k", "trials", "seed"))


# ------------------------------------------------------------ CLI

@pytest.mark.parametrize("key", ["n", "m", "k", "trials", "seed"])
@pytest.mark.parametrize("value", ["True", "2.0", "-1", '"3"'])
def test_cli_config_ints_exit_2(key, value, tmp_path, capsys):
    cfg = dict(p="0.1", q="0.5", n="8", m="1", k="4", trials="5", seed="0")
    cfg[key] = value
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert main(["simulate", str(path)]) == 2
    assert "seqkey:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["counterexample", "--grid", "True"],
    ["optimize", "--p", "0.1", "--q", "0.2", "--r1", "0.3",
     "--starts", "2.0"],
    ["quantize", "partition", "--rho-xy", "0.75", "--l-min", "1"],
    ["quantize", "partition", "--rho-xy", "0.75", "--l-max", "16"],
    ["capacity", "bsc", "--p", "0.1", "--q", "0.2", "--r1",
     "linear:0.1:0.5:1"],
], ids=["grid-bool", "starts-float", "l-min", "l-max", "grid-points"])
def test_cli_int_options_exit_2(argv, capsys):
    # argparse refuses a non-int itself, with SystemExit(2)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-1e-3", "1.000000001",
                                 "1.000009"])
def test_cli_bad_probability_exits_2(bad, capsys):
    assert main(["capacity", "bsc", "--p", "0.1", "--q", "0.2",
                 f"--prior={bad}", "--r1", "linear:0.1:0.5:3"]) == 2


@pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
def test_gaussian_scale_must_be_finite_and_positive(sigma):
    # sigma_x = inf was accepted and gave a sigma0 column of inf
    with pytest.raises(ParameterError):
        GaussianSource(rho_xy=0.8, sigma_x=sigma)


def test_cli_infinite_gaussian_scale_exits_2(capsys):
    assert main(["capacity", "gauss", "--rho-xy", "0.8", "--sigma-x", "inf",
                 "--r1", "linear:0.1:1:3"]) == 2
    assert capsys.readouterr().out == ""


# ------------------------------------------------------------ BSC column

def test_capacity_curves_solve_beta0_once_per_rate(monkeypatch, tmp_path):
    # the CLI's beta0 column solved beta0 again after c_rec_bsc and
    # c_wsk_bsc: three bisections a rate for bsc, two for bec
    calls = []
    bisect = binary.bisect

    def counting(*args):
        calls.append(args[1:])
        return bisect(*args)

    monkeypatch.setattr(binary, "bisect", counting)
    for model in (["bsc", "--q", "0.2"], ["bec", "--erasure", "0.3"]):
        calls.clear()
        assert main(["capacity", model[0], "--p", "0.1", *model[1:],
                     "--r1", "linear:0.02:0.6:40",
                     "-o", str(tmp_path / "c.csv")]) == 0
        # 0.6 > H_b(0.1) = 0.469: the saturated rates solve nothing
        assert len(calls) == sum(
            r1 <= binary_entropy(0.1) for r1 in np.linspace(0.02, 0.6, 40))


def test_beta0_column_at_the_saturation_rate():
    # r1 = H_b(p) exactly is still bisected: the root sits at float dust,
    # not at 0, while both capacities take their saturated values
    src = BscCascadeSource(0.1, 0.2)
    h = binary_entropy(0.1)
    rec, _, beta = capacity_curves(src, [h, 0.6, 0.0])
    assert beta == [1.5557538194652854e-61, 0.0, 0.5]
    assert rec[:2] == [1.0 - h] * 2 and rec[2] == 0.0
