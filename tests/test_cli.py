"""Command-line surface tests: parsing, exit codes, round-trips."""

import hashlib
import json
import math

import numpy as np
import pytest

from seqkey.binary import BscCascadeSource, c_rec_bsc, c_wsk_bsc
from seqkey.cli import (
    build_parser,
    demo_config_path,
    main,
    parse_grid,
    read_config,
    read_curve,
    read_records,
)
from seqkey import optimizer
from seqkey.errors import ParameterError
from seqkey.measures import gaussian_mi


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


FAST_CFG = """
# comment line
p = 0.1
q = 0.5
n = 8
m = 1
k = 4
trials = 100
seed = 7
"""


class TestParseGrid:
    def test_linear(self):
        g = parse_grid("linear:0.1:0.5:5")
        assert np.allclose(g, np.linspace(0.1, 0.5, 5))

    def test_log(self):
        g = parse_grid("log:0.01:1.0:3")
        assert np.allclose(g, [0.01, 0.1, 1.0])

    @pytest.mark.parametrize("bad", [
        "linear:0.1:0.5", "geom:0.1:0.5:5", "linear:a:b:5",
        "linear:0.1:0.5:1", "linear:0.5:0.1:5", "log:0.0:1.0:5",
        "linear:0.1:0.1:5",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParameterError):
            parse_grid(bad)


class TestReadConfig:
    def test_full_parse(self, tmp_path):
        cfg = read_config(write_cfg(tmp_path, FAST_CFG))
        assert cfg == dict(p=0.1, q=0.5, n=8, m=1, k=4, trials=100, seed=7)

    def test_unknown_key_names_field(self, tmp_path):
        path = write_cfg(tmp_path, "p = 0.1\nbogus = 3\n")
        with pytest.raises(ParameterError, match="bogus"):
            read_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, "p = 0.1\np = 0.2\n")
        with pytest.raises(ParameterError, match="duplicate"):
            read_config(path)

    def test_type_error_names_field(self, tmp_path):
        path = write_cfg(tmp_path, "n = eight\n")
        with pytest.raises(ParameterError, match="n: expected int"):
            read_config(path)

    def test_missing_required_names_field(self, tmp_path):
        path = write_cfg(tmp_path, "p = 0.1\n")
        with pytest.raises(ParameterError, match="q: missing"):
            read_config(path)

    def test_demo_config_parses(self):
        cfg = read_config(demo_config_path())
        assert cfg["p"] == 0.1 and cfg["n"] == 12 and cfg["m"] == 4
        assert cfg["k"] == 2 and cfg["trials"] == 2000


class TestExitCodes:
    def test_parameter_error_is_2(self, capsys):
        rc = main(["capacity", "bsc", "--p", "1.2", "--q", "0.2",
                   "--r1", "linear:0.1:0.5:3"])
        assert rc == 2
        assert "seqkey:" in capsys.readouterr().err

    def test_infeasible_is_3(self, tmp_path, capsys):
        # 2 blocks of 3 symbols leave 6 hash bits: no such field
        cfg = write_cfg(tmp_path,
                        "p = 0.1\nq = 0.5\nn = 3\nm = 2\nk = 4\n"
                        "trials = 5\nseed = 0\n")
        assert main(["simulate", cfg]) == 3

    def test_missing_config_is_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.cfg")]) == 2

    def test_simulate_without_config_is_2(self, capsys):
        assert main(["simulate"]) == 2

    @pytest.mark.parametrize("r_u, rc", [("nan", 2), ("inf", 2),
                                         ("200", 3), ("100", 3)])
    def test_rate_override_exit_codes(self, tmp_path, capsys, r_u, rc):
        # nan, inf and 200 used to end in a traceback with exit code 1
        cfg = write_cfg(tmp_path,
                        "p = 0.1\nq = 0.5\nn = 8\nm = 1\nk = 4\n"
                        f"trials = 5\nseed = 0\nr_u = {r_u}\n"
                        "r_u_prime = 0.25\n")
        assert main(["simulate", cfg]) == rc
        assert "seqkey:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--demo", "--seed", "-1"],
        ["optimize", "--p", "0.1", "--q", "0.2", "--r1", "0.3",
         "--seed", "-1"],
        ["optimize", "--p", "0.1", "--q", "0.2", "--r1", "0.3",
         "--starts", "-5"],
    ], ids=["simulate-seed", "optimize-seed", "optimize-starts"])
    def test_negative_seed_or_starts_is_2(self, argv, capsys):
        # the seeds used to end in a traceback with exit code 1, and
        # --starts -5 ran one member under "lagrangian-squarem[-4]"
        assert main(argv) == 2
        assert "non-negative int" in capsys.readouterr().err

    def test_unconverged_partition_is_4(self, monkeypatch, capsys):
        # a one-iteration budget cannot reach the gradient tolerance at
        # five cells, so the solver raises ConvergenceError
        monkeypatch.setattr("seqkey.quantize.PARTITION_ITERS", 1)
        rc = main(["quantize", "partition", "--rho-xy", "0.75",
                   "--l-min", "5", "--l-max", "5"])
        assert rc == 4
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["capacity", "bsc", "--p", "0.1", "--q", "0.2", "--prior", "0.3",
         "--r1", "linear:0.3:0.4:2"],
        ["optimize", "--p", "0.1", "--q", "0.2", "--r1", "0.3"],
    ])
    def test_unconverged_optimizer_is_4(self, argv, monkeypatch, capsys):
        # one SQUAREM cycle cannot settle the Lagrangian fixed point, so the
        # test-channel optimizer raises instead of printing a partial value
        monkeypatch.setattr("seqkey.optimizer.FIXED_POINT_ITERS", 1)
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert "did not converge" in captured.err
        assert captured.out == ""


class TestCapacityCurves:
    def test_bsc_saturates(self, tmp_path):
        out = str(tmp_path / "c.csv")
        rc = main(["capacity", "bsc", "--p", "0.1", "--q", "0.2",
                   "--r1", "linear:0.2:1.0:5", "-o", out])
        assert rc == 0
        header, rows = read_curve(out)
        assert header == ["r1_bits", "c_rec_bits", "c_wsk_bits", "beta0"]
        src = BscCascadeSource(0.1, 0.2)
        for r1, rec, wsk, beta in rows:
            assert rec == c_rec_bsc(src, r1)
            assert wsk == c_wsk_bsc(src, r1)
            assert wsk <= rec
        # constraint inactive on the last two rows
        assert rows[-1][1:] == rows[-2][1:]

    def test_noiseless_pair_saturates_at_one_bit(self, tmp_path):
        out = str(tmp_path / "c.csv")
        assert main(["capacity", "bsc", "--p", "0.0", "--q", "0.2",
                     "--r1", "linear:0.1:0.5:3", "-o", out]) == 0
        _, rows = read_curve(out)
        assert all(row[1] == 1.0 for row in rows)

    @pytest.mark.parametrize("model", [["bsc", "--q", "0.2"],
                                       ["bec", "--erasure", "0.3"]])
    def test_zero_rate_row(self, model, tmp_path):
        # at r1 = 0 nothing may be sent: both capacities vanish and the
        # attaining channel is the useless one, beta0 = 1/2
        out = str(tmp_path / "c.csv")
        assert main(["capacity", model[0], "--p", "0.1", *model[1:],
                     "--r1", "linear:0:0.5:3", "-o", out]) == 0
        _, rows = read_curve(out)
        assert rows[0] == (0.0, 0.0, 0.0, 0.5)
        assert len(rows) == 3

    def test_bec_scales_c_rec(self, tmp_path):
        out = str(tmp_path / "c.csv")
        assert main(["capacity", "bec", "--p", "0.1", "--erasure", "0.3",
                     "--r1", "linear:0.1:0.5:4", "-o", out]) == 0
        _, rows = read_curve(out)
        for _, rec, wsk, _ in rows:
            assert wsk == pytest.approx(0.3 * rec, abs=1e-15)

    @pytest.mark.parametrize("model", [["bsc", "--q", "0.2"],
                                       ["bec", "--erasure", "0.3"]])
    def test_prior_sweep_is_one_solve_per_point(self, model, tmp_path,
                                                monkeypatch):
        # every optimizer point goes into one sweep; bec's wsk column is
        # erasure * c_rec, so it solves only the rec points
        calls = []
        sweep = optimizer.optimize_sweep

        def recording(j, points, opts=None):
            calls.append(list(points))
            return sweep(j, points, opts)

        monkeypatch.setattr(optimizer, "optimize_sweep", recording)
        out = str(tmp_path / "c.csv")
        assert main(["capacity", model[0], "--p", "0.1", *model[1:],
                     "--prior", "0.3", "--r1", "linear:0.3:0.4:2",
                     "-o", out]) == 0
        objectives = ("rec", "wsk") if model[0] == "bsc" else ("rec",)
        assert calls == [[(r1, o) for o in objectives for r1 in (0.3, 0.4)]]
        _, rows = read_curve(out)
        src = BscCascadeSource(0.1, 0.2 if model[0] == "bsc" else 0.5,
                               prior=0.3)
        for r1, rec, wsk, beta in rows:
            assert rec == c_rec_bsc(src, r1)
            assert wsk == (c_wsk_bsc(src, r1) if model[0] == "bsc"
                           else 0.3 * rec)
            assert math.isnan(beta)

    def test_gauss_columns_and_zero_rate(self, tmp_path):
        out = str(tmp_path / "g.csv")
        assert main(["capacity", "gauss", "--rho-xy", "0.8",
                     "--rho-yz", "0.4", "--r1", "linear:0.0:2.0:5",
                     "-o", out]) == 0
        header, rows = read_curve(out)
        assert header == ["r1_nats", "c_rec_nats", "c_wsk_nats",
                          "c_rec_bits", "c_wsk_bits", "sigma0"]
        assert rows[0][1] == 0.0 and rows[0][2] == 0.0
        assert math.isinf(rows[0][5])
        cap = gaussian_mi(0.8)
        for row in rows:
            assert row[1] < cap
            assert row[3] == pytest.approx(row[1] / math.log(2), rel=1e-15)

    def test_gauss_rejects_non_degraded_without_flag(self, capsys):
        args = ["capacity", "gauss", "--rho-xy", "0.8", "--rho-yz", "0.4",
                "--rho-xz", "0.1", "--r1", "linear:0.1:1.0:3"]
        assert main(args) == 2
        assert main(args + ["--extrapolate"]) == 0


class TestCounterexample:
    def test_default_gap_confirmed(self, capsys, tmp_path):
        out = str(tmp_path / "ce.jsonl")
        rc = main(["counterexample", "-o", out])
        text = capsys.readouterr().out
        assert rc == 0
        assert "gap confirmed" in text
        for key in ("c_wsk_bits", "key_rate_at_rec_bits", "relative_loss",
                    "wsk_alpha1", "rec_alpha1"):
            assert key in text
        (rec,) = read_records(out)
        assert rec["command"] == "counterexample"
        assert rec["results"]["gap_confirmed"] is True
        assert rec["results"]["relative_loss"] > 0.10

    def test_symmetric_source_has_no_gap(self, capsys):
        rc = main(["counterexample", "--p", "0.5", "--beta1", "0.05",
                   "--beta2", "0.05", "--gamma1", "0.1", "--gamma2", "0.1",
                   "--grid", "128"])
        assert rc == 1
        assert "no gap" in capsys.readouterr().out

    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_grid_below_two_is_2(self, grid, capsys):
        # exit 1 means "no gap"; a grid that cannot be scanned is a bad
        # parameter
        rc = main(["counterexample", "--grid", grid])
        assert rc == 2
        assert "at least 2" in capsys.readouterr().err


class TestQuantize:
    def test_uniform_rows_obey_bound(self, tmp_path):
        out = str(tmp_path / "q.csv")
        assert main(["quantize", "uniform", "--rho-xy", "0.75",
                     "--r1", "log:1.4:2.5:3", "-o", out]) == 0
        header, rows = read_curve(out)
        assert header == ["r1_nats", "delta", "mi_nats", "gap_nats",
                          "bound_nats"]
        for _, _, _, gap, bound in rows:
            assert 0.0 < gap <= bound

    def test_partition_two_cells(self, tmp_path):
        out = str(tmp_path / "p.csv")
        assert main(["quantize", "partition", "--rho-xy", "0.75",
                     "--l-min", "2", "--l-max", "3", "-o", out]) == 0
        header, rows = read_curve(out)
        assert header == ["cells", "mi_nats", "implied_rate_nats"]
        assert rows[0][0] == 2.0
        assert rows[0][1] == pytest.approx(0.2243044256398350, abs=1e-6)
        assert rows[1][1] > rows[0][1]

    def test_partition_range_validated(self, capsys):
        assert main(["quantize", "partition", "--rho-xy", "0.75",
                     "--l-min", "5", "--l-max", "3"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--rho-xy", "0.75", "--sigma-x", "0.8"],  # widest cell was too coarse
        ["--rho-xy", "0.99"],  # h(X|Y) < 0 gave negative rates
    ])
    def test_uniform_default_grid_runs(self, argv, tmp_path):
        out = str(tmp_path / "q.csv")
        assert main(["quantize", "uniform", *argv, "-o", out]) == 0
        _, rows = read_curve(out)
        assert len(rows) == 10
        for r1, delta, _, gap, bound in rows:
            assert r1 > 0.0 and 0.0 < gap <= bound


class TestSimulate:
    def test_record_round_trip_and_seed_override(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG)
        a, b, c = (str(tmp_path / n) for n in ("a.jsonl", "b.jsonl",
                                               "c.jsonl"))
        assert main(["simulate", cfg, "-o", a]) == 0
        assert main(["simulate", cfg, "-o", b]) == 0
        assert main(["simulate", cfg, "-o", c, "--seed", "8"]) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()
        (ra,), (rc_,) = read_records(a), read_records(c)
        assert ra["seed"] == 7 and rc_["seed"] == 8
        assert ra["results"] != rc_["results"]
        for key in ("p_e", "leakage_bits", "uniformity_bits",
                    "hash_input_bits", "under_rate_flag"):
            assert key in ra["results"]
        assert "wall_time_s" not in ra

    def test_one_parser_serves_every_call(self, tmp_path):
        # the parser is built once per process; what one call sets must
        # not reach the next
        assert build_parser() is build_parser()
        cfg = write_cfg(tmp_path, FAST_CFG)
        a, b = (str(tmp_path / n) for n in ("a.jsonl", "b.jsonl"))
        assert main(["simulate", cfg, "--timing", "--seed", "8",
                     "-o", a]) == 0
        assert main(["simulate", cfg, "-o", b]) == 0
        (ra,), (rb,) = read_records(a), read_records(b)
        assert ra["seed"] == 8 and rb["seed"] == 7
        assert "wall_time_s" in ra and "wall_time_s" not in rb

    def test_timing_flag_adds_wall_time(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG)
        out = str(tmp_path / "t.jsonl")
        assert main(["simulate", cfg, "--timing", "-o", out]) == 0
        (rec,) = read_records(out)
        assert rec["wall_time_s"] >= 0.0

    def test_stdout_is_sorted_json(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        assert main(["simulate", cfg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert list(rec) == sorted(rec)

    def test_under_rate_override_is_flagged(self, tmp_path, capsys):
        # codebook rate far below I(X;U|Y): bins too coarse to decode
        cfg = write_cfg(tmp_path, """
p = 0.1
q = 0.5
n = 10
m = 1
k = 4
trials = 200
seed = 5
decoder = ml
r_u = 0.1
r_u_prime = 1.27
""")
        assert main(["simulate", cfg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["results"]["p_e"] > 0.5
        assert rec["results"]["under_rate_flag"] is True

    def test_lone_rate_override_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG + "r_u = 0.5\n")
        assert main(["simulate", cfg]) == 2


class TestOptimize:
    def test_record_matches_closed_form(self, tmp_path):
        out = str(tmp_path / "o.jsonl")
        assert main(["optimize", "--p", "0.1", "--q", "0.2",
                     "--r1", "0.3", "--starts", "8", "-o", out]) == 0
        (rec,) = read_records(out)
        src = BscCascadeSource(0.1, 0.2)
        assert rec["results"]["value_bits"] == pytest.approx(
            c_wsk_bsc(src, 0.3), abs=1e-6)
        assert rec["results"]["status"] == "converged"
        assert len(rec["results"]["channel"]) == 2

    def test_wsk_record_is_exact(self, tmp_path):
        # the record behind the frozen optimize_wsk digest
        out = str(tmp_path / "o.jsonl")
        assert main(["optimize", "--p", "0.1", "--q", "0.2", "--r1", "0.3",
                     "--objective", "wsk", "-o", out]) == 0
        (rec,) = read_records(out)
        res = rec["results"]
        closed = c_wsk_bsc(BscCascadeSource(0.1, 0.2), 0.3)
        assert abs(res["value_bits"] - closed) <= 1e-9
        assert abs(res["constraint_residual"]) <= 1e-9


# Digests of the output bytes of fixed commands. Refactors of the numerics
# must leave every byte alone, so a digest mismatch is a behaviour change.
# The digests hold for one platform's float arithmetic (numpy and libm);
# regenerate them from an unmodified checkout when the platform changes.
BYTE_CASES = {
    "capacity_bsc": (
        ["capacity", "bsc", "--p", "0.1", "--q", "0.2",
         "--r1", "linear:0.02:0.6:40"], None),
    "capacity_bec": (
        ["capacity", "bec", "--p", "0.1", "--erasure", "0.3",
         "--r1", "linear:0.02:0.6:40"], None),
    # the non-uniform prior: the optimizer sweep and a NaN beta0 column
    "capacity_bsc_prior": (
        ["capacity", "bsc", "--p", "0.1", "--q", "0.2", "--prior", "0.3",
         "--r1", "linear:0.3:0.4:2"], None),
    "capacity_gauss": (
        ["capacity", "gauss", "--rho-xy", "0.8", "--rho-yz", "0.4",
         "--r1", "log:0.01:3:40"], None),
    "counterexample": (["counterexample"], None),
    "quantize_uniform": (["quantize", "uniform", "--rho-xy", "0.75"], None),
    "quantize_partition": (
        ["quantize", "partition", "--rho-xy", "0.9", "--l-min", "2",
         "--l-max", "3"], None),
    "optimize_wsk": (
        ["optimize", "--p", "0.1", "--q", "0.2", "--r1", "0.3",
         "--objective", "wsk"], None),
    "simulate_ml": (
        ["simulate"],
        "p = 0.1\nq = 0.5\nn = 8\nm = 8\nk = 4\nepsilon = 0.15\n"
        "trials = 150\nseed = 20260816\ndecoder = ml\n"),
    "simulate_demo": (["simulate", "--demo"], None),
}

FROZEN_DIGESTS = {
    "capacity_bec":
        "f03cb1d1323c4e79e14502b01e0c50ee891a7dcdd2b740a64319508e8bf21de5",
    "capacity_bsc":
        "6992f30a50c4dac98b94572634d99e2ac3b6a59940d74ae63060acd148e81bf6",
    "capacity_bsc_prior":
        "e2e5a8bf47f7367f805950c5b4a681ec6e24c35e73ededd5e6ccec0803b883f6",
    "capacity_gauss":
        "38458b142729164282e9bc4bd4443e212240ea18fb239c6960f42af2550d45ec",
    "counterexample":
        "96551d9b72b4a5822cb937e2718710029bdc4f060518de68d9ed90587d4137e5",
    # re-frozen for the Lagrangian optimizer; test_wsk_record_is_exact
    # checks the value and residual behind it
    "optimize_wsk":
        "4465f51a705c39fb31d91a210091608750058c4418bb0c59f8f832efb1f12a9c",
    "quantize_partition":
        "91420e51bfa787515376a3a4f30c200cb88ef0e32d6cc4b994c31cfcb46bdb5e",
    "quantize_uniform":
        "673ff1e3cde40f0e6fbd9503591335718d96f5e9082caa200affa855eebdc66f",
    "simulate_ml":
        "6e30692b22ec7fcd52d7da0bf4db19d8efa171cae57a42f21acaf5aae07decf3",
    "simulate_demo":
        "a6bd0955d6cf5137afe2554b920266e05ae7368f04d63992b353ccad94e13422",
}


@pytest.mark.parametrize("name", sorted(BYTE_CASES))
def test_cli_bytes_frozen(name, tmp_path, capsys):
    # everything the command writes: stdout, then the -o file
    argv, cfg = BYTE_CASES[name]
    if cfg is not None:
        argv = argv + [write_cfg(tmp_path, cfg)]
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 0
    data = capsys.readouterr().out.encode() + out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == FROZEN_DIGESTS[name]
