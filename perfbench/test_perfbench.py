"""Tests of the benchmark itself (not collected by the package's suite).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402
from spans import layer_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_every_workload(workload, trace):
    proc = _run("--workload", workload, "--seed",
                str(workloads.DEFAULT_SEED), "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "solver_sweep", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _ops(tmp_path, workload):
    return workloads.build(workload, workloads.DEFAULT_SEED, "tiny",
                           tmp_path)


def _nudge_simulate(text):
    rec = json.loads(text)
    rec["results"]["leakage_bits"] += 1e-12
    return json.dumps(rec, sort_keys=True) + "\n"


def _nudge_curve(text):
    head, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) + 1e-5)
    return "\n".join([head, ",".join(cells), rest])


@pytest.mark.parametrize("workload,op_name,corrupt", [
    ("sim_short_blocks", "simulate", _nudge_simulate),
    ("solver_sweep", "capacity_gauss", _nudge_curve),
])
def test_corrupted_reference_is_a_failed_operation(tmp_path, workload,
                                                   op_name, corrupt):
    refs = workloads.load_references()
    ops = _ops(tmp_path, workload)
    op = next(o for o in ops if o.name == op_name)
    clean = bench.measure(ops, 0.0, False, tmp_path, refs)
    assert clean["failed"] == 0
    refs["outputs"][op.key] = corrupt(refs["outputs"][op.key])
    out = bench.measure(ops, 0.0, False, tmp_path, refs)
    assert out["failed"] == 1 and out["attempted"] == clean["attempted"]
    assert op_name in out["problems"][0]


def _bindings():
    import seqkey.protocol

    found = {(name, attr): obj for name, mod in list(sys.modules.items())
             if name.startswith("seqkey")
             for attr, obj in vars(mod).items()}
    found["ReconCode.generate"] = vars(seqkey.protocol.ReconCode)["generate"]
    return found


@pytest.mark.parametrize("workload", ["sim_short_blocks", "solver_sweep"])
def test_traced_run_restores_every_wrapped_attribute(tmp_path, workload):
    import seqkey.cli  # noqa: F401 - load every module before the snapshot

    before = _bindings()
    out = bench.measure(_ops(tmp_path, workload), 0.0, True, tmp_path,
                        workloads.load_references())
    assert out["spans"] > 0 and out["failed"] == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, "r"], ["b", 1.0, 4.0, 0, "r"],
             ["c", 2.0, 3.0, 1, "r"], ["b", 5.0, 6.0, 0, "r"]]
    times = layer_times(spans)
    assert times["a"] == (10.0, 6.0, 1)
    assert times["b"] == (4.0, 3.0, 2)
    assert times["c"] == (1.0, 1.0, 1)
