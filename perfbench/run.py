"""seqkey benchmark: times the CLI on three workloads, checks every output.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim_long_blocks --seed 1 \\
        --seconds 40 --trace 0

Each run starts fresh single-threaded child processes (``bench.py``), one
at a time: a few that only set up, to time set-up, then one that sets up
and runs passes of the workload for ``--seconds``. ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name and unit. A
record with provenance (git SHA, nproc, Python and numpy versions) and the
spans of a traced run are written under ``perfbench/results/``.

The program is run from ``src/`` of the checkout; without it the run
exits with status 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_CHILDREN = 6    # set-up samples per run, the measuring child included
TIME_LIMIT = 170.0    # a run must end within 180 s

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("SEQKEY_JOBS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, extra, deadline):
    """Start one child; returns (set-up seconds, its summary or None)."""
    cmd = [sys.executable, str(HERE / "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(),
                                              1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed("child ran out of time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"child exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def provenance():
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seqkey").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def run_name(args):
    return f"{args.workload}-{args.size}-seed{args.seed}"


def measure(args, workdir):
    deadline = time.perf_counter() + TIME_LIMIT
    base = ["--workdir", str(workdir)]
    setups = [run_child(args, base + ["--setup-only"], deadline)[0]
              for _ in range(SETUP_CHILDREN - 1)]
    spans = RESULTS / f"{run_name(args)}.spans.jsonl"
    extra = base + ["--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(spans)]
    setup, child = run_child(args, extra, deadline)
    setups.append(setup)
    groups = {f"{g}_s": statistics.median(v)
              for g, v in child["group_s"].items() if g != "simulate"}
    groups["trials_per_s"] = (statistics.median(child["trials_per_s"])
                              if child["trials_per_s"] else 0.0)
    if args.trace:
        metrics = dict(child["layers"], **groups)
        metrics["trace.wall_s"] = statistics.median(child["traced_wall_s"])
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                          / statistics.median(child["wall_s"])
                                          - 1.0)
    else:
        metrics = {"wall_s": statistics.median(child["wall_s"]),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": child["peak_rss_mb"]}
    return metrics, groups, setups, child


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny shrinks every command, for smoke tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")

    if not (ROOT / "src" / "seqkey" / "__init__.py").is_file():
        print(f"perfbench: no seqkey sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        metrics, groups, setups, child = measure(args, workdir)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: metrics[m["name"]] for m in declared}
    prov = dict(provenance(), numpy=child["numpy"])
    for problem in child["problems"]:
        print(f"FAILED {problem}")
    print(f"# {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(child['wall_s'])} "
          f"traced_passes={len(child['traced_wall_s'])} "
          f"setups={len(setups)} " + " ".join(f"{k}={v}"
                                              for k, v in prov.items()))
    shown = dict(metrics)
    if not args.trace:  # the command groups this workload runs
        shown.update((k, v) for k, v in groups.items() if v)
    for name, value in shown.items():
        print(f"{name} = {value!r} {UNITS[name]}")

    result = {"correct": child["failed"] == 0,
              "attempted": child["attempted"], "failed": child["failed"],
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  size=args.size, trace=args.trace, seconds=args.seconds,
                  provenance=prov, groups=groups, setup_samples_s=setups,
                  child=child)
    out = RESULTS / f"{run_name(args)}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
