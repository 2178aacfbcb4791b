"""One benchmark child process: set up a workload, run passes, check outputs.

``run.py`` starts this script in a fresh single-threaded process. It
imports seqkey, builds the workload's inputs, prints ``ready`` (the parent
times set-up up to that line), then runs passes of the workload for the
given number of seconds and prints one JSON summary as its last line. With
``--setup-only`` it exits after ``ready``.

A traced run alternates untraced and traced passes, so the tracing
overhead is measured in the same process; per-layer metrics come from the
traced passes and are averaged per pass.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import SpanRecorder, durations, layer_times

GROUPS = ("simulate", "partition", "optimizer_sweep", "closed_forms")


def execute(op, workdir):
    """Run one CLI command; returns (exit code, output text, seconds)."""
    import seqkey.cli

    out = Path(workdir) / f"{op.name}.out"
    sink = io.StringIO()  # counterexample also prints a report
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = seqkey.cli.main(list(op.argv) + ["-o", str(out)])
    except Exception:  # noqa: BLE001 - a crash is a failed operation
        return None, traceback.format_exc(), time.perf_counter() - start
    elapsed = time.perf_counter() - start
    try:
        text = out.read_text()
        out.unlink()
    except OSError as exc:
        text = f"no output: {exc}"
    return rc, text, elapsed


def _layer_metrics(rec, traced_passes, records):
    """Per-layer metrics of the traced passes, averaged per pass."""
    times = layer_times(rec.spans)
    per = float(traced_passes)

    def total(name):
        return times.get(name, (0.0, 0.0, 0))[0] / per

    def self_s(name):
        return times.get(name, (0.0, 0.0, 0))[1] / per

    def calls(name):
        return times.get(name, (0.0, 0.0, 0))[2] / per

    rec_ms = sorted(1e3 * d for d in durations(rec.spans,
                                                "protocol.reconcile"))
    mi_calls = calls("quantize.partition_mi")
    oneway = rec.results.get("optimizer.optimize_oneway", [])
    sims = [r["results"] for r in records]

    def rate(key):
        return statistics.fmean(r[key] for r in sims) if sims else 0.0

    def pct(q):
        return (statistics.quantiles(rec_ms, n=100, method="inclusive")[q - 1]
                if len(rec_ms) > 1 else (rec_ms[0] if rec_ms else 0.0))

    return {
        "protocol.reconcile_s": total("protocol.reconcile"),
        "protocol.reconcile_calls": calls("protocol.reconcile"),
        "protocol.reconcile_p50_ms": pct(50),
        "protocol.reconcile_p99_ms": pct(99),
        "protocol.generate_s": total("protocol.generate"),
        "protocol.sample_source_s": total("protocol.sample_source"),
        "protocol.leakage_estimate_s": total("protocol.leakage_estimate"),
        "protocol.run_experiment_self_s": self_s("protocol.run_experiment"),
        "protocol.privacy_amplify_s": total("protocol.privacy_amplify"),
        "protocol.privacy_amplify_calls": calls("protocol.privacy_amplify"),
        "protocol.alice_encode_rate": rate("alice_encode_rate"),
        "protocol.bob_decode_rate": rate("bob_decode_rate"),
        "protocol.eve_match_rate": rate("eve_match_rate"),
        "gf2n.gf_mul_s": total("gf2n.gf_mul"),
        "quantize.optimize_partition_s": total("quantize.optimize_partition"),
        "quantize.partition_mi_calls": mi_calls,
        "quantize.partition_mi_ms": (1e3 * total("quantize.partition_mi")
                                     / mi_calls if mi_calls else 0.0),
        "quantize.partition_rate_s": total("quantize.partition_rate"),
        "quantize.bound_check_s": total("quantize.bound_check"),
        "optimizer.optimize_oneway_s": total("optimizer.optimize_oneway"),
        "optimizer.optimize_oneway_calls": calls("optimizer.optimize_oneway"),
        "optimizer.converged_frac": (
            sum(r.status == "converged" for r in oneway) / len(oneway)
            if oneway else 0.0),
        "binary.counterexample_solve_s": total("binary.counterexample_solve"),
        "binary.closed_form_self_s": self_s("binary.closed_form"),
        "gaussian.closed_form_s": total("gaussian.closed_form"),
        "cli.self_s": self_s("cli.main"),
    }


def measure(ops, seconds, trace, workdir, refs, spans_path=None):
    """Run passes of ``ops`` for about ``seconds``; returns the summary.

    A pass starts only if the passes so far predict it ends in time, but a
    run makes at least one pass (one untraced and one traced when
    tracing). Outputs are checked after the last pass, with nothing
    wrapped.
    """
    rec = SpanRecorder(keep_results=("optimizer.optimize_oneway",))
    walls = {False: [], True: []}
    groups = {g: [] for g in GROUPS}
    trials = sum(op.params["trials"] for op in ops if op.group == "simulate")
    trials_per_s = []
    outputs = {op.key: [] for op in ops}
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[True]) < len(walls[False])
        pass_no = len(walls[False]) + len(walls[True])
        group_s = dict.fromkeys(GROUPS, 0.0)
        if traced:
            rec.install()
        try:
            for op in ops:
                rec.run_id = f"pass{pass_no}:{op.name}"
                rc, text, elapsed = execute(op, workdir)
                group_s[op.group] += elapsed
                outputs[op.key].append((rc, text, traced))
        finally:
            rec.restore()
        walls[traced].append(sum(group_s.values()))
        if not traced:
            for g in GROUPS:
                groups[g].append(group_s[g])
            if trials:
                trials_per_s.append(trials / group_s["simulate"])
        every = walls[False] + walls[True]
        due = time.perf_counter() - start + statistics.median(every)
        if due > seconds and (walls[True] or not trace):
            break
    if spans_path:
        rec.write(spans_path)

    # a seed without frozen outputs is checked by repetition
    for op in ops:
        if refs["outputs"].get(op.key) is None and len(outputs[op.key]) < 2:
            rc, text, _ = execute(op, workdir)
            outputs[op.key].append((rc, text, False))

    attempted = failed = 0
    problems = []
    records = []
    for op in ops:
        first = outputs[op.key][0][1]
        for i, (rc, text, traced) in enumerate(outputs[op.key]):
            found = workloads.check(op, rc, text, refs)
            if text != first:
                found.append("output differs from execution 0")
            if traced and op.name == "simulate" and not found:
                records.append(json.loads(text))
            attempted += 1
            if found:
                failed += 1
                problems.append(f"{op.name} #{i}: " + "; ".join(found))

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "wall_s": walls[False],
        "traced_wall_s": walls[True],
        "group_s": groups,
        "trials_per_s": trials_per_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": len(rec.spans),
    }
    if trace:
        out["layers"] = _layer_metrics(rec, len(walls[True]), records)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="write the traced run's spans here (JSON lines)")
    args = ap.parse_args(argv)

    import numpy
    import seqkey.cli  # noqa: F401 - importing is part of set-up

    ops = workloads.build(args.workload, args.seed, args.size, args.workdir)
    refs = workloads.load_references()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    out = measure(ops, args.seconds, bool(args.trace), args.workdir, refs,
                  args.spans)
    out["numpy"] = numpy.__version__
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
