"""Benchmark workloads: the CLI commands each one runs and their output checks.

Every workload is a list of operations, one ``seqkey`` CLI command each,
built from the workload seed. A pass runs every operation once; a run
repeats passes. An operation fails when the command raises, exits with an
unexpected code, or writes output that fails its check:

* ``simulate`` results must equal the frozen reference byte for byte
  (frozen for the default seed only); on every seed the rates lie in
  [0, 1], ``under_rate_flag == (p_e > 0.5)`` and ``hash_input_bits``
  equals m * n.
* A closed-form curve must stay within ``TOL`` of its frozen reference.
* A solver value must stay within ``TOL`` of the closed form where one
  exists, else no lower than the frozen optimum minus ``TOL``, and it must
  be feasible (constraint residual within ``TOL``, partition MI at most
  the unquantized Gaussian MI).
* Every execution in a run must write the same bytes as the first.

Why each workload exists, and which layer metric should move which
end-to-end metric, is recorded in ``DESIGN.md``.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 20260816
TOL = 1e-6
REFERENCES = Path(__file__).with_name("references.json")

# simulate configs; the seed and the trial count are filled per run
_SIM = {
    "sim_long_blocks": dict(p=0.1, q=0.5, prior=0.5, n=12, m=4, k=2,
                            epsilon=0.15, decoder="typicality"),
    "sim_short_blocks": dict(p=0.1, q=0.5, prior=0.5, n=8, m=8, k=4,
                             epsilon=0.15, decoder="ml"),
}
# trials per simulate command: (full, tiny)
_TRIALS = {"sim_long_blocks": (10, 2), "sim_short_blocks": (150, 10)}

RHO_XY = 0.75           # quantize uniform
RHO_PARTITION = 0.9     # quantize partition: 700 objective evaluations
CLOSED_FORM_OPTIMIZE = "c_wsk_bsc p=0.1 q=0.2 r1=0.3"

WORKLOADS = ("sim_long_blocks", "sim_short_blocks", "solver_sweep")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload."""

    name: str
    group: str        # simulate, partition, optimizer_sweep or closed_forms
    argv: tuple       # without the -o output path
    key: str          # reference key: the command with its inputs inlined
    check: object     # check(op, text, reference_text, refs) -> problems
    params: dict = field(default_factory=dict)


def _h2(p):
    return 0.0 if p in (0.0, 1.0) else -(p * math.log2(p)
                                          + (1 - p) * math.log2(1 - p))


def _csv(text):
    lines = text.splitlines()
    return lines[0].split(","), [[float(v) for v in ln.split(",")]
                                 for ln in lines[1:]]


def _close(a, b):
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= TOL


# ------------------------------------------------------------ checks

def check_simulate(op, text, ref, refs):
    res = json.loads(text)["results"]
    cfg = op.params
    problems = []
    if ref is not None and (json.dumps(res, sort_keys=True)
                            != json.dumps(json.loads(ref)["results"],
                                          sort_keys=True)):
        problems.append("results differ from the frozen reference")
    for key in ("p_e", "alice_encode_rate", "bob_decode_rate",
                "eve_match_rate"):
        if not 0.0 <= res[key] <= 1.0:
            problems.append(f"{key} = {res[key]!r} outside [0, 1]")
    if res["under_rate_flag"] != (res["p_e"] > 0.5):
        problems.append("under_rate_flag disagrees with p_e")
    if res["hash_input_bits"] != cfg["m"] * cfg["n"]:
        problems.append(f"hash_input_bits = {res['hash_input_bits']}, "
                        f"expected m*n = {cfg['m'] * cfg['n']}")
    if res["trials"] != cfg["trials"]:
        problems.append(f"trials = {res['trials']}, expected "
                        f"{cfg['trials']}")
    return problems


def check_curve(op, text, ref, refs):
    """Closed-form curve: every value within TOL of the frozen one."""
    header, rows = _csv(text)
    if ref is None:
        return ["no frozen reference for a closed-form curve"]
    ref_header, ref_rows = _csv(ref)
    if header != ref_header or len(rows) != len(ref_rows):
        return ["curve shape differs from the frozen reference"]
    bad = sum(not _close(a, b) for row, ref_row in zip(rows, ref_rows)
              for a, b in zip(row, ref_row))
    problems = [f"{bad} values off the frozen curve by more than {TOL}"] \
        if bad else []
    if op.name == "quantize_uniform":
        col = {h: i for i, h in enumerate(header)}
        gmi = -0.5 * math.log(1.0 - RHO_XY ** 2)
        for row in rows:
            if row[col["gap_nats"]] > row[col["bound_nats"]]:
                problems.append(f"gap above the bound at r1 = {row[0]!r}")
            if row[col["mi_nats"]] > gmi + TOL:
                problems.append(f"quantized MI above I(X;Y) at {row[0]!r}")
    return problems


def check_partition(op, text, ref, refs):
    header, rows = _csv(text)
    gmi = -0.5 * math.log(1.0 - RHO_PARTITION ** 2)
    problems = []
    for prev, row in zip(rows, rows[1:]):
        if row[1] <= prev[1]:
            problems.append(f"MI not increasing at {int(row[0])} cells")
    for cells, mi, rate in rows:
        if mi > gmi + TOL:
            problems.append(f"{int(cells)} cells: MI {mi!r} above the "
                            f"Gaussian MI {gmi!r}")
        if not rate > 0.0:
            problems.append(f"{int(cells)} cells: implied rate {rate!r}")
    if ref is not None:
        for row, ref_row in zip(rows, _csv(ref)[1]):
            if row[1] < ref_row[1] - TOL:
                problems.append(f"{int(row[0])} cells: MI {row[1]!r} below "
                                f"the frozen optimum {ref_row[1]!r}")
    return problems


def check_capacity_sweep(op, text, ref, refs):
    """Non-uniform prior: no closed form, so compare with the frozen optimum
    and with the bounds c_wsk <= c_rec <= I(X;Y)."""
    header, rows = _csv(text)
    p, prior = op.params["p"], op.params["prior"]
    i_xy = _h2(prior * (1 - p) + (1 - prior) * p) - _h2(p)
    problems = []
    for r1, rec, wsk, _ in rows:
        if not -TOL <= wsk <= rec + TOL <= i_xy + 2 * TOL:
            problems.append(f"r1 = {r1!r}: infeasible values "
                            f"c_rec {rec!r}, c_wsk {wsk!r}")
    if ref is not None:
        for row, ref_row in zip(rows, _csv(ref)[1]):
            for col in (1, 2):
                if row[col] < ref_row[col] - TOL:
                    problems.append(f"r1 = {row[0]!r}: {header[col]} "
                                    f"{row[col]!r} below the frozen "
                                    f"optimum {ref_row[col]!r}")
    return problems


def check_optimize(op, text, ref, refs):
    res = json.loads(text)["results"]
    closed = refs["closed_forms"][CLOSED_FORM_OPTIMIZE]
    problems = []
    if abs(res["value_bits"] - closed) > TOL:
        problems.append(f"value {res['value_bits']!r} is off the closed "
                        f"form {closed!r}")
    if abs(res["constraint_residual"]) > TOL:
        problems.append(f"constraint residual {res['constraint_residual']!r}")
    return problems


def check_counterexample(op, text, ref, refs):
    res = json.loads(text)["results"]
    problems = []
    if not res["gap_confirmed"]:
        problems.append("gap not confirmed")
    if abs(res["constraint_residual"]) > TOL:
        problems.append(f"constraint residual {res['constraint_residual']!r}")
    if res["key_rate_at_rec_bits"] > res["c_wsk_bits"] + TOL:
        problems.append("key rate at the reconciliation optimum exceeds "
                        "the WSK optimum")
    if ref is not None:
        best = json.loads(ref)["results"]["c_wsk_bits"]
        if res["c_wsk_bits"] < best - TOL:
            problems.append(f"c_wsk {res['c_wsk_bits']!r} below the frozen "
                            f"optimum {best!r}")
    return problems


# ------------------------------------------------------------ workloads

def _simulate_op(workload, seed, size, workdir):
    cfg = dict(_SIM[workload], seed=seed,
               trials=_TRIALS[workload][SIZES.index(size)])
    text = "".join(f"{k} = {v}\n" for k, v in cfg.items())
    path = Path(workdir) / f"{workload}.cfg"
    path.write_text(text)
    key = "simulate " + " ".join(f"{k}={v}" for k, v in cfg.items())
    return Op("simulate", "simulate", ("simulate", str(path)), key,
              check_simulate, params=cfg)


def _solver_ops(seed, size):
    spec = [
        ("quantize_partition", "partition", check_partition, {},
         ["quantize", "partition", "--rho-xy", str(RHO_PARTITION),
          "--l-min", "2", "--l-max", "2" if size == "tiny" else "3"]),
        ("capacity_bsc_prior", "optimizer_sweep", check_capacity_sweep,
         dict(p=0.1, prior=0.3),
         ["capacity", "bsc", "--p", "0.1", "--q", "0.2", "--prior", "0.3",
          "--r1", "linear:0.3:0.4:2"]),
        ("optimize", "optimizer_sweep", check_optimize, {},
         ["optimize", "--p", "0.1", "--q", "0.2", "--r1", "0.3",
          "--objective", "wsk", "--seed", str(seed)]),
        ("capacity_bsc", "closed_forms", check_curve, {},
         ["capacity", "bsc", "--p", "0.1", "--q", "0.2",
          "--r1", "linear:0.02:0.6:40"]),
        ("capacity_bec", "closed_forms", check_curve, {},
         ["capacity", "bec", "--p", "0.1", "--erasure", "0.3",
          "--r1", "linear:0.02:0.6:40"]),
        ("capacity_gauss", "closed_forms", check_curve, {},
         ["capacity", "gauss", "--rho-xy", "0.8", "--rho-yz", "0.4",
          "--r1", "log:0.01:3:40"]),
        ("counterexample", "closed_forms", check_counterexample, {},
         ["counterexample"]),
        ("quantize_uniform", "closed_forms", check_curve, {},
         ["quantize", "uniform", "--rho-xy", str(RHO_XY)]),
    ]
    return [Op(name, group, tuple(argv), " ".join(argv), check, params)
            for name, group, check, params, argv in spec]


def build(workload, seed, size, workdir):
    """The operations of one pass of ``workload``; writes its inputs to
    ``workdir``."""
    if workload == "solver_sweep":
        return _solver_ops(seed, size)
    return [_simulate_op(workload, seed, size, workdir)]


def load_references(path=REFERENCES):
    return json.loads(Path(path).read_text())


def check(op, rc, text, refs):
    """Problems with one execution's exit code and output; [] when it
    passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    ref = refs["outputs"].get(op.key)
    try:
        return op.check(op, text, ref, refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
