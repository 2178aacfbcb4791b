"""Command-line front end: capacity curves, the counterexample report,
quantization sweeps, the test-channel optimizer, and protocol simulation.

Curves are CSV with units-tagged headers (a column is _bits or _nats,
never a mixture); experiments are JSON lines, one record per run, with
sorted keys so a fixed seed yields byte-identical files. Wall time is
recorded only under --timing, which is exactly the field that would
break reproducibility otherwise.

Simulate configs are plain ``key = value`` lines, ``#`` starts a
comment. Keys::

    p        X -> Y crossover probability        (float, required)
    q        Y -> Z crossover probability        (float, required)
    prior    P[X = 1]                            (float, default 0.5)
    n        symbols per reconciliation block    (int, required)
    m        blocks hashed into one key          (int, required)
    k        key length in bits                  (int, required)
    epsilon  typicality slack                    (float, default 0.15)
    trials   Monte-Carlo repetitions             (int, required)
    seed     master seed                         (int, required unless --seed)
    decoder  typicality | ml                     (default typicality)
    u_beta   U = X through BSC(u_beta)           (float, default exact copy)
    r_u      codebook rate override, bits/symbol (float, optional)
    r_u_prime  bin rate override, bits/symbol    (float, with r_u)

Rates are designed from the source and epsilon when the overrides are
absent; an under-rate override drives P_e above 1/2 and the emitted
record flags it.
"""

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from seqkey import __version__
from seqkey.binary import (
    AsymBinarySource,
    BscCascadeSource,
    capacity_curves,
    counterexample_solve,
)
from seqkey.errors import ConvergenceError, InfeasibleError, ParameterError
from seqkey.gaussian import GaussianSource, c_rec_gauss, c_wsk_gauss, sigma0
from seqkey.measures import LN2, check_int
from seqkey.optimizer import OptimizerOptions, TestChannel, optimize_oneway
from seqkey.protocol import ProtocolParams, Rates, run_experiment
from seqkey.quantize import bound_check, optimize_partition, partition_rate

# defaults of the reference counterexample source
COUNTEREXAMPLE_DEFAULTS = dict(p=0.23, beta1=0.01, beta2=0.03,
                               gamma1=0.03, gamma2=0.01)
GAP_TOL = 1e-6


# ------------------------------------------------------------ plumbing

def parse_grid(spec):
    """Parse ``linear:start:stop:points`` or ``log:start:stop:points``."""
    parts = str(spec).split(":")
    if len(parts) != 4:
        raise ParameterError(
            f"grid must be kind:start:stop:points, got {spec!r}")
    kind = parts[0]
    if kind not in ("linear", "log"):
        raise ParameterError(f"grid kind must be linear or log, got {kind!r}")
    try:
        start, stop = float(parts[1]), float(parts[2])
        points = int(parts[3])
    except ValueError as exc:
        raise ParameterError(f"grid {spec!r}: {exc}") from None
    check_int(points, "grid points", 2)
    for name, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise ParameterError(f"grid {name} must be finite, got {value!r}")
    if not start < stop:
        raise ParameterError(
            f"grid start must be below stop, got {start!r} >= {stop!r}")
    if kind == "log":
        if start <= 0.0:
            raise ParameterError("log grid needs a positive start")
        return np.logspace(math.log10(start), math.log10(stop), points)
    return np.linspace(start, stop, points)


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def curve_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ParameterError(
                f"row width {len(row)} does not match header {len(header)}")
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def read_curve(path):
    """Read back an emitted CSV as (header, rows of floats)."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ParameterError(f"{path}: empty curve file")
    header = lines[0].split(",")
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise ParameterError(f"{path}: ragged row {row!r}")
    return header, rows


def record_text(command, params, results, seed=None, wall=None):
    rec = {"command": command, "version": __version__,
           "params": params, "results": results}
    if seed is not None:
        rec["seed"] = int(seed)
    if wall is not None:
        rec["wall_time_s"] = float(wall)
    return json.dumps(rec, sort_keys=True) + "\n"


def read_records(path):
    """Read back an emitted JSON-lines file as a list of dicts."""
    out = []
    for ln in Path(path).read_text().splitlines():
        if ln.strip():
            out.append(json.loads(ln))
    return out


def _emit(text, path):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------ capacity

def cmd_capacity_binary(args):
    # the erasure bound never consults q; bec fixes it at the blind value
    bec = args.model == "bec"
    src = BscCascadeSource(args.p, 0.5 if bec else args.q, prior=args.prior)
    grid = parse_grid(args.r1)
    rec, wsk, beta = capacity_curves(src, grid,
                                     args.erasure if bec else None)
    rows = list(zip(grid, rec, wsk, beta))
    _emit(curve_text(("r1_bits", "c_rec_bits", "c_wsk_bits", "beta0"), rows),
          args.output)
    return 0


def cmd_capacity_gauss(args):
    src = GaussianSource(rho_xy=args.rho_xy, rho_yz=args.rho_yz,
                         rho_xz=args.rho_xz, sigma_x=args.sigma_x)
    if not (args.extrapolate or src.is_degraded()):
        raise ParameterError(
            "correlation triple is not degraded; pass --extrapolate to "
            "evaluate the closed form anyway")
    grid = parse_grid(args.r1)

    def point(r1):
        rec = c_rec_gauss(src, r1)
        wsk = c_wsk_gauss(src, r1, extrapolate=args.extrapolate)
        s0 = sigma0(src, r1) if r1 > 0.0 else math.inf
        return (r1, rec, wsk, rec / LN2, wsk / LN2, s0)

    rows = [point(r1) for r1 in grid]
    header = ("r1_nats", "c_rec_nats", "c_wsk_nats",
              "c_rec_bits", "c_wsk_bits", "sigma0")
    _emit(curve_text(header, rows), args.output)
    return 0


# ------------------------------------------------------------ counterexample

def cmd_counterexample(args):
    src = AsymBinarySource(p=args.p, beta1=args.beta1, beta2=args.beta2,
                           gamma1=args.gamma1, gamma2=args.gamma2)
    r1 = src.h_x_given_y() / 3.0 if args.r1 is None else args.r1
    rep = counterexample_solve(src, r1, grid=args.grid)
    gap = rep.relative_loss > GAP_TOL
    results = {
        "r1_bits": float(rep.r1),
        "c_wsk_bits": float(rep.c_wsk),
        "key_rate_at_rec_bits": float(rep.key_rate_at_rec),
        "c_rec_bits": float(rep.c_rec),
        "relative_loss": float(rep.relative_loss),
        "wsk_alpha1": float(rep.wsk_pair.alpha1),
        "wsk_alpha2": float(rep.wsk_pair.alpha2),
        "rec_alpha1": float(rep.rec_pair.alpha1),
        "rec_alpha2": float(rep.rec_pair.alpha2),
        "constraint_residual": float(rep.constraint_residual),
        "gap_confirmed": bool(gap),
    }
    for key, value in results.items():
        if key not in ("constraint_residual", "gap_confirmed"):
            print(f"{key} = {value!r}")
    print("gap confirmed" if gap else "no gap")
    if args.output:
        params = dict(p=args.p, beta1=args.beta1, beta2=args.beta2,
                      gamma1=args.gamma1, gamma2=args.gamma2,
                      r1_bits=r1, grid=args.grid)
        _emit(record_text("counterexample", params, results), args.output)
    return 0 if gap else 1


# ------------------------------------------------------------ quantize

def cmd_quantize_uniform(args):
    src = GaussianSource(rho_xy=args.rho_xy, sigma_x=args.sigma_x)
    if args.r1 is None:
        # the bound lives above h(X|Y); default to a decade above it and
        # above h(X|Y) - ln sigma_x, so that delta = e^(h(X|Y) - r1) stays
        # below sigma_x, and above 0, as h(X|Y) < 0 for a tight pair
        from seqkey.gaussian import h_x_given_y
        h = h_x_given_y(src)
        grid = max(h, h - math.log(src.sigma_x), 0.0) + np.logspace(
            math.log10(0.03), math.log10(3.0), 10)
    else:
        grid = parse_grid(args.r1)
    rep = bound_check(src, grid)
    # the clipped gap: quadrature dust on a provably nonnegative quantity
    # is floored so the column stays log-plottable
    rows = list(zip(rep.r1, rep.delta, rep.mi, rep.gap_clipped, rep.bound))
    header = ("r1_nats", "delta", "mi_nats", "gap_nats", "bound_nats")
    _emit(curve_text(header, rows), args.output)
    return 0


def cmd_quantize_partition(args):
    src = GaussianSource(rho_xy=args.rho_xy, sigma_x=args.sigma_x)
    l_min = check_int(args.l_min, "l_min", 2, 15)
    check_int(args.l_max, "l_max", l_min, 15)

    def point(cells):
        part, mi = optimize_partition(src, cells)
        return (cells, mi, partition_rate(src, part))

    rows = [point(cells) for cells in range(args.l_min, args.l_max + 1)]
    header = ("cells", "mi_nats", "implied_rate_nats")
    _emit(curve_text(header, rows), args.output)
    return 0


# ------------------------------------------------------------ simulate

_CONFIG_SCHEMA = {
    "p": (float, True), "q": (float, True), "prior": (float, False),
    "n": (int, True), "m": (int, True), "k": (int, True),
    "epsilon": (float, False), "trials": (int, True), "seed": (int, False),
    "decoder": (str, False), "u_beta": (float, False),
    "r_u": (float, False), "r_u_prime": (float, False),
}


def read_config(path):
    """Parse a ``key = value`` config file against the simulate schema."""
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"{path}: {exc.strerror or exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_SCHEMA:
            raise ParameterError(f"{path}: {key}: unknown key")
        if key in cfg:
            raise ParameterError(f"{path}: {key}: duplicate key")
        typ = _CONFIG_SCHEMA[key][0]
        if typ is str:
            cfg[key] = value
        else:
            try:
                cfg[key] = typ(value)
            except ValueError:
                raise ParameterError(
                    f"{path}: {key}: expected {typ.__name__}, "
                    f"got {value!r}") from None
    for key, (_, required) in _CONFIG_SCHEMA.items():
        if required and key not in cfg:
            raise ParameterError(f"{path}: {key}: missing required key")
    return cfg


def demo_config_path():
    return str(Path(__file__).parent / "demo_simulate.cfg")


def cmd_simulate(args):
    path = demo_config_path() if args.demo else args.config
    cfg = read_config(path)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if "seed" not in cfg:
        raise ParameterError(f"{path}: seed: missing (or pass --seed)")
    src = BscCascadeSource(cfg["p"], cfg["q"], prior=cfg.get("prior", 0.5))
    tc = (TestChannel.bsc(cfg["u_beta"]) if "u_beta" in cfg
          else TestChannel.identity(2))
    if ("r_u" in cfg) != ("r_u_prime" in cfg):
        raise ParameterError(f"{path}: r_u and r_u_prime go together")
    eps = cfg.get("epsilon", 0.15)
    rates = None
    if "r_u" in cfg:
        rates = Rates(r_u=cfg["r_u"], r_u_prime=cfg["r_u_prime"])
    params = ProtocolParams(n=cfg["n"], m=cfg["m"], k=cfg["k"],
                            epsilon=eps, trials=cfg["trials"],
                            seed=cfg["seed"],
                            decoder=cfg.get("decoder", "typicality"),
                            rates=rates)
    start = time.monotonic()
    mets = run_experiment(src.joint(), tc, params)
    wall = time.monotonic() - start if args.timing else None
    results = {
        "p_e": mets.p_e,
        "leakage_bits": mets.leakage_est,
        "leakage_bias_bits": mets.leakage_bias,
        "leakage_null_sd_bits": mets.leakage_null_sd,
        "uniformity_bits": mets.uniformity_est,
        "hash_input_bits": mets.n_bits,
        "trials": mets.trials,
        "alice_encode_rate": mets.alice_encode_rate,
        "bob_decode_rate": mets.bob_decode_rate,
        "eve_match_rate": mets.eve_match_rate,
        "under_rate_flag": bool(mets.p_e > 0.5),
    }
    text = record_text("simulate", cfg, results, seed=cfg["seed"], wall=wall)
    _emit(text, args.output)
    return 0


# ------------------------------------------------------------ optimize

def cmd_optimize(args):
    src = BscCascadeSource(args.p, args.q, prior=args.prior)
    opts = OptimizerOptions(starts=args.starts, seed=args.seed)
    res = optimize_oneway(src.joint(), args.r1, objective=args.objective,
                          opts=opts)
    results = {
        "value_bits": res.value,
        "rate_used_bits": res.rate_used,
        "constraint_residual": res.constraint_residual,
        "status": res.status,
        "method": res.method,
        "channel": [list(map(float, row)) for row in res.channel.rows],
    }
    params = dict(p=args.p, q=args.q, prior=args.prior, r1_bits=args.r1,
                  objective=args.objective, u_size=res.channel.u_size,
                  starts=args.starts)
    _emit(record_text("optimize", params, results, seed=args.seed),
          args.output)
    return 0


# ------------------------------------------------------------ parser

def _add_common(sub):
    sub.add_argument("-o", "--output", default=None,
                     help="write to this file instead of stdout")


@functools.cache
def build_parser():
    """The seqkey parser, built once per process: parsing leaves it
    unchanged. Built per call, it cost milliseconds a command, and each
    parser became reference-cycle garbage that waited for a full
    collection."""
    top = argparse.ArgumentParser(
        prog="seqkey",
        description="rate-limited secret-key capacities and a desk-scale "
                    "key-distillation simulator")
    top.add_argument("--version", action="version",
                     version=f"seqkey {__version__}")
    cmds = top.add_subparsers(dest="command", required=True)

    cap = cmds.add_parser("capacity", help="capacity curves as CSV")
    models = cap.add_subparsers(dest="model", required=True)

    bsc = models.add_parser("bsc", help="BSC cascade closed forms")
    bsc.add_argument("--p", type=float, required=True)
    bsc.add_argument("--q", type=float, required=True)
    bsc.add_argument("--prior", type=float, default=0.5)
    bsc.add_argument("--r1", required=True, metavar="KIND:START:STOP:N",
                     help="rate grid in bits, e.g. linear:0.02:0.6:20")
    _add_common(bsc)
    bsc.set_defaults(func=cmd_capacity_binary)

    bec = models.add_parser("bec", help="eavesdropper behind an erasure")
    bec.add_argument("--p", type=float, required=True)
    bec.add_argument("--erasure", type=float, required=True)
    bec.add_argument("--prior", type=float, default=0.5)
    bec.add_argument("--r1", required=True, metavar="KIND:START:STOP:N")
    _add_common(bec)
    bec.set_defaults(func=cmd_capacity_binary)

    gauss = models.add_parser("gauss", help="degraded Gaussian closed forms")
    gauss.add_argument("--rho-xy", type=float, required=True)
    gauss.add_argument("--rho-yz", type=float, default=0.0)
    gauss.add_argument("--rho-xz", type=float, default=None)
    gauss.add_argument("--sigma-x", type=float, default=1.0)
    gauss.add_argument("--extrapolate", action="store_true",
                       help="evaluate the formula on non-degraded triples")
    gauss.add_argument("--r1", required=True, metavar="KIND:START:STOP:N",
                       help="rate grid in nats")
    _add_common(gauss)
    gauss.set_defaults(func=cmd_capacity_gauss)

    ce = cmds.add_parser(
        "counterexample",
        help="the constrained-optima gap report (exit 1 when no gap)")
    for key, dflt in COUNTEREXAMPLE_DEFAULTS.items():
        ce.add_argument(f"--{key}", type=float, default=dflt)
    ce.add_argument("--r1", type=float, default=None,
                    help="rate in bits (default H(X|Y)/3)")
    ce.add_argument("--grid", type=int, default=512)
    ce.add_argument("-o", "--output", default=None,
                    help="also write a JSON record here")
    ce.set_defaults(func=cmd_counterexample)

    quant = cmds.add_parser("quantize", help="scalar quantization sweeps")
    modes = quant.add_subparsers(dest="mode", required=True)

    uni = modes.add_parser("uniform", help="uniform-grid gap vs bound")
    uni.add_argument("--rho-xy", type=float, required=True)
    uni.add_argument("--sigma-x", type=float, default=1.0)
    uni.add_argument("--r1", default=None, metavar="KIND:START:STOP:N",
                     help="rate grid in nats, each point above h(X|Y) "
                          "(default: a decade above h(X|Y), "
                          "h(X|Y) - ln sigma_x and 0)")
    _add_common(uni)
    uni.set_defaults(func=cmd_quantize_uniform)

    part = modes.add_parser("partition", help="optimized cells vs capacity")
    part.add_argument("--rho-xy", type=float, required=True)
    part.add_argument("--sigma-x", type=float, default=1.0)
    part.add_argument("--l-min", type=int, default=2)
    part.add_argument("--l-max", type=int, default=15)
    _add_common(part)
    part.set_defaults(func=cmd_quantize_partition)

    sim = cmds.add_parser("simulate", help="run one protocol experiment")
    sim.add_argument("config", nargs="?", default=None,
                     help="key = value config file (see module docs)")
    sim.add_argument("--demo", action="store_true",
                     help="use the bundled demo config")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.add_argument("--timing", action="store_true",
                     help="include wall_time_s in the record")
    sim.add_argument("-o", "--output", default=None)
    sim.set_defaults(func=cmd_simulate)

    opt = cmds.add_parser("optimize", help="test-channel optimizer access")
    opt.add_argument("--p", type=float, required=True)
    opt.add_argument("--q", type=float, required=True)
    opt.add_argument("--prior", type=float, default=0.5)
    opt.add_argument("--r1", type=float, required=True,
                     help="rate constraint in bits")
    opt.add_argument("--objective", choices=("rec", "wsk"), default="wsk")
    opt.add_argument("--starts", type=int, default=32)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("-o", "--output", default=None)
    opt.set_defaults(func=cmd_optimize)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate" and not args.demo and not args.config:
            raise ParameterError("simulate needs a config file or --demo")
        return args.func(args)
    except ParameterError as exc:
        print(f"seqkey: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"seqkey: infeasible: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"seqkey: did not converge: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
