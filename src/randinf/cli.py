"""Command-line interface: CSV ingestion, subcommands, JSON/CSV output.

Exit codes: 0 success, 2 input or validation error (an ``InputError``, raised
by the library where it checks a rule or here while parsing, a ``--k`` or
``--grid-range`` COUNT past the largest array numpy can size included), 3
computation error (any other ``ValueError``, and a ``RuntimeError``,
``OSError`` or ``MemoryError``, so an array numpy can size but memory cannot
hold), 4 method-precondition
error (for example inverting a non-monotone statistic), 141 stdout closed by
its reader (128 + SIGPIPE, as for ``randinf ... | head -1``; nothing is
printed).  ``main`` maps exception types to these codes in one table,
``_EXIT_CODES``.
Numbers are serialized with 12 significant digits and infinities as the
strings "inf" / "-inf".  Identical inputs and seeds produce byte-identical
output, whatever BLAS kernel numpy picks for the CPU, except that the
Stouffer, weighted and custom combiners' weighted sums ``w @ q`` follow the
kernel's summation order.
"""

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import fields
from functools import lru_cache

import numpy as np

from . import __version__
from ._util import MAX_ARRAY_ENTRIES, SIG_DIGITS, InputError, require_level
from .combine import _CLI_NAMES, combine_functions, make_combiner
from .datasets import toy_experiment
from .design import CRD, DEFAULT_ENUMERATION_CAP, RBD, Design, _require_assignment, total_assignments
from .inversion import (
    ConfidenceInterval,
    LevelTooHighError,
    NonMonotoneStatisticError,
    _proposed_interval,
    _require_invertible,
    _traditional_interval,
    build_step_function,
    build_step_functions,
)
from .mcplan import required_k, threshold_table
from .randomization import ONE_SIDED, ExactMode, MCMode, PValueKind, _p_value_grid, p_values
from .simulate import ScenarioConfig, balanced_design, run_scenario
from .statistics import ObservedData, get_statistic, observed_statistic

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_PRECONDITION = 4
EXIT_BROKEN_PIPE = 141

# the exit code of each failure: the first row whose types match decides, so
# the refused statistics and levels (ValueErrors) come before the input errors
# and those before every other ValueError
_EXIT_CODES = (
    ((NonMonotoneStatisticError, LevelTooHighError), EXIT_PRECONDITION),
    ((InputError,), EXIT_INPUT),
    ((ValueError, RuntimeError, OSError, MemoryError), EXIT_COMPUTE),
)

# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _num(x):
    """12-significant-digit JSON-safe number; infinities become strings."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x != x:
        raise RuntimeError("refusing to serialize NaN")  # a computation fault: exit 3
    return float(f"{x:.{SIG_DIGITS}g}")


def _dump(obj, as_json: bool):
    out = sys.stdout
    if as_json:
        json.dump(obj, out, indent=2)
        out.write("\n")
    else:
        _dump_text(obj, out)


def _dump_text(obj, out, indent=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)):
                out.write(f"{indent}{key}:\n")
                _dump_text(val, out, indent + "  ")
            else:
                out.write(f"{indent}{key}: {val}\n")
    elif isinstance(obj, list):
        for val in obj:
            _dump_text(val, out, indent)
    else:
        out.write(f"{indent}{obj}\n")


def _interval_dict(ci: ConfidenceInterval):
    d = {
        "lower": _num(ci.lower),
        "upper": _num(ci.upper),
        "alpha1": _num(ci.alpha1),
        "alpha2": _num(ci.alpha2),
        "method": ci.method,
        "statistic": ci.statistic,
    }
    d.update(_mode_dict(ci.mode))
    return d


def _mode_dict(mode, k_field: str = "k"):
    if isinstance(mode, MCMode):
        return {"mode": "mc", k_field: mode.k, "seed": mode.seed}
    return {"mode": "exact"}


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def parse_design(text: str) -> Design:
    """``crd:N,N1`` or ``rbd:SIZE/TREATED,SIZE/TREATED,...``"""
    try:
        kind, _, body = text.partition(":")
        if kind == "crd":
            n, n1 = (int(v) for v in body.split(","))
            return CRD(n, n1)
        if kind == "rbd":
            blocks = tuple(tuple(int(v) for v in blk.split("/")) for blk in body.split(","))
            return RBD(blocks)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad design {text!r}: {exc}") from exc
    raise InputError(f"bad design {text!r}: expected crd:N,N1 or rbd:SIZE/TREATED,...")


def read_experiment(path, design: Design) -> ObservedData:
    """Load a unit_id,w,y[,block] CSV and validate it against the design."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise InputError(f"{path}: empty file")
            cols = set(reader.fieldnames)
            if not {"unit_id", "w", "y"} <= cols:
                raise InputError(f"{path}: header must contain unit_id,w,y (got {sorted(cols)})")
            has_block = "block" in cols
            w, y, blocks = [], [], []
            for lineno, row in enumerate(reader, start=2):
                if row["w"] not in ("0", "1"):
                    raise InputError(f"{path}:{lineno}: w must be 0 or 1, got {row['w']!r}")
                w.append(int(row["w"]))
                try:
                    val = float(row["y"])
                except (TypeError, ValueError):  # a short row leaves y None
                    raise InputError(f"{path}:{lineno}: bad outcome {row['y']!r}") from None
                if not math.isfinite(val):
                    raise InputError(f"{path}:{lineno}: outcome must be finite")
                y.append(val)
                if has_block:
                    blocks.append(row["block"])
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

    if isinstance(design, RBD) and not has_block:
        raise InputError(f"{path}: blocked design declared but no block column")
    if isinstance(design, CRD) and has_block:
        raise InputError(f"{path}: block column present but design is not blocked")
    if has_block:
        order = {}
        block_ids = np.array([order.setdefault(b, len(order)) for b in blocks])
        sizes = np.bincount(block_ids)
        if len(sizes) != len(design.blocks):
            raise InputError(f"{path}: {len(sizes)} blocks in file, {len(design.blocks)} declared")
        start = 0
        for idx, (size, _) in enumerate(design.blocks):
            sel = block_ids == idx
            if int(sel.sum()) != size:
                raise InputError(f"{path}: block {idx} has {int(sel.sum())} units, declared {size}")
            if not np.all(np.nonzero(sel)[0] == np.arange(start, start + size)):
                raise InputError(f"{path}: block {idx} rows must be contiguous and ordered")
            start += size
    w_arr = np.array(w, dtype=np.int8)
    try:
        _require_assignment(design, w_arr)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return ObservedData(w_obs=w_arr, y_obs=np.array(y))


def _mode_from_args(args) -> ExactMode | MCMode:
    if args.mode == "exact":
        return ExactMode(args.cap)
    k = args.k
    if k is None:
        if args.epsilon is None:
            raise InputError("mc mode needs --k or --epsilon (with optional --delta)")
        k = required_k(args.epsilon, args.delta)
    return MCMode(k, args.seed)


def _add_common(p):
    p.add_argument("--statistic", default="diff_means", help="registered statistic name")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--k", type=int, default=None, help="Monte Carlo draws")
    p.add_argument("--epsilon", type=float, default=None, help="sup-norm error target")
    p.add_argument("--delta", type=float, default=0.01, help="probability budget for epsilon")
    p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="exact-mode enumeration cap")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _experiment(args):
    """One experiment's inputs: its design, data, statistic and mode."""
    design = parse_design(args.design)
    data = read_experiment(args.file, design)
    return design, data, get_statistic(args.statistic), _mode_from_args(args)


def cmd_test(args):
    design, data, stat, mode = _experiment(args)
    pv = p_values(data, design, stat, args.theta, mode)
    out = {
        "theta": _num(args.theta),
        "T_obs": _num(observed_statistic(stat, data)),
        **{f"p_{kind.value}": _num(pv[kind]) for kind in ONE_SIDED},
        "p_two_sided": _num(pv[PValueKind.TWO_SIDED_L]),
        "statistic": stat.name,
    }
    out.update(_mode_dict(mode, k_field="K"))
    _dump(out, args.json)


def cmd_pcurve(args):
    design, data, stat, mode = _experiment(args)
    kind = PValueKind(args.side)
    head = {"side": kind.value}
    if args.exact_breakpoints:
        f = build_step_function(data, design, stat, kind, mode)
        head["base"] = _num(f.base)
        header = ("breakpoint", "value_at")
        points = zip(f.breakpoints, np.atleast_1d(f.value(f.breakpoints)))
    else:
        header = ("theta", "p")
        grid = _parse_grid(args)
        points = [(t, p[kind]) for t, p in zip(grid, _p_value_grid(data, design, stat, grid, mode))]
    rows = [dict(zip(header, map(_num, point))) for point in points]
    if args.json:
        _dump({**head, "points": rows, **_mode_dict(mode)}, True)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(map(str, row.values())))


def _floats(text: str, flag: str) -> list:
    """A comma-separated list of finite numbers; anything else is an input error."""
    try:
        values = [float(v) for v in text.split(",")]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise InputError(f"{flag} needs comma-separated finite numbers, got {text!r}")


def _parse_grid(args):
    if args.grid:
        return _floats(args.grid, "--grid")
    if args.grid_range:
        bounds = _floats(args.grid_range, "--grid-range")
        if len(bounds) != 3 or not bounds[2].is_integer() or bounds[2] < 1:
            raise InputError(f"--grid-range needs LO,HI,COUNT with an integer COUNT >= 1, "
                             f"got {args.grid_range!r}")
        lo, hi, count = bounds
        if count > MAX_ARRAY_ENTRIES:
            raise InputError(f"--grid-range COUNT must be at most {MAX_ARRAY_ENTRIES}, the most "
                             f"thetas numpy can size an array of, got {args.grid_range!r}")
        return np.linspace(lo, hi, int(count)).tolist()
    raise InputError("pcurve needs --grid, --grid-range, or --exact-breakpoints")


def cmd_invert(args):
    design, data, stat, mode = _experiment(args)
    if args.alpha1 is None or args.alpha2 is None:
        require_level(args.alpha, "--alpha")  # before it is halved
    alpha1, alpha2 = (args.alpha / 2 if level is None else level for level in (args.alpha1, args.alpha2))
    _require_invertible(stat, alpha1=alpha1, alpha2=alpha2)
    fs = build_step_functions(data, design, stat, mode)
    out = {"proposed": _interval_dict(_proposed_interval(fs, alpha1, alpha2))}
    if args.traditional:
        grid = _floats(args.grid, "--grid") if args.grid else None
        tr = _traditional_interval(fs[PValueKind.LPLUS], alpha1 + alpha2, grid)
        out["traditional"] = _interval_dict(tr)
    _dump(out, args.json)


def cmd_combine(args):
    if len(args.files) != len(args.designs.split(";")):
        raise InputError("need one design per file, separated by ';'")
    designs = [parse_design(t) for t in args.designs.split(";")]
    experiments = [(read_experiment(f, d), d) for f, d in zip(args.files, designs)]
    stat = get_statistic(args.statistic)
    mode = _mode_from_args(args)
    weights = _floats(args.weights, "--weights") if args.weights else None
    combiner = make_combiner(args.combiner, weights)
    combiner.resolved_weights(len(args.files))
    _require_invertible(stat, alpha=args.alpha)
    half = args.alpha / 2
    fss = [build_step_functions(data, design, stat, mode) for data, design in experiments]
    out = {
        "combined": _interval_dict(_proposed_interval(combine_functions(fss, combiner), half, half)),
        "combiner": args.combiner,
        "experiments": [
            dict(_interval_dict(_proposed_interval(fs, half, half)), file=path, n_units=design.n_units)
            for fs, path, design in zip(fss, args.files, designs)
        ],
    }
    _dump(out, args.json)


def cmd_mc_threshold(args):
    eps = _floats(args.epsilons, "--epsilons")
    rows = threshold_table(eps, args.delta)
    if args.json:
        _dump({"delta": _num(args.delta),
               "rows": [{"epsilon": _num(e), "k_threshold": k} for e, k in rows]}, True)
    else:
        print(f"{'epsilon':>10} {'K_threshold':>12}")
        for e, k in rows:
            print(f"{e:>10g} {k:>12d}")


# a scenario file must set the designs' block counts and sizes, and may set
# the other ScenarioConfig fields by name; a field left out keeps its default
_DESIGN_KEYS = ("b1", "k1", "b2", "k2")
_SCENARIO_FIELDS = [f.name for f in fields(ScenarioConfig) if f.name not in ("design1", "design2")]


def cmd_simulate(args):
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{args.config}: the scenario must be a JSON object")
    if missing := [key for key in _DESIGN_KEYS if key not in raw]:
        raise InputError(f"{args.config}: the scenario needs {', '.join(missing)}")
    if unknown := sorted(set(raw) - {*_DESIGN_KEYS, *_SCENARIO_FIELDS}):
        raise InputError(f"{args.config}: unknown scenario keys {', '.join(unknown)}")
    try:
        cfg = ScenarioConfig(
            design1=balanced_design(raw["b1"], raw["k1"]),
            design2=balanced_design(raw["b2"], raw["k2"]),
            **{key: raw[key] for key in _SCENARIO_FIELDS if key in raw},
        )
    except InputError as exc:
        raise InputError(f"{args.config}: {exc}") from exc
    result = run_scenario(cfg)
    if args.json:
        payload = {
            "scenario": {k: raw[k] for k in _DESIGN_KEYS},
            "reps": cfg.reps, "k_cap": cfg.k_cap, "alpha": _num(cfg.alpha),
            "master_seed": cfg.master_seed,
            "arms": {
                name: {"coverage": _num(arm.coverage),
                       "width_mean": _num(arm.width_mean),
                       "width_sd": _num(arm.width_sd)}
                for name, arm in result.arms.items()
            },
        }
        _dump(payload, True)
    else:
        print(result.summary_table())


def cmd_toy(args):
    data, design = toy_experiment()
    stat = get_statistic("diff_means")
    thetas = [-3.0, -1.0, 0.0, 1.0, 3.0]
    pvals = [p[PValueKind.LPLUS] for p in _p_value_grid(data, design, stat, thetas)]
    fs = build_step_functions(data, design, stat)
    ci = _proposed_interval(fs, 0.025, 0.025)
    tr = _traditional_interval(fs[PValueKind.LPLUS], 0.05, theta_grid=thetas)
    if args.json:
        out = {
            "data": {
                "w_obs": data.w_obs.tolist(),
                "y_obs": [_num(v) for v in data.y_obs],
            },
            "design": {"n_units": design.n_units, "n_treated": design.n_treated,
                       "assignments": total_assignments(design)},
            "T_obs": _num(observed_statistic(stat, data)),
            "p_Lplus": {f"{t:g}": _num(p) for t, p in zip(thetas, pvals)},
            "proposed_interval": _interval_dict(ci),
            "traditional_interval_on_grid": _interval_dict(tr),
        }
        _dump(out, True)
        return
    print("unit_id  w  y_obs")
    for i, (w, y) in enumerate(zip(data.w_obs, data.y_obs), start=1):
        print(f"{i:>7d}  {w}  {y:>5.2f}")
    print(f"\nbalanced design, {design.n_treated} of {design.n_units} treated: "
          f"{total_assignments(design)} assignments, exact enumeration")
    print(f"T_obs (difference of means) = {observed_statistic(stat, data):.3f}")
    print("\n  theta   p_Lplus")
    for t, p in zip(thetas, pvals):
        print(f"{t:>7g}   {p:.3f}")
    print(f"\nproposed 95% interval: [{_num(ci.lower)}, {_num(ci.upper)})")
    print(f"traditional interval on the theta grid: [{_num(tr.lower)}, {_num(tr.upper)})")


# argparse reads an argument that starts with "-" as an option unless it
# matches the parser's negative-number pattern, one number by default; the
# grid flags take comma-separated lists, so their parsers accept such lists
_NUMBER = r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
_NEGATIVE_NUMBER_LIST = re.compile(rf"^(?=-){_NUMBER}(,{_NUMBER})*$")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="randinf",
        description="Randomization inference: exact and Monte Carlo p-value functions, "
                    "guaranteed-coverage intervals, and combination across experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="all five p-values of the constant-effect null at one theta")
    p.add_argument("file")
    p.add_argument("--design", required=True)
    p.add_argument("--theta", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("pcurve", help="dump a p-value curve: grid values or exact breakpoints")
    p.add_argument("file")
    p.add_argument("--design", required=True)
    p.add_argument("--side", default=PValueKind.LPLUS.value, choices=[k.value for k in ONE_SIDED])
    p.add_argument("--grid", default=None, help="comma-separated theta values")
    p.add_argument("--grid-range", default=None, help="LO,HI,COUNT")
    p.add_argument("--exact-breakpoints", action="store_true")
    p._negative_number_matcher = _NEGATIVE_NUMBER_LIST
    _add_common(p)

    p = sub.add_parser("invert", help="guaranteed-coverage interval for the constant effect")
    p.add_argument("file")
    p.add_argument("--design", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--alpha1", type=float, default=None)
    p.add_argument("--alpha2", type=float, default=None)
    p.add_argument("--traditional", action="store_true",
                   help="also report the two-crossing interval (no coverage guarantee)")
    p.add_argument("--grid", default=None,
                   help="theta grid for the traditional comparison interval")
    p._negative_number_matcher = _NEGATIVE_NUMBER_LIST
    _add_common(p)

    p = sub.add_parser("combine", help="fuse experiments into one combined interval")
    p.add_argument("files", nargs="+")
    p.add_argument("--designs", required=True, help="one design per file, ';'-separated")
    p.add_argument("--combiner", default="fisher", choices=tuple(_CLI_NAMES))
    p.add_argument("--weights", default=None, help="comma-separated non-negative weights")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)

    p = sub.add_parser("mc-threshold", help="Monte Carlo sample sizes for accuracy targets")
    p.add_argument("--epsilons", default="0.1,0.05,0.02,0.01,0.005,0.002,0.001")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", help="run a two-experiment coverage/width scenario")
    p.add_argument("config", help="JSON scenario file (b1,k1,b2,k2,reps,...)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("toy", help="the ten-unit worked example end to end")
    p.add_argument("--json", action="store_true")

    return parser


@lru_cache(maxsize=1)
def _parser():
    """The argument parser, built once per process and shared by every ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a wrapper put on a ``cmd_*`` function after
    # the parser was built is the one called
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone; what is still buffered goes to devnull,
        # so the interpreter's flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _EXIT_CODES[-1][0] as exc:  # the other rows hold ValueErrors only
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
