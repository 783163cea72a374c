"""Command-line interface: CSV ingestion, subcommands, JSON/CSV output.

Exit codes: 0 success, 2 input or validation error, 3 computation error,
4 method-precondition error (for example inverting a non-monotone statistic),
141 stdout closed by its reader (128 + SIGPIPE, as for ``randinf ... | head -1``;
nothing is printed).
Numbers are serialized with 12 significant digits and infinities as the
strings "inf" / "-inf".  Identical inputs and seeds produce byte-identical
output.
"""

import argparse
import csv
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .combine import combine_functions, make_combiner
from .datasets import toy_experiment
from .design import CRD, DEFAULT_ENUMERATION_CAP, RBD, Design, EnumerationCapError
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
from .randomization import ExactMode, MCMode, PValueKind, p_values
from .simulate import ScenarioConfig, balanced_design, run_scenario
from .statistics import ObservedData, StatisticError, get_statistic, observed_statistic

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_PRECONDITION = 4
EXIT_BROKEN_PIPE = 141


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _num(x):
    """12-significant-digit JSON-safe number; infinities become strings."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x != x:
        raise ValueError("refusing to serialize NaN")
    return float(f"{x:.12g}")


def _dump(obj, as_json: bool, out=None):
    out = out or sys.stdout
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
                except ValueError:
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
    if len(w) != design.n_units:
        raise InputError(f"{path}: {len(w)} rows but design has {design.n_units} units")

    w_arr = np.array(w, dtype=np.int8)
    if isinstance(design, CRD):
        if int(w_arr.sum()) != design.n_treated:
            raise InputError(
                f"{path}: {int(w_arr.sum())} treated units but design declares {design.n_treated}"
            )
    else:
        order = {}
        block_ids = np.array([order.setdefault(b, len(order)) for b in blocks])
        sizes = np.bincount(block_ids)
        if len(sizes) != len(design.blocks):
            raise InputError(f"{path}: {len(sizes)} blocks in file, {len(design.blocks)} declared")
        start = 0
        for idx, (size, treated) in enumerate(design.blocks):
            sel = block_ids == idx
            if int(sel.sum()) != size:
                raise InputError(f"{path}: block {idx} has {int(sel.sum())} units, declared {size}")
            if int(w_arr[sel].sum()) != treated:
                raise InputError(
                    f"{path}: block {idx} has {int(w_arr[sel].sum())} treated, declared {treated}"
                )
            if not np.all(np.nonzero(sel)[0] == np.arange(start, start + size)):
                raise InputError(f"{path}: block {idx} rows must be contiguous and ordered")
            start += size
    return ObservedData(w_obs=w_arr, y_obs=np.array(y))


def _checked(validate, *values):
    """``validate(*values)``: its ValueError, bar a refused statistic, is an input error."""
    try:
        return validate(*values)
    except NonMonotoneStatisticError:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _mode_from_args(args) -> ExactMode | MCMode:
    if args.mode == "exact":
        return _checked(ExactMode, args.cap)
    k = args.k
    if k is None:
        if args.epsilon is None:
            raise InputError("mc mode needs --k or --epsilon (with optional --delta)")
        k = _checked(required_k, args.epsilon, args.delta)
    if args.seed is None:
        raise InputError("mc mode needs --seed for reproducibility")
    return _checked(MCMode, k, args.seed)


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
    if not math.isfinite(args.theta):
        raise InputError("--theta must be finite")
    design, data, stat, mode = _experiment(args)
    pv = p_values(data, design, stat, args.theta, mode)
    out = {
        "theta": _num(args.theta),
        "T_obs": _num(observed_statistic(stat, data)),
        "p_Lplus": _num(pv[PValueKind.LPLUS]),
        "p_Uplus": _num(pv[PValueKind.UPLUS]),
        "p_Lminus": _num(pv[PValueKind.LMINUS]),
        "p_Uminus": _num(pv[PValueKind.UMINUS]),
        "p_two_sided": _num(pv[PValueKind.TWO_SIDED_L]),
        "statistic": stat.name,
    }
    out.update(_mode_dict(mode, k_field="K"))
    _dump(out, args.json)


def cmd_pcurve(args):
    design, data, stat, mode = _experiment(args)
    kind = PValueKind(args.side)
    if args.exact_breakpoints:
        f = build_step_function(data, design, stat, kind, mode)
        rows = [{"breakpoint": _num(b), "value_at": _num(v)}
                for b, v in zip(f.breakpoints, np.atleast_1d(f.value(f.breakpoints)))]
        payload = {"side": kind.value, "base": _num(f.base), "points": rows}
        payload.update(_mode_dict(mode))
        if args.json:
            _dump(payload, True)
        else:
            print("breakpoint,value_at")
            for row in rows:
                print(f"{row['breakpoint']},{row['value_at']}")
        return
    grid = _parse_grid(args)
    values = [p_values(data, design, stat, t, mode)[kind] for t in grid]
    if args.json:
        payload = {"side": kind.value,
                   "points": [{"theta": _num(t), "p": _num(p)} for t, p in zip(grid, values)]}
        payload.update(_mode_dict(mode))
        _dump(payload, True)
    else:
        print("theta,p")
        for t, p in zip(grid, values):
            print(f"{_num(t)},{_num(p)}")


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
        return np.linspace(lo, hi, int(count)).tolist()
    raise InputError("pcurve needs --grid, --grid-range, or --exact-breakpoints")


def cmd_invert(args):
    design, data, stat, mode = _experiment(args)
    alpha1 = args.alpha1 if args.alpha1 is not None else args.alpha / 2
    alpha2 = args.alpha2 if args.alpha2 is not None else args.alpha / 2
    _checked(_require_invertible, stat, alpha1, alpha2)
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
    combiner = _checked(make_combiner, args.combiner, weights)
    _checked(combiner.resolved_weights, len(args.files))
    _checked(_require_invertible, stat, args.alpha)
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
    rows = _checked(threshold_table, eps, args.delta)
    if args.json:
        _dump({"delta": _num(args.delta),
               "rows": [{"epsilon": _num(e), "k_threshold": k} for e, k in rows]}, True)
    else:
        print(f"{'epsilon':>10} {'K_threshold':>12}")
        for e, k in rows:
            print(f"{e:>10g} {k:>12d}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what each optional or required scenario key must hold in the JSON config
_SCENARIO_KEYS = {
    **dict.fromkeys(("b1", "k1", "b2", "k2", "reps", "k_cap", "master_seed"), ("an integer", _is_int)),
    **dict.fromkeys(("true_theta", "alpha"), ("a number", _is_number)),
    "statistic": ("a string", lambda value: isinstance(value, str)),
    "combiners": ("a list of names",
                  lambda value: isinstance(value, list) and all(isinstance(c, str) for c in value)),
}
# the keys that set the ScenarioConfig field of their name; a key left out
# keeps the field's default
_SCENARIO_FIELDS = [key for key in _SCENARIO_KEYS if key not in ("b1", "k1", "b2", "k2")]


def cmd_simulate(args):
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{args.config}: the scenario must be a JSON object")
    for key, (what, valid) in _SCENARIO_KEYS.items():
        if key in raw and not valid(raw[key]):
            raise InputError(f"{args.config}: {key!r} must be {what}, got {raw[key]!r}")
    try:
        cfg = ScenarioConfig(
            design1=balanced_design(raw["b1"], raw["k1"]),
            design2=balanced_design(raw["b2"], raw["k2"]),
            **{key: raw[key] for key in _SCENARIO_FIELDS if key in raw},
        )
    except ValueError as exc:  # a value of the right type out of range
        raise InputError(f"{args.config}: {exc}") from exc
    result = run_scenario(cfg)
    if args.json:
        payload = {
            "scenario": {k: raw.get(k) for k in ("b1", "k1", "b2", "k2")},
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
    pvals = [p_values(data, design, stat, t)[PValueKind.LPLUS] for t in thetas]
    fs = build_step_functions(data, design, stat)
    ci = _proposed_interval(fs, 0.025, 0.025)
    tr = _traditional_interval(fs[PValueKind.LPLUS], 0.05, theta_grid=thetas)
    if args.json:
        out = {
            "data": {
                "w_obs": data.w_obs.tolist(),
                "y_obs": [_num(v) for v in data.y_obs],
            },
            "design": {"n_units": 10, "n_treated": 5, "assignments": 252},
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
    print(f"\nbalanced design, 5 of 10 treated: 252 assignments, exact enumeration")
    print(f"T_obs (difference of means) = {observed_statistic(stat, data):.3f}")
    print("\n  theta   p_Lplus")
    for t, p in zip(thetas, pvals):
        print(f"{t:>7g}   {p:.3f}")
    print(f"\nproposed 95% interval: [{_num(ci.lower)}, {_num(ci.upper)})")
    print(f"traditional interval on the theta grid: [{_num(tr.lower)}, {_num(tr.upper)})")


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
    p.add_argument("--side", default="Lplus",
                   choices=[k.value for k in PValueKind if k != PValueKind.TWO_SIDED_L])
    p.add_argument("--grid", default=None, help="comma-separated theta values")
    p.add_argument("--grid-range", default=None, help="LO,HI,COUNT")
    p.add_argument("--exact-breakpoints", action="store_true")
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
    _add_common(p)

    p = sub.add_parser("combine", help="fuse experiments into one combined interval")
    p.add_argument("files", nargs="+")
    p.add_argument("--designs", required=True, help="one design per file, ';'-separated")
    p.add_argument("--combiner", default="fisher",
                   choices=("fisher", "stouffer", "double_exponential", "de"))
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
    except (InputError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NonMonotoneStatisticError, LevelTooHighError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (StatisticError, EnumerationCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
