"""Workload definitions: request kinds, seeded inputs, and output checks.

A workload is a fixed cycle of request kinds.  Cycle ``c`` of a run with
workload seed ``s`` gets fresh inputs derived from ``(s, c, kind)``, so the
same seed always produces the same requests, designs repeat across cycles
and results do not.  Every request is either an in-process call of
``randinf.cli.main`` or the library audit; its output is the exact bytes the
CLI printed (or a canonical JSON rendering of the audit report).
"""

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import randinf.cli as cli_mod
import randinf.simulate as simulate_mod
from randinf import CRD, RBD, PotentialTable, generate_population, sample_assignments
from randinf.datasets import tied_discrete_population

# constant additive effect of every generated population
TRUE_THETA = 1.0


@dataclass(frozen=True)
class Kind:
    """One request kind of a workload cycle.

    ``argv`` is a CLI argument list in which ``{f0}``, ``{f1}``, ... name the
    kind's input files (one per entry of ``designs``), ``{cfg}`` a simulate
    config and ``{seed}`` a per-request Monte Carlo seed.  ``audit`` replaces
    the CLI call by ``exact_validity_audit`` on a permuted tied population.
    """

    name: str
    mode: str  # "exact" or "mc": the declared mode; "mc" requests are re-run to check repeats
    argv: tuple = ()
    designs: tuple = ()
    scenario: dict | None = None
    audit: tuple | None = None  # (population values, design)


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple
    tail_pct: int  # percentile reported as job_tail_s
    pregen_cycles: int  # cycles whose inputs are written during set-up


def _rbd(blocks: int, size: int, treated: int) -> RBD:
    return RBD(tuple((size, treated) for _ in range(blocks)))


def _rbd_arg(blocks: int, size: int, treated: int) -> str:
    return "rbd:" + ",".join([f"{size}/{treated}"] * blocks)


TIED_VALUES = tied_discrete_population().y0


def _workloads(scale: str) -> dict:
    tiny = scale == "tiny"
    # exact-enum: enumeration, big statistic matrices, closed-form inversion,
    # the weighted reference CDF; never the sampler.
    n_inv, n_test, n_pc, n_cmb = (10, 8, 8, 6) if tiny else (22, 20, 14, 12)
    audit_values = np.array([0.0, 0, 0, 1, 1, 1, 2, 2]) if tiny else TIED_VALUES
    audit_design = CRD(8, 3) if tiny else CRD(15, 5)
    exact = Workload(
        name="exact-enum",
        kinds=(
            Kind("invert", "exact", ("invert", "{f0}", "--design", f"crd:{n_inv},{n_inv // 2}",
                                     "--traditional", "--json"), (CRD(n_inv, n_inv // 2),)),
            Kind("test", "exact", ("test", "{f0}", "--design", f"crd:{n_test},{n_test // 2}",
                                   "--theta", "0.5", "--json"), (CRD(n_test, n_test // 2),)),
            Kind("pcurve", "exact", ("pcurve", "{f0}", "--design", f"crd:{n_pc},{n_pc // 2}",
                                     "--exact-breakpoints", "--statistic", "wilcoxon_rank_sum",
                                     "--json"), (CRD(n_pc, n_pc // 2),)),
            Kind("combine", "exact", ("combine", "{f0}", "{f1}", "{f2}", "--designs",
                                      ";".join([f"crd:{n_cmb},{n_cmb // 2}"] * 3),
                                      "--combiner", "fisher", "--weights", "1,2,3", "--json"),
                 (CRD(n_cmb, n_cmb // 2),) * 3),
            Kind("audit", "exact", audit=(audit_values, audit_design)),
        ),
        tail_pct=70,
        pregen_cycles=4 if tiny else 16,
    )
    # mc-large: the sampler on both of its paths (big-integer unranking above
    # 2**62, int64 below) and Wilcoxon bisection; never enumeration.
    n_big, n_cmb_mc = (70, 70) if tiny else (100, 80)
    k_big, k_rank, k_int, k_cmb = (20, 50, 200, 20) if tiny else (1000, 2000, 20000, 400)
    rb_small, rb_plan, eps = (3, 15, "0.5") if tiny else (10, 30, "0.1")
    mc = Workload(
        name="mc-large",
        kinds=(
            Kind("invert_bigint", "mc", ("invert", "{f0}", "--design", f"crd:{n_big},{n_big // 2}",
                                         "--mode", "mc", "--k", str(k_big), "--seed", "{seed}",
                                         "--json"), (CRD(n_big, n_big // 2),)),
            Kind("invert_rank", "mc", ("invert", "{f0}", "--design", _rbd_arg(rb_small, 6, 3),
                                       "--mode", "mc", "--k", str(k_rank), "--seed", "{seed}",
                                       "--statistic", "wilcoxon_rank_sum", "--json"),
                 (_rbd(rb_small, 6, 3),)),
            Kind("invert_int64", "mc", ("invert", "{f0}", "--design", _rbd_arg(rb_small, 6, 3),
                                        "--mode", "mc", "--k", str(k_int), "--seed", "{seed}",
                                        "--json"), (_rbd(rb_small, 6, 3),)),
            Kind("test_planned", "mc", ("test", "{f0}", "--design", _rbd_arg(rb_plan, 6, 3),
                                        "--theta", "0.5", "--mode", "mc", "--epsilon", eps,
                                        "--delta", "0.01", "--seed", "{seed}", "--json"),
                 (_rbd(rb_plan, 6, 3),)),
            Kind("combine_de", "mc", ("combine", "{f0}", "{f1}", "--designs",
                                      ";".join([f"crd:{n_cmb_mc},{n_cmb_mc // 2}"] * 2),
                                      "--mode", "mc", "--k", str(k_cmb), "--seed", "{seed}",
                                      "--combiner", "de", "--json"),
                 (CRD(n_cmb_mc, n_cmb_mc // 2),) * 2),
        ),
        tail_pct=70,
        pregen_cycles=4 if tiny else 16,
    )
    # scenario-small: many small step-function builds over designs that recur
    # in every repetition; 1 x 16 exceeds k_cap (Monte Carlo), 2 x 8 does not.
    base = ({"k_cap": 50, "reps": 1} if tiny else {"k_cap": 5000, "reps": 8})
    big, small = ((1, 8), (2, 4)) if tiny else ((1, 16), (2, 8))
    scenario = Workload(
        name="scenario-small",
        kinds=tuple(
            Kind(label, "mc", ("simulate", "{cfg}", "--json"),
                 scenario=dict(base, b1=a[0], k1=a[1], b2=b[0], k2=b[1], alpha=0.05,
                               combiners=["fisher", "de"]))
            for label, a, b in (("mc_first", big, small), ("exact_first", small, big))
        ),
        tail_pct=75,
        pregen_cycles=4 if tiny else 32,
    )
    return {w.name: w for w in (exact, mc, scenario)}


WORKLOADS = _workloads("full")
TINY_WORKLOADS = _workloads("tiny")


def get_workload(name: str, scale: str = "full") -> Workload:
    return (TINY_WORKLOADS if scale == "tiny" else WORKLOADS)[name]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def derived_int(*parts) -> int:
    """A 31-bit integer that depends only on ``parts`` (non-negative ints)."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint32)
    return int(state[0]) >> 1


def write_experiment(path: Path, design, seed: tuple) -> None:
    """Observed data of a fresh lognormal population under one drawn assignment."""
    pop = generate_population(design.n_units, TRUE_THETA, seed=seed + (0,))
    w = sample_assignments(design, 1, seed=seed + (1,))[0]
    data = pop.observe(w)
    blocked = isinstance(design, RBD)
    labels = [b for b, (size, _) in enumerate(design.blocks) for _ in range(size)]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["unit_id", "w", "y"] + (["block"] if blocked else []))
        for i in range(design.n_units):
            row = [i + 1, int(data.w_obs[i]), repr(float(data.y_obs[i]))]
            out.writerow(row + ([f"b{labels[i]}"] if blocked else []))


@dataclass(frozen=True)
class Request:
    id: str
    kind: Kind
    argv: tuple | None
    audit_perm: tuple | None


def make_request(workload: Workload, kind_index: int, seed: int, cycle: int,
                 workdir: Path) -> Request:
    """Write the inputs of one request and return it; same arguments, same request."""
    kind = workload.kinds[kind_index]
    rid = f"c{cycle}.{kind.name}"
    key = (seed, cycle, kind_index)
    if kind.audit is not None:
        perm = np.random.default_rng(key).permutation(kind.audit[0].size)
        return Request(rid, kind, None, tuple(int(i) for i in perm))
    fields = {"seed": str(derived_int(*key, 2))}
    for j, design in enumerate(kind.designs):
        path = workdir / f"{rid}.{j}.csv"
        write_experiment(path, design, key + (j,))
        fields[f"f{j}"] = str(path)
    if kind.scenario is not None:
        path = workdir / f"{rid}.json"
        path.write_text(json.dumps(dict(kind.scenario, master_seed=derived_int(*key, 3))))
        fields["cfg"] = str(path)
    argv = tuple(a.format(**fields) for a in kind.argv)
    return Request(rid, kind, argv, None)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _num(x) -> float | str:
    x = float(x)
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


def run_request(req: Request) -> bytes:
    """Run one request and return its output bytes; raise on a non-zero exit.

    Module attributes are looked up at call time so that a tracer's
    wrappers, when installed, are the functions that run.
    """
    if req.audit_perm is not None:
        values, design = req.kind.audit
        y = values[list(req.audit_perm)]
        rep = simulate_mod.exact_validity_audit(PotentialTable(y0=y, y1=y), design)
        payload = {
            "dominance_ok": rep.dominance_ok,
            "gamma_bound_ok": rep.gamma_bound_ok,
            "gamma_star": _num(rep.gamma_star),
            "max_shortfall": _num(rep.max_shortfall),
            "proposed_coverage": {str(a): _num(v) for a, v in rep.proposed_coverage.items()},
            "traditional_coverage": {str(a): _num(v) for a, v in rep.traditional_coverage.items()},
            "proposed_width_mean": {str(a): _num(v) for a, v in rep.proposed_width_mean.items()},
            "mode": "exact",
        }
        return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(list(req.argv))
    if code != 0:
        raise RuntimeError(f"{req.id}: exit code {code}: {err.getvalue().strip()}")
    return out.getvalue().encode()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _f(x) -> float:
    return float(x)  # "inf" / "-inf" strings parse too


def _interval_ok(d: dict, mode: str) -> list:
    errs = []
    if not _f(d["lower"]) <= _f(d["upper"]):
        errs.append(f"lower {d['lower']} > upper {d['upper']}")
    if d.get("mode") != mode:
        errs.append(f"declared mode {d.get('mode')!r}, expected {mode!r}")
    return errs


def _p_ok(name: str, p) -> list:
    return [] if 0.0 <= _f(p) <= 1.0 else [f"{name}={p} outside [0, 1]"]


def check_output(req: Request, output: bytes) -> list:
    """Zero-tolerance invariants of one output; returns a list of violations."""
    d = json.loads(output)
    mode = req.kind.mode
    if req.audit_perm is not None:
        errs = []
        if d["dominance_ok"] is not True:
            errs.append("audit dominance failed")
        if d["gamma_bound_ok"] is not True:
            errs.append("audit gamma_star bound failed")
        for alpha, cov in d["proposed_coverage"].items():
            if not _f(cov) >= 1 - float(alpha):
                errs.append(f"audit coverage {cov} < 1 - {alpha}")
        return errs
    command = req.argv[0]
    if command == "invert":
        return [e for key in ("proposed", "traditional") if key in d
                for e in _interval_ok(d[key], mode)]
    if command == "test":
        errs = [e for key, v in d.items() if key.startswith("p_") for e in _p_ok(key, v)]
        if not _f(d["p_Lplus"]) >= _f(d["p_Uplus"]):
            errs.append("p_Lplus < p_Uplus")
        if d.get("mode") != mode:
            errs.append(f"declared mode {d.get('mode')!r}, expected {mode!r}")
        return errs
    if command == "pcurve":
        pts = d["points"]
        bps = [_f(p["breakpoint"]) for p in pts]
        vals = [_f(p["value_at"]) for p in pts]
        errs = [e for v in vals for e in _p_ok("value_at", v)]
        if any(b >= a for a, b in zip(bps[1:], bps)):
            errs.append("breakpoints not strictly increasing")
        if any(b > a for a, b in zip(vals[1:], vals)):
            errs.append("Lplus values decrease")
        return errs
    if command == "combine":
        errs = _interval_ok(d["combined"], mode)
        for exp in d["experiments"]:
            errs += _interval_ok(exp, mode)
        return errs
    if command == "simulate":
        errs = []
        for arm, s in d["arms"].items():
            errs += _p_ok(f"{arm}.coverage", s["coverage"])
            if not _f(s["width_mean"]) >= 0:
                errs.append(f"{arm}: negative mean width")
        return errs
    return [f"no check for command {command!r}"]
