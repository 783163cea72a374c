"""Closed-loop runner, correctness checks and metrics for one workload run."""

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import randinf
from tracer import Tracer
from workloads import WORKLOADS, check_output, get_workload, make_request, run_request

WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_REPEATS = 3
GOLDEN_SEED = 0
# Time metrics are reported in reference seconds: a measured time scaled by
# GAUGE_REF_S over the speed gauge's local median, so that one reference
# second is the time the machine takes while the gauge reads GAUGE_REF_S.
GAUGE_REF_S = 0.015
GAUGE_WINDOW = 5  # gauge samples on each side of a request that set its speed

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "design.enumerate_s": "s", "design.sample_s": "s", "design.rows": "count",
    "design.matrix_mb_max": "MB-computed", "design.redraw_ratio": "ratio",
    "statistics.eval_s": "s", "statistics.rows_evaluated": "count",
    "statistics.evals_per_row": "ratio",
    "randomization.s": "s", "randomization.self_s": "s",
    "inversion.step_calls": "count", "inversion.step_s": "s", "inversion.self_s": "s",
    "inversion.breakpoints": "count", "inversion.invert_s": "s",
    "combine.s": "s", "combine.self_s": "s", "combine.grid_points": "count",
    "combine.reference_cdf_builds": "count",
    "simulate.scenario_s": "s", "simulate.audit_s": "s", "simulate.reps": "count",
    "cli.parse_s": "s", "cli.self_s": "s", "mcplan.k_planned": "count",
    "trace.overhead_frac": "fraction",
}


class Inputs:
    """Requests per cycle, written on first use; same seed, same requests.

    ``workdir`` is relative to the working directory, so that file names in
    the outputs (the CLI echoes them) do not depend on where a run happens.
    """

    def __init__(self, workload, seed, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self._cycles = {}

    def cycle(self, c: int) -> list:
        if c not in self._cycles:
            self._cycles[c] = [make_request(self.workload, i, self.seed, c, self.workdir)
                               for i in range(len(self.workload.kinds))]
        return self._cycles[c]


@contextlib.contextmanager
def _in_workdir(root: Path, tag: str):
    """Create a private input directory, work inside it, and remove it afterwards."""
    path = root / ".perfbench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()  # only when no other run is using it


def _set_up(name: str, seed: int, scale: str) -> Inputs:
    """Write the pre-generated inputs and warm up every request kind on tiny inputs."""
    workload = get_workload(name, scale)
    inputs = Inputs(workload, seed, Path("."))
    for c in range(workload.pregen_cycles):
        inputs.cycle(c)
    warm = Inputs(get_workload(name, "tiny"), seed, Path("warm"))
    warm.workdir.mkdir()
    for req in warm.cycle(0):
        run_request(req)
    return inputs


def setup_only(name: str, seed: int, scale: str, root: Path) -> None:
    with _in_workdir(root, f"setup-{name}-{seed}"):
        _set_up(name, seed, scale)


def gauge_sample() -> float:
    """Time one fixed piece of work that uses no randinf code.

    The host's speed drifts by tens of percent over tens of seconds, and the
    library's requests slow down with it.  Sampling this gauge between
    requests measures that drift so it can be divided out.  The work mixes
    what the requests do: interpreted Python, a numpy sort in cache, and a
    fresh 16 MB array written and read back.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    np.sort(np.random.default_rng(0).random(100_000))
    np.ones(2_000_000).sum()
    return time.perf_counter() - t0


def to_reference(times, gauge) -> list:
    """Scale each time by GAUGE_REF_S over the median of the gauge samples near it.

    ``gauge[i]`` was taken next to ``times[i]``; the median runs over the
    GAUGE_WINDOW samples on each side.
    """
    out = []
    for i, t in enumerate(times):
        local = statistics.median(gauge[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 1])
        out.append(t * GAUGE_REF_S / local)
    return out


def _time_setup_child(argv, root: Path) -> tuple:
    """Wall time of one set-up process, and the speed gauge's median around it."""
    gauge = [gauge_sample() for _ in range(GAUGE_WINDOW)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            _, err = proc.communicate(timeout=150)
        except BaseException:
            proc.terminate()  # on SIGTERM the child removes its input directory; exit waits
            raise
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {err.strip()}")
    gauge += [gauge_sample() for _ in range(GAUGE_WINDOW)]
    return elapsed, statistics.median(gauge)


def _cpu_seconds() -> float:
    """User plus system time of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_cycle(requests, tracer=None, gauge=False):
    """Run requests back to back.

    Returns outputs (None on error), and per request its latency, its CPU
    time and, when ``gauge``, a speed-gauge sample taken just before it
    (untimed); then the error messages.
    """
    outputs, latencies, cpus, gauges, errors = [], [], [], [], []
    for req in requests:
        if gauge:
            gauges.append(gauge_sample())
        if tracer is not None:
            tracer.begin_request(req.id)
        cpu0 = _cpu_seconds()
        s = time.perf_counter()
        try:
            out = run_request(req)
        except Exception:  # a failed request is counted, not fatal
            out = None
            errors.append(f"{req.id}: {traceback.format_exc()}")
        latencies.append(time.perf_counter() - s)
        cpus.append(_cpu_seconds() - cpu0)
        if tracer is not None:
            tracer.end_request()
        outputs.append(out)
    return outputs, latencies, cpus, gauges, errors


def _digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


class Checker:
    """Counts attempted and failed requests; a failure is an error or any check miss."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, requests, outputs, errors=(), reference=None):
        """Check one cycle; ``reference`` holds outputs the cycle must repeat exactly."""
        self.messages += errors
        for i, (req, out) in enumerate(zip(requests, outputs)):
            self.attempted += 1
            problems = []
            if out is None:
                problems.append("request raised")
            else:
                try:
                    problems += check_output(req, out)
                except (ValueError, KeyError, TypeError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
                want = self.golden.get(req.id)
                if want is not None and _digest(out) != want:
                    problems.append("output differs from the golden digest")
                if reference is not None and out != reference[i]:
                    problems.append("output differs from an identical earlier request")
            if problems:
                self.failed += 1
                self.messages.append(f"{req.id}: {'; '.join(problems)}")


def _load_golden(path: Path, name: str, seed: int, scale: str) -> dict:
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    if (data["workload"], data["seed"], data["scale"]) != (name, seed, scale):
        return {}
    return data["digests"]


def _percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def min_cycles(workload) -> int:
    """Cycles needed so that at least ten requests lie beyond the tail percentile."""
    need = math.ceil(10 / (1 - workload.tail_pct / 100) - 1e-9)
    return math.ceil(need / len(workload.kinds))


def run(name, seed, seconds, trace, root: Path, golden_path: Path, setup_argv, scale="full"):
    """One benchmark run; returns (result dict for the last line, info dict)."""
    workload = get_workload(name, scale)
    setup_samples = []
    if not trace:
        gauge_sample()  # the first sample of a process is cold
        setup_samples = [_time_setup_child(setup_argv, root) for _ in range(SETUP_REPEATS)]
    with _in_workdir(root, f"{name}-{seed}"):
        inputs = _set_up(name, seed, scale)
        checker = Checker(_load_golden(golden_path, name, seed, scale))
        if trace:
            metrics, info = _traced_loop(workload, inputs, seconds, checker, root, seed)
        else:
            metrics, info = _timed_loop(workload, inputs, seconds, checker)
            metrics["setup_s"] = statistics.median(t * GAUGE_REF_S / g for t, g in setup_samples)
            info["raw"]["setup_s"] = statistics.median(t for t, _ in setup_samples)
            info["setup_samples_s"] = [t for t, _ in setup_samples]
    for msg in checker.messages[:20]:
        print(f"check: {msg}", file=sys.stderr)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    info.update(workload=name, seed=seed, scale=scale, trace=int(trace),
                golden_checked=len(checker.golden) > 0, **environment())
    return result, info


def _timed_loop(workload, inputs, seconds, checker):
    lat, cpu, gauge, kinds = [], [], [], []  # per timed request, in order
    first_outputs = None
    least = min_cycles(workload)
    start = time.perf_counter()
    c = 0
    while c < least or time.perf_counter() - start < seconds:
        requests = inputs.cycle(c)
        outputs, lat_c, cpu_c, gauge_c, errors = _run_cycle(requests, gauge=True)
        checker.check(requests, outputs, errors)
        first_outputs = first_outputs or outputs
        lat += lat_c
        cpu += cpu_c
        gauge += gauge_c
        kinds += [req.kind.name for req in requests]
        c += 1
    measured = time.perf_counter() - start
    # determinism: Monte Carlo requests of the first cycle must repeat their bytes
    # (exact outputs are held to golden digests instead)
    again = [i for i, r in enumerate(inputs.cycle(0)) if r.kind.mode == "mc"]
    requests = [inputs.cycle(0)[i] for i in again]
    outputs, _, _, _, errors = _run_cycle(requests)
    checker.check(requests, outputs, errors, reference=[first_outputs[i] for i in again])

    def kind_medians(values):
        return {k: statistics.median(v for v, kk in zip(values, kinds) if kk == k)
                for k in dict.fromkeys(kinds)}

    def summary(lat, cpu):
        # wall_s and cpu_s are those of a typical cycle: the sum over request
        # kinds of each kind's median
        return {
            "wall_s": sum(kind_medians(lat).values()),
            "job_p50_s": statistics.median(lat),
            "job_tail_s": _percentile(lat, workload.tail_pct),
            "cpu_s": sum(kind_medians(cpu).values()),
        }

    ref_lat = to_reference(lat, gauge)
    metrics = summary(ref_lat, to_reference(cpu, gauge))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "cycles": c, "requests_timed": len(lat), "measured_s": measured,
        "job_tail_pct": workload.tail_pct,
        "requests_beyond_tail": sum(1 for x in ref_lat if x > metrics["job_tail_s"]),
        "gauge_ref_s": GAUGE_REF_S, "gauge_p50_s": statistics.median(gauge),
        "raw": summary(lat, cpu),
        "kind_p50_s": kind_medians(ref_lat),
        "error_rate": checker.failed / checker.attempted,
    }
    return metrics, info


def _traced_loop(workload, inputs, seconds, checker, root: Path, seed):
    tracer = Tracer()
    plain_walls, traced_walls, per_cycle = [], [], []
    start = time.perf_counter()
    c = 0
    while c < 2 or time.perf_counter() - start < seconds:
        requests = inputs.cycle(c)
        plain, lat, _, _, errors = _run_cycle(requests)
        checker.check(requests, plain, errors)
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced, tlat, _, _, errors = _run_cycle(requests, tracer)
        finally:
            tracer.uninstall()
        # the traced run must reproduce the untraced bytes exactly
        checker.check(requests, traced, errors, reference=plain)
        plain_walls.append(sum(lat))
        traced_walls.append(sum(tlat))
        per_cycle.append(tracer.layer_metrics(first_span, [r.id for r in requests]))
        c += 1
    metrics = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans_{workload.name}_{seed}.jsonl"
    tracer.write(span_file)
    info = {"cycles": c, "spans": len(tracer.spans), "span_file": str(span_file.relative_to(root)),
            "untraced_wall_s": statistics.median(plain_walls),
            "traced_wall_s": statistics.median(traced_walls),
            "error_rate": checker.failed / checker.attempted}
    return metrics, info


def record_golden(name, cycles, root: Path, path: Path, scale="full") -> None:
    """Write digests of every output of the first ``cycles`` cycles at the golden seed."""
    workload = get_workload(name, scale)
    with _in_workdir(root, f"golden-{name}"):
        inputs = Inputs(workload, GOLDEN_SEED, Path("."))
        checker = Checker({})
        digests = {}
        for c in range(cycles):
            requests = inputs.cycle(c)
            outputs, _, _, _, errors = _run_cycle(requests)
            checker.check(requests, outputs, errors)
            digests.update((r.id, _digest(o)) for r, o in zip(requests, outputs) if o is not None)
        if checker.failed:
            raise RuntimeError("refusing to record golden digests: " + "; ".join(checker.messages))
    payload = {"workload": name, "seed": GOLDEN_SEED, "scale": scale, "cycles": cycles,
               "randinf_version": randinf.__version__, "digests": digests}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "randinf": randinf.__version__,
        "machine": platform.machine(),
    }


def emit(result: dict, info: dict) -> None:
    print(json.dumps({"info": info}))
    print(json.dumps(result))
