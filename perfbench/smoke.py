"""Smoke test of the benchmark itself, at tiny input sizes (about a minute).

Run from the repository root::

    python3 perfbench/smoke.py

Checks that:

- every workload's run prints, as its last line, exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, with every metric
  BENCHMARK.json names and its unit, end-to-end with ``--trace 0`` and
  per-layer with ``--trace 1``;
- traced and untraced runs of the same requests give identical bytes;
- a run at the golden seed passes against freshly recorded golden digests,
  and a corrupted digest is counted in ``failed`` rather than passing;
- without the library sources next to it, the benchmark exits non-zero
  without printing a result.

Exits non-zero on the first failed check.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKDIR = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(*args) -> dict:
    proc = _run(*args)
    if proc.returncode != 0:
        raise AssertionError(f"run {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = _result("--workload", workload, "--seed", "3", "--seconds", "0.1",
                          "--trace", str(trace), "--scale", "tiny")
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["failed"] == 0, (workload, trace, res)
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload, trace, sorted(set(got) ^ set(want)))
            assert all(isinstance(v["value"], float) for v in res["metrics"].values())
            print(f"ok  metrics  {workload} trace={trace}")


def check_traced_outputs_identical():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    from tracer import Tracer

    for workload in bench.WORKLOAD_NAMES:
        requests = bench.Inputs(bench.get_workload(workload, "tiny"), 5, WORKDIR).cycle(0)
        plain = bench._run_cycle(requests)[0]
        tracer = Tracer()
        tracer.install()
        try:
            traced = bench._run_cycle(requests, tracer)[0]
        finally:
            tracer.uninstall()
        assert None not in plain and plain == traced, workload
        assert tracer.spans, workload
        print(f"ok  traced == untraced  {workload} ({len(tracer.spans)} spans)")


def check_golden():
    golden = WORKDIR / "golden.json"
    proc = _run("--workload", "exact-enum", "--seed", "0", "--scale", "tiny",
                "--record-golden", "1", "--golden", str(golden))
    assert proc.returncode == 0, proc.stderr
    args = ("--workload", "exact-enum", "--seed", "0", "--seconds", "0.1", "--trace", "0",
            "--scale", "tiny", "--golden", str(golden))
    res = _result(*args)
    assert res["correct"] and res["failed"] == 0, res
    data = json.loads(golden.read_text())
    first = sorted(data["digests"])[0]
    data["digests"][first] = "0" * 64
    golden.write_text(json.dumps(data))
    res = _result(*args)
    assert not res["correct"] and res["failed"] == 1, res
    print(f"ok  corrupted golden digest counted as failed ({res['failed']}/{res['attempted']})")


def check_fails_without_sources():
    alone = WORKDIR / "alone"
    shutil.copytree(HERE, alone / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", alone)
    proc = _run("--workload", "exact-enum", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=alone, script=alone / HERE.name / "run.py")
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  exits non-zero without the library sources")


if __name__ == "__main__":
    WORKDIR.mkdir(parents=True)
    try:
        check_fails_without_sources()
        check_traced_outputs_identical()
        check_golden()
        check_metrics()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()
    print("smoke: all checks passed")
