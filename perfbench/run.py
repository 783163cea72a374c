"""randinf benchmark: one workload, one seed, one fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact-enum --seed 0 --seconds 22 --trace 0

The process is a closed loop with one client: it runs the workload's cycle
of requests back to back until ``--seconds`` have passed and at least enough
requests ran to put ten beyond the tail percentile, then re-runs the Monte
Carlo requests of its first cycle to check that they repeat byte for byte.  Every output is
checked (golden digests at seed 0 for the exact workload, zero-tolerance
invariants always); a request that fails or mismatches counts in ``failed``.

``--trace 0`` reports the end-to-end metrics; its times are in reference
seconds, scaled by a speed gauge sampled before every request (see
``bench.gauge_sample``), and the unscaled times are in the info line.
``--trace 1`` alternates untraced and traced runs of the same cycles,
requires identical outputs from both, and reports per-layer metrics (median
per traced cycle, unscaled) plus the tracing overhead.  The last stdout line
is the JSON result; the line before it records the environment (nproc, BLAS
threads, versions).
"""

import argparse
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _single_blas_thread() -> None:
    """Run BLAS/OpenMP on one thread (before numpy loads).

    On a host whose few CPUs are shared, BLAS threads that spin on every CPU
    measure the scheduler rather than the library, and they put the timed
    work out of step with the single-threaded speed gauge (see bench.py).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_randinf():
    if not (SRC / "randinf" / "__init__.py").is_file():
        sys.exit(f"error: randinf sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import randinf

    if Path(randinf.__file__).resolve().parent != SRC / "randinf":
        sys.exit(f"error: imported randinf from {randinf.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own smoke test")
    parser.add_argument("--golden", type=Path, default=HERE / "golden.json",
                        help="golden digests checked when workload, seed and scale match")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, write inputs and warm up, then exit (times set-up)")
    parser.add_argument("--record-golden", type=int, metavar="CYCLES", default=0,
                        help="write golden digests of the first CYCLES cycles at seed 0 and exit")
    args = parser.parse_args(argv)
    args.golden = args.golden.resolve()  # runs change into their own input directory

    _single_blas_thread()
    _import_randinf()
    import bench

    if args.workload not in bench.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {bench.WORKLOAD_NAMES}")
    if args.setup_only:
        bench.setup_only(args.workload, args.seed, args.scale, ROOT)
        return 0
    if args.record_golden:
        bench.record_golden(args.workload, args.record_golden, ROOT, args.golden, args.scale)
        return 0
    setup_argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                  "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    result, info = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
                             golden_path=args.golden, setup_argv=setup_argv, scale=args.scale)
    bench.emit(result, info)
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind like an error: a running set-up process is killed and
    # waited for, and the input directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
