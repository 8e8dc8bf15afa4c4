"""flowcast benchmark: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload loo_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced pass (see README.md).  A result file with host facts and
per-run detail is written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import os
import sys

# Thread policy, chosen from runs of every workload at 1 and 2 BLAS
# threads (README.md): one thread is faster for learn and project, which
# dominate loo_sweep and grid_search, and keeps fold results independent
# of how BLAS splits work.
DEFAULT_BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("loo_sweep", "online_forecast", "grid_search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=DEFAULT_BLAS_THREADS,
                        help="BLAS threads, capped at nproc (default %(default)s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 1:
        parser.error("--seed must be >= 0, --seconds and --blas-threads positive")
    return args


def pin_blas(requested: int) -> int:
    """Set the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before the BLAS thread count was set")
    threads = max(1, min(requested, os.cpu_count() or 1))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_library():
    """Import flowcast from this checkout's src, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "flowcast", "__init__.py")):
        sys.exit(f"error: no flowcast package under {src}")
    sys.path[:0] = [src, BENCH_DIR]
    import flowcast
    if not os.path.abspath(flowcast.__file__).startswith(src + os.sep):
        sys.exit(f"error: flowcast imported from {flowcast.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas(args.blas_threads)
    import_library()
    from harness import run_benchmark
    return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                         threads, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
