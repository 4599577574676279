"""ecoride fleet benchmark: per-command times on three corpora, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet600 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --digests --seed 42     # output digests, all workloads
    python3 perfbench/run.py --self-test             # each output check rejects a fault

A run writes the workload's corpora several times (set-up), then repeats whole
rounds of the CLI commands in-process through ``ecoride.cli.main`` until
``--seconds`` have passed.  The last line of standard output is one JSON
object: with ``--trace 0`` the end-to-end metrics (medians over rounds), with
``--trace 1`` the per-layer metrics from spans, taken on alternate rounds so
the untraced rounds between them give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
import calibration

WORK_DIR = ".perfbench"


def cap_threads() -> None:
    """Hold numeric libraries to at most nproc threads; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)


def import_program(root: Path):
    """Import ``ecoride.cli`` from the checkout's ``src``, never from elsewhere."""
    src = root / "src"
    if not (src / "ecoride" / "cli.py").is_file():
        raise ImportError(f"no ecoride sources under {src}")
    sys.path.insert(0, str(src))
    from ecoride import cli

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"ecoride was imported from {cli.__file__}, not {src}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="fleet600, fleet_scan or urban_mix")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="one checked round per workload; print output sha256s")
    parser.add_argument("--self-test", action="store_true",
                        help="show that each output check rejects a planted fault")
    args = parser.parse_args(argv)
    if not (args.workload or args.digests or args.self_test):
        parser.error("one of --workload, --digests, --self-test is required")

    root = Path.cwd()
    cap_threads()
    try:
        cli, import_time = calibration.timed(lambda: import_program(root))
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import harness

    work = root / WORK_DIR / f"{args.workload or 'all'}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = harness.Bench(cli, work, traced=bool(args.trace))
    try:
        if args.self_test:
            return harness.run_self_test(bench)
        if args.digests:
            return harness.run_digests(bench, args.seed)
        result = harness.run_workload(bench, args, import_time)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
