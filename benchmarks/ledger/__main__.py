"""Command line of the ledger.

``--workload W --seed N --seconds S --trace 0|1`` is one measured run
(the form BENCHMARK.json names); ``--collect``, ``--compare``,
``--check-repeat`` and ``--update-expected`` are built on such runs.
"""

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402

from benchmarks.ledger.spec import NOMINAL_SECONDS, WORKLOADS  # noqa: E402


def parse_arguments(argv=None):
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=NOMINAL_SECONDS,
        help="measuring time the loop counts are scaled to (default %(default)s); "
        "one cold pass is never cut short",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: repeat the workload layer by layer and print the per-layer metrics",
    )
    parser.add_argument(
        "--size", choices=("paper", "smoke"), default="paper",
        help="smoke: fig5-sized cut for test_ledger.py; numbers mean nothing",
    )
    parser.add_argument(
        "--update-expected", action="store_true",
        help="with --workload: run traced, pin digests and exact counters in expected.json",
    )
    parser.add_argument(
        "--check-repeat", metavar="WORKLOAD", choices=sorted(WORKLOADS),
        help="run the traced workload twice with --seed; fail unless counters and digests repeat",
    )
    parser.add_argument(
        "--collect", metavar="OUT.json",
        help="run every workload (or --workload) --runs times, seeds --seed+1.., and save all values",
    )
    parser.add_argument("--runs", type=int, default=10, help="runs per workload for --collect")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two --collect files metric by metric against the bounds",
    )
    arguments = parser.parse_args(argv)
    modes = [
        bool(arguments.compare), bool(arguments.collect), bool(arguments.check_repeat),
        bool(arguments.workload) and not arguments.collect,
    ]
    if sum(modes) != 1:
        parser.error("give one of --workload, --collect, --compare, --check-repeat")
    return arguments


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    if arguments.compare:
        from benchmarks.ledger.compare import compare_files

        return compare_files(*arguments.compare)
    if arguments.collect:
        from benchmarks.ledger.compare import collect

        return collect(arguments)
    if arguments.check_repeat:
        from benchmarks.ledger.compare import check_repeat

        return check_repeat(arguments.check_repeat, arguments.seed, arguments.size)
    from benchmarks.ledger.run import run_workload

    return run_workload(arguments, _PROCESS_STARTED)


if __name__ == "__main__":
    sys.exit(main())
