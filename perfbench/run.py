"""End-to-end simulation benchmark: wall seconds per 1000 commits.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closed-wan --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py        # all three workloads, one after another

``--trace 0`` runs untraced rounds of the workload's five protocol cells
for ``--seconds`` of wall time and prints the end-to-end metrics.
``--trace 1`` runs one untraced and one traced round and prints the
per-layer metrics.  Each workload's report ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  A failed output
check prints the reason to standard error and no metrics for that
workload, and the exit code is 1; a tree without the simulator exits 2.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or all (one after another, "
                             "one JSON line each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="wall seconds of untraced rounds (at least "
                             "one round runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1: write every span as TSV here")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build every cell, then exit "
                             "(timed by the parent for setup_s)")
    args = parser.parse_args(argv)
    if args.spans_out and args.workload == "all":
        parser.error("--spans-out needs a single --workload")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import repro
        from perfbench import bench
        from perfbench.workloads import WORKLOADS, setup_all
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this tree's src/", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"all, {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        for name in names:
            setup_all(WORKLOADS[name], args.seed)
        return 0
    return max(_run(bench, WORKLOADS[name], args) for name in names)


def _run(bench, workload, args) -> int:
    """Measure one workload and print its report; the exit code."""
    print(f"== {workload.name} (seed {args.seed})")
    try:
        if args.trace:
            result, extras = bench.measure_traced(
                workload, args.seed, spans_out=args.spans_out)
            summary = extras["deterministic"]
            _print_traced(extras)
        else:
            result, first, rounds = bench.measure(
                workload, args.seed, args.seconds,
                script=os.path.abspath(__file__))
            summary = first.deterministic
            _print_untraced(first, rounds)
    except bench.CheckFailed as exc:
        print(f"perfbench: output check failed on {workload.name} "
              f"(seed {args.seed}): {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in result.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": summary["attempted"],
        "failed": summary["never_committed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.items()},
    }))
    return 0


def _print_untraced(first, walls) -> None:
    d = first.deterministic
    print(f"rounds: {len(walls)}; wall s/kcommit per round, at reference "
          f"host speed (as measured):")
    print("  " + " ".join(f"{scaled:.5f} ({raw:.5f})"
                          for scaled, raw in walls))
    print(f"{'protocol':<10} {'commits':>8} {'wall_s':>8} {'raw_s':>8} "
          f"{'s/kcommit':>10}")
    for protocol, commits in first.commits.items():
        wall = first.wall_s[protocol]
        print(f"{protocol:<10} {commits:>8} {wall:>8.3f} "
              f"{first.raw_wall_s[protocol]:>8.3f} "
              f"{wall / commits * 1000:>10.4f}")
    print(f"latency pool: {d['latency_samples']} samples; per-cell tail "
          f"percentiles {d['model_p99_percentiles']}")
    print(f"failed_frac = 1 - served_frac: {d['failed_frac']:.6f} ratio "
          f"({d['late_or_lost']} of {d['attempted']} attempted requests "
          f"missed 2 Delta; {d['never_committed']} never committed)")


def _print_traced(extras) -> None:
    print(f"untraced base: {extras['base_wall_s_per_kcommit']:.6f} "
          f"s/kcommit; traced: {extras['traced_wall_s_per_kcommit']:.6f} "
          f"s/kcommit (both at reference host speed); traced root "
          f"{extras['root_s']:.3f} s as measured")
    print(f"{'layer':<10} {'self_s':>9} {'share':>8}")
    for layer, (seconds, share) in extras["layers"].items():
        print(f"{layer:<10} {seconds:>9.3f} {share:>8.2%}")
    print("top spans by self time:")
    for name, (count, seconds) in extras["top_spans"]:
        print(f"  {name:<56} {count:>9} {seconds:>8.3f} s")


if __name__ == "__main__":
    sys.exit(main())
