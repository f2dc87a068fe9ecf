#!/usr/bin/env python3
"""Run one workload of the NI/NoC benchmark and print its metrics.

Usage (from the repository root)::

    python3 nocbench/run.py --workload mesh_gt_be --seed 1 --seconds 24 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed by name, value and unit,
followed by the seed, the result digest and the output check; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when the run completed (``correct`` tells
whether its outputs were right) and nonzero when it could not run at all,
e.g. without the simulator sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: simulator sources not found under src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from nocbench.bench import END_TO_END, PER_LAYER, run_workload
    from nocbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    specs = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {run.reps}  digest {run.digest}")
    for name, unit, better in specs:
        print(f"  {name:45s} {run.metrics[name]:>16.6g} {unit:12s} "
              f"({better} is better)")
    print(f"output check: {'ok' if run.correct else 'FAILED'}  "
          f"attempted {run.attempted}  failed {run.failed}")
    for problem in run.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
