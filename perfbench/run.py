"""Repository benchmark: host time per unit of simulated work, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload fm-near --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # per-layer tables

One process, one thread, no worker pool.  A run:

1. alternates a cold set-up from a cleared index cache (input generation,
   index construction, one ``build_system`` per backend) with a round --
   every simulation point of the workload, caches warm, tracing off --
   until ``--seconds`` of rounds and at least nine set-ups are measured;
2. reports the median set-up as ``setup_s`` (host seconds), the median
   round relative to a fixed reference loop timed in the same round as
   ``wall_ref``, and completed simulated memory requests per reference
   time as ``req_per_ref`` (see ``driver.py``); the same medians in plain
   host seconds are printed beside them.  ``peak_rss_mb`` is the process's
   peak resident memory (cumulative over workloads with ``--workload all``);
3. with ``--trace 1``, then runs one traced set-up and round (cProfile and
   boundary spans, see ``layers.py``), re-runs the first point with the plan
   and index caches disabled, and reports the per-layer metrics instead.

A point fails when it raises, completes fewer tasks or queries than the
bench submitted, changes its work counters or Report fingerprint between
repeats, or differs from the fingerprint stored in
``expected_fingerprints.json`` for its seed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run prints its points' fingerprint digests; the stored
ones are only ever read, never written, by the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host time per unit of simulated work, per workload.")
    parser.add_argument("--workload", required=True,
                        help="fm-near, kmer-fabric, mt-serve or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from driver import bench
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [bench(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
