"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {batch_closed,gateway_burst,paper_eval} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures an untraced window and then a traced one, and
prints the per-layer metrics (plus the tracing overhead between the
two).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it stamps the run with its environment.

Exit codes: 0 a valid, correct run; 1 a correctness gate tripped (the
result line says ``"correct": false``); 2 the benchmark cannot run here
(for example, the checkout holds no ``src/repro``); 3 the run was
invalid (its load or cache state was not what the workload states), and
no result is printed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

if __package__ in (None, ""):
    # Run as a script: make the ``perfbench`` package importable.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    BenchmarkError,
    GateFailure,
    WorkDir,
    provenance,
    stop_helper_processes,
    use_source_tree,
)

WORKLOADS = ("batch_closed", "gateway_burst", "paper_eval")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args: argparse.Namespace, work: WorkDir):
    """Run the chosen workload; returns its :class:`Outcome`."""
    from perfbench import paper, serving

    trace = bool(args.trace)
    if args.workload == "gateway_burst":
        return serving.gateway(args.seed, args.seconds, trace)
    if args.workload == "paper_eval":
        return paper.paper_eval(args.seconds, trace, work)
    return serving.batch_closed(args.seed, args.seconds, trace)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        use_source_tree()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # A terminated run unwinds like an interrupted one, so the cleanup
    # below still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with WorkDir() as work:
        try:
            outcome = measure(args, work)
        except GateFailure as exc:
            print(f"perfbench: correctness gate tripped: {exc}",
                  file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        finally:
            stop_helper_processes()
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "valid": not outcome.invalid,
        "invalid_reasons": outcome.invalid,
    }
    print(json.dumps(stamp))
    if outcome.invalid:
        print("perfbench: invalid run: " + "; ".join(outcome.invalid),
              file=sys.stderr)
        return 3
    print(json.dumps(outcome.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
