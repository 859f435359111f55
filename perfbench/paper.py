"""The ``paper_eval`` workload: regenerate the paper's evaluation.

Set-up warms the schedule disk cache (``FREAC_CACHE_DIR``, a fresh
benchmark-owned directory each time) in a child process.  The timed
window then runs every ``freac all`` target in paper order in a fresh
child process, whose in-process memos start cold as in any user run,
and compares its standard output byte for byte with the checked-in
``results_all.txt``.

The child side of this module runs as ``python3 -m perfbench.paper
{warm|regen} ...`` with ``src/`` and the checkout root on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy

from .common import (
    ROOT,
    GateFailure,
    WorkDir,
    child_env,
    median,
    peak_rss_mb,
)
from .metrics import EXPERIMENT_TARGETS, Outcome
from .spans import Tracer

EXPECTED_OUTPUT = ROOT / "results_all.txt"
#: Set-ups per untraced run; ``setup_s`` is their median.  Two, not the
#: serving workloads' three: one warm-up costs 15-19 s, and a third
#: would push the full schedule of repeated runs past its time limit.
SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 170.0


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------


def warm_schedule_cache() -> None:
    """Fold every benchmark at every paper tile size into the cache."""
    from repro.experiments.common import TILE_SIZES, schedule_for
    from repro.workloads.suite import benchmark_names

    for name in benchmark_names():
        for mccs in TILE_SIZES:
            schedule_for(name, mccs)


def install_simulator_spans(tracer: Tracer) -> None:
    """Wrap the simulator layers the experiments spend their time in."""
    from repro.baselines.fpga import FpgaBaseline
    from repro.cache.hierarchy import CacheHierarchy
    from repro.circuits.library import mapped_pe
    from repro.folding.io import load_schedule
    from repro.folding.scheduler import list_schedule

    tracer.patch_method(CacheHierarchy, "access", "cache.hierarchy.access")
    tracer.patch_method(FpgaBaseline, "estimate", "baselines.fpga.estimate")
    tracer.patch_function(mapped_pe, "circuits.mapped_pe")
    tracer.patch_function(load_schedule, "folding.load_schedule")
    tracer.patch_function(list_schedule, "folding.list_schedule")


def simulator_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    calls = tracer.count("cache.hierarchy.access")
    return {
        "cache.hierarchy.access_calls": calls,
        "cache.hierarchy.access_us_per_call":
            tracer.self_s("cache.hierarchy.access") / calls * 1e6
            if calls else 0.0,
        "circuits.mapped_pe_s": tracer.self_s("circuits.mapped_pe"),
        "folding.load_schedule_s": tracer.self_s("folding.load_schedule"),
        "folding.list_schedule_s": tracer.self_s("folding.list_schedule"),
        "baselines.fpga.estimate_self_s":
            tracer.self_s("baselines.fpga.estimate"),
    }


def regenerate(report: Path, traced: bool) -> None:
    """What ``freac all`` does, timing each target; with ``traced``,
    under simulator spans.

    Writes to ``report`` as JSON each target's own seconds, the seconds
    from the first target's start until each target's output is
    complete, and the layer metrics; stdout carries only the evaluation.
    """
    from repro import cli

    if tuple(cli._ORDER) != EXPERIMENT_TARGETS:
        raise SystemExit(f"freac all targets changed: {cli._ORDER}; "
                         "update perfbench.metrics.EXPERIMENT_TARGETS")
    tracer = Tracer()
    if traced:
        install_simulator_spans(tracer)
    times: Dict[str, float] = {}
    done_at: Dict[str, float] = {}
    begin = time.perf_counter()
    for name in cli._ORDER:
        target = cli._TARGETS[name]
        if traced:
            target = tracer.wrap(target, f"experiments.{name}")
        start = time.perf_counter()
        target()
        print()
        times[name] = time.perf_counter() - start
        done_at[name] = time.perf_counter() - begin
    sys.stdout.flush()
    tracer.uninstall()
    report.write_text(json.dumps({
        "targets": times,
        "done_at": done_at,
        "layers": simulator_layer_metrics(tracer) if traced else {},
    }))


def child_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.paper")
    parser.add_argument("mode", choices=("warm", "regen"))
    parser.add_argument("--report", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "warm":
        warm_schedule_cache()
    else:
        regenerate(args.report, args.trace)
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _child(args: List[str]) -> Tuple[bytes, float]:
    """Run a child; returns its stdout and wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.paper", *args], cwd=ROOT,
        env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise RuntimeError(f"perfbench.paper {args[0]} exited "
                           f"{proc.returncode}:\n{tail}")
    return proc.stdout, wall


def set_up(work: WorkDir) -> float:
    """Warm a fresh schedule cache; returns the seconds it took."""
    work.fresh("schedules")
    return _child(["warm"])[1]


def regen(work: WorkDir, traced: bool) -> Tuple[float, Dict]:
    """One checked regeneration: (wall seconds, child report)."""
    report = work.path / "paper_report.json"
    out, wall = _child(["regen", "--report", str(report)]
                       + (["--trace"] if traced else []))
    check_output(out, EXPECTED_OUTPUT.read_bytes())
    return wall, json.loads(report.read_text())


def check_output(actual: bytes, expected: bytes) -> None:
    if actual == expected:
        return
    got, want = actual.splitlines(), expected.splitlines()
    for line, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            raise GateFailure(f"results_all.txt line {line}: expected "
                              f"{b!r}, got {a!r}")
    raise GateFailure(f"output has {len(got)} lines, results_all.txt "
                      f"has {len(want)}")


def paper_eval(seconds: float, trace: bool, work: WorkDir) -> Outcome:
    """Regenerate for about ``seconds`` (at least once).

    A regeneration is the unit of work, so the window ends at the
    regeneration boundary nearest ``seconds``: another one starts only
    when, taking as long as the last, it would end nearer ``seconds``
    than stopping now.
    """
    setups = [set_up(work) for _ in range(1 if trace else SETUP_REPEATS)]
    walls: List[float] = []
    per_target: Dict[str, List[float]] = {t: [] for t in EXPERIMENT_TARGETS}
    done_at: List[float] = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin + walls[-1] / 2 < seconds:
        wall, report = regen(work, traced=False)
        walls.append(wall)
        for target, value in report["targets"].items():
            per_target[target].append(value)
        done_at.extend(report["done_at"].values())
    attempted = len(walls) * len(EXPERIMENT_TARGETS)
    if not trace:
        wall_s = median(walls)
        return Outcome("paper_eval", attempted, 0, {
            "setup_s": median(setups),
            "latency_p50_ms": numpy.percentile(done_at, 50) * 1e3,
            "latency_p90_ms": numpy.percentile(done_at, 90) * 1e3,
            "items_per_s": len(EXPERIMENT_TARGETS) / wall_s,
            "wall_s": wall_s,
            "ok_ratio": 1.0,
            "peak_rss_mb": peak_rss_mb(children=True),
        }, trace=False)
    traced_wall, report = regen(work, traced=True)
    layers = dict(report["layers"])
    for target, values in per_target.items():
        layers[f"experiments.{target}_s"] = median(values)
    layers["trace.overhead_ratio"] = traced_wall / median(walls) - 1.0
    return Outcome("paper_eval", attempted + len(EXPERIMENT_TARGETS), 0,
                   layers, trace=True)


if __name__ == "__main__":
    sys.exit(child_main())
