"""Metric names, units, and the outcome a run prints.

``END_TO_END`` and ``PER_LAYER`` must list exactly the names and units
of ``BENCHMARK.json`` (the benchmark's tests check it).  An untraced
run prints every end-to-end metric; a traced run prints every
per-layer metric, with 0 for a layer the workload does not reach from
the benchmark's process (the shard-side layers of ``gateway_burst``,
the simulator outside ``paper_eval``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .common import peak_rss_mb

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "items_per_s": "1/s",
    "wall_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

#: The ``freac all`` targets, in paper order (``repro.cli._ORDER``).  A
#: copy, not an import: the metric names in ``BENCHMARK.json`` are fixed,
#: and this module loads before ``src/`` is on the path.  The
#: regeneration stops with an error when the program's list differs.
EXPERIMENT_TARGETS = (
    "tables", "area", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "discussion", "capacity", "validation",
)

PER_LAYER: Dict[str, str] = {
    # lifecycle (repro.freac sessions, repro.cache slices), self times
    "freac.session.open_ms_per_wave": "ms",
    "freac.session.program_ms_per_wave": "ms",
    "freac.session.close_ms_per_wave": "ms",
    "cache.slice.lock_ms_per_wave": "ms",
    "cache.slice.flush_ms_per_wave": "ms",
    "cache.slice.unlock_ms_per_wave": "ms",
    # execution (repro.freac, repro.workloads), self times
    "freac.executor.run_batch_us_per_item": "us",
    "freac.session.execute_self_ms_per_wave": "ms",
    "workloads.dataset_for_us_per_item": "us",
    # modeled counts: must repeat exactly
    "freac.model.lut_evals_per_item": "count",
    "freac.model.mac_ops_per_item": "count",
    "freac.model.bus_words_per_item": "count",
    # service (repro.service)
    "service.submit_us_p50": "us",
    "service.queue_wait_ms_p50": "ms",
    "service.jobs_per_wave": "count",
    "service.retries": "count",
    "service.program_cache.hit_ratio": "ratio",
    # gateway (repro.gateway)
    "gateway.submit_us_p50": "us",
    "gateway.drain_tail_s": "s",
    "gateway.reroutes": "count",
    "gateway.shard_restarts": "count",
    # simulator (repro.cache, repro.circuits, repro.folding, repro.baselines)
    "cache.hierarchy.access_calls": "count",
    "cache.hierarchy.access_us_per_call": "us",
    "circuits.mapped_pe_s": "s",
    "folding.load_schedule_s": "s",
    "folding.list_schedule_s": "s",
    "baselines.fpga.estimate_self_s": "s",
    # experiments (repro.experiments), from the untraced regeneration
    **{f"experiments.{target}_s": "s" for target in EXPERIMENT_TARGETS},
    # harness
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    """What a run found; :meth:`result` is the line it prints last."""

    workload: str
    attempted: int
    failed: int
    metrics: Dict[str, float]
    trace: bool
    invalid: List[str] = field(default_factory=list)

    def result(self) -> Dict:
        units = PER_LAYER if self.trace else END_TO_END
        unknown = sorted(set(self.metrics) - set(units))
        missing = [] if self.trace else sorted(set(units) - set(self.metrics))
        if unknown or missing:
            raise KeyError(f"{self.workload}: unknown metrics {unknown}, "
                           f"unmeasured metrics {missing}")
        return {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics.get(name, 0.0)),
                       "unit": unit}
                for name, unit in units.items()
            },
        }


def end_to_end_outcome(workload: str, window, setup_s: float, *,
                       children: bool = False) -> Outcome:
    """An untraced run's outcome from its timed window."""
    metrics = window.end_to_end()
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb(children=children)
    return Outcome(workload, window.attempted, window.attempted - window.ok,
                   metrics, trace=False, invalid=window.invalid())


def per_layer_outcome(workload: str, plain, traced) -> Outcome:
    """A traced run's outcome: the traced window's layers; validity and
    failures from both windows."""
    return Outcome(
        workload,
        plain.attempted + traced.attempted,
        plain.attempted - plain.ok + traced.attempted - traced.ok,
        traced.layers, trace=True,
        invalid=plain.invalid() + traced.invalid(),
    )
