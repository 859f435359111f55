"""The two serving workloads: ``batch_closed`` and ``gateway_burst``.

Each is driven by one load-generating thread in one process, from a
request list that is a pure function of the workload seed.  Every job
is checked: it must end DONE with ``verified=True``.  A DONE job that
failed verification trips the correctness gate; any other terminal
state (refused, saturated, timed out, failed) only counts against
``ok_ratio``.

All timings are host seconds with every emulation knob of the service
left off (``wave_latency_s``, ``item_latency_s``,
``model_latency_scale``); the service and gateway are otherwise built
with their defaults, so a PR that changes a default shows up here.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy

from .common import GateFailure, median
from .spans import Tracer

#: ``batch_closed``: 4 jobs of 128 items for each non-AES program,
#: with at most 2 jobs outstanding.
CLOSED_PROGRAMS = ("CONV", "DOT", "FC", "GEMM", "KMP", "NW", "SRT",
                   "STN2", "STN3", "VADD")
CLOSED_JOBS_PER_PROGRAM = 4
CLOSED_ITEMS = 128
CLOSED_WINDOW = 2

#: ``gateway_burst``: bursts of 2-item jobs into one single-worker shard.
BURST_JOBS = 2000
BURST_ITEMS = 2
GATEWAY_SHARDS = 1
GATEWAY_WORKERS = 1

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
RESULT_TIMEOUT_S = 120.0

MODEL_FIELDS = ("lut_evaluations", "mac_operations", "bus_words")
MODEL_METRIC_NAMES = ("freac.model.lut_evals_per_item",
                      "freac.model.mac_ops_per_item",
                      "freac.model.bus_words_per_item")
MODEL_COUNTS_FILE = Path(__file__).with_name("model_counts.json")


# ----------------------------------------------------------------------
# Request generation (pure functions of the seed)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    benchmark: str
    items: int
    mccs_per_tile: int
    seed: int


def closed_loop_plan(seed: int) -> List[Request]:
    """The fixed ``batch_closed`` job list: the programs in a fixed
    rotation, each job's data seeded.

    The seed picks only the data.  The program order stays fixed
    because, with two jobs outstanding, a job's latency depends on which
    program it queues behind; a seeded order would move the latency
    percentiles between seeds by more than any change under test.
    """
    rng = random.Random(seed)
    return [Request(name, CLOSED_ITEMS, 1, rng.randrange(1 << 30))
            for _ in range(CLOSED_JOBS_PER_PROGRAM)
            for name in CLOSED_PROGRAMS]


def burst_plan(seed: int, jobs: int) -> List[Request]:
    """One ``gateway_burst`` burst, built by the program's own
    ``burst_requests`` (benchmarks and tile sizes rotate)."""
    from repro.gateway.frontend import burst_requests

    return [Request(bench, items, kwargs["mccs_per_tile"], kwargs["seed"])
            for bench, items, kwargs in burst_requests(jobs, BURST_ITEMS,
                                                       seed)]


# ----------------------------------------------------------------------
# Checks shared by the serving workloads
# ----------------------------------------------------------------------


def job_ok(result) -> bool:
    """DONE and verified; raises :class:`GateFailure` on a DONE job whose
    outputs did not match the reference."""
    from repro.service.jobs import JobState

    if result.state is not JobState.DONE:
        return False
    if result.verified is not True:
        raise GateFailure(
            f"job {result.job_id} ({result.benchmark}) is DONE but not "
            f"verified: {result.mismatches} mismatching item(s)"
        )
    return True


class ModelCounts:
    """Modeled work per item, per program key, from
    ``ExecutionSession.execute`` totals.

    These are counts of the paper's timing model, not host time: they
    must repeat exactly, within a run and against the checked-in
    reference ``model_counts.json``.  Any difference is a model change.
    """

    def __init__(self) -> None:
        self.per_key: Dict[str, Tuple[Fraction, ...]] = {}
        #: Within-run disagreements, raised by :meth:`check_reference`
        #: (the observer runs on a service worker thread, where raising
        #: would fail the wave instead of the run).
        self.conflicts: List[str] = []

    def observe(self, args: tuple, kwargs: dict, result, _duration: float
                ) -> None:
        session, dataset = args[0], args[1]
        totals = result[0]
        key = model_key(dataset.benchmark,
                        session.controllers[0].schedule.resources.mccs)
        counts = tuple(Fraction(totals[name], dataset.items)
                       for name in MODEL_FIELDS)
        previous = self.per_key.setdefault(key, counts)
        if previous != counts:
            self.conflicts.append(
                f"modeled counts per item for {key} changed within the "
                f"run: {_floats(previous)} then {_floats(counts)}"
            )

    def check_reference(self, reference: Dict[str, List[float]]) -> None:
        if self.conflicts:
            raise GateFailure(self.conflicts[0])
        for key, counts in sorted(self.per_key.items()):
            expected = reference.get(key)
            if expected is None or [Fraction(v) for v in expected] != list(
                counts
            ):
                raise GateFailure(
                    f"modeled counts per item for {key} are "
                    f"{_floats(counts)}; model_counts.json has {expected}"
                )

    def metrics(self) -> Dict[str, float]:
        """Mean over the keys seen of each per-item count (0 when the
        model ran in another process)."""
        if not self.per_key:
            return {name: 0.0 for name in MODEL_METRIC_NAMES}
        return {
            metric: float(sum(counts[i] for counts in self.per_key.values())
                          / len(self.per_key))
            for i, metric in enumerate(MODEL_METRIC_NAMES)
        }


def model_key(benchmark: str, mccs: int) -> str:
    return f"{benchmark}/m{mccs}"


def _floats(counts: Sequence[Fraction]) -> List[float]:
    return [float(c) for c in counts]


def load_model_reference() -> Dict[str, List[float]]:
    return json.loads(MODEL_COUNTS_FILE.read_text())


# ----------------------------------------------------------------------
# Per-layer instrumentation of an in-process service
# ----------------------------------------------------------------------


def install_service_spans(tracer: Tracer, model: ModelCounts) -> None:
    """Wrap the lifecycle, execution, datagen and admission layers."""
    from repro.cache.slice_ import CacheSlice
    from repro.freac.executor import FoldedExecutor
    from repro.freac.session import ExecutionSession
    from repro.service.service import AcceleratorService
    from repro.workloads.datagen import dataset_for

    tracer.patch_method(ExecutionSession, "__enter__", "freac.session.open")
    tracer.patch_method(ExecutionSession, "program", "freac.session.program")
    tracer.patch_method(ExecutionSession, "close", "freac.session.close")
    tracer.patch_method(ExecutionSession, "execute", "freac.session.execute",
                        on_exit=model.observe)
    tracer.patch_method(CacheSlice, "lock_ways", "cache.slice.lock")
    tracer.patch_method(CacheSlice, "flush_way", "cache.slice.flush")
    tracer.patch_method(CacheSlice, "unlock_ways", "cache.slice.unlock")
    tracer.patch_method(FoldedExecutor, "run_batch",
                        "freac.executor.run_batch")
    tracer.patch_method(AcceleratorService, "submit", "service.submit",
                        keep_durations=True)
    tracer.patch_function(dataset_for, "workloads.dataset_for")


def service_layer_metrics(tracer: Tracer, model: ModelCounts,
                          items: int) -> Dict[str, float]:
    """Per-wave and per-item self times of the wrapped layers."""
    waves = tracer.count("freac.session.open")
    per_wave = 1e3 / waves if waves else 0.0
    per_item = 1e6 / items if items else 0.0
    submits = tracer.get("service.submit").durations
    out = {
        "freac.session.open_ms_per_wave":
            tracer.self_s("freac.session.open") * per_wave,
        "freac.session.program_ms_per_wave":
            tracer.self_s("freac.session.program") * per_wave,
        "freac.session.close_ms_per_wave":
            tracer.self_s("freac.session.close") * per_wave,
        "cache.slice.lock_ms_per_wave":
            tracer.self_s("cache.slice.lock") * per_wave,
        "cache.slice.flush_ms_per_wave":
            tracer.self_s("cache.slice.flush") * per_wave,
        "cache.slice.unlock_ms_per_wave":
            tracer.self_s("cache.slice.unlock") * per_wave,
        "freac.executor.run_batch_us_per_item":
            tracer.self_s("freac.executor.run_batch") * per_item,
        "freac.session.execute_self_ms_per_wave":
            tracer.self_s("freac.session.execute") * per_wave,
        "workloads.dataset_for_us_per_item":
            tracer.self_s("workloads.dataset_for") * per_item,
        "service.submit_us_p50": median(submits) * 1e6 if submits else 0.0,
    }
    out.update(model.metrics())
    return out


def stats_delta(before: Dict, after: Dict) -> Dict[str, float]:
    """Service counters over a window, from two ``ServiceStats.to_dict()``
    (or fleet aggregate) snapshots."""
    def diff(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    batches = diff("batches")
    return {
        "service.jobs_per_wave": diff("completed") / batches if batches
        else 0.0,
        "service.retries": diff("retries"),
        "service.program_cache.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
    }


def fleet_delta(before, after) -> Dict[str, float]:
    """Fleet counters over a window, from two ``FleetStats`` snapshots:
    the shards' service counters plus the gateway's reroutes and shard
    restarts, which must both stay 0."""
    counters = stats_delta(before.aggregate, after.aggregate)
    counters["gateway.reroutes"] = after.reroutes - before.reroutes
    counters["gateway.shard_restarts"] = (after.shard_restarts
                                          - before.shard_restarts)
    return counters


# ----------------------------------------------------------------------
# Window results
# ----------------------------------------------------------------------


@dataclass
class Window:
    """What one timed window of a serving workload produced."""

    attempted: int = 0
    ok: int = 0
    items: int = 0
    #: Latencies of verified jobs, one group per pass or burst; a
    #: percentile is the median over the groups, so one slow repeat
    #: moves it less.
    groups: List[List[float]] = field(default_factory=list)
    queue_s: List[float] = field(default_factory=list)
    #: Per-repeat (items, wall seconds).
    passes: List[Tuple[int, float]] = field(default_factory=list)
    drain_tails_s: List[float] = field(default_factory=list)
    #: Counters over the window (:func:`stats_delta`, :func:`fleet_delta`).
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def invalid(self) -> List[str]:
        """Why the window did not measure what the workload states."""
        reasons = []
        hit_ratio = self.counters.get("service.program_cache.hit_ratio")
        if hit_ratio is not None and hit_ratio < 1.0:
            reasons.append(f"program-cache hit ratio {hit_ratio:.3f} < 1.0 "
                           "in the timed window")
        for name in ("gateway.reroutes", "gateway.shard_restarts"):
            if self.counters.get(name):
                reasons.append(f"{name} = {self.counters[name]:g} in the "
                               "timed window: the fleet lost a shard")
        return reasons

    def record(self, result, latency_s: float) -> None:
        """Count one job; a verified one adds its latency to the newest
        group."""
        self.attempted += 1
        if job_ok(result):
            self.ok += 1
            self.items += result.items
            self.groups[-1].append(latency_s)
            if result.queue_s is not None:
                self.queue_s.append(result.queue_s)

    def latency_s(self, q: float) -> float:
        return median([numpy.percentile(g, q) for g in self.groups if g])

    def end_to_end(self) -> Dict[str, float]:
        if not self.ok:
            raise GateFailure("no job finished DONE and verified")
        return {
            "latency_p50_ms": self.latency_s(50) * 1e3,
            "latency_p90_ms": self.latency_s(90) * 1e3,
            "items_per_s": median([items / wall
                                   for items, wall in self.passes]),
            "wall_s": self.headline_s(),
            "ok_ratio": self.ok / self.attempted,
        }

    def headline_s(self) -> float:
        """The median pass or burst wall: the window's main time figure."""
        return median([wall for _, wall in self.passes])


# ----------------------------------------------------------------------
# In-process service workloads
# ----------------------------------------------------------------------


def build_service(keys: Sequence[Tuple[str, int]]):
    """A default ``AcceleratorService(workers=1)`` with ``keys`` compiled
    and each run once; returns ``(service, seconds)``.

    The PE and netlist memos are cleared first, so every setup pays
    what a fresh process pays.
    """
    from repro.circuits.library import clear_cache
    from repro.service import AcceleratorService

    clear_cache()
    start = time.perf_counter()
    service = AcceleratorService(workers=1)
    try:
        for bench, mccs in keys:
            job = service.submit(bench, 1, mccs_per_tile=mccs, seed=0)
            if not job_ok(service.result(job, timeout_s=RESULT_TIMEOUT_S)):
                raise GateFailure(f"warm-up job {bench}/m{mccs} failed: "
                                  f"{job.result.error}")
    except BaseException:
        service.shutdown(drain=False, timeout_s=RESULT_TIMEOUT_S)
        raise
    return service, time.perf_counter() - start


def set_up(keys: Sequence[Tuple[str, int]], repeats: int):
    """Build the service ``repeats`` times; keep the last one."""
    times: List[float] = []
    service = None
    for _ in range(repeats):
        if service is not None:
            service.shutdown(timeout_s=RESULT_TIMEOUT_S)
        service, seconds = build_service(keys)
        times.append(seconds)
    return service, median(times)


def run_closed_loop(service, plan: Sequence[Request],
                    seconds: float) -> Window:
    """Repeat the fixed job list with ``CLOSED_WINDOW`` jobs outstanding
    until ``seconds`` have passed (at least one pass)."""
    window = Window()
    begin = time.perf_counter()
    while not window.passes or time.perf_counter() - begin < seconds:
        pass_start = time.perf_counter()
        outstanding: List[Tuple[float, object]] = []
        items_before = window.items
        window.groups.append([])
        for request in plan:
            if len(outstanding) == CLOSED_WINDOW:
                _collect(service, window, *outstanding.pop(0))
            sent = time.perf_counter()
            outstanding.append((sent, service.submit(
                request.benchmark, request.items,
                mccs_per_tile=request.mccs_per_tile, seed=request.seed,
            )))
        for sent, job in outstanding:
            _collect(service, window, sent, job)
        window.passes.append((window.items - items_before,
                              time.perf_counter() - pass_start))
    return window


def _collect(service, window: Window, sent: float, job) -> None:
    result = service.result(job, timeout_s=RESULT_TIMEOUT_S)
    window.record(result, job.finished_at - sent)


def _measured(service, drive) -> Window:
    """One timed window, with the service counters it moved."""
    before = service.stats().to_dict()
    window = drive(service)
    window.counters = stats_delta(before, service.stats().to_dict())
    return window


def batch_closed(seed: int, seconds: float, trace: bool):
    """Run ``batch_closed``; returns an Outcome."""
    from .metrics import end_to_end_outcome, per_layer_outcome

    plan = closed_loop_plan(seed)

    def drive(service):
        return run_closed_loop(service, plan, seconds)

    keys = tuple((name, 1) for name in CLOSED_PROGRAMS)
    service, setup_s = set_up(keys, 1 if trace else SETUP_REPEATS)
    try:
        plain = _measured(service, drive)
        if not trace:
            return end_to_end_outcome("batch_closed", plain, setup_s)
        tracer, model = Tracer(), ModelCounts()
        with tracer:
            install_service_spans(tracer, model)
            traced = _measured(service, drive)
    finally:
        service.shutdown(timeout_s=RESULT_TIMEOUT_S)
    model.check_reference(load_model_reference())
    layers = service_layer_metrics(tracer, model, traced.items)
    layers.update(traced.counters)
    layers["service.queue_wait_ms_p50"] = median(traced.queue_s) * 1e3
    layers["trace.overhead_ratio"] = (
        traced.headline_s() / plain.headline_s() - 1.0
    )
    traced.layers = layers
    return per_layer_outcome("batch_closed", plain, traced)


# ----------------------------------------------------------------------
# Gateway workload
# ----------------------------------------------------------------------


def gateway_config():
    from repro.gateway import GatewayConfig, ShardConfig

    return GatewayConfig(
        shards=GATEWAY_SHARDS, shard=ShardConfig(workers=GATEWAY_WORKERS),
    )


async def launch_gateway(keys: Sequence[Tuple[str, int]]):
    """Start a gateway and run each program key once through it."""
    from repro.gateway import GatewayClient

    start = time.perf_counter()
    client = await GatewayClient.launch(gateway_config())
    try:
        for bench, mccs in keys:
            job_id = await client.submit(bench, 1, mccs_per_tile=mccs)
            result = await client.result(job_id, timeout_s=RESULT_TIMEOUT_S)
            if not job_ok(result):
                raise GateFailure(f"warm-up job {bench}/m{mccs} failed: "
                                  f"{result.error}")
    except BaseException:
        await client.shutdown(drain=False)
        raise
    return client, time.perf_counter() - start


async def run_bursts(client, plan: Sequence[Request],
                     seconds: float) -> Window:
    """Send the burst, drain, repeat until ``seconds`` have passed."""
    window = Window()
    begin = time.perf_counter()
    while not window.passes or time.perf_counter() - begin < seconds:
        stamped: List[Tuple[float, "asyncio.Task", List[float]]] = []
        items_before = window.items
        window.groups.append([])
        burst_start = time.perf_counter()
        for request in plan:
            sent = time.perf_counter()
            job_id = await client.submit(
                request.benchmark, request.items,
                mccs_per_tile=request.mccs_per_tile, seed=request.seed,
            )
            done_at: List[float] = []
            task = asyncio.ensure_future(client.result(job_id))
            task.add_done_callback(
                lambda _t, box=done_at: box.append(time.perf_counter())
            )
            stamped.append((sent, task, done_at))
        last_submit = time.perf_counter()
        await client.drain(timeout_s=RESULT_TIMEOUT_S)
        drained = time.perf_counter()
        results = await asyncio.gather(*(task for _, task, _ in stamped))
        for (sent, _, done_at), result in zip(stamped, results):
            window.record(result, (done_at[0] if done_at else drained) - sent)
        window.drain_tails_s.append(drained - last_submit)
        window.passes.append((window.items - items_before,
                              drained - burst_start))
    return window


async def _measured_bursts(client, plan: Sequence[Request],
                           seconds: float) -> Window:
    """One timed window of bursts, with the fleet counters it moved."""
    before = await client.stats(with_telemetry=False)
    window = await run_bursts(client, plan, seconds)
    after = await client.stats(with_telemetry=False)
    window.counters = fleet_delta(before, after)
    return window


async def _gateway_main(seed: int, seconds: float, trace: bool):
    from repro.gateway import GatewayClient

    plan = burst_plan(seed, BURST_JOBS)
    keys = sorted({(r.benchmark, r.mccs_per_tile) for r in plan})
    times: List[float] = []
    client = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if client is not None:
            await client.shutdown()
        client, seconds_taken = await launch_gateway(keys)
        times.append(seconds_taken)
    try:
        plain = await _measured_bursts(client, plan, seconds)
        if not trace:
            return plain, None, median(times)
        # A gateway slows down as its job history grows (each burst
        # takes longer than the one before), so the traced window gets a
        # fresh gateway and starts from the untraced window's state.
        await client.shutdown()
        client = None
        client, _ = await launch_gateway(keys)
        tracer = Tracer()
        with tracer:
            tracer.patch_method(GatewayClient, "submit", "gateway.submit",
                                keep_durations=True)
            traced = await _measured_bursts(client, plan, seconds)
    finally:
        if client is not None:
            await client.shutdown()
    submits = tracer.get("gateway.submit").durations
    layers = dict(traced.counters)
    layers.update({
        "gateway.submit_us_p50": median(submits) * 1e6,
        "gateway.drain_tail_s": median(traced.drain_tails_s),
        "service.queue_wait_ms_p50": median(traced.queue_s) * 1e3,
        "trace.overhead_ratio":
            traced.headline_s() / plain.headline_s() - 1.0,
    })
    traced.layers = layers
    return plain, traced, median(times)


def gateway(seed: int, seconds: float, trace: bool):
    """Run ``gateway_burst``; returns an Outcome."""
    from .metrics import end_to_end_outcome, per_layer_outcome

    plain, traced, setup_s = asyncio.run(_gateway_main(seed, seconds, trace))
    if traced is None:
        return end_to_end_outcome("gateway_burst", plain, setup_s,
                                  children=True)
    return per_layer_outcome("gateway_burst", plain, traced)
