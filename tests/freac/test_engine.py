"""specialized ≡ reference, bit for bit.

The compiled-plan engine (docs/execution.md) must be
indistinguishable from the scalar per-item loop in *everything* the
model exposes: outputs, stores, scratchpad contents, executor stats,
and every access counter down to the individual sub-arrays.  These
tests hold the two engines side by side on identical hardware state
and diff all of it.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.subarray import Subarray
from repro.circuits import CircuitBuilder, simulate, technology_map
from repro.circuits.library import build_pe, mapped_pe, pe_names
from repro.errors import DeviceError
from repro.folding import TileResources, list_schedule
from repro.freac.compute_slice import ReconfigurableComputeSlice, SlicePartition
from repro.freac.engine import DEFAULT_ENGINE, ENGINES, validate_engine
from repro.freac.executor import ExecutionStats, FoldedExecutor, StreamBinding
from repro.freac.mcc import MicroComputeCluster
from repro.freac.specialize import BatchResult, plan_artifact
from repro.params import SubarrayParams
from repro.telemetry import Telemetry

FAST_PES = [name for name in pe_names() if name != "AES"]


def make_tile(mccs, params=None):
    return [
        MicroComputeCluster(i, [Subarray(params) for _ in range(4)])
        for i in range(mccs)
    ]


def make_executors(schedule, mccs, params=None, telemetry=None):
    """One executor per engine on identical fresh hardware sharing one
    config image."""
    reference = FoldedExecutor(schedule, make_tile(mccs, params),
                               telemetry=telemetry)
    executors = {
        "reference": reference,
        "specialized": FoldedExecutor(
            schedule, make_tile(mccs, params), config=reference.config,
            telemetry=telemetry,
        ),
    }
    for executor in executors.values():
        executor.load_configuration()
    return executors


def run_all(executors, batch, **kwargs):
    return {
        engine: executor.run_batch(batch, engine=engine, **kwargs)
        for engine, executor in executors.items()
    }


def assert_all_equivalent(executors, results):
    """Two-way diff: the compiled plan against the reference loop.

    The counter snapshot includes ``engine_fallbacks``, which the
    explicit reference run leaves at 0, so a plan run that silently
    fell back fails here too."""
    reference = results["reference"]
    result = results["specialized"]
    assert result.engine == "specialized"
    assert reference.outputs.keys() == result.outputs.keys()
    for name in reference.outputs:
        np.testing.assert_array_equal(
            reference.outputs[name], result.outputs[name],
            err_msg=f"output {name!r}",
        )
    assert reference.stores.keys() == result.stores.keys()
    for stream in reference.stores:
        np.testing.assert_array_equal(
            reference.stores[stream], result.stores[stream],
            err_msg=f"store {stream!r}",
        )
    assert counters(executors["specialized"]) == counters(
        executors["reference"]
    )


def counters(executor):
    """Every counter the model exposes, flattened into one dict."""
    state = executor.stats.as_dict()
    state["subarray_reads"] = sum(
        sub.reads for mcc in executor.tile for sub in mcc.subarrays
    )
    state["subarray_writes"] = sum(
        sub.writes for mcc in executor.tile for sub in mcc.subarrays
    )
    state["lut_evaluations"] = sum(
        lut.evaluations for mcc in executor.tile for lut in mcc.luts
    )
    state["lut_reconfigurations"] = sum(
        lut.reconfigurations for mcc in executor.tile for lut in mcc.luts
    )
    state["mac_operations"] = sum(
        mcc.mac.operations for mcc in executor.tile
    )
    return state


def random_streams(pe, batch, rng):
    return {
        stream: [
            [rng.getrandbits(31) for _ in range(words)]
            for _ in range(batch)
        ]
        for stream, words in pe.loads.items()
    }


class TestEngineSelector:
    def test_known_engines(self):
        assert DEFAULT_ENGINE in ENGINES
        for engine in ENGINES:
            assert validate_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(DeviceError):
            validate_engine("turbo")

    def test_run_batch_rejects_unknown_engine(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        with pytest.raises(DeviceError):
            executor.run_batch(2, engine="turbo")


class TestBenchmarkEquivalence:
    @pytest.mark.parametrize("name", FAST_PES)
    def test_batch_matches_reference_and_simulation(self, name):
        pe = build_pe(name)
        netlist = mapped_pe(name)
        rng = random.Random(name.__hash__() & 0xFFF)
        batch = 6
        if name == "KMP":
            streams = {
                "state": [[2]] * batch,
                "text": [[0x41 + i] for i in range(batch)],
            }
        else:
            streams = random_streams(pe, batch, rng)
        schedule = list_schedule(netlist, TileResources(mccs=2))
        executors = make_executors(schedule, mccs=2)
        results = run_all(executors, batch, streams=streams)
        assert_all_equivalent(executors, results)
        for lane in range(batch):
            lane_streams = {s: streams[s][lane] for s in streams}
            expected = simulate(netlist, streams=lane_streams)
            for engine in ENGINES:
                assert results[engine].item_stores(lane) == expected.stores

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        batch=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_circuits_property(self, seed, batch):
        """specialized(batch) == [reference(item) for item in batch]."""
        rng = random.Random(seed)
        builder = CircuitBuilder(f"rand{seed}")
        a = builder.bus_load("in")
        b = builder.bus_load("in")
        bits = a.bits[:8] + b.bits[:8]
        for _ in range(24):
            x, y = rng.choice(bits), rng.choice(bits)
            bits.append(builder.xor_(x, y) if rng.random() < 0.5
                        else builder.and_(x, y))
        word = builder.word_from_bits(bits[-16:])
        builder.bus_store("out", builder.mac(word, a, b))
        netlist = technology_map(builder.netlist, k=5).netlist
        streams = {
            "in": [
                [rng.getrandbits(32), rng.getrandbits(32)]
                for _ in range(batch)
            ]
        }
        mccs = rng.choice((1, 2, 4))
        schedule = list_schedule(netlist, TileResources(mccs=mccs))
        executors = make_executors(schedule, mccs=mccs)
        results = run_all(executors, batch, streams=streams)
        assert_all_equivalent(executors, results)


def segmented_schedule():
    """A 32-bit XOR-reduce at k=2: long enough to need mid-run config
    reloads on tiny (8-row) sub-arrays."""
    builder = CircuitBuilder()
    word = builder.bus_load("in")
    acc = word.bits[0]
    for bit in word.bits[1:]:
        acc = builder.xor_(acc, bit)
    builder.bus_store("out", builder.word_from_bits([acc]))
    netlist = technology_map(builder.netlist, k=2).netlist
    return list_schedule(netlist, TileResources())


class TestSegmentedEquivalence:
    @given(batch=st.integers(min_value=1, max_value=16))
    @settings(max_examples=8, deadline=None)
    def test_config_reload_accounting_matches(self, batch):
        """Segmented schedules reload per item; charges must match."""
        schedule = segmented_schedule()
        tiny = SubarrayParams(size_bytes=32)  # 8 rows -> many segments
        executors = make_executors(schedule, mccs=1, params=tiny)
        reference = executors["reference"]
        assert reference.segments > 1
        streams = {"in": [[0b1011 + i] for i in range(batch)]}
        results = run_all(executors, batch, streams=streams)
        assert_all_equivalent(executors, results)
        # The reference engine rewinds to segment 0 for every item
        # after the first; the compiled plan charges the same.
        for engine in ENGINES:
            assert (executors[engine].stats.config_reloads
                    == batch * (reference.segments - 1)), engine

    def test_second_batch_rewind_accounting(self):
        """Entering a batch with the last segment loaded still matches."""
        schedule = segmented_schedule()
        tiny = SubarrayParams(size_bytes=32)
        executors = make_executors(schedule, mccs=1, params=tiny)
        for batch in (3, 2):  # second batch starts at segment != 0
            streams = {"in": [[batch * 17 + i] for i in range(batch)]}
            run_all(executors, batch, streams=streams)
        expected = counters(executors["reference"])
        for engine in ENGINES:
            assert counters(executors[engine]) == expected, engine


class TestScratchpadEquivalence:
    def _scratchpad_executor(self):
        compute_slice = ReconfigurableComputeSlice()
        compute_slice.apply_partition(SlicePartition(2, 2))
        netlist = mapped_pe("VADD")
        schedule = list_schedule(netlist, TileResources())
        executor = FoldedExecutor(
            schedule, compute_slice.tiles(1)[0], compute_slice.scratchpad
        )
        executor.load_configuration()
        return executor, compute_slice.scratchpad

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_through_scratchpad(self, engine):
        executor, pad = self._scratchpad_executor()
        pad.fill_words(0, [10, 20, 30])
        pad.fill_words(100, [1, 2, 3])
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(100, 1),
            "c": StreamBinding(200, 1),
        }
        executor.run_batch(3, scratchpad_map=binding, engine=engine)
        assert pad.dump_words(200, 3) == [11, 22, 33]

    def test_scratchpad_access_counters_match(self):
        results = {}
        for engine in ENGINES:
            executor, pad = self._scratchpad_executor()
            pad.fill_words(0, [10, 20, 30])
            pad.fill_words(100, [1, 2, 3])
            binding = {
                "a": StreamBinding(0, 1),
                "b": StreamBinding(100, 1),
                "c": StreamBinding(200, 1),
            }
            executor.run_batch(3, scratchpad_map=binding, engine=engine)
            results[engine] = (pad.reads, pad.writes, counters(executor))
        for engine in ENGINES:
            assert results[engine] == results["reference"], engine

    @pytest.mark.parametrize("engine", ENGINES)
    def test_explicit_item_indices_address_the_scratchpad(self, engine):
        """Global item numbers, not lane positions, pick the region."""
        executor, pad = self._scratchpad_executor()
        pad.fill_words(0, [10, 20, 30])
        pad.fill_words(100, [1, 2, 3])
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(100, 1),
            "c": StreamBinding(200, 1),
        }
        executor.run_batch([2, 0], scratchpad_map=binding, engine=engine)
        assert pad.dump_words(200, 3) == [11, 0, 33]


class TestFallbacks:
    def _sequential_schedule(self):
        """Flip-flop state threads item to item; lanes can't lock-step."""
        builder = CircuitBuilder()
        word = builder.bus_load("in")
        state = builder.flipflop(init=0)
        updated = builder.xor_(state, word.bits[0])
        builder.bind_flipflop(state, updated)
        builder.bus_store("out", builder.word_from_bits([updated]))
        netlist = technology_map(builder.netlist, k=5).netlist
        return list_schedule(netlist, TileResources())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sequential_netlist_falls_back_to_reference(self, engine):
        executor = FoldedExecutor(self._sequential_schedule(), make_tile(1))
        executor.load_configuration()
        streams = {"in": [[1], [1], [1]]}
        result = executor.run_batch(3, streams=streams, engine=engine)
        assert result.engine == "reference"
        # Alternating state proves the items really ran sequentially.
        assert [int(w) for w in result.stores["out"][:, 0]] == [1, 0, 1]

    def test_fallbacks_are_counted_in_stats(self):
        executor = FoldedExecutor(self._sequential_schedule(), make_tile(1))
        executor.load_configuration()
        streams = {"in": [[1], [1]]}
        assert executor.stats.engine_fallbacks == 0
        executor.run_batch(2, streams=streams, engine="specialized")
        assert executor.stats.engine_fallbacks == 1
        executor.run_batch(2, streams=streams)  # the default engine
        assert executor.stats.engine_fallbacks == 2
        executor.run_batch(2, streams=streams, engine="reference")
        assert executor.stats.engine_fallbacks == 2  # explicit, not a fall
        assert executor.stats.as_dict()["engine_fallbacks"] == 2

    def test_ragged_streams_fall_back_to_reference(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        streams = {"a": [[1], [2, 9]], "b": [[3], [4, 9]]}
        result = executor.run_batch(2, streams=streams, engine="specialized")
        assert result.engine == "reference"
        assert executor.stats.engine_fallbacks == 1
        assert [int(w) for w in result.stores["c"][:, 0]] == [4, 6]

    def test_supported_specialized_run_counts_no_fallback(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        result = executor.run_batch(
            2, streams={"a": [[1], [2]], "b": [[3], [4]]},
            engine="specialized",
        )
        assert result.engine == "specialized"
        assert executor.stats.engine_fallbacks == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_collection_falls_back_to_reference(self, engine):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        streams = {"a": [[1], [2]], "b": [[3], [4]]}
        result = executor.run_batch(2, streams=streams, engine=engine,
                                    collect_trace=True)
        assert result.engine == "reference"
        assert len(result.traces) == 2
        assert all(result.traces)

    def test_empty_batch_is_a_no_op(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        result = executor.run_batch(0, engine="specialized")
        assert result.items == 0
        assert executor.stats.invocations == 0

    def test_run_batch_requires_configuration(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        with pytest.raises(DeviceError):
            executor.run_batch(1, streams={"a": [[1]], "b": [[2]]})


class TestBatchResult:
    def test_item_accessors_round_trip(self):
        pe = build_pe("VADD")
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        rng = random.Random(3)
        streams = random_streams(pe, 4, rng)
        result = executor.run_batch(4, streams=streams)
        for lane in range(4):
            lane_streams = {s: streams[s][lane] for s in streams}
            expected = simulate(mapped_pe("VADD"), streams=lane_streams)
            assert result.item_stores(lane) == expected.stores
            outputs = result.item_outputs(lane)
            assert all(isinstance(v, int) for v in outputs.values())

    def test_bindings_broadcast_and_per_lane(self):
        builder = CircuitBuilder()
        a = builder.word_input("a")
        b = builder.word_input("b")
        builder.bus_store("out", builder.mac(a, b, builder.const_word(0)))
        netlist = technology_map(builder.netlist, k=5).netlist
        schedule = list_schedule(netlist, TileResources())
        executors = make_executors(schedule, mccs=1)
        bindings = {"a": 3, "b": [1, 2, 5]}  # scalar broadcast + lanes
        results = run_all(executors, 3, bindings=bindings)
        assert_all_equivalent(executors, results)
        for engine in ENGINES:
            stores = results[engine].stores["out"]
            assert [int(w) for w in stores[:, 0]] == [3, 6, 15]


class TestExecutionStatsDict:
    def test_as_dict_is_plain_int_copy(self):
        """Snapshots must not alias live counters or leak numpy types."""
        stats = ExecutionStats()
        stats.cycles += np.int64(5)  # a bulk charge, as the engine does
        snapshot = stats.as_dict()
        assert all(type(value) is int for value in snapshot.values())
        snapshot["cycles"] = 999
        assert stats.cycles == 5
        second = stats.as_dict()
        assert second["cycles"] == 5
        assert second is not snapshot

    def test_as_dict_json_serialisable_after_batch_run(self):
        import json

        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executor = FoldedExecutor(schedule, make_tile(1))
        executor.load_configuration()
        executor.run_batch(3, streams={"a": [[1]] * 3, "b": [[2]] * 3})
        text = json.dumps(executor.stats.as_dict())
        assert '"invocations": 3' in text

    def test_engines_share_no_mutable_state(self):
        schedule = list_schedule(mapped_pe("VADD"), TileResources())
        executors = make_executors(schedule, mccs=1)
        reference, specialized = executors["reference"], executors["specialized"]
        streams = {"a": [[1], [2]], "b": [[3], [4]]}
        reference.run_batch(2, streams=streams, engine="reference")
        before = specialized.stats.as_dict()
        assert before["invocations"] == 0
        specialized.run_batch(2, streams=streams, engine="specialized")
        assert before["invocations"] == 0  # old snapshot untouched
        assert specialized.stats.as_dict() == reference.stats.as_dict()


class TestBatchResultType:
    def test_default_construction(self):
        empty = BatchResult(items=0, engine="specialized")
        assert empty.outputs == {} and empty.stores == {}
        assert empty.traces == []


class TestTelemetryEvents:
    def test_plan_emits_one_fold_step_per_cycle(self):
        """The plan emits the reference loop's per-cycle events once for
        the whole batch, with the same op counts and an ``items``
        attribute, on the same device-cycle timeline."""
        schedule = segmented_schedule()
        tiny = SubarrayParams(size_bytes=32)
        telemetry = {engine: Telemetry() for engine in ENGINES}
        executors = {
            engine: FoldedExecutor(schedule, make_tile(1, tiny),
                                   telemetry=telemetry[engine])
            for engine in ENGINES
        }
        batch = 3
        streams = {"in": [[0b1011 + i] for i in range(batch)]}
        for engine, executor in executors.items():
            executor.load_configuration()
            executor.run_batch(batch, streams=streams, engine=engine)

        def events(engine, name):
            return [e for e in telemetry[engine].tracer.cycle_events
                    if e.name == name]

        steps = events("specialized", "fold_step")
        assert len(steps) == schedule.compute_cycles
        assert all(e.attrs["items"] == batch for e in steps)
        first_item = events("reference", "fold_step")[:len(steps)]
        assert [(e.cycle, e.attrs["ops"]) for e in steps] == [
            (e.cycle, e.attrs["ops"]) for e in first_item
        ]
        reconfigs = events("specialized", "reconfig")
        assert [e.attrs["segment"] for e in reconfigs] == list(
            range(1, executors["specialized"].segments)
        )
        for name in ("freac.invocations", "freac.folding_steps",
                     "freac.rows_read", "freac.config_words_written",
                     "freac.reconfig_events", "freac.stall_cycles"):
            assert (telemetry["specialized"].metrics.counter(name).total
                    == telemetry["reference"].metrics.counter(name).total
                    ), name

    def test_telemetry_off_run_emits_nothing(self):
        """With telemetry disabled the plan path makes no telemetry call
        at all: no cycle events, no counters."""

        class Recording(Telemetry):
            enabled = False

            def __init__(self):
                super().__init__()
                self.calls = []

            def counter(self, name, help=""):
                self.calls.append(("counter", name))
                return super().counter(name, help)

            def cycle_event(self, name, cycle, track="", **attrs):
                self.calls.append(("cycle_event", name))

        telemetry = Recording()
        executor = FoldedExecutor(
            segmented_schedule(), make_tile(1, SubarrayParams(size_bytes=32)),
            telemetry=telemetry,
        )
        executor.load_configuration()
        result = executor.run_batch(4, streams={"in": [[i] for i in range(4)]})
        assert result.engine == "specialized"
        assert telemetry.calls == []
        assert telemetry.tracer.cycle_events == []


class TestNoFallbacksOnMachSuite:
    @pytest.mark.parametrize("name", FAST_PES)
    def test_heuristic_schedule_runs_on_the_plan(self, name):
        pe = build_pe(name)
        schedule = list_schedule(mapped_pe(name), TileResources(mccs=2))
        executor = FoldedExecutor(schedule, make_tile(2))
        executor.load_configuration()
        if name == "KMP":
            streams = {"state": [[2]] * 4, "text": [[0x41 + i] for i in range(4)]}
        else:
            streams = random_streams(pe, 4, random.Random(0))
        result = executor.run_batch(4, streams=streams)
        assert result.engine == "specialized"
        assert executor.stats.engine_fallbacks == 0

    def test_aes_compiles_to_a_plan(self):
        """AES is too slow to execute in tier-1; a supported plan is what
        keeps it off the fallback path."""
        schedule = list_schedule(mapped_pe("AES"), TileResources(mccs=2))
        assert plan_artifact(schedule)["supported"] is True
