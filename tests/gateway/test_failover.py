"""Shard failure: detection, restart/eviction, and job reroute.

The acceptance bar: killing a shard mid-burst leaves *no* job lost or
hanging — every in-flight job either completes on a live shard after
reroute or terminally resolves once its reroute budget is spent.
"""

import asyncio
import multiprocessing

import pytest

from repro.errors import ServiceError
from repro.gateway import Gateway, GatewayClient, GatewayConfig, ShardConfig
from repro.service.elastic import ElasticConfig
from repro.service.jobs import JobState

TIMEOUT_S = 180.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT_S))


def failover_config(**overrides):
    shard = overrides.pop("shard", None) or ShardConfig(
        workers=2,
        heartbeat_s=0.1,
        # Slow the device down so the burst is still in flight
        # when the shard dies.
        item_latency_s=0.05,
    )
    return GatewayConfig(
        shards=2,
        shard=shard,
        max_retries=4,
        retry_backoff_s=0.02,
        heartbeat_timeout_s=2.0,
        monitor_interval_s=0.1,
        seed=0,
        **overrides,
    )


async def _kill_one_shard_mid_burst(config, jobs=40,
                                    stats_before_kill=False):
    async with await GatewayClient.launch(config) as client:
        gateway = client.gateway
        job_ids = [
            await client.submit("VADD" if i % 2 else "DOT", 2, seed=i)
            for i in range(jobs)
        ]
        # Let some work land, then kill whichever shard holds the
        # larger share of the in-flight jobs (guaranteeing stranded
        # jobs to reroute).
        await asyncio.sleep(0.3)
        victim = max(
            gateway.handles.values(), key=lambda h: h.assigned
        )
        assert victim.assigned > 0, "burst drained before the kill"
        victim_id = victim.shard_id
        pre_kill = None
        if stats_before_kill:
            snapshot = await client.stats(with_telemetry=False)
            pre_kill = snapshot.shards[victim_id]
        victim.process.kill()

        await client.drain(timeout_s=TIMEOUT_S)
        results = [await client.result(jid) for jid in job_ids]
        fleet = await client.stats(with_telemetry=False)
        if stats_before_kill:
            return results, fleet, pre_kill, victim_id
        return results, fleet, gateway.counters, victim_id


class TestShardKill:
    def test_no_job_lost_after_kill_and_restart(self):
        results, fleet, counters, victim = run(
            _kill_one_shard_mid_burst(failover_config())
        )

        # Every submitted job reached a terminal state: none lost,
        # none hung (the bounded drain above proved liveness).
        assert len(results) == 40
        assert all(r.state.terminal for r in results)
        assert fleet.pending == 0

        # With a generous reroute budget and a live peer, everything
        # actually completes — the kill is invisible to callers
        # beyond retry latency.
        assert all(r.state is JobState.DONE for r in results)
        assert all(r.verified for r in results)

        # The dead shard was noticed, its jobs rerouted, and the slot
        # restarted into the ring (generation bumped).
        assert counters["reroutes"] > 0
        assert counters["shard_restarts"] == 1
        assert fleet.live_shards == 2
        rerouted = [r for r in results if r.retries > 0]
        assert rerouted

    def test_elastic_resizes_roll_back_with_the_dead_shard(self):
        """Way leases live in the shard process: killing it mid-burst
        must not leak them.  The restarted shard comes back all-cache
        with fresh counters, so its elastic books restart from zero —
        the in-flight resizes died with the process instead of
        lingering as phantom locked ways."""
        config = failover_config(
            shard=ShardConfig(
                workers=2,
                heartbeat_s=0.1,
                item_latency_s=0.05,
                # A long idle window keeps ways locked (and the gauge
                # nonzero) right up to the kill.
                elastic=ElasticConfig(min_compute_ways=2,
                                      max_compute_ways=8,
                                      idle_release_s=30.0),
            ),
        )
        results, fleet, pre_kill, victim = run(
            _kill_one_shard_mid_burst(config, stats_before_kill=True)
        )

        assert len(results) == 40
        assert all(r.state is JobState.DONE for r in results)
        assert all(r.verified for r in results)
        assert fleet.live_shards == 2

        # Precondition: the victim had billed way transitions before
        # it died (otherwise the rollback claim is vacuous).
        assert pre_kill["ways_resized"] > 0
        assert pre_kill["resize_cost_s"] > 0

        # The survivors did the rerouted work, so the fleet still
        # shows elastic activity ...
        assert fleet.ways_resized > 0
        # ... but the restarted victim is a fresh process: its counters
        # restarted below the pre-kill snapshot and nothing it had
        # locked survived the crash.
        post_kill = fleet.shards[victim]
        assert post_kill["ways_resized"] < pre_kill["ways_resized"]
        assert post_kill["locked_ways"] == 0

    def test_eviction_when_restart_budget_spent(self):
        results, fleet, counters, victim = run(
            _kill_one_shard_mid_burst(
                failover_config(max_shard_restarts=0), jobs=24
            )
        )
        assert all(r.state.terminal for r in results)
        assert all(r.state is JobState.DONE for r in results)
        assert counters["shards_evicted"] == 1
        assert fleet.live_shards == 1


class TestStartupFailure:
    def test_shard_that_cannot_start_raises_service_error(self):
        """A shard whose service cannot be built (no devices) exits at
        startup, crash-loops through its restart budget and is evicted
        before it is ever ready.  Startup must fail with a ServiceError
        naming the shard, its exit code and the reason, and leave no
        shard process running."""
        config = GatewayConfig(
            shards=1, shard=ShardConfig(devices=0),
            max_shard_restarts=1, seed=0,
        )
        gateway = Gateway(config)
        with pytest.raises(
            ServiceError,
            match=r"shard 0 never became ready: evicted after 1 "
                  r"restart\(s\), last exit code 1 \(pipe EOF\)",
        ):
            run(gateway.start())
        assert gateway.counters["shards_evicted"] == 1
        assert not gateway.handles
        assert not [
            process for process in multiprocessing.active_children()
            if process.name.startswith("freac-shard")
        ]
