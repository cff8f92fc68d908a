"""Chaos tests: the socket backend under injected transport/worker faults.

Each test arms a precise fault at a precise protocol step through the
``chaos`` fixture (see ``faultinject.py``) and asserts two things: the
session *survives* (detect-and-recover, not fail-stop), and the map it
serves afterwards is leaf-for-leaf identical to the same workload ingested
with no faults at all.
"""

from __future__ import annotations

import pytest
from faultinject import (
    DELAY_REPLY,
    DROP_REPLY,
    KILL_WORKER,
    SEVER_CONNECTION,
    STALL_HEARTBEAT,
    ChaosHarness,
    Fault,
    random_fault_plan,
)

from repro.core.address_gen import AddressGenerator
from repro.core.config import DEFAULT_CONFIG
from repro.core.verification import compare_trees
from repro.octomap.merge import merge_trees
from repro.serving import ShardBackendError, ShardUpdateBatch, make_backend

CONFIG = DEFAULT_CONFIG.with_resolution(0.25)
NUM_SHARDS = 2


def _rounds(num_rounds: int = 5, n: int = 10):
    """Deterministic per-shard batch rounds touching every shard."""
    generator = AddressGenerator(CONFIG.resolution_m, CONFIG.tree_depth, CONFIG.num_pes)
    converter = generator.converter
    rounds = []
    for round_index in range(num_rounds):
        batches = {shard: [] for shard in range(NUM_SHARDS)}
        index = 0
        while min(len(e) for e in batches.values()) < n and index < 100000:
            x = -6.0 + 0.05 * (index + 37 * round_index)
            key = converter.coord_to_key(x, 0.3 + 0.01 * round_index, 0.2)
            shard = generator.shard_index(key, NUM_SHARDS, 12)
            batches[shard].append(key.as_tuple())
            index += 1
        rounds.append(
            [ShardUpdateBatch.from_key_arrays(s, k, [True] * len(k)) for s, k in batches.items()]
        )
    return rounds


def _reference_leaves(rounds):
    backend = make_backend("inline", CONFIG, NUM_SHARDS)
    try:
        for batches in rounds:
            backend.apply_shard_batches(batches)
        tree = merge_trees(backend.export_all())
    finally:
        backend.close()
    return tree


def _drive_and_compare(chaos: ChaosHarness, rounds, **backend_kwargs):
    """Ingest every round through a chaos-wrapped backend; assert equivalence."""
    reference = _reference_leaves(rounds)
    backend = chaos.make_backend(CONFIG, NUM_SHARDS, **backend_kwargs)
    try:
        for batches in rounds:
            backend.apply_shard_batches(batches)
        report = compare_trees(reference, merge_trees(backend.export_all()), 0.0)
        assert report.equivalent, report.summary()
        assert report.max_abs_error == 0.0
        return backend.failover_stats()
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# One fault at a time, each at its nastiest protocol step
# ---------------------------------------------------------------------------
def test_kill_before_apply_recovers_and_matches(chaos):
    """Worker dies before the slice is applied: recovery must re-send it."""
    rounds = _rounds()
    chaos.arm(Fault(KILL_WORKER, phase="send", verb="apply", shard_id=1))
    stats = _drive_and_compare(chaos, rounds, snapshot_every_batches=2)
    assert stats["failovers"] == 1
    assert len(chaos.fired) == 1


def test_kill_after_apply_discards_the_half_advanced_worker(chaos):
    """Worker applies, then dies with the ack in flight.  The replacement is
    rebuilt from snapshot + replay *without* that batch, and the re-sent
    slice applies exactly once -- double-application would show up as
    log-odds drift against the fault-free reference."""
    rounds = _rounds()
    chaos.arm(Fault(KILL_WORKER, phase="recv", verb="apply", shard_id=0))
    stats = _drive_and_compare(chaos, rounds, snapshot_every_batches=2)
    assert stats["failovers"] == 1


def test_dropped_reply_triggers_rehoming_not_corruption(chaos):
    """A lost ack is indistinguishable from a dead worker; the backend must
    re-home and re-send rather than wait forever or double-count."""
    rounds = _rounds()
    chaos.arm(Fault(DROP_REPLY, phase="recv", verb="apply", shard_id=1))
    stats = _drive_and_compare(chaos, rounds, snapshot_every_batches=2)
    assert stats["failovers"] == 1


def test_severed_connection_mid_message_recovers(chaos):
    rounds = _rounds()
    chaos.arm(Fault(SEVER_CONNECTION, phase="recv", verb="apply", shard_id=0))
    stats = _drive_and_compare(chaos, rounds, snapshot_every_batches=3)
    assert stats["failovers"] == 1


def test_delayed_reply_is_not_a_failure(chaos):
    """A slow worker is not a dead worker: a delayed ack within the I/O
    timeout must cause no failover at all."""
    rounds = _rounds(num_rounds=3)
    chaos.arm(Fault(DELAY_REPLY, phase="recv", verb="apply", shard_id=0, delay_s=0.2))
    stats = _drive_and_compare(chaos, rounds)
    assert stats["failovers"] == 0


def test_stalled_heartbeat_triggers_recovery(chaos):
    """A heartbeat that misses its deadline re-homes the shard even though
    no apply was in flight."""
    backend = chaos.make_backend(
        CONFIG, NUM_SHARDS, heartbeat_interval_s=0.01, heartbeat_timeout_s=0.2
    )
    try:
        rounds = _rounds(num_rounds=2)
        backend.apply_shard_batches(rounds[0])
        import time

        time.sleep(0.05)  # let the heartbeat interval elapse
        chaos.arm(Fault(STALL_HEARTBEAT, phase="recv", verb="ping", delay_s=0.3))
        # The next dispatch health-checks first; the stalled ping must
        # recover the shard, then the flush proceeds normally.
        backend.apply_shard_batches(rounds[1])
        stats = backend.failover_stats()
        assert stats["heartbeat_probes"] >= 1
        assert stats["heartbeat_failures"] == 1
        assert stats["failovers"] == 1
        reference = _reference_leaves(rounds)
        report = compare_trees(reference, merge_trees(backend.export_all()), 0.0)
        assert report.equivalent, report.summary()
    finally:
        backend.close()


def test_kill_during_export_reserves_from_recovered_state(chaos):
    rounds = _rounds(num_rounds=3)
    reference = _reference_leaves(rounds)
    backend = chaos.make_backend(CONFIG, NUM_SHARDS, snapshot_every_batches=2)
    try:
        for batches in rounds:
            backend.apply_shard_batches(batches)
        chaos.arm(Fault(KILL_WORKER, phase="recv", verb="export", shard_id=1))
        report = compare_trees(reference, merge_trees(backend.export_all()), 0.0)
        assert report.equivalent, report.summary()
        assert backend.failovers == 1
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Exhaustion and determinism
# ---------------------------------------------------------------------------
def test_killing_every_worker_fail_stops_with_structured_error(chaos):
    """Failover degrades gracefully until no live worker remains -- then the
    old fail-stop contract applies, with the shard named in the error."""
    backend = chaos.make_backend(CONFIG, NUM_SHARDS, standby_workers=0)
    try:
        rounds = _rounds(num_rounds=1)
        backend.apply_shard_batches(rounds[0])
        for handle in backend.owned_workers:
            handle.kill()
        with pytest.raises(ShardBackendError, match="no live worker") as info:
            backend.apply_shard_batches(rounds[0])
        assert info.value.shard_id is not None
        assert backend.failed is not None
    finally:
        backend.close()


def test_seeded_fault_plans_are_deterministic():
    plan_a = random_fault_plan(seed=7, num_shards=4, num_faults=5)
    plan_b = random_fault_plan(seed=7, num_shards=4, num_faults=5)
    assert plan_a == plan_b
    assert plan_a != random_fault_plan(seed=8, num_shards=4, num_faults=5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_fault_plan_survives_and_stays_equivalent(chaos, seed):
    """Whole seeded plans (kills, drops, severs at random shards/phases):
    as long as a live worker remains, the map must match the fault-free
    reference exactly."""
    rounds = _rounds(num_rounds=6)
    chaos.arm(*random_fault_plan(seed=seed, num_shards=NUM_SHARDS, num_faults=2))
    # Two faults can kill both primaries; give the backend enough standbys.
    stats = _drive_and_compare(
        chaos, rounds, standby_workers=3, snapshot_every_batches=2
    )
    assert stats["failovers"] >= 1
