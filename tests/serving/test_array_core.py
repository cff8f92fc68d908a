"""Array core vs the modelled PE array: the serving map store's oracle suite.

Every serving shard keeps its map in an :class:`ArrayCore` (sorted packed
leaf codes plus raw log-odds); :class:`OMUAccelerator` keeps the paper's
cycle-level model of the same map.  These properties pin the two together
over hypothesis-generated update streams:

* exported trees are identical, byte for byte once serialized (leaves,
  pruned regions and inner nodes);
* queries agree on written voxels, on voxels inside pruned regions and on
  unknown voxels;
* streams repeat keys often enough to saturate both clamp bounds and to let
  whole 2x2x2 blocks prune, are split into batches arbitrarily, and run at
  tree depths 8 and 16;
* a snapshot restored with ``from_snapshot`` plus the replayed tail lands on
  the live shard's exact state;
* a batch holding an out-of-range code raises and changes nothing;
* a far beam whose free voxels overflowed the modelled TreeMem ingests.

The ``uint64`` packing and ``searchsorted`` lookups are where numpy versions
could disagree, so CI runs this file on both numpy lines of its matrix.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.accelerator import OMUAccelerator
from repro.core.config import OMUConfig
from repro.core.scheduler import VoxelUpdateRequest
from repro.core.verification import compare_trees
from repro.octomap import OccupancyOcTree, PointCloud
from repro.octomap.keys import OcTreeKey
from repro.octomap.raycast_vec import pack_key_array
from repro.octomap.serialization import serialize_tree
from repro.serving import MapSession, ScanRequest, SessionConfig
from repro.serving.array_core import ArrayCore, steady_update_cycles
from repro.serving.sharding import MapShardWorker
from repro.serving.types import ShardUpdateBatch

Entry = Tuple[int, int, int, bool]

#: Keys live in a 4x4x4 block straddling the key-space centre, so every
#: stream spreads over all eight first-level branches (all eight PEs) and
#: revisits voxels often.
_SPAN = 4


def _config(tree_depth: int) -> OMUConfig:
    return replace(OMUConfig(), tree_depth=tree_depth)


def _base(tree_depth: int) -> int:
    return (1 << (tree_depth - 1)) - _SPAN // 2


@st.composite
def _streams(draw) -> Tuple[int, List[Entry], List[int]]:
    """``(tree_depth, entries, split points)`` for one update stream.

    Runs of one flag over a 2x2x2 block drive its voxels to a clamp bound
    together, which is what makes the PE array prune them.
    """
    tree_depth = draw(st.sampled_from((8, 16)))
    base = _base(tree_depth)
    offset = st.integers(0, _SPAN - 1)
    entries: List[Entry] = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            corner = [base + 2 * draw(st.integers(0, _SPAN // 2 - 1)) for _ in range(3)]
            flag = draw(st.booleans())
            for _ in range(draw(st.integers(1, 7))):
                for index in range(8):
                    entries.append(
                        (
                            corner[0] + (index & 1),
                            corner[1] + ((index >> 1) & 1),
                            corner[2] + ((index >> 2) & 1),
                            flag,
                        )
                    )
        else:
            for _ in range(draw(st.integers(1, 24))):
                entries.append(
                    (
                        base + draw(offset),
                        base + draw(offset),
                        base + draw(offset),
                        draw(st.booleans()),
                    )
                )
    splits = sorted(draw(st.lists(st.integers(0, len(entries)), max_size=4)))
    return tree_depth, entries, splits


def _batches(entries: List[Entry], splits: List[int]) -> List[List[Entry]]:
    bounds = [0, *splits, len(entries)]
    return [entries[start:end] for start, end in zip(bounds, bounds[1:])]


def _wire(entries: List[Entry]) -> ShardUpdateBatch:
    """Shard 0's wire batch for ``(x, y, z, occupied)`` entries."""
    keys = np.array([entry[:3] for entry in entries], dtype=np.int64).reshape(-1, 3)
    return ShardUpdateBatch.from_key_arrays(0, keys, [entry[3] for entry in entries])


def _apply(core: ArrayCore, entries: List[Entry]) -> int:
    batch = _wire(entries)
    return core.apply(batch.codes, batch.occupied)


def _modelled(config: OMUConfig, entries: List[Entry]) -> OMUAccelerator:
    accelerator = OMUAccelerator(config)
    accelerator.apply_update_batch(
        [VoxelUpdateRequest(OcTreeKey(x, y, z), occupied) for x, y, z, occupied in entries]
    )
    return accelerator


def _probe_keys(tree_depth: int) -> List[OcTreeKey]:
    """Every voxel of the stream block plus a ring of never-written ones."""
    base = _base(tree_depth)
    return [
        OcTreeKey(base + dx, base + dy, base + dz)
        for dx in range(-1, _SPAN + 1)
        for dy in range(-1, _SPAN + 1)
        for dz in range(-1, _SPAN + 1)
    ]


_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(_streams())
def test_exported_tree_matches_the_modelled_pe_array(stream):
    tree_depth, entries, splits = stream
    config = _config(tree_depth)
    core = ArrayCore(config)
    for batch in _batches(entries, splits):
        _apply(core, batch)
    expected = _modelled(config, entries).export_octree()
    assert serialize_tree(core.export_octree()) == serialize_tree(expected)


@_SETTINGS
@given(_streams())
def test_queries_match_the_modelled_pe_array(stream):
    tree_depth, entries, splits = stream
    config = _config(tree_depth)
    core = ArrayCore(config)
    for batch in _batches(entries, splits):
        _apply(core, batch)
    accelerator = _modelled(config, entries)
    converter = core.converter
    for key in _probe_keys(tree_depth):
        got = core.query_key(key)
        want = accelerator.query(*converter.key_to_coord(key))
        assert (got.status, got.probability, got.pe_id) == (
            want.status,
            want.probability,
            want.pe_id,
        ), key


def test_streams_reach_both_clamp_bounds_and_prune():
    """The strategy's saturating runs really exercise clamping and pruning."""
    config = _config(16)
    base = _base(16)
    block = [
        (base + (i & 1), base + ((i >> 1) & 1), base + ((i >> 2) & 1)) for i in range(8)
    ]
    entries = [(*key, True) for _ in range(7) for key in block]
    entries += [(base + 3, base + 3, base + 3, False)] * 9
    core = ArrayCore(config)
    _apply(core, entries)
    params = config.quantized_params()
    _, values = core.leaves()
    assert values.max() == params.raw_clamp_max
    assert values.min() == params.raw_clamp_min
    exported = core.export_octree()
    assert any(leaf.depth < 16 for leaf in exported.iter_leafs())
    assert serialize_tree(exported) == serialize_tree(_modelled(config, entries).export_octree())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_streams(), st.integers(0, 4))
def test_snapshot_restore_then_replayed_tail_matches_the_live_shard(stream, cut):
    tree_depth, entries, splits = stream
    config = _config(tree_depth)
    batches = [_wire(batch) for batch in _batches(entries, splits)]
    cut = min(cut, len(batches))
    live = MapShardWorker(0, config)
    for batch in batches[:cut]:
        live.apply_message(batch)
    snapshot = live.snapshot_message()
    held_before = len(live.core)
    restored = MapShardWorker.from_snapshot(snapshot, config)
    assert len(restored.core) == held_before
    for batch in batches[cut:]:
        live.apply_message(batch)
        restored.apply_message(batch)
    for got, want in zip(restored.core.leaves(), live.core.leaves()):
        np.testing.assert_array_equal(got, want)
    assert restored.generation == live.generation


@pytest.mark.parametrize("tree_depth", (8, 16))
@pytest.mark.parametrize("bad_component", ("negative", "too_large"))
def test_out_of_range_key_leaves_the_core_unchanged(tree_depth, bad_component):
    config = _config(tree_depth)
    base = _base(tree_depth)
    core = ArrayCore(config)
    _apply(core, [(base, base, base, True), (base + 1, base, base, False)])
    before = [array.copy() for array in core.leaves()]
    bad = -1 if bad_component == "negative" else 1 << tree_depth
    # Packed unchecked, as a corrupt wire batch would carry it: a negative x
    # sets bits 48-63, and x = 2**tree_depth sets a bit the tree lacks (bit
    # 48 at depth 16).
    codes = pack_key_array(np.array([(base + 2, base, base), (bad, base, base)]))
    with pytest.raises(ValueError, match="outside the key space"):
        core.apply(codes, np.array([True, True]))
    for got, want in zip(core.leaves(), before):
        np.testing.assert_array_equal(got, want)


def test_nominal_cycles_are_issue_plus_busiest_pe_steady_updates():
    config = _config(16)
    assert steady_update_cycles(config.timing, 16) == 78
    core = ArrayCore(config)
    centre = 1 << 15
    assert _apply(core, []) == 0
    # Three updates on branch 7's PE, one on branch 0's: the busiest PE has 3.
    entries = [(centre, centre, centre, True)] * 3 + [(0, 0, 0, False)]
    assert _apply(core, entries) == 4 * 1 + 3 * 78


def test_worker_query_outside_the_volume_is_unknown():
    worker = MapShardWorker(0, _config(16))
    worker.apply_updates([VoxelUpdateRequest(OcTreeKey(1, 1, 1), occupied=True)])
    far = worker.converter.max_coordinate * 2
    assert worker.query(far, 0.0, 0.0).status == "unknown"


def test_scan_with_a_100_km_endpoint_ingests_and_matches_sequential_insertion():
    """The endpoint rule clips the far beam at the volume boundary; its
    ~30k free voxels once overflowed the modelled TreeMem, the array core
    has no such wall."""
    config = SessionConfig(num_shards=2, backend="inline", batch_size=2)
    session = MapSession("map", config)
    try:
        points = [(1.0, 0.5, 0.2), (-1.2, 0.8, 0.1), (100_000.0, 3.0, 0.5)]
        origin = (0.0, 0.0, 0.2)
        session.submit(ScanRequest(session_id="map", cloud=PointCloud(points), origin=origin))
        session.flush_all()
        accelerator = config.accelerator
        reference = OccupancyOcTree(
            accelerator.resolution_m,
            tree_depth=accelerator.tree_depth,
            params=accelerator.quantized_params().as_float_params(),
        )
        reference.insert_point_cloud(PointCloud(points), origin)
        reference.prune()
        report = compare_trees(reference, session.export_octree(), tolerance=0.0)
        assert report.equivalent, report.summary()
        assert report.leaves_reference > 30_000
    finally:
        session.close()
