"""Pipeline-level front-end equivalence: vectorized default vs scalar reference.

The kernel-level suite (``tests/octomap/test_raycast_vec.py``) pins the
vectorized DDA against the scalar one per scan; this suite pins the whole
ingestion path: a session running the batched numpy front end must produce a
leaf-for-leaf identical map, identical per-shard update counts and identical
accounting to the same session with ``scalar_frontend=True`` -- on every
backend, for hypothesis-generated workloads.  It also covers the batch
plumbing around the kernel: ``from_key_arrays`` wire-buffer identity and the
converter hoist (exactly one converter derivation per session, however many
flushes run).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import VoxelUpdateRequest
from repro.core.verification import compare_trees
from repro.octomap import OcTreeKey, PointCloud
from repro.octomap.raycast_vec import pack_key_array
from repro.serving import MapSession, ScanRequest, SessionConfig
from repro.serving.types import ShardUpdateBatch


def _run_workload(
    scans: List[Tuple[List[Tuple[float, float, float]], Tuple[float, float, float], float]],
    scalar_frontend: bool,
    backend: str = "inline",
    num_shards: int = 2,
    batch_size: int = 2,
):
    config = SessionConfig(
        num_shards=num_shards,
        backend=backend,
        batch_size=batch_size,
        scalar_frontend=scalar_frontend,
    )
    session = MapSession("map", config)
    try:
        for request_id, (points, origin, max_range) in enumerate(scans):
            session.submit(
                ScanRequest(
                    session_id="map",
                    request_id=request_id,
                    cloud=PointCloud(points),
                    origin=origin,
                    max_range=max_range,
                )
            )
        session.flush_all()
        tree = session.export_octree()
        stats = session.stats
    finally:
        session.close()
    return tree, stats


def _assert_paths_equivalent(scans, backend="inline", **kwargs):
    tree_scalar, stats_scalar = _run_workload(
        scans, scalar_frontend=True, backend=backend, **kwargs
    )
    tree_vector, stats_vector = _run_workload(
        scans, scalar_frontend=False, backend=backend, **kwargs
    )
    report = compare_trees(tree_scalar, tree_vector, tolerance=0.0)
    assert report.equivalent, report.summary()
    for field in (
        "scans_ingested",
        "points_ingested",
        "rays_cast",
        "ray_voxels_visited",
        "voxel_updates",
        "duplicates_removed",
        "batches_dispatched",
    ):
        assert getattr(stats_scalar, field) == getattr(stats_vector, field), field
    assert stats_scalar.shard_updates == stats_vector.shard_updates
    assert stats_scalar.frontend_converter_builds == 1
    assert stats_vector.frontend_converter_builds == 1


scan_points = st.lists(
    st.tuples(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-2.0, max_value=2.0),
    ),
    min_size=1,
    max_size=12,
)
scan_strategy = st.tuples(
    scan_points,
    st.tuples(
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-0.5, max_value=0.5),
    ),
    st.sampled_from([-1.0, 2.0, 6.0]),
)


class TestFrontendEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(scans=st.lists(scan_strategy, min_size=1, max_size=4))
    def test_inline_backend_random_scans(self, scans):
        _assert_paths_equivalent(scans)

    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_fixed_workload_all_inprocess_backends(self, backend):
        rng = np.random.default_rng(23)
        scans = []
        for _ in range(6):
            n = int(rng.integers(5, 40))
            points = [tuple(row) for row in rng.uniform(-4.0, 4.0, size=(n, 3)).tolist()]
            origin = tuple(rng.uniform(-0.5, 0.5, size=3).tolist())
            scans.append((points, origin, float(rng.choice([-1.0, 5.0]))))
        _assert_paths_equivalent(scans, backend=backend, num_shards=3, batch_size=4)

    @pytest.mark.slow
    def test_fixed_workload_process_backend(self):
        rng = np.random.default_rng(29)
        scans = []
        for _ in range(4):
            points = [tuple(row) for row in rng.uniform(-3.0, 3.0, size=(10, 3)).tolist()]
            origin = tuple(rng.uniform(-0.5, 0.5, size=3).tolist())
            scans.append((points, origin, -1.0))
        _assert_paths_equivalent(scans, backend="process", num_shards=2, batch_size=2)

    def test_boundary_clipped_scan_through_pipeline(self):
        # Beams leaving the addressable volume must carve free space but no
        # endpoint, identically on both front ends (the PR-5 no-hit fix).
        # A shallow tree keeps the volume (and the clipped beam) small: at
        # depth 8 / 0.2 m the addressable cube is +/- 25.6 m.
        from dataclasses import replace as dc_replace

        base = SessionConfig(num_shards=2, batch_size=2, shard_prefix_levels=8)
        config = dc_replace(base, accelerator=dc_replace(base.accelerator, tree_depth=8))
        far = config.accelerator.resolution_m * (1 << (config.accelerator.tree_depth - 1))
        scans = [
            ([(far * 3.0, 0.0, 0.0), (1.0, 1.0, 0.5)], (0.0, 0.0, 0.0), -1.0),
            ([(0.0, far * 2.0, 0.3)], (0.2, 0.2, 0.2), -1.0),
        ]

        def run(scalar_frontend: bool):
            session = MapSession(
                "map", dc_replace(config, scalar_frontend=scalar_frontend)
            )
            try:
                for request_id, (points, origin, max_range) in enumerate(scans):
                    session.submit(
                        ScanRequest(
                            session_id="map",
                            request_id=request_id,
                            cloud=PointCloud(points),
                            origin=origin,
                            max_range=max_range,
                        )
                    )
                session.flush_all()
                return session.export_octree(), session.stats.voxel_updates
            finally:
                session.close()

        tree_scalar, updates_scalar = run(True)
        tree_vector, updates_vector = run(False)
        report = compare_trees(tree_scalar, tree_vector, tolerance=0.0)
        assert report.equivalent, report.summary()
        assert updates_scalar == updates_vector > 0


class TestBatchWirePlumbing:
    def test_from_key_arrays_matches_from_updates(self):
        rng = np.random.default_rng(31)
        keys = rng.integers(0, 0x10000, size=(50, 3), dtype=np.int64)
        occupied = rng.integers(0, 2, size=50).astype(bool)
        updates = [
            VoxelUpdateRequest(OcTreeKey(x, y, z), occupied=bool(flag))
            for (x, y, z), flag in zip(keys.tolist(), occupied.tolist())
        ]
        via_objects = ShardUpdateBatch.from_updates(3, updates)
        via_arrays = ShardUpdateBatch.from_key_arrays(3, keys, occupied)
        assert via_arrays == via_objects
        # Identical wire buffers: same dtypes, same values, same order --
        # and the codes are the front end's own packing of the keys.
        for batch in (via_objects, via_arrays):
            assert batch.codes.dtype == np.uint64
            assert batch.occupied.dtype == np.bool_
        assert via_arrays.codes.tobytes() == via_objects.codes.tobytes()
        assert via_arrays.occupied.tobytes() == via_objects.occupied.tobytes()
        np.testing.assert_array_equal(via_arrays.codes, pack_key_array(keys))
        # The packed form is what the wire carries: the batch is also the
        # same when built from the codes directly.
        assert ShardUpdateBatch.from_key_arrays(3, pack_key_array(keys), occupied) == via_arrays

    def test_converter_derived_once_across_many_flushes(self):
        config = SessionConfig(num_shards=2, batch_size=1)
        session = MapSession("map", config)
        try:
            for request_id in range(5):
                session.submit(
                    ScanRequest(
                        session_id="map",
                        request_id=request_id,
                        cloud=PointCloud([(1.0 + 0.1 * request_id, 0.3, 0.2)]),
                        origin=(0.0, 0.0, 0.0),
                        max_range=-1.0,
                    )
                )
                session.flush_all()
            assert session.stats.batches_dispatched == 5
            assert session.stats.frontend_converter_builds == 1
        finally:
            session.close()


class TestScalarFrontendConfig:
    def test_with_scalar_frontend_helper(self):
        config = SessionConfig()
        assert config.scalar_frontend is False
        toggled = config.with_scalar_frontend()
        assert toggled.scalar_frontend is True
        assert toggled.with_scalar_frontend(False).scalar_frontend is False

    def test_pipeline_respects_config(self):
        session = MapSession("map", SessionConfig(scalar_frontend=True))
        try:
            assert session.pipeline.scalar_frontend is True
        finally:
            session.close()
        session = MapSession("map", SessionConfig())
        try:
            assert session.pipeline.scalar_frontend is False
        finally:
            session.close()
