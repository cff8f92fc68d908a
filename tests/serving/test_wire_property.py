"""Packed-code wire format: partition, pack, pickle and apply properties.

A flush travels from the ray-casting front end to a shard's array core as
``(codes, occupied)`` buffers: ``uint64`` packed keys
(:func:`~repro.octomap.raycast_vec.pack_key_array`) plus ``bool`` flags.
These properties pin every hop of that path:

* routing packed codes (:meth:`ShardRouter.partition_key_arrays`,
  :meth:`AddressGenerator.shard_indices`) equals the scalar per-request
  routing for every prefix depth 1-16 and shard counts up to ``8**P``;
* :meth:`ShardUpdateBatch.from_updates` and
  :meth:`ShardUpdateBatch.from_key_arrays` build identical buffers, dtypes
  included, and both refuse a component a 16-bit field cannot hold;
* a pickle round trip (the process pipe and socket transport) and the
  fleet's ``replace(batch, shard_id=...)`` view keep codes, dtype and order;
* :meth:`ArrayCore.apply` refuses a malformed code -- high bits set, or a
  component at or above ``2**tree_depth`` -- and leaves the core unchanged.

Mixing ``uint64`` with signed integers promotes differently across numpy
versions, so CI runs this file on both numpy lines of its matrix.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address_gen import AddressGenerator
from repro.core.config import DEFAULT_CONFIG, OMUConfig
from repro.core.scheduler import VoxelUpdateRequest
from repro.octomap.keys import OcTreeKey
from repro.octomap.raycast_vec import pack_key_array
from repro.serving.array_core import ArrayCore
from repro.serving.sharding import ShardRouter
from repro.serving.types import ShardUpdateBatch

_SETTINGS = settings(max_examples=60, deadline=None)

_component = st.integers(0, 0xFFFF)
_key = st.tuples(_component, _component, _component)
_stream = st.lists(st.tuples(_key, st.booleans()), max_size=80)


def _arrays(stream):
    keys = np.array([key for key, _ in stream], dtype=np.int64).reshape(-1, 3)
    occupied = np.array([flag for _, flag in stream], dtype=bool)
    return keys, occupied


def _requests(stream):
    return [VoxelUpdateRequest(OcTreeKey(*key), occupied=flag) for key, flag in stream]


@st.composite
def _routing(draw, max_shards=None):
    prefix_levels = draw(st.integers(1, 16))
    limit = 8 ** prefix_levels if max_shards is None else min(8 ** prefix_levels, max_shards)
    num_shards = draw(st.one_of(st.integers(1, limit), st.sampled_from((1, limit))))
    return prefix_levels, num_shards


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------
@_SETTINGS
@given(_routing(max_shards=512), _stream)
def test_packed_partition_equals_request_partition(routing, stream):
    prefix_levels, num_shards = routing
    router = ShardRouter(DEFAULT_CONFIG, num_shards, prefix_levels)
    keys, occupied = _arrays(stream)
    per_shard = router.partition_key_arrays(pack_key_array(keys), occupied)
    expected = router.partition(_requests(stream))
    assert len(per_shard) == num_shards
    for (codes, flags), requests in zip(per_shard, expected):
        assert codes.dtype == np.uint64 and flags.dtype == np.bool_
        want = ShardUpdateBatch.from_updates(0, requests)
        np.testing.assert_array_equal(codes, want.codes)
        np.testing.assert_array_equal(flags, want.occupied)


@_SETTINGS
@given(_routing(), st.lists(_key, min_size=1, max_size=40))
def test_shard_indices_on_codes_equal_scalar_shard_index(routing, keys):
    """The full shard range up to ``8**P``, where the subtree number itself
    (up to ``2**48``) is the shard id."""
    prefix_levels, num_shards = routing
    generator = AddressGenerator(DEFAULT_CONFIG.resolution_m, 16, DEFAULT_CONFIG.num_pes)
    codes = pack_key_array(np.array(keys, dtype=np.int64))
    got = generator.shard_indices(codes, num_shards, prefix_levels)
    assert got.dtype == np.int64
    assert got.tolist() == [
        generator.shard_index(OcTreeKey(*key), num_shards, prefix_levels) for key in keys
    ]


# ---------------------------------------------------------------------------
# Pack
# ---------------------------------------------------------------------------
@_SETTINGS
@given(st.integers(0, 7), _stream)
def test_from_updates_equals_from_key_arrays(shard_id, stream):
    keys, occupied = _arrays(stream)
    via_objects = ShardUpdateBatch.from_updates(shard_id, _requests(stream))
    via_arrays = ShardUpdateBatch.from_key_arrays(shard_id, keys, occupied)
    for batch in (via_objects, via_arrays):
        assert batch.shard_id == shard_id
        assert batch.codes.dtype == np.uint64 and batch.codes.shape == (len(stream),)
        assert batch.occupied.dtype == np.bool_ and batch.occupied.shape == (len(stream),)
    assert via_arrays.codes.tobytes() == via_objects.codes.tobytes()
    assert via_arrays.occupied.tobytes() == via_objects.occupied.tobytes()
    assert via_arrays.entries == tuple((*key, flag) for key, flag in stream)


@pytest.mark.parametrize("bad", (-1, 1 << 16, (1 << 16) + 5, 1 << 40))
@pytest.mark.parametrize("field", (0, 1, 2))
def test_both_packers_refuse_components_a_field_cannot_hold(bad, field):
    key = [7, 8, 9]
    key[field] = bad
    with pytest.raises(ValueError, match="outside the packable range"):
        ShardUpdateBatch.from_key_arrays(0, np.array([[1, 2, 3], key]), [True, False])
    # OcTreeKey refuses such a component itself; a duck-typed key shows the
    # scalar packer checks before packing too.
    update = SimpleNamespace(key=SimpleNamespace(x=key[0], y=key[1], z=key[2]), occupied=True)
    with pytest.raises(ValueError, match="outside the packable range"):
        ShardUpdateBatch.from_updates(0, [update])


def test_misaligned_buffers_are_refused():
    with pytest.raises(ValueError, match="aligned"):
        ShardUpdateBatch(shard_id=0, codes=[1, 2], occupied=[True])
    with pytest.raises(ValueError, match="aligned"):
        ShardUpdateBatch(shard_id=0, codes=[[1, 2]], occupied=[[True, False]])


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------
@_SETTINGS
@given(_stream, st.sampled_from(range(2, pickle.HIGHEST_PROTOCOL + 1)))
def test_pickle_round_trip_keeps_codes_dtype_and_order(stream, protocol):
    batch = ShardUpdateBatch.from_key_arrays(3, *_arrays(stream))
    clone = pickle.loads(pickle.dumps(batch, protocol=protocol))
    assert clone == batch
    assert clone.shard_id == 3
    assert clone.codes.dtype == np.uint64 and clone.occupied.dtype == np.bool_
    assert clone.codes.tobytes() == batch.codes.tobytes()
    assert clone.occupied.tobytes() == batch.occupied.tobytes()
    # The fleet re-addresses a slice with ``replace``: same buffers, new id.
    view = replace(clone, shard_id=11)
    assert view.shard_id == 11
    assert view.codes is clone.codes and view.occupied is clone.occupied


def test_wire_cost_is_about_nine_bytes_per_update():
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 1 << 16, size=(4096, 3), dtype=np.int64)
    batch = ShardUpdateBatch.from_key_arrays(1, keys, rng.integers(0, 2, 4096).astype(bool))
    size = len(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL))
    assert size < 9.2 * len(batch)


# ---------------------------------------------------------------------------
# Apply
# ---------------------------------------------------------------------------
@st.composite
def _bad_codes(draw, tree_depth):
    """One code the core must refuse: a high bit, or an oversized component."""
    if tree_depth == 16 or draw(st.booleans()):
        return draw(st.integers(0, (1 << 48) - 1)) | (1 << draw(st.integers(48, 63)))
    # At depth < 16 a component can overflow the tree inside its own field.
    field = draw(st.integers(0, 2))
    key = [draw(st.integers(0, (1 << tree_depth) - 1)) for _ in range(3)]
    key[field] = draw(st.integers(1 << tree_depth, 0xFFFF))
    return (key[0] << 32) | (key[1] << 16) | key[2]


@st.composite
def _poisoned(draw):
    tree_depth = draw(st.sampled_from((8, 16)))
    component = st.integers(0, (1 << tree_depth) - 1)
    key = st.tuples(component, component, component)
    good = draw(st.lists(st.tuples(key, st.booleans()), min_size=1, max_size=30))
    batch = draw(st.lists(st.tuples(key, st.booleans()), max_size=30))
    bad = draw(_bad_codes(tree_depth))
    position = draw(st.integers(0, len(batch)))
    return tree_depth, good, batch, bad, position


@_SETTINGS
@given(_poisoned())
def test_apply_refuses_malformed_codes_and_leaves_the_core_unchanged(case):
    tree_depth, good, batch, bad, position = case
    core = ArrayCore(replace(OMUConfig(), tree_depth=tree_depth))
    keys, occupied = _arrays(good)
    core.apply(pack_key_array(keys), occupied)
    before = [array.copy() for array in core.leaves()]
    keys, occupied = _arrays(batch)
    codes = np.insert(pack_key_array(keys), position, np.uint64(bad))
    flags = np.insert(occupied, position, True)
    with pytest.raises(ValueError, match="outside the key space"):
        core.apply(codes, flags)
    for got, want in zip(core.leaves(), before):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("tree_depth", (8, 16))
def test_apply_accepts_the_largest_valid_key(tree_depth):
    top = (1 << tree_depth) - 1
    core = ArrayCore(replace(OMUConfig(), tree_depth=tree_depth))
    codes = pack_key_array(np.array([[top, top, top], [0, 0, 0]]))
    assert core.apply(codes, np.array([True, False])) > 0
    assert len(core) == 2
