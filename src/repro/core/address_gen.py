"""Address generation: from voxel keys to per-level child indices.

The OMU address-generation module (Fig. 4, block "Addr Gen") turns the input
voxel coordinate into the sequence of child indices that guides the TreeMem
accesses at each tree depth.  Because the OcTreeKey bits directly encode the
root-to-leaf path (one bit per axis per level), the hardware is a simple bit
multiplexer; this model reuses :class:`repro.octomap.keys.OcTreeKey` and adds
the PE-routing view of the same bits:

* level 0 (the root's child choice) selects the **PE** that owns the voxel --
  this is the first-level tree-branch partitioning of Section IV-A;
* levels 1 .. depth-1 select the banks/rows walked inside that PE.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.octomap.keys import KeyConverter, OcTreeKey

__all__ = ["AddressGenerator"]

# Bit moves that gather one level's child index out of a packed key code.
_X_TO_BIT0 = np.uint64(32)
_Y_TO_BIT1 = np.uint64(15)
_Z_TO_BIT2 = np.uint64(2)
_BIT0 = np.uint64(1)
_BIT1 = np.uint64(2)
_BIT2 = np.uint64(4)
_CHILD_BITS = np.uint64(3)


class AddressGenerator:
    """Derives PE routing and per-level child indices from voxel keys."""

    def __init__(self, resolution_m: float, tree_depth: int, num_pes: int) -> None:
        if num_pes < 1:
            raise ValueError("num_pes must be at least 1")
        self._converter = KeyConverter(resolution_m, tree_depth)
        self._tree_depth = tree_depth
        self._num_pes = num_pes

    @property
    def converter(self) -> KeyConverter:
        """The coordinate <-> key converter used by the accelerator."""
        return self._converter

    @property
    def tree_depth(self) -> int:
        """Tree depth of the mapped octree."""
        return self._tree_depth

    def key_for_point(self, x: float, y: float, z: float) -> OcTreeKey:
        """Discretise a metric point into its voxel key."""
        return self._converter.coord_to_key(x, y, z)

    def branch_id(self, key: OcTreeKey) -> int:
        """First-level tree branch (0..7) of a voxel -- the partitioning index."""
        return key.child_index(0, self._tree_depth)

    def pe_for_key(self, key: OcTreeKey) -> int:
        """PE that owns the voxel.

        With the paper's 8 PEs this is exactly the first-level branch.  For
        the PE-count ablation, fewer PEs each own several branches
        (``branch % num_pes``); more than 8 PEs additionally split on the
        second-level branch so the mapping stays balanced.
        """
        branch = self.branch_id(key)
        if self._num_pes <= 8:
            return branch % self._num_pes
        second = key.child_index(1, self._tree_depth)
        return (branch * 8 + second) % self._num_pes

    def shard_prefix(self, key: OcTreeKey, prefix_levels: int = 1) -> Tuple[int, ...]:
        """Octree-key prefix used for spatial sharding.

        The first ``prefix_levels`` child indices of the root-to-leaf path
        identify the subtree a voxel lives in; the serving layer's shard
        router hashes this prefix to pick the map worker that owns the voxel.
        One level distinguishes the 8 first-level branches (the same
        partitioning the PE array uses), two levels distinguish 64 subtrees,
        and so on.
        """
        if not 1 <= prefix_levels <= self._tree_depth:
            raise ValueError(
                f"prefix_levels must be in [1, {self._tree_depth}], got {prefix_levels}"
            )
        return key.path(self._tree_depth, max_level=prefix_levels)

    def shard_index(self, key: OcTreeKey, num_shards: int, prefix_levels: int = 1) -> int:
        """Shard (0..num_shards-1) owning a voxel, from its key prefix.

        The prefix is folded into a subtree number and reduced modulo the
        shard count, so any ``num_shards >= 1`` yields a total, deterministic
        and spatially coherent partition of the key space.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        subtree = 0
        for child_index in self.shard_prefix(key, prefix_levels):
            subtree = subtree * 8 + child_index
        return subtree % num_shards

    def shard_indices(self, codes: np.ndarray, num_shards: int, prefix_levels: int = 1) -> np.ndarray:
        """Array counterpart of :meth:`shard_index` for ``(N,)`` packed key codes.

        ``codes`` use the :func:`~repro.octomap.raycast_vec.pack_key_array`
        layout (x in bits 32-47, y in 16-31, z in 0-15).  The child indices
        are read straight off the code bits and folded exactly like the
        scalar path, so ``shard_indices(codes)[i] ==
        shard_index(OcTreeKey(*unpack(codes[i])))`` for every code.  Returns
        int64 shard ids.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if not 1 <= prefix_levels <= self._tree_depth:
            raise ValueError(
                f"prefix_levels must be in [1, {self._tree_depth}], got {prefix_levels}"
            )
        codes = np.asarray(codes)
        if codes.dtype != np.uint64:
            codes = codes.astype(np.uint64)
        # Every constant is np.uint64: mixing uint64 with a signed integer
        # promotes to float64 under numpy 1.x rules.
        subtree = np.zeros(codes.shape, dtype=np.uint64)
        for level in range(prefix_levels):
            lane = codes >> np.uint64(self._tree_depth - 1 - level)
            # x bit 32 -> child bit 0, y bit 16 -> child bit 1, z bit 0 -> child bit 2.
            child = (
                ((lane >> _X_TO_BIT0) & _BIT0)
                | ((lane >> _Y_TO_BIT1) & _BIT1)
                | ((lane << _Z_TO_BIT2) & _BIT2)
            )
            # 8**16 == 2**48, so the subtree number fits at any prefix depth.
            subtree = (subtree << _CHILD_BITS) | child
        return (subtree % np.uint64(num_shards)).astype(np.int64)

    def child_path(self, key: OcTreeKey) -> Tuple[int, ...]:
        """Child indices from below the root down to the leaf.

        Index 0 of the returned tuple selects the child of the PE's local
        root (a depth-1 node); the last index selects the leaf voxel.
        """
        return key.path(self._tree_depth)[1:]

    def full_path(self, key: OcTreeKey) -> Tuple[int, ...]:
        """Child indices from the root down to the leaf (including level 0)."""
        return key.path(self._tree_depth)

    def keys_for_points(self, points: Sequence[Sequence[float]]) -> Tuple[OcTreeKey, ...]:
        """Vectorised convenience wrapper over :meth:`key_for_point`."""
        return tuple(self.key_for_point(*point) for point in points)
