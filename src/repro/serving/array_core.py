"""Array-native map store of one serving shard.

:class:`ArrayCore` keeps a shard's map as two aligned numpy arrays: the
sorted packed ``uint64`` codes of every observed finest-depth leaf (the
:func:`~repro.octomap.raycast_vec.pack_key_array` packing) and their
fixed-point log-odds on the accelerator's raw grid.  It computes the same map
the modelled PE array of :class:`~repro.core.accelerator.OMUAccelerator`
computes, without walking a banked tree one voxel at a time:

* **Apply.**  A batch is stable-sorted by code, keys not yet stored are
  merged in at raw 0 (the value a PE gives a fresh leaf), and the batch is
  applied in occurrence-rank rounds: round *r* applies every key's *r*-th
  update as one ``np.clip(v + delta, raw_clamp_min, raw_clamp_max)``.  Per
  voxel, updates land in stream order, so clamp saturation is exact; the
  round count is the largest per-key multiplicity in the batch.
* **Query.**  One ``searchsorted`` over the codes.  The PE array prunes a
  node only when all eight children are equal leaves, so every finest voxel
  under a pruned region was observed and holds the region's value: a
  finest-leaf lookup answers exactly what the PE walk answers.
* **Inner nodes and pruning** exist only on export, built the way OctoMap's
  lazy ``updateInnerOccupancy`` does (Hornung et al., *Autonomous Robots*
  2013): every leaf is written with ``propagate=False``, then one
  :meth:`~repro.octomap.octree.OccupancyOcTree.update_inner_occupancy` pass
  and one :meth:`~repro.octomap.octree.OccupancyOcTree.prune` pass.

Cycle counts reported here are **nominal**: ``N`` scheduler issues plus the
busiest PE's update count times the cost of one update that neither
allocates, expands nor prunes (:func:`steady_update_cycles`).  They are
deterministic, positive for a non-empty batch and monotone in the update
subset, but they are not the modelled accounting: exact cycle counts, the
memory model and the paper's tables live only on ``OMUAccelerator``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.address_gen import AddressGenerator
from repro.core.config import OMUConfig, TimingParams
from repro.core.query_unit import QueryResult
from repro.octomap.keys import KeyConverter, OcTreeKey
from repro.octomap.logodds import probability as logodds_to_probability
from repro.octomap.octree import OccupancyOcTree
from repro.octomap.raycast_vec import pack_key_array, unpack_key_array

__all__ = ["ArrayCore", "steady_update_cycles", "steady_query_cycles"]


def steady_update_cycles(timing: TimingParams, tree_depth: int) -> int:
    """PE cycles of one voxel update that allocates, expands and prunes nothing.

    The walk down reads one entry per level (``D`` bank reads), the leaf
    update is one ALU operation and one bank write, and each of the ``D - 1``
    parents costs a row read, the max and prune-check ALU operations and a
    bank write: 78 cycles at ``D = 16`` with unit costs.
    """
    per_parent = timing.row_read_cycles + 2 * timing.alu_cycles + timing.bank_write_cycles
    return (
        tree_depth * timing.bank_read_cycles
        + timing.alu_cycles
        + timing.bank_write_cycles
        + (tree_depth - 1) * per_parent
    )


def steady_query_cycles(timing: TimingParams, tree_depth: int) -> int:
    """Cycles of one voxel query walking to the finest depth (issue + reads + threshold)."""
    return timing.query_issue_cycles + tree_depth * timing.bank_read_cycles + timing.alu_cycles


class ArrayCore:
    """One shard's occupancy map as sorted leaf codes plus raw log-odds."""

    def __init__(self, config: OMUConfig) -> None:
        if config.num_pes > 8:
            raise ValueError(
                "the first-level-branch partitioning supports at most 8 PEs; "
                f"got num_pes={config.num_pes}"
            )
        if config.fixed_point.total_bits > 16:
            raise ValueError("the array core stores log-odds as 16-bit raws")
        self.config = config
        self._address_generator = AddressGenerator(
            config.resolution_m, config.tree_depth, config.num_pes
        )
        self._params = config.quantized_params()
        self._update_cycles = steady_update_cycles(config.timing, config.tree_depth)
        self.query_cycles = steady_query_cycles(config.timing, config.tree_depth)
        field = (1 << config.tree_depth) - 1
        #: Bits no valid code may set: bits 48-63 and, inside each 16-bit
        #: field, the bits at or above ``tree_depth``.
        self._invalid_bits = np.uint64(~((field << 32) | (field << 16) | field) & (2**64 - 1))
        self._codes = np.empty(0, dtype=np.uint64)
        self._values = np.empty(0, dtype=np.int16)

    @property
    def converter(self) -> KeyConverter:
        """The coordinate <-> key converter of this map."""
        return self._address_generator.converter

    def __len__(self) -> int:
        """Number of observed finest-depth leaves."""
        return int(self._codes.size)

    def leaves(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only views of the sorted leaf codes and their raw log-odds."""
        codes, values = self._codes.view(), self._values.view()
        codes.flags.writeable = False
        values.flags.writeable = False
        return codes, values

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------
    def apply(self, codes: np.ndarray, occupied: np.ndarray) -> int:
        """Apply packed-code updates in stream order.

        Args:
            codes: ``(N,)`` uint64 packed keys
                (:func:`~repro.octomap.raycast_vec.pack_key_array` layout).
            occupied: ``(N,)`` bool hit/miss flags aligned with ``codes``.

        Dtypes and alignment are :class:`~repro.serving.types.ShardUpdateBatch`'s
        to enforce; the key space is this core's.  Every code is checked
        before anything changes -- no bit at or above 48, every component in
        ``[0, 2**tree_depth)`` -- so a bad batch raises :class:`ValueError`
        and leaves the map untouched.  Returns the batch's nominal
        critical-path cycles (0 for an empty batch).
        """
        if codes.size == 0:
            return 0
        bad = (codes & self._invalid_bits) != 0
        if bad.any():
            code = int(codes[np.argmax(bad)])
            key = ((code >> 32) & 0xFFFF, (code >> 16) & 0xFFFF, code & 0xFFFF)
            raise ValueError(
                f"update code {code:#x} (key {key}) outside the key space: components "
                f"must lie in [0, {1 << self.config.tree_depth}) and bits 48-63 be clear"
            )
        deltas = np.where(occupied, self._params.raw_hit, self._params.raw_miss)

        batch_order = np.argsort(codes, kind="stable")
        sorted_codes = codes[batch_order]
        deltas = deltas[batch_order]
        count = sorted_codes.size
        starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
        batch_codes = sorted_codes[starts]
        multiplicity = np.diff(np.r_[starts, count])
        # rank[i]: how many earlier updates of the same key precede update i.
        rank = np.arange(count) - np.repeat(starts, multiplicity)
        group = np.repeat(np.arange(starts.size), multiplicity)

        leaves, values = self._codes, self._values
        slots = np.searchsorted(leaves, batch_codes)
        known = slots < leaves.size
        known[known] = leaves[slots[known]] == batch_codes[known]
        if not known.all():
            # ``slots`` already holds each fresh key's insertion point.
            leaves = np.insert(leaves, slots[~known], batch_codes[~known])
            values = np.insert(values, slots[~known], 0)
            slots = np.searchsorted(leaves, batch_codes)

        current = values[slots].astype(np.int32)
        by_round = np.argsort(rank, kind="stable")
        for step in np.split(by_round, np.cumsum(np.bincount(rank))[:-1]):
            touched = group[step]
            current[touched] = np.clip(
                current[touched] + deltas[step],
                self._params.raw_clamp_min,
                self._params.raw_clamp_max,
            )
        values[slots] = current
        self._codes, self._values = leaves, values

        # A key's PE is its first-level branch modulo the PE count: the
        # one-level shard fold over ``num_pes`` "shards".
        pes = self._address_generator.shard_indices(codes, self.config.num_pes, 1)
        busiest = int(np.bincount(pes).max())
        return count * self.config.timing.scheduler_issue_cycles + busiest * self._update_cycles

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def lookup(self, key: OcTreeKey) -> Optional[int]:
        """Raw log-odds of a finest voxel, or None when it was never observed."""
        code = np.uint64((key.x << 32) | (key.y << 16) | key.z)  # pack_key_array's layout
        index = int(np.searchsorted(self._codes, code))
        if index < self._codes.size and self._codes[index] == code:
            return int(self._values[index])
        return None

    def query_key(self, key: OcTreeKey) -> QueryResult:
        """Occupancy of one voxel, classified against the occupancy threshold."""
        pe_id = self._address_generator.pe_for_key(key)
        raw = self.lookup(key)
        if raw is None:
            return QueryResult("unknown", None, pe_id, self.query_cycles)
        status = "occupied" if self._params.is_occupied_raw(raw) else "free"
        probability = logodds_to_probability(self.config.fixed_point.to_value(raw))
        return QueryResult(status, probability, pe_id, self.query_cycles)

    # ------------------------------------------------------------------
    # Export / restore
    # ------------------------------------------------------------------
    def export_octree(self) -> OccupancyOcTree:
        """The map as a pruned software octree on the quantised parameters."""
        tree = OccupancyOcTree(
            self.config.resolution_m,
            tree_depth=self.config.tree_depth,
            params=self._params.as_float_params(),
        )
        log_odds = (self._values.astype(np.float64) * self.config.fixed_point.scale).tolist()
        for (x, y, z), value in zip(unpack_key_array(self._codes).tolist(), log_odds):
            tree.set_node_log_odds(OcTreeKey(x, y, z), value, propagate=False)
        tree.update_inner_occupancy()
        tree.prune()
        return tree

    def load_octree(self, tree: OccupancyOcTree) -> None:
        """Load a software octree into an empty core.

        Each leaf above the finest depth (a pruned homogeneous region) is
        expanded into the finest codes it covers, all carrying its value.
        Log-odds are re-quantised with the core's fixed-point format, which
        is lossless for trees this core exported.
        """
        if self._codes.size:
            raise ValueError("load_octree requires an empty core")
        if tree.resolution != self.config.resolution_m:
            raise ValueError(
                f"snapshot resolution {tree.resolution} does not match the "
                f"shard's {self.config.resolution_m}"
            )
        depth = self.config.tree_depth
        if tree.tree_depth != depth:
            raise ValueError(
                f"snapshot tree depth {tree.tree_depth} does not match the shard's {depth}"
            )
        fmt = self.config.fixed_point
        blocks = []
        raws = []
        for leaf in tree.iter_leafs():
            keys = np.array([leaf.key.as_tuple()], dtype=np.int64)
            if leaf.depth < depth:
                # A coarse leaf's key is its region's centre voxel.
                side = 1 << (depth - leaf.depth)
                axis = np.arange(side, dtype=np.int64)
                grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
                keys = grid.reshape(-1, 3) + (keys - side // 2)
            blocks.append(pack_key_array(keys))
            raws.append(np.full(keys.shape[0], fmt.to_raw(leaf.log_odds), dtype=np.int16))
        if not blocks:
            return
        codes = np.concatenate(blocks)
        order = np.argsort(codes)
        self._codes = codes[order]
        self._values = np.concatenate(raws)[order]
