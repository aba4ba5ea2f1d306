"""A classic B+ tree.

This is the traditional baseline structure the learned indexes are
compared against throughout the benchmark. It is a textbook in-memory
B+ tree: all values live in leaves, leaves are chained for range scans,
inner nodes hold separator keys, and nodes split at ``order`` entries.

Deletes use lazy underflow handling (merge with a sibling when a node
drops below half capacity) which keeps the structure valid without the
full rebalancing zoo; the benchmark exercises read/insert-heavy paths.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, KeyNotFoundError
from repro.indexes.base import OrderedIndex


class _Node:
    """A B+ tree node; ``leaf`` nodes carry values, inner nodes children."""

    __slots__ = ("keys", "children", "values", "next", "leaf", "__weakref__")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.keys: List[float] = []
        self.children: List["_Node"] = []
        self.values: List[Any] = []
        self.next: Optional["_Node"] = None


class BPlusTree(OrderedIndex):
    """In-memory B+ tree with configurable fanout.

    Args:
        order: Maximum number of keys per node (>= 3). Smaller orders make
            deeper trees, useful for testing; 64 approximates a cache-line
            conscious in-memory tree.
    """

    def __init__(self, order: int = 64) -> None:
        super().__init__()
        if order < 3:
            raise ConfigurationError(f"B+ tree order must be >= 3, got {order}")
        self._order = order
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1
        self._bulk_cache = None

    @property
    def order(self) -> int:
        """Maximum number of keys per node."""
        return self._order

    @property
    def height(self) -> int:
        """Current tree height (1 = root is a leaf)."""
        return self._height

    # -- search ---------------------------------------------------------------

    def _find_leaf(self, key: float) -> _Node:
        """Descend from the root to the leaf responsible for ``key``."""
        node = self._root
        while not node.leaf:
            self.stats.node_accesses += 1
            idx = bisect.bisect_right(node.keys, key)
            self.stats.comparisons += max(1, len(node.keys).bit_length())
            node = node.children[idx]
        self.stats.node_accesses += 1
        return node

    def get(self, key: float) -> Any:
        self.stats.lookups += 1
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        self.stats.comparisons += max(1, len(leaf.keys).bit_length())
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        raise KeyNotFoundError(key)

    # -- bulk lookup -----------------------------------------------------------

    def _build_bulk_cache(self):
        """Flatten the tree for vectorized routing.

        An in-order walk yields every inner separator in sorted order (one
        per leaf boundary), which makes the per-node ``bisect_right``
        descent equivalent to one global ``searchsorted`` over the
        flattened separators. Per-leaf comparison/node-access totals are
        precomputed along each root-to-leaf path. Returns ``False`` if the
        separator invariant does not hold or a key is NaN (unsupported
        shape: NaN compares false both ways, so neither order check nor
        ``searchsorted`` routing can be trusted).

        The walk uses an explicit stack: a self-referencing closure would
        form a reference cycle that keeps every leaf alive until the
        cyclic GC runs. Writes keep the result exact instead of dropping
        it (see :meth:`bulk_lookup`).
        """
        seps: List[float] = []
        leaves: List[Tuple[_Node, int, int]] = []
        # (node, comparisons so far, depth, separator preceding node)
        stack: List[Tuple[_Node, int, int, Optional[float]]] = [
            (self._root, 0, 0, None)
        ]
        while stack:
            node, comps, depth, sep = stack.pop()
            if sep is not None:
                seps.append(sep)
            if node.leaf:
                leaves.append((node, comps, depth))
                continue
            step = comps + max(1, len(node.keys).bit_length())
            for i in range(len(node.children) - 1, -1, -1):
                stack.append(
                    (node.children[i], step, depth + 1, node.keys[i - 1] if i else None)
                )
        sep_arr = np.asarray(seps, dtype=np.float64)
        if sep_arr.size and (np.diff(sep_arr) < 0).any():
            return False
        sizes = np.asarray([len(leaf.keys) for leaf, _, _ in leaves], dtype=np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        all_keys = np.asarray(
            [k for leaf, _, _ in leaves for k in leaf.keys], dtype=np.float64
        )
        if all_keys.size > 1 and (np.diff(all_keys) < 0).any():
            return False
        if np.isnan(all_keys).any():
            return False
        leaf_comps = np.asarray(
            [
                comps + max(1, len(leaf.keys).bit_length())
                for leaf, comps, _ in leaves
            ],
            dtype=np.int64,
        )
        leaf_na = np.asarray([depth + 1 for _, _, depth in leaves], dtype=np.int64)
        return sep_arr, all_keys, starts, ends, leaf_comps, leaf_na

    def _patch_bulk_cache(self, key: float, idx: int, leaf_len: int) -> None:
        """Add a new ``key``, stored at ``idx`` of a leaf that did not
        split and now holds ``leaf_len`` keys, to the bulk cache in place.

        The result equals a fresh :meth:`_build_bulk_cache`: separators
        and paths are unchanged and one leaf grows by one key. A cache
        exists only for a NaN-free tree with sorted separators, so
        ``searchsorted`` routes a non-NaN key to the leaf the descent
        reached; a NaN key drops the cache (the rebuild refuses it).
        """
        if key != key:
            self._bulk_cache = None
            return
        sep_arr, all_keys, starts, ends, leaf_comps, leaf_na = self._bulk_cache
        leaf = int(np.searchsorted(sep_arr, key, side="right"))
        pos = int(starts[leaf]) + idx
        ends[leaf:] += 1
        starts[leaf + 1 :] += 1
        leaf_comps[leaf] += max(1, leaf_len.bit_length()) - max(
            1, (leaf_len - 1).bit_length()
        )
        all_keys = np.insert(all_keys, pos, key)
        self._bulk_cache = (sep_arr, all_keys, starts, ends, leaf_comps, leaf_na)

    def bulk_lookup(self, keys) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorized point lookups via one global separator search.

        The flattened cache is built on first use and kept in step with
        writes: :meth:`insert` of a stored key (a value change) keeps it,
        :meth:`insert` of a new key into a leaf that does not split
        patches it in place, and any split, :meth:`delete` or
        :meth:`bulk_load` drops it for a rebuild here. Full builds are
        counted in ``stats.bulk_cache_builds``.
        """
        if self._bulk_cache is None:
            self._bulk_cache = self._build_bulk_cache()
            self.stats.bulk_cache_builds += 1
        cache = self._bulk_cache
        if cache is False:
            return None
        sep_arr, all_keys, starts, ends, leaf_comps, leaf_na = cache
        if all_keys.size == 0:
            return None
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        leaf_idx = np.searchsorted(sep_arr, keys, side="right")
        pos = np.searchsorted(all_keys, keys, side="left")
        ok = pos < all_keys.size
        ok &= all_keys[np.minimum(pos, all_keys.size - 1)] == keys
        ok &= (pos >= starts[leaf_idx]) & (pos < ends[leaf_idx])
        if not ok.all():
            return None
        comps = leaf_comps[leaf_idx]
        na = leaf_na[leaf_idx]
        self.stats.lookups += keys.size
        self.stats.comparisons += int(comps.sum())
        self.stats.node_accesses += int(na.sum())
        return comps, na, np.zeros(keys.size, dtype=np.int64)

    # -- insert ---------------------------------------------------------------

    def insert(self, key: float, value: Any) -> None:
        if self._bulk_cache is False:
            self._bulk_cache = None
        self.stats.inserts += 1
        root = self._root
        result = self._insert_into(root, key, value)
        if result is not None:
            sep, right = result
            new_root = _Node(leaf=False)
            new_root.keys = [sep]
            new_root.children = [root, right]
            self._root = new_root
            self._height += 1

    def _insert_into(
        self, node: _Node, key: float, value: Any
    ) -> Optional[Tuple[float, _Node]]:
        """Insert under ``node``; return (separator, new right node) on split."""
        self.stats.node_accesses += 1
        if node.leaf:
            idx = bisect.bisect_left(node.keys, key)
            self.stats.comparisons += max(1, len(node.keys).bit_length())
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self._size += 1
            if len(node.keys) > self._order:
                self._bulk_cache = None
                return self._split_leaf(node)
            if self._bulk_cache is not None:
                self._patch_bulk_cache(key, idx, len(node.keys))
            return None

        idx = bisect.bisect_right(node.keys, key)
        self.stats.comparisons += max(1, len(node.keys).bit_length())
        result = self._insert_into(node.children[idx], key, value)
        if result is None:
            return None
        sep, right = result
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.keys) > self._order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, node: _Node) -> Tuple[float, _Node]:
        mid = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        node.next = right
        return right.keys[0], right

    def _split_inner(self, node: _Node) -> Tuple[float, _Node]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # -- delete ---------------------------------------------------------------

    def delete(self, key: float) -> None:
        self._bulk_cache = None
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyNotFoundError(key)
        del leaf.keys[idx]
        del leaf.values[idx]
        self._size -= 1
        self.stats.deletes += 1
        # Lazy underflow: tolerate sparse leaves; collapse an empty root chain.
        if not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._height -= 1

    # -- range / iteration ------------------------------------------------------

    def range(self, low: float, high: float) -> List[Tuple[float, Any]]:
        self.stats.range_scans += 1
        leaf: Optional[_Node] = self._find_leaf(low)
        out: List[Tuple[float, Any]] = []
        while leaf is not None:
            self.stats.node_accesses += 1
            for k, v in zip(leaf.keys, leaf.values):
                if k < low:
                    continue
                if k > high:
                    return out
                out.append((k, v))
            leaf = leaf.next
        return out

    def items(self) -> Iterator[Tuple[float, Any]]:
        node = self._root
        while not node.leaf:
            node = node.children[0]
        leaf: Optional[_Node] = node
        while leaf is not None:
            for k, v in zip(list(leaf.keys), list(leaf.values)):
                yield k, v
            leaf = leaf.next

    def bulk_load(self, pairs: List[Tuple[float, Any]]) -> None:
        """Build bottom-up from sorted pairs (deduplicated by last wins)."""
        self._bulk_cache = None
        ordered = sorted(pairs, key=lambda kv: kv[0])
        dedup: List[Tuple[float, Any]] = []
        for k, v in ordered:
            if dedup and dedup[-1][0] == k:
                dedup[-1] = (k, v)
            else:
                dedup.append((k, v))
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1
        if not dedup:
            return
        per_leaf = max(1, (self._order + 1) // 2)
        leaves: List[_Node] = []
        for start in range(0, len(dedup), per_leaf):
            chunk = dedup[start : start + per_leaf]
            leaf = _Node(leaf=True)
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        self._size = len(dedup)
        self.stats.inserts += len(dedup)
        level: List[_Node] = leaves
        height = 1
        while len(level) > 1:
            parents: List[_Node] = []
            per_inner = max(2, (self._order + 1) // 2 + 1)
            for start in range(0, len(level), per_inner):
                group = level[start : start + per_inner]
                if len(group) == 1 and parents:
                    # Fold a lone trailing child into the previous parent.
                    parents[-1].keys.append(self._min_key(group[0]))
                    parents[-1].children.append(group[0])
                    continue
                parent = _Node(leaf=False)
                parent.children = group
                parent.keys = [self._min_key(child) for child in group[1:]]
                parents.append(parent)
            level = parents
            height += 1
        self._root = level[0]
        self._height = height

    @staticmethod
    def _min_key(node: _Node) -> float:
        while not node.leaf:
            node = node.children[0]
        return node.keys[0]

    def size_bytes(self) -> int:
        """Keys + child/value pointers + per-node header (64 B)."""
        nodes = 0
        entries = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes += 1
            entries += len(node.keys)
            if not node.leaf:
                entries += len(node.children)
                stack.extend(node.children)
            else:
                entries += len(node.values)
        return entries * 8 + nodes * 64

    def __len__(self) -> int:
        return self._size
