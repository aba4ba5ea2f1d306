"""B+ tree specifics: splits, height, bulk-load structure, ordering."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.indexes.btree import BPlusTree


class TestConstruction:
    def test_rejects_tiny_order(self):
        with pytest.raises(ConfigurationError):
            BPlusTree(order=2)

    def test_order_property(self):
        assert BPlusTree(order=8).order == 8

    def test_initial_height(self):
        assert BPlusTree().height == 1


class TestSplits:
    def test_height_grows_with_inserts(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(float(i), i)
        assert tree.height >= 3
        assert len(tree) == 100

    def test_random_insert_order_consistent(self, rng):
        tree = BPlusTree(order=4)
        keys = rng.permutation(500).astype(float)
        for k in keys:
            tree.insert(float(k), int(k))
        assert len(tree) == 500
        assert tree.keys() == sorted(float(k) for k in keys)

    def test_descending_inserts(self):
        tree = BPlusTree(order=4)
        for i in reversed(range(200)):
            tree.insert(float(i), i)
        assert tree.keys() == [float(i) for i in range(200)]


class TestBulkLoad:
    def test_bulk_load_height_reasonable(self, small_pairs):
        tree = BPlusTree(order=64)
        tree.bulk_load(small_pairs)
        # ~1200 keys at 32/leaf -> <=40 leaves -> height 2-3.
        assert tree.height <= 3

    def test_bulk_load_then_insert(self, small_pairs):
        tree = BPlusTree(order=16)
        tree.bulk_load(small_pairs)
        tree.insert(-1.0, "front")
        tree.insert(1e12, "back")
        assert tree.get(-1.0) == "front"
        assert tree.get(1e12) == "back"
        assert tree.keys()[0] == -1.0
        assert tree.keys()[-1] == 1e12

    def test_bulk_load_empty(self):
        tree = BPlusTree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_single(self):
        tree = BPlusTree()
        tree.bulk_load([(1.0, "x")])
        assert tree.get(1.0) == "x"


class TestLeafChain:
    def test_range_spans_leaves(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(float(i), i)
        result = tree.range(10.0, 90.0)
        assert [k for k, _ in result] == [float(i) for i in range(10, 91)]

    def test_items_spans_leaves_after_mixed_ops(self, rng):
        tree = BPlusTree(order=4)
        keys = set()
        for k in rng.permutation(300).astype(float):
            tree.insert(float(k), 1)
            keys.add(float(k))
        for k in list(keys)[:50]:
            tree.delete(k)
            keys.remove(k)
        assert [k for k, _ in tree.items()] == sorted(keys)


class TestNodeAccounting:
    def test_deeper_tree_costs_more(self, small_pairs):
        shallow = BPlusTree(order=256)
        deep = BPlusTree(order=4)
        shallow.bulk_load(small_pairs)
        deep.bulk_load(small_pairs)
        key = small_pairs[500][0]
        for tree in (shallow, deep):
            tree.stats = tree.stats.snapshot()  # reset-ish; fresh counters
        s0 = shallow.stats.snapshot()
        shallow.get(key)
        d_shallow = shallow.stats.snapshot().diff(s0)
        s1 = deep.stats.snapshot()
        deep.get(key)
        d_deep = deep.stats.snapshot().diff(s1)
        assert d_deep.node_accesses > d_shallow.node_accesses


class TestBulkCache:
    """Writes keep, patch or drop the bulk-lookup cache; never stale it."""

    def _warm(self, order=8):
        tree = BPlusTree(order=order)
        tree.bulk_load([(float(k), k) for k in range(0, 200, 2)])
        assert tree.bulk_lookup(np.asarray([0.0, 10.0])) is not None
        assert tree.stats.bulk_cache_builds == 1
        return tree

    def test_value_update_keeps_cache(self):
        tree = self._warm()
        cache = tree._bulk_cache
        tree.insert(10.0, "new")
        assert tree._bulk_cache is cache
        assert tree.get(10.0) == "new"

    def test_new_key_without_split_patches_cache(self):
        tree = self._warm()
        tree.insert(11.0, "x")
        assert isinstance(tree._bulk_cache, tuple)
        out = tree.bulk_lookup(np.asarray([11.0, 12.0]))
        assert out is not None
        assert tree.stats.bulk_cache_builds == 1
        for got, want in zip(tree._bulk_cache, tree._build_bulk_cache()):
            assert np.array_equal(got, want)

    def test_split_delete_and_reload_drop_cache(self):
        tree = self._warm(order=4)
        for k in (1.0, 1.5, 1.75):
            tree.insert(k, "x")  # the first leaf overflows and splits
        assert tree._bulk_cache is None
        tree.bulk_lookup(np.asarray([0.0]))
        tree.delete(0.0)
        assert tree._bulk_cache is None
        tree.bulk_lookup(np.asarray([2.0]))
        tree.bulk_load([(1.0, 1)])
        assert tree._bulk_cache is None
        assert tree.stats.bulk_cache_builds == 3

    def test_nan_key_makes_cache_unsupported(self):
        """NaN defeats the order checks and routing, so a tree holding
        one is served by scalar lookups."""
        tree = self._warm()
        tree.insert(float("nan"), "x")
        assert tree._bulk_cache is None
        assert tree.bulk_lookup(np.asarray([0.0])) is None
        assert tree._bulk_cache is False

    def test_cache_build_does_not_pin_leaves(self):
        """Dropping the tree frees its nodes without the cyclic GC."""
        tree = BPlusTree(order=4)
        tree.bulk_load([(float(k), k) for k in range(100)])
        assert tree.bulk_lookup(np.asarray([3.0])) is not None
        leaf = tree._root
        while not leaf.leaf:
            leaf = leaf.children[0]
        ref = weakref.ref(leaf)
        del leaf
        enabled = gc.isenabled()
        gc.disable()
        try:
            del tree
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
