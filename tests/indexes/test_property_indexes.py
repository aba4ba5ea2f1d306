"""Property-based tests: every ordered index behaves like a sorted dict."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError
from repro.indexes import (
    AdaptiveLearnedIndex,
    BPlusTree,
    PGMIndex,
    RecursiveModelIndex,
    SortedArrayIndex,
)
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.generators import KVOperation, KVQuery

# Finite, not-too-extreme floats keep model arithmetic meaningful.
KEYS = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)

INDEX_FACTORIES = [
    lambda: BPlusTree(order=4),
    lambda: SortedArrayIndex(),
    lambda: RecursiveModelIndex(fanout=4, max_delta=8),
    lambda: PGMIndex(epsilon=4, max_delta=8),
    lambda: AdaptiveLearnedIndex(node_capacity=16),
]
IDS = ["btree", "sorted-array", "rmi", "pgm", "alex"]


@pytest.mark.parametrize("factory", INDEX_FACTORIES, ids=IDS)
@given(keys=st.lists(KEYS, min_size=0, max_size=60))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_matches_reference_dict_on_inserts(factory, keys):
    """Insert sequence: index agrees with a dict + sorted() reference."""
    index = factory()
    reference = {}
    for i, key in enumerate(keys):
        index.insert(key, i)
        reference[key] = i
    assert len(index) == len(reference)
    assert [k for k, _ in index.items()] == sorted(reference)
    for key, value in reference.items():
        assert index.get(key) == value


@pytest.mark.parametrize("factory", INDEX_FACTORIES, ids=IDS)
@given(
    keys=st.lists(KEYS, min_size=1, max_size=50, unique=True),
    delete_ratio=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_deletes_match_reference(factory, keys, delete_ratio):
    """Bulk-load then delete a prefix: survivors intact, victims gone."""
    index = factory()
    index.bulk_load([(k, i) for i, k in enumerate(keys)])
    n_delete = int(len(keys) * delete_ratio)
    victims, survivors = keys[:n_delete], keys[n_delete:]
    for key in victims:
        index.delete(key)
    assert len(index) == len(survivors)
    for key in victims:
        with pytest.raises(KeyNotFoundError):
            index.get(key)
    for key in survivors:
        assert index.get(key) == keys.index(key)


@pytest.mark.parametrize("factory", INDEX_FACTORIES, ids=IDS)
@given(
    keys=st.lists(KEYS, min_size=2, max_size=50, unique=True),
    bounds=st.tuples(KEYS, KEYS),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_range_matches_filter(factory, keys, bounds):
    """range(lo, hi) equals the brute-force filtered sorted list."""
    lo, hi = min(bounds), max(bounds)
    index = factory()
    index.bulk_load([(k, None) for k in keys])
    got = [k for k, _ in index.range(lo, hi)]
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert got == expected


@given(
    keys=st.lists(KEYS, min_size=5, max_size=80, unique=True),
    fanout=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=40, deadline=None)
def test_rmi_error_bounds_always_honest(keys, fanout):
    """For any data and fanout, the RMI finds every trained key."""
    rmi = RecursiveModelIndex(fanout=fanout, max_delta=None)
    rmi.bulk_load([(k, i) for i, k in enumerate(keys)])
    ordered = sorted(set(keys))
    for rank, key in enumerate(ordered):
        assert rmi.get(key) == keys.index(key)


@given(
    keys=st.lists(KEYS, min_size=5, max_size=80, unique=True),
    epsilon=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=40, deadline=None)
def test_pgm_epsilon_always_honest(keys, epsilon):
    """For any data and ε, the PGM finds every trained key."""
    pgm = PGMIndex(epsilon=epsilon, max_delta=None)
    pgm.bulk_load([(k, i) for i, k in enumerate(keys)])
    for key in keys:
        assert pgm.get(key) == keys.index(key)


# -- caches kept in step with writes ------------------------------------------

# Small integer key pool so writes hit stored keys (re-inserts) as often
# as new ones; a "burst" inserts 70 keys into one leaf's range, forcing
# splits at order 64 too.
POOL_KEYS = st.integers(min_value=0, max_value=60)
WRITE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "lookup", "insert", "insert", "delete",
                         "burst", "load"]),
        POOL_KEYS,
    ),
    max_size=80,
)


def _delete_kth(index, k: int) -> None:
    """Delete the ``k``-th stored key (mod size), so deletes always hit."""
    stored = index.keys()
    if stored:
        index.delete(stored[k % len(stored)])


def _assert_bulk_cache_fresh(tree: BPlusTree) -> None:
    """A live B+ tree bulk cache equals a fresh build, array for array."""
    cache = tree._bulk_cache
    if cache is None or cache is False:
        return
    fresh = tree._build_bulk_cache()
    assert fresh is not False
    for got, want in zip(cache, fresh):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# B+ tree runs also insert ±inf, which must patch like any other key.
BTREE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "lookup", "insert", "insert", "delete",
                         "burst", "load", "infinite"]),
        POOL_KEYS,
    ),
    max_size=80,
)


@pytest.mark.parametrize("order", [3, 4, 64])
@given(initial=st.lists(POOL_KEYS, max_size=150), ops=BTREE_OPS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_btree_patched_bulk_cache_equals_fresh_build(order, initial, ops):
    """Inserts (new and stored keys), deletes, splits and reloads leave
    the bulk cache either dropped or exactly what a rebuild gives."""
    tree = BPlusTree(order=order)
    tree.bulk_load([(float(k), k) for k in initial])
    for op, k in ops:
        key = float(k)
        if op == "lookup":
            tree.bulk_lookup(np.asarray([key]))
        elif op == "insert":
            tree.insert(key, k)
        elif op == "burst":
            for i in range(70):
                tree.insert(key + i / 70, k)
        elif op == "infinite":
            tree.insert(float("inf") if k % 2 else float("-inf"), k)
        elif op == "delete":
            _delete_kth(tree, k)
        else:
            tree.bulk_load([(float(j), j) for j in range(k % 50)])
        _assert_bulk_cache_fresh(tree)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: RecursiveModelIndex(fanout=4, max_delta=8),
        lambda: PGMIndex(epsilon=4, max_delta=8),
        lambda: RecursiveModelIndex(fanout=4, max_delta=None),
        lambda: PGMIndex(epsilon=4, max_delta=None),
    ],
    ids=["rmi", "pgm", "rmi-unbounded", "pgm-unbounded"],
)
@given(initial=st.lists(POOL_KEYS, max_size=60), ops=WRITE_OPS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_array_tracks_delta_keys(factory, initial, ops):
    """The float64 delta twin equals the delta list after every write."""
    index = factory()
    index.bulk_load([(float(k), k) for k in initial])
    for op, k in ops:
        key = float(k)
        if op in ("insert", "burst"):
            index.insert(key, k)
        elif op == "delete":
            _delete_kth(index, k)
        elif op == "load" and k % 2:
            index.retrain()
        elif op == "load":
            index.bulk_load([(float(j), j) for j in range(k % 50)])
        else:
            index.bulk_lookup(np.asarray([key]))
        expected = np.asarray(index._delta_keys, dtype=np.float64)
        assert index._delta_arr.dtype == np.float64
        assert np.array_equal(index._delta_arr, expected)


@given(initial=st.lists(POOL_KEYS, min_size=1, max_size=60), ops=WRITE_OPS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_snap_mirror_array_tracks_mirror(initial, ops):
    """INSERTs (new or stored keys) keep the snap mirror duplicate-free
    and its array twin equal to it."""
    store = TraditionalKVStore()
    store.setup([(float(k), k) for k in initial])
    for op, k in ops:
        key = float(k)
        if op == "lookup":
            store._snap_batch(np.asarray([key]))
        elif op in ("insert", "burst"):
            store.execute(KVQuery(KVOperation.INSERT, key), 0.0)
        elif op == "delete":
            # The store has no DELETE; an UPDATE writes a stored key.
            store.execute(KVQuery(KVOperation.UPDATE, key), 0.0)
        else:
            store.inject([(key, k), (key + 0.5, k)])
        assert store._mirror == sorted(set(store._mirror))
        assert store.stored_keys == len(store.index)
        if store._mirror_arr is not None:
            assert np.array_equal(
                store._mirror_arr, np.asarray(store._mirror, dtype=np.float64)
            )
