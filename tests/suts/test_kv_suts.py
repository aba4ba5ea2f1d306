"""Key-value systems under test: snapping, dispatch, training, adaptation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.suts.kv_learned import LearnedKVStore, StaticLearnedKVStore
from repro.suts.kv_traditional import HashKVStore, TraditionalKVStore
from repro.workloads.generators import KVOperation, KVQuery


@pytest.fixture
def pairs(tiny_dataset):
    return tiny_dataset.pairs()


def _query(op, key, scan_length=0):
    return KVQuery(op=op, key=key, scan_length=scan_length)


class TestKVBase:
    def test_read_snaps_to_nearest(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        service = sut.execute(_query(KVOperation.READ, pairs[50][0] + 1e-7), 0.0)
        assert service > 0

    def test_read_on_empty_store(self):
        sut = TraditionalKVStore()
        sut.setup([])
        assert sut.execute(_query(KVOperation.READ, 1.0), 0.0) > 0

    def test_insert_grows_store(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        before = sut.stored_keys
        sut.execute(_query(KVOperation.INSERT, 1e12), 0.0)
        assert sut.stored_keys == before + 1

    def test_update_does_not_grow(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        before = sut.stored_keys
        sut.execute(_query(KVOperation.UPDATE, pairs[10][0]), 0.0)
        assert sut.stored_keys == before

    def test_scan_charges_per_item(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        short = sut.execute(_query(KVOperation.SCAN, pairs[10][0], scan_length=2), 0.0)
        long = sut.execute(_query(KVOperation.SCAN, pairs[10][0], scan_length=500), 0.0)
        assert long > short

    def test_rmw_costs_more_than_read(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        read = sut.execute(_query(KVOperation.READ, pairs[20][0]), 0.0)
        rmw = sut.execute(_query(KVOperation.READ_MODIFY_WRITE, pairs[20][0]), 0.0)
        assert rmw > read

    def test_inject_adds_keys_without_time(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        sut.inject([(1e9, None), (2e9, None)])
        assert sut.stored_keys == len(pairs) + 2

    def test_insert_of_stored_key_does_not_duplicate_mirror(self):
        sut = TraditionalKVStore()
        sut.setup([(1.0, "a"), (2.0, "b"), (3.0, "c")])
        sut._snap_batch(np.asarray([2.0]))  # materialize the array twin
        sut.execute(_query(KVOperation.INSERT, 2.0), 0.0)
        sut.inject([(3.0, None)])
        assert sut.stored_keys == len(sut.index) == 3
        assert sut._mirror == [1.0, 2.0, 3.0]

    def test_new_insert_patches_mirror_array(self):
        sut = TraditionalKVStore()
        sut.setup([(1.0, "a"), (3.0, "c")])
        sut._snap_batch(np.asarray([2.0]))
        sut.execute(_query(KVOperation.INSERT, 2.0), 0.0)
        assert sut._mirror_arr is not None
        assert sut._mirror_arr.tolist() == [1.0, 2.0, 3.0]


class TestTraditional:
    def test_tuning_speeds_up(self, pairs):
        slow = TraditionalKVStore(tuning_level=0)
        fast = TraditionalKVStore(tuning_level=3)
        slow.setup(pairs)
        fast.setup(pairs)
        q = _query(KVOperation.READ, pairs[100][0])
        assert fast.execute(q, 0.0) < slow.execute(q, 0.0)

    def test_tune_monotone(self, pairs):
        sut = TraditionalKVStore(tuning_level=2)
        sut.tune(1)
        assert sut.tuning_level == 2
        sut.tune(3)
        assert sut.tuning_level == 3

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigurationError):
            TraditionalKVStore(tuning_level=99)

    def test_no_training(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        assert sut.offline_train(100.0) == 0.0
        assert sut.on_tick(1.0) is None


class TestHashSUT:
    def test_scans_catastrophic(self, pairs):
        hash_sut = HashKVStore()
        btree_sut = TraditionalKVStore()
        hash_sut.setup(pairs)
        btree_sut.setup(pairs)
        q = _query(KVOperation.SCAN, pairs[10][0], scan_length=10)
        assert hash_sut.execute(q, 0.0) > 10 * btree_sut.execute(q, 0.0)

    def test_points_fast(self, pairs):
        hash_sut = HashKVStore()
        btree_sut = TraditionalKVStore()
        hash_sut.setup(pairs)
        btree_sut.setup(pairs)
        q = _query(KVOperation.READ, pairs[10][0])
        assert hash_sut.execute(q, 0.0) < btree_sut.execute(q, 0.0)


class TestLearnedKV:
    def test_offline_budget_buys_fanout(self, pairs):
        sut = LearnedKVStore(max_fanout=64)
        sut.setup(pairs)
        full = sut.cost_model.full_retrain_seconds(len(pairs))
        used = sut.offline_train(full / 2)
        assert used == pytest.approx(full / 2, rel=0.1)
        assert sut.trained_fanout == pytest.approx(32, abs=2)

    def test_full_budget_full_fanout(self, pairs):
        sut = LearnedKVStore(max_fanout=64)
        sut.setup(pairs)
        sut.offline_train(1e9)
        assert sut.trained_fanout == 64

    def test_zero_budget_no_training(self, pairs):
        sut = LearnedKVStore()
        sut.setup(pairs)
        assert sut.offline_train(0.0) == 0.0

    def test_more_training_faster_lookups(self, pairs):
        starved = LearnedKVStore(max_fanout=256)
        funded = LearnedKVStore(max_fanout=256)
        starved.setup(pairs)
        funded.setup(pairs)
        full = funded.cost_model.full_retrain_seconds(len(pairs))
        starved.offline_train(full * 0.02)
        funded.offline_train(full)
        rng = np.random.default_rng(0)
        sample = rng.choice([k for k, _ in pairs], 200)
        t_starved = sum(
            starved.execute(_query(KVOperation.READ, float(k)), 0.0) for k in sample
        )
        t_funded = sum(
            funded.execute(_query(KVOperation.READ, float(k)), 0.0) for k in sample
        )
        assert t_funded < t_starved

    def test_drift_triggers_online_retrain(self, pairs, tiny_dataset):
        sut = LearnedKVStore(drift_window=128, retrain_cooldown=0.0)
        sut.setup(pairs)
        sut.offline_train(1e9)
        span = tiny_dataset.high - tiny_dataset.low
        rng = np.random.default_rng(1)
        # Phase 1: hot at the bottom of the key space.
        for k in rng.uniform(tiny_dataset.low, tiny_dataset.low + span * 0.05, 400):
            sut.execute(_query(KVOperation.READ, float(k)), 0.0)
        assert sut.on_tick(1.0) is None  # stable: no retrain requested
        # Phase 2: hot at the top.
        for k in rng.uniform(tiny_dataset.high - span * 0.05, tiny_dataset.high, 400):
            sut.execute(_query(KVOperation.READ, float(k)), 1.5)
        nominal = sut.on_tick(2.0)
        assert nominal is not None and nominal > 0
        assert sut.training.sessions >= 2

    def test_static_variant_never_adapts(self, pairs, tiny_dataset):
        sut = StaticLearnedKVStore()
        sut.setup(pairs)
        sut.offline_train(1e9)
        span = tiny_dataset.high - tiny_dataset.low
        rng = np.random.default_rng(1)
        for k in rng.uniform(tiny_dataset.high - span * 0.05, tiny_dataset.high, 1500):
            sut.execute(_query(KVOperation.READ, float(k)), 0.0)
        assert sut.on_tick(5.0) is None

    def test_retrain_cooldown_respected(self, pairs):
        sut = LearnedKVStore(retrain_cooldown=10.0)
        sut.setup(pairs)
        sut.offline_train(1e9)
        sut._retrain_requested = True
        assert sut.on_tick(0.0) is not None
        sut._retrain_requested = True
        assert sut.on_tick(5.0) is None  # within cooldown
        assert sut.on_tick(20.0) is not None

    def test_describe_reports_state(self, pairs):
        sut = LearnedKVStore()
        sut.setup(pairs)
        sut.offline_train(1e9)
        info = sut.describe()
        assert info["trained_fanout"] == sut.trained_fanout
        assert info["adapt"] is True
