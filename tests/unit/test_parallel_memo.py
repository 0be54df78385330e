"""Compression memo cache unit tests: counters, LRU, keying."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.base import content_fingerprint
from repro.errors import CompressionError, InvalidConfiguration
from repro.parallel import (
    CompressionMemoCache,
    MemoRecord,
    ParallelExecutor,
    measure_ratios,
)

pytestmark = pytest.mark.parallel


@pytest.fixture()
def sz():
    return get_compressor("sz")


class TestCounters:
    def test_miss_then_hit(self, sz):
        memo = CompressionMemoCache()
        key = memo.key("fp", sz, 1e-3)
        assert memo.get(key) is None
        assert (memo.hits, memo.misses) == (0, 1)
        memo.put(key, MemoRecord(ratio=10.0, seconds=0.5))
        record = memo.get(key)
        assert record is not None and record.ratio == 10.0
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.hit_ratio == 0.5

    def test_peek_does_not_touch_counters(self, sz):
        memo = CompressionMemoCache()
        key = memo.key("fp", sz, 1e-3)
        assert memo.peek(key) is None
        memo.put(key, MemoRecord(ratio=2.0, seconds=0.1))
        assert memo.peek(key).ratio == 2.0
        assert (memo.hits, memo.misses) == (0, 0)

    def test_stats_snapshot(self, sz):
        memo = CompressionMemoCache()
        memo.put(memo.key("fp", sz, 1e-3), MemoRecord(ratio=2.0, seconds=0.1))
        stats = memo.stats()
        assert stats["entries"] == 1
        assert stats["hit_ratio"] == 0.0


class TestLRU:
    def test_eviction_counts_and_drops_oldest(self, sz):
        memo = CompressionMemoCache(max_entries=2)
        keys = [memo.key("fp", sz, c) for c in (1e-4, 1e-3, 1e-2)]
        for key in keys:
            memo.put(key, MemoRecord(ratio=1.0, seconds=0.0))
        assert memo.evictions == 1
        assert len(memo) == 2
        assert memo.peek(keys[0]) is None  # oldest evicted
        assert memo.peek(keys[2]) is not None

    def test_get_refreshes_recency(self, sz):
        memo = CompressionMemoCache(max_entries=2)
        a, b, c = (memo.key("fp", sz, x) for x in (1e-4, 1e-3, 1e-2))
        memo.put(a, MemoRecord(ratio=1.0, seconds=0.0))
        memo.put(b, MemoRecord(ratio=2.0, seconds=0.0))
        memo.get(a)  # a becomes most-recent; b is now oldest
        memo.put(c, MemoRecord(ratio=3.0, seconds=0.0))
        assert memo.peek(a) is not None
        assert memo.peek(b) is None

    def test_rejects_zero_capacity(self):
        with pytest.raises(InvalidConfiguration):
            CompressionMemoCache(max_entries=0)


class TestRecords:
    def test_psnr_is_never_downgraded(self, sz):
        memo = CompressionMemoCache()
        key = memo.key("fp", sz, 1e-3)
        memo.put(key, MemoRecord(ratio=5.0, seconds=0.2, psnr=60.0))
        memo.put(key, MemoRecord(ratio=5.0, seconds=0.1))  # ratio-only
        assert memo.peek(key).psnr == 60.0

    def test_clear(self, sz):
        memo = CompressionMemoCache()
        memo.put(memo.key("fp", sz, 1e-3), MemoRecord(ratio=1.0, seconds=0.0))
        memo.clear()
        assert len(memo) == 0

    def test_pickle_roundtrip_keeps_entries_and_counters(self, sz):
        memo = CompressionMemoCache(max_entries=8)
        key = memo.key("fp", sz, 1e-3)
        memo.put(key, MemoRecord(ratio=4.0, seconds=0.3))
        memo.get(key)
        clone = pickle.loads(pickle.dumps(memo))
        assert clone.peek(key).ratio == 4.0
        assert clone.hits == memo.hits
        clone.put(memo.key("fp", sz, 1e-2), MemoRecord(ratio=1.0, seconds=0.0))
        assert len(clone) == 2  # the clone's lock works independently


class TestKeying:
    def test_key_normalizes_config(self, sz):
        fp = "fp"
        raw = 1.23456e-3
        assert CompressionMemoCache.key(fp, sz, raw) == CompressionMemoCache.key(
            fp, sz, sz.normalize_config(raw)
        )

    def test_cache_token_separates_option_state(self):
        a = get_compressor("zfp")
        b = get_compressor("zfp")
        token_a = a.cache_token()
        options = [
            attr
            for attr, value in vars(b).items()
            if not attr.startswith("_") and isinstance(value, (str, int, float, bool))
        ]
        if not options:
            pytest.skip("compressor exposes no simple option attributes")
        attr = options[0]
        value = getattr(b, attr)
        setattr(b, attr, value + 1 if isinstance(value, (int, float)) else value + "_x")
        assert b.cache_token() != token_a

    def test_content_fingerprint_sensitivity(self):
        data = np.arange(12, dtype=np.float64)
        assert content_fingerprint(data) == content_fingerprint(data.copy())
        bumped = data.copy()
        bumped[-1] += 1e-12
        assert content_fingerprint(bumped) != content_fingerprint(data)
        assert content_fingerprint(data.reshape(3, 4)) != content_fingerprint(data)
        assert content_fingerprint(
            data.astype(np.float32)
        ) != content_fingerprint(data)

    def test_content_fingerprint_rejects_empty(self):
        with pytest.raises(CompressionError):
            content_fingerprint(np.empty(0))


class TestRatioConvenience:
    def test_second_call_is_a_hit_with_identical_numbers(self, sz, smooth_field3d):
        memo = CompressionMemoCache()
        [(ratio1, seconds1, hit1)] = measure_ratios(
            sz, smooth_field3d, [1e-3], memo=memo
        )
        [(ratio2, seconds2, hit2)] = measure_ratios(
            sz, smooth_field3d, [1e-3], memo=memo
        )
        assert (hit1, hit2) == (False, True)
        assert ratio2 == ratio1
        assert seconds2 == seconds1  # hits charge the recorded time
        assert memo.hits == 1

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_results_in_config_order_with_hits_first(
        self, backend, sz, smooth_field3d
    ):
        configs = [1e-2, 1e-4, 1e-3, 3e-3, 3e-4]
        reference = [sz.compression_ratio(smooth_field3d, c) for c in configs]
        memo = CompressionMemoCache()
        measure_ratios(sz, smooth_field3d, configs[1:3], memo=memo)
        executor = ParallelExecutor(n_jobs=2, backend=backend)
        measured = measure_ratios(
            sz, smooth_field3d, configs, memo=memo, executor=executor
        )
        assert [ratio for ratio, _, _ in measured] == reference
        assert [hit for _, _, hit in measured] == [
            False, True, True, False, False
        ]
        assert len(memo) == len(configs)  # every fresh run was recorded

    def test_without_memo_runs_every_config(self, sz, smooth_field3d):
        stream = sz.compress_stream()
        measured = measure_ratios(
            sz, smooth_field3d, [1e-3, 1e-3], stream=stream
        )
        assert [hit for _, _, hit in measured] == [False, False]
        assert measured[0][0] == measured[1][0]
        assert stream.stats.reuses > 0  # the second run reused the arena
