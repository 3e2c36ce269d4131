"""The shared global work counter of Fig. 7."""

import threading

import pytest

from repro.errors import RuntimeLayerError
from repro.runtime.shared_counter import SharedWorkCounter


class TestSequential:
    def test_grab_returns_contiguous_ranges(self):
        counter = SharedWorkCounter(10)
        assert counter.grab(4) == (0, 4)
        assert counter.grab(4) == (4, 8)
        assert counter.grab(4) == (8, 10)  # truncated at the end
        assert counter.grab(4) is None

    def test_remaining_and_dispatched(self):
        counter = SharedWorkCounter(100)
        counter.grab(30)
        assert counter.remaining == 70
        assert counter.dispatched == 30
        assert counter.total == 100

    def test_zero_items_exhausted_immediately(self):
        counter = SharedWorkCounter(0)
        assert counter.grab(1) is None

    def test_rejects_negative_total(self):
        with pytest.raises(RuntimeLayerError):
            SharedWorkCounter(-1)

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(RuntimeLayerError):
            SharedWorkCounter(10).grab(0)


class TestConcurrent:
    def test_threads_partition_range_exactly(self):
        counter = SharedWorkCounter(100_000)
        grabbed = [[] for _ in range(8)]

        def worker(idx):
            while True:
                chunk = counter.grab(37)
                if chunk is None:
                    return
                grabbed[idx].append(chunk)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        ranges = sorted(r for per_thread in grabbed for r in per_thread)
        pos = 0
        for lo, hi in ranges:
            assert lo == pos
            pos = hi
        assert pos == 100_000
