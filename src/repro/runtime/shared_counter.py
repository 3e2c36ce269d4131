"""The shared global work counter of Fig. 7.

The paper's OnlineProfile sets a shared counter to N; CPU workers
"atomically grab work from the shared counter" in chunks while the GPU
proxy thread carves off GPU_PROFILE_SIZE items, and after profiling the
remaining value of the counter is what is partitioned by alpha.  This
is that counter: a thread-safe descending allocator over [0, n).
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

from repro.errors import RuntimeLayerError


class SharedWorkCounter:
    """Thread-safe chunk allocator over an iteration range."""

    def __init__(self, n_items: int) -> None:
        if n_items < 0:
            raise RuntimeLayerError("n_items must be non-negative")
        self._n = n_items
        self._next = 0
        self._lock = threading.Lock()

    @property
    def total(self) -> int:
        return self._n

    @property
    def remaining(self) -> int:
        with self._lock:
            return self._n - self._next

    @property
    def dispatched(self) -> int:
        with self._lock:
            return self._next

    def grab(self, chunk: int) -> Optional[Tuple[int, int]]:
        """Atomically claim up to ``chunk`` items; returns [start, stop).

        Returns None once the range is exhausted.
        """
        if chunk <= 0:
            raise RuntimeLayerError("chunk must be positive")
        with self._lock:
            if self._next >= self._n:
                return None
            start = self._next
            stop = min(self._n, start + chunk)
            self._next = stop
            return start, stop
