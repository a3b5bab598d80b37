"""Virtual-time queues used by scheduler drivers.

:class:`VirtualPriorityQueue` mirrors the ``ready_queue`` / ``ack_queue``
of Algorithm 3: producers ``put`` items with a priority (the simulation
step), and consumers register callbacks that fire — in priority order —
when items are available.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from .kernel import Kernel


class VirtualPriorityQueue:
    """Priority queue whose consumers are event callbacks.

    When ``priority=False`` the queue degrades to FIFO (used for the
    "w/o priority" ablation in Table 1).
    """

    def __init__(self, kernel: Kernel, priority: bool = True) -> None:
        self.kernel = kernel
        self.priority = priority
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        self._getters: list[Callable[[Any], None]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, item: Any, priority: float = 0.0) -> None:
        """Insert ``item``; delivers immediately if a consumer is waiting."""
        self._seq += 1
        key = priority if self.priority else 0.0
        heapq.heappush(self._heap, (key, self._seq, item))
        self._drain()

    def get(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback`` to receive the next item (one-shot)."""
        self._getters.append(callback)
        self._drain()

    def get_nowait(self) -> Optional[Any]:
        """Pop the best item if one exists, else None."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def _drain(self) -> None:
        while self._heap and self._getters:
            _, _, item = heapq.heappop(self._heap)
            callback = self._getters.pop(0)
            # Deliver through the kernel so delivery order is a proper
            # event (keeps callback stacks shallow and deterministic).
            self.kernel.call_at(self.kernel.now, callback, item)
