"""Host-speed calibration for perfbench/run.py.

The benchmark's host can change speed by tens of percent over a few
seconds (other tenants on the same cores), which no amount of repetition
inside one run averages out.  So run.py times this fixed pure-Python
workload before and after every timed repetition and reports each
repetition's time scaled to the reference host speed::

    calibrated_s = measured_s * REFERENCE_S / mean(calibration before, after)

The workload is a small mesh-and-event-queue simulation written here, not
imported from the simulator, so that a change to the simulator can never
change it: it stands in for the host, not for the program under test.
Its mix (slotted objects, dicts keyed by coordinates, deques, heapq, small
integer arithmetic) is chosen to slow down with the host the way the
simulator does.  Never change it or REFERENCE_S: every calibrated figure
before the change would stop being comparable.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

#: median time of one calibrate() call on the reference host (2-vCPU
#: Intel Xeon VM at 2.1 GHz, CPython 3.11)
REFERENCE_S = 0.075


class _Router:
    __slots__ = ("queue", "sent", "links")

    def __init__(self):
        self.queue = deque()
        self.sent = 0
        self.links = {}


class _Packet:
    __slots__ = ("dst", "born", "hops")

    def __init__(self, dst, born):
        self.dst = dst
        self.born = born
        self.hops = 0


def calibrate(cycles: int = 4000, n: int = 5) -> tuple:
    """Route pseudo-random packets over an n x n mesh for ``cycles``."""
    routers = {(r, c): _Router() for r in range(n) for c in range(n)}
    events = []
    delivered = latency = 0
    state = 12345
    for t in range(cycles):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        for i in range(4):
            src = ((state >> (i * 3)) % n, (state >> (i * 5 + 1)) % n)
            dst = ((state >> (i * 7 + 2)) % n, (state >> (i * 2 + 3)) % n)
            routers[src].queue.append(_Packet(dst, t))
        while events and events[0][0] <= t:
            _, _, packet = heapq.heappop(events)
            delivered += 1
            latency += t - packet.born
        for (r, c), router in routers.items():
            queue = router.queue
            if not queue:
                continue
            packet = queue.popleft()
            dr, dc = packet.dst
            if r == dr and c == dc:
                heapq.heappush(events, (t + 1, id(packet), packet))
                continue
            if r != dr:
                hop = (r + (dr > r) - (dr < r), c)
            else:
                hop = (r, c + (dc > c) - (dc < c))
            packet.hops += 1
            router.sent += 1
            router.links[hop] = router.links.get(hop, 0) + 1
            routers[hop].queue.append(packet)
    return delivered, latency


def time_calibration() -> float:
    start = time.perf_counter()
    calibrate()
    return time.perf_counter() - start
