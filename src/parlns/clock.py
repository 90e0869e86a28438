"""Wall and simulated clocks shared by workers and the sub-solver.

The simulated clock advances by a fixed amount per charged unit of work
(one branch-and-bound node, one worker iteration) which makes time-limited
runs deterministic and test-friendly.
"""

import math
import time


class WallClock:
    """Real elapsed time; work charges are no-ops."""

    def __init__(self):
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def charge_nodes(self) -> None:
        pass


class SimulatedClock:
    """Virtual time advanced only by explicit charges."""

    def __init__(self, node_seconds: float = 0.001):
        # NaN fails the check; an infinite step would make every reading inf
        if not (math.isfinite(node_seconds) and node_seconds > 0):
            raise ValueError(f"node_seconds must be positive and finite, got {node_seconds!r}")
        self.node_seconds = node_seconds
        self._t = 0.0

    def now(self) -> float:
        return self._t

    def charge_nodes(self) -> None:
        self._t += self.node_seconds
