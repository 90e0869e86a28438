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
    """Virtual time advanced only by explicit charges.

    A reading is the float sum of every charge so far, so it depends on the
    clock's history: a worker stamps its points ``now() - start``, and on a
    clock that an earlier run advanced the same search gets other last bits
    (``0.20000000000000018`` in place of ``0.2``). A worker must start on a
    fresh clock, as ``run_portfolio`` gives each of its workers. Counting
    whole charges instead would move the search path, since the deadline
    test reads the sum: 50 charges of 0.05 s sum to just under 2.5 s, where
    ``50 * 0.05`` is 2.5.
    """

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
