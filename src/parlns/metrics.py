"""Primal gap, primal integral, and gap-trace algebra.

A trace is a piecewise-constant, right-continuous record of the best
objective and primal gap over time; before its first point the gap is 1 by
convention (no solution yet). Gaps are reported capped at 1 so the primal
integral is bounded by the window length; the uncapped value is available
through ``primal_gap(..., cap=False)``.
"""

import csv
import io
from dataclasses import dataclass

DEFAULT_EPS = 1e-10
_TIME_TOL = 1e-9


class HorizonMismatch(ValueError):
    """Traces being aggregated do not share a horizon."""


def primal_gap(x: float | None, x_star: float, eps: float = DEFAULT_EPS, cap: bool = True) -> float:
    """Relative distance |x - x*| / max(|x*|, eps); 1 when no solution exists."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if x is None:
        return 1.0
    raw = abs(x - x_star) / max(abs(x_star), eps)
    return min(raw, 1.0) if cap else raw


@dataclass(frozen=True)
class GapTrace:
    """Time-ordered (t, objective, gap) points with a fixed horizon."""

    points: tuple[tuple[float, float, float], ...]
    horizon: float

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        last_t = -1.0
        last_gap = None
        for t, _, gap in self.points:
            if t < 0 or t > self.horizon + _TIME_TOL:
                raise ValueError(f"point time {t} outside [0, {self.horizon}]")
            if t <= last_t:
                raise ValueError("point times must be strictly increasing")
            if gap < 0:
                raise ValueError("gaps must be non-negative")
            if last_gap is not None and gap > last_gap + 1e-12:
                raise ValueError("gaps must be non-increasing")
            last_t, last_gap = t, gap

    def gap_at(self, t: float) -> float:
        """Gap in effect at time t (1 before the first point)."""
        current = 1.0
        for pt, _, gap in self.points:
            if pt <= t:
                current = gap
            else:
                break
        return current

    def final_gap(self) -> float:
        return self.points[-1][2] if self.points else 1.0


def primal_integral(trace: GapTrace, t0: float, t1: float) -> float:
    """Exact integral of the piecewise-constant gap over [t0, t1]."""
    if not 0 <= t0 <= t1 <= trace.horizon + _TIME_TOL:
        raise ValueError(f"window [{t0}, {t1}] outside [0, {trace.horizon}]")
    total = 0.0
    current = 1.0
    cursor = t0
    for t, _, gap in trace.points:
        if t <= t0:
            current = gap
            continue
        if t >= t1:
            break
        total += (t - cursor) * current
        cursor = t
        current = gap
    total += (t1 - cursor) * current
    return total


def pi_percent_minutes(pi_seconds: float) -> float:
    """Convert a gap-fraction x seconds integral to percent x minutes."""
    return pi_seconds * 100.0 / 60.0


def aggregate_min(traces) -> GapTrace:
    """Pointwise-minimum trace; event times are the union of input event
    times with redundant (non-improving) points dropped."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    horizon = traces[0].horizon
    for tr in traces[1:]:
        if tr.horizon != horizon:
            raise HorizonMismatch(f"horizons differ: {tr.horizon} vs {horizon}")
    events = sorted({t for tr in traces for (t, _, _) in tr.points})
    cursors = [0] * len(traces)
    gaps = [1.0] * len(traces)
    objectives: list[float | None] = [None] * len(traces)
    points = []
    best = 1.0
    first = True
    for t in events:
        for k, tr in enumerate(traces):
            while cursors[k] < len(tr.points) and tr.points[cursors[k]][0] <= t:
                _, objectives[k], gaps[k] = tr.points[cursors[k]]
                cursors[k] += 1
        low = min(gaps)
        if (first and low < 1.0) or low < best:
            k_low = gaps.index(low)
            points.append((t, objectives[k_low], low))
            best = low
            first = False
    return GapTrace(points=tuple(points), horizon=horizon)


def write_trace_csv(trace: GapTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(trace_to_csv(trace))


def trace_to_csv(trace: GapTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t_seconds", "objective", "gap"])
    for t, objective, gap in trace.points:
        writer.writerow([repr(float(t)), repr(float(objective)), repr(float(gap))])
    return buf.getvalue()


def read_trace_points(path) -> tuple[tuple[float, float, float], ...]:
    """The (t, objective, gap) rows of a trace CSV, not yet validated."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t_seconds", "objective", "gap"]:
            raise ValueError(f"{path}: expected header t_seconds,objective,gap")
        return tuple((float(t), float(obj), float(gap)) for t, obj, gap in reader)


def read_trace_csv(path, horizon: float | None = None) -> GapTrace:
    points = read_trace_points(path)
    if horizon is None:
        horizon = points[-1][0] if points else 0.0
    return GapTrace(points=points, horizon=horizon)
