import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parlns.metrics import (
    GapTrace,
    HorizonMismatch,
    aggregate_min,
    pi_percent_minutes,
    primal_gap,
    primal_integral,
    read_trace_csv,
    read_trace_points,
    trace_to_csv,
    write_trace_csv,
)

from support import point_bits, random_step_trace, read_trace_points_oracle


def test_primal_gap_basic_cases():
    assert primal_gap(110.0, 100.0) == pytest.approx(0.10)
    assert primal_gap(0.0, 0.0) == 0.0
    assert primal_gap(None, 100.0) == 1.0


def test_primal_gap_zero_reference_raw_and_capped():
    raw = primal_gap(1.0, 0.0, eps=1e-10, cap=False)
    assert raw == pytest.approx(1e10)
    assert primal_gap(1.0, 0.0, eps=1e-10) == 1.0


def test_primal_gap_requires_positive_eps():
    with pytest.raises(ValueError):
        primal_gap(1.0, 1.0, eps=0.0)


def test_primal_gap_zero_iff_equal():
    rng = random.Random(0)
    for _ in range(100):
        x_star = rng.uniform(-50.0, 50.0)
        x = x_star + rng.choice((0.0, rng.uniform(0.01, 10.0)))
        gap = primal_gap(x, x_star)
        assert gap >= 0.0
        assert (gap == 0.0) == (x == x_star)


def test_trace_validation():
    with pytest.raises(ValueError):
        GapTrace(points=((5.0, 1.0, 0.5), (5.0, 1.0, 0.4)), horizon=10.0)
    with pytest.raises(ValueError):
        GapTrace(points=((1.0, 1.0, 0.2), (2.0, 1.0, 0.5)), horizon=10.0)
    with pytest.raises(ValueError):
        GapTrace(points=((1.0, 1.0, 0.2),), horizon=0.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "points, horizon",
    [
        (((NAN, 1.0, 0.5),), 10.0),
        (((1.0, 1.0, 0.5), (NAN, 1.0, 0.4)), 10.0),
        (((INF, 1.0, 0.5),), 10.0),
        (((1.0, 1.0, NAN),), 10.0),
        (((1.0, 1.0, 0.5), (2.0, 1.0, NAN)), 10.0),
        (((1.0, 1.0, INF),), 10.0),
        (((1.0, 1.0, -INF),), 10.0),
        ((), NAN),
        ((), INF),
        (((1.0, 1.0, 0.5),), INF),
    ],
)
def test_trace_rejects_non_finite_times_gaps_and_horizons(points, horizon):
    with pytest.raises(ValueError):
        GapTrace(points=points, horizon=horizon)


def test_gap_before_first_point_is_one():
    trace = GapTrace(points=((10.0, 5.0, 0.4),), horizon=100.0)
    assert trace.gap_at(0.0) == 1.0
    assert trace.gap_at(9.999) == 1.0
    assert trace.gap_at(10.0) == 0.4  # right-continuous
    assert trace.final_gap() == 0.4


def test_primal_integral_rectangle():
    trace = GapTrace(points=((0.0, 1.0, 0.5),), horizon=100.0)
    assert primal_integral(trace, 0.0, 100.0) == pytest.approx(50.0, abs=1e-12)


def test_primal_integral_step():
    trace = GapTrace(points=((10.0, 1.0, 0.0),), horizon=100.0)
    assert primal_integral(trace, 0.0, 100.0) == pytest.approx(10.0, abs=1e-12)


def test_primal_integral_hand_sum():
    trace = GapTrace(
        points=((0.0, 9.0, 1.0), (60.0, 8.0, 0.4), (120.0, 7.0, 0.1)), horizon=200.0
    )
    expected = 30.0 * 1.0 + 60.0 * 0.4 + 80.0 * 0.1
    assert primal_integral(trace, 30.0, 200.0) == pytest.approx(expected, abs=1e-12)
    assert expected == 62.0


def test_primal_integral_window_validation():
    trace = GapTrace(points=(), horizon=10.0)
    with pytest.raises(ValueError):
        primal_integral(trace, 5.0, 20.0)
    with pytest.raises(ValueError):
        primal_integral(trace, 7.0, 6.0)


def test_primal_integral_additivity():
    rng = random.Random(3)
    for _ in range(200):
        trace = random_step_trace(rng)
        t0 = rng.uniform(0.0, 50.0)
        t2 = rng.uniform(t0, 100.0)
        t1 = rng.uniform(t0, t2)
        whole = primal_integral(trace, t0, t2)
        split = primal_integral(trace, t0, t1) + primal_integral(trace, t1, t2)
        assert abs(whole - split) <= 1e-12 * max(1.0, abs(whole))


def test_aggregate_min_single_trace_is_itself():
    rng = random.Random(4)
    for _ in range(50):
        trace = random_step_trace(rng)
        assert aggregate_min([trace]) == trace


def test_aggregate_min_dominating_trace_wins():
    dominating = GapTrace(points=((1.0, 1.0, 0.3), (10.0, 0.5, 0.05)), horizon=100.0)
    dominated = GapTrace(points=((2.0, 2.0, 0.9), (20.0, 1.5, 0.6)), horizon=100.0)
    assert aggregate_min([dominating, dominated]) == dominating


def test_aggregate_min_hand_example():
    a = GapTrace(points=((0.0, 10.0, 1.0), (50.0, 5.0, 0.2)), horizon=100.0)
    b = GapTrace(points=((0.0, 8.0, 0.6), (80.0, 2.0, 0.1)), horizon=100.0)
    merged = aggregate_min([a, b])
    assert [(t, g) for t, _, g in merged.points] == [(0.0, 0.6), (50.0, 0.2), (80.0, 0.1)]


def test_aggregate_min_horizon_mismatch():
    a = GapTrace(points=(), horizon=10.0)
    b = GapTrace(points=(), horizon=20.0)
    with pytest.raises(HorizonMismatch):
        aggregate_min([a, b])


def test_aggregate_min_laws_on_random_sets():
    rng = random.Random(9)
    for _ in range(200):
        traces = [random_step_trace(rng) for _ in range(rng.randint(1, 5))]
        merged = aggregate_min(traces)
        # dominance at every event time and at the horizon
        probe_times = sorted({t for tr in traces for (t, _, _) in tr.points}) + [100.0]
        for t in probe_times:
            low = min(tr.gap_at(t) for tr in traces)
            assert merged.gap_at(t) == pytest.approx(low, abs=1e-15)
        # idempotence, commutativity, associativity
        assert aggregate_min([merged]) == merged
        assert aggregate_min(traces + traces) == merged
        assert aggregate_min(list(reversed(traces))).final_gap() == merged.final_gap()
        if len(traces) >= 3:
            nested = aggregate_min([aggregate_min(traces[:2])] + traces[2:])
            assert nested == merged


def test_aggregate_min_nested_subset_monotonicity():
    rng = random.Random(10)
    for _ in range(100):
        big = [random_step_trace(rng) for _ in range(4)]
        small = big[:2]
        agg_small = aggregate_min(small)
        agg_big = aggregate_min(big)
        for t in [0.0, 25.0, 50.0, 75.0, 100.0]:
            assert agg_big.gap_at(t) <= agg_small.gap_at(t) + 1e-15


def test_pi_unit_conversion():
    # 0.5 gap over 60 seconds = 30 gap-seconds = 50 percent-minutes
    assert pi_percent_minutes(30.0) == pytest.approx(50.0)


def test_trace_csv_round_trip(tmp_path):
    rng = random.Random(11)
    trace = random_step_trace(rng)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    again = read_trace_csv(path, horizon=trace.horizon)
    assert again == trace
    text = trace_to_csv(trace)
    assert text.splitlines()[0] == "t_seconds,objective,gap"


def test_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,obj,gap\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_trace_csv_row_error_names_file_and_line(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("t_seconds,objective,gap\n1.0,5.0,0.5\n2.0,4.0\n")
    with pytest.raises(ValueError, match=r"short\.csv, line 3: not enough values"):
        read_trace_csv(path)
    path.write_text("t_seconds,objective,gap\n1.0,5.0,half\n")
    with pytest.raises(ValueError, match=r"short\.csv, line 2: could not convert"):
        read_trace_csv(path)


# --- the in-memory reader against a csv.reader over the open file ----------

# besides \r and \n, str.splitlines also breaks lines at \v, \f, \x1c-\x1e,
# \x85, \u2028 and \u2029; a file read line by line does not, and neither
# may the reader. float() takes all of them but \x1c-\x1e as padding.
_PAD = st.text(alphabet=" \t\v\f\x85\u2028", max_size=2)
_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-10, 10**6).map(str),
    st.sampled_from(["1e-3", ".5", "5.", "-0.0", "1_000", "inf", "NaN", "0x10"]),
)
_JUNK = st.text(alphabet="0123456789.,e- \"ab\r\n\t\v\f\x1c\x85\u2028", max_size=6)


@st.composite
def _fields(draw):
    # one field in eight is not a number
    junk = draw(st.booleans()) and draw(st.booleans()) and draw(st.booleans())
    text = draw(_JUNK if junk else _NUMBERS)
    if draw(st.booleans()):
        text = draw(_PAD) + text + draw(_PAD)
    if draw(st.booleans()) and draw(st.booleans()):
        text = '"' + text.replace('"', '""') + '"'
    return text


_GOOD_HEADERS = ["t_seconds,objective,gap", '"t_seconds" ,objective, gap\t']
_BAD_HEADERS = ["t_seconds,objective", "t_seconds,objective,gap,x", "time,obj,gap", ""]


@st.composite
def _trace_texts(draw):
    # mostly a good header and rows of three fields; bad headers and short,
    # long and blank rows too
    if draw(st.booleans()) or draw(st.booleans()):
        header = draw(st.sampled_from(_GOOD_HEADERS))
    else:
        header = draw(st.sampled_from(_BAD_HEADERS) | st.lists(_fields(), max_size=4).map(",".join))
    lines = [header]
    for _ in range(draw(st.integers(0, 5))):
        width = draw(st.integers(0, 5)) if draw(st.booleans()) and draw(st.booleans()) else 3
        lines.append(",".join(draw(st.lists(_fields(), min_size=width, max_size=width))))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final line end
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(read, path):
    try:
        return point_bits(read(path))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_trace_texts())
@example("t_seconds,objective,gap\r\n1.0,5.0,0.5\r\n2.0,4.0,0.25\r\n")
@example("t_seconds,objective,gap\r1.0,5.0,0.5\r2.0,4.0,0.25")
@example("t_seconds,objective,gap\n1.0,5.0,0.5\n\n2.0,4.0,0.25\n")
@example('t_seconds,objective,gap\n"1.\n0",5.0,0.5\n')
@example("t_seconds,objective,gap\n1.0,5.0,0.5\f2.0,4.0,0.25\n")
@example("t_seconds,objective,gap\n1.0\f,5.0,0.5\n")
@example("")
def test_trace_reader_matches_file_reader(text):
    # the same points bit for bit, or the same error naming the same line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode())
        assert _outcome(read_trace_points, path) == _outcome(read_trace_points_oracle, path)


def test_trace_reader_errors_name_the_file(tmp_path):
    with pytest.raises(ValueError, match=r"missing\.csv: .*No such file"):
        read_trace_points(tmp_path / "missing.csv")
    (tmp_path / "dir.csv").mkdir()
    with pytest.raises(ValueError, match=r"dir\.csv: .*Is a directory"):
        read_trace_points(tmp_path / "dir.csv")
    path = tmp_path / "latin.csv"
    path.write_bytes(b"t_seconds,objective,gap\n1.0,5.0,0.5\xff\n")
    with pytest.raises(ValueError, match=r"latin\.csv: 'utf-8' codec can't decode byte 0xff"):
        read_trace_points(path)
