"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import gc
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from measure import (  # noqa: E402
    percentile,
    reachable_share,
    timed_call,
    unexplained_flips,
)
from tracing import Tracer, layer_totals, self_times  # noqa: E402


# -- percentile rule -----------------------------------------------------------


def test_p95_of_200_leaves_ten_beyond():
    xs = list(range(200))
    assert percentile(xs, 95, min_beyond=10) == 189
    assert sum(x > 189 for x in xs) == 10


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(ValueError):
        percentile(range(199), 95, min_beyond=10)


def test_percentile_is_nearest_rank_and_order_free():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- span self times -------------------------------------------------------------


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [
        span(0, None, 0.0, 10.0, "root"),
        span(1, 0, 1.0, 4.0, "a"),
        span(2, 0, 5.0, 6.0, "b"),
        span(3, 1, 2.0, 3.0, "c"),
    ]
    st = self_times(spans)
    assert st == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 2.0, 6.0),
        span(2, 0, 4.0, 8.0),
        span(3, 0, 9.0, 12.0),  # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_totals_under_root_and_tracer_nesting():
    tr = Tracer(True)
    with tr.span("setup"):
        pass
    with tr.span("pass"):
        for _ in range(3):
            with tr.span("work"):
                time.sleep(0.001)
    assert [s["parent"] for s in tr.spans] == [None, None, 1, 1, 1]
    totals = layer_totals(tr.spans, root=1)
    assert set(totals) == {"pass", "work"}
    whole = tr.spans[1]["end"] - tr.spans[1]["start"]
    assert totals["pass"] + totals["work"] == pytest.approx(whole)
    assert totals["work"] >= 0.003


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    with tr.span("a"):
        with tr.span("b"):
            pass
    assert tr.spans == []


# -- reachable share --------------------------------------------------------------


def test_reachable_share_on_hand_built_graph():
    from explgraph import GraphBuilder, SwitchInstance

    b = GraphBuilder()
    b.declare_switch("s", ("p", "q"))
    leaf = b.goal("leaf")
    b.add_body(leaf, [], [SwitchInstance("s", "p")])
    mid = b.goal("mid")
    b.add_body(mid, [leaf], [SwitchInstance("s", "q")])
    top = b.goal("top")
    b.add_body(top, [mid, leaf], [])
    orphan = b.goal("orphan")  # compiled, but no observed goal uses it
    b.add_body(orphan, [leaf], [])
    other = b.goal("other")
    b.add_body(other, [orphan], [])
    for g in (top, other):
        b.add_root(g)
    graph = b.build()
    assert reachable_share(graph, [top, top]) == (3, 5)
    assert reachable_share(graph, [top, other]) == (5, 5)
    assert reachable_share(graph, [leaf]) == (1, 5)


# -- deadline handling ---------------------------------------------------------------


def spin(seconds):
    t0 = time.process_time()
    while time.process_time() - t0 < seconds:
        pass
    return "done"


def test_timed_out_call_is_a_failure_counted_at_the_deadline():
    status, wall, cpu, value = timed_call(lambda: spin(1.0), 0.05)
    assert (status, wall, cpu, value) == ("timeout", 0.05, 0.05, None)


def test_deadline_leaves_the_next_call_unaffected():
    timed_call(lambda: spin(1.0), 0.05)
    status, wall, cpu, value = timed_call(lambda: spin(0.1), 0.5)
    assert status == "ok" and value == "done"
    assert 0.09 <= cpu < 0.3 and wall < 0.5
    # the timer is disarmed and the previous handler restored
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) in (signal.SIG_DFL, signal.SIG_IGN, None)
    spin(0.1)  # no stray deadline fires afterwards


def test_collection_is_held_off_during_the_call_only():
    assert gc.isenabled()
    status, _, _, during = timed_call(gc.isenabled, 0.5)
    assert (status, during) == ("ok", False)
    assert gc.isenabled()
    timed_call(lambda: spin(1.0), 0.05)
    assert gc.isenabled()


def test_listed_exceptions_count_as_failures():
    def boom():
        raise KeyError("x")

    status, _, _, value = timed_call(boom, 0.5, (KeyError,))
    assert (status, value) == ("fail", None)
    with pytest.raises(ValueError):
        timed_call(lambda: int("x"), 0.5, (KeyError,))
    assert gc.isenabled()


# -- verdict stability ----------------------------------------------------------------


def test_only_near_deadline_sentences_may_change_verdict():
    first = {"timeouts": [1, 2, 3], "near": {"7": 0.2}}
    assert unexplained_flips(first, {"timeouts": [1, 2, 3], "near": {}}) == []
    # 3 finished near the deadline in the second run: allowed
    assert unexplained_flips(first, {"timeouts": [1, 2], "near": {"3": 0.24}}) == []
    # 7 was near in the first run and timed out in the second: allowed
    assert unexplained_flips(first, {"timeouts": [1, 2, 3, 7], "near": {}}) == []
    # 2 finished far below the deadline, 9 timed out but was fast before
    assert unexplained_flips(first, {"timeouts": [1, 3, 9], "near": {}}) == [2, 9]
