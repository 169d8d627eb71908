import pytest

from mleachsim.engine import US, EventKind, EventQueue, RandomStreams


def test_pop_orders_by_time_then_kind_then_insertion():
    q = EventQueue()
    q.schedule(5, EventKind.DATA_SEND, "late-kind")
    q.schedule(5, EventKind.MOBILITY_STEP, "early-kind")
    q.schedule(3, EventKind.SIM_END, "earliest-time")
    q.schedule(5, EventKind.MOBILITY_STEP, "second-insert")
    got = [q.pop()[2] for _ in range(4)]
    assert got == ["earliest-time", "early-kind", "second-insert", "late-kind"]


def test_head_reads_the_next_event_without_popping_it():
    q = EventQueue()
    assert q.head() is None
    q.schedule(5, EventKind.DATA_SEND, "late-kind")
    q.schedule(7, EventKind.METRIC_SAMPLE, "later")
    q.schedule(5, EventKind.MOBILITY_STEP, "early-kind")
    assert q.head() == (5, EventKind.MOBILITY_STEP)
    assert len(q) == 3
    assert q.pop() == (5, EventKind.MOBILITY_STEP, "early-kind")
    assert q.head() == (5, EventKind.DATA_SEND)
    q.pop()
    q.pop()
    assert q.head() is None


def test_same_instant_priority_matches_phase_order():
    order = [
        EventKind.METRIC_SAMPLE,
        EventKind.MOBILITY_STEP,
        EventKind.ROUND_START,
        EventKind.BS_ROUTE_DUMP,
        EventKind.TRAFFIC_GEN,
        EventKind.SLOT_START,
        EventKind.ORPHAN_FLUSH,
        EventKind.ROUND_FINISH,
        EventKind.ROUTE_DUMP,
        EventKind.DATA_SEND,
        EventKind.SIM_END,
    ]
    assert [int(k) for k in order] == sorted(int(k) for k in order)


def test_scheduling_into_the_past_raises():
    q = EventQueue()
    q.schedule(10, EventKind.SIM_END)
    q.pop()
    with pytest.raises(ValueError):
        q.schedule(9, EventKind.SIM_END)
    q.schedule(10, EventKind.SIM_END)  # same instant is allowed


def test_clock_advances_on_pop():
    q = EventQueue()
    q.schedule(2 * US, EventKind.SIM_END)
    t, kind, _ = q.pop()
    assert t == 2 * US
    assert q.now_us == 2 * US
    assert kind == EventKind.SIM_END
    assert len(q) == 0


def test_named_streams_are_independent():
    s1 = RandomStreams(42)
    s2 = RandomStreams(42)
    # drain one stream heavily before touching the other
    s1.get("mobility").random(1000)
    a = s1.get("election").random(5)
    b = s2.get("election").random(5)
    assert a.tolist() == b.tolist()


def test_streams_differ_by_name_and_seed():
    s = RandomStreams(1)
    assert s.get("election").random() != s.get("traffic").random()
    assert RandomStreams(1).get("election").random() != RandomStreams(2).get("election").random()


def test_stream_is_memoized():
    s = RandomStreams(7)
    assert s.get("election") is s.get("election")
