import numpy as np

from mleachsim.traffic import OnOffTraffic


def always_on(n=4, rate=2.5, seed=3):
    return OnOffTraffic(n, on_s=60.0, off_s=0.0, rate_pps=rate, seed=seed)


def emitted(tr, i, t_s):
    """How many readings node i emits in second t_s, asked of it alone."""
    ids, counts = tr.generate(np.array([i]), t_s)
    assert ids.tolist() in ([], [i])
    return int(counts.sum())


def readings(tr, i, t_s):
    """The readings node i emits in second t_s, drawn at once."""
    return tr.values(i, emitted(tr, i, t_s))


def test_always_on_rate_is_exact_over_time():
    tr = always_on(rate=2.5)
    total = sum(emitted(tr, 0, float(t)) for t in range(100))
    assert total == 250


def test_fractional_rate_carries_remainder():
    tr = always_on(rate=0.4)
    tr.phase_offset[:] = 0.0
    counts = [emitted(tr, 1, float(t)) for t in range(5)]
    assert counts == [0, 0, 1, 0, 1]


def test_off_phase_emits_nothing_and_keeps_accumulator():
    tr = OnOffTraffic(2, on_s=2.0, off_s=2.0, rate_pps=1.7, seed=9)
    tr.phase_offset[:] = 0.0
    # at 1.7 readings a second every On second emits
    assert emitted(tr, 0, 0.0) and emitted(tr, 0, 1.0)
    acc_before = tr.acc[0]
    assert readings(tr, 0, 2.0) == [] and not emitted(tr, 0, 3.0)
    assert tr.acc[0] == acc_before


def test_phase_boundary_is_half_open():
    tr = OnOffTraffic(1, on_s=3.0, off_s=1.0, rate_pps=1.0, seed=2)
    tr.phase_offset[:] = 0.0
    # one reading a second: it emits iff it is On
    assert [emitted(tr, 0, float(t)) == 1 for t in range(8)] == [
        True, True, True, False, True, True, True, False,
    ]


def test_readings_walk_with_bounded_steps():
    tr = always_on(rate=5.0, seed=21)
    vals = []
    for t in range(200):
        vals.extend(readings(tr, 0, float(t)))
    assert len(vals) == 1000
    assert abs(vals[0]) <= 1.0
    diffs = np.abs(np.diff(np.array(vals)))
    assert (diffs <= 1.0).all()
    assert diffs.max() > 0.0


def test_nodes_do_not_share_randomness():
    a = always_on(n=2, rate=3.0, seed=5)
    b = always_on(n=2, rate=3.0, seed=5)
    # drain node 0 heavily on one instance only
    for t in range(50):
        readings(a, 0, float(t))
    got_a = [readings(a, 1, float(t)) for t in range(20)]
    got_b = [readings(b, 1, float(t)) for t in range(20)]
    assert got_a == got_b


def test_phase_offsets_deterministic_per_seed():
    a, b, c = always_on(seed=8), always_on(seed=8), always_on(seed=9)
    assert np.array_equal(a.phase_offset, b.phase_offset)
    assert not np.array_equal(a.phase_offset, c.phase_offset)
    assert (a.phase_offset >= 0.0).all()
    assert (a.phase_offset < a.cycle_s).all()


def test_readings_independent_of_query_order():
    a = always_on(n=3, rate=2.0, seed=13)
    b = always_on(n=3, rate=2.0, seed=13)
    seq_a, seq_b = [], []
    for t in range(30):
        for i in (0, 1, 2):
            seq_a.append((i, readings(a, i, float(t))))
    for t in range(30):
        for i in (2, 0, 1):
            seq_b.append((i, readings(b, i, float(t))))
    by_node_a = {i: [v for j, vs in seq_a if j == i for v in vs] for i in range(3)}
    by_node_b = {i: [v for j, vs in seq_b if j == i for v in vs] for i in range(3)}
    assert by_node_a == by_node_b


def test_one_call_counts_every_node_as_calls_one_by_one_would():
    a = OnOffTraffic(6, on_s=2.0, off_s=1.5, rate_pps=1.3, seed=4)
    b = OnOffTraffic(6, on_s=2.0, off_s=1.5, rate_pps=1.3, seed=4)
    for t in range(12):
        ids, counts = a.generate(np.array([0, 2, 3, 5]), t)
        one_by_one = [(i, emitted(b, i, t)) for i in (0, 2, 3, 5)]
        assert list(zip(ids.tolist(), counts.tolist())) == [(i, c) for i, c in one_by_one if c]
        assert counts.dtype == np.int64
    # nodes left out of a call carry nothing over
    assert a.acc[[1, 4]].tolist() == [0.0, 0.0]
    assert np.array_equal(a.acc, b.acc)


def test_values_do_not_depend_on_when_they_are_drawn():
    a = always_on(n=2, rate=3.5, seed=6)
    b = always_on(n=2, rate=3.5, seed=6)
    per_second = [v for t in range(10) for v in readings(a, 0, float(t))]
    backlog = sum(emitted(b, 0, float(t)) for t in range(10))
    assert b.values(0, 20) + b.values(0, backlog - 20) == per_second


def test_skipped_readings_are_drawn_with_the_next_values():
    a = always_on(n=2, rate=3.5, seed=8)
    b = always_on(n=2, rate=3.5, seed=8)
    state = a._gen[0].bit_generator.state
    a.skip(0, 5)
    a.skip(0, 2)
    assert a._gen[0].bit_generator.state == state  # nothing drawn yet
    assert a.values(1, 3) == b.values(1, 3)  # another node's walk is its own
    assert a.values(0, 4) == b.values(0, 11)[7:]
    # the skipped readings are drawn once: the walk goes on as one call's would
    assert a.values(0, 6) == b.values(0, 6)
    assert a.reading.tolist() == b.reading.tolist()
