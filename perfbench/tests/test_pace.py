"""The pace scale: which probes a time span is scaled by."""

import pace


def test_nearest_takes_the_probes_inside_a_span():
    samples = [(float(t), 0.01 * (t + 1)) for t in range(40)]
    assert pace.nearest(samples, 10.0, 29.0, 5) == [0.01 * (t + 1) for t in range(10, 30)]


def test_nearest_widens_to_the_closest_probes():
    samples = [(float(t), float(t)) for t in range(10)]
    assert sorted(pace.nearest(samples, 4.2, 4.4, 3)) == [3.0, 4.0, 5.0]
    # at the edges it widens inwards
    assert sorted(pace.nearest(samples, -5.0, -4.0, 3)) == [0.0, 1.0, 2.0]
    assert sorted(pace.nearest(samples, 20.0, 21.0, 3)) == [7.0, 8.0, 9.0]
    assert len(pace.nearest(samples, 0.0, 1.0, 50)) == 10


def test_factor_is_reference_over_median_probe():
    p = pace.Pace()
    p.samples = [(float(t), 2 * pace.REFERENCE_S) for t in range(pace.NEAREST)]
    assert p.factor(0.0, 1.0) == 0.5


def test_probe_is_recorded_and_tick_waits():
    p = pace.Pace()
    p.tick()
    p.tick()  # well within EVERY_S of the first
    assert len(p.samples) == 1 and p.probe_s > 0
