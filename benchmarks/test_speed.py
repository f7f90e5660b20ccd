"""Tests of the machine-speed scaling.

Run with: python3 -m pytest benchmarks
"""
import speed


def test_scaled_subtracts_probe_time_and_rescales():
    probe = speed.SpeedProbe()
    # a machine twice as slow as nominal: every sample takes 2 * NOMINAL_S
    probe.starts = [0.0, 0.25, 0.5, 0.75, 1.0]
    probe.seconds = [2 * speed.NOMINAL_S] * 5
    # [0.2, 0.8] holds the samples at 0.25, 0.5 and 0.75
    net = 0.6 - 3 * 2 * speed.NOMINAL_S
    assert abs(probe.scaled(0.2, 0.8) - net / 2) < 1e-12
    # a short interval between samples uses its neighbours
    assert abs(probe.scaled(0.30, 0.31) - 0.005) < 1e-12


def test_sample_records_in_time_order():
    probe = speed.SpeedProbe()
    probe.start()
    probe.stop()
    assert len(probe.seconds) == 2 and probe.starts == sorted(probe.starts)
    assert all(s > 0 for s in probe.seconds)
