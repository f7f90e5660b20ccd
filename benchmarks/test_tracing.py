"""Tests of the per-layer tracer on a throwaway package.

Run with: python3 -m pytest benchmarks
"""
import sys
import time
import types

import tracing


def fake_package(monkeypatch):
    """bottclass.gf2 with rank_masks, re-bound by `from ... import` in
    bottclass.cohomology, whose ring_of calls it."""
    gf2 = types.ModuleType("bottclass.gf2")

    def rank_masks(rows):
        time.sleep(0.01)
        return len(rows)

    gf2.rank_masks = rank_masks
    coh = types.ModuleType("bottclass.cohomology")
    coh.rank_masks = rank_masks

    def ring_of(m):
        time.sleep(0.02)
        return coh.rank_masks(m)

    coh.ring_of = ring_of
    for name in [n for n in sys.modules if n == "bottclass" or n.startswith("bottclass.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "bottclass", types.ModuleType("bottclass"))
    monkeypatch.setitem(sys.modules, "bottclass.gf2", gf2)
    monkeypatch.setitem(sys.modules, "bottclass.cohomology", coh)
    return gf2, coh


def test_counts_self_time_and_absent(monkeypatch):
    gf2, coh = fake_package(monkeypatch)
    original = gf2.rank_masks
    tracer = tracing.Tracer()
    tracer.install()
    assert coh.rank_masks is gf2.rank_masks is not original  # both bindings
    assert coh.ring_of([1, 2]) == 2
    gf2.rank_masks([1])
    tracer.uninstall()
    assert gf2.rank_masks is original and coh.rank_masks is original

    got = tracer.snapshot()
    assert got["cohomology.ring_of.calls"] == 1
    assert got["gf2.rank_masks.calls"] == 2
    # ring_of's own 20 ms, without the 10 ms of its rank_masks call
    assert 0.015 < got["cohomology.ring_of.self_s"] < 0.05
    assert 0.018 < got["gf2.rank_masks.self_s"] < 0.08
    # everything else is absent here and reported with zero counts
    assert "cli.main" in tracer.absent and "gf2.solve" in tracer.absent
    assert got["cli.main.calls"] == 0
    assert set(got) == {name for name, _ in tracing.metric_names()}
