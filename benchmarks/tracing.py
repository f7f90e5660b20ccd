"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each listed public function of `bottclass` by
a wrapper that records its calls and self time, wherever a module of the
package holds it (a name bound with `from ... import` is a second binding
of the same object, and both are replaced).  Methods are replaced on
their class.  Nothing under `src/` is edited; `uninstall()` puts the
original objects back.

Self time is a span's duration minus the time of the traced spans it
called.  A listed function that the package no longer has is reported as
absent, with zero counts.
"""
from __future__ import annotations

import sys
import time
from typing import Callable

LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "bottmatrix": (
        "enumerate_strict_upper", "diffeo_classes", "orbit_raw", "diffeo_class_of",
        "to_strict_upper", "BottMatrix.__post_init__",
    ),
    "cohomology": (
        "ring_of", "w2_of_rows", "CohomRing.stiefel_whitney", "CohomRing.betti_z2",
        "CohomRing.multiply_terms", "CohomRing.square_of_linear",
    ),
    "gf2": ("rank_masks", "solve"),
    "spin": (
        "odd_overlap_witness", "disjoint_rows_witness", "has_spin", "spinc_obstructed",
        "spin_lift_search", "clifford_mul",
    ),
    "bieberbach": (
        "generators_of", "lattice_of", "is_torsion_free", "holonomy_rep", "member",
        "verify_tower_conjugation", "IntLattice.add", "IntLattice.contains",
    ),
    "rigidity": ("ring_invariants", "ring_isomorphic", "rigidity_experiment"),
}

# Work counts measured at the same boundaries as the spans.
WORK_COUNTS = (
    "bottmatrix.orbit_raw.nodes",
    "rigidity.ring_isomorphic.searched",
    "rigidity.ring_isomorphic.found",
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, names in LAYERS.items():
        for name in names:
            out.append((f"{module}.{name}.calls", "count"))
            out.append((f"{module}.{name}.self_s", "s"))
    out.extend((name, "count") for name in WORK_COUNTS)
    return out


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = dict.fromkeys(WORK_COUNTS, 0)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "bottclass" or name.startswith("bottclass.")]
        for module, names in LAYERS.items():
            home = sys.modules.get(f"bottclass.{module}")
            for name in names:
                key = f"{module}.{name}"
                self.calls[key] = 0
                self.self_s[key] = 0.0
                owner, attr = _resolve(home, name)
                if owner is None:
                    self.absent.append(key)
                    continue
                original = owner.__dict__[attr]
                wrapper = self._wrap(key, original)
                if owner is home:
                    # every module-level binding of the same function object
                    for m in modules:
                        for bound, value in list(vars(m).items()):
                            if value is original:
                                self._patch(m, bound, wrapper)
                else:
                    self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        clock = time.perf_counter
        orbit = key == "bottmatrix.orbit_raw"
        iso = key == "rigidity.ring_isomorphic"
        squares = "cohomology.CohomRing.square_of_linear"

        def wrapper(*args, **kwargs):
            before = calls[squares] if iso else 0
            stack.append([0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - children
            if orbit:
                counts["bottmatrix.orbit_raw.nodes"] += len(result)
            elif iso:
                if calls[squares] > before:
                    counts["rigidity.ring_isomorphic.searched"] += 1
                if result is not None:
                    counts["rigidity.ring_isomorphic.found"] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        out.update(self.counts)
        return out


def _resolve(home, name: str):
    """(object whose __dict__ holds the function, attribute name), or
    (None, None) when the module, class or function is gone."""
    if home is None:
        return None, None
    owner = home
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in getattr(owner, "__dict__", {}):
        return None, None
    return owner, attr
