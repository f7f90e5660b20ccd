"""Machine-speed probe, so that times are comparable across minutes.

On a shared host the same single-threaded Python work can run up to twice
as slow for tens of seconds at a time, which would swamp any change to the
program.  `SpeedProbe` times a fixed computation from the reference code
(no code of the package under test) every PERIOD_S seconds, from a SIGALRM
handler, so samples are taken during long operations too.  An interval of
program work is then reported as

    (wall time - probe time inside it) * NOMINAL_S / (median probe time around it)

that is, in seconds of a machine on which the probe takes NOMINAL_S.  The
garbage collector is off while the probe runs, so a program that leaves a
large heap behind cannot slow the probe and flatter itself.

The raw wall times stay in the run report.  Editing the probe's
computation rescales every time metric.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import reference as ref

PERIOD_S = 0.25
NOMINAL_S = 0.004
_INPUTS = [[[int(c) for c in row] for row in rows] for rows in (
    ("01010", "00101", "00011", "00000", "00000"),
    ("00101", "00110", "00011", "00000", "00000"),
    ("011111", "001011", "000101", "000011", "000001", "000000"),
)]


def probe_work() -> None:
    for _ in range(24):
        for a in _INPUTS:
            ref.w2(a)
            ref.gf2_rank(a)


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._busy = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def sample(self) -> None:
        if self._busy:  # a signal that arrives while a sample runs
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe_work()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()
        self._busy = False

    def scaled(self, start: float, end: float) -> float:
        """Program seconds in [start, end], at the nominal machine speed.

        Samples are appended in time order, so they can be searched.
        """
        inside = slice(bisect.bisect_left(self.starts, start),
                       bisect.bisect_left(self.starts, end))
        net = end - start - sum(self.seconds[inside])
        around = slice(bisect.bisect_left(self.starts, start - PERIOD_S),
                       bisect.bisect_right(self.starts, end + PERIOD_S))
        speed = statistics.median(self.seconds[around] or self.seconds[-1:])
        return net * NOMINAL_S / speed
