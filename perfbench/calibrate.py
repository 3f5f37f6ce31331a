"""Machine-speed calibration for times measured on a shared machine.

On the reference machine (2 cores shared with other tenants) the speed of
single-threaded Python drifts by up to 2x within minutes, and the fastest of
several repetitions drifts with it, so neither medians nor minima of raw
times are steady from one run to the next.  A fixed pure-Python probe, run
just before and just after each measurement, tracks that drift: every time
the benchmark reports is the raw time multiplied by REFERENCE_S over the
probe's time, i.e. seconds on a machine where the full probe takes
REFERENCE_S.  Raw medians are printed alongside.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.020  # the full probe (FULL_ROUNDS) on the reference machine, unloaded
FULL_ROUNDS = 3000
SHORT_ROUNDS = 400  # for measurements of tens of milliseconds


def probe_seconds(rounds: int) -> float:
    """Time of fixed work like the verifier's inner loops: bitmask transitive
    closures of pseudo-random 8-vertex digraphs."""
    t0 = time.perf_counter()
    x = 12345
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        clos = [(1 << v) | (x >> (3 * v)) & 0xFF for v in range(8)]
        for k in range(8):
            ck = clos[k]
            bit = 1 << k
            for i in range(8):
                if clos[i] & bit:
                    clos[i] |= ck
    return time.perf_counter() - t0


class Meter:
    """Splits time into segments separated by probes of a fixed size.

    start() begins a segment; lap() ends it, returning its raw seconds and
    its seconds at reference speed (scaled by the probes on either side),
    then runs the next probe and begins the next segment, so probe time is
    never counted.
    """

    def __init__(self, rounds: int = FULL_ROUNDS) -> None:
        self.rounds = rounds
        self.reference = REFERENCE_S * rounds / FULL_ROUNDS
        self._last = probe_seconds(rounds)
        self._t0 = time.perf_counter()

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        raw = time.perf_counter() - self._t0
        before = self._last
        self._last = probe_seconds(self.rounds)
        self._t0 = time.perf_counter()
        return raw, raw * 2 * self.reference / (before + self._last)
