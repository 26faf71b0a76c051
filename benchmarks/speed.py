"""Machine-speed correction for the benchmark's timings.

On a shared host the speed of the same code swings by a third within
seconds and drifts by as much over minutes, which no number of repeats
averages away. So every timed operation is interleaved with a fixed speed
probe: once before it, every `INTERVAL_S` during it (from a SIGALRM handler,
which runs between bytecodes of the main thread) and once after it. The
probe's own time is taken out of the operation's time, and the operation is
reported in reference seconds:

    reference seconds = measured seconds * PROBE_REF_S / probe seconds

where the probe seconds are those of the probes on either side of each
stretch of the operation. The probe uses nothing from scma_vlc, so a change
to the package cannot move it; only the speed of the machine at that moment
does. On a machine that runs the probe in PROBE_REF_S, reference seconds are
wall seconds. On a 2-vCPU VM this took the quartile spread of pass times over
ten runs from 10-32% of the median (wall) to 4-8.5% (reference).
"""

from __future__ import annotations

import contextlib
import mmap
import signal
import time

import numpy as np

# About the probe's median time on a 2-vCPU Intel Xeon VM with numpy 2.4. Any
# fixed value would do: it sets the scale of reference seconds, nothing else.
PROBE_REF_S = 0.009
INTERVAL_S = 0.25

_LARGE = np.random.default_rng(12345).random(100_000)
_LARGE_OUT = np.empty_like(_LARGE)
_SMALL = np.linspace(0.0, 1.0, 4096)
_SMALL_OUT = np.empty_like(_SMALL)
# Below the 2 MiB of a huge page, so each touched page is one fault.
_REGION = 1 << 20


def probe() -> None:
    """Interpreter work, numpy arithmetic and page faults, about 10 ms in all.

    The numpy part writes into preallocated arrays and the page faults come
    from fresh anonymous maps, so nothing goes through malloc: the probe's
    speed does not depend on what the process allocated before it.
    """
    s = 0.0
    for i in range(40_000):
        s += i * 0.5
    for _ in range(12):
        np.multiply(_LARGE, -45.0, out=_LARGE_OUT)
        np.add(_LARGE_OUT, 7.5, out=_LARGE_OUT)
        np.exp(_LARGE_OUT, out=_LARGE_OUT)
        _LARGE_OUT.sum()
    for _ in range(100):
        np.multiply(_SMALL, _SMALL, out=_SMALL_OUT)
        np.sqrt(_SMALL_OUT, out=_SMALL_OUT)
        _SMALL_OUT[::3].sum()
    for _ in range(4):
        region = mmap.mmap(-1, _REGION)
        for offset in range(0, _REGION, mmap.PAGESIZE):
            region[offset] = 1
        region.close()


class SpeedMeter:
    """Times operations in reference seconds (see the module docstring)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe
        self._probe_total_s = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.samples.append((t0, t1))
        self._probe_total_s += t1 - t0

    def clock(self) -> float:
        """Wall clock that stands still while a probe runs, for the tracer's spans."""
        return time.perf_counter() - self._probe_total_s

    def durations(self) -> list[float]:
        return [end - start for start, end in self.samples]

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def timing(self):
        """Time the body; yields a dict that gets `seconds` and `ref_s`.

        `seconds` is the wall time of the body without the probes run inside
        it. Each stretch of the body between two probes is converted to
        reference seconds at the mean speed of those two probes, so a change
        of speed in the middle of a long operation is followed.
        """
        out: dict[str, float] = {}
        self.sample()
        first = len(self.samples) - 1
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            self.sample()
            spans = self.samples[first:]
            seconds = ref_s = 0.0
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                stretch = min(b0, t1) - max(a1, t0)
                seconds += stretch
                ref_s += stretch * PROBE_REF_S * 2.0 / ((a1 - a0) + (b1 - b0))
            out["seconds"] = seconds
            out["ref_s"] = ref_s
