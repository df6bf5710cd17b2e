"""Times calls in reference seconds, so that the machine's speed drops out.

A shared virtual machine runs the same code at speeds that swing by a factor
of up to two within a second, in CPU time as in wall time.  A wall-clock
timing of one op therefore says as much about the neighbours as about the
op.  ``Meter`` samples the machine's current speed with a *probe*, a fixed
piece of pure-Python work that uses no poishom code: once right before each
timed call, once right after it, and, from a timer signal, every
``PROBE_INTERVAL`` seconds during it.  A call's time in reference seconds is
its wall time, less the probes that ran inside it, divided by the mean probe
time over the call and multiplied by ``REF_PROBE_S``: the time the call
would take on a machine where one probe takes ``REF_PROBE_S``.  A change to
poishom moves the call's time and not the probes, so it moves the reference
time by the same share as it would move the wall time on a steady machine.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REF_PROBE_S = 4e-4  # about one probe's time on the machine in perfbench/README.md
PROBE_INTERVAL = 0.025  # about 2% of the time goes to probes inside calls


def probe_work():
    """Fixed work: exact rationals summed into a dict under tuple keys, as
    the exact layers do with polynomial terms and structure constants, and
    a float loop, as ``eval_float`` runs."""
    terms = {}
    x = Fraction(1, 3)
    for i in range(100):
        key = (i % 5, i % 3)
        terms[key] = terms.get(key, 0) + x * Fraction(i % 7 + 1, 5)
    f = 0.0
    for i in range(200):
        f = f * 0.5 + i * 1.0001
    return terms, f


class Meter:
    """Use as a context manager; while it is entered, the timer signal
    probes the machine's speed, and ``call`` times calls."""

    def __init__(self, interval: float = PROBE_INTERVAL):
        self.interval = interval
        self.starts: list[float] = []  # probe start times
        self.times: list[float] = []  # probe durations
        self._busy = False
        self._old_handler = None

    def probe(self) -> None:
        if self._busy:  # a timer signal during a probe
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()  # collection work is charged to the calls, not the probes
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self._busy = False

    def __enter__(self) -> "Meter":
        self._old_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def call(self, fn, *args):
        """Call ``fn(*args)``.  Returns ``(ok, out, wall_s, ref_s)``: ``ok`` is
        False when the call raised, and ``out`` is then the exception."""
        first = len(self.times)
        self.probe()
        t0 = time.perf_counter()
        try:
            out, ok = fn(*args), True
        except Exception as exc:  # the caller counts a raising call as failed
            out, ok = exc, False
        t1 = time.perf_counter()
        self.probe()
        times = self.times[first:]
        inside = sum(d for s, d in zip(self.starts[first:], times) if t0 <= s < t1)
        speed = sum(times) / len(times)
        return ok, out, t1 - t0, (t1 - t0 - inside) * REF_PROBE_S / speed
