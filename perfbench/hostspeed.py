"""Host-speed reference: a fixed kernel timed next to every measured call.

The benchmark runs on a shared VM whose speed moves in phases: over a
few seconds to a minute the same call takes anything from 0.7x to 1.3x
its usual time, and a 35-second window of raw wall times spreads by
13-26% (IQR/median) from one window to the next.  A fixed reference
kernel slows and speeds up with the host.  It is timed just before and
just after each call, and every SAMPLE_INTERVAL_S during it (from a
SIGALRM handler in the same thread, whose time is taken out of the
call's), so each call's wall time is scaled by

    REFERENCE_S / mean(reference times before, during and after the call)

which reads the call in seconds at a nominal host speed.  The reference
is this file's own code, not symplat's, so a change to the program moves
the scaled times as it moves the wall times; only the host's phases
cancel.  Each sample runs the reference twice and times the second run,
which then finds its own code paths and data in the caches whatever the
call was doing.  Like the calls it brackets, the reference is small numpy
operations in Python loops: one half is Gram-Schmidt on 16-vectors (the
shape of symplat's LLL), the other half scalar array indexing in a loop
(the shape of its enumeration).
"""

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Reference time at the nominal host speed.  Any fixed value would do: it
#: only sets the unit.  The mean sample over a run is about 1.0 ms on a
#: 2-core Intel Xeon VM at 2.1 GHz (Python 3.11, numpy 2.4), where scaled
#: times therefore read about 10% below wall times.
REFERENCE_S = 0.9e-3
#: Wall seconds between reference samples while a call runs.
SAMPLE_INTERVAL_S = 0.1

_M = np.random.default_rng(0).standard_normal((16, 16))
_R = np.abs(np.triu(_M)) + 4.0 * np.eye(16)


def _gram_schmidt() -> np.ndarray:
    b = _M.copy()
    nrm = np.zeros(16)
    for i in range(16):
        for j in range(i):
            b[i] = b[i] - (np.dot(b[i], b[j]) / nrm[j]) * b[j]
        nrm[i] = np.dot(b[i], b[i])
    return nrm


def _scalar_walk() -> float:
    z = np.zeros(16, dtype=np.int64)
    s = np.zeros(16)
    acc = 0.0
    for k in range(300):
        i = k % 16
        z[i] += 1
        s[i] = s[i] * 0.5 + _R[i, (i + 1) % 16] * z[i]
        if s[i] > 100.0:
            s[i] = 0.0
            z[i] = 0
        acc += s[i]
    return acc


def reference_time() -> float:
    """Seconds the reference kernel takes now, run warm.

    An untimed first run brings the reference's own code paths and data
    back into the caches, so the timed run depends on the host's speed,
    not on what the interrupted call left in them.
    """
    _gram_schmidt()
    _scalar_walk()
    t0 = perf_counter()
    _gram_schmidt()
    _scalar_walk()
    return perf_counter() - t0


def scale(references: list[float]) -> float:
    """Factor from wall seconds to seconds at the nominal host speed."""
    return REFERENCE_S * len(references) / sum(references)


class Sampler:
    """Times the reference every SAMPLE_INTERVAL_S while ``running()``.

    ``samples`` are the reference times taken and ``spent`` the wall
    seconds the handler took, which the caller subtracts from its timing.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, _signum, _frame):
        t0 = perf_counter()
        self.samples.append(reference_time())
        self.spent += perf_counter() - t0

    @contextmanager
    def running(self):
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
