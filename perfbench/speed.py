"""Machine-speed probe and a clock that reports times at reference speed.

The machine this benchmark was built on is a small VM whose speed drifts
by +-25 % over seconds to minutes, with interpreted Python and LAPACK
slowing together.  A fixed probe, which uses no duffspec code, measures
that speed.  While a job runs, an interval timer interrupts it every
``INTERVAL`` seconds to run the probe once; the probe's own time is taken
out of the job's time.  A job's time at reference speed is its measured
time x (PROBE_REFERENCE_S / the median probe time while it ran).
"""

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Reported times read as if the probe took this long.
PROBE_REFERENCE_S = 0.005
INTERVAL = 0.2
# Fewer samples than this during a job: use the probes around it instead.
MIN_SAMPLES = 5

_DENSE = np.random.default_rng(0).standard_normal((60, 60))
# A 2-D five-point Laplacian on a 24 x 24 grid, shifted off singularity.
_SPARSE = scipy.sparse.diags(
    [4.5, -1.0, -1.0, -1.0, -1.0], [0, 1, -1, 24, -24], shape=(576, 576), format="csc"
)
_SMALL = np.linspace(-1.0, 1.0, 300)
_LADDER = scipy.sparse.diags(np.sqrt(np.arange(1.0, 12.0)), 1, format="csr")


def probe():
    """Seconds for a fixed mix of the kinds of work duffspec does.

    Scalar complex arithmetic in the interpreter, numpy on small arrays,
    sparse Kronecker assembly, a dense LAPACK eigensolve and a SuperLU
    factorization, about 1 ms each.
    """
    start = time.perf_counter()
    term, z = 1.0 + 0.0j, 3.0 + 0.5j
    for k in range(2000):
        term = term * z / ((k + 1.0) * (0.3j + k) * (1.2 - 0.4j + k)) + 1e-3
    for _ in range(60):
        x = (_SMALL - 0.1) / 0.05
        np.sum((0.6 + 0.4 * (x - 0.3) ** 2 / (x * x + 1.0)) ** 2)
    eye = scipy.sparse.identity(12, format="csr")
    (scipy.sparse.kron(_LADDER, eye) - scipy.sparse.kron(eye, _LADDER.T)).tocsr()
    np.linalg.eigvals(_DENSE)
    scipy.sparse.linalg.splu(_SPARSE)
    return time.perf_counter() - start


def settled_probe():
    """Median of 15 probes, for the moments between jobs."""
    return statistics.median(probe() for _ in range(15))


def at_reference_speed(seconds, probe_seconds):
    return seconds * PROBE_REFERENCE_S / probe_seconds


class Clock:
    """Times calls into the program, minus the probes that interrupt them."""

    def __init__(self):
        self.samples = []
        self._stolen = 0.0
        self._armed = False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self._stolen += time.perf_counter() - start

    def _arm(self, on):
        interval = INTERVAL if on else 0.0
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    @contextlib.contextmanager
    def sampling(self):
        """Probe every INTERVAL seconds for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        self._arm(True)
        try:
            yield self
        finally:
            self._arm(False)
            self._armed = False
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def quiet(self):
        """No probes for the duration of the block (work on every core)."""
        self._arm(False)
        try:
            yield
        finally:
            self._arm(self._armed)

    def call(self, fn, *args, **kwargs):
        """(result or None, exception or None, seconds) of one program call."""
        stolen, start = self._stolen, time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the program's failure is the operation's outcome
            return None, exc, time.perf_counter() - start - (self._stolen - stolen)
        return result, None, time.perf_counter() - start - (self._stolen - stolen)
