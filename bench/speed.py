"""A host-speed reference, timed every 0.5 s while the benchmark measures.

The host this benchmark was built on changes speed by up to 1.6x for tens of
seconds at a time: the same fixed work took 3.4 ms per call in one phase and
5.6 ms in the next, on both vCPUs at once, with no steal time. A 30-second
run can fall wholly inside one phase, so raw wall times of runs made minutes
apart differ by far more than any bound worth enforcing.

`SpeedProbe` times a fixed piece of numpy work that does not touch stgcvae,
shaped like the model's op mix: a padded sliding-window einsum convolution,
its per-tap backward, per-frame agent mixing, a PReLU and dict bookkeeping
over small arrays. `HostClock` runs it every INTERVAL_S while the benchmark
measures, and the benchmark scales the run's median wall-time figures by
the median of all the run's probes over NOMINAL_S. One probe is noisy (its
interquartile range is about 15 % of its median); the median of a run's
hundred probes is not. A change to stgcvae cannot change the probe, so a
slower program still reads slower; only the host's speed is divided out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the probe's time in a fast phase of a 2-vCPU Intel Xeon host; scaled times
# read as that host's wall times in a fast phase
NOMINAL_S = 0.003
BURSTS = 3       # a probe is the fastest of three bursts
INTERVAL_S = 0.5  # wall time between two probes of a running HostClock
REPS = 12        # iterations per burst


class SpeedProbe:
    def __init__(self):
        g = np.random.default_rng(0)
        self.x = g.standard_normal((24, 8, 12))
        self.k = g.standard_normal((24, 24, 3)) / 8
        self.adj = g.standard_normal((8, 12, 12)) / 4

    def _burst(self) -> float:
        x, k, adj = self.x, self.k, self.adj
        t0 = time.perf_counter()
        for _ in range(REPS):
            xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
            win = np.lib.stride_tricks.sliding_window_view(xp, 3, axis=1)
            y = np.einsum("oik,itnk->otn", k, win, optimize=True)
            y = np.einsum("ctm,tmn->ctn", y, adj, optimize=True)
            y = np.where(y > 0, y, 0.25 * y)
            gx = np.zeros_like(xp)
            for j in range(3):
                gx[:, j:j + 8, :] += np.einsum("otn,oi->itn", y, k[:, :, j],
                                               optimize=True)
            grads = {i: gx[i].copy() for i in range(24)}
            x = x + 1e-3 * grads[0].sum()
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Seconds for the fixed work: the fastest of BURSTS bursts."""
        return min(self._burst() for _ in range(BURSTS))


class HostClock:
    """Probes the host speed every INTERVAL_S of wall time while it runs
    (`with clock:`), from a SIGALRM handler. The handler runs between the
    bytecodes of whatever the process is doing, so probes fall evenly over a
    run, inside stgcvae's jobs too. `spent` is the probes' total time: an
    operation subtracts what was spent during it from its wall time."""

    def __init__(self):
        self._probe = SpeedProbe()
        self.probes: list[float] = []
        self.spent = 0.0

    def tick(self, *_) -> None:
        t0 = time.perf_counter()
        self.probes.append(self._probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Host slowness against the nominal speed: the median probe over
        NOMINAL_S."""
        return statistics.median(self.probes) / NOMINAL_S
