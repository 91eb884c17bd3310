"""A fixed reference loop that measures how fast the host runs right now.

The host's speed drifts by up to a third within tens of seconds, and
drifts the same way for ebmix and for this loop.  Dividing a timing by
the loop's time taken at the same moment cancels most of the drift: over
100 s, the spread (sd/mean) of an EM step's time fell from 0.14 to 0.03,
and that of ``ebmix estimate`` on 100k cases from 0.16 to 0.07.
"""

import statistics
from time import perf_counter

import numpy as np
from scipy import special

_GRID = np.linspace(0.1, 5.0, 20_000)
_SMALL = np.linspace(1.0, 400.0, 500)


def reference(repeats=3):
    """Median seconds, over ``repeats`` runs, of numpy vector math plus an interpreter loop."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(20):
            np.log(np.exp(-_GRID) + 1.0).sum()
        x = 0
        for i in range(20_000):
            x += i * i
        times.append(perf_counter() - t0)
    return statistics.median(times)


def special_reference():
    """Seconds of scipy special functions on 500-element arrays, the work of a binomial M-step.

    The host slows this kind of work more than the loop above: over
    150 s, a binomial EM step over ``reference()`` drifted by 0.07 (sd
    over mean of 12-second stretches, one stretch 25% high), over this
    loop by 0.014.
    """
    t0 = perf_counter()
    for _ in range(20):
        special.psi(_SMALL + 3.0).sum()
        special.polygamma(1, _SMALL[::-1]).sum()
        special.betaln(_SMALL, _SMALL[::-1]).sum()
    return perf_counter() - t0
