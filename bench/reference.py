"""Times at a reference machine speed.

The speed of a shared VM drifts.  On the 2-vCPU VM this benchmark was
written on, the same ``growth`` pass took 2.97 s and then 1.93 s six minutes
later, and ten runs of one workload spread by up to 26%.  CPU time tracked
wall time within 2%, so the machine itself ran slower or faster.

``reference_work`` is a fixed pure-Python loop that uses nothing from
skewmon.  The workers time it just before and just after each measurement,
and ``at_reference_speed`` scales the measurement by ``REFERENCE_S`` over the
mean of those reference times.  The machine switched between a fast state
(reference loop about 0.05 s) and a slow one (about 0.08 s) that lasted
seconds, so the scaling has to use the samples next to each pass: over six
runs of ``growth``, the median pass spread by 24.5% raw, by 18% when scaled
by the run's median reference time, and by 8.9% when each pass was scaled by
its neighbours.  A change to skewmon moves the pass times but not the
reference loop, so it shows fully in the scaled times.
"""

import gc
import statistics
import time
from fractions import Fraction

#: Seconds ``reference_work`` takes on the VM the benchmark was written on,
#: in its fast state.  Scaled times are the times at that machine speed.
REFERENCE_S = 0.05


def reference_work():
    """Products of sparse Fraction-coefficient dicts keyed by exponent
    tuples, the shape of skewmon's inner loops."""
    terms = {(i, j): Fraction(i - j + 1, i + j + 1) for i in range(8) for j in range(8)}
    out = {}
    for _ in range(3):
        for ea, ca in terms.items():
            for eb, cb in terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e)
                out[e] = ca * cb if s is None else s + ca * cb
    return out


def reference_seconds():
    """Time of one ``reference_work``, with the collector off so that the
    size of skewmon's heap cannot change it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(seconds, references):
    """``seconds`` scaled by the mean of the reference times around it."""
    return seconds * REFERENCE_S / statistics.fmean(references)
