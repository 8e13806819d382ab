"""The guest's speed, from a fixed piece of pure-Python work.

The speed of a shared guest drifts by a fifth or more over seconds to
minutes, and CPU time drifts with wall time, so neither is a steady clock
for the program.  Timing :func:`reference` just before and just after each
job gives the speed during that job; :func:`at_nominal` scales the job's
wall time to what it would have taken at the speed the guest had when the
benchmark was written (``NOMINAL_S``).  The program's own speed changes
still show in full: the reference work does not involve it.

The reference is exact rational arithmetic, the kind of work the program
does, which tracked the program's drift better than a dict-and-int loop.
Importing this module loads nothing; ``fractions`` is loaded by the first
sample, so a fresh interpreter samples only after it has imported the
program (which loads ``fractions`` itself).
"""

from time import perf_counter

#: about the median of :func:`sample` on the guest the benchmark was written
#: on (2-vCPU Intel Xeon, Python 3.11.7)
NOMINAL_S = 0.0016


def reference():
    """The harmonic sum 1 + 1/2 + ... + 1/399 in ``Fraction``s."""
    from fractions import Fraction
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


def sample() -> float:
    """Seconds taken by :func:`reference`, the median of five runs, so that
    the guest's scheduler preempting one or two of them does not count."""
    times = []
    for _ in range(5):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return sorted(times)[2]


def at_nominal(seconds: float, *samples: float) -> float:
    """``seconds`` of wall time, taken next to the given :func:`sample`
    times, scaled to the nominal speed."""
    return seconds * NOMINAL_S * len(samples) / sum(samples)
