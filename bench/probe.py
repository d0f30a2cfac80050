"""Machine-speed probe: a fixed slice of pure-Python work.

On a small shared host a core's speed drifts by 20-45 % within a minute,
and the drift moves this probe and the package's calls alike: the ratio of
a call's time to the probe's stays within a few percent while each alone
swings by tens of percent.  ``run.py`` runs the probe next to every timed
call and scales the call's time to a machine on which the probe takes
exactly ``REF_S``.
"""

import time
from fractions import Fraction

REF_S = 0.001


def speed_probe() -> float:
    """Seconds for the probe's work (~1 ms on a 2-vCPU Xeon VM, Python 3.11).

    Integer, dict and Fraction arithmetic, like the package's own code.
    """
    start = time.perf_counter()
    acc = {}
    total = Fraction(0)
    for i in range(1, 200):
        acc[i % 61] = acc.get(i % 61, 0) + i * i
        total += Fraction(i % 7 + 1, i)
    ",".join(str(v) for v in acc.values())
    return time.perf_counter() - start
