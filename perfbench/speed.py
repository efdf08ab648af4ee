"""A fixed amount of pure-Python work whose time tracks how fast this
machine runs Python at the moment.

On a shared host the speed of identical work drifts by up to 2x within
minutes.  Timing this reference in the same process right next to an
operation, and scaling the operation's time by REFERENCE_NOMINAL_S / the
reference's time, cancels that drift.  The module imports nothing but
``time`` so that loading it in a child process costs next to nothing.
"""

import time

# The reference's typical time on the 2.0 GHz Xeon VM the benchmark was
# written on.  It only sets the scale of the reported times.
REFERENCE_NOMINAL_S = 0.025


def reference_work_s() -> float:
    """Wall seconds of integer arithmetic, tuple-keyed dict updates and a
    sort; nothing here touches the package under test."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    counts: dict = {}
    for i in range(20_000):
        key = (i % 100, i // 100, i % 97)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, *reference_s: float) -> float:
    """``seconds`` scaled to the speed at which the reference takes
    REFERENCE_NOMINAL_S, using the mean of the reference times measured
    next to it."""
    return seconds * REFERENCE_NOMINAL_S * len(reference_s) / sum(reference_s)
