"""Reference seconds: wall time corrected for the speed the shared host gives us.

On a shared 2-vCPU host the same code runs up to 1.6x slower for seconds to
minutes at a time, and the slowdown hits every instruction stream alike.
So each timed item is bracketed by a fixed calibration kernel (the median of
three ~0.6 ms runs), and its wall time is rescaled by REFERENCE_S / (kernel
time around it):

    reference seconds = wall seconds * REFERENCE_S / calibration seconds

This is the item's wall time on the host at its uncontended speed.  The
kernel mixes what polsim's hot paths do (2x2 complex numpy products, math
calls, string formatting, small sorts) but touches no polsim code, so a
change to polsim cannot move it.  A tighter pure-float loop was tried first:
its speed moved up to 7% from process to process with memory layout alone.
REFERENCE_S is the kernel's fastest time on the host the baseline was taken
on (Intel Xeon, 2 vCPU under KVM, Python 3.11.7, numpy 2.4.6).
"""

import math
import time

KERNEL_ROUNDS = 60
REFERENCE_S = 3.2e-4


def _kernel():
    import numpy as np  # here, so that importing this module imports no numpy

    m0 = np.array([[1.0, 0.5j], [0.25, 1.0]])
    m = m0
    acc = 0.0
    for i in range(KERNEL_ROUNDS):
        m = m0 @ m
        m = m / abs(m[0, 0])
        acc += math.cos(i * 0.1) * math.sin(i * 0.2)
        acc += len(f"{acc:.6f},{i}") * 1e-6
        acc += sorted([(i * 7919) % 97, (i * 104729) % 89, i % 13])[1]
    return acc


def calibration_s():
    """Wall seconds of the calibration kernel now: the median of three runs,
    so that one preempted run does not skew it."""
    runs = []
    for _ in range(3):
        t = time.monotonic()
        _kernel()
        runs.append(time.monotonic() - t)
    return sorted(runs)[1]


def to_reference(wall_s, calibration):
    return wall_s * REFERENCE_S / calibration
