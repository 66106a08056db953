"""Machine-speed calibration for the end-to-end times.

A shared virtual host can change speed by tens of percent within seconds,
and CPU time slows down with wall time, so no clock inside the guest removes
it.  A fixed kernel of small-array numpy calls from Python, the same mix of
interpreter and numpy overhead as the audit, is therefore timed just before
and just after each op.  ``scaled`` rescales an op's wall time by the mean
of the two kernel times to what it would read at the reference speed
``REFERENCE_S``, which takes out the host's drift and leaves the program's
own speed.  Over ten runs per workload on a 2-vCPU host, the quartile
spread of the per-run median op time was 0.09-0.12 of the median raw and
0.03-0.07 scaled.  Raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import time

# Kernel time at the reference speed: the median measured on a 2-vCPU
# 2.1 GHz x86-64 host with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.02
_ITERATIONS = 750


def kernel_s() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    import numpy as np

    a = np.eye(2, dtype=complex)
    np.vdot(np.kron(a, a)[0], a.ravel())  # the first call of a process warms up
    acc = 0.0
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        b = np.kron(a, a)
        acc += float(np.vdot(b[i % 4], b[i % 4]).real)
    elapsed = time.perf_counter() - start
    if acc != _ITERATIONS:
        raise RuntimeError("calibration kernel computed a wrong result")
    return elapsed


def scaled(wall_s: float, kernel: float) -> float:
    """``wall_s`` rescaled to the reference speed, given the kernel time around it."""
    return wall_s * REFERENCE_S / kernel
