"""Host-speed reference: a fixed kernel timed between the measured steps.

The benchmark runs on shared virtual machines whose speed drifts by a
third within minutes, and identical repetitions of a workload drift with
it.  So every repetition is bracketed by this kernel, and times are
reported at the reference host's speed: multiplied by ``REFERENCE_S``
over a kernel time.  A serial repetition takes the mean of the two
kernel times around it (``scaled``); set-up time takes the run's median
(``speed``).  Repetitions on two threads stay as read, because this
one-thread kernel does not follow them.

The kernel uses nothing from ``qpe_bounds``, so a change to the program
cannot move it.  It mixes the program's kinds of work: complex
exponentials, cumulative products and a complex matrix product on arrays
of a few thousand points, and interpreter-bound loops.  Changing it, or
``REFERENCE_S``, changes every reported time, so both stay fixed.
"""

import statistics
import time

import numpy as np

# median sample_s() on the reference host (2-vCPU x86_64 VM, Python 3.11.7,
# numpy 2.4.6, OpenBLAS at one thread)
REFERENCE_S = 0.092

_N = 5000
_T = np.arange(_N, dtype=float)
_Z = np.exp(2j * np.pi * np.random.default_rng(0).random((_N, 16)))


def kernel_s():
    """Wall seconds of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(16):
        s = np.exp(-1e-3j * (i + 1) * _T)
        powers = np.cumprod(np.broadcast_to(s, (64, _N)), axis=0)
        acc += float(np.abs(powers @ _Z).argmax())
        for j in range(20000):
            acc += (j * 0.5) % 3.0
    return time.perf_counter() - t0


def sample_s(budget_s=0.0):
    """Median of kernel passes run back to back: at least three, and more
    until they fill ``budget_s``.  One pass reads the host over a tenth of
    a second, and such reads scatter by a fifth; the median of a few
    follows the host instead."""
    times = [kernel_s() for _ in range(3)]
    while sum(times) < budget_s:
        times.append(kernel_s())
    return statistics.median(times)


def speed(kernels):
    """The host's speed over a run, relative to the reference host."""
    return REFERENCE_S / statistics.median(kernels)


def scaled(times, kernels):
    """``times[k]`` at reference speed; ``kernels[k]`` and ``kernels[k + 1]``
    are the kernel times (``sample_s``) measured just before and just after it."""
    if len(kernels) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} kernel times, "
                         f"got {len(kernels)}")
    return [t * 2.0 * REFERENCE_S / (a + b) for t, a, b in zip(times, kernels, kernels[1:])]
