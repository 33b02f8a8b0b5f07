"""Fixed reference kernels that track the speed of the machine.

On a shared host the same code runs up to a third slower or faster from
one minute to the next, and wall and CPU time move together, so the
slowdown is in the core itself and not in scheduling. The worker runs a
short kernel before every operation and once more at the end of each
round, and reports each operation's time as a multiple of the mean of
the kernel times just before and just after it, next to the raw
seconds. The host's speed also changes within a round, so the kernels
next to an operation track it better than a round's mean kernel time.

Each workload gets the kernel whose speed tracked its own best in
ten-seed runs: a Python-level loop of small-array stencil updates for
propagate and variational, and for fluctuate that loop followed by a
whole-array transcendental pass over a large grid (either part alone
left fluctuate's ratio spreading more than 0.1 across seeds). The
kernels use numpy only, never varq, so no change to the package can
move them.
"""

from __future__ import annotations

import time

import numpy as np


def _small_stencil():
    a = np.linspace(0.0, 1.0, 512)
    for _ in range(300):
        a = a + 1e-4 * (np.roll(a, 1) - 2.0 * a + np.roll(a, -1))


def _small_then_large():
    _small_stencil()
    b = np.linspace(-4.0, 4.0, 1 << 19)
    for _ in range(2):
        b = np.exp(-0.5 * b * b) - 0.25 * b


KERNELS = {
    "propagate": _small_stencil,
    "variational": _small_stencil,
    "fluctuate": _small_then_large,
}


def seconds(workload: str) -> float:
    """Wall time of one run of the workload's kernel (10-20 ms)."""
    kernel = KERNELS[workload]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
