"""Machine-speed reference: a fixed kernel timed next to every timed op.

On a shared two-vCPU KVM guest (Intel Xeon, 2.1 GHz), the speed of any
fixed code drifted by a third within seconds and between runs, and the
package's ops slowed in step with it.  The kernel below is timed before and
after each op; the op's wall time is multiplied by ``REFERENCE_MS`` over the
kernel's mean time, which removes that common factor.  The kernel mixes the
package's kinds of work (interpreter loops, small numpy column updates,
float formatting) and calls nothing in the package, so a change to the
package never changes the reference.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Nominal kernel time, a fixed constant: reported times are wall times on a
# machine where the kernel takes this long.
REFERENCE_MS = 10.0

_START = np.add.outer(np.arange(16.0), np.arange(16.0)) % 7.0


def reference_ms() -> float:
    """Wall time of one run of the fixed kernel, in milliseconds."""
    t0 = time.perf_counter()
    a = _START.copy()
    for p in range(15):
        for q in range(p + 1, 16):
            c, s = math.cos(p + q), math.sin(p + q)
            for _ in range(2):
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
    acc = 0
    for i in range(60000):
        acc += i % 7
    {(i, i % 5): f"{a.flat[i % a.size]:.12g}" for i in range(1000)}
    return (time.perf_counter() - t0) * 1e3
