"""Reference kernel: a fixed piece of work that measures how fast the host runs right now.

On a shared host the same operation takes up to twice as long while
neighbours are busy, for seconds or minutes at a time, and CPU time slows as
much as wall time does. The benchmark therefore times this kernel next to
every operation and set-up and reports each time scaled to a host on which
the kernel takes `REF_MS`:

    scaled time = measured time * REF_MS / kernel time measured beside it

The kernel is the same kind of work as the engine (small numpy arrays,
float math, dict lookups, Python calls) and imports nothing from specrelax,
so a change to specrelax moves the measured time and never the kernel time.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

import numpy as np

# About the kernel's time on an unloaded Intel Xeon vCPU, so that scaled
# times read close to wall times there. It is a fixed scale, never measured.
REF_MS = 4.5
WARMUP_CALLS = 20

_ROUNDS = 300
_X0 = np.linspace(-1.0, 1.0, 32)
_W = np.cos(np.arange(8 * 32, dtype=float)).reshape(8, 32)


def kernel() -> float:
    """Samples 300 tokens from a fixed 8-way softmax chain with a cosine cache."""
    cache: dict[tuple[int, int], float] = {}
    state = 12345
    total = 0.0
    x = _X0.copy()
    for r in range(_ROUNDS):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        u = (state >> 11) / 9007199254740992.0
        logits = _W @ x
        p = np.exp(logits - logits.max())
        p /= p.sum()
        c = np.cumsum(p)
        k = int(np.searchsorted(c, u * c[-1]))
        key = (k, r & 15)
        if key not in cache:
            a, b = _W[k], _W[(k + 1) % 8]
            cache[key] = float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))
        total += cache[key] * p[k]
        x = x * 0.999 + 0.001 * _W[k]
    return total


EXPECTED = kernel()


def kernel_ns() -> int:
    """Wall time of one kernel call; raises if the kernel's result ever changes."""
    started = perf_counter_ns()
    value = kernel()
    elapsed = perf_counter_ns() - started
    if value != EXPECTED:
        raise RuntimeError(f"reference kernel returned {value!r}, expected {EXPECTED!r}")
    return elapsed


def warm_up() -> None:
    for _ in range(WARMUP_CALLS):
        kernel_ns()
