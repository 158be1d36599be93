"""Host-speed calibration: a fixed kernel timed between the invocations.

On a shared host, co-tenant load slows a whole run by up to 2x for minutes
at a time, through the hardware (sibling hyperthreads, memory bandwidth,
clock), not through the guest scheduler: CPU time slows as much as wall time.
Over a few seconds the load is about the same for the program and for this
kernel, so an invocation's time divided by the kernel's time just around it
keeps the program's speed and loses most of the host's.

The kernel does the kinds of work the package does (Gaussian-rational
polynomial products in dicts, Fraction arithmetic, large-integer products,
small numpy eigenvalue and root calls, plain interpreter loops) in about equal
parts, but imports nothing from the package, so no change to the program
moves it.
REFERENCE_S is its time on a quiet host; a time divided by the slowdown
``kernel time / REFERENCE_S`` is in seconds at that host's speed.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# Kernel seconds on an idle 2-vCPU Intel Xeon at 2.1 GHz
# (Python 3.11, numpy 2.4, OpenBLAS pinned to one thread).
REFERENCE_S = 0.030

_P = {(i, j): (Fraction(i + 1, j + 2), Fraction(j - i, 3)) for i in range(5) for j in range(5)}
_Q = {(i, j): (Fraction(j - 3, i + 5), Fraction(1, i + j + 1)) for i in range(5) for j in range(5)}
_MATRICES = np.random.default_rng(0).standard_normal((150, 4, 4))


def _poly() -> int:
    out: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for (a, b), (x, y) in _P.items():
        for (c, d), (u, v) in _Q.items():
            key = (a + c, b + d)
            re, im = x * u - y * v, x * v + y * u
            old = out.get(key)
            out[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
    return len(out)


def _fractions() -> Fraction:
    last = Fraction(0)
    for k in range(1, 1200):
        last = Fraction(k, k * k + 1) + Fraction(k + 1, 3 * k + 2) * Fraction(1, k + 5)
    return last


_A, _B, _C = 3**400 + 1, 7**350 + 3, 5**300 + 7


def _integers() -> int:
    n = 0
    for k in range(1, 2400):
        n ^= (_A * _B + k) // (_C + k)
    return n % 97


def _interpreter() -> int:
    seen: dict[int, int] = {}
    s = 0
    for i in range(45000):
        s = (s + i * 7) % 1000003
        seen[i & 255] = s
    return len(seen)


def _numeric() -> float:
    total = 0.0
    for a in _MATRICES:
        total += float(np.linalg.eigvals(a).real.sum())
        total += float(np.roots(a[0]).real.sum())
    return total


PARTS = (_poly, _fractions, _integers, _interpreter, _numeric)


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for part in PARTS:
            part()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
