"""Host-speed calibration for timing on a shared machine.

Neighbouring load on a shared host slows this process by up to half, in
stretches that last tens of seconds, so raw wall times of identical work
differ between runs by more than any change worth measuring.  Before each
timed unit the benchmark runs three fixed kernels that use the processor
the way chanrate does: small-array ufunc calls (the confidence-bound
solver), Python bytecode (the per-slot bookkeeping) and a 4 MiB streaming
pass (outcome tapes and emission).  ``slowdown`` is the geometric mean of
their times over the reference times below; dividing a wall time by it
gives the time on the reference host.  The kernels do not touch chanrate,
so the factor does not depend on the commit being measured.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel times on the two-core x86-64 host (Python 3.11, numpy 2.4) the
# benchmark was defined on.  They only fix the scale of normalised times;
# change them and every recorded baseline must be measured again.
REFERENCE_S = {"ufunc": 0.030, "bytecode": 0.060, "stream": 0.0225}

_X = np.linspace(0.01, 0.99, 40)
_STREAM = np.ones(1 << 19)


def _ufunc() -> None:
    out = np.empty_like(_X)
    feas = np.empty(_X.shape, dtype=bool)
    for _ in range(6000):
        np.exp(_X, out=out)
        np.multiply(_X, out, out=out)
        np.add(out, 1.0, out=out)
        np.less_equal(out, 1.5, out=feas)
        np.copyto(out, _X, where=feas)


def _bytecode() -> None:
    total = 0
    table = {}
    for i in range(375_000):
        total += i * 3 % 7
        table[i & 255] = total


def _stream() -> None:
    for _ in range(30):
        np.multiply(_STREAM, 1.5, out=_STREAM)
        np.multiply(_STREAM, 1.0 / 1.5, out=_STREAM)
        _STREAM.sum()


KERNELS = {"ufunc": _ufunc, "bytecode": _bytecode, "stream": _stream}


def kernel_times() -> dict[str, float]:
    times = {}
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        times[name] = time.perf_counter() - t0
    return times


def slowdown() -> float:
    """How many times slower than the reference host this host runs now."""
    times = kernel_times()
    return math.exp(
        sum(math.log(times[k] / REFERENCE_S[k]) for k in KERNELS) / len(KERNELS)
    )
