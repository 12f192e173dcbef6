"""The machine's speed, measured with fixed reference kernels.

On a shared virtual machine the host may run this process at a rate that
changes for tens of seconds at a time, and every timing moves with it. The
benchmark therefore times a fixed reference kernel next to the program and
reports times scaled to a reference speed: a time t measured while a kernel
took r seconds is reported as t * kernel.nominal_s / r, the time the same
work would take on a machine that runs the kernel in its nominal time.

A slow phase does not slow all code alike: interpreted code with many small
sparse-matrix calls slows more than large factorizations. So each workload
is scaled by the kernel that does its kind of work (workloads.KERNEL):

  assembly  builds and factors the 3x3 block operator of an implicit step
            for small 1D grids with scipy.sparse, with NumPy elementwise
            work on vectors of the same size;
  factor    factors 2D five-point operators with SuperLU, with NumPy work on
            large arrays and an interpreted loop.

The kernels use the same libraries as pfcontrol, and none of its code: a
change to pfcontrol does not change their time.

`SpeedSampler` runs a kernel inside an operation, on a SIGALRM timer, so a
speed change in the middle of a long operation is seen where it happens;
`scaled_time()` scales each stretch of the operation by the speed measured
around it.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from typing import Callable, NamedTuple

# Wall time between two kernel runs inside an operation.
PERIOD_S = 0.15
# Samples on either side of a stretch whose mean kernel time scales it.
WINDOW = 6


@functools.cache
def _factor_operands():
    import numpy as np
    import scipy.sparse as sp

    n1, n2 = 2000, 40
    ones = np.ones(n1)
    lap1 = sp.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1], format="csc")
    d = sp.diags([-np.ones(n2 - 1), 2.0 * np.ones(n2), -np.ones(n2 - 1)], [-1, 0, 1])
    eye = sp.identity(n2)
    lap2 = (sp.kron(d, eye) + sp.kron(eye, d)).tocsc()
    x = np.random.default_rng(12345).uniform(-0.5, 0.5, 20000)
    return lap1, lap2, x


def factor_kernel() -> float:
    """Large factorizations and arrays; returns a checksum."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    lap1, lap2, x = _factor_operands()
    acc = 0.0
    for k in range(2):
        shift = 1.0 + 0.5 * k
        a1 = (lap1 + sp.identity(lap1.shape[0], format="csc") * shift).tocsc()
        y1 = splu(a1).solve(x[: lap1.shape[0]])
        a2 = (lap2 + sp.identity(lap2.shape[0], format="csc") * shift).tocsc()
        y2 = splu(a2).solve(x[: lap2.shape[0]])
        z = np.tanh(x) * (1.0 + x * x) - 0.5 * np.sqrt(1.0 + x * x)
        acc += float(y1 @ y1 + y2 @ y2 + z.sum())
    total = 0
    for i in range(6000):
        total += (i * i) % 7
    return acc + total


def assembly_kernel() -> float:
    """Small block operators, assembled and factored; returns a checksum."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    acc = 0.0
    for k in range(6):
        n = 32 + 16 * (k % 3)
        x = np.linspace(-0.9, 0.9, n) * (1.0 - 0.01 * k)
        one = np.ones(n)
        lap = sp.diags([one[1:], -2.0 * one, one[1:]], [-1, 0, 1], format="csr") * (n * n)
        eye = sp.identity(n, format="csr")
        slope = np.log((1.0 + x) / (1.0 - x)) + np.exp(-x * x)
        a = sp.bmat(
            [[eye - 0.01 * lap, eye, None], [None, eye, -0.01 * lap], [eye, lap - sp.diags(slope), eye]],
            format="csc",
        )
        rhs = np.concatenate([x, np.tanh(x), slope])
        z = splu(a).solve(rhs)
        acc += float(np.max(np.abs(z))) + float(z @ rhs)
    return acc


class Kernel(NamedTuple):
    run: Callable[[], float]
    # About the kernel's time at the fastest speed level of the 2-vCPU
    # machine of BASELINE.md.
    nominal_s: float


KERNELS = {
    "assembly": Kernel(assembly_kernel, 0.010),
    "factor": Kernel(factor_kernel, 0.012),
}


def time_kernel(kernel: Kernel) -> float:
    t0 = time.perf_counter()
    kernel.run()
    return time.perf_counter() - t0


def kernel_mean(kernel: Kernel, runs: int) -> float:
    return statistics.fmean(time_kernel(kernel) for _ in range(runs))


class SpeedSampler:
    """Times `kernel` every `period` seconds while active, and keeps (end,
    kernel seconds) of each run in `samples`. The SIGALRM handler runs in
    the main thread between bytecodes, so it never interleaves with a C call
    of the program."""

    def __init__(self, kernel: Kernel, period: float = PERIOD_S):
        self.kernel = kernel
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def sample(self, *_):
        t0 = time.perf_counter()
        self.kernel.run()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scaled_time(run, kernel: Kernel, period: float = PERIOD_S) -> tuple[float, float, list[float]]:
    """Runs `run()` with the sampler on, and the kernel once just before and
    once just after it. Returns the wall time of `run` without the kernel
    runs inside it, that time scaled to the reference speed, and the kernel
    times. The samples cut the operation into stretches; each stretch is
    scaled by the mean kernel time of the WINDOW samples on either side of
    it. The host slows the process in bursts shorter than a kernel period,
    which a kernel run catches in proportion to their share of the time, so
    the mean, not the median, follows the speed."""
    sampler = SpeedSampler(kernel, period)
    sampler.sample()
    start = time.perf_counter()
    with sampler:
        run()
    sampler.sample()
    refs = [ref for _, ref in sampler.samples]
    wall = scaled = 0.0
    for j, (at, ref) in enumerate(sampler.samples[1:], start=1):
        stretch = at - ref - start
        wall += stretch
        scaled += stretch * kernel.nominal_s / statistics.fmean(refs[max(0, j - WINDOW): j + WINDOW])
        start = at
    return wall, scaled, refs
