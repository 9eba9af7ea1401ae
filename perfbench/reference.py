"""Fixed reference kernels: the yardstick for op times on a host whose speed drifts.

On a shared virtual machine the same op on the same input can read 1.6x
apart from one minute to the next, while the program's cost stays put.
Timing a kernel a few times right before and right after each op measures
how fast the host runs at that moment.  An op time divided by the median of
those times is a time in reference units, from which the host's speed
changes cancel out.

The host's slow and fast states do not slow every kind of work alike: an
interpreted loop and a large LAPACK call move by different shares.  So each
workload has its own kernel, made of the same kinds of work as its hot
layers at the commit that defined the benchmark:

- ``evolve-poly``: an interpreted double loop filling a complex matrix, like
  ``bracket.bracket_matrix``, then a small SVD and solve, like
  ``bracket.solve_string_system``;
- ``evolve-series``: roots of a degree-160 polynomial by companion-matrix
  eigenvalues, like ``maps.polynomial_roots`` at degree 255, and Horner's
  rule on a 4096-point circle, like ``rational.pval`` in ``poisson_schwarz``;
- ``verify-sweep``: repeated ``np.convolve`` and an interpreted dot product,
  like ``moments.richardson_moment``, and Horner's rule on a 2-D disk grid.

The inputs are fixed, so a kernel never changes between runs or commits;
none touches ``heleshaw``.  On a 2-vCPU Xeon KVM guest they take 7 to 15 ms
(``evolve-poly``), 30 to 45 ms (``evolve-series``) and 8 to 12 ms
(``verify-sweep``), depending on the host's state.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20180308)
_B = [complex(x, y) for x, y in _RNG.standard_normal((40, 2))]
_A = _RNG.standard_normal((33, 33)) + 1j * _RNG.standard_normal((33, 33))
_RHS = _RNG.standard_normal(33) + 0j
_SERIES = (_RNG.standard_normal(161) + 1j * _RNG.standard_normal(161)) / np.arange(1, 162)
_CIRCLE = np.exp(2j * np.pi * np.arange(4096) / 4096)
_COEFFS = (_RNG.standard_normal(17) + 1j * _RNG.standard_normal(17)) / np.arange(1, 18)
_X = np.linspace(-0.9, 0.9, 160)
_DISK = (_X[:, None] + 1j * _X[None, :])


def _horner(p, z):
    out = np.full(z.shape, p[-1], dtype=complex)
    for c in p[-2::-1]:
        out = out * z + c
    return out


def bracket_kernel() -> complex:
    n = 16
    acc = 0j
    for _ in range(20):
        U = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
        for i in range(-n, n + 1):
            for j in range(-n, n + 1):
                if (i >= 0 and (j <= -i or j >= 0)) or (i < 0 and (j <= 0 or j >= -i)):
                    k = -(i + j)
                    U[n + i, n + j] = _B[k] if k >= 0 else np.conj(_B[-k])
        acc += np.linalg.svd(U + _A, compute_uv=False)[0]
        acc += np.linalg.solve(U + _A, _RHS)[0]
    return acc


def series_kernel() -> complex:
    roots = np.roots(_SERIES[::-1])
    return roots.sum() + _horner(_SERIES, 0.9 * _CIRCLE).sum()


def moments_kernel() -> complex:
    a = _COEFFS
    abar = np.conj(a)
    b = a * np.arange(1, len(a) + 1)
    acc = 0j
    for _ in range(12):
        pk = np.array([1.0 + 0.0j])
        for _ in range(24):
            pk = np.convolve(pk, a)
            prod = np.convolve(pk, b)
            for j in range(len(abar)):
                if j < len(prod):
                    acc += prod[j] * abar[j]
    return acc + _horner(a, _DISK).sum()


KERNELS = {
    "evolve-poly": bracket_kernel,
    "evolve-series": series_kernel,
    "verify-sweep": moments_kernel,
}


def seconds(kernel) -> float:
    """Wall time of one run of ``kernel``."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
