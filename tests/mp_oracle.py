"""High-precision references for the tests, in mpmath.

Each reference repeats a float route of heleshaw in ``dps``-digit
arithmetic (40 by default), so a test measures that route's error instead of
comparing it with a second float computation that shares its rounding.
"""

import mpmath
import numpy as np


def richardson_moments(coeffs, K, dps=40):
    """M_0..M_K of the coefficient map f = sum_j coeffs[j] z**(j+1) by
    Richardson's sum M_k = sum_j coeff_j(f^k f') conj(coeffs[j]), as complex
    floats.  f^k is kept to z**n, n = len(coeffs) - 1, the highest power the
    sum reads."""
    with mpmath.workdps(dps):
        a = [mpmath.mpc(complex(c)) for c in coeffs]
        n = len(a) - 1
        f = [mpmath.mpc(0)] + a[:n]
        fp = [(j + 1) * a[j] for j in range(n + 1)]
        abar = [mpmath.conj(x) for x in a]
        power = [mpmath.mpc(1)] + [mpmath.mpc(0)] * n
        out = []
        for k in range(K + 1):
            if k:
                power = [mpmath.fdot(power[: j + 1], f[j::-1]) for j in range(n + 1)]
            g = [mpmath.fdot(power[: j + 1], fp[j::-1]) for j in range(n + 1)]
            out.append(complex(mpmath.fdot(g, abar)))
    return np.array(out)


def disk_gauss_legendre(nr, dps=40):
    """Radii r_i of nr-node Gauss-Legendre on [0, 1] and the weights w_i r_i
    of the area element (w_i the weights on [-1, 1]), as floats: Newton on
    the Legendre recurrence from numpy's nodes, in ``dps`` digits."""
    x0, _ = np.polynomial.legendre.leggauss(nr)
    radii, weights = [], []
    with mpmath.workdps(dps):
        for t in x0:
            x = mpmath.mpf(float(t))
            for _ in range(6):
                p0, p1 = mpmath.mpf(1), x
                for j in range(2, nr + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = nr * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
            r = (x + 1) / 2
            radii.append(float(r))
            weights.append(float(2 / ((1 - x * x) * dp * dp) * r))
    return np.array(radii), np.array(weights)
