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


def _abc_weights(a, b, c):
    """The weights A at the origin and B at the node 1/conj(b) of the
    two-node identity of f = c z (z - a)/(z - b), and the node, in mp."""
    a, b, c = (mpmath.mpc(complex(x)) for x in (a, b, c))
    bb = mpmath.conj(b)
    c2 = abs(c) ** 2
    A = c2 * a / b
    B = c2 * (mpmath.conj(a) - bb) * (1 - 2 * abs(b) ** 2 + a * bb * abs(b) ** 2) / (
        bb * (1 - abs(b) ** 2) ** 2)
    return A, B, 1 / bb


def abc_moments(m, K, dps=40):
    """M_0..M_K of the map m = c z (z - a)/(z - b) from its closed forms,
    M_0 = A + B and M_k = B f(1/conj(b))^k, as complex floats."""
    with mpmath.workdps(dps):
        A, B, q = _abc_weights(m.a, m.b, m.c)
        a, b, c = (mpmath.mpc(complex(x)) for x in (m.a, m.b, m.c))
        fq = c * q * (q - a) / (q - b)
        return np.array([complex(A + B)] + [complex(B * fq**k) for k in range(1, K + 1)])


def abc_point_side(m, P, dps=40):
    """The identity's point side A delta_p0 + B conj(b)^-p for g = z^p,
    p = 0..P, of the map m = c z (z - a)/(z - b), as complex floats."""
    with mpmath.workdps(dps):
        A, B, q = _abc_weights(m.a, m.b, m.c)
        return np.array([complex(A + B)] + [complex(B * q**p) for p in range(1, P + 1)])
