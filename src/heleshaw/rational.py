"""Rational-function arithmetic on complex coefficient arrays.

Coefficients are ascending (``c[j]`` multiplies ``z**j``).  Everything the
package evaluates (maps, their derivatives, reflections, moment integrands)
is a ratio of two such polynomials; this module evaluates them at points
(grids: :func:`heleshaw.maps.ring_values`), differentiates, reflects them in
the unit circle and takes residues at the origin and at simple poles, the
only poles the package's maps give rise to.
"""

from __future__ import annotations

import numpy as np

from .errors import PoleProximityError, ResidueError

__all__ = [
    "trim",
    "psub",
    "pmul",
    "pder",
    "pval",
    "series_div",
    "deflate",
    "RationalFunction",
]


def trim(c) -> np.ndarray:
    """Drop trailing coefficients that are exactly zero (keeps at least one)."""
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


def psub(p, q) -> np.ndarray:
    out = np.zeros(max(len(p), len(q)), dtype=complex)
    out[: len(p)] = p
    out[: len(q)] -= np.asarray(q, dtype=complex)
    return out


def pmul(p, q) -> np.ndarray:
    return np.convolve(np.asarray(p, dtype=complex), np.asarray(q, dtype=complex))


def pder(p) -> np.ndarray:
    """Coefficients of the derivative."""
    p = np.asarray(p, dtype=complex)
    if len(p) <= 1:
        return np.zeros(1, dtype=complex)
    return p[1:] * np.arange(1, len(p))


def pval(p, z):
    """Evaluate by Horner; ``z`` may be scalar or array."""
    p = np.asarray(p, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:  # Python complex arithmetic: the same Horner, far faster
        zs = complex(z)
        acc = complex(p[-1])
        for c in p[-2::-1].tolist():
            acc = acc * zs + c
        return acc
    out = np.full(z.shape, p[-1], dtype=complex)
    for c in p[-2::-1]:
        out = out * z + c
    return out


def series_div(num, den, order) -> np.ndarray:
    """First ``order + 1`` Taylor coefficients of num/den; requires den[0] != 0."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    if den[0] == 0:
        raise ZeroDivisionError("series_div requires den(0) != 0")
    t = np.zeros(order + 1, dtype=complex)
    for i in range(order + 1):
        acc = num[i] if i < len(num) else 0.0
        top = min(i, len(den) - 1)
        if top >= 1:
            acc -= np.dot(den[1 : top + 1], t[i - top : i][::-1])
        t[i] = acc / den[0]
    return t


def deflate(p, z0):
    """Synthetic division of ``p`` by (z - z0): returns (quotient, remainder)."""
    p = np.asarray(p, dtype=complex)
    if len(p) == 1:
        return np.zeros(1, dtype=complex), complex(p[0])
    q = np.zeros(len(p) - 1, dtype=complex)
    acc = p[-1]
    for j in range(len(p) - 2, -1, -1):
        q[j] = acc
        acc = p[j] + acc * z0
    return q, complex(acc)


class RationalFunction:
    """A ratio ``num(z) / den(z)`` of complex polynomials.

    Immutable by convention; arithmetic returns new instances.  No implicit
    gcd cancellation is attempted (floating point makes that fragile); the
    residue and Laurent routines cope with common factors instead.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1.0,)):
        self.num = trim(num)
        self.den = trim(den)
        if len(self.den) == 1 and self.den[0] == 0:
            raise ZeroDivisionError("zero denominator")

    def __repr__(self):
        return f"RationalFunction(num={self.num.tolist()}, den={self.den.tolist()})"

    # -- evaluation ----------------------------------------------------

    def __call__(self, z):
        dv = pval(self.den, z)
        if np.any(dv == 0):
            raise PoleProximityError("evaluation exactly on a pole")
        return pval(self.num, z) / dv

    # -- algebra -------------------------------------------------------

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    @staticmethod
    def _coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if np.isscalar(x):
            return RationalFunction([complex(x)])
        return RationalFunction(x)

    def derivative(self) -> "RationalFunction":
        """(num' den - num den') / den**2."""
        if len(self.den) == 1:
            return RationalFunction(pder(self.num) / self.den[0])
        num = psub(pmul(pder(self.num), self.den), pmul(self.num, pder(self.den)))
        return RationalFunction(num, pmul(self.den, self.den))

    # -- reflection in the unit circle ----------------------------------

    def reflect(self) -> "RationalFunction":
        """The involution R*(z) = conj(R(1 / conj(z))).

        With P of degree dp and Q of degree dq this is
        z**(dq - dp) * rev(conj(P)) / rev(conj(Q)), where rev reverses the
        coefficient order.
        """
        rp = np.conj(self.num)[::-1]
        rq = np.conj(self.den)[::-1]
        shift = (len(self.den) - 1) - (len(self.num) - 1)
        if shift >= 0:
            num = np.concatenate([np.zeros(shift, dtype=complex), rp])
            den = rq
        else:
            num = rp
            den = np.concatenate([np.zeros(-shift, dtype=complex), rq])
        return RationalFunction(num, den)

    # -- Laurent data ----------------------------------------------------

    def residue(self, z0) -> complex:
        """Residue at the origin or at a simple pole ``z0``.

        At the origin the pole is held as exact leading zeros of the
        denominator (the form :meth:`reflect` produces) and the residue is
        read from :meth:`principal_part_at_zero` (0 without such zeros).
        Elsewhere z0 must be a simple root of the denominator: (z - z0) is
        deflated from it once and the residue is num(z0) / (den / (z - z0))(z0).
        Raises :class:`ResidueError` when z0 is no root or a multiple one.
        """
        if z0 == 0:
            coeffs, s = self.principal_part_at_zero()
            return complex(coeffs[0]) if s else 0.0 + 0.0j
        den, rem = deflate(self.den, z0)
        if abs(rem) > 1e-6 * np.max(np.abs(self.den)):
            raise ResidueError(f"denominator does not vanish at {z0}")
        dv = deflate(den, z0)[1]
        if dv == 0:
            raise ResidueError(f"not a simple pole at {z0}")
        # numpy's complex division: the moments are pinned to its rounding
        return complex(np.complex128(deflate(self.num, z0)[1]) / dv)

    def principal_part_at_zero(self):
        """Laurent coefficients of the pole at the origin.

        Returns ``(coeffs, s)`` where the principal part is
        ``sum_{k=0}^{s-1} coeffs[k] * z**(-(k+1))``.  Relies on the origin
        pole being represented by exact leading zeros of the denominator (as
        produced by :meth:`reflect`).
        """
        den = self.den
        s = 0
        while s < len(den) and den[s] == 0:
            s += 1
        num = self.num
        r = 0
        while r < len(num) and num[r] == 0:
            r += 1
        s_eff = s - min(r, s)
        if s_eff == 0:
            return np.zeros(0, dtype=complex), 0
        num = num[min(r, s):]
        dred = den[s:]
        t = series_div(num, dred, s_eff - 1)
        # coeffs[k] multiplies z**(-(k+1)), which is t[s_eff - 1 - k]
        coeffs = np.array([t[s_eff - 1 - k] for k in range(s_eff)], dtype=complex)
        return coeffs, s_eff

    def taylor(self, order: int) -> np.ndarray:
        """Taylor coefficients at the origin (requires den(0) != 0)."""
        return series_div(self.num, self.den, order)

