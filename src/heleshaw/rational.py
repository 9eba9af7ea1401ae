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
    """First ``order + 1`` Taylor coefficients of num/den; requires den[0] != 0.

    On Python complex scalars, dividing by den[0] as numpy does (Smith's
    method with a reciprocal): numpy's arithmetic bit for bit where den has
    one or two coefficients, and within rounding of a dot per step beyond."""
    d0, *den = np.asarray(den, dtype=complex).tolist()
    if d0 == 0:
        raise ZeroDivisionError("series_div requires den(0) != 0")
    if abs(d0.real) >= abs(d0.imag):
        rat = d0.imag / d0.real
        turn, scale = complex(1.0, -rat), 1.0 / (d0.real + d0.imag * rat)
    else:
        rat = d0.real / d0.imag
        turn, scale = complex(rat, -1.0), 1.0 / (d0.imag + d0.real * rat)
    t = []
    for acc in (np.asarray(num, dtype=complex).tolist() + [0j] * (order + 1))[: order + 1]:
        for dk, tk in zip(den, reversed(t)):
            acc -= dk * tk
        q = acc * turn
        t.append(complex(q.real * scale, q.imag * scale))
    return np.array(t, dtype=complex)


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

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(pmul(self.num, other.num), pmul(self.den, other.den))

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
        Elsewhere z0 must be a simple root of the denominator and the
        residue is num(z0) / den'(z0), each by :func:`pval`.  Raises
        :class:`ResidueError` when |den(z0)| > 1e-6 max|den coefficient| (no
        root) or den'(z0) = 0 (a multiple one).
        """
        if z0 == 0:
            coeffs, s = self.principal_part_at_zero()
            return complex(coeffs[0]) if s else 0.0 + 0.0j
        if abs(pval(self.den, z0)) > 1e-6 * np.max(np.abs(self.den)):
            raise ResidueError(f"denominator does not vanish at {z0}")
        dv = pval(pder(self.den), z0)
        if dv == 0:
            raise ResidueError(f"not a simple pole at {z0}")
        # numpy's complex division: the moments are pinned to its rounding
        return complex(np.complex128(pval(self.num, z0)) / dv)

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

