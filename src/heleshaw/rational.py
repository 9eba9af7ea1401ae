"""Rational-function arithmetic on complex coefficient arrays.

Coefficients are ascending (``c[j]`` multiplies ``z**j``).  Everything the
package evaluates (maps, their derivatives, reflections, moment integrands)
is a ratio of two such polynomials; this module evaluates them at points
(grids: :func:`heleshaw.maps.ring_values`), differentiates, reflects them in
the unit circle and takes exact residues by Laurent division.
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
    "taylor_shift",
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


def taylor_shift(p, z0, order=None) -> np.ndarray:
    """Taylor coefficients of the polynomial ``p`` around ``z0``.

    Computed by repeated synthetic division, which is the numerically stable
    way to read off ``p(z0), p'(z0)/1!, p''(z0)/2!, ...``.
    """
    p = np.asarray(p, dtype=complex)
    deg = len(p) - 1
    if order is None:
        order = deg
    order = min(order, deg)
    work = p.copy()
    out = np.zeros(order + 1, dtype=complex)
    for k in range(order + 1):
        work, rem = deflate(work, z0)
        out[k] = rem
        if len(work) == 1 and work[0] == 0:
            break
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

    def pole_order(self, z0, rel_tol: float) -> int:
        """Multiplicity of z0 as a root of the denominator, minus numerator
        cancellation, at most the degree of the denominator.  A deflation
        remainder within ``rel_tol`` of the coefficient scale counts as a
        root.  Returns 0 when the function is regular at z0."""
        max_order = len(self.den) - 1
        md = _root_multiplicity(self.den, z0, max_order, rel_tol)
        if md == 0:
            return 0
        mn = _root_multiplicity(self.num, z0, max_order, rel_tol)
        return max(md - mn, 0)

    def residue(self, z0, order: int | None = None) -> complex:
        """Residue at an isolated pole ``z0`` by exact Laurent division.

        ``order`` is the multiplicity of z0 in the denominator; it is
        estimated by synthetic-division deflation when not supplied.  A pole
        at the origin held as exact leading zeros of the denominator (the
        form :meth:`reflect` produces) is read from
        :meth:`principal_part_at_zero` instead.
        """
        if z0 == 0 and self.den[0] == 0:
            coeffs, s = self.principal_part_at_zero()
            return complex(coeffs[0]) if s else 0.0 + 0.0j
        if order is None:
            order = _root_multiplicity(self.den, z0, len(self.den) - 1, 1e-8)
        if order == 0:
            return 0.0 + 0.0j
        den = self.den
        scale = np.max(np.abs(den))
        for _ in range(order):
            den, rem = deflate(den, z0)
            if abs(rem) > 1e-6 * scale:
                raise ResidueError(
                    f"denominator not divisible by (z - {z0}) to order {order}"
                )
        dv = pval(den, z0)
        if abs(dv) == 0.0:
            raise ResidueError(f"pole order at {z0} exceeds requested order {order}")
        tn = taylor_shift(self.num, z0, order - 1)
        td = taylor_shift(den, z0, order - 1)
        t = series_div(tn, td, order - 1)
        return complex(t[order - 1])

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


def _root_multiplicity(p, z0, max_order, rel_tol) -> int:
    p = np.asarray(p, dtype=complex)
    scale = np.max(np.abs(p))
    if scale == 0:
        return 0
    m = 0
    work = p
    while m < max_order and len(work) >= 1:
        work2, rem = deflate(work, z0)
        if abs(rem) > rel_tol * scale:
            break
        m += 1
        work = work2
        if len(work) == 1 and work[0] == 0:
            break
    return m
