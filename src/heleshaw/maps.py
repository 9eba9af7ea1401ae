"""Disk maps and complex-function calculus.

The map classes all represent analytic functions on a neighborhood of the
closed unit disk, normalized by f(0) = 0 and f'(0) > 0:

* :class:`PolynomialMap`      f = sum_j a_j z**(j+1)
* :class:`RationalMap`        f = (sum_j a_j z**(j+1)) / prod_j (1 - wbar_j z)
* :class:`AbcRationalMap`     f = c z (z - a) / (z - b),  0 < |a| < 1 < |b|
* :class:`TaylorMap`          truncated power series (evolution work state)

Every class keeps a0 real and positive (:func:`_normalized`); the cone of
:class:`PolynomialMap` (:func:`_polynomial_cone`) is also what each
polynomial RK4 stage checks on its bare coefficient array.

Every class exposes its exact rational representation, so differentiation,
holomorphic reflection f*(z) = conj(f(1/conj z)) and residues all route
through :mod:`heleshaw.rational`.  Points are evaluated by Horner's rule
(:func:`~heleshaw.rational.pval`), grids by FFT (:func:`ring_values`).

All operations are pure functions on immutable values; nothing here mutates
shared state, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT
from .errors import (
    BranchPointError,
    PoleProximityError,
    RootFindingError,
    UnderResolvedError,
)
from .rational import RationalFunction, pder, pmul, pval, trim

__all__ = [
    "CircleGrid",
    "AnalyticMap",
    "PolynomialMap",
    "RationalMap",
    "AbcRationalMap",
    "TaylorMap",
    "polynomial_roots",
    "winding_number",
]


# ----------------------------------------------------------------------
# circle grids
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid of N points exp(2*pi*i*k/N) on the unit circle.

    N must be a power of two (>= 4) so FFT projections are cheap.  Evaluating
    a polynomial on the grid (:func:`circle_values`) is exact for any degree,
    but N must still resolve what is computed from the samples: the spectrum
    of 1/|f'|**2 for the Poisson-Schwarz extension, and the derivative of a
    sampled curve for winding numbers.  Keep N at least 4x the polynomial
    degree of anything sampled on it; the winding-number residual is the
    runtime check for that.
    """

    size: int = 1024

    def __post_init__(self):
        n = self.size
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 4, got {n}")

    @cached_property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.exp(1j * self.theta)


def circle_values(coeffs, grid: CircleGrid) -> np.ndarray:
    """Values of sum_j coeffs[j] z**j at the grid nodes, by one inverse FFT.

    z_k**j depends on j only mod N, so the coefficients are folded mod N
    first; the values are exact (to rounding) for any degree.  A 2-D
    ``coeffs`` holds one polynomial per row and gives one row of values each.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = grid.size
    folded = np.zeros(c.shape[:-1] + (n,), dtype=complex)
    for start in range(0, c.shape[-1], n):
        chunk = c[..., start : start + n]
        folded[..., : chunk.shape[-1]] += chunk
    return n * np.fft.ifft(folded)


def ring_values(r: RationalFunction, radii, grid: CircleGrid) -> np.ndarray:
    """``r`` at radius * z_k for the grid nodes z_k: one row per radius, or
    one circle for a scalar radius.  :func:`circle_values` of the r**j-scaled
    numerator over that of the denominator, or of the numerator over a
    constant one.  Raises :class:`PoleProximityError` where a node is exactly a pole."""
    radii = np.asarray(radii, dtype=float)

    def values(c):
        return circle_values(c * radii[..., None] ** np.arange(len(c)), grid)

    if len(r.den) == 1:
        return values(r.num / r.den[0])
    dv = values(r.den)
    if np.any(dv == 0):
        raise PoleProximityError("evaluation exactly on a pole")
    return values(r.num) / dv


# ----------------------------------------------------------------------
# map classes
# ----------------------------------------------------------------------

def _normalized(coeffs) -> np.ndarray:
    """A fresh complex array of ``coeffs``; ValueError unless a0 is real to
    1e-12 max(|a0|, 1), when it is made exactly real, and positive."""
    a = np.array(coeffs, dtype=complex)
    if not a.size:
        raise ValueError("need at least one coefficient")
    a0 = complex(a[0])
    if abs(a0.imag) > 1e-12 * max(abs(a0), 1.0):
        raise ValueError(f"a0 must be real, got {a0}")
    if a0.real <= 0:
        raise ValueError(f"a0 must be positive, got {a0}")
    a[0] = a0.real
    return a


def _polynomial_cone(coeffs) -> np.ndarray:
    """:func:`_normalized` and a_n != 0 for n > 0: the admissible cone of
    :class:`PolynomialMap` and of the polynomial RK4 stages."""
    a = _normalized(coeffs)
    if len(a) > 1 and a[-1] == 0:
        raise ValueError("leading coefficient a_n must be nonzero for n > 0")
    return a


class AnalyticMap:
    """Base class; concrete maps provide their rational representation."""

    def rational(self) -> RationalFunction:
        raise NotImplementedError

    def finite_poles(self) -> np.ndarray:
        """Poles of the map in the finite plane (all outside the closed disk)."""
        return np.zeros(0, dtype=complex)

    def __call__(self, z):
        """Evaluate the map; rejects points within tolerance of a pole."""
        z = np.asarray(z, dtype=complex)
        poles = self.finite_poles()
        if poles.size:
            d = np.min(np.abs(z[..., None] - poles[None, :]))
            if d < DEFAULT.pole_proximity:
                raise PoleProximityError(
                    f"evaluation point within {d:.2e} of a pole"
                )
        return self.rational()(z)

    @property
    def a0(self) -> float:
        """The normalization f'(0) = a0 > 0."""
        raise NotImplementedError

    def derivative_rational(self) -> RationalFunction:
        return self.rational().derivative()

    def reflection(self) -> RationalFunction:
        return self.rational().reflect()

    def power_series(self, order: int) -> np.ndarray:
        """Coefficients a_0..a_{order-1} with a_j multiplying z**(j+1)."""
        t = self.rational().taylor(order)
        return t[1:]

    def boundary_values(self, grid: CircleGrid) -> np.ndarray:
        return ring_values(self.rational(), 1.0, grid)

    def derivative_on(self, grid: CircleGrid) -> np.ndarray:
        """f' at the grid nodes."""
        return ring_values(self.derivative_rational(), 1.0, grid)


@dataclass(frozen=True)
class _CoefficientMap(AnalyticMap):
    """A map stored as its coefficients: f = sum_j coeffs[j] * z**(j+1)."""

    coeffs: tuple

    @property
    def a0(self) -> float:
        return self.coeffs[0].real

    def rational(self) -> RationalFunction:
        return RationalFunction(np.concatenate([[0.0], self.coeffs]))

    def derivative_coeffs(self) -> np.ndarray:
        """b_j = (j+1) a_j, the coefficients of f'."""
        a = np.asarray(self.coeffs, dtype=complex)
        return a * np.arange(1, len(a) + 1)

    def derivative_rational(self) -> RationalFunction:
        return RationalFunction(self.derivative_coeffs())


@dataclass(frozen=True)
class PolynomialMap(_CoefficientMap):
    """f = sum_{j=0}^{n} coeffs[j] * z**(j+1), coeffs[0] real positive and
    coeffs[n] nonzero (see :func:`_polynomial_cone`)."""

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_polynomial_cone(self.coeffs).tolist()))

    @property
    def degree_plus(self) -> int:
        """n: the map is a polynomial of degree n + 1."""
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RationalMap(AnalyticMap):
    """f = (sum_j a_j z**(j+1)) / prod_j (1 - pole_reflections[j] * z).

    ``pole_reflections`` stores conj(omega_j): the poles sit at
    1/pole_reflections[j], strictly outside the closed disk, and each
    reflected point omega_j = conj(pole_reflections[j]) must be a zero of f'
    for the map to be in consistent (quadrature) state.
    """

    numer_coeffs: tuple
    pole_reflections: tuple

    def __post_init__(self):
        c = tuple(_normalized(self.numer_coeffs).tolist())
        w = tuple(complex(x) for x in self.pole_reflections)
        object.__setattr__(self, "numer_coeffs", c)
        object.__setattr__(self, "pole_reflections", w)
        for wb in w:
            if not abs(wb) < 1.0:
                raise ValueError(f"pole reflection {wb} must lie inside the unit disk")
        self.validate()

    def validate(self):
        """Check f'(omega_j) = 0 for every stored pole reflection."""
        fp = self.derivative_rational()
        scale = max(np.max(np.abs(fp.num)), 1.0)
        for wb in self.pole_reflections:
            w = np.conj(wb)
            val = pval(fp.num, w)
            if abs(val) > 1e-8 * scale:
                raise ValueError(
                    f"inconsistent rational map: f'({w}) = {val}, not a zero"
                )

    @property
    def a0(self) -> float:
        return self.numer_coeffs[0].real

    def finite_poles(self) -> np.ndarray:
        return np.array([1.0 / w for w in self.pole_reflections])

    def rational(self) -> RationalFunction:
        num = np.concatenate([[0.0], self.numer_coeffs])
        den = np.array([1.0 + 0.0j])
        for wb in self.pole_reflections:
            den = pmul(den, [1.0, -wb])
        return RationalFunction(num, den)


@dataclass(frozen=True)
class AbcRationalMap(AnalyticMap):
    """f = c z (z - a) / (z - b) with 0 < |a| < 1 < |b| and f'(0) = a c / b > 0.

    The image is a two-sheeted domain carrying the two-node quadrature
    identity with nodes f(0) = 0 and f(1/conj(b)).
    """

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        a, b, c = complex(self.a), complex(self.b), complex(self.c)
        if not (0 < abs(a) < 1 < abs(b)):
            raise ValueError(f"need 0 < |a| < 1 < |b|, got |a|={abs(a)}, |b|={abs(b)}")
        if c == 0:
            raise ValueError("c must be nonzero")
        fp0 = a * c / b
        if abs(fp0.imag) > 1e-12 * abs(fp0) or fp0.real <= 0:
            raise ValueError(f"normalization violated: f'(0) = a c / b = {fp0}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def a0(self) -> float:
        return (self.a * self.c / self.b).real

    def finite_poles(self) -> np.ndarray:
        return np.array([self.b])

    def rational(self) -> RationalFunction:
        # c z (z - a) = -a c z + c z^2
        return RationalFunction([0.0, -self.a * self.c, self.c], [-self.b, 1.0])

    def node(self) -> complex:
        """The second quadrature node f(1/conj(b))."""
        zb = 1.0 / np.conj(self.b)
        return complex(self.rational()(zb))


@dataclass(frozen=True)
class TaylorMap(_CoefficientMap):
    """Truncated power series f = sum_{j<order} coeffs[j] z**(j+1).

    The working representation for fixed-branch-point evolution.  Unlike
    :class:`PolynomialMap` there is no nonzero-leading-coefficient invariant;
    trailing coefficients are expected to decay.
    """

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_normalized(self.coeffs).tolist()))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def tail_energy(self) -> float:
        """Relative coefficient energy in the last eighth (at least 2) of the slots."""
        a = np.abs(np.asarray(self.coeffs))
        tail = max(len(a) // 8, 2)
        total = float(np.sum(a**2))
        if total == 0.0:
            return 0.0
        return float(np.sum(a[-tail:] ** 2)) / total


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def polynomial_roots(coeffs) -> np.ndarray:
    """All roots of the polynomial with ascending ``coeffs``.

    Companion-matrix eigenvalues with one Newton polish step, ordered by
    modulus then argument.
    """
    c = trim(coeffs)
    if len(c) < 2:
        raise RootFindingError("polynomial has degree 0; no roots to find")
    roots = np.atleast_1d(np.roots(c[::-1]))
    dc = np.asarray([j * c[j] for j in range(1, len(c))], dtype=complex)
    pv = np.atleast_1d(pval(c, roots))
    dv = np.atleast_1d(pval(dc, roots))
    ok = np.abs(dv) > 1e-300
    step = np.zeros_like(roots)
    step[ok] = pv[ok] / dv[ok]
    roots = roots - step
    order = np.lexsort((np.angle(roots), np.abs(roots)))
    return roots[order]


def _match_previous(roots, near):
    out = np.zeros(len(near), dtype=complex)
    avail = list(range(len(roots)))
    for i, p in enumerate(near):
        k = min(avail, key=lambda j: abs(roots[j] - p))
        out[i] = roots[k]
        avail.remove(k)
    return out


def winding_number(samples, z):
    """Index of the sampled closed curve about ``z``.

    ``samples[k]`` must be curve values at the uniform circle grid.  The
    contour integral (1/2 pi i) * integral dw/(w - z) is evaluated with a
    spectral derivative of the samples, so the pre-rounding residual is a
    genuine resolution indicator.  Returns ``(index, residual)``.
    """
    w = np.asarray(samples, dtype=complex)
    n = len(w)
    z = complex(z)
    dist = np.min(np.abs(w - z))
    if dist < 1e-9:
        raise PoleProximityError(f"point within {dist:.2e} of the sampled curve")
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0  # drop the Nyquist mode of the derivative
    dw = np.fft.ifft(1j * k * np.fft.fft(w))
    val = np.sum(dw / (w - z)) / (1j * n)
    idx = int(round(val.real))
    residual = abs(val - idx)
    if residual > DEFAULT.winding_residual_max:
        raise UnderResolvedError(
            f"winding residual {residual:.3g} exceeds {DEFAULT.winding_residual_max}; "
            "refine the grid"
        )
    return idx, residual


def simple_derivative_zeros_in_disk(m: AnalyticMap, near=None) -> np.ndarray:
    """Zeros of f' strictly inside the unit disk, required simple.

    Pass the previous zeros as ``near`` to continue them: each is polished by
    Newton's method on the numerator of f', and the zero count in the disk
    is certified by the argument principle (:func:`_continued_zeros`).
    Without ``near``, or when the continuation is not certified, all roots
    are found from the companion matrix and, if the count is unchanged,
    matched to ``near`` in order.

    Raises :class:`BranchPointError` for multiple zeros or zeros within the
    boundary margin of the unit circle.
    """
    fp = m.derivative_rational()
    num = trim(fp.num)
    if len(num) < 2:
        return np.zeros(0, dtype=complex)
    inside = None
    if near is not None:
        inside = _continued_zeros(num, np.asarray(near, dtype=complex))
    if inside is None:
        inside = _companion_zeros(num, near)
    if _min_gap(inside) < _MULTIPLE_ZERO_GAP:
        raise BranchPointError("multiple zero of f' detected in the disk")
    fpp = fp.derivative()
    for r in inside:
        if abs(fpp(r)) < DEFAULT.branch_simple_min:
            raise BranchPointError(f"zero of f' at {r} is not simple")
    return inside


def _companion_zeros(num, near) -> np.ndarray:
    """Zeros of ``num`` inside the disk, from all of its roots."""
    margin = DEFAULT.branch_boundary_margin
    inside = []
    for r in polynomial_roots(num):
        if abs(r) < 1.0 - margin:
            inside.append(r)
        elif abs(abs(r) - 1.0) <= margin:
            raise BranchPointError(
                f"zero of f' at {r} lies within {margin} "
                "of the unit circle"
            )
    inside = np.asarray(inside, dtype=complex)
    if near is not None and len(near) == len(inside) and len(inside) > 1:
        inside = _match_previous(inside, np.asarray(near, dtype=complex))
    return inside


# Winding residual above which a continued zero count is not trusted and the
# companion route runs instead.  Far tighter than ``winding_residual_max``:
# a truncated series has spurious zeros just outside the unit circle, each
# adding up to (1/|z|)**N of aliasing error, so a count is taken only when
# that error is negligible.
_BRANCH_COUNT_RESIDUAL = 1e-6

# Zeros of f' closer together than this count as one multiple zero.
_MULTIPLE_ZERO_GAP = 1e-8


def _continued_zeros(num, near: np.ndarray):
    """Zeros of ``num`` inside the disk, continued from ``near``.

    The zero count is the winding number of ``num`` on the circles of radius
    1 -/+ branch_boundary_margin.  Different counts mean a zero within the
    margin of the unit circle, which raises :class:`BranchPointError`.
    Returns None, so the caller falls back to the companion matrix, when a
    count is not resolved to ``_BRANCH_COUNT_RESIDUAL``, the count is not
    ``len(near)``, or Newton's method does not converge to distinct zeros
    inside the disk.
    """
    margin = DEFAULT.branch_boundary_margin
    # twice the usual 4x-degree grid: truncated series gather spurious zeros
    # just outside the circle, and each adds (1/|z|)**N to the residual
    grid = CircleGrid(max(64, 1 << (8 * len(num) - 1).bit_length()))
    circles = ring_values(RationalFunction(num), [1.0 - margin, 1.0 + margin], grid)
    counts = []
    for values in circles:
        try:
            idx, residual = winding_number(values, 0.0)
        except (PoleProximityError, UnderResolvedError):
            return None
        if residual > _BRANCH_COUNT_RESIDUAL:
            return None
        counts.append(idx)
    if counts[0] != counts[1]:
        raise BranchPointError(
            f"{counts[1] - counts[0]} zero(s) of f' lie within {margin} "
            "of the unit circle"
        )
    if counts[0] != len(near):
        return None
    if not len(near):
        return near
    dnum = pder(num)
    w = [_newton_zero(num, dnum, complex(z)) for z in near]
    if None in w:
        return None
    w = np.asarray(w)
    if np.max(np.abs(w)) >= 1.0 - margin or _min_gap(w) < _MULTIPLE_ZERO_GAP:
        return None
    return w


def _min_gap(points: np.ndarray) -> float:
    """Smallest distance between two of the points (inf for fewer than two)."""
    if len(points) < 2:
        return np.inf
    d = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(d, np.inf)
    return float(np.min(d))


def _newton_zero(c, dc, w: complex):
    """Newton's method on the polynomial ``c`` from ``w``; None if it stalls.

    Stops with one more step once |c(w)| counts as a root (``root_residual``
    relative to the coefficient scale); quadratic convergence makes that
    last step reach rounding level.
    """
    small = DEFAULT.root_residual * float(np.max(np.abs(c)))
    for _ in range(50):
        v = pval(c, w)
        d = pval(dc, w)
        if d == 0:
            return None
        w -= v / d
        if abs(v) <= small:
            return w
    return None
