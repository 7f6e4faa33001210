"""Spherical-harmonic layer: dimensions d_s, zonal kernels and real
orthonormal bases for every n >= 1, evaluated as solid harmonics
|x|^s Y_{s,j}(x') for every degree from one sweep.  The bases of n = 1 and
n = 2 are explicit; every higher n is one Gelfand-Tsetlin chain step over
the sweep one dimension down (Vilenkin, Special Functions and the Theory of
Group Representations, ch. IX; Dai & Xu, Approximation Theory and Harmonic
Analysis on Spheres and Balls, section 1.5).

All bases are real-valued.  The n = 1 sphere is the two-point set {-1, +1}
with counting measure; its only harmonic degrees are 0 and 1, and that case
is handled as a first-class citizen rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDegreeError
from .special_functions import _as_points, _gegenbauer_b, _gegenbauer_family, _gegenbauer_p0, _orthonormal_table

__all__ = [
    "surface_measure",
    "dim_harmonic",
    "zonal",
    "zonal_table",
    "HarmonicBasis",
    "SolidHarmonic",
    "sph_basis",
    "sph_table",
    "solid_harmonic",
]


def surface_measure(n: int) -> float:
    """Total surface measure of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2).

    For n = 1 this evaluates to 2, the total mass of the counting measure
    on {-1, +1}.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def dim_harmonic(n: int, s: int) -> int:
    """Dimension d_s of the space of degree-s harmonics in R^n.

    d_s = dim P_s - dim P_{s-2} with dim P_{-1} = dim P_{-2} = 0; in n = 1
    only s in {0, 1} are nonzero.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if s < 0:
        raise ValueError(f"degree must be nonnegative, got {s}")
    if n == 1:
        return 1 if s in (0, 1) else 0
    hi = math.comb(s + n - 1, n - 1)
    lo = math.comb(s + n - 3, n - 1) if s + n - 3 >= 0 else 0
    return hi - lo


def zonal_table(n: int, s_max: int, t) -> np.ndarray:
    """Zonal harmonics Z_s(t) for s = 0..s_max from one sweep over s, shape
    (s_max+1,) + t.shape, at t = x'.y' in [-1, 1].

    Z_s is the reproducing kernel of the degree-s harmonic subspace of
    L2 on the sphere; it depends on the two poles only through their inner
    product.  n = 1 has Z_0 = 1/2, Z_1(t) = t/2 and Z_s = 0 for s >= 2 (no
    harmonics).  For n >= 2, Z_s(t) = q_s(1) q_s(t) / omega_n with
    q_s = p_s / p_0 the orthonormal Gegenbauer polynomials of
    lam = (n-2)/2 (Dai & Xu, Approximation Theory and Harmonic Analysis on
    Spheres and Balls, ch. 1): cos(s arccos t)/pi for s >= 1 at n = 2, and
    ((2s+n-2)/(n-2)) C_s^{(n-2)/2}(t) / omega_n above.  q_s(1) comes from
    the same sweep, with t = 1 as a last column.
    """
    dim_harmonic(n, s_max)  # refuses n < 1 and s_max < 0
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1 + 1e-12):
        raise ValueError("zonal argument must lie in [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    if n == 1:
        out = np.zeros((s_max + 1,) + t.shape)
        out[0] = 0.5
        out[1:2] = 0.5 * t
        return out
    a, b, _ = _gegenbauer_family(s_max, (n - 2) / 2.0)
    out = _orthonormal_table(np.append(t, 1.0), a, b, np.ones_like)
    out *= out[:, -1:] / surface_measure(n)
    return out[:, :-1].reshape((s_max + 1,) + t.shape)


def zonal(n: int, s: int, t):
    """Zonal harmonic Z_s(t), the last row of zonal_table; n = 1 has no
    harmonics of degree s >= 2."""
    if n == 1 and s >= 2:
        raise DegenerateDegreeError(f"n=1 has no harmonics of degree {s}")
    out = zonal_table(n, s, t)[s]
    return float(out) if out.ndim == 0 else out


def sph_table(n: int, s_max: int, points):
    """Solid harmonics |x|^s Y_{s,j}(x') for s = 0..s_max from one sweep over
    the degree: yields (s, rows), rows of shape (d_s, npts) in sph_basis
    order, for every s with d_s > 0.  Only the last two degrees are held;
    at n >= 2 the yielded rows are read-only, since the sweep reads them
    again.  On the unit sphere the rows are the spherical harmonics.

    n=1: 2^{-1/2} at s=0 and 2^{-1/2} x at s=1 (counting measure).
    n=2: Re and Im of (x + iy)^s / sqrt(pi) (s >= 1) after (2 pi)^{-1/2},
         each degree a rotation of the last by (x, y), (C, S) ->
         d (x C - y S, y C + x S), d = sqrt(2) at s = 1, else 1.
    n>=3: the Gelfand-Tsetlin chain (_chain) over the sweep of
         x' = (x_1, .., x_{n-1}); at n = 3 the rows are the normalized
         associated-Legendre harmonics, order m = 0, then cos and sin of
         m phi for m = 1..s (no Condon-Shortley sign).
    Every row is a polynomial in the coordinates, so no angle is formed,
    nothing is divided by |x|, and the origin is exact.  All points go
    through one sweep; fields split large point sets into blocks
    (ScalarField).
    """
    dim_harmonic(n, s_max)  # refuses n < 1 and s_max < 0
    return _sweep(n, s_max, _as_points(points, n)[0])


def _sweep(n: int, s_max: int, pts):
    """The generator behind sph_table: the bases at n = 1, 2, and for every
    higher n one chain step over this sweep one dimension down."""
    npts = len(pts)
    if n == 1:
        yield 0, np.full((1, npts), math.sqrt(0.5))
        if s_max >= 1:
            yield 1, math.sqrt(0.5) * pts.T
        return
    if n == 2:
        x, y = pts[:, 0], pts[:, 1]
        prev = np.full((1, npts), 1.0 / math.sqrt(2.0 * math.pi))
        prev.flags.writeable = False
        yield 0, prev
        for s in range(1, s_max + 1):
            d, (c, sn) = (math.sqrt(2.0), (prev[0], 0.0)) if s == 1 else (1.0, prev)
            cur = np.empty((2, npts))
            cur[0] = d * (x * c - y * sn)
            cur[1] = d * (y * c + x * sn)
            cur.flags.writeable = False
            prev = cur
            yield s, cur
        return
    yield from _chain(n, pts[:, -1], np.einsum("pi,pi->p", pts, pts), _sweep(n - 1, s_max, pts[:, :-1]))


@lru_cache(maxsize=None)
def _chain_coefficients(n: int, s: int):
    """The coefficients of degree s of the chain step into R^n: b_j of
    every row of degree s-1 (j = s - l, lam = l + n/2 - 1, with l of each
    row fixed by the dimensions one level down), as a column, and p_0 of
    lam = s + n/2 - 1."""
    ell = np.repeat(np.arange(s, dtype=float), [dim_harmonic(n - 1, l) for l in range(s)])
    return _gegenbauer_b(s - ell, ell + n / 2.0 - 1.0)[:, None], _gegenbauer_p0(s + n / 2.0 - 1.0)


def _chain(n: int, z, r2, lower):
    """One Gelfand-Tsetlin step, R^{n-1} -> R^n, n >= 3: yields (s, rows) for
    each degree s of the (s, rows) sweep ``lower`` of degree-l solid
    harmonics h(x') in x' = (x_1, .., x_{n-1}), the last coordinate z and
    r2 = |x|^2.

    Row Q_{s-l}(x) h(x') of degree s, with lam = l + n/2 - 1 and p_j the
    orthonormal Gegenbauer polynomials of lam, is Q_j(x) = |x|^j p_j(z/|x|)
    times h.  They are an orthonormal basis of the degree-s harmonics on
    the sphere, ordered by l, then by the rows of h: the rows of degree s-1
    continue by Q_{j+1} = (z Q_j - b_j r2 Q_{j-1}) / b_{j+1}, and the
    degree-s rows of ``lower`` enter times p_0 (j = 0).
    """
    older = prev = b_old = np.empty((0, len(z)))
    for s, rows in lower:
        b_new, p0 = _chain_coefficients(n, s)
        # b_j r2 Q_{j-1} replaces Q_{j-1} before degree s is allocated, so
        # no more than two degrees and this term are alive at once; b_j of
        # the rows of degree s-2 is their b_{j+1} of the step before
        older = older * r2
        older *= b_old
        cur = np.empty((len(prev) + len(rows), len(z)))
        np.multiply(z, prev, out=cur[: len(prev)])
        cur[: len(older)] -= older
        cur[: len(prev)] /= b_new
        np.multiply(rows, p0, out=cur[len(prev) :])
        cur.flags.writeable = False
        older, prev, b_old = prev, cur, b_new
        yield s, cur


@dataclass(frozen=True)
class SolidHarmonic:
    """The degree-s solid harmonic sum_j c_j |x|^s Y_{s,j}(x') of coefficients
    c in the basis sph_basis(n, s), from one sph_table sweep over all its
    points; a field built on it (radial_harmonic_field) is fed in blocks by
    ScalarField."""

    n: int
    degree: int
    coeffs: np.ndarray

    def __call__(self, points):
        pts, single = _as_points(points, self.n)
        for _, rows in sph_table(self.n, self.degree, pts):
            pass
        vals = self.coeffs @ rows
        return float(vals[0]) if single else vals


@dataclass(frozen=True)
class HarmonicBasis:
    """Orthonormal basis of the degree-s spherical harmonics in R^n."""

    n: int
    s: int
    dim: int

    def evaluate_all(self, points) -> np.ndarray:
        """Solid harmonics |x|^s Y_{s,j}(x') at points, shape (dim, npts): the
        last entry of sph_table.  At unit points these are the basis values."""
        for _, rows in sph_table(self.n, self.s, points):
            pass
        return rows

    def combination(self, coeffs) -> SolidHarmonic:
        """Solid harmonic with the given coefficients in this basis."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        return SolidHarmonic(self.n, self.s, coeffs)


@lru_cache(maxsize=None)
def sph_basis(n: int, s: int) -> HarmonicBasis:
    """Real orthonormal basis of the degree-s harmonics in R^n, with the rows
    of sph_table (n=3: normalized associated-Legendre harmonics ordered
    m=0, then (m, cos), (m, sin) for m = 1..s)."""
    if not dim_harmonic(n, s):
        raise DegenerateDegreeError(f"n=1 has no harmonics of degree {s}")
    return HarmonicBasis(n, s, dim_harmonic(n, s))


def _basis_row(n: int, s: int, j: int) -> int:
    """The row of sph_basis(n, s) that holds its j-th (1-based) harmonic:
    DegenerateDegreeError when d_s = 0, ValueError for j outside 1..d_s."""
    dim = sph_basis(n, s).dim
    if not 1 <= j <= dim:
        raise ValueError(f"j must lie in 1..{dim} for (n, s)=({n}, {s})")
    return j - 1


def solid_harmonic(n: int, s: int, j: int, points) -> np.ndarray:
    """The j-th (1-based) basis solid harmonic |x|^s Y_{s,j}(x') at points."""
    return sph_basis(n, s).evaluate_all(points)[_basis_row(n, s, j)]
