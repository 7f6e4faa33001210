"""Spherical-harmonic layer: dimensions d_s, zonal kernels for every n >= 1,
and explicit orthonormal bases for n in {1, 2, 3}, evaluated as solid
harmonics |x|^s Y_{s,j}(x') for every degree from one sweep.

All bases are real-valued.  The n = 1 sphere is the two-point set {-1, +1}
with counting measure; its only harmonic degrees are 0 and 1, and that case
is handled as a first-class citizen rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDegreeError, DimensionMismatchError
from .special_functions import gegenbauer_table

__all__ = [
    "SWEEP_BLOCK",
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
    product.  Closed forms:
        n = 1:  Z_0 = 1/2,  Z_1(t) = t/2,  Z_s = 0 for s >= 2 (no harmonics);
        n = 2:  Z_0 = 1/(2 pi),  Z_s(t) = cos(s arccos t)/pi  (s >= 1);
        n >= 3: Z_s(t) = ((2s+n-2)/(n-2)) C_s^{(n-2)/2}(t) / omega_{n-1}.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if s_max < 0:
        raise ValueError(f"degree must be nonnegative, got {s_max}")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1 + 1e-12):
        raise ValueError("zonal argument must lie in [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    degrees = np.arange(s_max + 1).reshape((-1,) + (1,) * t.ndim)
    if n == 1:
        out = np.zeros((s_max + 1,) + t.shape)
        out[0] = 0.5
        out[1:2] = 0.5 * t
    elif n == 2:
        out = _circle_zonal(degrees, t)
    else:
        out = gegenbauer_table(s_max, (n - 2) / 2.0, t)
        out *= (2.0 * degrees + n - 2.0) / (n - 2.0) / surface_measure(n)
    return out


def _circle_zonal(degrees, t) -> np.ndarray:
    """Z_s(t) on the circle at integer degrees broadcast against t in [-1, 1]."""
    out = degrees * np.arccos(t)
    np.cos(out, out=out)
    out /= math.pi
    out[np.broadcast_to(degrees == 0, out.shape)] = 0.5 / math.pi
    return out


def zonal(n: int, s: int, t):
    """Zonal harmonic Z_s(t), the last row of zonal_table; n = 1 has no
    harmonics of degree s >= 2."""
    if n == 1 and s >= 2:
        raise DegenerateDegreeError(f"n=1 has no harmonics of degree {s}")
    out = zonal_table(n, s, t)[s]
    return float(out) if out.ndim == 0 else out


def _as_points(points, n):
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != n:
        raise DimensionMismatchError(f"points have dimension {pts.shape[1]}, expected {n}")
    return pts, single


def sph_table(n: int, s_max: int, points):
    """Solid harmonics |x|^s Y_{s,j}(x') for s = 0..s_max from one sweep over
    the degree: yields (s, rows), rows of shape (d_s, npts) in sph_basis
    order, for every s with d_s > 0.  Only the last two degrees are held;
    at n = 2, 3 the yielded rows are read-only, since the sweep reads them
    again.  On the unit sphere the rows are the spherical harmonics.

    n=1: 2^{-1/2} at s=0 and 2^{-1/2} x at s=1 (counting measure).
    n=3: with the fully normalized associated Legendre functions (no
         Condon-Shortley sign), the rows are r^s Pbar_s^0(cos th), then
         sqrt(2) r^s Pbar_s^m(cos th) times cos(m phi), sin(m phi) for
         m = 1..s.  Each row of order m < s continues its row of degree s-1,
         R_s = a (z R_{s-1} - b r^2 R_{s-2}) with a = sqrt((4s^2-1)/(s^2-m^2))
         and b = sqrt(((s-1)^2-m^2)/(4(s-1)^2-1)); the two rows of order s
         rotate the last two rows of degree s-1 by (x, y), (C, S) ->
         d (x C - y S, y C + x S), d = sqrt((2s+1)/(2s)), times sqrt(2) at
         s = 1.
    n=2: only the rotation, with d = 1 (sqrt(2) at s = 1), from
         (2 pi)^{-1/2}: the rows are Re and Im of (x + iy)^s / sqrt(pi).
    Every row is a polynomial in the coordinates, so no angle is formed,
    nothing is divided by |x|, and the origin is exact.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"explicit bases exist for n <= 3 only, got n={n}")
    if s_max < 0:
        raise ValueError(f"degree must be nonnegative, got {s_max}")
    pts, _ = _as_points(points, n)
    npts = len(pts)
    if n == 1:
        yield 0, np.full((1, npts), math.sqrt(0.5))
        if s_max >= 1:
            yield 1, math.sqrt(0.5) * pts.T
        return
    x, y, z = pts[:, 0], pts[:, 1], pts[:, -1]
    r2 = np.einsum("pi,pi->p", pts, pts)
    older = np.empty((0, npts))
    prev = np.full((1, npts), 1.0 / math.sqrt(2.0 * math.pi if n == 2 else 4.0 * math.pi))
    prev.flags.writeable = False
    yield 0, prev
    for s in range(1, s_max + 1):
        d = math.sqrt(2.0) if s == 1 else 1.0
        if n == 3:
            m = (np.arange(2 * s - 1.0)[:, None] + 1.0) // 2.0  # order of each row
            # b r^2 R_{s-2} replaces R_{s-2} before degree s is allocated, so
            # no more than two degrees and this term are alive at once
            older = older * r2
            older *= np.sqrt(((s - 1.0) ** 2 - m[: len(older)] ** 2) / (4.0 * (s - 1.0) ** 2 - 1.0))
            cur = np.empty((2 * s + 1, npts))
            np.multiply(z, prev, out=cur[:-2])
            cur[: len(older)] -= older
            cur[:-2] *= np.sqrt((4.0 * s * s - 1.0) / (s * s - m * m))
            d *= math.sqrt((2.0 * s + 1.0) / (2.0 * s))
        else:
            cur = np.empty((2, npts))
        c, sn = (prev[0], 0.0) if s == 1 else (prev[-2], prev[-1])
        cur[-2] = d * (x * c - y * sn)
        cur[-1] = d * (y * c + x * sn)
        cur.flags.writeable = False
        older, prev = prev, cur
        yield s, cur


# Points per sph_table sweep when a field is evaluated.  Fields are evaluated
# on grids of up to 64^3 nodes; sweeping them in blocks keeps the sweep's
# rows at a few MB instead of tens, which the allocator would otherwise keep
# resident after the call.
SWEEP_BLOCK = 1 << 14


@dataclass(frozen=True)
class SolidHarmonic:
    """The degree-s solid harmonic sum_j c_j |x|^s Y_{s,j}(x') of coefficients
    c in the basis sph_basis(n, s)."""

    n: int
    degree: int
    coeffs: np.ndarray

    def __call__(self, points):
        pts, single = _as_points(points, self.n)
        vals = np.empty(len(pts))
        for i in range(0, len(pts), SWEEP_BLOCK):
            for _, rows in sph_table(self.n, self.degree, pts[i : i + SWEEP_BLOCK]):
                pass
            vals[i : i + SWEEP_BLOCK] = self.coeffs @ rows
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
    """Explicit real orthonormal basis of the degree-s harmonics, n <= 3, with
    the rows of sph_table (n=3: normalized associated-Legendre harmonics
    ordered m=0, then (m, cos), (m, sin) for m = 1..s)."""
    if s < 0:
        raise ValueError(f"degree must be nonnegative, got {s}")
    if n not in (1, 2, 3):
        raise ValueError(f"explicit bases exist for n <= 3 only, got n={n}")
    if not dim_harmonic(n, s):
        raise DegenerateDegreeError(f"n=1 has no harmonics of degree {s}")
    return HarmonicBasis(n, s, dim_harmonic(n, s))


def solid_harmonic(n: int, s: int, j: int, points) -> np.ndarray:
    """The j-th (1-based) basis solid harmonic |x|^s Y_{s,j}(x') at points."""
    basis = sph_basis(n, s)
    if not 1 <= j <= basis.dim:
        raise ValueError(f"j must lie in 1..{basis.dim} for (n, s)=({n}, {s})")
    return basis.evaluate_all(points)[j - 1]
