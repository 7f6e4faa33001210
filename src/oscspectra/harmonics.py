"""Spherical-harmonic layer: dimensions d_s, zonal kernels for every n >= 1,
explicit orthonormal bases for n in {1, 2, 3}, and solid-harmonic extension.

All bases are real-valued.  The n = 1 sphere is the two-point set {-1, +1}
with counting measure; its only harmonic degrees are 0 and 1, and that case
is handled as a first-class citizen rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List

import numpy as np

from .errors import DegenerateDegreeError, DimensionMismatchError
from .special_functions import gegenbauer_table

__all__ = [
    "SphereDescriptor",
    "sphere_descriptor",
    "surface_measure",
    "dim_harmonic",
    "zonal",
    "zonal_table",
    "HarmonicBasis",
    "SphericalHarmonic",
    "SolidHarmonic",
    "sph_basis",
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


@dataclass(frozen=True)
class SphereDescriptor:
    n: int
    surface_measure_total: float


def sphere_descriptor(n: int) -> SphereDescriptor:
    return SphereDescriptor(n, surface_measure(n))


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
        out = degrees * np.arccos(t)
        np.cos(out, out=out)
        out /= math.pi
        out[0] = 1.0 / (2.0 * math.pi)
    else:
        out = gegenbauer_table(s_max, (n - 2) / 2.0, t)
        out *= (2.0 * degrees + n - 2.0) / (n - 2.0) / surface_measure(n)
    return out


def zonal(n: int, s: int, t):
    """Zonal harmonic Z_s(t), the last row of zonal_table; n = 1 has no
    harmonics of degree s >= 2."""
    if n == 1 and s >= 2:
        raise DegenerateDegreeError(f"n=1 has no harmonics of degree {s}")
    out = zonal_table(n, s, t)[s]
    return float(out) if out.ndim == 0 else out


def _as_unit_points(points, n):
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != n:
        raise DimensionMismatchError(f"points have dimension {pts.shape[1]}, expected {n}")
    return pts, single


@dataclass(frozen=True)
class SphericalHarmonic:
    """A single real spherical harmonic: degree s, position j in its basis."""

    n: int
    s: int
    j: int
    fn: Callable

    def __call__(self, unit_points):
        pts, single = _as_unit_points(unit_points, self.n)
        vals = self.fn(pts)
        return float(vals[0]) if single else vals


@dataclass(frozen=True)
class SolidHarmonic:
    """Homogeneous degree-s extension Y(r x') = r^s * sphere_fn(x')."""

    n: int
    degree: int
    sphere_fn: Callable

    def __call__(self, points):
        pts, single = _as_unit_points(points, self.n)
        r = np.linalg.norm(pts, axis=1)
        pos = r > 0
        vals = np.zeros(len(pts))
        if np.any(pos):
            unit = pts[pos] / r[pos, None]
            vals[pos] = r[pos] ** self.degree * np.asarray(self.sphere_fn(unit))
        if np.any(~pos):
            if self.degree == 0:
                pole = np.zeros((1, self.n))
                pole[0, 0] = 1.0
                vals[~pos] = float(np.asarray(self.sphere_fn(pole))[0])
            # degree >= 1 vanishes at the origin
        return float(vals[0]) if single else vals


@dataclass(frozen=True)
class HarmonicBasis:
    """Orthonormal basis of the degree-s spherical harmonics in R^n."""

    n: int
    s: int
    dim: int
    _eval_all: Callable

    def evaluate_all(self, unit_points) -> np.ndarray:
        """Stack of basis values at unit points, shape (dim, npts)."""
        pts, _ = _as_unit_points(unit_points, self.n)
        return self._eval_all(pts)

    @property
    def evaluators(self) -> List[SphericalHarmonic]:
        return [
            SphericalHarmonic(self.n, self.s, j + 1, fn=_RowEval(self, j))
            for j in range(self.dim)
        ]

    def combination(self, coeffs) -> SolidHarmonic:
        """Solid harmonic with the given coefficients in this basis."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        return SolidHarmonic(self.n, self.s, lambda pts: coeffs @ self._eval_all(pts))


class _RowEval:
    """Picklable single-row view into a basis evaluation."""

    def __init__(self, basis, row):
        self.basis = basis
        self.row = row

    def __call__(self, pts):
        return self.basis._eval_all(pts)[self.row]


def _legendre_assoc_normalized(s: int, z: np.ndarray, sin_theta: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values Pbar_s^m for m = 0..s.

    Normalized so that the real harmonics built from them are orthonormal
    on the sphere; no Condon-Shortley sign.  Returns shape (s+1, npts).
    """
    npts = len(z)
    out = np.empty((s + 1, npts))
    pmm = np.full(npts, math.sqrt(1.0 / (4.0 * math.pi)))
    for m in range(s + 1):
        if m > 0:
            pmm = pmm * math.sqrt((2 * m + 1.0) / (2 * m)) * sin_theta
        if m == s:
            out[m] = pmm
            continue
        prev = pmm
        cur = math.sqrt(2 * m + 3.0) * z * pmm
        for ell in range(m + 2, s + 1):
            a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = math.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            prev, cur = cur, a * (z * cur - b * prev)
        out[m] = cur
    return out


@lru_cache(maxsize=None)
def sph_basis(n: int, s: int) -> HarmonicBasis:
    """Explicit real orthonormal basis of the degree-s harmonics, n <= 3.

    n=1: {2^{-1/2}} for s=0 and {2^{-1/2} x'} for s=1 (counting measure);
    n=2: {(2 pi)^{-1/2}} for s=0, {pi^{-1/2} cos(s th), pi^{-1/2} sin(s th)};
    n=3: real normalized associated-Legendre harmonics ordered m=0, then
         (m, cos), (m, sin) for m = 1..s.
    """
    if s < 0:
        raise ValueError(f"degree must be nonnegative, got {s}")
    if n == 1:
        if s >= 2:
            raise DegenerateDegreeError(f"n=1 has no harmonics of degree {s}")
        if s == 0:
            fn = lambda pts: np.full(len(pts), 1.0 / math.sqrt(2.0))
        else:
            fn = lambda pts: pts[:, 0] / math.sqrt(2.0)
        return HarmonicBasis(1, s, 1, lambda pts: fn(pts)[None, :])
    if n == 2:
        if s == 0:
            return HarmonicBasis(
                2, 0, 1, lambda pts: np.full((1, len(pts)), 1.0 / math.sqrt(2.0 * math.pi))
            )

        def eval_all2(pts, s=s):
            theta = np.arctan2(pts[:, 1], pts[:, 0])
            c = 1.0 / math.sqrt(math.pi)
            return np.vstack([c * np.cos(s * theta), c * np.sin(s * theta)])

        return HarmonicBasis(2, s, 2, eval_all2)
    if n == 3:

        def eval_all3(pts, s=s):
            z = np.clip(pts[:, 2], -1.0, 1.0)
            sin_theta = np.hypot(pts[:, 0], pts[:, 1])
            phi = np.arctan2(pts[:, 1], pts[:, 0])
            pbar = _legendre_assoc_normalized(s, z, sin_theta)
            rows = [pbar[0]]
            for m in range(1, s + 1):
                rows.append(math.sqrt(2.0) * pbar[m] * np.cos(m * phi))
                rows.append(math.sqrt(2.0) * pbar[m] * np.sin(m * phi))
            return np.vstack(rows)

        return HarmonicBasis(3, s, 2 * s + 1, eval_all3)
    raise ValueError(f"explicit bases exist for n <= 3 only, got n={n}")


def solid_harmonic(elem: SphericalHarmonic, points):
    """Evaluate the homogeneous extension Y(x) = |x|^s * elem(x/|x|)."""
    return SolidHarmonic(elem.n, elem.s, elem.fn)(points)
