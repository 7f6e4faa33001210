"""Point-evaluator representation of functions on R^n and the built-in
catalog of test fields used by the CLI and the verification suites.

Fields are pure evaluators: they take an (npts, n) array of points and
return an (npts,) array of values.  A declared support radius marks
compactly supported fields so coefficient extraction can pick a radial
rule that actually covers the support.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError
from .harmonics import SWEEP_BLOCK, SolidHarmonic, dim_harmonic, sph_basis, sph_table
from .special_functions import hermite_fn_multi, laguerre_fn, laguerre_fn_table

__all__ = [
    "ScalarField",
    "gaussian_field",
    "bump_field",
    "truncated_gaussian_field",
    "hermite_eigenfield",
    "polar_eigenfield",
    "polar_eigenvalue",
    "polar_series",
    "radial_harmonic_field",
    "random_band_limited",
    "random_solid_harmonic",
    "f0_gauss",
    "f0_gauss_poly",
    "parse_field_id",
]


@dataclass(frozen=True)
class ScalarField:
    """A real-valued point-evaluator on R^n with declared dimension."""

    n: int
    fn: Callable[[np.ndarray], np.ndarray]
    support_radius: Optional[float] = None
    label: str = ""

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.n:
            raise DimensionMismatchError(
                f"field on R^{self.n} evaluated at points of dimension {pts.shape[1]}"
            )
        vals = np.asarray(self.fn(pts), dtype=float)
        return float(vals[0]) if single else vals


def polar_eigenvalue(n: int, k: int, s: int) -> int:
    """Oscillator eigenvalue of the polar index (k, s): n + 2(s + 2k)."""
    return n + 2 * (s + 2 * k)


def gaussian_field(n: int) -> ScalarField:
    return ScalarField(n, lambda p: np.exp(-0.5 * np.sum(p * p, axis=1)), label="gauss")


def bump_field(n: int, radius: float = 1.0) -> ScalarField:
    """Smooth compactly supported bump exp(-1/(1-|x/R|^2)) on |x| < R."""

    def fn(p, radius=radius):
        q = np.sum(p * p, axis=1) / (radius * radius)
        out = np.zeros(len(p))
        inside = q < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - q[inside]))
        return out

    return ScalarField(n, fn, support_radius=radius, label=f"bump(R={radius:g})")


def truncated_gaussian_field(n: int, radius: float = 1.0) -> ScalarField:
    """Gaussian chopped to |x| < R; not smooth at the cut."""

    def fn(p, radius=radius):
        q = np.sum(p * p, axis=1)
        return np.where(q < radius * radius, np.exp(-0.5 * q), 0.0)

    return ScalarField(n, fn, support_radius=radius, label=f"truncgauss(R={radius:g})")


def hermite_eigenfield(alpha) -> ScalarField:
    """The tensor Hermite eigenfunction h_alpha as a field."""
    alpha = tuple(int(a) for a in alpha)
    return ScalarField(
        len(alpha), lambda p: hermite_fn_multi(alpha, p), label=f"hermite{alpha}"
    )


def polar_eigenfield(n: int, k: int, s: int, j: int) -> ScalarField:
    """The polar eigenfunction: ell_k^{n/2-1+s}(|x|) times the j-th solid
    harmonic of degree s (1-based j)."""
    basis = sph_basis(n, s)
    if not 1 <= j <= basis.dim:
        raise ValueError(f"j must lie in 1..{basis.dim} for (n, s)=({n}, {s})")
    beta = n / 2.0 - 1.0 + s
    solid = basis.combination(np.eye(basis.dim)[j - 1])

    def fn(p):
        r = np.linalg.norm(p, axis=1)
        return laguerre_fn(k, beta, r) * solid(p)

    return ScalarField(n, fn, label=f"polar(k={k},s={s},j={j})")


def polar_series(n: int, matrices: dict, points) -> np.ndarray:
    """The polar expansion sum_{s,k,j} C_s[k, j] ell_k^{n/2-1+s}(|x|) |x|^s
    Y_{s,j}(x') at (npts, n) points, from one (k, j) coefficient matrix
    C_s = matrices[s] per degree s.  Each block of SWEEP_BLOCK points makes
    one sph_table sweep, with one Laguerre table and one contraction per
    degree that carries coefficients."""
    total = np.zeros(len(points))
    for i in range(0, len(points), SWEEP_BLOCK):
        block = points[i : i + SWEEP_BLOCK]
        r = np.linalg.norm(block, axis=1)
        for s, rows in sph_table(n, max(matrices, default=0), block):
            if s in matrices:
                ell = laguerre_fn_table(len(matrices[s]) - 1, n / 2.0 - 1.0 + s, r)
                total[i : i + SWEEP_BLOCK] += np.einsum("kp,kp->p", ell, matrices[s] @ rows)
    return total


def radial_harmonic_field(f0: Callable, solid: SolidHarmonic, label: str = "") -> ScalarField:
    """f(x) = f0(|x|) * Y(x) for a radial profile and a solid harmonic."""

    def fn(p):
        r = np.linalg.norm(p, axis=1)
        return np.asarray(f0(r), dtype=float) * solid(p)

    return ScalarField(solid.n, fn, label=label or f"radial*Y(deg={solid.degree})")


def random_solid_harmonic(n: int, s: int, rng: np.random.Generator) -> SolidHarmonic:
    """Random unit-coefficient combination within the degree-s basis."""
    basis = sph_basis(n, s)
    c = rng.standard_normal(basis.dim)
    c /= np.linalg.norm(c)
    return basis.combination(c)


def random_band_limited(
    n: int, m_max: int, rng: np.random.Generator, terms: int = 10
) -> tuple[ScalarField, dict]:
    """Random finite combination of polar eigenfunctions with s + 2k <= m_max.

    Returns the field and its exact coefficient dict keyed by (k, s, j).  The
    field holds one (k, j) coefficient matrix per degree s and evaluates as
    a polar_series.
    """
    indices = [
        (k, s, j)
        for s in range(m_max + 1)
        for k in range((m_max - s) // 2 + 1)
        for j in range(1, dim_harmonic(n, s) + 1)
    ]
    pick = rng.choice(len(indices), size=min(terms, len(indices)), replace=False)
    coeffs = {indices[i]: float(rng.standard_normal()) for i in sorted(pick)}
    matrices: dict = {}
    for (k, s, j), c in coeffs.items():
        matrices.setdefault(s, np.zeros(((m_max - s) // 2 + 1, dim_harmonic(n, s))))[k, j - 1] = c
    field = ScalarField(n, partial(polar_series, n, matrices), label=f"bandlimited(m<={m_max})")
    return field, coeffs


def f0_gauss(r):
    return np.exp(-0.5 * np.asarray(r, dtype=float) ** 2)


def f0_gauss_poly(r):
    r = np.asarray(r, dtype=float)
    t = r * r
    return (1.0 + t + t * t + t * t * t) * np.exp(-0.5 * t)


_F0 = {"gauss": f0_gauss, "gausspoly": f0_gauss_poly}


def parse_field_id(spec: str, n: int, rng: Optional[np.random.Generator] = None):
    """Resolve a catalog id like ``gauss``, ``bump:R=1``,
    ``hermite:gamma=(1,1)``, ``polar:k=1,s=2,j=1`` or
    ``hecke:M=2,K=1,f0=gauss`` into a ScalarField.

    For ``hecke`` ids the returned field is f0(|x|) Y(x) with a seeded random
    solid harmonic Y of degree M; the natural projection level M + 2K is
    attached as ``field.natural_level`` metadata in the second return slot.
    """
    rng = rng or np.random.default_rng(0)
    name, _, rest = spec.partition(":")
    opts = {}
    if rest:
        for item in re.split(r",(?![^()]*\))", rest):
            key, _, val = item.partition("=")
            if not _ or not key:
                raise ValueError(f"malformed catalog option {item!r} in {spec!r}")
            opts[key.strip()] = val.strip()
    if name == "gauss":
        return gaussian_field(n), None
    if name == "bump":
        return bump_field(n, radius=float(opts.get("R", 1.0))), None
    if name == "truncgauss":
        return truncated_gaussian_field(n, radius=float(opts.get("R", 1.0))), None
    if name == "hermite":
        gamma = opts.get("gamma")
        if gamma is None:
            raise ValueError("hermite catalog id needs gamma=(..)")
        alpha = tuple(int(v) for v in gamma.strip("()").split(",") if v != "")
        if len(alpha) != n:
            raise DimensionMismatchError(f"gamma={alpha} does not match n={n}")
        return hermite_eigenfield(alpha), sum(alpha)
    if name == "polar":
        k, s, j = int(opts.get("k", 0)), int(opts.get("s", 0)), int(opts.get("j", 1))
        return polar_eigenfield(n, k, s, j), s + 2 * k
    if name == "hecke":
        big_m, big_k = int(opts.get("M", 0)), int(opts.get("K", 0))
        f0_name = opts.get("f0", "gauss")
        if f0_name not in _F0:
            raise ValueError(f"unknown f0 {f0_name!r}; options: {sorted(_F0)}")
        solid = random_solid_harmonic(n, big_m, rng)
        field = radial_harmonic_field(
            _F0[f0_name], solid, label=f"hecke(M={big_m},K={big_k},f0={f0_name})"
        )
        return field, big_m + 2 * big_k
    raise ValueError(f"unknown catalog id {spec!r}")
