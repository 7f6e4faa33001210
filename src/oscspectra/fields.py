"""Point-evaluator representation of functions on R^n and the built-in
catalog of test fields used by the CLI and the verification suites.

Fields are pure evaluators: they take an (npts, n) array of points and
return an (npts,) array of values.  A declared support radius marks
compactly supported fields so coefficient extraction can pick a radial
rule that actually covers the support; a declared band and degree let it
size every rule to integrate the field exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError
from .harmonics import SWEEP_BLOCK, SolidHarmonic, dim_harmonic, sph_basis, sph_table
from .special_functions import hermite_fn_multi, laguerre_fn_table

__all__ = [
    "ScalarField",
    "gaussian_field",
    "bump_field",
    "truncated_gaussian_field",
    "hermite_eigenfield",
    "polar_eigenfield",
    "polar_eigenvalue",
    "polar_levels",
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
    """A real-valued point-evaluator on R^n with declared dimension.

    ``band``, when declared, is the largest harmonic degree of f on spheres
    about 0; polar extraction sizes its sphere rule from it.  ``degree``,
    when declared, is deg p for f = p(x) e^{-|x|^2/2} with p a polynomial;
    extraction sizes its line and radial rules from it.  Both are
    nonnegative integers or None (undeclared).
    """

    n: int
    fn: Callable[[np.ndarray], np.ndarray]
    support_radius: Optional[float] = None
    label: str = ""
    band: Optional[int] = None
    degree: Optional[int] = None

    def __post_init__(self):
        if self.support_radius is not None and not 0.0 < self.support_radius < np.inf:
            raise ValueError(f"support radius must be positive and finite, got {self.support_radius:g}")
        for name in ("band", "degree"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0
            ):
                raise ValueError(f"{name} must be a nonnegative integer or None, got {value!r}")

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
    fn = lambda p: np.exp(-0.5 * np.einsum("pi,pi->p", p, p))
    return ScalarField(n, fn, label="gauss", band=0, degree=0)


def bump_field(n: int, radius: float = 1.0) -> ScalarField:
    """Smooth compactly supported bump exp(-1/(1-|x/R|^2)) on |x| < R."""

    def fn(p, radius=radius):
        q = np.einsum("pi,pi->p", p, p) / (radius * radius)
        out = np.zeros(len(p))
        inside = q < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - q[inside]))
        return out

    return ScalarField(n, fn, support_radius=radius, label=f"bump(R={radius:g})", band=0)


def truncated_gaussian_field(n: int, radius: float = 1.0) -> ScalarField:
    """Gaussian chopped to |x| < R; not smooth at the cut."""

    def fn(p, radius=radius):
        q = np.einsum("pi,pi->p", p, p)
        return np.where(q < radius * radius, np.exp(-0.5 * q), 0.0)

    return ScalarField(n, fn, support_radius=radius, label=f"truncgauss(R={radius:g})", band=0)


def hermite_eigenfield(alpha) -> ScalarField:
    """The tensor Hermite eigenfunction h_alpha as a field."""
    alpha = tuple(int(a) for a in alpha)
    fn = lambda p: hermite_fn_multi(alpha, p)
    return ScalarField(len(alpha), fn, label=f"hermite{alpha}", band=sum(alpha), degree=sum(alpha))


def polar_eigenfield(n: int, k: int, s: int, j: int) -> ScalarField:
    """The polar eigenfunction: ell_k^{n/2-1+s}(|x|) times the j-th solid
    harmonic of degree s (1-based j), as a polar series with a single 1 at
    (k, j - 1)."""
    dim = sph_basis(n, s).dim
    if k < 0 or not 1 <= j <= dim:
        raise ValueError(f"k must be >= 0 and j in 1..{dim} for (n, s)=({n}, {s}), got k={k}, j={j}")
    unit = np.zeros((k + 1, dim))
    unit[k, j - 1] = 1.0
    fn = partial(polar_series, n, {s: unit})
    return ScalarField(n, fn, label=f"polar(k={k},s={s},j={j})", band=s, degree=s + 2 * k)


def polar_levels(n: int, matrices: dict, points) -> np.ndarray:
    """The polar expansion level by level at (npts, n) points: row m = s + 2k
    of the (L+1, npts) result is sum_j C_s[k, j] ell_k^{n/2-1+s}(|x|) |x|^s
    Y_{s,j}(x') for (k, j) matrices C_s = matrices[s] up to top level L.
    Each block of SWEEP_BLOCK points makes one sph_table sweep, one Laguerre
    table per degree."""
    top = max((s + 2 * len(c) - 2 for s, c in matrices.items()), default=0)
    levels = np.zeros((top + 1, len(points)))
    for i in range(0, len(points), SWEEP_BLOCK):
        block = points[i : i + SWEEP_BLOCK]
        r = np.sqrt(np.einsum("pi,pi->p", block, block))
        for s, rows in sph_table(n, max(matrices, default=0), block):
            if s in matrices:
                ell = laguerre_fn_table(len(matrices[s]) - 1, n / 2.0 - 1.0 + s, r)
                levels[s : s + 2 * len(ell) : 2, i : i + SWEEP_BLOCK] += ell * (matrices[s] @ rows)
    return levels


def polar_series(n: int, matrices: dict, points) -> np.ndarray:
    """The polar expansion at (npts, n) points: the level sum of polar_levels,
    one SWEEP_BLOCK at a time, so no levels x points array outlives a block."""
    total = np.empty(len(points))
    for i in range(0, len(points), SWEEP_BLOCK):
        total[i : i + SWEEP_BLOCK] = polar_levels(n, matrices, points[i : i + SWEEP_BLOCK]).sum(axis=0)
    return total


def radial_harmonic_field(f0: Callable, solid: SolidHarmonic, label: str = "") -> ScalarField:
    """f(x) = f0(|x|) * Y(x) for a radial profile and a solid harmonic; the
    degree is declared when f0 is a catalog profile."""

    def fn(p):
        r = np.sqrt(np.einsum("pi,pi->p", p, p))
        return np.asarray(f0(r), dtype=float) * solid(p)

    label = label or f"radial*Y(deg={solid.degree})"
    degree = solid.degree + _F0_DEGREE[f0] if f0 in _F0_DEGREE else None
    return ScalarField(solid.n, fn, label=label, band=solid.degree, degree=degree)


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
    label = f"bandlimited(m<={m_max})"
    fn = partial(polar_series, n, matrices)
    field = ScalarField(n, fn, label=label, band=m_max, degree=m_max)
    return field, coeffs


def f0_gauss(r):
    return np.exp(-0.5 * np.asarray(r, dtype=float) ** 2)


def f0_gauss_poly(r):
    r = np.asarray(r, dtype=float)
    t = r * r
    return (1.0 + t + t * t + t * t * t) * np.exp(-0.5 * t)


_F0 = {"gauss": f0_gauss, "gausspoly": f0_gauss_poly}
# deg q for each catalog profile f0(r) = q(r) e^{-r^2/2}
_F0_DEGREE = {f0_gauss: 0, f0_gauss_poly: 6}


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
        if big_k < 0:
            raise ValueError(f"K must be a nonnegative integer, got {big_k}")
        f0_name = opts.get("f0", "gauss")
        if f0_name not in _F0:
            raise ValueError(f"unknown f0 {f0_name!r}; options: {sorted(_F0)}")
        solid = random_solid_harmonic(n, big_m, rng)
        field = radial_harmonic_field(
            _F0[f0_name], solid, label=f"hecke(M={big_m},K={big_k},f0={f0_name})"
        )
        return field, big_m + 2 * big_k
    raise ValueError(f"unknown catalog id {spec!r}")
