"""Point-evaluator representation of functions on R^n and the built-in
catalog of test fields used by the CLI and the verification suites.

Fields are pure evaluators: they take an (npts, n) array of points and
return an (npts,) array of values.  ScalarField is the one evaluation
boundary: it checks the points and feeds its evaluator SWEEP_BLOCK points
at a time, so nothing below it splits points into blocks.  A declared
support radius marks compactly supported fields so coefficient extraction
can pick a radial rule that actually covers the support; a declared band
and degree let it size every rule to integrate the field exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError
from .harmonics import SolidHarmonic, _basis_row, dim_harmonic, sph_basis, sph_table
from .special_functions import _as_points, hermite_fn_multi, laguerre_fn_table

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

# Points per call of a field's evaluator.  Fields are evaluated on grids of
# up to 64^3 nodes; feeding them in blocks keeps every evaluator's
# temporaries (sweep rows, Laguerre and Hermite tables) at a few MB instead
# of tens, which the allocator would otherwise keep resident after the call.
SWEEP_BLOCK = 1 << 14


@dataclass(frozen=True)
class ScalarField:
    """A real-valued point-evaluator on R^n with declared dimension.

    ``band``, when declared, is the largest harmonic degree of f on spheres
    about 0; polar extraction sizes its sphere rule from it.  ``degree``,
    when declared, is deg p for f = p(x) e^{-|x|^2/2} with p a polynomial;
    extraction sizes its line and radial rules from it.  Both are
    nonnegative integers or None (undeclared).

    Calling the field checks the points, (npts, n) or one point of length
    n (which gives a float), and calls fn on at most SWEEP_BLOCK of them
    at a time.
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
        pts, single = _as_points(points, self.n)
        vals = np.empty(len(pts))
        for i in range(0, len(pts), SWEEP_BLOCK):
            vals[i : i + SWEEP_BLOCK] = self.fn(pts[i : i + SWEEP_BLOCK])
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
        p = p / radius  # |x/R|^2, since R^2 underflows below R of about 1e-154
        q = np.einsum("pi,pi->p", p, p)
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
    if k < 0:
        raise ValueError(f"k must be >= 0, got k={k}")
    unit = np.zeros((k + 1, dim_harmonic(n, s)))
    unit[k, _basis_row(n, s, j)] = 1.0
    fn = partial(polar_series, n, {s: unit})
    return ScalarField(n, fn, label=f"polar(k={k},s={s},j={j})", band=s, degree=s + 2 * k)


def polar_levels(n: int, matrices: dict, points) -> np.ndarray:
    """The polar expansion level by level at (npts, n) points: row m = s + 2k
    of the (L+1, npts) result is sum_j C_s[k, j] ell_k^{n/2-1+s}(|x|) |x|^s
    Y_{s,j}(x') for (k, j) matrices C_s = matrices[s] up to top level L.
    All points make one sph_table sweep, one Laguerre table per degree; a
    field built on it is fed SWEEP_BLOCK points at a time by ScalarField."""
    top = max((s + 2 * len(c) - 2 for s, c in matrices.items()), default=0)
    levels = np.zeros((top + 1, len(points)))
    r = np.sqrt(np.einsum("pi,pi->p", points, points))
    for s, rows in sph_table(n, max(matrices, default=0), points):
        if s in matrices:
            ell = laguerre_fn_table(len(matrices[s]) - 1, n / 2.0 - 1.0 + s, r)
            levels[s : s + 2 * len(ell) : 2] += ell * (matrices[s] @ rows)
    return levels


def polar_series(n: int, matrices: dict, points) -> np.ndarray:
    """The polar expansion at (npts, n) points: the level sum of polar_levels."""
    return polar_levels(n, matrices, points).sum(axis=0)


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

# the options each catalog kind reads, with their defaults
_CATALOG = {
    "gauss": {},
    "bump": {"R": 1.0},
    "truncgauss": {"R": 1.0},
    "hermite": {"gamma": None},
    "polar": {"k": 0, "s": 0, "j": 1},
    "hecke": {"M": 0, "K": 0, "f0": "gauss"},
}


def _parse_spec(spec: str, kinds: dict) -> tuple[str, dict]:
    """Split ``KIND:K=V,...`` into KIND and its options: kinds[KIND] holds
    the keys that kind reads with their defaults, and each K=V given
    replaces a default by the string V.  An unknown kind, a malformed item
    or a key the kind does not read raises ValueError naming it; a comma
    inside parentheses does not split."""
    kind, _, rest = spec.partition(":")
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}; options: {sorted(kinds)}")
    opts = dict(kinds[kind])
    for item in re.split(r",(?![^()]*\))", rest) if rest else ():
        key, sep, val = (part.strip() for part in item.partition("="))
        if not sep:
            raise ValueError(f"malformed option {item!r}")
        if key not in opts:
            raise ValueError(f"{kind} reads no option {key!r}; its options: {sorted(opts) or 'none'}")
        opts[key] = val
    return kind, opts


def parse_field_id(spec: str, n: int, rng: Optional[np.random.Generator] = None):
    """Resolve a catalog id like ``gauss``, ``bump:R=1``,
    ``hermite:gamma=(1,1)``, ``polar:k=1,s=2,j=1`` or
    ``hecke:M=2,K=1,f0=gauss`` into a ScalarField; an option its kind does
    not read raises ValueError.

    For ``hecke`` ids the returned field is f0(|x|) Y(x) with a seeded random
    solid harmonic Y of degree M; the natural projection level M + 2K is
    attached as ``field.natural_level`` metadata in the second return slot.
    """
    rng = rng or np.random.default_rng(0)
    name, opts = _parse_spec(spec, _CATALOG)
    if name == "gauss":
        return gaussian_field(n), None
    if name == "bump":
        return bump_field(n, radius=float(opts["R"])), None
    if name == "truncgauss":
        return truncated_gaussian_field(n, radius=float(opts["R"])), None
    if name == "hermite":
        if opts["gamma"] is None:
            raise ValueError("hermite catalog id needs gamma=(..)")
        alpha = tuple(int(v) for v in opts["gamma"].strip("()").split(",") if v != "")
        if len(alpha) != n:
            raise DimensionMismatchError(f"gamma={alpha} does not match n={n}")
        return hermite_eigenfield(alpha), sum(alpha)
    if name == "polar":
        k, s, j = (int(opts[key]) for key in "ksj")
        return polar_eigenfield(n, k, s, j), s + 2 * k
    big_m, big_k = int(opts["M"]), int(opts["K"])  # hecke
    if big_k < 0:
        raise ValueError(f"K must be a nonnegative integer, got {big_k}")
    if opts["f0"] not in _F0:
        raise ValueError(f"unknown f0 {opts['f0']!r}; options: {sorted(_F0)}")
    solid = random_solid_harmonic(n, big_m, rng)
    field = radial_harmonic_field(_F0[opts["f0"]], solid, label=f"hecke(M={big_m},K={big_k},f0={opts['f0']})")
    return field, big_m + 2 * big_k
