"""Coefficient extraction and spectral projection in both eigenbases,
the Hecke-Bochner closed form, the rotation-commutation check, Parseval
defects, and the coefficient-decay probe for compactly supported fields.

Functions enter as pure point-evaluators (ScalarField); nothing is gridded.
Coefficients of a field against the polar basis are computed exactly as the
polar factorization dictates: sphere-integrate f at each radial node to get
F_{s,j}(r), then take the radial inner product against ell_k with the r^s
factor folded into the radial weight (never dividing F by r^s).  One radial
rule against r^{n-1} dr serves every harmonic degree.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import ContractViolationError, IntegrabilityError
from .fields import ScalarField, polar_eigenvalue, polar_series
from .harmonics import SolidHarmonic, dim_harmonic, sph_table
from .kernels import multi_indices
from .quadrature import (
    LINE_N,
    RADIAL_N,
    QuadratureRule,
    gauss_hermite,
    gauss_radial,
    radial_rule_compact,
    sphere_rule,
    tensor_rule,
)
from .special_functions import hermite_table, laguerre_fn_table

__all__ = [
    "PolarIndex",
    "SpectralCoefficients",
    "hermite_coeffs",
    "polar_coeffs",
    "project",
    "hecke_bochner",
    "rotation_commutes",
    "coefficient_decay_probe",
    "DecayProbe",
    "parseval_check",
    "field_norm_sq",
    "fd_oscillator_apply",
    "eigen_order_study",
    "default_radial_rules",
]

# Nodes for the compact-support radial rule (per panel).
_COMPACT_N = 48
_COMPACT_PANELS = 6

# Sphere-rule degree of field_norm_sq.
_NORM_SPHERE_DEGREE = 40

# Extra sphere-rule degree beyond the 2*m_max+2 Gram minimum, so fields with
# harmonic content moderately above the truncation still integrate exactly
# (projection below a field's band must see zeros, not aliases).
_SPHERE_BAND_MARGIN = 12


@dataclass(frozen=True)
class PolarIndex:
    """Index (k, s, j) of a polar eigenfunction; eigenvalue n + 2(s + 2k)."""

    k: int
    s: int
    j: int

    def eigenvalue(self, n: int) -> int:
        return polar_eigenvalue(n, self.k, self.s)


@dataclass
class SpectralCoefficients:
    """Expansion coefficients of a field, keyed by multi-index tuples
    (hermite) or (k, s, j) tuples (polar), up to truncation level m_max."""

    n: int
    basis: str
    entries: Dict[tuple, float]
    m_max: int

    def norm_sq(self) -> float:
        return float(sum(v * v for v in self.entries.values()))

    def level_indices(self, m: int) -> list[tuple]:
        if self.basis == "hermite":
            return [a for a in self.entries if sum(a) == m]
        return [(k, s, j) for (k, s, j) in self.entries if s + 2 * k == m]

    def level_norm_sq(self, m: int) -> float:
        return float(sum(self.entries[i] ** 2 for i in self.level_indices(m)))

    def eigenvalue_of(self, index: tuple) -> int:
        if self.basis == "hermite":
            return self.n + 2 * sum(index)
        k, s, _ = index
        return polar_eigenvalue(self.n, k, s)

    def sorted_items(self):
        return sorted(self.entries.items())

    def to_csv(self, target) -> None:
        """Serialize as CSV: basis, index (semicolon-joined), eigenvalue, value."""
        own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
        fh = open(target, "w", encoding="utf-8", newline="\n") if own else target
        try:
            fh.write("basis,index,eigenvalue,value\n")
            for index, value in self.sorted_items():
                joined = ";".join(str(i) for i in index)
                fh.write(f"{self.basis},{joined},{self.eigenvalue_of(index)},{float(value)!r}\n")
        finally:
            if own:
                fh.close()


def hermite_coeffs(f: ScalarField, m_max: int) -> SpectralCoefficients:
    """All <f, h_alpha> with |alpha| <= m_max via a tensor Gauss rule.

    The separable structure of the rule collapses the n-dimensional sums to
    one axis contraction per dimension.
    """
    n = f.n
    if n > 3:
        raise ValueError("hermite coefficient extraction is capped at n <= 3")
    line = gauss_hermite(LINE_N)
    c = f(tensor_rule(line, n).nodes).reshape((len(line.nodes),) * n)
    a = hermite_table(m_max, line.nodes) * line.weights
    # each contraction eats the leading node axis and appends a degree axis,
    # so after n of them the degree axes are back in order
    for _ in range(n):
        c = np.tensordot(c, a, axes=([0], [1]))
    entries = {alpha: float(c[alpha]) for m in range(m_max + 1) for alpha in multi_indices(n, m)}
    return SpectralCoefficients(n, "hermite", entries, m_max)


def default_radial_rules(n: int, support_radius: Optional[float] = None) -> QuadratureRule:
    """The radial rule against r^{n-1} dr used by every polar integral.

    Gaussian-decay fields get the generalized Laguerre-type rule of order
    beta = n/2 - 1, which integrates r^{2s} p(r^2) e^{-r^2} r^{n-1} exactly
    for every harmonic degree s; compactly supported fields get a composite
    Gauss-Legendre rule on [0, R], whose nodes actually cover the support,
    with r^{n-1} folded into its weights.
    """
    if support_radius is None:
        return gauss_radial(RADIAL_N, n / 2.0 - 1.0)
    rule = radial_rule_compact(_COMPACT_N, support_radius, panels=_COMPACT_PANELS)
    return dataclasses.replace(
        rule,
        weights=rule.weights * rule.nodes ** (n - 1),
        domain_tag=f"{rule.domain_tag}*r^{n - 1}",
    )


def polar_coeffs(f: ScalarField, m_max: int) -> SpectralCoefficients:
    """All <f, phi_{k,s,j}> with s + 2k <= m_max.

    f is evaluated once, on the radial x sphere grid of one radial rule.
    For each degree s, F_{s,j}(r) = <f(r .), Y_{s,j}> is formed by sphere
    quadrature at every radial node, then paired with ell_k^{n/2-1+s}
    radially.  The r^{+s} factor of phi_{k,s,j} is folded into the radial
    weight, so no division by a small radius ever happens.
    """
    n = f.n
    if n > 3:
        raise ValueError("polar coefficient extraction needs an explicit basis (n <= 3)")
    sphere = sphere_rule(n, 2 * m_max + 2 + _SPHERE_BAND_MARGIN)
    radial = default_radial_rules(n, f.support_radius)
    r = radial.nodes
    fv = f((r[:, None, None] * sphere.nodes[None, :, :]).reshape(-1, n))
    fv = fv.reshape(len(r), len(sphere.nodes))
    entries: Dict[tuple, float] = {}
    for s, ysph in sph_table(n, m_max, sphere.nodes):
        fsj = fv @ (ysph * sphere.weights).T  # (radial, d_s)
        ell = laguerre_fn_table((m_max - s) // 2, n / 2.0 - 1.0 + s, r)
        coeffs = (ell * (radial.weights * r**s)) @ fsj  # (kmax+1, d_s)
        for (k, j), value in np.ndenumerate(coeffs):
            entries[(k, s, j + 1)] = float(value)
    return SpectralCoefficients(n, "polar", entries, m_max)


def project(
    f: ScalarField,
    m: int,
    basis: str = "polar",
    coeffs: Optional[SpectralCoefficients] = None,
) -> ScalarField:
    """Point-evaluator of the projection of f onto the eigenvalue n + 2m.

    With precomputed coefficients they must cover level m and match the
    basis; otherwise they are extracted here with m_max = m.
    """
    n = f.n
    if coeffs is None:
        coeffs = hermite_coeffs(f, m) if basis == "hermite" else polar_coeffs(f, m)
    if coeffs.basis != basis:
        raise ContractViolationError(f"coefficients are {coeffs.basis}, requested {basis}")
    if coeffs.m_max < m:
        raise ContractViolationError(f"coefficients truncated at {coeffs.m_max} < level {m}")
    if basis == "hermite":
        level = [(a, coeffs.entries[a]) for a in coeffs.level_indices(m)]

        def fn_h(pts):
            out = np.zeros(len(pts))
            if not level:
                return out
            table = hermite_table(m, pts.ravel()).reshape(-1, len(pts), n)
            for alpha, c in level:
                term = np.full(len(pts), c)
                for d, a in enumerate(alpha):
                    term = term * table[a, :, d]
                out += term
            return out

        return ScalarField(n, fn_h, label=f"proj[m={m},hermite]({f.label})")
    if basis != "polar":
        raise ValueError(f"unknown basis {basis!r}")
    matrices = {}  # degree s = m - 2k -> (k, j) matrix, nonzero in row k only
    for k in range(m // 2 + 1):
        s = m - 2 * k
        dim = dim_harmonic(n, s)
        if dim:
            matrices[s] = np.zeros((k + 1, dim))
            matrices[s][k] = [coeffs.entries.get((k, s, j + 1), 0.0) for j in range(dim)]
    label = f"proj[m={m},polar]({f.label})"
    return ScalarField(n, partial(polar_series, n, matrices), label=label)


def hecke_bochner(f0: Callable, solid: SolidHarmonic, big_k: int) -> Tuple[float, ScalarField]:
    """Radial coefficient c = <f0, ell_K^{n/2-1+M}> in L2(r^{n-1+2M} dr) and
    the closed-form field c * ell_K(|x|) Y(x).

    The contract: this field equals the projection of f0(|x|) Y(x) onto the
    eigenvalue n + 2(M + 2K), and the projections at every other level of
    matching data vanish.  The r^{2M} factor is folded into the weights of
    the one radial rule against r^{n-1} dr.  Divergent radial integrands are
    rejected by a node-tail magnitude check.
    """
    n, big_m = solid.n, solid.degree
    beta = n / 2.0 - 1.0 + big_m
    rule = default_radial_rules(n)
    r = rule.nodes
    ell = laguerre_fn_table(big_k, beta, r)[big_k]
    contrib = rule.weights * r ** (2 * big_m) * np.asarray(f0(r), dtype=float) * ell
    scale = max(float(np.abs(contrib).max()), 1e-300)
    tail = float(np.abs(contrib[-3:]).max())
    if tail > 1e-6 * scale:
        raise IntegrabilityError(
            "radial integrand has non-negligible tail contributions; "
            "<f0, ell_K> does not converge on this rule"
        )
    c = float(np.sum(contrib))

    def fn(pts):
        r = np.linalg.norm(pts, axis=1)
        return c * laguerre_fn_table(big_k, beta, r)[big_k] * solid(pts)

    return c, ScalarField(n, fn, label=f"hecke(M={big_m},K={big_k})")


def rotation_commutes(
    f: ScalarField,
    g,
    m: int,
    points=None,
    seed: int = 0,
    extraction_level: Optional[int] = None,
) -> float:
    """Max pointwise discrepancy between projecting f(g .) and rotating the
    projection of f, at level m.  g must be orthogonal to 1e-12.

    Coefficients are extracted at ``extraction_level`` (default m); pass the
    band of f when it exceeds m, so the sphere rule resolves every harmonic
    the field actually carries.
    """
    g = np.asarray(g, dtype=float)
    n = f.n
    if g.shape != (n, n) or np.abs(g.T @ g - np.eye(n)).max() > 1e-12:
        raise ContractViolationError("g must be an orthogonal n x n matrix")
    level = max(m, extraction_level or m)
    rotated = ScalarField(n, lambda p: f(p @ g.T), support_radius=f.support_radius)
    proj_rotated = project(rotated, m, "polar", polar_coeffs(rotated, level))
    proj_plain = project(f, m, "polar", polar_coeffs(f, level))
    if points is None:
        points = np.random.default_rng(seed).uniform(-2.5, 2.5, size=(40, n))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return float(np.abs(proj_rotated(points) - proj_plain(points @ g.T)).max())


@dataclass
class DecayProbe:
    """Decay table rows (eigenvalue, k, s, max_j |coefficient|) and the
    log-log slope fitted over the top half of the eigenvalue range."""

    n: int
    rows: list
    slope: float
    fit_count: int


def coefficient_decay_probe(phi: ScalarField, levels: int) -> DecayProbe:
    """Tabulate max_j |<phi, phi_{k,s,j}>| against the eigenvalue n+2(s+2k)
    for s + 2k <= levels and fit the decay exponent.

    The slope is the least-squares fit of log max|coef| against log lambda
    over the upper half of the eigenvalue range (the constant in the decay
    bound pollutes small eigenvalues).  Rows whose coefficient is exactly
    zero (parity-annihilated channels at n = 1) stay in the table but
    cannot enter the log fit.
    """
    coeffs = polar_coeffs(phi, levels)
    n = phi.n
    by_ks: Dict[Tuple[int, int], float] = {}
    for (k, s, _j), v in coeffs.entries.items():
        key = (k, s)
        by_ks[key] = max(by_ks.get(key, 0.0), abs(v))
    rows = sorted(
        (polar_eigenvalue(n, k, s), k, s, v) for (k, s), v in by_ks.items()
    )
    lams = np.array([r[0] for r in rows], dtype=float)
    vals = np.array([r[3] for r in rows])
    mid = 0.5 * (lams.min() + lams.max())
    keep = (lams >= mid) & (vals > 0)
    if keep.sum() >= 2:
        slope = float(np.polyfit(np.log(lams[keep]), np.log(vals[keep]), 1)[0])
    else:
        slope = math.nan
    return DecayProbe(n, rows, slope, int(keep.sum()))


def parseval_check(f: ScalarField, coeffs: SpectralCoefficients, norm_sq: float) -> float:
    """Defect norm_sq - sum |coefficients|^2; nonnegative up to quadrature
    error and shrinking to zero as the truncation covers the band of f."""
    return float(norm_sq) - coeffs.norm_sq()


def field_norm_sq(f: ScalarField) -> float:
    """Squared L2 norm of f by polar-factorized quadrature."""
    n = f.n
    sphere = sphere_rule(n, _NORM_SPHERE_DEGREE)
    radial = default_radial_rules(n, f.support_radius)
    vals = f((radial.nodes[:, None, None] * sphere.nodes[None, :, :]).reshape(-1, n))
    vals = vals.reshape(len(radial.nodes), len(sphere.nodes))
    return float(radial.weights @ ((vals * vals) @ sphere.weights))


def fd_oscillator_apply(f: ScalarField, points, h: float) -> np.ndarray:
    """(-Laplacian + |x|^2) f at the given points by fourth-order central
    differences (five-point stencil along each axis)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = f.n
    shifts = [pts]
    for d in range(n):
        for step in (h, -h, 2 * h, -2 * h):
            shifted = pts.copy()
            shifted[:, d] += step
            shifts.append(shifted)
    vals = f(np.concatenate(shifts)).reshape(4 * n + 1, len(pts))
    center = vals[0]
    lap = np.zeros(len(pts))
    for d in range(n):
        fp, fmn, fp2, fm2 = vals[1 + 4 * d : 5 + 4 * d]
        lap += (-fp2 + 16 * fp - 30 * center + 16 * fmn - fm2) / (12 * h * h)
    return -lap + np.sum(pts * pts, axis=1) * center


def eigen_order_study(
    f: ScalarField,
    eigenvalue: float,
    points,
    h0: float = 0.2,
    halvings: int = 2,
) -> Tuple[list, list]:
    """Max residual |(-Lap + |x|^2) f - lambda f| under step halving and the
    observed convergence orders between successive steps."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    target = eigenvalue * f(pts)
    residuals = []
    for i in range(halvings + 1):
        h = h0 / 2**i
        residuals.append(float(np.abs(fd_oscillator_apply(f, pts, h) - target).max()))
    orders = [
        math.log2(residuals[i] / residuals[i + 1]) if residuals[i + 1] > 0 else math.inf
        for i in range(halvings)
    ]
    return residuals, orders
