"""Coefficient extraction, level evaluation and projection in both eigenbases,
the Hecke-Bochner closed form, the rotation-commutation check, Parseval
defects, and the coefficient-decay probe for compactly supported fields.

Functions enter as pure point-evaluators (ScalarField); nothing is gridded.
Hermite coefficients come from a tensor Gauss rule, polar ones from the
polar factorization at every n, with one radial rule order for every
harmonic degree and the sphere contracted along the same recursion in n
that builds the harmonic basis and the sphere rule.
Every rule is sized from the field's declared band and degree, so it
integrates a declared field exactly with the fewest nodes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from types import MappingProxyType
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ._tables import write_table
from .errors import ContractViolationError, IntegrabilityError, ResourceLimitError
from .fields import ScalarField, polar_eigenvalue, polar_levels, polar_series
from .harmonics import SolidHarmonic, _chain, dim_harmonic, sph_table
from .kernels import multi_indices
from .quadrature import (
    _check_size,
    _polar_grid,
    _polar_sphere,
    _TENSOR_CAP,
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
    "SpectralCoefficients",
    "hermite_coeffs",
    "hermite_levels",
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

# Sphere-rule degree of field_norm_sq for a field without a declared band.
_NORM_SPHERE_DEGREE = 40

# Extra sphere-rule degree beyond the 2*m_max+2 Gram minimum for a field
# without a declared band, so harmonic content moderately above the
# truncation still integrates exactly (projection below a field's band must
# see zeros, not aliases).
_SPHERE_BAND_MARGIN = 12


@dataclass
class SpectralCoefficients:
    """Expansion coefficients of a field up to truncation level m_max, kept
    as arrays: a polar table holds one (k, j) matrix per harmonic degree s
    in ``matrices`` (entry (k, j) is <f, phi_{k,s,j+1}>), a Hermite table
    one ``tensor`` of shape (m_max+1,)^n (entry alpha is <f, h_alpha>, zero
    where |alpha| > m_max)."""

    n: int
    basis: str
    m_max: int
    matrices: Optional[Dict[int, np.ndarray]] = dataclasses.field(default=None, repr=False)
    tensor: Optional[np.ndarray] = dataclasses.field(default=None, repr=False)

    @cached_property
    def entries(self) -> Mapping[tuple, float]:
        """Read-only {index: value} view of the arrays, keyed by multi-index
        tuples (Hermite, level by level) or (k, s, j) tuples (polar, degree
        by degree); built on first access."""
        if self.basis == "hermite":
            items = (
                (alpha, float(self.tensor[alpha]))
                for m in range(self.m_max + 1)
                for alpha in multi_indices(self.n, m)
            )
        else:
            items = (
                ((k, s, j + 1), v)
                for s, c in self.matrices.items()
                for (k, j), v in zip(np.ndindex(c.shape), c.ravel().tolist())
            )
        return MappingProxyType(dict(items))

    def norm_sq(self) -> float:
        arrays = [self.tensor] if self.basis == "hermite" else self.matrices.values()
        return float(sum(np.vdot(c, c) for c in arrays))

    def level_indices(self, m: int) -> list[tuple]:
        if not 0 <= m <= self.m_max:
            return []
        if self.basis == "hermite":
            return multi_indices(self.n, m)
        return [
            ((m - s) // 2, s, j + 1)
            for s, c in self.matrices.items()
            if s <= m and (m - s) % 2 == 0
            for j in range(c.shape[1])
        ]

    def to_csv(self, target) -> None:
        """Serialize as CSV: basis, index (semicolon-joined), eigenvalue, value."""
        items = sorted(self.entries.items())
        levels = [sum(i) if self.basis == "hermite" else i[1] + 2 * i[0] for i, _ in items]
        columns = {
            "basis": [self.basis] * len(items),
            "index": [";".join(map(str, i)) for i, _ in items],
            "eigenvalue": [self.n + 2 * level for level in levels],
            "value": [v for _, v in items],
        }
        write_table(target, columns)


def hermite_coeffs(f: ScalarField, m_max: int) -> SpectralCoefficients:
    """All <f, h_alpha> with |alpha| <= m_max via a tensor Gauss rule.

    For f of declared degree D, f h_alpha is a polynomial of degree at most
    D + m_max in each coordinate times e^{-|x|^2}, so floor((D + m_max)/2) + 1
    line nodes integrate it exactly; an undeclared f gets LINE_N.  The
    separable structure of the rule collapses the n-dimensional sums to one
    axis contraction per dimension.  A coefficient tensor of more than
    _TENSOR_CAP entries raises ResourceLimitError before it is allocated.
    """
    n = f.n
    _check_size(f"hermite coefficient tensor to m_max={m_max} at n={n}", (m_max + 1) ** n, _TENSOR_CAP)
    line = gauss_hermite(LINE_N if f.degree is None else (f.degree + m_max) // 2 + 1)
    c = f(tensor_rule(line, n).nodes).reshape((len(line.nodes),) * n)
    a = hermite_table(m_max, line.nodes) * line.weights
    # each contraction eats the leading node axis and appends a degree axis,
    # so after n of them the degree axes are back in order
    for _ in range(n):
        c = np.tensordot(c, a, axes=([0], [1]))
    c[reduce(np.add.outer, [np.arange(m_max + 1)] * n) > m_max] = 0.0
    return SpectralCoefficients(n, "hermite", m_max, tensor=c)


def _hermite_rows(alphas: np.ndarray, top: int, points: np.ndarray) -> np.ndarray:
    """h_alpha(x) = prod_d h_{alpha_d}(x_d) for each row alpha of (N, n)
    alphas, entries <= top, at (npts, n) points: one (N, npts) array from
    one hermite_table."""
    table = hermite_table(top, points.ravel()).reshape(top + 1, *points.shape)
    return reduce(np.multiply, (table[a, :, d] for d, a in enumerate(alphas.T)))


def hermite_levels(tensor: np.ndarray, points) -> np.ndarray:
    """The Hermite expansion level by level at (npts, n) points: row m of the
    (L+1, npts) result is sum_{|alpha|=m} c_alpha h_alpha(x) for a tensor c
    of shape (L+1,)^n, or tensors stacked on leading axes, which give rows
    stacked the same way.  c is gathered over the simplex |alpha| <= L only,
    and all points share one hermite_table; the projection fields of
    ``project`` are fed in blocks by ScalarField."""
    n, top = points.shape[1], tensor.shape[-1] - 1
    alphas = np.array([a for m in range(top + 1) for a in multi_indices(n, m)])
    starts = [math.comb(m + n - 1, n) for m in range(top + 1)]  # #{|alpha| < m}
    c = tensor[(...,) + tuple(alphas.T)][..., None]
    return np.add.reduceat(c * _hermite_rows(alphas, top, points), starts, axis=-2)


@lru_cache(maxsize=None)
def default_radial_rules(
    n: int, support_radius: Optional[float] = None, degree: Optional[int] = None
) -> QuadratureRule:
    """The radial rule against r^{n-1} dr used by every polar integral.

    Gaussian-decay fields get the generalized Laguerre-type rule of order
    beta = n/2 - 1, one rule for every harmonic degree s.  Given the degree
    d of an integrand p(r) e^{-r^2} r^{n-1} with p even, it has
    floor(d/4) + 1 nodes, the fewest that integrate it exactly (p is of
    degree d/2 in t = r^2); without one it has RADIAL_N nodes.  Compactly
    supported fields get a composite Gauss-Legendre rule on [0, R], whose
    nodes actually cover the support, with r^{n-1} folded into its weights;
    a radius whose folded weights leave float64 range raises
    ResourceLimitError.  Memoized like the rule builders, so each (n, R)
    pays for its Legendre eigensolve once.
    """
    if support_radius is None:
        return gauss_radial(RADIAL_N if degree is None else degree // 4 + 1, n / 2.0 - 1.0)
    rule = radial_rule_compact(_COMPACT_N, support_radius, panels=_COMPACT_PANELS)
    with np.errstate(over="ignore", under="ignore"):
        weights = rule.weights * rule.nodes ** (n - 1)
    if not np.all((weights > 0) & (weights < np.inf)):
        raise ResourceLimitError(f"{rule.domain_tag}*r^{n - 1} at n={n}: the weights leave float64 range")
    return dataclasses.replace(rule, weights=weights, domain_tag=f"{rule.domain_tag}*r^{n - 1}")


class _ExtractionOperator(NamedTuple):
    """Everything of polar extraction but the field values, for one pair of
    rules: the weighted harmonic rows of every degree at the nodes of the
    base sphere rule (n = 1 or 2), stacked by degree; per chain level
    3..n, per degree s, the (d_s, nz) factors of the level's z nodes; and
    per degree s the radial rows ell_k * w * r^s.  Every array is read-only."""

    radial: QuadratureRule
    sphere: QuadratureRule
    base: np.ndarray  # (sum_s d_s, N) at the base sphere rule
    levels: Tuple[Tuple[np.ndarray, ...], ...]  # per level, per degree (d_s, nz)
    degrees: Tuple[Tuple[int, np.ndarray], ...]  # (s, (kmax+1, nr))


def _frozen(a: np.ndarray, n: int, m_max: int, what: str) -> np.ndarray:
    """a, read-only, once every entry is checked finite."""
    if not np.all(np.isfinite(a)):
        raise ResourceLimitError(f"polar extraction at n={n}, m_max={m_max}: {what} leave float64 range")
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _extraction_operator(
    n: int, m_max: int, sphere_degree: int, support_radius: Optional[float], radial_degree: Optional[int]
) -> _ExtractionOperator:
    """The polar extraction operator on sphere_rule(n, sphere_degree) and
    default_radial_rules(n, support_radius, radial_degree), built once per
    key and shared by every field extracted on those rules.  The grid size
    is checked before the sphere rule is built.  A stage that leaves float64
    (r^s overflowing where ell_k has underflowed) raises ResourceLimitError
    instead of handing out NaN coefficients.

    A chain level's factor row for a harmonic Q_{s-l}(x) h(x') is
    w_z Q_{s-l}(z) (1-z^2)^{l/2} at its z nodes: the chain step run on unit
    points with (1-z^2)^{l/2} in place of the rows of h, since h(x') is
    (1-z^2)^{l/2} times h at the unit node of the lower sphere."""
    radial = default_radial_rules(n, support_radius, radial_degree)
    sphere = _polar_sphere(radial, n, sphere_degree)
    plane = sphere_rule(min(n, 2), sphere_degree)
    base = np.concatenate([y for _s, y in sph_table(min(n, 2), m_max, plane.nodes)])
    base = _frozen(base * plane.weights, n, m_max, "the base harmonic rows")
    levels = []
    for k in range(3, n + 1):
        z, wz = sphere_rule(k, sphere_degree).line.nodes, sphere_rule(k, sphere_degree).line.weights
        lower = ((s, np.broadcast_to((1.0 - z * z) ** (s / 2), (dim_harmonic(k - 1, s), len(z)))) for s in range(m_max + 1))
        levels.append(tuple(_frozen(q * wz, n, m_max, f"the level-{k} factors") for _s, q in _chain(k, z, 1.0, lower)))
    r, degrees = radial.nodes, []
    for s in filter(partial(dim_harmonic, n), range(m_max + 1)):
        ell = laguerre_fn_table((m_max - s) // 2, n / 2.0 - 1.0 + s, r)
        with np.errstate(over="ignore", invalid="ignore"):
            rad = ell * (radial.weights * r**s)
        degrees.append((s, _frozen(rad, n, m_max, f"the radial rows of degree s={s}")))
    return _ExtractionOperator(radial, sphere, base, tuple(levels), tuple(degrees))


def polar_coeffs(f: ScalarField, m_max: int) -> SpectralCoefficients:
    """All <f, phi_{k,s,j}> with s + 2k <= m_max.

    f is evaluated once, on the radial x sphere grid of one radial rule.
    F_{s,j}(r) = <f(r .), Y_{s,j}> follows the sphere rule's recursion in
    n.  One matrix product of the field values against the weighted rows of
    every degree at the base nodes (n <= 2) gives the inner products on the
    base sphere.  Each chain level k = 3..n then contracts its z nodes: the
    degree-s harmonics of R^k are the rows Q_{s-l}(x) h(x') over l <= s, so
    their inner products are the first d_s rows of the level below, each
    against its factor row, one batched matvec per degree.  F is then paired
    with ell_k^{n/2-1+s} radially; the r^{+s} factor of phi_{k,s,j} is
    folded into the radial weight, so no division by a small radius ever
    happens.  Everything but the field values depends only on the two
    rules, so it is one memoized read-only operator (_extraction_operator):
    a call is one field evaluation, one product per level and degree, and
    one radial product per degree.

    Rules are sized from the field's declarations.  The sphere degree is
    f.band + m_max, so f integrates exactly against every Y_{s,j} with
    s <= m_max; without a band it is 2 m_max + 2 + _SPHERE_BAND_MARGIN.  For
    f of degree D, f phi_{k,s,j} is a polynomial of degree at most D + m_max
    times e^{-|x|^2}, which the radial rule for that degree integrates
    exactly (see default_radial_rules).  Past float64 range (r^s
    overflowing, from m_max of about 260 at n = 2, 3) or a grid of more
    than 1e7 points it raises ResourceLimitError.
    """
    n = f.n
    degree = 2 * m_max + 2 + _SPHERE_BAND_MARGIN if f.band is None else f.band + m_max
    radial_degree = None if f.degree is None else f.degree + m_max
    op = _extraction_operator(n, m_max, degree, f.support_radius, radial_degree)
    fv = f(_polar_grid(op.radial, op.sphere))
    g = op.base @ fv.reshape(-1, op.base.shape[1]).T
    # each level contracts the innermost remaining z axis of the grid, each
    # degree's batched matvec writing its rows of one preallocated output
    for factors in op.levels:
        g = g.reshape(len(g), -1, factors[0].shape[1])
        out = np.empty((sum(map(len, factors)), g.shape[1], 1))
        for q, stop in zip(factors, np.cumsum([len(q) for q in factors])):
            np.matmul(g[: len(q)], q[:, :, None], out=out[stop - len(q) : stop])
        g = out[:, :, 0]
    rows = np.split(g, np.cumsum([dim_harmonic(n, s) for s, _ in op.degrees[:-1]]))
    matrices = {s: rad @ y.T for (s, rad), y in zip(op.degrees, rows)}  # (kmax+1, d_s)
    return SpectralCoefficients(n, "polar", m_max, matrices=matrices)


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
        # the |alpha| = m face of the gather hermite_levels makes over the simplex
        face = np.array(multi_indices(n, m))
        c = coeffs.tensor[tuple(face.T)]
        fn = lambda pts: c @ _hermite_rows(face, m, pts)
    elif basis == "polar":
        # degrees s = m - 2k cut at row k: the top level is m, or a zero row if none
        matrices = {s: c[: (m - s) // 2 + 1] for s, c in coeffs.matrices.items() if s <= m and (m - s) % 2 == 0}
        fn = lambda pts: polar_levels(n, matrices, pts)[-1]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return ScalarField(n, fn, label=f"proj[m={m},{basis}]({f.label})", band=m, degree=m)


def hecke_bochner(f0: Callable, solid: SolidHarmonic, big_k: int) -> Tuple[float, ScalarField]:
    """Radial coefficient c = <f0, ell_K^{n/2-1+M}> in L2(r^{n-1+2M} dr) and
    the closed-form field c * ell_K(|x|) Y(x), a polar series whose one
    nonzero row K is c times the coefficients of Y.

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
    matrix = np.zeros((big_k + 1, len(solid.coeffs)))
    matrix[big_k] = c * solid.coeffs
    fn = partial(polar_series, n, {big_m: matrix})
    label = f"hecke(M={big_m},K={big_k})"
    return c, ScalarField(n, fn, label=label, band=big_m, degree=big_m + 2 * big_k)


def rotation_commutes(f: ScalarField, g, m: int, points=None, seed: int = 0) -> float:
    """Max pointwise discrepancy, over every Hermite level <= m, between
    projecting f(g .) and rotating the projection of f, for g an orthogonal (n, n)
    matrix or a stack of them, each orthogonal to 1e-12.  The rotated fields
    keep the declarations of f, so their rules resolve everything f carries.
    Each side reads hermite_levels once, over every map at once.
    """
    n = f.n
    maps = np.asarray(g, dtype=float)
    maps = maps[None] if maps.ndim == 2 else maps
    if not len(maps) or maps.shape[1:] != (n, n) or np.abs(maps.swapaxes(1, 2) @ maps - np.eye(n)).max() > 1e-12:
        raise ContractViolationError("g must be an orthogonal n x n matrix or a stack of them")
    if points is None:
        points = np.random.default_rng(seed).uniform(-2.5, 2.5, size=(40, n))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rotated = [dataclasses.replace(f, fn=lambda p, q=q: f(p @ q.T), label="") for q in maps]
    lhs = hermite_levels(np.stack([hermite_coeffs(h, m).tensor for h in rotated]), points)
    rhs = hermite_levels(hermite_coeffs(f, m).tensor, np.concatenate([points @ q.T for q in maps]))
    return float(np.abs(lhs - rhs.reshape(-1, len(maps), len(points)).swapaxes(0, 1)).max())


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
    n = phi.n
    rows = sorted(
        (polar_eigenvalue(n, k, s), k, s, v)
        for s, c in polar_coeffs(phi, levels).matrices.items()
        for k, v in enumerate(np.abs(c).max(axis=1).tolist())
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
    """Squared L2 norm of f by polar-factorized quadrature, exact for a
    field that declares its band and degree: f^2 has band 2 band(f) on
    spheres and degree 2 deg(f)."""
    n = f.n
    radial = default_radial_rules(n, f.support_radius, None if f.degree is None else 2 * f.degree)
    sphere = _polar_sphere(radial, n, _NORM_SPHERE_DEGREE if f.band is None else 2 * f.band)
    vals = f(_polar_grid(radial, sphere)).reshape(len(radial.nodes), len(sphere.nodes))
    return float(radial.weights @ ((vals * vals) @ sphere.weights))


def _fd_oscillator(f: ScalarField, pts: np.ndarray, steps) -> Tuple[np.ndarray, np.ndarray]:
    """f at pts and (-Laplacian + |x|^2) f at pts for each step h by
    fourth-order central differences (five-point stencil along each axis),
    from one evaluation of f on pts and the stencils of every step."""
    n, h = f.n, np.asarray(steps, dtype=float)
    # shifts (step, axis d, offset h, -h, 2h, -2h along d, point, coordinate)
    offsets = np.multiply.outer(h, [1.0, -1.0, 2.0, -2.0])[:, None, :, None, None]
    shifts = pts + offsets * np.eye(n)[None, :, None, None, :]
    vals = f(np.concatenate([pts, shifts.reshape(-1, n)])).reshape(1 + 4 * n * len(h), len(pts))
    center, (fp, fmn, fp2, fm2) = vals[0], np.moveaxis(vals[1:].reshape(len(h), n, 4, len(pts)), 2, 0)
    lap = ((-fp2 + 16 * fp - 30 * center + 16 * fmn - fm2) / (12 * h * h)[:, None, None]).sum(axis=1)
    return center, -lap + np.sum(pts * pts, axis=1) * center


def fd_oscillator_apply(f: ScalarField, points, h: float) -> np.ndarray:
    """(-Laplacian + |x|^2) f at the given points by fourth-order central
    differences (five-point stencil along each axis)."""
    return _fd_oscillator(f, np.atleast_2d(np.asarray(points, dtype=float)), [h])[1][0]


def eigen_order_study(
    f: ScalarField,
    eigenvalue: float,
    points,
    h0: float = 0.2,
    halvings: int = 2,
) -> Tuple[list, list]:
    """Max residual |(-Lap + |x|^2) f - lambda f| under step halving and the
    observed convergence orders between successive steps, from one f call."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    center, applied = _fd_oscillator(f, pts, [h0 / 2**i for i in range(halvings + 1)])
    target = eigenvalue * center
    residuals = [float(np.abs(a - target).max()) for a in applied]
    orders = [
        math.log2(residuals[i] / residuals[i + 1]) if residuals[i + 1] > 0 else math.inf
        for i in range(halvings)
    ]
    return residuals, orders
