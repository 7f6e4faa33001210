"""Gauss-type quadrature rules for every integral the identity suites need:
a Gaussian-weight line rule, generalized radial rules for r^{2 beta + 1} dr
integrals, sphere rules for every n (a Gauss-Gegenbauer rule in the last
coordinate times the sphere rule one dimension down), and tensor assembly
on R^n.

Convention: integrands are supplied with their Gaussian factor included and
the rules divide the weight function out, so applying a rule to a raw
evaluator approximates the integral against the rule's plain measure (dx on
the line and on R^n, r^{2 beta + 1} dr radially, dsigma on the sphere).
This avoids double-counting exp(-r^2) between Laguerre-type functions and
the weight.  Line and radial weights come straight from the orthonormal
Hermite and Laguerre *functions*, 1 / sum_k psi_k(x_i)^2, never as a tiny
Gauss weight times e^{x^2}, so rules of several hundred nodes stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from ._tables import write_table
from .errors import ContractViolationError, ResourceLimitError
from .special_functions import (
    _gegenbauer_family,
    _hermite_family,
    _laguerre_family,
    _orthonormal_table,
)

__all__ = [
    "QuadratureRule",
    "gauss_hermite",
    "gauss_radial",
    "gauss_legendre",
    "radial_rule_compact",
    "sphere_rule",
    "tensor_rule",
    "LINE_N",
    "RADIAL_N",
]

# Sizes for fields that declare no Gaussian-polynomial degree (gridded and
# hand-built fields); a declared degree sizes each rule exactly instead.
LINE_N = 64
RADIAL_N = 80

# The one cap on the size of what is allocated at once: the nodes of a
# sphere or tensor rule or a radial x sphere grid, the Hermite coefficient
# tensor, a list of multi-indices, and a span matrix (rows x monomials).
_TENSOR_CAP = 10**7

# Largest rules whose full Gram check (every psi_j psi_k, j, k < N) passes
# to 1e-12; past them psi_0 underflows at the outer nodes and the Gram or
# the weights break down (beta = n/2 - 1 for n <= 3 on the radial side; a
# larger beta can break down below the cap, which gauss_radial refuses).
_LINE_CAP = 744
_RADIAL_CAP = 382


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights with a domain descriptor.

    nodes has shape (npts,) for line/radial rules and (npts, n) for sphere
    and tensor rules.  weights are strictly positive and include the
    reciprocal of the rule's weight function at each node, so that
    ``rule.integrate(f)`` approximates the integral of a raw evaluator f
    against the rule's measure.  Both arrays are read-only views, so a
    memoized rule can be shared by every caller.  A product rule keeps its
    one-dimensional factor in ``line`` (tensor_rule, sphere_rule).
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain_tag: str
    exactness_degree: int
    line: Optional["QuadratureRule"] = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("node/weight length mismatch")
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError(f"weights must be positive and finite ({self.domain_tag})")
        for name in ("nodes", "weights"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def integrate(self, fn: Callable) -> float:
        vals = np.asarray(fn(self.nodes), dtype=float)
        return float(self.weights @ vals)

    def _table(self):
        """Columns x1[,x2,..],weight and the domain and exactness comments."""
        pts = self.nodes.reshape(len(self.weights), -1)
        columns = {f"x{d + 1}": pts[:, d] for d in range(pts.shape[1])}
        columns["weight"] = self.weights
        return columns, (f"domain: {self.domain_tag}", f"exactness_degree: {self.exactness_degree}")

    def to_csv(self, target) -> None:
        """Serialize as CSV: comment header, then x1[,x2,..],weight rows."""
        write_table(target, *self._table())


def _golub_welsch(a, b, psi0):
    """Gauss nodes and weights of the orthonormal family (a, b, psi0).

    Nodes: eigenvalues of the symmetric tridiagonal Jacobi matrix (numpy's
    dense solver, which reads its lower triangle), then one Newton step on the
    degree-n orthonormal polynomial with the derivative taken from the
    Christoffel-Darboux identity at a zero of p_n,
    delta = b_n psi_n psi_{n-1} / sum_{k<n} psi_k^2.  Weights: the reciprocal
    Christoffel function of the orthonormal *functions*, 1 / sum_{k<n}
    psi_k(x_i)^2, which is the Gauss weight with the weight function divided
    out; no factor e^{x^2} is ever formed.
    """
    nodes = np.linalg.eigvalsh(np.diag(a) + np.diag(b[:-1], -1))
    psi = _orthonormal_table(nodes, a, b, psi0)
    nodes = nodes - b[-1] * psi[-1] * psi[-2] / np.sum(psi[:-1] ** 2, axis=0)
    psi = _orthonormal_table(nodes, a[:-1], b[:-1], psi0)
    return nodes, 1.0 / np.sum(psi**2, axis=0)


def _check_size(name: str, n: int, cap: int) -> None:
    """Refuse an object of n nodes or entries unless 1 <= n <= cap, before
    it is allocated."""
    if n < 1:
        raise ValueError(f"{name} requires n >= 1")
    if n > cap:
        raise ResourceLimitError(f"{name} of size {n} exceeds the cap {cap}")


@lru_cache(maxsize=None)
def gauss_hermite(n: int) -> QuadratureRule:
    """n-point Gauss rule on the line, exact for p(x) e^{-x^2}, deg p <= 2n-1;
    its weights come from the Hermite functions, so raw evaluators integrate
    against plain dx."""
    _check_size("gauss_hermite", n, _LINE_CAP)
    nodes, w = _golub_welsch(*_hermite_family(n))
    # enforce exact symmetry about the origin
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (w + w[::-1])
    return QuadratureRule(nodes, weights, "gauss_hermite_line", 2 * n - 1)


@lru_cache(maxsize=None)
def gauss_radial(n: int, beta: float) -> QuadratureRule:
    """n-point rule for integrals over (0, inf) against r^{2 beta + 1} dr:
    the generalized Gauss-Laguerre rule of order beta in t = r^2, weighted
    by the Laguerre functions ell_k^beta(r), exact for p(r^2) e^{-r^2} with
    deg p <= 2n-1.  Where psi_0 underflows at the outer nodes below the
    node cap (large beta), the rule is refused with ResourceLimitError."""
    _check_size("gauss_radial", n, _RADIAL_CAP)
    with np.errstate(divide="ignore", invalid="ignore"):
        t, weights = _golub_welsch(*_laguerre_family(n, beta))
    if not (np.isfinite(t).all() and np.isfinite(weights).all()):
        raise ResourceLimitError(f"gauss_radial of {n} nodes breaks down in float64 at beta={float(beta):g}")
    return QuadratureRule(np.sqrt(t), weights, f"radial(beta={float(beta):g})", 2 * n - 1)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] (weight function 1)."""
    _check_size("gauss_legendre", n, _LINE_CAP)
    return _golub_welsch(*_gegenbauer_family(n, 0.5))


def radial_rule_compact(n: int, radius: float, panels: int = 4) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [0, radius] against plain dr.

    Used for coefficient extraction of compactly supported fields, where the
    Laguerre-weight rule places its nodes far outside the support.  Radial
    measure factors such as r^{n-1} are applied by the caller.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    x, w = gauss_legendre(n)
    edges = np.linspace(0.0, radius, panels + 1)
    nodes = np.concatenate([(0.5 * (b - a)) * x + 0.5 * (a + b) for a, b in zip(edges, edges[1:])])
    weights = np.concatenate([(0.5 * (b - a)) * w for a, b in zip(edges, edges[1:])])
    return QuadratureRule(nodes, weights, f"radial_compact(R={radius:g})", 2 * n - 1)


def _sphere_size(n: int, degree: int) -> int:
    """Node count of sphere_rule(n, degree), known before it is built."""
    return 2 if n == 1 else (degree + 1) * (degree // 2 + 1) ** (n - 2)


@lru_cache(maxsize=None)
def sphere_rule(n: int, degree: int) -> QuadratureRule:
    """Quadrature on the unit sphere in R^n against surface measure, exact
    for spherical polynomials of degree <= ``degree``.

    The bases are the two points {-1, +1} at n = 1 and nphi = degree + 1
    uniform azimuths (cos phi_i, sin phi_i), phi_i = 2 pi i / nphi, at n = 2.
    For n >= 3, dsigma_n = (1-z^2)^{(n-3)/2} dz dsigma_{n-1} with z the last
    coordinate: the rule is the nz = degree // 2 + 1 point Gauss-Gegenbauer
    rule of lam = (n-2)/2 in z, kept in ``line``, times sphere_rule(n-1,
    degree) scaled by sqrt(1-z^2).  Node iz * N + i is node i of the lower
    rule (N nodes) so scaled, with z_iz appended, and its weight is the
    product of the two weights.  More than 1e7 nodes is a resource-cap
    error, raised before any node is built.
    """
    if n < 1 or degree < 0:
        raise ValueError(f"sphere_rule needs n >= 1 and degree >= 0, got n={n}, degree={degree}")
    _check_size("sphere_rule", _sphere_size(n, degree), _TENSOR_CAP)
    if n == 1:
        return QuadratureRule(np.array([[-1.0], [1.0]]), np.ones(2), "sphere(1)", max(degree, 1))
    if n == 2:
        phi = 2.0 * math.pi * np.arange(degree + 1) / (degree + 1)
        weights = np.full(degree + 1, 2.0 * math.pi / (degree + 1))
        return QuadratureRule(np.column_stack([np.cos(phi), np.sin(phi)]), weights, "sphere(2)", degree)
    nz, lower = degree // 2 + 1, sphere_rule(n - 1, degree)
    _check_size("gauss_gegenbauer", nz, _LINE_CAP)
    line = QuadratureRule(*_golub_welsch(*_gegenbauer_family(nz, (n - 2) / 2.0)), f"gauss_gegenbauer({n})", 2 * nz - 1)
    z = line.nodes[:, None, None]
    scaled = np.sqrt(1.0 - z * z) * lower.nodes
    nodes = np.concatenate([scaled, np.broadcast_to(z, scaled.shape[:2] + (1,))], axis=2)
    return QuadratureRule(nodes.reshape(-1, n), np.outer(line.weights, lower.weights).ravel(), f"sphere({n})", degree, line=line)


def tensor_rule(line: QuadratureRule, n: int) -> QuadratureRule:
    """n-fold product of a gauss_hermite line rule; N^n nodes, capped at 1e7.
    Memoized on (N, n), so every caller shares one rule and its read-only
    arrays."""
    if line.domain_tag != "gauss_hermite_line":
        raise ContractViolationError("tensor_rule requires a gauss_hermite line rule")
    return _tensor_rule(len(line.nodes), n)


@lru_cache(maxsize=None)
def _tensor_rule(size: int, n: int) -> QuadratureRule:
    if n < 1:
        raise ValueError("tensor dimension must be >= 1")
    total = size**n
    _check_size("tensor_rule", total, _TENSOR_CAP)
    line = gauss_hermite(size)
    grids = np.meshgrid(*([line.nodes] * n), indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([line.weights] * n), indexing="ij")
    weights = np.ones(total)
    for g in wgrids:
        weights = weights * g.ravel()
    return QuadratureRule(nodes, weights, f"tensor({n})", line.exactness_degree, line=line)


def _polar_sphere(radial: QuadratureRule, n: int, degree: int) -> QuadratureRule:
    """sphere_rule(n, degree) for a radial x sphere product with ``radial``,
    refused before the sphere rule is built when the product grid would pass
    1e7 points."""
    _check_size("radial x sphere grid", len(radial.nodes) * _sphere_size(n, degree), _TENSOR_CAP)
    return sphere_rule(n, degree)


def _polar_grid(radial: QuadratureRule, sphere: QuadratureRule) -> np.ndarray:
    """The (npts, n) points r_i omega_j of a radial x _polar_sphere product, radial-major."""
    return (radial.nodes[:, None, None] * sphere.nodes[None, :, :]).reshape(len(radial.nodes) * len(sphere.nodes), -1)
