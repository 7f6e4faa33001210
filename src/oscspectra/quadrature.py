"""Gauss-type quadrature rules for every integral the identity suites need:
a Gaussian-weight line rule, generalized radial rules for r^{2 beta + 1} dr
integrals, sphere rules for n in {1, 2, 3}, and tensor assembly on R^n.

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
from scipy.linalg import eigh_tridiagonal

from .errors import ContractViolationError, ResourceLimitError

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

# Default sizes: every identity test in the suite is band-limited enough for
# these to integrate it exactly.
LINE_N = 64
RADIAL_N = 80

_TENSOR_CAP = 10**7


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights with a domain descriptor.

    nodes has shape (npts,) for line/radial rules and (npts, n) for sphere
    and tensor rules.  weights are strictly positive and include the
    reciprocal of the rule's weight function at each node, so that
    ``rule.integrate(f)`` approximates the integral of a raw evaluator f
    against the rule's measure.  Both arrays are read-only views, so a
    memoized rule can be shared by every caller.
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain_tag: str
    exactness_degree: int
    line: Optional["QuadratureRule"] = field(default=None, repr=False)
    ndim: int = 1

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

    def to_csv(self, target) -> None:
        """Serialize as CSV: comment header, then x1[,x2,..],weight rows."""
        own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
        fh = open(target, "w", encoding="utf-8", newline="\n") if own else target
        try:
            pts = self.nodes.reshape(len(self.weights), -1)
            fh.write(f"# domain: {self.domain_tag}\n")
            fh.write(f"# exactness_degree: {self.exactness_degree}\n")
            fh.write(",".join(f"x{d + 1}" for d in range(pts.shape[1])) + ",weight\n")
            for row, w in zip(pts, self.weights):
                fh.write(",".join(repr(float(v)) for v in row) + f",{float(w)!r}\n")
        finally:
            if own:
                fh.close()


def _orthonormal_values(x, a, b, psi0):
    """Orthonormal-function values psi_0..psi_{len(a)} at x.

    psi_k = sqrt(weight) p_k for the orthonormal polynomials p_k of the
    weight, so the polynomial recurrence carries over unchanged:
    b_{k+1} psi_{k+1} = (x - a_k) psi_k - b_k psi_{k-1}, with psi_0 = psi0(x)
    and b = (b_1, .., b_{len(a)}).  The functions stay bounded where the
    weight is tiny, which keeps rules of several hundred nodes finite.
    """
    psi = np.empty((len(a) + 1,) + x.shape)
    psi[0] = psi0(x)
    prev, b_prev = 0.0, 0.0
    for k, (ak, bk) in enumerate(zip(a, b)):
        psi[k + 1] = ((x - ak) * psi[k] - b_prev * prev) / bk
        prev, b_prev = psi[k], bk
    return psi


def _golub_welsch(a, b, psi0):
    """Gauss nodes and weights from the recurrence (a_k, b_{k+1}), k < len(a).

    Nodes: symmetric-tridiagonal eigensolve, then one Newton step on the
    degree-n orthonormal polynomial with the derivative taken from the
    Christoffel-Darboux identity at a zero of p_n,
    delta = b_n psi_n psi_{n-1} / sum_{k<n} psi_k^2.  Weights: the reciprocal
    Christoffel function of the orthonormal *functions*, 1 / sum_{k<n}
    psi_k(x_i)^2, which is the Gauss weight with the weight function divided
    out; no factor e^{x^2} is ever formed.
    """
    nodes, _ = eigh_tridiagonal(a, b[:-1])
    psi = _orthonormal_values(nodes, a, b, psi0)
    nodes = nodes - b[-1] * psi[-1] * psi[-2] / np.sum(psi[:-1] ** 2, axis=0)
    psi = _orthonormal_values(nodes, a[:-1], b[:-1], psi0)
    return nodes, 1.0 / np.sum(psi**2, axis=0)


@lru_cache(maxsize=None)
def gauss_hermite(n: int) -> QuadratureRule:
    """n-point Gauss rule on the line, exact for p(x) e^{-x^2}, deg p <= 2n-1.

    Weights come from the Hermite functions (psi_0 = pi^{-1/4} e^{-x^2/2}),
    so raw Gaussian-decay evaluators integrate against plain dx.
    """
    if n < 1:
        raise ValueError("gauss_hermite requires n >= 1")
    k = np.arange(1.0, n + 1)
    nodes, w = _golub_welsch(
        np.zeros(n), np.sqrt(k / 2.0), lambda x: math.pi**-0.25 * np.exp(-0.5 * x * x)
    )
    # enforce exact symmetry about the origin
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (w + w[::-1])
    return QuadratureRule(nodes, weights, "gauss_hermite_line", 2 * n - 1)


@lru_cache(maxsize=None)
def gauss_radial(n: int, beta: float) -> QuadratureRule:
    """n-point rule for integrals over (0, inf) against r^{2 beta + 1} dr.

    The generalized Gauss-Laguerre rule of parameter beta in t = r^2, with
    weights from the Laguerre functions ell_k^beta(r) of
    ``special_functions`` (psi_0 = sqrt(2 / Gamma(beta+1)) e^{-t/2}, which
    absorbs the Jacobian dt = 2 r dr); exact whenever the integrand equals
    p(r^2) e^{-r^2} with deg p <= 2n-1.
    """
    if n < 1:
        raise ValueError("gauss_radial requires n >= 1")
    beta = float(beta)
    if not beta > -1.0:
        raise ValueError(f"gauss_radial requires beta > -1, got {beta}")
    k = np.arange(1.0, n + 1)
    log_c0 = 0.5 * (math.log(2.0) - math.lgamma(beta + 1.0))
    t, weights = _golub_welsch(
        2 * k - 1 + beta, np.sqrt(k * (k + beta)), lambda t: np.exp(log_c0 - 0.5 * t)
    )
    return QuadratureRule(np.sqrt(t), weights, f"radial(beta={beta:g})", 2 * n - 1)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] (weight function 1)."""
    if n < 1:
        raise ValueError("gauss_legendre requires n >= 1")
    k = np.arange(1.0, n + 1)
    return _golub_welsch(
        np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), lambda x: np.full_like(x, 0.5**0.5)
    )


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


@lru_cache(maxsize=None)
def sphere_rule(n: int, degree: int) -> QuadratureRule:
    """Quadrature on the unit sphere in R^n against surface measure.

    n=1: the exact two-point counting rule on {-1, +1}.
    n=2: uniform (degree+1)-point circle rule, exact through trigonometric
         degree ``degree``.
    n=3: Gauss-Legendre in the polar cosine times uniform azimuth, exact for
         spherical polynomials of degree <= ``degree``.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if n == 1:
        nodes = np.array([[-1.0], [1.0]])
        weights = np.array([1.0, 1.0])
        return QuadratureRule(nodes, weights, "sphere(1)", max(degree, 1), ndim=1)
    if n == 2:
        m = degree + 1
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(m, 2.0 * math.pi / m)
        return QuadratureRule(nodes, weights, "sphere(2)", degree, ndim=2)
    if n == 3:
        nz = (degree + 2) // 2
        nphi = degree + 1
        z, wz = gauss_legendre(nz)
        phi = 2.0 * math.pi * np.arange(nphi) / nphi
        rho = np.sqrt(1.0 - z * z)
        x = np.outer(rho, np.cos(phi)).ravel()
        y = np.outer(rho, np.sin(phi)).ravel()
        zz = np.repeat(z, nphi)
        nodes = np.column_stack([x, y, zz])
        weights = np.repeat(wz * (2.0 * math.pi / nphi), nphi)
        return QuadratureRule(nodes, weights, "sphere(3)", degree, ndim=3)
    raise ValueError(f"sphere_rule supports n in {{1, 2, 3}}, got n={n}")


def tensor_rule(line: QuadratureRule, n: int) -> QuadratureRule:
    """n-fold product of a gauss_hermite line rule; N^n nodes, capped at 1e7."""
    if line.domain_tag != "gauss_hermite_line":
        raise ContractViolationError("tensor_rule requires a gauss_hermite line rule")
    if n < 1:
        raise ValueError("tensor dimension must be >= 1")
    npts = len(line.nodes)
    total = npts**n
    if total > _TENSOR_CAP:
        raise ResourceLimitError(f"tensor rule would have {total} nodes (cap {_TENSOR_CAP})")
    grids = np.meshgrid(*([line.nodes] * n), indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([line.weights] * n), indexing="ij")
    weights = np.ones(total)
    for g in wgrids:
        weights = weights * g.ravel()
    return QuadratureRule(nodes, weights, f"tensor({n})", line.exactness_degree, line=line, ndim=n)
