"""Identity suites behind the ``verify`` command: every certified identity
is measured and compared against a central tolerance table, one report row
per check, tagged with the identity it instantiates.

Tags: bb (eigen-relation), zon (zonal addition/reproducing), aa (Parseval,
orthonormality), eq (kernel equality, polynomial-span coincidence), com
(rotation commutation), Th (Hecke-Bochner and polar factorization), est
(coefficient decay), oone (one-dimensional two-branch reduction), dims
(dimension bookkeeping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from . import fields as fl
from . import polyspaces as ps
from .harmonics import dim_harmonic, sph_basis, sph_table, zonal
from .kernels import phi_direct_values, phi_polar_values
from .projections import (
    coefficient_decay_probe,
    default_radial_rules,
    eigen_order_study,
    field_norm_sq,
    hecke_bochner,
    parseval_check,
    polar_coeffs,
    project,
)
from .quadrature import gauss_hermite, sphere_rule, tensor_rule
from .special_functions import laguerre_fn_table

__all__ = ["CheckRow", "DEFAULT_TOLERANCES", "run_suite", "polar_gram_defect"]

DEFAULT_TOLERANCES: Dict[str, float] = {
    "eq": 1e-8,            # kernel equality, relative
    "eq_spans": 1e-10,     # span SVD threshold and inclusion residual
    "zon": 1e-10,          # addition theorem defect
    "zon_reproduce": 1e-9, # reproducing property defect
    "aa_gram": 1e-10,      # polar-basis Gram vs identity
    "aa_parseval": 1e-9,   # Parseval defect for band-limited fields
    "aa_bessel": 1e-12,    # allowed uphill wobble in the bump defect
    "bb_order": 3.5,       # observed FD convergence order (lower bound)
    "com": 1e-8,           # rotation commutation discrepancy
    "th": 1e-8,            # Hecke-Bochner closed form vs projection
    "th_offpattern": 1e-10,
    "ble": 1e-9,           # polar factorization, equal harmonic degrees
    "ble_cross": 1e-10,    # polar factorization, mismatched degrees
    "est_slope": -3.0,     # bump decay slope (upper bound)
    "oone": 1e-12,         # n=1 two-branch reduction
    "dims": 0.0,           # exact integer identity
}


@dataclass(frozen=True)
class CheckRow:
    identity: str
    detail: str
    n: int
    measured: float
    bound: float
    cmp: str  # "<=", ">=", or ">"
    passed: bool


def _row(identity, detail, n, measured, bound, cmp="<=") -> CheckRow:
    measured = float(measured)
    if cmp == "<=":
        ok = measured <= bound
    elif cmp == ">=":
        ok = measured >= bound
    elif cmp == ">":
        ok = measured > bound
    else:
        raise ValueError(f"unknown comparison {cmp!r}")
    return CheckRow(identity, detail, n, measured, float(bound), cmp, bool(ok))


def check_kernel_equality(n, m_max, seed, tol, trials=50) -> CheckRow:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in range(m_max + 1):
        x = rng.uniform(-3.0, 3.0, size=(trials, n))
        y = rng.uniform(-3.0, 3.0, size=(trials, n))
        d = phi_direct_values(n, m, x, y)
        p = phi_polar_values(n, m, x, y)
        worst = max(worst, float((np.abs(d - p) / (1.0 + np.abs(d))).max()))
    return _row("eq", f"kernel equality, m<={m_max}, {trials} pairs", n, worst, tol)


def check_spans(n, m_max, tol) -> CheckRow:
    cap = min(m_max, 8)
    worst = 0.0
    all_equal = True
    for m in range(cap + 1):
        a = ps.hermite_span(n, m)
        b = ps.laguerre_harmonic_span(n, m)
        all_equal &= ps.spans_equal(a, b, tol).equal
        for row_vec in b.matrix:
            sol, *_ = np.linalg.lstsq(a.matrix.T, row_vec, rcond=None)
            res = np.abs(a.matrix.T @ sol - row_vec).max()
            worst = max(worst, res / max(np.abs(row_vec).max(), 1.0))
    measured = worst if all_equal else math.inf
    return _row("eq", f"polynomial-span coincidence, m<={cap}", n, measured, tol)


def check_addition_theorem(n, s_max, seed, tol, pairs=100) -> CheckRow:
    rng = np.random.default_rng(seed)
    worst = 0.0
    degrees = [s for s in range(s_max + 1) if dim_harmonic(n, s)]
    for s in degrees:
        basis = sph_basis(n, s)
        a = rng.standard_normal((pairs, n))
        a /= np.linalg.norm(a, axis=1)[:, None]
        b = rng.standard_normal((pairs, n))
        b /= np.linalg.norm(b, axis=1)[:, None]
        lhs = np.einsum("jp,jp->p", basis.evaluate_all(a), basis.evaluate_all(b))
        rhs = zonal(n, s, np.sum(a * b, axis=1))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _row("zon", f"addition theorem, s<={degrees[-1]}, {pairs} pairs", n, worst, tol)


def check_reproducing(n, s_max, seed, tol) -> CheckRow:
    rng = np.random.default_rng(seed)
    worst = 0.0
    degrees = [s for s in range(s_max + 1) if dim_harmonic(n, s)]
    rule = sphere_rule(n, 2 * degrees[-1] + 2)
    for s in degrees:
        basis = sph_basis(n, s)
        yvals = basis.evaluate_all(rule.nodes)
        poles = rng.standard_normal((8, n))
        poles /= np.linalg.norm(poles, axis=1)[:, None]
        zmat = zonal(n, s, np.clip(poles @ rule.nodes.T, -1, 1))  # (poles, nodes)
        recon = zmat * rule.weights @ yvals.T  # (poles, dim)
        direct = basis.evaluate_all(poles).T
        worst = max(worst, float(np.abs(recon - direct).max()))
    return _row("zon", f"reproducing property, s<={degrees[-1]}", n, worst, tol)


def polar_gram_defect(n, level_cap) -> float:
    """Max entrywise deviation from identity of the polar-basis Gram over
    all indices with s + 2k <= level_cap, via polar-factorized quadrature.

    Index order is (s, k, j).  Each (s1, s2) block is the Kronecker product
    of a radial Gram, on the one radial rule with r^{s1+s2} folded into its
    weights, and a sphere Gram of the two harmonic bases.  r^{s1+s2} is a
    polynomial in r^2 unless s1 + s2 is odd, where the sphere Gram vanishes.
    """
    degrees = [s for s in range(level_cap + 1) if dim_harmonic(n, s)]
    sphere = sphere_rule(n, 2 * degrees[-1] + 2)
    radial = default_radial_rules(n)
    r = radial.nodes
    ys = dict(sph_table(n, degrees[-1], sphere.nodes))
    ells = {s: laguerre_fn_table((level_cap - s) // 2, n / 2.0 - 1.0 + s, r) for s in degrees}

    def block(s1, s2):
        rad = (ells[s1] * (radial.weights * r ** (s1 + s2))) @ ells[s2].T
        return np.kron(rad, (ys[s1] * sphere.weights) @ ys[s2].T)

    gram = np.block([[block(s1, s2) for s2 in degrees] for s1 in degrees])
    return float(np.abs(gram - np.eye(len(gram))).max())


def check_polar_gram(n, level_cap, tol) -> CheckRow:
    cap = min(level_cap, 8)
    defect = polar_gram_defect(n, cap)
    return _row("aa", f"polar-basis Gram identity, s+2k<={cap}", n, defect, tol)


def check_parseval_bandlimited(n, seed, tol) -> CheckRow:
    rng = np.random.default_rng(seed)
    f, true_coeffs = fl.random_band_limited(n, 6, rng)
    coeffs = polar_coeffs(f, 6)
    defect = parseval_check(f, coeffs, field_norm_sq(f))
    return _row("aa", "Parseval defect, band-limited field", n, abs(defect), tol)


def check_parseval_cross_basis(n, seed, tol) -> CheckRow:
    rng = np.random.default_rng(seed)
    gamma = tuple(int(v) for v in rng.integers(0, 3, size=n))
    f = fl.hermite_eigenfield(gamma)
    coeffs = polar_coeffs(f, sum(gamma))
    defect = parseval_check(f, coeffs, field_norm_sq(f))
    return _row("aa", f"cross-basis Parseval, h_{gamma}", n, abs(defect), tol)


def check_bessel_monotone(n, tol) -> CheckRow:
    bump = fl.bump_field(n)
    norm_sq = field_norm_sq(bump)
    defects = []
    for m_max in (2, 4, 6, 8, 10, 12):
        coeffs = polar_coeffs(bump, m_max)
        defects.append(parseval_check(bump, coeffs, norm_sq))
    uphill = max(
        (defects[i + 1] - defects[i] for i in range(len(defects) - 1)), default=0.0
    )
    return _row("aa", "bump Parseval defect monotone in truncation", n, max(uphill, 0.0), tol)


def check_eigen_orders(n, level_cap, seed, bound) -> CheckRow:
    rng = np.random.default_rng(seed)
    cap = min(level_cap, 8)
    worst = math.inf
    for s in range(cap + 1):
        if not dim_harmonic(n, s):
            continue
        for k in range((cap - s) // 2 + 1):
            j = int(rng.integers(1, sph_basis(n, s).dim + 1))
            phi = fl.polar_eigenfield(n, k, s, j)
            pts = rng.uniform(-1.5, 1.5, size=(20, n))
            _, orders = eigen_order_study(phi, fl.polar_eigenvalue(n, k, s), pts)
            worst = min(worst, min(orders))
    return _row("bb", f"FD eigen-relation order, s+2k<={cap}", n, worst, bound, cmp=">=")


def check_rotation(n, m_cap, seed, tol, count=10, reflections=3) -> CheckRow:
    rng = np.random.default_rng(seed)
    band = min(m_cap, 6)
    f, _ = fl.random_band_limited(n, band, rng)
    coeffs_f = polar_coeffs(f, band)
    pts = rng.uniform(-2.5, 2.5, size=(40, n))
    worst = 0.0
    for i in range(count):
        mat = rng.standard_normal((n, n))
        q, r = np.linalg.qr(mat)
        q = q * np.sign(np.diag(r))
        if i < reflections:
            q[0] = -q[0]
        rotated = fl.ScalarField(n, lambda p: f(p @ q.T))
        coeffs_rot = polar_coeffs(rotated, band)
        for m in range(band + 1):
            lhs = project(rotated, m, "polar", coeffs_rot)(pts)
            rhs = project(f, m, "polar", coeffs_f)(pts @ q.T)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _row("com", f"rotation commutation, {count} maps incl. reflections", n, worst, tol)


def check_hecke(n, m_cap, seed, tol, tol_off) -> tuple[CheckRow, CheckRow]:
    rng = np.random.default_rng(seed)
    big_m_max = max(s for s in range(min(4, m_cap) + 1) if dim_harmonic(n, s))
    worst = 0.0
    worst_off = 0.0
    pts_rng = np.random.default_rng(seed + 1)
    for big_m in range(big_m_max + 1):
        solid = fl.random_solid_harmonic(n, big_m, rng)
        f = fl.radial_harmonic_field(fl.f0_gauss_poly, solid)
        level_top = big_m + 2 * 3
        coeffs = polar_coeffs(f, level_top + 2)
        pts = pts_rng.uniform(-2.0, 2.0, size=(20, n))
        for big_k in range(4):
            _, closed = hecke_bochner(fl.f0_gauss_poly, solid, big_k)
            proj = project(f, big_m + 2 * big_k, "polar", coeffs)
            worst = max(worst, float(np.abs(closed(pts) - proj(pts)).max()))
        for m in range(level_top + 3):
            if m < big_m or (m - big_m) % 2:
                off = project(f, m, "polar", coeffs) if m <= coeffs.m_max else None
                if off is not None:
                    worst_off = max(worst_off, float(np.abs(off(pts)).max()))
    return (
        _row("Th", f"Hecke-Bochner closed form, M<={big_m_max}, K<=3", n, worst, tol),
        _row("Th", "off-pattern projections vanish", n, worst_off, tol_off),
    )


def check_factorization(n, seed, tol, tol_cross) -> tuple[CheckRow, CheckRow]:
    """Inner products of f0(|x|) Y(x) pairs: full tensor quadrature against
    the radial-times-sphere product (the polar-coordinates factorization).

    Each of the 2 |degrees| fields is evaluated once on the tensor grid:
    the weighted g fields are stacked, and each f field gives one row of
    pairwise integrals, so only one f array is held next to them.  The
    radial part uses the one radial rule with r^{2s} folded into its
    weights."""
    rng = np.random.default_rng(seed)
    grid = tensor_rule(gauss_hermite(48), n)
    sphere = sphere_rule(n, 12)
    radial = default_radial_rules(n)
    r = radial.nodes
    degrees = [s for s in range(4) if dim_harmonic(n, s)]
    solids = [fl.random_solid_harmonic(n, s, rng) for s in degrees]
    gw = np.empty((len(solids), len(grid.weights)))
    for i, y in enumerate(solids):
        gw[i] = fl.radial_harmonic_field(fl.f0_gauss, y)(grid.nodes) * grid.weights
    full = np.array([gw @ fl.radial_harmonic_field(fl.f0_gauss_poly, y)(grid.nodes) for y in solids])
    rad_f0 = radial.weights * fl.f0_gauss_poly(r) * fl.f0_gauss(r)
    worst_eq = 0.0
    for i, (s, y) in enumerate(zip(degrees, solids)):
        sph_part = float(sphere.weights @ y(sphere.nodes) ** 2)
        worst_eq = max(worst_eq, abs(full[i, i] - float(rad_f0 @ r ** (2 * s)) * sph_part))
    np.fill_diagonal(full, 0.0)
    worst_cross = float(np.abs(full).max())
    return (
        _row("Th", "polar factorization of inner products, equal degrees", n, worst_eq, tol),
        _row("Th", "inner products vanish across harmonic degrees", n, worst_cross, tol_cross),
    )


def check_decay(tol_slope) -> tuple[CheckRow, CheckRow]:
    levels = (80 - 2) // 2
    bump = coefficient_decay_probe(fl.bump_field(2), levels)
    rough = coefficient_decay_probe(fl.truncated_gaussian_field(2), levels)
    return (
        _row("est", "bump coefficient-decay slope, lambda<=80", 2, bump.slope, tol_slope),
        _row(
            "est",
            "non-smooth comparison decays strictly slower",
            2,
            rough.slope - bump.slope,
            0.0,
            cmp=">",
        ),
    )


def check_oone(m_max, seed, tol) -> CheckRow:
    rng = np.random.default_rng(seed)
    f, _ = fl.random_band_limited(1, min(m_max, 10), rng)
    coeffs = polar_coeffs(f, min(m_max, 10))
    pts = rng.uniform(-2.5, 2.5, size=(30, 1))
    worst = 0.0
    for m in range(min(m_max, 10) + 1):
        k, s = m // 2, m % 2
        idx = coeffs.level_indices(m)
        if idx != [(k, s, 1)]:
            return _row("oone", f"two-branch structure broken at m={m}", 1, math.inf, tol)
        if fl.polar_eigenvalue(1, k, s) != (1 + 4 * k if s == 0 else 3 + 4 * k):
            return _row("oone", f"eigenvalue mismatch at m={m}", 1, math.inf, tol)
        phi = fl.polar_eigenfield(1, k, s, 1)
        branch = coeffs.entries[(k, s, 1)] * phi(pts)
        generic = project(f, m, "polar", coeffs)(pts)
        worst = max(worst, float(np.abs(branch - generic).max()))
    return _row("oone", f"two-branch reduction, m<={min(m_max, 10)}", 1, worst, tol)


def check_dims(n, m_cap, tol) -> CheckRow:
    worst = 0
    for m in range(m_cap + 1):
        lhs, rhs = ps.dimension_identity(n, m)
        worst = max(worst, abs(lhs - rhs))
    return _row("dims", f"dimension identity, m<={m_cap}", n, worst, tol)


def run_suite(
    n: int,
    m_max: int,
    seed: int = 0,
    tolerances: Optional[Dict[str, float]] = None,
) -> list[CheckRow]:
    """Full invariant suite for the requested dimension and level range.

    For n > 3 only the basis-free identities run (kernel equality and the
    dimension bookkeeping); explicit bases are constructed for n <= 3 only.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    rows = [check_kernel_equality(n, m_max, seed, tol["eq"])]
    rows.append(check_dims(n, max(m_max, 30), tol["dims"]))
    if n > 3:
        return rows
    rows.append(check_spans(n, m_max, tol["eq_spans"]))
    rows.append(check_addition_theorem(n, min(m_max, 10), seed, tol["zon"]))
    rows.append(check_reproducing(n, min(m_max, 10), seed, tol["zon_reproduce"]))
    rows.append(check_polar_gram(n, m_max, tol["aa_gram"]))
    rows.append(check_parseval_bandlimited(n, seed, tol["aa_parseval"]))
    rows.append(check_parseval_cross_basis(n, seed, tol["aa_parseval"]))
    rows.append(check_bessel_monotone(n, tol["aa_bessel"]))
    rows.append(check_eigen_orders(n, m_max, seed, tol["bb_order"]))
    if n >= 2:
        rows.append(check_rotation(n, m_max, seed, tol["com"]))
    rows.extend(check_hecke(n, m_max, seed, tol["th"], tol["th_offpattern"]))
    rows.extend(check_factorization(n, seed, tol["ble"], tol["ble_cross"]))
    if n == 2:
        rows.extend(check_decay(tol["est_slope"]))
    if n == 1:
        rows.append(check_oone(m_max, seed, tol["oone"]))
    return rows
