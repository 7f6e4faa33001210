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
from .harmonics import sph_basis, zonal
from .kernels import phi_direct_values, phi_polar_values
from .projections import (
    coefficient_decay_probe,
    eigen_order_study,
    field_norm_sq,
    hecke_bochner,
    parseval_check,
    polar_coeffs,
    project,
)
from .quadrature import gauss_hermite, gauss_radial, sphere_rule, tensor_rule
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
    top = min(1, s_max) if n == 1 else s_max
    for s in range(top + 1):
        basis = sph_basis(n, s)
        a = rng.standard_normal((pairs, n))
        a /= np.linalg.norm(a, axis=1)[:, None]
        b = rng.standard_normal((pairs, n))
        b /= np.linalg.norm(b, axis=1)[:, None]
        lhs = np.einsum("jp,jp->p", basis.evaluate_all(a), basis.evaluate_all(b))
        rhs = zonal(n, s, np.sum(a * b, axis=1))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _row("zon", f"addition theorem, s<={top}, {pairs} pairs", n, worst, tol)


def check_reproducing(n, s_max, seed, tol) -> CheckRow:
    rng = np.random.default_rng(seed)
    worst = 0.0
    top = min(1, s_max) if n == 1 else s_max
    rule = sphere_rule(n, 2 * top + 2)
    for s in range(top + 1):
        basis = sph_basis(n, s)
        yvals = basis.evaluate_all(rule.nodes)
        poles = rng.standard_normal((8, n))
        poles /= np.linalg.norm(poles, axis=1)[:, None]
        zmat = zonal(n, s, np.clip(poles @ rule.nodes.T, -1, 1))  # (poles, nodes)
        recon = zmat * rule.weights @ yvals.T  # (poles, dim)
        direct = basis.evaluate_all(poles).T
        worst = max(worst, float(np.abs(recon - direct).max()))
    return _row("zon", f"reproducing property, s<={top}", n, worst, tol)


def polar_gram_defect(n, level_cap) -> float:
    """Max entrywise deviation from identity of the polar-basis Gram over
    all indices with s + 2k <= level_cap, via polar-factorized quadrature."""
    top = min(1, level_cap) if n == 1 else level_cap
    sphere = sphere_rule(n, 2 * top + 2)
    chan = []
    for s in range(top + 1):
        basis = sph_basis(n, s)
        kmax = (level_cap - s) // 2
        chan.append((s, basis.evaluate_all(sphere.nodes), kmax))
    index = [
        (k, s, j)
        for s, yv, kmax in chan
        for k in range(kmax + 1)
        for j in range(1, yv.shape[0] + 1)
    ]
    size = len(index)
    gram = np.zeros((size, size))
    offsets = {}
    pos = 0
    for s, yv, kmax in chan:
        offsets[s] = pos
        pos += (kmax + 1) * yv.shape[0]
    for s1, yv1, kmax1 in chan:
        beta1 = n / 2.0 - 1.0 + s1
        for s2, yv2, kmax2 in chan:
            if s2 < s1:
                continue
            beta2 = n / 2.0 - 1.0 + s2
            cross = (yv1 * sphere.weights) @ yv2.T  # (d1, d2)
            rad_rule = gauss_radial(40, (s1 + s2 + n) / 2.0 - 1.0)
            l1 = laguerre_fn_table(kmax1, beta1, rad_rule.nodes)
            l2 = laguerre_fn_table(kmax2, beta2, rad_rule.nodes)
            rad = (l1 * rad_rule.weights) @ l2.T  # (kmax1+1, kmax2+1)
            for k1 in range(kmax1 + 1):
                for k2 in range(kmax2 + 1):
                    block = rad[k1, k2] * cross
                    r0 = offsets[s1] + k1 * yv1.shape[0]
                    c0 = offsets[s2] + k2 * yv2.shape[0]
                    gram[r0 : r0 + yv1.shape[0], c0 : c0 + yv2.shape[0]] = block
                    gram[c0 : c0 + yv2.shape[0], r0 : r0 + yv1.shape[0]] = block.T
    return float(np.abs(gram - np.eye(size)).max())


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
    top = min(1, cap) if n == 1 else cap
    for s in range(top + 1):
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
    big_m_max = min(1 if n == 1 else 4, m_cap)
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
    the radial-times-sphere product (the polar-coordinates factorization)."""
    rng = np.random.default_rng(seed)
    rule = tensor_rule(gauss_hermite(48), n)
    sphere = sphere_rule(n, 12)
    worst_eq = 0.0
    worst_cross = 0.0
    degrees = [0, 1] if n == 1 else [0, 1, 2, 3]
    solids = {s: fl.random_solid_harmonic(n, s, rng) for s in degrees}
    for s1 in degrees:
        for s2 in degrees:
            f = fl.radial_harmonic_field(fl.f0_gauss_poly, solids[s1])
            g = fl.radial_harmonic_field(fl.f0_gauss, solids[s2])
            full = rule.integrate(lambda p: f(p) * g(p))
            sph_part = float(
                sphere.weights
                @ (solids[s1].sphere_fn(sphere.nodes) * solids[s2].sphere_fn(sphere.nodes))
            )
            rad_rule = gauss_radial(60, (s1 + s2 + n) / 2.0 - 1.0)
            rad_part = float(
                rad_rule.weights
                @ (fl.f0_gauss_poly(rad_rule.nodes) * fl.f0_gauss(rad_rule.nodes))
            )
            if s1 == s2:
                worst_eq = max(worst_eq, abs(full - rad_part * sph_part))
            else:
                worst_cross = max(worst_cross, abs(full))
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
