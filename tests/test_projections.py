import dataclasses
import io
import math

import numpy as np
import pytest

from oscspectra.errors import ContractViolationError, IntegrabilityError
from oscspectra.fields import (
    ScalarField,
    bump_field,
    f0_gauss_poly,
    gaussian_field,
    hermite_eigenfield,
    polar_eigenfield,
    polar_eigenvalue,
    radial_harmonic_field,
    random_band_limited,
    random_solid_harmonic,
    truncated_gaussian_field,
)
from oscspectra.harmonics import sph_basis
from oscspectra.projections import (
    coefficient_decay_probe,
    eigen_order_study,
    field_norm_sq,
    hecke_bochner,
    hermite_coeffs,
    parseval_check,
    polar_coeffs,
    project,
    rotation_commutes,
)
from oscspectra.quadrature import RADIAL_N, QuadratureRule, gauss_hermite, tensor_rule
from oscspectra.verify import run_suite


def offdiag_max(coeffs, key):
    return max((abs(v) for k, v in coeffs.entries.items() if k != key), default=0.0)


def test_hermite_coeffs_eigenfield_orthonormality():
    f = hermite_eigenfield((2, 1))
    c = hermite_coeffs(f, 4)
    assert c.entries[(2, 1)] == pytest.approx(1.0, abs=1e-11)
    assert offdiag_max(c, (2, 1)) < 1e-11


def test_hermite_coeffs_linearity():
    g1, g2 = (1, 0), (0, 2)
    f1, f2 = hermite_eigenfield(g1), hermite_eigenfield(g2)
    f = ScalarField(2, lambda p: f1(p) + 2.0 * f2(p))
    c = hermite_coeffs(f, 3)
    assert c.entries[g1] == pytest.approx(1.0, abs=1e-12)
    assert c.entries[g2] == pytest.approx(2.0, abs=1e-12)


def test_hermite_coeffs_gaussian_closed_form():
    for n in (1, 2, 3):
        c = hermite_coeffs(gaussian_field(n), 3)
        zero = tuple([0] * n)
        assert c.entries[zero] == pytest.approx(math.pi ** (n / 4), rel=1e-13)
        odd = max(abs(v) for k, v in c.entries.items() if sum(k) % 2 == 1)
        assert odd < 1e-13


def test_polar_coeffs_eigenfield_orthonormality():
    f = polar_eigenfield(3, 1, 2, 3)
    c = polar_coeffs(f, 6)
    assert c.entries[(1, 2, 3)] == pytest.approx(1.0, abs=1e-10)
    assert offdiag_max(c, (1, 2, 3)) < 1e-10
    # one radial rule of order n/2 - 1 is exact for every degree s up to m = 16
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        for m in (8, 12, 16):
            f, exact = random_band_limited(n, m, rng)
            c = polar_coeffs(f, m)
            assert max(abs(v - exact.get(key, 0.0)) for key, v in c.entries.items()) < 1e-12


def test_polar_coeffs_evaluates_field_once():
    for n in (1, 2, 3):
        for base in (gaussian_field(n), bump_field(n)):
            sizes = []

            def counted(p, fn=base.fn):
                sizes.append(len(p))
                return fn(p)

            polar_coeffs(dataclasses.replace(base, fn=counted), 8)
            assert len(sizes) == 1


def test_suite_builds_one_radial_rule_and_evaluates_each_factorization_field_once(monkeypatch):
    radial, grids, grid_calls = [], [], []
    post_init, call = QuadratureRule.__post_init__, ScalarField.__call__

    def record_rule(rule):
        post_init(rule)
        if rule.domain_tag.startswith("radial"):
            radial.append((rule.domain_tag, len(rule.nodes)))
        elif rule.domain_tag.startswith("tensor"):
            grids.append(rule.nodes)

    def record_call(field, points):
        grid_calls.extend(field for g in grids if points is g)
        return call(field, points)

    monkeypatch.setattr(QuadratureRule, "__post_init__", record_rule)
    monkeypatch.setattr(ScalarField, "__call__", record_call)
    for n, degrees in ((1, 2), (2, 4), (3, 4)):
        del radial[:], grids[:], grid_calls[:]
        run_suite(n, 8)
        one_rule = (f"radial(beta={n / 2 - 1:g})", RADIAL_N)
        assert radial and all(t == one_rule or t[0].startswith("radial_compact") for t in radial)
        # check_factorization: f0 * Y_s and g0 * Y_s per degree, not per pair
        assert len(grids) == 1 and len(grid_calls) == 2 * degrees


def test_polar_coeffs_even_field_kills_odd_channel_n1():
    f = gaussian_field(1)
    c = polar_coeffs(f, 7)
    odd = max(abs(v) for (k, s, j), v in c.entries.items() if s == 1)
    assert odd < 1e-15  # exact cancellation up to one fused-multiply round


def test_polar_coeffs_match_tensor_quadrature_oracle():
    # direct n-dimensional quadrature of <f, phi_{k,s,j}> against the
    # factorized sphere-times-radius computation
    rng = np.random.default_rng(77)
    f, _ = random_band_limited(2, 4, rng)
    c = polar_coeffs(f, 4)
    rule = tensor_rule(gauss_hermite(48), 2)
    for key in ((0, 0, 1), (1, 0, 1), (0, 2, 2), (1, 2, 1), (0, 4, 2)):
        k, s, j = key
        phi = polar_eigenfield(2, k, s, j)
        want = rule.integrate(lambda p: f(p) * phi(p))
        assert c.entries[key] == pytest.approx(want, abs=1e-9)


def test_project_reproduces_eigenfunction():
    gamma = (1, 2)
    f = hermite_eigenfield(gamma)
    pts = np.random.default_rng(0).uniform(-2, 2, size=(25, 2))
    proj = project(f, sum(gamma), "hermite")
    assert np.abs(proj(pts) - f(pts)).max() < 1e-10


def test_project_annihilates_other_levels():
    f = hermite_eigenfield((1, 2))
    pts = np.random.default_rng(1).uniform(-2, 2, size=(25, 2))
    for m in (0, 1, 2, 4, 5):
        assert np.abs(project(f, m, "hermite")(pts)).max() < 1e-10
        assert np.abs(project(f, m, "polar")(pts)).max() < 1e-10


def test_project_cross_basis_agreement():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        f, _ = random_band_limited(n, 5, rng)
        ch = hermite_coeffs(f, 5)
        cp = polar_coeffs(f, 5)
        pts = rng.uniform(-2, 2, size=(20, n))
        for m in range(6):
            a = project(f, m, "hermite", ch)(pts)
            b = project(f, m, "polar", cp)(pts)
            assert np.abs(a - b).max() < 1e-8


def test_project_idempotent_and_mutually_annihilating():
    rng = np.random.default_rng(6)
    f, _ = random_band_limited(2, 4, rng)
    pts = rng.uniform(-2, 2, size=(20, 2))
    for m in (2, 3):
        pf = project(f, m, "polar")
        ppf = project(pf, m, "polar")
        assert np.abs(ppf(pts) - pf(pts)).max() < 2e-10
        for m2 in (0, 1, 4):
            assert np.abs(project(pf, m2, "polar")(pts)).max() < 1e-10


def test_project_requires_covering_truncation():
    f = gaussian_field(2)
    c = polar_coeffs(f, 2)
    with pytest.raises(ContractViolationError):
        project(f, 5, "polar", c)
    with pytest.raises(ContractViolationError):
        project(f, 2, "hermite", c)


def test_hecke_bochner_orthonormal_trivials():
    rng = np.random.default_rng(13)
    for n, big_m in ((1, 1), (2, 2), (3, 1)):
        solid = random_solid_harmonic(n, big_m, rng)
        beta = n / 2 - 1 + big_m
        from oscspectra.special_functions import laguerre_fn

        for k0, want in ((2, 1.0), (1, 0.0)):
            c, field = hecke_bochner(lambda r: laguerre_fn(2, beta, r), solid, k0)
            assert c == pytest.approx(want, abs=1e-12)


def test_hecke_bochner_matches_generic_projection():
    rng = np.random.default_rng(14)
    pts_rng = np.random.default_rng(15)
    for n in (1, 2, 3):
        for big_m in range(2 if n == 1 else 4):
            solid = random_solid_harmonic(n, big_m, rng)
            f = radial_harmonic_field(f0_gauss_poly, solid)
            pts = pts_rng.uniform(-2, 2, size=(20, n))
            for big_k in (0, 1, 3):
                c, closed = hecke_bochner(f0_gauss_poly, solid, big_k)
                proj = project(f, big_m + 2 * big_k, "polar")
                assert np.abs(closed(pts) - proj(pts)).max() < 1e-8


def test_hecke_bochner_off_pattern_levels_vanish():
    rng = np.random.default_rng(16)
    n, big_m = 2, 2
    solid = random_solid_harmonic(n, big_m, rng)
    f = radial_harmonic_field(f0_gauss_poly, solid)
    coeffs = polar_coeffs(f, 9)
    pts = rng.uniform(-2, 2, size=(20, n))
    for m in (0, 1, 3, 5, 7, 9):  # below M or parity-mismatched
        if m < big_m or (m - big_m) % 2:
            proj = project(f, m, "polar", coeffs)
            assert np.abs(proj(pts)).max() < 1e-10


def test_hecke_bochner_integrability_guard():
    solid = random_solid_harmonic(2, 1, np.random.default_rng(2))
    with pytest.raises(IntegrabilityError):
        hecke_bochner(lambda r: np.exp(0.75 * r * r), solid, 1)


def test_rotation_commutes_identity_map():
    f, _ = random_band_limited(2, 4, np.random.default_rng(3))
    assert rotation_commutes(f, np.eye(2), 3, extraction_level=4) < 1e-12


def test_rotation_commutes_quarter_turn_hermite():
    # rotation by pi/2 maps h_(1,0) to h_(0,1) up to sign; both orders of
    # projector and rotation reproduce it at level one
    g = np.array([[0.0, -1.0], [1.0, 0.0]])
    f = hermite_eigenfield((1, 0))
    assert rotation_commutes(f, g, 1) < 1e-12
    rotated = ScalarField(2, lambda p: f(p @ g.T))
    c = hermite_coeffs(rotated, 1)
    assert abs(abs(c.entries[(0, 1)]) - 1.0) < 1e-12


def test_rotation_commutes_random_orthogonal_including_reflection():
    rng = np.random.default_rng(19)
    f, _ = random_band_limited(3, 6, rng)
    for i in range(4):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if i % 2:
            q[0] = -q[0]
        for m in (0, 3, 6):
            assert rotation_commutes(f, q, m, extraction_level=6) < 1e-8


def test_rotation_commutes_rejects_nonorthogonal():
    f = gaussian_field(2)
    with pytest.raises(ContractViolationError):
        rotation_commutes(f, np.array([[1.0, 0.1], [0.0, 1.0]]), 1)


def test_parseval_finite_combination():
    rng = np.random.default_rng(23)
    f, true_coeffs = random_band_limited(2, 6, rng)
    coeffs = polar_coeffs(f, 6)
    defect = parseval_check(f, coeffs, field_norm_sq(f))
    assert abs(defect) < 1e-10
    assert coeffs.norm_sq() == pytest.approx(sum(v**2 for v in true_coeffs.values()), rel=1e-12)


def test_parseval_cross_basis_hermite_field():
    f = hermite_eigenfield((2, 1))
    coeffs = polar_coeffs(f, 3)
    defect = parseval_check(f, coeffs, field_norm_sq(f))
    assert abs(defect) < 1e-9


def test_parseval_defect_monotone_for_bump():
    bump = bump_field(2)
    norm_sq = field_norm_sq(bump)
    defects = [
        parseval_check(bump, polar_coeffs(bump, m_max), norm_sq)
        for m_max in (2, 4, 6, 8, 10)
    ]
    for a, b in zip(defects, defects[1:]):
        assert b <= a + 1e-12
    assert defects[-1] > -1e-9  # Bessel: partial sums never exceed the norm


def test_decay_probe_zero_field():
    zero = ScalarField(2, lambda p: np.zeros(len(p)), support_radius=1.0)
    probe = coefficient_decay_probe(zero, 6)
    assert all(row[3] == 0.0 for row in probe.rows)
    assert math.isnan(probe.slope)


def test_decay_probe_bump_vs_truncated_gaussian():
    levels = 19
    smooth = coefficient_decay_probe(bump_field(2), levels)
    rough = coefficient_decay_probe(truncated_gaussian_field(2), levels)
    assert smooth.slope < 0
    assert rough.slope > smooth.slope


def test_eigen_order_study_matches_fd_order():
    rng = np.random.default_rng(29)
    for n, k, s in ((1, 2, 1), (2, 1, 3), (3, 0, 2)):
        j = sph_basis(n, s).dim
        phi = polar_eigenfield(n, k, s, j)
        pts = rng.uniform(-1.5, 1.5, size=(20, n))
        residuals, orders = eigen_order_study(phi, polar_eigenvalue(n, k, s), pts)
        assert residuals[0] > residuals[-1]
        assert min(orders) >= 3.5


def test_coefficients_csv_format():
    c = polar_coeffs(polar_eigenfield(1, 1, 1, 1), 3)
    buf = io.StringIO()
    c.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "basis,index,eigenvalue,value"
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row["basis"] == "polar"
    assert len(row["index"].split(";")) == 3


def test_field_norm_sq_gaussian_closed_form():
    # ||exp(-|x|^2/2)||^2 = pi^{n/2}
    for n in (1, 2, 3):
        got = field_norm_sq(gaussian_field(n))
        assert got == pytest.approx(math.pi ** (n / 2), rel=1e-12)


def test_polar_index_eigenvalue():
    from oscspectra.projections import PolarIndex

    assert PolarIndex(1, 2, 3).eigenvalue(3) == 3 + 2 * (2 + 2 * 1)
    assert PolarIndex(0, 0, 1).eigenvalue(1) == 1


@pytest.mark.parametrize("n", (1, 2, 3))
def test_band_limited_field_matches_sum_of_eigenfields(n):
    # the per-degree evaluation equals the sum of its parts, origin included
    rng = np.random.default_rng(70 + n)
    f, coeffs = random_band_limited(n, 8, rng)
    pts = np.vstack([rng.uniform(-2.5, 2.5, size=(60, n)), np.zeros(n)])
    want = sum(c * polar_eigenfield(n, k, s, j)(pts) for (k, s, j), c in coeffs.items())
    assert np.abs(f(pts) - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_band_limited_field_makes_one_sweep_per_call(monkeypatch):
    import oscspectra.fields as fields_module
    from oscspectra.harmonics import SolidHarmonic

    sweeps = []
    table = fields_module.sph_table

    def counting_table(*args):
        sweeps.append(args[:2])
        return table(*args)

    def no_solid_call(self, points):
        raise AssertionError("band-limited field evaluated a SolidHarmonic")

    monkeypatch.setattr(fields_module, "sph_table", counting_table)
    monkeypatch.setattr(SolidHarmonic, "__call__", no_solid_call)
    for n in (1, 2, 3):
        rng = np.random.default_rng(80 + n)
        f, _ = random_band_limited(n, 6, rng)
        sweeps.clear()
        f(rng.uniform(-2.0, 2.0, size=(30, n)))
        assert len(sweeps) == 1
