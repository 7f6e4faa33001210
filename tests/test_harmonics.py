import math

import numpy as np
import pytest

from oscspectra.errors import DegenerateDegreeError
from oscspectra.fields import f0_gauss, radial_harmonic_field
from oscspectra.harmonics import (
    dim_harmonic,
    solid_harmonic,
    sph_basis,
    sph_table,
    surface_measure,
    zonal,
    zonal_table,
)
from oscspectra.quadrature import sphere_rule
from oscspectra.special_functions import gegenbauer

from _oracles import fd_laplacian, solid_harmonic_rows


def random_unit(rng, count, n):
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1)[:, None]


def test_surface_measures():
    assert surface_measure(1) == pytest.approx(2.0)
    assert surface_measure(2) == pytest.approx(2 * math.pi)
    assert surface_measure(3) == pytest.approx(4 * math.pi)
    assert surface_measure(6) == pytest.approx(math.pi**3)


def test_dim_harmonic_n1():
    assert dim_harmonic(1, 0) == 1
    assert dim_harmonic(1, 1) == 1
    assert dim_harmonic(1, 5) == 0


def test_dim_harmonic_small_dimensions():
    for s in range(12):
        assert dim_harmonic(3, s) == 2 * s + 1
        assert dim_harmonic(2, s) == (1 if s == 0 else 2)
    for n in range(2, 9):
        assert dim_harmonic(n, 0) == 1


def test_dim_harmonic_binomial_consistency():
    for n in range(2, 9):
        for s in range(2, 31):
            want = math.comb(s + n - 1, n - 1) - math.comb(s + n - 3, n - 1)
            assert dim_harmonic(n, s) == want


def test_zonal_degree_zero_is_reciprocal_surface_measure():
    for n in (1, 2, 3, 4, 6):
        assert zonal(n, 0, 0.3) == pytest.approx(1.0 / surface_measure(n), rel=1e-14)


def test_zonal_at_coincident_poles():
    # integrating the addition theorem over the sphere forces
    # Z_s(1) = d_s / omega_{n-1}
    for n in (2, 3, 4, 6):
        for s in (0, 1, 2, 5, 9):
            want = dim_harmonic(n, s) / surface_measure(n)
            assert zonal(n, s, 1.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_zonal_table_matches_the_closed_forms(n):
    # cos(s arccos t)/pi on the circle, ((2s+n-2)/(n-2)) C_s^{(n-2)/2}(t)/omega_n
    # above; t = 0 zeroes the odd degrees, so each row is compared relative
    # to its largest value
    t = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(40 + n).uniform(-1, 1, 20)])
    s = np.arange(41)[:, None]
    if n == 2:
        want = np.where(s == 0, 0.5, np.cos(s * np.arccos(t))) / math.pi
    else:
        lam = (n - 2) / 2.0
        want = np.array([(2 * k + n - 2) / (n - 2) * gegenbauer(k, lam, t) for k in range(41)]) / surface_measure(n)
    got = zonal_table(n, 40, t)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=1, keepdims=True))


def test_zonal_n1_branches():
    assert zonal(1, 0, -1.0) == 0.5
    assert zonal(1, 1, -1.0) == -0.5
    with pytest.raises(DegenerateDegreeError):
        zonal(1, 2, 0.5)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_zonal_table_rows_match_zonal(n):
    t = np.concatenate([[-1.0, 1.0, 0.0], np.random.default_rng(n).uniform(-1, 1, 20)])
    table = zonal_table(n, 40, t)
    assert table.shape == (41, len(t))
    for s in range(41):
        if dim_harmonic(n, s):
            assert np.array_equal(table[s], zonal(n, s, t))
        else:
            assert not table[s].any()


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_addition_theorem_against_basis_sum(n):
    rng = np.random.default_rng(17)
    for s in range(11):
        basis = sph_basis(n, s)
        a = random_unit(rng, 100, n)
        b = random_unit(rng, 100, n)
        lhs = np.einsum("jp,jp->p", basis.evaluate_all(a), basis.evaluate_all(b))
        rhs = zonal(n, s, np.sum(a * b, axis=1))
        assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("n", (1, 2, 3))
def test_zonal_reproduces_basis_elements(n):
    rng = np.random.default_rng(5)
    smax = 1 if n == 1 else 10
    for s in range(smax + 1):
        basis = sph_basis(n, s)
        rule = sphere_rule(n, 2 * s + 2)
        vals = basis.evaluate_all(rule.nodes)
        poles = random_unit(rng, 6, n)
        zmat = zonal(n, s, np.clip(poles @ rule.nodes.T, -1, 1))
        recon = (zmat * rule.weights) @ vals.T
        assert np.abs(recon - basis.evaluate_all(poles).T).max() < 1e-9


def test_sph_basis_n1_values():
    b0 = sph_basis(1, 0)
    b1 = sph_basis(1, 1)
    pts = np.array([[-1.0], [1.0]])
    assert np.allclose(b0.evaluate_all(pts), [[2**-0.5, 2**-0.5]], atol=1e-15)
    assert np.allclose(b1.evaluate_all(pts), [[-(2**-0.5), 2**-0.5]], atol=1e-15)
    with pytest.raises(DegenerateDegreeError):
        sph_basis(1, 2)


def test_sph_basis_n2_gram_sixteen_point_rule():
    rule = sphere_rule(2, 15)  # 16-point trapezoid circle rule
    assert len(rule.nodes) == 16
    vals = sph_basis(2, 3).evaluate_all(rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    assert np.abs(gram - np.eye(2)).max() < 1e-14


def test_sph_basis_n3_degree_one_spans_coordinates():
    basis = sph_basis(3, 1)
    assert basis.dim == 3
    rng = np.random.default_rng(2)
    pts = random_unit(rng, 12, 3)
    vals = basis.evaluate_all(pts)
    # each evaluator must be an exact linear combination of x, y, z
    sol, *_ = np.linalg.lstsq(pts, vals.T, rcond=None)
    assert np.abs(pts @ sol - vals.T).max() < 1e-12
    assert np.linalg.matrix_rank(sol) == 3


def test_cross_degree_grams_vanish():
    for n in (2, 3):
        rule = sphere_rule(n, 24)
        for s1, s2 in ((0, 2), (1, 4), (3, 7), (2, 9)):
            v1 = sph_basis(n, s1).evaluate_all(rule.nodes)
            v2 = sph_basis(n, s2).evaluate_all(rule.nodes)
            cross = (v1 * rule.weights) @ v2.T
            assert np.abs(cross).max() < 1e-10


def test_basis_unsupported_dimension():
    with pytest.raises(ValueError):
        sph_basis(0, 2)


def test_solid_harmonic_constant():
    pts = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    vals = solid_harmonic(3, 0, 1, pts)
    assert np.abs(vals - vals[0]).max() < 1e-15


def test_solid_harmonic_homogeneity():
    rng = np.random.default_rng(9)
    for n, s in ((2, 3), (3, 2), (3, 5), (4, 3), (5, 4), (6, 2)):
        j = dim_harmonic(n, s)
        pts = rng.uniform(-1.5, 1.5, size=(10, n))
        doubled = solid_harmonic(n, s, j, 2 * pts)
        assert doubled == pytest.approx(2**s * solid_harmonic(n, s, j, pts), rel=1e-12, abs=1e-13)


def test_solid_harmonic_vanishes_at_origin_for_positive_degree():
    assert solid_harmonic(2, 4, 1, [0.0, 0.0]).tolist() == [0.0]


def test_solid_harmonic_rejects_bad_index():
    for j in (0, 4):
        with pytest.raises(ValueError):
            solid_harmonic(3, 1, j, [0.0, 0.0, 1.0])


def test_solid_harmonic_is_harmonic():
    # finite-difference Laplacian residual at random points
    rng = np.random.default_rng(23)
    for n, s in ((2, 4), (3, 3), (4, 3), (5, 2), (6, 3)):
        basis = sph_basis(n, s)
        solid = basis.combination(np.eye(basis.dim)[1])
        pts = rng.uniform(-1.2, 1.2, size=(8, n))
        lap = fd_laplacian(solid, pts, 1e-2)
        scale = np.abs(solid(pts)).max() + 1.0
        assert np.abs(lap).max() < 1e-5 * scale


def test_basis_combination_matches_manual_sum():
    basis = sph_basis(3, 2)
    rng = np.random.default_rng(31)
    c = rng.standard_normal(basis.dim)
    combo = basis.combination(c)
    pts = rng.uniform(-2, 2, size=(7, 3))
    manual = np.zeros(7)
    for j in range(basis.dim):
        manual += c[j] * solid_harmonic(3, 2, j + 1, pts)
    assert combo(pts) == pytest.approx(manual, abs=1e-13)


def test_solid_harmonic_in_blocks_matches_one_sweep():
    # a field on a solid harmonic is fed more points than one evaluation
    # block, with a ragged last block, and matches one sweep over them all
    basis = sph_basis(3, 4)
    rng = np.random.default_rng(32)
    c = rng.standard_normal(basis.dim)
    pts = rng.uniform(-2, 2, size=(40_000, 3))
    want = f0_gauss(np.linalg.norm(pts, axis=1)) * (c @ basis.evaluate_all(pts))
    got = radial_harmonic_field(f0_gauss, basis.combination(c))(pts)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _table_points(n, rng):
    """The poles +-e_n, unit points on the equator x_n = 0 (n >= 2), random
    points of radius 0.5..2 and, last, the origin."""
    pole = np.eye(n)[-1]
    angles = np.linspace(0.0, 2.0 * np.pi, 7)
    if n == 3:
        equator = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(7)])
    elif n == 2:
        equator = np.array([[1.0, 0.0], [-1.0, 0.0]])
    else:
        equator = np.empty((0, 1))
    randoms = random_unit(rng, 40, n) * rng.uniform(0.5, 2.0, size=(40, 1))
    return np.vstack([pole, -pole, equator, randoms, np.zeros(n)])


@pytest.mark.parametrize("n", (1, 2, 3))
def test_sph_table_matches_per_degree_oracle(n):
    pts = _table_points(n, np.random.default_rng(40 + n))
    s_max = 40
    seen = []
    for s, rows in sph_table(n, s_max, pts):
        seen.append(s)
        want = solid_harmonic_rows(n, s, pts)
        assert rows.shape == (dim_harmonic(n, s), len(pts))
        assert np.abs(rows - want).max() <= 1e-13 * np.abs(want).max()
        # the origin is exact: the constant of every other point at s = 0
        # (the chain forms it as p_0 (2 pi)^{-1/2} at n = 3, one rounding
        # from the oracle's (4 pi)^{-1/2}), zero above
        assert np.array_equal(rows[:, -1], rows[:, 0] if s == 0 else want[:, -1])
    assert seen == [s for s in range(s_max + 1) if dim_harmonic(n, s)]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_sph_table_is_homogeneous(n):
    pts = _table_points(n, np.random.default_rng(50 + n))
    doubled = dict(sph_table(n, 40, 2.0 * pts))
    for s, rows in sph_table(n, 40, pts):
        assert np.abs(doubled[s] - 2.0**s * rows).max() <= 1e-13 * 2.0**s * np.abs(rows).max()


@pytest.mark.parametrize("n", (1, 2, 3))
def test_evaluate_all_is_last_table_entry(n):
    pts = random_unit(np.random.default_rng(60 + n), 25, n)
    for s, rows in sph_table(n, 12, pts):
        assert np.array_equal(sph_basis(n, s).evaluate_all(pts), rows)


def test_sph_table_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        sph_table(0, 3, np.zeros((2, 0)))


@pytest.mark.parametrize("n, s_max", ((3, 8), (4, 8), (5, 8), (6, 5)))
def test_chain_rows_are_orthonormal(n, s_max):
    # the Gram of every row of degree <= s_max on the chain sphere rule of
    # degree 2 s_max + 2, which integrates each product exactly
    rule = sphere_rule(n, 2 * s_max + 2)
    rows = np.vstack([r for _s, r in sph_table(n, s_max, rule.nodes)])
    assert len(rows) == sum(dim_harmonic(n, s) for s in range(s_max + 1))
    gram = (rows * rule.weights) @ rows.T
    assert np.abs(gram - np.eye(len(rows))).max() < 1e-13


@pytest.mark.parametrize("n", (4, 5, 6))
def test_sph_table_is_homogeneous_and_exact_at_the_origin_past_n3(n):
    pts = np.vstack([random_unit(np.random.default_rng(70 + n), 30, n) * 1.7, np.zeros(n)])
    doubled = dict(sph_table(n, 8, 2.0 * pts))
    for s, rows in sph_table(n, 8, pts):
        assert np.abs(doubled[s] - 2.0**s * rows).max() <= 1e-13 * 2.0**s * np.abs(rows).max()
        assert np.array_equal(rows[:, -1], np.full(len(rows), rows[0, -1] if s == 0 else 0.0))
