import io
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oscspectra.polyspaces as ps
from oscspectra.errors import ResourceLimitError
from oscspectra.harmonics import dim_harmonic, sph_table
from oscspectra.polyspaces import (
    PolySpan,
    _harmonic_basis,
    _primitive_row,
    dimension_identity,
    heat_certificate,
    hermite_span,
    laguerre_harmonic_span,
    monomials,
    solid_harmonic_poly,
    spans_equal,
)
from oscspectra.verify import DEFAULT_TOLERANCES, check_spans

from _oracles import hermite_phys, laguerre_series


def test_monomial_order_graded():
    monos = monomials(2, 2)
    assert monos == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_monomials_list_each_degree_descending():
    for n in range(1, 5):
        for d in range(6):
            want = [
                e
                for deg in range(d + 1)
                for e in sorted((e for e in product(range(deg + 1), repeat=n) if sum(e) == deg), reverse=True)
            ]
            assert monomials(n, d) == want


def test_hermite_span_n1_m2_coefficients():
    # H_2(x) = 4x^2 - 2: coefficients (-2, 0, 4) on (1, x, x^2)
    span = hermite_span(1, 2)
    assert span.monomials == ((0,), (1,), (2,))
    assert span.matrix.tolist() == [[-2.0, 0.0, 4.0]]
    # oracle agreement at a sample point
    assert span.matrix[0] @ [1.0, 1.3, 1.3**2] == pytest.approx(hermite_phys(2, 1.3))


def test_hermite_span_n2_m1_generators():
    span = hermite_span(2, 1)
    # generators H_1(x1) = 2 x1 and H_1(x2) = 2 x2
    x1 = span.monomials.index((1, 0))
    x2 = span.monomials.index((0, 1))
    assert span.matrix[0][x1] == 4.0 / 2 and span.matrix[1][x2] == 2.0
    assert np.count_nonzero(span.matrix) == 2


@pytest.mark.parametrize("n,m", [(1, 5), (2, 4), (3, 3), (3, 8)])
def test_hermite_span_rank_is_dim_pm(n, m):
    span = hermite_span(n, m)
    assert np.linalg.matrix_rank(span.matrix) == math.comb(n - 1 + m, n - 1)


def test_laguerre_harmonic_generator_n1_m2():
    # k=1, s=0 generator is L_1^{-1/2}(x^2) with L_1^{-1/2}(t) = 1/2 - t,
    # per the series oracle, stored as its primitive integer row
    span = laguerre_harmonic_span(1, 2)
    assert len(span.labels) == 1
    const = laguerre_series(1, -0.5, 0.0)
    quad = laguerre_series(1, -0.5, 1.0) - const
    row = span.matrix[0].tolist()
    assert row in ([1.0, 0.0, -2.0], [-1.0, 0.0, 2.0])
    assert row[0] * quad == row[2] * const


def test_laguerre_harmonic_generators_have_degree_m():
    for n, m in ((2, 5), (3, 4)):
        span = laguerre_harmonic_span(n, m)
        for row in span.matrix:
            top = max(
                (sum(e) for e, c in zip(span.monomials, row) if abs(c) > 1e-12), default=0
            )
            assert top == m


def test_laguerre_harmonic_generator_count():
    from oscspectra.harmonics import dim_harmonic

    for n, m in ((1, 6), (2, 5), (3, 4)):
        span = laguerre_harmonic_span(n, m)
        want = sum(dim_harmonic(n, m - 2 * k) for k in range(m // 2 + 1))
        assert len(span.labels) == want


def test_spans_equal_reflexive():
    span = hermite_span(2, 3)
    assert spans_equal(span, span).equal


@pytest.mark.parametrize("n", (1, 2, 3))
def test_spans_coincide(n):
    for m in range(9):
        a = hermite_span(n, m)
        b = laguerre_harmonic_span(n, m)
        result = spans_equal(a, b, 1e-10)
        assert result.equal, (n, m, result)
        assert result.rank_a == math.comb(n - 1 + m, n - 1)
        assert heat_certificate(a, b) == result


def test_spans_detect_planted_discrepancy():
    # replace one generator with x1^m: a pure power is not in the
    # Hermite-product span for m >= 2 (brute-force residual confirms)
    n, m = 2, 4
    a = hermite_span(n, m)
    b = laguerre_harmonic_span(n, m)
    planted = b.matrix.copy()
    planted[0] = 0.0
    planted[0][b.monomials.index((m, 0))] = 1.0
    b_bad = PolySpan(n, m, b.monomials, planted, b.labels)
    assert not spans_equal(a, b_bad, 1e-10).equal
    target = planted[0]
    sol, *_ = np.linalg.lstsq(a.matrix.T, target, rcond=None)
    assert np.abs(a.matrix.T @ sol - target).max() > 1e-2


@pytest.mark.parametrize("rel", (1e-6, 1e-9, 1e-12))
def test_spans_detect_planted_perturbation(rel):
    # move the x1^6 coefficient of one Laguerre generator by a relative
    # amount far below any float threshold; the exact rank still sees it
    n, m = 3, 6
    a = hermite_span(n, m)
    b = laguerre_harmonic_span(n, m)
    planted = b.matrix.copy()
    planted[0, b.monomials.index((m, 0, 0))] += rel * np.abs(planted[0]).max()
    result = spans_equal(a, PolySpan(n, m, b.monomials, planted, b.labels), 1e-10)
    assert not result.equal
    assert (result.rank_a, result.rank_b, result.rank_stacked) == (28, 28, 29)
    assert not heat_certificate(a, PolySpan(n, m, b.monomials, planted, b.labels)).equal


@pytest.mark.parametrize("rel", (1e-6, 1e-9, 1e-12, None))
def test_heat_certificate_detects_perturbed_lower_hermite_coefficient(rel):
    # the x1^4 coefficient of H_(6,0,0) moves by a relative amount, or by
    # exactly 1 (None), which keeps the row integer: the degree-6 block
    # stays full rank, so the heat normal form alone must see it
    n, m = 3, 6
    a = hermite_span(n, m)
    b = laguerre_harmonic_span(n, m)
    planted = a.matrix.copy()
    planted[0, a.monomials.index((4, 0, 0))] += 1.0 if rel is None else rel * np.abs(planted[0]).max()
    bad = PolySpan(n, m, a.monomials, planted, a.labels)
    assert not spans_equal(bad, b).equal
    result = heat_certificate(bad, b)
    assert not result.equal
    assert (result.rank_a, result.rank_b, result.rank_stacked) == (28, 28, 28)


@pytest.fixture
def fresh_spans():
    # the span builders are memoized: plants must build their own spans,
    # and leave none behind
    for build in (hermite_span, laguerre_harmonic_span):
        build.cache_clear()
    yield
    for build in (hermite_span, laguerre_harmonic_span):
        build.cache_clear()


def _assert_plant_fails(n):
    assert not check_spans(n, 8, DEFAULT_TOLERANCES["eq_spans"]).passed
    for m in range(9):
        a, b = hermite_span(n, m), laguerre_harmonic_span(n, m)
        assert heat_certificate(a, b).equal == spans_equal(a, b).equal == (m < 2), m


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_span_row_fails_on_wrong_laguerre_order(n, monkeypatch, fresh_spans):
    # L_k^{beta + 1/2} in place of L_k^beta; the two agree only at k = 0
    coeffs = ps._laguerre_coeffs_frac
    monkeypatch.setattr(ps, "_laguerre_coeffs_frac", lambda k, beta: coeffs(k, beta + Fraction(1, 2)))
    _assert_plant_fails(n)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_span_row_fails_on_non_harmonic_basis_element(n, monkeypatch, fresh_spans):
    # x1^s in place of the first harmonic of each degree s >= 2
    basis = ps._harmonic_basis

    def planted(n, s):
        x1 = (((s,) + (0,) * (n - 1), Fraction(1)),)
        return (x1,) + basis(n, s)[1:] if s >= 2 else basis(n, s)

    monkeypatch.setattr(ps, "_harmonic_basis", planted)
    _assert_plant_fails(n)


def test_heat_certificate_refuses_rows_past_2_53():
    # |top| Delta reaches 2 * 2^52 = 2^53 at H_(2,0) * 2^50; one power less passes
    a = hermite_span(2, 2)
    assert heat_certificate(PolySpan(2, 2, a.monomials, a.matrix * 2.0**49, a.labels), a).equal
    with pytest.raises(ResourceLimitError):
        heat_certificate(PolySpan(2, 2, a.monomials, a.matrix * 2.0**50, a.labels), a)


def _count_eliminations(monkeypatch):
    shapes, rank = [], ps._exact_rank
    monkeypatch.setattr(ps, "_exact_rank", lambda rows: shapes.append((len(rows), len(rows[0]))) or rank(rows))
    return shapes


def test_span_row_ranks_only_square_top_blocks(monkeypatch):
    # the ranks of the square degree-m blocks are read off their Laplacian
    # pivots, so the row runs no elimination at all
    shapes = _count_eliminations(monkeypatch)
    assert check_spans(3, 8, DEFAULT_TOLERANCES["eq_spans"]).passed
    assert shapes == []


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_certified_spans_run_no_elimination(n, monkeypatch):
    shapes = _count_eliminations(monkeypatch)
    for m in range(9):
        dim = math.comb(n - 1 + m, n - 1)
        result = heat_certificate(hermite_span(n, m), laguerre_harmonic_span(n, m))
        assert (result.equal, result.rank_a, result.rank_b, result.rank_stacked) == (True, dim, dim, dim)
    assert shapes == []


def test_duplicated_laguerre_row_falls_back_to_exact_ranks(monkeypatch):
    # a repeated row defeats the pivot read-off; the block then gets its
    # exact rank, and the stacked blocks theirs
    n, m = 3, 6
    a, b = hermite_span(n, m), laguerre_harmonic_span(n, m)
    planted = b.matrix.copy()
    planted[1] = planted[0]
    shapes = _count_eliminations(monkeypatch)
    result = heat_certificate(a, PolySpan(n, m, b.monomials, planted, b.labels))
    assert (result.equal, result.rank_a, result.rank_b, result.rank_stacked) == (False, 28, 27, 28)
    assert shapes == [(28, 28), (56, 28)]


def _laplacian_oracle(poly):
    out = {}
    for e, c in poly:
        for axis, p in enumerate(e):
            if p >= 2:
                key = e[:axis] + (p - 2,) + e[axis + 1 :]
                out[key] = out.get(key, 0) + p * (p - 1) * c
    return {e: c for e, c in out.items() if c != 0}


def test_exact_harmonic_basis_counts_and_is_harmonic():
    for n in range(1, 7):
        for s in range(9):
            basis = [solid_harmonic_poly(n, s, j) for j in range(1, dim_harmonic(n, s) + 1)]
            assert len(basis) == len(_harmonic_basis(n, s)) == dim_harmonic(n, s)
            # distinct lowest monomials x1^eps q make the basis independent
            assert len({h[-1][0] for h in basis}) == len(basis)
            for h in basis:
                assert h and all(isinstance(c, Fraction) and sum(e) == s for e, c in h)
                assert _laplacian_oracle(h) == {}


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_exact_harmonics_lie_in_sph_table_span(n):
    # ties the exact basis to the float evaluator the projections use; more
    # points than rows of any degree, so each fit is overdetermined
    pts = np.random.default_rng(20).uniform(-1.0, 1.0, size=(50 + 2 * dim_harmonic(n, 8), n))
    for s, rows in sph_table(n, 8, pts):
        for j in range(1, dim_harmonic(n, s) + 1):
            vals = sum(float(c) * np.prod(pts**e, axis=1) for e, c in solid_harmonic_poly(n, s, j))
            sol, *_ = np.linalg.lstsq(rows.T, vals, rcond=None)
            assert np.linalg.norm(rows.T @ sol - vals) <= 1e-12 * np.linalg.norm(vals), (n, s, j)


def test_primitive_row_refuses_inexact_float():
    col = {(0,): 0, (1,): 1}
    assert _primitive_row({(0,): Fraction(6, 5), (1,): Fraction(-4, 5)}, col).tolist() == [3.0, -2.0]
    with pytest.raises(ResourceLimitError):
        _primitive_row({(0,): Fraction(2**53), (1,): Fraction(1)}, col)


def test_each_generator_lies_in_hermite_span():
    for n in (1, 2, 3):
        for m in range(9):
            a = hermite_span(n, m)
            b = laguerre_harmonic_span(n, m)
            for row in b.matrix:
                sol, *_ = np.linalg.lstsq(a.matrix.T, row, rcond=None)
                res = np.abs(a.matrix.T @ sol - row).max()
                assert res <= 1e-10 * max(np.abs(row).max(), 1.0)


def test_dimension_identity_examples():
    assert dimension_identity(3, 4) == (15, 15)
    assert dimension_identity(2, 5) == (6, 6)
    for m in (0, 3, 10):
        assert dimension_identity(1, m) == (1, 1)


def test_dimension_identity_exact_everywhere():
    for n in range(1, 9):
        for m in range(31):
            lhs, rhs = dimension_identity(n, m)
            assert lhs == rhs


def test_span_caps(monkeypatch):
    with pytest.raises(ResourceLimitError):
        hermite_span(2, 13)
    # n = 6 admits m = 8 (1,287 x 3,003 = 3,864,861 entries) and refuses
    # m = 9 (2,002 x 5,005 = 10,020,010) at the size cap, before any
    # monomial or harmonic is listed
    ps._check_caps(6, 8)
    monkeypatch.setattr(ps, "monomials", lambda *args: pytest.fail("a span past the cap was built"))
    monkeypatch.setattr(ps, "_harmonic_basis", lambda *args: pytest.fail("a span past the cap was built"))
    for build in (hermite_span, laguerre_harmonic_span):
        with pytest.raises(ResourceLimitError, match="10020010"):
            build(6, 9)


def test_span_csv_header():
    buf = io.StringIO()
    hermite_span(2, 2).to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# monomial_order: graded lexicographic")
    assert lines[1].startswith("generator,")
    assert len(lines) == 2 + 3  # three generators at (n, m) = (2, 2)
