import io
import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oscspectra.polyspaces as ps
from oscspectra.errors import ResourceLimitError
from oscspectra.harmonics import dim_harmonic, sph_table
from oscspectra.kernels import multi_indices
from oscspectra.polyspaces import (
    PolySpan,
    dimension_identity,
    heat_certificate,
    hermite_span,
    laguerre_harmonic_span,
    monomials,
    solid_harmonic_poly,
    spans_equal,
)
from oscspectra.quadrature import sphere_rule
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
    # and leave none behind; so must a test that builds spans too large to
    # keep cached for the rest of the test run
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
    # x1^s, the first column of multi_indices(n, s), in place of the first
    # harmonic of each degree s >= 2 in R^n; the sweep one dimension down,
    # which the chain reaches through the same name, is left as it is.  No
    # harmonic is memoized, and fresh_spans drops the planted spans
    sweep = ps._harmonic_sweep

    def planted(dim, s_max):
        for s, rows in sweep(dim, s_max):
            if dim == n and s >= 2:
                rows = rows.copy()
                rows[0] = 0.0
                rows[0, 0] = 1.0
            yield s, rows

    monkeypatch.setattr(ps, "_harmonic_sweep", planted)
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


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_certified_spans_run_no_elimination(n, monkeypatch, fresh_spans):
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


def _laplacian_oracle(rows, n, s):
    # the Laplacian of integer rows over multi_indices(n, s), by the power
    # rule on each exponent tuple
    exps = multi_indices(n, s)
    to = {e: i for i, e in enumerate(multi_indices(n, s - 2))} if s >= 2 else {}
    out = np.zeros((len(rows), len(to)))
    for axis in range(n):
        src = [i for i, e in enumerate(exps) if e[axis] >= 2]
        out[:, [to[exps[i][:axis] + (exps[i][axis] - 2,) + exps[i][axis + 1 :]] for i in src]] += (
            rows[:, src] * [exps[i][axis] * (exps[i][axis] - 1) for i in src]
        )
    return out


def test_exact_harmonic_basis_counts_and_is_harmonic():
    for n in range(1, 7):
        sweep = dict(ps._harmonic_sweep(n, 8))
        for s in range(9):
            rows = sweep.get(s, np.zeros((0, len(multi_indices(n, s)))))
            assert len(rows) == dim_harmonic(n, s)
            # integer coefficients, exact in float64
            assert np.array_equal(rows, np.round(rows)) and np.abs(rows).max(initial=0) < 2**53
            assert not _laplacian_oracle(rows, n, s).any()
            # distinct last monomials x1^eps x2^a2 .. xn^an make the rows independent
            last = [max(np.flatnonzero(row)) for row in rows]
            assert len(set(last)) == len(rows)
            # solid_harmonic_poly gives row j, for every j at n <= 4
            for j in range(1, len(rows) + 1) if n <= 4 else {1, len(rows)} if len(rows) else ():
                poly = solid_harmonic_poly(n, s, j)
                assert all(type(c) is int and c and sum(e) == s for e, c in poly)
                assert poly == tuple((e, int(c)) for e, c in zip(multi_indices(n, s), rows[j - 1]) if c)


def _monomial_values(pts, exps):
    # x^e at each point for each exponent tuple, gathered from power tables
    out = np.ones((len(pts), len(exps)))
    for axis, p in enumerate(np.array(exps).T):
        out *= (pts[:, axis : axis + 1] ** np.arange(p.max() + 1))[:, p]
    return out


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_exact_harmonics_lie_in_sph_table_span(n):
    # ties the exact rows to the float evaluator the projections use: each,
    # normalized on a sphere rule exact for its square, is sph_table's row
    # of the same index and sign, for s <= 8 (s <= 6 at n = 6).  The rule is
    # per degree and is read in blocks of nodes, which keeps n = 6 small
    for s, rows in ps._harmonic_sweep(n, 8 if n < 6 else 6):
        rule, exps = sphere_rule(n, 2 * s), multi_indices(n, s)
        blocks = [slice(i, i + 4096) for i in range(0, len(rule.weights), 4096)]
        norm2 = sum((rows @ _monomial_values(rule.nodes[b], exps).T) ** 2 @ rule.weights[b] for b in blocks)
        for b in blocks:
            for _, table in sph_table(n, s, rule.nodes[b]):
                pass
            vals = rows @ _monomial_values(rule.nodes[b], exps).T / np.sqrt(norm2)[:, None]
            assert np.abs(vals - table).max() <= 1e-13, (n, s)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_laguerre_labels_name_the_sph_basis_rows(n):
    # row L0^[beta]*h_m_j is a positive multiple of solid harmonic j, which
    # is row j of sph_basis(n, m)
    for m in range(7):
        span = laguerre_harmonic_span(n, m)
        block = span.matrix[:, -len(multi_indices(n, m)) :]
        assert not span.matrix[:, : -block.shape[1]][: dim_harmonic(n, m)].any()
        for j in range(1, dim_harmonic(n, m) + 1):
            row = block[span.labels.index(f"L0^[{Fraction(n, 2) - 1 + m}]*h_{m}_{j}")]
            terms = dict(solid_harmonic_poly(n, m, j))
            poly = np.array([terms.get(e, 0) for e in multi_indices(n, m)], dtype=float)
            i = np.flatnonzero(poly)[0]
            assert row[i] * poly[i] > 0 and np.array_equal(row * poly[i], poly * row[i]), (m, j)


def test_solid_harmonic_refuses_coefficients_past_2_53():
    # R_j h at n = 3, s = 16 reaches about 4.4e17; s = 12 stays near 4.1e11
    assert max(abs(c) for _, c in solid_harmonic_poly(3, 12, 1)) < 2**53
    with pytest.raises(ResourceLimitError, match="2\\^53"):
        solid_harmonic_poly(3, 16, 1)


def test_laguerre_rows_are_primitive_and_refuse_a_bound_past_2_53(monkeypatch, fresh_spans):
    for n in (1, 2, 3, 4):
        for m in range(9):
            for row in laguerre_harmonic_span(n, m).matrix:
                assert math.gcd(*map(int, row)) == 1 and np.array_equal(row, np.round(row))
    # every Laguerre coefficient planted 2^40 times larger: each row divides
    # the factor out again; 2^53 times larger, the bound passes 2^53
    want = laguerre_harmonic_span(3, 6).matrix
    coeffs = ps._laguerre_coeffs_frac
    for scale, refused in ((2**40, False), (2**53, True)):
        laguerre_harmonic_span.cache_clear()
        monkeypatch.setattr(ps, "_laguerre_coeffs_frac", lambda k, beta: [scale * c for c in coeffs(k, beta)])
        if refused:
            with pytest.raises(ResourceLimitError, match="2\\^53"):
                laguerre_harmonic_span(3, 6)
        else:
            assert np.array_equal(laguerre_harmonic_span(3, 6).matrix, want)


@pytest.mark.parametrize("value", (math.inf, math.nan))
def test_comparisons_refuse_a_non_finite_span(value):
    # a non-finite coefficient in any block is a ValueError naming its
    # generator, with no warning on the way, in both comparisons and on
    # either side
    a, b = hermite_span(2, 3), laguerre_harmonic_span(2, 3)
    for col in (-1, 0):
        planted = b.matrix.copy()
        planted[0, col] = value
        bad = PolySpan(2, 3, b.monomials, planted, b.labels)
        for compare in (spans_equal, heat_certificate):
            for pair in ((a, bad), (bad, a)):
                with pytest.raises(ValueError, match=re.escape(f"generator {b.labels[0]} ")):
                    compare(*pair)


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
    monkeypatch.setattr(ps, "_harmonic_sweep", lambda *args: pytest.fail("a span past the cap was built"))
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
