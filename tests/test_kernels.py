import math

import numpy as np
import pytest

from oscspectra import kernels
from oscspectra.errors import DimensionMismatchError, ResourceLimitError
from oscspectra.kernels import (
    kernel_bench,
    multi_index_count,
    multi_indices,
    phi_direct,
    phi_direct_values,
    phi_polar,
    phi_polar_values,
    polar_term_count,
)
from oscspectra.special_functions import hermite_fn_multi

from _oracles import phi_polar_per_term


def test_multi_indices_listing_n2_m2():
    assert multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_multi_indices_n1():
    assert multi_indices(1, 7) == [(7,)]


def test_multi_index_count_closed_form():
    assert multi_index_count(3, 40) == math.comb(42, 2) == 861
    assert len(multi_indices(3, 12)) == math.comb(14, 2)


def test_multi_indices_unique_and_complete():
    idx = multi_indices(3, 6)
    assert len(set(idx)) == len(idx)
    assert all(sum(a) == 6 for a in idx)
    # leading entries never increase (the (2,0),(1,1),(0,2) order)
    heads = [a[0] for a in idx]
    assert heads == sorted(heads, reverse=True)


def test_multi_indices_resource_cap():
    with pytest.raises(ResourceLimitError):
        multi_indices(6, 80)


def test_phi_direct_ground_level_closed_form():
    x = np.array([0.7, -0.2])
    y = np.array([1.1, 0.4])
    want = math.pi**-1 * math.exp(-(x @ x + y @ y) / 2)
    res = phi_direct(2, 0, x, y)
    assert res.value == pytest.approx(want, rel=1e-14)
    assert res.terms_evaluated == 1 and res.method == "direct"


def test_phi_direct_odd_level_vanishes_at_origin():
    assert phi_direct(3, 5, [0, 0, 0], [1.0, -2.0, 0.5]).value == 0.0


def test_phi_direct_symmetric():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=(20, 2))
    y = rng.uniform(-2, 2, size=(20, 2))
    assert np.array_equal(
        phi_direct_values(2, 5, x, y), phi_direct_values(2, 5, y, x)
    )


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_phi_direct_matches_enumerated_sum(n, monkeypatch):
    # the explicit sum over multi_indices is the oracle for the nested grouping;
    # from n = 3 on the 7 pairs also run in blocks of 3, 3 and 1 pairs
    rng = np.random.default_rng(200 + n)
    x = np.vstack([np.zeros(n), rng.uniform(-3, 3, size=(6, n))])
    y = np.vstack([rng.uniform(-3, 3, size=(1, n)), np.zeros(n), rng.uniform(-3, 3, size=(5, n))])
    for m in range(11):
        terms = np.array([hermite_fn_multi(a, x) * hermite_fn_multi(a, y) for a in multi_indices(n, m)])
        got = phi_direct_values(n, m, x, y)
        assert np.all(np.abs(got - terms.sum(axis=0)) <= 1e-13 * np.abs(terms).sum(axis=0))
        if n >= 3:
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_BLOCK_BYTES", 3 * 8 * (m + 1))
                assert np.array_equal(phi_direct_values(n, m, x, y), got)


@pytest.mark.parametrize("n", (3, 4))
def test_phi_direct_empty_batch(n):
    assert phi_direct_values(n, 5, np.empty((0, n)), np.empty((0, n))).shape == (0,)


def test_phi_direct_n6_m40_matches_polar():
    rng = np.random.default_rng(640)
    x = rng.uniform(-3, 3, size=(1000, 6))
    y = rng.uniform(-3, 3, size=(1000, 6))
    d = phi_direct_values(6, 40, x, y)
    p = phi_polar_values(6, 40, x, y)
    assert (np.abs(d - p) / (1 + np.abs(d))).max() < 1e-8


@pytest.mark.parametrize("fn", (phi_direct_values, phi_polar_values))
@pytest.mark.parametrize("n, m", ((0, 2), (2, -1)))
def test_kernel_values_reject_bad_dimension_or_level(fn, n, m):
    with pytest.raises(ValueError):
        fn(n, m, np.ones(2), np.ones(2))


@pytest.mark.parametrize("fn", (phi_direct_values, phi_polar_values))
@pytest.mark.parametrize(
    "n, x_shape, y_shape",
    ((3, (3, 2), (3, 2)), (2, (2, 3), (3, 2)), (3, (2, 2, 3), (2, 2, 3)), (1, (3,), (3,))),
)
def test_kernel_values_refuse_wrong_dimension_batches(fn, n, x_shape, y_shape):
    # a batch is never reshaped into points of another dimension; at n = 1 a
    # 1-D array of length 3 is one point of dimension 3, as in ScalarField
    with pytest.raises(DimensionMismatchError):
        fn(n, 2, np.ones(x_shape), np.ones(y_shape))


def _rel(a, b):
    return (np.abs(a - b) / (1 + np.abs(b))).max()


@pytest.mark.parametrize(
    "n, m", ((3, 40), (3, 200), (2, 300), (4, 40), (6, 40), (3, 600), (1, 9), (5, 17))
)
def test_polar_matches_per_term_oracle(n, m):
    rng = np.random.default_rng(10 * n + m)
    x = rng.uniform(-3, 3, size=(100, n))
    y = rng.uniform(-3, 3, size=(100, n))
    x[0] = 0.0
    y[1] = 0.0
    y[2] = x[2]
    y[3] = -x[3]
    y[4] *= 1e-9
    p = phi_polar_values(n, m, x, y)
    assert _rel(p, phi_polar_per_term(n, m, x, y)) <= 1e-13
    assert _rel(p, phi_direct_values(n, m, x, y)) <= 1e-12


@pytest.mark.parametrize("n, m, half_width", ((2, 300, 10.0), (3, 600, 6.0), (3, 600, 10.0)))
def test_polar_matches_direct_wide_box(n, m, half_width):
    # far from the origin the high-order Laguerre factors are tiny; they
    # must not underflow before the (ru)^s factor is applied
    rng = np.random.default_rng(7 * n + m)
    x = rng.uniform(-half_width, half_width, size=(200, n))
    y = rng.uniform(-half_width, half_width, size=(200, n))
    assert _rel(phi_polar_values(n, m, x, y), phi_direct_values(n, m, x, y)) <= 1e-12


def test_polar_overflow_raises_resource_limit():
    with pytest.raises(ResourceLimitError):
        phi_polar_values(3, 1500, np.ones(3), np.ones(3))


def test_phi_polar_ground_level_matches_direct():
    x = np.array([1.3, -0.4, 0.2])
    y = np.array([-0.6, 0.9, 1.0])
    want = math.pi**-1.5 * math.exp(-(x @ x + y @ y) / 2)
    res = phi_polar(3, 0, x, y)
    assert res.value == pytest.approx(want, rel=1e-13)
    assert res.value == pytest.approx(phi_direct(3, 0, x, y).value, rel=1e-13)


def test_phi_polar_level_one_vanishes_at_origin():
    res = phi_polar(2, 1, [0.0, 0.0], [1.0, 2.0])
    assert res.value == 0.0
    assert res.terms_evaluated == 1


def test_phi_polar_origin_even_level_matches_direct():
    for m in (2, 4, 6):
        d = phi_direct(3, m, [0, 0, 0], [0.4, -1.2, 0.7]).value
        p = phi_polar(3, m, [0, 0, 0], [0.4, -1.2, 0.7]).value
        assert p == pytest.approx(d, rel=1e-12, abs=1e-15)


def test_phi_polar_matches_direct_n3_m6():
    rng = np.random.default_rng(12)
    x = rng.uniform(-3, 3, size=(50, 3))
    y = rng.uniform(-3, 3, size=(50, 3))
    d = phi_direct_values(3, 6, x, y)
    p = phi_polar_values(3, 6, x, y)
    assert (np.abs(d - p) / (1 + np.abs(d))).max() < 1e-9


@pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
def test_kernel_equality_across_levels(n):
    rng = np.random.default_rng(100 + n)
    for m in range(13):
        x = rng.uniform(-3, 3, size=(50, n))
        y = rng.uniform(-3, 3, size=(50, n))
        d = phi_direct_values(n, m, x, y)
        p = phi_polar_values(n, m, x, y)
        assert (np.abs(d - p) / (1 + np.abs(d))).max() < 1e-8


def test_polar_rotation_invariance():
    # the polar kernel depends only on |x|, |y|, x'.y'
    rng = np.random.default_rng(8)
    theta = 1.234
    g = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    x = rng.uniform(-2, 2, size=(20, 2))
    y = rng.uniform(-2, 2, size=(20, 2))
    a = phi_polar_values(2, 5, x, y)
    b = phi_polar_values(2, 5, x @ g.T, y @ g.T)
    assert np.abs(a - b).max() < 1e-12


def test_diagonal_positivity():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3, 3, size=(30, 2))
    for m in (0, 1, 4, 9):
        diag_direct = phi_direct_values(2, m, x, x)
        diag_polar = phi_polar_values(2, m, x, x)
        assert diag_direct.min() >= 0.0
        assert np.abs(diag_direct - diag_polar).max() < 1e-10


def test_term_counts():
    assert phi_direct(3, 40, np.ones(3), np.ones(3)).terms_evaluated == 861
    assert phi_polar(3, 40, np.ones(3), np.ones(3)).terms_evaluated == 21
    assert phi_direct(2, 10, np.ones(2), np.ones(2)).terms_evaluated == 11
    assert phi_polar(2, 10, np.ones(2), np.ones(2)).terms_evaluated == 6
    # n=1: direct has a single multi-index, polar still loops floor(m/2)+1
    assert phi_direct(1, 5, [0.3], [0.4]).terms_evaluated == 1
    assert phi_polar(1, 5, [0.3], [0.4]).terms_evaluated == 3
    assert polar_term_count(5) == 3


def test_log_space_path_high_level():
    rng = np.random.default_rng(44)
    x = rng.uniform(-3, 3, size=(10, 2))
    y = rng.uniform(-3, 3, size=(10, 2))
    d = phi_direct_values(2, 36, x, y)
    p = phi_polar_values(2, 36, x, y)
    assert (np.abs(d - p) / (1 + np.abs(d))).max() < 1e-10


def test_kernel_bench_records():
    recs = kernel_bench(3, 8, trials=25, seed=1)
    by_method = {r.method: r for r in recs}
    assert by_method["direct"].terms == math.comb(10, 2)
    assert by_method["polar"].terms == 5
    assert recs[0].max_rel_diff == recs[1].max_rel_diff < 1e-8
    assert all(r.nanos_per_eval > 0 for r in recs)


def test_kernel_rejects_nonfinite_points():
    with pytest.raises(ValueError):
        phi_direct(2, 1, [np.nan, 0.0], [1.0, 2.0])
