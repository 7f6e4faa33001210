import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from oscspectra.special_functions import (
    gegenbauer,
    hermite_fn,
    hermite_fn_multi,
    hermite_table,
    laguerre_antidiagonal_table,
    laguerre_fn,
    laguerre_fn_table,
    laguerre_poly,
)
from oscspectra import quadrature, special_functions
from oscspectra.quadrature import gauss_radial
from oscspectra.errors import DimensionMismatchError

from _oracles import fd_first, fd_second, gegenbauer_series, laguerre_series

BETAS = (-0.5, 0.5, 1.0, 3.5)


def test_laguerre_poly_degree_zero_is_one():
    assert laguerre_poly(0, 0.5, 3.7) == 1.0


def test_laguerre_poly_degree_one():
    # beta + 1 - t at (0.5, 2.0); series oracle gives the same -0.5
    assert laguerre_poly(1, 0.5, 2.0) == pytest.approx(-0.5, abs=1e-15)
    assert laguerre_series(1, 0.5, 2.0) == pytest.approx(-0.5, abs=1e-15)


def test_laguerre_poly_at_zero_is_binomial():
    # L_k^beta(0) = C(k+beta, k); k=5, beta=1 -> C(6,5) = 6
    assert laguerre_poly(5, 1.0, 0.0) == pytest.approx(6.0, rel=1e-14)


@pytest.mark.parametrize("beta", BETAS)
def test_laguerre_poly_matches_series(beta):
    rng = np.random.default_rng(42)
    ts = rng.uniform(0.0, 12.0, size=12)
    for k in range(16):
        for t in ts:
            want = laguerre_series(k, beta, t)
            got = laguerre_poly(k, beta, float(t))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_laguerre_order_must_exceed_minus_one():
    with pytest.raises(ValueError):
        laguerre_poly(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        laguerre_fn(2, -1.5, 1.0)


def test_laguerre_fn_ground_state():
    beta, r = 0.5, 1.0
    want = math.sqrt(2.0 / math.gamma(beta + 1)) * math.exp(-r * r / 2)
    assert laguerre_fn(0, beta, r) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("a", (17.5, 41.5, 150.0, 60.0))
def test_laguerre_antidiagonal_matches_series(a):
    # g_k = L_k^{(a-2k)}(x) e^{-x/2} against the exact rational series
    xs = np.array([0.0, 0.7, 5.0, 27.0])
    table = laguerre_antidiagonal_table(29, a, xs)
    for j, x in enumerate(xs):
        want = np.array([laguerre_series(k, a - 2 * k, x) for k in range(30)]) * math.exp(-x / 2)
        assert np.abs(table[:, j] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("beta", BETAS)
def test_laguerre_fn_orthonormal_gram(beta):
    rule = gauss_radial(80, beta)
    table = laguerre_fn_table(20, beta, rule.nodes)
    gram = (table * rule.weights) @ table.T
    assert np.abs(gram - np.eye(21)).max() < 1e-10


def test_laguerre_fn_ode_residual_converges_at_fd_order():
    # -ell'' - (2b+1)/r ell' + r^2 ell = 2(2k+b+1) ell, residual by central
    # differences; the residual must shrink at the stencil's order.
    r = 1.3
    for beta in (0.5, 1.0):
        for k in range(9):
            fn = lambda x: laguerre_fn(k, beta, x)
            resid = []
            for h in (0.02, 0.01, 0.005):
                val = (
                    -fd_second(fn, r, h)
                    - (2 * beta + 1) / r * fd_first(fn, r, h)
                    + r * r * fn(r)
                    - 2 * (2 * k + beta + 1) * fn(r)
                )
                resid.append(abs(val))
            order = math.log2(resid[0] / resid[1])
            assert order > 3.0, (beta, k, resid)


def test_hermite_ground_state():
    xs = np.linspace(-3, 3, 7)
    want = math.pi**-0.25 * np.exp(-xs * xs / 2)
    assert np.abs(hermite_fn(0, xs) - want).max() < 1e-15


def test_hermite_ground_state_eigenvalue_one():
    # (-d^2/dx^2 + x^2) h_0 = 1 * h_0
    fn = lambda x: hermite_fn(0, x)
    for x in (0.3, 1.1):
        val = -fd_second(fn, x, 0.01) + x * x * fn(x)
        assert val == pytest.approx(1.0 * fn(x), abs=1e-9)


def test_hermite_orthonormal_against_numpy_rule():
    # oracle quadrature from numpy's own Gauss-Hermite nodes
    x, w = hermgauss(64)
    table = hermite_table(20, x)
    gram = (table * (w * np.exp(x * x))) @ table.T
    assert np.abs(gram - np.eye(21)).max() < 1e-12


def test_hermite_parity():
    xs = np.linspace(0.1, 4.0, 9)
    for k in range(12):
        assert np.array_equal(hermite_fn(k, -xs), (-1) ** k * hermite_fn(k, xs))


def test_hermite_multi_ground_state():
    pts = np.array([[0.5, -1.0], [1.5, 2.0]])
    want = math.pi**-0.5 * np.exp(-0.5 * np.sum(pts * pts, axis=1))
    assert np.abs(hermite_fn_multi((0, 0), pts) - want).max() < 1e-15


def test_hermite_multi_odd_factor_vanishes_at_zero():
    assert hermite_fn_multi((1, 0), [0.0, 5.0]) == 0.0


def test_hermite_multi_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        hermite_fn_multi((1, 0), [1.0, 2.0, 3.0])


def test_gegenbauer_degree_zero_and_one():
    assert gegenbauer(0, 1.5, 0.3) == 1.0
    assert gegenbauer(1, 1.5, 0.3) == pytest.approx(2 * 1.5 * 0.3, rel=1e-14)


def test_gegenbauer_at_one_is_binomial():
    # C_s^lam(1) = C(s + 2 lam - 1, s), via the series oracle
    for s in (0, 1, 4, 9):
        for lam in (0.5, 1.0, 2.0):
            want = gegenbauer_series(s, lam, 1.0)
            assert gegenbauer(s, lam, 1.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("lam", (0.5, 1.0, 2.5))
def test_gegenbauer_matches_series(lam):
    rng = np.random.default_rng(11)
    ts = rng.uniform(-1.0, 1.0, size=12)
    for s in range(16):
        for t in ts:
            want = gegenbauer_series(s, lam, t)
            assert gegenbauer(s, lam, float(t)) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_high_degree_evaluations_stay_finite():
    assert math.isfinite(hermite_fn(150, 3.0))
    assert math.isfinite(laguerre_fn(150, 0.5, 5.0))
    assert abs(hermite_fn(150, 3.0)) < 1.0  # normalized functions are bounded


def test_gegenbauer_family_at_lam_zero_is_orthonormal_chebyshev():
    # b_1 = 1/sqrt(2) and p_0 = pi^{-1/2}, the limits of the lam > 0 formulas,
    # with no 0/0 warning; the rows are sqrt(2/pi) T_k for k >= 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, psi0 = special_functions._gegenbauer_family(12, 0.0)
        t = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(3).uniform(-1, 1, 20)])
        rows = special_functions._orthonormal_table(t, a, b, psi0)
        # the 12-node Gauss rule of the family is Gauss-Chebyshev: weights pi/12
        nodes, weights = quadrature._golub_welsch(a, b, psi0)
    gram = special_functions._orthonormal_table(nodes, a[:-1], b[:-1], psi0)
    assert np.abs((gram * weights) @ gram.T - np.eye(12)).max() < 1e-14
    assert np.abs(weights - math.pi / 12).max() < 1e-14
    assert b[0] == pytest.approx(math.sqrt(0.5), rel=1e-15) and b[1:] == [0.5] * 11
    assert special_functions._gegenbauer_p0(0.0) == pytest.approx(math.pi**-0.5, rel=1e-15)
    k = np.arange(13)[:, None]
    want = np.where(k == 0, 1.0, math.sqrt(2.0)) * np.cos(k * np.arccos(t)) / math.sqrt(math.pi)
    assert np.abs(rows - want).max() < 1e-13


def test_every_orthonormal_family_runs_through_the_one_recurrence(monkeypatch):
    # the Hermite, Laguerre and Gegenbauer tables and the Hermite, Laguerre
    # and Legendre Gauss rules all run one three-term recurrence generator
    runs = []
    generator = special_functions._orthonormal_rows

    def counted(*args):
        runs.append(len(args[1]))
        return generator(*args)

    monkeypatch.setattr(special_functions, "_orthonormal_rows", counted)
    x = np.linspace(0.0, 2.0, 5)
    calls = {
        "hermite_table": lambda: hermite_table(4, x),
        "hermite_fn": lambda: hermite_fn(4, x),
        "laguerre_fn_table": lambda: laguerre_fn_table(4, 0.5, x),
        "gegenbauer_table": lambda: special_functions.gegenbauer_table(4, 1.5, x / 2.0),
        "gauss_legendre": lambda: quadrature.gauss_legendre(6),
        "gauss_hermite": lambda: quadrature.gauss_hermite.__wrapped__(6),
        "gauss_radial": lambda: quadrature.gauss_radial.__wrapped__(6, 0.5),
    }
    for name, call in calls.items():
        runs.clear()
        call()
        assert runs, name
