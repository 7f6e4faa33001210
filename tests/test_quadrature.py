import io
import math

import numpy as np
import pytest

from oscspectra.errors import ContractViolationError, ResourceLimitError
from oscspectra.fields import f0_gauss
from oscspectra.harmonics import sph_basis
from oscspectra.quadrature import (
    gauss_hermite,
    gauss_legendre,
    gauss_radial,
    radial_rule_compact,
    sphere_rule,
    tensor_rule,
)
from oscspectra.special_functions import hermite_fn_multi, hermite_table, laguerre_fn_table


@pytest.mark.parametrize(
    "build, args",
    [(gauss_hermite, (12,)), (gauss_radial, (20, 0.5)), (sphere_rule, (3, 6))],
    ids=["hermite", "radial", "sphere"],
)
def test_rule_builders_are_memoized_and_read_only(build, args):
    rule = build(*args)
    assert build(*args) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_gauss_hermite_total_mass():
    for n in (1, 2, 8, 64, 400, 600):
        rule = gauss_hermite(n)
        got = rule.integrate(lambda x: np.exp(-x * x))
        assert got == pytest.approx(math.sqrt(math.pi), abs=1e-14)
        # the full Gram of the Hermite functions, including the largest rules
        vals = hermite_table(n - 1, rule.nodes)
        assert np.abs((vals * rule.weights) @ vals.T - np.eye(n)).max() < 1e-13


def test_gauss_hermite_second_moment():
    rule = gauss_hermite(2)
    got = rule.integrate(lambda x: x * x * np.exp(-x * x))
    assert got == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-14)


def test_gauss_hermite_single_node_rule():
    rule = gauss_hermite(1)
    assert rule.nodes == pytest.approx([0.0])
    assert rule.weights == pytest.approx([math.sqrt(math.pi)])


def test_gauss_hermite_moments_match_gamma():
    # moment 2j of exp(-x^2) is Gamma(j + 1/2); odd moments vanish relative
    # to the neighboring even moment's scale
    n = 24
    rule = gauss_hermite(n)
    for j in range(2 * n - 1):
        got = rule.integrate(lambda x: x**j * np.exp(-x * x))
        if j % 2:
            assert abs(got) < 1e-12 * math.gamma(j / 2 + 1)
        else:
            assert got == pytest.approx(math.gamma((j + 1) / 2), rel=1e-12)


def test_gauss_hermite_node_symmetry_exact():
    rule = gauss_hermite(33)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])


@pytest.mark.parametrize("beta", (-0.5, 0.5, 1.0, 3.5))
def test_gauss_radial_moments(beta):
    rule = gauss_radial(40, beta)
    got = rule.integrate(lambda r: np.exp(-r * r))
    assert got == pytest.approx(math.gamma(beta + 1) / 2, rel=1e-13)
    for j in range(1, 10):
        got = rule.integrate(lambda r: r ** (2 * j) * np.exp(-r * r))
        assert got == pytest.approx(math.gamma(j + beta + 1) / 2, rel=1e-12)


@pytest.mark.parametrize("size", (80, 200, 340))
def test_gauss_radial_laguerre_orthonormality(size):
    beta = 0.5
    rule = gauss_radial(size, beta)
    vals = laguerre_fn_table(size - 1, beta, rule.nodes)
    assert np.abs((vals * rule.weights) @ vals.T - np.eye(size)).max() < 1e-13


def test_gauss_radial_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_radial(10, -1.0)


def test_gauss_legendre_matches_interval_moments():
    x, w = gauss_legendre(12)
    for j in range(24):
        want = 0.0 if j % 2 else 2.0 / (j + 1)
        assert w @ x**j == pytest.approx(want, abs=1e-14)


def test_radial_rule_compact_polynomial_exactness():
    rule = radial_rule_compact(16, 2.5, panels=3)
    for j in range(10):
        got = rule.integrate(lambda r: r**j)
        assert got == pytest.approx(2.5 ** (j + 1) / (j + 1), rel=1e-13)


def test_sphere_rule_total_mass():
    for n, want in ((1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)):
        rule = sphere_rule(n, 6)
        got = rule.integrate(lambda p: np.ones(len(p)))
        assert got == pytest.approx(want, abs=1e-14 * max(1, want))


def test_sphere_rule_kills_nonconstant_harmonics():
    for n in (2, 3):
        rule = sphere_rule(n, 12)
        for s in (1, 3, 5):
            vals = sph_basis(n, s).evaluate_all(rule.nodes)
            assert np.abs(vals @ rule.weights).max() < 1e-12


def test_sphere_rule_gram_degree_four():
    rule = sphere_rule(3, 8)
    vals = sph_basis(3, 4).evaluate_all(rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    assert np.abs(gram - np.eye(9)).max() < 1e-12


def test_sphere_rule_unsupported_dimension():
    with pytest.raises(ValueError):
        sphere_rule(4, 6)


def test_tensor_rule_hermite_gram():
    rule = tensor_rule(gauss_hermite(32), 2)
    from oscspectra.kernels import multi_indices

    idx = [a for m in range(7) for a in multi_indices(2, m)]
    vals = np.array([hermite_fn_multi(a, rule.nodes) for a in idx])
    gram = (vals * rule.weights) @ vals.T
    assert np.abs(gram - np.eye(len(idx))).max() < 1e-12


def test_tensor_rule_gaussian_mass():
    for n in (1, 2, 3):
        rule = tensor_rule(gauss_hermite(16), n)
        got = rule.integrate(lambda p: np.exp(-np.sum(p * p, axis=1)))
        assert got == pytest.approx(math.pi ** (n / 2), rel=1e-13)


def test_tensor_rule_n1_matches_line():
    line = gauss_hermite(9)
    rule = tensor_rule(line, 1)
    assert np.array_equal(rule.nodes.ravel(), line.nodes)
    assert np.array_equal(rule.weights, line.weights)


def test_tensor_rule_size_cap():
    with pytest.raises(ResourceLimitError):
        tensor_rule(gauss_hermite(256), 4)


def test_tensor_rule_requires_hermite_line():
    rule = sphere_rule(2, 4)
    with pytest.raises(ContractViolationError):
        tensor_rule(rule, 2)


def test_polar_factorization_at_quadrature_level():
    # f(x) = f0(|x|) * Y(x') * gaussian weight carried by f0: tensor-rule
    # integral equals radial integral times sphere integral
    n, s = 3, 2
    basis = sph_basis(n, s)
    elem = lambda p: basis.evaluate_all(p)[1]  # noqa: E731
    tensor = tensor_rule(gauss_hermite(48), n)

    def f(p):
        r = np.linalg.norm(p, axis=1)
        unit = np.where(r[:, None] > 0, p / np.where(r[:, None] > 0, r[:, None], 1.0), 0.0)
        return f0_gauss(r) ** 2 * r ** (2 * s) * elem(unit) ** 2

    full = tensor.integrate(f)
    radial = gauss_radial(60, n / 2 - 1 + s).integrate(lambda r: f0_gauss(r) ** 2)
    sphere = sphere_rule(n, 2 * s + 2)
    sph = float(sphere.weights @ (elem(sphere.nodes) ** 2))
    assert abs(full - radial * sph) < 1e-10


def test_rule_csv_dump():
    rule = gauss_radial(5, 0.5)
    buf = io.StringIO()
    rule.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# domain: radial(beta=0.5)")
    assert lines[2] == "x1,weight"
    assert len(lines) == 3 + 5
    x, w = map(float, lines[3].split(","))
    assert w > 0 and x > 0
