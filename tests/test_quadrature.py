import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from oscspectra import quadrature
from oscspectra.cli import main
from oscspectra.errors import ContractViolationError, ResourceLimitError
from oscspectra.fields import f0_gauss, gaussian_field
from oscspectra.harmonics import sph_basis
from oscspectra.projections import default_radial_rules, field_norm_sq
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
    [
        (gauss_hermite, (12,)),
        (gauss_radial, (20, 0.5)),
        (sphere_rule, (3, 6)),
        (default_radial_rules, (3, 1.0)),
        (tensor_rule, (gauss_hermite(12), 3)),
    ],
    ids=["hermite", "radial", "sphere", "compact", "tensor"],
)
def test_rule_builders_are_memoized_and_read_only(build, args):
    rule = build(*args)
    assert build(*args) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_warm_verify_pass_runs_no_eigensolve(monkeypatch):
    # every rule a verify pass needs, compact radial rules included, is
    # memoized, so a repeated pass runs no Golub-Welsch solve at all
    argv = ["verify", "--n", "3", "--m-max", "4", "--seed", "3"]
    main(argv)
    solves = []
    build = quadrature._golub_welsch
    monkeypatch.setattr(
        quadrature, "_golub_welsch", lambda *args: solves.append(len(args[0])) or build(*args)
    )
    assert main(argv) == 0
    assert solves == []


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


def test_rules_are_capped_where_the_gram_check_stops_passing():
    # the largest rules still pass their full Gram check; one node more is
    # a resource-cap error, never a ValueError or a silent fallback
    rule = gauss_hermite(quadrature._LINE_CAP)
    vals = hermite_table(len(rule.nodes) - 1, rule.nodes)
    assert np.abs((vals * rule.weights) @ vals.T - np.eye(len(vals))).max() < 1e-12
    for beta in (-0.5, 0.0, 0.5):
        rule = gauss_radial(quadrature._RADIAL_CAP, beta)
        vals = laguerre_fn_table(len(rule.nodes) - 1, beta, rule.nodes)
        assert np.abs((vals * rule.weights) @ vals.T - np.eye(len(vals))).max() < 1e-12
    with pytest.raises(ResourceLimitError):
        gauss_hermite(quadrature._LINE_CAP + 1)
    with pytest.raises(ResourceLimitError):
        gauss_radial(quadrature._RADIAL_CAP + 1, 0.5)


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
    masses = ((1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi), (4, 2 * math.pi**2), (5, 8 * math.pi**2 / 3), (6, math.pi**3))
    for n, want in masses:
        rule = sphere_rule(n, 6)
        got = rule.integrate(lambda p: np.ones(len(p)))
        assert got == pytest.approx(want, abs=1e-14 * max(1, want))


def test_sphere_rule_kills_nonconstant_harmonics():
    for n in (2, 3, 4, 5, 6):
        rule = sphere_rule(n, 12)
        for s in (1, 3, 5):
            vals = sph_basis(n, s).evaluate_all(rule.nodes)
            assert np.abs(vals @ rule.weights).max() < 1e-12


def test_sphere_rule_gram_degree_four():
    rule = sphere_rule(3, 8)
    vals = sph_basis(3, 4).evaluate_all(rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    assert np.abs(gram - np.eye(9)).max() < 1e-12


@pytest.mark.parametrize("n", (1, 2, 3))
def test_sphere_rule_is_z_rule_times_uniform_azimuths(n):
    # node iz * nphi + i is the meridian point of line node iz turned
    # through 2 pi i / nphi; its weight is the line weight times one
    # uniform azimuth weight
    rule = sphere_rule(n, 9)
    # the bases keep no line: {-1, +1} at n = 1, the circle z = 0 at n = 2
    z = rule.line.nodes if n == 3 else {1: np.array([-1.0, 1.0]), 2: np.zeros(1)}[n]
    wz = rule.line.weights if n == 3 else np.ones(len(z))
    nphi = len(rule.nodes) // len(z)
    assert len(z) * nphi == len(rule.nodes)
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    rho = np.sqrt(1.0 - z * z)[:, None]
    want = np.zeros((len(z), nphi, n))
    want[..., 0] = rho * np.cos(phi)
    if n > 1:
        want[..., 1] = rho * np.sin(phi)
    if n != 2:  # the circle's line is the single node z = 0
        want[..., -1] = z[:, None]
    assert np.abs(rule.nodes - want.reshape(-1, n)).max() < 1e-15
    azimuth = rule.weights.reshape(len(z), nphi) / wz[:, None]
    assert np.abs(azimuth - azimuth[0, 0]).max() < 1e-15
    assert azimuth[0, 0] * nphi * wz.sum() == pytest.approx(rule.weights.sum(), rel=1e-14)


def test_legendre_sphere_and_polar_grids_are_capped_before_they_allocate(capsys):
    with pytest.raises(ResourceLimitError):
        gauss_legendre(quadrature._LINE_CAP + 1)
    with pytest.raises(ResourceLimitError):
        sphere_rule(3, 1500)  # 751 Legendre nodes in z
    with pytest.raises(ResourceLimitError):
        sphere_rule(2, quadrature._TENSOR_CAP)  # one azimuth too many
    # 381 radial nodes times a 30,001-node circle is past 1e7 grid points
    with pytest.raises(ResourceLimitError):
        field_norm_sq(dataclasses.replace(gaussian_field(2), band=15000, degree=760))
    assert main(["--dump-rule", "radial_compact:n=745"]) == 3
    assert "resource cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_sphere_rule_is_gegenbauer_line_times_the_lower_rule(n):
    # node iz * N + i is node i of sphere_rule(n - 1) scaled by sqrt(1 - z^2)
    # with z appended; its weight is the product of the two weights
    rule, lower = sphere_rule(n, 7), sphere_rule(n - 1, 7)
    z, wz = rule.line.nodes, rule.line.weights
    assert len(z) == 4 and len(rule.nodes) == len(z) * len(lower.nodes)
    nodes = rule.nodes.reshape(len(z), len(lower.nodes), n)
    assert np.abs(nodes[..., :-1] - np.sqrt(1.0 - z * z)[:, None, None] * lower.nodes).max() < 1e-15
    assert np.array_equal(nodes[..., -1], np.repeat(z[:, None], len(lower.nodes), axis=1))
    assert np.allclose(rule.weights, np.outer(wz, lower.weights).ravel(), rtol=1e-15, atol=0)
    # the line is the Gauss rule of (1 - z^2)^{(n-3)/2} dz: exact to degree 7
    mass = math.sqrt(math.pi) * math.gamma((n - 1) / 2) / math.gamma(n / 2)
    for j in range(0, 8, 2):
        want = mass * math.prod((i + 0.5) / (i + n / 2) for i in range(j // 2))
        assert wz @ z**j == pytest.approx(want, rel=1e-14)


def test_sphere_rule_unsupported_dimension():
    with pytest.raises(ValueError):
        sphere_rule(0, 6)


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
    before = quadrature._tensor_rule.cache_info()
    with pytest.raises(ContractViolationError):
        tensor_rule(rule, 2)
    # refused before the memo is consulted
    assert quadrature._tensor_rule.cache_info() == before


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


@pytest.mark.parametrize("n, beta", [(382, 2.0), (382, 2.5), (340, 50.0)])
def test_radial_breakdown_below_the_cap_is_a_resource_error(n, beta):
    # psi_0 underflows at the outer nodes before the 382-node cap when beta
    # is large; one node fewer at beta = 2 still builds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceLimitError, match=f"{n} nodes"):
            gauss_radial(n, beta)
        assert len(gauss_radial(381, 2.0).nodes) == 381


def test_radial_breakdown_exits_3_from_dump_rule_and_field_norm(capsys):
    assert main(["--dump-rule", "radial:n=382,beta=2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "resource cap exceeded" in err
    with pytest.raises(ResourceLimitError):
        field_norm_sq(dataclasses.replace(gaussian_field(6), degree=762))
