import dataclasses
import io
import math

import numpy as np
import pytest

from oscspectra.errors import ContractViolationError, DimensionMismatchError, IntegrabilityError, ResourceLimitError
from oscspectra.fields import (
    SWEEP_BLOCK,
    ScalarField,
    parse_field_id,
    bump_field,
    f0_gauss,
    f0_gauss_poly,
    gaussian_field,
    hermite_eigenfield,
    polar_eigenfield,
    polar_eigenvalue,
    polar_levels,
    radial_harmonic_field,
    random_band_limited,
    random_solid_harmonic,
    truncated_gaussian_field,
)
from oscspectra.harmonics import sph_basis
from oscspectra.quadrature import sphere_rule
from oscspectra.projections import (
    _extraction_operator,
    coefficient_decay_probe,
    default_radial_rules,
    eigen_order_study,
    field_norm_sq,
    hecke_bochner,
    hermite_coeffs,
    hermite_levels,
    parseval_check,
    polar_coeffs,
    project,
    rotation_commutes,
)
from oscspectra.quadrature import QuadratureRule, _tensor_rule, gauss_hermite, gauss_radial, tensor_rule
from oscspectra.special_functions import hermite_fn_multi
from oscspectra.verify import DEFAULT_TOLERANCES, check_hecke, check_oone, check_rotation, run_suite

from _oracles import (
    coefficient_entries,
    field_norm_sq_fixed,
    hecke_closed_form_closure,
    hermite_coeffs_fixed,
    polar_coeffs_fixed,
    polar_coeffs_full_sphere,
    polar_eigenfield_closure,
)


def offdiag_max(coeffs, key):
    return max((abs(v) for k, v in coeffs.entries.items() if k != key), default=0.0)


def test_hermite_coeffs_eigenfield_orthonormality():
    f = hermite_eigenfield((2, 1))
    c = hermite_coeffs(f, 4)
    assert c.entries[(2, 1)] == pytest.approx(1.0, abs=1e-11)
    assert offdiag_max(c, (2, 1)) < 1e-11


def test_hermite_coeffs_reach_past_n3_and_refuse_an_oversized_tensor():
    for alpha in ((1, 0, 2, 1), (1, 0, 1, 0, 1)):
        c = hermite_coeffs(hermite_eigenfield(alpha), 4)
        assert c.entries[alpha] == pytest.approx(1.0, abs=1e-12)
        assert offdiag_max(c, alpha) < 1e-12
    # 21^6 and 251^3 coefficient entries are past the 10^7 cap
    with pytest.raises(ResourceLimitError, match="hermite coefficient tensor"):
        hermite_coeffs(gaussian_field(6), 20)
    with pytest.raises(ResourceLimitError, match="hermite coefficient tensor"):
        hermite_coeffs(gaussian_field(3), 250)


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


@pytest.mark.parametrize(
    "n, make, m_max",
    [
        (1, lambda rng: random_band_limited(1, 9, rng)[0], 9),
        (1, lambda rng: bump_field(1), 12),
        (2, lambda rng: random_band_limited(2, 8, rng)[0], 8),
        (2, lambda rng: truncated_gaussian_field(2), 19),
        (3, lambda rng: random_band_limited(3, 8, rng)[0], 8),
        (3, lambda rng: hermite_eigenfield((3, 1, 2)), 7),
        (3, lambda rng: bump_field(3), 38),
    ],
    ids=["n1-band", "n1-bump", "n2-band", "n2-truncgauss", "n3-band", "n3-hermite", "n3-bump-38"],
)
def test_polar_coeffs_two_stage_matches_full_sphere_oracle(n, make, m_max):
    f = make(np.random.default_rng(40 + m_max))
    c = polar_coeffs(f, m_max)
    want = polar_coeffs_full_sphere(f, m_max, 2 * m_max + 14)
    assert c.entries.keys() == want.keys()
    scale = max(abs(v) for v in want.values())
    assert max(abs(c.entries[key] - v) for key, v in want.items()) <= 1e-13 * scale


@pytest.mark.parametrize("n", (1, 2, 3))
def test_entries_view_matches_the_stored_dict(n):
    rng = np.random.default_rng(90 + n)
    f, _ = random_band_limited(n, 7, rng)
    for c in (polar_coeffs(f, 7), hermite_coeffs(f, 7), polar_coeffs(bump_field(n), 12)):
        want = coefficient_entries(c)
        assert list(c.entries.items()) == list(want.items())
        assert all(type(v) is float for v in c.entries.values())
        with pytest.raises(TypeError):
            c.entries[next(iter(want))] = 0.0


def test_coefficient_tables_hold_arrays_only(monkeypatch):
    import oscspectra.projections as projections_module

    made = []
    extract = projections_module.polar_coeffs

    def record(field, m_max):
        made.append(extract(field, m_max))
        return made[-1]

    monkeypatch.setattr(projections_module, "polar_coeffs", record)
    f, _ = random_band_limited(2, 5, np.random.default_rng(3))
    pts = np.random.default_rng(4).uniform(-2.0, 2.0, size=(10, 2))
    tables = [polar_coeffs(f, 5), hermite_coeffs(f, 5)]
    for c in tables:
        project(f, 4, c.basis, c)(pts)
    project(f, 3, "polar")(pts)
    coefficient_decay_probe(bump_field(2), 6)
    assert len(made) == 2
    for c in tables + made:
        assert "entries" not in vars(c)
    assert tables[1].tensor.shape == (6, 6) and tables[1].tensor[5, 1] == 0.0


def test_polar_eigenfield_equals_laguerre_times_solid_harmonic():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        pts = np.vstack([rng.uniform(-3.0, 3.0, size=(400, n)), np.zeros(n)])
        for s in range(7 if n > 1 else 2):
            for k in range(3):
                for j in range(1, sph_basis(n, s).dim + 1):
                    got = polar_eigenfield(n, k, s, j)(pts)
                    assert np.array_equal(got, polar_eigenfield_closure(n, k, s, j)(pts))


def test_hecke_closed_form_equals_laguerre_times_solid_harmonic():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        pts = np.vstack([rng.uniform(-2.5, 2.5, size=(200, n)), np.zeros(n)])
        for big_m in range(2 if n == 1 else 5):
            solid = random_solid_harmonic(n, big_m, rng)
            for big_k in range(4):
                c, closed = hecke_bochner(f0_gauss_poly, solid, big_k)
                want = hecke_closed_form_closure(c, solid, big_k)(pts)
                assert np.abs(closed(pts) - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", (3, 4, 5))
def test_operator_build_sweeps_about_nz_plus_nphi_points(n, monkeypatch):
    # an operator build sweeps the harmonic rows on the nphi base nodes and
    # runs one chain step on the nz line nodes of each level, never on the
    # nz * nphi (or larger) product of the sphere rule
    import oscspectra.projections as projections_module

    sizes = []
    table, chain = projections_module.sph_table, projections_module._chain
    monkeypatch.setattr(projections_module, "sph_table", lambda k, s, pts: sizes.append(("sph_table", len(pts))) or table(k, s, pts))
    monkeypatch.setattr(projections_module, "_chain", lambda k, z, *rest: sizes.append(("_chain", len(z))) or chain(k, z, *rest))
    # the extraction operator is memoized: start cold, so this call builds it
    _extraction_operator.cache_clear()
    m_max = 10
    polar_coeffs(bump_field(n), m_max)
    sphere = sphere_rule(n, m_max)  # the radial bump declares band 0
    nz, nphi = len(sphere.line.nodes), m_max + 1
    assert sizes == [("sph_table", nphi)] + [("_chain", nz)] * (n - 2)
    assert len(sphere.nodes) == nphi * nz ** (n - 2)


def test_polar_coeffs_keep_per_degree_matrices():
    f, _ = random_band_limited(3, 6, np.random.default_rng(31))
    c = polar_coeffs(f, 6)
    assert sorted(c.matrices) == list(range(7))
    for s, mat in c.matrices.items():
        assert mat.shape == ((6 - s) // 2 + 1, 2 * s + 1)
        for (k, j), value in np.ndenumerate(mat):
            assert c.entries[(k, s, j + 1)] == value


def test_declared_band_sizes_the_sphere_rule():
    # h_(24,0,0) has harmonic degree 24 on spheres; a rule of degree
    # 2m + 14 = 18 aliases it into level 2, where its projection is 0
    f = hermite_eigenfield((24, 0, 0))
    pts = np.random.default_rng(4).uniform(-2.0, 2.0, size=(50, 3))
    assert np.abs(project(f, 2, "polar")(pts)).max() < 1e-12
    undeclared = dataclasses.replace(f, band=None)
    assert np.abs(project(undeclared, 2, "polar")(pts)).max() > 1e-6


def test_bump_field_at_a_tiny_radius_stays_finite():
    # R^2 underflows to 0 for R = 1e-200; |x/R|^2 does not (warnings are errors)
    pts = np.array([[0.0, 0.0, 0.0], [5e-201, 0.0, 0.0], [1.0, 2.0, 3.0]])
    got = bump_field(3, 1e-200)(pts)
    assert np.array_equal(got, [math.exp(-1.0), math.exp(-1.0 / 0.75), 0.0])


def test_fields_declare_their_band(monkeypatch):
    rng = np.random.default_rng(5)
    solid = random_solid_harmonic(3, 3, rng)
    f, _ = random_band_limited(3, 5, rng)
    g = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert gaussian_field(3).band == bump_field(3).band == truncated_gaussian_field(3).band == 0
    assert hermite_eigenfield((2, 0, 3)).band == 5
    assert polar_eigenfield(3, 1, 2, 1).band == 2
    assert radial_harmonic_field(f0_gauss_poly, solid).band == 3
    assert f.band == 5
    assert project(f, 4, "polar").band == project(f, 4, "hermite").band == 4
    assert hecke_bochner(f0_gauss_poly, solid, 1)[1].band == 3
    assert ScalarField(3, f.fn).band is None
    # degree: deg p for f = p e^{-|x|^2/2}; compact fields have none
    assert gaussian_field(3).degree == 0
    assert bump_field(3).degree is None and truncated_gaussian_field(3).degree is None
    assert hermite_eigenfield((2, 0, 3)).degree == 5
    assert polar_eigenfield(3, 1, 2, 1).degree == 4
    assert radial_harmonic_field(f0_gauss, solid).degree == 3
    assert radial_harmonic_field(f0_gauss_poly, solid).degree == 9
    assert radial_harmonic_field(lambda r: np.exp(-r), solid).degree is None
    assert f.degree == 5
    assert project(f, 4, "polar").degree == project(f, 4, "hermite").degree == 4
    assert hecke_bochner(f0_gauss_poly, solid, 1)[1].degree == 5
    assert ScalarField(3, f.fn).degree is None
    import oscspectra.projections as projections_module

    seen = []

    def record(field, m_max):
        seen.append((field.band, field.degree))
        return hermite_coeffs(field, m_max)

    monkeypatch.setattr(projections_module, "hermite_coeffs", record)
    rotation_commutes(f, g, 3)
    assert seen == [(5, 5), (5, 5)]  # the rotated field keeps the declarations of f


@pytest.mark.parametrize("name", ("band", "degree"))
@pytest.mark.parametrize("value", (-5, 2.0, 2.5, True, "3"), ids=repr)
def test_declarations_must_be_nonnegative_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a nonnegative integer"):
        ScalarField(1, f0_gauss, **{name: value})
    assert getattr(ScalarField(1, f0_gauss, **{name: np.int64(3)}), name) == 3


def declared_fields(n):
    """One field of every kind that declares its degree, at dimension n."""
    rng = np.random.default_rng(60 + n)
    s = 1 if n == 1 else 2
    band_limited, _ = random_band_limited(n, 6, rng)
    solid = random_solid_harmonic(n, s, rng)
    g = -np.eye(1) if n == 1 else np.linalg.qr(rng.standard_normal((n, n)))[0]
    rotated = ScalarField(  # keeps the declarations, as rotation_commutes does
        n, lambda p: band_limited(p @ g.T), band=band_limited.band, degree=band_limited.degree
    )
    return {
        "gauss": gaussian_field(n),
        "hermite": hermite_eigenfield((3, 1, 2)[:n]),
        "polar": polar_eigenfield(n, 1, s, 1),
        "bandlimited": band_limited,
        "radial-gauss": radial_harmonic_field(f0_gauss, solid),
        "radial-gausspoly": radial_harmonic_field(f0_gauss_poly, solid),
        "project-polar": project(band_limited, 4, "polar"),
        "project-hermite": project(band_limited, 4, "hermite"),
        "hecke": hecke_bochner(f0_gauss_poly, solid, 2)[1],
        "rotated": rotated,
    }


def max_miss(got, want):
    assert got.keys() == want.keys()
    return max(abs(got[key] - value) for key, value in want.items())


@pytest.mark.parametrize("n", (1, 2, 3))
def test_degree_sized_rules_match_the_fixed_rules(n):
    # every declared kind, at rule sizes down from 64^n line, 80 radial and
    # sphere degree 2m + 14 nodes to the exact minimum for its degree
    for kind, f in declared_fields(n).items():
        assert f.degree is not None, kind
        want = polar_coeffs_fixed(f, 6)
        scale = max(abs(v) for v in want.values())
        assert max_miss(polar_coeffs(f, 6).entries, want) <= 1e-13 * scale, kind
        want = hermite_coeffs_fixed(f, 6)
        scale = max(abs(v) for v in want.values())
        assert max_miss(hermite_coeffs(f, 6).entries, want) <= 1e-13 * scale, kind
        assert field_norm_sq(f) == pytest.approx(field_norm_sq_fixed(f), rel=1e-13), kind


@pytest.mark.parametrize("n", (1, 2, 3))
def test_under_declared_degree_misses(n):
    # h_(24,0,..) declared with degree 18 gets rules that are too small,
    # so the sizes are tight: each misses the exact value (the fixed-rule
    # coefficients, and ||h||^2 = 1) by far.  Declared right, the norm is
    # exact at n = 3 too, where f^2 has band 48 and the old fixed
    # degree-40 sphere rule missed it by 4.5e-6
    f = hermite_eigenfield((24,) + (0,) * (n - 1))
    short = dataclasses.replace(f, degree=18)
    for field, bad in ((f, False), (short, True)):
        polar_miss = max_miss(polar_coeffs(field, 2).entries, polar_coeffs_fixed(f, 2))
        hermite_miss = max_miss(hermite_coeffs(field, 2).entries, hermite_coeffs_fixed(f, 2))
        norm_miss = abs(field_norm_sq(field) - 1.0)
        if bad:
            assert min(polar_miss, hermite_miss, norm_miss) > 1e-6
        else:
            assert max(polar_miss, hermite_miss, norm_miss) < 1e-13


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
    import oscspectra.verify as verify_module

    radial, grids, grid_calls, inside = [], [], [], [False]
    post_init, call = QuadratureRule.__post_init__, ScalarField.__call__
    factorization = verify_module.check_factorization

    def record_rule(rule):
        post_init(rule)
        if rule.domain_tag.startswith("radial"):
            radial.append((rule.domain_tag, len(rule.nodes)))
        elif rule.domain_tag.startswith("tensor") and inside[0]:
            grids.append(rule.nodes)

    def record_call(field, points):
        grid_calls.extend(field for g in grids if points is g)
        return call(field, points)

    def record_factorization(*args):
        # Hermite extraction builds tensor grids too: count only this check's,
        # from a cold tensor-rule memo, since an earlier check may share its key
        _tensor_rule.cache_clear()
        inside[0] = True
        try:
            return factorization(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(QuadratureRule, "__post_init__", record_rule)
    monkeypatch.setattr(ScalarField, "__call__", record_call)
    monkeypatch.setattr(verify_module, "check_factorization", record_factorization)
    for n, degrees in ((1, 2), (2, 4), (3, 4)):
        del radial[:], grids[:], grid_calls[:]
        # radial rules and the extraction operators holding them are
        # memoized: start cold, so each one the suite needs is built, and
        # recorded, inside this run
        gauss_radial.cache_clear()
        default_radial_rules.cache_clear()
        _extraction_operator.cache_clear()
        run_suite(n, 8)
        # one order beta = n/2 - 1 for every harmonic degree; the sizes
        # follow each field's degree
        tags = {t for t, _ in radial if not t.startswith("radial_compact")}
        assert tags == {f"radial(beta={n / 2 - 1:g})"}
        # check_factorization: f0 * Y_s and g0 * Y_s per degree, not per pair
        assert len(grids) == 1 and len(grid_calls) == 2 * degrees


@pytest.mark.parametrize("n, bound", ((1, 7_560), (2, 57_330), (3, 118_500)))
def test_suite_field_evaluation_points(n, bound, monkeypatch):
    # run_suite(n, 8) evaluates fields at 6,873 / 52,115 / 107,721 points
    # for n = 1 / 2 / 3 on rules sized from each field's degree; the bounds
    # allow 10% on top of those counts (the fixed 64-node line, 80-node
    # radial and degree 2m + 14 sphere rules took 9,264 / 224,680 /
    # 3,030,424)
    count = [0]
    call = ScalarField.__call__

    def counted(field, points):
        count[0] += len(np.atleast_2d(points))
        return call(field, points)

    monkeypatch.setattr(ScalarField, "__call__", counted)
    run_suite(n, 8)
    assert count[0] <= bound


@pytest.mark.parametrize("n, call_bound, sweep_bound", ((1, 48, 59), (2, 101, 115), (3, 99, 114)))
def test_suite_field_calls_and_sweeps(n, call_bound, sweep_bound, monkeypatch):
    # a cold run_suite(n, 8) makes 44 / 92 / 90 field calls and 54 / 105 / 104
    # sph_table sweeps for n = 1 / 2 / 3 (a warm one 45 / 96 / 96 sweeps),
    # with each multi-level check evaluating once per point set; the bounds
    # allow about 10% on top of the cold counts (one projection evaluation
    # per level and one field evaluation per FD step took 97 / 357 / 355
    # calls and 110 / 403 / 401 sweeps).  The chain recurses through a
    # private generator, so one sph_table call is one sweep at every n.
    import oscspectra.fields as fields_module
    import oscspectra.harmonics as harmonics_module
    import oscspectra.projections as projections_module
    import oscspectra.verify as verify_module

    calls, sweeps = [0], [0]
    call, table = ScalarField.__call__, harmonics_module.sph_table

    def counted_call(field, points):
        calls[0] += 1
        return call(field, points)

    def counted_table(*args):
        sweeps[0] += 1
        return table(*args)

    monkeypatch.setattr(ScalarField, "__call__", counted_call)
    for module in (fields_module, harmonics_module, projections_module, verify_module):
        monkeypatch.setattr(module, "sph_table", counted_table)
    # start cold, the state the bounds were set from: the extraction
    # operators and the rules they hold are memoized across tests
    for cache in (_extraction_operator, default_radial_rules, gauss_radial, gauss_hermite, sphere_rule, _tensor_rule):
        cache.cache_clear()
    run_suite(n, 8)
    assert calls[0] <= call_bound and sweeps[0] <= sweep_bound


@pytest.mark.parametrize("n", (1, 2, 3))
def test_warm_suite_extracts_without_sweeps_or_laguerre_tables(n, monkeypatch):
    # every extraction operator a pass needs is built once per rule, so a
    # second pass makes no harmonic sweep and no Laguerre table inside
    # polar extraction; hecke_bochner still forms its own radial row
    import sys

    import oscspectra.projections as projections_module

    callers = {"sph_table": [], "laguerre_fn_table": []}
    for name in callers:

        def counted(*args, name=name, fn=getattr(projections_module, name)):
            callers[name].append(sys._getframe(1).f_code.co_name)
            return fn(*args)

        monkeypatch.setattr(projections_module, name, counted)
    run_suite(n, 8)
    assert "polar_coeffs" not in callers["sph_table"] + callers["laguerre_fn_table"]
    for calls in callers.values():
        calls.clear()
    run_suite(n, 8)
    assert callers["sph_table"] == []
    assert set(callers["laguerre_fn_table"]) <= {"hecke_bochner"}


@pytest.mark.parametrize("n", (1, 2, 3))
def test_cold_and_warm_extraction_are_bitwise_equal(n):
    band, _ = random_band_limited(n, 8, np.random.default_rng(60 + n))
    undeclared = ScalarField(n, gaussian_field(n).fn, label="gauss, undeclared")
    for f in (band, bump_field(n), undeclared):
        for cache in (_extraction_operator, default_radial_rules, gauss_radial, sphere_rule):
            cache.cache_clear()
        cold = polar_coeffs(f, 8).matrices
        assert _extraction_operator.cache_info().currsize == 1
        warm = polar_coeffs(f, 8).matrices
        assert _extraction_operator.cache_info().hits == 1
        assert cold.keys() == warm.keys()
        assert all(cold[s].tobytes() == warm[s].tobytes() for s in cold)


def test_extraction_operator_arrays_are_read_only():
    f, _ = random_band_limited(4, 6, np.random.default_rng(70))
    op = _extraction_operator(4, 6, f.band + 6, None, f.degree + 6)
    arrays = [op.base] + [q for level in op.levels for q in level] + [rad for _s, rad in op.degrees]
    assert len(arrays) == 1 + 2 * 7 + 7
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_returned_coefficients_do_not_alias_the_operator():
    f, _ = random_band_limited(2, 6, np.random.default_rng(71))
    first = polar_coeffs(f, 6)
    want = {s: c.copy() for s, c in first.matrices.items()}
    for c in first.matrices.values():
        c[...] = 7.0
    again = polar_coeffs(f, 6).matrices
    assert all(np.array_equal(again[s], c) for s, c in want.items())


def test_certify_pass_operators_fit_the_memory_bound(monkeypatch):
    # run_suite(n, 8, seed=7) over n = 1..4 builds 26 operators holding
    # about 1.79 MB; the bound allows about a third on top
    import functools

    import oscspectra.projections as projections_module

    built = []
    build = _extraction_operator.__wrapped__

    def record(*key):
        built.append(build(*key))
        return built[-1]

    monkeypatch.setattr(projections_module, "_extraction_operator", functools.lru_cache(maxsize=None)(record))
    for n in (1, 2, 3, 4):
        run_suite(n, 8, seed=7)
    arrays = [[op.base] + [q for level in op.levels for q in level] + [r for _s, r in op.degrees] for op in built]
    total = sum(a.nbytes for group in arrays for a in group)
    assert built and total <= 2_500_000


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


@pytest.mark.parametrize("n", (4, 5))
def test_polar_coeffs_recover_band_limited_fields_past_n3(n):
    # the chain basis and its extraction operator: coefficients of a seeded
    # band-limited field come back exactly, and so does its norm (Parseval)
    f, exact = random_band_limited(n, 6, np.random.default_rng(80 + n))
    c = polar_coeffs(f, 6)
    assert c.entries.keys() >= exact.keys()
    assert max(abs(v - exact.get(key, 0.0)) for key, v in c.entries.items()) < 1e-13
    assert abs(parseval_check(f, c, field_norm_sq(f))) < 1e-12
    assert c.norm_sq() == pytest.approx(sum(v * v for v in exact.values()), rel=1e-13)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_hermite_and_polar_projections_agree_past_n3(n):
    # the paper's two decompositions of one field, level by level
    f, level = parse_field_id("hecke:M=2,K=1,f0=gausspoly", n, np.random.default_rng(n))
    pts = np.random.default_rng(90 + n).uniform(-2.0, 2.0, size=(20, n))
    ch, cp = hermite_coeffs(f, level), polar_coeffs(f, level)
    for m in (level - 2, level):
        a = project(f, m, "hermite", ch)(pts)
        b = project(f, m, "polar", cp)(pts)
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


def test_rotation_and_hecke_bochner_hold_at_n4():
    # the (com) and (Th) identities as library calls on the chain basis
    rng = np.random.default_rng(13)
    f, _ = random_band_limited(4, 4, rng)
    maps = [np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(3)]
    maps[0][0] *= -1.0  # one reflection
    assert rotation_commutes(f, np.array(maps), 4, seed=2) < 1e-10
    solid = random_solid_harmonic(4, 2, rng)
    field = radial_harmonic_field(f0_gauss_poly, solid)
    pts = rng.uniform(-2.0, 2.0, size=(20, 4))
    levels = hermite_levels(hermite_coeffs(field, 10).tensor, pts)
    for big_k in range(4):
        _, closed = hecke_bochner(f0_gauss_poly, solid, big_k)
        assert np.abs(closed(pts) - levels[2 + 2 * big_k]).max() < 1e-10
    assert np.abs(levels[[0, 1, 3, 5, 7, 9]]).max() < 1e-10


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
    assert rotation_commutes(f, np.eye(2), 3) < 1e-12


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
            assert rotation_commutes(f, q, m) < 1e-8


def test_rotation_commutes_on_a_stack_is_the_max_over_its_maps():
    # one call compares every level of every map; it reads what the
    # single-map calls read, map by map
    rng = np.random.default_rng(31)
    for n in (2, 3):
        f, _ = random_band_limited(n, 5, rng)
        maps = []
        for i in range(4):
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            q = q * np.sign(np.diag(r))
            if i % 2:
                q[0] = -q[0]
            maps.append(q)
        stacked = rotation_commutes(f, np.array(maps), 5, seed=2)
        assert stacked == max(rotation_commutes(f, q, 5, seed=2) for q in maps)
        assert stacked < 1e-8


@pytest.mark.parametrize(
    "maps",
    [
        [np.eye(2), np.array([[1.0, 0.1], [0.0, 1.0]])],
        [np.eye(3)],
        np.eye(4).reshape(2, 2, 4),
        np.zeros((0, 2, 2)),
    ],
    ids=["nonorthogonal-in-stack", "wrong-dimension", "wrong-shape", "empty-stack"],
)
def test_rotation_commutes_rejects_a_bad_stack(maps):
    with pytest.raises(ContractViolationError):
        rotation_commutes(gaussian_field(2), np.array(maps), 1)


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


def test_decay_probe_rows_are_max_over_j_of_polar_coeffs():
    for n, levels in ((1, 9), (2, 10), (3, 12)):
        field = bump_field(n)
        probe = coefficient_decay_probe(field, levels)
        want = {}
        for (k, s, _j), v in polar_coeffs(field, levels).entries.items():
            want[(k, s)] = max(want.get((k, s), 0.0), abs(v))
        rows = sorted((polar_eigenvalue(n, k, s), k, s, v) for (k, s), v in want.items())
        assert probe.rows == rows


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


@pytest.mark.parametrize("n", (1, 2, 3))
def test_band_limited_field_matches_sum_of_eigenfields(n):
    # the per-degree evaluation equals the sum of its parts, origin included
    rng = np.random.default_rng(70 + n)
    f, coeffs = random_band_limited(n, 8, rng)
    pts = np.vstack([rng.uniform(-2.5, 2.5, size=(60, n)), np.zeros(n)])
    want = sum(c * polar_eigenfield_closure(n, k, s, j)(pts) for (k, s, j), c in coeffs.items())
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


@pytest.mark.parametrize("n", (1, 2, 3))
def test_polar_levels_rows_are_the_projections(n):
    # row m is the level-m projection, origin included; the rows sum to f
    rng = np.random.default_rng(90 + n)
    f, _ = random_band_limited(n, 8, rng, terms=30)
    coeffs = polar_coeffs(f, 8)
    pts = np.vstack([rng.uniform(-2.5, 2.5, size=(50, n)), np.zeros(n)])
    levels = polar_levels(n, coeffs.matrices, pts)
    want = f(pts)
    scale = np.abs(want).max()
    assert levels.shape == (9, len(pts))
    for m in range(9):
        assert np.abs(levels[m] - project(f, m, "polar", coeffs)(pts)).max() <= 1e-14 * scale
    assert np.abs(levels.sum(axis=0) - want).max() <= 1e-14 * scale


@pytest.mark.parametrize("n", (1, 2, 3))
def test_hermite_levels_rows_are_the_projections(n):
    # row m is the level-m Hermite projection, origin included; the rows
    # sum to f, and tensors stacked on a leading axis give stacked rows
    rng = np.random.default_rng(95 + n)
    f, _ = random_band_limited(n, 8, rng, terms=30)
    coeffs = hermite_coeffs(f, 8)
    pts = np.vstack([rng.uniform(-2.5, 2.5, size=(50, n)), np.zeros(n)])
    levels = hermite_levels(coeffs.tensor, pts)
    want = f(pts)
    scale = np.abs(want).max()
    assert levels.shape == (9, len(pts))
    for m in range(9):
        assert np.abs(levels[m] - project(f, m, "hermite", coeffs)(pts)).max() <= 1e-14 * scale
    assert np.abs(levels.sum(axis=0) - want).max() <= 1e-14 * scale
    g, _ = random_band_limited(n, 8, rng, terms=30)
    other = hermite_coeffs(g, 8).tensor
    stacked = hermite_levels(np.stack([coeffs.tensor, other]), pts)
    assert stacked.shape == (2,) + levels.shape
    assert np.array_equal(stacked[0], levels)
    assert np.array_equal(stacked[1], hermite_levels(other, pts))


def test_field_feeds_its_evaluator_in_blocks():
    # ScalarField alone splits points: SWEEP_BLOCK + 3 points are two calls
    # whose values match one unblocked call; no points make no call, and
    # one point of length n gives a float
    calls = []

    def fn(p):
        calls.append(len(p))
        return np.cos(p[:, 0] - 2.0 * p[:, 1])

    f = ScalarField(2, fn)
    pts = np.random.default_rng(9).uniform(-2.0, 2.0, size=(SWEEP_BLOCK + 3, 2))
    assert np.array_equal(f(pts), np.cos(pts[:, 0] - 2.0 * pts[:, 1])) and calls == [SWEEP_BLOCK, 3]
    calls.clear()
    assert f(pts[:0]).shape == (0,) and calls == []
    value = f([0.5, 0.25])
    assert isinstance(value, float) and value == 1.0 and calls == [1]
    with pytest.raises(DimensionMismatchError, match="points have dimension 3, expected 2"):
        f(np.zeros((4, 3)))


def test_hermite_evaluators_work_block_by_block():
    # a Hermite projection fed past SWEEP_BLOCK points in blocks matches one
    # hermite_levels pass over all of them, and no points give empty rows
    f, _ = random_band_limited(2, 4, np.random.default_rng(7))
    coeffs = hermite_coeffs(f, 4)
    pts = np.random.default_rng(8).uniform(-2.0, 2.0, size=(SWEEP_BLOCK + 3, 2))
    levels = hermite_levels(coeffs.tensor, pts)
    proj = project(f, 3, "hermite", coeffs)
    assert np.abs(proj(pts) - levels[3]).max() <= 1e-14 * np.abs(levels[3]).max()
    assert hermite_levels(coeffs.tensor, pts[:0]).shape == (5, 0) and proj(pts[:0]).shape == (0,)


def levels_by_max_entry(tensor, points):
    """hermite_levels with the planted level set max(alpha) = m in place of
    |alpha| = m: the rows still sum to the expansion."""
    n, top = points.shape[1], tensor.shape[-1] - 1
    rows = np.zeros(tensor.shape[:-n] + (top + 1, len(points)))
    for alpha in np.ndindex(tensor.shape[-n:]):
        if sum(alpha) <= top:
            rows[..., max(alpha), :] += tensor[(...,) + alpha][..., None] * hermite_fn_multi(alpha, points)
    return rows


def test_planted_max_entry_level_set_fails_rotation_and_hecke(monkeypatch):
    import oscspectra.projections as projections_module
    import oscspectra.verify as verify_module

    tol = DEFAULT_TOLERANCES
    rows = lambda n: [check_rotation(n, 8, 7, tol["com"]), *check_hecke(n, 8, 7, tol["th"], tol["th_offpattern"])]
    assert all(row.passed for n in (2, 3) for row in rows(n))
    for module in (projections_module, verify_module):
        monkeypatch.setattr(module, "hermite_levels", levels_by_max_entry)
    for n in (2, 3):
        assert not any(row.passed for row in rows(n))


def test_level_mixup_fails_the_batched_checks(monkeypatch):
    # rows rolled by one level keep every field value (the level sum is
    # unchanged), but row m then holds level m - 1
    import oscspectra.fields as fields_module
    import oscspectra.verify as verify_module

    tol = DEFAULT_TOLERANCES
    hecke = lambda n: check_hecke(n, 8, 0, tol["th"], tol["th_offpattern"])
    assert all(row.passed for n in (1, 2, 3) for row in hecke(n))
    assert check_oone(8, 0, tol["oone"]).passed
    polar, hermite = fields_module.polar_levels, verify_module.hermite_levels
    monkeypatch.setattr(fields_module, "polar_levels", lambda *a: np.roll(polar(*a), 1, axis=0))
    monkeypatch.setattr(verify_module, "hermite_levels", lambda *a: np.roll(hermite(*a), 1, axis=0))
    for n in (1, 2, 3):
        closed, off = hecke(n)
        assert not closed.passed and not off.passed
    assert not check_oone(8, 0, tol["oone"]).passed
