import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscspectra
from oscspectra.cli import main
from oscspectra.kernels import multi_index_count


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_verify_passes_and_reports_tags(capsys):
    code, out, _ = run_cli(["verify", "--n", "1", "--m-max", "6", "--seed", "7"], capsys)
    assert code == 0
    assert "(oone)" in out  # n=1 includes the two-branch reduction rows
    for tag in ("(eq)", "(zon)", "(aa)", "(bb)", "(Th)"):
        assert tag in out
    assert "FAIL" not in out


def test_verify_rejects_bad_dimension(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "0"])
    assert exc.value.code == 2


# the other options each subcommand needs to get past argparse
_REQUIRED = {
    "verify": [],
    "kernel": ["--m", "2"],
    "project": ["--field", "gauss", "--m", "0"],
    "bench": ["--m", "2"],
    "dims": [],
    "decay": [],
}


@pytest.mark.parametrize("command, n", [(command, "0") for command in _REQUIRED])
def test_dimension_out_of_range_is_usage_error(command, n, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", n] + _REQUIRED[command])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--n" in err and "Traceback" not in err


def test_project_runs_past_n3(capsys):
    # both eigenbases exist at every n: the Hermite and polar projections
    # of a Hecke-Bochner field agree at n = 4
    code, out, err = run_cli(["project", "--n", "4", "--field", "hecke:M=2,K=1,f0=gausspoly", "--seed", "3"], capsys)
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert len(rows) == 20
    assert max(abs(float(r["diff"])) for r in rows) <= 1e-8


def test_decay_past_the_grid_cap_is_a_resource_error(capsys):
    # at n = 6 the radial x sphere grid of the default levels is past 1e7
    # points; it is refused before the sphere rule is built
    from oscspectra.quadrature import sphere_rule

    built = sphere_rule.cache_info().misses
    code, out, err = run_cli(["decay", "--n", "6"], capsys)
    assert sphere_rule.cache_info().misses == built
    assert code == 3 and out == ""
    assert "resource cap exceeded" in err and "Traceback" not in err


def test_project_negative_level_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--n", "2", "--field", "gauss", "--m", "-1"])
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err


def test_verify_tolerance_override_forces_failure(capsys):
    code, out, err = run_cli(
        ["verify", "--n", "1", "--m-max", "2", "--tol", "eq=1e-30"], capsys
    )
    assert code == 1
    assert "FAIL (eq)" in out


def test_verify_unknown_tolerance_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "1", "--tol", "nope=1"])
    assert exc.value.code == 2


def test_verify_nan_tolerance_is_usage_error(capsys):
    # a NaN bound would fail its row with exit 1, as if the identity failed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "1", "--tol", "eq=nan"])
    assert exc.value.code == 2
    assert "'nan' is not a number" in capsys.readouterr().err


def test_verify_json_schema(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["verify", "--n", "1", "--m-max", "4", "--format", "json", "--output", str(path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["command"] == "verify"
    assert all(r["status"] == "pass" for r in payload["rows"])


def test_kernel_rows_and_agreement(capsys):
    code, out, _ = run_cli(["kernel", "--n", "3", "--m", "6", "--pairs", "5"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    assert all(float(r["rel_diff"]) < 1e-10 for r in rows)
    assert all(int(r["terms_direct"]) == math.comb(8, 2) for r in rows)
    assert all(int(r["terms_polar"]) == 4 for r in rows)


def _refuse_span_building(monkeypatch):
    import oscspectra.polyspaces as ps

    monkeypatch.setattr(ps, "monomials", lambda *args: pytest.fail("a span past the size cap was built"))


def test_resource_cap_exit_code(monkeypatch, capsys):
    # the n = 6, m = 9 span matrix has 10,020,010 entries, past the 10^7 cap
    _refuse_span_building(monkeypatch)
    code, _, err = run_cli(["dims", "--n", "6", "--dump-span", "hermite", "--m", "9"], capsys)
    assert code == 3
    assert "resource cap" in err and "span matrix" in err


@pytest.mark.parametrize("m", (40, 80))
def test_kernel_n6_returns(m, capsys):
    # 1.2 M and 33 M multi-indices: the direct sum never lists them
    code, out, _ = run_cli(["kernel", "--n", "6", "--m", str(m), "--pairs", "50"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 50
    assert all(int(r["terms_direct"]) == math.comb(m + 5, 5) for r in rows)
    assert all(float(r["rel_diff"]) < 1e-8 for r in rows)


def test_bench_term_counts(capsys):
    code, out, _ = run_cli(["bench", "--n", "3", "--m", "40", "--trials", "5"], capsys)
    assert code == 0
    rows = {r["method"]: r for r in parse_csv(out)}
    assert int(rows["direct"]["terms"]) == 861
    assert int(rows["polar"]["terms"]) == 21
    assert float(rows["direct"]["max_rel_diff"]) < 1e-8


def test_bench_n1_counts_honest_both_directions(capsys):
    code, out, _ = run_cli(["bench", "--n", "1", "--m", "5", "--trials", "5"], capsys)
    rows = {r["method"]: r for r in parse_csv(out)}
    assert int(rows["direct"]["terms"]) == 1
    assert int(rows["polar"]["terms"]) == 3


def test_bench_reports_both_methods_at_large_levels(capsys):
    code, out, _ = run_cli(["bench", "--n", "6", "--m", "80", "4", "--trials", "4"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert sorted((int(r["m"]), r["method"]) for r in rows) == [
        (4, "direct"), (4, "polar"), (80, "direct"), (80, "polar")
    ]
    for r in rows:
        if r["method"] == "direct":
            assert int(r["terms"]) == multi_index_count(6, int(r["m"]))
        assert float(r["max_rel_diff"]) < 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--n", "2", "--m", "-3"],
        ["bench", "--n", "2", "--m", "1", "--trials", "0"],
        ["kernel", "--n", "2", "--m", "1", "--pairs", "-1"],
        ["project", "--n", "2", "--field", "gauss", "--m", "0", "--points", "-1"],
        ["project", "--n", "2", "--field", "gauss", "--m", "0", "--points", "0"],
        ["decay", "--n", "2", "--levels", "-1"],
        ["dims", "--n", "2", "--m-max", "-1"],
        ["dims", "--n", "2", "--dump-span", "hermite", "--m", "-1"],
    ],
    ids=[
        "bench-m",
        "bench-trials",
        "kernel-pairs",
        "project-points",
        "project-no-points",
        "decay-levels",
        "dims-m-max",
        "dims-dump-span-m",
    ],
)
def test_bench_rejects_negative_level(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_project_hermite_catalog_reproduces_samples(capsys):
    code, out, _ = run_cli(
        ["project", "--n", "2", "--field", "hermite:gamma=(1,1)", "--m", "2", "--points", "8"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    for r in rows:
        assert abs(float(r["proj_hermite"]) - float(r["f"])) < 1e-10
        assert abs(float(r["diff"])) < 1e-8


def test_project_hecke_catalog_diff_column(capsys):
    code, out, _ = run_cli(
        ["project", "--n", "3", "--field", "hecke:M=2,K=1,f0=gausspoly", "--points", "6"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(abs(float(r["diff"])) < 1e-8 for r in rows)


def test_project_hecke_gauss_profile(capsys):
    # f0 = gauss makes the input a pure level-M eigenfunction, so both
    # projections at level M+2K vanish together
    code, out, _ = run_cli(
        ["project", "--n", "3", "--field", "hecke:M=2,K=1,f0=gauss", "--points", "5"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(abs(float(r["diff"])) < 1e-8 for r in rows)
    assert all(abs(float(r["proj_polar"])) < 1e-10 for r in rows)


def test_project_mismatched_parity_level_vanishes(capsys):
    code, out, _ = run_cli(
        [
            "project", "--n", "2", "--field", "hecke:M=2,K=0,f0=gausspoly",
            "--m", "3", "--points", "6",
        ],
        capsys,
    )
    rows = parse_csv(out)
    assert all(abs(float(r["proj_hermite"])) < 1e-10 for r in rows)
    assert all(abs(float(r["proj_polar"])) < 1e-10 for r in rows)


def test_project_high_band_hermite_vanishes_at_low_level(capsys):
    # h_(24,0,0) declares band 24, so the polar sphere rule resolves it and
    # its level-2 projection is 0 in both bases
    code, out, _ = run_cli(
        ["project", "--n", "3", "--field", "hermite:gamma=(24,0,0)", "--m", "2", "--points", "40"],
        capsys,
    )
    rows = parse_csv(out)
    assert code == 0 and len(rows) == 40
    assert max(abs(float(r["proj_polar"])) for r in rows) < 1e-12
    assert max(abs(float(r["proj_hermite"])) for r in rows) < 1e-12


def test_project_high_degree_hermite_does_not_alias_on_the_hermite_side(capsys):
    # h_(200) declares degree 200, so its line rule has 101 nodes; the
    # fixed 64-node rule aliased it to 4.2e-3 at level 0
    code, out, _ = run_cli(
        ["project", "--n", "1", "--field", "hermite:gamma=(200)", "--m", "0"], capsys
    )
    rows = parse_csv(out)
    assert code == 0 and len(rows) == 20
    assert max(abs(float(r["proj_hermite"])) for r in rows) <= 1e-12
    assert max(abs(float(r["proj_polar"])) for r in rows) <= 1e-12


def test_project_degree_past_the_rule_cap_exits_3(capsys):
    code, out, err = run_cli(
        ["project", "--n", "1", "--field", "hermite:gamma=(1600)", "--m", "0"], capsys
    )
    assert code == 3 and out == ""
    assert "resource cap exceeded" in err and "Traceback" not in err


def test_polar_extraction_past_float64_range_exits_3(capsys):
    # ell_k * w * r^s stays finite at level 250; by 300, r^s overflows where
    # ell_k has underflowed, and the extraction refuses instead of printing NaN
    argv = ["project", "--n", "2", "--field", "gauss", "--points", "2", "--m"]
    code, out, err = run_cli(argv + ["250"], capsys)
    rows = parse_csv(out)
    assert code == 0 and len(rows) == 2
    assert all(math.isfinite(float(v)) for r in rows for v in r.values())
    code, out, err = run_cli(argv + ["300"], capsys)
    assert code == 3 and out == ""
    assert "n=2, m_max=300" in err and "s=" in err and "Traceback" not in err


def test_compact_weights_past_float64_range_exit_3(capsys):
    # r^{n-1} folded into the weights of a radial rule on [0, 1e300] overflows
    code, out, err = run_cli(["project", "--n", "2", "--field", "bump:R=1e300", "--m", "0"], capsys)
    assert code == 3 and out == ""
    assert "float64 range" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["project", "--n", "2", "--field", "bump:r=2", "--m", "0"], "r"),
        (["decay", "--n", "2", "--field", "gauss:R=2"], "R"),
        (["--dump-rule", "sphere:n=2,deg=4"], "deg"),
    ],
    ids=["bump-r", "gauss-R", "dump-rule-deg"],
)
def test_option_its_kind_does_not_read_is_usage_error_naming_it(argv, key, capsys):
    # each would otherwise run on the default it meant to replace
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"reads no option {key!r}" in err


@pytest.mark.parametrize("n", (1, 3))
@pytest.mark.parametrize("field", ("hecke:M=0,K=-3", "hecke:M=2,K=-1"))
def test_negative_hecke_k_is_usage_error(field, n, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--n", str(n), "--field", field])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "K must be" in err and "Traceback" not in err


def test_project_unknown_catalog_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--n", "2", "--field", "mystery", "--m", "1"])
    assert exc.value.code == 2


def test_project_grid_file(tmp_path, capsys):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(400, 1))
    vals = np.exp(-0.5 * pts[:, 0] ** 2)
    path = tmp_path / "grid.csv"
    path.write_text(
        "x1,value\n"
        + "\n".join(f"{float(p)!r},{float(v)!r}" for p, v in zip(pts[:, 0], vals))
        + "\n"
    )
    code, out, _ = run_cli(
        ["project", "--n", "1", "--grid-file", str(path), "--m", "0"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 400
    # the sampled field is the oscillator ground state, so its level-0
    # projection reproduces it up to the linear-interpolation error of the
    # ingestion path; both bases agree at that same level
    assert all(abs(float(r["diff"])) < 2e-2 for r in rows)
    assert all(abs(float(r["proj_polar"]) - float(r["f"])) < 5e-2 for r in rows)


def _write_gaussian_grid(path, n, npts=1500):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(npts, n))
    vals = np.exp(-0.5 * np.sum(pts * pts, axis=1))
    header = ",".join(f"x{d + 1}" for d in range(n)) + ",value\n"
    rows = (",".join(repr(float(v)) for v in (*p, f)) for p, f in zip(pts, vals))
    path.write_text(header + "\n".join(rows) + "\n")


def test_project_grid_file_two_dimensional(tmp_path, capsys):
    pytest.importorskip("scipy.interpolate")
    path = tmp_path / "grid2.csv"
    _write_gaussian_grid(path, 2)
    code, out, _ = run_cli(
        ["project", "--n", "2", "--grid-file", str(path), "--m", "0"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1500
    # the planar ground state again, now through piecewise-linear
    # interpolation on a Delaunay triangulation of the samples
    assert all(abs(float(r["diff"])) < 2e-2 for r in rows)
    assert all(abs(float(r["proj_polar"]) - float(r["f"])) < 5e-2 for r in rows)


def test_project_grid_file_without_scipy_names_the_extra(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.interpolate", None)
    path = tmp_path / "grid2.csv"
    _write_gaussian_grid(path, 2, npts=20)
    with pytest.raises(SystemExit) as exc:
        main(["project", "--n", "2", "--grid-file", str(path), "--m", "0"])
    assert exc.value.code == 2
    assert "oscspectra[grid]" in capsys.readouterr().err


def _fresh_interpreter_prints(code):
    src = str(Path(oscspectra.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
        check=True,
    )
    return proc.stdout.strip()


def test_import_leaves_scipy_unloaded():
    assert _fresh_interpreter_prints("import sys, oscspectra; print('scipy' in sys.modules)") == "False"


def test_import_builds_no_extraction_operator():
    # extraction operators are memoized on first use, never at import
    code = "import oscspectra; print(oscspectra.projections._extraction_operator.cache_info().misses)"
    assert _fresh_interpreter_prints(code) == "0"


@pytest.mark.parametrize(
    "content",
    [
        None,
        b"x1,x2,value\n0,0,1\n0,1,abc\n",
        b"x1,x2,value\n0,0,1\n0,1\n",
        b"x1,x2,value\n0,0\n1,1\n",
        b"x1,x2,value\n0,\xff,1\n",
        b"x1,x2,value\n0,0,1\n1,0,nan\n0,1,2\n",
        b"x1,x2,value\n0,0,1\n1,0,inf\n0,1,2\n",
    ],
    ids=["missing", "non-numeric", "short-row", "short-rows", "not-utf8", "nan", "inf"],
)
def test_project_bad_grid_file_is_usage_error_naming_the_file(content, tmp_path, capsys):
    path = tmp_path / "grid.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["project", "--n", "2", "--grid-file", str(path), "--m", "0"])
    assert exc.value.code == 2
    assert str(path) in capsys.readouterr().err


def test_project_grid_file_flat_samples_is_usage_error(tmp_path, capsys):
    pytest.importorskip("scipy")
    path = tmp_path / "flat.csv"
    path.write_text("x1,x2,value\n0,0,1\n1,0,2\n")
    with pytest.raises(SystemExit) as exc:
        main(["project", "--n", "2", "--grid-file", str(path), "--m", "0"])
    assert exc.value.code == 2
    assert str(path) in capsys.readouterr().err


def test_project_grid_file_samples_at_origin_is_usage_error(tmp_path, capsys):
    path = tmp_path / "origin.csv"
    path.write_text("x1,value\n0,1\n0,2\n")
    with pytest.raises(SystemExit) as exc:
        main(["project", "--n", "1", "--grid-file", str(path), "--m", "0"])
    assert exc.value.code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--n", "2", "--field", "bump:R=-1", "--m", "1"],
        ["project", "--n", "2", "--field", "bump:R=0", "--m", "1"],
        ["project", "--n", "3", "--field", "truncgauss:R=inf", "--m", "1"],
        ["decay", "--n", "2", "--field", "bump:R=-1"],
        ["decay", "--n", "1", "--field", "truncgauss:R=nan"],
        ["project", "--n", "2", "--field", "polar:k=-1", "--m", "1"],
        ["project", "--n", "1", "--field", "hermite:gamma=(-2)", "--m", "0"],
    ],
    ids=[
        "bump-negative",
        "bump-zero",
        "truncgauss-inf",
        "decay-bump-negative",
        "decay-nan",
        "polar-k",
        "hermite-negative",
    ],
)
def test_bad_catalog_parameter_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_project_grid_file_schema_violation(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(SystemExit) as exc:
        main(["project", "--n", "1", "--grid-file", str(path), "--m", "0"])
    assert exc.value.code == 2


def test_dims_rows_and_span_columns(capsys):
    code, out, _ = run_cli(["dims", "--n", "3", "--m-max", "8", "--spans"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9
    assert all(r["equal"] == "1" for r in rows)
    assert all(r["spans_equal"] == "1" for r in rows)
    assert int(rows[4]["dim_poly"]) == 15


def test_dims_spans_planted_failure_exits_1(monkeypatch, capsys):
    import oscspectra.cli as cli_module
    from oscspectra.polyspaces import PolySpan, laguerre_harmonic_span

    def planted(n, m):
        span = laguerre_harmonic_span(n, m)
        if m != 4:
            return span
        matrix = span.matrix.copy()
        matrix[0, -1] += 1.0
        return PolySpan(n, m, span.monomials, matrix, span.labels)

    monkeypatch.setattr(cli_module, "laguerre_harmonic_span", planted)
    code, out, _ = run_cli(["dims", "--n", "2", "--m-max", "6", "--spans"], capsys)
    assert code == 1
    assert [r["spans_equal"] for r in parse_csv(out)] == ["1", "1", "1", "1", "0", "1", "1"]


def test_dims_spans_beyond_cap_exits_3(monkeypatch, capsys):
    # the span ranks stop at m = 8, whose matrix at n = 7 has 3,003 x 6,435
    # entries, past the 10^7 cap; it is refused before any span is built
    _refuse_span_building(monkeypatch)
    code, out, err = run_cli(["dims", "--n", "7", "--m-max", "8", "--spans"], capsys)
    assert code == 3
    assert out == ""
    assert "resource cap" in err


@pytest.mark.parametrize("n", (4, 5))
def test_dims_spans_certify_past_n3(n, capsys):
    code, out, _ = run_cli(["dims", "--n", str(n), "--m-max", "8", "--spans"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9 and all(r["spans_equal"] == "1" for r in rows)
    for r in rows:
        assert r["rank_hermite"] == r["rank_laguerre"] == r["rank_stacked"] == r["dim_poly"]


def test_dims_dump_span(tmp_path, capsys):
    path = tmp_path / "span.csv"
    code, _, _ = run_cli(
        ["dims", "--n", "2", "--m", "3", "--dump-span", "laguerre", "--output", str(path)],
        capsys,
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("# monomial_order: graded lexicographic")
    assert "generator," in text


def test_decay_csv_slope_header(capsys):
    code, out, _ = run_cli(["decay", "--n", "2", "--levels", "9", "--field", "bump"], capsys)
    assert code == 0
    assert "# fitted_slope:" in out
    rows = parse_csv(out)
    assert rows[0]["lambda"] == "2"
    assert float(rows[0]["max_abs_coeff"]) > 0.1


def test_dump_rule_standalone(capsys):
    code, out, _ = run_cli(["--dump-rule", "radial:n=6,beta=1.5"], capsys)
    assert code == 0
    assert out.startswith("# domain: radial(beta=1.5)")
    assert len(out.splitlines()) == 3 + 6


def test_dump_rule_with_a_subcommand_is_usage_error(capsys):
    # the rule alone would be printed and the subcommand silently dropped
    with pytest.raises(SystemExit) as exc:
        main(["--dump-rule", "sphere:n=2,degree=2", "verify", "--n", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--dump-rule" in err and "verify" in err


def test_dump_rule_unknown_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--dump-rule", "simpson:n=4"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_deterministic_output_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            ["kernel", "--n", "2", "--m", "7", "--pairs", "12", "--seed", "9",
             "--output", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    for path in (a, b):
        run_cli(
            ["verify", "--n", "1", "--m-max", "4", "--seed", "3", "--output", str(path)],
            capsys,
        )
    assert a.read_bytes() == b.read_bytes()


def test_closed_stdout_exits_141_without_traceback():
    # `oscspectra project ... | head -1`: the reader leaves after one line
    src = str(Path(oscspectra.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["project", "--n", "3", "--field", "gauss", "--m", "2", "--points", "2000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "oscspectra.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first.startswith(b"x1,x2,x3,")
    assert b"Traceback" not in err


# one small invocation of every command that writes a table, with the
# command its JSON document names
_TABLES = {
    "verify": ("verify", ["verify", "--n", "1", "--m-max", "2"]),
    "kernel": ("kernel", ["kernel", "--n", "2", "--m", "3", "--pairs", "4"]),
    "project": ("project", ["project", "--n", "2", "--field", "hecke:M=2,K=1,f0=gausspoly", "--points", "4"]),
    "bench": ("bench", ["bench", "--n", "2", "--m", "3", "--trials", "2"]),
    "dims": ("dims", ["dims", "--n", "2", "--m-max", "5"]),
    "dims-spans": ("dims", ["dims", "--n", "2", "--m-max", "10", "--spans"]),
    "dump-span": ("dims", ["dims", "--n", "2", "--m", "3", "--dump-span", "laguerre"]),
    "decay": ("decay", ["decay", "--n", "2", "--levels", "6"]),
    "dump-rule": ("dump-rule", ["--dump-rule", "radial:n=5,beta=0.5"]),
}


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_unwritable_output_is_usage_error_naming_the_path(name, tmp_path, capsys):
    path = tmp_path / "missing" / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(_TABLES[name][1] + ["--output", str(path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert str(path) in err and "Traceback" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "argv, work",
    [
        (["verify", "--n", "3"], "run_suite"),
        (["decay", "--n", "4"], "coefficient_decay_probe"),
        (["dims", "--n", "3", "--spans"], "heat_certificate"),
        (["--dump-rule", "sphere:n=3,degree=4"], "sphere_rule"),
    ],
)
def test_unwritable_output_fails_before_the_work(argv, work, tmp_path, monkeypatch, capsys):
    import oscspectra.cli as cli_module

    monkeypatch.setattr(cli_module, work, lambda *args, **kw: pytest.fail(f"{work} ran"))
    path = tmp_path / "missing" / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(path)])
    assert exc.value.code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(set(_TABLES) - {"verify"}))
def test_json_rows_and_comments_match_the_csv(name, capsys):
    command, argv = _TABLES[name]
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    lines = text.splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    csv_rows = [{k: v for k, v in zip(header, row) if v != ""} for row in rows]
    code, text, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == 1 and payload["command"] == command
    assert payload.get("comments", []) == comments
    assert (name in ("decay", "dump-span", "dump-rule")) == bool(comments)
    json_rows = [{k: str(v) for k, v in row.items()} for row in payload["rows"]]
    if name == "bench":  # wall times differ from run to run
        for row in csv_rows + json_rows:
            row.pop("nanos_per_eval")
    assert json_rows == csv_rows and len(json_rows) > 1
