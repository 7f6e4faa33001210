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


def test_resource_cap_exit_code(capsys):
    code, _, err = run_cli(["dims", "--n", "4", "--dump-span", "hermite", "--m", "2"], capsys)
    assert code == 3
    assert "resource cap" in err


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
