"""The benchmark's workloads: inputs made from the seed, the calls one pass
makes into oscspectra, and the checks on what those calls return.

Every workload is a closed loop with one caller in one process: a pass
issues its operations one after another, each waiting for the previous one.
A pass is timed as a whole; its outputs are checked after the timer stops.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import traceback
from dataclasses import dataclass

import numpy as np

from bench_tracing import KERNEL_CASES

# Operations whose check fails at the code this benchmark was written for.
# They are still run, checked and counted in ``failed``; a failure here does
# not make the run incorrect, and a pass here is welcome.
KNOWN_DEFECTS = {
    "project hermite:gamma=(24,0,0) --m 2": (
        "polar extraction aliases: the fixed radial and sphere rules do not "
        "resolve h_(24,0,0), so proj_polar is ~2.5e-4 where 0 is exact"
    ),
}

EQ_TOL = 1e-8  # DEFAULT_TOLERANCES["eq"] in oscspectra.verify
DECAY_SLOPE_MAX = -3.0  # DEFAULT_TOLERANCES["est_slope"]


@dataclass(frozen=True)
class Result:
    """One checked operation: a verify row, a kernel case or a command."""

    label: str
    ok: bool
    detail: str = ""


def run_cli(argv):
    """Call ``oscspectra.cli.main`` with captured stdout and stderr."""
    from oscspectra import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # the benchmark keeps going and reports the failure
        return {"argv": argv, "code": None, "stdout": out.getvalue(), "error": traceback.format_exc()}
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "error": err.getvalue()}


def _cli_failure(label, output):
    if output["code"] is None:
        return Result(label, False, "raised: " + output["error"].strip().splitlines()[-1])
    return None


class Workload:
    name = ""

    def layer_extras(self, outputs):
        """Per-layer metrics computed from the outputs rather than spans;
        0 where the workload has no kernel cases."""
        return {"kernels.max_rel_diff": 0.0}


class Certify(Workload):
    name = "certify"
    dims = (1, 2, 3, 4)
    m_max = 8

    def __init__(self, seed, smoke=False):
        dims, m_max = ((1, 2, 4), 2) if smoke else (self.dims, self.m_max)
        self.argvs = [
            ["verify", "--n", str(n), "--m-max", str(m_max), "--seed", str(seed)] for n in dims
        ]

    def work(self):
        return {"cli_calls": len(self.argvs)}

    def run(self):
        return [run_cli(argv) for argv in self.argvs]

    def check(self, outputs):
        results = []
        for output in outputs:
            label = "verify --n " + output["argv"][2]
            failure = _cli_failure(label, output)
            if failure:
                results.append(failure)
                continue
            rows = [
                Result(f"{label}: {line[5:]}", line.startswith("PASS "), line)
                for line in output["stdout"].splitlines()
                if line.startswith(("PASS ", "FAIL "))
            ]
            results.extend(rows)
            if not rows:
                results.append(Result(label, False, "no verify rows"))
            elif output["code"] != 0 and all(r.ok for r in rows):
                results.append(Result(label, False, f"exit code {output['code']} with every row passing"))
        return results


class Kernel(Workload):
    name = "kernel"
    pairs = 1000

    def __init__(self, seed, smoke=False):
        pairs = 8 if smoke else self.pairs
        self.inputs = []
        for n, m in KERNEL_CASES:
            rng = np.random.default_rng([seed, n, m])
            x = rng.uniform(-3.0, 3.0, size=(pairs, n))
            y = rng.uniform(-3.0, 3.0, size=(pairs, n))
            self.inputs.append((n, m, x, y))

    def work(self):
        return {
            "cases": len(self.inputs),
            "pairs_per_case": len(self.inputs[0][2]),
            "direct_pair_terms": sum(math.comb(m + n - 1, n - 1) * len(x) for n, m, x, _ in self.inputs),
            "polar_pair_terms": sum((m // 2 + 1) * len(x) for n, m, x, _ in self.inputs),
        }

    def run(self):
        from oscspectra import kernels

        outputs = []
        for n, m, x, y in self.inputs:
            try:
                direct = kernels.phi_direct_values(n, m, x, y)
                polar = kernels.phi_polar_values(n, m, x, y)
            except Exception:  # reported as a failed case
                outputs.append((n, m, None, traceback.format_exc()))
                continue
            outputs.append((n, m, direct, polar))
        return outputs

    @staticmethod
    def _rel(direct, polar):
        return float((np.abs(direct - polar) / (1.0 + np.abs(direct))).max())

    def check(self, outputs):
        results = []
        for n, m, direct, polar in outputs:
            label = f"kernel n={n} m={m}"
            if direct is None:
                results.append(Result(label, False, "raised: " + polar.strip().splitlines()[-1]))
                continue
            rel = self._rel(direct, polar)
            results.append(Result(label, rel <= EQ_TOL, f"max rel diff {rel:.3e} (tol {EQ_TOL:g})"))
        return results

    def layer_extras(self, outputs):
        rels = [self._rel(d, p) for _n, _m, d, p in outputs if d is not None]
        return {"kernels.max_rel_diff": max(rels) if rels else 0.0}


class Extract(Workload):
    name = "extract"

    def __init__(self, seed, smoke=False):
        n, points, gauss_m, levels = (2, 10, 4, 8) if smoke else (3, 200, 20, None)
        hermite = "(" + ",".join(["24"] + ["0"] * (n - 1)) + ")"
        common = ["--n", str(n), "--points", str(points), "--seed", str(seed)]
        # (label, argv, kind): kind says what the check expects of the output
        self.commands = [
            ("project hecke:M=2,K=1,f0=gausspoly", ["project", "--field", "hecke:M=2,K=1,f0=gausspoly"] + common, "agree"),
            ("project hecke:M=3,K=2,f0=gausspoly", ["project", "--field", "hecke:M=3,K=2,f0=gausspoly"] + common, "agree"),
            (f"project gauss --m {gauss_m}", ["project", "--field", "gauss", "--m", str(gauss_m)] + common, "zero"),
            (f"project hermite:gamma={hermite} --m 2", ["project", "--field", f"hermite:gamma={hermite}", "--m", "2"] + common, "zero"),
        ]
        decay = ["--n", str(n), "--seed", str(seed)] + (["--levels", str(levels)] if levels else [])
        self.commands += [
            ("decay bump", ["decay", "--field", "bump"] + decay, "slope"),
            ("decay truncgauss", ["decay", "--field", "truncgauss"] + decay, "slope"),
        ]

    def work(self):
        return {"cli_calls": len(self.commands)}

    def run(self):
        return [run_cli(argv) for _label, argv, _kind in self.commands]

    def check(self, outputs):
        results = []
        slopes = {}
        for (label, _argv, kind), output in zip(self.commands, outputs):
            failure = _cli_failure(label, output)
            if failure or output["code"] != 0:
                results.append(failure or Result(label, False, f"exit code {output['code']}"))
                continue
            if kind == "slope":
                line = next((l for l in output["stdout"].splitlines() if l.startswith("# fitted_slope:")), None)
                slopes[label] = float(line.split(":", 1)[1]) if line else math.nan
                continue
            rows = list(csv.DictReader(output["stdout"].splitlines()))
            diff = max((abs(float(r["diff"])) for r in rows), default=math.inf)
            if kind == "agree":
                results.append(Result(label, diff <= EQ_TOL, f"max |diff| {diff:.3e} (tol {EQ_TOL:g})"))
            else:
                proj = max(
                    (max(abs(float(r["proj_hermite"])), abs(float(r["proj_polar"]))) for r in rows),
                    default=math.inf,
                )
                worst = max(diff, proj)
                results.append(
                    Result(label, worst <= EQ_TOL, f"max |proj|, |diff| {worst:.3e} where 0 is exact (tol {EQ_TOL:g})")
                )
        bump = slopes.get("decay bump", math.nan)
        if "decay bump" in slopes:
            results.append(Result("decay bump", bump <= DECAY_SLOPE_MAX, f"slope {bump:.4f} (<= {DECAY_SLOPE_MAX:g})"))
        if "decay truncgauss" in slopes:
            rough = slopes["decay truncgauss"]
            results.append(
                Result("decay truncgauss", rough > bump, f"slope {rough:.4f} (> bump slope {bump:.4f})")
            )
        return results


WORKLOADS = {w.name: w for w in (Certify, Kernel, Extract)}
