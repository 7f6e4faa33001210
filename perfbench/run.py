"""Benchmark of oscspectra: end-to-end and per-layer metrics on three
workloads, with every output checked.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root; it imports the library from ``src/``.
``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with the
library untouched.  ``--trace 1`` is a separate run that wraps the library's
public functions in spans (see bench_tracing.py) and reports the per-layer
metrics; it alternates untraced and traced passes, so the tracing overhead
is measured too.  ``--workload all`` runs every workload both ways, each in
a fresh process, and prints one table.  ``--smoke`` shrinks every workload
to a tiny size for the benchmark's own tests; its times mean nothing.

The report lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  An operation
is a verify row, a kernel case or an extract command; ``failed`` counts the
failed ones over all passes, and ``correct`` is false when one fails that
is not listed in ``bench_workloads.KNOWN_DEFECTS``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_tracing
import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 9
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import oscspectra; print(repr(time.perf_counter() - t))"
)

# Which end-to-end metric each layer's metrics should move, on which
# workload.  Printed with every report, so a later change can state its
# prediction against the same table.
PREDICTIONS = {
    "verify": "verify.n*_s and verify.<check>_s explain certify.pass_s",
    "projections": "move certify.pass_s and extract.pass_s, not kernel",
    "fields": "move certify.pass_s most, extract.pass_s little",
    "quadrature": "move certify.pass_s, certify.first_pass_s and extract.pass_s",
    "harmonics": "basis_eval moves extract.pass_s and certify.pass_s; zonal moves kernel.pass_s (polar cases)",
    "special_functions": "move kernel.pass_s and extract.pass_s",
    "kernels": "move kernel.pass_s; the direct arrays also move kernel.peak_rss_mb",
    "polyspaces": "about 2% of certify.pass_s",
    "cli": "argv parsing and report writing; touches extract.pass_s slightly",
}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git; a
    checkout without .git reports 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, or None."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "OSC_SPECTRA_THREADS": os.environ.get("OSC_SPECTRA_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def measure_setup(samples: int) -> list[float]:
    """Wall time of ``import oscspectra`` in fresh interpreters, after one
    untimed import that leaves the bytecode cache as users have it."""
    times = []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if i:
            times.append(float(proc.stdout.strip()))
    return times


def timed_pass(workload):
    start = time.perf_counter()
    outputs = workload.run()
    return time.perf_counter() - start, outputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seconds, smoke):
    """First pass, then warm passes until ``seconds`` have gone by since the
    first one started (at least one warm pass)."""
    results = []
    start = time.perf_counter()
    first_s, outputs = timed_pass(workload)
    results += workload.check(outputs)
    passes = []
    while not passes or (not smoke and time.perf_counter() - start < seconds):
        dt, outputs = timed_pass(workload)
        passes.append(dt)
        results += workload.check(outputs)
    return first_s, passes, results


def run_traced(workload, seconds, smoke):
    """One untraced warm-up pass, then untraced and traced passes in turn
    until ``seconds`` have gone by (at least one of each)."""
    results = []
    start = time.perf_counter()
    _, outputs = timed_pass(workload)
    results += workload.check(outputs)
    untraced, traced = [], []
    while not traced or (not smoke and time.perf_counter() - start < seconds):
        dt, outputs = timed_pass(workload)
        untraced.append(dt)
        results += workload.check(outputs)
        tracer = bench_tracing.Tracer()
        with tracer:
            dt, outputs = timed_pass(workload)
        results += workload.check(outputs)
        metrics = bench_tracing.summarize(tracer.spans, dt)
        metrics.update(workload.layer_extras(outputs))
        traced.append(metrics)
    metrics = bench_tracing.median_metrics(traced)
    metrics["trace.overhead_frac"] = metrics["trace.pass_s"] / statistics.median(untraced) - 1.0
    return metrics, len(untraced), len(traced), results


def _spread(values):
    if len(values) == 1:
        return "1 sample"
    return f"{len(values)} samples, min {min(values):.4g}, max {max(values):.4g}"


def run_workload(args, spec) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oscspectra  # noqa: F401  (fails early when src/ is missing)

    workload = bench_workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload, "")
    print(f"# workload {args.workload}: {why}")
    print(f"# closed loop, 1 caller, seed {args.seed}, {args.seconds} s, trace {args.trace}"
          + (", smoke size" if args.smoke else ""))
    print("# env " + json.dumps(environment()))
    print("# work per pass " + json.dumps(workload.work()))

    if args.trace:
        metrics, n_untraced, n_traced, results = run_traced(workload, args.seconds, args.smoke)
        declared = spec["per_layer"]
        print(f"# passes: 1 warm-up, {n_untraced} untraced, {n_traced} traced; medians over traced passes")
        for layer, text in PREDICTIONS.items():
            print(f"# prediction {layer}: {text}")
    else:
        setup = measure_setup(1 if args.smoke else SETUP_SAMPLES)
        first_s, passes, results = run_untraced(workload, args.seconds, args.smoke)
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(passes),
            "first_pass_s": first_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        declared = spec["end_to_end"]
        print(f"# setup_s: median of {_spread(setup)}")
        print(f"# pass_s: median of {_spread(passes)}; first_pass_s: 1 sample")

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    units = {m["name"]: m["unit"] for m in declared}

    failed = [r for r in results if not r.ok]
    unexpected = [r for r in failed if r.label not in bench_workloads.KNOWN_DEFECTS]
    seen = {}
    for r in failed:
        seen.setdefault(r.label, [0, r.detail])[0] += 1
    for label, (count, detail) in seen.items():
        tag = "known defect" if label in bench_workloads.KNOWN_DEFECTS else "FAILED"
        print(f"# {tag} in {count} passes: {label}: {detail}")
    for name in names:
        print(f"{name:<48} {metrics[name]:>16.6g} {units[name]}")
    failed_frac = len(failed) / len(results) if results else 1.0
    print(f"{'failed_frac':<48} {failed_frac:>16.6g} ratio ({len(failed)} of {len(results)} operations)")
    return {
        "correct": bool(results) and not unexpected,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    code = 0
    for name in bench_workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode or not lines:
                print(f"# {name} trace {trace}: exit code {proc.returncode}")
                code = 1
                continue
            summary.setdefault(name, {})[f"trace{trace}"] = json.loads(lines[-1])
    print(f"\n{'workload':<10} {'metric':<16} {'value':>12} unit")
    for name, runs in summary.items():
        result = runs.get("trace0")
        if not result:
            continue
        for metric, entry in result["metrics"].items():
            print(f"{name:<10} {metric:<16} {entry['value']:>12.6g} {entry['unit']}")
        print(f"{name:<10} {'failed_frac':<16} {result['failed'] / result['attempted']:>12.6g} ratio")
    print(json.dumps({"workloads": summary}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "oscspectra" / "__init__.py").is_file():
        print(f"error: no oscspectra sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args, load_spec())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
