"""Command-line surface: identity verification, kernel evaluation and
benchmark, projections of catalog or gridded fields, dimension bookkeeping,
and the coefficient-decay probe, with CSV/JSON reporting.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error,
3 resource cap exceeded, 141 standard output closed by its reader (as after
SIGPIPE).  All randomness is drawn from --seed, so a fixed configuration
reproduces its output byte for byte (benchmark wall-times are the one
inherently machine-dependent column).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from ._tables import open_target, write_table
from .errors import OutputError, ResourceLimitError
from .fields import _parse_spec, parse_field_id, ScalarField
from .kernels import (
    BenchRecord, kernel_bench, multi_index_count, phi_direct_values, phi_polar_values, polar_term_count
)
from .polyspaces import dimension_identity, heat_certificate, hermite_span, laguerre_harmonic_span
from .projections import coefficient_decay_probe, hermite_coeffs, polar_coeffs, project
from .quadrature import (
    gauss_hermite,
    gauss_radial,
    radial_rule_compact,
    sphere_rule,
    tensor_rule,
)
from .verify import DEFAULT_TOLERANCES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_RESOURCE = 3
EXIT_PIPE = 141


def _report(args, command, columns, comments=()):
    """Write a table in --format to the stream main opened for --output, or
    to stdout."""
    write_table(args.stream, columns, comments, args.format, command)


def _parse_tolerances(pairs, parser):
    overrides = {}
    for item in pairs or []:
        key, sep, val = item.partition("=")
        if not sep or key not in DEFAULT_TOLERANCES:
            parser.error(
                f"--tol expects IDENT=VALUE with IDENT in {sorted(DEFAULT_TOLERANCES)}, got {item!r}"
            )
        try:
            overrides[key] = float(val)
        except ValueError:
            overrides[key] = math.nan
        if math.isnan(overrides[key]):
            parser.error(f"--tol {key}: {val!r} is not a number")
    return overrides


def _int_at_least(low):
    """argparse type for an integer option >= low; a value below is a usage
    error (exit 2), never a traceback."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def cmd_verify(args, parser):
    overrides = _parse_tolerances(args.tol, parser)
    rows = run_suite(args.n, args.m_max, seed=args.seed, tolerances=overrides)
    if args.output or args.format == "json":
        names = ("identity", "detail", "n", "measured", "comparison", "bound", "status")
        values = [(r.identity, r.detail, r.n, r.measured, r.cmp, r.bound, "pass" if r.passed else "fail") for r in rows]
        _report(args, "verify", dict(zip(names, zip(*values))))
    else:
        for r in rows:
            print(
                f"{'PASS' if r.passed else 'FAIL'} ({r.identity}) {r.detail}: "
                f"{r.measured:.6g} {r.cmp} {r.bound:g}"
            )
    failed = [r for r in rows if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(rows)} checks failed", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_kernel(args, parser):
    rng = np.random.default_rng(args.seed)
    x = rng.uniform(-3.0, 3.0, size=(args.pairs, args.n))
    y = rng.uniform(-3.0, 3.0, size=(args.pairs, args.n))
    direct = phi_direct_values(args.n, args.m, x, y)
    polar = phi_polar_values(args.n, args.m, x, y)
    rel = np.abs(direct - polar) / (1.0 + np.abs(direct))
    columns = {f"{v}{d + 1}": p[:, d] for v, p in (("x", x), ("y", y)) for d in range(args.n)}
    columns.update(phi_direct=direct, phi_polar=polar, rel_diff=rel)
    columns["terms_direct"] = [multi_index_count(args.n, args.m)] * args.pairs
    columns["terms_polar"] = [polar_term_count(args.m)] * args.pairs
    _report(args, "kernel", columns)
    return EXIT_OK


def _load_grid_field(path, n, parser):
    expected = [f"x{d + 1}" for d in range(n)] + ["value"]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh)) or [None]
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read grid file {path}: {getattr(exc, 'strerror', None) or exc}")
    if header is None or [h.strip() for h in header] != expected:
        parser.error(f"grid file must have header {','.join(expected)}, got {header}")
    rows = [row for row in rows if row]
    try:
        if any(len(row) != n + 1 for row in rows):
            raise ValueError(f"every row needs {n + 1} values")
        data = np.array(rows, dtype=float)
        if not np.isfinite(data).all():
            raise ValueError("every value must be finite")
    except ValueError as exc:
        parser.error(f"grid file {path}: {exc}")
    if data.size == 0:
        parser.error("grid file has no data rows")
    pts, vals = data[:, :n], data[:, n]
    if n == 1:
        order = np.argsort(pts[:, 0])
        xs, ys = pts[order, 0], vals[order]
        fn = lambda p: np.interp(p[:, 0], xs, ys, left=0.0, right=0.0)
    else:
        try:
            from scipy.interpolate import LinearNDInterpolator
            from scipy.spatial import QhullError
        except ImportError:
            parser.error("--grid-file at n >= 2 needs scipy: pip install 'oscspectra[grid]'")
        try:
            interp = LinearNDInterpolator(pts, vals, fill_value=0.0)
        except QhullError:
            parser.error(f"grid file {path}: samples too few or flat to triangulate")
        fn = lambda p: np.asarray(interp(p), dtype=float)
    radius = float(np.linalg.norm(pts, axis=1).max())
    try:
        field = ScalarField(n, fn, support_radius=radius, label=f"grid({path})")
    except ValueError as exc:
        parser.error(f"grid file {path}: {exc}")
    return field, pts


def cmd_project(args, parser):
    rng = np.random.default_rng(args.seed)
    if (args.field is None) == (args.grid_file is None):
        parser.error("exactly one of --field or --grid-file is required")
    if args.grid_file:
        field, pts = _load_grid_field(args.grid_file, args.n, parser)
        natural = None
    else:
        try:
            field, natural = parse_field_id(args.field, args.n, rng)
        except ValueError as exc:
            parser.error(str(exc))
        pts = rng.uniform(-2.0, 2.0, size=(args.points, args.n))
    m = args.m if args.m is not None else natural
    if m is None:
        parser.error("--m (nonnegative projection level) is required for this field")
    coeffs_h = hermite_coeffs(field, m)
    coeffs_p = polar_coeffs(field, m)
    proj_h = project(field, m, "hermite", coeffs_h)(pts)
    proj_p = project(field, m, "polar", coeffs_p)(pts)
    columns = {f"x{d + 1}": pts[:, d] for d in range(args.n)}
    columns.update(f=field(pts), proj_hermite=proj_h, proj_polar=proj_p, diff=proj_h - proj_p)
    _report(args, "project", columns)
    return EXIT_OK


def cmd_bench(args, parser):
    records = [rec for m in args.m for rec in kernel_bench(args.n, m, args.trials, seed=args.seed)]
    columns = {f.name: [getattr(rec, f.name) for rec in records] for f in dataclasses.fields(BenchRecord)}
    _report(args, "bench", columns)
    return EXIT_OK


def cmd_dims(args, parser):
    if args.dump_span:
        if args.m is None:
            parser.error("--dump-span requires --m")
        build = hermite_span if args.dump_span == "hermite" else laguerre_harmonic_span
        _report(args, "dims", *build(args.n, args.m)._table())
        return EXIT_OK
    levels = range(args.m_max + 1)
    lhs, rhs = zip(*(dimension_identity(args.n, m) for m in levels))
    columns = {"m": levels, "dim_laguerre_harmonic": lhs, "dim_poly": rhs}
    columns["equal"] = [int(a == b) for a, b in zip(lhs, rhs)]
    if args.spans:
        # span ranks stop at m = 8; the rows past it leave these fields blank.
        # The largest span goes first, so one past the size cap is refused
        # before any is built.
        ranks = [(None,) * 4] * len(levels)
        for m in reversed(levels[:9]):
            c = heat_certificate(hermite_span(args.n, m), laguerre_harmonic_span(args.n, m))
            ranks[m] = (c.rank_a, c.rank_b, c.rank_stacked, int(c.equal))
        columns.update(zip(("rank_hermite", "rank_laguerre", "rank_stacked", "spans_equal"), zip(*ranks)))
    _report(args, "dims", columns)
    return EXIT_VERIFY_FAIL if 0 in columns["equal"] or 0 in columns.get("spans_equal", ()) else EXIT_OK


def cmd_decay(args, parser):
    rng = np.random.default_rng(args.seed)
    try:
        field, _ = parse_field_id(args.field, args.n, rng)
    except ValueError as exc:
        parser.error(str(exc))
    levels = args.levels if args.levels is not None else (80 - args.n) // 2
    probe = coefficient_decay_probe(field, levels)
    columns = {"lambda": [int(r[0]) for r in probe.rows], "max_abs_coeff": [float(r[3]) for r in probe.rows]}
    comments = (f"field: {field.label}", f"fitted_slope: {probe.slope!r}", f"fit_points: {probe.fit_count}")
    _report(args, "decay", columns, comments)
    return EXIT_OK


# the options each rule kind reads, with their defaults
_RULES = {
    "gauss_hermite": {"n": 64},
    "radial": {"n": 80, "beta": -0.5},
    "radial_compact": {"n": 48, "radius": 1.0, "panels": 4},
    "sphere": {"n": 3, "degree": 10},
    "tensor": {"line_n": 32, "n": 2},
}
_RULE_BUILDERS = {
    "gauss_hermite": lambda o: gauss_hermite(int(o["n"])),
    "radial": lambda o: gauss_radial(int(o["n"]), float(o["beta"])),
    "radial_compact": lambda o: radial_rule_compact(int(o["n"]), float(o["radius"]), int(o["panels"])),
    "sphere": lambda o: sphere_rule(int(o["n"]), int(o["degree"])),
    "tensor": lambda o: tensor_rule(gauss_hermite(int(o["line_n"])), int(o["n"])),
}


def _dump_rule(spec, args, parser):
    try:
        kind, opts = _parse_spec(spec, _RULES)
        rule = _RULE_BUILDERS[kind](opts)
    except ValueError as exc:
        parser.error(f"cannot build rule {spec!r}: {exc}")
    _report(args, "dump-rule", *rule._table())
    return EXIT_OK


def _add_common(parser, suppress=False):
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=int, default=dflt(0), help="seed for all random draws")
    parser.add_argument(
        "--output", default=dflt(None), help="write the report to this path instead of stdout"
    )
    parser.add_argument("--format", choices=["csv", "json"], default=dflt("csv"))
    parser.add_argument(
        "--tol",
        action="append",
        default=dflt(None),
        metavar="IDENT=VALUE",
        help="override a tolerance from the central table (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscspectra",
        description="Certify the spectral-projection identities of the harmonic "
        "oscillator in its Hermite and polar Laguerre eigenbases.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_common(parser)
    parser.add_argument(
        "--dump-rule",
        metavar="KIND:K=V,...",
        help="serialize a quadrature rule in --format and exit "
        "(kinds: gauss_hermite, radial, radial_compact, sphere, tensor)",
    )
    # the same options are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed before it
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", parents=[common], help="run the identity suite for one dimension")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m-max", type=_int_at_least(0), default=8)

    p = sub.add_parser("kernel", parents=[common], help="evaluate the kernel both ways at seeded pairs")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    p.add_argument("--pairs", type=_int_at_least(1), default=10)

    p = sub.add_parser("project", parents=[common], help="project a catalog field or gridded samples")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(0), default=None, help="projection level (default: the field's natural level)")
    p.add_argument("--field", help="catalog id, e.g. gauss | bump | hermite:gamma=(1,1) | hecke:M=2,K=1,f0=gauss")
    p.add_argument("--grid-file", help="CSV with header x1,..,xn,value")
    p.add_argument("--points", type=_int_at_least(1), default=20)

    p = sub.add_parser("bench", parents=[common], help="term counts and timings, direct vs polar")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(0), nargs="+", required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=50)

    p = sub.add_parser("dims", parents=[common], help="dimension identity and span ranks")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m-max", type=_int_at_least(0), default=30)
    p.add_argument("--m", type=_int_at_least(0), default=None, help="degree for --dump-span")
    p.add_argument("--spans", action="store_true", help="add span-rank columns (m<=8)")
    p.add_argument("--dump-span", choices=["hermite", "laguerre"])

    p = sub.add_parser("decay", parents=[common], help="coefficient-decay probe for a catalog field")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--levels", type=_int_at_least(0), default=None)
    p.add_argument("--field", default="bump")
    return parser


_HANDLERS = {
    "verify": cmd_verify,
    "kernel": cmd_kernel,
    "project": cmd_project,
    "bench": cmd_bench,
    "dims": cmd_dims,
    "decay": cmd_decay,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (args.dump_rule or args.command):
        parser.error("a subcommand is required (or --dump-rule)")
    if args.dump_rule and args.command:
        parser.error(f"--dump-rule runs alone; it cannot be combined with the subcommand {args.command!r}")
    try:
        # --output is opened before any work, so a path that cannot be
        # written is a usage error at once
        with open_target(args.output) if args.output else contextlib.nullcontext(sys.stdout) as args.stream:
            code = _dump_rule(args.dump_rule, args, parser) if args.dump_rule else _HANDLERS[args.command](args, parser)
        sys.stdout.flush()
        return code
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OutputError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); point stdout at devnull so
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
