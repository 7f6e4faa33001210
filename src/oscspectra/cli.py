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
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import ResourceLimitError
from .fields import parse_field_id, ScalarField
from .kernels import (
    kernel_bench, multi_index_count, phi_direct_values, phi_polar_values, polar_term_count
)
from .polyspaces import dimension_identity, hermite_span, laguerre_harmonic_span, spans_equal
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
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141


def _write_rows(rows, columns, args, command):
    """Emit rows as CSV (default) or JSON to --output or stdout."""
    fmt = args.format
    if args.output:
        fh = open(args.output, "w", encoding="utf-8", newline="")
        close = True
    else:
        fh = sys.stdout
        close = False
    try:
        if fmt == "json":
            payload = {"schema": 1, "command": command, "rows": rows}
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_plain(row.get(c, "")) for c in columns])
    finally:
        if close:
            fh.close()


def _plain(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


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
            parser.error(f"--tol {key}: {val!r} is not a number")
    return overrides


def _int_at_least(low):
    """argparse type for an integer option bounded below; a smaller value
    is a usage error (exit 2), never a traceback."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _positive_dimension(parser, n, cap=None):
    if n < 1:
        parser.error(f"--n must be a positive dimension, got {n}")
    if cap is not None and n > cap:
        parser.error(f"--n must be <= {cap} for this command, got {n}")


def cmd_verify(args, parser):
    _positive_dimension(parser, args.n)
    overrides = _parse_tolerances(args.tol, parser)
    rows = run_suite(args.n, args.m_max, seed=args.seed, tolerances=overrides)
    out = [
        {
            "identity": r.identity,
            "detail": r.detail,
            "n": r.n,
            "measured": r.measured,
            "comparison": r.cmp,
            "bound": r.bound,
            "status": "pass" if r.passed else "fail",
        }
        for r in rows
    ]
    if args.output or args.format == "json":
        _write_rows(
            out,
            ["identity", "detail", "n", "measured", "comparison", "bound", "status"],
            args,
            "verify",
        )
    if not args.output and args.format != "json":
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
    _positive_dimension(parser, args.n)
    rng = np.random.default_rng(args.seed)
    x = rng.uniform(-3.0, 3.0, size=(args.pairs, args.n))
    y = rng.uniform(-3.0, 3.0, size=(args.pairs, args.n))
    direct = phi_direct_values(args.n, args.m, x, y)
    polar = phi_polar_values(args.n, args.m, x, y)
    rel = np.abs(direct - polar) / (1.0 + np.abs(direct))
    terms = dict(terms_direct=multi_index_count(args.n, args.m), terms_polar=polar_term_count(args.m))
    rows = []
    for i in range(args.pairs):
        row = {f"x{d + 1}": x[i, d] for d in range(args.n)}
        row.update({f"y{d + 1}": y[i, d] for d in range(args.n)})
        row.update(phi_direct=direct[i], phi_polar=polar[i], rel_diff=rel[i], **terms)
        rows.append(row)
    cols = (
        [f"x{d + 1}" for d in range(args.n)]
        + [f"y{d + 1}" for d in range(args.n)]
        + ["phi_direct", "phi_polar", "rel_diff", "terms_direct", "terms_polar"]
    )
    _write_rows(rows, cols, args, "kernel")
    return EXIT_OK


def _load_grid_field(path, n, parser):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = [f"x{d + 1}" for d in range(n)] + ["value"]
        if header is None or [h.strip() for h in header] != expected:
            parser.error(
                f"grid file must have header {','.join(expected)}, got {header}"
            )
        data = np.array([[float(v) for v in row] for row in reader if row])
    if data.size == 0:
        parser.error("grid file has no data rows")
    pts, vals = data[:, :n], data[:, n]
    if n == 1:
        order = np.argsort(pts[:, 0])
        xs, ys = pts[order, 0], vals[order]
        fn = lambda p: np.interp(p[:, 0], xs, ys, left=0.0, right=0.0)
    else:
        from scipy.interpolate import LinearNDInterpolator

        interp = LinearNDInterpolator(pts, vals, fill_value=0.0)
        fn = lambda p: np.asarray(interp(p), dtype=float)
    radius = float(np.linalg.norm(pts, axis=1).max())
    field = ScalarField(n, fn, support_radius=radius, label=f"grid({path})")
    return field, pts


def cmd_project(args, parser):
    _positive_dimension(parser, args.n, cap=3)
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
    if m is None or m < 0:
        parser.error("--m (nonnegative projection level) is required for this field")
    coeffs_h = hermite_coeffs(field, m)
    coeffs_p = polar_coeffs(field, m)
    proj_h = project(field, m, "hermite", coeffs_h)(pts)
    proj_p = project(field, m, "polar", coeffs_p)(pts)
    fvals = field(pts)
    rows = []
    for i in range(len(pts)):
        row = {f"x{d + 1}": pts[i, d] for d in range(args.n)}
        row.update(
            f=fvals[i],
            proj_hermite=proj_h[i],
            proj_polar=proj_p[i],
            diff=proj_h[i] - proj_p[i],
        )
        rows.append(row)
    cols = [f"x{d + 1}" for d in range(args.n)] + ["f", "proj_hermite", "proj_polar", "diff"]
    _write_rows(rows, cols, args, "project")
    return EXIT_OK


def cmd_bench(args, parser):
    _positive_dimension(parser, args.n)
    rows = [
        asdict(rec) for m in args.m for rec in kernel_bench(args.n, m, args.trials, seed=args.seed)
    ]
    cols = ["n", "m", "method", "terms", "nanos_per_eval", "max_rel_diff"]
    _write_rows(rows, cols, args, "bench")
    return EXIT_OK


def cmd_dims(args, parser):
    _positive_dimension(parser, args.n)
    if args.dump_span:
        if args.m is None:
            parser.error("--dump-span requires --m")
        span = (
            hermite_span(args.n, args.m)
            if args.dump_span == "hermite"
            else laguerre_harmonic_span(args.n, args.m)
        )
        span.to_csv(args.output or sys.stdout)
        return EXIT_OK
    rows = []
    span_cap = 8 if args.spans else -1
    for m in range(args.m_max + 1):
        lhs, rhs = dimension_identity(args.n, m)
        row = {"m": m, "dim_laguerre_harmonic": lhs, "dim_poly": rhs, "equal": int(lhs == rhs)}
        if args.spans and m <= span_cap and args.n <= 3:
            cmpres = spans_equal(
                hermite_span(args.n, m), laguerre_harmonic_span(args.n, m)
            )
            row.update(
                rank_hermite=cmpres.rank_a,
                rank_laguerre=cmpres.rank_b,
                rank_stacked=cmpres.rank_stacked,
                spans_equal=int(cmpres.equal),
            )
        rows.append(row)
    cols = ["m", "dim_laguerre_harmonic", "dim_poly", "equal"]
    if args.spans:
        cols += ["rank_hermite", "rank_laguerre", "rank_stacked", "spans_equal"]
    _write_rows(rows, cols, args, "dims")
    bad = [r for r in rows if not r["equal"] or r.get("spans_equal", 1) == 0]
    return EXIT_VERIFY_FAIL if bad else EXIT_OK


def cmd_decay(args, parser):
    _positive_dimension(parser, args.n, cap=3)
    rng = np.random.default_rng(args.seed)
    try:
        field, _ = parse_field_id(args.field, args.n, rng)
    except ValueError as exc:
        parser.error(str(exc))
    levels = args.levels if args.levels is not None else (80 - args.n) // 2
    probe = coefficient_decay_probe(field, levels)
    fh = open(args.output, "w", encoding="utf-8", newline="") if args.output else sys.stdout
    try:
        fh.write(f"# field: {field.label}\n")
        fh.write(f"# fitted_slope: {probe.slope!r}\n")
        fh.write(f"# fit_points: {probe.fit_count}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "max_abs_coeff"])
        for lam, _k, _s, val in probe.rows:
            writer.writerow([int(lam), float(val)])
    finally:
        if args.output:
            fh.close()
    return EXIT_OK


_RULE_BUILDERS = {
    "gauss_hermite": lambda o: gauss_hermite(int(o.get("n", 64))),
    "radial": lambda o: gauss_radial(int(o.get("n", 80)), float(o.get("beta", -0.5))),
    "radial_compact": lambda o: radial_rule_compact(
        int(o.get("n", 48)), float(o.get("radius", 1.0)), int(o.get("panels", 4))
    ),
    "sphere": lambda o: sphere_rule(int(o.get("n", 3)), int(o.get("degree", 10))),
    "tensor": lambda o: tensor_rule(gauss_hermite(int(o.get("line_n", 32))), int(o.get("n", 2))),
}


def _dump_rule(spec, args, parser):
    kind, _, rest = spec.partition(":")
    if kind not in _RULE_BUILDERS:
        parser.error(f"unknown rule kind {kind!r}; options: {sorted(_RULE_BUILDERS)}")
    opts = {}
    for item in filter(None, rest.split(",")):
        key, sep, val = item.partition("=")
        if not sep:
            parser.error(f"malformed rule option {item!r}")
        opts[key.strip()] = val.strip()
    try:
        rule = _RULE_BUILDERS[kind](opts)
    except (ValueError, KeyError) as exc:
        parser.error(f"cannot build rule {spec!r}: {exc}")
    rule.to_csv(args.output or sys.stdout)
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
        help="serialize a quadrature rule as CSV and exit "
        "(kinds: gauss_hermite, radial, radial_compact, sphere, tensor)",
    )
    # the same options are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed before it
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", parents=[common], help="run the identity suite for one dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=_int_at_least(0), default=8)

    p = sub.add_parser("kernel", parents=[common], help="evaluate the kernel both ways at seeded pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    p.add_argument("--pairs", type=_int_at_least(1), default=10)

    p = sub.add_parser("project", parents=[common], help="project a catalog field or gridded samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="projection level (default: the field's natural level)")
    p.add_argument("--field", help="catalog id, e.g. gauss | bump | hermite:gamma=(1,1) | hecke:M=2,K=1,f0=gauss")
    p.add_argument("--grid-file", help="CSV with header x1,..,xn,value")
    p.add_argument("--points", type=_int_at_least(1), default=20)

    p = sub.add_parser("bench", parents=[common], help="term counts and timings, direct vs polar")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=_int_at_least(0), nargs="+", required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=50)

    p = sub.add_parser("dims", parents=[common], help="dimension identity and span ranks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=_int_at_least(0), default=30)
    p.add_argument("--m", type=_int_at_least(0), default=None, help="degree for --dump-span")
    p.add_argument("--spans", action="store_true", help="add span-rank columns (n<=3, m<=8)")
    p.add_argument("--dump-span", choices=["hermite", "laguerre"])

    p = sub.add_parser("decay", parents=[common], help="coefficient-decay probe for a catalog field")
    p.add_argument("--n", type=int, required=True)
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
    try:
        if args.dump_rule:
            code = _dump_rule(args.dump_rule, args, parser)
        else:
            code = _HANDLERS[args.command](args, parser)
        sys.stdout.flush()
        return code
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); point stdout at devnull so
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
