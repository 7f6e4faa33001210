"""In-memory span tracer for the oscspectra benchmark.

While installed, the tracer replaces the public functions of oscspectra's
modules with timing wrappers, at every module that imports them by name,
plus three methods on their classes (``ScalarField.__call__``,
``HarmonicBasis.evaluate_all``, ``SolidHarmonic.__call__``).  Each call
records one span: name, layer, parent span, start, end, and the work
counters of that call.  Spans stay in memory; ``summarize`` turns the spans
of one pass into the per-layer metrics.  Uninstalling restores the original
objects, so untraced passes run the library exactly as users do.

The tracer assumes one caller thread (``OSC_SPECTRA_THREADS`` unset), the
way the benchmark runs: spans are nested by a single call stack.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import statistics
import sys
import time

import numpy as np

# Public functions wrapped per module.  A function is wrapped in every
# oscspectra module that holds it under the same name, so calls through
# ``from .x import f`` are traced too.
FUNCTIONS = {
    "cli": ["main"],
    "verify": [
        "run_suite",
        "check_kernel_equality",
        "check_spans",
        "check_addition_theorem",
        "check_reproducing",
        "polar_gram_defect",
        "check_polar_gram",
        "check_parseval_bandlimited",
        "check_parseval_cross_basis",
        "check_bessel_monotone",
        "check_eigen_orders",
        "check_rotation",
        "check_hecke",
        "check_factorization",
        "check_decay",
        "check_oone",
        "check_dims",
    ],
    "projections": [
        "hermite_coeffs",
        "polar_coeffs",
        "default_radial_rules",
        "project",
        "hecke_bochner",
        "rotation_commutes",
        "coefficient_decay_probe",
        "parseval_check",
        "field_norm_sq",
        "fd_oscillator_apply",
        "eigen_order_study",
    ],
    "fields": [
        "polar_eigenfield",
        "radial_harmonic_field",
        "random_band_limited",
        "random_solid_harmonic",
        "parse_field_id",
    ],
    "quadrature": [
        "gauss_hermite",
        "gauss_radial",
        "gauss_legendre",
        "radial_rule_compact",
        "sphere_rule",
        "tensor_rule",
    ],
    "harmonics": ["zonal", "solid_harmonic"],
    "special_functions": [
        "laguerre_poly",
        "laguerre_fn_table",
        "laguerre_fn",
        "hermite_table",
        "hermite_fn",
        "hermite_fn_multi",
        "gegenbauer",
    ],
    "kernels": [
        "multi_indices",
        "phi_direct_values",
        "phi_direct",
        "phi_polar_values",
        "phi_polar",
        "kernel_bench",
    ],
    "polyspaces": [
        "monomials",
        "hermite_span",
        "laguerre_harmonic_span",
        "spans_equal",
        "dimension_identity",
        "solid_harmonic_poly",
    ],
}

# (module, class, method, span name)
METHODS = [
    ("fields", "ScalarField", "__call__", "fields.ScalarField.__call__"),
    ("harmonics", "HarmonicBasis", "evaluate_all", "harmonics.basis_eval"),
    ("harmonics", "SolidHarmonic", "__call__", "harmonics.solid"),
]

LAYERS = [
    "cli",
    "verify",
    "projections",
    "fields",
    "quadrature",
    "harmonics",
    "special_functions",
    "kernels",
    "polyspaces",
]

VERIFY_CHECKS = [
    "check_rotation",
    "check_hecke",
    "check_parseval_bandlimited",
    "check_factorization",
    "check_spans",
    "check_polar_gram",
    "check_bessel_monotone",
    "check_eigen_orders",
    "check_kernel_equality",
]

# The kernel cases of the ``kernel`` workload, named n<n>m<m>.
KERNEL_CASES = [(3, 40), (3, 200), (2, 300), (4, 40)]

FIELD_SPAN = "fields.ScalarField.__call__"
PROJECT_EVAL_SPAN = "projections.project_eval"


def _npoints(points) -> int:
    shape = np.shape(points)
    return 1 if len(shape) < 2 else int(shape[0])


def _rule_key(value):
    if hasattr(value, "domain_tag"):
        return ("rule", value.domain_tag, len(value.nodes))
    return repr(value)


def _count_rule(args, kwargs, result):
    nodes = result[0] if isinstance(result, tuple) else result.nodes
    key = tuple(_rule_key(a) for a in args) + tuple(
        (k, _rule_key(v)) for k, v in sorted(kwargs.items())
    )
    return {"nodes": len(nodes), "key": key}


def _count_table(args, kwargs, result):
    # result has shape (kmax+1,) + x.shape, so elements = (kmax+1) * points
    return {"elements": int(np.size(result))}


def _count_gegenbauer(args, kwargs, result):
    # gegenbauer(s, lam, t) runs the recurrence through degrees 0..s
    return {"elements": (int(args[0]) + 1) * int(np.size(result))}


def _count_kernel(args, kwargs, result):
    n, m, x = args[0], args[1], args[2]
    return {"n": n, "m": m, "pairs": int(np.size(x)) // n}


def _count_dimension(args, kwargs, result):
    return {"n": args[0]}


def _count_points(args, kwargs, result):
    return {"points": _npoints(args[1])}


COUNTERS = {
    **{f"quadrature.{name}": _count_rule for name in FUNCTIONS["quadrature"]},
    "special_functions.hermite_table": _count_table,
    "special_functions.laguerre_fn_table": _count_table,
    "kernels.phi_direct_values": _count_kernel,
    "kernels.phi_polar_values": _count_kernel,
    "verify.run_suite": _count_dimension,
    "special_functions.gegenbauer": _count_gegenbauer,
    FIELD_SPAN: _count_points,
    "harmonics.basis_eval": _count_points,
}


class _ProjectionFn:
    """Marks the evaluator of a field returned by ``project``, so its calls
    are recorded as projection evaluation rather than field evaluation."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, pts):
        return self.fn(pts)


class Tracer:
    """Records spans while installed.  ``spans`` holds one list per span:
    [name, layer, parent index, start, end, counters]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _record(self, name, layer, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        rec = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            stack.pop()
        count = COUNTERS.get(name)
        if count is not None:
            rec[5] = count(args, kwargs, result)
        return result

    def _wrap(self, fn, name, layer):
        def traced(*args, **kwargs):
            return self._record(name, layer, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_project(self, fn):
        def traced(*args, **kwargs):
            field = self._record("projections.project", "projections", fn, args, kwargs)
            return dataclasses.replace(field, fn=_ProjectionFn(field.fn))

        traced.__wrapped__ = fn
        return traced

    def _wrap_field_call(self, fn):
        def traced(field, points):
            if isinstance(field.fn, _ProjectionFn):
                return self._record(PROJECT_EVAL_SPAN, "projections", fn, (field, points), {})
            return self._record(FIELD_SPAN, "fields", fn, (field, points), {})

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function and method."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items() if name == "oscspectra" or name.startswith("oscspectra.")]
        for short, names in FUNCTIONS.items():
            home = importlib.import_module(f"oscspectra.{short}")
            for fname in names:
                orig = getattr(home, fname)
                if fname == "project" and short == "projections":
                    wrapper = self._wrap_project(orig)
                else:
                    wrapper = self._wrap(orig, f"{short}.{fname}", short)
                for mod in modules:
                    if mod.__dict__.get(fname) is orig:
                        self._saved.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)
        for short, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(f"oscspectra.{short}"), cls_name)
            orig = cls.__dict__[meth]
            if span == FIELD_SPAN:
                wrapper = self._wrap_field_call(orig)
            else:
                wrapper = self._wrap(orig, span, short)
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, wrapper)

    def uninstall(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass from its spans.

    Busy time of a name counts only its outermost spans (no ancestor of the
    same name); self time is a span's duration minus its children's.
    """
    # a call that raised has no counters
    spans = [s if s[5] is not None else s[:5] + [{}] for s in spans]
    n_spans = len(spans)
    child_s = [0.0] * n_spans
    for name, layer, parent, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    # names and layers of each span's ancestors; parents precede children
    ancestors_names = [frozenset()] * n_spans
    ancestors_layers = [frozenset()] * n_spans
    for i, (_name, _layer, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            pname, player = spans[parent][0], spans[parent][1]
            names, layers = ancestors_names[parent], ancestors_layers[parent]
            ancestors_names[i] = names if pname in names else names | {pname}
            ancestors_layers[i] = layers if player in layers else layers | {player}

    busy = {}
    calls = {}
    points = {}
    self_by_name = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for i, (name, layer, parent, start, end, cnt) in enumerate(spans):
        dur = end - start
        self_s = dur - child_s[i]
        self_by_layer[layer] += self_s
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        if name not in ancestors_names[i]:
            busy[name] = busy.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            points[name] = points.get(name, 0) + cnt.get("points", 0)

    out = {}
    suite_s = {n: 0.0 for n in range(1, 5)}
    for i, (name, layer, parent, start, end, cnt) in enumerate(spans):
        if name == "verify.run_suite" and name not in ancestors_names[i] and cnt.get("n") in suite_s:
            suite_s[cnt["n"]] += end - start
    for n in range(1, 5):
        out[f"verify.n{n}_s"] = suite_s[n]
    for check in VERIFY_CHECKS:
        out[f"verify.{check}_s"] = busy.get(f"verify.{check}", 0.0)

    pc = "projections.polar_coeffs"
    pc_calls = calls.get(pc, 0)
    grids = sum(
        1 for name, layer, parent, *_ in spans if name == FIELD_SPAN and parent >= 0 and spans[parent][0] == pc
    )
    out[f"{pc}.calls"] = pc_calls
    out[f"{pc}.busy_s"] = busy.get(pc, 0.0)
    out[f"{pc}.self_s"] = self_by_name.get(pc, 0.0)
    out[f"{pc}.grids_per_call"] = grids / pc_calls if pc_calls else 0.0
    for fname in ("hermite_coeffs", "field_norm_sq", "coefficient_decay_probe"):
        out[f"projections.{fname}.busy_s"] = busy.get(f"projections.{fname}", 0.0)
    out["projections.project_eval.busy_s"] = busy.get(PROJECT_EVAL_SPAN, 0.0)

    field_points = points.get(FIELD_SPAN, 0)
    field_busy = busy.get(FIELD_SPAN, 0.0)
    out["fields.calls"] = calls.get(FIELD_SPAN, 0)
    out["fields.points"] = field_points
    out["fields.busy_s"] = field_busy
    out["fields.ns_per_point"] = field_busy / field_points * 1e9 if field_points else 0.0

    built = 0
    nodes = 0
    keys = set()
    quad_busy = 0.0
    for i, (name, layer, parent, start, end, cnt) in enumerate(spans):
        if layer == "quadrature" and "quadrature" not in ancestors_layers[i]:
            built += 1
            nodes += cnt.get("nodes", 0)
            keys.add((name, cnt.get("key")))
            quad_busy += end - start
    out["quadrature.rules_built"] = built
    out["quadrature.rules_distinct"] = len(keys)
    out["quadrature.reuse_ratio"] = len(keys) / built if built else 0.0
    out["quadrature.nodes_built"] = nodes
    out["quadrature.busy_s"] = quad_busy

    be = "harmonics.basis_eval"
    out[f"{be}.calls"] = calls.get(be, 0)
    out[f"{be}.points"] = points.get(be, 0)
    out[f"{be}.busy_s"] = busy.get(be, 0.0)
    out["harmonics.solid.busy_s"] = busy.get("harmonics.solid", 0.0)
    out["harmonics.zonal.busy_s"] = busy.get("harmonics.zonal", 0.0)

    for fname in ("hermite_table", "laguerre_fn_table", "gegenbauer"):
        full = f"special_functions.{fname}"
        out[f"{full}.elements"] = sum(cnt.get("elements", 0) for name, *_r, cnt in spans if name == full)
        out[f"{full}.busy_s"] = busy.get(full, 0.0)

    kernel_s = {}
    pair_terms = {"direct": 0, "polar": 0}
    direct_bytes = 0
    for name, layer, parent, start, end, cnt in spans:
        if name not in ("kernels.phi_direct_values", "kernels.phi_polar_values") or not cnt:
            continue
        method = "direct" if name == "kernels.phi_direct_values" else "polar"
        n, m, pairs = cnt["n"], cnt["m"], cnt["pairs"]
        if method == "direct":
            terms = math.comb(m + n - 1, n - 1)
            # hx and hy are (terms, pairs) float64 arrays; tx and ty are
            # (m+1, pairs, n); computed from shapes, not measured traffic
            direct_bytes += 8 * (2 * terms * pairs + 2 * (m + 1) * pairs * n)
        else:
            terms = m // 2 + 1
        pair_terms[method] += terms * pairs
        if (n, m) in KERNEL_CASES:
            key = (method, n, m)
            s, p = kernel_s.get(key, (0.0, 0))
            kernel_s[key] = (s + end - start, p + pairs)
    for method in ("direct", "polar"):
        for n, m in KERNEL_CASES:
            s, p = kernel_s.get((method, n, m), (0.0, 0))
            out[f"kernels.{method}.n{n}m{m}.ns_per_pair"] = s / p * 1e9 if p else 0.0
        out[f"kernels.{method}.pair_terms"] = pair_terms[method]
    out["kernels.direct.bytes_computed"] = direct_bytes

    for fname in ("hermite_span", "laguerre_harmonic_span", "spans_equal"):
        out[f"polyspaces.{fname}.busy_s"] = busy.get(f"polyspaces.{fname}", 0.0)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    out["trace.spans"] = n_spans
    out["trace.pass_s"] = pass_s
    out["trace.layer_self_frac"] = sum(self_by_layer.values()) / pass_s if pass_s > 0 else 0.0
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over traced passes; counters repeat across
    passes, so their median is their value."""
    return {key: statistics.median(d[key] for d in per_pass) for key in per_pass[0]}
