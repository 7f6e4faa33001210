"""Exact verification that the degree-m Hermite-product span and the
Laguerre-times-solid-harmonic span coincide as polynomial spaces, via
monomial-coefficient matrices and rank comparison, together with the
dimension bookkeeping d_m + d_{m-2} + ... = dim P_m.

Monomial ordering is graded lexicographic (total degree ascending, then
exponent tuples descending), recorded in the CSV header so dumped matrices
are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ResourceLimitError
from .harmonics import dim_harmonic, solid_harmonic

__all__ = [
    "PolySpan",
    "SpanComparison",
    "monomials",
    "hermite_span",
    "laguerre_harmonic_span",
    "spans_equal",
    "dimension_identity",
    "solid_harmonic_poly",
]

_MAX_DEGREE = 12


def monomials(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials of total degree <= max_degree,
    graded lexicographic."""
    out = []
    for deg in range(max_degree + 1):
        level = set()
        for combo in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for axis in combo:
                e[axis] += 1
            level.add(tuple(e))
        out.extend(sorted(level, reverse=True))
    return out


@dataclass(frozen=True)
class PolySpan:
    """Generators of a polynomial space as rows of a monomial-coefficient
    matrix; columns follow ``monomials(n, m)``."""

    n: int
    m: int
    monomials: tuple
    matrix: np.ndarray
    labels: tuple

    def to_csv(self, target) -> None:
        own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
        fh = open(target, "w", encoding="utf-8", newline="\n") if own else target
        try:
            fh.write("# monomial_order: graded lexicographic, exponents descending\n")
            fh.write("generator," + ",".join("m" + "_".join(map(str, e)) for e in self.monomials) + "\n")
            for label, row in zip(self.labels, self.matrix):
                fh.write(label + "," + ",".join(repr(float(v)) for v in row) + "\n")
        finally:
            if own:
                fh.close()


def _check_caps(n: int, m: int) -> None:
    if n > 3:
        raise ResourceLimitError(f"span construction is capped at n <= 3, got n={n}")
    if m > _MAX_DEGREE:
        raise ResourceLimitError(f"span construction is capped at m <= {_MAX_DEGREE}, got m={m}")


@lru_cache(maxsize=None)
def _hermite_coeffs_1d(k: int) -> tuple[int, ...]:
    """Integer coefficients of the physicists' Hermite polynomial H_k,
    constant term first; recurrence H_{k+1} = 2x H_k - 2k H_{k-1}."""
    prev, cur = (), (1,)
    for j in range(k):
        nxt = [0] * (j + 2)
        for p, c in enumerate(cur):
            nxt[p + 1] += 2 * c
        for p, c in enumerate(prev):
            nxt[p] -= 2 * j * c
        prev, cur = cur, tuple(nxt)
    return cur


def _poly_product(dicts):
    """Product of sparse exponent->coefficient polynomials."""
    out = {(): 1}
    for d in dicts:
        nxt = {}
        for e1, c1 in out.items():
            for e2, c2 in d.items():
                key = tuple(a + b for a, b in zip(e1, e2)) if e1 else e2
                nxt[key] = nxt.get(key, 0) + c1 * c2
        out = nxt
    return out


def hermite_span(n: int, m: int) -> PolySpan:
    """Span of the products of Hermite polynomials over |alpha| = m."""
    _check_caps(n, m)
    from .kernels import multi_indices

    monos = monomials(n, m)
    col = {e: i for i, e in enumerate(monos)}
    alphas = multi_indices(n, m)
    matrix = np.zeros((len(alphas), len(monos)))
    for row, alpha in enumerate(alphas):
        factors = []
        for axis, k in enumerate(alpha):
            d = {}
            for p, c in enumerate(_hermite_coeffs_1d(k)):
                if c:
                    e = [0] * n
                    e[axis] = p
                    d[tuple(e)] = c
            factors.append(d)
        for e, c in _poly_product(factors).items():
            matrix[row, col[e]] = float(c)
    labels = tuple("H" + "_".join(map(str, a)) for a in alphas)
    return PolySpan(n, m, tuple(monos), matrix, labels)


def _laguerre_coeffs_frac(k: int, beta: Fraction) -> list[Fraction]:
    """Coefficients of L_k^beta(t) in ascending powers of t, exact."""
    coeffs = []
    for i in range(k + 1):
        binom = Fraction(1)
        for j in range(1, k - i + 1):
            binom *= (beta + i + j) / j
        coeffs.append((-1) ** i * binom / math.factorial(i))
    return coeffs


def _rational_snap(vec: np.ndarray, max_den: int = 48, tol: float = 1e-9) -> np.ndarray:
    """Snap coefficient ratios to small-denominator rationals when the whole
    vector fits one denominator; otherwise return the input unchanged."""
    scale = np.abs(vec).max()
    if scale == 0:
        return vec
    ratios = vec / scale
    for den in range(1, max_den + 1):
        nums = np.round(ratios * den)
        if np.abs(ratios * den - nums).max() < tol * den:
            return scale * nums / den
    return vec


@lru_cache(maxsize=None)
def solid_harmonic_poly(n: int, s: int, j: int) -> tuple:
    """Monomial coefficients (over ``monomials`` of exact degree s) of the
    j-th degree-s solid harmonic, by exact interpolation of the evaluator on
    a unisolvent random node set, with a rational-reconstruction pass."""
    monos = [e for e in monomials(n, s) if sum(e) == s]
    rng = np.random.default_rng(8000 + 101 * n + 13 * s + j)
    pts = rng.uniform(-1.0, 1.0, size=(3 * len(monos) + 8, n))
    pts += np.sign(pts) * 0.35  # keep points away from coordinate planes
    vander = np.ones((len(pts), len(monos)))
    for cidx, e in enumerate(monos):
        for axis, p in enumerate(e):
            if p:
                vander[:, cidx] *= pts[:, axis] ** p
    vals = solid_harmonic(n, s, j, pts)
    coef, res, *_ = np.linalg.lstsq(vander, vals, rcond=None)
    fit_err = np.abs(vander @ coef - vals).max()
    if fit_err > 1e-8:
        raise RuntimeError(f"solid harmonic interpolation failed (n={n}, s={s}, j={j})")
    return tuple(monos), tuple(float(c) for c in _rational_snap(coef))


def laguerre_harmonic_span(n: int, m: int) -> PolySpan:
    """Span of L_k^{n/2-1+(m-2k)}(|x|^2) Y_{m-2k,j}(x) over k <= m/2 and j."""
    _check_caps(n, m)
    monos = monomials(n, m)
    col = {e: i for i, e in enumerate(monos)}
    rows = []
    labels = []
    for k in range(m // 2 + 1):
        s = m - 2 * k
        if not dim_harmonic(n, s):
            continue
        beta = Fraction(n, 2) - 1 + s
        lag = _laguerre_coeffs_frac(k, beta)
        # expand L_k(|x|^2) = sum_i c_i (x_1^2 + ... + x_n^2)^i
        radial = {}
        for i, c in enumerate(lag):
            for combo in combinations_with_replacement(range(n), i):
                e = [0] * n
                for axis in combo:
                    e[axis] += 2
                weight = math.factorial(i)
                for axis in range(n):
                    weight //= math.factorial(combo.count(axis))
                key = tuple(e)
                radial[key] = radial.get(key, Fraction(0)) + c * weight
        for j in range(1, dim_harmonic(n, s) + 1):
            ymonos, ycoef = solid_harmonic_poly(n, s, j)
            row = np.zeros(len(monos))
            for (er, cr) in radial.items():
                for e2, c2 in zip(ymonos, ycoef):
                    key = tuple(a + b for a, b in zip(er, e2))
                    row[col[key]] += float(cr) * c2
            rows.append(row)
            labels.append(f"L{k}^[{beta}]*Y_{s}_{j}")
    return PolySpan(n, m, tuple(monos), np.array(rows), tuple(labels))


@dataclass(frozen=True)
class SpanComparison:
    equal: bool
    rank_a: int
    rank_b: int
    rank_stacked: int


def _rank(matrix: np.ndarray, tol: float) -> int:
    if matrix.size == 0:
        return 0
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals > tol * svals[0]))


def spans_equal(a: PolySpan, b: PolySpan, tol: float = 1e-10) -> SpanComparison:
    """True iff the two generator spans coincide: equal ranks that survive
    stacking, measured by singular values thresholded at tol * sigma_max.
    Rows are max-normalized first so generator scaling cannot skew ranks."""
    if (a.n, a.m, a.monomials) != (b.n, b.m, b.monomials):
        raise ValueError("spans must share dimension, degree, and monomial order")

    def normalized(mat):
        scale = np.abs(mat).max(axis=1, keepdims=True)
        scale[scale == 0] = 1.0
        return mat / scale

    am, bm = normalized(a.matrix), normalized(b.matrix)
    ra = _rank(am, tol)
    rb = _rank(bm, tol)
    rs = _rank(np.vstack([am, bm]), tol)
    return SpanComparison(ra == rb == rs, ra, rb, rs)


def dimension_identity(n: int, m: int) -> tuple[int, int]:
    """(sum of d_{m-2k} over 0 <= k <= m/2,  dim P_m); both exact integers."""
    lhs = sum(dim_harmonic(n, m - 2 * k) for k in range(m // 2 + 1))
    rhs = math.comb(n - 1 + m, n - 1)
    return lhs, rhs
