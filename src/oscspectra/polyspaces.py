"""Exact verification that the degree-m Hermite-product span and the
Laguerre-times-solid-harmonic span coincide as polynomial spaces, on
integer monomial-coefficient matrices over a closed-form rational harmonic
basis, with no threshold; plus the dimension bookkeeping
d_m + d_{m-2} + ... = dim P_m.

``heat_certificate`` certifies the coincidence in heat normal form:
H_alpha = 2^{|alpha|} e^{-Delta/4} x^alpha, and e^{-Delta/4}(|x|^{2k} h) =
(-1)^k k! L_k^{(s+n/2-1)}(|x|^2) h for h harmonic of degree s, so both
spans are e^{-Delta/4} P_m^hom once their degree-m blocks have full rank.
That rank is read off pivots of the Laplacian powers the heat check forms,
with no elimination.  ``spans_equal`` compares any two spans by exact ranks
over Q.

Monomial ordering is graded lexicographic (total degree ascending, then
exponent tuples descending), recorded in the CSV header so dumped matrices
are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from ._tables import write_table
from .errors import ResourceLimitError
from .harmonics import dim_harmonic
from .kernels import multi_index_count, multi_indices
from .quadrature import _TENSOR_CAP, _check_size

__all__ = [
    "PolySpan",
    "SpanComparison",
    "monomials",
    "hermite_span",
    "laguerre_harmonic_span",
    "spans_equal",
    "heat_certificate",
    "dimension_identity",
    "solid_harmonic_poly",
]

_MAX_DEGREE = 12


def monomials(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials of total degree <= max_degree,
    graded lexicographic: each degree's tuples descending, the order of
    ``multi_indices``."""
    return [e for deg in range(max_degree + 1) for e in multi_indices(n, deg)]


@dataclass(frozen=True)
class PolySpan:
    """Generators of a polynomial space as rows of a monomial-coefficient
    matrix; columns follow ``monomials(n, m)``."""

    n: int
    m: int
    monomials: tuple
    matrix: np.ndarray
    labels: tuple

    def _table(self):
        """Columns generator, then one float column per monomial, and the
        monomial-order comment."""
        columns = {"generator": self.labels}
        for e, col in zip(self.monomials, self.matrix.T.astype(float)):
            columns["m" + "_".join(map(str, e))] = col
        return columns, ("monomial_order: graded lexicographic, exponents descending",)

    def to_csv(self, target) -> None:
        write_table(target, *self._table())


def _check_caps(n: int, m: int) -> None:
    """Refuse a span past m = 12 (the coefficients of H_23 pass 2^53) or
    one whose matrix, dim P_m^hom rows x dim P_m columns, passes the size
    cap, before anything is built."""
    if m > _MAX_DEGREE:
        raise ResourceLimitError(f"span construction is capped at m <= {_MAX_DEGREE}, got m={m}")
    _check_size(f"span matrix (n={n}, m={m})", multi_index_count(n, m) * math.comb(n + m, n), _TENSOR_CAP)


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


@lru_cache(maxsize=None)
def hermite_span(n: int, m: int) -> PolySpan:
    """Span of the products of Hermite polynomials over |alpha| = m; the
    matrix is read-only."""
    _check_caps(n, m)
    monos = monomials(n, m)
    col = {e: i for i, e in enumerate(monos)}
    alphas = multi_indices(n, m)
    matrix = np.zeros((len(alphas), len(monos)))
    for row, alpha in enumerate(alphas):
        for terms in product(*(enumerate(_hermite_coeffs_1d(k)) for k in alpha)):
            matrix[row, col[tuple(p for p, _ in terms)]] = math.prod(c for _, c in terms)
    matrix.flags.writeable = False
    labels = tuple("H" + "_".join(map(str, a)) for a in alphas)
    return PolySpan(n, m, tuple(monos), matrix, labels)


def _laguerre_coeffs_frac(k: int, beta: Fraction) -> list[Fraction]:
    """Coefficients (-1)^i binom(k + beta, k - i) / i! of L_k^beta(t) in
    ascending powers of t, exact."""
    return [
        Fraction((-1) ** i, math.factorial(i)) * math.prod((beta + i + j) / j for j in range(1, k - i + 1))
        for i in range(k + 1)
    ]


def _laplacian(poly: dict) -> dict:
    """Laplacian of an exponent -> coefficient polynomial, exact."""
    out = {}
    for e, c in poly.items():
        for axis, p in enumerate(e):
            if p > 1:
                key = e[:axis] + (p - 2,) + e[axis + 1 :]
                out[key] = out.get(key, 0) + p * (p - 1) * c
    return {e: c for e, c in out.items() if c}


def _times_r2(poly: dict) -> dict:
    """The polynomial multiplied by |x|^2."""
    out = {}
    for e, c in poly.items():
        for axis, p in enumerate(e):
            key = e[:axis] + (p + 2,) + e[axis + 1 :]
            out[key] = out.get(key, 0) + c
    return out


@lru_cache(maxsize=None)
def _harmonic_basis(n: int, s: int) -> tuple:
    """The d_s harmonics h_{eps,q} = sum_i (-1)^i eps!/(2i+eps)! x_1^{2i+eps}
    (Delta')^i q of degree s, for eps in (0, 1) and q over the degree-(s-eps)
    monomials in x_2..x_n (Axler, Bourdon & Ramey, Harmonic Function Theory,
    ch. 5).  Delta h = 0 since the x_1 derivatives of term i cancel the
    Delta' of term i-1.  Each is a tuple of (exponent, Fraction) pairs,
    exponents descending."""
    basis = []
    for eps in range(min(s, 1) + 1):  # no q of degree s - eps = -1
        # at n = 1 the one monomial in no variables is 1, of degree 0
        qs = multi_indices(n - 1, s - eps) if n > 1 else [()] if s == eps else []
        for q in qs:
            h, term, i = {}, {q: Fraction(1)}, 0
            while term:
                a = Fraction((-1) ** i, math.factorial(2 * i + eps))
                h.update(((2 * i + eps,) + e, a * c) for e, c in term.items())
                term, i = _laplacian(term), i + 1
            basis.append(tuple(sorted(h.items(), reverse=True)))
    return tuple(basis)


def solid_harmonic_poly(n: int, s: int, j: int) -> tuple:
    """The j-th (1-based) exact degree-s solid harmonic of the closed-form
    basis, as (exponent, Fraction) pairs over monomials of degree s."""
    return _harmonic_basis(n, s)[j - 1]


def _primitive_row(poly: dict, col: dict) -> np.ndarray:
    """The primitive integer multiple of a rational polynomial as a float
    row over the columns ``col``, exact while every entry is below 2^53."""
    den = math.lcm(*(c.denominator for c in poly.values()))
    ints = {e: int(c * den) for e, c in poly.items()}
    g = math.gcd(*ints.values())
    if max(map(abs, ints.values())) >= g * 2**53:
        raise ResourceLimitError("a span generator has an integer coefficient beyond 2^53")
    row = np.zeros(len(col))
    row[[col[e] for e in ints]] = [v // g for v in ints.values()]
    return row


@lru_cache(maxsize=None)
def laguerre_harmonic_span(n: int, m: int) -> PolySpan:
    """Span of L_k^{n/2-1+(m-2k)}(|x|^2) h_{m-2k,j}(x) over k <= m/2 and j,
    with h the exact harmonic basis; each generator is its primitive
    integer row, and the matrix is read-only."""
    _check_caps(n, m)
    monos = monomials(n, m)
    col = {e: i for i, e in enumerate(monos)}
    rows, labels = [], []
    for k in range(m // 2 + 1):
        s = m - 2 * k
        beta = Fraction(n, 2) - 1 + s
        lag = _laguerre_coeffs_frac(k, beta)
        for j, h in enumerate(_harmonic_basis(n, s), 1):
            poly, term = {}, dict(h)
            for i, c in enumerate(lag):
                if i:
                    term = _times_r2(term)
                for e, v in term.items():
                    poly[e] = poly.get(e, 0) + c * v
            rows.append(_primitive_row(poly, col))
            labels.append(f"L{k}^[{beta}]*h_{s}_{j}")
    matrix = np.array(rows)
    matrix.flags.writeable = False
    return PolySpan(n, m, tuple(monos), matrix, tuple(labels))


@dataclass(frozen=True)
class SpanComparison:
    equal: bool
    rank_a: int
    rank_b: int
    rank_stacked: int


def _exact_rank(rows: list) -> int:
    """Rank over Q of integer rows, by fraction-free elimination on the
    top-degree columns first; each reduced row is divided by its content."""
    rank = 0
    for c in reversed(range(len(rows[0]) if rows else 0)):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rank += 1
        hit = [r for r in rows if r[c] and r is not pivot]
        reduced = [[pivot[c] * x - r[c] * y for x, y in zip(r, pivot)] for r in hit]
        rows = [r for r in rows if not r[c]] + [[x // g for x in r] for r in reduced if (g := math.gcd(*r))]
    return rank


def _integer_rows(matrix: np.ndarray) -> list:
    """Each float row scaled exactly to integers: every float is dyadic."""
    out = []
    for row in matrix.tolist():
        ratios = [v.as_integer_ratio() for v in row]
        den = max(d for _, d in ratios)
        out.append([p * (den // d) for p, d in ratios])
    return out


def spans_equal(a: PolySpan, b: PolySpan, tol: float = 1e-10) -> SpanComparison:
    """True iff the two generator spans coincide: equal ranks that survive
    stacking, computed exactly over Q from the float rows taken as the
    dyadic rationals they are.  ``tol`` is no longer read; it stays for
    callers that pass it."""
    if (a.n, a.m, a.monomials) != (b.n, b.m, b.monomials):
        raise ValueError("spans must share dimension, degree, and monomial order")
    ia, ib = _integer_rows(a.matrix), _integer_rows(b.matrix)
    ra, rb, rs = _exact_rank(ia), _exact_rank(ib), _exact_rank(ia + ib)
    return SpanComparison(ra == rb == rs, ra, rb, rs)


@lru_cache(maxsize=None)
def _laplacian_matrix(n: int, d: int) -> np.ndarray:
    """The Laplacian from degree-d to degree-(d-2) monomials as a read-only
    (dim P_d^hom, dim P_{d-2}^hom) matrix of nonnegative integers, both in
    the order of ``multi_indices``."""
    col = {e: i for i, e in enumerate(multi_indices(n, d - 2))}
    rows = multi_indices(n, d)
    lap = np.zeros((len(rows), len(col)))
    for i, e in enumerate(rows):
        for key, c in _laplacian({e: 1}).items():
            lap[i, col[key]] = c
    lap.flags.writeable = False
    return lap


def _last_nonzero(term: np.ndarray) -> np.ndarray:
    """Per row, the index of its last nonzero column, or -1 for a zero row."""
    nonzero = term[:, ::-1] != 0
    return np.where(nonzero.any(axis=1), term.shape[1] - 1 - nonzero.argmax(axis=1), -1)


def _heat_normal(span: PolySpan):
    """Two pivot keys per row of the degree-m block r_m if every row is an
    integer row equal to e^{-Delta/4} r_m, else None.  That is, the blocks
    at odd degree offsets are 0, and 4^j j! r_{m-2j} = (-1)^j Delta^j r_m.
    All rows go through each Laplacian at once in float64; |r_m| Delta^j
    bounds every partial sum, so below 2^53 each product is exact, and past
    it this raises.  The keys are the last nonzero column of r_m, and the
    pair (K, last nonzero column of Delta^K r_m), K the largest power with
    Delta^K r_m != 0, encoded as K dim + column; -1 marks a zero row."""
    n, m, mat = span.n, span.m, span.matrix
    if np.any(mat % 1):  # also true at inf and nan
        return None
    start = [math.comb(n - 1 + d, n) for d in range(m + 2)]  # first column of each degree
    if any(mat[:, start[d] : start[d + 1]].any() for d in range(m - 1, -1, -2)):
        return None
    term = mat[:, start[m] :]
    size, dim = np.abs(term), term.shape[1]
    first = graded = _last_nonzero(term)
    for j in range(1, m // 2 + 1):
        lap = _laplacian_matrix(n, m - 2 * j + 2)
        size = size @ lap
        if size.max() >= 2**53:
            raise ResourceLimitError("a span generator is beyond 2^53 for the exact heat normal form check")
        term = term @ lap
        block = mat[:, start[m - 2 * j] : start[m - 2 * j + 1]]
        # an integer side at or past 2^53 can round, but not onto one below it
        if not np.array_equal(4**j * math.factorial(j) * block, (-1) ** j * term):
            return None
        cols = _last_nonzero(term)
        graded = np.where(cols >= 0, j * dim + cols, graded)
    return first, graded


def _certify(span: PolySpan, dim: int) -> tuple[bool, int]:
    """Whether the span is in heat normal form, and the rank of its degree-m
    block: read off the pivot keys of ``_heat_normal`` when either set has
    distinct keys and no zero row, else by exact elimination.

    Either test proves the rows independent: in a vanishing combination,
    Delta^{K*} for its largest K* leaves rows with distinct last nonzero
    columns.  The first keys certify Hermite, whose rows are 2^m x^alpha;
    the graded keys certify Laguerre, since Delta^k(|x|^{2k} h) = c h and
    the last monomial x_1^eps q of each h_{eps,q} differs."""
    keys = _heat_normal(span)
    if keys is not None and any((k >= 0).all() and len(set(k.tolist())) == len(k) for k in keys):
        return True, len(span.matrix)
    return keys is not None, _exact_rank(_integer_rows(span.matrix[:, -dim:]))


def heat_certificate(a: PolySpan, b: PolySpan) -> SpanComparison:
    """Exact certificate that both spans are e^{-Delta/4} P_m^hom, hence
    equal: every row of each is in heat normal form, and each degree-m
    block has full rank dim P_m^hom.  The ranks are those of the degree-m
    blocks, which are the spans' ranks in heat normal form; they are read
    off (``_certify``), and only a block that the read-off cannot certify,
    and the stacked blocks below full rank, take an elimination over Q."""
    if (a.n, a.m, a.monomials) != (b.n, b.m, b.monomials):
        raise ValueError("spans must share dimension, degree, and monomial order")
    dim = math.comb(a.n - 1 + a.m, a.n - 1)
    (ha, ra), (hb, rb) = _certify(a, dim), _certify(b, dim)
    rs = dim if ra == rb == dim else _exact_rank(_integer_rows(a.matrix[:, -dim:]) + _integer_rows(b.matrix[:, -dim:]))
    return SpanComparison(ha and hb and ra == rb == rs == dim, ra, rb, rs)


def dimension_identity(n: int, m: int) -> tuple[int, int]:
    """(sum of d_{m-2k} over 0 <= k <= m/2,  dim P_m); both exact integers."""
    lhs = sum(dim_harmonic(n, m - 2 * k) for k in range(m // 2 + 1))
    rhs = math.comb(n - 1 + m, n - 1)
    return lhs, rhs
