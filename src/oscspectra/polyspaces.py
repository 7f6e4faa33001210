"""Exact verification that the degree-m Hermite-product span and the
Laguerre-times-solid-harmonic span coincide as polynomial spaces, on
integer monomial-coefficient matrices, with no threshold; plus the
dimension bookkeeping d_m + d_{m-2} + ... = dim P_m.

The solid harmonics are built exactly by the Gelfand-Tsetlin chain that
``harmonics.sph_table`` evaluates: each is an integer row over the
monomials, a positive multiple of sph_table's row of the same index.  Every
polynomial is such a float64 row, exact below 2^53, and a step whose bound
reaches 2^53 is refused before it is computed.

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
from itertools import islice, product

import numpy as np

from ._tables import write_table
from .errors import ResourceLimitError
from .harmonics import _basis_row, dim_harmonic
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


def _check_exact(bound, what: str) -> None:
    """Refuse float64 integer arithmetic whose bound on every partial sum,
    formed from absolute values before anything is computed, reaches 2^53:
    below it every sum and product of integers is exact."""
    if bound >= 2**53:
        raise ResourceLimitError(f"{what} has an integer coefficient beyond 2^53")


@lru_cache(maxsize=None)
def _columns(n: int, d: int, axis: int, step: int) -> np.ndarray:
    """For each degree-d monomial in n variables, in the order of
    ``multi_indices``, the column of that monomial times x_axis^step among
    the degree-(d + step) monomials; axis = n, step = 0 lifts it into
    n + 1 variables."""
    to = {e: i for i, e in enumerate(multi_indices(max(n, axis + 1), d + step))}
    lifted = (e + (0,) * (axis + 1 - n) for e in multi_indices(n, d))
    return np.array([to[e[:axis] + (e[axis] + step,) + e[axis + 1 :]] for e in lifted])


def _times(rows: np.ndarray, n: int, d: int, axis: int, step: int = 1) -> np.ndarray:
    """Rows over the degree-d monomials times x_axis^step (``_columns``)."""
    out = np.zeros((len(rows), multi_index_count(max(n, axis + 1), d + step)))
    if len(rows):
        out[:, _columns(n, d, axis, step)] = rows
    return out


def _harmonic_sweep(n: int, s_max: int):
    """The exact counterpart of ``harmonics._sweep``: yields (s, rows) for
    every s <= s_max with d_s > 0, rows the integer coefficients over
    ``multi_indices(n, s)`` of ``sph_table``'s degree-s rows, each times a
    positive factor, in the same order: 1 and x_1 at n = 1, Re and Im of
    (x_1 + i x_2)^s at n = 2, and above that R_j(x) h(x') over the rows h of
    degree l = s - j one dimension down, with R_j = j! |x|^j C_j^lam(x_n/|x|)
    and 2 lam = 2l + n - 2, by R_{j+1} = (2j + 2 lam) x_n R_j -
    j(j + 2 lam - 1) |x|^2 R_{j-1}.  New rows enter last, as in ``_chain``."""
    if n == 1:
        yield from ((s, np.ones((1, 1))) for s in range(min(s_max, 1) + 1))
        return
    if n == 2:
        # sph_table's rotation step in closed form: x_1^{s-k} x_2^k has the
        # coefficient C(s, k) i^k in (x_1 + i x_2)^s
        for s in range(s_max + 1):
            _check_exact(math.comb(s, s // 2), "a solid harmonic")
            c = np.array([math.comb(s, k) for k in range(s + 1)]) * np.array([1, 1j, -1, -1j])[np.arange(s + 1) % 4]
            yield s, np.array([c.real, c.imag])[: min(s + 1, 2)]
        return
    older = prev = np.zeros((0, 0))
    for s, rows in _harmonic_sweep(n - 1, s_max):
        # a = 2j + 2 lam is 2s + n - 4 on every row of degree s - 1; the
        # |x|^2 term, b = j(j + 2 lam - 1), reads the rows of degree s - 2,
        # those of l <= s - 2, where j >= 1
        a = 2 * s + n - 4
        ell = np.repeat(np.arange(s - 1), [dim_harmonic(n - 1, l) for l in range(s - 1)])
        b = ((s - 1 - ell) * (s + ell + n - 4))[:, None]
        _check_exact(a * np.abs(prev).max(initial=0) + n * (b * np.abs(older)).max(initial=0), "a solid harmonic")
        cur = np.concatenate((a * _times(prev, n, s - 1, n - 1), _times(rows, n - 1, s, n - 1, 0)))
        cur[: len(older)] -= b * sum(_times(older, n, s - 2, axis, 2) for axis in range(n))
        older, prev = prev, cur
        yield s, cur


def solid_harmonic_poly(n: int, s: int, j: int) -> tuple:
    """The j-th (1-based) exact degree-s solid harmonic: row j of
    ``sph_table`` times a positive factor, as (exponent, int) pairs over the
    monomials of degree s, exponents descending; j outside 1..d_s raises
    as ``harmonics.solid_harmonic`` does."""
    index = _basis_row(n, s, j)
    row = dict(_harmonic_sweep(n, s))[s][index]
    return tuple((e, int(c)) for e, c in zip(multi_indices(n, s), row) if c)


@lru_cache(maxsize=None)
def laguerre_harmonic_span(n: int, m: int) -> PolySpan:
    """Span of L_k^{n/2-1+(m-2k)}(|x|^2) h_{m-2k,j}(x) over k <= m/2 and j,
    with h_{s,j} the exact harmonics of ``solid_harmonic_poly``, so j is the
    row of ``sph_basis(n, s)``; each generator is its primitive integer
    row, and the matrix is read-only."""
    _check_caps(n, m)
    monos = monomials(n, m)
    start = [math.comb(n - 1 + d, n) for d in range(m + 2)]  # first column of each degree
    # sum over k of d_{m-2k} is dim P_m^hom; k ascends down the rows, so the
    # sweep's ascending degrees fill them from the last up
    matrix = np.zeros((multi_index_count(n, m), len(monos)))
    end, labels = len(matrix), []
    for s, h in islice(_harmonic_sweep(n, m), m % 2, None, 2):  # n = 1 stops at s = 1
        k, beta = (m - s) // 2, Fraction(n, 2) - 1 + s
        lag = _laguerre_coeffs_frac(k, beta)
        den = math.lcm(*(c.denominator for c in lag))
        coeffs = [int(c * den) for c in lag]
        # |x|^{2i} h has entries at most n^i max|h|
        _check_exact(max(abs(c) * n**i for i, c in enumerate(coeffs)) * np.abs(h).max(), "a span generator")
        rows = matrix[end - len(h) : end]
        for i, c in enumerate(coeffs):
            if i:
                h = sum(_times(h, n, s + 2 * i - 2, axis, 2) for axis in range(n))
            rows[:, start[s + 2 * i] : start[s + 2 * i + 1]] = c * h
        # the primitive rows: each quotient is an integer, so exact
        rows /= np.gcd.reduce(rows[:, start[s] :].astype(np.int64), axis=1)[:, None]
        end -= len(h)
        labels[:0] = (f"L{k}^[{beta}]*h_{s}_{j}" for j in range(1, len(h) + 1))
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


def _check_pair(a: PolySpan, b: PolySpan) -> None:
    """Refuse two spans that differ in n, m or monomials, or a span with a
    coefficient that is inf or NaN, naming its generator."""
    if (a.n, a.m, a.monomials) != (b.n, b.m, b.monomials):
        raise ValueError("spans must share dimension, degree, and monomial order")
    bad = [span.labels[i] for span in (a, b) for i in np.flatnonzero(~np.isfinite(span.matrix).all(axis=1))]
    if bad:
        raise ValueError(f"span generator {bad[0]} has a non-finite coefficient")


def spans_equal(a: PolySpan, b: PolySpan, tol: float = 1e-10) -> SpanComparison:
    """True iff the two generator spans coincide: equal ranks that survive
    stacking, computed exactly over Q from the float rows taken as the
    dyadic rationals they are.  ``tol`` is no longer read; it stays for
    callers that pass it."""
    _check_pair(a, b)
    ia, ib = _integer_rows(a.matrix), _integer_rows(b.matrix)
    ra, rb, rs = _exact_rank(ia), _exact_rank(ib), _exact_rank(ia + ib)
    return SpanComparison(ra == rb == rs, ra, rb, rs)


@lru_cache(maxsize=None)
def _laplacian_matrix(n: int, d: int) -> np.ndarray:
    """The Laplacian from degree-d to degree-(d-2) monomials as a read-only
    (dim P_d^hom, dim P_{d-2}^hom) matrix of nonnegative integers, both in
    the order of ``multi_indices``."""
    lower = np.array(multi_indices(n, d - 2))
    lap = np.zeros((multi_index_count(n, d), len(lower)))
    for axis, p in enumerate(lower.T):
        lap[_columns(n, d - 2, axis, 2), np.arange(len(lower))] = (p + 2) * (p + 1)
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
    if np.any(mat % 1):
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
        _check_exact(size.max(), "a span generator's Laplacian")
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
    the last nonzero column of each chain row h differs: in lex order the
    last monomial of a product is the product of the last ones, that of
    R_j is x_n^j, and at n = 2 those of Re and Im are x_1^eps x_2^{s-eps}
    with different eps, so row R_j h ends in x_1^eps x_2^{a_2} .. x_n^{a_n},
    and the chain indices fix those exponents."""
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
    _check_pair(a, b)
    dim = math.comb(a.n - 1 + a.m, a.n - 1)
    (ha, ra), (hb, rb) = _certify(a, dim), _certify(b, dim)
    rs = dim if ra == rb == dim else _exact_rank(_integer_rows(a.matrix[:, -dim:]) + _integer_rows(b.matrix[:, -dim:]))
    return SpanComparison(ha and hb and ra == rb == rs == dim, ra, rb, rs)


def dimension_identity(n: int, m: int) -> tuple[int, int]:
    """(sum of d_{m-2k} over 0 <= k <= m/2,  dim P_m); both exact integers."""
    lhs = sum(dim_harmonic(n, m - 2 * k) for k in range(m // 2 + 1))
    rhs = math.comb(n - 1 + m, n - 1)
    return lhs, rhs
