"""Stable evaluation of the classical families behind both oscillator
eigenbases: Laguerre polynomials and functions, orthonormal Hermite
functions, and Gegenbauer polynomials.

All evaluators are pure, vectorized over the argument, and run their
three-term recurrences on the normalized functions directly, so no bare
polynomial value or Gamma ratio is ever formed; this keeps k up to a few
hundred inside double-precision range.  One generator runs the orthonormal
Hermite, Laguerre and Gegenbauer families, for these tables and for the
Gauss rules of ``quadrature``; the Gegenbauer family, with Chebyshev and
Legendre as its lam = 0 and lam = 1/2 cases, also drives the harmonic chain
and the zonal harmonics of ``harmonics``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "laguerre_poly",
    "laguerre_fn",
    "laguerre_fn_table",
    "laguerre_antidiagonal_table",
    "hermite_fn",
    "hermite_table",
    "hermite_fn_multi",
    "gegenbauer_table",
    "gegenbauer",
]


def check_laguerre_order(beta: float) -> float:
    """Validate a Laguerre order; the family requires beta > -1."""
    beta = float(beta)
    if not beta > -1.0:
        raise ValueError(f"Laguerre order must satisfy beta > -1, got {beta}")
    return beta


def _check_degree(k: int) -> int:
    if int(k) != k or k < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {k}")
    return int(k)


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _as_points(points, n: int):
    """points as a float (npts, n) array, and whether they were one point of
    length n; any other dimension raises DimensionMismatchError."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim > 2:
        raise DimensionMismatchError(f"points have shape {pts.shape}, expected (npts, {n})")
    if pts.shape[1] != n:
        raise DimensionMismatchError(f"points have dimension {pts.shape[1]}, expected {n}")
    return pts, single


def _hermite_family(kmax: int):
    """Hermite functions h_k, w = e^{-x^2} on the line."""
    b = [math.sqrt(k / 2.0) for k in range(1, kmax + 1)]
    return [0.0] * kmax, b, lambda x: math.pi**-0.25 * np.exp(-0.5 * x * x)


def _laguerre_family(kmax: int, beta: float):
    """Laguerre functions in t = r^2, w = t^beta e^{-t} on (0, inf), beta > -1.
    psi_0 is seeded through log-Gamma, and its factor 2 absorbs the Jacobian
    dt = 2 r dr, so the rows are orthonormal in L2((0,inf), r^{2 beta+1} dr)."""
    beta, ks = check_laguerre_order(beta), range(1, kmax + 1)
    log_c0 = 0.5 * (math.log(2.0) - math.lgamma(beta + 1.0))
    a, b = [2 * k - 1 + beta for k in ks], [math.sqrt(k * (k + beta)) for k in ks]
    return a, b, lambda t: np.exp(log_c0 - 0.5 * t)


def _gegenbauer_b(k, lam):
    """b_k of the orthonormal Gegenbauer family of parameter lam, elementwise
    over arrays of k and lam (the harmonic chain takes one lam per row).  At
    lam = 0 the formula gives b_1 = 0/0; its limit, Chebyshev's 1/sqrt(2),
    takes that place."""
    with np.errstate(invalid="ignore"):
        b = np.sqrt(k * (k + 2 * lam - 1)) / np.sqrt(4 * (k + lam) * (k + lam - 1))
    return np.where((k == 1) & (lam == 0), math.sqrt(0.5), b)


def _gegenbauer_p0(lam: float) -> float:
    """p_0 = (integral of (1-t^2)^{lam-1/2} over [-1, 1])^{-1/2}, the
    integral being sqrt(pi) Gamma(lam+1/2) / Gamma(lam+1).  lam is taken
    down to [0, 1] by Gamma(x+1) = x Gamma(x), since a difference of
    log-Gammas would cancel to about 1e-14 relative from lam of 40 on."""
    base = lam - max(math.ceil(lam), 1) + 1.0
    ratio = math.prod((base + x) / (base + x - 0.5) for x in range(1, math.ceil(lam)))
    return math.sqrt(ratio * math.gamma(base + 1.0) / (math.sqrt(math.pi) * math.gamma(base + 0.5)))


def _gegenbauer_family(kmax: int, lam: float):
    """Orthonormal Gegenbauer polynomials p_k, w = (1-t^2)^{lam-1/2} on
    [-1, 1], lam >= 0; Chebyshev is lam = 0 and Legendre lam = 1/2.  The
    rows are the polynomials themselves (psi_k = p_k), so a Gauss rule of
    this family keeps the weight function in its weights."""
    b = _gegenbauer_b(np.arange(1.0, kmax + 1), lam).tolist()
    return [0.0] * kmax, b, lambda x, p0=_gegenbauer_p0(lam): np.full_like(x, p0)


def _orthonormal_rows(x, a, b, psi0, out=None):
    """Yield psi_0(x), .., psi_{len(a)}(x) of an orthonormal family by
    b_{k+1} psi_{k+1} = (x - a_k) psi_k - b_k psi_{k-1}, holding two rows.

    A family (a, b, psi0) above gives, for rows up to kmax, the lists
    (a_0, .., a_{kmax-1}) and (b_1, .., b_kmax), which are also the Jacobi
    matrix of its Gauss rule.  psi_k = sqrt(w) p_k for the orthonormal
    polynomials p_k of the weight w, so their recurrence carries over, and
    the functions stay bounded where the weight is tiny.  Each row is formed
    in place: in out[k] when a table ``out`` is given, else in a new array.
    """
    prev, cur, b_prev = 0.0, psi0(x), 0.0
    if out is not None:
        out[0] = cur
    yield cur
    for k, (ak, bk) in enumerate(zip(a, b), 1):
        nxt = np.subtract(x, ak, out=None if out is None else out[k, ...])
        nxt *= cur
        nxt -= b_prev * prev
        nxt /= bk
        prev, cur, b_prev = cur, nxt, bk
        yield cur


def _orthonormal_table(x, a, b, psi0) -> np.ndarray:
    """The rows psi_0(x), .., psi_{len(a)}(x) in one (len(a)+1,) + x.shape array."""
    out = np.empty((len(a) + 1,) + x.shape)
    for _ in _orthonormal_rows(x, a, b, psi0, out):
        pass
    return out


def laguerre_poly(k: int, beta: float, t):
    """Laguerre polynomial L_k^beta(t), normalized so L_k^beta(0) = C(k+beta, k).

    Uses the forward recurrence
        (k+1) L_{k+1} = (2k+beta+1-t) L_k - (k+beta) L_{k-1},
    which is stable on t >= 0 where all quadrature nodes live.
    """
    k = _check_degree(k)
    beta = check_laguerre_order(beta)
    t, scalar = _as_float_array(t)
    if np.any(t < 0):
        raise ValueError("laguerre_poly requires t >= 0")
    prev = np.zeros_like(t)
    cur = np.ones_like(t)
    for j in range(k):
        prev, cur = cur, ((2 * j + beta + 1 - t) * cur - (j + beta) * prev) / (j + 1)
    return float(cur) if scalar else cur


def laguerre_fn_table(kmax: int, beta: float, r) -> np.ndarray:
    """Values ell_k^beta(r) for k = 0..kmax, shape (kmax+1,) + r.shape.

    ell_k^beta(r) = sqrt(2 k! / Gamma(k+beta+1)) L_k^beta(r^2) exp(-r^2/2),
    orthonormal in L2((0,inf), r^{2 beta + 1} dr): (-1)^k times the rows of
    the Laguerre family at t = r^2 (its polynomials lead with sign +1,
    L_k^beta with (-1)^k), which the recurrence gives with every b_k negated.
    """
    kmax = _check_degree(kmax)
    r, _ = _as_float_array(r)
    if np.any(r < 0):
        raise ValueError("laguerre_fn is defined for r >= 0")
    a, b, psi0 = _laguerre_family(kmax, beta)
    return _orthonormal_table(r * r, a, [-v for v in b], psi0)


def laguerre_fn(k: int, beta: float, r):
    """Laguerre function ell_k^beta(r); r = 0 is the continuous extension."""
    r, scalar = _as_float_array(r)
    val = laguerre_fn_table(k, beta, r)[k]
    return float(val) if scalar else val


def laguerre_antidiagonal_table(kmax: int, a: float, x) -> np.ndarray:
    """Values g_k(x) = L_k^{(a-2k)}(x) exp(-x/2) for k = 0..kmax, shape
    (kmax+1,) + x.shape: Laguerre functions along an anti-diagonal of
    (degree, order).  The k-th summand of the polar kernel at level m carries
    L_k^{(n/2-1+s)} with s = m - 2k, that is a = n/2 - 1 + m.

    One forward recurrence gives all of them,
        g_0 = e^{-x/2},  g_1 = (a - 1 - x) e^{-x/2},
        g_{k+1} = (a_k + b_k x) g_k + c_k x^2 g_{k-1},
    with alpha = a - 2k and D = (k+1)(k+alpha):
        a_k = alpha (alpha-1) / D,
        b_k = -alpha (a+1) / ((alpha+1) D),
        c_k = (1-alpha) / ((alpha+1) D).
    The factor e^{-x/2} keeps every value below C(a-k, k) in size (Szegő's
    bound for orders >= 0), where the bare polynomials overflow near
    x = 2m at levels m of several hundred.

    Derivation from the contiguous relations of DLMF section 18.9,
        (i)   L_n^{(b)} = L_n^{(b+1)} - L_{n-1}^{(b+1)},
        (ii)  x L_n^{(b+1)} = (n+b+1) L_n^{(b)} - (n+1) L_{n+1}^{(b)},
        (iii) x d/dx L_n^{(b)} = n L_n^{(b)} - (n+b) L_{n-1}^{(b)},
              d/dx L_n^{(b)} = -L_{n-1}^{(b+1)}.
    Write u = L_k^{(alpha)} and v = L_{k-1}^{(alpha+1)}.  By (i),
    L_k^{(alpha+1)} = u + v, so (ii) at n = k-1, b = alpha+1 gives
        x L_{k-1}^{(alpha+2)} = (alpha+1) v - k u.
    (iii) gives L_{k-1}^{(alpha)} = (k u + x v)/(k+alpha); then (i) gives
    L_k^{(alpha-1)} = (alpha u - x v)/(k+alpha), (ii) at b = alpha-1 gives
    L_{k+1}^{(alpha-1)} = ((k+alpha) L_k^{(alpha-1)} - x u)/(k+1), and (i)
    once more gives
        L_{k+1}^{(alpha-2)} = L_{k+1}^{(alpha-1)} - L_k^{(alpha-1)}
                            = ((alpha (alpha-1) - (k+alpha) x) u + (1-alpha) x v) / D.
    Eliminating v with the first identity yields a_k, b_k and c_k.  For the
    kernel's range, 2k + 2 <= m, every factor of the denominators is positive:
    k + alpha = a - k > 0 and alpha + 1 > 0.
    """
    kmax = _check_degree(kmax)
    a = float(a)
    x, _ = _as_float_array(x)
    out = np.empty((kmax + 1,) + x.shape, dtype=float)
    out[0] = np.exp(-0.5 * x)
    if kmax >= 1:
        out[1] = (a - 1.0 - x) * out[0]
    x2 = x * x
    for k in range(1, kmax):
        alpha = a - 2 * k
        d = (k + 1) * (k + alpha)
        out[k + 1] = ((alpha * (alpha - 1) - alpha * (a + 1) / (alpha + 1) * x) * out[k]
                      + (1 - alpha) / (alpha + 1) * x2 * out[k - 1]) / d
    return out


def hermite_table(kmax: int, x) -> np.ndarray:
    """Orthonormal Hermite-function values h_k(x), k = 0..kmax.

    h_k(x) = (2^k k! sqrt(pi))^{-1/2} H_k(x) exp(-x^2/2) with physicists'
    H_k: the rows of the Hermite family.
    """
    kmax = _check_degree(kmax)
    x, _ = _as_float_array(x)
    return _orthonormal_table(x, *_hermite_family(kmax))


def hermite_fn(k: int, x):
    """Orthonormal Hermite function h_k(x) on the line, storing no lower row."""
    k = _check_degree(k)
    x, scalar = _as_float_array(x)
    for val in _orthonormal_rows(x, *_hermite_family(k)):
        pass
    return float(val) if scalar else val


def hermite_fn_multi(alpha, x):
    """Tensor Hermite function: the product of h_{alpha_i}(x_i) over axes.

    x may be a single point of length n or an array of shape (npts, n).
    Each axis keeps one row of its recurrence, so memory is O(npts).
    """
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be nonnegative, got {alpha}")
    pts, single = _as_points(x, len(alpha))
    vals = np.ones(len(pts))
    for d, a in enumerate(alpha):
        vals = vals * hermite_fn(a, pts[:, d])
    return float(vals[0]) if single else vals


def gegenbauer_table(smax: int, lam: float, t) -> np.ndarray:
    """Gegenbauer values C_s^lam(t) for s = 0..smax, shape (smax+1,) + t.shape,
    in the generating-function normalization (C_0 = 1, C_1 = 2 lam t): the
    rows p_s / p_0 of the Gegenbauer family times sqrt(h_s / h_0), where
    h_s = pi 2^{1-2 lam} Gamma(s+2 lam) / (s! (s+lam) Gamma(lam)^2) is the
    squared norm of C_s, so h_s / h_0 = (2 lam)_s / s! * lam / (s+lam).
    """
    smax = _check_degree(smax)
    lam = float(lam)
    if not lam > 0:
        raise ValueError(f"Gegenbauer parameter must be positive, got {lam}")
    t, _ = _as_float_array(t)
    if np.any(np.abs(t) > 1 + 1e-12):
        raise ValueError("gegenbauer argument must lie in [-1, 1]")
    a, b, _ = _gegenbauer_family(smax, lam)
    out = _orthonormal_table(t, a, b, np.ones_like)
    s = np.arange(1.0, smax + 1)
    ratio = np.concatenate([[1.0], np.cumprod((s + 2 * lam - 1) / s) * lam / (s + lam)])
    out *= np.sqrt(ratio).reshape((-1,) + (1,) * t.ndim)
    return out


def gegenbauer(s: int, lam: float, t):
    """Gegenbauer polynomial C_s^lam(t), the last row of gegenbauer_table."""
    t, scalar = _as_float_array(t)
    val = gegenbauer_table(s, lam, t)[s]
    return float(val) if scalar else val
