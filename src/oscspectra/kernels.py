"""Spectral projection kernel of the oscillator eigenvalue n + 2m, computed
two ways: the direct tensor-Hermite sum over all |alpha| = m, and the polar
zonal-collapsed sum with floor(m/2) + 1 terms.  Their pointwise equality is
the library's central certified identity, and the term-count asymmetry is
exposed as a benchmark.  The direct sum is taken as nested per-axis sums,
without listing multi-indices: O(n m^2) work and O(n m) memory per pair.
From n = 3 on, its per-axis tables are laid out pair-major, and each
truncated convolution fills one output coefficient per call with one
contiguous row dot product per pair, over blocks of pairs small enough to
stay in the L2 cache.  The polar sum takes all its Laguerre and zonal
factors from one recurrence each: O(m) work and memory per pair.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError
from .harmonics import zonal_table
from .quadrature import _TENSOR_CAP, _check_size
from .special_functions import _as_points, hermite_table, laguerre_antidiagonal_table

__all__ = [
    "KernelResult",
    "multi_indices",
    "multi_index_count",
    "phi_direct",
    "phi_polar",
    "phi_direct_values",
    "phi_polar_values",
    "polar_term_count",
    "BenchRecord",
    "kernel_bench",
]

# Bytes per axis of one block of pairs in the direct sum: 2^16 float64
# coefficients, so the running product and the axis convolved into it stay
# in L2 at every m.  Smaller blocks pay Python overhead per call, and one
# block for 1000 pairs at m = 200 spills to L3 and is 1.5 times slower.
_BLOCK_BYTES = 2**19

# Polar summands below e^-700 (about 1e-304) are dropped: np.exp is many
# times slower where its result would be subnormal.
_LOG_DROP = -700.0


class KernelResult(NamedTuple):
    value: float
    terms_evaluated: int
    method: str


def multi_index_count(n: int, m: int) -> int:
    """Number of alpha in N^n with |alpha| = m: C(m+n-1, n-1)."""
    return math.comb(m + n - 1, n - 1)


def multi_indices(n: int, m: int) -> list[tuple[int, ...]]:
    """All multi-indices of length m in n variables, leading entry largest
    first (the order of (2,0), (1,1), (0,2) for n = 2, m = 2)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    _check_size(f"multi-index list (n={n}, m={m})", multi_index_count(n, m), _TENSOR_CAP)
    return list(_gen(n, m))


def _gen(n, m):
    if n == 1:
        yield (m,)
        return
    for head in range(m, -1, -1):
        for tail in _gen(n - 1, m - head):
            yield (head,) + tail


def _check_points(n, m, x, y):
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    x, _ = _as_points(x, n)
    y, _ = _as_points(y, n)
    if x.shape != y.shape:
        raise ValueError("x and y batches must have matching shapes")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("kernel arguments must be finite")
    return x, y


def phi_direct_values(n: int, m: int, x, y) -> np.ndarray:
    """Direct kernel sum_{|alpha|=m} h_alpha(x) h_alpha(y) for point batches
    x, y of shape (npts, n), grouped as the degree-m coefficient of
    prod_d sum_k p_d[k] z^k with p_d[k] = h_k(x_d) h_k(y_d): n - 2 truncated
    convolutions, then a dot product with the reversed last axis.  Every term
    is summed, in O(n m^2) work and O(n m) memory per pair.

    For n >= 3 the tables are copied pair-major into rows[d, pair, k], with
    every axis after the first reversed in k, so coefficient k of a
    convolution is one contiguous row dot per pair, acc[:, :k+1] . q[:, m-k:]
    with q reversed.  The convolutions run on blocks of pairs holding
    _BLOCK_BYTES of coefficients per axis.
    """
    x, y = _check_points(n, m, x, y)
    # two (m+1, npts*n) tables at most: the product goes into the first, and
    # the pair-major copy below replaces it
    p = hermite_table(m, x.ravel())
    p *= hermite_table(m, y.ravel())
    p = p.reshape(m + 1, -1, n)
    if n == 1:
        return p[m, :, 0]
    if n == 2:
        # no convolution: the pair-major copy would cost more than it saves
        return np.einsum("ip,ip->p", p[:, :, 0], p[::-1, :, 1])
    npts = p.shape[1]
    rows = np.empty((n, npts, m + 1))
    rows[0] = p[:, :, 0].T
    rows[1:] = p[::-1, :, 1:].T
    del p
    out = np.empty(npts)
    block = max(1, _BLOCK_BYTES // (rows.itemsize * (m + 1)))
    for lo in range(0, npts, block):
        # acc[:, i] = sum over (a_1..a_d) with a_1 + ... + a_d = i of p_1[a_1]...p_d[a_d]
        acc = rows[0, lo : lo + block]
        for q in rows[1 : n - 1, lo : lo + block]:
            nxt = np.empty_like(acc)
            for k in range(m + 1):
                nxt[:, k] = np.vecdot(acc[:, : k + 1], q[:, m - k :])
            acc = nxt
        out[lo : lo + block] = np.vecdot(acc, rows[n - 1, lo : lo + block])
    return out


def phi_direct(n: int, m: int, x, y) -> KernelResult:
    """Kernel of the projection onto eigenvalue n + 2m by the direct
    Hermite sum; symmetric in (x, y)."""
    vals = phi_direct_values(n, m, x, y)
    return KernelResult(float(vals[0]), multi_index_count(n, m), "direct")


def polar_term_count(m: int) -> int:
    return m // 2 + 1


def _log_polar_norms(kmax: int, a: float) -> np.ndarray:
    """log N_k = log(2 k! / Gamma(a-k+1)) for k = 0..kmax.

    a + 1 is an integer or a half-integer, so both log-Gammas are cumulative
    sums of logs; summed in extended precision (np.longdouble) they round
    correctly, up to 2e-17 from the rounding of pi, where a difference of
    two math.lgamma values near k = kmax, both about log(kmax!), is off by
    up to several hundred ulp.
    """
    ext = np.longdouble
    z0 = (a + 1.0) % 1.0 or 1.0  # a + 1 = z0 + top with z0 in {1/2, 1}
    top = int(a + 1.0 - z0)
    log_gamma = np.concatenate([[ext(0)], np.cumsum(np.log(z0 + np.arange(top, dtype=ext)))])
    if z0 != 1.0:
        log_gamma += np.log(ext(math.pi)) / 2  # Gamma(1/2) = sqrt(pi)
    log_fact = np.concatenate([[ext(0)], np.cumsum(np.log(np.arange(1, kmax + 1, dtype=ext)))])
    k = np.arange(kmax + 1)
    return (np.log(ext(2)) + log_fact - log_gamma[top - k]).astype(float)


def phi_polar_values(n: int, m: int, x, y) -> np.ndarray:
    """Polar kernel sum over k <= floor(m/2) of
    ell_k(r) ell_k(u) (ru)^s Z_s(x'.y'), s = m - 2k, with r = |x|, u = |y|.

    With a = n/2 - 1 + m, the order of the k-th Laguerre factor is a - 2k,
    so each summand is N_k g_k(r^2) g_k(u^2) (ru)^s Z_s(x'.y') with
    N_k = 2 k! / Gamma(a-k+1) and g_k = L_k^{(a-2k)} e^{-x/2}.  One
    anti-diagonal recurrence gives every g_k on both sides and one sweep
    over s gives every Z_s: O(m) work per pair.  The factors are multiplied
    in signed-log space, so neither N_k nor (ru)^s under- or overflows on
    its own.  At r = 0 or u = 0 only the degree-0 summand survives (the
    continuous limit); for n = 1 the zonal rows of degree >= 2 are zero.
    From m of about 1470 on the factors g_k overflow, which raises
    ResourceLimitError.
    """
    x, y = _check_points(n, m, x, y)
    r2 = np.sum(x * x, axis=1)
    u2 = np.sum(y * y, axis=1)
    ru = np.sqrt(r2 * u2)
    t = np.divide(np.sum(x * y, axis=1), ru, out=np.zeros_like(ru), where=ru > 0)
    kmax = m // 2
    a = n / 2.0 - 1.0 + m
    s = np.arange(m, -1, -2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logs = np.multiply.outer(s, np.log(ru))  # log (ru)^s
        logs[s == 0] = 0.0  # (ru)^0 = 1, also at ru = 0
        logs += _log_polar_norms(kmax, a)[:, None]
        z = zonal_table(n, m, t)[m::-2]  # row k holds Z_{m-2k}
        signs = np.sign(z)
        logs += np.log(np.abs(z))
        del z  # the full zonal table goes before the Laguerre table is built
        g = laguerre_antidiagonal_table(kmax, a, np.concatenate([r2, u2]))
        if not np.all(np.isfinite(g)):
            raise ResourceLimitError(f"Laguerre factors overflow at level m={m}")
        for side in (g[:, : len(ru)], g[:, len(ru) :]):
            signs *= np.sign(side)
            logs += np.log(np.abs(side))
    signs *= logs > _LOG_DROP
    np.maximum(logs, _LOG_DROP, out=logs)
    return np.einsum("kp,kp->p", signs, np.exp(logs, out=logs))


def phi_polar(n: int, m: int, x, y) -> KernelResult:
    """Kernel of the projection onto eigenvalue n + 2m by the zonal-collapsed
    polar sum; floor(m/2) + 1 terms regardless of n."""
    vals = phi_polar_values(n, m, x, y)
    return KernelResult(float(vals[0]), polar_term_count(m), "polar")


@dataclass(frozen=True)
class BenchRecord:
    n: int
    m: int
    method: str
    terms: int
    nanos_per_eval: float
    max_rel_diff: float


def kernel_bench(n: int, m: int, trials: int, seed: int = 0) -> list[BenchRecord]:
    """Time both kernel evaluations over seeded random point pairs (one
    warm-up call, then the median of three timed calls per method) and
    report term counts plus the worst relative discrepancy,
    |direct - polar| / (1 + |direct|)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(trials, n))
    y = rng.uniform(-3.0, 3.0, size=(trials, n))
    timings = {}
    values = {}
    for method, fn in (("direct", phi_direct_values), ("polar", phi_polar_values)):
        values[method] = fn(n, m, x, y)  # warm-up, not timed
        runs = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            fn(n, m, x, y)
            runs.append(time.perf_counter_ns() - t0)
        timings[method] = float(np.median(runs)) / trials
    rel = np.abs(values["direct"] - values["polar"]) / (1.0 + np.abs(values["direct"]))
    max_rel = float(rel.max())
    return [
        BenchRecord(n, m, "direct", multi_index_count(n, m), timings["direct"], max_rel),
        BenchRecord(n, m, "polar", polar_term_count(m), timings["polar"], max_rel),
    ]
