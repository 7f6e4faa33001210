"""Independent oracles for the test suite: power-series evaluations,
finite-difference residuals, per-degree spherical harmonics through angles
and the O(m^2) per-term polar kernel, kept deliberately separate from the
recurrence implementations they check.

The series run in exact rational arithmetic (the orders used in the tests
are rational and a float argument is an exact binary rational), so the
oracle carries no cancellation error of its own."""

import math
from fractions import Fraction

import numpy as np

from oscspectra.harmonics import dim_harmonic, zonal


def laguerre_series(k, beta, t):
    """L_k^beta(t) = sum_i (-1)^i C(k+beta, k-i) t^i / i!  (series form)."""
    beta = Fraction(beta)
    t = Fraction(t)
    total = Fraction(0)
    for i in range(k + 1):
        binom = Fraction(1)
        for j in range(1, k - i + 1):
            binom *= (beta + i + j) / j
        total += (-1) ** i * binom * t**i / math.factorial(i)
    return float(total)


def gegenbauer_series(s, lam, t):
    """C_s^lam(t) from the generating-function expansion."""
    lam = Fraction(lam)
    t = Fraction(t)
    total = Fraction(0)
    for i in range(s // 2 + 1):
        coeff = Fraction(1)
        for j in range(s - i):  # Gamma(s-i+lam)/Gamma(lam) = prod of (lam+j)
            coeff *= lam + j
        coeff /= math.factorial(i) * math.factorial(s - 2 * i)
        total += (-1) ** i * coeff * (2 * t) ** (s - 2 * i)
    return float(total)


def hermite_phys(k, x):
    """Physicists' Hermite polynomial H_k by its plain recurrence."""
    prev, cur = 0.0, 1.0
    for j in range(k):
        prev, cur = cur, 2 * x * cur - 2 * j * prev
    return cur


def fd_second(fn, x, h):
    """Fourth-order central second derivative."""
    return (-fn(x + 2 * h) + 16 * fn(x + h) - 30 * fn(x) + 16 * fn(x - h) - fn(x - 2 * h)) / (
        12 * h * h
    )


def fd_first(fn, x, h):
    """Fourth-order central first derivative."""
    return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)


def fd_laplacian(fn, pts, h):
    """Fourth-order Laplacian of fn at an (npts, n) array of points."""
    pts = np.atleast_2d(pts)
    total = np.zeros(len(pts))
    for d in range(pts.shape[1]):
        def along(offset, d=d):
            shifted = pts.copy()
            shifted[:, d] += offset
            return fn(shifted)

        total += (
            -along(2 * h) + 16 * along(h) - 30 * fn(pts) + 16 * along(-h) - along(-2 * h)
        ) / (12 * h * h)
    return total


def phi_polar_per_term(n, m, x, y):
    """Polar kernel by the O(m^2) per-term sum: for each k <= floor(m/2), the
    normalized Laguerre recurrence of order n/2 - 1 + s run from degree 0,
    times (ru)^s and the zonal value Z_s, s = m - 2k.

    The sum runs in long double (x86-64 extended precision), whose range
    holds every factor at the levels and radii of the tests, so it needs no
    log space; at (n, m) = (3, 600) on [-3, 3]^3 it stays within 9e-15 of
    the direct sum, where the same sum in float64 and signed logs is off by
    up to 1.9e-13 (rows with y = x).  t = x'.y' is formed in float64 as
    x.y / sqrt(|x|^2 |y|^2), as in phi_polar_values: near t = +-1, Z_s moves
    by about s^2 eps per rounding of t, so both sums must take t the same
    way for the comparison to measure their radial factors."""
    ext = np.longdouble
    x = np.asarray(x, dtype=float).reshape(-1, n)
    y = np.asarray(y, dtype=float).reshape(-1, n)
    r2 = np.sum(x * x, axis=1)
    u2 = np.sum(y * y, axis=1)
    ru = np.sqrt(r2 * u2)
    t = np.divide(np.sum(x * y, axis=1), ru, out=np.zeros_like(ru), where=ru > 0)
    sq = np.concatenate([r2, u2]).astype(ext)
    ru_ext = np.sqrt(sq[: len(ru)] * sq[len(ru) :])
    total = np.zeros(len(ru), dtype=ext)
    for k in range(m // 2 + 1):
        s = m - 2 * k
        if not dim_harmonic(n, s):
            continue
        beta = ext(n) / 2 - 1 + s
        # Gamma(beta + 1) as a product down to Gamma(1) or Gamma(1/2)
        gamma = np.prod(beta - np.arange(int(beta + (n % 2) / 2), dtype=ext))
        if n % 2:
            gamma *= np.sqrt(ext(math.pi))
        prev = np.zeros_like(sq)
        cur = np.sqrt(2 / gamma) * np.exp(-sq / 2)
        for j in range(k):
            nxt = ((2 * j + beta + 1 - sq) * cur - np.sqrt(j * (j + beta)) * prev) / np.sqrt(
                (j + 1) * (j + 1 + beta)
            )
            prev, cur = cur, nxt
        total += cur[: len(ru)] * cur[len(ru) :] * ru_ext**s * np.asarray(zonal(n, s, t), dtype=ext)
    return total.astype(float)


def legendre_assoc_normalized(s, z, sin_theta):
    """Fully normalized associated Legendre values Pbar_s^m(z) for m = 0..s
    (no Condon-Shortley sign), shape (s+1, npts): for each order m the
    diagonal seed, then the three-term recurrence in the degree."""
    out = np.empty((s + 1, len(z)))
    pmm = np.full(len(z), math.sqrt(1.0 / (4.0 * math.pi)))
    for m in range(s + 1):
        if m > 0:
            pmm = pmm * math.sqrt((2 * m + 1.0) / (2 * m)) * sin_theta
        if m == s:
            out[m] = pmm
            continue
        prev = pmm
        cur = math.sqrt(2 * m + 3.0) * z * pmm
        for ell in range(m + 2, s + 1):
            a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = math.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            prev, cur = cur, a * (z * cur - b * prev)
        out[m] = cur
    return out


def solid_harmonic_rows(n, s, points):
    """The degree-s rows |x|^s Y_{s,j}(x') of sph_basis order, n <= 3, one
    degree at a time through the angles: unit vectors, arctan2, cos and sin
    of m phi, and the per-degree Legendre sweep, times |x|^s.  The origin
    takes the value at the pole e_1 times 0^s."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    unit = np.zeros_like(pts)
    unit[:, 0] = 1.0
    unit[r > 0] = pts[r > 0] / r[r > 0, None]
    if n == 1:
        rows = np.full((1, len(pts)), 2**-0.5) if s == 0 else unit.T / math.sqrt(2.0)
    elif n == 2:
        theta = np.arctan2(unit[:, 1], unit[:, 0])
        if s == 0:
            rows = np.full((1, len(pts)), 1.0 / math.sqrt(2.0 * math.pi))
        else:
            rows = np.vstack([np.cos(s * theta), np.sin(s * theta)]) / math.sqrt(math.pi)
    else:
        z = np.clip(unit[:, 2], -1.0, 1.0)
        phi = np.arctan2(unit[:, 1], unit[:, 0])
        pbar = legendre_assoc_normalized(s, z, np.hypot(unit[:, 0], unit[:, 1]))
        rows = [pbar[0]]
        for m in range(1, s + 1):
            rows.append(math.sqrt(2.0) * pbar[m] * np.cos(m * phi))
            rows.append(math.sqrt(2.0) * pbar[m] * np.sin(m * phi))
        rows = np.vstack(rows)
    return rows * r**s
