"""Reference values the benchmark checks harmcert's outputs against.

Everything here is independent of harmcert's scanning code: plain numpy on
coefficient arrays, stdlib ``math`` for Gamma.

The boundary enclosure uses the Ehlich-Zeller (1964) discrete-norm bound:
for a polynomial p of degree d sampled at N >= d + 1 equispaced points of
the unit circle, max|p| <= sec(pi d / 2N) * max_k |p(w_k)|.  Pointwise
|A| + |B| = max over unimodular zeta of |A + zeta B|, and every A + zeta B
has degree at most d, so the same factor bounds max(|A| + |B|) by the
sampled maximum of |A| + |B|.
"""

from __future__ import annotations

import math

import numpy as np

MEMBER = "Member"
BOUNDARY_SHARP = "BoundarySharp"
NON_MEMBER = "NonMember"

# Absolute slack for Horner rounding at the sample points; far above the
# ~1e-15 relative error of degree <= 256 evaluations of unit-size data.
ROUNDING = 1e-12


def deficiency_coeffs(coeffs) -> np.ndarray:
    """c_n -> (1 - n) c_n, the image of F under F - z F'."""
    c = np.asarray(coeffs, dtype=complex)
    return (1 - np.arange(len(c))) * c


def boundary_enclosure(a_coeffs, b_coeffs=(0,), rel_width: float = 1e-8
                       ) -> tuple[float, float]:
    """[lower, upper] around max over |z| = 1 of |A(z)| + |B(z)|.

    ``lower`` is a sampled value, so the true maximum is at least that;
    ``upper`` is the sampled maximum times the Ehlich-Zeller factor.  The
    sample count is a power of two chosen so the factor is within
    ``rel_width`` of 1.
    """
    a = np.asarray(a_coeffs, dtype=complex)
    b = np.asarray(b_coeffs, dtype=complex)
    d = max(len(a), len(b)) - 1
    if d < 1:
        v = abs(a[0]) + abs(b[0])
        return v - ROUNDING, v + ROUNDING
    half_angle = math.acos(1.0 / (1.0 + rel_width))
    n = 1 << max(10, math.ceil(math.log2(math.pi * d / (2.0 * half_angle))))
    w = np.exp(2j * math.pi * np.arange(n) / n)
    vals = np.abs(np.polyval(a[::-1], w)) + np.abs(np.polyval(b[::-1], w))
    top = float(vals.max())
    factor = 1.0 / math.cos(math.pi * d / (2.0 * n))
    return top - ROUNDING, top * factor + ROUNDING


def allowed_verdicts(lower: float, upper: float, lam: float,
                     band: float = 1e-6) -> set[str]:
    """Verdicts harmcert's bands allow for some supremum in [lower, upper]."""
    out = set()
    if lower < lam - band:
        out.add(MEMBER)
    if upper > lam + band:
        out.add(NON_MEMBER)
    if upper >= lam - band and lower <= lam + band:
        out.add(BOUNDARY_SHARP)
    return out


def gauss_value(a: float, b: float, c: float) -> float:
    """F(a, b; c; 1) by the Gauss closed form, c - a - b > 0: the left-hand
    side of condition 213."""
    return (math.gamma(c) * math.gamma(c - a - b)
            / (math.gamma(c - a) * math.gamma(c - b)))


def gamma_quotient(s: int, c: float) -> float:
    """Gamma(c) Gamma(c + 2s) / Gamma(c + s)^2: the left-hand side of
    condition 216."""
    return math.gamma(c) * math.gamma(c + 2 * s) / math.gamma(c + s) ** 2


def tail_terms(a: float, b: float, c: float, count: int) -> list[float]:
    """t_k = (a)_k (b)_k / (k! (c)_k) for k = 0..count-1, in floats."""
    out = [1.0]
    for k in range(count - 1):
        out.append(out[-1] * (a + k) * (b + k) / ((c + k) * (k + 1)))
    return out


def f4_g_coeffs(a: float, b: float, c: float, eta: complex,
                truncation: int) -> list[complex]:
    """g_0..g_truncation of the integrated Gauss tail, g_n = eta t_{n-2}/(n-1)."""
    t = tail_terms(a, b, c, truncation - 1)
    return [0j, 0j] + [eta * t[n - 2] / (n - 1) for n in range(2, truncation + 1)]


def poly_g_coeffs(kind: str, s: int, c: float, eta: complex) -> list[complex]:
    """g_0.. of p1, p2 or p3 from B_m = C(s, m) (s-m+1)_m / (c)_m."""
    weights = []
    for m in range(s + 1):
        w = float(math.comb(s, m) * math.prod(range(s - m + 1, s + 1)))
        for k in range(m):
            w /= c + k
        weights.append(w)
    if kind == "p2":
        g = [0j] * (s + 2)
        for m in range(1, s + 1):
            g[m + 1] = eta * weights[m]
        return g
    g = [0j] * (s + 3)
    for m in range(s + 1):
        g[m + 2] = eta * (weights[m] / (m + 1) if kind == "p1" else weights[m])
    return g
