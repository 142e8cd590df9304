"""Truncated complex power series and the coefficient algebra built on them.

A series is a finite coefficient vector c_0..c_N read as sum c_n z^n on the
closed unit disk.  Everything downstream is a low-degree polynomial or an
aggressively truncated series, so storage is dense and every operation is
O(N).  Values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

from ._lazy import np
from .errors import ParameterError

COEFF_TOL = 1e-12


@dataclass(frozen=True)
class AnalyticSeries:
    """Immutable truncated power series sum c_n z^n.

    Trailing zero coefficients are stripped on construction, so ``degree``
    is always the index of the last stored coefficient.  The zero series is
    stored as the single coefficient (0,).  Non-finite coefficients are
    rejected, so no downstream scan ever sees NaN or infinity, and so are
    finite ones whose modulus overflows a double: by Cauchy's estimate
    |c_n| <= max |F| on the unit circle, such a series' circle maximum
    overflows too.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        try:
            finite = all(map(math.isfinite, map(abs, cs)))
        except OverflowError:
            finite = False
        if not finite:
            n, c = next((n, c) for n, c in enumerate(cs)
                        if not math.isfinite(math.hypot(c.real, c.imag)))
            what = ("coefficient moduli" if cmath.isfinite(c)
                    else "coefficients")
            raise ParameterError(
                f"{what} must be finite, got {c!r} at index {n}"
            )
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            cs = (0j,)
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> complex:
        return self.coeffs[n] if 0 <= n <= self.degree else 0j

    def is_normalized(self) -> bool:
        """True when c_0 = 0 exactly and c_1 = 1 within COEFF_TOL: a zero
        off the origin, however near, would leave the starlike ring test
        a zero it counts as the origin's."""
        return self.coeff(0) == 0 and abs(self.coeff(1) - 1.0) <= COEFF_TOL


ZERO = AnalyticSeries((0j,))


@functools.lru_cache(maxsize=1024)
def scan_angles(degree: int) -> int:
    """Angle count of every circle scan: the least integer at least
    max(256, 64 degree) whose prime factors are all at most 11.

    Boundary suprema, the zeta sweep, the radius rings and the curve's
    Lipschitz scan all take their grid from here; no caller chooses
    another count.  pocketfft, numpy's FFT, has radix-2, 3, 4, 5, 7 and 11
    passes; at a length with a larger prime factor, such as 64 * 127 or
    64 * 257, it falls back to a slower transform, and a membership call
    took 1.5-3.8 times as long from degree 127 to 4093.  The next
    11-smooth length lies at most 1.41 % above the floor for every degree
    up to 4096.  Each candidate is an odd 11-smooth p times the least
    power of two that lifts it to the floor, the rule of
    scipy.fft.next_fast_len.  The count is cached per degree, for the
    last 1024 degrees, so the short scans of low-degree maps pay nothing
    for the rule.
    """
    floor = max(256, 64 * int(degree))
    # Every odd 11-smooth p below 2 floor: a larger one cannot beat the
    # power of two at or above the floor, p = 1.
    odd = [1]
    for q in (3, 5, 7, 11):
        for p in list(odd):
            p *= q
            while p < 2 * floor:
                odd.append(p)
                p *= q
    return min(p << (-(-floor // p) - 1).bit_length() for p in odd)


def eval_series(coeffs: Sequence[complex], z: complex) -> complex:
    """Horner evaluation at a point of the series whose coefficients, from
    c_0 up, are ``coeffs`` (an AnalyticSeries' ``coeffs``, or scaled ones);
    exact for polynomials."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def coefficient_columns(*series: AnalyticSeries) -> np.ndarray:
    """The coefficients of each series as one column, zero-padded to the
    longest: a 2-D input of circle_values, one transform for all."""
    cols = np.zeros((max(len(F.coeffs) for F in series), len(series)),
                    dtype=complex)
    for j, F in enumerate(series):
        cols[:len(F.coeffs), j] = F.coeffs
    return cols


def circle_values(coeffs, n: int) -> np.ndarray:
    """Values of sum c_k z^k at z = e^{2 pi i j / n}, j = 0..n-1.

    One inverse FFT of the coefficients, unnormalized
    (``norm="forward"``), so O(n log n) against Horner's O(n d).  An N-D
    ``coeffs`` is transformed along its first axis, once per column: its
    axes are reversed and copied, so that each column is one contiguous
    row (pocketfft's strided path is slower), and the values come back as
    a view with the axes reversed again, angles first.  With more
    coefficients than points, the coefficients of equal index modulo n
    are summed first: the n-th roots of unity repeat with period n.  A
    ring of radius r is the circle of the coefficients c_k r^k, which the
    callers scale themselves.
    """
    c = np.asarray(coeffs, dtype=complex)
    if len(c) > n:
        c = np.concatenate([c, np.zeros((-len(c) % n,) + c.shape[1:])])
        c = c.reshape((-1, n) + c.shape[1:]).sum(axis=0)
    return np.fft.ifft(np.ascontiguousarray(c.T), n, norm="forward").T


def circle_values_error(n: int) -> float:
    """eps = 8 u ceil(log2 n) sqrt(n), u = 2^-53: each value circle_values
    returns on n angles is off by at most eps times the sum of the moduli
    of its coefficients.

    A transform's 2-norm error is at most about 8 u log2(n) of its
    output's (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 24, taken with ceil(log2 n) for mixed radices), and that output's
    2-norm is at most sqrt(n) times the coefficient sum.
    """
    return 8.0 * 2.0 ** -53 * math.ceil(math.log2(n)) * math.sqrt(n)


def ldexp_or_inf(x: float, e: int) -> float:
    """x 2^e, as math.ldexp, but an infinity of the sign of x where that
    passes the double range and math.ldexp raises OverflowError: a
    maximum, length, gap or excess measured on values scaled by 2^-e,
    read back."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _derived(cs: tuple[complex, ...]) -> AnalyticSeries:
    """AnalyticSeries(cs) for coefficients derived from checked ones.

    The derived series (derivative, deficiency, hadamard and the Euler
    image) multiply coefficients that the validating constructor already
    made Python complex numbers with finite moduli, so ``cs`` needs no
    ``complex()`` and, when the sum of its moduli is finite, no
    per-coefficient check: the trailing zeros are stripped and the series
    built as is.  When that sum is not finite, a product overflowed (or
    many large moduli add up past the double range): ParameterError names
    the first derived coefficient whose modulus passes the double range,
    at its index, and finite ones whose sum alone overflows are accepted.
    The validating constructor's "must be finite" would misdescribe the
    input, which is finite.
    """
    try:
        checked = math.isfinite(sum(map(abs, cs)))
    except OverflowError:
        checked = False
    if not checked:
        for n, c in enumerate(cs):
            if not math.isfinite(math.hypot(c.real, c.imag)):
                raise ParameterError(
                    f"derived coefficient {c!r} at index {n} passes the "
                    "double range")
        return AnalyticSeries(cs)
    n = len(cs)
    while n > 1 and cs[n - 1] == 0:
        n -= 1
    F = object.__new__(AnalyticSeries)
    object.__setattr__(F, "coeffs", cs[:n])
    return F


def derivative(F: AnalyticSeries) -> AnalyticSeries:
    if F.degree == 0:
        return ZERO
    return _derived(tuple(n * c for n, c in enumerate(F.coeffs))[1:])


def deficiency(F: AnalyticSeries) -> AnalyticSeries:
    """The image of F under F |-> F - z F'.

    Coefficientwise: c_n -> (1 - n) c_n, so the constant term is preserved,
    the linear term is annihilated, and higher terms flip sign and grow.
    The image is built from F's checked coefficients by _derived, with the
    validating constructor's result; a coefficient past the double range
    raises ParameterError.
    """
    return _derived(tuple((1 - n) * c for n, c in enumerate(F.coeffs)))


def hadamard(F1: AnalyticSeries, F2: AnalyticSeries) -> AnalyticSeries:
    """Coefficientwise product; the result is truncated to the shorter input."""
    n = min(len(F1.coeffs), len(F2.coeffs))
    return _derived(tuple(F1.coeffs[k] * F2.coeffs[k] for k in range(n)))


def linear_combination(
    terms: Sequence[tuple[complex, AnalyticSeries]],
) -> AnalyticSeries:
    """Weighted coefficientwise sum; shorter operands are zero-padded.

    Summation runs in the order given, one index at a time, so the result
    is reproducible bit for bit.
    """
    if not terms:
        raise ParameterError("linear_combination needs at least one operand")
    width = max(len(F.coeffs) for _, F in terms)
    out = [0j] * width
    for w, F in terms:
        w = complex(w)
        for k, c in enumerate(F.coeffs):
            out[k] = out[k] + w * c
    return AnalyticSeries(tuple(out))


def count_at_least(n, least: int, name: str) -> int:
    """``n`` as an int when it is an int or a numpy integer, but not a
    bool, of at least ``least``; else ParameterError."""
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or n < least):
        raise ParameterError(
            f"{name} must be an integer of at least {least}, got {n!r}")
    return int(n)
