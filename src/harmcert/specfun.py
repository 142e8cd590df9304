"""Real special-function kernel: Pochhammer symbols and Gauss sums.

The Gauss value F(a,b;c;1) is computed from the Gamma closed form

    F(a,b;c;1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)),

valid for c-a-b > 0, as the exponential of a sum of math.lgamma values, so
it stays finite where the Gamma values themselves overflow (past about
171).  Whenever a or b is a non-positive integer (terminating series), a
left-to-right float sum of the series terms replaces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

_INT_TOL = 1e-12


def _exp_or_inf(x: float) -> float:
    """exp(x), or +inf where it passes the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x (x+1) ... (x+n-1), with the empty product 1.

    Past 64 factors with x > 0 it is exp(lgamma(x + n) - lgamma(x)), which
    is +inf only where the rising factorial itself passes the double range.
    """
    if n < 0:
        raise ParameterError("pochhammer order must be non-negative")
    if n <= 64 or x <= 0.0:
        acc = 1.0
        for k in range(n):
            acc *= x + k
        return acc
    return _exp_or_inf(math.lgamma(x + n) - math.lgamma(x))


def _terminating_index(x: float) -> int | None:
    """s >= 0 such that x is within tolerance of -s, else None."""
    if x > 0.5:
        return None
    r = round(x)
    if r <= 0 and abs(x - r) <= _INT_TOL:
        return -int(r)
    return None


@dataclass(frozen=True)
class HypergeomParams:
    """Parameter triple (a, b, c) of the Gauss series.

    a, b, c must be finite, and c must not be zero or a negative integer;
    convergence guards for the point z = 1 are checked by the operations
    that need them.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if _terminating_index(self.c) is not None:
            raise ParameterError(
                f"c must not be zero or a negative integer, got {self.c!r}"
            )

    def terminating_index(self) -> int | None:
        """Index of the last nonzero series term, when a or b terminates it."""
        sa = _terminating_index(self.a)
        sb = _terminating_index(self.b)
        if sa is None and sb is None:
            return None
        if sa is None:
            return sb
        if sb is None:
            return sa
        return min(sa, sb)


def _terms(p: HypergeomParams, N: int):
    """Yield t_0..t_N of hyper_coefficients, one at a time."""
    a, b, c = p.a, p.b, p.c
    t = 1.0
    yield t
    for n in range(N):
        t *= (a + n) * (b + n) / ((c + n) * (n + 1.0))
        yield t


def hyper_coefficients(p: HypergeomParams, N: int) -> list[float]:
    """Terms t_n = (a)_n (b)_n / (n! (c)_n) for n = 0..N.

    Built with the ratio recurrence
    t_{n+1} = t_n (a+n)(b+n) / ((c+n)(n+1)), which goes exactly to zero in
    terminating cases.  Each step rounds 7 times and a, b, c, n are exact,
    so without overflow or underflow the computed terms obey
    |t^_n - t_n| <= gamma_{7n} |t_n|, with gamma_m = m u / (1 - m u) and
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3).  This holds for positive triples and for a = b = -s.
    """
    if N < 0:
        raise ParameterError("N must be non-negative")
    return list(_terms(p, N))


def _terminating_sum(p: HypergeomParams, s: int, weighted: bool) -> float:
    """sum t_n, or sum (n+1) t_n, over n = 0..s, left to right.

    A plain loop: sum() of floats is compensated from Python 3.12 on, and
    math.fsum raises on overflow.  With a = b and c > 0 no term is
    negative, so once the sum is +inf it stays +inf and the loop stops.
    """
    stops = p.a == p.b and p.c > 0.0
    total = 0.0
    for n, t in enumerate(_terms(p, s)):
        total += (n + 1.0) * t if weighted else t
        if stops and total == math.inf:
            break
    return total


def gauss_value(p: HypergeomParams) -> float:
    """The series value at z = 1.

    Terminating cases sum the nonzero terms left to right (overflowing
    silently); otherwise the Gamma closed form applies and c - a - b > 0 is
    required.
    A value past the double range is +inf in both cases.
    """
    s = p.terminating_index()
    if s is not None:
        return _terminating_sum(p, s, weighted=False)
    gap = p.c - p.a - p.b
    if not gap > 0.0:
        raise ParameterError(
            f"divergent at z = 1: need c - a - b > 0, got {gap!r}"
        )
    args = (p.c, p.c - p.a, p.c - p.b)
    if not min(args) > 0.0:
        raise ParameterError(
            f"need positive c, c - a and c - b, got {args!r}"
        )
    return _exp_or_inf(math.lgamma(p.c) - math.lgamma(p.c - p.a)
                       + math.lgamma(gap) - math.lgamma(p.c - p.b))


def weighted_gauss_value(p: HypergeomParams) -> float:
    """Closed form of the first-moment sum  sum (n+1) (a)_n (b)_n / (n! (c)_n).

    Equals (ab / (c-a-b-1) + 1) * gauss_value for c - a - b - 1 > 0 and
    positive parameters; terminating cases are summed directly.
    """
    s = p.terminating_index()
    if s is not None:
        return _terminating_sum(p, s, weighted=True)
    gap = p.c - p.a - p.b - 1.0
    if not gap > 0.0:
        raise ParameterError(
            f"weighted sum diverges: need c - a - b - 1 > 0, got {gap!r}"
        )
    if not (p.a > 0.0 and p.b > 0.0 and p.c > 0.0):
        raise ParameterError("weighted sum needs positive a, b, c")
    return (p.a * p.b / gap + 1.0) * gauss_value(p)
