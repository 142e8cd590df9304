"""Real special-function kernel: Gauss-series terms, partial sums and values.

The Gauss value F(a,b;c;1) is computed from the Gamma closed form

    F(a,b;c;1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)),

valid for c-a-b > 0, as the exponential of a sum of math.lgamma values, so
it stays finite where the Gamma values themselves overflow (past about
171).  A terminating series, such as a = b = -s, is summed by partial_sum
up to its last nonzero term.  The caller knows which of the two a triple
is: the catalog record decides it, and checks each domain rule, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


def _exp_or_inf(x: float) -> float:
    """exp(x), or +inf where it passes the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class HypergeomParams:
    """Parameter triple (a, b, c) of the Gauss series: finite a and b, and a
    positive, finite c, so that no term divides by zero."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not self.c > 0.0:
            raise ParameterError(f"c must be positive, got {self.c!r}")


def _terms(p: HypergeomParams, N: int):
    """Yield t_0..t_N of hyper_coefficients, one at a time."""
    if N < 0:
        raise ParameterError("N must be non-negative")
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
    return list(_terms(p, N))


def partial_sum(p: HypergeomParams, N: int, weighted: bool) -> float:
    """sum t_n, or sum (n+1) t_n, over n = 0..N, left to right.

    A plain loop: sum() of floats is compensated from Python 3.12 on, and
    math.fsum raises on overflow.  For positive a, b and for a = b = -s no
    term is negative, so the loop stops once the sum is +inf, which it then
    stays.  It also stops at a term that is 0 (the last of a = b = -s, or
    one that underflowed): the recurrence keeps every later term at 0, for
    a = b = -s always and for positive a, b while (a+n)(b+n) is finite.
    Either way the result is the full loop's, and a sum over a huge N costs
    no more than its finite, nonzero terms.
    """
    total = 0.0
    for n, t in enumerate(_terms(p, N)):
        total += (n + 1.0) * t if weighted else t
        if total == math.inf or t == 0.0:
            break
    return total


def gauss_value(p: HypergeomParams) -> float:
    """Gauss's closed form of the series value at z = 1, for positive
    c - a, c - b and c - a - b (as f4-f6 have); +inf past the double
    range."""
    gap = p.c - p.a - p.b
    return _exp_or_inf(math.lgamma(p.c) - math.lgamma(p.c - p.a)
                       + math.lgamma(gap) - math.lgamma(p.c - p.b))


def weighted_gauss_value(p: HypergeomParams) -> float:
    """Closed form of the first-moment sum  sum (n+1) (a)_n (b)_n / (n! (c)_n),
    (ab / (c-a-b-1) + 1) * gauss_value, for c - a - b - 1 > 0 and positive
    c - a, c - b (as f5 and f6 have)."""
    return (p.a * p.b / (p.c - p.a - p.b - 1.0) + 1.0) * gauss_value(p)
