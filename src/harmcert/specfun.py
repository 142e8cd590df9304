"""Real special-function kernel: Gamma, Pochhammer, Gauss sums.

Only positive real Gamma arguments are needed anywhere in this package, so
``gamma`` stays on that branch and rejects the rest.  The Gauss value
F(a,b;c;1) is computed from the Gamma closed form

    F(a,b;c;1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)),

valid for c-a-b > 0, as the exponential of a sum of math.lgamma values, so
it stays finite where the Gamma values themselves overflow (past about
171); an exact finite summation replaces it whenever a or b is a
non-positive integer (terminating series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_INT_TOL = 1e-12


def gamma(x: float) -> float:
    """Gamma on the positive real axis (math.gamma)."""
    x = float(x)
    if not x > 0.0:
        raise ParameterError(f"gamma needs a positive argument, got {x!r}")
    return math.gamma(x)


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x (x+1) ... (x+n-1), with the empty product 1."""
    if n < 0:
        raise ParameterError("pochhammer order must be non-negative")
    if n <= 64 or x <= 0.0:
        acc = 1.0
        for k in range(n):
            acc *= x + k
        return acc
    return gamma(x + n) / gamma(x)


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


def hyper_coefficients(p: HypergeomParams, N: int) -> np.ndarray:
    """Terms t_n = (a)_n (b)_n / (n! (c)_n) for n = 0..N.

    Built with the ratio recurrence
    t_{n+1} = t_n (a+n)(b+n) / ((c+n)(n+1)), which goes exactly to zero in
    terminating cases.
    """
    if N < 0:
        raise ParameterError("N must be non-negative")
    if N == 0:
        return np.ones(1)
    n = np.arange(N, dtype=float)
    ratios = (p.a + n) * (p.b + n) / ((p.c + n) * (n + 1.0))
    out = np.empty(N + 1)
    out[0] = 1.0
    out[1:] = np.cumprod(ratios)
    return out


def gauss_value(p: HypergeomParams) -> float:
    """The series value at z = 1.

    Terminating cases sum the nonzero terms exactly (overflowing silently);
    otherwise the Gamma closed form applies and c - a - b > 0 is required.
    """
    s = p.terminating_index()
    if s is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(hyper_coefficients(p, s)))
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
    return math.exp(math.lgamma(p.c) - math.lgamma(p.c - p.a)
                    + math.lgamma(gap) - math.lgamma(p.c - p.b))


def weighted_gauss_value(p: HypergeomParams) -> float:
    """Closed form of the first-moment sum  sum (n+1) (a)_n (b)_n / (n! (c)_n).

    Equals (ab / (c-a-b-1) + 1) * gauss_value for c - a - b - 1 > 0 and
    positive parameters; terminating cases are summed directly.
    """
    s = p.terminating_index()
    if s is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = hyper_coefficients(p, s)
            return float(np.sum((np.arange(s + 1) + 1.0) * terms))
    gap = p.c - p.a - p.b - 1.0
    if not gap > 0.0:
        raise ParameterError(
            f"weighted sum diverges: need c - a - b - 1 > 0, got {gap!r}"
        )
    if not (p.a > 0.0 and p.b > 0.0 and p.c > 0.0):
        raise ParameterError("weighted sum needs positive a, b, c")
    return (p.a * p.b / gap + 1.0) * gauss_value(p)
