"""Constructors for the named example maps and their closed-form conditions.

Catalog keys:

  eq13   cubic analytic showcase     h = z + lam z^2/2 + lam z^3/4
  f_a    sharp analytic coefficient  h = z + lam/(n-1) z^n
  f_b    sharp co-analytic coeff.    g = -lam/(n-1) z^n
  f3     sharp quadratic             h = z + lam eta z^2
  f4     integrated Gauss tail       g_n = eta t_{n-2}/(n-1)     (213)
  f5     shifted Gauss tail          g_n = eta t_{n-1}           (214)
  f6     plain Gauss tail            g_n = eta t_{n-2}           (215)
  p1/p2/p3  f4/f5/f6 at a = b = -s, where t_k = 0 for k > s  (216-218)

with t_k = (a)_k (b)_k / (k! (c)_k) from specfun's one Gauss-term
recurrence.  One CatalogParams record names, checks and builds a map
(make_example) and evaluates the paper's condition on it (condition): the
number in parentheses, which holds when a closed-form sum drops below
lam/|eta|.  That sum times |eta| is the coefficient mass sum (n-1)|g_n| of
the map before truncation.  The record says which series it is: f4-f6
have positive a, b, c, and their sums are Gamma closed forms
(specfun.gauss_value); p1-p3 terminate at t_s, and their sums are finite
ones (specfun.partial_sum), whose closed forms are the paper's Gamma
quotients (Chu-Vandermonde).  All comparisons are strict: equality is
reported as not holding, with a flag.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError
from .membership import ClassParams, HarmonicMap
from .series import AnalyticSeries
from .specfun import (
    HypergeomParams,
    _terms,
    gauss_value,
    partial_sum,
    weighted_gauss_value,
)


class _Entry(NamedTuple):
    fields: tuple[str, ...]  # the CatalogParams fields read, besides lam
    family: str | None = None  # the tail family, f4, f5 or f6
    condition: str | None = None  # the paper's number of its condition


ENTRIES = {
    "eq13": _Entry(()),
    "f_a": _Entry(("n",)),
    "f_b": _Entry(("n",)),
    "f3": _Entry(("eta",)),
    "f4": _Entry(("eta", "a", "b", "c", "truncation"), "f4", "213"),
    "f5": _Entry(("eta", "a", "b", "c", "truncation"), "f5", "214"),
    "f6": _Entry(("eta", "a", "b", "c", "truncation"), "f6", "215"),
    "p1": _Entry(("eta", "s", "c"), "f4", "216"),
    "p2": _Entry(("eta", "s", "c"), "f5", "217"),
    "p3": _Entry(("eta", "s", "c"), "f6", "218"),
}


# The least c - a - b at which each tail family's series converges at z = 1.
_MIN_GAP = {"f4": 0.0, "f5": 1.0, "f6": 1.0}


@dataclass(frozen=True)
class CatalogParams:
    """Everything a catalog map and its condition may need.  Each name reads
    the fields ENTRIES lists for it; only those must be set and are checked,
    here and nowhere else."""

    name: str
    lam: float
    eta: complex = 1.0 + 0j
    n: int = 2
    s: int | None = None
    a: float | None = None
    b: float | None = None
    c: float | None = None
    truncation: int = 64

    def __post_init__(self):
        if self.name not in ENTRIES:
            raise ParameterError(f"unknown catalog name {self.name!r}")
        ClassParams(self.lam)
        object.__setattr__(self, "eta", complex(self.eta))
        fields = ENTRIES[self.name].fields
        missing = [f for f in fields if getattr(self, f) is None]
        if missing:
            raise ParameterError(f"{self.name} needs {', '.join(missing)}")
        for key in ("n", "s", "truncation"):
            if key in fields:
                value = _integer(key, getattr(self, key))
                object.__setattr__(self, key, value)
        if "eta" in fields:
            _require_eta(self.eta)
        if "n" in fields and self.n < 2:
            raise ParameterError("coefficient index n must be at least 2")
        if "truncation" in fields and self.truncation < 2:
            raise ParameterError("truncation must be at least 2")
        if "s" in fields:
            _require_terminating(self.s, self.c)
        elif "a" in fields:
            _require_tail(self.name, _gauss_triple(self))


def _integer(key: str, value) -> int:
    # numbers.Integral takes numpy integers too, and bool, which is no count.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _require_eta(eta: complex) -> None:
    if eta == 0:
        raise ParameterError("eta must be nonzero")
    # hypot, not abs: abs raises OverflowError past the double range.
    if not math.hypot(eta.real, eta.imag) <= 1.0 + 1e-12:
        raise ParameterError("eta must lie in the closed unit disk")


def _require_tail(name: str, hp: HypergeomParams) -> None:
    """Domain of f4-f6: positive a, b (hp has a positive c) and a large
    enough gap."""
    if not (hp.a > 0.0 and hp.b > 0.0):
        raise ParameterError(f"{name} needs positive a, b, c")
    gap = hp.c - hp.a - hp.b
    least = _MIN_GAP[ENTRIES[name].family]
    if not gap > least:
        raise ParameterError(
            f"{name} needs c - a - b > {least:g}, got {gap!r}"
        )


def _require_terminating(s: int, c: float) -> None:
    """Domain of p1-p3: s >= 0 within the double range, which the Gauss
    triple (-s, -s, c) needs, and a positive, finite c."""
    if s < 0:
        raise ParameterError("s must be a non-negative integer")
    if s > sys.float_info.max:
        raise ParameterError("s must not exceed the double range (1.8e308)")
    if not (c > 0.0 and math.isfinite(c)):
        raise ParameterError(f"c must be positive and finite, got {c!r}")


def _gauss_triple(p: CatalogParams) -> HypergeomParams:
    """(a, b, c) of f4-f6, or (-s, -s, c) of p1-p3."""
    if "s" in ENTRIES[p.name].fields:
        return HypergeomParams(-p.s, -p.s, p.c)
    return HypergeomParams(p.a, p.b, p.c)


def make_example(params: CatalogParams) -> HarmonicMap:
    """Build the named example map.

    The Gauss terms are read one at a time and stop at the first one that
    is 0 (the rest are 0 too) or not finite (AnalyticSeries then raises
    ParameterError on its coefficient), so a p1-p3 map costs no more than
    its finite, nonzero terms, whatever s.
    """
    name, lam, n, eta = params.name, params.lam, params.n, params.eta
    if name == "eq13":
        return HarmonicMap(
            h=AnalyticSeries((0, 1, lam / 2.0, lam / 4.0)),
            g=AnalyticSeries((0j,)),
        )
    if name == "f_a":
        coeffs = [0j] * (n + 1)
        coeffs[1] = 1.0
        coeffs[n] = lam / (n - 1)
        return HarmonicMap(h=AnalyticSeries(tuple(coeffs)),
                           g=AnalyticSeries((0j,)))
    if name == "f_b":
        coeffs = [0j] * (n + 1)
        coeffs[n] = -lam / (n - 1)
        return HarmonicMap(h=AnalyticSeries((0, 1)),
                           g=AnalyticSeries(tuple(coeffs)))
    if name == "f3":
        return HarmonicMap(h=AnalyticSeries((0, 1, lam * eta)),
                           g=AnalyticSeries((0j,)))
    # g_n = eta t_{n-shift}, divided by n - 1 for f4, up to z^truncation;
    # p1-p3 end at t_s, their last nonzero term.
    entry = ENTRIES[name]
    shift = 1 if entry.family == "f5" else 2
    last = params.s if "s" in entry.fields else params.truncation - shift
    coeffs = [0j, 0j]
    for k, t in enumerate(_terms(_gauss_triple(params), last)):
        if k + shift >= 2:
            coeffs.append(eta * (t / (k + 1)) if entry.family == "f4"
                          else eta * t)
        if t == 0.0 or not math.isfinite(t):
            break
    return HarmonicMap(h=AnalyticSeries((0, 1)),
                       g=AnalyticSeries(tuple(coeffs)))


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    lhs: float
    rhs: float
    at_equality: bool


def _compare(lhs: float, lam: float, eta: complex) -> ConditionReport:
    """Whether lhs < lam/|eta| holds strictly, with equality decided between
    finite values only.  An overflowed rhs exceeds every finite lhs, and an
    lhs of +inf (positive terms past the double range) every finite rhs;
    any other non-finite pair raises ParameterError."""
    rhs = lam / abs(eta)
    if not (math.isfinite(lhs) or (lhs == math.inf and math.isfinite(rhs))):
        raise ParameterError(f"cannot compare lhs {lhs!r} with rhs {rhs!r}")
    at_equality = (math.isfinite(rhs)
                   and abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)))
    return ConditionReport(holds=lhs < rhs and not at_equality, lhs=lhs,
                           rhs=rhs, at_equality=at_equality)


def condition(params: CatalogParams) -> ConditionReport:
    """The paper's closed-form condition on the map that ``params`` names:
    lhs < lam/|eta|, with F = F(a,b;c;1) = Gamma(c) Gamma(c-a-b) /
    (Gamma(c-a) Gamma(c-b)) and lhs

      213 (f4)  F
      214 (f5)  ab/(c-a-b-1) F
      215 (f6)  (ab/(c-a-b-1) + 1) F, the first moment sum (n+1) t_n

    216-218 (p1-p3) are 213-215 at a = b = -s, where the Gauss series
    terminates and each lhs is a finite sum up to t_s.  Their closed forms
    (Chu-Vandermonde) are Gamma(c) Gamma(c+2s) / Gamma(c+s)^2, times
    s^2/(c+2s-1) for 217 and (c+s^2+2s-1)/(c+2s-1) for 218; the sums stay
    finite where those Gamma values overflow.  Names without a condition
    raise ParameterError.
    """
    entry = ENTRIES[params.name]
    if entry.family is None:
        raise ParameterError(f"{params.name} has no closed-form condition")
    hp = _gauss_triple(params)
    weighted = entry.family == "f6"  # the first moment sum (n+1) t_n
    if "s" in entry.fields:
        lhs = partial_sum(hp, params.s, weighted)
    else:
        lhs = weighted_gauss_value(hp) if weighted else gauss_value(hp)
    if entry.family == "f5":  # 0 at a = b = 0, whatever c
        ab = hp.a * hp.b
        lhs = 0.0 if ab == 0.0 else (ab / (hp.c - hp.a - hp.b - 1.0)) * lhs
    return _compare(lhs, params.lam, params.eta)
