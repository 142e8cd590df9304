"""Constructors for the named example maps and their threshold conditions.

Catalog keys:

  eq13   cubic analytic showcase     h = z + lam z^2/2 + lam z^3/4
  f_a    sharp analytic coefficient  h = z + lam/(n-1) z^n
  f_b    sharp co-analytic coeff.    g = -lam/(n-1) z^n
  f3     sharp quadratic             h = z + lam eta z^2
  f4     integrated Gauss tail       g_n = eta t_{n-2}/(n-1)
  f5     shifted Gauss tail          g_n = eta t_{n-1}
  f6     plain Gauss tail            g_n = eta t_{n-2}
  p1/p2/p3  f4/f5/f6 at a = b = -s, where t_k = 0 for k > s

with t_k = (a)_k (b)_k / (k! (c)_k), computed in exact rational arithmetic
and rounded once.  Conditions 213-215 compare the Gauss-value expressions
against lam / |eta|; 216-218 are the same code at a = b = -s, exact finite
sums whose closed forms are the paper's Gamma quotients (Chu-Vandermonde).
All comparisons are strict: equality is reported as not holding, with a
flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .membership import HarmonicMap
from .series import AnalyticSeries
from .specfun import HypergeomParams, gauss_value, weighted_gauss_value

CATALOG_NAMES = ("eq13", "f_a", "f_b", "f3", "f4", "f5", "f6", "p1", "p2", "p3")

HYPER_CONDITIONS = ("c213", "c214", "c215")
POLY_CONDITIONS = ("c216", "c217", "c218")

# The tail family behind each tail, polynomial and condition name, and the
# least c - a - b at which that family's series converges at z = 1.
_FAMILY = dict(zip(
    ("f4", "f5", "f6", "p1", "p2", "p3", *HYPER_CONDITIONS, *POLY_CONDITIONS),
    ("f4", "f5", "f6") * 4,
))
_MIN_GAP = {"f4": 0.0, "f5": 1.0, "f6": 1.0}


@dataclass(frozen=True)
class CatalogParams:
    """Everything a catalog constructor may need; names pick what they use."""

    name: str
    lam: float
    eta: complex = 1.0 + 0j
    n: int = 2
    hyper: HypergeomParams | None = None
    s: int | None = None
    c: float | None = None
    truncation: int = 64

    def __post_init__(self):
        if self.name not in CATALOG_NAMES:
            raise ParameterError(f"unknown catalog name {self.name!r}")
        _require_lam(self.lam)
        if self.truncation < 2:
            raise ParameterError("truncation must be at least 2")
        object.__setattr__(self, "eta", complex(self.eta))


def _require_lam(lam: float) -> None:
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ParameterError("lam must be positive and finite")


def _require_eta(eta: complex) -> complex:
    if eta == 0:
        raise ParameterError("eta must be nonzero")
    # hypot, not abs: abs raises OverflowError past the double range.
    if not math.hypot(eta.real, eta.imag) <= 1.0 + 1e-12:
        raise ParameterError("eta must lie in the closed unit disk")
    return eta


def _require_index(n: int) -> int:
    if n < 2:
        raise ParameterError("coefficient index n must be at least 2")
    return n


def _require_tail(name: str, hp: HypergeomParams) -> HypergeomParams:
    """Domain of f4-f6 and 213-215: positive a, b, c and a large enough gap."""
    if not (hp.a > 0.0 and hp.b > 0.0 and hp.c > 0.0):
        raise ParameterError(f"{name} needs positive a, b, c")
    gap = hp.c - hp.a - hp.b
    least = _MIN_GAP[_FAMILY[name]]
    if not gap > least:
        raise ParameterError(
            f"{name} needs c - a - b > {least:g}, got {gap!r}"
        )
    return hp


def _terminating(s: int, c: float) -> HypergeomParams:
    """(a, b, c) = (-s, -s, c) of p1-p3 and 216-218."""
    if s < 0:
        raise ParameterError("s must be a non-negative integer")
    if not (c > 0.0 and math.isfinite(c)):
        raise ParameterError(f"c must be positive and finite, got {c!r}")
    return HypergeomParams(-s, -s, c)


def _rational_terms(a: float, b: float, c: float, count: int) -> list[Fraction]:
    """t_k = (a)_k (b)_k / (k! (c)_k) for k = 0..count, exact."""
    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
    terms = [Fraction(1)]
    for k in range(count):
        terms.append(terms[-1] * (fa + k) * (fb + k) / ((fc + k) * (k + 1)))
    return terms


def hyper_family_coeffs(kind: str, a: float, b: float, c: float,
                        eta: complex, truncation: int) -> list[complex]:
    """Co-analytic coefficients b_2..b_truncation of f4, f5 or f6.

    Low-level stream with no positivity guards; make_example wraps it.
    """
    if kind not in ("f4", "f5", "f6"):
        raise ParameterError(f"not a tail family: {kind!r}")
    terms = _rational_terms(a, b, c, truncation - 1)
    out = []
    for n in range(2, truncation + 1):
        if kind == "f4":
            frac = terms[n - 2] / (n - 1)
        elif kind == "f5":
            frac = terms[n - 1]
        else:
            frac = terms[n - 2]
        out.append(eta * float(frac))
    return out


def poly_family_coeffs(kind: str, s: int, c: float,
                       eta: complex) -> list[complex]:
    """Co-analytic coefficients b_2.. of p1, p2 or p3: f4, f5 or f6 at
    a = b = -s up to z^{s+2}, less p2's last entry eta t_{s+1} = 0."""
    if kind not in ("p1", "p2", "p3"):
        raise ParameterError(f"not a polynomial family: {kind!r}")
    hp = _terminating(s, c)
    coeffs = hyper_family_coeffs(_FAMILY[kind], hp.a, hp.b, hp.c, eta, s + 2)
    return coeffs[:-1] if kind == "p2" else coeffs


def _map_from_g(coeffs: list[complex]) -> HarmonicMap:
    return HarmonicMap(
        h=AnalyticSeries((0, 1)),
        g=AnalyticSeries((0j, 0j) + tuple(coeffs)),
    )


def make_example(params: CatalogParams) -> HarmonicMap:
    """Build the named example map."""
    lam = params.lam
    name = params.name
    if name == "eq13":
        return HarmonicMap(
            h=AnalyticSeries((0, 1, lam / 2.0, lam / 4.0)),
            g=AnalyticSeries((0j,)),
        )
    if name == "f_a":
        n = _require_index(params.n)
        coeffs = [0j] * (n + 1)
        coeffs[1] = 1.0
        coeffs[n] = lam / (n - 1)
        return HarmonicMap(h=AnalyticSeries(tuple(coeffs)),
                           g=AnalyticSeries((0j,)))
    if name == "f_b":
        n = _require_index(params.n)
        coeffs = [0j] * (n + 1)
        coeffs[n] = -lam / (n - 1)
        return HarmonicMap(h=AnalyticSeries((0, 1)),
                           g=AnalyticSeries(tuple(coeffs)))
    eta = _require_eta(params.eta)
    if name == "f3":
        return HarmonicMap(h=AnalyticSeries((0, 1, lam * eta)),
                           g=AnalyticSeries((0j,)))
    if name in ("f4", "f5", "f6"):
        if params.hyper is None:
            raise ParameterError(f"{name} needs hypergeometric parameters")
        hp = _require_tail(name, params.hyper)
        return _map_from_g(hyper_family_coeffs(
            name, hp.a, hp.b, hp.c, eta, params.truncation
        ))
    # p1 / p2 / p3
    if params.s is None or params.c is None:
        raise ParameterError(f"{name} needs s and c")
    return _map_from_g(poly_family_coeffs(name, params.s, params.c, eta))


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    lhs: float
    rhs: float
    at_equality: bool


def _tail_lhs(which: str, hp: HypergeomParams) -> float:
    """Left-hand side of a condition on f4 (Gauss value), f5 (scaled by
    ab/(c-a-b-1); 0 at a = b = 0, whatever c) or f6 (first moment)."""
    family = _FAMILY[which]
    if family == "f4":
        return gauss_value(hp)
    if family == "f5":
        ab = hp.a * hp.b
        if ab == 0.0:
            return 0.0
        return (ab / (hp.c - hp.a - hp.b - 1.0)) * gauss_value(hp)
    return weighted_gauss_value(hp)


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


def hyper_condition(which: str, hyper: HypergeomParams, eta: complex,
                    lam: float) -> ConditionReport:
    """Closed-form membership thresholds for the tail families.

    c213 needs the Gauss value below lam/|eta| (f4); c214 scales it by
    ab/(c-a-b-1) (f5); c215 uses the first-moment closed form (f6).
    """
    if which not in HYPER_CONDITIONS:
        raise ParameterError(f"unknown condition {which!r}")
    eta = _require_eta(complex(eta))
    _require_lam(lam)
    return _compare(_tail_lhs(which, _require_tail(which, hyper)), lam, eta)


def poly_condition(which: str, s: int, c: float, eta: complex,
                   lam: float) -> ConditionReport:
    """Membership thresholds for the polynomial families, against lam/|eta|.

    c216, c217 and c218 are c213, c214 and c215 at a = b = -s, where the
    Gauss series terminates: each left-hand side is an exact finite sum.
    Their closed forms (Chu-Vandermonde) are Gamma(c) Gamma(c+2s) /
    Gamma(c+s)^2, times s^2/(c+2s-1) for c217 and (c+s^2+2s-1)/(c+2s-1)
    for c218; the sums stay finite where those Gamma values overflow.
    """
    if which not in POLY_CONDITIONS:
        raise ParameterError(f"unknown condition {which!r}")
    eta = _require_eta(complex(eta))
    _require_lam(lam)
    return _compare(_tail_lhs(which, _terminating(s, c)), lam, eta)
