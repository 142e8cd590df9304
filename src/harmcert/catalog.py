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

with t_k = (a)_k (b)_k / (k! (c)_k) from specfun.hyper_coefficients, the
one Gauss-term recurrence.  Conditions 213-215 compare the Gauss-value
expressions against lam / |eta|; 216-218 are the same code at a = b = -s,
finite sums whose closed forms are the paper's Gamma quotients
(Chu-Vandermonde).
All comparisons are strict: equality is reported as not holding, with a
flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError
from .membership import ClassParams, HarmonicMap
from .series import AnalyticSeries
from .specfun import (
    HypergeomParams,
    gauss_value,
    hyper_coefficients,
    weighted_gauss_value,
)


class _Entry(NamedTuple):
    fields: tuple[str, ...]  # the CatalogParams fields read, besides lam
    family: str | None = None  # the tail family, f4, f5 or f6
    condition: bool = False  # a closed-form condition, not an example map


ENTRIES = {
    "eq13": _Entry(()),
    "f_a": _Entry(("n",)),
    "f_b": _Entry(("n",)),
    "f3": _Entry(("eta",)),
    "f4": _Entry(("eta", "a", "b", "c", "truncation"), "f4"),
    "f5": _Entry(("eta", "a", "b", "c", "truncation"), "f5"),
    "f6": _Entry(("eta", "a", "b", "c", "truncation"), "f6"),
    "p1": _Entry(("eta", "s", "c"), "f4"),
    "p2": _Entry(("eta", "s", "c"), "f5"),
    "p3": _Entry(("eta", "s", "c"), "f6"),
    "c213": _Entry(("a", "b", "c"), "f4", condition=True),
    "c214": _Entry(("a", "b", "c"), "f5", condition=True),
    "c215": _Entry(("a", "b", "c"), "f6", condition=True),
    "c216": _Entry(("s", "c"), "f4", condition=True),
    "c217": _Entry(("s", "c"), "f5", condition=True),
    "c218": _Entry(("s", "c"), "f6", condition=True),
}

CATALOG_NAMES = tuple(k for k, e in ENTRIES.items() if not e.condition)

# The least c - a - b at which each tail family's series converges at z = 1.
_MIN_GAP = {"f4": 0.0, "f5": 1.0, "f6": 1.0}


def require_fields(name: str, source) -> None:
    """Raise ParameterError naming every field that ``name`` reads and that
    ``source`` (CatalogParams or parsed arguments) leaves None."""
    missing = [f for f in ENTRIES[name].fields if getattr(source, f) is None]
    if missing:
        raise ParameterError(f"{name} needs {', '.join(missing)}")


@dataclass(frozen=True)
class CatalogParams:
    """Everything a catalog constructor may need.  Each name reads the
    fields ENTRIES lists for it; only those must be set and are checked."""

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
        if self.name not in CATALOG_NAMES:
            raise ParameterError(f"unknown catalog name {self.name!r}")
        ClassParams(self.lam)
        object.__setattr__(self, "eta", complex(self.eta))
        require_fields(self.name, self)
        fields = ENTRIES[self.name].fields
        if "eta" in fields:
            _require_eta(self.eta)
        if "n" in fields and self.n < 2:
            raise ParameterError("coefficient index n must be at least 2")
        if "truncation" in fields and self.truncation < 2:
            raise ParameterError("truncation must be at least 2")


def _require_eta(eta: complex) -> complex:
    if eta == 0:
        raise ParameterError("eta must be nonzero")
    # hypot, not abs: abs raises OverflowError past the double range.
    if not math.hypot(eta.real, eta.imag) <= 1.0 + 1e-12:
        raise ParameterError("eta must lie in the closed unit disk")
    return eta


def _require_tail(name: str, hp: HypergeomParams) -> HypergeomParams:
    """Domain of f4-f6 and 213-215: positive a, b, c and a large enough gap."""
    if not (hp.a > 0.0 and hp.b > 0.0 and hp.c > 0.0):
        raise ParameterError(f"{name} needs positive a, b, c")
    gap = hp.c - hp.a - hp.b
    least = _MIN_GAP[ENTRIES[name].family]
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


def hyper_family_coeffs(kind: str, a: float, b: float, c: float,
                        eta: complex, truncation: int) -> list[complex]:
    """Co-analytic coefficients b_2..b_truncation of f4, f5 or f6.

    Low-level stream with no positivity guards; make_example wraps it.
    """
    if kind not in _MIN_GAP:
        raise ParameterError(f"not a tail family: {kind!r}")
    terms = hyper_coefficients(HypergeomParams(a, b, c), truncation - 1)
    if kind == "f5":
        return [eta * t for t in terms[1:]]
    if kind == "f4":
        return [eta * (t / (k + 1)) for k, t in enumerate(terms[:-1])]
    return [eta * t for t in terms[:-1]]


def poly_family_coeffs(kind: str, s: int, c: float,
                       eta: complex) -> list[complex]:
    """Co-analytic coefficients b_2.. of p1, p2 or p3: f4, f5 or f6 at
    a = b = -s up to z^{s+2}, less p2's last entry eta t_{s+1} = 0."""
    if kind not in CATALOG_NAMES or "s" not in ENTRIES[kind].fields:
        raise ParameterError(f"not a polynomial family: {kind!r}")
    hp = _terminating(s, c)
    coeffs = hyper_family_coeffs(ENTRIES[kind].family, hp.a, hp.b, hp.c, eta,
                                 s + 2)
    return coeffs[:-1] if kind == "p2" else coeffs


def _map_from_g(coeffs: list[complex]) -> HarmonicMap:
    return HarmonicMap(
        h=AnalyticSeries((0, 1)),
        g=AnalyticSeries((0j, 0j) + tuple(coeffs)),
    )


def make_example(params: CatalogParams) -> HarmonicMap:
    """Build the named example map."""
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
    if "s" in ENTRIES[name].fields:
        return _map_from_g(poly_family_coeffs(name, params.s, params.c, eta))
    hp = _require_tail(name, HypergeomParams(params.a, params.b, params.c))
    return _map_from_g(hyper_family_coeffs(
        name, hp.a, hp.b, hp.c, eta, params.truncation
    ))


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    lhs: float
    rhs: float
    at_equality: bool


def _tail_lhs(which: str, hp: HypergeomParams) -> float:
    """Left-hand side of a condition on f4 (Gauss value), f5 (scaled by
    ab/(c-a-b-1); 0 at a = b = 0, whatever c) or f6 (first moment)."""
    family = ENTRIES[which].family
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


def _condition_eta(which: str, reads: str, eta: complex,
                   lam: float) -> complex:
    """Check that ``which`` is a condition reading field ``reads``, and
    check lam and eta; return eta as a complex."""
    entry = ENTRIES.get(which)
    if entry is None or not entry.condition or reads not in entry.fields:
        raise ParameterError(f"unknown condition {which!r}")
    ClassParams(lam)
    return _require_eta(complex(eta))


def hyper_condition(which: str, hyper: HypergeomParams, eta: complex,
                    lam: float) -> ConditionReport:
    """Closed-form membership thresholds for the tail families.

    c213 needs the Gauss value below lam/|eta| (f4); c214 scales it by
    ab/(c-a-b-1) (f5); c215 uses the first-moment closed form (f6).
    """
    eta = _condition_eta(which, "a", eta, lam)
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
    eta = _condition_eta(which, "s", eta, lam)
    return _compare(_tail_lhs(which, _terminating(s, c)), lam, eta)
