"""Membership certification for the disk classes.

The analytic class at level lam collects normalized series F with
|F(z) - z F'(z)| < lam on the open unit disk; the harmonic class collects
maps h + conj(g) with |h - z h'| + |g - z g'| < lam.  Both deficiency
images vanish at the origin, so unless they are identically zero their
modulus (or the sum of the two moduli, which is subharmonic) attains its
supremum only on the boundary circle.  A boundary maximum at or below lam
therefore certifies the strict interior inequality, and functions whose
boundary maximum equals lam exactly are genuine members sitting at the
sharp constant.  The scanner reports them, and any sup its rounding bound
cannot tell from lam, as BoundarySharp, not by a naive strict comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import ClassVar

from ._lazy import np
from .errors import ConsistencyError, NormalizationError, ParameterError
from .series import (
    COEFF_TOL,
    AnalyticSeries,
    circle_values,
    circle_values_error,
    coefficient_columns,
    count_at_least,
    deficiency,
    eval_series,
    ldexp_or_inf,
    scan_angles,
)

_TWO_PI = 2.0 * math.pi
# The golden-section fraction of a bracket, (3 - sqrt 5) / 2.
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
# Unit roundoff of a double.
_UNIT_ROUNDOFF = 2.0**-53
# Every polish over a circle angle stops once its bracket is this narrow,
# or earlier where the objective's rounding error hides what lies inside.
_POLISH_WIDTH = 1e-9

_JUSTIFICATION = (
    "sum of moduli of two deficiency images vanishing at the origin (the "
    "second is zero for an analytic map) is subharmonic, so its open-disk "
    "supremum is the boundary maximum; a boundary maximum at or below the "
    "level certifies the strict interior inequality"
)


class Verdict(Enum):
    MEMBER = "Member"
    BOUNDARY_SHARP = "BoundarySharp"
    NON_MEMBER = "NonMember"


@dataclass(frozen=True)
class ClassParams:
    """Level lam > 0, the only field.

    Verdicts read the sup's own rounding bound (_classify).
    ``sup_tolerance``, a class constant, bounds the stable-family gap and
    the coefficient-bound, growth and Jacobian audits.
    """

    lam: float
    sup_tolerance: ClassVar[float] = 1e-9

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ParameterError(
                f"lam must be positive and finite, got {self.lam!r}"
            )


@dataclass(frozen=True)
class HarmonicMap:
    """Pair (h, g) for the map h + conj(g).

    h carries the normalization c0 = 0 exactly, c1 = 1 within COEFF_TOL;
    g has c0 = 0 exactly and a linear coefficient within COEFF_TOL of 0.
    """

    h: AnalyticSeries
    g: AnalyticSeries

    def __post_init__(self):
        if not self.h.is_normalized():
            raise NormalizationError(
                "analytic part must have c0 = 0 and c1 = 1"
            )
        if self.g.coeff(0) != 0 or abs(self.g.coeff(1)) > COEFF_TOL:
            raise NormalizationError("co-analytic linear term must vanish")

    @property
    def degree(self) -> int:
        return max(self.h.degree, self.g.degree)


@dataclass(frozen=True)
class MembershipReport:
    verdict: Verdict
    measured_sup: float
    margin: float
    witness_angle: float
    justification: str


def _polish_argmax(fn, t0: float, v0: float, step: float, err: float
                   ) -> tuple[float, float]:
    """Brent's polish of ``fn(t)``, a scalar objective of the angle, over
    the two grid cells of width ``step`` around the grid argmax ``t0``,
    whose grid value is ``v0``: the only one-dimensional search.  ``err``
    is the caller's bound on the rounding error of one value of ``fn``.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 5), turned to a maximum: it starts at x = t0 with value v0, which
    is not evaluated again, and keeps the bracket [a, b] around x, the
    best point so far.  Each step tries the vertex of the parabola through
    the three best points, and takes it only when it is finite, lies
    inside the bracket and moves less than half the step before last; else
    it takes a golden-section step into the larger side.  A point replaces
    x only when its value is strictly larger, so a flat or NaN objective
    only shrinks the bracket around t0.  Callers pass the first argmax,
    and ties keep the earlier point, so they resolve to the smallest
    angle.

    The search stops once a and b both lie within a half-width h of x,
    and no step is shorter than h / 2.  With err = 0, h = _POLISH_WIDTH / 2,
    so the bracket ends at most _POLISH_WIDTH wide.  A peak of curvature k
    is flat to within err over sqrt(err / k) of its top, far wider than
    that width for an O(1) objective, so points closer than that read
    only rounding (Brent ties his own stop to the objective's
    resolution).  With err > 0, h is therefore sqrt(err / k),
    never below _POLISH_WIDTH / 2, with k the largest curvature of the
    parabolas through the three best points x, w, v so far that the
    values' errors cannot spoil: errors up to err move that curvature by
    at most err c, c = (|x - w| + |x - v| + |v - w|) / |(x-w)(x-v)(v-w)|,
    and a parabola counts only when err c is at most half its curvature.
    A peak of curvature k inside the bracket then lies at most about err
    above the value at x.  h never grows, so a later parabola spoiled by
    the errors cannot end the search early; once one shows the three best
    points inside the errors, a step that is not parabolic goes h / 2 from
    x into the larger side, which closes that side where a golden step
    would only shrink it.  A smooth peak then takes about 6 evaluations.
    The grid value v0 enters the parabolas as one more value.
    """
    tol2 = half = 0.5 * _POLISH_WIDTH
    tol = 0.5 * half
    curv = 0.0
    noisy = False
    a, b = float(t0 - step), float(t0 + step)
    x = w = v = float(t0)
    fx = fw = fv = float(v0)
    d = e = 0.0
    while x - a > half or b - x > half:
        m = 0.5 * (a + b)
        parabolic = False
        if abs(e) > tol:
            # The vertex of the parabola through (x, fx), (w, fw), (v, fv)
            # is x + p / q; a non-finite or zero q leaves no parabola.
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            parabolic = (0.0 < q < math.inf and abs(p) < 0.5 * q * abs(e)
                         and q * (a - x) < p < q * (b - x))
        if noisy and not parabolic:
            # The three best points lie within the values' errors: close
            # the larger side from x, where a golden step would only shrink
            # it.
            e = d = tol if m > x else -tol
        elif parabolic:
            e, d = d, p / q
            if x + d - a < half or b - x - d < half:
                d = tol if m > x else -tol
        else:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else (tol if d > 0.0 else -tol))
        fu = fn(u)
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
        noisy = False
        if err > 0.0 and x != w != v != x:
            # The parabola through x, w and v has curvature s / den, and
            # err c = err (|x - w| + |x - v| + |v - w|) / den bounds what
            # the values' errors move it by.
            xw, xv, vw = x - w, x - v, v - w
            den = xw * xv * vw
            s = xv * (fx - fw) - xw * (fx - fv)
            if den < 0.0:
                s, den = -s, -den
            if not 2.0 * err * (abs(xw) + abs(xv) + abs(vw)) <= s:
                noisy = curv > 0.0
            elif s > curv * den:
                curv = s / den
                half = max(tol2, math.sqrt(err / curv))
                tol = 0.5 * half
    if fx > v0:
        return float(fx), float(x % _TWO_PI)
    return float(v0), float(t0)


def _paired_polish(c1: list[complex], c2: list[complex], t0: float,
                   v0: float, step: float, top: float
                   ) -> tuple[float, float]:
    """_polish_argmax of |F1| + |F2|, F1 and F2 the series with
    coefficients ``c1`` and ``c2``, from the grid argmax ``t0`` with grid
    value ``v0``, each polish point two eval_series calls, about 6 points
    per polish: the one objective of every paired circle maximum.

    The polish stops at err = 8 (d + 1) u S, with S = ``top``, the sum of
    |c_k| over both series or a bound on it, d the larger degree and
    u = 2^-53.  It bounds
    the rounding error of one value (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3 and 5): cmath.exp puts z within 2 u of
    e^{it} (cos and sin within an ulp each), which moves each series by at
    most 2 u sum k |c_k|, so both by 2 d u S; Horner's complex product
    (sqrt(2) gamma_2) and sum per coefficient leave each value within
    3.9 d u S of the series at z; the two moduli and their sum add 2 u S.
    That is 5.9 d u S + 2 u S in all, within err.  The scans pass S < 1
    (_scaled_columns), so no value overflows.
    """

    def at(t: float) -> float:
        z = cmath.exp(1j * t)
        return abs(eval_series(c1, z)) + abs(eval_series(c2, z))

    err = 8 * max(len(c1), len(c2)) * _UNIT_ROUNDOFF * top
    return _polish_argmax(at, t0, v0, step, err)


class _Sup(tuple):
    """A paired circle maximum (sup, angle) with ``err`` = 16 (d + 1) u S,
    d + 1 = ``length`` and S = ``top`` 2^-e the coefficient sum of both
    series (scaled by 2^e and read back, so finite where the sum
    overflows): it covers _sup_at_one's 7 m u S, m <= 2 (d + 1), and
    _paired_polish's 8 (d + 1) u S, the two bounds on the rounding of sup."""

    def __new__(cls, sup: float, angle: float, length: int, top: float,
                e: int = 0):
        pair = super().__new__(cls, (sup, angle))
        pair.err = ldexp_or_inf(16 * length * _UNIT_ROUNDOFF * top, -e)
        return pair


def _sup_at_one(F1: AnalyticSeries, F2: AnalyticSeries
                ) -> tuple[_Sup | None, float]:
    """The circle maximum of |F1| + |F2| and its angle 0.0 when z = 1
    attains it, as a _Sup, else None; and S, the bound below, which the
    scan's scaling reads too.

    The maximum lies between two cheap values: |F1(1)| + |F2(1)|, the
    moduli of the coefficient sums, which z = 1 attains, and S, the sum of
    |c_k| over both series (the triangle inequality).  Both are sums of
    the m = len(F1.coeffs) + len(F2.coeffs) coefficients, so the maximum
    is decided when the first is at least S (1 - 4 m u), u = 2^-53: the
    true maximum then lies within about 7 m u, relative, of the returned
    value, 4e-13 at degree 256.  The paper's sharp maps line up every
    coefficient at z = 1 and exit here; 0.0 is the smallest angle, so the
    scan's tie rule holds.  Nothing here raises on overflow: a sum that
    is not finite decides nothing.
    """
    top = sum(map(abs, F1.coeffs)) + sum(map(abs, F2.coeffs))
    v1, v2 = sum(F1.coeffs), sum(F2.coeffs)
    at_one = math.hypot(v1.real, v1.imag) + math.hypot(v2.real, v2.imag)
    m = len(F1.coeffs) + len(F2.coeffs)
    if (math.isfinite(at_one)
            and at_one >= top * (1.0 - 4 * m * _UNIT_ROUNDOFF)):
        length = max(len(F1.coeffs), len(F2.coeffs))
        return _Sup(at_one, 0.0, length, top), top
    return None, top


def _scaled_columns(F1: AnalyticSeries, F2: AnalyticSeries, top: float
                    ) -> tuple[np.ndarray, int, float]:
    """coefficient_columns(F1, F2) times 2^e, e, and S' < 1, a bound on
    their coefficient sum: the one scaling of a paired circle maximum.
    With S = ``top`` finite, 2^e S lies in [1/2, 1) and S' = 2^e S; else
    2^e times the largest modulus lies below 2^-b, b the bit length of
    twice the column length, and S' = 1.  A product by 2^e is exact short
    of underflow, which only moduli below 2^-1021 S meet, and so is every
    rounding after it wherever its unscaled twin is normal: ordinary
    scales read the same bits, and every scale costs what scale 1 does.
    The maxima are divided by 2^e once, at the end.
    """
    cols = coefficient_columns(F1, F2)
    if math.isfinite(top):
        e = -math.frexp(top)[1]
        top = math.ldexp(top, e)
    else:
        e = (-math.frexp(float(np.abs(cols).max()))[1]
             - (2 * len(cols)).bit_length())
        top = 1.0
    flat = cols.view(float)
    np.ldexp(flat, e, out=flat)
    return cols, e, top


def paired_boundary_sup(F1: AnalyticSeries, F2: AnalyticSeries
                        ) -> tuple[float, float]:
    """Maximum of |F1| + |F2| over the unit circle and the angle attaining
    it; with F2 = ZERO, the maximum of |F1|.

    When _sup_at_one decides the maximum from the coefficients, it returns
    the value at z = 1 with angle 0.0, with no scan.  Otherwise it returns
    what a Horner scan of the coefficients scaled by _scaled_columns gives,
    divided by the scale: the grid values of |F1| + |F2| by np.polyval at
    t_j = j (2 pi / n), j < n = scan_angles(degree), then _paired_polish
    from the first grid argmax, so ties resolve to the smallest angle.  A
    maximum past the double range reads +inf; _classify rejects it.  The
    pair is a _Sup, whose ``err`` bounds the maximum's rounding.

    Horner runs at a few of those angles only: one 2-column circle_values
    transform gives every grid value in O(n log n), within err of its
    Horner value (below), and Horner runs only at the candidates, whose
    transform value lies within 2 err of the transform's maximum.  A point
    left out has a Horner value below max - err, and the transform's
    argmax has one of at least max - err, so the first Horner argmax is a
    candidate and the result is the full scan's bit for bit.

    err bounds |transform value - Horner value| at a grid point.  With S
    the scaled coefficient sum of both series, d the degree and u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 5 and
    24): the transform is within circle_values_error(n) S of the values at
    the roots of unity w_j.  t_j carries three roundings (of 2 pi, the
    step and the product), so it is within 6 pi u < 19 u of 2 pi j / n,
    and exp adds under 2 u: z_j lies within 21 u of w_j, which moves each
    series by at most 21 u sum k |c_k| <= 21 d u S.  Horner at z_j, one
    complex product (error sqrt(2) gamma_2) and one sum per coefficient,
    is within about 4 d u S of the series there, and the moduli and their
    sum round each side by 3 u S at most.  So
    err = (circle_values_error(n) + 32 (d + 1) u) S leaves room for the
    rounding of S and of the floor max - 2 err.  As S < 1, a term that
    underflows is off by at most 2^-1074, far inside err.
    """
    decided, top = _sup_at_one(F1, F2)
    if decided:
        return decided
    cols, e, top = _scaled_columns(F1, F2, top)
    mods = np.abs(circle_values(cols, scan_angles(len(cols) - 1)))
    return _transform_sup(F1, F2, cols, e, mods[:, 0] + mods[:, 1], top)


def _transform_sup(F1: AnalyticSeries, F2: AnalyticSeries, cols: np.ndarray,
                   e: int, grid: np.ndarray, top: float
                   ) -> tuple[float, float]:
    """paired_boundary_sup below its z = 1 exit, from ``grid``, the sums
    |F1| + |F2| of the moduli of the transform of ``cols``, ``e`` and
    ``top`` from _scaled_columns.  The zeta sweep passes the transform it
    reads its sections from, so its family maximum is this one."""
    n, d = len(grid), len(cols) - 1
    step = _TWO_PI / n
    err = (circle_values_error(n) + 32 * (d + 1) * _UNIT_ROUNDOFF) * top
    ts = (grid >= float(grid.max()) - 2.0 * err).nonzero()[0] * step
    vals = np.abs(np.polyval(cols[::-1, :, None], np.exp(1j * ts)))
    vals[0] += vals[1]
    k = int(np.argmax(vals[0]))
    sup, angle = _paired_polish(cols[:len(F1.coeffs), 0].tolist(),
                                cols[:len(F2.coeffs), 1].tolist(),
                                ts[k], vals[0, k], step, top)
    return _Sup(ldexp_or_inf(sup, -e), angle, d + 1, top, e)


def _classify(measured_sup: float, err: float, params: ClassParams
              ) -> Verdict:
    """NonMember when measured_sup - err > lam, Member when
    measured_sup + err < lam, else BoundarySharp: ``err`` is the sup's own
    rounding bound (_Sup), and no tolerance widens it."""
    if not math.isfinite(measured_sup):
        raise ParameterError("boundary values overflow")
    if measured_sup - err > params.lam:
        return Verdict.NON_MEMBER
    if measured_sup + err < params.lam:
        return Verdict.MEMBER
    return Verdict.BOUNDARY_SHARP


def harmonic_membership(f: HarmonicMap, params: ClassParams
                        ) -> MembershipReport:
    """Three-way membership verdict for a harmonic map."""
    sup, angle = found = paired_boundary_sup(deficiency(f.h),
                                             deficiency(f.g))
    return MembershipReport(
        verdict=_classify(sup, found.err, params),
        measured_sup=sup,
        margin=params.lam - sup,
        witness_angle=angle,
        justification=_JUSTIFICATION,
    )


@dataclass(frozen=True)
class ZetaFamilyScan:
    """Boundary suprema of the sections A + zeta B over sampled zeta.

    ``section_max``, the largest grid value of the sections at the phases
    2 pi k / m, k < m = zeta_samples, is a sampled lower bound on
    ``max_sup``, the sup over every unimodular zeta, which the section with
    phase ``witness_phase`` attains (see zeta_family_sup).  ``max_sup`` and
    the angle behind ``witness_phase`` are paired_boundary_sup(A, B), bit
    for bit, read from the transform that ``section_max`` comes from.
    """

    section_max: float
    max_sup: float
    witness_phase: float


def zeta_family_sup(A: AnalyticSeries, B: AnalyticSeries, zeta_samples: int
                    ) -> ZetaFamilyScan:
    """Max over unimodular zeta of the boundary sup of A + zeta B.

    One transform of _scaled_columns' columns gives va, vb, the values of
    A and B times 2^e on n = scan_angles(degree) angles; the sections and
    the family maximum are read from it, and divided by 2^e at the end.
    ``zeta_samples`` is an integer m >= 8 (see count_at_least).

    Pointwise, max over zeta of |A + zeta B| is |A| + |B|, reached at
    zeta = e^{i(arg A - arg B)}, so ``max_sup`` and its angle are
    paired_boundary_sup(A, B), its _transform_sup read from this
    transform, and the witness phase is arg A - arg B at that angle.  A
    non-finite ``max_sup`` raises ParameterError before any section is
    read.

    ``section_max`` is the largest |va_j + zeta_k vb_j| over the angles j
    and the sampled zeta_k = e^{2 pi i k / m}.  As |va + e^{i phi} vb|^2 =
    |va|^2 + |vb|^2 + 2 |va| |vb| cos(phi - arg va + arg vb), the phase
    nearest arg va_j - arg vb_j, k = rint(m arg(va_j conj(vb_j)) / 2 pi),
    gives angle j's largest sampled value: one per angle, not m.  It lies
    within pi / m of the best phase, so it reads between the grid value
    |va_j| + |vb_j| and that value times sqrt(cos(pi / m)); only angles
    whose grid value reaches grid.max() sqrt(cos(pi / m)) are read.  The
    values lie below 2 (the scaled coefficient sum is below 1) and carry a
    few tens of u = 2^-53 of rounding, so that floor is lowered by
    2^-45 = 256 u.  With M2 = sum k^2 (|A_k| + |B_k|), each section F has
    |F''| <= M2, so Re(F e^{-i phi}), phi the phase of F at its maximiser,
    has its maximum there and |F| above it; by series.grid_floor, up to
    rounding section_max lies within M2 pi^2 / (2 n^2) below the largest
    sampled section's sup.
    """
    m = count_at_least(zeta_samples, 8, "zeta_samples")
    decided, top = _sup_at_one(A, B)
    cols, e, top = _scaled_columns(A, B, top)
    vals = circle_values(cols, scan_angles(len(cols) - 1))
    mods = np.abs(vals)
    grid = mods[:, 0] + mods[:, 1]
    max_sup, angle = decided or _transform_sup(A, B, cols, e, grid, top)
    if not math.isfinite(max_sup):
        raise ParameterError("boundary values overflow")
    floor = float(grid.max()) * math.sqrt(math.cos(math.pi / m)) - 2.0**-45
    va, vb = vals[grid >= floor].T
    k = np.rint(np.angle(va * np.conj(vb)) * (m / _TWO_PI)) % m
    zetas = np.exp(1j * (_TWO_PI * k / m))
    with np.errstate(over="ignore"):
        section_max = float(np.ldexp(np.max(np.abs(va + zetas * vb)), -e))
    z = cmath.exp(1j * angle)
    a = eval_series(cols[:len(A.coeffs), 0].tolist(), z)
    b = eval_series(cols[:len(B.coeffs), 1].tolist(), z)
    witness = (cmath.phase(a) - cmath.phase(b)) % _TWO_PI
    return ZetaFamilyScan(section_max=section_max, max_sup=max_sup,
                          witness_phase=witness)


@dataclass(frozen=True)
class StableFamilyReport:
    """The zeta sweep, the harmonic sup (``scan.max_sup``) and ``gap``, the
    sampled sections' excess over it, which is zero up to rounding."""

    scan: ZetaFamilyScan
    harmonic_sup: float
    gap: float


def stable_family_check(f: HarmonicMap, params: ClassParams,
                        zeta_samples: int = 256) -> StableFamilyReport:
    """Check the sampled analytic sections against the family maximum.

    The map obeys the harmonic inequality exactly when every section
    h + zeta g, |zeta| = 1, obeys the analytic one; pointwise the sup over
    zeta of |A + zeta B| is |A| + |B|, so the harmonic sup is the family
    maximum and no sampled section may exceed it.  An excess above
    sup_tolerance, relative once the sup passes 1, raises
    ConsistencyError.

    ``harmonic_sup`` is harmonic_membership's ``measured_sup`` bit for
    bit (see ZetaFamilyScan).  It is at least the grid's |va| + |vb| less
    the candidate rule's error bound, and the grid bounds each section's
    grid value, so the gap checks the sampled sections against the
    maximum, not the transform, whose errors move the sections and the
    grid alike.
    """
    scan = zeta_family_sup(deficiency(f.h), deficiency(f.g), zeta_samples)
    harmonic_sup = scan.max_sup
    top = scan.section_max
    gap = max(0.0, top - harmonic_sup)
    if gap > params.sup_tolerance * max(1.0, harmonic_sup):
        raise ConsistencyError(
            f"section sup {top!r} disagrees with harmonic sup "
            f"{harmonic_sup!r} by {gap!r}"
        )
    return StableFamilyReport(scan=scan, harmonic_sup=harmonic_sup, gap=gap)


@dataclass(frozen=True)
class CoefficientSufficiency:
    """Outcome of the coefficient-mass test.

    The test is sufficient, not necessary: sharp members carry total mass
    exactly lam yet still belong to the class, so a failed test returns
    ``sufficient=False``, which decides nothing, rather than a rejection.
    """

    sufficient: bool
    total: float


def coefficient_sufficient(f: HarmonicMap, params: ClassParams
                           ) -> CoefficientSufficiency:
    """Sum (n-1)(|a_n| + |b_n|) and compare strictly against lam."""
    total = 0.0
    for n, (a, b) in enumerate(
            zip_longest(f.h.coeffs[2:], f.g.coeffs[2:], fillvalue=0j), 2):
        total += (n - 1) * (abs(a) + abs(b))
    return CoefficientSufficiency(sufficient=total < params.lam, total=total)


@dataclass(frozen=True)
class BoundsAuditEntry:
    index: int
    side: str
    value: float
    bound: float
    violated: bool


def coefficient_bounds_audit(f: HarmonicMap, params: ClassParams
                             ) -> list[BoundsAuditEntry]:
    """Check |a_n| and |b_n| against lam/(n-1); violations force rejection.

    The bound is necessary for membership, so any violated entry implies
    the boundary scan must return NonMember.  The slack is sup_tolerance,
    relative once the bound passes 1, as in the stable-family gap.
    """
    out = []
    for n, pair in enumerate(
            zip_longest(f.h.coeffs[2:], f.g.coeffs[2:], fillvalue=0j), 2):
        bound = params.lam / (n - 1)
        for side, c in zip("ab", pair):
            value = abs(c)
            out.append(BoundsAuditEntry(
                index=n,
                side=side,
                value=value,
                bound=bound,
                violated=(value
                          > bound + params.sup_tolerance * max(1.0, bound)),
            ))
    return out


def random_member(degree: int, params: ClassParams, rng: np.random.Generator,
                  fill: float = 0.9) -> HarmonicMap:
    """Random guaranteed member: coefficient mass rescaled to fill * lam.

    Draws complex Gaussian coefficients for indices 2..degree on both
    parts, then rescales so the sufficient-condition sum lands strictly
    below lam.  This is the trustworthy positive oracle the property
    suites lean on.
    """
    if degree < 2:
        return HarmonicMap(h=AnalyticSeries((0, 1)), g=AnalyticSeries((0,)))
    if not 0.0 < fill < 1.0:
        raise ParameterError("fill must lie strictly between 0 and 1")
    k = degree - 1
    ha = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    gb = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    weights = np.arange(1, degree)
    mass = float(np.sum(weights * (np.abs(ha) + np.abs(gb))))
    scale = fill * params.lam / mass
    h = AnalyticSeries((0, 1) + tuple(ha * scale))
    g = AnalyticSeries((0, 0) + tuple(gb * scale))
    return HarmonicMap(h=h, g=g)
