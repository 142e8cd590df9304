"""Membership certification for the disk classes.

The analytic class at level lam collects normalized series F with
|F(z) - z F'(z)| < lam on the open unit disk; the harmonic class collects
maps h + conj(g) with |h - z h'| + |g - z g'| < lam.  Both deficiency
images vanish at the origin, so unless they are identically zero their
modulus (or the sum of the two moduli, which is subharmonic) attains its
supremum only on the boundary circle.  A boundary maximum at or below lam
therefore certifies the strict interior inequality, and functions whose
boundary maximum equals lam exactly are genuine members sitting at the
sharp constant.  The scanner reports them as BoundarySharp instead of
misclassifying them through a naive strict comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

from ._lazy import np
from .errors import ConsistencyError, NormalizationError, ParameterError
from .series import (
    COEFF_TOL,
    AnalyticSeries,
    circle_values,
    circle_values_error,
    coefficient_columns,
    deficiency,
    eval_series,
    scan_angles,
)

_TWO_PI = 2.0 * math.pi
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Unit roundoff of a double.
_UNIT_ROUNDOFF = 2.0**-53
# The smallest positive (subnormal) double.
_SMALLEST_SUBNORMAL = 2.0**-1074
# Every golden-section polish over a circle angle stops once its bracket
# is this narrow.
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
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ClassParams:
    """Level lam > 0, the only field.

    The verdict band around lam is max(boundary_band, sup_tolerance * lam);
    both tolerances are fixed class constants, not settable per call.
    ``sup_tolerance`` also bounds the stable-family gap, the differential
    tests' slack and the coefficient-bound audit.
    """

    lam: float
    sup_tolerance: ClassVar[float] = 1e-9
    boundary_band: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ParameterError(
                f"lam must be positive and finite, got {self.lam!r}"
            )


@dataclass(frozen=True)
class HarmonicMap:
    """Pair (h, g) for the map h + conj(g).

    h carries the normalization c0 = 0, c1 = 1; g must vanish to second
    order (no constant and no linear coefficient).
    """

    h: AnalyticSeries
    g: AnalyticSeries

    def __post_init__(self):
        if not self.h.is_normalized():
            raise NormalizationError(
                "analytic part must have c0 = 0 and c1 = 1"
            )
        if abs(self.g.coeff(0)) > COEFF_TOL or abs(self.g.coeff(1)) > COEFF_TOL:
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


def _polish_argmax(fn, t0: float, v0: float, step: float
                   ) -> tuple[float, float]:
    """Golden-section polish of ``fn(t)``, a scalar objective of the angle,
    over the two grid cells of width ``step`` around the grid argmax
    ``t0``, whose grid value is ``v0``, down to ``_POLISH_WIDTH``: the only
    golden search.  Callers pass the first argmax, so ties resolve to the
    smallest angle.
    """
    a, b = float(t0 - step), float(t0 + step)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    x, v = (c, fc) if fc >= fd else (d, fd)
    while (b - a) > _POLISH_WIDTH:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
            if fc > v:
                x, v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
            if fd > v:
                x, v = d, fd
    if v > v0:
        return float(v), float(x % _TWO_PI)
    return float(v0), float(t0)


def _paired_polish(F1: AnalyticSeries, F2: AnalyticSeries, t0: float,
                   v0: float, step: float) -> tuple[float, float]:
    """_polish_argmax of |F1| + |F2| from the grid argmax ``t0`` with grid
    value ``v0``, each polish point two eval_series calls: the one
    objective of every paired circle maximum.  A value whose modulus
    overflows reads as infinity, as on the grid."""

    def at(t: float) -> float:
        z = cmath.exp(1j * t)
        a, b = eval_series(F1, z), eval_series(F2, z)
        try:
            return abs(a) + abs(b)
        except OverflowError:
            return math.inf

    return _polish_argmax(at, t0, v0, step)


def _sup_at_one(F1: AnalyticSeries, F2: AnalyticSeries
                ) -> tuple[tuple[float, float] | None, float]:
    """The circle maximum of |F1| + |F2| and its angle 0.0 when z = 1
    attains it, else None; and S, the bound below, which the scan's error
    bound reads too.

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
        return (at_one, 0.0), top
    return None, top


def paired_boundary_sup(F1: AnalyticSeries, F2: AnalyticSeries
                        ) -> tuple[float, float]:
    """Maximum of |F1| + |F2| over the unit circle and the angle attaining
    it; with F2 = ZERO, the maximum of |F1|.

    When _sup_at_one decides the maximum from the coefficients, it returns
    the value at z = 1 with angle 0.0, with no scan.  Otherwise it returns
    what a Horner scan gives: the grid values of |F1| + |F2| by np.polyval
    at t_j = j (2 pi / n), j < n = scan_angles(degree), then _paired_polish
    from the first grid argmax, so ties resolve to the smallest angle.
    Overflow is silent; _classify rejects a non-finite maximum.

    Horner runs at a few of those angles only.  One 2-column circle_values
    transform gives every grid value in O(n log n), within err of its
    Horner value (below).  The candidates are the grid points whose
    transform value lies within 2 err of the transform's maximum; Horner
    runs there alone.  A point left out has a Horner value below
    max - err, and the transform's argmax, a candidate, has one of at
    least max - err, so the first Horner argmax is a candidate and the
    result is the full scan's bit for bit.

    err bounds |transform value - Horner value| at a grid point.  With S
    the coefficient sum of both series (from _sup_at_one), d the degree
    and u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 5 and 24): the transform is within circle_values_error(n) S of the
    values at the roots of unity w_j.  t_j carries three roundings (of
    2 pi, the step and the product), so it is within 6 pi u < 19 u of
    2 pi j / n, and exp adds under 2 u: z_j lies within 21 u of w_j, which
    moves each series by at most 21 u sum k |c_k| <= 21 d u S.  Horner at
    z_j, one complex product (error sqrt(2) gamma_2) and one sum per
    coefficient, is within about 4 d u S of the series there, and the
    moduli and their sum round each side by 3 u S at most.  So
    err = (circle_values_error(n) + 32 (d + 1) u) S leaves room for the
    rounding of S and of the floor max - 2 err, and 16 (n + d) 2^-1074 is
    added for products that underflow, whose absolute error the relative
    model misses.  Where the floor is not finite, or 2 S overflows so that
    a Horner partial sum might, every grid point is a candidate: the full
    Horner scan, overflow included.
    """
    decided, top = _sup_at_one(F1, F2)
    if decided:
        return decided
    cols = coefficient_columns(F1, F2)
    with np.errstate(over="ignore", invalid="ignore"):
        mods = np.abs(circle_values(cols, scan_angles(len(cols) - 1)))
        return _transform_sup(F1, F2, cols, mods, top)


def _transform_sup(F1: AnalyticSeries, F2: AnalyticSeries, cols: np.ndarray,
                   mods: np.ndarray, top: float) -> tuple[float, float]:
    """paired_boundary_sup below its z = 1 exit: the candidate Horner
    rule and the polish, from ``mods``, the moduli of the 2-column
    transform of ``cols`` (= coefficient_columns(F1, F2)) on
    n = scan_angles(degree) angles, with ``top`` from _sup_at_one.  The
    zeta sweep passes the transform it reads its sections from, so its
    family maximum is this one bit for bit.  Callers ignore overflow."""
    n, d = len(mods), len(cols) - 1
    step = _TWO_PI / n
    err = ((circle_values_error(n) + 32 * (d + 1) * _UNIT_ROUNDOFF) * top
           + 16 * (n + d) * _SMALLEST_SUBNORMAL)
    grid = mods[:, 0] + mods[:, 1]
    floor = float(grid.max()) - 2.0 * err
    if math.isfinite(floor) and math.isfinite(2.0 * top):
        idx = (grid >= floor).nonzero()[0]
    else:
        idx = np.arange(n)
    ts = idx * step
    vals = np.abs(np.polyval(cols[::-1, :, None], np.exp(1j * ts)))
    vals[0] += vals[1]
    k = int(np.argmax(vals[0]))
    return _paired_polish(F1, F2, ts[k], vals[0, k], step)


def _classify(measured_sup: float, params: ClassParams) -> Verdict:
    """The band around lam is absolute, widened to ``sup_tolerance * lam``
    once the rounding of a sup near a large lam outgrows it."""
    if not math.isfinite(measured_sup):
        raise ParameterError("boundary values overflow")
    band = max(params.boundary_band, params.sup_tolerance * params.lam)
    if measured_sup > params.lam + band:
        return Verdict.NON_MEMBER
    if measured_sup < params.lam - band:
        return Verdict.MEMBER
    return Verdict.BOUNDARY_SHARP


def harmonic_membership(f: HarmonicMap, params: ClassParams
                        ) -> MembershipReport:
    """Three-way membership verdict for a harmonic map."""
    sup, angle = paired_boundary_sup(deficiency(f.h), deficiency(f.g))
    return MembershipReport(
        verdict=_classify(sup, params),
        measured_sup=sup,
        margin=params.lam - sup,
        witness_angle=angle,
        justification=_JUSTIFICATION,
    )


@dataclass(frozen=True)
class ZetaFamilyScan:
    """Boundary suprema of the sections A + zeta B over sampled zeta.

    ``sups[k]`` is the grid maximum of the section at ``phases[k]``, within
    a proven bound below its sup (see zeta_family_sup), so a sampled lower
    bound on ``max_sup``, the sup over every unimodular zeta, which the
    section with phase ``witness_phase`` attains.  ``max_sup`` and the
    angle behind ``witness_phase`` are paired_boundary_sup(A, B), bit for
    bit, read from the transform that ``sups`` come from.
    """

    phases: np.ndarray
    sups: np.ndarray
    max_sup: float
    witness_phase: float


def zeta_family_sup(A: AnalyticSeries, B: AnalyticSeries, zeta_samples: int
                    ) -> ZetaFamilyScan:
    """Max over unimodular zeta of the boundary sup of A + zeta B.

    One 2-column circle_values transform gives the values va, vb of A and B
    on n = scan_angles(degree) angles; the sections and the family maximum
    are both read from it.

    The maximum over every zeta has a closed form: pointwise, max over
    zeta of |A + zeta B| is |A| + |B|, reached at
    zeta = e^{i(arg A - arg B)}.  So ``max_sup`` and its angle are
    paired_boundary_sup(A, B): _sup_at_one when z = 1 attains the
    coefficient bound, else _transform_sup on this transform, the one
    candidate Horner rule and polish.  The witness phase is
    arg A - arg B at that angle, arg A(1) - arg B(1) at the exit.  A
    non-finite ``max_sup`` raises ParameterError before any section is
    read.  The transform is taken either way: the rows need it.

    Each zeta row's grid argmax comes from a real rank-3 product, and
    ``sups`` holds the grid maximum itself.  With
    M2 = sum k^2 (|A_k| + |B_k|), every section F = A + zeta B has
    |F''(theta)| <= M2.  Its true maximiser lies within pi/n of a grid
    angle, and there F is orthogonal to F' (|F| has zero slope), so up to
    rounding

        sups[k] <= sup |A + zeta_k B| <= sups[k] + M2 pi^2 / (2 n^2).
    """
    if zeta_samples < 8:
        raise ParameterError("need at least 8 zeta samples")
    decided, top = _sup_at_one(A, B)
    cols = coefficient_columns(A, B)
    n = scan_angles(len(cols) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = circle_values(cols, n)
        mods = np.abs(vals)
        max_sup, angle = decided or _transform_sup(A, B, cols, mods, top)
    if not math.isfinite(max_sup):
        raise ParameterError("boundary values overflow")
    va, vb = np.ascontiguousarray(vals.T)
    phases = _TWO_PI * np.arange(zeta_samples) / zeta_samples
    zetas = np.exp(1j * phases)
    # |a + e^{i phi} b|^2 = |a|^2 + |b|^2 + 2 Re(e^{i phi} b conj(a)): each
    # zeta row's grid argmax is that of a real rank-3 product, taken in
    # blocks of about 2**16 grid values.  Scaling by the largest modulus
    # keeps the squares finite wherever the moduli are.
    s = float(np.max(mods)) or 1.0
    a, b = va / s, vb / s
    w = b * np.conj(a)
    quad = np.stack([a.real**2 + a.imag**2 + b.real**2 + b.imag**2,
                     2.0 * w.real, -2.0 * w.imag])
    trig = np.stack([np.ones(zeta_samples), np.cos(phases), np.sin(phases)],
                    axis=1)
    rows = max(1, 2**16 // n)
    ks = np.concatenate([
        np.argmax(trig[r:r + rows] @ quad, axis=1)
        for r in range(0, zeta_samples, rows)
    ])
    sups = np.abs(va[ks] + zetas * vb[ks])

    z = cmath.exp(1j * angle)
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = eval_series(A, z), eval_series(B, z)
    witness = (cmath.phase(a) - cmath.phase(b)) % _TWO_PI
    return ZetaFamilyScan(
        phases=phases, sups=sups, max_sup=max_sup, witness_phase=witness
    )


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
    bit: zeta_family_sup reads it with paired_boundary_sup's candidate
    Horner rule and polish, from the transform its rows come from.  The
    polished maximum is at least the grid's |va| + |vb| less that rule's
    transform error bound, and the grid bounds each section's grid value,
    so the gap checks the sweep's row product against the maximum, not
    the transform: a transform error moves the sections and the grid
    alike.  The tests check each row against a rebuilt section's scan.
    """
    scan = zeta_family_sup(deficiency(f.h), deficiency(f.g), zeta_samples)
    harmonic_sup = scan.max_sup
    top = float(np.max(scan.sups))
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
    for n in range(2, f.degree + 1):
        total += (n - 1) * (abs(f.h.coeff(n)) + abs(f.g.coeff(n)))
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
    for n in range(2, f.degree + 1):
        bound = params.lam / (n - 1)
        for side, series_ in (("a", f.h), ("b", f.g)):
            value = abs(series_.coeff(n))
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
