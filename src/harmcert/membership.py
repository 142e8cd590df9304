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
    ZERO,
    AnalyticSeries,
    circle_values,
    coefficient_columns,
    deficiency,
    eval_array,
    eval_series,
    scan_angles,
)

_TWO_PI = 2.0 * math.pi
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Unit roundoff of a double.
_UNIT_ROUNDOFF = 2.0**-53
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


def _polish_argmax(fn, thetas: np.ndarray, vals: np.ndarray
                   ) -> tuple[float, float]:
    """Golden-section polish of ``fn(t)``, a scalar objective of the angle,
    over the two grid cells around the argmax of its grid values ``vals``
    on ``thetas``, down to ``_POLISH_WIDTH``: the only golden search.
    The first index wins ties, so ties resolve to the smallest angle.
    """
    k = int(np.argmax(vals))
    step = _TWO_PI / len(thetas)
    a, b = float(thetas[k] - step), float(thetas[k] + step)
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
    if v > vals[k]:
        return float(v), float(x % _TWO_PI)
    return float(vals[k]), float(thetas[k])


def _paired_polish(F1: AnalyticSeries, F2: AnalyticSeries,
                   thetas: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """_polish_argmax of |F1| + |F2| from its grid values ``vals`` on
    ``thetas``, each polish point two eval_series calls: the one objective
    of every paired circle maximum.  A value whose modulus overflows reads
    as infinity, as on the grid."""

    def at(t: float) -> float:
        z = cmath.exp(1j * t)
        a, b = eval_series(F1, z), eval_series(F2, z)
        try:
            return abs(a) + abs(b)
        except OverflowError:
            return math.inf

    return _polish_argmax(at, thetas, vals)


def _sup_at_one(F1: AnalyticSeries, F2: AnalyticSeries
                ) -> tuple[float, float] | None:
    """The circle maximum of |F1| + |F2| and its angle 0.0 when z = 1
    attains it, else None.

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
        return at_one, 0.0
    return None


def paired_boundary_sup(F1: AnalyticSeries, F2: AnalyticSeries
                        ) -> tuple[float, float]:
    """Maximum of |F1| + |F2| over the unit circle and the angle attaining
    it; with F2 = ZERO, the maximum of |F1|.

    When _sup_at_one decides the maximum from the coefficients, it returns
    the value at z = 1 with angle 0.0, with no scan.  Otherwise this scans
    scan_angles(degree) equispaced angles with eval_array, then
    _paired_polish polishes the best cell.  Ties on the grid resolve to the
    smallest angle.  Overflow is silent; _classify rejects a non-finite
    maximum.
    """
    decided = _sup_at_one(F1, F2)
    if decided:
        return decided
    thetas = np.linspace(0.0, _TWO_PI, scan_angles(max(F1.degree, F2.degree)),
                         endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):
        zs = np.exp(1j * thetas)
        vals = abs(eval_array(F1, zs)) + abs(eval_array(F2, zs))
        return _paired_polish(F1, F2, thetas, vals)


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


def analytic_membership(F: AnalyticSeries, params: ClassParams
                        ) -> MembershipReport:
    """Three-way membership verdict for a normalized series: the harmonic
    verdict of F + conj(0), so an unnormalized F raises NormalizationError
    from HarmonicMap."""
    return harmonic_membership(HarmonicMap(F, ZERO), params)


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
    section with phase ``witness_phase`` attains.  ``max_sup`` is the
    maximum of |A| + |B| that paired_boundary_sup returns: decided from
    the coefficients when z = 1 attains it, else polished on the same
    transform grid as ``sups``.
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
    zeta = e^{i(arg A - arg B)}.  So ``max_sup`` is decided as in
    paired_boundary_sup: by _sup_at_one when z = 1 attains the coefficient
    bound, with no polish; otherwise |va| + |vb| is polished by
    _paired_polish, the objective and polish of paired_boundary_sup, which
    scans the same maximum on an eval_array grid instead.  The witness
    phase is arg A - arg B at its angle, arg A(1) - arg B(1) at the exit.
    A non-finite ``max_sup`` raises ParameterError before any section is
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
    n = scan_angles(max(A.degree, B.degree))
    thetas = np.linspace(0.0, _TWO_PI, n, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):
        va, vb = np.ascontiguousarray(
            circle_values(coefficient_columns(A, B), n).T)
        mod_a, mod_b = np.abs(va), np.abs(vb)
        max_sup, angle = (_sup_at_one(A, B)
                          or _paired_polish(A, B, thetas, mod_a + mod_b))
    if not math.isfinite(max_sup):
        raise ParameterError("boundary values overflow")
    phases = _TWO_PI * np.arange(zeta_samples) / zeta_samples
    zetas = np.exp(1j * phases)
    # |a + e^{i phi} b|^2 = |a|^2 + |b|^2 + 2 Re(e^{i phi} b conj(a)): each
    # zeta row's grid argmax is that of a real rank-3 product, taken in
    # blocks of about 2**16 grid values.  Scaling by the largest modulus
    # keeps the squares finite wherever the moduli are.
    s = float(max(np.max(mod_a), np.max(mod_b))) or 1.0
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

    Both come from the one transform grid of zeta_family_sup, and the
    polished maximum is at least the grid's |va| + |vb|, which bounds each
    section's grid value.  So the gap checks the sweep's row product and
    polish against each other, not the transform: a transform error moves
    the sections and the maximum alike.  The transform is checked against
    Horner where the tests compare ``harmonic_sup`` with
    harmonic_membership's eval_array scan and each row with a rebuilt
    section's scan.
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
