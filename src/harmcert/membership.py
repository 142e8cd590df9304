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

import numpy as np

from .errors import ConsistencyError, NormalizationError, ParameterError
from .series import (
    COEFF_TOL,
    AnalyticSeries,
    deficiency,
    eval_array,
    eval_series,
    scan_angles,
)

_TWO_PI = 2.0 * math.pi
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Every golden-section polish over a circle angle stops once its bracket
# is this narrow.
_POLISH_WIDTH = 1e-9

_ANALYTIC_JUSTIFICATION = (
    "deficiency image vanishes at the origin, so its open-disk supremum is "
    "the boundary maximum; a boundary maximum at or below the level "
    "certifies the strict interior inequality"
)
_HARMONIC_JUSTIFICATION = (
    "sum of moduli of two deficiency images vanishing at the origin is "
    "subharmonic, so its open-disk supremum is the boundary maximum; a "
    "boundary maximum at or below the level certifies the strict interior "
    "inequality"
)


class Verdict(Enum):
    MEMBER = "Member"
    BOUNDARY_SHARP = "BoundarySharp"
    NON_MEMBER = "NonMember"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ClassParams:
    """Level lam > 0 plus the numerical tolerances of the verdict bands."""

    lam: float
    sup_tolerance: float = 1e-9
    boundary_band: float = 1e-6

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ParameterError(
                f"lam must be positive and finite, got {self.lam!r}"
            )
        if not (self.sup_tolerance > 0.0 and self.boundary_band > 0.0):
            raise ParameterError("tolerances must be positive")


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

    def eval_array(self, zs: np.ndarray) -> np.ndarray:
        return eval_array(self.h, zs) + np.conj(eval_array(self.g, zs))


@dataclass(frozen=True)
class MembershipReport:
    verdict: Verdict
    measured_sup: float
    margin: float
    witness_angle: float
    justification: str


def _golden_max_rows(batch, centers: np.ndarray, step: float) -> np.ndarray:
    """Golden-section maximization over [center - step, center + step], one
    bracket per row, run in lockstep down to ``_POLISH_WIDTH``.

    The per-zeta rows of zeta_family_sup use it; a single cell goes through
    _polish_argmax.  ``batch(ts)`` evaluates row j's objective at ``ts[j]``.
    Every bracket has the same width, so one scalar tracks the stopping
    rule for all rows.  As in _polish_argmax, each step evaluates one new
    point per row and keeps the better interior point, so the better of the
    two it holds at the end is the best value seen in that row.  The caller
    compares it with the grid value at the centre, which the search never
    evaluates.
    """
    lo = centers - step
    hi = centers + step
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = batch(c), batch(d)
    width = 2.0 * step
    while width > _POLISH_WIDTH:
        left = fc >= fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        c, d = (np.where(left, hi - _INV_PHI * (hi - lo), d),
                np.where(left, c, lo + _INV_PHI * (hi - lo)))
        fnew = batch(np.where(left, c, d))
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
        width *= _INV_PHI
    return np.maximum(fc, fd)


def _circle_extremum(objective, degree: int) -> tuple[float, float]:
    """Maximum of a real objective over the unit circle and the angle
    attaining it, for series of degree at most ``degree``.

    ``objective(ev, z)`` is written once for both evaluation routes: the
    grid of scan_angles(degree) equispaced points is scanned with
    ``ev = eval_array`` on an array of points, then _polish_argmax polishes
    the grid argmax with ``ev = eval_series`` at single points.  Overflow
    is silent; _classify rejects a non-finite maximum.
    """
    thetas = np.linspace(0.0, _TWO_PI, scan_angles(degree), endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = objective(eval_array, np.exp(1j * thetas))
        return _polish_argmax(
            lambda t: objective(eval_series, cmath.exp(1j * t)), thetas, vals
        )


def _polish_argmax(fn, thetas: np.ndarray, vals: np.ndarray
                   ) -> tuple[float, float]:
    """Golden-section polish of ``fn(t)``, a scalar objective of the angle,
    over the two grid cells around the argmax of its grid values ``vals``
    on ``thetas``, down to ``_POLISH_WIDTH``: the one single-cell polish.
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


def boundary_sup(F: AnalyticSeries) -> tuple[float, float]:
    """Maximum of |F| over the unit circle and the angle attaining it.

    Scans an equispaced grid of scan_angles(degree) angles, then polishes
    the best cell with a golden-section search.  Ties on the grid resolve
    to the smallest angle.
    """
    return _circle_extremum(lambda ev, z: abs(ev(F, z)), F.degree)


def paired_boundary_sup(F1: AnalyticSeries, F2: AnalyticSeries
                        ) -> tuple[float, float]:
    """Maximum of |F1| + |F2| over the unit circle, refined as boundary_sup."""
    return _circle_extremum(
        lambda ev, z: abs(ev(F1, z)) + abs(ev(F2, z)),
        max(F1.degree, F2.degree),
    )


def _classify(measured_sup: float, params: ClassParams) -> Verdict:
    if not math.isfinite(measured_sup):
        raise ParameterError("boundary values overflow")
    if measured_sup > params.lam + params.boundary_band:
        return Verdict.NON_MEMBER
    if measured_sup < params.lam - params.boundary_band:
        return Verdict.MEMBER
    return Verdict.BOUNDARY_SHARP


def analytic_membership(F: AnalyticSeries, params: ClassParams
                        ) -> MembershipReport:
    """Three-way membership verdict for a normalized series."""
    if not F.is_normalized():
        raise NormalizationError("membership needs a normalized series")
    sup, angle = boundary_sup(deficiency(F))
    return MembershipReport(
        verdict=_classify(sup, params),
        measured_sup=sup,
        margin=params.lam - sup,
        witness_angle=angle,
        justification=_ANALYTIC_JUSTIFICATION,
    )


def harmonic_membership(f: HarmonicMap, params: ClassParams
                        ) -> MembershipReport:
    """Three-way membership verdict for a harmonic map."""
    sup, angle = paired_boundary_sup(deficiency(f.h), deficiency(f.g))
    return MembershipReport(
        verdict=_classify(sup, params),
        measured_sup=sup,
        margin=params.lam - sup,
        witness_angle=angle,
        justification=_HARMONIC_JUSTIFICATION,
    )


@dataclass(frozen=True)
class ZetaFamilyScan:
    """Boundary suprema of the sections A + zeta B over sampled zeta.

    ``max_sup`` is the sup over every phase in the best sample's cell,
    ``phases[k] +- 2 pi / len(phases)``, attained at ``witness_phase``.
    """

    phases: np.ndarray
    sups: np.ndarray
    max_sup: float
    witness_phase: float


def zeta_family_sup(A: AnalyticSeries, B: AnalyticSeries, zeta_samples: int
                    ) -> ZetaFamilyScan:
    """Max over unimodular zeta of the boundary sup of A + zeta B.

    Sections are read as |va + zeta vb| from one grid evaluation each of A
    and B, and the per-zeta suprema are polished over the angle in
    lockstep.  The best zeta cell, phases[k] +- 2 pi / zeta_samples, is
    then refined exactly: at each angle the best phase in the cell has a
    closed form, so its family sup is one circle extremum, scanned on the
    same two arrays and polished by _polish_argmax.  The witness phase is
    the cell's best phase at the polished angle.
    """
    if zeta_samples < 8:
        raise ParameterError("need at least 8 zeta samples")
    n = scan_angles(max(A.degree, B.degree))
    thetas = np.linspace(0.0, _TWO_PI, n, endpoint=False)
    ring = np.exp(1j * thetas)
    va = eval_array(A, ring)
    vb = eval_array(B, ring)
    phases = _TWO_PI * np.arange(zeta_samples) / zeta_samples
    zetas = np.exp(1j * phases)
    # Grid argmax per zeta row, in blocks of about 2**16 grid values.
    rows = max(1, 2**16 // n)
    ks = np.concatenate([
        np.argmax(np.abs(va + zetas[r:r + rows, None] * vb), axis=1)
        for r in range(0, zeta_samples, rows)
    ])
    step = _TWO_PI / n

    def batch(ts: np.ndarray) -> np.ndarray:
        zs = np.exp(1j * ts)
        return np.abs(eval_array(A, zs) + zetas * eval_array(B, zs))

    polished = _golden_max_rows(batch, thetas[ks], step)
    sups = np.maximum(np.abs(va[ks] + zetas * vb[ks]), polished)

    k = int(np.argmax(sups))
    center, half = phases[k], _TWO_PI / zeta_samples

    def section(a, b):
        # |a + e^{i phi} b|^2 = |a|^2 + |b|^2 + 2|a||b| cos(phi - arg(a/b))
        # peaks at phi = arg a - arg b; over the cell, at that phase taken
        # within pi of the centre and clipped to the cell.
        off = (np.angle(a) - np.angle(b) - center + math.pi) % _TWO_PI
        phi = center + np.clip(off - math.pi, -half, half)
        return np.abs(a + np.exp(1j * phi) * b), phi

    def at(t: float):
        z = cmath.exp(1j * t)
        return section(eval_series(A, z), eval_series(B, z))

    refined, angle = _polish_argmax(
        lambda t: at(t)[0], thetas, section(va, vb)[0]
    )
    if refined > sups[k]:
        max_sup, witness = refined, float(at(angle)[1] % _TWO_PI)
    else:
        max_sup, witness = float(sups[k]), float(phases[k])
    return ZetaFamilyScan(
        phases=phases, sups=sups, max_sup=max_sup, witness_phase=witness
    )


@dataclass(frozen=True)
class StableFamilyReport:
    scan: ZetaFamilyScan
    harmonic_sup: float
    gap: float
    identity_checked: bool


def stable_family_check(f: HarmonicMap, params: ClassParams,
                        zeta_samples: int = 256) -> StableFamilyReport:
    """Cross-check the family of analytic sections against the harmonic scan.

    For every unimodular zeta the section h + zeta g must obey the analytic
    inequality exactly when the map obeys the harmonic one; pointwise the
    sup over zeta of |A + zeta B| is |A| + |B|, so the family maximum must
    reproduce the harmonic supremum.  When the sample count is a multiple
    of 4 (degree + 1) the two are required to agree within sup_tolerance.
    """
    A = deficiency(f.h)
    B = deficiency(f.g)
    scan = zeta_family_sup(A, B, zeta_samples)
    harmonic_sup, _ = paired_boundary_sup(A, B)
    gap = abs(scan.max_sup - harmonic_sup)
    checked = zeta_samples % (4 * (f.degree + 1)) == 0
    if checked and gap > params.sup_tolerance:
        raise ConsistencyError(
            f"family max {scan.max_sup!r} disagrees with harmonic sup "
            f"{harmonic_sup!r} by {gap!r}"
        )
    return StableFamilyReport(
        scan=scan, harmonic_sup=harmonic_sup, gap=gap, identity_checked=checked
    )


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
    the boundary scan must return NonMember.
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
                violated=value > bound + params.sup_tolerance,
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
