"""Geometric audits: envelopes, certified radii, closure, boundary curves.

Radii are certified by one bisection on rings |z| = r for every section
F = h + zeta g at once.  The ring functional is Re(z F'/F) for
starlikeness and Re(1 + z F''/F') for convexity.  Each ring counts the
zeros of the denominator (F, or F') inside it by the argument principle
from the ring values already computed; when F has only its zero at the
origin, or F' none, the functional is the real part of a function analytic
on the closed sub-disk, so by the minimum principle a positive ring
minimum certifies the property up to that radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConsistencyError, NonMemberError, ParameterError
from .membership import (
    ClassParams,
    HarmonicMap,
    MembershipReport,
    Verdict,
    _golden_max_rows,
    harmonic_membership,
    paired_boundary_sup,
    zeta_family_sup,
)
from .series import (
    ZERO,
    AnalyticSeries,
    EvalGrid,
    derivative,
    eval_array,
    hadamard,
    linear_combination,
    scan_angles,
)

_TWO_PI = 2.0 * math.pi


class RadiusKind(Enum):
    STARLIKE = "Starlike"
    CONVEX = "Convex"


@dataclass(frozen=True)
class RadiusCertificate:
    """Largest ring radius at which the ring test passed.

    ``inner_margin`` is the functional minimum one step inside the
    certified radius and must be positive; when the radius is below 1 the
    ``outer_witness`` records a ring at most one step outside, and an angle
    on it, where the functional dropped to zero or below or the zero count
    of its denominator was not the one allowed.  ``rings`` is the number of
    rings evaluated.
    """

    kind: RadiusKind
    radius: float
    inner_margin: float
    outer_witness: tuple[float, float] | None
    rings: int


@dataclass(frozen=True)
class EnvelopeAudit:
    max_violation: float
    violations: dict[str, float]
    tightness: dict[str, float]
    worst_point: complex


@dataclass(frozen=True)
class JacobianAudit:
    max_violation: float
    max_ratio: float
    sense_preserving: bool
    worst_point: complex


@dataclass(frozen=True)
class DifferentialTestResult:
    passes: bool
    measured_max: float
    threshold: float
    membership: MembershipReport


@dataclass(frozen=True)
class CurveAudit:
    thetas: np.ndarray
    points: np.ndarray
    polygonal_length: float
    max_lipschitz_ratio: float
    min_pairwise_gap: float
    max_modulus: float


def growth_envelope_check(f: HarmonicMap, params: ClassParams,
                          grid: EvalGrid) -> EnvelopeAudit:
    """Audit the modulus and derivative envelopes on a disk grid.

    At every grid point the map modulus must stay between
    |z| - lam |z|^2 and |z| + lam |z|^2, and the derivative pair must obey
    1 - 2 lam |z| <= |h'| - |g'| together with |h'| + |g'| <= 1 + 2 lam |z|.
    """
    angles = max(grid.boundary_angles, scan_angles(f.degree))
    rep = harmonic_membership(f, params, angles=angles)
    if rep.verdict is Verdict.NON_MEMBER:
        raise NonMemberError("envelope audit needs a class member")
    lam = params.lam
    zs = grid.points()
    r = np.abs(zs)
    af = np.abs(f.eval_array(zs))
    hp = np.abs(eval_array(derivative(f.h), zs))
    gp = np.abs(eval_array(derivative(f.g), zs))
    excess = {
        "growth_lower": (r - lam * r * r) - af,
        "growth_upper": af - (r + lam * r * r),
        "deriv_lower": (1.0 - 2.0 * lam * r) - (hp - gp),
        "deriv_upper": (hp + gp) - (1.0 + 2.0 * lam * r),
    }
    violations = {k: float(max(0.0, v.max())) for k, v in excess.items()}
    tightness = {k: float(-v.max()) for k, v in excess.items()}
    worst_key = max(excess, key=lambda k: excess[k].max())
    worst_point = complex(zs[int(np.argmax(excess[worst_key]))])
    return EnvelopeAudit(
        max_violation=max(violations.values()),
        violations=violations,
        tightness=tightness,
        worst_point=worst_point,
    )


def jacobian_bound_check(f: HarmonicMap, params: ClassParams,
                         grid: EvalGrid) -> JacobianAudit:
    """Audit |h'|^2 - |g'|^2 against (1 + 2 lam |z|)^2 on a disk grid."""
    lam = params.lam
    zs = grid.points()
    r = np.abs(zs)
    hp = np.abs(eval_array(derivative(f.h), zs))
    gp = np.abs(eval_array(derivative(f.g), zs))
    jac = hp * hp - gp * gp
    bound = (1.0 + 2.0 * lam * r) ** 2
    excess = jac - bound
    k = int(np.argmax(excess))
    return JacobianAudit(
        max_violation=float(max(0.0, excess[k])),
        max_ratio=float(np.max(jac / bound)),
        sense_preserving=bool(np.all(jac > 0.0)),
        worst_point=complex(zs[k]),
    )


def _section_rings(a: AnalyticSeries, b: AnalyticSeries, zetas: np.ndarray,
                   kind: RadiusKind, angles: int):
    """Ring test of every section h + zeta g at once, as ``ring(r)``.

    The denominators are D = a + zeta b for STARLIKE and D = a' + zeta b'
    for CONVEX; the functional is offset + Re(z D'/D) with offset 0 or 1.
    ``ring(r)`` returns the minimum of the functional over all sections on
    |z| = r and the angle attaining it.  It returns -inf when the zero count
    of some denominator inside the ring is not proven to be 1 (STARLIKE) or
    0 (CONVEX), at the grid angle where that denominator is smallest.
    """
    if kind is RadiusKind.STARLIKE:
        da, db, offset, zeros = a, b, 0.0, 1
    else:
        da, db, offset, zeros = derivative(a), derivative(b), 1.0, 0
    series = (da, db, derivative(da), derivative(db))
    m = max(len(da.coeffs), len(db.coeffs))
    powers = np.arange(m)
    # Column per series, for the polish's power-matrix product.
    coeffs = np.zeros((m, 4), dtype=complex)
    for j, F in enumerate(series):
        coeffs[:len(F.coeffs), j] = F.coeffs
    # M1(r) = slope . r^powers bounds |D'| on |z| = r for every section.
    slope = np.abs(coeffs[:, 2]) + np.abs(coeffs[:, 3])
    thetas = np.linspace(0.0, _TWO_PI, angles, endpoint=False)
    unit = np.exp(1j * thetas)
    step = _TWO_PI / angles
    rows = max(1, 2**14 // angles)

    def ring(r: float) -> tuple[float, float]:
        z = r * unit
        va, vb, na, nb = (eval_array(F, z) for F in series)
        # D moves by at most delta along one grid cell.  If delta stays
        # below pi (|D(z_k)| - delta) on every cell, D has no zero on the
        # ring and each cell turns arg D by the principal angle of
        # D(z_{k+1}) / D(z_k), so their sum counts the zeros inside.
        delta = r * step * float(slope @ r ** powers)
        ks, grid = [], []
        for start in range(0, len(zetas), rows):
            zb = zetas[start:start + rows, None]
            D = va + zb * vb
            mod = np.abs(D)
            j = int(np.argmin(mod))
            if delta >= math.pi * (mod.flat[j] - delta):
                return -math.inf, float(thetas[j % angles])
            turn = np.angle(np.roll(D, -1, axis=1) * np.conj(D)).sum(axis=1)
            bad = np.flatnonzero(np.rint(turn / _TWO_PI) != zeros)
            if bad.size:
                return -math.inf, float(thetas[np.argmin(mod[bad[0]])])
            neg = -(offset + (z * (na + zb * nb) / D).real)
            k = np.argmax(neg, axis=1)
            ks.append(k)
            grid.append(neg[np.arange(len(k)), k])
        ks, grid = np.concatenate(ks), np.concatenate(grid)
        i = int(np.argmax(grid))
        if grid[i] >= 0.0:
            # A grid point already fails the ring; polishing only lowers it.
            return -float(grid[i]), float(thetas[ks[i]])
        rk = r ** powers

        def batch(ts: np.ndarray) -> np.ndarray:
            zs = r * np.exp(1j * ts)
            v = (np.exp(1j * np.outer(ts, powers)) * rk) @ coeffs
            d = v[:, 0] + zetas * v[:, 1]
            n = v[:, 2] + zetas * v[:, 3]
            return -(offset + (zs * n / d).real)

        xs, polished = _golden_max_rows(batch, thetas[ks], step)
        worst = np.maximum(grid, polished)
        i = int(np.argmax(worst))
        angle = xs[i] % _TWO_PI if polished[i] > grid[i] else thetas[ks[i]]
        return -float(worst[i]), float(angle)

    return ring


def _certify(a: AnalyticSeries, b: AnalyticSeries, zetas: np.ndarray,
             kind: RadiusKind, tol: float) -> RadiusCertificate:
    """One bisection over r for all sections a + zeta b together."""
    if not 0.0 < tol < 0.5:
        raise ParameterError("tol must lie in (0, 0.5)")
    section_rings = _section_rings(a, b, zetas, kind,
                                   scan_angles(max(a.degree, b.degree)))
    rings = 0

    def ring(r: float) -> tuple[float, float]:
        nonlocal rings
        rings += 1
        return section_rings(r)

    probe = 1.0 - tol
    m_probe, ang_probe = ring(probe)
    if m_probe > 0.0:
        return RadiusCertificate(
            kind=kind, radius=1.0, inner_margin=m_probe,
            outer_witness=None, rings=rings,
        )
    hi, hi_ang = probe, ang_probe
    lo = hi / 2.0
    m_lo, _ = ring(lo)
    halvings = 0
    while m_lo <= 0.0 and halvings < 60:
        lo /= 2.0
        m_lo, _ = ring(lo)
        halvings += 1
    if m_lo <= 0.0:
        raise ConsistencyError("functional not positive near the origin")
    for _ in range(100):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        m_mid, ang_mid = ring(mid)
        if m_mid > 0.0:
            lo = mid
        else:
            hi, hi_ang = mid, ang_mid
    inner_r = lo - tol if lo > tol else 0.5 * lo
    inner_margin, _ = ring(inner_r)
    if inner_margin <= 0.0:
        raise ConsistencyError(
            f"certificate failed: functional non-positive at {inner_r!r}"
        )
    return RadiusCertificate(
        kind=kind, radius=lo, inner_margin=inner_margin,
        outer_witness=(hi, hi_ang), rings=rings,
    )


def radius_certify(F: AnalyticSeries, kind: RadiusKind,
                   tol: float = 1e-4) -> RadiusCertificate:
    """Bisect for the largest ring radius on which the test proves positive.

    A ring passes when the zero count of the denominator inside it is the
    one allowed (F only at the origin, F' nowhere) and the polished ring
    minimum of the functional is positive; by the minimum principle the
    functional is then positive on the whole closed sub-disk.  A radius of
    1 is returned capped when the ring at 1 - tol passes.
    """
    if not F.is_normalized():
        raise ParameterError("radius certification needs a normalized series")
    return _certify(F, ZERO, np.ones(1, dtype=complex), kind, tol)


def harmonic_radius_certify(f: HarmonicMap, params: ClassParams,
                            kind: RadiusKind, tol: float = 1e-4,
                            zeta_samples: int = 16) -> RadiusCertificate:
    """Stable-family radius: one bisection over all sampled sections h + zeta g.

    A ring passes only when it passes for every section, so the result is
    the worst section's radius up to ``tol``.  For a certified member it
    must reach the class floor, 1/(2 lam) for starlikeness and 1/(4 lam)
    for convexity, both capped at 1; falling short raises ConsistencyError.
    """
    if zeta_samples < 1:
        raise ParameterError("need at least one zeta sample")
    rep = harmonic_membership(f, params)
    if rep.verdict is Verdict.NON_MEMBER:
        raise NonMemberError("radius certification needs a class member")
    zetas = np.exp(_TWO_PI * 1j * np.arange(zeta_samples) / zeta_samples)
    cert = _certify(f.h, f.g, zetas, kind, tol)
    if kind is RadiusKind.STARLIKE:
        floor = min(1.0, 1.0 / (2.0 * params.lam))
    else:
        floor = min(1.0, 1.0 / (4.0 * params.lam))
    if cert.radius < floor - tol:
        raise ConsistencyError(
            f"certified {kind.value} radius {cert.radius!r} fell below the "
            f"class floor {floor!r}"
        )
    return cert


def _second_derivative(F: AnalyticSeries) -> AnalyticSeries:
    return derivative(derivative(F))


def _euler_image(F: AnalyticSeries) -> AnalyticSeries:
    # z^2 F'' + z F' - F acts coefficientwise as c_n -> (n^2 - 1) c_n.
    return AnalyticSeries(tuple((n * n - 1) * c for n, c in enumerate(F.coeffs)))


def _differential_test(h: AnalyticSeries, g: AnalyticSeries,
                       params: ClassParams, zeta_samples: int,
                       image, threshold: float) -> DifferentialTestResult:
    f = HarmonicMap(h=h, g=g)
    A = image(h)
    B = image(g)
    measured, _ = paired_boundary_sup(A, B)
    scan = zeta_family_sup(A, B, zeta_samples)
    if abs(scan.max_sup - measured) > 1e-9 * max(1.0, measured):
        raise ConsistencyError(
            f"family scan {scan.max_sup!r} disagrees with direct scan "
            f"{measured!r}"
        )
    passes = measured <= threshold + params.sup_tolerance
    rep = harmonic_membership(f, params)
    if passes and rep.verdict is Verdict.NON_MEMBER:
        raise ConsistencyError(
            "sufficient test passed on a map the boundary scan rejects"
        )
    return DifferentialTestResult(
        passes=passes, measured_max=measured, threshold=threshold,
        membership=rep,
    )


def second_derivative_test(h: AnalyticSeries, g: AnalyticSeries,
                           params: ClassParams,
                           zeta_samples: int = 64) -> DifferentialTestResult:
    """Sufficient test: family supremum of |h'' + zeta g''| at most 2 lam.

    Passing implies membership; the threshold is attained by the quadratic
    member with top coefficient lam, so no smaller constant works.
    """
    return _differential_test(
        h, g, params, zeta_samples, _second_derivative, 2.0 * params.lam
    )


def euler_operator_test(h: AnalyticSeries, g: AnalyticSeries,
                        params: ClassParams,
                        zeta_samples: int = 64) -> DifferentialTestResult:
    """Sufficient test via z^2 F'' + z F' - F, threshold 3 lam, same contract."""
    return _differential_test(
        h, g, params, zeta_samples, _euler_image, 3.0 * params.lam
    )


def convolve_members(f1: HarmonicMap, f2: HarmonicMap, params: ClassParams
                     ) -> tuple[HarmonicMap, MembershipReport]:
    """Coefficientwise product of two members plus a fresh verdict.

    Closure is guaranteed for lam <= 1, and a NonMember verdict there is a
    numerical fault; for larger lam the operation still runs and the
    report is advisory.
    """
    for f in (f1, f2):
        if harmonic_membership(f, params).verdict is Verdict.NON_MEMBER:
            raise NonMemberError("convolution closure needs member inputs")
    out = HarmonicMap(h=hadamard(f1.h, f2.h), g=hadamard(f1.g, f2.g))
    rep = harmonic_membership(out, params)
    if params.lam <= 1.0 and rep.verdict is Verdict.NON_MEMBER:
        raise ConsistencyError("convolution of members scanned as NonMember")
    return out, rep


def convex_combination(fs, weights, params: ClassParams
                       ) -> tuple[HarmonicMap, MembershipReport]:
    """Weighted average of members; the class is closed under this."""
    fs = list(fs)
    weights = [float(w) for w in weights]
    if not fs or len(fs) != len(weights):
        raise ParameterError("need matching non-empty maps and weights")
    if any(w < -1e-12 or w > 1.0 + 1e-12 for w in weights):
        raise ParameterError("weights must lie in [0, 1]")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ParameterError("weights must sum to 1")
    for f in fs:
        if harmonic_membership(f, params).verdict is Verdict.NON_MEMBER:
            raise NonMemberError("convex combination needs member inputs")
    h = linear_combination([(w, f.h) for w, f in zip(weights, fs)])
    g = linear_combination([(w, f.g) for w, f in zip(weights, fs)])
    out = HarmonicMap(h=h, g=g)
    rep = harmonic_membership(out, params)
    if rep.verdict is Verdict.NON_MEMBER:
        raise ConsistencyError("convex combination of members scanned as NonMember")
    return out, rep


def _min_nonadjacent_gap(pts: np.ndarray) -> float:
    """Smallest distance between two samples that are not curve neighbours.

    Sweep over the samples sorted by real part: the pairs k places apart in
    that order are compared for k = 1, 2, ... until every such pair is at
    least the best gap apart in the real part alone, after which no later
    pair can be closer.
    """
    n = len(pts)
    order = np.argsort(pts.real, kind="stable")
    p = pts[order]
    x = p.real
    best = math.inf
    for k in range(1, n):
        if float(np.min(x[k:] - x[:-k])) >= best:
            break
        d = np.abs(p[k:] - p[:-k])
        sep = np.abs(order[k:] - order[:-k])
        d[(sep == 1) | (sep == n - 1)] = math.inf
        best = min(best, float(d.min()))
    return best


def boundary_curve_audit(f: HarmonicMap, params: ClassParams,
                         samples: int = 2048) -> CurveAudit:
    """Sample the boundary image curve and audit length and Lipschitz data.

    The polygonal length of the closed image curve is bounded by
    (1 + 2 lam) 2 pi for members.  The Lipschitz ratio is the circle
    maximum of |h'| + |g'|: that sum is subharmonic, so its boundary
    maximum bounds the difference quotient between any two points of the
    closed disk, boundary chords included, and members keep it at most
    1 + 2 lam.  The minimum gap between non-adjacent samples is a
    desk-scale injectivity proxy.
    """
    if samples < 512:
        raise ParameterError("need at least 512 samples")
    rep = harmonic_membership(f, params)
    if rep.verdict is Verdict.NON_MEMBER:
        raise NonMemberError("curve audit needs a class member")
    thetas = np.linspace(0.0, _TWO_PI, samples, endpoint=False)
    pts = f.eval_array(np.exp(1j * thetas))
    lipschitz, _ = paired_boundary_sup(derivative(f.h), derivative(f.g))
    return CurveAudit(
        thetas=thetas,
        points=pts,
        polygonal_length=float(np.sum(np.abs(np.diff(pts, append=pts[:1])))),
        max_lipschitz_ratio=lipschitz,
        min_pairwise_gap=_min_nonadjacent_gap(pts),
        max_modulus=float(np.max(np.abs(pts))),
    )
