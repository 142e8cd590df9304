"""Geometric audits: envelopes, certified radii, closure, boundary curves.

Radii are certified by one safeguarded secant search on rings |z| = r
for every section F = h + zeta g, |zeta| = 1, at once (the stable family
of Hernandez and Martin, 2013): the functional, Re(z F'/F) for
starlikeness and Re(1 + z F''/F') for convexity, is bounded below over
every zeta in closed form, and the search is guided by its ring minimum.
Each ring counts the zeros of the denominator (F, or F') of the section
zeta = 1 inside it by the argument principle; when F has only its zero at the
origin, or F' none, the functional is the real part of a function analytic
on the closed sub-disk, so by the minimum principle a positive ring
minimum certifies the property up to that radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._lazy import np
from .errors import ConsistencyError, NonMemberError, ParameterError
from .membership import (
    ClassParams,
    HarmonicMap,
    MembershipReport,
    Verdict,
    _UNIT_ROUNDOFF,
    _polish_argmax,
    coefficient_sufficient,
    harmonic_membership,
    paired_boundary_sup,
)
from .series import (
    ZERO,
    AnalyticSeries,
    EvalGrid,
    _derived,
    circle_values,
    circle_values_error,
    coefficient_columns,
    count_at_least,
    derivative,
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

    ``inner_margin`` is the positive minimum that the search measured on
    the ring at the certified radius, or on the ring at 1 - tol for a
    capped radius (for g != 0 a lower bound on every section's
    functional); when the radius is below 1 the ``outer_witness`` records
    a ring at most tol outside, and an angle on it, where that minimum
    dropped to zero or below or the zero count of the denominator was not
    the one allowed.  ``rings`` is the number of rings evaluated.  Each
    passing ring is proven positive between its grid angles by a
    first-order bound, or else polished there (_section_rings).
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


def _require_member(f: HarmonicMap, params: ClassParams, message: str
                    ) -> None:
    """Raise NonMemberError(message) unless f may be a class member.

    The paper's coefficient condition is tried first and, when it holds,
    the membership scan is skipped, as it could never say NonMember: on
    the unit circle |h - z h'| + |g - z g'| is at most
    total = sum (n-1)(|a_n| + |b_n|), and the scan's sup is that sum
    evaluated at one angle by Horner (at the z = 1 exit, summed
    coefficients), rounded by at most about 4 (d + 2) u
    of total (complex Horner, Higham ch. 5; d the degree, u = 2^-53), as
    is total itself.  So the measured sup is at most
    total (1 + O(d u)) < lam (1 + O(d u)) < lam + band, since the band
    of _classify is at least 1e-9 lam and d u stays far below that for
    any degree a scan can evaluate.  Otherwise harmonic_membership decides.
    """
    if coefficient_sufficient(f, params).sufficient:
        return
    if harmonic_membership(f, params).verdict is Verdict.NON_MEMBER:
        raise NonMemberError(message)


def growth_envelope_check(f: HarmonicMap, params: ClassParams,
                          grid: EvalGrid) -> EnvelopeAudit:
    """Audit the modulus and derivative envelopes on a disk grid.

    At every grid point the map modulus must stay between
    |z| - lam |z|^2 and |z| + lam |z|^2, and the derivative pair must obey
    1 - 2 lam |z| <= |h'| - |g'| together with |h'| + |g'| <= 1 + 2 lam |z|.
    Rounding is no violation: an excess counts only past sup_tolerance
    times the envelope's size at that point, and at least times 1.
    """
    _require_member(f, params, "envelope audit needs a class member")
    lam = params.lam
    zs = grid.points()
    r = np.abs(zs)
    h, g, hp, gp = grid.values(f.h, f.g, derivative(f.h), derivative(f.g))
    af, hp, gp = np.abs([h + np.conj(g), hp, gp])
    growth_lo, growth_hi = r - lam * r * r, r + lam * r * r
    deriv_lo, deriv_hi = 1.0 - 2.0 * lam * r, 1.0 + 2.0 * lam * r
    # Each excess with the envelope it is measured against.
    checks = {
        "growth_lower": (growth_lo - af, growth_lo),
        "growth_upper": (af - growth_hi, growth_hi),
        "deriv_lower": (deriv_lo - (hp - gp), deriv_lo),
        "deriv_upper": (hp + gp - deriv_hi, deriv_hi),
    }
    band = params.sup_tolerance
    violations = {
        k: float(v[v > band * np.maximum(1.0, np.abs(env))].max(initial=0.0))
        for k, (v, env) in checks.items()
    }
    excess = {k: v for k, (v, _) in checks.items()}
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
    """Audit |h'|^2 - |g'|^2 against (1 + 2 lam |z|)^2 on a disk grid.

    Each point scales |h'|, |g'| and 1 + 2 lam |z| by the power of two
    that brings the last into [1, 2): exact, so the ratio keeps every bit
    and no square overflows or underflows at an extreme lam.  The excess
    is compared on the largest bound's scale, and max_violation leaves it
    in Python floats, reading inf past the double range.  Rounding is no
    violation: an excess counts only past sup_tolerance times the bound,
    which is at least 1.
    """
    zs = grid.points()
    # Half the bound, which stays finite for every lam.
    half = 0.5 + params.lam * np.abs(zs)
    e = -np.frexp(half)[1]
    hp, gp = np.ldexp(
        np.abs(grid.values(derivative(f.h), derivative(f.g))), e)
    bound = np.ldexp(half, e + 1) ** 2
    jac = hp * hp - gp * gp
    top = int(e.min())
    excess = np.ldexp(jac - bound, 2 * (top - e))
    counted = excess[jac - bound > params.sup_tolerance * bound]
    k = int(np.argmax(excess))
    return JacobianAudit(
        max_violation=(float(counted.max(initial=0.0))
                       * 2.0 ** -top * 2.0 ** -top),
        max_ratio=float(np.max(jac / bound)),
        sense_preserving=bool(np.all(hp > gp)),
        worst_point=complex(zs[k]),
    )


def _ring_numerator(p, q, u, v):
    """Least numerator over unimodular zeta of a section's functional.

    At z the functional of D = p + zeta q is offset + Re(z D'/D): its
    numerator Re((u + zeta v) conj(D)), where u = z p' + offset p and
    v = z q' + offset q, over |D|^2.  That numerator is
    alpha + Re(zeta gamma), alpha = Re(u conj(p) + v conj(q)) and
    gamma = v conj(p) + conj(u) q, so its least value is alpha - |gamma|.
    Arrays and Python complex numbers alike have the methods used here.
    """
    pc = p.conjugate()
    alpha = (u * pc + v * q.conjugate()).real
    return alpha - abs(v * pc + u.conjugate() * q)


def _ring_objective(p, q, u, v):
    """_ring_numerator over (|p| + |q|)^2.  As |D| <= |p| + |q|, a positive
    result bounds every section's functional from below; for q = 0 it is
    the functional."""
    return _ring_numerator(p, q, u, v) / (abs(p) + abs(q)) ** 2


def _section_rings(a: AnalyticSeries, b: AnalyticSeries, kind: RadiusKind):
    """Ring test of every section h + zeta g at once, as ``ring(r)``, on
    n = scan_angles(max(a.degree, b.degree)) equispaced angles per ring.

    The denominators are D = p + zeta q, with p, q = a, b for STARLIKE and
    a', b' for CONVEX, and the functional is offset + Re(z D'/D) with
    offset 0 or 1.  Where _ring_objective is positive no section vanishes,
    so the zero count inside the ring, the same for every zeta, is taken
    once, on p + q.  ``ring(r)`` returns the minimum of the objective on
    |z| = r and the angle attaining it, or -inf when that count is not
    proven to be 1 (STARLIKE) or 0 (CONVEX), at the grid angle where
    |p + q| is smallest.  The count is proven once per closure: it keeps
    the largest radius R whose count came out as the allowed one, and a
    ring at r <= R skips D = p + q, its moduli, the cell test and the
    angle sum.  The zeros of D inside |z| < r are among those inside
    |z| < R, where D has none (CONVEX) or only the origin's (STARLIKE), so
    no zero lies on the smaller ring and its count is the allowed one too;
    the objective, the proof and the polish run as on any ring.  Nothing
    outlives the closure.  The argument principle reads the count from
    the grid: along one cell D moves by at most delta = step S1(P), as
    |z D'| <= S1(P) below, and each grid value of D is off by at most
    eps S0(P) + lost_p (below), so a ring fails unless every grid value
    has |D| > eps S0(P) + lost_p + delta (1 + 1/pi); then D has no zero
    on the ring and each cell turns arg D by the principal angle between
    its grid values.  u = z p' + offset p and v = z q' + offset q are
    series too, with coefficients (k + offset) p_k and (k + offset) q_k, so
    each ring's grid values of p, q, u and v come from one 4-column
    circle_values transform.  Where a first-order bound proves the ring
    positive, ``ring(r)`` returns the grid minimum; every other positive
    grid minimum is polished by _polish_argmax (Brent's method, about 7
    points, down to the objective's rounding error, below) on the negated
    objective, each point of it one power-matrix product of the four
    series.  With
    P_k = |p_k| + |q_k|, U_k = |u_k| + |v_k| and Sm(X) = sum k^m X_k r^k,
    N = alpha - |gamma| (_ring_numerator) has |N'(theta)| <= B1 =
    S1(U) S0(P) + S0(U) S1(P), as |j - k| <= j + k in each of its four
    double sums, and every angle lies within pi/n of a grid angle.  Each
    grid value of X is off by at most eps S0(X), with
    eps = circle_values_error(n) >= 1024 u (u = 2^-53), and N, four
    products of such values with a few u of rounding each, by at most
    3 eps S0(U) S0(P), about 1e-12 of it.  The factor 1 + eps covers the
    rounding of the coefficients and of the sums Sm.  So a grid minimum
    of N above (B1 pi/n + 3 eps S0(U) S0(P)) (1 + eps) proves N > 0 on
    the whole ring, and with it every section's functional.

    Every test above is homogeneous in the four series, so each ring
    scales r^k, and with it the grid values and the sums Sm, by the power
    of two that brings its largest term max(P_k, U_k) r^k near 1: exact,
    and no product of two values overflows or underflows at an extreme
    lam.  A ring whose largest term is itself below the normal range (for
    a normalized map, r below it) returns a NaN minimum, which marks lost
    precision apart from the -inf of a zero count.  An r^k below the
    normal range, before or after that scaling, keeps only an absolute
    accuracy; summed over such k its errors, lost_p next to S0(P) and
    lost_u next to S0(U), move each grid value as the transform error
    does, so they join the proof bound as lost_u S0(P) + S0(U) lost_p.  A
    ring where either loss exceeds its transform error, eps S0(P) or
    eps S0(U), returns NaN too: its zero count and polish would rest on
    terms the powers no longer carry, as for the quadratic term at a
    starlike radius near 1/(2 lam) from lam = 1e155 on.  High powers that
    underflow next to a much larger low-order term cost nothing.

    The polish stops at err, a bound on the rounding error of one
    objective value from the same sums, to first order in u (Higham,
    ch. 3).  A polish point t is one row e^{i t k} r^k times the
    coefficients: t k rounds once, at most 2 pi (1 + 1/n) k u, and exp and
    the product by r^k add about 3 u, so each term is off by (7 k + 3) u
    of its modulus at most, and the complex dot product of d + 1 terms
    adds (d + 3) u of the sum of their moduli.  So p and q together are
    off by at most eP = (7 S1(P) + (d + 6) S0(P)) u + lost_p, and u and v
    by eU = (7 S1(U) + (d + 6) S0(U)) u + lost_u.  With W = |p| + |q| and
    V = |u| + |v| at t, N is off by at most 2 (eU W + V eP) + 8 u V W, W
    by eP + 2 u W, and |N| <= 2 V W, so N / W^2 is off by at most
    ((2 eU + 22 u V) W + 6 V eP) / W^2.  Within the bracket, one cell
    either side of the grid angle, W is at least its grid value less
    step S1(P) and V at most its grid value plus step S1(U), as
    |dW/dtheta| <= S1(P) and |dV/dtheta| <= S1(U); err takes those
    bounds, and is 0, the fixed-width stop, when the first is not
    positive.
    """
    if kind is RadiusKind.STARLIKE:
        p, q, offset, zeros = a, b, 0.0, 1
    else:
        p, q, offset, zeros = derivative(a), derivative(b), 1.0, 0
    # Columns p, q, u, v, for the ring transform and the polish's
    # power-matrix product.
    pq = coefficient_columns(p, q)
    powers = np.arange(len(pq))
    coeffs = np.hstack([pq, (powers + offset)[:, None] * pq])
    # Rows P, k P, U, k U: times r^powers they give S0(P), S1(P), S0(U) and
    # S1(U).  As z D' = sum k (p_k + zeta q_k) z^k, S1(P) bounds |z D'|.
    P = np.abs(coeffs[:, 0]) + np.abs(coeffs[:, 1])
    U = np.abs(coeffs[:, 2]) + np.abs(coeffs[:, 3])
    sums = np.stack([P, powers * P, U, powers * U])
    top_terms = np.maximum(P, U)
    angles = scan_angles(max(a.degree, b.degree))
    thetas = np.linspace(0.0, _TWO_PI, angles, endpoint=False)
    step = _TWO_PI / angles
    eps = circle_values_error(angles)
    tiny = np.finfo(float).tiny
    degree = len(powers) - 1
    # The largest ring whose zero count came out as the allowed one.
    counted = 0.0

    def ring(r: float) -> tuple[float, float]:
        nonlocal counted
        raw = r ** powers
        top = float(np.max(top_terms * raw))
        if not top >= tiny:
            return math.nan, 0.0
        e = -math.frexp(top)[1]
        rk = np.ldexp(raw, e)
        vals = circle_values(coeffs * rk[:, None], angles).T
        s0p, s1p, s0u, s1u = (sums @ rk).tolist()
        # Powers below the normal range, before or after the scaling, are
        # off by at most 2^-1073 times max(1, 2^e), once scaled.
        lost_p = lost_u = 0.0
        under = np.minimum(raw, rk) < tiny
        if under.any():
            step_err = math.ldexp(1.0, max(e, 0) - 1073)
            lost_p = step_err * float(P[under].sum())
            lost_u = step_err * float(U[under].sum())
            if not (lost_p <= eps * s0p and lost_u <= eps * s0u):
                return math.nan, 0.0
        if r > counted:
            # D moves by at most delta along one grid cell, and each grid
            # value of D is off by at most eps s0p + lost_p.  If delta
            # stays below pi (|D(z_k)| - eps s0p - lost_p - delta) on
            # every cell, D has no zero on the ring and each cell turns
            # arg D by the principal angle of D(z_{k+1}) / D(z_k), so
            # their sum counts the zeros inside.
            delta = step * s1p
            D = vals[0] + vals[1]
            mod = np.abs(D)
            j = int(np.argmin(mod))
            if delta >= math.pi * (mod[j] - eps * s0p - lost_p - delta):
                return -math.inf, float(thetas[j])
            turn = (float(np.angle(D[1:] * np.conj(D[:-1])).sum())
                    + float(np.angle(D[0] * np.conj(D[-1]))))
            if round(turn / _TWO_PI) != zeros:
                return -math.inf, float(thetas[j])
            counted = r
        num = _ring_numerator(*vals)
        grid = num / (np.abs(vals[0]) + np.abs(vals[1])) ** 2
        k = int(np.argmin(grid))
        if not grid[k] > 0.0:
            # A grid point already fails the ring; polishing only lowers it.
            return float(grid[k]), float(thetas[k])
        proof = ((s1u * s0p + s0u * s1p) * math.pi / angles
                 + 3.0 * eps * s0u * s0p
                 + (lost_u * s0p + s0u * lost_p)) * (1.0 + eps)
        if float(num.min()) > proof:
            return float(grid[k]), float(thetas[k])

        def at(t: float) -> float:
            # The negated objective at one angle, from one power-matrix row;
            # the arithmetic after it is on Python complex numbers.
            return -_ring_objective(
                *((np.exp(1j * t * powers) * rk) @ coeffs).tolist())

        # The objective's rounding error at any polish point, from the
        # bounds on |p| + |q| and |u| + |v| over the bracket (see the
        # docstring).
        w_lo = float(abs(vals[0, k]) + abs(vals[1, k])) - step * s1p
        err = 0.0
        if w_lo > 0.0:
            v_hi = float(abs(vals[2, k]) + abs(vals[3, k])) + step * s1u
            ep = _UNIT_ROUNDOFF * (7.0 * s1p + (degree + 6) * s0p) + lost_p
            eu = _UNIT_ROUNDOFF * (7.0 * s1u + (degree + 6) * s0u) + lost_u
            err = (((2.0 * eu + 22.0 * _UNIT_ROUNDOFF * v_hi) * w_lo
                    + 6.0 * v_hi * ep) / (w_lo * w_lo))
        least, angle = _polish_argmax(at, float(thetas[k]), -float(grid[k]),
                                      step, err)
        return -least, angle

    return ring


def _secant_search(ring, lo: float, m_lo: float, hi: float, m_hi: float,
                   hi_ang: float, tol: float) -> tuple[float, float, float]:
    """Shrink [lo, hi] to at most tol; return lo, hi and hi's angle.

    ``ring(r)`` returns a ring's minimum and angle, and a ring passes when
    its minimum is positive: lo passed with minimum m_lo, hi failed with
    m_hi at hi_ang.  Each step tests one ring strictly inside the bracket
    and moves lo to it if it passes, else hi, so lo always passed and hi
    always failed.  The step is a safeguarded regula falsi on the stored
    minima: their secant root lo + (hi - lo) m_lo / (m_lo - m_hi), moved
    tol/2 past it away from the end that moved last, so that a good
    estimate closes the bracket from the other side, and kept at least
    tol/4 inside.  When the same end moves twice running, the other end's
    stored minimum is halved (the Illinois rule of Dowell and Jarratt,
    BIT 11, 1971), so a strongly curved minimum, as a convex ring's near a
    zero of h', cannot pin one end.  A non-finite m_hi (a failed zero
    count, lost precision, NaN) gives no secant, and the step bisects.  It
    also bisects whenever the bracket is wider than its first width w
    times 2^(-n/2) after n steps, so the width after n steps is at most
    w 2^(-(n-1)/2), and the search ends within 2 ceil(log2(w / tol)) + 1
    rings, about twice bisection's.  Bisections neither halve a stored
    minimum nor count as an end's move: alternating with one-sided secant
    steps, they would keep the Illinois rule from ever firing.  A
    bisection shrinks the bracket only while it holds a float strictly
    inside, which tol >= 2^-50 and hi < 1 ensure.
    """
    allowed = hi - lo
    lo_moved = True
    while hi - lo > tol:
        secant = hi - lo <= allowed and math.isfinite(m_hi)
        if secant:
            r = lo + (hi - lo) * m_lo / (m_lo - m_hi)
            r += 0.5 * tol if lo_moved else -0.5 * tol
            # Clamped in this order, a NaN estimate becomes lo + tol/4.
            r = min(max(lo + 0.25 * tol, r), hi - 0.25 * tol)
        else:
            r = 0.5 * (lo + hi)
        allowed *= math.sqrt(0.5)
        m, ang = ring(r)
        if m > 0.0:
            if secant and lo_moved:
                m_hi *= 0.5
            lo, m_lo = r, m
        else:
            if secant and not lo_moved:
                m_lo *= 0.5
            hi, m_hi, hi_ang = r, m, ang
        if secant:
            lo_moved = m > 0.0
    return lo, hi, hi_ang


def _certify(a: AnalyticSeries, b: AnalyticSeries, kind: RadiusKind,
             tol: float) -> RadiusCertificate:
    """One radius search over r for every section a + zeta b together.

    Below a failing probe ring at 1 - tol the radius is halved until a
    ring passes, however small that radius (a member at a huge lam passes
    only near 1/lam), and each failing halved ring becomes the outer end;
    then _secant_search shrinks the bracket to tol, so the witness stays
    within tol of the radius.  Its lo is always the last ring to pass, so
    that ring's minimum is reported as inner_margin.  ConsistencyError is
    raised once the halving underflows to 0, or at the first failing ring
    with a NaN minimum, which _section_rings returns when the powers r^k
    lost the precision the test needs.  Refusing there is sound, and a
    smaller ring keeps fewer of its powers in the normal range, on a scale
    at least as large, so halving further is not tried.  A tol below
    2^-50 raises ParameterError, as the search could not shrink a bracket
    to it.
    """
    if not 2.0 ** -50 <= tol < 0.5:
        raise ParameterError("tol must lie in [2**-50, 0.5)")
    section_rings = _section_rings(a, b, kind)
    rings = 0
    passed = math.nan

    def ring(r: float) -> tuple[float, float]:
        nonlocal rings, passed
        rings += 1
        m, ang = section_rings(r)
        if m > 0.0:
            passed = m
        return m, ang

    hi = 1.0 - tol
    m_hi, hi_ang = ring(hi)
    if m_hi > 0.0:
        return RadiusCertificate(
            kind=kind, radius=1.0, inner_margin=m_hi,
            outer_witness=None, rings=rings,
        )
    while True:
        if math.isnan(m_hi):
            raise ConsistencyError(
                f"ring test lost precision at radius {hi!r}: its powers "
                "r^k fell below the normal range"
            )
        lo = hi / 2.0
        if lo == 0.0:
            raise ConsistencyError("functional not positive near the origin")
        m_lo, ang_lo = ring(lo)
        if m_lo > 0.0:
            break
        hi, m_hi, hi_ang = lo, m_lo, ang_lo
    lo, hi, hi_ang = _secant_search(ring, lo, m_lo, hi, m_hi, hi_ang, tol)
    return RadiusCertificate(
        kind=kind, radius=lo, inner_margin=passed,
        outer_witness=(hi, hi_ang), rings=rings,
    )


def radius_certify(F: AnalyticSeries, kind: RadiusKind,
                   tol: float = 1e-4) -> RadiusCertificate:
    """Search for the largest ring radius on which the test proves positive.

    A ring passes when the zero count of the denominator inside it is the
    one allowed (F only at the origin, F' nowhere) and the ring minimum of
    the functional is positive; by the minimum principle the
    functional is then positive on the whole closed sub-disk.  A radius of
    1 is returned capped when the ring at 1 - tol passes; below it, the
    ring minimum guides a safeguarded secant search (_certify), and the
    radius is a passing ring within tol of a failing one.
    """
    if not F.is_normalized():
        raise ParameterError("radius certification needs a normalized series")
    return _certify(F, ZERO, kind, tol)


def harmonic_radius_certify(f: HarmonicMap, params: ClassParams,
                            kind: RadiusKind, tol: float = 1e-4
                            ) -> RadiusCertificate:
    """Stable-family radius: one ring search over every section h + zeta g.

    A ring passes only when its least functional over every unimodular
    zeta is positive, so the result is at most the worst section's radius
    up to ``tol``.  For a certified member it must reach the class floor,
    1/(2 lam) for starlikeness and 1/(4 lam) for convexity, both capped at
    1; falling short raises ConsistencyError.
    """
    _require_member(f, params, "radius certification needs a class member")
    cert = _certify(f.h, f.g, kind, tol)
    per_lam = 2.0 if kind is RadiusKind.STARLIKE else 4.0
    floor = min(1.0, 1.0 / (per_lam * params.lam))
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
    return _derived(tuple((n * n - 1) * c for n, c in enumerate(F.coeffs)))


def _differential_test(h: AnalyticSeries, g: AnalyticSeries,
                       params: ClassParams, image,
                       threshold: float) -> DifferentialTestResult:
    """Boundary sup of |image(h)| + |image(g)|, which is the family sup of
    |image(h) + zeta image(g)| over unimodular zeta, against ``threshold``
    with no slack: the test is sufficient, so a sup above the threshold,
    however slightly, proves nothing and fails.  The sharp quadratic
    z + lam z^2 reads its threshold exactly and passes; a rotated one
    whose measured sup rounds above the threshold fails."""
    f = HarmonicMap(h=h, g=g)
    measured, _ = paired_boundary_sup(image(h), image(g))
    passes = measured <= threshold
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
                           params: ClassParams) -> DifferentialTestResult:
    """Sufficient test: family supremum of |h'' + zeta g''| at most 2 lam.

    Passing implies membership, so it passes only when the measured
    supremum is at most 2 lam, with no tolerance; the threshold is
    attained by the quadratic member with top coefficient lam, so no
    smaller constant works, and that member passes exactly at it.
    """
    return _differential_test(h, g, params, _second_derivative,
                              2.0 * params.lam)


def euler_operator_test(h: AnalyticSeries, g: AnalyticSeries,
                        params: ClassParams) -> DifferentialTestResult:
    """Sufficient test via z^2 F'' + z F' - F, threshold 3 lam, same
    contract: it passes only when the measured supremum is at most 3 lam,
    with no tolerance."""
    return _differential_test(h, g, params, _euler_image, 3.0 * params.lam)


def convolve_members(f1: HarmonicMap, f2: HarmonicMap, params: ClassParams
                     ) -> tuple[HarmonicMap, MembershipReport]:
    """Coefficientwise product of two members plus a fresh verdict.

    Closure is guaranteed for lam <= 1, and a NonMember verdict there is a
    numerical fault; for larger lam the operation still runs and the
    report is advisory.
    """
    for f in (f1, f2):
        _require_member(f, params, "convolution closure needs member inputs")
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
    if not all(-1e-12 <= w <= 1.0 + 1e-12 for w in weights):
        raise ParameterError("weights must lie in [0, 1]")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ParameterError("weights must sum to 1")
    for f in fs:
        _require_member(f, params, "convex combination needs member inputs")
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
    desk-scale injectivity proxy.  The samples are equispaced, so h and g
    are evaluated on them by one 2-column circle_values transform.
    ``samples`` is an integer of at least 512 (see count_at_least).
    """
    samples = count_at_least(samples, 512, "samples")
    _require_member(f, params, "curve audit needs a class member")
    thetas = np.linspace(0.0, _TWO_PI, samples, endpoint=False)
    h, g = circle_values(coefficient_columns(f.h, f.g), samples).T
    pts = h + np.conj(g)
    lipschitz, _ = paired_boundary_sup(derivative(f.h), derivative(f.g))
    return CurveAudit(
        thetas=thetas,
        points=pts,
        polygonal_length=float(np.sum(np.abs(np.diff(pts, append=pts[:1])))),
        max_lipschitz_ratio=lipschitz,
        min_pairwise_gap=_min_nonadjacent_gap(pts),
        max_modulus=float(np.max(np.abs(pts))),
    )
