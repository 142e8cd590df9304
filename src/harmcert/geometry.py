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
    COEFF_TOL,
    ZERO,
    AnalyticSeries,
    _derived,
    circle_values,
    circle_values_error,
    coefficient_columns,
    count_at_least,
    derivative,
    grid_floor,
    hadamard,
    ldexp_or_inf,
    linear_combination,
    scan_angles,
)

_TWO_PI = 2.0 * math.pi
# _secant_search takes a secant step only while hi / lo is at most this.
_SECANT_RATIO = 2.0 ** 16


class RadiusKind(Enum):
    STARLIKE = "Starlike"
    CONVEX = "Convex"


@dataclass(frozen=True)
class RadiusCertificate:
    """Largest ring radius at which the ring test passed.

    ``inner_margin`` is the least N / S0(P)^2 (_section_rings) that the
    search measured on the ring at the certified radius, or on the ring at
    1 - tol for a capped radius: positive, and at the angle measured every
    section's functional exceeds it.  When the radius is below 1 the
    ``outer_witness`` records a ring at most min(tol, witness / 128)
    outside, and an angle on it, where that minimum dropped to zero or
    below or the zero count of the denominator was not the one allowed,
    possibly the ring at Goodman's radius (_certify).  ``rings`` is the
    number of rings evaluated.  Each passing ring is proven positive
    between its grid angles by series.grid_floor, or else polished there.
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
    """jacobian_bound_check's result.  ``sense_preserving`` is sampled: it
    compares |h'| > |g'| at the 8 x 128 audit points (r <= 0.96) only, so
    z + lam z^2 reads True at lam 0.6, 1 and 3, though h'(-1/(2 lam)) = 0."""

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
    """boundary_curve_audit's result; ``min_pairwise_gap`` is NaN,
    unresolved, where the least gap lies within the samples' rounding."""

    thetas: np.ndarray
    points: np.ndarray
    polygonal_length: float
    max_lipschitz_ratio: float
    min_pairwise_gap: float
    max_modulus: float


def _require_member(f: HarmonicMap, params: ClassParams, message: str
                    ) -> None:
    """Raise NonMemberError(message) unless f may be a class member.

    A map that meets the paper's coefficient condition skips the scan: its
    measured sup exceeds the coefficient sum S < lam by less than the err
    of _classify, so the scan could not say NonMember."""
    if coefficient_sufficient(f, params).sufficient:
        return
    if harmonic_membership(f, params).verdict is Verdict.NON_MEMBER:
        raise NonMemberError(message)


# The growth and Jacobian audits sample these rings, each at this many
# equispaced angles, scaled by the 2^e that brings 1/2 + lam 0.96 into
# [1, 2): on these rings every envelope lies within a factor of 8 of it.
_AUDIT_RADII = tuple((k + 1) * 0.12 for k in range(8))
_AUDIT_ANGLES = 128


def _ring_values(radii, n: int, e: int, *series: AnalyticSeries):
    """The points r e^{2 pi i j / n}, j < n, of each ring r in ``radii``,
    ring by ring, and each series' values there times 2^e, one row per
    series: one circle_values transform over coefficients x rings x
    series of c_k r^k 2^e, exact while every scaled term stays normal."""
    cols = coefficient_columns(*series)
    r_k = np.asarray(radii) ** np.arange(len(cols))[:, None]
    vals = circle_values(
        math.ldexp(1.0, e) * (r_k[:, :, None] * cols[:, None]), n)
    thetas = np.linspace(0.0, _TWO_PI, n, endpoint=False)
    points = (np.asarray(radii)[:, None] * np.exp(1j * thetas)).ravel()
    return points, vals.T.reshape(len(series), -1)


def _range_shift(order: int, *series: AnalyticSeries):
    """(s, *shifted): the s <= 0 that keeps, over all of ``series`` (n
    coefficients), the sum of the moduli of k^order c_k 2^s and each
    k^(order + 1) c_k 2^s below 2^1023, as 2^bit_length(n) > n, and each
    series times 2^s, itself at s = 0.  s is 0 but at a lam near 1e308,
    and may round small coefficients into the subnormal range."""
    n = sum(len(F.coeffs) for F in series)
    top = max(max(map(abs, F.coeffs)) for F in series)
    s = min(0, 1023 - math.frexp(top)[1] - (order + 1) * n.bit_length())
    if s == 0:
        return (0, *series)
    return (s, *(AnalyticSeries(tuple(c * 2.0 ** s for c in F.coeffs))
                 for F in series))


def growth_envelope_check(f: HarmonicMap, params: ClassParams
                          ) -> EnvelopeAudit:
    """Audit the modulus and derivative envelopes on rings inside the disk.

    At every point of 8 rings, radius 0.12 to 0.96, 128 angles each, the
    map modulus must stay between |z| - lam |z|^2 and |z| + lam |z|^2, and
    the derivative pair must obey 1 - 2 lam |z| <= |h'| - |g'| together
    with |h'| + |g'| <= 1 + 2 lam |z|.  Values, from coefficients times
    2^s (_range_shift) where h' could overflow, and envelopes are compared
    scaled by one power of two, and each violation and tightness is read
    back by ldexp_or_inf, an infinity past the double range.
    Rounding is no violation: an excess counts only past sup_tolerance
    times the upper envelope at that point, positive where a lower one
    crosses zero.
    """
    _require_member(f, params, "envelope audit needs a class member")
    lam = params.lam
    e = 1 - math.frexp(0.5 + lam * _AUDIT_RADII[-1])[1]
    s, H, G = _range_shift(1, f.h, f.g)
    zs, (h, g, hp, gp) = _ring_values(_AUDIT_RADII, _AUDIT_ANGLES, e - s, H,
                                      G, derivative(H), derivative(G))
    r = np.abs(zs)
    af, hp, gp = np.abs([h + np.conj(g), hp, gp])
    growth_lo, growth_hi = np.ldexp([r - lam * r * r, r + lam * r * r], e)
    # 1 -+ 2 lam |z| as twice 1/2 -+ lam |z|, which stays finite.
    deriv_lo, deriv_hi = np.ldexp([0.5 - lam * r, 0.5 + lam * r], e + 1)
    # Each excess with the upper envelope its slack is measured against.
    checks = {
        "growth_lower": (growth_lo - af, growth_hi),
        "growth_upper": (af - growth_hi, growth_hi),
        "deriv_lower": (deriv_lo - (hp - gp), deriv_hi),
        "deriv_upper": (hp + gp - deriv_hi, deriv_hi),
    }
    violations = {
        k: ldexp_or_inf(float(
            v[v > params.sup_tolerance * hi].max(initial=0.0)), -e)
        for k, (v, hi) in checks.items()
    }
    tightness = {k: ldexp_or_inf(float(-v.max()), -e)
                 for k, (v, _) in checks.items()}
    worst = max((v for v, _ in checks.values()), key=np.max)
    worst_point = complex(zs[int(np.argmax(worst))])
    return EnvelopeAudit(
        max_violation=max(violations.values()),
        violations=violations,
        tightness=tightness,
        worst_point=worst_point,
    )


def jacobian_bound_check(f: HarmonicMap, params: ClassParams
                         ) -> JacobianAudit:
    """Audit |h'|^2 - |g'|^2 against (1 + 2 lam |z|)^2 on the growth
    audit's rings.

    |h'|, |g'| (formed as in growth_envelope_check) and 1 + 2 lam |z| are
    scaled by one power of two, so no square overflows or underflows at
    an extreme lam.  max_violation reads the excess back by ldexp_or_inf,
    inf past the double range.  Rounding is no violation: an excess counts
    only past sup_tolerance times the bound.
    """
    lam = params.lam
    e = 1 - math.frexp(0.5 + lam * _AUDIT_RADII[-1])[1]
    s, H, G = _range_shift(1, f.h, f.g)
    zs, vals = _ring_values(_AUDIT_RADII, _AUDIT_ANGLES, e - s,
                            derivative(H), derivative(G))
    hp, gp = np.abs(vals)
    # Twice half the bound, which stays finite for every lam.
    bound = np.ldexp(0.5 + lam * np.abs(zs), e + 1) ** 2
    jac = hp * hp - gp * gp
    excess = jac - bound
    counted = excess[excess > params.sup_tolerance * bound]
    return JacobianAudit(
        max_violation=ldexp_or_inf(float(counted.max(initial=0.0)), -2 * e),
        max_ratio=float(np.max(jac / bound)),
        sense_preserving=bool(np.all(hp > gp)),
        worst_point=complex(zs[int(np.argmax(excess))]),
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


def _ring_levels(degree: int) -> tuple[int, ...]:
    """The grids a ring of that degree reads, coarsest first: from the
    ladder scan_angles(degree // 16), scan_angles(degree // 4),
    scan_angles(degree), a level is kept when it is at most a quarter of
    the next level kept.  So below degree 16 a ring reads one grid, from
    16 to 63 it starts at scan_angles(degree // 4) (256 angles at degree
    16, as scan_angles(1)), and from 64 on at scan_angles(degree // 16),
    with three levels."""
    levels = (scan_angles(degree),)
    for n in (scan_angles(degree // 4), scan_angles(degree // 16)):
        if 4 * n <= levels[0]:
            levels = (n, *levels)
    return levels


def _section_rings(a: AnalyticSeries, b: AnalyticSeries, kind: RadiusKind):
    """Ring test of every section h + zeta g at once, as ``ring(r)``, on
    n = scan_angles(max(a.degree, b.degree)) equispaced angles per ring,
    the angle k step read as k times step = 2 pi / n, with
    ``coefficient_radius(below)`` (_coefficient_radius) from its rows U_k.

    Each ring runs the tests below on the grids of _ring_levels(degree),
    coarsest first, each with its own step and eps, and stops at the first
    that decides it, as each decision holds on any grid: a grid value of
    N <= 0 (the witness), a cell test that passes (the zero count) and a
    grid minimum that grid_floor proves.  A failed cell test or a minimum
    left open goes to the next level; the last, n angles, runs the same
    tests and then the polish.  The lost-precision test reads the eps of
    the n angles, once.

    The denominators are D = p + zeta q, with p, q = a, b for STARLIKE and
    a', b' for CONVEX, and the functional is offset + Re(z D'/D) with
    offset 0 or 1.  Where N (below) is positive no section vanishes, so
    the zero count inside the ring, the same for every zeta, is taken
    once, on p + q.  ``ring(r)`` returns the least N / S0(P)^2 on |z| = r
    and the angle attaining it, or -inf at the grid angle where
    |p + q| is smallest when that count is not proven to be 1 (STARLIKE)
    or 0 (CONVEX).  The closure keeps R, the largest radius whose count
    came out as the allowed one, and a ring at r <= R skips the count: the
    zeros of D inside |z| < r are among those inside |z| < R.  The
    argument principle reads the count from the grid: along one cell D
    moves by at most delta = step S1(P), as |z D'| <= S1(P), and each grid
    value of D is off by at most eps S0(P) + lost_p (below), so a ring
    fails unless every grid value has |D| > eps S0(P) + lost_p +
    delta (1 + 1/pi); then D has no zero on the ring and each cell turns
    arg D by the principal angle between its grid values.
    u = z p' + offset p and v = z q' + offset q have coefficients
    (k + offset) p_k and (k + offset) q_k, so one 4-column circle_values
    transform gives each ring's grid values of p, q, u and v.  Where
    series.grid_floor proves the ring positive, ``ring(r)`` returns the
    grid minimum; every other positive grid minimum is polished by
    _polish_argmax (Brent's method, about 7 points, down to N's rounding
    error, below) on -N, each point one power-matrix product of the four
    series.

    With P_k = |p_k| + |q_k|, U_k = |u_k| + |v_k| and
    Sm(X) = sum k^m X_k r^k, N = alpha - |gamma| (_ring_numerator) is the
    least over unimodular zeta of N_zeta = alpha + Re(zeta gamma), and
    each N_zeta is a trigonometric polynomial in theta: its terms
    u_j conj(p_k) r^(j+k) e^{i (j-k) theta} and the like, four double
    sums over j and k.  So |N_zeta''| <= |alpha''| + |gamma''| <=
    sum (j - k)^2 U_j P_k r^(j+k) <= B2 = S2(U) S0(P) + S0(U) S2(P), as
    (j - k)^2 <= j^2 + k^2 for j, k >= 0.  Each grid value of X is off
    by at most eps S0(X), with eps = circle_values_error(n), and N, four
    products of such values with a few u of rounding each, by at most
    3 eps S0(U) S0(P).  As every N_zeta reads at least N at each grid
    angle, a positive grid_floor of N's grid values with that b2 and err
    proves every N_zeta, so N and every section's functional, positive
    on the whole ring.  Each section's functional is N_zeta / |D|^2, and
    |D| <= |p| + |q| <= S0(P), so where N > 0 it is at least
    N / S0(P)^2, the value ``ring(r)`` reports.  The S2 rows are
    (k/d)^2 P_k and (k/d)^2 U_k, their sums times d^2: k^2 P_k would
    overflow at an extreme lam.

    Every test above is homogeneous in the four series, so each ring
    scales r^k, and with it the grid values and the sums Sm, by the power
    of two that brings its largest term max(P_k, U_k) r^k near 1: exact,
    and no product of two values overflows or underflows at an extreme
    lam; N / S0(P)^2 cancels that power, so rings compare on one scale.
    The columns of a and b are first shifted by _range_shift (order
    2 for CONVEX, 1 for STARLIKE), which keeps every row value finite; a
    coefficient that loses bits to the shift raises ConsistencyError.  An
    r^k below the normal range, before or after the scaling, keeps only an
    absolute accuracy; summed over such k its errors, lost_p next to S0(P)
    and lost_u next to S0(U), join grid_floor's err as
    lost_u S0(P) + S0(U) lost_p.  Where either loss exceeds its transform
    error, eps S0(P) or eps S0(U), or the largest term is itself below the
    normal range, ``ring(r)`` raises ConsistencyError ("ring test lost
    precision at radius r"): its zero count and polish would rest on terms
    the powers no longer carry, as for the quadratic term at a starlike
    radius near 1/(2 lam) from lam = 1e155 on.  So a ring passes (a
    positive minimum), fails (a minimum <= 0, -inf for the count) or raises.

    The polish stops at err, a bound on the rounding error of one value
    of N from the same sums, to first order in u (Higham,
    ch. 3).  A polish point t is one row e^{i t k} r^k times the
    coefficients: t k rounds once, at most 2 pi (1 + 1/n) k u, and exp and
    the product by r^k add about 3 u, so each term is off by (7 k + 3) u
    of its modulus at most, and the complex dot product of d + 1 terms
    adds (d + 3) u of the sum of their moduli.  So p and q together are
    off by at most eP = (7 S1(P) + (d + 6) S0(P)) u + lost_p, and u and v
    by eU = (7 S1(U) + (d + 6) S0(U)) u + lost_u.  As |p| + |q| <= S0(P)
    and |u| + |v| <= S0(U), N is off by at most
    err = 2 (eU S0(P) + S0(U) eP) + 8 u S0(U) S0(P).
    """
    convex = kind is RadiusKind.CONVEX
    shift, A, B = _range_shift(2 if convex else 1, a, b)
    if shift and any(F.coeffs != tuple(c * 2.0 ** -shift for c in S.coeffs)
                     for F, S in ((a, A), (b, B))):
        raise ConsistencyError(
            "ring test lost precision: scaling the coefficients by "
            f"2^{shift} to keep the ring terms finite rounds some")
    pq = coefficient_columns(A, B)
    offset, zeros = (1.0, 0) if convex else (0.0, 1)
    if convex:
        pq = np.arange(1, len(pq))[:, None] * pq[1:]  # a' and b'
    # Columns p, q, u, v, for the ring transform and the polish's
    # power-matrix product.
    powers = np.arange(len(pq))
    coeffs = np.hstack([pq, (powers + offset)[:, None] * pq])
    # Rows P, k P, U, k U, (k/d)^2 P, (k/d)^2 U: times r^powers they give
    # S0(P), S1(P), S0(U), S1(U) and S2(P), S2(U) over d^2.  As
    # z D' = sum k (p_k + zeta q_k) z^k, S1(P) bounds |z D'|.
    P = np.abs(coeffs[:, 0]) + np.abs(coeffs[:, 1])
    U = np.abs(coeffs[:, 2]) + np.abs(coeffs[:, 3])
    degree = len(powers) - 1
    d = max(degree, 1)
    square = (powers / d) ** 2
    sums = np.stack([P, powers * P, U, powers * U, square * P, square * U])
    bound = float(abs(coeffs[zeros, 0]) - abs(coeffs[zeros, 1]))
    top_terms = np.maximum(P, U)
    # Each ring's grid levels, (n, step, eps), the coarsest first.
    levels = [(n, _TWO_PI / n, circle_values_error(n))
              for n in _ring_levels(max(a.degree, b.degree))]
    angles, _, eps = levels[-1]
    tiny = np.finfo(float).tiny
    # The largest ring whose zero count came out as the allowed one.
    counted = 0.0

    def ring(r: float) -> tuple[float, float]:
        nonlocal counted
        raw = r ** powers
        top = float(np.max(top_terms * raw))
        # A largest term below the normal range is scaled as tiny would be,
        # which keeps every scaled term finite, and refused below.
        e = -math.frexp(max(top, tiny))[1]
        rk = np.ldexp(raw, e)
        scaled = coeffs * rk[:, None]
        s0p, s1p, s0u, s1u, s2p, s2u = (sums @ rk).tolist()
        # B2 of the docstring, which bounds every |N_zeta''| on the ring.
        b2 = (s2u * s0p + s0u * s2p) * (d * d)
        # Powers below the normal range, before or after the scaling, are
        # off by at most 2^-1073 times max(1, 2^e), once scaled.
        lost_p = lost_u = 0.0
        under = np.minimum(raw, rk) < tiny
        if under.any():
            step_err = math.ldexp(1.0, max(e, 0) - 1073)
            lost_p = step_err * float(P[under].sum())
            lost_u = step_err * float(U[under].sum())
        if not (top >= tiny and lost_p <= eps * s0p and lost_u <= eps * s0u):
            raise ConsistencyError(
                f"ring test lost precision at radius {r!r}: its powers "
                "r^k fell below the normal range")
        for n, step, eps_n in levels:
            vals = circle_values(scaled, n).T
            if r > counted:
                # The docstring's cell test, then the argument principle:
                # each cell turns arg D by the principal angle.
                delta = step * s1p
                D = vals[0] + vals[1]
                mod = np.abs(D)
                j = int(np.argmin(mod))
                if delta >= math.pi * (mod[j] - eps_n * s0p - lost_p - delta):
                    if n == angles:
                        return -math.inf, j * step
                    continue
                turn = (float(np.angle(D[1:] * np.conj(D[:-1])).sum())
                        + float(np.angle(D[0] * np.conj(D[-1]))))
                if round(turn / _TWO_PI) != zeros:
                    return -math.inf, j * step
                counted = r
            num = _ring_numerator(*vals)
            k = int(np.argmin(num))
            # A grid point <= 0 already fails the ring, as polishing only
            # lowers it; a proven ring keeps its grid minimum.
            if not num[k] > 0.0 or grid_floor(
                    num, b2, 3.0 * eps_n * s0u * s0p
                    + lost_u * s0p + s0u * lost_p) > 0.0:
                return float(num[k]) / (s0p * s0p), k * step

        def at(t: float) -> float:
            # The negated numerator at one angle, from one power-matrix row;
            # the arithmetic after it is on Python complex numbers.
            return -_ring_numerator(
                *((np.exp(1j * t * powers) * rk) @ coeffs).tolist())

        # The numerator's rounding error at any polish point (docstring).
        ep = _UNIT_ROUNDOFF * (7.0 * s1p + (degree + 6) * s0p) + lost_p
        eu = _UNIT_ROUNDOFF * (7.0 * s1u + (degree + 6) * s0u) + lost_u
        err = 2.0 * (eu * s0p + s0u * ep) + 8.0 * _UNIT_ROUNDOFF * s0u * s0p
        least, angle = _polish_argmax(at, k * step, -float(num[k]), step, err)
        return -least / (s0p * s0p), angle

    return ring, lambda below: _coefficient_radius(U[zeros + 1:], bound, below)


def _secant_search(ring, lo: float, m_lo: float, hi: float, m_hi: float,
                   hi_ang: float, tol: float) -> tuple[float, float, float]:
    """Shrink [lo, hi] to w = max(min(tol, hi / 128), 2^-1072) at most;
    return lo, hi and hi's angle.

    ``ring(r)`` returns a ring's minimum and angle: a pass when positive,
    a failed zero count when not finite.  hi failed with m_hi at hi_ang; lo
    passed with m_lo, or is the untested origin, 0, with m_lo unread.
    Each step tests one ring strictly inside the bracket and moves lo to
    it if it passes, else hi: the secant root of the stored minima, moved
    w/2 away from the end that moved last and kept w/4 inside.  When the
    same end moves twice running, the other end's stored minimum is halved
    (the Illinois rule of Dowell and Jarratt, BIT 11, 1971), so a strongly
    curved minimum cannot pin one end.  The step bisects instead, at
    sqrt(lo) sqrt(hi), or hi / 2 from the origin, while hi / lo exceeds
    _SECANT_RATIO = 2^16, the origin's bracket included, when m_lo - m_hi
    is not finite, and while the bracket is wider than w0 2^(-n/2), w0 its
    width at the first pass and n the steps since.  So hi is halved until
    a ring passes, and a lo far below hi takes ceil(log2(log2(hi / lo) /
    16)) bisections to come within the ratio.  A bisection shrinks the
    width by 1/sqrt(2) at least while hi / lo <= K = (1 + sqrt(2))^2, and
    as no step raises hi / lo, at most g = max(0, ceil(log2(ln(hi0 / lo0)
    / ln K))) do not, the ratio rule's among them, [lo0, hi0] the bracket
    at the first pass: the width stays within sqrt(2)^(1 + g) of
    w0 2^(-n/2), and the search ends within 2 ceil(log2(w0 / w)) + 1 + g
    rings.  Bisections neither halve a stored minimum nor count as an
    end's move, which would keep the Illinois rule from firing.  w is tol
    down to a radius of 128 tol, relative below, and w/4 exceeds the
    spacing of the floats in the bracket, so each step, rounded, lies
    strictly inside: hi / 512 and tol/4 >= 2^-52 do in the normal range
    (hi < 1), 2^-1074 at a subnormal hi.
    """
    allowed = hi - lo
    lo_moved = True
    while hi - lo > (w := max(min(tol, hi / 128), 2.0 ** -1072)):
        secant = (hi - lo <= allowed and hi <= _SECANT_RATIO * lo
                  and math.isfinite(m_lo - m_hi))
        if secant:
            r = lo + (hi - lo) * m_lo / (m_lo - m_hi)
            r += 0.5 * w if lo_moved else -0.5 * w
            r = min(max(lo + 0.25 * w, r), hi - 0.25 * w)
        else:
            r = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
        allowed *= math.sqrt(0.5)
        m, ang = ring(r)
        if m > 0.0:
            if secant and lo_moved:
                m_hi *= 0.5
            if lo == 0.0:
                allowed = hi - r
            lo, m_lo = r, m
        else:
            if secant and not lo_moved:
                m_lo *= 0.5
            hi, m_hi, hi_ang = r, m, ang
        if secant:
            lo_moved = m > 0.0
    return lo, hi, hi_ang


def _coefficient_radius(weights, bound: float, below: float) -> float:
    """Goodman's radius r_c: the largest r < ``below`` with
    g(r) = sum_{j>=1} w_j r^j <= ``bound`` in floating point, w_j =
    ``weights[j-1]``, or 0 when none is found.

    A normalized analytic F with sum_{n>=2} n |c_n| <= 1 is starlike
    (Goodman, Proc. AMS 8, 1957), and F is convex when z F' is starlike
    (Alexander's theorem).  _section_rings passes w_j = U_{j+s}
    and bound = |p_s| - |q_s|, s the zero count it allows (1 STARLIKE, 0
    CONVEX): D or z D (D = F' for CONVEX) has p_k + zeta q_k at z^n,
    n = k + 1 - s, and u_k = n p_k, so over its linear coefficient and
    taken as F(r z) / r, each section meets Goodman's hypothesis wherever
    sum_{k>s} U_k r^(k-s) <= |p_s| - |q_s|: every ring below r_c passes
    in exact arithmetic, but r_c is a ring to test, not a proof.

    log g is convex in x = log r, so Newton's method on it from the right,
    started at ``below``, stays right of the root, up to rounding, and
    converges; its slope is g's mean power, sum j w_j r^j / g, at least 1.
    Each step costs one O(degree) pass, and r is multiplied by e^step, step
    the move in x, which keeps r's relative accuracy down to a subnormal
    r_c.  After a step of at most 2^-30, or 64 steps, r goes down by 1, 2,
    4, ... ulps until g(r) reads at most the bound.
    """
    # Rows w_j and j w_j / d, d the top power: times r^j they give g and
    # g's mean power times g / d <= g, where sum j w_j r^j could overflow.
    d = len(weights)
    powers = np.arange(1, d + 1)
    rows = np.stack([weights, powers / d * weights])

    r = below
    for _ in range(64):
        g, slope = (rows @ r ** powers).tolist()
        if not g > 0.0 or r == below and g <= bound:
            break
        step = math.log(bound / g) / (d * (slope / g))
        r *= math.exp(step)
        if abs(step) <= 2.0 ** -30:
            break
    r = min(r, math.nextafter(below, 0.0))
    ulps = 1.0
    while r > 0.0 and float(weights @ r ** powers) > bound:
        r -= ulps * math.ulp(r)
        ulps *= 2.0
    return max(r, 0.0)


def _certify(a: AnalyticSeries, b: AnalyticSeries, kind: RadiusKind,
             tol: float) -> RadiusCertificate:
    """One radius search over r for every section a + zeta b together.

    Below a failing probe ring at 1 - tol, one ring is tested at Goodman's
    radius r_c (_coefficient_radius), which the sections meet from their
    coefficients alone, and narrows the bracket [0, 1 - tol] from either
    side: a pass becomes lo, a failure (<= 0 or -inf) hi with its angle.
    One _secant_search then closes it to min(tol, hi / 128), halving hi
    from the untested origin until a ring passes, however small the radius
    (a member at a huge lam passes only near 1/lam), and bisecting
    geometrically above lo.  lo is always the last ring to pass, whose
    minimum is reported as inner_margin.  ConsistencyError is raised when
    no ring above 2^-1072 passes, and by the first ring whose powers r^k
    lost the precision the test needs (_section_rings).  A tol below 2^-50
    raises ParameterError, as the search could not shrink a bracket near 1
    to it.
    """
    if not 2.0 ** -50 <= tol < 0.5:
        raise ParameterError("tol must lie in [2**-50, 0.5)")
    section_rings, coefficient_radius = _section_rings(a, b, kind)
    rings = 0
    passed = 0.0

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
    lo, m_lo = 0.0, 0.0
    r_c = coefficient_radius(hi)
    if r_c > 0.0:
        m, ang = ring(r_c)
        if m > 0.0:
            lo, m_lo = r_c, m
        else:
            hi, m_hi, hi_ang = r_c, m, ang
    lo, hi, ang = _secant_search(ring, lo, m_lo, hi, m_hi, hi_ang, tol)
    if lo == 0.0:
        raise ConsistencyError("functional not positive near the origin")
    return RadiusCertificate(
        kind=kind, radius=lo, inner_margin=passed,
        outer_witness=(hi, ang), rings=rings,
    )


def radius_certify(F: AnalyticSeries, kind: RadiusKind,
                   tol: float = 1e-4) -> RadiusCertificate:
    """Search for the largest ring radius on which the test proves positive.

    A ring passes when the zero count of the denominator inside it is the
    one allowed (F only at the origin, F' nowhere) and the ring minimum of
    the functional is positive; by the minimum principle the
    functional is then positive on the whole closed sub-disk.  A radius of
    1 is returned capped when the ring at 1 - tol passes; below it, the
    ring minimum guides a safeguarded secant search (_certify): the radius
    is a passing ring, a failing one at most min(tol, witness / 128) out.
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
    up to the search's width, min(tol, witness / 128).  For a certified
    member it must reach the class floor, 1/(2 lam) for starlikeness and
    1/(4 lam) for convexity, both capped at 1, less the width the search
    reached; falling short raises ConsistencyError.
    """
    _require_member(f, params, "radius certification needs a class member")
    cert = _certify(f.h, f.g, kind, tol)
    per_lam = 2.0 if kind is RadiusKind.STARLIKE else 4.0
    floor = min(1.0, 1.0 / (per_lam * params.lam))
    width = cert.outer_witness[0] - cert.radius if cert.outer_witness else 0.0
    if cert.radius < floor - width:
        raise ConsistencyError(
            f"certified {kind.value} radius {cert.radius!r} fell below the "
            f"class floor {floor!r}"
        )
    return cert


def _euler_image(F: AnalyticSeries) -> AnalyticSeries:
    # z^2 F'' + z F' - F acts coefficientwise as c_n -> (n^2 - 1) c_n.
    return _derived(tuple((n * n - 1) * c for n, c in enumerate(F.coeffs)))


def _differential_test(h: AnalyticSeries, g: AnalyticSeries,
                       params: ClassParams, image,
                       factor: float) -> DifferentialTestResult:
    """Boundary sup of |image(h)| + |image(g)|, which is the family sup of
    |image(h) + zeta image(g)| over unimodular zeta, against factor lam
    with no slack: the test is sufficient, so a sup above it, however
    slightly, proves nothing and fails.  The sharp quadratic z + lam z^2
    reads its threshold exactly and passes.  Both sides are compared on
    the coefficients times 2^s (_range_shift), finite at any lam, and read
    back by ldexp_or_inf."""
    f = HarmonicMap(h=h, g=g)
    s, H, G = _range_shift(2, h, g)
    measured, _ = paired_boundary_sup(image(H), image(G))
    threshold = factor * math.ldexp(params.lam, s)
    passes = measured <= threshold
    rep = harmonic_membership(f, params)
    if passes and rep.verdict is Verdict.NON_MEMBER:
        raise ConsistencyError(
            "sufficient test passed on a map the boundary scan rejects"
        )
    return DifferentialTestResult(
        passes=passes, measured_max=ldexp_or_inf(measured, -s),
        threshold=ldexp_or_inf(threshold, -s), membership=rep,
    )


def second_derivative_test(h: AnalyticSeries, g: AnalyticSeries,
                           params: ClassParams) -> DifferentialTestResult:
    """Sufficient test: family supremum of |h'' + zeta g''| at most 2 lam.

    Passing implies membership, so it passes only when the measured
    supremum is at most 2 lam, with no tolerance; the threshold is
    attained by the quadratic member with top coefficient lam, so no
    smaller constant works, and that member passes exactly at it.
    """
    return _differential_test(h, g, params,
                              lambda F: derivative(derivative(F)), 2.0)


def euler_operator_test(h: AnalyticSeries, g: AnalyticSeries,
                        params: ClassParams) -> DifferentialTestResult:
    """Sufficient test via z^2 F'' + z F' - F, threshold 3 lam, same
    contract: it passes only when the measured supremum is at most 3 lam,
    with no tolerance."""
    return _differential_test(h, g, params, _euler_image, 3.0)


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
    """Weighted average of members; the class is closed under this.
    Weights must lie in [0, 1] exactly and sum to 1 within COEFF_TOL; they
    are divided by their sum, which keeps the theorem's hypothesis."""
    fs = list(fs)
    weights = [float(w) for w in weights]
    if not fs or len(fs) != len(weights):
        raise ParameterError("need matching non-empty maps and weights")
    if not all(0.0 <= w <= 1.0 for w in weights):
        raise ParameterError("weights must lie in [0, 1]")
    total = sum(weights)
    if abs(total - 1.0) > COEFF_TOL:
        raise ParameterError("weights must sum to 1")
    weights = [w / total for w in weights]
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

    The length and the gap are measured on the samples scaled by the
    power of two 2^e that brings their largest modulus into [1/2, 1), and
    read back by ldexp_or_inf: exact while every scaled part stays normal,
    as it does unless lam is extreme, and inf past the double range.  Each
    sample is off by at most err = (circle_values_error(samples) + 2 u) S,
    S the coefficient moduli's sum, from the transform and h + conj(g); a
    gap at or below 2 err cannot be told from a crossing and reads NaN,
    unresolved, as the gap 2 of f3 at lam = 1e308.  The Lipschitz ratio
    is read back likewise from h' and g' of the coefficients times 2^s
    (_range_shift): for f3, f_a and f_b at lam = 1e308 it reads inf.
    """
    samples = count_at_least(samples, 512, "samples")
    _require_member(f, params, "curve audit needs a class member")
    h, g = circle_values(coefficient_columns(f.h, f.g), samples).T
    pts = h + np.conj(g)
    max_modulus = float(np.max(np.abs(pts)))
    e = -math.frexp(max_modulus)[1]
    # Real and imaginary parts, each scaled by 2^e.
    scaled = np.ldexp(pts.view(float), e).view(complex)
    length = float(np.sum(np.abs(np.diff(scaled, append=scaled[:1]))))
    gap = ldexp_or_inf(_min_nonadjacent_gap(scaled), -e)
    err = ((circle_values_error(samples) + 2.0 * _UNIT_ROUNDOFF)
           * (sum(map(abs, f.h.coeffs)) + sum(map(abs, f.g.coeffs))))
    shift, H, G = _range_shift(1, f.h, f.g)
    lipschitz, _ = paired_boundary_sup(derivative(H), derivative(G))
    return CurveAudit(
        thetas=np.linspace(0.0, _TWO_PI, samples, endpoint=False),
        points=pts,
        polygonal_length=ldexp_or_inf(length, -e),
        max_lipschitz_ratio=ldexp_or_inf(lipschitz, -shift),
        min_pairwise_gap=gap if gap > 2.0 * err else math.nan,
        max_modulus=max_modulus,
    )
