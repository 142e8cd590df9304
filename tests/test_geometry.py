import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from horner import eval_array, least_section_functional, ring_parts

from harmcert import geometry
from harmcert.catalog import CatalogParams, make_example
from harmcert.errors import (
    ConsistencyError,
    NonMemberError,
    NormalizationError,
    ParameterError,
)
from harmcert.geometry import (
    _AUDIT_ANGLES,
    _AUDIT_RADII,
    RadiusKind,
    _min_nonadjacent_gap,
    _range_shift,
    _ring_numerator,
    _ring_values,
    _secant_search,
    _section_rings,
    boundary_curve_audit,
    convex_combination,
    convolve_members,
    euler_operator_test,
    growth_envelope_check,
    harmonic_radius_certify,
    jacobian_bound_check,
    radius_certify,
    second_derivative_test,
)
from harmcert.membership import (
    ClassParams,
    HarmonicMap,
    Verdict,
    _polish_argmax,
    coefficient_sufficient,
    harmonic_membership,
    paired_boundary_sup,
    random_member,
)
from harmcert.series import (
    ZERO,
    AnalyticSeries,
    circle_values,
    circle_values_error,
    coefficient_columns,
    derivative,
    linear_combination,
    scan_angles,
)


@pytest.fixture
def polished(monkeypatch):
    """The list of every ring polish made by harmcert.geometry."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _polish_argmax(*args)

    monkeypatch.setattr(geometry, "_polish_argmax", counting)
    return calls


@pytest.fixture
def lengths(monkeypatch):
    """The list of the lengths of every circle_values transform made by
    harmcert.geometry."""
    calls = []

    def logging(coeffs, n):
        calls.append(n)
        return circle_values(coeffs, n)

    monkeypatch.setattr(geometry, "circle_values", logging)
    return calls


def make_map(h_coeffs, g_coeffs=(0,)):
    return HarmonicMap(
        h=AnalyticSeries(tuple(h_coeffs)), g=AnalyticSeries(tuple(g_coeffs))
    )


def brute_force_nonadjacent_gap(pts):
    """Oracle: all O(n^2) sample pairs, cyclic neighbours excluded."""
    n = len(pts)
    best = math.inf
    chunk = max(1, (1 << 21) // n)
    idx = np.arange(n)
    for start in range(0, n, chunk):
        block = pts[start:start + chunk, None]
        d = np.abs(block - pts[None, :])
        sep = (idx[start:start + chunk, None] - idx[None, :]) % n
        d[(sep <= 1) | (sep >= n - 1)] = math.inf
        best = min(best, float(d.min()))
    return best


def ring_sums(p, q, offset, r):
    """S0(P), S1(P), S2(P), S0(U), S1(U), S2(U) on the ring r, with
    Sm(X) = sum k^m X_k r^k, P_k = |p_k| + |q_k| and U_k = (k + offset) P_k
    (_section_rings)."""
    P = np.abs(coefficient_columns(p, q)).sum(axis=1)
    k = np.arange(len(P))
    U = (k + offset) * P
    return [float((k ** m * X * r ** k).sum()) for X in (P, U)
            for m in range(3)]


def ring_numerators(p, q, offset, r, n):
    """The least numerator alpha - |gamma| over unimodular zeta at n
    equispaced angles of the ring r, with u = z p' + offset p and v
    likewise built from the derivatives' own values."""
    z = np.exp(2j * np.pi * np.arange(n) / n)

    def on_ring(F):
        return circle_values(np.asarray(F.coeffs) * r ** np.arange(
            len(F.coeffs)), n)

    P, Q = on_ring(p), on_ring(q)
    U = r * z * on_ring(derivative(p)) + offset * P
    V = r * z * on_ring(derivative(q)) + offset * Q
    alpha = (U * np.conj(P) + V * np.conj(Q)).real
    return alpha - np.abs(V * np.conj(P) + np.conj(U) * Q)


def brute_force_radius(F, kind, r_steps=400, t_steps=720):
    """Oracle: first ring radius where the dense-grid functional dips to 0."""
    Fp = AnalyticSeries(tuple(n * c for n, c in enumerate(F.coeffs))[1:])
    Fpp = AnalyticSeries(tuple(n * c for n, c in enumerate(Fp.coeffs))[1:])
    thetas = np.linspace(0, 2 * math.pi, t_steps, endpoint=False)
    ring = np.exp(1j * thetas)
    for k in range(1, r_steps):
        r = k / r_steps
        zs = r * ring
        if kind is RadiusKind.STARLIKE:
            vals = np.real(zs * eval_array(Fp, zs) / eval_array(F, zs))
        else:
            vals = 1.0 + np.real(zs * eval_array(Fpp, zs) / eval_array(Fp, zs))
        if np.min(vals) <= 0.0:
            return r
    return 1.0


def bisection_radius(ring, tol):
    """Oracle: the radius and ring count of a plain bisection on ring signs,
    with the radius search's probe ring at 1 - tol and its halving."""
    hi = 1.0 - tol
    if ring(hi)[0] > 0.0:
        return 1.0, 1
    lo, rings = hi / 2.0, 2
    while not ring(lo)[0] > 0.0:
        hi, lo, rings = lo, lo / 2.0, rings + 1
    while hi - lo > tol:
        mid, rings = 0.5 * (lo + hi), rings + 1
        if ring(mid)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, rings


# Ring functions r -> (minimum, angle) that pass (minimum > 0) below a point
# and fail above it, each hard for a secant step in its own way.
SYNTHETIC_RINGS = {
    "step": lambda r: (1.0 if r < 0.3 else -1.0, 0.5),
    # Without the bisection safeguard, the Illinois rule would need about a
    # thousand halvings of the failing end's minimum.
    "cliff": lambda r: (1.0 if r < 0.7 else -1e300, 0.5),
    "-inf beyond a point": lambda r: (0.9 - r, 0.5) if r < 0.6
    else (-math.inf, 0.5),
    "NaN beyond a point": lambda r: (0.4 - r, 0.5) if r < 0.45
    else (math.nan, 0.5),
    "pole": lambda r: (1.0 - 0.2 / (1.0 - r), 0.5),
    # Proven rings (r < 0.5) report their grid minimum, here 0.3 above the
    # polished minimum that the other rings report.
    "grid and polished minima": lambda r: (
        0.55 - r + (0.3 if r < 0.5 else 0.0), r),
}


class TestRingValues:
    @pytest.mark.parametrize("radii, n, degree", [
        (_AUDIT_RADII, _AUDIT_ANGLES, 40),
        ((0.0, 0.3, 0.9), 16, 12),
        # 601 coefficients on 128 angles: circle_values folds them first.
        ((0.5, 0.95), 128, 600),
    ])
    def test_values_match_horner_in_point_order(self, radii, n, degree):
        rng = np.random.default_rng(degree)
        series = [AnalyticSeries(tuple(
            rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)))
            for d in (degree, degree // 2, 1, 0)]
        zs, got = _ring_values(radii, n, 0, *series)
        assert zs.shape == (len(radii) * n,)
        assert np.array_equal(np.abs(zs[::n]), np.asarray(radii))
        assert got.shape == (4, len(zs))
        # Horner at the returned points, so a value out of order fails too;
        # the bound is 1e-13 of sum |c_k| |z|^k.
        for F, row in zip(series, got):
            mass = np.abs(F.coeffs) @ (np.abs(zs)[None, :]
                                       ** np.arange(len(F.coeffs))[:, None])
            assert np.all(np.abs(row - eval_array(F, zs)) <= 1e-13 * mass)
        # Scaled by 2^e, every value is 2^e times the unscaled one.
        for e in (-7, 5):
            assert np.array_equal(_ring_values(radii, n, e, *series)[1],
                                  2.0**e * got)


class TestRangeShift:
    def test_no_shift_returns_the_series_themselves(self):
        h, g = AnalyticSeries((0, 1, 0.5, 1e300)), AnalyticSeries((0, 0, 2j))
        for order in (1, 2):
            s, H, G = _range_shift(order, h, g)
            assert s == 0 and H is h and G is g

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("h, g", [
        ((0, 1, 1.7e308), (0,)),
        ((0, 1, 1e308, 3 - 2j, 1e-300j), (0, 0, -0.5e308 + 0.25e308j)),
        ((0, 1) + (1e306,) * 199, (0, 0, 1e306j)),
    ])
    def test_shift_scales_every_coefficient_exactly(self, order, h, g):
        series = AnalyticSeries(h), AnalyticSeries(g)
        s, *shifted = _range_shift(order, *series)
        assert s < 0
        for F, S in zip(series, shifted):
            assert S.coeffs == tuple(
                complex(math.ldexp(c.real, s), math.ldexp(c.imag, s))
                for c in F.coeffs)
            # Each k^(order + 1) c_k 2^s, and the sum of the moduli of
            # k^order c_k 2^s, stay below 2^1023.
            assert max(k ** (order + 1) * abs(c)
                       for k, c in enumerate(S.coeffs)) < 2.0 ** 1023
        assert sum(k ** order * abs(c) for S in shifted
                   for k, c in enumerate(S.coeffs)) < 2.0 ** 1023


class TestGrowthEnvelope:
    def test_sharp_quadratic_attains_upper(self):
        lam = 1.0
        f3 = make_map((0, 1, lam))
        audit = growth_envelope_check(f3, ClassParams(lam=lam))
        assert audit.max_violation <= 1e-12
        # Equality holds along the positive real axis, which the rings hit.
        assert audit.tightness["growth_upper"] <= 1e-9
        z = 0.5
        fz = eval_array(f3.h, z) + np.conj(eval_array(f3.g, z))
        assert abs(fz) == pytest.approx(abs(z) + lam * abs(z) ** 2, abs=1e-14)

    def test_identity_strictly_inside(self):
        audit = growth_envelope_check(make_map((0, 1)), ClassParams(lam=1.0))
        assert audit.max_violation == 0.0
        assert audit.tightness["growth_upper"] > 0.0

    def test_random_members_clean(self):
        rng = np.random.default_rng(71)
        params = ClassParams(lam=1.0)
        for _ in range(20):
            f = random_member(int(rng.integers(2, 9)), params, rng)
            audit = growth_envelope_check(f, params)
            assert audit.max_violation <= 1e-9

    def test_rejects_non_member(self):
        f = make_map((0, 1, 1.9))
        with pytest.raises(NonMemberError):
            growth_envelope_check(f, ClassParams(lam=1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 1e150, 1e300])
    def test_sharp_quadratic_rounding_is_no_violation(self, lam):
        # f3 attains both growth envelopes; rounding of |f| grows with lam
        # and must not count as a violation.
        f3 = make_map((0, 1, lam))
        audit = growth_envelope_check(f3, ClassParams(lam=lam))
        assert audit.max_violation == 0.0
        assert set(audit.violations.values()) == {0.0}
        assert audit.tightness["growth_upper"] <= 1e-9 * lam

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 1e150, 1e300])
    def test_one_percent_past_the_envelope_is_flagged(self, lam, monkeypatch):
        # A non-member the audit would refuse; skip the membership gate to
        # see that the band does not hide a real excess.
        monkeypatch.setattr(geometry, "_require_member", lambda *args: None)
        f = make_map((0, 1, 1.01 * lam))
        audit = growth_envelope_check(f, ClassParams(lam=lam))
        assert audit.violations["growth_upper"] > 0.0
        assert audit.violations["deriv_upper"] > 0.0
        assert audit.max_violation > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eta", [1.0, -1.0, 1j])
    def test_lower_envelope_crossing_zero_is_no_violation(self, eta):
        # r - lam r^2 and 1 - 2 lam r vanish on an audit ring at these lam;
        # the slack is measured against the upper envelope, never zero.
        lams = [1 / (0.12 * k) for k in range(1, 9)]
        for lam in lams + [0.5 / 0.96, 0.5 / 0.12, 1e-300, 1e300]:
            f = make_example(CatalogParams(name="f3", lam=lam, eta=eta))
            audit = growth_envelope_check(f, ClassParams(lam=lam))
            assert audit.max_violation == 0.0, lam

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_lam_member_reads_no_violation(self):
        # Unscaled, the transform of eq13's coefficients overflows at
        # lam = 1.7e308, and so does 1 + 2 lam |z|.
        lam = 1.7e308
        f = make_example(CatalogParams(name="eq13", lam=lam))
        audit = growth_envelope_check(f, ClassParams(lam=lam))
        assert audit.max_violation == 0.0
        assert all(t > 0.0 for t in audit.tightness.values())


class TestJacobianBound:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 1e155, 1e300])
    def test_sharp_quadratic_attains_bound(self, lam):
        # Past lam = 1e154 the squares of |h'| and 1 + 2 lam |z| overflow
        # unless the audit scales them first.
        f3 = make_map((0, 1, lam))
        audit = jacobian_bound_check(f3, ClassParams(lam=lam))
        assert audit.max_ratio == pytest.approx(1.0, abs=1e-9)
        assert audit.sense_preserving
        # Rounding of the ratio, about 1e-15, is no violation at any lam.
        assert audit.max_violation == 0.0
        if lam == 1.0:
            z = 0.3
            jac = abs(1 + 2 * lam * z) ** 2
            assert jac == pytest.approx((1 + 2 * lam * z) ** 2, abs=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h, lam", [((0, 1, 1e300), 1e300)])
    def test_extreme_lam_with_a_ring_at_the_centre(self, h, lam):
        # The bound on the inner ring, 0.12, is about 8 times below the
        # outer ring's, and both are read on the one scale of the outer
        # ring.  The map attains the ratio 1 on the positive real axis.
        audit = jacobian_bound_check(make_map(h), ClassParams(lam=lam))
        assert audit.max_ratio == pytest.approx(1.0, abs=1e-9)
        assert audit.sense_preserving

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 1e155, 1e300])
    def test_one_percent_past_the_bound_is_flagged(self, lam):
        f = make_map((0, 1, 1.01 * lam))
        audit = jacobian_bound_check(f, ClassParams(lam=lam))
        assert audit.max_ratio > 1.01
        assert audit.max_violation > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1e308, 1.79e308])
    def test_violation_past_the_double_range_reads_inf(self, lam):
        # Once 0.5 + lam |z| reaches 2^1023, scaling the excess back takes
        # 2^2046: a member reads 0.  A map whose |h'| runs 2 % past the
        # bound reads inf: its excess, near 1e614, lies past the double
        # range.
        params = ClassParams(lam=lam)
        f = random_member(4, params, np.random.default_rng(0))
        assert jacobian_bound_check(f, params).max_violation == 0.0
        audit = jacobian_bound_check(make_map((0, 1, lam / 4)),
                                     ClassParams(lam=lam / 4.08))
        assert audit.max_ratio > 1.02
        assert audit.max_violation == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_lam_transform_stays_finite(self):
        # Unscaled, the transform of h' = 1 + lam z overflows at 1.79e308.
        lam = 1.79e308
        audit = jacobian_bound_check(make_map((0, 1, lam / 2)),
                                     ClassParams(lam=lam))
        assert audit.max_violation == 0.0
        assert audit.sense_preserving

    def test_identity(self):
        audit = jacobian_bound_check(make_map((0, 1)), ClassParams(lam=1.0))
        assert audit.max_violation == 0.0
        assert audit.sense_preserving

    def test_small_coanalytic(self):
        f = make_map((0, 1), (0, 0, 0.2))
        audit = jacobian_bound_check(f, ClassParams(lam=1.0))
        assert audit.max_violation == 0.0
        assert audit.sense_preserving
        zs = np.multiply.outer(np.linspace(0.12, 0.96, 8),
                               np.exp(2j * np.pi * np.arange(128) / 128))
        want = 1.0 - 0.16 * np.abs(zs) ** 2
        got = (np.abs(eval_array(AnalyticSeries((1,)), zs)) ** 2
               - np.abs(eval_array(AnalyticSeries((0, 0.4)), zs)) ** 2)
        assert got == pytest.approx(want, abs=1e-12)


class TestRadiusCertify:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaling_that_rounds_a_coefficient_is_refused(self):
        # The convex row 4 * 1.5e308 passes the double range, so
        # _range_shift scales the columns by 2^-10, which takes 3e-308 into
        # the subnormal range and rounds it.
        F = AnalyticSeries((0, 1, 1.5e308, 3e-308))
        with pytest.raises(ConsistencyError, match="rounds some"):
            radius_certify(F, RadiusKind.CONVEX)
        # The starlike rows are shifted by the same rule, at order 1 (by
        # 2^-7), and round it too.
        with pytest.raises(ConsistencyError, match="rounds some"):
            radius_certify(F, RadiusKind.STARLIKE)
        # Without that coefficient the scaling is exact.
        F = AnalyticSeries((0, 1, 1.5e308))
        assert radius_certify(F, RadiusKind.CONVEX).inner_margin > 0.0
        # The starlike rings then run, and lose their powers near
        # 1/(2 lam), as at every lam from 1e155 on: no rounding is refused.
        with pytest.raises(ConsistencyError,
                           match="fell below the normal range"):
            radius_certify(F, RadiusKind.STARLIKE)

    def test_sharp_quadratic_starlike(self):
        cert = radius_certify(AnalyticSeries((0, 1, 1)), RadiusKind.STARLIKE)
        assert cert.radius == pytest.approx(0.5, abs=1e-4)
        assert cert.inner_margin > 0.0
        r, _ = cert.outer_witness
        assert r <= cert.radius + 1e-4
        assert cert.radius == pytest.approx(
            brute_force_radius(AnalyticSeries((0, 1, 1)), RadiusKind.STARLIKE),
            abs=5e-3,
        )

    def test_sharp_quadratic_convex(self):
        cert = radius_certify(AnalyticSeries((0, 1, 1)), RadiusKind.CONVEX)
        assert cert.radius == pytest.approx(0.25, abs=1e-4)
        assert cert.radius == pytest.approx(
            brute_force_radius(AnalyticSeries((0, 1, 1)), RadiusKind.CONVEX),
            abs=5e-3,
        )

    def test_identity_capped(self):
        for kind in RadiusKind:
            cert = radius_certify(AnalyticSeries((0, 1)), kind)
            assert cert.radius == 1.0
            assert cert.outer_witness is None
            assert cert.inner_margin > 0.0

    def test_scaled_quadratics(self):
        for lam in (0.6, 1.0, 2.0):
            F = AnalyticSeries((0, 1, lam))
            s = radius_certify(F, RadiusKind.STARLIKE)
            c = radius_certify(F, RadiusKind.CONVEX)
            assert s.radius == pytest.approx(1 / (2 * lam), abs=1e-4)
            assert c.radius == pytest.approx(1 / (4 * lam), abs=1e-4)

    def test_ring_through_denominator_zero_fails(self):
        # z + z^2 vanishes at -1, and its derivative at -1/2; both points
        # lie on the grid of their ring at the angle pi.
        F = AnalyticSeries((0, 1, 1))
        for kind, radius in ((RadiusKind.STARLIKE, 1.0), (RadiusKind.CONVEX, 0.5)):
            ring = _section_rings(F, ZERO, kind)
            assert ring(radius) == (-math.inf, math.pi)
        value, _ = _section_rings(F, ZERO, RadiusKind.STARLIKE)(0.5)
        assert math.isfinite(value)

    def test_ring_minimum_is_polished_off_grid(self, polished):
        # For z + w z^2 with |w| = 1 the starlike functional on |z| = r is
        # Re((1 + 2 w z) / (1 + w z)), least at w z = -r, and the ring
        # reports N / S0(P)^2 = Re((1 + 2 w z) conj(1 + w z)) / (1 + r)^2,
        # least there too, at (1 - r)(1 - 2 r) / (1 + r)^2.  Rotating by a
        # third of a grid cell puts that minimum between grid angles.  The
        # chord bound proves the ring at r = 0.45, which the first-order
        # bound left to the polish; at r = 0.4999 the minimum is too small
        # for it, so the grid minimum is polished.
        phi = 2 * math.pi / 256 / 3
        F = AnalyticSeries((0, 1, np.exp(1j * phi)))
        ring = _section_rings(F, ZERO, RadiusKind.STARLIKE)
        assert ring(0.45)[0] > 0.0 and polished == []
        r = 0.4999
        value, angle = ring(r)
        assert len(polished) == 1
        assert value == pytest.approx(
            (1 - r) * (1 - 2 * r) / (1 + r) ** 2, abs=2e-16)
        assert angle == pytest.approx(math.pi - phi, abs=1e-7)

    def test_proven_ring_returns_its_grid_minimum(self, polished):
        # The same map at r = 0.3: the chord bound proves the ring
        # positive, so it reports the least of its grid values of
        # N / S0(P)^2 unpolished.
        r, phi = 0.3, 2 * math.pi / 256 / 3
        F = AnalyticSeries((0, 1, np.exp(1j * phi)))
        value, angle = _section_rings(F, ZERO, RadiusKind.STARLIKE)(r)
        assert polished == []
        z = r * np.exp(2j * math.pi * np.arange(256) / 256)
        wz = np.exp(1j * phi) * z
        grid = ((1 + 2 * wz) * np.conj(1 + wz)).real / (1 + r) ** 2
        k = int(np.argmin(grid))
        assert value == pytest.approx(float(grid[k]), abs=1e-13)
        assert angle == 2 * math.pi * k / 256
        assert value > (1 - r) * (1 - 2 * r) / (1 + r) ** 2

    def test_inner_margin_is_the_certified_rings_minimum(self):
        # The certificate reports the minimum that the search measured on
        # the ring at its radius, or on the probe ring at 1 - tol when the
        # radius is capped; no further ring is tested.
        rng = np.random.default_rng(29)
        tol = 1e-4
        capped = below_one = 0
        for j in range(24):
            d = int(rng.integers(2, 33))
            params = ClassParams(lam=float(rng.uniform(0.25, 3.0)))
            f = random_member(d, params, rng, fill=float(rng.uniform(0.5, 0.95)))
            kind = (RadiusKind.STARLIKE, RadiusKind.CONVEX)[j % 2]
            cert = harmonic_radius_certify(f, params, kind, tol)
            r = 1.0 - tol if cert.radius == 1.0 else cert.radius
            assert cert.inner_margin == _section_rings(f.h, f.g, kind)(r)[0]
            assert cert.inner_margin > 0.0
            capped += cert.radius == 1.0
            below_one += cert.radius < 1.0
        assert capped >= 3 and below_one >= 3

    def test_rejects_unnormalized(self):
        with pytest.raises(ParameterError):
            radius_certify(AnalyticSeries((0, 2, 1)), RadiusKind.STARLIKE)

    def test_rejects_a_zero_near_the_origin(self):
        # The starlike ring test allows one zero inside the ring, the one at
        # the origin.  With c0 = 1e-12 the zero sits at -1e-12, where
        # Re(z F'/F) reads -99 on the circle of radius 1e-14 around it;
        # such a series once certified radius 1.0 (and with a third
        # coefficient 1e9, 4.66e-10), so c0 must be exactly 0.
        for coeffs in ((1e-12, 1), (1e-12, 1, 1e9)):
            with pytest.raises(ParameterError):
                radius_certify(AnalyticSeries(coeffs), RadiusKind.STARLIKE)
        with pytest.raises(ParameterError):
            harmonic_radius_certify(
                HarmonicMap(AnalyticSeries((1e-12, 1, 0.2)), ZERO),
                ClassParams(lam=1.0), RadiusKind.STARLIKE)

    @pytest.mark.parametrize("tol", [0.0, 1e-40, 1e-20, 2.0 ** -51, 0.5])
    def test_rejects_tol_out_of_range(self, tol):
        # Below 2^-50 a bracket near 1 may hold no float strictly inside
        # before it shrinks to tol.
        with pytest.raises(ParameterError, match="tol must lie in"):
            radius_certify(AnalyticSeries((0, 1, 0.8)), RadiusKind.CONVEX, tol)

    def test_least_tol_keeps_the_witness_within_tol(self):
        tol = 2.0 ** -50
        for kind, sharp in ((RadiusKind.STARLIKE, 0.625),
                            (RadiusKind.CONVEX, 0.3125)):
            cert = radius_certify(AnalyticSeries((0, 1, 0.8)), kind, tol)
            r, _ = cert.outer_witness
            assert 0.0 < r - cert.radius <= tol
            assert 0.0 <= sharp - cert.radius < 1e-12

    def test_lost_precision_is_named(self):
        # At lam = 1e200 the starlike radius 1/(2 lam) has r^2 below the
        # normal range, so the quadratic term, which sets the radius, is
        # lost: the ring says so with a NaN minimum, not a failed count.
        F = AnalyticSeries((0, 1, 1e200))
        value, _ = _section_rings(F, ZERO, RadiusKind.STARLIKE)(1e-160)
        assert math.isnan(value)
        with pytest.raises(ConsistencyError, match="lost precision"):
            radius_certify(F, RadiusKind.STARLIKE)

    @pytest.mark.parametrize("tol", [1e-4, 1e-10])
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_RINGS))
    def test_secant_search_on_synthetic_rings(self, name, tol):
        fn = SYNTHETIC_RINGS[name]
        calls = []

        def ring(r):
            calls.append(r)
            return fn(r)

        lo, hi = 0.05, 1.0 - 1e-4
        width = hi - lo
        (m_lo, _), (m_hi, hi_ang) = fn(lo), fn(hi)
        lo, hi, hi_ang = _secant_search(ring, lo, m_lo, hi, m_hi, hi_ang, tol)
        assert fn(lo)[0] > 0.0
        assert not fn(hi)[0] > 0.0 and hi_ang == fn(hi)[1]
        assert 0.0 < hi - lo <= tol
        assert len(calls) <= 2 * math.ceil(math.log2(width / tol)) + 2

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_RINGS) + ["below tol"])
    def test_search_from_the_origin_halves_then_searches(self, name):
        # From the untested origin, lo = 0 with a NaN minimum, every step
        # bisects, and 0.5 * (0 + hi) is hi / 2 exactly: the rings are the
        # probe halved until one passes, bit for bit, then the rings of the
        # search started from that bracket.  Below tol the search goes on
        # to a width of hi / 128.
        fn = SYNTHETIC_RINGS.get(name, lambda r: (3e-9 - r, 0.5))
        tol = 1e-4
        calls, rest = [], []

        def ring(r, log=calls):
            log.append(r)
            return fn(r)

        hi = 1.0 - tol
        out = _secant_search(ring, 0.0, math.nan, hi, *fn(hi), tol)
        halved = [hi / 2.0]
        while not fn(halved[-1])[0] > 0.0:
            halved.append(halved[-1] / 2.0)
        assert calls[:len(halved)] == halved
        lo, hi = halved[-1], (halved[-2] if len(halved) > 1 else hi)
        assert _secant_search(lambda r: ring(r, rest), lo, fn(lo)[0], hi,
                              *fn(hi), tol) == out
        assert calls[len(halved):] == rest
        lo, hi, _ = out
        assert fn(lo)[0] > 0.0 and not fn(hi)[0] > 0.0
        assert 0.0 < hi - lo <= min(tol, hi / 128)

    def test_interior_zero_under_positive_probe_ring(self):
        # z + 10 z^2 vanishes at -0.1, yet the functional is positive on the
        # ring at 1 - tol: only the zero count stops a capped radius of 1.
        F = AnalyticSeries((0, 1, 10))
        s = radius_certify(F, RadiusKind.STARLIKE)
        c = radius_certify(F, RadiusKind.CONVEX)
        assert s.radius == pytest.approx(0.05, abs=1e-4)
        assert c.radius == pytest.approx(0.025, abs=1e-4)

    def test_radius_stays_below_denominator_zeros(self):
        # Oracle: the certified disk holds no zero of F but the origin, and
        # no zero of F'.  A capped radius of 1 claims only |z| <= 1 - tol.
        rng = np.random.default_rng(2718)
        tol = 1e-4
        for _ in range(30):
            d = int(rng.integers(2, 21))
            c = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
            c *= rng.uniform(0.0, 3.0) / np.max(np.abs(c))
            F = AnalyticSeries((0, 1) + tuple(c))
            for kind in RadiusKind:
                if kind is RadiusKind.STARLIKE:
                    poly = np.asarray(F.coeffs)[:0:-1]
                else:
                    poly = np.asarray(derivative(F).coeffs)[::-1]
                roots = np.abs(np.roots(poly))
                nearest = float(roots[roots > 0].min())
                cert = radius_certify(F, kind, tol)
                if cert.radius == 1.0:
                    assert nearest > 1.0 - tol
                else:
                    assert cert.radius < nearest


class TestZeroCountOnce:
    """Each certificate proves its zero count once, on its largest ring."""

    def test_rings_inside_a_counted_ring_skip_the_count(self, monkeypatch):
        # Every count takes np.angle; a ring at or below the largest ring
        # whose count came out as the allowed one takes none.
        counts = []
        angle = np.angle

        def counting(*args):
            counts.append(None)
            return angle(*args)

        monkeypatch.setattr(np, "angle", counting)
        rng = np.random.default_rng(7)
        for j in range(8):
            d = int(rng.integers(3, 65))
            f = random_member(d, ClassParams(8.0), rng)
            kind = (RadiusKind.STARLIKE, RadiusKind.CONVEX)[j % 2]
            ring = _section_rings(f.h, f.g, kind)
            rings, counted = [], 0.0

            def logged(r):
                before = len(counts)
                out = ring(r)
                rings.append((r, len(counts) > before, out[0] > -math.inf))
                return out

            monkeypatch.setattr(geometry, "_section_rings",
                                lambda *args: logged)
            cert = harmonic_radius_certify(f, ClassParams(8.0), kind)
            assert cert.rings == len(rings) >= 5
            assert cert.radius < 1.0
            for r, took_count, allowed in rings:
                if r <= counted:
                    assert not took_count
                elif took_count and allowed:
                    counted = r
            assert 0 < sum(took for _, took, _ in rings) < len(rings) / 2

    def test_counted_ring_leaves_smaller_rings_unchanged(self):
        # ring(r) after a larger ring was counted equals ring(r) from a
        # fresh closure, value and angle to the last bit.
        rng = np.random.default_rng(11)
        for j in range(24):
            d = int(rng.integers(3, 65))
            params = ClassParams(lam=float(rng.uniform(0.25, 3.0)))
            f = random_member(d, params, rng)
            kind = (RadiusKind.STARLIKE, RadiusKind.CONVEX)[j % 2]
            cert = harmonic_radius_certify(f, params, kind)
            outer = min(cert.radius, 1.0 - 1e-4)
            warm = _section_rings(f.h, f.g, kind)
            assert warm(outer)[0] > 0.0
            for r in outer * rng.uniform(0.05, 1.0, 4):
                fresh = _section_rings(f.h, f.g, kind)(float(r))
                again = warm(float(r))
                assert [x.hex() for x in again] == [x.hex() for x in fresh]

    def test_least_modulus_within_the_rounding_term_fails(self):
        # On |z| = 1/2, D = z (1 + 2 x z) for z + 2 x z^2 has its least
        # modulus (1 - x) / 2 at the grid angle pi.  x is chosen so that
        # this modulus exceeds the cell bound delta (1 + 1/pi) by m times
        # the grid values' rounding term eps S0(P): for m < 1 the ring
        # fails its zero count, which a test without the rounding term
        # would have taken; for m = 2 it passes, and the ring minimum of
        # the functional, negative here, is returned.
        n = scan_angles(2)
        k = 2 * math.pi / n * (1 + 1 / math.pi)
        eps = circle_values_error(n)

        def ring_at(m):
            # (1 - x) = k (1 + 2 x) + m eps (1 + x), each side over r = 1/2.
            x = (1 - k - m * eps) / (1 + 2 * k + m * eps)
            F = AnalyticSeries((0, 1, 2 * x))
            return _section_rings(F, ZERO, RadiusKind.STARLIKE)(0.5)

        for m in (0.25, 0.5, 0.75):
            assert ring_at(m) == (-math.inf, math.pi)
        value, _ = ring_at(2.0)
        assert -math.inf < value < 0.0


class TestCoarseRingGrid:
    """From degree 16 up each ring runs its tests on scan_angles(d // 16)
    angles first, and takes the full grid only for the rings left open."""

    def test_every_decision_holds_on_a_dense_horner_grid(self, lengths):
        # Oracle: N / S0(P)^2 from Horner values on 8 times the full grid,
        # plus the returned angle.  A positive ring minimum must have a
        # positive dense minimum, and a ring minimum <= 0 a dense minimum at
        # most that value plus rounding.
        rng = np.random.default_rng(36)
        coarse_pass = coarse_fail = full = 0
        for d, radii in ((16, 4), (24, 4), (48, 4), (96, 3), (128, 2),
                         (256, 2)):
            for kind in RadiusKind:
                params = ClassParams(lam=float(rng.uniform(1.0, 3.0)))
                f = random_member(d, params, rng,
                                  fill=float(rng.uniform(0.5, 0.95)))
                edge = harmonic_radius_certify(f, params, kind).radius
                p, q, offset = ring_parts(f, kind)
                ring = _section_rings(f.h, f.g, kind)
                n = scan_angles(d)
                dense = 2 * math.pi * np.arange(8 * n) / (8 * n)
                # Rings well inside, near and past the certified radius.
                for r in edge * np.append(rng.uniform(0.3, 0.95, radii),
                                          rng.uniform(0.99, 1.2, radii)):
                    r = min(float(r), 0.999)
                    lengths.clear()
                    value, angle = ring(r)
                    if value == -math.inf:
                        continue
                    zs = r * np.exp(1j * np.append(dense, angle))
                    P, Q = eval_array(p, zs), eval_array(q, zs)
                    U = zs * eval_array(derivative(p), zs) + offset * P
                    V = zs * eval_array(derivative(q), zs) + offset * Q
                    s0p = ring_sums(p, q, offset, r)[0]
                    least = float(np.min(_ring_numerator(P, Q, U, V))) / (
                        s0p * s0p)
                    if value > 0.0:
                        assert least > 0.0
                    else:
                        assert least <= value + 1e-9 * (1.0 + abs(value))
                    if n in lengths:
                        full += 1
                    elif value > 0.0:
                        coarse_pass += 1
                    else:
                        coarse_fail += 1
        # Each way a ring ends was taken.
        assert min(coarse_pass, coarse_fail, full) >= 5

    def test_most_convex_rings_skip_the_full_grid(self, lengths):
        # At degree 256 every ring took a full-length transform while each
        # ring read the full grid; now 3 of the certificate's 13 do.
        params = ClassParams(1.0)
        f = random_member(256, params, np.random.default_rng(1))
        cert = harmonic_radius_certify(f, params, RadiusKind.CONVEX)
        assert lengths.count(scan_angles(256)) <= cert.rings / 2

    def test_below_degree_16_rings_read_only_the_full_grid(self, lengths):
        rng = np.random.default_rng(3)
        for d in (3, 8, 15):
            lengths.clear()
            f = random_member(d, ClassParams(2.0), rng)
            for kind in RadiusKind:
                harmonic_radius_certify(f, ClassParams(2.0), kind)
            assert set(lengths) == {scan_angles(d)}


class TestChordBound:
    """A ring is proven positive between its grid angles by the chord
    bound (series.grid_floor with B2 of _section_rings); these tests
    compare it with the first-order bound (S1(U) S0(P) + S0(U) S1(P)) pi/n."""

    def test_rings_only_the_chord_bound_proves_are_positive(self, polished,
                                                            lengths):
        # Rings near the certified radius that ring(r) passes without a
        # polish, on whose deciding grid (the last transform's length n)
        # the grid minimum of N lies at or below the first-order term, so
        # only the chord bound can have proven them.  On 65536 angles N
        # stays positive on each.
        rng = np.random.default_rng(38)
        chord_only = 0
        for j in range(24):
            d = int(rng.integers(2, 65))
            params = ClassParams(lam=float(rng.uniform(0.25, 3.0)))
            f = random_member(d, params, rng, fill=float(rng.uniform(0.5, 0.95)))
            kind = (RadiusKind.STARLIKE, RadiusKind.CONVEX)[j % 2]
            p, q, offset = ring_parts(f, kind)
            ring = _section_rings(f.h, f.g, kind)
            lo, hi = 0.01, 0.999
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if ring(mid)[0] > 0.0 else (lo, mid)
            # The edge of the rings that pass, where the grid minimum is
            # least, and rings up to a tenth inside it.
            for r in (lo, *(lo * rng.uniform(0.9, 1.0, 7))):
                polished.clear()
                lengths.clear()
                if not (ring(float(r))[0] > 0.0 and polished == []):
                    continue
                n = lengths[-1]
                s0p, s1p, _, s0u, s1u, _ = ring_sums(p, q, offset, r)
                first = (s1u * s0p + s0u * s1p) * math.pi / n
                if ring_numerators(p, q, offset, r, n).min() > first:
                    continue
                chord_only += 1
                assert ring_numerators(p, q, offset, r, 65536).min() > 0.0
        assert chord_only >= 30

    def test_chord_term_never_exceeds_the_first_order_term(self):
        # On every grid a ring takes, scan_angles(d) and, from degree 16,
        # scan_angles(d // 16), at radii across the disk.
        rng = np.random.default_rng(256)
        for d in (2, 3, 5, 8, 15, 16, 31, 47, 64, 100, 161, 256):
            full, coarse = scan_angles(d), scan_angles(d // 16)
            grids = (full, coarse) if 4 * coarse <= full else (full,)
            for kind in RadiusKind:
                params = ClassParams(lam=float(rng.uniform(0.25, 3.0)))
                p, q, offset = ring_parts(random_member(d, params, rng), kind)
                for r in rng.uniform(0.05, 0.999, 8):
                    s0p, s1p, s2p, s0u, s1u, s2u = ring_sums(p, q, offset, r)
                    for n in grids:
                        chord = 0.5 * (math.pi / n) ** 2 * (s2u * s0p
                                                            + s0u * s2p)
                        first = math.pi / n * (s1u * s0p + s0u * s1p)
                        assert chord <= first

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1e306, 1e307, 1.7e308])
    @pytest.mark.parametrize("d", [16, 64, 200, 1000])
    def test_extreme_lam_keeps_its_outcomes(self, d, lam):
        # The S2 rows are (k/d)^2 P_k and (k/d)^2 U_k, never above the
        # scaled P_k and U_k; rows k^2 P_k overflow here.  The starlike
        # rings run out of precision near 1/(2 lam).  The convex search
        # halves the probe ring 1 - tol this many times until a ring
        # passes, then closes the bracket to 1/128 of the witness, a few
        # rings more, at or above the class floor less that width.
        halvings = {16: 1013, 64: 1009, 200: 1005, 1000: 1001}[d] + {
            1e306: 0, 1e307: 3, 1.7e308: 7}[lam]
        params = ClassParams(lam)
        f = random_member(d, params, np.random.default_rng(d))
        with pytest.raises(ConsistencyError, match="lost precision"):
            harmonic_radius_certify(f, params, RadiusKind.STARLIKE)
        cert = harmonic_radius_certify(f, params, RadiusKind.CONVEX)
        witness, _ = cert.outer_witness
        width = witness - cert.radius
        assert 0.0 < width <= witness / 128
        assert cert.radius >= 1.0 / (4.0 * lam) - width
        assert halvings < cert.rings <= halvings + 16
        assert cert.inner_margin > 0.0


class TestRadiusBelowTol:
    # The rings z + lam z^2 took when a halving loop ran before the search
    # and every radius below tol came from halving alone, 0.57-0.89 of the
    # sharp one.
    HALVED_RINGS = {(1e4, "Starlike"): 16, (1e4, "Convex"): 17,
                    (1e100, "Starlike"): 335, (1e100, "Convex"): 336,
                    (1e307, "Convex"): 1023}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam, kind", [
        (1e4, RadiusKind.STARLIKE), (1e4, RadiusKind.CONVEX),
        (1e100, RadiusKind.STARLIKE), (1e100, RadiusKind.CONVEX),
        (1e307, RadiusKind.CONVEX)])
    def test_sharp_quadratic_within_2_to_the_minus_7(self, lam, kind):
        f = make_example(CatalogParams(name="f3", lam=lam))
        sharp = 1.0 / ((2.0 if kind is RadiusKind.STARLIKE else 4.0) * lam)
        cert = harmonic_radius_certify(f, ClassParams(lam), kind)
        assert (1 - 2**-7) * sharp <= cert.radius <= sharp
        witness, _ = cert.outer_witness
        assert witness - cert.radius <= witness / 128
        assert cert.rings <= self.HALVED_RINGS[lam, kind.value] + 16

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_starlike_at_1e307_still_loses_precision(self):
        lam = 1e307
        f = make_example(CatalogParams(name="f3", lam=lam))
        with pytest.raises(ConsistencyError, match="lost precision"):
            harmonic_radius_certify(f, ClassParams(lam), RadiusKind.STARLIKE)

    def test_floor_check_refuses_a_radius_below_tol(self, monkeypatch):
        # A ring test that fails every ring above 0.98 of the convex floor
        # 2.5e-5, far below tol = 1e-4: the search resolves the radius to
        # 1/128, so the floor less that width exposes it.  Checked against
        # floor - tol, as it was, the radius could never fall short here.
        lam = 1e4
        floor = 1.0 / (4.0 * lam)
        section_rings = geometry._section_rings

        def mutant(a, b, kind):
            ring = section_rings(a, b, kind)
            return lambda r: (-math.inf, 0.0) if r > 0.98 * floor else ring(r)

        monkeypatch.setattr(geometry, "_section_rings", mutant)
        f = make_example(CatalogParams(name="f3", lam=lam))
        with pytest.raises(ConsistencyError, match="below the class floor"):
            harmonic_radius_certify(f, ClassParams(lam), RadiusKind.CONVEX)


class TestHarmonicRadius:
    def test_analytic_reduction(self):
        f3 = make_map((0, 1, 1.0))
        cert = harmonic_radius_certify(f3, ClassParams(lam=1.0),
                                       RadiusKind.STARLIKE)
        assert cert.radius == pytest.approx(0.5, abs=1e-4)

    def test_small_level_caps_starlike(self):
        f = make_map((0, 1), (0, 0, 0.2))
        cert = harmonic_radius_certify(f, ClassParams(lam=0.4),
                                       RadiusKind.STARLIKE)
        assert cert.radius == 1.0
        assert cert.outer_witness is None

    def test_identity_caps_both(self):
        f = make_map((0, 1))
        for kind in RadiusKind:
            cert = harmonic_radius_certify(f, ClassParams(lam=1.0), kind)
            assert cert.radius == 1.0

    def test_floors_for_random_members(self):
        rng = np.random.default_rng(73)
        params = ClassParams(lam=1.0)
        for _ in range(5):
            f = random_member(int(rng.integers(2, 7)), params, rng)
            s = harmonic_radius_certify(f, params, RadiusKind.STARLIKE)
            c = harmonic_radius_certify(f, params, RadiusKind.CONVEX)
            assert s.radius >= 0.5 - 1e-4
            assert c.radius >= 0.25 - 1e-4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_high_powers_still_certify(self):
        # r^1024 at r = 1/2 and r^256 near r = 0.06 leave the normal range,
        # but next to the rings' low-order terms those powers carry nothing,
        # so the rings pass and both maps reach their class floors.
        rng = np.random.default_rng(1024)
        params = ClassParams(lam=1.0)
        f = random_member(1024, params, rng)
        sharp_z2 = make_map((0, 1, 4.99) + (0,) * 253 + (1e-6,))
        for g, lam in ((f, 1.0), (sharp_z2, 5.0)):
            params = ClassParams(lam=lam)
            s = harmonic_radius_certify(g, params, RadiusKind.STARLIKE)
            c = harmonic_radius_certify(g, params, RadiusKind.CONVEX)
            assert s.radius >= min(1.0, 1.0 / (2.0 * lam)) - 1e-4
            assert c.radius >= min(1.0, 1.0 / (4.0 * lam)) - 1e-4
        assert s.radius < 0.11 and c.radius < 0.06

    def test_rejects_non_member(self):
        f = make_map((0, 1, 1.9))
        with pytest.raises(NonMemberError):
            harmonic_radius_certify(f, ClassParams(lam=1.0), RadiusKind.STARLIKE)

    def test_ring_numerator_is_brute_force_minimum(self):
        # Sections F = h + zeta g evaluated directly: the starlike numerator
        # N_zeta = Re(z F' conj(F)) and the convex one
        # Re((F' + z F'') conj(F')), least over 20000 phases, lie within
        # the phase step's reach of the closed form alpha - |gamma|, never
        # below it.
        rng = np.random.default_rng(97)
        zetas = np.exp(2j * np.pi * np.arange(20000) / 20000)
        for _ in range(12):
            params = ClassParams(lam=float(rng.uniform(0.5, 3.0)))
            f = random_member(int(rng.integers(2, 13)), params, rng, fill=0.95)
            z = rng.uniform(0.2, 1.0, 16) * np.exp(2j * np.pi * rng.random(16))
            h1, g1 = derivative(f.h), derivative(f.g)
            H = [eval_array(F, z) for F in (f.h, h1, derivative(h1))]
            G = [eval_array(F, z) for F in (f.g, g1, derivative(g1))]
            F0, F1, F2 = (H[k][:, None] + zetas * G[k][:, None] for k in range(3))
            zc = z[:, None]
            cases = (
                ((zc * F1 * np.conj(F0)).real, 0, 0.0),
                (((F1 + zc * F2) * np.conj(F1)).real, 1, 1.0),
            )
            for sections, k, offset in cases:
                brute = sections.min(axis=1)
                scale = 1.0 + np.abs(sections).max()
                closed = _ring_numerator(H[k], G[k],
                                         z * H[k + 1] + offset * H[k],
                                         z * G[k + 1] + offset * G[k])
                assert np.all(closed <= brute + 1e-12 * scale)
                assert np.all(brute - closed <= 1e-7 * scale)

    def test_unpolished_rings_are_positive_on_a_dense_grid(self, polished):
        # Every ring that ring(r) passes without a polish was proven
        # positive by the chord bound, so the least numerator
        # alpha - |gamma| stays positive between its grid angles too: here
        # on a 64x oversampled grid, with u = z p' + offset p and v likewise
        # built from the derivatives' own values.
        rng = np.random.default_rng(5)
        proven = 0
        for j in range(16):
            d = int(rng.integers(2, 65))
            params = ClassParams(lam=float(rng.uniform(0.25, 3.0)))
            f = random_member(d, params, rng, fill=float(rng.uniform(0.5, 0.95)))
            kind = (RadiusKind.STARLIKE, RadiusKind.CONVEX)[j % 2]
            p, q, offset = ring_parts(f, kind)
            ring = _section_rings(f.h, f.g, kind)
            n = 64 * scan_angles(d)
            # Random radii, plus the edge of the rings that pass: there the
            # grid minimum is small and the grid alone would accept rings
            # whose minimum between grid angles is negative.
            lo, hi = 0.01, 0.999
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if ring(mid)[0] > 0.0 else (lo, mid)
            for r in (*rng.uniform(0.05, 0.999, 4), lo):
                before = len(polished)
                value, _ = ring(float(r))
                if not (value > 0.0 and len(polished) == before):
                    continue
                proven += 1
                assert ring_numerators(p, q, offset, r, n).min() > 0.0
        assert proven >= 50

    def test_radius_certificates_polish_fewer_rings(self, polished):
        # A ring skips the polish where a bound proves it positive.  On
        # these ten certificates a bisection polished 84 rings before any
        # bound, and 57 of its 145 rings after the first-order one; the
        # secant search takes 81 rings and polished 21 of them under the
        # first-order bound, 12 under the chord bound.  (80 rings while
        # every ring read the full grid: a ring that the coarse grid
        # decides reports that grid's minimum, which moves the secant
        # steps.)  Rings that report N / S0(P)^2, one quantity on one
        # scale, take 79 rings and polish 10, where N / (|p| + |q|)^2
        # took 81 and polished 12.
        rng = np.random.default_rng(41)
        rings = 0
        for d in (3, 6, 12, 24, 48):
            for kind in RadiusKind:
                params = ClassParams(lam=float(rng.uniform(0.5, 3.0)))
                f = random_member(d, params, rng, fill=0.9)
                rings += harmonic_radius_certify(f, params, kind).rings
        assert rings == 79 < 145
        assert len(polished) == 10 < 57

    def test_ring_polish_stops_at_its_rounding_error(self, monkeypatch):
        # An undecided ring's polish stops where its numerator N drops by
        # the rounding error of one evaluation: the certificates keep their
        # ring counts and radii, with about 7 points per polished ring
        # where a polish down to the 1e-9 width took about 13.  Three
        # certificates of each kind per degree give 52 polished rings (46
        # while rings reported N / (|p| + |q|)^2); two gave 30 once the
        # chord bound proved more rings.
        exact, points = [False], []

        def polish(fn, t0, v0, step, err):
            calls = []

            def at(t):
                calls.append(t)
                return fn(t)

            out = _polish_argmax(at, t0, v0, step, 0.0 if exact[0] else err)
            if not exact[0]:
                points.append(len(calls))
            return out

        monkeypatch.setattr(geometry, "_polish_argmax", polish)
        rng = np.random.default_rng(43)
        for d in (3, 4, 6, 8, 12, 16, 24, 32, 48, 64):
            for kind in (*RadiusKind,) * 3:
                params = ClassParams(lam=float(rng.uniform(0.25, 3.0)))
                f = random_member(d, params, rng,
                                  fill=float(rng.uniform(0.5, 0.95)))
                exact[0] = True
                want = harmonic_radius_certify(f, params, kind)
                exact[0] = False
                got = harmonic_radius_certify(f, params, kind)
                assert got.rings == want.rings
                assert abs(got.radius - want.radius) <= 1e-15 * want.radius
        assert len(points) >= 40
        assert np.mean(points) <= 9

    def test_radius_search_matches_bisection_in_fewer_rings(self):
        # Every radius lies within tol of a plain bisection on the same
        # rings, and the secant search tests fewer rings in total.
        rng = np.random.default_rng(16)
        tol = 1e-4
        searched = bisected = below_one = 0
        for j in range(40):
            d = int(rng.integers(3, 65))
            params = ClassParams(lam=float(rng.uniform(0.25, 3.0)))
            f = random_member(d, params, rng, fill=float(rng.uniform(0.5, 0.95)))
            kind = (RadiusKind.STARLIKE, RadiusKind.CONVEX)[j % 2]
            cert = harmonic_radius_certify(f, params, kind, tol)
            radius, rings = bisection_radius(_section_rings(f.h, f.g, kind), tol)
            assert abs(cert.radius - radius) <= tol
            searched += cert.rings
            bisected += rings
            below_one += radius < 1.0
        assert below_one >= 15
        assert searched < bisected

    def test_no_section_fails_inside_radius(self):
        # Dense-zeta oracle: on the ring one tol inside the certified radius,
        # every section h + zeta g of 2000 zeta keeps its functional
        # positive at 8192 angles.  With P, Q the ring values of the
        # denominators' parts and W, X those of z D' + offset D, each
        # section's numerator is Re((W + zeta X) conj(P + zeta Q)), read for
        # every zeta at once as c0 + cos(phi) c1 + sin(phi) c2.
        rng = np.random.default_rng(11)
        tol = 1e-4
        phi = 2 * np.pi * np.arange(2000) / 2000
        trig = np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi)], axis=1)
        z = np.exp(2j * np.pi * np.arange(8192) / 8192)
        for j in range(40):
            params = ClassParams(lam=float(rng.uniform(0.5, 3.0)))
            f = random_member(int(rng.integers(2, 13)), params, rng, fill=0.95)
            kind = (RadiusKind.STARLIKE, RadiusKind.CONVEX)[j % 2]
            cert = harmonic_radius_certify(f, params, kind, tol)
            p, q, offset = ring_parts(f, kind)
            zr = (cert.radius - tol) * z
            P, Q = eval_array(p, zr), eval_array(q, zr)
            W = zr * eval_array(derivative(p), zr) + offset * P
            X = zr * eval_array(derivative(q), zr) + offset * Q
            # Re(zeta a) + Re(conj(zeta) b), a = X conj(P), b = W conj(Q).
            a, b = X * np.conj(P), W * np.conj(Q)
            coeffs = np.stack([(W * np.conj(P) + X * np.conj(Q)).real,
                               a.real + b.real, b.imag - a.imag])
            for k in range(0, 2000, 250):
                assert float((trig[k:k + 250] @ coeffs).min()) > 0.0
            worst = min(
                radius_certify(
                    linear_combination(
                        [(1, f.h), (np.exp(2j * np.pi * k / 8), f.g)]),
                    kind, tol,
                ).radius
                for k in range(8)
            )
            assert cert.radius <= worst + tol

    def test_inner_margin_is_below_every_sections_functional(self):
        # Dense oracle: on the ring whose minimum the certificate reports,
        # every section's functional on 8192 angles x 64 zeta is positive
        # and at least inner_margin.  A third of the maps are capped
        # starlike certificates of degree 32 to 64, decided on the coarse
        # grid; rings that reported N / (|p| + |q|)^2 overstated the
        # margin on 5 of these 48, by up to 2 %.
        rng = np.random.default_rng(1)
        capped = 0
        for j in range(48):
            if j % 3 == 2:
                d, lam = int(rng.integers(32, 65)), rng.uniform(0.25, 0.5)
                kind = RadiusKind.STARLIKE
            else:
                d, lam = int(rng.integers(2, 65)), rng.uniform(0.25, 3.0)
                kind = (RadiusKind.STARLIKE, RadiusKind.CONVEX)[j % 3]
            params = ClassParams(lam=float(lam))
            f = random_member(d, params, rng, fill=float(rng.uniform(0.5, 0.95)))
            cert = harmonic_radius_certify(f, params, kind)
            r = 1.0 - 1e-4 if cert.radius == 1.0 else cert.radius
            least = least_section_functional(f, kind, r)
            assert least > 0.0 and least >= cert.inner_margin, (j, least)
            capped += cert.radius == 1.0 and d >= 32 and j % 3 == 2
        assert capped >= 12

    def test_polish_values_lie_within_their_error_bound(self, polished):
        # At random angles in each polish's bracket, the numerator N that
        # the polish reads from one power-matrix row, on the ring's scale
        # 2^e, lies within 2 err of N from Horner values: err bounds the
        # row's rounding, and the Horner values' own is smaller.
        rng = np.random.default_rng(44)
        checked = 0
        for j in range(24):
            d = int(rng.integers(2, 65))
            params = ClassParams(lam=float(rng.uniform(0.25, 3.0)))
            f = random_member(d, params, rng, fill=float(rng.uniform(0.5, 0.95)))
            kind = (RadiusKind.STARLIKE, RadiusKind.CONVEX)[j % 2]
            p, q, offset = ring_parts(f, kind)
            P = np.abs(coefficient_columns(p, q)).sum(axis=1)
            k = np.arange(len(P))
            ring = _section_rings(f.h, f.g, kind)
            lo, hi = 0.01, 0.999
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                polished.clear()
                lo, hi = (mid, hi) if ring(mid)[0] > 0.0 else (lo, mid)
                if not polished:
                    continue
                at, t0, _, step, err = polished[0]
                # The ring's scale: the largest term max(P_k, U_k) r^k,
                # U_k = (k + offset) P_k, brought into [1/2, 1).
                e = -math.frexp(float(np.max(
                    np.maximum(1.0, k + offset) * P * mid ** k)))[1]
                for t in t0 + step * rng.uniform(-1.0, 1.0, 8):
                    z = mid * np.exp(1j * t)
                    pv, qv = eval_array(p, z), eval_array(q, z)
                    uv = z * eval_array(derivative(p), z) + offset * pv
                    vv = z * eval_array(derivative(q), z) + offset * qv
                    N = math.ldexp(float(_ring_numerator(pv, qv, uv, vv)),
                                   2 * e)
                    assert abs(-at(float(t)) - N) <= 2.0 * err
                    checked += 1
        assert checked >= 200

    def test_degree_256_memory(self):
        params = ClassParams(lam=1.0)
        f = random_member(256, params, np.random.default_rng(20240613), fill=0.8)
        tracemalloc.start()
        try:
            harmonic_radius_certify(f, params, RadiusKind.STARLIKE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSecondDerivativeTest:
    def test_threshold_quadratic(self):
        for lam in (0.5, 1.0, 2.0):
            out = second_derivative_test(
                AnalyticSeries((0, 1, lam)), AnalyticSeries((0,)),
                ClassParams(lam=lam),
            )
            assert out.passes
            assert out.measured_max == pytest.approx(2 * lam, abs=1e-9)
            assert out.membership.verdict is not Verdict.NON_MEMBER

    def test_identity(self):
        out = second_derivative_test(
            AnalyticSeries((0, 1)), AnalyticSeries((0,)), ClassParams(lam=1.0)
        )
        assert out.passes and out.measured_max == 0.0

    def test_no_slack_above_the_threshold(self):
        # |h''| = 2.000000001 > 2 lam: a sufficient test proves nothing
        # there, and the sup 1 + 5e-10 lies far past its rounding above
        # lam, so the map is no member.
        h = AnalyticSeries((0, 1, 1 + 5e-10))
        for runner, threshold in ((second_derivative_test, 2.0),
                                  (euler_operator_test, 3.0)):
            out = runner(h, AnalyticSeries((0,)), ClassParams(lam=1.0))
            assert out.measured_max > threshold
            assert not out.passes
            assert out.membership.verdict is Verdict.NON_MEMBER

    @pytest.mark.parametrize("lam", [1e-7, 0.3, 1.0, 2.5, 1e150])
    def test_sharp_quadratic_passes_at_the_threshold(self, lam):
        # z + lam z^2 reads its threshold exactly, with no tolerance.
        for runner, threshold in ((second_derivative_test, 2.0 * lam),
                                  (euler_operator_test, 3.0 * lam)):
            out = runner(AnalyticSeries((0, 1, lam)), AnalyticSeries((0,)),
                         ClassParams(lam=lam))
            assert out.measured_max == threshold
            assert out.passes

    def test_cubic_fails_test_and_membership(self):
        out = second_derivative_test(
            AnalyticSeries((0, 1, 0, 1.0)), AnalyticSeries((0,)),
            ClassParams(lam=1.0),
        )
        assert not out.passes
        assert out.measured_max == pytest.approx(6.0, abs=1e-9)
        assert out.membership.verdict is Verdict.NON_MEMBER
        assert out.membership.measured_sup == pytest.approx(2.0, abs=1e-9)


class TestEulerOperatorTest:
    def test_threshold_quadratic(self):
        for lam in (0.5, 1.0, 2.0):
            out = euler_operator_test(
                AnalyticSeries((0, 1, lam)), AnalyticSeries((0,)),
                ClassParams(lam=lam),
            )
            assert out.passes
            assert out.measured_max == pytest.approx(3 * lam, abs=1e-9)

    def test_identity(self):
        out = euler_operator_test(
            AnalyticSeries((0, 1)), AnalyticSeries((0,)), ClassParams(lam=1.0)
        )
        assert out.passes and out.measured_max == 0.0

    def test_cubic_at_threshold(self):
        lam = 1.0
        out = euler_operator_test(
            AnalyticSeries((0, 1, 0, 3 * lam / 8)), AnalyticSeries((0,)),
            ClassParams(lam=lam),
        )
        assert out.passes
        assert out.measured_max == pytest.approx(3 * lam, abs=1e-9)
        assert out.membership.verdict is Verdict.MEMBER
        assert out.membership.measured_sup == pytest.approx(3 * lam / 4, abs=1e-9)


@pytest.mark.parametrize("lam", [1e8, 1e10, 1e15, 1e300])
@pytest.mark.parametrize("eta", [1.0, complex(math.cos(0.7), math.sin(0.7))],
                         ids=["eta=1", "eta=exp(0.7i)"])
def test_differential_tests_pass_sharp_quadratic_at_large_lam(lam, eta):
    # f3 = z + lam eta z^2 meets both thresholds with equality, and at
    # these lam its measured maximum reads them exactly: the tests take no
    # tolerance, so a rounding above them would fail.
    f = make_example(CatalogParams(name="f3", lam=lam, eta=eta))
    params = ClassParams(lam=lam)
    for runner, threshold in ((second_derivative_test, 2.0 * lam),
                              (euler_operator_test, 3.0 * lam)):
        out = runner(f.h, f.g, params)
        assert out.passes
        assert out.threshold == threshold
        assert out.measured_max == pytest.approx(threshold, rel=1e-12)
        assert out.membership.verdict is Verdict.BOUNDARY_SHARP


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [1e308, 1.7e308])
@pytest.mark.parametrize("name", ["eq13", "f3", "f_a", "f_b"])
def test_differential_tests_at_the_double_range(name, lam):
    # h'' of z + lam z^2 is 2 lam, past the double range, and eq13's sup
    # 2.5 lam lies above 2 lam although both read inf.  The images come
    # from coefficients scaled by a power of two and meet the threshold
    # scaled alike, so the sharp maps pass at it and eq13 fails.
    f = make_example(CatalogParams(name=name, lam=lam))
    params = ClassParams(lam=lam)
    for runner in (second_derivative_test, euler_operator_test):
        out = runner(f.h, f.g, params)
        assert out.passes is (name != "eq13")
        assert out.measured_max == out.threshold == math.inf


@pytest.mark.parametrize("lam", [0.5, 2.0, 1e150])
def test_differential_tests_read_unscaled_below_the_double_range(lam):
    # Where no coefficient of an image nears the double range, each test
    # measures the images themselves, bit for bit.
    rng = np.random.default_rng(29)
    params = ClassParams(lam=lam)
    f = random_member(12, params, rng)
    for runner, image, factor in (
            (second_derivative_test, lambda F: derivative(derivative(F)),
             2.0),
            (euler_operator_test, geometry._euler_image, 3.0)):
        out = runner(f.h, f.g, params)
        assert out.measured_max == paired_boundary_sup(image(f.h),
                                                       image(f.g))[0]
        assert out.threshold == factor * lam


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [1e308, 1.7e308])
@pytest.mark.parametrize("name", ["eq13", "f3", "f_a", "f_b"])
def test_envelope_audits_at_the_double_range(name, lam):
    # derivative(h) of z + lam z^2 overflows here; both audits form it from
    # coefficients scaled by a power of two, and every member reads clean.
    f = make_example(CatalogParams(name=name, lam=lam))
    params = ClassParams(lam=lam)
    assert growth_envelope_check(f, params).max_violation == 0.0
    assert jacobian_bound_check(f, params).max_violation == 0.0


class TestConvolution:
    def test_sharp_square(self):
        fb = make_map((0, 1), (0, 0, -1.0))
        out, rep = convolve_members(fb, fb, ClassParams(lam=1.0))
        assert out.h.coeffs == (0j, 1 + 0j)
        assert out.g.coeffs == (0j, 0j, 1 + 0j)
        assert rep.verdict is Verdict.BOUNDARY_SHARP

    def test_member_square_small_level(self):
        f = make_map((0, 1, 0.5))
        out, rep = convolve_members(f, f, ClassParams(lam=0.5))
        assert out.h.coeffs == (0j, 1 + 0j, 0.25 + 0j)
        assert rep.verdict is Verdict.MEMBER
        assert rep.measured_sup == pytest.approx(0.25, abs=1e-9)

    def test_rejects_non_member_input(self):
        good = make_map((0, 1))
        bad = make_map((0, 1, 1.9))
        with pytest.raises(NonMemberError):
            convolve_members(good, bad, ClassParams(lam=1.0))

    def test_random_pairs_stay_members(self):
        rng = np.random.default_rng(79)
        for lam in (0.5, 1.0):
            params = ClassParams(lam=lam)
            for _ in range(10):
                f1 = random_member(int(rng.integers(2, 7)), params, rng)
                f2 = random_member(int(rng.integers(2, 7)), params, rng)
                _, rep = convolve_members(f1, f2, params)
                assert rep.verdict is not Verdict.NON_MEMBER


class TestConvexCombination:
    def test_single(self):
        f = make_map((0, 1, 0.3))
        out, rep = convex_combination([f], [1.0], ClassParams(lam=1.0))
        assert out.h.coeffs == f.h.coeffs
        assert rep.verdict is Verdict.MEMBER

    def test_sharp_pair(self):
        lam = 1.0
        fa = make_map((0, 1, lam))
        fb = make_map((0, 1), (0, 0, -lam))
        out, rep = convex_combination([fa, fb], [0.5, 0.5], ClassParams(lam=lam))
        assert out.h.coeffs == (0j, 1 + 0j, 0.5 + 0j)
        assert out.g.coeffs == (0j, 0j, -0.5 + 0j)
        assert rep.verdict is Verdict.BOUNDARY_SHARP
        assert rep.measured_sup == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_convex_weights(self):
        f = make_map((0, 1))
        with pytest.raises(ParameterError):
            convex_combination([f, f], [0.7, 0.7], ClassParams(lam=1.0))
        with pytest.raises(ParameterError):
            convex_combination([f, f], [1.5, -0.5], ClassParams(lam=1.0))

    def test_weights_keep_the_theorem_hypothesis(self):
        # Weights a little outside [0, 1], or summing a little past 1, once
        # pushed a combination of sharp maps past lam.
        params = ClassParams(lam=1.0)
        f, g = (make_example(CatalogParams(name="f3", lam=1.0, eta=eta))
                for eta in (-1.0, 1.0))
        with pytest.raises(ParameterError, match=r"lie in \[0, 1\]"):
            convex_combination([f, g], [-1e-12, 1 + 1e-12], params)
        _, rep = convex_combination([g, g], [0.5 + 5e-13, 0.5], params)
        assert rep.verdict is Verdict.BOUNDARY_SHARP
        for k in (3, 7, 10, 100, 1000):
            _, rep = convex_combination([g] * k, [1 / k] * k, params)
            assert rep.verdict is Verdict.BOUNDARY_SHARP

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan],
                                         [math.inf, 0.0], [1.0, -math.inf]])
    def test_rejects_non_finite_weights(self, weights):
        f = make_map((0, 1))
        with pytest.raises(ParameterError, match=r"weights must lie in \[0, 1\]"):
            convex_combination([f, f], weights, ClassParams(lam=1.0))


class TestBoundaryCurve:
    def test_identity_circle(self):
        audit = boundary_curve_audit(make_map((0, 1)), ClassParams(lam=1.0), 4096)
        assert audit.polygonal_length == pytest.approx(2 * math.pi, abs=1e-3)
        assert audit.max_lipschitz_ratio <= 1.0 + 1e-9
        assert audit.min_pairwise_gap > 0.0

    def test_sharp_quadratic_small_level(self):
        lam = 0.5
        audit = boundary_curve_audit(
            make_map((0, 1, lam)), ClassParams(lam=lam), 4096
        )
        assert audit.polygonal_length <= (1 + 2 * lam) * 2 * math.pi + 1e-3
        assert audit.max_lipschitz_ratio <= 1 + 2 * lam + 1e-6
        assert audit.max_modulus <= 2.0 + 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 1e300, 1e308, 1.7e308])
    @pytest.mark.parametrize("name", ["eq13", "f3", "f_a", "f_b"])
    def test_lipschitz_ratio_is_the_derivatives_paired_maximum(self, name,
                                                               lam):
        # Read from coefficients scaled by a power of two only where a
        # derivative coefficient k c_k would pass the double range, and
        # scaled back: bit for bit the paired maximum of h' and g' while
        # those are finite, inf once 1 + 2 lam is past the double range.
        f = make_example(CatalogParams(name=name, lam=lam))
        ratio = boundary_curve_audit(f, ClassParams(lam)).max_lipschitz_ratio
        try:
            hp, gp = derivative(f.h), derivative(f.g)
        except ParameterError:
            assert ratio == math.inf and 1.0 + 2.0 * lam == math.inf
        else:
            assert ratio == paired_boundary_sup(hp, gp)[0]

    def test_lipschitz_bound_covers_every_chord(self):
        rng = np.random.default_rng(43)
        for lam in (0.5, 1.0, 2.0):
            params = ClassParams(lam=lam)
            f3 = make_example(CatalogParams(name="f3", lam=lam, eta=1j))
            audits = [boundary_curve_audit(f, params, 512) for f in
                      (f3, random_member(int(rng.integers(2, 12)), params, rng))]
            assert audits[0].max_lipschitz_ratio == pytest.approx(1 + 2 * lam, abs=1e-12)
            for audit in audits:
                chord = np.abs(audit.points[:, None] - audit.points[None, :])
                ring = np.exp(1j * audit.thetas)
                base = np.abs(ring[:, None] - ring[None, :])
                np.fill_diagonal(base, 1.0)
                assert np.max(chord / base) <= audit.max_lipschitz_ratio * (1 + 1e-12)

    def test_gap_sweep_matches_brute_force(self):
        rng = np.random.default_rng(47)
        params = ClassParams(lam=1.0)
        curves = [
            boundary_curve_audit(make_map((0, 1)), params, 512).points,
            boundary_curve_audit(make_map((0, 1), (0, 0, -1.0)), params, 1024).points,
        ]
        for _ in range(8):
            f = random_member(int(rng.integers(2, 16)), params, rng)
            curves.append(boundary_curve_audit(f, params, 512).points)
        # Repeated points and a vertical run of equal real parts.
        curves.append(np.array([0, 1, 0, 1j, 2j, 3j, 1 + 1j, 0.5], dtype=complex))
        curves.append(rng.integers(0, 4, 64) + 1j * rng.integers(0, 4, 64))
        curves.append(np.array([0, 1, 2], dtype=complex))
        for pts in curves:
            assert _min_nonadjacent_gap(pts) == brute_force_nonadjacent_gap(pts)

    def test_scaled_length_and_gap_keep_every_bit(self):
        # Measured on the samples scaled by a power of two and read back,
        # length and gap are those of the samples themselves, bit for bit.
        rng = np.random.default_rng(53)
        for _ in range(8):
            params = ClassParams(lam=float(rng.uniform(0.25, 3.0)))
            f = random_member(int(rng.integers(2, 40)), params, rng)
            audit = boundary_curve_audit(f, params, 512)
            pts = audit.points
            assert audit.polygonal_length == float(
                np.sum(np.abs(np.diff(pts, append=pts[:1]))))
            assert audit.min_pairwise_gap == _min_nonadjacent_gap(pts)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1e308, 1.7e308])
    def test_extreme_lam_reads_inf_without_overflow(self, lam):
        # eq13, z + lam/2 z^2 + lam/4 z^3: the curve's length passes the
        # double range, its samples and their gap do not.
        f = make_example(CatalogParams(name="eq13", lam=lam))
        audit = boundary_curve_audit(f, ClassParams(lam=lam), 2048)
        assert audit.polygonal_length == math.inf
        assert math.isfinite(audit.max_modulus)
        assert 0.0 < audit.min_pairwise_gap < audit.max_modulus

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["f3", "f_a", "f_b"])
    def test_gap_within_rounding_reads_unresolved(self, name):
        # The samples at theta and theta + pi lie 2 apart, far below their
        # rounding next to points of modulus 1e308, so the audit cannot
        # tell that gap from a crossing; it once read 0.0.
        f = make_example(CatalogParams(name=name, lam=1e308))
        audit = boundary_curve_audit(f, ClassParams(lam=1e308))
        assert math.isnan(audit.min_pairwise_gap)
        # At lam = 0.5 the same gap is resolved and read as before.
        f = make_example(CatalogParams(name=name, lam=0.5))
        audit = boundary_curve_audit(f, ClassParams(lam=0.5))
        assert audit.min_pairwise_gap == _min_nonadjacent_gap(audit.points)
        assert audit.min_pairwise_gap > 0.0

    def test_sharp_coanalytic(self):
        audit = boundary_curve_audit(
            make_map((0, 1), (0, 0, -1.0)), ClassParams(lam=1.0), 2048
        )
        assert audit.polygonal_length <= 6 * math.pi + 1e-3
        assert audit.min_pairwise_gap > 0.0

    def test_sample_floor(self):
        with pytest.raises(ParameterError):
            boundary_curve_audit(make_map((0, 1)), ClassParams(lam=1.0), 256)

    @pytest.mark.parametrize("bad", [511, 1024.0, True, "2048"])
    def test_samples_must_be_an_integer_of_at_least_512(self, bad):
        with pytest.raises(ParameterError,
                           match="samples must be an integer of at least 512"):
            boundary_curve_audit(make_map((0, 1)), ClassParams(lam=1.0), bad)

    def test_numpy_integer_samples(self):
        audit = boundary_curve_audit(make_map((0, 1)), ClassParams(lam=1.0),
                                     np.int64(600))
        assert type(audit.thetas) is np.ndarray and len(audit.thetas) == 600
        assert len(audit.points) == 600

    def test_rejects_non_member(self):
        with pytest.raises(NonMemberError):
            boundary_curve_audit(make_map((0, 1, 1.9)), ClassParams(lam=1.0), 512)


class TestMemberGuard:
    @pytest.fixture
    def scans(self, monkeypatch):
        """Every membership scan harmcert.geometry makes."""
        calls = []

        def counting(f, params):
            calls.append(f)
            return harmonic_membership(f, params)

        monkeypatch.setattr(geometry, "harmonic_membership", counting)
        return calls

    def test_coefficient_sufficient_members_make_no_guard_scan(self, scans):
        rng = np.random.default_rng(15)
        for lam in (0.5, 1.0, 3.0):
            params = ClassParams(lam=lam)
            f1 = random_member(int(rng.integers(2, 40)), params, rng)
            f2 = random_member(int(rng.integers(2, 40)), params, rng)
            for kind in RadiusKind:
                harmonic_radius_certify(f1, params, kind)
            boundary_curve_audit(f1, params, 512)
            growth_envelope_check(f1, params)
            assert scans == []
            # Only the fresh verdict on the result is scanned.
            out, rep = convolve_members(f1, f2, params)
            assert scans == [out]
            scans.clear()
            out, rep = convex_combination([f1, f2], [0.25, 0.75], params)
            assert scans == [out]
            scans.clear()

    def test_non_members_still_raise(self, scans):
        params = ClassParams(lam=1.0)
        good, bad = make_map((0, 1)), make_map((0, 1, 1.9))
        calls = [
            lambda: harmonic_radius_certify(bad, params, RadiusKind.STARLIKE),
            lambda: boundary_curve_audit(bad, params, 512),
            lambda: growth_envelope_check(bad, params),
            lambda: convolve_members(good, bad, params),
            lambda: convex_combination([good, bad], [0.5, 0.5], params),
        ]
        for call in calls:
            scans.clear()
            with pytest.raises(NonMemberError):
                call()
            assert scans == [bad]


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(2, 256), log_lam=st.floats(-3.0, 12.0),
       seed=st.integers(0, 2**32 - 1), phi=st.floats(0.0, 2 * math.pi),
       aligned=st.booleans())
def test_coefficient_sufficient_maps_never_scan_as_non_member(
        degree, log_lam, seed, phi, aligned):
    # The guard skips the scan whenever total < lam.  Here total sits just
    # below lam; aligned phases make both deficiency images add up to total
    # at the angle phi, so the scanned sup reaches total itself.
    lam = 10.0 ** log_lam
    rng = np.random.default_rng(seed)
    n = np.arange(2, degree + 1)
    if aligned:
        ph, pg = np.exp(-1j * n * phi), np.exp(-1j * n * phi)
    else:
        ph, pg = (np.exp(2j * math.pi * rng.random(degree - 1))
                  for _ in range(2))
    th, tg = rng.random(degree - 1), rng.random(degree - 1)
    scale = lam * (1.0 - 5e-13) / float(np.sum((n - 1) * (th + tg)))
    f = make_map((0, 1) + tuple(-th * scale * ph), (0, 0) + tuple(-tg * scale * pg))
    params = ClassParams(lam=lam)
    total = coefficient_sufficient(f, params).total
    assert lam * (1.0 - 1e-12) <= total < lam
    assert harmonic_membership(f, params).verdict is not Verdict.NON_MEMBER
