import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from horner import eval_array

from harmcert import geometry
from harmcert.catalog import CatalogParams, make_example
from harmcert.errors import (
    ConsistencyError,
    NonMemberError,
    NormalizationError,
    ParameterError,
)
from harmcert.geometry import (
    RadiusKind,
    _min_nonadjacent_gap,
    _ring_objective,
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
    random_member,
)
from harmcert.series import (
    ZERO,
    AnalyticSeries,
    EvalGrid,
    circle_values,
    circle_values_error,
    default_grid,
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


class TestGrowthEnvelope:
    def test_sharp_quadratic_attains_upper(self):
        lam = 1.0
        f3 = make_map((0, 1, lam))
        grid = default_grid()
        audit = growth_envelope_check(f3, ClassParams(lam=lam), grid)
        assert audit.max_violation <= 1e-12
        # Equality holds along the positive real axis, which the grid hits.
        assert audit.tightness["growth_upper"] <= 1e-9
        z = 0.5
        fz = eval_array(f3.h, z) + np.conj(eval_array(f3.g, z))
        assert abs(fz) == pytest.approx(abs(z) + lam * abs(z) ** 2, abs=1e-14)

    def test_identity_strictly_inside(self):
        audit = growth_envelope_check(
            make_map((0, 1)), ClassParams(lam=1.0), default_grid()
        )
        assert audit.max_violation == 0.0
        assert audit.tightness["growth_upper"] > 0.0

    def test_random_members_clean(self):
        rng = np.random.default_rng(71)
        params = ClassParams(lam=1.0)
        grid = default_grid()
        for _ in range(20):
            f = random_member(int(rng.integers(2, 9)), params, rng)
            audit = growth_envelope_check(f, params, grid)
            assert audit.max_violation <= 1e-9

    def test_rejects_non_member(self):
        f = make_map((0, 1, 1.9))
        with pytest.raises(NonMemberError):
            growth_envelope_check(f, ClassParams(lam=1.0), default_grid())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 1e150, 1e300])
    def test_sharp_quadratic_rounding_is_no_violation(self, lam):
        # f3 attains both growth envelopes; rounding of |f| grows with lam
        # and must not count as a violation.
        f3 = make_map((0, 1, lam))
        audit = growth_envelope_check(f3, ClassParams(lam=lam), default_grid())
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
        audit = growth_envelope_check(f, ClassParams(lam=lam), default_grid())
        assert audit.violations["growth_upper"] > 0.0
        assert audit.violations["deriv_upper"] > 0.0
        assert audit.max_violation > 0.0


class TestJacobianBound:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 1e155, 1e300])
    def test_sharp_quadratic_attains_bound(self, lam):
        # Past lam = 1e154 the squares of |h'| and 1 + 2 lam |z| overflow
        # unless the audit scales them first.
        f3 = make_map((0, 1, lam))
        audit = jacobian_bound_check(f3, ClassParams(lam=lam), default_grid())
        assert audit.max_ratio == pytest.approx(1.0, abs=1e-9)
        assert audit.sense_preserving
        # Rounding of the ratio, about 1e-15, is no violation at any lam.
        assert audit.max_violation == 0.0
        if lam == 1.0:
            z = 0.3
            jac = abs(1 + 2 * lam * z) ** 2
            assert jac == pytest.approx((1 + 2 * lam * z) ** 2, abs=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h, lam", [((0, 1, 1e300), 1e300),
                                        ((0, 1), 1.7e308)])
    def test_extreme_lam_with_a_ring_at_the_centre(self, h, lam):
        # At z = 0 the bound is 1 against about lam on the outer ring: a
        # common scale would underflow its square to 0, and the ratio to
        # 0 / 0.  At 1.7e308, 1 + 2 lam |z| itself passes the double range.
        # Both maps attain the ratio 1 at z = 0.
        grid = EvalGrid(radii=(0.0, 0.5), angles_per_ring=16)
        audit = jacobian_bound_check(make_map(h), ClassParams(lam=lam), grid)
        assert audit.max_ratio == pytest.approx(1.0, abs=1e-9)
        assert audit.sense_preserving

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 1e155, 1e300])
    def test_one_percent_past_the_bound_is_flagged(self, lam):
        f = make_map((0, 1, 1.01 * lam))
        audit = jacobian_bound_check(f, ClassParams(lam=lam), default_grid())
        assert audit.max_ratio > 1.01
        assert audit.max_violation > 0.0

    def test_identity(self):
        audit = jacobian_bound_check(
            make_map((0, 1)), ClassParams(lam=1.0), default_grid()
        )
        assert audit.max_violation == 0.0
        assert audit.sense_preserving

    def test_small_coanalytic(self):
        f = make_map((0, 1), (0, 0, 0.2))
        grid = default_grid()
        audit = jacobian_bound_check(f, ClassParams(lam=1.0), grid)
        assert audit.max_violation == 0.0
        assert audit.sense_preserving
        zs = grid.points()
        want = 1.0 - 0.16 * np.abs(zs) ** 2
        got = (np.abs(eval_array(AnalyticSeries((1,)), zs)) ** 2
               - np.abs(eval_array(AnalyticSeries((0, 0.4)), zs)) ** 2)
        assert got == pytest.approx(want, abs=1e-12)


class TestRadiusCertify:
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
        # Re((1 + 2 w z) / (1 + w z)), least at w z = -r.  Rotating by a
        # third of a grid cell puts that minimum between grid angles.  At
        # r = 0.45 the first-order bound does not prove the ring, so its
        # grid minimum is polished.
        r, phi = 0.45, 2 * math.pi / 256 / 3
        F = AnalyticSeries((0, 1, np.exp(1j * phi)))
        ring = _section_rings(F, ZERO, RadiusKind.STARLIKE)
        value, angle = ring(r)
        assert len(polished) == 1
        assert value == pytest.approx((1 - 2 * r) / (1 - r), abs=1e-13)
        assert angle == pytest.approx(math.pi - phi, abs=1e-7)

    def test_proven_ring_returns_its_grid_minimum(self, polished):
        # The same map at r = 0.3: the first-order bound proves the ring
        # positive, so it reports the least of its grid values unpolished.
        r, phi = 0.3, 2 * math.pi / 256 / 3
        F = AnalyticSeries((0, 1, np.exp(1j * phi)))
        value, angle = _section_rings(F, ZERO, RadiusKind.STARLIKE)(r)
        assert polished == []
        z = r * np.exp(2j * math.pi * np.arange(256) / 256)
        wz = np.exp(1j * phi) * z
        grid = ((1 + 2 * wz) / (1 + wz)).real
        k = int(np.argmin(grid))
        assert value == pytest.approx(float(grid[k]), abs=1e-13)
        assert angle == 2 * math.pi * k / 256
        assert value > (1 - 2 * r) / (1 - r)

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

    def test_ring_objective_is_brute_force_minimum(self):
        # Sections F = h + zeta g evaluated directly: the starlike numerator
        # Re(z F' conj(F)) and the convex one Re((F' + z F'') conj(F')),
        # least over 20000 phases, lie within the phase step's reach of
        # the closed form alpha - |gamma|, never below it.
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
                closed = _ring_objective(H[k], G[k],
                                         z * H[k + 1] + offset * H[k],
                                         z * G[k + 1] + offset * G[k])
                closed *= (np.abs(H[k]) + np.abs(G[k])) ** 2
                assert np.all(closed <= brute + 1e-12 * scale)
                assert np.all(brute - closed <= 1e-7 * scale)

    def test_unpolished_rings_are_positive_on_a_dense_grid(self, polished):
        # Every ring that ring(r) passes without a polish was proven
        # positive by the first-order bound, so the least numerator
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
            if kind is RadiusKind.STARLIKE:
                p, q, offset = f.h, f.g, 0.0
            else:
                p, q, offset = derivative(f.h), derivative(f.g), 1.0
            ring = _section_rings(f.h, f.g, kind)
            n = 64 * scan_angles(d)
            z = np.exp(2j * np.pi * np.arange(n) / n)
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
                def on_ring(F):
                    rk = r ** np.arange(len(F.coeffs))
                    return circle_values(np.asarray(F.coeffs) * rk, n)

                P, Q = on_ring(p), on_ring(q)
                U = r * z * on_ring(derivative(p)) + offset * P
                V = r * z * on_ring(derivative(q)) + offset * Q
                alpha = (U * np.conj(P) + V * np.conj(Q)).real
                gamma = V * np.conj(P) + np.conj(U) * Q
                assert float((alpha - np.abs(gamma)).min()) > 0.0
        assert proven >= 50

    def test_radius_certificates_polish_fewer_rings(self, polished):
        # A ring skips the polish where the first-order bound proves it
        # positive.  On these ten certificates a bisection polished 84
        # rings before that bound, and 57 of its 145 rings after it; the
        # secant search takes 80 rings and polishes 21.
        rng = np.random.default_rng(41)
        rings = 0
        for d in (3, 6, 12, 24, 48):
            for kind in RadiusKind:
                params = ClassParams(lam=float(rng.uniform(0.5, 3.0)))
                f = random_member(d, params, rng, fill=0.9)
                rings += harmonic_radius_certify(f, params, kind).rings
        assert rings == 80 < 145
        assert len(polished) == 21 < 57

    def test_ring_polish_stops_at_its_rounding_error(self, monkeypatch):
        # An undecided ring's polish stops where its objective drops by the
        # rounding error of one evaluation: the certificates keep their
        # ring counts and radii, with about 7 points per polished ring
        # where a polish down to the 1e-9 width took about 13.
        exact, points = [False], []

        def polish(fn, t0, v0, step, err=0.0):
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
            for kind in (*RadiusKind, *RadiusKind):
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
            if kind is RadiusKind.STARLIKE:
                p, q, offset = f.h, f.g, 0.0
            else:
                p, q, offset = derivative(f.h), derivative(f.g), 1.0
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
        # there, though the map is BoundarySharp within the verdict band.
        h = AnalyticSeries((0, 1, 1 + 5e-10))
        for runner, threshold in ((second_derivative_test, 2.0),
                                  (euler_operator_test, 3.0)):
            out = runner(h, AnalyticSeries((0,)), ClassParams(lam=1.0))
            assert out.measured_max > threshold
            assert not out.passes
            assert out.membership.verdict is Verdict.BOUNDARY_SHARP

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
            growth_envelope_check(f1, params, default_grid())
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
            lambda: growth_envelope_check(bad, params, default_grid()),
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
