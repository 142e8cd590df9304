import cmath
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from horner import eval_array

from harmcert.catalog import CatalogParams, make_example
from harmcert.errors import (
    ConsistencyError,
    NonMemberError,
    NormalizationError,
    ParameterError,
)
from harmcert.geometry import (
    RadiusKind,
    boundary_curve_audit,
    harmonic_radius_certify,
)
from harmcert.membership import (
    _POLISH_WIDTH,
    ClassParams,
    HarmonicMap,
    Verdict,
    _polish_argmax,
    coefficient_bounds_audit,
    coefficient_sufficient,
    harmonic_membership,
    paired_boundary_sup,
    random_member,
    stable_family_check,
    zeta_family_sup,
)
from harmcert.series import (
    ZERO,
    AnalyticSeries,
    circle_values,
    coefficient_columns,
    deficiency,
    eval_series,
    linear_combination,
    scan_angles,
)


def dense_scan_max(F, n=200_001):
    """Brute-force oracle: dense modulus scan over the circle."""
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return float(np.max(np.abs(eval_array(F, np.exp(1j * thetas)))))


def make_map(h_coeffs, g_coeffs=(0,)):
    return HarmonicMap(
        h=AnalyticSeries(tuple(h_coeffs)), g=AnalyticSeries(tuple(g_coeffs))
    )


class TestClassParams:
    def test_level_is_the_only_field(self):
        with pytest.raises(TypeError):
            ClassParams(lam=1.0, sup_tolerance=1e-3)

    def test_tolerances_are_class_constants(self):
        assert ClassParams(lam=1.0).sup_tolerance == 1e-9


class TestBoundarySup:
    def test_constant_modulus(self):
        val, _ = paired_boundary_sup(AnalyticSeries((0, 0, -1)), ZERO)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_zero_series(self):
        assert paired_boundary_sup(AnalyticSeries((0,)), ZERO) == (0.0, 0.0)

    def test_grid_ties_go_to_smallest_angle(self):
        # |1 - z^2| reaches 2 exactly at the grid angles pi/2 and 3 pi/2.
        F = AnalyticSeries((1, 0, -1))
        assert paired_boundary_sup(F, ZERO) == (2.0, math.pi / 2)
        assert paired_boundary_sup(ZERO, F) == (2.0, math.pi / 2)

    def test_cubic_deficiency_image(self):
        # |z^2 (1+z)| / 2 on the circle peaks at z = 1 with value 1.
        F = AnalyticSeries((0, 0, -0.5, -0.5))
        val, angle = paired_boundary_sup(F, ZERO)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert min(angle, 2 * math.pi - angle) <= 1e-6
        assert val == pytest.approx(dense_scan_max(F), abs=1e-9)

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            deg = int(rng.integers(1, 9))
            F = AnalyticSeries(
                tuple(rng.standard_normal(deg + 1)
                      + 1j * rng.standard_normal(deg + 1))
            )
            val, _ = paired_boundary_sup(F, ZERO)
            assert val == pytest.approx(dense_scan_max(F), abs=1e-8)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            G = AnalyticSeries(tuple(coeffs))
            scale = rng.uniform(0.1, 9.0)
            base, _ = paired_boundary_sup(G, ZERO)
            scaled, _ = paired_boundary_sup(
                AnalyticSeries(tuple(scale * c for c in coeffs)), ZERO)
            assert scaled == pytest.approx(scale * base, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            F = AnalyticSeries(tuple(coeffs))
            u = cmath.exp(2j * math.pi * rng.uniform(0, 1))
            G = AnalyticSeries(tuple(u ** (n - 1) * c for n, c in enumerate(coeffs)))
            a, _ = paired_boundary_sup(deficiency(F), ZERO)
            b, _ = paired_boundary_sup(deficiency(G), ZERO)
            assert b == pytest.approx(a, abs=1e-10)


def sharp_catalog_maps():
    """The paper's sharp maps: deficiency coefficients in phase at z = 1."""
    maps = []
    for lam in (0.3, 1.0, 2.5, 1e3):
        maps.append(make_example(CatalogParams(name="eq13", lam=lam)))
        for n in (2, 5, 64):
            for name in ("f_a", "f_b"):
                maps.append(make_example(CatalogParams(name=name, lam=lam,
                                                       n=n)))
        for k in range(6):
            eta = cmath.exp(2j * math.pi * (k + 0.37) / 6)
            maps.append(make_example(CatalogParams(name="f3", lam=lam,
                                                   eta=eta)))
    for name in ("p1", "p2", "p3"):
        for s_, c in ((0, 1.0), (3, 2.0), (6, 0.7)):
            maps.append(make_example(CatalogParams(
                name=name, lam=1.0, s=s_, c=c, eta=cmath.exp(0.4j))))
    maps.append(make_example(CatalogParams(
        name="f4", lam=1.0, a=1.0, b=1.0, c=3.0,
        truncation=16)))
    return maps


@pytest.fixture
def scan_calls(monkeypatch):
    """Counts of numpy.polyval and membership.eval_series calls."""
    import harmcert.membership as membership

    counts = {"polyval": 0, "eval_series": 0}
    polyval, eval_series_ = np.polyval, membership.eval_series

    def counting_polyval(*args):
        counts["polyval"] += 1
        return polyval(*args)

    def counting_eval_series(*args):
        counts["eval_series"] += 1
        return eval_series_(*args)

    monkeypatch.setattr(np, "polyval", counting_polyval)
    monkeypatch.setattr(membership, "eval_series", counting_eval_series)
    return counts


class TestCoefficientExit:
    """Maps whose deficiency coefficients line up at z = 1 reach the
    coefficient bound there, so their circle maximum needs no scan."""

    def test_sharp_maps_make_no_scan(self, scan_calls):
        u = 2.0**-53
        for f in sharp_catalog_maps():
            A, B = deficiency(f.h), deficiency(f.g)
            m = len(A.coeffs) + len(B.coeffs)
            total = math.fsum(abs(c) for c in A.coeffs + B.coeffs)
            rep = harmonic_membership(f, ClassParams(lam=1.0))
            assert scan_calls == {"polyval": 0, "eval_series": 0}
            assert rep.witness_angle == 0.0
            assert abs(rep.measured_sup - total) <= 4 * m * u * total

    def test_rotated_cubic_scans_to_the_same_sup(self, scan_calls):
        # z -> e^{0.3 i} z moves the lined-up angle off z = 1: the exit does
        # not fire, and the scan reads the unrotated maximum.
        for lam in (0.3, 1.0, 2.5):
            f = make_example(CatalogParams(name="eq13", lam=lam))
            ref = harmonic_membership(f, ClassParams(lam=lam)).measured_sup
            assert scan_calls["polyval"] == 0
            rotated = AnalyticSeries(tuple(
                c * cmath.exp(0.3j * n) for n, c in enumerate(f.h.coeffs)))
            sup, angle = paired_boundary_sup(deficiency(rotated), ZERO)
            assert scan_calls["polyval"] > 0 and scan_calls["eval_series"] > 0
            assert abs(sup - ref) <= 1e-14 * ref
            assert abs(angle - (2 * math.pi - 0.3)) <= 1e-6
            scan_calls.update(polyval=0, eval_series=0)

    def test_random_members_scan(self, scan_calls):
        # From degree 3 on, random phases never line up at z = 1.  At
        # degree 2 both deficiency images are monomials, |A| + |B| is
        # constant, and the exit decides them exactly.
        rng = np.random.default_rng(18)
        for i in range(330):
            lam = float(rng.uniform(0.2, 5.0))
            degree = 2 if i < 30 else int(rng.integers(3, 40))
            f = random_member(degree, ClassParams(lam=lam), rng)
            rep = harmonic_membership(f, ClassParams(lam=lam))
            if degree == 2:
                assert scan_calls == {"polyval": 0, "eval_series": 0}
                assert rep.witness_angle == 0.0
            else:
                assert scan_calls["polyval"] > 0
                assert scan_calls["eval_series"] > 0
            scan_calls.update(polyval=0, eval_series=0)

    def test_family_check_reads_the_same_sup(self):
        # The sweep decides its family maximum with the same exit, so it
        # matches membership bit for bit; its witness phase is the phase at
        # z = 1 that lines A and B up.
        for f in sharp_catalog_maps():
            A, B = deficiency(f.h), deficiency(f.g)
            params = ClassParams(lam=1.0)
            rep = stable_family_check(f, params)
            ref = harmonic_membership(f, params).measured_sup
            assert rep.harmonic_sup == ref
            best = cmath.phase(sum(A.coeffs)) - cmath.phase(sum(B.coeffs))
            gap = cmath.phase(cmath.exp(1j * (rep.scan.witness_phase - best)))
            assert abs(gap) <= 1e-12

    def test_overflowing_sums_fall_through_to_the_scan(self, scan_calls):
        # 1e307 (z^2 + ... + z^20) lines up at z = 1, but its sum
        # overflows, so the exit decides nothing, and the scan's maximum,
        # 1.9e308, reads +inf.
        F = AnalyticSeries((0, 0) + (1e307,) * 19)
        sup, _ = paired_boundary_sup(F, ZERO)
        assert scan_calls["polyval"] > 0
        assert sup == math.inf


@pytest.fixture
def polyval_points(monkeypatch):
    """The point count of each np.polyval call."""
    points = []
    polyval = np.polyval

    def counting(p, x):
        points.append(np.size(x))
        return polyval(p, x)

    monkeypatch.setattr(np, "polyval", counting)
    return points


def horner_scan(F1, F2, scale=False):
    """The full Horner scan, rebuilt from public pieces: |F1| + |F2| by
    eval_array on all scan_angles(degree) angles, then _paired_polish from
    the first grid argmax, below the z = 1 exit.  With ``scale``, it scans
    the coefficients times 2^e of _scaled_columns and divides by 2^e at
    the end, as the scan does."""
    import harmcert.membership as membership

    decided, top = membership._sup_at_one(F1, F2)
    if decided:
        return decided
    e = 0
    if scale:
        cols, e, top = membership._scaled_columns(F1, F2, top)
        F1, F2 = (AnalyticSeries(cols[:len(F.coeffs), j])
                  for j, F in enumerate((F1, F2)))
    n = scan_angles(max(F1.degree, F2.degree))
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    zs = np.exp(1j * thetas)
    vals = abs(eval_array(F1, zs)) + abs(eval_array(F2, zs))
    k = int(np.argmax(vals))
    sup, angle = membership._paired_polish(F1.coeffs, F2.coeffs, thetas[k],
                                           vals[k], 2.0 * math.pi / n, top)
    with np.errstate(over="ignore"):
        return float(np.ldexp(sup, -e)), angle


def scaled(F, scale):
    return AnalyticSeries(tuple(c * scale for c in F.coeffs))


def near_tie_maps():
    """Two-peak maps as in the benchmark's near-tie workload: an m-way tied
    deficiency modulus split by 1e-3 noise."""
    rng = np.random.default_rng(29)
    maps = []
    for d in (4, 5, 7, 8, 11):
        for j in range(6):
            h = np.zeros(d + 1, dtype=complex)
            h[1], h[2] = 1.0, -1.0
            h[d] = -rng.uniform(0.5, 1.0) * cmath.exp(
                1j * rng.uniform(0, 2 * math.pi)) / (d - 1)
            h[2:] += 1e-3 * (rng.standard_normal(d - 1)
                             + 1j * rng.standard_normal(d - 1))
            g = np.zeros(d + 1, dtype=complex)
            if j % 2:
                g[2:] = 1e-3 * (rng.standard_normal(d - 1)
                                + 1j * rng.standard_normal(d - 1))
            maps.append(make_map(h, g))
    return maps


class TestScanMatchesHorner:
    """The scan runs Horner only at the transform's candidate angles, yet
    returns the full Horner scan's (sup, angle) bit for bit."""

    @staticmethod
    def assert_same(F1, F2, scale=False):
        got = paired_boundary_sup(F1, F2)
        want = horner_scan(F1, F2, scale)
        assert [x.hex() for x in got] == [x.hex() for x in want], (got, want)
        return got

    def test_random_maps(self):
        rng = np.random.default_rng(26)
        for degree in (2, 3, 5, 9, 17, 33, 100, 127, 257, 509, 1024):
            f = random_member(degree, ClassParams(lam=1.0), rng)
            A, B = deficiency(f.h), deficiency(f.g)
            self.assert_same(A, B)
            self.assert_same(A, ZERO)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200, 1e-300, 1e-320])
    def test_coefficient_scales(self, scale):
        # Down to 1e-200 the scan is the unscaled Horner scan's bit for bit.
        # Below, the unscaled scan's own error bounds are subnormal (the
        # polish's err is about 1e-314 at 1e-300), and the referee scans
        # the same power-of-two-scaled coefficients the scan does.
        rng = np.random.default_rng(27)
        tiny = scale < 1e-250
        for degree in (2, 3, 5, 9, 17, 33, 100):
            for _ in range(2):
                f = random_member(degree, ClassParams(lam=1.0), rng)
                A, B = deficiency(f.h), deficiency(f.g)
                sup, _ = self.assert_same(scaled(A, scale), scaled(B, scale),
                                          tiny)
                assert 0.0 < sup < math.inf
                self.assert_same(scaled(A, scale), ZERO, tiny)

    def test_overflow_both_ways(self):
        # Moduli 5e307 at scattered phases: the coefficient sum overflows,
        # so the scan scales by the largest modulus, and a maximum past the
        # double range reads +inf, which membership and the family check
        # reject.
        sups = []
        for degree in (5, 9, 33):
            A = AnalyticSeries((0, 0) + tuple(
                5e307 * cmath.exp(1j * k * k) for k in range(2, degree + 1)))
            for B in (ZERO, scaled(A, 0.5)):
                sup, _ = self.assert_same(A, B, scale=True)
                sups.append(sup)
                if sup == math.inf:
                    # h and g whose deficiency images are about A and B.
                    h, g = (tuple(c / (1 - k) for k, c in
                                  enumerate(F.coeffs[2:], 2)) for F in (A, B))
                    f = make_map((0, 1) + h, (0, 0) + g)
                    for check in (harmonic_membership, stable_family_check):
                        with pytest.raises(ParameterError, match="overflow"):
                            check(f, ClassParams(lam=1.0))
        assert sups.count(math.inf) >= 4
        assert all(sup > 1e308 for sup in sups)

    def test_near_tie_maps(self):
        for f in near_tie_maps():
            self.assert_same(deficiency(f.h), deficiency(f.g))

    def test_nearly_flat_modulus(self, polyval_points):
        # |z^d + 1e-14 e^{2i} z^2| stays within 1e-14 of 1, inside the
        # transform's error bound: every grid angle is a candidate.
        for d in (3, 5, 9, 17):
            A = AnalyticSeries((0, 0, 1e-14 * cmath.exp(2j))
                               + (0,) * (d - 3) + (1,))
            for B in (ZERO, AnalyticSeries((0, 0, 1e-15j))):
                polyval_points.clear()
                self.assert_same(A, B)
                assert polyval_points[0] == scan_angles(d)

    def test_horner_sees_few_points(self, polyval_points):
        # At degree 256 the transform leaves at most 8 of the 16384 grid
        # angles open, in one np.polyval call over both series.
        rng = np.random.default_rng(30)
        for _ in range(5):
            f = random_member(256, ClassParams(lam=1.0), rng)
            polyval_points.clear()
            paired_boundary_sup(deficiency(f.h), deficiency(f.g))
            assert len(polyval_points) == 1 and 1 <= polyval_points[0] <= 8


class TestPowerOfTwoScaling:
    """The class condition is homogeneous: the deficiency coefficients
    times 2^k have every circle maximum times 2^k.  The scans scale each
    map once by a power of two, so wherever every coefficient stays normal
    they return exactly 2^k times the same maxima, at the same angles and
    phases."""

    @staticmethod
    def times(F, k):
        return AnalyticSeries(tuple(
            complex(math.ldexp(c.real, k), math.ldexp(c.imag, k))
            for c in F.coeffs))

    @staticmethod
    def normal_range(A, B):
        """The k in -1000..1000, in steps of 40, that keep every nonzero
        coefficient part at least 2^-1022 and the coefficient sum below
        2^1023, so that every maximum stays finite."""
        parts = [abs(x) for c in A.coeffs + B.coeffs
                 for x in (c.real, c.imag) if x]
        total = math.fsum(map(abs, A.coeffs + B.coeffs))
        lo = -1022 - math.frexp(min(parts))[1] + 1
        hi = 1023 - math.frexp(total)[1]
        return [k for k in range(-1000, 1001, 40) if lo <= k <= hi]

    def test_maxima_scale_bit_for_bit(self):
        rng = np.random.default_rng(31)
        maps = [random_member(d, ClassParams(lam=1.0), rng)
                for d in (2, 3, 5, 9, 17, 33, 100)]
        maps += near_tie_maps()
        for f in maps:
            A, B = deficiency(f.h), deficiency(f.g)
            sup, angle = paired_boundary_sup(A, B)
            scan = zeta_family_sup(A, B, 64)
            ks = self.normal_range(A, B)
            assert len(ks) >= 45
            for k in ks:
                Ak, Bk = self.times(A, k), self.times(B, k)
                got = paired_boundary_sup(Ak, Bk)
                assert got == (math.ldexp(sup, k), angle), (k, got)
                scan_k = zeta_family_sup(Ak, Bk, 64)
                assert scan_k.max_sup == math.ldexp(scan.max_sup, k)
                assert scan_k.section_max == math.ldexp(scan.section_max, k)
                assert scan_k.witness_phase == scan.witness_phase


class TestPolishStop:
    """Every paired circle maximum stops its polish where the peak drops by
    err = 8 (d + 1) u S, the rounding error of one evaluation of
    |F1| + |F2| (S the coefficient sum of both series, u = 2^-53): the
    sups stay within err of a polish down to _POLISH_WIDTH, in about half
    its points."""

    @staticmethod
    def polish_switch(monkeypatch):
        """A switch that runs every membership polish with err = 0, and
        the point counts of the polishes made with err."""
        import harmcert.membership as membership

        exact, points = [False], []

        def polish(fn, t0, v0, step, err):
            at, angles = counted(fn)
            out = _polish_argmax(at, t0, v0, step, 0.0 if exact[0] else err)
            if not exact[0]:
                points.append(len(angles))
            return out

        monkeypatch.setattr(membership, "_polish_argmax", polish)
        return exact, points

    def test_sups_stay_within_err_of_the_width_stop(self, monkeypatch):
        exact, points = self.polish_switch(monkeypatch)
        rng = np.random.default_rng(32)
        maps = [random_member(d, ClassParams(lam=1.0), rng)
                for d in (2, 3, 5, 9, 17, 33, 64, 100, 127, 257, 509, 1024)]
        maps += near_tie_maps()
        pairs = [(deficiency(f.h), deficiency(f.g)) for f in maps]
        for scale in (1e200, 1e-200, 1e-300):
            for d in (3, 9, 33, 100):
                f = random_member(d, ClassParams(lam=1.0), rng)
                pairs.append((scaled(deficiency(f.h), scale),
                              scaled(deficiency(f.g), scale)))
        for F1, F2 in pairs:
            exact[0] = True
            want, _ = paired_boundary_sup(F1, F2)
            exact[0] = False
            got, _ = paired_boundary_sup(F1, F2)
            d = max(F1.degree, F2.degree)
            err = 8 * (d + 1) * 2.0**-53 * math.fsum(
                map(abs, F1.coeffs + F2.coeffs))
            assert want - err <= got, (want, got, err)
        for f in maps:
            params = ClassParams(lam=1.0)
            exact[0] = True
            want = harmonic_membership(f, params).verdict
            exact[0] = False
            assert harmonic_membership(f, params).verdict is want
        # The width stop took about 14 points per polish.
        assert np.mean(points) <= 8


def counted(fn):
    """fn and the list of the angles it is called at."""
    angles = []

    def at(t):
        angles.append(t)
        return fn(t)

    return at, angles


class TestPolish:
    """_polish_argmax's contract: Brent's method over [t0 - step, t0 + step]
    from the grid point (t0, v0), down to a bracket _POLISH_WIDTH wide, or
    to the width where the peak drops by the evaluation error err,
    returning a strictly larger value and its angle, else (v0, t0)."""

    def test_smooth_peaks_in_few_evaluations(self):
        # -sin^2(w (t - s)) (1 + c sin(t - s)) peaks at s with value 0, so
        # its values resolve s far below the stop width.
        rng = np.random.default_rng(28)
        for _ in range(500):
            step = 2 * math.pi / int(rng.choice([256, 1024, 16384, 65536]))
            s = rng.uniform(0.1, 6.1)
            t0 = s + rng.uniform(-0.99, 0.99) * step
            w, c = rng.uniform(1.0, 20.0), rng.uniform(-0.5, 0.5)

            def fn(t):
                return -math.sin(w * (t - s)) ** 2 * (1 + c * math.sin(t - s))

            at, angles = counted(fn)
            v, x = _polish_argmax(at, t0, fn(t0), step, 0.0)
            assert len(angles) <= 20
            assert all(abs(t - t0) < step for t in angles)
            # The points next to x on either side span at most the width.
            seen = angles + [t0 - step, t0, t0 + step]
            right = min(t for t in seen if t > x)
            left = max(t for t in seen if t < x)
            assert right - left <= _POLISH_WIDTH
            assert abs(x - s) <= _POLISH_WIDTH
            assert v >= fn(t0)

    def test_noisy_peaks_stop_at_the_noise(self):
        # The same peaks, each value off by up to err at random: the search
        # stops once the peak drops by err across the bracket, not at the
        # width, and reads a value at most 2 err below the peak.
        rng = np.random.default_rng(31)
        for _ in range(500):
            step = 2 * math.pi / int(rng.choice([256, 1024, 16384, 65536]))
            s = rng.uniform(0.1, 6.1)
            t0 = s + rng.uniform(-0.99, 0.99) * step
            w, c = rng.uniform(1.0, 20.0), rng.uniform(-0.5, 0.5)
            err = 10 ** rng.uniform(-16, -10)
            noise = np.random.default_rng(int(rng.integers(2**32)))

            def fn(t):
                return (-math.sin(w * (t - s)) ** 2 * (1 + c * math.sin(t - s))
                        + err * noise.uniform(-1.0, 1.0))

            v0 = fn(t0)
            at, angles = counted(fn)
            v, x = _polish_argmax(at, t0, v0, step, err)
            assert len(angles) <= 12
            assert all(abs(t - t0) < step for t in angles)
            assert v >= -2 * err and v >= v0

    @pytest.mark.parametrize("noise", ["uniform", "wave"])
    def test_spoiled_curvature_never_widens_the_stop(self, noise):
        # -k (t - s)^2 with errors up to err: near the peak the parabola
        # through three close points reads the errors, not k.  The search
        # ends only when the evaluated points next to x lie within
        # sqrt(1.5 err / k) of it on both sides, the width an estimate
        # within its error bound allows; trusting the last parabola left
        # them up to 4 sqrt(err / k) away.
        rng = np.random.default_rng(7)
        for _ in range(300):
            step = 2 * math.pi / int(rng.choice([256, 1024, 16384]))
            s = rng.uniform(0.1, 6.1)
            t0 = s + rng.uniform(-0.99, 0.99) * step
            k = rng.uniform(1.0, 400.0)
            err = 10 ** rng.uniform(-15, -11)
            width = math.sqrt(err / k)
            phase = rng.uniform(0, 2 * math.pi)
            draws = np.random.default_rng(int(rng.integers(2**32)))

            def fn(t):
                if noise == "wave":
                    e = math.sin((t - s) / (0.2 * width) + phase)
                else:
                    e = draws.uniform(-1.0, 1.0)
                return -k * (t - s) ** 2 + err * e

            at, angles = counted(fn)
            v, x = _polish_argmax(at, t0, fn(t0), step, err)
            seen = angles + [t0 - step, t0, t0 + step]
            right = min(t for t in seen if t > x)
            left = max(t for t in seen if t < x)
            assert max(right - x, x - left) <= math.sqrt(1.5) * width
            assert v >= -2 * err

    def test_grid_point_is_kept_without_a_larger_value(self):
        # A peak at t0 itself: nothing beats v0, so t0 comes back exactly.
        at, angles = counted(lambda t: -(t - 1.0) ** 2)
        assert _polish_argmax(at, 1.0, 0.0, 0.01, 0.0) == (0.0, 1.0)
        assert 1.0 not in angles

    def test_angle_wraps_into_the_circle(self):
        # The peak at -1e-3 comes back as 2 pi - 1e-3.
        def fn(t):
            return -math.sin(t + 1e-3) ** 2

        v, x = _polish_argmax(fn, 0.0, fn(0.0), 0.01, 0.0)
        assert abs(x - (2 * math.pi - 1e-3)) <= _POLISH_WIDTH
        assert v > fn(0.0)

    @pytest.mark.parametrize("v0", [1.0, math.inf])
    @pytest.mark.parametrize("value", [1.0, math.inf, math.nan, "mixed"])
    def test_flat_and_non_finite_objectives_terminate(self, value, v0):
        # Golden section alone would take about 37 steps; no parabola is
        # taken through equal, infinite or NaN values, and none of them
        # gives a curvature that widens the stop when err > 0.
        def fn(t):
            if value == "mixed":
                return math.nan if t < 2.0 else 1.0 + (t - 2.0) ** 2
            return value

        for err in (0.0, 1e-12, 1.0):
            at, angles = counted(fn)
            v, x = _polish_argmax(at, 2.0, v0, 0.02, err)
            assert len(angles) <= 60
            assert v >= v0
            if not fn(2.01) > v0:
                # No value beats the grid point's: it comes back unchanged.
                assert (v, x) == (v0, 2.0)


class TestOverflowingInput:
    """Input whose circle maximum overflows a double gets ParameterError
    from every public entry point, never a bare OverflowError."""

    ENTRY_POINTS = {
        "membership": lambda f, p: harmonic_membership(f, p),
        "family": lambda f, p: stable_family_check(f, p, 16),
        "starlike": lambda f, p: harmonic_radius_certify(
            f, p, RadiusKind.STARLIKE),
        "convex": lambda f, p: harmonic_radius_certify(
            f, p, RadiusKind.CONVEX),
        "curve": lambda f, p: boundary_curve_audit(f, p),
    }

    @pytest.mark.parametrize("side", ["h", "g"])
    def test_coefficient_modulus_overflow(self, side):
        # Both parts are finite, the modulus is not; by Cauchy's estimate
        # the circle maximum is at least that modulus.  The map cannot be
        # built, so no entry point ever sees it.
        big = (1.5e308 + 1.5e308j,)
        with pytest.raises(ParameterError, match="moduli must be finite"):
            if side == "h":
                make_map((0, 1) + big)
            else:
                make_map((0, 1), (0, 0) + big)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("side", ["h", "g"])
    def test_boundary_value_modulus_overflow(self, entry, side):
        # Every coefficient modulus is finite, but the deficiency image
        # -1.3e308 z^2 - 1.3e308 i z^3 has moduli past the double range
        # near z = 1, where Python's abs raises.
        tail = (1.3e308, 0.65e308j)
        f = make_map((0, 1), (0, 0) + tail) if side == "g" \
            else make_map((0, 1) + tail)
        with pytest.raises(ParameterError, match="overflow"):
            self.ENTRY_POINTS[entry](f, ClassParams(lam=1.0))


class TestAnalyticMembership:
    def test_identity_is_member(self):
        for lam in (0.5, 1.0, 2.0):
            F = AnalyticSeries((0, 1))
            rep = harmonic_membership(HarmonicMap(F, ZERO),
                                      ClassParams(lam=lam))
            assert rep.verdict is Verdict.MEMBER
            assert rep.measured_sup == 0.0
            assert rep.margin == lam

    def test_cubic_showcase_boundary_sharp(self):
        for lam in (0.5, 1.0, 2.0):
            F = AnalyticSeries((0, 1, lam / 2, lam / 4))
            rep = harmonic_membership(HarmonicMap(F, ZERO),
                                      ClassParams(lam=lam))
            assert rep.verdict is Verdict.BOUNDARY_SHARP
            assert rep.measured_sup == pytest.approx(lam, abs=1e-9)

    def test_quadratic_rejected_at_half(self):
        rep = harmonic_membership(HarmonicMap(AnalyticSeries((0, 1, 1)), ZERO),
                                  ClassParams(lam=0.5))
        assert rep.verdict is Verdict.NON_MEMBER
        assert rep.measured_sup == pytest.approx(1.0, abs=1e-9)

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            harmonic_membership(HarmonicMap(AnalyticSeries((0, 2)), ZERO),
                                ClassParams(lam=1.0))

    def test_monotone_in_level(self):
        F = AnalyticSeries((0, 1, 0.2, 0.1j))
        rep1 = harmonic_membership(HarmonicMap(F, ZERO), ClassParams(lam=1.0))
        rep2 = harmonic_membership(HarmonicMap(F, ZERO), ClassParams(lam=2.0))
        assert rep1.verdict is Verdict.MEMBER
        assert rep2.verdict is Verdict.MEMBER
        assert rep1.measured_sup == rep2.measured_sup

    def test_justification_recorded(self):
        f = HarmonicMap(AnalyticSeries((0, 1)), ZERO)
        rep = harmonic_membership(f, ClassParams(lam=1.0))
        assert "maximum" in rep.justification or "boundary" in rep.justification


class TestHarmonicMembership:
    def test_sharp_coanalytic(self):
        f = make_map((0, 1), (0, 0, -1.0))
        rep = harmonic_membership(f, ClassParams(lam=1.0))
        assert rep.verdict is Verdict.BOUNDARY_SHARP
        assert rep.measured_sup == pytest.approx(1.0, abs=1e-9)

    def test_mixed_member(self):
        # |0.2 z^2| + |0.4 z^3| peaks at 0.6 on the circle.
        f = make_map((0, 1, 0.2), (0, 0, 0, 0.2))
        rep = harmonic_membership(f, ClassParams(lam=1.0))
        assert rep.verdict is Verdict.MEMBER
        assert rep.measured_sup == pytest.approx(0.6, abs=1e-9)
        assert rep.margin == pytest.approx(0.4, abs=1e-9)

    def test_identity(self):
        rep = harmonic_membership(make_map((0, 1)), ClassParams(lam=0.7))
        assert rep.verdict is Verdict.MEMBER
        assert rep.measured_sup == 0.0

    def test_rejects_coanalytic_linear_term(self):
        with pytest.raises(NormalizationError):
            make_map((0, 1), (0, 0.1))
        # COEFF_TOL covers the linear coefficients only: both constant
        # terms must be exactly 0.
        for h, g in (((1e-13, 1), (0,)), ((0, 1), (5e-324j,))):
            with pytest.raises(NormalizationError):
                make_map(h, g)
        assert make_map((-0.0, 1 + 1e-13), (-0.0, 1e-13)).degree == 1

    def test_half_mass_conjugate_quadratic(self):
        for lam in (0.5, 1.0, 2.0):
            f = make_map((0, 1), (0, 0, lam / 2))
            rep = harmonic_membership(f, ClassParams(lam=lam))
            assert rep.verdict is Verdict.MEMBER
            assert rep.margin == pytest.approx(lam / 2, abs=1e-9)

    def test_overflowing_boundary_gets_no_verdict(self):
        # Finite coefficients whose boundary values overflow: the measured
        # supremum is not finite, so no verdict, sharp or otherwise, applies.
        f = make_map((0, 1) + (5e306,) * 19)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ParameterError, match="overflow"):
                harmonic_membership(f, ClassParams(lam=1.0))
            with pytest.raises(ParameterError, match="overflow"):
                harmonic_membership(HarmonicMap(f.h, ZERO),
                                    ClassParams(lam=1.0))


class TestVerdictRule:
    """_classify decides from the sup's own rounding bound: NonMember when
    sup - err > lam, Member when sup + err < lam, else BoundarySharp."""

    @staticmethod
    def quadratic(c):
        return make_map((0, 1, c))

    @staticmethod
    def at_pi(c):
        # -c z^2 / 2 + c z^3 / 4: deficiency c z^2 / 2 - c z^3 / 2, whose
        # modulus reaches its coefficient sum c at z = -1 only, so the
        # maximum is scanned, not read at z = 1.
        return make_map((0, 1, -c / 2, c / 4))

    def test_quadratics_just_past_and_below_lam(self):
        params = ClassParams(lam=1.0)
        f = self.quadratic(1.0000009)
        assert harmonic_membership(f, params).verdict is Verdict.NON_MEMBER
        for kind in RadiusKind:
            with pytest.raises(NonMemberError):
                harmonic_radius_certify(f, params, kind)
        f = self.quadratic(0.9999995)
        assert harmonic_membership(f, params).verdict is Verdict.MEMBER
        assert harmonic_radius_certify(f, params, RadiusKind.STARLIKE).radius > 0

    @pytest.mark.parametrize("lam", [0.3, 1.0, 7.0, 1e100])
    @pytest.mark.parametrize("shape", ["quadratic", "at_pi"])
    def test_offsets_from_lam(self, lam, shape):
        make = getattr(self, shape)
        params = ClassParams(lam=lam)
        if shape == "at_pi":
            rep = harmonic_membership(make(lam), params)
            assert rep.witness_angle == pytest.approx(math.pi, abs=1e-6)
        for offset in (1e-7, 1e-10, 1e-13):
            above = harmonic_membership(make(lam * (1 + offset)), params)
            below = harmonic_membership(make(lam * (1 - offset)), params)
            assert above.verdict is Verdict.NON_MEMBER, offset
            assert below.verdict is Verdict.MEMBER, offset
        for c in (math.nextafter(lam, 0.0), lam, math.nextafter(lam, math.inf)):
            rep = harmonic_membership(make(c), params)
            assert rep.verdict is Verdict.BOUNDARY_SHARP, c

    @pytest.mark.parametrize("lam", [1e-7, 1e-3, 0.3, 1.0, 2.5, 1e10, 1e100,
                                     1e300])
    def test_sharp_catalog_maps_stay_sharp(self, lam):
        params = ClassParams(lam=lam)
        cases = [make_example(CatalogParams(name="eq13", lam=lam))]
        cases += [make_example(CatalogParams(name=name, lam=lam, n=n))
                  for name in ("f_a", "f_b") for n in (2, 3, 5, 8)]
        cases += [make_example(CatalogParams(name="f3", lam=lam,
                                             eta=cmath.exp(0.37j * k)))
                  for k in range(17)]
        for f in cases:
            rep = harmonic_membership(f, params)
            assert rep.verdict is Verdict.BOUNDARY_SHARP, f


class TestStableFamily:
    def test_constant_modulus_sections(self):
        f = make_map((0, 1), (0, 0, 0.2))
        rep = stable_family_check(f, ClassParams(lam=1.0), zeta_samples=64)
        assert rep.scan.section_max == pytest.approx(0.2, abs=1e-12)
        assert rep.scan.max_sup == pytest.approx(0.2, abs=1e-10)
        assert rep.gap <= 1e-10

    def test_zero_coanalytic(self):
        f = make_map((0, 1))
        rep = stable_family_check(f, ClassParams(lam=1.0), zeta_samples=16)
        assert rep.scan.max_sup == 0.0
        assert rep.harmonic_sup == 0.0

    def test_sharp_function_family_max(self):
        f = make_map((0, 1), (0, 0, -1.0))
        rep = stable_family_check(f, ClassParams(lam=1.0), zeta_samples=64)
        assert rep.scan.max_sup == pytest.approx(1.0, abs=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(ParameterError):
            stable_family_check(make_map((0, 1)), ClassParams(lam=1.0), zeta_samples=4)

    def test_sample_count_must_be_an_integer(self):
        # The nearest-phase rule would read any real count; like the
        # curve audit's samples, the count is an int or numpy integer, but
        # not a bool.
        f, params = make_map((0, 1, 0.1), (0, 0, 0.2j)), ClassParams(lam=1.0)
        for bad in (8.5, 8.0, True, "8", np.int64(7), np.float64(16)):
            with pytest.raises(ParameterError, match="zeta_samples"):
                stable_family_check(f, params, bad)
        ref = stable_family_check(f, params, 9)
        for good in (np.int64(9), np.int32(9), np.uint8(9)):
            assert stable_family_check(f, params, good) == ref

    def test_association_identity_sampled(self):
        rng = np.random.default_rng(53)
        params = ClassParams(lam=1.0)
        for _ in range(20):
            f = random_member(int(rng.integers(2, 9)), params, rng)
            rep = stable_family_check(f, params, zeta_samples=256)
            assert rep.gap <= 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_coefficients_pass_the_relative_check(self):
        # Rounding at 1e200 is far above the absolute sup_tolerance, so the
        # check scales its tolerance with the sup.
        rng = np.random.default_rng(7)
        for i in range(30):
            f0 = random_member((3, 7, 15)[i % 3], ClassParams(lam=1.0), rng)
            f = make_map((0, 1) + tuple(1e200 * c for c in f0.h.coeffs[2:]),
                         tuple(1e200 * c for c in f0.g.coeffs))
            rep = stable_family_check(f, ClassParams(lam=1.0), 64)
            assert rep.gap <= 1e-14 * rep.harmonic_sup

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_map_is_rejected(self):
        # The same map gets ParameterError from harmonic_membership; the
        # family check must not report NaN sups for it.
        f = make_map((0, 1) + (5e306,) * 19)
        with pytest.raises(ParameterError, match="overflow"):
            stable_family_check(f, ClassParams(lam=1.0), 64)

    def test_cross_check_fires_on_a_low_harmonic_sup(self, monkeypatch):
        # A harmonic sup read 1 % low leaves sampled sections above it.  The
        # benchmark's classifier must parse the message with the section
        # value first and larger, so it is not taken for the known
        # family-scan under-read.  The check polishes the paired sup once,
        # from the sweep's own transform.
        import harmcert.membership as membership

        monkeypatch.syspath_prepend(
            str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        original = membership._paired_polish
        calls = []

        def low(A, B, t0, v0, step, top):
            calls.append(A)
            sup, angle = original(A, B, t0, v0, step, top)
            return 0.99 * sup, angle

        monkeypatch.setattr(membership, "_paired_polish", low)
        f = random_member(5, ClassParams(lam=1.0), np.random.default_rng(3))
        with pytest.raises(ConsistencyError) as info:
            stable_family_check(f, ClassParams(lam=1.0), 64)
        m = workloads._DISAGREES.search(str(info.value))
        assert m is not None
        assert float(m.group(1)) > float(m.group(2))
        assert not workloads._under_read(info.value)
        assert len(calls) == 1

    def test_harmonic_sup_matches_the_membership_scan(self):
        # The sweep and membership take |A| + |B| from the same transform,
        # candidate Horner rule and polish.
        rng = np.random.default_rng(15)
        maps = []
        for _ in range(300):
            lam = float(rng.choice([0.3, 1.0, 2.5, 1e3]))
            maps.append((random_member(int(rng.integers(2, 65)),
                                       ClassParams(lam=lam), rng), lam))
        for lam in (0.3, 1.0, 2.5, 1e3):
            for name, extra in (("eq13", {}), ("f3", {"eta": 1}),
                                ("f_a", {"n": 5}), ("f_b", {"n": 4})):
                maps.append((make_example(CatalogParams(name=name, lam=lam,
                                                        **extra)), lam))
        for f, lam in maps:
            params = ClassParams(lam=lam)
            sup = stable_family_check(f, params).harmonic_sup
            ref = harmonic_membership(f, params).measured_sup
            assert abs(sup - ref) <= 1e-15 * max(1.0, ref)

    def test_family_maximum_is_the_membership_sup_bit_for_bit(self):
        # Both read the relation's one circle maximum: the same sup and
        # witness angle, and the witness phase arg A - arg B there.  Real
        # coefficients make |A| + |B| mirror-symmetric, so its peaks come
        # in tied pairs t, 2 pi - t.
        rng = np.random.default_rng(5)
        maps = []
        for _ in range(200):
            k = np.arange(2, int(rng.integers(3, 40)) + 1)
            maps.append(make_map(
                (0, 1) + tuple(0.3 * rng.standard_normal(len(k)) / k**2),
                (0, 0) + tuple(0.3 * rng.standard_normal(len(k)) / k**2)))
        maps += [random_member(int(rng.integers(2, 80)), ClassParams(lam=1.0),
                               rng) for _ in range(100)]
        for f in maps:
            params = ClassParams(lam=1.0)
            rep = harmonic_membership(f, params)
            family = stable_family_check(f, params, 64)
            assert family.harmonic_sup.hex() == rep.measured_sup.hex()
            z = cmath.exp(1j * rep.witness_angle)
            a = eval_series(deficiency(f.h).coeffs, z)
            b = eval_series(deficiency(f.g).coeffs, z)
            phase = (cmath.phase(a) - cmath.phase(b)) % (2 * math.pi)
            assert family.scan.witness_phase.hex() == phase.hex()


class TestZetaFamilySweep:
    def test_sections_match_rebuilt_section_scans(self):
        # Reference: rebuild every section A + zeta B and scan it on its own.
        # section_max is a grid maximum, so it lies below the largest
        # section sup by at most the curvature bound M2 pi^2 / (2 n^2).
        rng = np.random.default_rng(71)
        for i in range(12):
            params = ClassParams(lam=float(rng.uniform(0.2, 6.0)))
            f = random_member(int(rng.integers(2, 65)), params, rng)
            A, B = deficiency(f.h), deficiency(f.g)
            scan = zeta_family_sup(A, B, (8, 16, 24)[i % 3])
            n = scan_angles(max(A.degree, B.degree))
            m2 = sum(k * k * (abs(A.coeff(k)) + abs(B.coeff(k)))
                     for k in range(max(A.degree, B.degree) + 1))
            bound = m2 * math.pi**2 / (2 * n * n)
            m = (8, 16, 24)[i % 3]
            ref = max(paired_boundary_sup(linear_combination(
                [(1, A), (cmath.exp(2j * math.pi * k / m), B)]), ZERO)[0]
                for k in range(m))
            assert ref - bound - 1e-12 * max(1.0, ref) <= scan.section_max
            assert scan.section_max <= ref * (1.0 + 1e-12)
            assert scan.max_sup >= scan.section_max

    def test_family_max_is_the_paired_sup(self):
        # Pointwise the best phase is arg A - arg B, where the section reads
        # |A| + |B|, so the family max is the harmonic sup, attained by the
        # section whose phase is arg A - arg B at the harmonic argmax.
        rng = np.random.default_rng(2024)
        for i in range(30):
            f = random_member(int(rng.integers(2, 65)), ClassParams(lam=1.0),
                              rng)
            A, B = deficiency(f.h), deficiency(f.g)
            samples = (8, 64, 256)[i % 3]
            scan = zeta_family_sup(A, B, samples)
            sup, angle = paired_boundary_sup(A, B)
            assert abs(scan.max_sup - sup) <= 1e-14 * max(1.0, sup)
            z = cmath.exp(1j * angle)
            best = cmath.phase(eval_array(A, z) / eval_array(B, z))
            gap = cmath.phase(cmath.exp(1j * (scan.witness_phase - best)))
            assert abs(gap) <= 1e-12
            zeta = cmath.exp(1j * scan.witness_phase)
            section = linear_combination([(1, A), (zeta, B)])
            ref, _ = paired_boundary_sup(section, ZERO)
            assert abs(ref - scan.max_sup) <= 1e-12

    def test_second_peak_winning_the_sampling_reads_the_paired_sup(self):
        # Draws 234 (degree 10) and 327 (degree 42) of this stream: with 8
        # samples a second peak wins the sampling, and a refinement of the
        # best sampled cell alone read 3.4e-3 and 5.1e-3 low.
        rng = np.random.default_rng(2024)
        maps = []
        for i in range(328):
            d = int(rng.integers(2, 65))
            params = ClassParams(lam=float(rng.uniform(0.5, 3.0)))
            f = random_member(d, params, rng)
            if i in (234, 327):
                maps.append(f)
        for f in maps:
            A, B = deficiency(f.h), deficiency(f.g)
            scan = zeta_family_sup(A, B, 8)
            sup, _ = paired_boundary_sup(A, B)
            assert sup - scan.section_max > 1e-3
            assert abs(scan.max_sup - sup) <= 1e-14 * sup

    @staticmethod
    def brute_section_max(A, B, zeta_samples, scale=False):
        """max |va + zeta_k vb| over the whole zeta_samples x n matrix of
        sampled zeta_k = e^{2 pi i k / m} and n = scan_angles(degree)
        angles, in blocks of rows.  With ``scale``, va and vb are the values
        of the coefficients times 2^e of _scaled_columns, and the maximum
        is divided by 2^e at the end, as the sweep does."""
        import harmcert.membership as membership

        cols, e = coefficient_columns(A, B), 0
        if scale:
            cols, e, _ = membership._scaled_columns(
                A, B, membership._sup_at_one(A, B)[1])
        vals = circle_values(cols, scan_angles(len(cols) - 1))
        va, vb = vals[:, 0], vals[:, 1]
        zetas = np.exp(1j * (2 * math.pi * np.arange(zeta_samples)
                             / zeta_samples))
        rows = max(1, 2**18 // len(va))
        top = max(float(np.max(np.abs(va + zetas[r:r + rows, None] * vb)))
                  for r in range(0, zeta_samples, rows))
        return math.ldexp(top, -e)

    def assert_section_max(self, A, B, samples=(8, 9, 256, 1000),
                           scale=False):
        # The nearest phase at each angle against every phase at every
        # angle: equal up to the rounding of one value, 4 u relative.
        for m in samples:
            got = zeta_family_sup(A, B, m).section_max
            want = self.brute_section_max(A, B, m, scale)
            assert abs(got - want) <= 4 * 2.0**-53 * want, (m, got, want)

    def test_section_max_matches_the_full_matrix(self):
        # Random members from degree 2 to 1024 and the same maps with one
        # coefficient bumped past lam / (n - 1), as non-members.  Degrees
        # 127, 257 and 509 have grids of 2^13, 2^4 3 7^3 and 2 3^3 5 11^2
        # angles, the last two on pocketfft's radix-3, 5, 7 and 11 passes.
        rng = np.random.default_rng(28)
        for i, degree in enumerate((2, 3, 5, 9, 17, 33, 64, 100, 127, 257,
                                    509, 1024)):
            f = random_member(degree, ClassParams(lam=1.0), rng)
            A, B = deficiency(f.h), deficiency(f.g)
            samples = ((8, 9, 256, 1000)[i % 4],)
            self.assert_section_max(A, B, samples)
            n = int(rng.integers(2, degree + 1))
            bumped = list(f.h.coeffs)
            phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            bumped[n] = 1.3 * phase / (n - 1)
            self.assert_section_max(deficiency(AnalyticSeries(bumped)), B,
                                    samples)

    def test_flat_modulus_keeps_every_angle(self):
        # One dominant monomial: |A| + |B| is flat within the rounding
        # margin, so every angle stays, and the largest section value is a
        # tie at the rounding level.
        for d in (3, 9, 40):
            A = AnalyticSeries((0, 0, 1e-16 * cmath.exp(2j)) + (0,) * (d - 3)
                               + (1,))
            for B in (ZERO, AnalyticSeries((0, 0, 1e-17j)),
                      AnalyticSeries((0,) * d + (0.5,))):
                self.assert_section_max(A, B)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_section_max_at_extreme_scales(self, scale):
        rng = np.random.default_rng(201)
        for degree in (2, 5, 12, 40, 130):
            f = random_member(degree, ClassParams(lam=1.0), rng)
            self.assert_section_max(scaled(deficiency(f.h), scale),
                                    scaled(deficiency(f.g), scale))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_largest_modulus(self):
        # A largest modulus of 1.6e-310 has no finite reciprocal.  Scaled
        # by that reciprocal, every section read angle 0,
        # |A(1)| = 1.166e-310, and the second map raised an overflow
        # warning.  With B = 0 every section is A.  The unscaled transform
        # of subnormal coefficients carries their absolute rounding, so the
        # referee transforms the same power-of-two-scaled coefficients the
        # sweep does.
        for h in ((0, 1, 1e-310, 3e-311j), (0, 1, 1e-310)):
            f = make_map(h)
            rep = stable_family_check(f, ClassParams(lam=1.0), 8)
            assert rep.scan.section_max >= (1 - 1e-3) * rep.harmonic_sup
            self.assert_section_max(deficiency(f.h), ZERO, scale=True)

    def test_section_max_with_mirror_tied_peaks(self):
        # Real coefficients make |A + zeta B| at zeta and conj(zeta) mirror
        # images, so the sections' peaks come in tied pairs t, 2 pi - t.
        rng = np.random.default_rng(6)
        for i in range(40):
            k = np.arange(2, int(rng.integers(3, 60)) + 1)
            f = make_map(
                (0, 1) + tuple(0.3 * rng.standard_normal(len(k)) / k**2),
                (0, 0) + tuple(0.3 * rng.standard_normal(len(k)) / k**2))
            self.assert_section_max(deficiency(f.h), deficiency(f.g),
                                    ((8, 9, 256, 1000)[i % 4],))

    def test_family_max_makes_one_scalar_polish(self, monkeypatch):
        # The paired sup's single-cell polish, about 7 points with two
        # evaluations each, plus the witness phase's two.
        import harmcert.membership as membership

        calls = []
        original = membership.eval_series

        def counting(F, z):
            calls.append(z)
            return original(F, z)

        monkeypatch.setattr(membership, "eval_series", counting)
        for degree in (3, 64):
            f = random_member(degree, ClassParams(lam=1.0),
                              np.random.default_rng(degree))
            calls.clear()
            zeta_family_sup(deficiency(f.h), deficiency(f.g), 256)
            assert 0 < len(calls) <= 20

    def test_rows_make_no_evaluation_beyond_the_paired_scan(
            self, polyval_points):
        # The sections are read off the sweep's one FFT transform, so its only
        # Horner evaluation is the paired scan's: one np.polyval over the
        # candidate angles that paired_boundary_sup evaluates.
        for degree in (3, 64, 256):
            f = random_member(degree, ClassParams(lam=1.0),
                              np.random.default_rng(degree))
            A, B = deficiency(f.h), deficiency(f.g)
            polyval_points.clear()
            paired_boundary_sup(A, B)
            scan = list(polyval_points)
            polyval_points.clear()
            zeta_family_sup(A, B, 256)
            assert polyval_points == scan
            assert len(scan) == 1 and 1 <= scan[0] <= 8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale(self, scale):
        # The grid argmax squares moduli; scaled by the largest one, those
        # squares stay finite and normal at either end of the double range.
        rng = np.random.default_rng(200)
        for degree in (2, 5, 12, 40):
            f0 = random_member(degree, ClassParams(lam=1.0), rng)
            f = make_map((0, 1) + tuple(scale * c for c in f0.h.coeffs[2:]),
                         tuple(scale * c for c in f0.g.coeffs))
            rep = stable_family_check(f, ClassParams(lam=1.0), 64)
            sup, _ = paired_boundary_sup(deficiency(f.h), deficiency(f.g))
            assert abs(rep.scan.max_sup - sup) <= 1e-14 * sup

    def test_memory_stays_below_the_zeta_angle_matrix(self):
        # The full 256 x 16384 complex grid alone would take 64 MiB.  The
        # sweep holds the 512 KiB transform, its moduli and one value per
        # kept angle, about 0.9 MiB at peak at any sample count: 2^40
        # samples take no more than 256.
        params = ClassParams(lam=1.0)
        f = random_member(256, params, np.random.default_rng(5))
        A, B = deficiency(f.h), deficiency(f.g)
        for samples in (256, 2**40):
            tracemalloc.start()
            try:
                zeta_family_sup(A, B, samples)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, samples


class TestCoefficientSufficient:
    def test_half_mass(self):
        lam = 1.0
        f = make_map((0, 1, lam / 4), (0, 0, lam / 4))
        out = coefficient_sufficient(f, ClassParams(lam=lam))
        assert out.sufficient
        assert out.total == pytest.approx(lam / 2, abs=1e-15)

    def test_sharp_function_inconclusive_yet_member(self):
        lam, n = 1.0, 4
        coeffs = [0j] * (n + 1)
        coeffs[1] = 1.0
        coeffs[n] = lam / (n - 1)
        f = make_map(coeffs)
        out = coefficient_sufficient(f, ClassParams(lam=lam))
        assert not out.sufficient
        assert out.total == pytest.approx(lam, abs=1e-15)
        rep = harmonic_membership(f, ClassParams(lam=lam))
        assert rep.verdict is Verdict.BOUNDARY_SHARP

    def test_oversized_coefficient(self):
        lam = 1.0
        f = make_map((0, 1, 1.5 * lam))
        out = coefficient_sufficient(f, ClassParams(lam=lam))
        assert not out.sufficient
        assert out.total == pytest.approx(1.5 * lam, abs=1e-15)

    def test_sufficiency_chain(self):
        rng = np.random.default_rng(59)
        params = ClassParams(lam=1.0)
        for _ in range(50):
            f = random_member(int(rng.integers(2, 9)), params, rng)
            out = coefficient_sufficient(f, params)
            assert out.sufficient
            rep = harmonic_membership(f, params)
            assert rep.measured_sup <= out.total + params.sup_tolerance


    def test_total_and_audit_follow_the_index_order(self):
        # Both walk the coefficient tuples, the shorter one zero-padded, in
        # the order of the per-index definition, so total is bit for bit
        # sum over n of (n - 1) (|a_n| + |b_n|), n = 2..degree.
        rng = np.random.default_rng(61)
        params = ClassParams(lam=1.0)
        for dh, dg in ((1, 7), (7, 1), (9, 4), (4, 9), (6, 6), (1, 0)):
            h = (0, 1) + tuple(rng.standard_normal(max(dh - 1, 0))
                               + 1j * rng.standard_normal(max(dh - 1, 0)))
            g = (0, 0) + tuple(rng.standard_normal(max(dg - 1, 0))
                               + 1j * rng.standard_normal(max(dg - 1, 0)))
            f = make_map(h, g)
            total = 0.0
            entries = []
            for n in range(2, f.degree + 1):
                total += (n - 1) * (abs(f.h.coeff(n)) + abs(f.g.coeff(n)))
                entries += [(n, "a", abs(f.h.coeff(n))),
                            (n, "b", abs(f.g.coeff(n)))]
            assert coefficient_sufficient(f, params).total.hex() == total.hex()
            audit = coefficient_bounds_audit(f, params)
            assert [(e.index, e.side, e.value) for e in audit] == entries


class TestBoundsAudit:
    def test_sharp_passes_at_equality(self):
        lam, n = 1.0, 5
        coeffs = [0j] * (n + 1)
        coeffs[1] = 1.0
        coeffs[n] = lam / (n - 1)
        entries = coefficient_bounds_audit(make_map(coeffs), ClassParams(lam=lam))
        assert not any(e.violated for e in entries)
        # f3's a_2 has modulus lam up to rounding, which at a large lam
        # exceeds an absolute tolerance: the bound is checked relative to
        # itself.
        for lam in (1e8, 1e10, 1e15, 1e100):
            params = ClassParams(lam=lam)
            for k in range(200):
                f = make_example(CatalogParams(
                    name="f3", lam=lam, eta=cmath.exp(0.0317j * k)))
                entries = coefficient_bounds_audit(f, params)
                assert not any(e.violated for e in entries)
        f = make_example(CatalogParams(name="f3", lam=1e10,
                                       eta=cmath.exp(0.0951j)))
        assert abs(f.h.coeff(2)) > 1e10 + 1e-9
        assert not any(e.violated for e in
                       coefficient_bounds_audit(f, ClassParams(lam=1e10)))
        rep = harmonic_membership(f, ClassParams(lam=1e10))
        assert rep.verdict is Verdict.BOUNDARY_SHARP

    def test_small_map_passes(self):
        f = make_map((0, 1, 0.2), (0, 0, 0, 0.2))
        entries = coefficient_bounds_audit(f, ClassParams(lam=1.0))
        assert not any(e.violated for e in entries)

    def test_violation_forces_rejection(self):
        lam = 1.0
        f = make_map((0, 1, 1.5 * lam))
        entries = coefficient_bounds_audit(f, ClassParams(lam=lam))
        bad = [e for e in entries if e.violated]
        assert bad and bad[0].index == 2 and bad[0].side == "a"
        rep = harmonic_membership(f, ClassParams(lam=lam))
        assert rep.verdict is Verdict.NON_MEMBER
        # Largest coefficient is a lower bound for the boundary maximum.
        assert rep.measured_sup >= 1.5 * lam - 1e-9


class TestRandomMember:
    def test_mass_hits_target(self):
        rng = np.random.default_rng(61)
        params = ClassParams(lam=2.0)
        f = random_member(8, params, rng)
        out = coefficient_sufficient(f, params)
        assert out.total == pytest.approx(0.9 * 2.0, rel=1e-12)

    def test_always_member(self):
        rng = np.random.default_rng(67)
        params = ClassParams(lam=1.0)
        for _ in range(20):
            f = random_member(int(rng.integers(2, 10)), params, rng)
            assert harmonic_membership(f, params).verdict is Verdict.MEMBER
