import cmath
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from harmcert.catalog import CatalogParams, make_example
from harmcert.errors import (
    ConsistencyError,
    NormalizationError,
    ParameterError,
)
from harmcert.membership import (
    ClassParams,
    HarmonicMap,
    Verdict,
    analytic_membership,
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
    deficiency,
    eval_array,
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
        assert ClassParams(lam=1.0).boundary_band == 1e-6


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


class TestAnalyticMembership:
    def test_identity_is_member(self):
        for lam in (0.5, 1.0, 2.0):
            rep = analytic_membership(AnalyticSeries((0, 1)), ClassParams(lam=lam))
            assert rep.verdict is Verdict.MEMBER
            assert rep.measured_sup == 0.0
            assert rep.margin == lam

    def test_cubic_showcase_boundary_sharp(self):
        for lam in (0.5, 1.0, 2.0):
            F = AnalyticSeries((0, 1, lam / 2, lam / 4))
            rep = analytic_membership(F, ClassParams(lam=lam))
            assert rep.verdict is Verdict.BOUNDARY_SHARP
            assert rep.measured_sup == pytest.approx(lam, abs=1e-9)

    def test_quadratic_rejected_at_half(self):
        rep = analytic_membership(AnalyticSeries((0, 1, 1)), ClassParams(lam=0.5))
        assert rep.verdict is Verdict.NON_MEMBER
        assert rep.measured_sup == pytest.approx(1.0, abs=1e-9)

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            analytic_membership(AnalyticSeries((0, 2)), ClassParams(lam=1.0))

    def test_monotone_in_level(self):
        F = AnalyticSeries((0, 1, 0.2, 0.1j))
        rep1 = analytic_membership(F, ClassParams(lam=1.0))
        rep2 = analytic_membership(F, ClassParams(lam=2.0))
        assert rep1.verdict is Verdict.MEMBER
        assert rep2.verdict is Verdict.MEMBER
        assert rep1.measured_sup == rep2.measured_sup

    def test_justification_recorded(self):
        rep = analytic_membership(AnalyticSeries((0, 1)), ClassParams(lam=1.0))
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

    def test_half_mass_conjugate_quadratic(self):
        for lam in (0.5, 1.0, 2.0):
            f = make_map((0, 1), (0, 0, lam / 2))
            rep = harmonic_membership(f, ClassParams(lam=lam))
            assert rep.verdict is Verdict.MEMBER
            assert rep.margin == pytest.approx(lam / 2, abs=1e-9)

    def test_overflowing_boundary_gets_no_verdict(self):
        # Finite coefficients whose boundary values overflow: the measured
        # supremum is not finite, so no band, sharp or otherwise, applies.
        f = make_map((0, 1) + (5e306,) * 19)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ParameterError, match="overflow"):
                harmonic_membership(f, ClassParams(lam=1.0))
            with pytest.raises(ParameterError, match="overflow"):
                analytic_membership(f.h, ClassParams(lam=1.0))


class TestStableFamily:
    def test_constant_modulus_sections(self):
        f = make_map((0, 1), (0, 0, 0.2))
        rep = stable_family_check(f, ClassParams(lam=1.0), zeta_samples=64)
        assert rep.scan.sups == pytest.approx(np.full(64, 0.2), abs=1e-12)
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

        def low(A, B, thetas, vals):
            calls.append(A)
            sup, angle = original(A, B, thetas, vals)
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
        # The sweep polishes |A| + |B| from its transform grid, membership
        # from an eval_array grid; the same polish from the same cell gives
        # the same sup, and a grid value kept over the polish differs only
        # by the rounding of the two grids.
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


class TestZetaFamilySweep:
    def test_sections_match_rebuilt_section_scans(self):
        # Reference: rebuild every section A + zeta B and scan it on its own.
        # A row is a grid maximum, so it lies below the section sup by at
        # most the curvature bound M2 pi^2 / (2 n^2).
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
            zetas = np.exp(1j * scan.phases)
            for sup, zeta in zip(scan.sups, zetas):
                section = linear_combination([(1, A), (zeta, B)])
                ref, _ = paired_boundary_sup(section, ZERO)
                assert ref - bound - 1e-12 * max(1.0, ref) <= sup
                assert sup <= ref * (1.0 + 1e-12)
            assert scan.max_sup >= np.max(scan.sups)

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
            assert sup - np.max(scan.sups) > 1e-3
            assert abs(scan.max_sup - sup) <= 1e-14 * sup

    def test_family_max_makes_one_scalar_polish(self, monkeypatch):
        # The paired sup's single-cell polish, about 40 points with two
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
            assert 0 < len(calls) <= 100

    def test_rows_make_no_evaluation_beyond_the_paired_scan(self, monkeypatch):
        # The family maximum and the rows are both read off the sweep's
        # one FFT transform, so no eval_array grid is evaluated at all.
        import harmcert.membership as membership

        calls = []
        original = membership.eval_array

        def counting(F, zs):
            calls.append(F)
            return original(F, zs)

        monkeypatch.setattr(membership, "eval_array", counting)
        for degree in (3, 64):
            f = random_member(degree, ClassParams(lam=1.0),
                              np.random.default_rng(degree))
            calls.clear()
            zeta_family_sup(deficiency(f.h), deficiency(f.g), 256)
            assert len(calls) == 0

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
        # The full 256 x 16384 complex grid alone would take 64 MiB.
        params = ClassParams(lam=1.0)
        f = random_member(256, params, np.random.default_rng(5))
        A, B = deficiency(f.h), deficiency(f.g)
        tracemalloc.start()
        try:
            zeta_family_sup(A, B, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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
        # itself, as the scan's verdict band is.
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
