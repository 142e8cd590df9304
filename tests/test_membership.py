import cmath
import math
import tracemalloc

import numpy as np
import pytest

from harmcert.errors import NormalizationError, ParameterError
from harmcert.membership import (
    ClassParams,
    HarmonicMap,
    Verdict,
    analytic_membership,
    boundary_sup,
    coefficient_bounds_audit,
    coefficient_sufficient,
    harmonic_membership,
    paired_boundary_sup,
    random_member,
    stable_family_check,
    zeta_family_sup,
)
from harmcert.series import (
    AnalyticSeries,
    combine_with_zeta,
    deficiency,
    eval_array,
)


def dense_scan_max(F, n=200_001):
    """Brute-force oracle: dense modulus scan over the circle."""
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return float(np.max(np.abs(eval_array(F, np.exp(1j * thetas)))))


def make_map(h_coeffs, g_coeffs=(0,)):
    return HarmonicMap(
        h=AnalyticSeries(tuple(h_coeffs)), g=AnalyticSeries(tuple(g_coeffs))
    )


class TestBoundarySup:
    def test_constant_modulus(self):
        val, _ = boundary_sup(AnalyticSeries((0, 0, -1)))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_zero_series(self):
        assert boundary_sup(AnalyticSeries((0,))) == (0.0, 0.0)

    def test_grid_ties_go_to_smallest_angle(self):
        # |1 - z^2| reaches 2 exactly at the grid angles pi/2 and 3 pi/2.
        F = AnalyticSeries((1, 0, -1))
        assert boundary_sup(F) == (2.0, math.pi / 2)
        assert paired_boundary_sup(F, AnalyticSeries((0,))) == (2.0, math.pi / 2)

    def test_cubic_deficiency_image(self):
        # |z^2 (1+z)| / 2 on the circle peaks at z = 1 with value 1.
        F = AnalyticSeries((0, 0, -0.5, -0.5))
        val, angle = boundary_sup(F)
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
            val, _ = boundary_sup(F)
            assert val == pytest.approx(dense_scan_max(F), abs=1e-8)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            G = AnalyticSeries(tuple(coeffs))
            scale = rng.uniform(0.1, 9.0)
            base, _ = boundary_sup(G)
            scaled, _ = boundary_sup(AnalyticSeries(tuple(scale * c for c in coeffs)))
            assert scaled == pytest.approx(scale * base, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            F = AnalyticSeries(tuple(coeffs))
            u = cmath.exp(2j * math.pi * rng.uniform(0, 1))
            G = AnalyticSeries(tuple(u ** (n - 1) * c for n, c in enumerate(coeffs)))
            a, _ = boundary_sup(deficiency(F))
            b, _ = boundary_sup(deficiency(G))
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


class TestZetaFamilySweep:
    def test_sections_match_rebuilt_section_scans(self):
        # Reference: rebuild every section A + zeta B and scan it on its own.
        rng = np.random.default_rng(71)
        for i in range(12):
            params = ClassParams(lam=float(rng.uniform(0.2, 6.0)))
            f = random_member(int(rng.integers(2, 65)), params, rng)
            A, B = deficiency(f.h), deficiency(f.g)
            scan = zeta_family_sup(A, B, (8, 16, 24)[i % 3])
            zetas = np.exp(1j * scan.phases)
            for sup, zeta in zip(scan.sups, zetas):
                ref, _ = boundary_sup(combine_with_zeta(A, B, zeta))
                assert abs(sup - ref) <= 1e-12 * max(1.0, ref)
            assert scan.max_sup >= np.max(scan.sups)

    def test_best_cell_is_refined_exactly(self):
        # Pointwise the best phase is arg A - arg B, where the section reads
        # |A| + |B|.  When that phase at the harmonic argmax lies in the best
        # sampled cell, the refined cell sup is the harmonic sup.
        rng = np.random.default_rng(2024)
        for i in range(30):
            f = random_member(int(rng.integers(2, 65)), ClassParams(lam=1.0),
                              rng)
            A, B = deficiency(f.h), deficiency(f.g)
            samples = (8, 64, 256)[i % 3]
            scan = zeta_family_sup(A, B, samples)
            sup, angle = paired_boundary_sup(A, B)
            half = 2.0 * math.pi / samples
            center = scan.phases[np.argmax(scan.sups)]
            z = cmath.exp(1j * angle)
            best = cmath.phase(eval_array(A, z) / eval_array(B, z))
            assert scan.max_sup <= sup + 1e-14 * max(1.0, sup)
            if abs(cmath.phase(cmath.exp(1j * (best - center)))) <= half:
                assert scan.max_sup >= sup - 1e-14 * max(1.0, sup)
            gap = cmath.phase(cmath.exp(1j * (scan.witness_phase - center)))
            assert abs(gap) <= half + 1e-15
            zeta = cmath.exp(1j * scan.witness_phase)
            ref, _ = boundary_sup(combine_with_zeta(A, B, zeta))
            assert abs(ref - scan.max_sup) <= 1e-12

    def test_cell_refinement_makes_one_scalar_polish(self, monkeypatch):
        # One single-cell polish: about 40 points, two evaluations each.
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
