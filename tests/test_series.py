import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmcert.errors import ParameterError
from harmcert.series import (
    AnalyticSeries,
    EvalGrid,
    circle_values,
    default_grid,
    deficiency,
    derivative,
    eval_array,
    eval_series,
    hadamard,
    linear_combination,
)


def naive_eval(F, z):
    """Independent oracle: plain term-by-term power sum."""
    return sum(c * z**n for n, c in enumerate(F.coeffs))


# Small exact-arithmetic coefficient vectors: Gaussian-integer entries keep
# every product and sum exact in doubles, so algebraic identities can be
# asserted bit for bit.
int_coeffs = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
        lambda p: complex(*p)
    ),
    min_size=1,
    max_size=9,
)

float_coeffs = st.lists(
    st.tuples(
        st.floats(-4, 4, allow_nan=False), st.floats(-4, 4, allow_nan=False)
    ).map(lambda p: complex(*p)),
    min_size=1,
    max_size=9,
)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        F = AnalyticSeries((0, 1, 0, 0))
        assert F.degree == 1
        assert F.coeffs == (0j, 1 + 0j)

    def test_zero_series(self):
        assert AnalyticSeries((0, 0, 0)).degree == 0
        assert AnalyticSeries((0,)).is_zero()

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, complex(0, -math.inf)):
            with pytest.raises(ParameterError):
                AnalyticSeries((0, 1, bad))

    def test_overflowing_modulus_rejected(self):
        # Finite parts whose modulus overflows: abs() would raise
        # OverflowError on it downstream.
        for bad in (1.5e308 + 1.5e308j, complex(-1.3e308, 1.3e308)):
            with pytest.raises(ParameterError,
                               match="moduli must be finite.*index 2"):
                AnalyticSeries((0, 1, bad))
        edge = complex(1.2e308, 1.2e308)
        assert AnalyticSeries((0, 1, edge)).coeffs[2] == edge

    def test_normalization_predicate(self):
        assert AnalyticSeries((0, 1, 5)).is_normalized()
        assert not AnalyticSeries((0.1, 1)).is_normalized()
        assert not AnalyticSeries((0, 0.5)).is_normalized()


class TestEval:
    def test_identity(self):
        assert eval_series(AnalyticSeries((0, 1)), 0.5) == 0.5

    def test_cubic_showcase_at_one(self):
        F = AnalyticSeries((0, 1, 0.5, 0.25))
        assert eval_series(F, 1.0) == pytest.approx(1.75, abs=0)

    def test_quadratic_at_i(self):
        F = AnalyticSeries((0, 1, 0.5))
        expected = naive_eval(F, 1j)
        assert expected == 1j - 0.5
        assert eval_series(F, 1j) == pytest.approx(expected, abs=1e-15)

    @given(float_coeffs, st.floats(0, 1), st.floats(0, 2 * math.pi))
    @settings(max_examples=100)
    def test_matches_naive_sum_on_disk(self, coeffs, r, theta):
        F = AnalyticSeries(tuple(coeffs))
        z = r * cmath.exp(1j * theta)
        assert eval_series(F, z) == pytest.approx(naive_eval(F, z), abs=1e-10)

    def test_array_eval_matches_scalar(self):
        F = AnalyticSeries((0, 1, 0.3 - 0.2j, 0.1j))
        zs = np.array([0.2, 0.5j, -0.3 + 0.4j])
        out = eval_array(F, zs)
        for z, v in zip(zs, out):
            assert v == pytest.approx(eval_series(F, complex(z)), abs=1e-14)


def assert_matches_horner(coeffs, got, r):
    """circle_values output ``got`` against eval_array on the same grid,
    within 1e-13 of sum |c_k| r^k, the largest the sum can be there."""
    n = len(got)
    zs = r * np.exp(2j * math.pi * np.arange(n) / n)
    want = eval_array(AnalyticSeries(tuple(coeffs)), zs)
    mass = float(np.sum(np.abs(coeffs) * r ** np.arange(len(coeffs))))
    assert np.max(np.abs(got - want)) <= 1e-13 * mass


class TestCircleValues:
    @pytest.mark.parametrize("degree", [0, 3, 64, 300])
    @pytest.mark.parametrize("r", [1.0, 0.7, 2.0**-30])
    def test_matches_horner_on_the_grid(self, degree, r):
        rng = np.random.default_rng(degree)
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(
            degree + 1)
        n = max(256, 64 * degree)
        assert_matches_horner(coeffs, circle_values(coeffs, n, r), r)

    @pytest.mark.parametrize("r", [1.0, 0.7])
    def test_four_column_batch(self, r):
        # One column of values per coefficient column, as the radius rings
        # transform p, q, p' and q' together.
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal((33, 4)) + 1j * rng.standard_normal(
            (33, 4))
        got = circle_values(coeffs, 2048, r)
        assert got.shape == (2048, 4)
        for j in range(4):
            assert_matches_horner(coeffs[:, j], got[:, j], r)

    @pytest.mark.parametrize("r", [1.0, 0.7])
    def test_folds_past_the_point_count(self, r):
        # 601 coefficients on 512 points: z^k = z^(k mod 512) on the grid.
        rng = np.random.default_rng(600)
        coeffs = rng.standard_normal(601) + 1j * rng.standard_normal(601)
        assert_matches_horner(coeffs, circle_values(coeffs, 512, r), r)


class TestDerivative:
    def test_linear(self):
        assert derivative(AnalyticSeries((0, 1))).coeffs == (1 + 0j,)

    def test_quadratic(self):
        assert derivative(AnalyticSeries((0, 1, 1))).coeffs == (1 + 0j, 2 + 0j)

    def test_cubic_showcase(self):
        lam = 1.0
        F = AnalyticSeries((0, 1, lam / 2, lam / 4))
        assert derivative(F).coeffs == (1 + 0j, lam + 0j, 0.75 * lam + 0j)

    def test_matches_centered_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            deg = int(rng.integers(1, 17))
            F = AnalyticSeries(
                tuple(rng.standard_normal(deg + 1)
                      + 1j * rng.standard_normal(deg + 1))
            )
            z = 0.9 * rng.uniform(0, 1) * cmath.exp(2j * math.pi * rng.uniform(0, 1))
            h = 1e-6
            fd = (eval_series(F, z + h) - eval_series(F, z - h)) / (2 * h)
            assert abs(eval_series(derivative(F), z) - fd) <= 1e-6


class TestDeficiency:
    def test_linear_term_annihilated(self):
        assert deficiency(AnalyticSeries((0, 1))).is_zero()

    def test_quadratic(self):
        assert deficiency(AnalyticSeries((0, 1, 1))).coeffs == (0j, 0j, -1 + 0j)

    def test_cubic_showcase(self):
        lam = 1.0
        F = AnalyticSeries((0, 1, lam / 2, lam / 4))
        assert deficiency(F).coeffs == (0j, 0j, -lam / 2 + 0j, -lam / 2 + 0j)

    def test_constant_term_preserved(self):
        assert deficiency(AnalyticSeries((3, 2, 1))).coeff(0) == 3

    @given(int_coeffs, int_coeffs,
           st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=100)
    def test_linearity_exact_on_integers(self, cf, cg, alpha, beta):
        F, G = AnalyticSeries(tuple(cf)), AnalyticSeries(tuple(cg))
        lhs = deficiency(linear_combination([(alpha, F), (beta, G)]))
        rhs = linear_combination([(alpha, deficiency(F)), (beta, deficiency(G))])
        assert lhs.coeffs == rhs.coeffs

    @given(float_coeffs, float_coeffs)
    @settings(max_examples=100)
    def test_linearity_float(self, cf, cg):
        F, G = AnalyticSeries(tuple(cf)), AnalyticSeries(tuple(cg))
        lhs = deficiency(linear_combination([(0.3, F), (-1.7, G)]))
        rhs = linear_combination([(0.3, deficiency(F)), (-1.7, deficiency(G))])
        for n in range(max(lhs.degree, rhs.degree) + 1):
            assert lhs.coeff(n) == pytest.approx(rhs.coeff(n), abs=1e-12)

    def test_rotation_equivariance(self):
        # Conjugating by a rotation commutes with the deficiency operator.
        rng = np.random.default_rng(3)
        for _ in range(20):
            deg = int(rng.integers(1, 9))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            F = AnalyticSeries(tuple(coeffs))
            u = cmath.exp(2j * math.pi * rng.uniform(0, 1))
            G = AnalyticSeries(tuple(u ** (n - 1) * c for n, c in enumerate(coeffs)))
            z = 0.8 * cmath.exp(2j * math.pi * rng.uniform(0, 1))
            lhs = eval_series(deficiency(G), z)
            rhs = eval_series(deficiency(F), u * z) / u
            assert abs(lhs - rhs) <= 1e-12


class TestHadamard:
    def test_square(self):
        F = AnalyticSeries((0, 1, 0.5))
        assert hadamard(F, F).coeffs == (0j, 1 + 0j, 0.25 + 0j)

    def test_all_ones_is_identity(self):
        F = AnalyticSeries((0, 1, 0.3, -0.2j, 0.7))
        ones = AnalyticSeries((1,) * (F.degree + 1))
        assert hadamard(F, ones).coeffs == F.coeffs

    def test_cubic_showcase_square(self):
        lam = 1.0
        F = AnalyticSeries((0, 1, lam / 2, lam / 4))
        got = hadamard(F, F)
        expected = tuple(c * c for c in F.coeffs)
        assert got.coeffs == expected

    def test_truncates_to_shorter(self):
        F = AnalyticSeries((0, 1, 2, 3))
        G = AnalyticSeries((0, 1))
        assert hadamard(F, G).degree <= 1

    @given(int_coeffs, int_coeffs)
    @settings(max_examples=100)
    def test_deficiency_intertwines_exactly(self, cf, cg):
        F, G = AnalyticSeries(tuple(cf)), AnalyticSeries(tuple(cg))
        a = deficiency(hadamard(F, G))
        b = hadamard(deficiency(F), G)
        c = hadamard(F, deficiency(G))
        assert a.coeffs == b.coeffs == c.coeffs

    def test_derivative_after_all_ones(self):
        F = AnalyticSeries((0, 1, -0.4, 0.25j))
        ones = AnalyticSeries((1,) * (F.degree + 1))
        lhs = derivative(hadamard(F, ones))
        assert lhs.coeffs == derivative(F).coeffs


class TestLinearCombination:
    def test_single(self):
        assert linear_combination([(1.0, AnalyticSeries((0, 1)))]).coeffs == (0j, 1 + 0j)

    def test_cancellation(self):
        F = AnalyticSeries((0, 1, 1))
        G = AnalyticSeries((0, 1, -1))
        assert linear_combination([(0.5, F), (0.5, G)]).coeffs == (0j, 1 + 0j)

    def test_convex_idempotence(self):
        F = AnalyticSeries((0, 1, 0.5))
        got = linear_combination([(0.3, F), (0.7, F)])
        for n in range(F.degree + 1):
            assert got.coeff(n) == pytest.approx(F.coeff(n), abs=1e-15)

    def test_empty_raises(self):
        with pytest.raises(ParameterError):
            linear_combination([])

    def test_zero_pads(self):
        F = AnalyticSeries((0, 1))
        G = AnalyticSeries((0, 0, 2))
        assert linear_combination([(1, F), (1, G)]).coeffs == (0j, 1 + 0j, 2 + 0j)

    # The section h + zeta g of a harmonic map, for unimodular zeta.
    def test_zero_coanalytic_section(self):
        got = linear_combination(
            [(1, AnalyticSeries((0, 1))), (1j, AnalyticSeries((0,)))]
        )
        assert got.coeffs == (0j, 1 + 0j)

    def test_real_section(self):
        got = linear_combination(
            [(1, AnalyticSeries((0, 1))), (1.0, AnalyticSeries((0, 0, -1)))]
        )
        assert got.coeffs == (0j, 1 + 0j, -1 + 0j)

    def test_imaginary_section(self):
        got = linear_combination(
            [(1, AnalyticSeries((0, 1))), (1j, AnalyticSeries((0, 0, 0.2)))]
        )
        assert got.coeff(2) == 0.2j


class TestEvalGrid:
    def test_points_stay_inside(self):
        grid = default_grid()
        assert np.all(np.abs(grid.points()) < 1.0)

    def test_grid_shape_is_keyword_only(self):
        with pytest.raises(TypeError):
            default_grid(6)

    def test_rejects_radius_one(self):
        with pytest.raises(ParameterError):
            EvalGrid(radii=(0.5, 1.0), angles_per_ring=8)

    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            EvalGrid(radii=(0.5, 0.2), angles_per_ring=8)

    def test_point_count(self):
        grid = EvalGrid(radii=(0.25, 0.5), angles_per_ring=16)
        assert len(grid.points()) == 32

    @pytest.mark.parametrize("angles", [2.5, 8.0, True, False, "8", None, 0, -3])
    def test_rejects_non_integer_or_nonpositive_angle_count(self, angles):
        with pytest.raises(ParameterError):
            EvalGrid(radii=(0.5,), angles_per_ring=angles)

    def test_accepts_numpy_integer_angle_count(self):
        grid = EvalGrid(radii=(0.5,), angles_per_ring=np.int64(8))
        assert grid.angles_per_ring == 8 and len(grid.points()) == 8

    @pytest.mark.parametrize("grid, degree", [
        (default_grid(), 40),
        (EvalGrid(radii=(0.0, 0.3, 0.9), angles_per_ring=16), 12),
        # 601 coefficients on 128 angles: circle_values folds them first.
        (EvalGrid(radii=(0.5, 0.95), angles_per_ring=128), 600),
    ])
    def test_values_match_horner_in_point_order(self, grid, degree):
        rng = np.random.default_rng(degree)
        series = [AnalyticSeries(tuple(
            rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)))
            for d in (degree, degree // 2, 1, 0)]
        got = grid.values(*series)
        zs = grid.points()
        assert got.shape == (4, len(zs))
        # Horner at points() itself, so a value out of order fails too;
        # the bound is assert_matches_horner's, 1e-13 of sum |c_k| |z|^k.
        for F, row in zip(series, got):
            mass = np.abs(F.coeffs) @ (np.abs(zs)[None, :]
                                       ** np.arange(len(F.coeffs))[:, None])
            assert np.all(np.abs(row - eval_array(F, zs)) <= 1e-13 * mass)
