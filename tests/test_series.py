import bisect
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from horner import eval_array

from harmcert.errors import ParameterError
from harmcert.geometry import _euler_image
from harmcert.series import (
    AnalyticSeries,
    circle_values,
    deficiency,
    derivative,
    eval_series,
    hadamard,
    linear_combination,
    scan_angles,
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
        assert AnalyticSeries((0,)).coeffs == (0j,)

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
        # COEFF_TOL = 1e-12 bounds the linear coefficient's error only: a
        # zero of F off the origin, however near, is no normalized series.
        assert AnalyticSeries((-0.0, 1 + 1e-13)).is_normalized()
        for c0 in (1e-12, 1e-300, 5e-324j):
            assert not AnalyticSeries((c0, 1)).is_normalized()


class TestEval:
    def test_identity(self):
        assert eval_series(AnalyticSeries((0, 1)).coeffs, 0.5) == 0.5

    def test_cubic_showcase_at_one(self):
        F = AnalyticSeries((0, 1, 0.5, 0.25))
        assert eval_series(F.coeffs, 1.0) == pytest.approx(1.75, abs=0)

    def test_quadratic_at_i(self):
        F = AnalyticSeries((0, 1, 0.5))
        expected = naive_eval(F, 1j)
        assert expected == 1j - 0.5
        assert eval_series(F.coeffs, 1j) == pytest.approx(expected, abs=1e-15)

    @given(float_coeffs, st.floats(0, 1), st.floats(0, 2 * math.pi))
    @settings(max_examples=100)
    def test_matches_naive_sum_on_disk(self, coeffs, r, theta):
        F = AnalyticSeries(tuple(coeffs))
        z = r * cmath.exp(1j * theta)
        assert eval_series(F.coeffs, z) == pytest.approx(naive_eval(F, z),
                                                         abs=1e-10)

    def test_array_eval_matches_scalar(self):
        F = AnalyticSeries((0, 1, 0.3 - 0.2j, 0.1j))
        zs = np.array([0.2, 0.5j, -0.3 + 0.4j])
        out = eval_array(F, zs)
        for z, v in zip(zs, out):
            assert v == pytest.approx(eval_series(F.coeffs, complex(z)),
                                      abs=1e-14)


def on_ring(coeffs, r):
    """The coefficients c_k r^k, whose circle values are those of the
    series on the ring of radius r, along the first axis."""
    coeffs = np.asarray(coeffs)
    return coeffs * (r ** np.arange(len(coeffs))).reshape(
        (-1,) + (1,) * (coeffs.ndim - 1))


def assert_matches_horner(coeffs, got, r):
    """circle_values(on_ring(coeffs, r)) output ``got`` against eval_array
    on the ring's grid, within 1e-13 of sum |c_k| r^k, the largest the sum
    can be there."""
    n = len(got)
    zs = r * np.exp(2j * math.pi * np.arange(n) / n)
    want = eval_array(AnalyticSeries(tuple(coeffs)), zs)
    mass = float(np.sum(np.abs(coeffs) * r ** np.arange(len(coeffs))))
    assert np.max(np.abs(got - want)) <= 1e-13 * mass


def smooth_numbers(limit):
    """Every integer in [1, limit] whose prime factors are all at most 11,
    sorted: an independent enumeration, one prime at a time."""
    out = [1]
    for q in (2, 3, 5, 7, 11):
        out = [m * q**k for m in out
               for k in range(int(math.log(limit / m, q) + 1e-9) + 1)]
    return sorted(out)


class TestScanAngles:
    def test_least_eleven_smooth_length_past_the_floor(self):
        # Degrees up to 5000: the least integer >= max(256, 64 d) with no
        # prime factor above 11, never more than 1.5 % above that floor.
        smooth = smooth_numbers(2 * 64 * 5000)
        for d in range(5001):
            floor = max(256, 64 * d)
            n = scan_angles(d)
            assert n == smooth[bisect.bisect_left(smooth, floor)], d
            assert n <= 1.015 * floor, d

    def test_large_prime_factors_move(self):
        # 64 d has a prime factor above 11 here (127, 127, 257, 509 and
        # 16381), but not at d = 256.
        assert [scan_angles(d) for d in (127, 254, 256, 257, 509, 16381)] == [
            8192, 16335, 16384, 16464, 32670, 1048576]


class TestCircleValues:
    @pytest.mark.parametrize("degree", [0, 3, 64, 257, 300, 509])
    @pytest.mark.parametrize("r", [1.0, 0.7, 2.0**-30])
    def test_matches_horner_on_the_grid(self, degree, r):
        rng = np.random.default_rng(degree)
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(
            degree + 1)
        n = scan_angles(degree)
        assert_matches_horner(coeffs, circle_values(on_ring(coeffs, r), n),
                              r)

    @pytest.mark.parametrize("r", [1.0, 0.7])
    def test_four_column_batch(self, r):
        # One column of values per coefficient column, as the radius rings
        # transform p, q, p' and q' together.
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal((33, 4)) + 1j * rng.standard_normal(
            (33, 4))
        got = circle_values(on_ring(coeffs, r), 2048)
        assert got.shape == (2048, 4)
        for j in range(4):
            assert_matches_horner(coeffs[:, j], got[:, j], r)

    @pytest.mark.parametrize("r", [1.0, 0.7])
    def test_folds_past_the_point_count(self, r):
        # 601 coefficients on 512 points: z^k = z^(k mod 512) on the grid.
        rng = np.random.default_rng(600)
        coeffs = rng.standard_normal(601) + 1j * rng.standard_normal(601)
        assert_matches_horner(coeffs,
                              circle_values(on_ring(coeffs, r), 512), r)


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
            fd = (eval_series(F.coeffs, z + h)
                  - eval_series(F.coeffs, z - h)) / (2 * h)
            assert abs(eval_series(derivative(F).coeffs, z) - fd) <= 1e-6


class TestDeficiency:
    def test_linear_term_annihilated(self):
        assert deficiency(AnalyticSeries((0, 1))).coeffs == (0j,)

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
            lhs = eval_series(deficiency(G).coeffs, z)
            rhs = eval_series(deficiency(F).coeffs, u * z) / u
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


def bits(F):
    return [(c.real.hex(), c.imag.hex()) for c in F.coeffs]


class TestDerivedSeries:
    """derivative, deficiency, hadamard and the Euler image build their
    results from checked coefficients, with the validating constructor's
    result, and name a derived coefficient past the double range."""

    @staticmethod
    def derived(F, G):
        cs = F.coeffs
        return (
            (derivative(F), tuple(n * c for n, c in enumerate(cs))[1:]),
            (deficiency(F), tuple((1 - n) * c for n, c in enumerate(cs))),
            (hadamard(F, G), tuple(a * b for a, b in zip(cs, G.coeffs))),
            (_euler_image(F), tuple((n * n - 1) * c
                                    for n, c in enumerate(cs))),
        )

    @given(float_coeffs, float_coeffs)
    @settings(max_examples=100)
    def test_equal_to_the_validating_constructor(self, cf, cg):
        F, G = AnalyticSeries(tuple(cf)), AnalyticSeries(tuple(cg))
        for got, cs in self.derived(F, G):
            want = AnalyticSeries(cs)
            assert bits(got) == bits(want)
            assert got == want
            assert all(type(c) is complex for c in got.coeffs)

    def test_trailing_zeros_stripped(self):
        assert deficiency(AnalyticSeries((0, 1))).coeffs == (0j,)
        assert deficiency(AnalyticSeries((0, 1))).degree == 0
        F = AnalyticSeries((0, 1, 0.5))
        G = AnalyticSeries((0, 1, 0, 2))
        assert hadamard(F, G).coeffs == (0j, 1 + 0j)
        assert _euler_image(AnalyticSeries((2, 1))).coeffs == (-2 + 0j,)
        assert derivative(AnalyticSeries((3, 1e-300))).coeffs == (1e-300 + 0j,)

    def test_overflowing_image_names_the_double_range(self):
        # -2 (0.7e308 + 0.7e308 i) has finite parts and an overflowing
        # modulus; -2 (1e308) overflows itself.  The input is finite, so
        # the error names the derived coefficient, not "must be finite".
        for c, image in ((0.7e308 + 0.7e308j, "(-1.4e+308-1.4e+308j)"),
                         (1e308 + 0j, "(-inf+0j)")):
            with pytest.raises(ParameterError) as got:
                deficiency(AnalyticSeries((0, 1, 0, c)))
            assert str(got.value) == (f"derived coefficient {image} at "
                                      "index 3 passes the double range")
        # Every derived series reports the same way.
        F = AnalyticSeries((0, 1, 0, 1e308))
        for op, index in ((derivative, 2), (lambda F: hadamard(F, F), 3),
                          (_euler_image, 3)):
            with pytest.raises(ParameterError,
                               match=f"at index {index} passes the double "
                                     "range$"):
                op(F)

    def test_finite_image_whose_modulus_sum_overflows_is_accepted(self):
        F = AnalyticSeries((0, 1, 1e308, 0.5e308))
        image = deficiency(F)
        assert image.coeffs == (0j, 0j, -1e308 + 0j, -1e308 + 0j)
        assert math.isinf(sum(map(abs, image.coeffs)))
        assert image == AnalyticSeries((0, 0, -1e308, -1e308))


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
