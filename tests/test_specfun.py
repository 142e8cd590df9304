import math

import numpy as np
import pytest

from harmcert import specfun
from harmcert.errors import ParameterError
from harmcert.specfun import (
    HypergeomParams,
    gauss_value,
    hyper_coefficients,
    pochhammer,
    weighted_gauss_value,
)


def series_terms_by_quotients(a, b, c, N):
    """Independent oracle for the coefficient stream: direct Pochhammer quotients."""
    out = []
    for n in range(N + 1):
        num = pochhammer(a, n) * pochhammer(b, n)
        den = math.factorial(n) * pochhammer(c, n)
        out.append(num / den)
    return out


def exact_terms(a, b, c, N):
    """Oracle for the bound: the Gauss terms t_0..t_N, exact, as integer
    pairs (num, den).  They are left unreduced: each step then costs one
    product by small integers instead of a gcd of large ones."""
    (an, ad), (bn, bd), (cn, cd) = (x.as_integer_ratio() for x in (a, b, c))
    num = den = 1
    terms = [(num, den)]
    for k in range(N):
        num *= (an + k * ad) * (bn + k * bd) * cd
        den *= (cn + k * cd) * (k + 1) * ad * bd
        terms.append((num, den))
    return terms


def cumprod_terms(a, b, c, N):
    """The terms as a numpy cumprod of the ratios, the same operations in
    the same order as the plain recurrence."""
    n = np.arange(N, dtype=float)
    ratios = (a + n) * (b + n) / ((c + n) * (n + 1.0))
    return [1.0, *np.cumprod(ratios).tolist()]


def partial_sum_with_tail(p, rel_target=1e-9, cap=400_000):
    """Partial sum of the Gauss series at z = 1 with a conservative tail bound.

    The idealized tail estimate t_N N / (c-a-b) matches the true tail only
    to leading order, so a factor of 3 is kept as safety margin.
    """
    gap = p.c - p.a - p.b
    N = 1024
    while True:
        terms = hyper_coefficients(p, N)
        total = float(np.sum(terms))
        bound = 3.0 * abs(terms[-1]) * N / gap
        if bound <= rel_target * abs(total) or N >= cap:
            return total, bound
        N *= 2


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0

    def test_rising(self):
        assert pochhammer(2.0, 3) == 24.0

    def test_hits_zero(self):
        assert pochhammer(-2.0, 3) == 0.0

    def test_gamma_bridge(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(1e-3, 10.0)
            n = int(rng.integers(0, 21))
            expected = math.gamma(x + n) / math.gamma(x)
            assert pochhammer(x, n) == pytest.approx(expected, rel=1e-10)

    def test_recurrence_across_lgamma_branch(self):
        # (x)_65 comes from lgamma, (x)_64 from the plain product; the
        # recurrence (x)_65 = (x)_64 (x + 64) joins the two branches.
        rng = np.random.default_rng(17)
        for x in rng.uniform(1e-6, 50.0, size=1000):
            lhs = pochhammer(x, 65)
            assert abs(lhs - pochhammer(x, 64) * (x + 64)) / lhs <= 1e-12

    def test_rejects_negative_order(self):
        with pytest.raises(ParameterError):
            pochhammer(1.0, -1)

    def test_long_products_match_the_loop(self):
        # Past 64 factors the lgamma difference is used; it must agree with
        # the plain product, also where x + n passes Gamma's range (~171.6).
        rng = np.random.default_rng(65)
        for _ in range(300):
            x = float(rng.uniform(1e-2, 150.0))
            n = int(rng.integers(65, 300))
            acc = 1.0
            for k in range(n):
                acc *= x + k
            got = pochhammer(x, n)
            if math.isinf(acc):
                assert got == math.inf
            else:
                assert abs(got - acc) <= 1e-12 * acc

    def test_past_gamma_range_stays_finite(self):
        # Gamma(215) overflows a double; (150)_65 is about 5.66e146.
        assert pochhammer(150.0, 65) == pytest.approx(5.664898802873e146,
                                                      rel=1e-12)
        assert pochhammer(150.0, 400) == math.inf

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(66)
        for _ in range(100):
            x = float(rng.uniform(1e-2, 500.0))
            n = int(rng.integers(65, 200))
            want = float(mpmath.rf(x, n))
            got = pochhammer(x, n)
            if math.isinf(want):
                assert got == math.inf
            else:
                assert abs(got - want) <= 1e-12 * want


class TestHypergeomParams:
    def test_rejects_nonpositive_integer_c(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(ParameterError):
                HypergeomParams(1.0, 1.0, bad)

    def test_allows_negative_non_integer_c(self):
        HypergeomParams(1.0, 1.0, -0.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_rejects_non_finite(self, slot, bad):
        args = [1.0, 1.0, 3.0]
        args[slot] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            HypergeomParams(*args)

    def test_terminating_index(self):
        assert HypergeomParams(-3, 1, 2).terminating_index() == 3
        assert HypergeomParams(-3, -1, 2).terminating_index() == 1
        assert HypergeomParams(0.5, 1, 2).terminating_index() is None
        assert HypergeomParams(0.0, 1, 2).terminating_index() == 0


class TestHyperCoefficients:
    def test_small_stream(self):
        got = hyper_coefficients(HypergeomParams(1, 1, 3), 2)
        assert got == pytest.approx([1.0, 1 / 3, 1 / 6], rel=1e-15)

    def test_zero_a(self):
        got = hyper_coefficients(HypergeomParams(0, 2.5, 3), 4)
        assert list(got) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_terminating(self):
        got = hyper_coefficients(HypergeomParams(-1, -1, 2), 3)
        assert got == pytest.approx([1.0, 0.5, 0.0, 0.0], abs=0)

    def test_matches_quotient_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            a, b = rng.uniform(0.1, 4.0, size=2)
            c = rng.uniform(0.3, 6.0)
            p = HypergeomParams(a, b, c)
            got = hyper_coefficients(p, 12)
            want = series_terms_by_quotients(a, b, c, 12)
            assert got == pytest.approx(want, rel=1e-12)


class TestRecurrenceBound:
    """|t^_k - t_k| <= gamma_{7k} |t_k|: 7 roundings a step, exact inputs."""

    @staticmethod
    def check(a, b, c, N):
        got = hyper_coefficients(HypergeomParams(a, b, c), N)
        assert got == cumprod_terms(a, b, c, N)  # bit for bit
        for k, (t_hat, (num, den)) in enumerate(
                zip(got, exact_terms(a, b, c, N))):
            if num == 0:
                assert t_hat == 0.0
                continue
            # The bound holds only without overflow or underflow.
            assert 1e-300 < abs(t_hat) < 1e300
            # |p/q - num/den| <= gamma_{7k} |num/den| with t_hat = p/q and
            # gamma_m = m / (2^53 - m), multiplied through by |q den|.
            p, q = t_hat.as_integer_ratio()
            assert abs(p * den - q * num) * (2**53 - 7 * k) <= 7 * k * abs(q * num)
        return got

    @pytest.mark.parametrize("a, b, c", [
        (0.5, 0.5, 3.0), (0.3, 1.7, 2.9), (1.25, 2.5, 4.1),
        (2.5, 3.7, 1.1), (0.1, 0.9, 7.3), (3.3, 0.7, 0.45),
    ])
    def test_positive_triples(self, a, b, c):
        self.check(a, b, c, 1024)

    @pytest.mark.parametrize("s", [1, 5, 40, 300])
    @pytest.mark.parametrize("c", [0.5, 2.75, 13.3])
    def test_terminating(self, s, c):
        got = self.check(-s, -s, c, s + 64)
        assert all(t != 0.0 for t in got[:s + 1])
        assert got[s + 1:] == [0.0] * 64


class TestGaussValue:
    def test_zero_a(self):
        assert gauss_value(HypergeomParams(0, 3.2, 5)) == 1.0

    def test_one_one_three(self):
        val = gauss_value(HypergeomParams(1, 1, 3))
        assert val == pytest.approx(2.0, abs=1e-12)
        # Partial-sum oracle at N = 10^4: the tail is about 2/(N+2).
        terms = hyper_coefficients(HypergeomParams(1, 1, 3), 10_000)
        assert float(np.sum(terms)) == pytest.approx(2.0, abs=3e-4)

    def test_terminating_two_terms(self):
        for c in (1.5, 4.0, 9.0):
            assert gauss_value(HypergeomParams(-1, -1, c)) == pytest.approx(
                1.0 + 1.0 / c, rel=1e-15
            )

    def test_consistency_with_partial_sums(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 50:
            a, b = rng.uniform(0.1, 2.5, size=2)
            c = a + b + rng.uniform(2.0, 6.0)
            p = HypergeomParams(a, b, c)
            total, bound = partial_sum_with_tail(p)
            # The closed form carries its own 1e-12 relative budget; the
            # tail bound cannot be asserted below that noise floor.
            floor = 1e-12 * abs(total)
            assert abs(gauss_value(p) - total) <= bound + floor
            checked += 1

    def test_divergent_raises(self):
        with pytest.raises(ParameterError):
            gauss_value(HypergeomParams(2.0, 2.0, 3.0))

    def test_value_past_the_double_range_is_inf(self):
        # F(1000, 1000; 2000.5; 1) = Gamma(2000.5) Gamma(0.5) / Gamma(1000.5)^2
        # is about 1e600.
        assert gauss_value(HypergeomParams(1000.0, 1000.0, 2000.5)) == math.inf

    def test_against_mpmath_past_gamma_overflow(self):
        # Gamma(c) overflows a double from c ~ 171.6; the closed form holds
        # its 1e-12 relative budget up to c = 300.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(43)
        for _ in range(300):
            a, b = rng.uniform(0.05, 20.0, size=2)
            c = rng.uniform(a + b + 0.05, 300.0)
            want = float(mpmath.hyp2f1(a, b, c, 1))
            got = gauss_value(HypergeomParams(a, b, c))
            assert abs(got - want) <= 1e-12 * abs(want)


class TestWeightedGaussValue:
    def test_closed_form_value(self):
        # (ab/(c-a-b-1) + 1) F(a,b;c;1) at (1,1,4): 2 * Gamma(4)Gamma(2)/Gamma(3)^2.
        val = weighted_gauss_value(HypergeomParams(1, 1, 4))
        assert val == pytest.approx(3.0, abs=1e-12)
        terms = hyper_coefficients(HypergeomParams(1, 1, 4), 20_000)
        direct = float(np.sum((np.arange(20_001) + 1.0) * terms))
        assert direct == pytest.approx(3.0, abs=1e-3)

    def test_zero_a(self):
        assert weighted_gauss_value(HypergeomParams(0, 1.7, 4)) == 1.0

    def test_terminating(self):
        for c in (2.0, 3.5, 8.0):
            assert weighted_gauss_value(HypergeomParams(-1, -1, c)) == pytest.approx(
                1.0 + 2.0 / c, rel=1e-15
            )

    def test_closed_form_vs_weighted_partial_sums(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            a, b = rng.uniform(0.1, 2.0, size=2)
            c = a + b + 1.0 + rng.uniform(2.0, 6.0)
            p = HypergeomParams(a, b, c)
            N = 60_000
            terms = hyper_coefficients(p, N)
            direct = float(np.sum((np.arange(N + 1) + 1.0) * terms))
            closed = weighted_gauss_value(p)
            assert closed == pytest.approx(direct, rel=1e-8)

    def test_guard_raises(self):
        with pytest.raises(ParameterError):
            weighted_gauss_value(HypergeomParams(1.0, 1.0, 2.5))


class TestTerminatingSums:
    @staticmethod
    def full_sums(p):
        """Both terminating sums over every term, left to right."""
        plain = moment = 0.0
        for n, t in enumerate(hyper_coefficients(p, p.terminating_index())):
            plain += t
            moment += (n + 1.0) * t
        return plain, moment

    @pytest.mark.parametrize("a, b, c", [
        (-3, -3, 2.5), (-40, -40, 0.7), (-600, -600, 1.0), (-600, -600, 13.3),
        (-2000, -2000, 2.0),
        # Mixed signs: terms of both signs, summed to the end.
        (-5, -5, -2.5), (-4, -6, 1.5), (-7, 2.5, 3.0), (-300, -299, 1.0),
        (-300, -300, -0.5), (-600, -599, 1.0), (-600, -600, -0.5),
    ])
    def test_bit_identical_to_the_full_sums(self, a, b, c):
        p = HypergeomParams(a, b, c)
        assert (gauss_value(p), weighted_gauss_value(p)) == self.full_sums(p)

    def test_stops_once_the_sum_is_inf(self, monkeypatch):
        # With a = b and c > 0 no term is negative, so +inf is final.
        taken = []
        terms = specfun._terms

        def counted(p, N):
            for t in terms(p, N):
                taken.append(t)
                yield t

        monkeypatch.setattr(specfun, "_terms", counted)
        p = HypergeomParams(-1e6, -1e6, 2.0)
        assert gauss_value(p) == math.inf
        assert weighted_gauss_value(p) == math.inf
        assert len(taken) < 100
