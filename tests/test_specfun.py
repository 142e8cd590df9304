import math

import numpy as np
import pytest

from harmcert import specfun
from harmcert.errors import ParameterError
from harmcert.specfun import (
    HypergeomParams,
    gauss_value,
    hyper_coefficients,
    partial_sum,
    weighted_gauss_value,
)


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


class TestHypergeomParams:
    def test_rejects_nonpositive_integer_c(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(ParameterError):
                HypergeomParams(1.0, 1.0, bad)

    def test_c_must_be_positive(self):
        # No tolerance: every c > 0 is a triple, every c <= 0 is not.
        assert HypergeomParams(-2, -2, 1e-13).c == 1e-13
        for bad in (-0.5, -1e-300, -0.0):
            with pytest.raises(ParameterError, match="c must be positive"):
                HypergeomParams(1.0, 1.0, bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_rejects_non_finite(self, slot, bad):
        args = [1.0, 1.0, 3.0]
        args[slot] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            HypergeomParams(*args)


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
            want = [num / den for num, den in exact_terms(p.a, p.b, p.c, 12)]
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
        # F(-1, -1; c; 1) = 1 + 1/c: the two-term sum, and Gauss's closed
        # form (Chu-Vandermonde) within the rounding of its lgamma values.
        for c in (1.5, 4.0, 9.0):
            p = HypergeomParams(-1, -1, c)
            assert partial_sum(p, 1, weighted=False) == pytest.approx(
                1.0 + 1.0 / c, rel=1e-15
            )
            assert gauss_value(p) == pytest.approx(1.0 + 1.0 / c, rel=1e-13)

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
            p = HypergeomParams(-1, -1, c)
            assert partial_sum(p, 1, weighted=True) == pytest.approx(
                1.0 + 2.0 / c, rel=1e-15
            )
            assert weighted_gauss_value(p) == pytest.approx(1.0 + 2.0 / c,
                                                            rel=1e-13)

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


class TestTerminatingSums:
    @staticmethod
    def full_sums(p, N):
        """Both sums over every term t_0..t_N, left to right."""
        plain = moment = 0.0
        for n, t in enumerate(hyper_coefficients(p, N)):
            plain += t
            moment += (n + 1.0) * t
        return plain, moment

    @pytest.mark.parametrize("a, b, c", [
        (-3, -3, 2.5), (-40, -40, 0.7), (-600, -600, 1.0), (-600, -600, 13.3),
        (-2000, -2000, 2.0),
        # a != b: the series ends at t_s, s the least of -a and -b that
        # is not negative; the terms of (-7, 2.5, 3.0) have both signs.
        (-4, -6, 1.5), (-7, 2.5, 3.0), (-300, -299, 1.0), (-600, -599, 1.0),
    ])
    def test_bit_identical_to_the_full_sums(self, a, b, c):
        p = HypergeomParams(a, b, c)
        s = min(-x for x in (a, b) if x <= 0)
        sums = (partial_sum(p, s, weighted=False),
                partial_sum(p, s, weighted=True))
        assert sums == self.full_sums(p, s)

    @pytest.mark.parametrize("a, b, c, N", [
        (0.5, 0.5, 3.0, 2000), (0.3, 1.7, 2.9, 500), (2.5, 3.7, 1.1, 300),
        (40.0, 40.0, 80.5, 64), (1e-200, 1e-200, 1.0, 100),
    ])
    def test_positive_triples_sum_their_terms(self, a, b, c, N):
        # The partial sums of an f4-f6 tail, which a closed form less a
        # partial sum bounds: the left-to-right float sums of the terms.
        p = HypergeomParams(a, b, c)
        assert (partial_sum(p, N, weighted=False),
                partial_sum(p, N, weighted=True)) == self.full_sums(p, N)

    @pytest.fixture
    def taken(self, monkeypatch):
        """Every term that partial_sum reads."""
        taken = []
        terms = specfun._terms

        def counted(p, N):
            for t in terms(p, N):
                taken.append(t)
                yield t

        monkeypatch.setattr(specfun, "_terms", counted)
        return taken

    def test_stops_once_the_sum_is_inf(self, taken):
        # With a = b and c > 0 no term is negative, so +inf is final.
        p = HypergeomParams(-1e6, -1e6, 2.0)
        assert partial_sum(p, 10**6, weighted=False) == math.inf
        assert partial_sum(p, 10**6, weighted=True) == math.inf
        assert len(taken) < 100

    def test_stops_at_a_zero_term(self, taken):
        # s = 10^12 and c = 1e300: t_1 = 1e-276 and t_2 underflows to 0,
        # after which every term is 0, so the sum is 1 + t_1 after 3 terms.
        p = HypergeomParams(-1e12, -1e12, 1e300)
        assert partial_sum(p, 10**12, weighted=False) == 1.0
        assert taken == [1.0, 1e24 / 1e300, 0.0]
