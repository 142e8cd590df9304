import cmath
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from harmcert.catalog import CatalogParams, condition, make_example
from harmcert.errors import ParameterError
from harmcert.membership import (
    ClassParams,
    Verdict,
    coefficient_sufficient,
    harmonic_membership,
)
from harmcert.series import AnalyticSeries
from harmcert.specfun import HypergeomParams, gauss_value, hyper_coefficients
from test_specfun import exact_terms


def family_rule(family, terms, eta):
    """g_2..g_T of the tail family from the Gauss terms t_0..t_{T-1}:
    eta t_{n-2}/(n-1) (f4), eta t_{n-1} (f5) or eta t_{n-2} (f6)."""
    if family == "f5":
        return [eta * t for t in terms[1:]]
    if family == "f4":
        return [eta * (t / (k + 1)) for k, t in enumerate(terms[:-1])]
    return [eta * t for t in terms[:-1]]


class TestEtaBand:
    def test_eta_passes_one_by_hypot_rounding_only(self):
        # A band of 1e-12 let through maps that check calls NonMember.
        for eta in (1.0000000000005, 1.0 + 2.0**-51, 0.6 + 0.8000001j):
            with pytest.raises(ParameterError, match="unit disk"):
                CatalogParams(name="f3", lam=1.0, eta=eta)
        eta = 1.0 + 2.0**-52
        for lam in (1e-300, 1.0, 1e300):
            f = make_example(CatalogParams(name="f3", lam=lam, eta=eta))
            rep = harmonic_membership(f, ClassParams(lam))
            assert rep.verdict is Verdict.BOUNDARY_SHARP

    def test_computed_unit_values_pass(self):
        t = np.linspace(-50.0, 50.0, 4001)
        etas = ([cmath.exp(1j * x) for x in t] + list(np.exp(1j * t))
                + list(np.cos(t) + 1j * np.sin(t)))
        for c in range(1, 100):
            for a in range(1, c):
                b = math.isqrt(c * c - a * a)
                if a * a + b * b == c * c:
                    etas.append(complex(a / c, b / c))
        for eta in etas:
            CatalogParams(name="f3", lam=1.0, eta=complex(eta))


class TestMakeExample:
    def test_cubic_showcase(self):
        m = make_example(CatalogParams(name="eq13", lam=1.0))
        assert m.h.coeffs == (0j, 1 + 0j, 0.5 + 0j, 0.25 + 0j)
        assert m.g.coeffs == (0j,)

    def test_sharp_analytic(self):
        m = make_example(CatalogParams(name="f_a", lam=2.0, n=5))
        assert m.h.coeff(5) == 0.5
        assert m.h.coeff(1) == 1.0

    def test_sharp_coanalytic(self):
        m = make_example(CatalogParams(name="f_b", lam=1.0, n=3))
        assert m.g.coeff(3) == -0.5
        assert m.h.coeffs == (0j, 1 + 0j)

    def test_quadratic_with_phase(self):
        m = make_example(CatalogParams(name="f3", lam=1.0, eta=1j))
        assert m.h.coeff(2) == 1j

    def test_tail_family_leading_coefficients(self):
        m4 = make_example(CatalogParams(name="f4", lam=3.0, a=1.0, b=1.0,
                                        c=3.0))
        # b_n = eta t_{n-2} / (n-1) with t_0 = 1, t_1 = 1/3.
        assert m4.g.coeff(2) == pytest.approx(1.0, rel=1e-15)
        assert m4.g.coeff(3) == pytest.approx(1 / 6, rel=1e-15)
        m5 = make_example(CatalogParams(name="f5", lam=3.0, a=1.0, b=1.0,
                                        c=4.0))
        assert m5.g.coeff(2) == pytest.approx(1 / 4, rel=1e-15)
        m6 = make_example(CatalogParams(name="f6", lam=6.0, a=1.0, b=1.0,
                                        c=4.0))
        assert m6.g.coeff(2) == pytest.approx(1.0, rel=1e-15)
        assert m6.g.coeff(3) == pytest.approx(1 / 4, rel=1e-15)

    def test_tail_coefficients_match_quotient_oracle(self):
        a, b, c = 0.7, 1.3, 5.5
        g = make_example(CatalogParams(name="f4", lam=1.0, a=a, b=b, c=c,
                                       truncation=12)).g
        assert g.degree == 12
        for n, (num, den) in enumerate(exact_terms(a, b, c, 10), start=2):
            want = num / (den * (n - 1))
            assert g.coeff(n) == pytest.approx(want, rel=1e-13)

    def test_polynomial_families(self):
        m = make_example(CatalogParams(name="p3", lam=1.0, s=0, c=2.0))
        assert m.g.coeffs == (0j, 0j, 1 + 0j)
        m = make_example(CatalogParams(name="p2", lam=1.0, s=1, c=2.0))
        assert m.g.coeff(2) == 0.5
        m = make_example(CatalogParams(name="p1", lam=1.0, s=1, c=2.0))
        assert m.g.coeff(2) == 1.0
        assert m.g.coeff(3) == 0.25

    def test_guards(self):
        with pytest.raises(ParameterError):
            make_example(CatalogParams(name="f_a", lam=1.0, n=1))
        with pytest.raises(ParameterError):
            make_example(CatalogParams(name="f3", lam=1.0, eta=0.0))
        with pytest.raises(ParameterError):
            make_example(CatalogParams(name="f4", lam=1.0))
        with pytest.raises(ParameterError):
            make_example(
                CatalogParams(name="f5", lam=1.0, a=1, b=1, c=2.5)
            )
        with pytest.raises(ParameterError):
            make_example(CatalogParams(name="p1", lam=1.0, s=2))
        with pytest.raises(ParameterError):
            CatalogParams(name="nope", lam=1.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                CatalogParams(name="f3", lam=lam)
        with pytest.raises(ParameterError, match="unit disk"):
            make_example(CatalogParams(name="f3", lam=1.0,
                                       eta=complex(math.nan, 0.0)))

    def test_only_read_fields_are_checked(self):
        # eq13 reads no field besides lam, so out-of-range values pass.
        params = CatalogParams(name="eq13", lam=1.0, eta=0.0, n=0,
                               truncation=1, s=-1, c=math.nan)
        assert make_example(params).h.coeff(2) == 0.5
        with pytest.raises(ParameterError, match="truncation"):
            CatalogParams(name="f4", lam=1.0, a=1, b=1, c=3, truncation=1)
        with pytest.raises(ParameterError, match="index n"):
            CatalogParams(name="f_b", lam=1.0, n=1)

    @pytest.mark.parametrize("name, field, value", [
        ("p1", "s", 2.5), ("p1", "s", 2.0), ("p2", "s", True),
        ("f_a", "n", 2.5), ("f_b", "n", True),
        ("f4", "truncation", 64.0), ("f6", "truncation", True),
    ])
    def test_integer_fields_must_be_integers(self, name, field, value):
        kw = {"eta": 0.5, "s": 2, "a": 1.0, "b": 1.0, "c": 3.5, field: value}
        with pytest.raises(ParameterError,
                           match=f"{field} must be an integer, got {value!r}"):
            CatalogParams(name=name, lam=1.0, **kw)

    def test_non_integer_s_gets_no_condition(self):
        # s = 2.5 once summed a Gauss series that does not terminate.
        with pytest.raises(ParameterError, match="s must be an integer"):
            condition(CatalogParams(name="p1", lam=1.0, s=2.5, c=3.0))

    def test_names_without_a_condition(self):
        for name in ("eq13", "f_a", "f_b", "f3"):
            with pytest.raises(ParameterError, match="no closed-form"):
                condition(CatalogParams(name=name, lam=1.0))

    def test_numpy_integers_are_accepted(self):
        for name, field in (("p1", "s"), ("f_a", "n"), ("f4", "truncation")):
            kw = {"a": 1.0, "b": 1.0, "c": 3.5, "s": 3, "n": 3,
                  "truncation": 8}
            plain = CatalogParams(name=name, lam=1.0, **kw)
            kw[field] = np.int64(kw[field])
            p = CatalogParams(name=name, lam=1.0, **kw)
            assert type(getattr(p, field)) is int
            assert p == plain
            assert make_example(p) == make_example(plain)

    def test_unread_integer_fields_are_not_checked(self):
        p = CatalogParams(name="eq13", lam=1.0, n=2.5, s=2.5,
                          truncation=64.0)
        assert make_example(p).h.coeff(2) == 0.5
        CatalogParams(name="p1", lam=1.0, s=1, c=2.0, n=True,
                      truncation=0.5)

    def test_missing_fields_named_in_one_error(self):
        with pytest.raises(ParameterError, match="f4 needs a, b, c$"):
            CatalogParams(name="f4", lam=1.0)
        with pytest.raises(ParameterError, match="p2 needs s$"):
            CatalogParams(name="p2", lam=1.0, c=2.0)

    def test_conditions_are_not_catalog_names(self):
        with pytest.raises(ParameterError, match="unknown catalog name"):
            CatalogParams(name="c213", lam=1.0, a=1, b=1, c=3)

    def test_f4_accepts_unit_gap(self):
        # Gap c - a - b = 1 is enough for the integrated tail family.
        make_example(
            CatalogParams(name="f4", lam=2.5, a=1, b=1, c=3)
        )


class TestTerminatingIdentity:
    def test_bit_exact_specialization(self):
        rng = np.random.default_rng(83)
        ab_rng = np.random.default_rng(84)
        pairs = (("p1", "f4"), ("p2", "f5"), ("p3", "f6"))
        for _ in range(40):
            s = int(rng.integers(0, 9))
            if rng.random() < 0.5:
                c = float(rng.integers(1, 9))
            else:
                c = float(rng.uniform(0.3, 9.0))
            eta = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if eta == 0:
                eta = 0.5 + 0j
            terms = hyper_coefficients(HypergeomParams(-s, -s, c), s + 3)
            for pk, fk in pairs:
                poly = make_example(CatalogParams(name=pk, lam=1.0, eta=eta,
                                                  s=s, c=c)).g
                tail = AnalyticSeries((0j, 0j) + tuple(
                    family_rule(fk, terms, eta)))
                assert poly == tail  # bit-for-bit
                a, b = (float(x) for x in ab_rng.uniform(0.1, 3.0, size=2))
                p = CatalogParams(name=fk, lam=1.0, eta=eta, a=a, b=b,
                                  c=a + b + 1.5, truncation=s + 4)
                tail = family_rule(fk, hyper_coefficients(
                    HypergeomParams(a, b, p.c), s + 3), eta)
                assert make_example(p).g.coeffs == (0j, 0j, *tail)

    def test_truncation_stability(self):
        # Tail mass beyond degree 64 must already be negligible; the drawn
        # range keeps the series constant Gamma(c)/(Gamma(a)Gamma(b)) small
        # enough that the 64 -> 128 difference sits below 1e-12.
        rng = np.random.default_rng(89)
        params = ClassParams(lam=1.0)
        for _ in range(10):
            a, b = rng.uniform(0.2, 0.6, size=2)
            c = a + b + 1.0 + rng.uniform(12.0, 15.0)
            for name in ("f4", "f5", "f6"):
                sums = []
                for trunc in (64, 128):
                    m = make_example(CatalogParams(
                        name=name, lam=1.0, a=a, b=b, c=c,
                        truncation=trunc,
                    ))
                    sums.append(coefficient_sufficient(m, params).total)
                assert abs(sums[0] - sums[1]) < 1e-12


class TestHyperCondition:
    def test_gauss_value_threshold(self):
        rep = condition(CatalogParams(
            name="f4", lam=2.5, eta=1.0, a=1, b=1, c=3,
        ))
        assert rep.holds
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == 2.5

    def test_gamma_quotient_case(self):
        # Gamma(10) Gamma(8) / Gamma(9)^2 = 9/8.
        rep = condition(CatalogParams(
            name="f4", lam=1.2, eta=1.0, a=1, b=1, c=10,
        ))
        want = math.gamma(10.0) * math.gamma(8.0) / math.gamma(9.0) ** 2
        assert want == pytest.approx(9 / 8, rel=1e-12)
        assert rep.lhs == pytest.approx(want, rel=1e-12)
        assert rep.holds

    def test_scaled_threshold(self):
        rep = condition(CatalogParams(
            name="f5", lam=2.0, eta=1.0, a=1, b=1, c=4,
        ))
        assert rep.lhs == pytest.approx(1.5, abs=1e-12)
        assert rep.holds

    def test_equality_flagged(self):
        rep = condition(CatalogParams(
            name="f6", lam=3.0, eta=1.0, a=1, b=1, c=4,
        ))
        assert not rep.holds
        assert rep.at_equality
        assert rep.lhs == pytest.approx(3.0, abs=1e-12)

    def test_eta_scales_rhs(self):
        rep = condition(CatalogParams(
            name="f4", lam=1.5, eta=0.5, a=1, b=1, c=3,
        ))
        assert rep.rhs == 3.0
        assert rep.holds

    def test_guards(self):
        with pytest.raises(ParameterError):
            condition(CatalogParams(
                name="f5", lam=1.0, eta=1.0, a=1, b=1, c=3,
            ))
        with pytest.raises(ParameterError):
            condition(CatalogParams(
                name="f4", lam=1.0, eta=0.0, a=1, b=1, c=3,
            ))
        with pytest.raises(ParameterError):
            condition(CatalogParams(
                name="c999", lam=1.0, eta=1.0, a=1, b=1, c=3,
            ))
        for lam in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                condition(CatalogParams(
                    name="f4", lam=lam, eta=1.0, a=1, b=1, c=3,
                ))
        with pytest.raises(ParameterError, match="unit disk"):
            condition(CatalogParams(
                name="f4", lam=1.0, eta=math.nan, a=1, b=1, c=3,
            ))


class TestPolyCondition:
    def test_base_quotient(self):
        rep = condition(CatalogParams(name="p1", lam=3.0, eta=1.0, s=1, c=1.0))
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.holds

    def test_scaled_quotient(self):
        rep = condition(CatalogParams(name="p2", lam=1.0, eta=1.0, s=1, c=2.0))
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.holds

    def test_degenerate_degree(self):
        rep = condition(CatalogParams(name="p3", lam=2.0, eta=1.0, s=0, c=2.0))
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        # Cross-check: the s = 0 polynomial is z + conj(eta z^2).
        m = make_example(CatalogParams(name="p3", lam=2.0, s=0, c=2.0))
        total = coefficient_sufficient(m, ClassParams(lam=2.0)).total
        assert total == pytest.approx(rep.lhs, abs=1e-12)

    def test_matches_terminating_gauss_route(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            s = int(rng.integers(0, 7))
            c = float(rng.uniform(0.4, 7.0))
            base = gauss_value(HypergeomParams(-float(s), -float(s), c))
            rep = condition(CatalogParams(
                name="p1", lam=1.0, eta=1.0, s=s, c=c,
            ))
            assert rep.lhs == pytest.approx(base, rel=1e-11)

    def test_s_must_fit_a_double(self):
        # The largest s a double holds is accepted; its sum is +inf.
        top = int(sys.float_info.max)
        rep = condition(CatalogParams(name="p1", lam=100.0, s=top, c=2.0))
        assert rep.lhs == math.inf and not rep.holds
        for name in ("p1", "p2", "p3"):
            with pytest.raises(ParameterError, match="^s must not exceed"):
                CatalogParams(name=name, lam=1.0, s=top + 2**971, c=2.0)

    def test_guards(self):
        with pytest.raises(ParameterError):
            condition(CatalogParams(name="p1", lam=1.0, eta=1.0, s=-1, c=1.0))
        with pytest.raises(ParameterError):
            condition(CatalogParams(name="p1", lam=1.0, eta=1.0, s=1, c=0.0))
        for lam in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                condition(CatalogParams(
                    name="p1", lam=lam, eta=1.0, s=1, c=1.0,
                ))
        with pytest.raises(ParameterError, match="finite"):
            condition(CatalogParams(
                name="p1", lam=1.0, eta=1.0, s=1, c=math.inf,
            ))
        with pytest.raises(ParameterError,
                           match="c must be positive and finite, got nan"):
            condition(CatalogParams(
                name="p1", lam=1.0, eta=1.0, s=1, c=math.nan,
            ))
        with pytest.raises(ParameterError,
                           match="c must be positive and finite, got nan"):
            make_example(CatalogParams(name="p1", lam=1.0, s=1, c=math.nan))


class TestRelativeEquality:
    """Equality is |lhs - rhs| <= 1e-12 rhs, so no answer depends on the
    size of lam."""

    @pytest.mark.parametrize("ab", [1e-7, 1e-150])
    def test_condition_214_far_from_equality(self, ab):
        # lhs is about a b / 2: rhs 20 lhs is 1e-13 and 1e-299.  An
        # absolute floor of 1e-12 once read both as lhs equals rhs.
        lhs = condition(CatalogParams(name="f5", lam=1.0, a=ab, b=ab,
                                      c=3)).lhs
        for lam, holds in ((20 * lhs, True), (lhs / 20, False)):
            rep = condition(CatalogParams(name="f5", lam=lam, a=ab, b=ab,
                                          c=3))
            assert rep.lhs == lhs
            assert (rep.holds, rep.at_equality) == (holds, False)

    @pytest.mark.parametrize("name", ["p1", "p2", "p3"])
    def test_exact_equality_is_flagged(self, name):
        for eta in (1.0, -1.0, 1j):
            lhs = condition(CatalogParams(name=name, lam=1.0, eta=eta, s=3,
                                          c=2.0)).lhs
            rep = condition(CatalogParams(name=name, lam=lhs, eta=eta, s=3,
                                          c=2.0))
            assert rep.rhs == lhs
            assert (rep.holds, rep.at_equality) == (False, True)


class TestRecordDecidesTheSeries:
    """p1-p3 are terminating Gauss series and f4-f6 positive ones because
    their records say so; no tolerance reads it from the floats."""

    @pytest.mark.parametrize("name, degree, lhs", [
        ("p1", 4, 59999999999999.0), ("p2", 3, None), ("p3", 4, None),
    ])
    def test_tiny_positive_c(self, name, degree, lhs):
        # c = 1e-13 is positive: a 1e-12 tolerance once read it as c = 0 and
        # refused the record it had accepted.
        p = CatalogParams(name=name, lam=1.0, s=2, c=1e-13)
        assert make_example(p).g.degree == degree
        rep = condition(p)
        assert math.isfinite(rep.lhs) and not rep.holds
        assert lhs is None or rep.lhs == lhs

    @pytest.mark.parametrize("name", ["p1", "p2", "p3"])
    def test_overflowing_terms_stop_the_map(self, name):
        # With c = 2 the terms pass the double range after about 20 of them;
        # the stream stops at the first, so s = 10^12 costs what s = 30 does.
        start = time.perf_counter()
        with pytest.raises(ParameterError,
                           match="coefficients must be finite, got .* at "):
            make_example(CatalogParams(name=name, lam=1.0, s=10**12, c=2.0))
        assert time.perf_counter() - start < 1.0

    def test_underflowing_terms_stop_the_map_and_the_sum(self):
        # At c = 1e300, t_1 = 1e-276 and t_2 underflows to 0, and so does
        # every later term: the map and the sum end there.
        start = time.perf_counter()
        p = CatalogParams(name="p1", lam=2.0, s=10**12, c=1e300)
        assert make_example(p).g.coeffs == (0j, 0j, 1 + 0j,
                                            1e24 / 1e300 / 2 + 0j)
        rep = condition(p)
        assert rep.lhs == 1.0 and rep.holds
        assert time.perf_counter() - start < 1.0


class TestPaperClosedForms:
    """The paper's closed forms for p1-p3 and 216-218, computed here directly,
    not through the tail-family code the catalog shares with f4-f6."""

    def test_polynomial_coefficients_match_weights(self):
        # B_m = C(s, m) (s-m+1)_m / (c)_m, with (s-m+1)_m = s!/(s-m)!.
        # p1 puts B_m/(m+1) on z^{m+2}, p3 puts B_m on z^{m+2}, and p2 puts
        # B_m on z^{m+1} from m = 1.  B_m is the Gauss term t_m at a = b = -s,
        # computed within gamma_{7m} of it; p1's division by m+1 and the
        # product with eta each add one rounding.  gamma_n = n u / (1 - n u)
        # with u = 2^-53 is n / (2^53 - n).
        eta = 0.6 - 0.3j
        parts = (Fraction(eta.real), Fraction(eta.imag))
        for s in range(9):
            for c in (0.3, 0.5, 1.0, 1.7, 3.0, 7.25):
                weights = []
                for m in range(s + 1):
                    w = Fraction(math.comb(s, m) * math.perm(s, m))
                    for k in range(m):
                        w /= Fraction(c) + k
                    weights.append(w)
                want = {
                    "p1": [(w / (m + 1), 7 * m + 2)
                           for m, w in enumerate(weights)],
                    "p2": [(w, 7 * m + 1) for m, w in enumerate(weights)][1:],
                    "p3": [(w, 7 * m + 1) for m, w in enumerate(weights)],
                }
                for kind, exact in want.items():
                    coeffs = make_example(CatalogParams(
                        name=kind, lam=1.0, eta=eta, s=s, c=c)).g.coeffs[2:]
                    assert len(coeffs) == len(exact)
                    for got, (w, rounds) in zip(coeffs, exact):
                        gamma = Fraction(rounds, 2**53 - rounds)
                        for value, e in zip((got.real, got.imag), parts):
                            err = abs(Fraction(value) - e * w)
                            assert err <= gamma * abs(e * w)

    def test_conditions_match_log_gamma_quotient(self):
        # Gamma(c) Gamma(c+2s) / Gamma(c+s)^2, scaled by s^2/(c+2s-1) (217)
        # and (c+s^2+2s-1)/(c+2s-1) (218); through lgamma it stays finite
        # for every s here, while the Gamma values overflow from s ~ 67.
        for s in (0, 1, 2, 5, 17, 66, 67, 71, 100, 150, 229, 300):
            for c in (0.3, 1.0, 1.5, 4.0, 10.0):
                base = math.exp(math.lgamma(c) + math.lgamma(c + 2 * s)
                                - 2 * math.lgamma(c + s))
                if s == 0:
                    want = {"p1": base, "p2": 0.0, "p3": base}
                else:
                    d = c + 2 * s - 1
                    want = {"p1": base, "p2": s * s / d * base,
                            "p3": (c + s * s + 2 * s - 1) / d * base}
                for name, value in want.items():
                    lhs = condition(CatalogParams(name=name, lam=1.0, eta=1.0,
                                                  s=s, c=c)).lhs
                    assert math.isfinite(lhs)
                    assert lhs == pytest.approx(value, rel=1e-11, abs=0.0)


class TestThresholdMembershipChain:
    def test_tail_families(self):
        rng = np.random.default_rng(101)
        params_by = {}
        held = 0
        for _ in range(30):
            a, b = rng.uniform(0.2, 1.8, size=2)
            c = a + b + 1.0 + rng.uniform(0.5, 5.0)
            hp = HypergeomParams(a, b, c)
            eta = float(rng.uniform(0.1, 1.0))
            for name in ("f4", "f5", "f6"):
                p = CatalogParams(name=name, lam=1.0, eta=eta,
                                  a=hp.a, b=hp.b, c=hp.c)
                rep = condition(p)
                if not rep.holds:
                    continue
                held += 1
                m = make_example(p)
                check = coefficient_sufficient(m, ClassParams(lam=1.0))
                assert check.sufficient
                verdict = harmonic_membership(m, ClassParams(lam=1.0)).verdict
                assert verdict is not Verdict.NON_MEMBER
        assert held >= 10

    def test_polynomial_families(self):
        rng = np.random.default_rng(103)
        held = 0
        for _ in range(30):
            s = int(rng.integers(0, 6))
            c = float(rng.uniform(0.4, 7.0))
            eta = float(rng.uniform(0.1, 1.0))
            for name in ("p1", "p2", "p3"):
                p = CatalogParams(name=name, lam=1.0, eta=eta, s=s, c=c)
                rep = condition(p)
                if not rep.holds:
                    continue
                held += 1
                m = make_example(p)
                check = coefficient_sufficient(m, ClassParams(lam=1.0))
                assert check.sufficient
                verdict = harmonic_membership(m, ClassParams(lam=1.0)).verdict
                assert verdict is not Verdict.NON_MEMBER
        assert held >= 10


class TestMassIdentity:
    """The condition's lhs times |eta| is the map's coefficient mass
    sum (n-1)|b_n|, from one CatalogParams record."""

    @staticmethod
    def mass(p):
        return coefficient_sufficient(make_example(p),
                                      ClassParams(lam=p.lam)).total

    def test_polynomials_match_within_gamma_bound(self):
        # Both sides read the same computed Gauss terms; what differs is
        # p1's division by m+1, the products with eta and m+1, the moduli
        # and two sums of s+1 non-negative terms, all well inside
        # gamma_{7s+10} = (7s+10) u / (1 - (7s+10) u).
        rng = np.random.default_rng(107)
        u = 2.0**-53
        for s in range(81):
            for _ in range(3):
                c = float(rng.uniform(0.3, 8.0))
                r = math.sqrt(rng.uniform(0.01, 1.0))
                phase = float(rng.uniform(0.0, 2.0 * math.pi))
                eta = complex(r * math.cos(phase), r * math.sin(phase))
                for name in ("p1", "p2", "p3"):
                    p = CatalogParams(name=name, lam=1.0, eta=eta, s=s, c=c)
                    want = abs(eta) * condition(p).lhs
                    m = (7 * s + 10) * u
                    assert abs(self.mass(p) - want) <= m / (1 - m) * want

    def test_truncated_tails_stay_below(self):
        # The truncated mass sums non-negative terms left to right, so it
        # grows with the truncation; the tails left out here are far above
        # the rounding of the closed form.
        rng = np.random.default_rng(109)
        for _ in range(20):
            a, b = (float(x) for x in rng.uniform(0.2, 2.0, size=2))
            for name, least in (("f4", 0.0), ("f5", 1.0), ("f6", 1.0)):
                c = a + b + least + float(rng.uniform(0.2, 1.5))
                eta = complex(*rng.uniform(-0.7, 0.7, size=2))
                last = 0.0
                for truncation in (16, 64, 256, 1024):
                    p = CatalogParams(name=name, lam=1.0, eta=eta, a=a, b=b,
                                      c=c, truncation=truncation)
                    total = self.mass(p)
                    assert last <= total <= abs(eta) * condition(p).lhs
                    last = total
