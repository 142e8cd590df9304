import math
from fractions import Fraction

import numpy as np
import pytest

from harmcert.catalog import (
    CatalogParams,
    hyper_condition,
    hyper_family_coeffs,
    make_example,
    poly_condition,
    poly_family_coeffs,
)
from harmcert.errors import ParameterError
from harmcert.membership import (
    ClassParams,
    Verdict,
    coefficient_sufficient,
    harmonic_membership,
)
from harmcert.specfun import HypergeomParams, gauss_value, pochhammer


class TestMakeExample:
    def test_cubic_showcase(self):
        m = make_example(CatalogParams(name="eq13", lam=1.0))
        assert m.h.coeffs == (0j, 1 + 0j, 0.5 + 0j, 0.25 + 0j)
        assert m.g.is_zero()

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
        coeffs = hyper_family_coeffs("f4", a, b, c, 1.0, 12)
        for n in range(2, 13):
            k = n - 2
            want = (pochhammer(a, k) * pochhammer(b, k)
                    / (pochhammer(c, k) * math.factorial(n - 1)))
            assert coeffs[n - 2] == pytest.approx(want, rel=1e-13)

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
            for pk, fk in pairs:
                poly = poly_family_coeffs(pk, s, c, eta)
                tail = hyper_family_coeffs(fk, -float(s), -float(s), c, eta, s + 4)
                width = max(len(poly), len(tail))
                poly = poly + [0j] * (width - len(poly))
                tail = tail + [0j] * (width - len(tail))
                assert poly == tail  # bit-for-bit

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
        rep = hyper_condition("c213", HypergeomParams(1, 1, 3), 1.0, 2.5)
        assert rep.holds
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == 2.5

    def test_gamma_quotient_case(self):
        # Gamma(10) Gamma(8) / Gamma(9)^2 = 9/8.
        rep = hyper_condition("c213", HypergeomParams(1, 1, 10), 1.0, 1.2)
        want = math.gamma(10.0) * math.gamma(8.0) / math.gamma(9.0) ** 2
        assert want == pytest.approx(9 / 8, rel=1e-12)
        assert rep.lhs == pytest.approx(want, rel=1e-12)
        assert rep.holds

    def test_scaled_threshold(self):
        rep = hyper_condition("c214", HypergeomParams(1, 1, 4), 1.0, 2.0)
        assert rep.lhs == pytest.approx(1.5, abs=1e-12)
        assert rep.holds

    def test_equality_flagged(self):
        rep = hyper_condition("c215", HypergeomParams(1, 1, 4), 1.0, 3.0)
        assert not rep.holds
        assert rep.at_equality
        assert rep.lhs == pytest.approx(3.0, abs=1e-12)

    def test_eta_scales_rhs(self):
        rep = hyper_condition("c213", HypergeomParams(1, 1, 3), 0.5, 1.5)
        assert rep.rhs == 3.0
        assert rep.holds

    def test_guards(self):
        with pytest.raises(ParameterError):
            hyper_condition("c214", HypergeomParams(1, 1, 3), 1.0, 1.0)
        with pytest.raises(ParameterError):
            hyper_condition("c213", HypergeomParams(1, 1, 3), 0.0, 1.0)
        with pytest.raises(ParameterError):
            hyper_condition("c999", HypergeomParams(1, 1, 3), 1.0, 1.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                hyper_condition("c213", HypergeomParams(1, 1, 3), 1.0, lam)
        with pytest.raises(ParameterError, match="unit disk"):
            hyper_condition("c213", HypergeomParams(1, 1, 3), math.nan, 1.0)


class TestPolyCondition:
    def test_base_quotient(self):
        rep = poly_condition("c216", 1, 1.0, 1.0, 3.0)
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.holds

    def test_scaled_quotient(self):
        rep = poly_condition("c217", 1, 2.0, 1.0, 1.0)
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.holds

    def test_degenerate_degree(self):
        rep = poly_condition("c218", 0, 2.0, 1.0, 2.0)
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
            rep = poly_condition("c216", s, c, 1.0, 1.0)
            assert rep.lhs == pytest.approx(base, rel=1e-11)

    def test_guards(self):
        with pytest.raises(ParameterError):
            poly_condition("c216", -1, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            poly_condition("c216", 1, 0.0, 1.0, 1.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                poly_condition("c216", 1, 1.0, 1.0, lam)
        with pytest.raises(ParameterError, match="finite"):
            poly_condition("c216", 1, math.inf, 1.0, 1.0)
        with pytest.raises(ParameterError,
                           match="c must be positive and finite, got nan"):
            poly_condition("c216", 1, math.nan, 1.0, 1.0)
        with pytest.raises(ParameterError,
                           match="c must be positive and finite, got nan"):
            make_example(CatalogParams(name="p1", lam=1.0, s=1, c=math.nan))


class TestPaperClosedForms:
    """The paper's closed forms for p1-p3 and 216-218, computed here directly,
    not through the tail-family code the catalog shares with f4-f6."""

    def test_polynomial_coefficients_match_weights(self):
        # B_m = C(s, m) (s-m+1)_m / (c)_m, with (s-m+1)_m = s!/(s-m)!.
        # p1 puts B_m/(m+1) on z^{m+2}, p3 puts B_m on z^{m+2}, and p2 puts
        # B_m on z^{m+1} from m = 1.
        eta = 0.6 - 0.3j
        for s in range(9):
            for c in (0.3, 0.5, 1.0, 1.7, 3.0, 7.25):
                weights = []
                for m in range(s + 1):
                    w = Fraction(math.comb(s, m) * math.perm(s, m))
                    for k in range(m):
                        w /= Fraction(c) + k
                    weights.append(w)
                want = {
                    "p1": [eta * float(w / (m + 1))
                           for m, w in enumerate(weights)],
                    "p2": [eta * float(w) for w in weights[1:]],
                    "p3": [eta * float(w) for w in weights],
                }
                for kind, coeffs in want.items():
                    assert poly_family_coeffs(kind, s, c, eta) == coeffs

    def test_conditions_match_log_gamma_quotient(self):
        # Gamma(c) Gamma(c+2s) / Gamma(c+s)^2, scaled by s^2/(c+2s-1) (c217)
        # and (c+s^2+2s-1)/(c+2s-1) (c218); through lgamma it stays finite
        # for every s here, while the Gamma values overflow from s ~ 67.
        for s in (0, 1, 2, 5, 17, 66, 67, 71, 100, 150, 229, 300):
            for c in (0.3, 1.0, 1.5, 4.0, 10.0):
                base = math.exp(math.lgamma(c) + math.lgamma(c + 2 * s)
                                - 2 * math.lgamma(c + s))
                if s == 0:
                    want = {"c216": base, "c217": 0.0, "c218": base}
                else:
                    d = c + 2 * s - 1
                    want = {"c216": base, "c217": s * s / d * base,
                            "c218": (c + s * s + 2 * s - 1) / d * base}
                for which, value in want.items():
                    lhs = poly_condition(which, s, c, 1.0, 1.0).lhs
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
            for which, name in (("c213", "f4"), ("c214", "f5"), ("c215", "f6")):
                rep = hyper_condition(which, hp, eta, 1.0)
                if not rep.holds:
                    continue
                held += 1
                m = make_example(CatalogParams(
                    name=name, lam=1.0, eta=eta, a=hp.a, b=hp.b, c=hp.c
                ))
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
            for which, name in (("c216", "p1"), ("c217", "p2"), ("c218", "p3")):
                rep = poly_condition(which, s, c, eta, 1.0)
                if not rep.holds:
                    continue
                held += 1
                m = make_example(CatalogParams(name=name, lam=1.0, eta=eta,
                                               s=s, c=c))
                check = coefficient_sufficient(m, ClassParams(lam=1.0))
                assert check.sufficient
                verdict = harmonic_membership(m, ClassParams(lam=1.0)).verdict
                assert verdict is not Verdict.NON_MEMBER
        assert held >= 10
