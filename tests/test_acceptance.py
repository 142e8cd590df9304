"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing is deferred.
"""

import json
import math

import numpy as np

from harmcert.catalog import CatalogParams, condition, make_example
from harmcert.cli import (
    EXIT_BOUNDARY_SHARP,
    EXIT_MEMBER,
    EXIT_NON_MEMBER,
    FunctionFile,
    function_file_from_map,
    main,
    parse_function_file,
    serialize_function_file,
)
from harmcert.geometry import (
    RadiusKind,
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
    coefficient_bounds_audit,
    coefficient_sufficient,
    harmonic_membership,
    random_member,
    stable_family_check,
)
from harmcert.series import AnalyticSeries
from harmcert.specfun import (
    HypergeomParams,
    gauss_value,
    hyper_coefficients,
    weighted_gauss_value,
)
from test_catalog import family_rule
from test_specfun import exact_terms

LEVELS = (0.5, 1.0, 2.0)
SHARP_INDICES = range(2, 9)


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} - {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _scaled_tail_map(f: HarmonicMap, scale: float) -> HarmonicMap:
    h = AnalyticSeries(
        (0, 1) + tuple(scale * c for c in f.h.coeffs[2:])
    )
    g = AnalyticSeries(
        (0, 0) + tuple(scale * c for c in f.g.coeffs[2:])
    )
    return HarmonicMap(h=h, g=g)


def test_criterion_1_sharp_membership(tmp_path, capsys):
    worst = 0.0
    ok = True
    for lam in LEVELS:
        params = ClassParams(lam=lam)
        cases = [make_example(CatalogParams(name="eq13", lam=lam))]
        for n in SHARP_INDICES:
            cases.append(make_example(CatalogParams(name="f_a", lam=lam, n=n)))
            cases.append(make_example(CatalogParams(name="f_b", lam=lam, n=n)))
        for f in cases:
            rep = harmonic_membership(f, params)
            worst = max(worst, abs(rep.measured_sup - lam))
            ok &= rep.verdict is Verdict.BOUNDARY_SHARP
            ok &= abs(rep.measured_sup - lam) <= 1e-6
        half = HarmonicMap(
            h=AnalyticSeries((0, 1)), g=AnalyticSeries((0, 0, lam / 2))
        )
        rep = harmonic_membership(half, params)
        ok &= rep.verdict is Verdict.MEMBER
        ok &= abs(rep.margin - lam / 2) <= 1e-6
    # At large lam the rounding of a sup near lam grows with lam, and so
    # does the verdict's rounding bound.
    for lam in (3e9, 1e10, 1e12):
        params = ClassParams(lam=lam)
        cases = [make_example(CatalogParams(name=name, lam=lam))
                 for name in ("eq13", "f3")]
        cases += [make_example(CatalogParams(name=name, lam=lam, n=5))
                  for name in ("f_a", "f_b")]
        for f in cases:
            ok &= harmonic_membership(f, params).verdict is Verdict.BOUNDARY_SHARP
    path = tmp_path / "f3_1e10.json"
    ok &= main(["example", "f3", "--lambda", "1e10", "--out", str(path)]) == EXIT_MEMBER
    ok &= main(["check", str(path)]) == EXIT_BOUNDARY_SHARP
    capsys.readouterr()
    _report("criterion 1: sharp membership suite", ok, f"worst |sup-lam| {worst:.2e}")


def test_criterion_2_association_identity():
    rng = np.random.default_rng(202)
    params = ClassParams(lam=1.0)
    worst = 0.0
    for _ in range(100):
        f = random_member(int(rng.integers(2, 9)), params, rng)
        rep = stable_family_check(f, params, zeta_samples=256)
        worst = max(worst, rep.gap)
    _report("criterion 2: association identity, 100 maps x 256 zetas",
            worst <= 1e-6, f"worst gap {worst:.2e}")


def test_criterion_3_coefficient_laws():
    rng = np.random.default_rng(303)
    ok = True
    for i in range(200):
        lam = LEVELS[i % 3]
        params = ClassParams(lam=lam)
        f = random_member(int(rng.integers(2, 9)), params, rng)
        ok &= not any(e.violated for e in coefficient_bounds_audit(f, params))
    for _ in range(50):
        params = ClassParams(lam=1.0)
        f = random_member(int(rng.integers(2, 9)), params, rng)
        check = coefficient_sufficient(f, params)
        ok &= check.sufficient
        ok &= harmonic_membership(f, params).verdict is not Verdict.NON_MEMBER
    for i in range(20):
        lam = LEVELS[i % 3]
        params = ClassParams(lam=lam)
        base = random_member(int(rng.integers(2, 7)), params, rng)
        coeffs = list(base.h.coeffs) + [0j] * max(0, 3 - len(base.h.coeffs))
        coeffs[2] = 1.5 * lam
        spiked = HarmonicMap(h=AnalyticSeries(tuple(coeffs)), g=base.g)
        rep = harmonic_membership(spiked, params)
        ok &= rep.verdict is Verdict.NON_MEMBER
    _report("criterion 3: coefficient bounds and sufficiency", ok)


def test_criterion_4_special_functions():
    rng = np.random.default_rng(404)
    worst_rec = 0.0
    for _ in range(100):
        a, b, c = (float(x) for x in rng.uniform(1e-3, 50.0, size=3))
        got = hyper_coefficients(HypergeomParams(a, b, c), 64)
        for t, (num, den) in zip(got, exact_terms(a, b, c, 64)):
            worst_rec = max(worst_rec, abs(t - num / den) / (num / den))
    ok = worst_rec <= 1e-12

    worst_gauss = 0.0
    for _ in range(50):
        a, b = rng.uniform(0.1, 2.0, size=2)
        c = a + b + rng.uniform(2.0, 6.0)
        p = HypergeomParams(a, b, c)
        gap = c - a - b
        N = 2048
        while True:
            terms = hyper_coefficients(p, N)
            total = float(np.sum(terms))
            if 3.0 * terms[-1] * N / gap <= 1e-9 * total or N >= 400_000:
                break
            N *= 2
        rel = abs(gauss_value(p) - total) / abs(total)
        worst_gauss = max(worst_gauss, rel)
    ok &= worst_gauss <= 1e-8

    worst_weighted = 0.0
    for _ in range(50):
        a, b = rng.uniform(0.1, 1.8, size=2)
        c = a + b + 1.0 + rng.uniform(2.0, 6.0)
        p = HypergeomParams(a, b, c)
        gap = c - a - b - 1.0
        N = 4096
        while True:
            terms = hyper_coefficients(p, N)
            weighted = float(np.sum((np.arange(N + 1) + 1.0) * terms))
            if 3.0 * terms[-1] * N * N / gap <= 1e-9 * weighted or N >= 400_000:
                break
            N *= 2
        rel = abs(weighted_gauss_value(p) - weighted) / abs(weighted)
        worst_weighted = max(worst_weighted, rel)
    ok &= worst_weighted <= 1e-8

    ok &= hyper_coefficients(HypergeomParams(1, 1, 1), 4) == [1.0] * 5
    ok &= abs(gauss_value(HypergeomParams(1, 1, 3)) - 2.0) <= 2e-12
    ok &= abs(weighted_gauss_value(HypergeomParams(1, 1, 4)) - 3.0) <= 3e-12
    _report(
        "criterion 4: special-function kernel", ok,
        f"recurrence {worst_rec:.1e}, gauss {worst_gauss:.1e}, "
        f"weighted {worst_weighted:.1e}",
    )


def test_criterion_5_radii():
    ok = True
    for lam in (0.6, 1.0, 2.0):
        F = AnalyticSeries((0, 1, lam))
        s = radius_certify(F, RadiusKind.STARLIKE)
        c = radius_certify(F, RadiusKind.CONVEX)
        ok &= abs(s.radius - 1.0 / (2.0 * lam)) <= 1e-4
        ok &= abs(c.radius - 1.0 / (4.0 * lam)) <= 1e-4
    # At lam = 0.4 the starlikeness radius caps at 1, and the univalence
    # radius is reported as the same number; the convexity radius stays at
    # its honest functional zero 1/(4 lam) = 0.625.
    F = AnalyticSeries((0, 1, 0.4))
    starlike = radius_certify(F, RadiusKind.STARLIKE)
    univalent = starlike
    ok &= starlike.radius == 1.0 and starlike.outer_witness is None
    ok &= univalent.radius == 1.0
    ok &= abs(radius_certify(F, RadiusKind.CONVEX).radius - 0.625) <= 1e-4

    rng = np.random.default_rng(505)
    params = ClassParams(lam=1.0)
    worst_s, worst_c = 1.0, 1.0
    for _ in range(50):
        f = random_member(int(rng.integers(2, 7)), params, rng)
        s = harmonic_radius_certify(f, params, RadiusKind.STARLIKE)
        c = harmonic_radius_certify(f, params, RadiusKind.CONVEX)
        worst_s = min(worst_s, s.radius)
        worst_c = min(worst_c, c.radius)
    ok &= worst_s >= 0.5 - 1e-4 and worst_c >= 0.25 - 1e-4
    _report("criterion 5: certified radii", ok,
            f"min starlike {worst_s:.4f}, min convex {worst_c:.4f}")


def test_criterion_6_envelopes():
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(100):
        lam = LEVELS[i % 3]
        params = ClassParams(lam=lam)
        f = random_member(int(rng.integers(2, 9)), params, rng)
        env = growth_envelope_check(f, params)
        jac = jacobian_bound_check(f, params)
        worst = max(worst, env.max_violation, jac.max_violation)
    ok = worst <= 1e-9

    lam = 1.0
    f3 = make_example(CatalogParams(name="f3", lam=lam, eta=1.0))
    env = growth_envelope_check(f3, ClassParams(lam=lam))
    jac = jacobian_bound_check(f3, ClassParams(lam=lam))
    ok &= abs(env.tightness["growth_upper"]) <= 1e-9
    ok &= abs(jac.max_ratio - 1.0) <= 1e-9
    _report("criterion 6: growth and Jacobian envelopes", ok,
            f"worst violation {worst:.2e}")


def test_criterion_7_differential_tests():
    ok = True
    for lam in LEVELS:
        params = ClassParams(lam=lam)
        h = AnalyticSeries((0, 1, lam))
        zero = AnalyticSeries((0,))
        second = second_derivative_test(h, zero, params)
        euler = euler_operator_test(h, zero, params)
        ok &= second.passes and abs(second.measured_max - 2 * lam) <= 1e-9
        ok &= euler.passes and abs(euler.measured_max - 3 * lam) <= 1e-9
        ok &= second.membership.verdict is not Verdict.NON_MEMBER
        ok &= euler.membership.verdict is not Verdict.NON_MEMBER

    rng = np.random.default_rng(707)
    params = ClassParams(lam=1.0)
    for i in range(50):
        f = random_member(int(rng.integers(2, 7)), params, rng)
        if i % 2 == 0:
            probe = second_derivative_test(f.h, f.g, params)
            target = 0.9 * 2.0 * params.lam
            runner = second_derivative_test
        else:
            probe = euler_operator_test(f.h, f.g, params)
            target = 0.9 * 3.0 * params.lam
            runner = euler_operator_test
        scaled = _scaled_tail_map(f, target / probe.measured_max)
        out = runner(scaled.h, scaled.g, params)
        ok &= out.passes
        ok &= out.membership.verdict is not Verdict.NON_MEMBER
    _report("criterion 7: differential sufficient tests", ok)


def test_criterion_8_closure():
    rng = np.random.default_rng(808)
    ok = True
    for lam in (0.5, 1.0):
        params = ClassParams(lam=lam)
        for _ in range(50):
            f1 = random_member(int(rng.integers(2, 8)), params, rng)
            f2 = random_member(int(rng.integers(2, 8)), params, rng)
            _, rep = convolve_members(f1, f2, params)
            ok &= rep.verdict is not Verdict.NON_MEMBER
    params = ClassParams(lam=1.0)
    for _ in range(100):
        fs = [random_member(int(rng.integers(2, 8)), params, rng)
              for _ in range(3)]
        w = rng.uniform(0.05, 1.0, size=3)
        w /= w.sum()
        _, rep = convex_combination(fs, list(w), params)
        ok &= rep.verdict is not Verdict.NON_MEMBER
    _report("criterion 8: convolution and convex-combination closure", ok)


def test_criterion_9_boundary_curve():
    rng = np.random.default_rng(909)
    ok = True
    worst_len_slack = math.inf
    for i in range(20):
        lam = (0.3, 0.5, 1.0)[i % 3]
        params = ClassParams(lam=lam)
        f = random_member(int(rng.integers(2, 8)), params, rng)
        audit = boundary_curve_audit(f, params, samples=1024)
        len_bound = (1.0 + 2.0 * lam) * 2.0 * math.pi
        worst_len_slack = min(worst_len_slack, len_bound - audit.polygonal_length)
        ok &= audit.polygonal_length <= len_bound + 1e-3
        ok &= audit.max_lipschitz_ratio <= 1.0 + 2.0 * lam + 1e-6
        ok &= audit.min_pairwise_gap > 0.0
        if lam <= 0.5:
            ok &= audit.max_modulus <= 2.0 + 1e-9
    _report("criterion 9: boundary curve audits", ok,
            f"min length slack {worst_len_slack:.3f}")


def test_criterion_10_special_function_chain():
    rng = np.random.default_rng(1010)
    ok = True
    held_counts = {}

    def run_case(name, rep, lam_val, build):
        nonlocal ok
        held_counts.setdefault(name, 0)
        if not rep.holds:
            return
        held_counts[name] += 1
        f = build()
        params = ClassParams(lam=lam_val)
        good = coefficient_sufficient(f, params).sufficient
        good &= harmonic_membership(f, params).verdict is not Verdict.NON_MEMBER
        if not good:
            print(f"  chain failure at {name}")
        ok &= good

    for _ in range(50):
        a, b = rng.uniform(0.2, 1.6, size=2)
        c = a + b + 1.0 + rng.uniform(0.3, 4.0)
        hp = HypergeomParams(a, b, c)
        eta = float(rng.uniform(0.15, 1.0))
        for name in ("f4", "f5", "f6"):
            lhs = condition(CatalogParams(name=name, lam=1.0, eta=eta,
                                          a=hp.a, b=hp.b, c=hp.c)).lhs
            lam_val = lhs * abs(eta) * float(rng.uniform(0.5, 1.6))
            if lam_val <= 0:
                continue
            p = CatalogParams(name=name, lam=lam_val, eta=eta,
                              a=hp.a, b=hp.b, c=hp.c)
            run_case(name, condition(p), lam_val, lambda p=p: make_example(p))

    for _ in range(50):
        s = int(rng.integers(0, 7))
        c = float(rng.uniform(0.4, 7.0))
        eta = float(rng.uniform(0.15, 1.0))
        for name in ("p1", "p2", "p3"):
            lhs = condition(CatalogParams(name=name, lam=1.0, eta=eta,
                                          s=s, c=c)).lhs
            lam_val = max(lhs, 0.05) * abs(eta) * float(rng.uniform(0.5, 1.6))
            p = CatalogParams(name=name, lam=lam_val, eta=eta, s=s, c=c)
            run_case(name, condition(p), lam_val, lambda p=p: make_example(p))

    ok &= all(v >= 10 for v in held_counts.values())

    exact = True
    for _ in range(20):
        s = int(rng.integers(0, 8))
        c = float(rng.uniform(0.3, 8.0))
        eta = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)) or 0.5
        terms = hyper_coefficients(HypergeomParams(-s, -s, c), s + 3)
        for pk, fk in (("p1", "f4"), ("p2", "f5"), ("p3", "f6")):
            poly = make_example(CatalogParams(name=pk, lam=1.0, eta=eta,
                                              s=s, c=c)).g
            tail = (0j, 0j, *family_rule(fk, terms, eta))
            exact &= poly == AnalyticSeries(tail)
    ok &= exact
    _report("criterion 10: threshold-to-membership chains", ok,
            f"holds per family {held_counts}")


def test_criterion_11_cli_contract(tmp_path, capsys):
    ok = True
    for lam in LEVELS:
        specs = [("eq13", ["example", "eq13", "--lambda", str(lam)])]
        for n in SHARP_INDICES:
            specs.append((f"f_a n={n}", ["example", "f_a", "--lambda",
                                         str(lam), "--n", str(n)]))
            specs.append((f"f_b n={n}", ["example", "f_b", "--lambda",
                                         str(lam), "--n", str(n)]))
        for label, argv in specs:
            path = tmp_path / f"{label.replace(' ', '_').replace('=', '')}_{lam}.json"
            code = main(argv + ["--out", str(path)])
            capsys.readouterr()
            ok &= code == EXIT_MEMBER
            text = path.read_text(encoding="utf-8")
            ok &= serialize_function_file(parse_function_file(text)) == text
            ok &= main(["check", str(path)]) == EXIT_BOUNDARY_SHARP
            capsys.readouterr()
        half = HarmonicMap(
            h=AnalyticSeries((0, 1)), g=AnalyticSeries((0, 0, lam / 2))
        )
        half_path = tmp_path / f"half_{lam}.json"
        half_text = serialize_function_file(
            function_file_from_map(half, lam, {"name": "conjugate-half"})
        )
        half_path.write_text(half_text, encoding="utf-8")
        ok &= serialize_function_file(parse_function_file(half_text)) == half_text
        ok &= main(["check", str(half_path)]) == EXIT_MEMBER
        capsys.readouterr()
        bad = HarmonicMap(
            h=AnalyticSeries((0, 1, 1.5 * lam)), g=AnalyticSeries((0,))
        )
        bad_path = tmp_path / f"bad_{lam}.json"
        bad_path.write_text(
            serialize_function_file(function_file_from_map(bad, lam, {})),
            encoding="utf-8",
        )
        ok &= main(["check", str(bad_path)]) == EXIT_NON_MEMBER
        capsys.readouterr()
    _report("criterion 11: CLI round trips and exit codes", ok)
