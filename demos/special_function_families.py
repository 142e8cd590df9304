#!/usr/bin/env python3
"""Gauss-series tail families and their closed-form membership thresholds.

Three co-analytic families are built from the Gauss series terms
t_k = (a)_k (b)_k / (k! (c)_k): an integrated tail (f4), a shifted tail
(f5) and a plain tail (f6).  Each belongs to the class at level lam as
soon as a closed-form expression drops below lam/|eta|, because that
expression is exactly the coefficient-mass sum of the family.

Substituting a = b = -s terminates the series and produces harmonic
polynomials p1/p2/p3 whose thresholds collapse to Gamma quotients.
"""

from harmcert import (
    CatalogParams,
    ClassParams,
    HypergeomParams,
    coefficient_sufficient,
    gauss_value,
    harmonic_membership,
    hyper_condition,
    make_example,
    poly_condition,
    weighted_gauss_value,
)

hp = HypergeomParams(1.0, 1.0, 4.0)
print(f"Gauss value F(1,1;4;1)           = {gauss_value(hp):.12f}")
print(f"first-moment closed form         = {weighted_gauss_value(hp):.12f}")
print()

print("tail families at (a,b,c) = (1,1,4), eta = 1")
print(f"{'family':>8} {'condition':>10} {'lhs':>10} {'lam':>6} "
      f"{'holds':>6} {'mass sum':>10} {'verdict':>14}")
for which, name, lam in (("c213", "f4", 2.0), ("c214", "f5", 1.0),
                         ("c215", "f6", 3.5)):
    rep = hyper_condition(which, hp, 1.0, lam)
    f = make_example(CatalogParams(name=name, lam=lam,
                                   a=hp.a, b=hp.b, c=hp.c))
    mass = coefficient_sufficient(f, ClassParams(lam=lam)).total
    verdict = harmonic_membership(f, ClassParams(lam=lam)).verdict.value
    print(f"{name:>8} {which:>10} {rep.lhs:>10.5f} {lam:>6.2f} "
          f"{str(rep.holds):>6} {mass:>10.5f} {verdict:>14}")
print()
print("The mass sum is the truncated version of the lhs, so holds = True")
print("always lands strictly below lam and the scanner agrees.")
print()

print("polynomial specializations at a = b = -s")
print(f"{'family':>8} {'condition':>10} {'s':>3} {'c':>5} {'lhs':>10} "
      f"{'lam':>6} {'holds':>6} {'verdict':>14}")
for which, name, s, c, lam in (("c216", "p1", 1, 1.0, 3.0),
                               ("c217", "p2", 1, 2.0, 1.0),
                               ("c218", "p3", 0, 2.0, 2.0)):
    rep = poly_condition(which, s, c, 1.0, lam)
    f = make_example(CatalogParams(name=name, lam=lam, s=s, c=c))
    verdict = harmonic_membership(f, ClassParams(lam=lam)).verdict.value
    print(f"{name:>8} {which:>10} {s:>3} {c:>5.2f} {rep.lhs:>10.5f} "
          f"{lam:>6.2f} {str(rep.holds):>6} {verdict:>14}")
print()

print("equality is reported as not holding (strict thresholds):")
rep = hyper_condition("c215", HypergeomParams(1, 1, 4), 1.0, 3.0)
print(f"  lhs = {rep.lhs:.12f}, rhs = {rep.rhs}, holds = {rep.holds}, "
      f"at_equality = {rep.at_equality}")
