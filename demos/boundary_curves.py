#!/usr/bin/env python3
"""Boundary image curves: rectifiability data and SVG export.

Members extend continuously to the boundary circle; the image curve has
polygonal length at most (1 + 2 lam) 2 pi and difference quotients bounded
by 1 + 2 lam.  For levels at or below one half the whole image stays in
the disk of radius 2.  This script audits a few maps and writes SVG and
CSV exports next to itself under out/.
"""

import math
import os

from harmcert import (
    AnalyticSeries,
    CatalogParams,
    ClassParams,
    HarmonicMap,
    boundary_curve_audit,
    make_example,
)
from harmcert.cli import curve_csv, curve_svg, write_text_atomic

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT_DIR, exist_ok=True)

cases = [
    ("identity", HarmonicMap(h=AnalyticSeries((0, 1)),
                             g=AnalyticSeries((0,))), 1.0),
    ("sharp_quadratic", make_example(CatalogParams(name="f3", lam=0.5)), 0.5),
    ("conjugate_sharp", make_example(CatalogParams(name="f_b", lam=0.5)), 0.5),
    ("tail_family", make_example(CatalogParams(
        name="f6", lam=3.5, a=1, b=1, c=4)), 3.5),
]

print(f"{'map':>16} {'lam':>5} {'length':>9} {'bound':>9} "
      f"{'lip ratio':>10} {'max |f|':>8} {'min gap':>9}")
for name, f, lam in cases:
    params = ClassParams(lam=lam)
    audit = boundary_curve_audit(f, params, samples=2048)
    bound = (1 + 2 * lam) * 2 * math.pi
    print(f"{name:>16} {lam:>5.2f} {audit.polygonal_length:>9.4f} "
          f"{bound:>9.4f} {audit.max_lipschitz_ratio:>10.4f} "
          f"{audit.max_modulus:>8.4f} {audit.min_pairwise_gap:>9.2e}")
    svg_path = os.path.join(OUT_DIR, f"{name}.svg")
    csv_path = os.path.join(OUT_DIR, f"{name}.csv")
    write_text_atomic(svg_path, curve_svg(f, audit))
    write_text_atomic(csv_path, curve_csv(audit))

print()
print(f"wrote SVG and CSV exports to {OUT_DIR}")
print("the SVG shows the boundary image (black) over images of the rings")
print("|z| = 0.25, 0.5, 0.75 (gray), with the image of the origin marked")
