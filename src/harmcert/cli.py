"""Command-line surface and the on-disk function-file format.

Function files are canonical JSON with key order lambda, h_coeffs,
g_coeffs, meta; coefficients are [re, im] pairs printed with 17
significant digits, so serialize -> parse -> serialize is byte-identical.

Exit codes: 0 member, 1 non-member (or a failed threshold for ``hyper``),
2 boundary-sharp, 3 input or parameter error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from ._lazy import np
from .catalog import ENTRIES, CatalogParams, condition, make_example
from .errors import NonMemberError, ParameterError
from .geometry import (
    RadiusKind,
    boundary_curve_audit,
    harmonic_radius_certify,
)
from .membership import (
    ClassParams,
    HarmonicMap,
    Verdict,
    harmonic_membership,
    stable_family_check,
)
from .series import COEFF_TOL, AnalyticSeries, EvalGrid

EXIT_MEMBER = 0
EXIT_NON_MEMBER = 1
EXIT_BOUNDARY_SHARP = 2
EXIT_INPUT_ERROR = 3

_VERDICT_EXIT = {
    Verdict.MEMBER: EXIT_MEMBER,
    Verdict.NON_MEMBER: EXIT_NON_MEMBER,
    Verdict.BOUNDARY_SHARP: EXIT_BOUNDARY_SHARP,
}

# curve_svg draws the images of these inner circles, each from this many
# equispaced points.
_SVG_RINGS = (0.25, 0.5, 0.75)
_SVG_RING_SAMPLES = 256


class FunctionFileError(ParameterError):
    """A function file failed to parse or validate."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class FunctionFile:
    lam: float
    h: tuple[complex, ...]
    g: tuple[complex, ...]
    meta: dict[str, str] = field(default_factory=dict)


def function_file_from_map(f: HarmonicMap, lam: float,
                           meta: dict[str, str] | None = None) -> FunctionFile:
    def padded(coeffs):
        cs = tuple(coeffs)
        return cs + (0j,) * max(0, 2 - len(cs))

    return FunctionFile(
        lam=float(lam),
        h=padded(f.h.coeffs),
        g=padded(f.g.coeffs),
        meta=dict(meta or {}),
    )


def to_harmonic_map(ff: FunctionFile) -> HarmonicMap:
    return HarmonicMap(h=AnalyticSeries(ff.h), g=AnalyticSeries(ff.g))


def serialize_function_file(ff: FunctionFile) -> str:
    lines = ["{"]
    lines.append(f'  "lambda": {_fmt(ff.lam)},')
    for key, coeffs in (("h_coeffs", ff.h), ("g_coeffs", ff.g)):
        lines.append(f'  "{key}": [')
        for i, c in enumerate(coeffs):
            comma = "," if i + 1 < len(coeffs) else ""
            lines.append(f"    [{_fmt(c.real)}, {_fmt(c.imag)}]{comma}")
        lines.append("  ],")
    lines.append('  "meta": {')
    items = sorted(ff.meta.items())
    for i, (k, v) in enumerate(items):
        comma = "," if i + 1 < len(items) else ""
        lines.append(f"    {json.dumps(k)}: {json.dumps(v)}{comma}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _float(value: int | float, key: str) -> float:
    """float(value); a JSON integer past the double range is refused."""
    try:
        return float(value)
    except OverflowError as exc:
        raise FunctionFileError(f"{key}: {exc}") from exc


def _parse_coeffs(raw, key: str) -> tuple[complex, ...]:
    if not isinstance(raw, list):
        raise FunctionFileError(f"{key}: expected a list of [re, im] pairs")
    out = []
    for i, pair in enumerate(raw):
        # Exact types: JSON true/false parse as bool, a subclass of int.
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(type(v) in (int, float) for v in pair)):
            raise FunctionFileError(f"{key}[{i}]: expected a [re, im] pair")
        out.append(complex(_float(pair[0], f"{key}[{i}]"),
                           _float(pair[1], f"{key}[{i}]")))
    return tuple(out)


def _modulus(c: complex) -> float:
    """|c|, infinite where abs would raise OverflowError."""
    return math.hypot(c.real, c.imag)


def parse_function_file(text: str) -> FunctionFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionFileError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise FunctionFileError("top level must be an object")
    keys = {"lambda", "h_coeffs", "g_coeffs", "meta"}
    unknown = sorted(set(obj) - keys)
    if unknown:
        raise FunctionFileError(f"unknown fields: {', '.join(unknown)}")
    missing = sorted(keys - set(obj))
    if missing:
        raise FunctionFileError(f"missing fields: {', '.join(missing)}")
    lam = obj["lambda"]
    if type(lam) not in (int, float) or not lam > 0:
        raise FunctionFileError("lambda: must be a positive number")
    h = _parse_coeffs(obj["h_coeffs"], "h_coeffs")
    if len(h) < 2:
        raise FunctionFileError("h_coeffs: need at least the first two entries")
    if h[0] != 0:
        raise FunctionFileError("h_coeffs[0]: series must vanish at the origin")
    if _modulus(h[1] - 1.0) > COEFF_TOL:
        raise FunctionFileError("h_coeffs[1]: linear coefficient must be 1")
    g = _parse_coeffs(obj["g_coeffs"], "g_coeffs")
    if len(g) >= 1 and g[0] != 0:
        raise FunctionFileError(
            "g_coeffs[0]: co-analytic part must vanish at the origin"
        )
    if len(g) >= 2 and _modulus(g[1]) > COEFF_TOL:
        raise FunctionFileError("g_coeffs[1]: co-analytic linear term must vanish")
    meta = obj["meta"]
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        raise FunctionFileError("meta: must map strings to strings")
    return FunctionFile(lam=_float(lam, "lambda"), h=h, g=g, meta=dict(meta))


def load_function_file(path: str) -> FunctionFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FunctionFileError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FunctionFileError(
            f"{path}: not UTF-8 text (byte {exc.start})"
        ) from exc
    try:
        return parse_function_file(text)
    except FunctionFileError as exc:
        raise FunctionFileError(f"{path}: {exc}") from exc


def write_text_atomic(path: str, text: str) -> None:
    """Write through a temporary file in the same directory, then rename.

    os.replace keeps the temporary file's mode, so it is created with
    0o666 less the umask, as a plain open(path, "w") would create path.
    A failure is reported against path, not the temporary file.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-harmcert-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def curve_csv(audit) -> str:
    lines = ["theta,re,im"]
    for t, p in zip(audit.thetas, audit.points):
        lines.append(f"{_fmt(t)},{_fmt(p.real)},{_fmt(p.imag)}")
    return "\n".join(lines) + "\n"


def _svg_path(points, closed: bool = True) -> str:
    parts = []
    for i, p in enumerate(points):
        cmd = "M" if i == 0 else "L"
        parts.append(f"{cmd} {p.real:.6g} {-p.imag:.6g}")
    if closed:
        parts.append("Z")
    return " ".join(parts)


def curve_svg(f: HarmonicMap, audit) -> str:
    """Closed polyline of the boundary image plus images of inner circles."""
    h, g = EvalGrid(_SVG_RINGS, _SVG_RING_SAMPLES).values(f.h, f.g)
    ring_paths = np.split(h + np.conj(g), len(_SVG_RINGS))
    all_pts = np.concatenate([audit.points] + ring_paths)
    x = np.concatenate([all_pts.real, [0.0]])
    y = np.concatenate([-all_pts.imag, [0.0]])
    margin = 0.05 * max(np.ptp(x), np.ptp(y), 1e-9)
    x0, x1 = x.min() - margin, x.max() + margin
    y0, y1 = y.min() - margin, y.max() + margin
    stroke = max(x1 - x0, y1 - y0) / 400.0
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{x0:.6g} {y0:.6g} {x1 - x0:.6g} {y1 - y0:.6g}">',
        f'  <line x1="{x0:.6g}" y1="0" x2="{x1:.6g}" y2="0" '
        f'stroke="#ccc" stroke-width="{stroke:.6g}" />',
        f'  <line x1="0" y1="{y0:.6g}" x2="0" y2="{y1:.6g}" '
        f'stroke="#ccc" stroke-width="{stroke:.6g}" />',
        f'  <circle cx="0" cy="0" r="{2 * stroke:.6g}" fill="#888" />',
    ]
    for pts in ring_paths:
        lines.append(
            f'  <path d="{_svg_path(pts)}" fill="none" stroke="#999" '
            f'stroke-width="{stroke:.6g}" />'
        )
    lines.append(
        f'  <path d="{_svg_path(audit.points)}" fill="none" stroke="#000" '
        f'stroke-width="{2 * stroke:.6g}" />'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _parse_eta(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise ParameterError(
            f"eta: cannot parse {text!r} (use forms like 1, -0.5, 0.3+0.4j)"
        ) from exc


def _print_report(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def _load_map(args) -> tuple[HarmonicMap, ClassParams]:
    """The map in the file at ``args.path`` and its level, which
    ``--lambda`` overrides."""
    ff = load_function_file(args.path)
    params = ClassParams(lam=args.lam if args.lam is not None else ff.lam)
    return to_harmonic_map(ff), params


def _cmd_check(args) -> int:
    f, params = _load_map(args)
    rep = harmonic_membership(f, params)
    payload = {
        "verdict": rep.verdict.value,
        "measured_sup": rep.measured_sup,
        "margin": rep.margin,
        "witness_angle": rep.witness_angle,
        "lambda": params.lam,
        "justification": rep.justification,
    }
    if args.zeta_samples is not None:
        scan = stable_family_check(f, params, args.zeta_samples)
        payload["zeta_family_max"] = scan.scan.max_sup
        payload["zeta_family_gap"] = scan.gap
    _print_report(payload, args.json)
    return _VERDICT_EXIT[rep.verdict]


def _catalog_params(args, name: str) -> CatalogParams:
    """The record for catalog name ``name`` from the catalog flags; a field
    the subcommand has no flag for (``hyper``: n, truncation) keeps its
    default."""
    given = {key: getattr(args, key)
             for key in ("n", "s", "a", "b", "c", "truncation")
             if hasattr(args, key)}
    return CatalogParams(name=name, lam=args.lam, eta=_parse_eta(args.eta),
                         **given)


def _cmd_example(args) -> int:
    f = make_example(_catalog_params(args, args.name))
    meta = {"name": args.name, "lambda": _fmt(args.lam)}
    for key in ENTRIES[args.name].fields:
        # Floats at 17 digits; ints and the --eta text as given.
        value = getattr(args, key)
        meta[key] = _fmt(value) if isinstance(value, float) else str(value)
    text = serialize_function_file(function_file_from_map(f, args.lam, meta))
    if args.out:
        write_text_atomic(args.out, text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return EXIT_MEMBER


def _cmd_radius(args) -> int:
    f, params = _load_map(args)
    kind = RadiusKind.STARLIKE if args.kind == "starlike" else RadiusKind.CONVEX
    cert = harmonic_radius_certify(f, params, kind, tol=args.tol)
    if args.json:
        witness = None
        if cert.outer_witness is not None:
            r, ang = cert.outer_witness
            witness = {"radius": r, "angle": ang}
        print(json.dumps({
            "kind": cert.kind.value,
            "radius": cert.radius,
            "inner_margin": cert.inner_margin,
            "outer_witness": witness,
            "rings": cert.rings,
        }, allow_nan=False))
        return EXIT_MEMBER
    print(f"kind: {cert.kind.value}")
    print(f"radius: {cert.radius}")
    print(f"inner_margin: {cert.inner_margin}")
    if cert.outer_witness is None:
        print("outer_witness: none (capped at 1)")
    else:
        r, ang = cert.outer_witness
        print(f"outer_witness: radius={r}, angle={ang}")
    return EXIT_MEMBER


def _cmd_curve(args) -> int:
    f, params = _load_map(args)
    audit = boundary_curve_audit(f, params, samples=args.samples)
    if args.csv:
        write_text_atomic(args.csv, curve_csv(audit))
    if args.svg:
        write_text_atomic(args.svg, curve_svg(f, audit))
    print(f"polygonal_length: {audit.polygonal_length}")
    print(f"max_lipschitz_ratio: {audit.max_lipschitz_ratio}")
    print(f"min_pairwise_gap: {audit.min_pairwise_gap}")
    print(f"max_modulus: {audit.max_modulus}")
    return EXIT_MEMBER


def _cmd_hyper(args) -> int:
    name = next(name for name, entry in ENTRIES.items()
                if entry.condition == args.which)
    report = condition(_catalog_params(args, name))
    print(f"lhs: {report.lhs}")
    print(f"rhs: {report.rhs}")
    print(f"holds: {report.holds}")
    if report.at_equality:
        print("note: lhs equals rhs; strict inequality fails")
    return EXIT_MEMBER if report.holds else EXIT_NON_MEMBER


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmcert",
        description="Certify and explore harmonic maps defined by a disk "
                    "differential inequality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    catalog_flags = argparse.ArgumentParser(add_help=False)
    catalog_flags.add_argument("--lambda", dest="lam", type=float, default=1.0)
    catalog_flags.add_argument("--eta", default="1")
    catalog_flags.add_argument("--a", type=float, default=None)
    catalog_flags.add_argument("--b", type=float, default=None)
    catalog_flags.add_argument("--c", type=float, default=None)
    catalog_flags.add_argument("--s", type=int, default=None)
    file_flags = argparse.ArgumentParser(add_help=False)
    file_flags.add_argument("path")
    file_flags.add_argument("--lambda", dest="lam", type=float, default=None)

    check = sub.add_parser("check", parents=[file_flags],
                           help="membership verdict for a function file")
    check.add_argument("--json", action="store_true")
    check.add_argument("--zeta-samples", dest="zeta_samples", type=int,
                       default=None)
    check.set_defaults(func=_cmd_check)

    example = sub.add_parser("example", parents=[catalog_flags],
                             help="write a catalog function file")
    example.add_argument("name")
    example.add_argument("--n", type=int, default=2)
    example.add_argument("--truncation", type=int, default=64)
    example.add_argument("--out", default=None)
    example.set_defaults(func=_cmd_example)

    radius = sub.add_parser("radius", parents=[file_flags],
                            help="certified starlike/convex radius")
    radius.add_argument("--kind", choices=("starlike", "convex"),
                        default="starlike")
    radius.add_argument("--tol", type=float, default=1e-4)
    radius.add_argument("--json", action="store_true")
    radius.set_defaults(func=_cmd_radius)

    curve = sub.add_parser("curve", parents=[file_flags],
                           help="boundary image curve audit and export")
    curve.add_argument("--samples", type=int, default=2048)
    curve.add_argument("--csv", default=None)
    curve.add_argument("--svg", default=None)
    curve.set_defaults(func=_cmd_curve)

    hyper = sub.add_parser("hyper", parents=[catalog_flags],
                           help="closed-form membership thresholds")
    hyper.add_argument("--which", required=True, choices=[
        entry.condition for entry in ENTRIES.values() if entry.condition
    ])
    hyper.set_defaults(func=_cmd_hyper)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MEMBER if exc.code in (0, None) else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except NonMemberError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_MEMBER
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # exit-code contract is total
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
