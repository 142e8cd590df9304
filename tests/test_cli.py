import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import pytest

from harmcert.catalog import ENTRIES, CatalogParams, make_example
from harmcert.cli import (
    EXIT_BOUNDARY_SHARP,
    EXIT_INPUT_ERROR,
    EXIT_MEMBER,
    EXIT_NON_MEMBER,
    FunctionFile,
    FunctionFileError,
    function_file_from_map,
    main,
    parse_function_file,
    serialize_function_file,
)
from harmcert.geometry import boundary_curve_audit
from harmcert.membership import ClassParams

IDENTITY_TEXT = """{
  "lambda": 1,
  "h_coeffs": [
    [0, 0],
    [1, 0]
  ],
  "g_coeffs": [
    [0, 0],
    [0, 0]
  ],
  "meta": {
  }
}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFunctionFileFormat:
    def test_round_trip_byte_identical(self):
        ff = FunctionFile(
            lam=1.0,
            h=(0j, 1 + 0j, 0.1 - 0.2j),
            g=(0j, 0j, 0.3333333333333333 + 0j),
            meta={"name": "demo", "note": "x"},
        )
        text = serialize_function_file(ff)
        again = serialize_function_file(parse_function_file(text))
        assert text == again

    def test_seventeen_digit_floats_survive(self):
        value = 1 / 3 + 1e-16
        ff = FunctionFile(lam=value, h=(0j, 1 + 0j), g=(0j, 0j), meta={})
        parsed = parse_function_file(serialize_function_file(ff))
        assert parsed.lam == value

    def test_canonical_key_order(self):
        text = serialize_function_file(
            FunctionFile(lam=2.0, h=(0j, 1 + 0j), g=(0j, 0j), meta={"a": "b"})
        )
        keys = [line.split(":")[0].strip().strip('"')
                for line in text.splitlines() if '":' in line and line.startswith('  "')]
        assert keys == ["lambda", "h_coeffs", "g_coeffs", "meta"]

    def test_parse_identity(self):
        ff = parse_function_file(IDENTITY_TEXT)
        assert ff.lam == 1.0
        assert ff.h == (0j, 1 + 0j)

    def test_malformed_json_reports_line(self):
        with pytest.raises(FunctionFileError, match="line"):
            parse_function_file("{\n  broken\n}")

    def test_linear_coefficient_enforced(self):
        bad = IDENTITY_TEXT.replace("[1, 0]", "[0.9, 0]")
        with pytest.raises(FunctionFileError, match="linear coefficient"):
            parse_function_file(bad)

    def test_coanalytic_linear_term_enforced(self):
        bad = IDENTITY_TEXT.replace(
            '"g_coeffs": [\n    [0, 0],\n    [0, 0]',
            '"g_coeffs": [\n    [0, 0],\n    [0.1, 0]',
        )
        with pytest.raises(FunctionFileError,
                           match="co-analytic linear term must vanish"):
            parse_function_file(bad)

    def test_unknown_field_rejected(self):
        bad = IDENTITY_TEXT.replace('"meta"', '"extra": 1,\n  "meta"')
        with pytest.raises(FunctionFileError, match="unknown"):
            parse_function_file(bad)


class TestCheckCommand:
    def test_sharp_function_exits_two(self, tmp_path, capsys):
        out = str(tmp_path / "fb.json")
        assert main(["example", "f_b", "--lambda", "1", "--out", out]) == 0
        code = main(["check", out])
        captured = capsys.readouterr().out
        assert code == EXIT_BOUNDARY_SHARP
        assert "BoundarySharp" in captured

    def test_verdicts_near_lam_follow_the_rounding_bound(self, tmp_path,
                                                         capsys):
        # z + 1.0000009 z^2 at lambda 1 has sup 1.0000009, far past its
        # rounding above lam: no member, so check and radius exit 1.
        # z + 0.9999995 z^2 lies as far below: a member, exit 0 and 0.
        for c, code in (("1.0000009", EXIT_NON_MEMBER),
                        ("0.9999995", EXIT_MEMBER)):
            path = write(tmp_path, "q.json", json.dumps(
                {"lambda": 1, "h_coeffs": [[0, 0], [1, 0], [float(c), 0]],
                 "g_coeffs": [[0, 0]], "meta": {}}))
            assert main(["check", path]) == code, c
            assert main(["radius", path]) == code, c
        capsys.readouterr()

    def test_identity_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "id.json", IDENTITY_TEXT)
        assert main(["check", path]) == EXIT_MEMBER
        assert "measured_sup: 0.0" in capsys.readouterr().out

    def test_json_payload(self, tmp_path, capsys):
        path = write(tmp_path, "id.json", IDENTITY_TEXT)
        code = main(["check", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_MEMBER
        for key in ("verdict", "measured_sup", "margin", "witness_angle"):
            assert key in payload

    def test_lambda_override(self, tmp_path):
        out = str(tmp_path / "fa.json")
        main(["example", "f_a", "--lambda", "1", "--out", out])
        assert main(["check", out]) == EXIT_BOUNDARY_SHARP
        assert main(["check", out, "--lambda", "2"]) == EXIT_MEMBER
        assert main(["check", out, "--lambda", "0.5"]) == EXIT_NON_MEMBER

    def test_zeta_samples_flag(self, tmp_path, capsys):
        out = str(tmp_path / "fb.json")
        main(["example", "f_b", "--lambda", "1", "--out", out])
        capsys.readouterr()
        code = main(["check", out, "--json", "--zeta-samples", "64"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_BOUNDARY_SHARP
        assert payload["zeta_family_gap"] <= 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zeta_samples_at_extreme_scale(self, tmp_path, capsys):
        # Coefficients near 1e200: squared moduli would overflow unscaled.
        text = IDENTITY_TEXT.replace(
            '"h_coeffs": [\n    [0, 0],\n    [1, 0]',
            '"h_coeffs": [\n    [0, 0],\n    [1, 0],\n    [1e200, 0],\n'
            '    [0, -5e199],\n    [3e199, 1e199],\n    [0, 2e199]',
        ).replace(
            '"g_coeffs": [\n    [0, 0],\n    [0, 0]',
            '"g_coeffs": [\n    [0, 0],\n    [0, 0],\n    [2e199, 0],\n'
            '    [0, 0],\n    [0, -1e199],\n    [4e199, 0]',
        )
        path = write(tmp_path, "huge.json", text)
        code = main(["check", path, "--zeta-samples", "64", "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == EXIT_NON_MEMBER
        assert math.isfinite(payload["zeta_family_max"])
        assert payload["zeta_family_max"] > 1e199
        assert captured.err == ""

    @pytest.mark.parametrize("old, new, message", [
        ('"h_coeffs": [\n    [0, 0]', '"h_coeffs": [\n    [1e-13, 0]',
         "h_coeffs[0]: series must vanish at the origin"),
        ('"g_coeffs": [\n    [0, 0]', '"g_coeffs": [\n    [0, -1e-300]',
         "g_coeffs[0]: co-analytic part must vanish at the origin"),
    ], ids=["h", "g"])
    def test_nonzero_constant_exits_three(self, tmp_path, capsys, old, new,
                                          message):
        # The constant terms must be exactly 0: a zero of h off the origin
        # would pass the starlike ring test as the origin's.
        text = IDENTITY_TEXT.replace(old, new)
        assert text != IDENTITY_TEXT
        path = write(tmp_path, "bad.json", text)
        assert main(["check", path]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err
        assert main(["radius", path, "--kind", "starlike"]) == EXIT_INPUT_ERROR

    def test_bad_file_exits_three(self, tmp_path, capsys):
        bad = IDENTITY_TEXT.replace(
            '"g_coeffs": [\n    [0, 0],\n    [0, 0]',
            '"g_coeffs": [\n    [0, 0],\n    [0.1, 0]',
        )
        path = write(tmp_path, "bad.json", bad)
        assert main(["check", path]) == EXIT_INPUT_ERROR
        assert "co-analytic linear term" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ('"h_coeffs": [\n    [0, 0],\n    [1, 0]',
         '"h_coeffs": [\n    [0, 0],\n    [1, 0],\n    [NaN, 0]',
         "coefficients must be finite"),
        ('"h_coeffs": [\n    [0, 0],\n    [1, 0]',
         '"h_coeffs": [\n    [0, 0],\n    [1, 0],\n    [Infinity, 0]',
         "coefficients must be finite"),
        ('"lambda": 1', '"lambda": Infinity', "lam must be positive and finite"),
    ])
    def test_non_finite_input_exits_three(self, tmp_path, capsys, old, new,
                                          message):
        path = write(tmp_path, "bad.json", IDENTITY_TEXT.replace(old, new))
        assert main(["check", path, "--json"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("old, new, message", [
        ('"lambda": 1', '"lambda": true', "lambda: must be a positive number"),
        ('"h_coeffs": [\n    [0, 0],\n    [1, 0]',
         '"h_coeffs": [\n    [0, 0],\n    [true, false]',
         "h_coeffs[1]: expected a [re, im] pair"),
    ])
    def test_boolean_numbers_exit_three(self, tmp_path, capsys, old, new,
                                        message):
        text = IDENTITY_TEXT.replace(old, new)
        assert text != IDENTITY_TEXT
        path = write(tmp_path, "bad.json", text)
        assert main(["check", path, "--json"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_angles_flag_is_rejected(self, tmp_path):
        # Every circle scan takes its angle count from scan_angles.
        path = write(tmp_path, "id.json", IDENTITY_TEXT)
        assert main(["check", path, "--angles", "4096"]) == EXIT_INPUT_ERROR

    def test_missing_file_exits_three(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == EXIT_INPUT_ERROR

    def test_non_utf8_file_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["check", str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text")
        assert "UnicodeDecodeError" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [
        ["check", "--json"], ["radius"], ["curve"],
    ])
    def test_overflowing_boundary_exits_three(self, tmp_path, capsys, command):
        # h = z + 5e306 (z^2 + ... + z^20): finite coefficients, overflowing
        # boundary values.  No numpy warning comes before the error line.
        text = IDENTITY_TEXT.replace(
            "[1, 0]", "[1, 0]" + ",\n    [5e306, 0]" * 19)
        path = write(tmp_path, "big.json", text)
        code = main([command[0], path, *command[1:]])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "boundary values overflow" in captured.err


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [
        ["check", "--json"], ["check", "--zeta-samples", "16"], ["radius"],
        ["curve"],
    ])
    @pytest.mark.parametrize("key", ["h_coeffs", "g_coeffs"])
    def test_overflowing_coefficient_modulus_exits_three(
            self, tmp_path, capsys, command, key):
        # Both parts of 1.5e308 + 1.5e308i are finite; its modulus is not.
        obj = json.loads(IDENTITY_TEXT)
        obj[key].append([1.5e308, 1.5e308])
        path = write(tmp_path, "big.json", json.dumps(obj))
        code = main([command[0], path, *command[1:]])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert "OverflowError" not in captured.err
        assert "coefficient moduli must be finite" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [
        ["check"], ["check", "--zeta-samples", "8"], ["curve"], ["radius"],
    ])
    def test_finite_map_past_the_double_range_is_named(
            self, tmp_path, capsys, command):
        # z + 1e308 z^3 is finite and valid at lam = 1e308, but its
        # deficiency image -2e308 z^3 passes the double range: the error
        # names that, as "must be finite" would misdescribe the input.
        obj = json.loads(IDENTITY_TEXT)
        obj["lambda"] = 1e308
        obj["h_coeffs"] += [[0, 0], [1e308, 0]]
        path = write(tmp_path, "big.json", json.dumps(obj))
        code = main([command[0], path, *command[1:]])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert "double range" in captured.err
        assert "must be finite" not in captured.err

    @pytest.mark.parametrize("index, message", [
        (0, "h_coeffs[0]: series must vanish at the origin"),
        (1, "h_coeffs[1]: linear coefficient must be 1"),
    ])
    def test_overflowing_normalization_entry_exits_three(
            self, tmp_path, capsys, index, message):
        obj = json.loads(IDENTITY_TEXT)
        obj["h_coeffs"][index] = [1.5e308, 1.5e308]
        path = write(tmp_path, "big.json", json.dumps(obj))
        assert main(["check", path]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field, message", [
        ("lambda", "lambda: int too large to convert to float"),
        ("h_coeffs", "h_coeffs[2]: int too large to convert to float"),
    ])
    def test_integer_past_double_range_exits_three(self, tmp_path, capsys,
                                                   field, message):
        obj = json.loads(IDENTITY_TEXT)
        huge = 10 ** 400
        if field == "lambda":
            obj["lambda"] = huge
        else:
            obj["h_coeffs"].append([huge, 0])
        path = write(tmp_path, "huge.json", json.dumps(obj))
        assert main(["check", path]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "OverflowError" not in captured.err
        assert message in captured.err

    def test_sharp_polynomial_reads_its_coefficient_sum(self, tmp_path,
                                                        capsys):
        # p1 at s = 0 is z + conj(z^2): |g - z g'| is 1 on the whole circle.
        # The coefficient bound decides it at z = 1, exactly, with no scan
        # whose rounding could read above 1 at an arbitrary angle.
        out = str(tmp_path / "p1.json")
        assert main(["example", "p1", "--s", "0", "--c", "1", "--lambda",
                     "1", "--out", out]) == EXIT_MEMBER
        capsys.readouterr()
        assert main(["check", out, "--json"]) == EXIT_BOUNDARY_SHARP
        payload = json.loads(capsys.readouterr().out)
        assert payload["measured_sup"] == 1.0
        assert payload["margin"] == 0.0
        assert payload["witness_angle"] == 0.0


class TestExampleCommand:
    def test_cubic_showcase_coefficients(self, tmp_path):
        out = str(tmp_path / "eq13.json")
        assert main(["example", "eq13", "--lambda", "1", "--out", out]) == 0
        text = open(out).read()
        assert "[0.5, 0]" in text and "[0.25, 0]" in text

    def test_quadratic(self, tmp_path):
        out = str(tmp_path / "f3.json")
        main(["example", "f3", "--lambda", "1", "--eta", "1", "--out", out])
        ff = parse_function_file(open(out).read())
        assert ff.h == (0j, 1 + 0j, 1 + 0j)

    def test_polynomial_family(self, tmp_path):
        out = str(tmp_path / "p2.json")
        main(["example", "p2", "--s", "1", "--c", "2", "--eta", "1",
              "--out", out])
        ff = parse_function_file(open(out).read())
        assert ff.g[2] == 0.5

    def test_out_file_mode_matches_plain_open(self, tmp_path):
        # The file is renamed into place from a temporary file; it must get
        # the mode a plain open() gives, not the temporary file's 0600.
        old_umask = os.umask(0o022)
        try:
            out = tmp_path / "eq13.json"
            assert main(["example", "eq13", "--out", str(out)]) == EXIT_MEMBER
            plain = tmp_path / "plain.txt"
            with open(plain, "w"):
                pass
        finally:
            os.umask(old_umask)
        assert out.stat().st_mode == plain.stat().st_mode

    @pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
    def test_failed_out_names_the_given_path(self, tmp_path, capsys, target):
        # A missing directory fails the temporary file's open, an existing
        # directory the rename; either way the error names --out.
        out = str(tmp_path / target)
        assert main(["example", "eq13", "--out", out]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"'{out}'" in err
        assert ".tmp-harmcert" not in err
        assert sorted(os.listdir(tmp_path)) == []

    def test_stdout_when_no_out(self, capsys):
        assert main(["example", "eq13", "--lambda", "2"]) == 0
        ff = parse_function_file(capsys.readouterr().out)
        assert ff.h[2] == 1.0

    def test_unknown_name(self, capsys):
        assert main(["example", "zmaps"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("argv", [
        ["example", "p1", "--s", "1", "--c", "nan"],
        ["hyper", "--which", "216", "--s", "3", "--c", "nan"],
    ])
    def test_nan_c_is_named(self, capsys, argv):
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "c must be positive and finite, got nan" in captured.err

    @pytest.mark.parametrize("argv", [
        ["example", "p1", "--s", "1" + "0" * 400, "--c", "2"],
        ["hyper", "--which", "216", "--s", "1" + "0" * 400, "--c", "2",
         "--lambda", "100"],
    ])
    def test_s_past_the_double_range_is_named(self, capsys, argv):
        # The Gauss triple (-s, -s, c) needs s as a double.
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "OverflowError" not in captured.err
        assert "s must not exceed the double range" in captured.err

    def test_overflowing_eta_exits_three(self, capsys):
        # |eta| may pass 1 only by hypot's own rounding: 1 + 5e-13, which a
        # band of 1e-12 let through into a map that check calls NonMember,
        # is refused too.
        for extra in (["--eta", "1.5e308+1.5e308j"],
                      ["--eta", "1.0000000000005", "--lambda", "1"]):
            assert main(["example", "f3", *extra]) == EXIT_INPUT_ERROR, extra
            err = capsys.readouterr().err
            assert "OverflowError" not in err
            assert "eta must lie in the closed unit disk" in err

    def test_ignored_flags_are_not_validated(self, capsys):
        # eq13 reads none of truncation, n and eta.
        argv = ["example", "eq13", "--truncation", "1", "--n", "0",
                "--eta", "0"]
        assert main(argv) == EXIT_MEMBER
        assert parse_function_file(capsys.readouterr().out).meta == {
            "name": "eq13", "lambda": "1",
        }

    def test_read_flag_is_validated(self, capsys):
        argv = ["example", "f4", "--a", "1", "--b", "1", "--c", "3",
                "--truncation", "1"]
        assert main(argv) == EXIT_INPUT_ERROR
        assert "truncation must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name, keys", [
        ("eq13", {}),
        ("f_a", {"n": "3"}),
        ("f_b", {"n": "3"}),
        ("f3", {"eta": "0.5+0.5j"}),
        *((name, {"eta": "0.5+0.5j", "a": "0.5", "b": "0.25", "c": "3",
                  "truncation": "8"}) for name in ("f4", "f5", "f6")),
        *((name, {"eta": "0.5+0.5j", "s": "2", "c": "3"})
          for name in ("p1", "p2", "p3")),
    ])
    def test_meta_records_the_fields_a_name_reads(self, capsys, name, keys):
        argv = ["example", name, "--lambda", "0.5", "--eta", "0.5+0.5j",
                "--n", "3", "--a", "0.5", "--b", "0.25", "--c", "3",
                "--s", "2", "--truncation", "8"]
        assert main(argv) == EXIT_MEMBER
        meta = parse_function_file(capsys.readouterr().out).meta
        assert meta == {"name": name, "lambda": "0.5", **keys}

    def test_round_trip_reproduces_verdict(self, tmp_path, capsys):
        from harmcert.catalog import CatalogParams, make_example
        from harmcert.membership import ClassParams, harmonic_membership

        out = str(tmp_path / "fb5.json")
        main(["example", "f_b", "--lambda", "0.7", "--n", "5", "--out", out])
        capsys.readouterr()
        code = main(["check", out, "--json"])
        payload = json.loads(capsys.readouterr().out)
        direct = harmonic_membership(
            make_example(CatalogParams(name="f_b", lam=0.7, n=5)),
            ClassParams(lam=0.7),
        )
        assert payload["verdict"] == direct.verdict.value
        assert payload["measured_sup"] == direct.measured_sup
        assert code == EXIT_BOUNDARY_SHARP


class TestRadiusCommand:
    def test_starlike_sharp_quadratic(self, tmp_path, capsys):
        out = str(tmp_path / "f3.json")
        main(["example", "f3", "--lambda", "1", "--out", out])
        assert main(["radius", out, "--kind", "starlike"]) == 0
        text = capsys.readouterr().out
        radius = float(text.split("radius: ")[1].splitlines()[0])
        assert radius == pytest.approx(0.5, abs=1e-4)

    def test_convex_sharp_quadratic(self, tmp_path, capsys):
        out = str(tmp_path / "f3.json")
        main(["example", "f3", "--lambda", "1", "--out", out])
        assert main(["radius", out, "--kind", "convex"]) == 0
        radius = float(capsys.readouterr().out.split("radius: ")[1].splitlines()[0])
        assert radius == pytest.approx(0.25, abs=1e-4)

    def test_identity_capped(self, tmp_path, capsys):
        path = write(tmp_path, "id.json", IDENTITY_TEXT)
        assert main(["radius", path]) == 0
        assert "capped" in capsys.readouterr().out

    def test_capped_witness_names_the_proven_ring(self, tmp_path, capsys):
        # With tol = 0.4999 only the probe ring at 0.5001 is tested, and it
        # passes, so the radius is capped at 1; the default tol finds a
        # failing ring near 0.6523.  The witness line says which disk was
        # proven; the radius and margin lines, which scripts parse, stay.
        out = str(tmp_path / "eq13.json")
        main(["example", "eq13", "--lambda", "1", "--out", out])
        capsys.readouterr()
        assert main(["radius", out, "--kind", "convex", "--tol",
                     "0.4999"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "radius: 1.0"
        assert lines[2].startswith("inner_margin: ")
        assert lines[3] == ("outer_witness: none (capped at 1; proven on "
                            "|z| <= 0.5001)")
        assert main(["radius", out, "--kind", "convex"]) == 0
        text = capsys.readouterr().out
        assert float(text.split("radius: ")[1].splitlines()[0]) < 0.6524

    def test_non_member_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "fa.json")
        main(["example", "f_a", "--lambda", "1", "--out", out])
        assert main(["radius", out, "--lambda", "0.4"]) == EXIT_NON_MEMBER

    def test_json_matches_certificate(self, tmp_path, capsys):
        out = str(tmp_path / "f3.json")
        main(["example", "f3", "--lambda", "1", "--out", out])
        capsys.readouterr()
        assert main(["radius", out, "--kind", "convex", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out,
                             parse_constant=pytest.fail)
        assert set(payload) == {"kind", "radius", "inner_margin",
                                "outer_witness", "rings"}
        assert payload["kind"] == "Convex"
        assert payload["radius"] == pytest.approx(0.25, abs=1e-4)
        assert payload["inner_margin"] > 0.0
        witness = payload["outer_witness"]
        assert payload["radius"] < witness["radius"] <= payload["radius"] + 1e-4
        assert 0.0 <= witness["angle"] < 2 * math.pi
        assert isinstance(payload["rings"], int) and payload["rings"] > 2

    @pytest.mark.parametrize("kind", ["convex", "starlike"])
    @pytest.mark.parametrize("lam, level", [("1e18", "1e19"),
                                            ("1e100", "1e101")])
    def test_huge_level_certifies_past_sixty_halvings(self, tmp_path, capsys,
                                                      kind, lam, level):
        # z + lam z^2 is starlike up to 1/(2 lam) and convex up to
        # 1/(4 lam), more than 60 halvings below the probe ring at 1 - tol.
        out = str(tmp_path / "f3.json")
        main(["example", "f3", "--lambda", lam, "--out", out])
        capsys.readouterr()
        assert main(["radius", out, "--kind", kind, "--lambda", level,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out,
                             parse_constant=pytest.fail)
        sharp = 1.0 / ((2.0 if kind == "starlike" else 4.0) * float(lam))
        assert (1 - 2**-7) * sharp <= payload["radius"] <= sharp
        assert payload["inner_margin"] > 0.0

    def test_halved_witness_stays_next_to_the_radius(self, tmp_path, capsys):
        # Every failing halved ring becomes the outer end, and the search
        # then closes the bracket to 1/128 of the witness, far below tol.
        out = str(tmp_path / "f3.json")
        main(["example", "f3", "--lambda", "1e50", "--out", out])
        capsys.readouterr()
        assert main(["radius", out, "--kind", "convex", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out,
                             parse_constant=pytest.fail)
        radius, witness = payload["radius"], payload["outer_witness"]["radius"]
        assert 0.0 < radius < witness and witness - radius <= witness / 128

    @pytest.mark.parametrize("kind", ["convex", "starlike"])
    @pytest.mark.parametrize("lam", ["1e155", "1e200", "1e300"])
    def test_extreme_level_certifies_or_exits_three(self, tmp_path, capsys,
                                                    kind, lam):
        # Ring products at these levels overflow unless each ring is scaled;
        # below the normal range r^2 loses the quadratic term, so a
        # starlike radius near 1/(2 lam) is refused rather than certified.
        out = str(tmp_path / "f3.json")
        main(["example", "f3", "--lambda", lam, "--out", out])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["radius", out, "--kind", kind, "--json"])
        captured = capsys.readouterr()
        assert caught == []
        sharp = 1.0 / ((2.0 if kind == "starlike" else 4.0) * float(lam))
        if code == 0:
            payload = json.loads(captured.out, parse_constant=pytest.fail)
            assert (1 - 2**-7) * sharp <= payload["radius"] <= sharp
        else:
            assert code == EXIT_INPUT_ERROR
            assert captured.err.startswith("error:")
            if kind == "starlike":
                # The functional is positive there; the rings ran out of
                # precision, and the message says so.
                assert "lost precision" in captured.err

    @pytest.mark.parametrize("kind", ["convex", "starlike"])
    @pytest.mark.parametrize("lam", ["5e307", "8.9e307", "1e308", "1.7e308"])
    @pytest.mark.parametrize("name", ["eq13", "f3", "f_a", "f_b"])
    def test_double_range_level_certifies_or_exits_three(
            self, tmp_path, capsys, name, lam, kind):
        # Unscaled, the ring columns (k + offset) c_k and the rows
        # k (k + offset) |c_k| pass the double range here, and forming h'
        # first overflows its coefficients for f3, f_a and f_b at 1e308.
        out = str(tmp_path / f"{name}.json")
        main(["example", name, "--lambda", lam, "--out", out])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["radius", out, "--kind", kind, "--json"])
        captured = capsys.readouterr()
        assert caught == []
        assert "RuntimeWarning" not in captured.err
        assert "must be finite" not in captured.err
        if code == 0:
            payload = json.loads(captured.out, parse_constant=pytest.fail)
            floor = 1.0 / ((2.0 if kind == "starlike" else 4.0) * float(lam))
            # Far below tol, the search still closes to a relative
            # width of 2^-7.
            assert payload["radius"] >= (1 - 2**-7) * floor
            assert payload["inner_margin"] > 0.0
        else:
            assert code == EXIT_INPUT_ERROR
            assert captured.err.startswith("error: ConsistencyError:")

    @pytest.mark.parametrize("tol", ["1e-20", "1e-40"])
    def test_tol_below_float_resolution_exits_three(self, tmp_path, capsys,
                                                    tol):
        # No radius search can shrink a bracket near 1 to such a tol, so the
        # command refuses it instead of returning a wider witness.
        out = str(tmp_path / "f3.json")
        main(["example", "f3", "--lambda", "0.8", "--out", out])
        capsys.readouterr()
        assert main(["radius", out, "--kind", "convex", "--tol", tol,
                     "--json"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must lie in" in captured.err

    def test_json_capped_witness_is_null(self, tmp_path, capsys):
        path = write(tmp_path, "id.json", IDENTITY_TEXT)
        assert main(["radius", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out,
                             parse_constant=pytest.fail)
        assert payload["radius"] == 1.0
        assert payload["outer_witness"] is None
        assert payload["rings"] == 1


class TestCurveCommand:
    def test_identity_circle_outputs(self, tmp_path, capsys):
        path = write(tmp_path, "id.json", IDENTITY_TEXT)
        csv_path = str(tmp_path / "curve.csv")
        svg_path = str(tmp_path / "curve.svg")
        code = main(["curve", path, "--samples", "4096",
                     "--csv", csv_path, "--svg", svg_path])
        text = capsys.readouterr().out
        assert code == 0
        length = float(text.split("polygonal_length: ")[1].splitlines()[0])
        assert length == pytest.approx(2 * math.pi, abs=1e-3)
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 4097
        svg = open(svg_path).read()
        assert svg.startswith("<svg")
        assert "<path" in svg and "</svg>" in svg
        allowed = {"svg", "line", "circle", "path"}
        import re
        tags = set(re.findall(r"<(\w+)", svg))
        assert tags <= allowed

    def test_small_level_bound(self, tmp_path, capsys):
        out = str(tmp_path / "f3.json")
        main(["example", "f3", "--lambda", "0.5", "--out", out])
        assert main(["curve", out, "--samples", "1024"]) == 0
        text = capsys.readouterr().out
        length = float(text.split("polygonal_length: ")[1].splitlines()[0])
        assert length <= 4 * math.pi + 1e-3

    def test_disk_radius_two_bound(self, tmp_path, capsys):
        out = str(tmp_path / "fb.json")
        main(["example", "f_b", "--lambda", "0.5", "--out", out])
        assert main(["curve", out, "--samples", "1024"]) == 0
        text = capsys.readouterr().out
        max_mod = float(text.split("max_modulus: ")[1].splitlines()[0])
        assert max_mod <= 2.0 + 1e-9

    def test_sample_floor(self, tmp_path):
        path = write(tmp_path, "id.json", IDENTITY_TEXT)
        assert main(["curve", path, "--samples", "100"]) == EXIT_INPUT_ERROR

    def test_unwritable_output(self, tmp_path):
        path = write(tmp_path, "id.json", IDENTITY_TEXT)
        assert main(["curve", path, "--csv", "/nonexistent-dir/x.csv"]) \
            == EXIT_INPUT_ERROR

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_level_prints_no_overflow_warning(self, tmp_path, capsys):
        # main turns any exception, a RuntimeWarning made an error included,
        # into exit 3.  At lam = 1e308 the length reads inf and the SVG view
        # box stays finite; at 1.7e308 the view box would pass the double
        # range, so the SVG is refused by name, and no file is written.
        for lam in ("1e308", "1.7e308"):
            path = str(tmp_path / f"eq13-{lam}.json")
            assert main(["example", "eq13", "--lambda", lam,
                         "--out", path]) == 0
            capsys.readouterr()
            assert main(["curve", path]) == 0
            out = capsys.readouterr().out
            assert "polygonal_length: inf" in out
        svg, csv = str(tmp_path / "curve.svg"), str(tmp_path / "curve.csv")
        assert main(["curve", str(tmp_path / "eq13-1e308.json"),
                     "--svg", svg]) == 0
        box = open(svg).read().split('viewBox="')[1].split('"')[0]
        assert all(math.isfinite(float(v)) for v in box.split())
        capsys.readouterr()
        code = main(["curve", str(tmp_path / "eq13-1.7e308.json"),
                     "--svg", svg + "2", "--csv", csv])
        assert code == EXIT_INPUT_ERROR
        assert "view box" in capsys.readouterr().err
        assert not os.path.exists(svg + "2") and not os.path.exists(csv)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", ["1e308", "1.7e308"])
    @pytest.mark.parametrize("name", ["f3", "f_a", "f_b"])
    def test_lipschitz_ratio_past_the_double_range_reads_inf(
            self, tmp_path, capsys, name, lam):
        # h' = 1 + 2 lam z + ... has a coefficient past the double range
        # here, so the ratio is read from coefficients scaled by a power of
        # two: inf, as 1 + 2 lam itself, where forming h' once exited 3
        # with "coefficients must be finite" on finite input.
        path = str(tmp_path / f"{name}.json")
        assert main(["example", name, "--lambda", lam, "--out", path]) == 0
        capsys.readouterr()
        assert main(["curve", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "max_lipschitz_ratio: inf" in captured.out.splitlines()

    @pytest.mark.parametrize("lam", ["1e308", "0.5"])
    def test_gap_within_rounding_prints_unresolved(self, tmp_path, capsys,
                                                   lam):
        # z + lam z^2 takes the samples at theta and theta + pi 2 apart: at
        # lam = 1e308 far below their rounding, where the gap once printed
        # 0.0, a self-intersection.  At lam = 0.5 the gap prints as before.
        path = str(tmp_path / "f3.json")
        assert main(["example", "f3", "--lambda", lam, "--out", path]) == 0
        capsys.readouterr()
        assert main(["curve", path]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("min_pairwise_gap: "))
        if lam == "1e308":
            assert line == ("min_pairwise_gap: unresolved (within the "
                            "samples' rounding)")
        else:
            f = make_example(CatalogParams("f3", lam=0.5))
            audit = boundary_curve_audit(f, ClassParams(0.5))
            assert line == f"min_pairwise_gap: {audit.min_pairwise_gap}"
            assert audit.min_pairwise_gap > 0.0

    @pytest.mark.parametrize("flag", ["--csv", "--svg"])
    def test_failed_write_names_the_given_path(self, tmp_path, capsys, flag):
        path = write(tmp_path, "id.json", IDENTITY_TEXT)
        out = str(tmp_path / "missing-dir" / "x.csv")
        code = main(["curve", path, "--samples", "513", flag, out])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert "x.csv" in err
        assert ".tmp-harmcert" not in err


class TestHyperCommand:
    def test_holds(self, capsys):
        code = main(["hyper", "--which", "213", "--a", "1", "--b", "1",
                     "--c", "3", "--lambda", "2.5", "--eta", "1"])
        text = capsys.readouterr().out
        assert code == EXIT_MEMBER
        assert float(text.split("lhs: ")[1].splitlines()[0]) == pytest.approx(2.0)
        # An lhs of 5.0e-15 against an rhs of 1e-13: an absolute equality
        # band of 1e-12 read it as lhs equals rhs.
        code = main(["hyper", "--which", "214", "--a", "1e-7", "--b", "1e-7",
                     "--c", "3", "--lambda", "1e-13"])
        assert code == EXIT_MEMBER
        assert "holds: True" in capsys.readouterr().out.splitlines()

    def test_equality_fails(self, capsys):
        code = main(["hyper", "--which", "215", "--a", "1", "--b", "1",
                     "--c", "4", "--lambda", "3"])
        assert code == EXIT_NON_MEMBER
        assert "equals" in capsys.readouterr().out

    def test_polynomial_condition(self, capsys):
        code = main(["hyper", "--which", "216", "--s", "1", "--c", "1",
                     "--lambda", "3"])
        text = capsys.readouterr().out
        assert code == EXIT_MEMBER
        assert float(text.split("lhs: ")[1].splitlines()[0]) == pytest.approx(2.0)

    def test_guard_violation(self, capsys):
        code = main(["hyper", "--which", "214", "--a", "1", "--b", "1",
                     "--c", "3", "--lambda", "5"])
        assert code == EXIT_INPUT_ERROR

    def test_missing_parameters(self, capsys):
        assert main(["hyper", "--which", "216"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("argv, message", [
        (["--which", "216"], "p1 needs s, c"),
        (["--which", "214", "--a", "1"], "f5 needs b, c"),
    ])
    def test_missing_field_names_the_map(self, capsys, argv, message):
        assert main(["hyper", *argv]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv, ignored", [
        (["--which", "216", "--s", "1", "--c", "1", "--lambda", "3"],
         ["--a", "nan", "--b", "-1"]),
        (["--which", "213", "--a", "1", "--b", "1", "--c", "3",
          "--lambda", "2.5"], ["--s", "-1"]),
    ])
    def test_ignored_flags_change_nothing(self, capsys, argv, ignored):
        code = main(["hyper", *argv])
        out = capsys.readouterr().out
        assert main(["hyper", *argv, *ignored]) == code == EXIT_MEMBER
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("extra, message", [
        (["--lambda", "inf"], "lam must be positive and finite"),
        (["--eta=nan"], "eta must lie in the closed unit disk"),
        (["--c", "inf"], "c must be finite"),
    ])
    def test_non_finite_input_exits_three(self, capsys, extra, message):
        argv = ["hyper", "--which", "213", "--a", "1", "--b", "1", "--c", "3"]
        assert main(argv + extra) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("factor, expected", [
        (1.01, EXIT_MEMBER), (0.99, EXIT_NON_MEMBER),
    ])
    def test_large_degree_polynomial_condition(self, capsys, factor, expected):
        # Gamma(1.5) Gamma(201.5) / Gamma(101.5)^2 is about 1.1e58; the Gamma
        # values themselves overflow a double.
        s, c = 100, 1.5
        oracle = math.exp(math.lgamma(c) + math.lgamma(c + 2 * s)
                          - 2 * math.lgamma(c + s))
        code = main(["hyper", "--which", "216", "--s", str(s), "--c", str(c),
                     "--lambda", repr(factor * oracle)])
        assert code == expected
        lhs = float(capsys.readouterr().out.split("lhs: ")[1].splitlines()[0])
        assert lhs == pytest.approx(oracle, rel=1e-11)


    @pytest.mark.parametrize("extra, expected", [
        ([], EXIT_NON_MEMBER), (["--lambda", "2"], EXIT_MEMBER),
    ])
    def test_gauss_value_past_gamma_overflow(self, capsys, extra, expected):
        # Gamma(300) overflows a double; F(1, 1; 300; 1) = 299/298.
        code = main(["hyper", "--which", "213", "--a", "1", "--b", "1",
                     "--c", "300"] + extra)
        lhs = float(capsys.readouterr().out.split("lhs: ")[1].splitlines()[0])
        assert abs(lhs - 299 / 298) <= 1e-12
        assert code == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_rhs_holds(self, capsys):
        # lam / |eta| = 1e310 overflows; lhs 2 is below every double.
        code = main(["hyper", "--which", "213", "--a", "1", "--b", "1",
                     "--c", "3", "--eta=1e-300", "--lambda", "1e10"])
        out = capsys.readouterr().out
        assert code == EXIT_MEMBER
        assert "rhs: inf" in out and "holds: True" in out
        assert "equals" not in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_lhs_fails(self, capsys):
        # The terminating sum of positive terms passes the double range.
        code = main(["hyper", "--which", "216", "--s", "600", "--c", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_NON_MEMBER
        assert "lhs: inf" in captured.out and "holds: False" in captured.out
        assert "equals" not in captured.out
        assert captured.err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_gauss_value_fails(self, capsys):
        # F(1000, 1000; 2000.5; 1) is about 1e600: the Gamma quotient passes
        # the double range, and an lhs of +inf fails every finite rhs.
        code = main(["hyper", "--which", "213", "--a", "1000", "--b", "1000",
                     "--c", "2000.5"])
        captured = capsys.readouterr()
        assert code == EXIT_NON_MEMBER
        assert "lhs: inf" in captured.out and "holds: False" in captured.out
        assert captured.err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_both_sides_overflowed_exit_three(self, capsys):
        code = main(["hyper", "--which", "216", "--s", "600", "--c", "1",
                     "--eta=1e-300", "--lambda", "1e10"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error:")


# Runs each argv of the JSON list in sys.argv[1] through main, in one
# fresh interpreter, and prints per call its exit code and whether numpy
# has been executed by then; last, whether harmcert.series.np is then the
# plain numpy module.
_NUMPY_PROBE = """
import io, json, sys, types
from contextlib import redirect_stderr, redirect_stdout
from harmcert.cli import main
calls = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    calls.append([code, any(m.startswith("numpy.") for m in sys.modules)])
np = sys.modules["harmcert.series"].np
plain = np is sys.modules["numpy"] and type(np) is types.ModuleType
print(json.dumps({"calls": calls, "plain": plain}))
"""


def run_fresh(argvs, cwd):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=src), cwd=cwd,
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


class TestNumpyOnFirstUse:
    """numpy is executed only when a call first does grid work."""

    def test_calls_without_grid_work_never_execute_numpy(self, tmp_path):
        examples = [["example", name, "--a", "0.5", "--b", "0.5", "--c", "3",
                     "--s", "2", "--out", f"{name}.json"]
                    for name in ENTRIES]
        hostile = {
            "malformed": "{\n  broken\n}",
            "nan": IDENTITY_TEXT.replace("[1, 0]", "[1, 0],\n    [NaN, 0]"),
            "inf": IDENTITY_TEXT.replace("[1, 0]", "[1, 0],\n    [Infinity, 0]"),
            "unnormalized": IDENTITY_TEXT.replace("[1, 0]", "[2, 0]"),
        }
        for kind, text in hostile.items():
            write(tmp_path, f"{kind}.json", text)
        hypers = [
            ["hyper", "--which", "213", "--a", "1", "--b", "1", "--c", "3",
             "--lambda", "2.5"],
            *(["hyper", "--which", w, "--a", "1", "--b", "1", "--c", "5",
               "--lambda", "2.5"] for w in ("214", "215")),
            *(["hyper", "--which", w, "--s", "2", "--c", "3", "--lambda", "5"]
              for w in ("216", "217", "218")),
        ]
        argvs = [
            *examples,
            *hypers,
            *(["check", f"{kind}.json", "--json"] for kind in hostile),
            # The coefficient sum, attained at z = 1, decides these: eq13
            # reaches lam = 1, p1 (s = 2, c = 3) passes it.
            ["check", "eq13.json"],
            ["check", "p1.json"],
        ]
        report = run_fresh(argvs, tmp_path)
        assert [loaded for _, loaded in report["calls"]] == [False] * len(argvs)
        codes = [code for code, _ in report["calls"]]
        assert codes[:len(examples)] == [EXIT_MEMBER] * len(examples)
        assert codes[len(examples):len(examples) + len(hypers)] == (
            [EXIT_MEMBER] * len(hypers))
        assert codes[-6:-2] == [EXIT_INPUT_ERROR] * 4
        assert codes[-2:] == [EXIT_BOUNDARY_SHARP, EXIT_NON_MEMBER]

    def test_s_past_the_double_range_never_executes_numpy(self, tmp_path):
        argv = ["hyper", "--which", "216", "--s", "1" + "0" * 400, "--c", "2",
                "--lambda", "100"]
        assert run_fresh([argv], tmp_path)["calls"] == [
            [EXIT_INPUT_ERROR, False]]

    @pytest.mark.parametrize("argv", [
        ["check", "rand8.json"],
        ["check", "id.json", "--zeta-samples", "8"],
        ["radius", "id.json"],
        ["curve", "id.json"],
    ])
    def test_grid_calls_execute_numpy(self, tmp_path, argv):
        from harmcert.membership import ClassParams, random_member

        np = pytest.importorskip("numpy")
        f = random_member(8, ClassParams(lam=1.0), np.random.default_rng(8))
        write(tmp_path, "rand8.json",
              serialize_function_file(function_file_from_map(f, 1.0)))
        write(tmp_path, "id.json", IDENTITY_TEXT)
        report = run_fresh([argv], tmp_path)
        assert report["calls"] == [[EXIT_MEMBER, True]]
        assert report["plain"]

    def test_np_is_numpy_once_imported(self):
        import numpy

        from harmcert import _lazy
        assert _lazy.np is numpy


class TestExitCodeTotality:
    def test_no_arguments(self):
        assert main([]) == EXIT_INPUT_ERROR

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_bad_flag(self, capsys):
        assert main(["check", "--bogus"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("command",
                             ["check", "example", "radius", "curve", "hyper"])
    def test_subcommand_help_exits_zero(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: harmcert {command}")


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # Every harmcert line of README's "Command line" block, comments cut.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    lines = [shlex.split(line, comments=True)[1:]
             for line in section.split("```")[1].splitlines()
             if line.startswith("harmcert ")]
    monkeypatch.chdir(tmp_path)
    assert [argv[0] for argv in lines] == [
        "example", "check", "check", "radius", "radius", "curve", "hyper",
        "hyper",
    ]
    for argv in lines:
        assert main(argv) in (EXIT_MEMBER, EXIT_BOUNDARY_SHARP), argv
