"""Command-line interface: exit codes, report formats, determinism."""

import json
import subprocess
import sys

import pytest

from lambdaring.cli import entry
from lambdaring.cochain import random_endomorphism
from lambdaring.cohomology import inner_derivation
from lambdaring.deformation import (
    deformation_to_dict,
    make_deformation,
    trivial_deformation,
)
from lambdaring.exactalg import IntMatrix
from lambdaring.rings import (
    AdamsFamily,
    PrimeUniverse,
    _cyclic_adams_matrix,
    _cyclic_group_ring,
    family_to_dict,
    preset_family,
)


def run_cli(capsys, argv):
    code = entry(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lambdaring.cli", *argv],
        capture_output=True,
        text=True,
    )


def int_digit_limit():
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit is not None else None


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, ["cohomology", "h0", "--preset", "Z"])
        assert code == 0
        assert "H0 = Z^1" in out

    def test_input_error_missing_source(self, capsys):
        code, _, err = run_cli(capsys, ["cohomology", "h0"])
        assert code == 2
        assert "input error" in err

    def test_input_error_both_sources(self, capsys, tmp_path):
        ring = write_json(tmp_path / "ring.json", family_to_dict(preset_family("Z")))
        code, _, err = run_cli(
            capsys, ["cohomology", "h0", "--preset", "Z", "--ring", ring]
        )
        assert code == 2

    def test_input_error_bad_primes(self, capsys):
        code, _, err = run_cli(
            capsys, ["cohomology", "h0", "--preset", "Z", "--primes", "2,x"]
        )
        assert code == 2
        assert "input error" in err

    def test_input_error_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["cohomology", "h0", "--ring", "/no/such.json"])
        assert code == 2

    def test_limit_guard(self, capsys):
        code, _, err = run_cli(capsys, ["poly", "P", "9"])
        assert code == 2
        assert "bound" in err

    def test_poly_pij_needs_j(self, capsys):
        code, _, err = run_cli(capsys, ["poly", "Pij", "2"])
        assert code == 2

    def test_math_violation_is_one(self, capsys, tmp_path):
        # A deformation whose first-order term is a genuine cohomology
        # class of the integers cannot be normalized away.
        family = preset_family("Z", (2, 3, 5))
        deformation = make_deformation(
            family, 1, {2: {1: IntMatrix.from_rows([[2]])}}
        )
        path = write_json(tmp_path / "class.json", deformation_to_dict(deformation))
        code, _, err = run_cli(capsys, ["deform", "normalize", "--deformation", path])
        assert code == 1
        assert "mathematical violation" in err


class TestInputContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ("lambda", "from-adams", "--preset", "Z", "--element", "x"),
            ("lambda", "from-adams", "--preset", "Z", "--element", "4", "--max-degree", "0"),
            ("poly", "P", "0"),
            ("poly", "Pij", "0", "1"),
            ("poly", "Pij", "1", "-2"),
            ("complex", "check", "d-squared", "--preset", "Z", "--samples", "0"),
            ("complex", "check", "d-squared", "--preset", "Z", "--samples", "-5"),
            ("cohomology", "h0", "--preset", "Z", "--primes", "2,2"),
            ("cohomology", "h0", "--preset", "Z", "--primes", "4"),
            ("deform", "normalize", "--deformation", "{order_one}", "--level", "0"),
            ("deform", "normalize", "--deformation", "{order_one}", "--level", "5"),
            ("deform", "obstruction", "--deformation", "{order_one}", "--bound", "0"),
            ("deform", "obstruction", "--deformation", "{order_one}", "--bound", "-3"),
        ],
    )
    def test_unusable_input_exits_two(self, tmp_path, argv):
        z = preset_family("Z", (2, 3, 5))
        path = write_json(
            tmp_path / "z.json", deformation_to_dict(trivial_deformation(z, 1))
        )
        process = run_module(*(arg.format(order_one=path) for arg in argv))
        assert process.returncode == 2, process.stderr
        assert "Traceback" not in process.stderr

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_extend_bound_below_one(self, tmp_path, bound):
        z = preset_family("Z", (2, 3, 5))
        path = write_json(
            tmp_path / "z.json", deformation_to_dict(trivial_deformation(z, 1))
        )
        process = run_module("deform", "extend", "--deformation", path, "--bound", bound)
        assert process.returncode == 2
        assert "Traceback" not in process.stderr
        assert "--bound must be at least 1" in process.stderr

    def test_deformation_path_is_a_directory(self, tmp_path):
        process = run_module("deform", "extend", "--deformation", str(tmp_path))
        assert process.returncode == 2
        assert "Traceback" not in process.stderr
        assert "cannot read deformation file" in process.stderr

    def test_files_that_are_not_text(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00binary")
        for argv in (
            ("deform", "verify", "--deformation", str(path)),
            ("ring", "verify", "--ring", str(path)),
        ):
            process = run_module(*argv)
            assert process.returncode == 2, argv
            assert "Traceback" not in process.stderr

    def test_lambda_degree_needs_its_primes(self):
        process = run_module(
            "lambda", "from-adams", "--preset", "Z", "--element", "4", "--max-degree", "7"
        )
        assert process.returncode == 2
        assert "Traceback" not in process.stderr
        assert "needs the prime 7" in process.stderr

    def test_lambda_degree_with_its_primes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "lambda", "from-adams", "--preset", "Z", "--primes", "2,3,5,7",
                "--element", "9", "--max-degree", "7", "--format", "json",
            ],
        )
        assert code == 0
        assert json.loads(out)["results"]["values"][6] == [36]

    def test_h1_with_classes_beyond_the_digit_limit(self, capsys, tmp_path):
        # H1 of Z[C6] over {2,3,5} has class entries of about 19,700 digits.
        primes = (2, 3, 5)
        family = AdamsFamily(
            _cyclic_group_ring(6, "ZC6"),
            PrimeUniverse(primes),
            tuple((p, _cyclic_adams_matrix(6, p)) for p in primes),
        )
        ring = write_json(tmp_path / "zc6.json", family_to_dict(family))
        before = int_digit_limit()
        code, out, err = run_cli(
            capsys, ["cohomology", "h1", "--ring", ring, "--format", "json"]
        )
        assert code == 0, err
        assert int_digit_limit() == before
        assert '"rendered": "Z^18"' in out
        longest = max(len(chunk) for chunk in out.replace("-", " ").split())
        assert longest > 4300

    def test_long_integers_in_and_out(self, capsys):
        # lambda_2 of 10^5000 is 10^5000 (10^5000 - 1) / 2
        element = "1" + "0" * 5000
        code, out, _ = run_cli(
            capsys,
            ["lambda", "from-adams", "--preset", "Z", "--element", element, "--max-degree", "2"],
        )
        assert code == 0
        assert f"lambda_2: [{'4' + '9' * 4999 + '5' + '0' * 4999}]" in out


class TestReports:
    def test_h0_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["cohomology", "h0", "--preset", "Z", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["command"] == "cohomology h0"
        assert report["universe"] == [2, 3, 5]
        assert report["results"]["group"]["free_rank"] == 1
        assert report["results"]["group"]["torsion"] == []
        assert report["results"]["basis"] == [[1]]

    def test_h1_json_universes(self, capsys):
        for primes, rank in (("2", 1), ("2,3", 2), ("2,3,5", 3)):
            code, out, _ = run_cli(
                capsys,
                [
                    "cohomology",
                    "h1",
                    "--preset",
                    "Z",
                    "--primes",
                    primes,
                    "--format",
                    "json",
                ],
            )
            assert code == 0
            report = json.loads(out)
            assert report["results"]["group"]["free_rank"] == rank
            assert report["results"]["group"]["torsion"] == []
            for cls in report["results"]["classes"]:
                for p_text, flat in cls["values"].items():
                    assert all(x % int(p_text) == 0 for x in flat)

    def test_json_is_deterministic(self, capsys):
        argv = [
            "complex",
            "check",
            "d-squared",
            "--preset",
            "RC2",
            "--samples",
            "5",
            "--seed",
            "7",
            "--format",
            "json",
        ]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_complex_check_text(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["complex", "check", "d-squared", "--preset", "RC2", "--samples", "5"],
        )
        assert code == 0
        assert "d-squared: 0 mismatches" in out
        assert "dimensions [0, 1, 2]" in out

    def test_complex_check_single_dimension(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "complex",
                "check",
                "leibniz",
                "--preset",
                "Z",
                "--samples",
                "5",
                "--dimension",
                "1",
                "--format",
                "json",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["bounds"]["dimensions"] == [1]
        assert report["results"]["mismatches"] == 0

    def test_lambda_from_adams(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "lambda",
                "from-adams",
                "--preset",
                "Z",
                "--element",
                "4",
                "--max-degree",
                "4",
                "--format",
                "json",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["values"] == [[4], [6], [4], [1]]

    def test_poly_text(self, capsys):
        code, out, _ = run_cli(capsys, ["poly", "P", "2"])
        assert code == 0
        assert out.strip() == "s1^2*t2 + s2*t1^2 - 2*s2*t2"
        code, out, _ = run_cli(capsys, ["poly", "Pij", "2", "2"])
        assert code == 0
        assert out.strip() == "s1*s3 - s4"


class TestRingFiles:
    def test_verify_from_file(self, capsys, tmp_path):
        ring = write_json(
            tmp_path / "rc3.json", family_to_dict(preset_family("RC3", (2, 3, 5)))
        )
        code, _, _ = run_cli(capsys, ["ring", "verify", "--ring", ring])
        assert code == 0
        code, _, _ = run_cli(capsys, ["adams", "verify", "--ring", ring])
        assert code == 0

    def test_primes_subset_override(self, capsys, tmp_path):
        ring = write_json(
            tmp_path / "rc2.json", family_to_dict(preset_family("RC2", (2, 3, 5)))
        )
        code, out, _ = run_cli(
            capsys,
            ["cohomology", "h1", "--ring", ring, "--primes", "2,3", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["universe"] == [2, 3]
        assert report["results"]["group"]["free_rank"] == 4

    def test_primes_outside_file(self, capsys, tmp_path):
        ring = write_json(
            tmp_path / "rc2.json", family_to_dict(preset_family("RC2", (2, 3)))
        )
        code, _, err = run_cli(
            capsys, ["cohomology", "h1", "--ring", ring, "--primes", "2,7"]
        )
        assert code == 2
        assert "no Adams data" in err

    def test_broken_adams_reported(self, capsys, tmp_path):
        doc = family_to_dict(preset_family("RC2", (2, 3)))
        doc["adams"]["3"] = [0, 1, 1, 0]  # the swap: not Frobenius mod 3
        ring = write_json(tmp_path / "broken.json", doc)
        code, out, _ = run_cli(capsys, ["adams", "verify", "--ring", ring])
        assert code == 1
        assert "violations" in out

    def test_malformed_ring_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["ring", "verify", "--ring", str(path)])
        assert code == 2


class TestDeformWorkflows:
    def test_verify_extend_normalize(self, capsys, tmp_path):
        family = preset_family("Z", (2, 3, 5))
        scaling = make_deformation(
            family, 1, {p: {1: IntMatrix.from_rows([[p]])} for p in (2, 3, 5)}
        )
        path = write_json(tmp_path / "scaling.json", deformation_to_dict(scaling))

        code, out, _ = run_cli(capsys, ["deform", "verify", "--deformation", path])
        assert code == 0 and "OK" in out

        code, out, _ = run_cli(
            capsys, ["deform", "extend", "--deformation", path, "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["succeeded"] is True
        assert report["results"]["extended"]["order"] == 2

        code, out, _ = run_cli(
            capsys,
            ["deform", "infinitesimal", "--deformation", path, "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["is_cocycle"] is True
        assert report["results"]["values"]["2"] == [2]

    def test_obstruction_report(self, capsys, tmp_path):
        family = preset_family("Z", (2, 3))
        scaling = make_deformation(
            family, 1, {p: {1: IntMatrix.from_rows([[p]])} for p in (2, 3)}
        )
        path = write_json(tmp_path / "s.json", deformation_to_dict(scaling))
        code, out, _ = run_cli(
            capsys,
            ["deform", "obstruction", "--deformation", path, "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        by_args = {
            (e["m"], e["n"]): e["matrix"] for e in report["results"]["entries"]
        }
        assert by_args[(2, 3)] == [-6]

    def test_equiv_positive_and_negative(self, capsys, tmp_path):
        rc2 = preset_family("RC2", (2, 3, 5))
        base = trivial_deformation(rc2, 1)
        g = random_endomorphism(rc2, 5)
        shifted = make_deformation(
            rc2, 1, {p: {1: inner_derivation(rc2, g).value(p)} for p in (2, 3, 5)}
        )
        base_path = write_json(tmp_path / "base.json", deformation_to_dict(base))
        inner_path = write_json(tmp_path / "inner.json", deformation_to_dict(shifted))
        code, out, _ = run_cli(
            capsys,
            ["deform", "equiv", "--deformation", base_path, "--other", inner_path],
        )
        assert code == 0
        assert "witness" in out

        z = preset_family("Z", (2, 3, 5))
        z_base = write_json(
            tmp_path / "zbase.json", deformation_to_dict(trivial_deformation(z, 1))
        )
        z_shift = write_json(
            tmp_path / "zshift.json",
            deformation_to_dict(
                make_deformation(z, 1, {2: {1: IntMatrix.from_rows([[2]])}})
            ),
        )
        code, out, _ = run_cli(
            capsys,
            ["deform", "equiv", "--deformation", z_base, "--other", z_shift],
        )
        assert code == 1
        assert "no inner witness" in out
        assert "inequivalent" not in out

    def test_equiv_requires_other(self, capsys, tmp_path):
        z = preset_family("Z", (2, 3, 5))
        path = write_json(
            tmp_path / "z.json", deformation_to_dict(trivial_deformation(z, 1))
        )
        code, _, err = run_cli(capsys, ["deform", "equiv", "--deformation", path])
        assert code == 2

    def test_prefix_mismatch_is_math_error(self, capsys, tmp_path):
        z = preset_family("Z", (2, 3, 5))
        a = write_json(
            tmp_path / "a.json", deformation_to_dict(trivial_deformation(z, 1))
        )
        b = write_json(
            tmp_path / "b.json", deformation_to_dict(trivial_deformation(z, 2))
        )
        code, _, err = run_cli(capsys, ["deform", "equiv", "--deformation", a, "--other", b])
        assert code == 1
        assert "mathematical violation" in err

    def test_normalize_conjugated(self, capsys, tmp_path):
        rc2 = preset_family("RC2", (2, 3, 5))
        u = IntMatrix.from_rows([[0, 0], [0, 2]])
        values = {p: inner_derivation(rc2, u).scale(-1).value(p) for p in (2, 3, 5)}
        conjugated = make_deformation(rc2, 1, {p: {1: values[p]} for p in values})
        path = write_json(tmp_path / "conj.json", deformation_to_dict(conjugated))
        code, out, _ = run_cli(
            capsys,
            ["deform", "normalize", "--deformation", path, "--level", "1", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["normalized"]["terms"] == {}


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        process = subprocess.run(
            [sys.executable, "-m", "lambdaring.cli", "poly", "P", "1"],
            capture_output=True,
            text=True,
        )
        assert process.returncode == 0
        assert process.stdout.strip() == "s1*t1"
