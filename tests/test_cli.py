"""Command-line interface: exit codes, report formats, determinism."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    child_env,
    noncommuting_family,
    rc3_start_off_the_cocycles,
    seeded_cocycle_start,
)
from lambdaring import cli
from lambdaring.cli import entry
from lambdaring.cochain import IDENTITY_NAMES, random_endomorphism
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
    PRESET_NAMES,
    family_to_dict,
    is_prime,
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
        env=child_env(),
    )


# a prime far above PrimeUniverse.MAX_PRIME: trial division would take minutes
HUGE_PRIME = 1000000000000000003


def malformed_documents():
    """Ring and deformation documents that are unusable input, by name."""
    z = family_to_dict(preset_family("Z", (2,)))
    rc2 = family_to_dict(preset_family("RC2", (2,)))
    z23 = family_to_dict(preset_family("Z", (2, 3)))
    order_one = deformation_to_dict(trivial_deformation(preset_family("Z", (2,)), 1))
    return {
        "rank_zero": {**z, "rank": 0, "structure_constants": [], "unit": []},
        "prime_four": {**z, "primes": [4], "adams": {"4": [1]}},
        "primes_descending": {**z, "primes": [3, 2], "adams": {"2": [1], "3": [1]}},
        "no_primes": {**z, "primes": [], "adams": {}},
        "short_unit": {**rc2, "unit": [1]},
        "adams_not_a_list": {**z, "adams": {"2": 5}},
        # keys that name no universe prime, beside the real entries
        "adams_stray_keys": {**z23, "adams": {"2": [1], "3": [1], "+2": [5], "7": [9]}},
        "prime_above_limit": {**z, "primes": [HUGE_PRIME], "adams": {str(HUGE_PRIME): [1]}},
        "rank_infinite": {**z, "rank": float("inf")},
        "negative_order": {**order_one, "order": -1},
        "order_infinite": {**order_one, "order": float("inf")},
        "order_above_limit": {**order_one, "order": cli.MAX_DEFORMATION_ORDER + 1},
        "term_above_order": {**order_one, "terms": {"2": {"5": [2]}}},
        "terms_a_list": {**order_one, "terms": []},
        "term_entries_a_list": {**order_one, "terms": {"2": [1]}},
        "terms_outside_universe": {**order_one, "terms": {"7": {"1": [7]}}},
        # JSON numbers that are not integers, once truncated or read as 1
        "rank_float": {**z, "rank": 1.0},
        "adams_entry_fractional": {**z, "adams": {"2": [2.5]}},
        "order_fractional": {**order_one, "order": 3.7},
        "order_true": {**order_one, "order": True},
        "family_rank_float": {**order_one, "family": {**z, "rank": 1.0}},
        "family_adams_entry_fractional": {**order_one, "family": {**z, "adams": {"2": [2.5]}}},
        "term_entry_float": {**order_one, "terms": {"2": {"1": [2.0]}}},
    }


def raw_documents():
    """Unusable input files that json.dumps cannot write, as text, by name."""
    z = json.dumps(family_to_dict(preset_family("Z", (2, 3))))
    return {
        # a RecursionError in the JSON decoder
        "deep_array": "[" * 200_000 + "]" * 200_000,
        # json keeps the last value of a repeated key; int() reads "+2" and "01"
        "repeated_key": f'{{"family": {z}, "order": 1, "terms": {{"2": {{"1": [2]}}, "2": {{"1": [4]}}}}}}',
        "signed_prime_key": f'{{"family": {z}, "order": 1, "terms": {{"2": {{"1": [2]}}, "+2": {{"1": [4]}}}}}}',
        "padded_index_key": f'{{"family": {z}, "order": 2, "terms": {{"2": {{"1": [2], "01": [4]}}}}}}',
    }


def first_primes(count):
    primes, n = [], 2
    while len(primes) < count:
        if is_prime(n):
            primes.append(n)
        n += 1
    return tuple(primes)


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


# Argument lists that are unusable input; "{name}" stands for the path of
# the file that contract_paths names so.
UNUSABLE_ARGV = (
    ("lambda", "from-adams", "--preset", "Z", "--element", "x"),
    ("lambda", "from-adams", "--preset", "Z", "--element", "4", "--max-degree", "0"),
    ("poly", "P", "0"),
    ("poly", "P", "3", "2"),
    ("poly", "Pij", "0", "1"),
    ("poly", "Pij", "1", "-2"),
    ("complex", "check", "d-squared", "--preset", "Z", "--samples", "0"),
    ("complex", "check", "d-squared", "--preset", "Z", "--samples", "-5"),
    ("complex", "check", "d-squared", "--preset", "Z", "--dimension", "-1"),
    ("complex", "check", "d-squared", "--preset", "Z", "--dimension", str(cli.MAX_DIMENSION + 1)),
    ("cohomology", "h0", "--preset", "Z", "--primes", "2,2"),
    ("cohomology", "h0", "--preset", "Z", "--primes", "4"),
    ("deform", "normalize", "--deformation", "{order_one}", "--level", "0"),
    ("deform", "normalize", "--deformation", "{order_one}", "--level", "5"),
    ("deform", "obstruction", "--deformation", "{order_one}", "--bound", "0"),
    ("deform", "obstruction", "--deformation", "{order_one}", "--bound", "-3"),
    ("deform", "extend", "--deformation", "{order_one}", "--order", "1"),
    # above the guardrails: |box|^2 * rank^2 = 1139^2 for Z at bound 17
    ("deform", "extend", "--deformation", "{order_one}", "--bound", "17"),
    ("deform", "obstruction", "--deformation", "{order_one}", "--bound", "1000000000"),
    ("complex", "check", "d-squared", "--preset", "Z", "--samples", "100001"),
    ("poly", "P", "13", "--bound", "13"),
    ("ring", "verify", "--ring", "{rank_zero}"),
    ("ring", "verify", "--ring", "{prime_four}"),
    ("ring", "verify", "--ring", "{primes_descending}"),
    ("ring", "verify", "--ring", "{no_primes}"),
    ("ring", "verify", "--ring", "{short_unit}"),
    ("ring", "verify", "--ring", "{adams_not_a_list}"),
    ("adams", "verify", "--ring", "{adams_stray_keys}"),
    ("ring", "verify", "--ring", "{rank_infinite}"),
    ("deform", "verify", "--deformation", "{negative_order}"),
    ("deform", "verify", "--deformation", "{order_infinite}"),
    ("deform", "verify", "--deformation", "{order_above_limit}"),
    ("deform", "extend", "--deformation", "{order_above_limit}", "--bound", "1"),
    ("deform", "verify", "--deformation", "{term_above_order}"),
    ("deform", "verify", "--deformation", "{terms_a_list}"),
    ("deform", "verify", "--deformation", "{term_entries_a_list}"),
    ("deform", "verify", "--deformation", "{terms_outside_universe}"),
    ("ring", "verify", "--ring", "{rank_float}"),
    ("ring", "verify", "--ring", "{adams_entry_fractional}"),
    ("deform", "verify", "--deformation", "{order_fractional}"),
    ("deform", "verify", "--deformation", "{order_true}"),
    ("deform", "verify", "--deformation", "{family_rank_float}"),
    ("deform", "verify", "--deformation", "{family_adams_entry_fractional}"),
    ("deform", "verify", "--deformation", "{term_entry_float}"),
    # above the prime limit, from --primes and from a ring file
    ("cohomology", "h0", "--preset", "Z", "--primes", str(HUGE_PRIME)),
    ("ring", "verify", "--ring", "{prime_above_limit}"),
    # above the limit on samples * (dimension + 2)^2
    ("complex", "check", "cosimplicial", "--preset", "RC3", "--dimension", "10", "--samples", "10000"),
    ("complex", "check", "d-squared", "--preset", "RC3", "--dimension", "10", "--samples", "10000"),
    ("ring", "verify", "--ring", "{deep_array}"),
    ("deform", "verify", "--deformation", "{deep_array}"),
    ("deform", "equiv", "--deformation", "{order_one}", "--other", "{deep_array}"),
    ("deform", "infinitesimal", "--deformation", "{repeated_key}"),
    ("deform", "infinitesimal", "--deformation", "{signed_prime_key}"),
    ("deform", "infinitesimal", "--deformation", "{padded_index_key}"),
)


def contract_paths(tmp_path):
    """Paths of an order-one Z deformation and of every malformed document."""
    z = preset_family("Z", (2, 3, 5))
    paths = {
        name: write_json(tmp_path / f"{name}.json", doc)
        for name, doc in malformed_documents().items()
    }
    paths["order_one"] = write_json(
        tmp_path / "z.json", deformation_to_dict(trivial_deformation(z, 1))
    )
    for name, text in raw_documents().items():
        (tmp_path / f"{name}.json").write_text(text)
        paths[name] = str(tmp_path / f"{name}.json")
    return paths


class TestInputContract:
    @pytest.mark.parametrize("argv", UNUSABLE_ARGV)
    def test_unusable_input_exits_two(self, tmp_path, argv):
        paths = contract_paths(tmp_path)
        process = run_module(*(arg.format(**paths) for arg in argv))
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

    def test_box_limit_names_the_computed_size(self, tmp_path):
        z = preset_family("Z", (2, 3, 5))
        path = write_json(
            tmp_path / "z.json", deformation_to_dict(trivial_deformation(z, 1))
        )
        for action in ("extend", "obstruction"):
            process = run_module("deform", action, "--deformation", path, "--bound", "17")
            assert process.returncode == 2
            assert "1139^2 * 1^2 = 1297321" in process.stderr
            assert str(cli.MAX_BOX_ENTRIES) in process.stderr

    def test_poly_bound_limit_is_named(self):
        process = run_module("poly", "Pij", "1", "1", "--bound", str(cli.MAX_POLY_BOUND + 1))
        assert process.returncode == 2
        assert process.stdout == ""
        assert f"above the limit {cli.MAX_POLY_BOUND}" in process.stderr

    @pytest.mark.parametrize("indices", [("P", "1"), ("Pij", "2", "1")])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_poly_bound_below_one(self, capsys, indices, bound):
        code, out, err = run_cli(capsys, ["poly", *indices, "--bound", bound])
        assert code == 2
        assert out == ""
        assert f"--bound must be at least 1 for poly, got {bound}" in err

    def test_dimension_limit_is_named(self, capsys):
        # refused before the ring is read: the file does not exist
        for dimension in (cli.MAX_DIMENSION + 1, 1000):
            code, out, err = run_cli(
                capsys,
                ["complex", "check", "d-squared", "--ring", "/no/such.json",
                 "--dimension", str(dimension), "--samples", "1"],
            )
            assert code == 2
            assert out == ""
            assert f"--dimension {dimension} is above the limit {cli.MAX_DIMENSION}" in err

    def test_sample_work_limit_is_named(self, capsys):
        # refused before the ring is read: the file does not exist
        for dimension, samples, work in (("10", "10000", 1440000), (None, "25001", 400016)):
            argv = ["complex", "check", "cosimplicial", "--ring", "/no/such.json",
                    "--samples", samples]
            if dimension is not None:
                argv += ["--dimension", dimension]
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert f"= {work}, above the limit {cli.MAX_SAMPLE_WORK}" in err
        code, _, err = run_cli(capsys, ["complex", "check", "d-squared", "--preset", "Z",
                                        "--samples", str(cli.MAX_SAMPLE_WORK // 4),
                                        "--dimension", "0"])
        assert code == 0, err

    @pytest.mark.parametrize("option", ["--ring", "--deformation"])
    def test_unreadable_documents_are_named(self, capsys, tmp_path, option):
        paths = contract_paths(tmp_path)
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "not-json.json").write_text("{not json")
        kind = option[2:]
        argv = ["ring", "verify"] if option == "--ring" else ["deform", "verify"]
        for name, message in (
            ("list.json", "must hold a JSON object"),
            ("not-json.json", "is not valid JSON: Expecting property name"),
            ("deep_array.json", "is not valid JSON: maximum recursion depth exceeded"),
            ("repeated_key.json", "is not valid JSON: key '2' appears twice in one object"),
            ("missing.json", "cannot read"),
        ):
            path = str(tmp_path / name)
            code, out, err = run_cli(capsys, argv + [option, path])
            assert code == 2, name
            assert out == ""
            assert f"{kind} file {path}" in err and message in err, err
        for name, message in (
            ("signed_prime_key", "key '+2' for a prime is not written as 2"),
            ("padded_index_key", "key '01' for an index at 2 is not written as 1"),
        ):
            code, out, err = run_cli(capsys, ["deform", "infinitesimal", "--deformation", paths[name]])
            assert (code, out) == (2, ""), name
            assert message in err

    def test_lambda_degree_limit_is_named(self):
        primes = ",".join(str(p) for p in range(2, 1010) if is_prime(p))
        process = run_module(
            "lambda", "from-adams", "--preset", "Z", "--primes", primes,
            "--element", "4", "--max-degree", str(cli.MAX_LAMBDA_DEGREE + 1),
        )
        assert process.returncode == 2
        assert process.stdout == ""
        assert f"above the limit {cli.MAX_LAMBDA_DEGREE}" in process.stderr

    def test_ring_verify_ends_in_bounded_time(self, tmp_path):
        # dense random rings: every product is nonzero and most checks fail,
        # so each runs all rank^5 steps and prints a line per failure
        limit, work = cli.MAX_RING_RANK, cli.MAX_RING_WORK

        def verify(name, rank, big=0, digits=1, constants=None):
            # one-digit constants, then ``big`` of them at random places
            # replaced by constants of ``digits`` digits, unless the
            # constants are given; written as text, since an int of more
            # than 4300 digits has no str by default
            rng = random.Random(rank)
            pool = ["".join(rng.choices("0123456789", k=digits - 1)) for _ in range(8)]
            if constants is None:
                constants = [str(rng.randint(-9, 9)) for _ in range(rank**3)]
                for k in rng.sample(range(rank**3), big):
                    constants[k] = rng.choice(("", "-")) + str(rng.randint(1, 9)) + rng.choice(pool)
            unit = ", ".join(["1"] + ["0"] * (rank - 1))
            adams = json.dumps(IntMatrix.identity(rank).flat())
            path = tmp_path / f"{name}.json"
            path.write_text(
                f'{{"rank": {rank}, "structure_constants": [{", ".join(constants)}], '
                f'"unit": [{unit}], "primes": [2], "adams": {{"2": {adams}}}}}'
            )
            assert path.stat().st_size <= cli.MAX_DOCUMENT_BYTES, name
            return subprocess.run(
                [sys.executable, "-m", "lambdaring.cli", "ring", "verify", "--ring", str(path)],
                capture_output=True, text=True, env=child_env(), timeout=30,
            )

        for name, rank, big, digits, expected in (
            ("dense", limit, 0, 1, 1),
            ("ten-digit constants at the rank limit", limit, limit**3, 10, 1),
            ("wide digits, small rank", 4, 4**3, 10**4, 1),
            ("wide digits, one rank up", 5, 5**3, 10**4, 2),
            # each constant is charged its own size, so one wide constant is cheap
            ("one wide constant", 10, 1, 10**4, 1),
            ("one 100-digit constant at the rank limit", limit, 1, 100, 1),
            ("wide digits at the rank limit", limit, 1600, 10**4, 2),
            ("long digits at the rank limit", limit, 800, 2000, 2),
            # a wide constant is charged by its partners' sizes too, and
            # most of them are one-digit
            ("fifty wide constants", 10, 50, 10**4, 1),
            ("twenty long constants at the rank limit", limit, 20, 2000, 1),
            ("a hundred long constants at the rank limit", limit, 100, 1000, 1),
        ):
            process = verify(name, rank, big, digits)
            assert process.returncode == expected, (name, process.stderr)
            if expected == 2:
                assert process.stdout == "", name
                assert f"above the limit {work}" in process.stderr, name
        # not commutative: rows 10-19 are zero, and every other product is
        # zero at indices 0-9 and 2,000-digit at 10-19, so each wide
        # constant meets its wide partners in column a only (the checks
        # would take about 7 s; with 8,000 digits, 61 s)
        rng = random.Random(0)
        wide = [str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=1999)) for _ in range(8)]
        constants = [c for i in range(limit) for _ in range(limit)
                     for c in ["0"] * 10 + (rng.choices(wide, k=10) if i < 10 else ["0"] * 10)]
        process = verify("wide only in columns", limit, constants=constants)
        assert process.returncode == 2, process.stderr
        assert f"above the limit {work}" in process.stderr
        process = verify("dense above the rank limit", limit + 1)
        assert process.returncode == 2, process.stderr
        assert process.stdout == ""
        assert f"rank {limit + 1} is above the limit {limit}" in process.stderr

    def test_deformation_order_limit_is_named(self, capsys, tmp_path):
        # built at this order, the series alone would not fit in memory
        z = deformation_to_dict(trivial_deformation(preset_family("Z", (2, 3, 5)), 1))
        path = write_json(tmp_path / "huge.json", {**z, "order": 10**12})
        for action in ("verify", "extend", "normalize"):
            code, out, err = run_cli(capsys, ["deform", action, "--deformation", path])
            assert code == 2, action
            assert out == ""
            assert f"order {10**12} in {path} is above the limit {cli.MAX_DEFORMATION_ORDER}" in err

    def test_prime_limit_is_named(self, capsys, tmp_path):
        ring = contract_paths(tmp_path)["prime_above_limit"]
        for argv in (
            ["cohomology", "h0", "--preset", "Z", "--primes", str(HUGE_PRIME)],
            ["ring", "verify", "--ring", ring],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 2, argv
            assert out == ""
            assert f"{HUGE_PRIME} is above the limit {PrimeUniverse.MAX_PRIME}" in err

    def test_pair_work_limit_is_named(self, capsys, tmp_path):
        above = first_primes(201)  # 201^2 * 1^2 = 40401
        primes = ",".join(map(str, above))
        deformation = write_json(
            tmp_path / "z.json",
            deformation_to_dict(trivial_deformation(preset_family("Z", above), 1)),
        )
        for argv in (
            ["cohomology", "h0", "--preset", "Z", "--primes", primes],
            ["cohomology", "h1", "--preset", "Z", "--primes", primes],
            ["adams", "verify", "--preset", "Z", "--primes", primes],
            ["complex", "check", "leibniz", "--preset", "Z", "--primes", primes],
            ["deform", "infinitesimal", "--deformation", deformation],
            ["deform", "normalize", "--deformation", deformation],
        ):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert f"201^2 * 1^2 = 40401, above the limit {cli.MAX_PAIR_WORK}" in err, argv

    def test_pair_work_limit_counts_the_rank(self, capsys):
        # 67^2 * 3^2 = 40401, while Z over the same primes is far below the limit
        primes = ",".join(map(str, first_primes(67)))
        code, _, err = run_cli(capsys, ["cohomology", "h0", "--preset", "RC3", "--primes", primes])
        assert code == 2
        assert "67^2 * 3^2 = 40401" in err
        code, _, _ = run_cli(capsys, ["adams", "verify", "--preset", "Z", "--primes", primes])
        assert code == 0

    def test_pair_work_limit_spares_what_builds_no_pairs(self, capsys):
        # --max-degree 1000 needs the 168 primes below 1000; ring verify reads no pairs
        primes = ",".join(map(str, first_primes(250)))
        code, out, err = run_cli(
            capsys,
            ["lambda", "from-adams", "--preset", "Z", "--primes", primes,
             "--element", "2", "--max-degree", str(cli.MAX_LAMBDA_DEGREE)],
        )
        assert code == 0, err
        assert "lambda_1000: [0]" in out
        code, _, err = run_cli(capsys, ["ring", "verify", "--preset", "Z", "--primes", primes])
        assert code == 0, err

    def test_verify_box_limit_is_named(self, capsys, tmp_path):
        # over 44 primes the box of exponent sum 2 has 44 + 990 = 1034 elements
        family = preset_family("Z", first_primes(44))
        path = write_json(tmp_path / "z.json", deformation_to_dict(trivial_deformation(family, 1)))
        code, out, err = run_cli(capsys, ["deform", "verify", "--deformation", path])
        assert (code, out) == (2, "")
        assert "1034^2 * 1^2 = 1069156" in err
        assert str(cli.MAX_BOX_ENTRIES) in err

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

    def test_documents_one_byte_over_the_limit_are_refused(self, capsys, monkeypatch, tmp_path):
        doc = json.dumps(deformation_to_dict(trivial_deformation(preset_family("Z", (2, 3)), 1)))
        fits = write_json(tmp_path / "fits.json", json.loads(doc))
        over = tmp_path / "over.json"
        over.write_text(doc + " ")
        monkeypatch.setattr(cli, "MAX_DOCUMENT_BYTES", len(doc))
        code, _, err = run_cli(capsys, ["deform", "equiv", "--deformation", fits, "--other", fits])
        assert code == 0, err
        for option, argv in (
            ("--ring", ["ring", "verify"]),
            ("--deformation", ["deform", "verify"]),
            ("--other", ["deform", "equiv", "--deformation", fits]),
        ):
            code, out, err = run_cli(capsys, argv + [option, str(over)])
            assert (code, out) == (2, ""), option
            assert f"file {over} is longer than the limit of {len(doc)} bytes" in err

    def test_integers_one_digit_over_the_limit_are_refused(self, capsys, tmp_path):
        limit = cli.MAX_INTEGER_DIGITS
        ring = json.dumps(family_to_dict(preset_family("Z", (2, 3))))
        assert '"structure_constants": [1]' in ring
        for sign in ("", "-"):
            fits = tmp_path / f"fits{sign}.json"
            over = tmp_path / f"over{sign}.json"
            for path, digits in ((fits, limit), (over, limit + 1)):
                constant = f'"structure_constants": [{sign}{"7" * digits}]'
                path.write_text(ring.replace('"structure_constants": [1]', constant))
            # the unit law fails: a mathematical negative, so the file was read
            code, out, err = run_cli(capsys, ["ring", "verify", "--ring", str(fits)])
            assert (code, err) == (1, ""), sign
            assert out.startswith("ring rank 1: violations\n"), sign
            code, out, err = run_cli(capsys, ["ring", "verify", "--ring", str(over)])
            assert (code, out) == (2, ""), sign
            assert err == (
                f"input error: ring file {over} holds an integer of {limit + 1} digits, "
                f"above the limit {limit}\n"
            )
        doc = json.dumps(deformation_to_dict(trivial_deformation(preset_family("Z", (2, 3)), 1)))
        assert '"order": 1,' in doc
        path = tmp_path / "order.json"
        path.write_text(doc.replace('"order": 1,', f'"order": 1{"0" * limit},'))
        fits = write_json(tmp_path / "fits.json", json.loads(doc))
        for argv in (
            ["deform", "verify", "--deformation", str(path)],
            ["deform", "equiv", "--deformation", fits, "--other", str(path)],
        ):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, "")
            assert f"deformation file {path} holds an integer of {limit + 1} digits" in err

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_an_endless_document_is_refused(self):
        process = run_module("deform", "extend", "--deformation", "/dev/zero")
        assert process.returncode == 2
        assert "Traceback" not in process.stderr
        assert f"is longer than the limit of {cli.MAX_DOCUMENT_BYTES} bytes" in process.stderr

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
        assert before != 0
        code, out, err = run_cli(
            capsys, ["cohomology", "h1", "--ring", ring, "--format", "json"]
        )
        assert code == 0, err
        assert int_digit_limit() == before
        assert '"rendered": "Z^18"' in out
        longest = max(len(chunk) for chunk in out.replace("-", " ").split())
        assert longest > 4300
        # the limit comes back on the other exits too: an input error, and a
        # t^1 coefficient that is a genuine class, so not inner
        whole_report_files(tmp_path)
        for argv, exit_code in (
            (["cohomology", "h0"], 2),
            (["deform", "normalize", "--deformation", str(tmp_path / "z-class.json")], 1),
        ):
            code, _, err = run_cli(capsys, argv)
            assert code == exit_code, err
            assert int_digit_limit() == before, argv

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

    def test_complex_check_failure_text(self, capsys, tmp_path):
        # recorded when cochain arguments were a factored-integer class
        ring = write_json(tmp_path / "noncommuting.json", family_to_dict(noncommuting_family()))
        code, out, _ = run_cli(
            capsys,
            ["complex", "check", "d-squared", "--ring", ring, "--samples", "4", "--seed", "2"],
        )
        assert code == 1
        assert out.splitlines() == [
            "d-squared: 4 mismatches (dimensions [0, 1, 2], samples 4, seed 2)",
            "  dim 0: d(d(f)) nonzero at (2, 2 * 3)",
            "  dim 0: d(d(f)) nonzero at (2, 2 * 3)",
            "  dim 1: d(d(f)) nonzero at (2, 2 * 3, 2^2)",
            "  dim 2: d(d(f)) nonzero at (2, 2 * 3, 2, 3^2)",
        ]

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


# SHA-256 of the JSON "results" of each report (json.dumps with sorted
# keys), recorded with the elimination engine that walked every row
# position.  The extension and the H1 classes depend on the elimination
# path, so these pin the path as well as the answers.
PINNED_RESULTS = (
    ("deform", "extend", "--deformation", "{rc3_trivial}", "--bound", "2",
     "afdb453aaf463649035340f7c1ee3432d80534b87a393abd4b922347487a4bcb"),
    ("deform", "extend", "--deformation", "{rc3_trivial}", "--bound", "3",
     "b04d3944cccfca84e57e4969e647134a83c5183650301c7782a476097a433b07"),
    ("deform", "extend", "--deformation", "{rc3_trivial}", "--bound", "4",
     "8d0715da32f150ba4c417646c7071ce9854bfa1968852f2161030f2d9061a7c8"),
    ("cohomology", "h1", "--preset", "RC3", "--primes", "2,3,5,7,11,13",
     "ce14a33a787392bca82c805c9db02fb285c67448a40dd823a868100b2f59bac9"),
    ("cohomology", "h1", "--ring", "{zc4}",
     "a2320f1b7b76b48fe0144359622805e07a8f3d8514f69240b9af938efc5cc77f"),
)


# The same digest of `deform extend` on the seeded RC3 cocycle start of
# conftest (seed 1), recorded with the engine that walked every live row
# position.  The trivial deformation above has a zero right-hand side in
# all 3249 rows at bound 3, so its particular solution is 0 on any path;
# this start has 1616 nonzero right-hand sides there, so its extension
# moves with the path.
COCYCLE_EXTENSIONS = {
    "3": "79fb5ff2684c9b4de40ca9d400e7158dde76e23d7e3381ad349f808953ba3eb3",
    "4": "5fd5a35bfb0d0a192642ce626acc21ecb5c30164a9060ad94d7ac0c757cd4651",
    "5": "68e865745f5c9f1433856fd5c7c5cdc64d7d1e997104b07bcf6ead63db207df0",
}


class TestPinnedReports:
    @pytest.mark.parametrize("pinned", PINNED_RESULTS, ids=lambda p: " ".join(p[:2] + p[-2:-1]))
    def test_results_digest(self, capsys, tmp_path, pinned):
        *argv, digest = pinned
        primes = (2, 3, 5, 7)
        zc4 = AdamsFamily(
            _cyclic_group_ring(4, "ZC4"),
            PrimeUniverse(primes),
            tuple((p, _cyclic_adams_matrix(4, p)) for p in primes),
        )
        paths = {
            "rc3_trivial": write_json(
                tmp_path / "rc3.json",
                deformation_to_dict(trivial_deformation(preset_family("RC3", (2, 3, 5)), 1)),
            ),
            "zc4": write_json(tmp_path / "zc4.json", family_to_dict(zc4)),
        }
        assert results_digest(capsys, [arg.format(**paths) for arg in argv]) == digest

    @pytest.mark.parametrize("bound", sorted(COCYCLE_EXTENSIONS))
    def test_cocycle_extension_digest(self, capsys, tmp_path, bound):
        start = deformation_to_dict(seeded_cocycle_start("RC3", 1))
        path = write_json(tmp_path / "rc3-cocycle.json", start)
        argv = ["deform", "extend", "--deformation", path, "--bound", bound]
        assert results_digest(capsys, argv) == COCYCLE_EXTENSIONS[bound]


def results_digest(capsys, argv):
    """SHA-256 of the JSON "results" of a clean run, as PINNED_RESULTS records it."""
    code, out, err = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0, err
    results = json.dumps(json.loads(out)["results"], sort_keys=True)
    return hashlib.sha256(results.encode()).hexdigest()


def whole_report_files(directory):
    """The input files of WHOLE_REPORTS, written into ``directory`` by relative name."""
    rc2 = preset_family("RC2", (2, 3, 5))
    z = preset_family("Z", (2, 3, 5))
    u = IntMatrix.from_rows([[0, 0], [0, 2]])
    inner = inner_derivation(rc2, u)
    documents = {
        "rc2-ring.json": family_to_dict(rc2),
        "scaling.json": deformation_to_dict(
            make_deformation(z, 1, {p: {1: IntMatrix.from_rows([[p]])} for p in (2, 3, 5)})
        ),
        "conjugated.json": deformation_to_dict(
            make_deformation(rc2, 1, {p: {1: inner.scale(-1).value(p)} for p in (2, 3, 5)})
        ),
        "rc2-trivial.json": deformation_to_dict(trivial_deformation(rc2, 1)),
        "rc2-inner.json": deformation_to_dict(
            make_deformation(rc2, 1, {p: {1: inner.value(p)} for p in (2, 3, 5)})
        ),
        "z-trivial.json": deformation_to_dict(trivial_deformation(z, 1)),
        # a genuine H1 class of the integers: not inner, so no witness
        "z-class.json": deformation_to_dict(
            make_deformation(z, 1, {2: {1: IntMatrix.from_rows([[2]])}})
        ),
    }
    for name, doc in documents.items():
        write_json(directory / name, doc)


# One argv for each report label, then the exit-1 outcomes of normalize and
# equiv, with (exit code, SHA-256 of the text stdout, SHA-256 of the JSON
# stdout, stderr).  Recorded before the command table replaced the
# per-command report calls; every report byte is pinned, config echo included.
WHOLE_REPORTS = (
    (("ring", "verify", "--preset", "RC2"),
     0, "dfea18b226231c7d2cec436f81da19d01ac3f6235f4ce4e4142d6e50c0da3698",
     "773a8cfa4e25c4f5e2f20451015313a2a15da7239ab827e77ffeccf35f8abfdd",
     ""),
    (("adams", "verify", "--ring", "rc2-ring.json", "--primes", "2,3"),
     0, "d71d8a4aefe8ff5d4d797b7c3aabd5d25a86a2353e97d8b1d41cd57ad0e941ac",
     "14f03a5eebf0adff45492c82f9db4ecae7a8befb28be4142b1f689a6c60e084c",
     ""),
    (("lambda", "from-adams", "--preset", "Z", "--primes", "2,3,5,7",
      "--element", "9", "--max-degree", "7"),
     0, "075441e08c525ee7d425f0bd56c037cdbe892b38dd8aa1aa1d96b330f3ff49d7",
     "c55127c8c301b4223e0fc5ed08fe313b194c99dd0295c0d89cd289da70942225",
     ""),
    (("poly", "P", "3"),
     0, "17482e518c93cdee7b2e754d3198d4dfb9a2dd3fb84a25ac8e35e38210c0a3d1",
     "1f510f4b5a21b3505ef2b9b5bb48023e9a799b97b7ef57f067853664736f6493",
     ""),
    (("poly", "Pij", "2", "2"),
     0, "da40368006a8bc3f9a37b5abfc15c544bf8b410fc0fc897a1697ae217d0e18ad",
     "143f3babdb79fc1026abd249e7a30d32944127c583d6f1d916a7dc61d006a66d",
     ""),
    (("complex", "check", "d-squared", "--preset", "RC2", "--samples", "5", "--seed", "7"),
     0, "fd4572eacb5242351816a10ae6616740cbe70775da9eb682d8e7bc03db9096fd",
     "1415b7ffbb88b0f0a7ed5c49505b84b4c4de0bdfe036aa2f0da83752dabca02e",
     ""),
    (("cohomology", "h0", "--preset", "RC3"),
     0, "8803dd2a85dd8ea11061a50d895e8a7020d42b1340d0ca145f5b6301b6bde11e",
     "051a7ae87c13627553a796111c52a2471606e94fc3ae9b48ced39b7b45a4897c",
     ""),
    (("cohomology", "h1", "--ring", "rc2-ring.json", "--primes", "2,3"),
     0, "5c6de1059d86485e14db9b4231a5325996827621240e1a19e9a36e26d535e814",
     "ae64e82e949c05bc5b2c4f2aa566b79d7c198b8c73770752e2ec2da67c9e5d3a",
     ""),
    (("deform", "verify", "--deformation", "scaling.json"),
     0, "f0ca82f771189c3aa7914330f0687c511ff6c1a7c2ce26afa2f82861e8184784",
     "ef7bcc9aa6b0676c26b065463a936045948a700647fe824d630f61897c11841e",
     ""),
    (("deform", "infinitesimal", "--deformation", "scaling.json"),
     0, "475d746672f0a19fd13b25ed4db66116fb43d1744b414cbd6cff6fec204d26bf",
     "b864a37031ec22b9180fa0b33c07304ed24f8e2771541e6cb71c75ec7558b770",
     ""),
    (("deform", "obstruction", "--deformation", "scaling.json", "--bound", "2"),
     0, "f5708d11dfb4c8b544e5c104ae6697de931f68b8ea11b8b0dc8e0d9d8372c643",
     "5cf481275128f8e674e922db987178c4417946c63f6c8362d5b24806b1208589",
     ""),
    (("deform", "extend", "--deformation", "scaling.json", "--bound", "2"),
     0, "d49c77d354e5232a4ced36d9de164470e873fa43a554900edadd9178e16ce10c",
     "6ec61530a8b38ba56e6f3ebdb7f11604715b0bc575fd51c2fc3564b8293f9acf",
     ""),
    (("deform", "normalize", "--deformation", "conjugated.json", "--level", "1"),
     0, "ed819f35e1075c836975a2dbaf9c84292d3eec069faa547661ad237952d407ec",
     "549c5ee477a3872cd68c49013735b97821780451782c7263e804cf75995fcbbe",
     ""),
    (("deform", "equiv", "--deformation", "rc2-trivial.json", "--other", "rc2-inner.json"),
     0, "47bc7bc6aec404c67658e3cfe7412d128c0983feb47ba4fc91aad2c53edf0d9b",
     "bf817614b438c6b460bb5c83992151431302f60fffa7b553b024c8c1732ddca0",
     ""),
    (("deform", "normalize", "--deformation", "z-class.json"),
     1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "mathematical violation: the t^1 coefficient is not an inner derivation\n"),
    (("deform", "equiv", "--deformation", "z-trivial.json", "--other", "z-class.json"),
     1, "a1aab84a1aa4efb03ac5a2b0d70979be082c26753340d03cb7644139a9beee6d",
     "039ff8769d8dbf4859619661609ca0e3d8e27f5b2ce737504f7503bc09507442",
     ""),
)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestWholeReports:
    @pytest.mark.parametrize(
        "pinned", WHOLE_REPORTS, ids=lambda p: " ".join(p[0][:2]) + f" exit {p[1]}"
    )
    def test_report_bytes(self, capsys, monkeypatch, tmp_path, pinned):
        argv, code, text_digest, json_digest, stderr = pinned
        whole_report_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        text = run_cli(capsys, list(argv))
        as_json = run_cli(capsys, [*argv, "--format", "json"])
        assert (text[0], sha256(text[1]), text[2]) == (code, text_digest, stderr)
        assert (as_json[0], sha256(as_json[1]), as_json[2]) == (code, json_digest, stderr)

    def test_every_label_is_pinned(self):
        labels = {" ".join(argv[:2]) for argv, code, *_ in WHOLE_REPORTS if code == 0}
        assert len(labels) == 14


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

    @pytest.mark.parametrize("key", ["+2", "7", "03", " 3", "x"])
    def test_stray_adams_keys_are_refused(self, capsys, tmp_path, key):
        doc = family_to_dict(preset_family("Z", (2, 3)))
        doc["adams"][key] = [5]
        ring = write_json(tmp_path / "stray.json", doc)
        code, out, err = run_cli(capsys, ["adams", "verify", "--ring", ring])
        assert (code, out) == (2, "")
        assert repr(key) in err

    def test_malformed_ring_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["ring", "verify", "--ring", str(path)])
        assert code == 2


class TestDeformWorkflows:
    def test_extend_reports_that_no_extension_exists(self, capsys, tmp_path):
        start = rc3_start_off_the_cocycles()
        path = write_json(tmp_path / "start.json", deformation_to_dict(start))
        argv = ["deform", "extend", "--deformation", path, "--bound", "2"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (1, "")
        assert out == "no extension to order 2 exists (225 equations over the box)\n"
        code, out, err = run_cli(capsys, argv + ["--format", "json"])
        assert (code, err) == (1, "")
        assert json.loads(out)["results"] == {"box_size": 5, "equations": 225, "succeeded": False}

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
            env=child_env(),
        )
        assert process.returncode == 0
        assert process.stdout.strip() == "s1*t1"

    def test_reads_sys_argv(self, capsys):
        argv = ["cohomology", "h0", "--preset", "Z", "--format", "json"]
        process = run_module(*argv)
        assert (process.returncode, process.stdout, process.stderr) == run_cli(capsys, argv)


# --- parser parity: one command's parser behaves as the whole tree ----------


def reference_parser():
    """The parser tree built whole: every command, common options from a parent."""
    parser = argparse.ArgumentParser(
        prog="lambdaring",
        description="Exact cohomology and deformation calculus for rings "
        "with Adams operations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", choices=PRESET_NAMES, help="built-in ring")
    common.add_argument("--ring", help="path to a ring definition file")
    common.add_argument("--primes", help="comma-separated prime universe override")
    common.add_argument("--samples", type=cli._positive_int, default=100, help="sample count")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--bound", type=int, help="exponent or index bound")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", parents=[common], help="ring-level checks")
    ring.add_argument("action", choices=("verify",))

    adams = sub.add_parser("adams", parents=[common], help="Adams-family checks")
    adams.add_argument("action", choices=("verify",))

    lam = sub.add_parser("lambda", parents=[common], help="lambda-operation values")
    lam.add_argument("action", choices=("from-adams",))
    lam.add_argument("--element", required=True, help="comma-separated coordinates")
    lam.add_argument("--max-degree", type=cli._positive_int, default=6)

    poly = sub.add_parser("poly", parents=[common], help="universal polynomials")
    poly.add_argument("which", choices=("P", "Pij"))
    poly.add_argument("i", type=cli._positive_int)
    poly.add_argument("j", type=cli._positive_int, nargs="?")

    complex_parser = sub.add_parser(
        "complex", parents=[common], help="structural identities of the complex"
    )
    complex_parser.add_argument("action", choices=("check",))
    complex_parser.add_argument("identity", choices=IDENTITY_NAMES)
    complex_parser.add_argument(
        "--dimension", type=int, help="restrict to one cochain dimension"
    )

    cohomology_parser = sub.add_parser("cohomology", parents=[common], help="cohomology groups")
    cohomology_parser.add_argument("degree", choices=("h0", "h1"))

    deform = sub.add_parser("deform", parents=[common], help="deformation calculus")
    deform.add_argument(
        "action",
        choices=("verify", "infinitesimal", "obstruction", "extend", "normalize", "equiv"),
    )
    deform.add_argument("--deformation", required=True, help="path to a deformation file")
    deform.add_argument("--other", help="second deformation file (equiv)")
    deform.add_argument("--level", type=cli._positive_int, default=1, help="coefficient to remove")
    return parser


COMMAND_NAMES = ("ring", "adams", "lambda", "poly", "complex", "cohomology", "deform")
# What argparse itself answers, then the argv of TestInputContract; its
# H1 of Z[C6] is left out, the one slow run among them.
PARITY_ARGV = (
    ("--help",),
    *((name, "--help") for name in COMMAND_NAMES),
    (),
    ("bogus",),
    ("--preset", "Z", "cohomology", "h0"),
    ("cohomology", "h0", "--preset", "Z", "--bogus"),
    ("cohomology", "h2", "--preset", "Z"),
    ("cohomology", "h0", "--preset", "Z", "--prim", "2"),
    *UNUSABLE_ARGV,
    ("deform", "extend", "--deformation", "{order_one}", "--bound", "0"),
    ("deform", "extend", "--deformation", "{order_one}", "--bound", "-1"),
    ("deform", "obstruction", "--deformation", "{order_one}", "--bound", "17"),
    ("poly", "Pij", "1", "1", "--bound", "13"),
    ("lambda", "from-adams", "--preset", "Z", "--primes", "{primes_to_1009}",
     "--element", "4", "--max-degree", "1001"),
    ("deform", "extend", "--deformation", "{directory}"),
    ("deform", "verify", "--deformation", "{binary}"),
    ("ring", "verify", "--ring", "{binary}"),
    ("lambda", "from-adams", "--preset", "Z", "--element", "4", "--max-degree", "7"),
    ("lambda", "from-adams", "--preset", "Z", "--primes", "2,3,5,7",
     "--element", "9", "--max-degree", "7", "--format", "json"),
    ("lambda", "from-adams", "--preset", "Z", "--element", "1" + "0" * 5000, "--max-degree", "2"),
)


def outcome(capsys, argv):
    """Exit code, stdout and stderr of entry(argv), argparse's exits included."""
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserParity:
    @pytest.mark.parametrize("argv", PARITY_ARGV)
    def test_same_outcome_as_the_whole_tree(self, capsys, monkeypatch, tmp_path, argv):
        paths = contract_paths(tmp_path)
        paths["primes_to_1009"] = ",".join(str(p) for p in range(2, 1010) if is_prime(p))
        paths["directory"] = str(tmp_path)
        paths["binary"] = str(tmp_path / "binary.json")
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00binary")
        argv = [arg.format(**paths) for arg in argv]

        built = []
        build_parser = cli.build_parser

        def spy(command=None):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        got = outcome(capsys, argv)
        monkeypatch.setattr(cli, "build_parser", lambda command=None: reference_parser())
        want = outcome(capsys, argv)
        assert got == want
        assert built == [argv[0] if argv and argv[0] in COMMAND_NAMES else None]


# --- argv fuzz: the exit-code contract for any argument list ---------------

# Positional words of each command, and the options its parser knows
# beyond the common ones.
FUZZ_COMMANDS = (
    (("ring", "verify"), ()),
    (("adams", "verify"), ()),
    (("lambda", "from-adams"), ("--element", "--max-degree")),
    (("poly", "P"), ()),
    (("poly", "Pij"), ()),
    (("complex", "check", "d-squared"), ("--dimension",)),
    (("complex", "check", "cosimplicial"), ("--dimension",)),
    (("complex", "check", "leibniz"), ("--dimension",)),
    (("cohomology", "h0"), ()),
    (("cohomology", "h1"), ()),
    (("deform", "verify"), ("--deformation", "--other", "--level")),
    (("deform", "infinitesimal"), ("--deformation", "--other", "--level")),
    (("deform", "obstruction"), ("--deformation", "--other", "--level")),
    (("deform", "extend"), ("--deformation", "--other", "--level")),
    (("deform", "normalize"), ("--deformation", "--other", "--level")),
    (("deform", "equiv"), ("--deformation", "--other", "--level")),
)
COMMON_OPTIONS = (
    "--preset", "--ring", "--primes", "--samples", "--seed", "--bound", "--format",
)
# (usable values, bad values) of each option and of the poly indices.
# Every value is small, so any parse the grammar allows finishes in milliseconds.
FUZZ_VALUES = {
    "--preset": (("Z", "RC2", "RC3"), ("RC9", "")),
    "--primes": (("2", "2,3", "2,3,5", "3,5"), ("2,2", "4", "0", "-2", "", "x", "2,,3")),
    "--samples": (("1", "2"), ("0", "-1", "x")),
    "--seed": (("0", "1", "3"), ("-2", "y")),
    "--bound": (("1", "2"), ("0", "-1", "1.5")),
    "--format": (("text", "json"), ("xml",)),
    "--element": (("1", "-3", "0", "1,2", "1,2,3"), ("x", "", "1,,2")),
    "--max-degree": (("1", "2", "3", "7"), ("0", "-2", "1001")),
    "--dimension": (("0", "1", "2", "3"), ("-1", "z", str(cli.MAX_DIMENSION + 1))),
    "--level": (("1", "2"), ("0", "-1", "q")),
    "index": (("1", "2", "3"), ("0", "-1", "x")),
}
JUNK = (
    "", "-", "--", "x", "-1", "0", "nan", "1e3", "--bogus", "2,x", "--bound", "--samples", "ψ",
    "deform",
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    z = preset_family("Z", (2, 3, 5))
    rc2 = preset_family("RC2", (2, 3))
    scaling = make_deformation(z, 1, {p: {1: IntMatrix.from_rows([[p]])} for p in (2, 3, 5)})
    (root / "not-json.json").write_text("{not json")
    (root / "binary.json").write_bytes(b"\xff\xfe\x00")
    (root / "empty.json").write_text("{}")
    ring = write_json(root / "z-ring.json", family_to_dict(z))
    deformations = (
        write_json(root / "z-trivial.json", deformation_to_dict(trivial_deformation(z, 1))),
        write_json(root / "z-scaling.json", deformation_to_dict(scaling)),
        write_json(root / "rc2-trivial.json", deformation_to_dict(trivial_deformation(rc2, 1))),
    )
    raw = raw_documents()
    for name, text in raw.items():
        (root / f"{name}.json").write_text(text)
    documents = malformed_documents()
    malformed = tuple(
        write_json(root / f"{name}.json", documents[name])
        for name in (
            "rank_zero",
            "adams_not_a_list",
            "terms_a_list",
            "terms_outside_universe",
            "order_fractional",
            "family_rank_float",
            "adams_stray_keys",
        )
    )
    # the last one names the directory itself
    unusable = tuple(
        str(root / name)
        for name in ("not-json.json", "binary.json", "empty.json", "missing.json", "")
    ) + tuple(str(root / f"{name}.json") for name in raw)
    # each file option: (usable files, malformed documents, other unusable paths)
    return {
        "--ring": ((ring,), malformed, deformations[:1] + unusable),
        "--deformation": (deformations, malformed, (ring,) + unusable),
        "--other": (deformations, malformed, (ring,) + unusable),
    }


def fuzz_argv(data, files):
    """An argv that mostly follows the grammar, with bad values and junk tokens."""
    from hypothesis import strategies as st

    def value(name):
        if name in files:
            # a file draws from its own pools, so that the malformed
            # documents come up about as often as the usable files
            return data.draw(st.one_of(*(st.sampled_from(pool) for pool in files[name])))
        good, bad = FUZZ_VALUES[name]
        return data.draw(st.sampled_from(bad if data.draw(st.integers(0, 5)) == 5 else good))

    words, own = data.draw(st.sampled_from(FUZZ_COMMANDS))
    argv = list(words)
    if words[0] == "poly":
        argv += [value("index") for _ in range(data.draw(st.integers(1, 3)))]
    required = {"lambda": ["--element"], "deform": ["--deformation"]}.get(words[0], [])
    if words[0] in ("ring", "adams", "lambda", "complex", "cohomology"):
        required.append(data.draw(st.sampled_from(("--preset", "--preset", "--ring"))))
    # the defaults (100 samples, bound 3) are slower than a fuzz example should be
    required.append({"complex": "--samples", "deform": "--bound"}.get(words[0], "--format"))
    optional = [n for n in COMMON_OPTIONS + own if n not in required]
    names = required + data.draw(st.lists(st.sampled_from(optional), max_size=3, unique=True))
    for name in data.draw(st.permutations(names)):
        argv += [name, value(name)]
    if data.draw(st.integers(0, 2)) == 2:
        for _ in range(data.draw(st.integers(1, 2))):
            position = data.draw(st.integers(0, len(argv)))
            argv.insert(position, data.draw(st.sampled_from(JUNK)))
    return argv


def file_argv(option, path, files):
    """An argv whose only input of note is ``path`` given to ``option``."""
    if option == "--ring":
        return ["adams", "verify", "--ring", path]
    if option == "--deformation":
        return ["deform", "verify", "--deformation", path]
    usable = files["--deformation"][0][0]
    return ["deform", "equiv", "--deformation", usable, "--other", path]


class TestArgvFuzz:
    def test_exit_codes_hold_for_any_argv(self, fuzz_files):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        called = []

        def run(argv):
            called.append(argv)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = entry(argv)
                except SystemExit as exc:
                    assert exc.code == 2, (argv, err.getvalue())
                    code = 2
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue(), argv
            return code

        @hypothesis.settings(
            max_examples=200,
            deadline=None,
            derandomize=True,
            suppress_health_check=list(hypothesis.HealthCheck),
        )
        @hypothesis.given(st.data())
        def check(data):
            run(fuzz_argv(data, fuzz_files))

        check()
        # Beside the draws, every file of every pool once: the usable files
        # end in 0 or 1, the malformed and the other unusable ones in 2.
        for option, pools in fuzz_files.items():
            for codes, pool in zip(((0, 1), (2,), (2,)), pools):
                for path in pool:
                    argv = file_argv(option, path, fuzz_files)
                    assert run(argv) in codes, argv
        named = {arg for argv in called for arg in argv}
        every = {path for pools in fuzz_files.values() for pool in pools for path in pool}
        assert every <= named, every - named


# --- python -O: no assert statements, the same reports ---------------------


class TestOptimizedMode:
    def test_library_has_no_assert_statements(self):
        package = Path(__file__).resolve().parent.parent / "src" / "lambdaring"
        sources = sorted(package.glob("*.py"))
        assert sources
        found = []
        for path in sources:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
        assert not found, f"assert statements vanish under python -O: {found}"

    def test_extend_report_is_identical_under_dash_o(self, tmp_path):
        rc2 = preset_family("RC2", (2, 3))
        path = write_json(tmp_path / "rc2.json", deformation_to_dict(trivial_deformation(rc2, 1)))
        # the packed build of the extension system with nonzero obstructions
        seeded = write_json(tmp_path / "rc3.json", deformation_to_dict(seeded_cocycle_start("RC3", 1)))
        runs = [
            (
                ["deform", "extend", "--deformation", path, "--bound", "2"],
                b'"succeeded": true',
            ),
            (
                ["deform", "extend", "--deformation", seeded, "--bound", "3"],
                b'"equations": 3249',
            ),
            (
                ["complex", "check", "cosimplicial", "--preset", "RC3"],
                b'"passed": true',
            ),
            (
                ["complex", "check", "leibniz", "--preset", "RC3"],
                b'"passed": true',
            ),
            (
                ["complex", "check", "d-squared", "--preset", "RC2"],
                b'"passed": true',
            ),
            (
                ["cohomology", "h1", "--preset", "RC3"],
                b'"rendered": "Z^9"',
            ),
            # the Smith self-check multiplies rectangular matrices
            (
                ["cohomology", "h1", "--preset", "RC3", "--primes", "2,3,5,7,11,13"],
                b'"rendered": "Z^18"',
            ),
            (
                ["cohomology", "h0", "--preset", "RC3"],
                b'"rendered": "Z^3"',
            ),
        ]
        for command, marker in runs:
            argv = ["-m", "lambdaring.cli", *command, "--format", "json"]
            plain = subprocess.run([sys.executable, *argv], capture_output=True, env=child_env())
            optimized = subprocess.run(
                [sys.executable, "-O", *argv], capture_output=True, env=child_env()
            )
            assert plain.returncode == optimized.returncode == 0, optimized.stderr
            assert marker in plain.stdout
            assert optimized.stdout == plain.stdout

    def test_smith_check_raises_under_dash_o(self):
        # a corrupted transform must still be caught by matrix @ v == u_inv @ d
        script = (
            "from lambdaring import exactalg\n"
            "from lambdaring.errors import InternalInconsistency\n"
            "original = exactalg._Eliminator.diagonalize\n"
            "matrix = exactalg.IntMatrix.from_rows([[2, 4, 1], [6, 8, 3]])\n"
            "for transform in ('v', 'u_inv'):\n"
            "    def corrupted(work):\n"
            "        used = original(work)\n"
            "        getattr(work, transform)[1][0] += 1\n"
            "        return used\n"
            "    exactalg._Eliminator.diagonalize = corrupted\n"
            "    try:\n"
            "        exactalg.smith_normal_form(matrix)\n"
            "    except InternalInconsistency:\n"
            "        print('caught', transform)\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, env=child_env()
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == b"caught v\ncaught u_inv\n"
