"""Command-line front end.

One invocation runs one subcommand and emits one report, either as
text or as a single JSON document with deterministic key order.  The
seed and every bound that influenced the run are recorded in the
report, so identical configurations produce byte-identical output.

Exit codes: 0 means the computation completed cleanly; 1 means a
mathematical violation or negative outcome (failed verification,
identity mismatch, no extension, no witness, non-inner coefficient);
2 means the input could not be used (bad flags, malformed files,
unknown presets, primes outside the universe, guardrail limits).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from .cochain import (
    IDENTITY_NAMES,
    factored_box,
    run_identity_check,
)
from .cohomology import compute_H0, compute_H1
from .deformation import (
    Deformation,
    check_equivalent_extensions,
    deformation_from_dict,
    deformation_to_dict,
    infinitesimal,
    normalize,
    obstruction,
    try_extend,
    verify_deformation,
)
from .errors import (
    ConfigParseError,
    DivisibilityViolation,
    InconsistentDerivation,
    LimitExceeded,
    NonIntegralDivision,
    NotCoboundary,
    NotFrobeniusCompatible,
    PrefixMismatch,
    UnknownPreset,
    UnknownPrime,
)
from .rings import (
    DEFAULT_PRIMES,
    AdamsFamily,
    PRESET_NAMES,
    PrimeUniverse,
    lambda_from_adams,
    load_ring_file,
    preset_family,
    verify_adams,
    verify_ring,
)
from .symfun import DEFAULT_COMPOSITION_LIMIT, compute_P, compute_P_ij

SCHEMA_VERSION = 1

_INPUT_ERRORS = (
    ConfigParseError,
    UnknownPreset,
    LimitExceeded,
    FileNotFoundError,
    json.JSONDecodeError,
)
_MATH_ERRORS = (
    DivisibilityViolation,
    InconsistentDerivation,
    NonIntegralDivision,
    NotCoboundary,
    NotFrobeniusCompatible,
    PrefixMismatch,
    UnknownPrime,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_primes(text: str) -> PrimeUniverse:
    try:
        primes = tuple(int(chunk) for chunk in text.split(",") if chunk.strip())
    except ValueError as exc:
        raise ConfigParseError(f"bad prime list {text!r}") from exc
    if not primes:
        raise ConfigParseError("the prime list is empty")
    try:
        return PrimeUniverse(tuple(sorted(primes)))
    except ValueError as exc:
        raise ConfigParseError(f"bad prime list {text!r}: {exc}") from exc


def _load_family(args: argparse.Namespace) -> AdamsFamily:
    """Resolve --preset/--ring/--primes into an Adams family."""
    universe: Optional[PrimeUniverse] = None
    if getattr(args, "primes", None):
        universe = _parse_primes(args.primes)
    ring_path = getattr(args, "ring", None)
    preset = getattr(args, "preset", None)
    if ring_path and preset:
        raise ConfigParseError("give either --preset or --ring, not both")
    if ring_path:
        family = load_ring_file(ring_path)
        if universe is None:
            return family
        missing = [p for p in universe if p not in family.universe]
        if missing:
            raise ConfigParseError(
                f"primes {missing} have no Adams data in {ring_path}"
            )
        generators = tuple((p, family.generator(p)) for p in universe)
        return AdamsFamily(family.ring, universe, generators)
    if not preset:
        raise ConfigParseError("one of --preset or --ring is required")
    return preset_family(preset, universe or DEFAULT_PRIMES)


def _load_deformation(path: str) -> Deformation:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read deformation file {path}: {exc}") from exc
    return deformation_from_dict(doc)


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"handler"}
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        echo[key] = value
    return echo


def _emit(
    args: argparse.Namespace,
    command: str,
    universe: Sequence[int],
    bounds: dict,
    results: dict,
    text_lines: Sequence[str],
) -> None:
    if args.format == "json":
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": _config_echo(args),
            "seed": getattr(args, "seed", None),
            "universe": list(universe),
            "bounds": bounds,
            "results": results,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _group_dict(group) -> dict:
    return {
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
        "rendered": group.render(),
    }


# subcommand handlers; each returns the process exit code


def _cmd_ring_verify(args: argparse.Namespace) -> int:
    family = _load_family(args)
    violations = verify_ring(family.ring)
    results = {"violations": violations, "rank": family.rank}
    text = [f"ring rank {family.rank}: " + ("OK" if not violations else "violations")]
    text += [f"  {v}" for v in violations]
    _emit(args, "ring verify", family.universe.primes, {}, results, text)
    return 0 if not violations else 1


def _cmd_adams_verify(args: argparse.Namespace) -> int:
    family = _load_family(args)
    violations = verify_adams(family)
    results = {"violations": violations, "primes": list(family.universe.primes)}
    text = ["Adams data: " + ("OK" if not violations else "violations")]
    text += [f"  {v}" for v in violations]
    _emit(args, "adams verify", family.universe.primes, {}, results, text)
    return 0 if not violations else 1


def _cmd_lambda_from_adams(args: argparse.Namespace) -> int:
    family = _load_family(args)
    try:
        element = tuple(int(c) for c in args.element.split(","))
    except ValueError as exc:
        raise ConfigParseError(f"bad element {args.element!r}: {exc}") from exc
    if len(element) != family.rank:
        raise ConfigParseError(
            f"element needs {family.rank} coordinates, got {len(element)}"
        )
    # Degree n uses the Adams operations at 1..n, so every prime up to n
    # must be in the universe; report the least one that is not.
    missing = next(
        (
            n
            for n in range(2, args.max_degree + 1)
            if n not in family.universe.primes
            and all(n % q for q in range(2, math.isqrt(n) + 1))
        ),
        None,
    )
    if missing is not None:
        raise ConfigParseError(
            f"--max-degree {args.max_degree} needs the prime {missing} in the universe"
        )
    values = lambda_from_adams(family, element, args.max_degree)
    results = {
        "element": list(element),
        "values": [list(v) for v in values],
    }
    text = [f"lambda values of {list(element)} up to degree {args.max_degree}:"]
    text += [f"  lambda_{i}: {list(v)}" for i, v in enumerate(values, start=1)]
    _emit(
        args,
        "lambda from-adams",
        family.universe.primes,
        {"max_degree": args.max_degree},
        results,
        text,
    )
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    bound = args.bound if args.bound is not None else DEFAULT_COMPOSITION_LIMIT
    if args.which == "P":
        if args.i > bound:
            raise LimitExceeded(
                f"index {args.i} exceeds the bound {bound}; raise --bound explicitly"
            )
        polynomial = compute_P(args.i)
    else:
        if args.j is None:
            raise ConfigParseError("poly Pij needs two indices")
        polynomial = compute_P_ij(args.i, args.j, bound)
    results = {
        "kind": polynomial.kind,
        "indices": list(polynomial.indices),
        "text": polynomial.text(),
    }
    _emit(
        args,
        f"poly {args.which}",
        (),
        {"bound": bound},
        results,
        [polynomial.text()],
    )
    return 0


def _cmd_complex_check(args: argparse.Namespace) -> int:
    family = _load_family(args)
    if args.identity not in IDENTITY_NAMES:
        raise ConfigParseError(
            f"unknown identity {args.identity!r}; choose from {IDENTITY_NAMES}"
        )
    dimensions = (
        [args.dimension] if args.dimension is not None else [0, 1, 2]
    )
    reports = []
    mismatches = 0
    for n in dimensions:
        report = run_identity_check(
            family, args.identity, n, args.samples, args.seed + n
        )
        reports.append(report.to_dict())
        mismatches += len(report.failures)
    results = {"checks": reports, "mismatches": mismatches}
    text = [
        f"{args.identity}: {mismatches} mismatches "
        f"(dimensions {dimensions}, samples {args.samples}, seed {args.seed})"
    ]
    for report in reports:
        for failure in report["failures"]:
            text.append(f"  dim {report['dimension']}: {failure}")
    _emit(
        args,
        "complex check",
        family.universe.primes,
        {"samples": args.samples, "dimensions": dimensions},
        results,
        text,
    )
    return 0 if mismatches == 0 else 1


def _cmd_cohomology(args: argparse.Namespace) -> int:
    family = _load_family(args)
    if args.degree == "h0":
        outcome = compute_H0(family)
        results = {
            "group": _group_dict(outcome.group),
            "basis": [list(b.flat()) for b in outcome.basis],
        }
        text = [f"H0 = {outcome.group.render()}"]
        text += [f"  basis: {list(b.flat())}" for b in outcome.basis]
    else:
        outcome = compute_H1(family)
        classes = []
        for cls in outcome.classes:
            classes.append(
                {
                    "order": cls.order,
                    "values": {
                        str(p): list(cls.derivation.value(p).flat())
                        for p in family.universe.primes
                    },
                }
            )
        results = {
            "group": _group_dict(outcome.group),
            "classes": classes,
            "cocycle_rank": len(outcome.cocycle_basis),
        }
        text = [f"H1 = {outcome.group.render()}"]
        for cls in classes:
            label = "infinite order" if cls["order"] == 0 else f"order {cls['order']}"
            text.append(f"  class ({label}): {cls['values']}")
    _emit(args, f"cohomology {args.degree}", family.universe.primes, {}, results, text)
    return 0


def _cmd_deform_verify(args: argparse.Namespace) -> int:
    deformation = _load_deformation(args.deformation)
    report = verify_deformation(deformation)
    results = report.to_dict()
    text = [
        f"deformation of order {deformation.order}: "
        + ("OK" if report.passed else "violations")
    ]
    text += [f"  {f}" for f in report.failures]
    _emit(
        args,
        "deform verify",
        deformation.family.universe.primes,
        {},
        results,
        text,
    )
    return 0 if report.passed else 1


def _cmd_deform_infinitesimal(args: argparse.Namespace) -> int:
    deformation = _load_deformation(args.deformation)
    spec = infinitesimal(deformation)
    results = {
        "values": {
            str(p): list(spec.value(p).flat())
            for p in deformation.family.universe.primes
        },
        "is_cocycle": spec.is_cocycle(),
    }
    text = ["infinitesimal part:"]
    text += [f"  at {p}: {results['values'][str(p)]}" for p in deformation.family.universe.primes]
    text.append(f"  cocycle: {results['is_cocycle']}")
    _emit(
        args,
        "deform infinitesimal",
        deformation.family.universe.primes,
        {},
        results,
        text,
    )
    return 0


def _cmd_deform_obstruction(args: argparse.Namespace) -> int:
    bound = args.bound if args.bound is not None else 2
    if bound < 1:
        raise ConfigParseError(f"--bound must be at least 1 for obstruction, got {bound}")
    deformation = _load_deformation(args.deformation)
    obs = obstruction(deformation)
    box = factored_box(deformation.family.universe, bound, include_one=False)
    entries = []
    for m in box:
        for n in box:
            entries.append(
                {
                    "m": m.value,
                    "n": n.value,
                    "matrix": list(obs.at(m, n).flat()),
                }
            )
    results = {"order": deformation.order, "entries": entries}
    text = [f"obstruction values on the box with exponent sum <= {bound}:"]
    text += [f"  ({e['m']}, {e['n']}): {e['matrix']}" for e in entries]
    _emit(
        args,
        "deform obstruction",
        deformation.family.universe.primes,
        {"bound": bound},
        results,
        text,
    )
    return 0


def _cmd_deform_extend(args: argparse.Namespace) -> int:
    bound = args.bound if args.bound is not None else 3
    if bound < 1:
        raise ConfigParseError(f"--bound must be at least 1 for extend, got {bound}")
    deformation = _load_deformation(args.deformation)
    outcome = try_extend(deformation, bound)
    results = {
        "succeeded": outcome.succeeded,
        "box_size": outcome.box_size,
        "equations": outcome.equations,
    }
    if outcome.succeeded:
        results["extended"] = deformation_to_dict(outcome.extended)
        text = [
            f"extension to order {outcome.extended.order} found "
            f"({outcome.equations} equations over the box)"
        ]
    else:
        text = [
            f"no extension to order {deformation.order + 1} exists "
            f"({outcome.equations} equations over the box)"
        ]
    _emit(
        args,
        "deform extend",
        deformation.family.universe.primes,
        {"bound": bound},
        results,
        text,
    )
    return 0 if outcome.succeeded else 1


def _cmd_deform_normalize(args: argparse.Namespace) -> int:
    deformation = _load_deformation(args.deformation)
    if args.level > deformation.order:
        raise ConfigParseError(
            f"--level {args.level} exceeds the deformation order {deformation.order}"
        )
    normalized, witness = normalize(deformation, args.level)
    results = {
        "witness": list(witness.flat()),
        "normalized": deformation_to_dict(normalized),
    }
    text = [
        f"t^{args.level} coefficient removed by conjugation; witness {list(witness.flat())}"
    ]
    _emit(
        args,
        "deform normalize",
        deformation.family.universe.primes,
        {"level": args.level},
        results,
        text,
    )
    return 0


def _cmd_deform_equiv(args: argparse.Namespace) -> int:
    first = _load_deformation(args.deformation)
    second = _load_deformation(args.other)
    witness = check_equivalent_extensions(first, second)
    results = {
        "witness_found": witness is not None,
        "witness": list(witness.flat()) if witness is not None else None,
    }
    if witness is not None:
        text = [f"equivalent: witness {list(witness.flat())}"]
    else:
        text = [
            "no inner witness: the top terms differ by a nonzero cohomology class"
        ]
    _emit(
        args,
        "deform equiv",
        first.family.universe.primes,
        {},
        results,
        text,
    )
    return 0 if witness is not None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdaring",
        description="Exact cohomology and deformation calculus for rings "
        "with Adams operations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", choices=PRESET_NAMES, help="built-in ring")
    common.add_argument("--ring", help="path to a ring definition file")
    common.add_argument("--primes", help="comma-separated prime universe override")
    common.add_argument("--samples", type=_positive_int, default=100, help="sample count")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--bound", type=int, help="exponent or index bound")
    common.add_argument("--order", type=int, help="deformation order")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", parents=[common], help="ring-level checks")
    ring.add_argument("action", choices=("verify",))
    ring.set_defaults(handler=_cmd_ring_verify)

    adams = sub.add_parser("adams", parents=[common], help="Adams-family checks")
    adams.add_argument("action", choices=("verify",))
    adams.set_defaults(handler=_cmd_adams_verify)

    lam = sub.add_parser(
        "lambda", parents=[common], help="lambda-operation values"
    )
    lam.add_argument("action", choices=("from-adams",))
    lam.add_argument("--element", required=True, help="comma-separated coordinates")
    lam.add_argument("--max-degree", type=_positive_int, default=6)
    lam.set_defaults(handler=_cmd_lambda_from_adams)

    poly = sub.add_parser("poly", parents=[common], help="universal polynomials")
    poly.add_argument("which", choices=("P", "Pij"))
    poly.add_argument("i", type=_positive_int)
    poly.add_argument("j", type=_positive_int, nargs="?")
    poly.set_defaults(handler=_cmd_poly)

    complex_parser = sub.add_parser(
        "complex", parents=[common], help="structural identities of the complex"
    )
    complex_parser.add_argument("action", choices=("check",))
    complex_parser.add_argument("identity", choices=IDENTITY_NAMES)
    complex_parser.add_argument(
        "--dimension", type=int, help="restrict to one cochain dimension"
    )
    complex_parser.set_defaults(handler=_cmd_complex_check)

    cohomology_parser = sub.add_parser(
        "cohomology", parents=[common], help="cohomology groups"
    )
    cohomology_parser.add_argument("degree", choices=("h0", "h1"))
    cohomology_parser.set_defaults(handler=_cmd_cohomology)

    deform = sub.add_parser("deform", parents=[common], help="deformation calculus")
    deform.add_argument(
        "action",
        choices=(
            "verify",
            "infinitesimal",
            "obstruction",
            "extend",
            "normalize",
            "equiv",
        ),
    )
    deform.add_argument(
        "--deformation", required=True, help="path to a deformation file"
    )
    deform.add_argument("--other", help="second deformation file (equiv)")
    deform.add_argument("--level", type=_positive_int, default=1, help="coefficient to remove")
    deform.set_defaults(handler=_cmd_deform_dispatch)
    return parser


def _cmd_deform_dispatch(args: argparse.Namespace) -> int:
    handlers = {
        "verify": _cmd_deform_verify,
        "infinitesimal": _cmd_deform_infinitesimal,
        "obstruction": _cmd_deform_obstruction,
        "extend": _cmd_deform_extend,
        "normalize": _cmd_deform_normalize,
        "equiv": _cmd_deform_equiv,
    }
    if args.action == "equiv" and not args.other:
        raise ConfigParseError("equiv needs --other with the second deformation")
    return handlers[args.action](args)


def entry(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact results can run to tens of thousands of digits; lift the
    # int-to-str limit (Python 3.11+) for rendering and JSON, then restore it.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        previous = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _MATH_ERRORS as exc:
        print(f"mathematical violation: {exc}", file=sys.stderr)
        return 1
    finally:
        if set_digits is not None:
            set_digits(previous)


if __name__ == "__main__":
    sys.exit(entry())
