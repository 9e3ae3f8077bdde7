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
    family_from_dict,
    is_prime,
    lambda_from_adams,
    preset_family,
    verify_adams,
    verify_ring,
)
from .symfun import DEFAULT_COMPOSITION_LIMIT, compute_P, compute_P_ij

SCHEMA_VERSION = 1

# Guardrails, checked before anything is built: deform extend and deform
# obstruction refuse a box whose pairs carry more than MAX_BOX_ENTRIES =
# |box|^2 * rank^2 matrix entries, and so does deform verify for the box
# of exponent sum 2 that its product law pairs; every command but ring
# verify and lambda from-adams refuses a family whose pairwise and
# compatibility systems, with one rank x rank block per pair of primes,
# would pass MAX_PAIR_WORK = |universe|^2 * rank^2 (Z over 200 primes);
# complex check refuses a --dimension
# above MAX_DIMENSION or more than MAX_SAMPLE_WORK = samples *
# (dimension + 2)^2, dimension 2 when none is given (so at most 100,000
# samples at dimension 0), poly refuses a --bound above MAX_POLY_BOUND,
# lambda from-adams refuses a --max-degree above MAX_LAMBDA_DEGREE,
# deform refuses a deformation document whose order is above
# MAX_DEFORMATION_ORDER, and ring verify, whose checks take rank^5 products,
# refuses a rank above MAX_RING_RANK or rank^2 times the sum over the
# rank^3 structure constants of RING_STEP_OVERHEAD + bits^1.6 above
# MAX_RING_WORK: each constant enters about rank^2 of the checks'
# products, a product of b-bit ints takes about b^1.6 steps, and each
# check step costs the interpreter about as much as 5,000 of them (a dense
# random ring takes about 1 s at rank 20 with one- to twenty-digit
# constants or at rank 4 with 10^4 digits).  Every
# --ring, --deformation and --other file is refused when it is longer than
# MAX_DOCUMENT_BYTES or holds an integer longer than MAX_INTEGER_DIGITS
# digits (decimal text converts in quadratic time); an order-50 RC3
# deformation over six primes, extended from a random cocycle, is about
# 0.5 MB, with integers of about 650 digits.
MAX_BOX_ENTRIES = 10**6
MAX_PAIR_WORK = 40_000
MAX_DIMENSION = 10
MAX_SAMPLE_WORK = 400_000
MAX_POLY_BOUND = 12
MAX_LAMBDA_DEGREE = 1000
MAX_DEFORMATION_ORDER = 50
MAX_RING_RANK = 20
MAX_RING_WORK = 2 * 10**10
RING_STEP_OVERHEAD = 5000
MAX_DOCUMENT_BYTES = 16 * 2**20
MAX_INTEGER_DIGITS = 10**4
_READ_PIECE = 2**16

_INPUT_ERRORS = (ConfigParseError, UnknownPreset, LimitExceeded)
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


def _unique_members(pairs: list) -> dict:
    """A JSON object's members; a key given twice is malformed."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ValueError(f"key {key!r} appears twice in one object")
        members[key] = value
    return members


def _document_int(text: str) -> int:
    digits = len(text.lstrip("-"))
    if digits > MAX_INTEGER_DIGITS:
        raise LimitExceeded(f"an integer of {digits} digits, above the limit {MAX_INTEGER_DIGITS}")
    return int(text)


def _read_document(path: str, kind: str) -> dict:
    """The JSON object in the ``kind`` file at ``path``.

    A file longer than MAX_DOCUMENT_BYTES, read no further than one byte
    past it, or holding an integer longer than MAX_INTEGER_DIGITS digits,
    is a LimitExceeded; any other failure is a ConfigParseError.
    """
    try:
        # in pieces, so that memory follows the file, not the limit
        data = bytearray()
        with open(path, "rb") as handle:
            while len(data) <= MAX_DOCUMENT_BYTES:
                piece = handle.read(min(_READ_PIECE, MAX_DOCUMENT_BYTES + 1 - len(data)))
                if not piece:
                    break
                data += piece
        if len(data) > MAX_DOCUMENT_BYTES:
            raise LimitExceeded(
                f"{kind} file {path} is longer than the limit of {MAX_DOCUMENT_BYTES} bytes"
            )
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_members, parse_int=_document_int)
    except LimitExceeded as exc:
        raise LimitExceeded(f"{kind} file {path} holds {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ConfigParseError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{kind} file {path} must hold a JSON object")
    return doc


def _load_family(args: argparse.Namespace) -> AdamsFamily:
    """Resolve --preset/--ring/--primes into an Adams family."""
    universe = _parse_primes(args.primes) if args.primes else None
    if args.ring and args.preset:
        raise ConfigParseError("give either --preset or --ring, not both")
    if args.ring:
        family = family_from_dict(_read_document(args.ring, "ring"))
        if universe is None:
            return family
        missing = [p for p in universe if p not in family.universe]
        if missing:
            raise ConfigParseError(
                f"primes {missing} have no Adams data in {args.ring}"
            )
        generators = tuple((p, family.generator(p)) for p in universe)
        return AdamsFamily(family.ring, universe, generators)
    if not args.preset:
        raise ConfigParseError("one of --preset or --ring is required")
    return preset_family(args.preset, universe or DEFAULT_PRIMES)


def _check_pair_work(family: AdamsFamily) -> AdamsFamily:
    """The family, refused if its pairwise and compatibility systems are too large."""
    primes = len(family.universe.primes)
    work = primes**2 * family.rank**2
    if work > MAX_PAIR_WORK:
        raise LimitExceeded(
            f"{primes} primes at rank {family.rank} give |universe|^2 * rank^2 = "
            f"{primes}^2 * {family.rank}^2 = {work}, above the limit {MAX_PAIR_WORK}"
        )
    return family


def _load_deformation(path: str) -> Deformation:
    doc = _read_document(path, "deformation")
    order = doc.get("order")
    # any other order is malformed, and deformation_from_dict says so
    if type(order) is int and order > MAX_DEFORMATION_ORDER:
        raise LimitExceeded(
            f"deformation order {order} in {path} is above the limit {MAX_DEFORMATION_ORDER}"
        )
    deformation = deformation_from_dict(doc)
    _check_pair_work(deformation.family)
    return deformation


def _check_box(family: AdamsFamily, bound: int, source: str) -> None:
    """Refuse the box of exponent sum 1..bound if its pairs carry too many entries."""
    # the box holds the exponent vectors over the primes with sum 1..bound
    primes = len(family.universe.primes)
    box_size = math.comb(bound + primes, primes) - 1
    entries = box_size**2 * family.rank**2
    if entries > MAX_BOX_ENTRIES:
        raise LimitExceeded(
            f"{source} gives |box|^2 * rank^2 = {box_size}^2 * {family.rank}^2 = "
            f"{entries} matrix entries, above the limit {MAX_BOX_ENTRIES}"
        )


def _bounded_box(args: argparse.Namespace, default: int) -> tuple[int, Deformation]:
    """The --bound and the deformation of a box command, refused if the box is too large."""
    bound = args.bound if args.bound is not None else default
    if bound < 1:
        raise ConfigParseError(f"--bound must be at least 1 for {args.action}, got {bound}")
    deformation = _load_deformation(args.deformation)
    _check_box(deformation.family, bound, f"--bound {bound}")
    return bound, deformation


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
            "config": {k: v for k, v in sorted(vars(args).items()) if v is not None},
            "seed": args.seed,
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


# Subcommand handlers.  Each computes its report and returns it as (exit
# code, universe, bounds, results, text lines); entry alone renders it.
_Report = tuple[int, Sequence[int], dict, dict, list]


def _verdict(name: str, violations: Sequence[str], primes: Sequence[int], results: dict) -> _Report:
    """The report of a verify command: exit code 1 and one indented line per violation, if any."""
    text = [f"{name}: " + ("violations" if violations else "OK")]
    text += [f"  {v}" for v in violations]
    return int(bool(violations)), primes, {}, results, text


def _cmd_ring_verify(args: argparse.Namespace) -> _Report:
    family = _load_family(args)
    if family.rank > MAX_RING_RANK:
        raise LimitExceeded(
            f"ring verify checks rank^5 products: rank {family.rank} is above the limit "
            f"{MAX_RING_RANK}"
        )
    constants = [c for row in family.ring.structure for v in row for c in v]
    total = sum(RING_STEP_OVERHEAD + round(abs(c).bit_length() ** 1.6) for c in constants)
    work = family.rank**2 * total
    if work > MAX_RING_WORK:
        raise LimitExceeded(
            f"ring verify checks rank^5 products: rank^2 * the sum over the structure constants "
            f"of ({RING_STEP_OVERHEAD} + bits^1.6) = {family.rank}^2 * {total} = {work}, "
            f"above the limit {MAX_RING_WORK}"
        )
    violations = verify_ring(family.ring)
    results = {"violations": violations, "rank": family.rank}
    return _verdict(f"ring rank {family.rank}", violations, family.universe.primes, results)


def _cmd_adams_verify(args: argparse.Namespace) -> _Report:
    family = _check_pair_work(_load_family(args))
    violations = verify_adams(family)
    results = {"violations": violations, "primes": list(family.universe.primes)}
    return _verdict("Adams data", violations, family.universe.primes, results)


def _cmd_lambda_from_adams(args: argparse.Namespace) -> _Report:
    if args.max_degree > MAX_LAMBDA_DEGREE:
        raise LimitExceeded(
            f"--max-degree {args.max_degree} is above the limit {MAX_LAMBDA_DEGREE}"
        )
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
            if is_prime(n) and n not in family.universe.primes
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
    return 0, family.universe.primes, {"max_degree": args.max_degree}, results, text


def _cmd_poly(args: argparse.Namespace) -> _Report:
    bound = args.bound if args.bound is not None else DEFAULT_COMPOSITION_LIMIT
    if bound < 1:
        raise ConfigParseError(f"--bound must be at least 1 for poly, got {bound}")
    if bound > MAX_POLY_BOUND:
        raise LimitExceeded(f"--bound {bound} is above the limit {MAX_POLY_BOUND}")
    if args.which == "P":
        if args.j is not None:
            raise ConfigParseError("poly P takes one index")
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
    return 0, (), {"bound": bound}, results, [polynomial.text()]


def _cmd_complex_check(args: argparse.Namespace) -> _Report:
    if args.dimension is not None and args.dimension < 0:
        raise ConfigParseError(f"--dimension must be at least 0, got {args.dimension}")
    if args.dimension is not None and args.dimension > MAX_DIMENSION:
        raise LimitExceeded(f"--dimension {args.dimension} is above the limit {MAX_DIMENSION}")
    dimension = 2 if args.dimension is None else args.dimension
    work = args.samples * (dimension + 2) ** 2
    if work > MAX_SAMPLE_WORK:
        raise LimitExceeded(
            f"--samples {args.samples} at dimension {dimension} gives samples * "
            f"(dimension + 2)^2 = {work}, above the limit {MAX_SAMPLE_WORK}"
        )
    family = _check_pair_work(_load_family(args))
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
    bounds = {"samples": args.samples, "dimensions": dimensions}
    return int(mismatches > 0), family.universe.primes, bounds, results, text


def _cmd_h0(args: argparse.Namespace) -> _Report:
    family = _check_pair_work(_load_family(args))
    outcome = compute_H0(family)
    results = {
        "group": _group_dict(outcome.group),
        "basis": [list(b.flat()) for b in outcome.basis],
    }
    text = [f"H0 = {outcome.group.render()}"]
    text += [f"  basis: {list(b.flat())}" for b in outcome.basis]
    return 0, family.universe.primes, {}, results, text


def _cmd_h1(args: argparse.Namespace) -> _Report:
    family = _check_pair_work(_load_family(args))
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
    return 0, family.universe.primes, {}, results, text


def _cmd_deform_verify(args: argparse.Namespace) -> _Report:
    deformation = _load_deformation(args.deformation)
    # the product law is sampled on every pair of the box of exponent sum 2
    _check_box(deformation.family, 2, "the product law's exponent sum 2")
    report = verify_deformation(deformation)
    name = f"deformation of order {deformation.order}"
    return _verdict(name, report.failures, deformation.family.universe.primes, report.to_dict())


def _cmd_deform_infinitesimal(args: argparse.Namespace) -> _Report:
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
    return 0, deformation.family.universe.primes, {}, results, text


def _cmd_deform_obstruction(args: argparse.Namespace) -> _Report:
    bound, deformation = _bounded_box(args, 2)
    obs = obstruction(deformation)
    box = factored_box(deformation.family.universe, bound, include_one=False)
    entries = []
    for m in box:
        for n in box:
            entries.append(
                {
                    "m": m,
                    "n": n,
                    "matrix": list(obs.at(m, n).flat()),
                }
            )
    results = {"order": deformation.order, "entries": entries}
    text = [f"obstruction values on the box with exponent sum <= {bound}:"]
    text += [f"  ({e['m']}, {e['n']}): {e['matrix']}" for e in entries]
    return 0, deformation.family.universe.primes, {"bound": bound}, results, text


def _cmd_deform_extend(args: argparse.Namespace) -> _Report:
    bound, deformation = _bounded_box(args, 3)
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
    code = int(not outcome.succeeded)
    return code, deformation.family.universe.primes, {"bound": bound}, results, text


def _cmd_deform_normalize(args: argparse.Namespace) -> _Report:
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
    return 0, deformation.family.universe.primes, {"level": args.level}, results, text


def _cmd_deform_equiv(args: argparse.Namespace) -> _Report:
    if not args.other:
        raise ConfigParseError("equiv needs --other with the second deformation")
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
    return int(witness is None), first.family.universe.primes, {}, results, text


# parsers: the options every command takes, then each command's own arguments


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=PRESET_NAMES, help="built-in ring")
    parser.add_argument("--ring", help="path to a ring definition file")
    parser.add_argument("--primes", help="comma-separated prime universe override")
    parser.add_argument("--samples", type=_positive_int, default=100, help="sample count")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--bound", type=int, help="exponent or index bound")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _lambda_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--element", required=True, help="comma-separated coordinates")
    parser.add_argument("--max-degree", type=_positive_int, default=6)


def _poly_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("i", type=_positive_int)
    parser.add_argument("j", type=_positive_int, nargs="?")


def _complex_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("identity", choices=IDENTITY_NAMES)
    parser.add_argument("--dimension", type=int, help="restrict to one cochain dimension")


def _deform_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--deformation", required=True, help="path to a deformation file")
    parser.add_argument("--other", help="second deformation file (equiv)")
    parser.add_argument("--level", type=_positive_int, default=1, help="coefficient to remove")


# command -> (help line, name of its first positional, the handler of each
# value of that positional, adder of the command's other arguments).  The
# report's label is the command and the value, such as "deform extend".
_COMMANDS = {
    "ring": ("ring-level checks", "action", {"verify": _cmd_ring_verify}, None),
    "adams": ("Adams-family checks", "action", {"verify": _cmd_adams_verify}, None),
    "lambda": (
        "lambda-operation values",
        "action",
        {"from-adams": _cmd_lambda_from_adams},
        _lambda_arguments,
    ),
    "poly": (
        "universal polynomials",
        "which",
        {"P": _cmd_poly, "Pij": _cmd_poly},
        _poly_arguments,
    ),
    "complex": (
        "structural identities of the complex",
        "action",
        {"check": _cmd_complex_check},
        _complex_arguments,
    ),
    "cohomology": ("cohomology groups", "degree", {"h0": _cmd_h0, "h1": _cmd_h1}, None),
    "deform": (
        "deformation calculus",
        "action",
        {
            "verify": _cmd_deform_verify,
            "infinitesimal": _cmd_deform_infinitesimal,
            "obstruction": _cmd_deform_obstruction,
            "extend": _cmd_deform_extend,
            "normalize": _cmd_deform_normalize,
            "equiv": _cmd_deform_equiv,
        },
        _deform_arguments,
    ),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The top-level parser with every command's parser, or with ``command``'s alone.

    Building one command's parser skips most of the set-up cost.  Its
    usage line still lists every command, so the help, usage and error
    text of an invocation of that command are those of the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="lambdaring",
        description="Exact cohomology and deformation calculus for rings "
        "with Adams operations.",
    )
    # Without a metavar the usage lists the commands built; an explicit
    # one would rename the command in "the following arguments are
    # required", so it is given only when one command is built.
    metavar = "{" + ",".join(_COMMANDS) + "}" if command is not None else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, positional, handlers, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            command_parser = sub.add_parser(name, help=help_line)
            _add_common_options(command_parser)
            command_parser.add_argument(positional, choices=tuple(handlers))
            if add_arguments is not None:
                add_arguments(command_parser)
    return parser


def entry(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # An option before the command, --help or an unknown command needs
    # the whole parser tree; otherwise only the named command's parser.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    _, positional, handlers, _ = _COMMANDS[args.command]
    value = getattr(args, positional)
    # Exact results can run to tens of thousands of digits; lift the
    # int-to-str limit (Python 3.11+) for rendering and JSON, then restore it.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        previous = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        code, universe, bounds, results, text = handlers[value](args)
        _emit(args, f"{args.command} {value}", universe, bounds, results, text)
        return code
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
