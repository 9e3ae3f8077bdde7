"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation (``argv`` for ``lambdaring.cli.entry``) or,
for the lambda-axiom check that has no command, one call of
``symfun.verify_lambda_axioms``.  Every input is built from the workload
seed through the library's public constructors, so the same seed gives
the same argv and the same input files.  ``build`` is the set-up step;
it returns ``pass_jobs(k)``, the jobs of pass k over the workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from lambdaring.cochain import random_endomorphism
from lambdaring.cohomology import cocycle_space_basis, inner_derivation
from lambdaring.deformation import (
    Deformation,
    FormalAutomorphism,
    apply_automorphism,
    deformation_to_dict,
    make_deformation,
    trivial_deformation,
    try_extend,
)
from lambdaring.exactalg import IntMatrix
from lambdaring.rings import (
    AdamsFamily,
    PrimeUniverse,
    RingSpec,
    family_to_dict,
    preset_family,
)

PRESETS = ("Z", "RC2", "RC3")
BASE_PRIMES = (2, 3, 5)
UNIVERSES = ("2,3,5", "2,3,5,7", "2,3,5,7,11,13")
IDENTITIES = ("d-squared", "cosimplicial", "leibniz")
IDENTITY_SAMPLES = 100
# RC3 gets two more random starts whose files feed only `extend --bound 3`.
# A pass then holds six 3249x27 solves and a run at least twelve, so
# job_tail_ms lies inside that tier and does not jump with the number of
# passes, as it would on the gap below it.
EXTRA_RC3_STARTS = 2
# `lambda from-adams` runs on this many seeded elements per ring and degree.
# With them the light jobs of `symbolic` (a few ms each) are most of a
# pass, so job_p50_ms falls in the middle of that cluster, not on its slow
# edge, where it would follow the share of jobs the machine slowed.
ADAMS_ELEMENTS = 6


@dataclass(frozen=True)
class Job:
    """One unit of work; ``name`` is unique within a pass and keys digests.

    ``check`` names the known-answer check in ``checks.py``; ``expect``
    carries what that check needs (an element, a universe size, ...).
    """

    name: str
    check: str
    argv: tuple[str, ...] = ()
    axioms: Optional[tuple[str, tuple[tuple[int, ...], ...], int]] = None
    expect: tuple = ()


PassJobs = Callable[[int], list[Job]]


def _cli(name: str, check: str, *argv: str, expect: tuple = ()) -> Job:
    return Job(name, check, tuple(argv) + ("--format", "json"), expect=expect)


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


# --- deformation inputs ---------------------------------------------------


def _random_cocycle_start(family: AdamsFamily, rng: random.Random) -> Deformation:
    """Order-1 deformation whose t-coefficient is a random nonzero cocycle."""
    basis = cocycle_space_basis(family)
    while True:
        coefficients = [rng.randint(-2, 2) for _ in basis]
        if any(coefficients):
            break
    spec = None
    for c, b in zip(coefficients, basis):
        term = b.scale(c)
        spec = term if spec is None else spec + term
    terms = {p: {1: spec.value(p)} for p in family.universe.primes}
    return make_deformation(family, 1, terms)


def _extendable_start(family: AdamsFamily, rng: random.Random) -> tuple[Deformation, Deformation]:
    """Order-1 start and its order-2 extension, both extendable once more.

    A bound-2 success is a true extension (the solve is sound), so every
    larger bound succeeds as well; starts that fail are redrawn.
    """
    for _ in range(20):
        start = _random_cocycle_start(family, rng)
        first = try_extend(start, 2)
        if not first.succeeded:
            continue
        if try_extend(first.extended, 2).succeeded:
            return start, first.extended
    raise RuntimeError(f"no extendable cocycle start for {family.ring.name}")


def _scaling(family: AdamsFamily) -> Deformation:
    """The README's scaling deformation: psi_p times 1 + t*p on Z."""
    return make_deformation(
        family, 1, {p: {1: IntMatrix.from_rows([[p]])} for p in family.universe.primes}
    )


def _extend(seed: int, workdir: Path) -> PassJobs:
    rng = random.Random(f"extend:{seed}")
    inputs: list[tuple[str, str, bool]] = []  # (tag, path, all four jobs)
    for preset in PRESETS:
        family = preset_family(preset, BASE_PRIMES)
        for n in range(1 + (EXTRA_RC3_STARTS if preset == "RC3" else 0)):
            start, second = _extendable_start(family, rng)
            for label, deformation in (("o1", start), ("o2", second)):
                tag = f"{preset}-{n}{label}"
                inputs.append((tag, _write(workdir / f"{tag}.json", deformation_to_dict(deformation)), n == 0))
    scaling = _scaling(preset_family("Z", BASE_PRIMES))
    inputs.append(("Z-scaling", _write(workdir / "Z-scaling.json", deformation_to_dict(scaling)), True))

    jobs = []
    for tag, path, full in inputs:
        for bound in ("2", "3") if full else ("3",):
            jobs.append(
                _cli(f"extend {tag} bound={bound}", "extend",
                     "deform", "extend", "--deformation", path, "--bound", bound)
            )
        # `deform infinitesimal` rides along with verify and obstruction: with
        # it the median job sits inside the dense cluster of light jobs, not
        # on the gap above them, where job_p50_ms swings with machine speed.
        if full:
            jobs.append(_cli(f"verify {tag}", "verify", "deform", "verify", "--deformation", path))
            jobs.append(
                _cli(f"infinitesimal {tag}", "infinitesimal",
                     "deform", "infinitesimal", "--deformation", path)
            )
            jobs.append(
                _cli(f"obstruction {tag}", "digest_only",
                     "deform", "obstruction", "--deformation", path, "--bound", "2")
            )
    return lambda k: jobs


# --- symbolic: complex identities and polynomials ------------------------


def _identity_jobs(seed: int, k: int) -> list[Job]:
    """The `complex check` jobs of pass k, with fresh --seed values."""
    rng = random.Random(f"identities:{seed}:{k}")
    jobs = []
    for identity in IDENTITIES:
        for preset in PRESETS:
            job_seed = str(rng.randrange(1, 10**6))
            jobs.append(
                _cli(
                    f"check {identity} {preset} seed={job_seed}",
                    "complex",
                    "complex", "check", identity, "--preset", preset,
                    "--samples", str(IDENTITY_SAMPLES), "--seed", job_seed,
                )
            )
    return jobs


def _random_element(rank: int, rng: random.Random) -> tuple[int, ...]:
    while True:
        element = tuple(rng.randint(-3, 4) for _ in range(rank))
        if any(element):
            return element


def _symbolic(seed: int, workdir: Path) -> PassJobs:
    """Each pass: the `complex check` jobs, then the polynomial jobs."""
    rng = random.Random(f"polys:{seed}")
    jobs = [_cli(f"P {i}", "P", "poly", "P", str(i), expect=(i,)) for i in range(1, 6)]
    for i in range(1, 7):
        for j in range(1, 7):
            if i * j <= 6:
                jobs.append(
                    _cli(f"Pij {i} {j}", "Pij", "poly", "Pij", str(i), str(j), expect=(i, j))
                )
    for preset in PRESETS:
        rank = preset_family(preset, BASE_PRIMES).rank
        for degree, primes in (("6", "2,3,5"), ("10", "2,3,5,7")):
            for n in range(ADAMS_ELEMENTS):
                element = _random_element(rank, rng)
                text = ",".join(str(c) for c in element)
                check = "lambda_Z" if preset == "Z" else "lambda"
                jobs.append(
                    _cli(
                        f"from-adams {preset} degree={degree} #{n}", check,
                        "lambda", "from-adams", "--preset", preset, "--primes", primes,
                        f"--element={text}", "--max-degree", degree,
                        expect=(element, int(degree)),
                    )
                )
    for preset in PRESETS:
        rank = preset_family(preset, BASE_PRIMES).rank
        samples = tuple(_random_element(rank, rng) for _ in range(3))
        for bound in (4, 5):
            jobs.append(Job(f"axioms {preset} bound={bound}", "axioms", axioms=(preset, samples, bound)))
    return lambda k: _identity_jobs(seed, k) + jobs


# --- cohomology -----------------------------------------------------------


def cyclic_group_ring_file(k: int, primes: tuple[int, ...]) -> dict:
    """Ring file for Z[C_k] with basis x^0..x^(k-1) and psi_p(x) = x^p."""
    structure = tuple(
        tuple(tuple(int(t == (i + j) % k) for t in range(k)) for j in range(k))
        for i in range(k)
    )
    spec = RingSpec(rank=k, structure=structure, unit=tuple(int(i == 0) for i in range(k)), name=f"ZC{k}")
    generators = tuple(
        (p, IntMatrix.from_columns([tuple(int(t == (i * p) % k) for t in range(k)) for i in range(k)], k))
        for p in primes
    )
    return family_to_dict(AdamsFamily(spec, PrimeUniverse(primes), generators))


def _conjugated_trivial(family: AdamsFamily, order: int, rng: random.Random) -> Deformation:
    coefficients = [IntMatrix.identity(family.rank)]
    coefficients += [random_endomorphism(family, rng.randrange(10**6)) for _ in range(order)]
    auto = FormalAutomorphism(family, coefficients)
    return apply_automorphism(auto, trivial_deformation(family, order))


def _inner_shift(deformation: Deformation, rng: random.Random) -> Deformation:
    """Add the coboundary of a random compatible endomorphism to the top term."""
    family = deformation.family
    shift = inner_derivation(family, random_endomorphism(family, rng.randrange(10**6)))
    top = deformation.order
    series = {}
    for p in family.universe.primes:
        coefficients = list(deformation.series(p))
        coefficients[top] = coefficients[top] + shift.value(p)
        series[p] = coefficients
    return Deformation(family, top, series)


# H1 of Z[C5] over {2,3,5,7} takes over 15 s and is left out (see README).
# H1 of Z[C5] over {2,3,5} runs twice per pass, once with --primes and
# once from a ring file over exactly {2,3,5}: with two equal jobs in the
# slowest tier, job_tail_ms stays inside it whatever the number of passes.
ZC_JOBS = {
    4: (("h0", "2,3,5"), ("h0", "2,3,5,7"), ("h1", "2,3,5"), ("h1", "2,3,5,7")),
    5: (("h0", "2,3,5"), ("h0", "2,3,5,7"), ("h1", "2,3,5")),
}


def _cohomology(seed: int, workdir: Path) -> PassJobs:
    rng = random.Random(f"cohomology:{seed}")
    jobs = []
    for preset in PRESETS:
        for primes in UNIVERSES:
            for degree in ("h0", "h1"):
                check = f"{degree}_Z" if preset == "Z" else "digest_only"
                jobs.append(
                    _cli(f"{degree} {preset} primes={primes}", check,
                         "cohomology", degree, "--preset", preset, "--primes", primes,
                         expect=(len(primes.split(",")),))
                )
    for k in (4, 5):
        path = _write(workdir / f"ZC{k}.json", cyclic_group_ring_file(k, (2, 3, 5, 7)))
        for degree, primes in ZC_JOBS[k]:
            jobs.append(
                _cli(f"{degree} ZC{k} primes={primes}", "digest_only",
                     "cohomology", degree, "--ring", path, "--primes", primes)
            )
    path = _write(workdir / "ZC5-235.json", cyclic_group_ring_file(5, BASE_PRIMES))
    jobs.append(_cli("h1 ZC5 file primes=2,3,5", "digest_only", "cohomology", "h1", "--ring", path))
    for preset in ("RC2", "RC3"):
        family = preset_family(preset, BASE_PRIMES)
        for order in (1, 2):
            tag = f"{preset}-conj{order}"
            path = _write(workdir / f"{tag}.json", deformation_to_dict(_conjugated_trivial(family, order, rng)))
            jobs.append(_cli(f"normalize {tag}", "normalize",
                             "deform", "normalize", "--deformation", path, "--level", "1", expect=(1,)))
        shifted = _inner_shift(trivial_deformation(family, 1), rng)
        path = _write(workdir / f"{preset}-inner1.json", deformation_to_dict(shifted))
        jobs.append(_cli(f"normalize {preset}-inner1", "normalize",
                         "deform", "normalize", "--deformation", path, "--level", "1", expect=(1,)))
        start, second = _extendable_start(family, rng)
        for label, base in (("o1", start), ("o2", second)):
            tag = f"{preset}-{label}"
            first = _write(workdir / f"{tag}.json", deformation_to_dict(base))
            other = _write(workdir / f"{tag}-shift.json", deformation_to_dict(_inner_shift(base, rng)))
            jobs.append(_cli(f"equiv {tag}", "equiv",
                             "deform", "equiv", "--deformation", first, "--other", other))
    return lambda k: jobs


BUILDERS = {
    "symbolic": _symbolic,
    "extend": _extend,
    "cohomology": _cohomology,
}


def build(name: str, seed: int, workdir: Path) -> PassJobs:
    """Generate the workload's inputs under ``workdir`` from the seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir)
