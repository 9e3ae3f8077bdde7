"""Known-answer checks on job reports, plus the recorded-digest check.

Checks run in the benchmark's parent process after the timed phase.
They parse report text rather than calling ``compute_P`` or
``compute_P_ij``, so the parent never fills the process-global caches
that forked jobs would otherwise inherit.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Optional

from lambdaring.deformation import deformation_from_dict, verify_deformation

from workloads import Job


def binomial(m: int, k: int) -> int:
    """C(m, k) for any integer m, the lambda-values of m in Z."""
    if k < 0:
        return 0
    num = 1
    for t in range(k):
        num *= m - t
    return num // math.factorial(k)


def results_digest(results) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_poly(text: str) -> list[tuple[int, tuple[tuple[str, int, int], ...]]]:
    """Terms of a canonical ``MultiPoly.text()`` string as (coeff, factors)."""
    if text == "0":
        return []
    terms = []
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = -1 if chunk.startswith("-") else 1
        parts = chunk.lstrip("-").split("*")
        coeff = sign
        factors = []
        for part in parts:
            if part.isdigit():
                coeff *= int(part)
                continue
            base, _, exp = part.partition("^")
            factors.append((base[0], int(base[1:]), int(exp or 1)))
        terms.append((coeff, tuple(factors)))
    return terms


def eval_poly(terms, values: dict[tuple[str, int], int]) -> int:
    total = 0
    for coeff, factors in terms:
        value = coeff
        for letter, index, exp in factors:
            value *= values[(letter, index)] ** exp
        total += value
    return total


POINTS = range(-3, 4)


def _check_product(text: str, i: int) -> Optional[str]:
    terms = parse_poly(text)
    for m in POINTS:
        for n in POINTS:
            values = {("s", a): binomial(m, a) for a in range(1, i + 1)}
            values.update({("t", b): binomial(n, b) for b in range(1, i + 1)})
            if eval_poly(terms, values) != binomial(m * n, i):
                return f"P_{i} does not specialise to C(mn, {i}) at ({m}, {n})"
    return None


def _check_composition(text: str, i: int, j: int) -> Optional[str]:
    terms = parse_poly(text)
    for m in POINTS:
        values = {("s", a): binomial(m, a) for a in range(1, i * j + 1)}
        if eval_poly(terms, values) != binomial(binomial(m, j), i):
            return f"P_{i},{j} does not specialise to C(C(m, {j}), {i}) at m = {m}"
    return None


class Checker:
    """Applies a job's known-answer check and, when given, its digest."""

    def __init__(self, golden_dir: Path, digests: Optional[dict[str, str]]) -> None:
        self.golden_dir = golden_dir
        self.digests = digests

    def _golden(self, stem: str) -> Optional[str]:
        path = self.golden_dir / f"{stem}.txt"
        return path.read_text(encoding="utf-8").strip() if path.exists() else None

    def problems(self, job: Job, code: int, stdout: str) -> list[str]:
        """Every way this job's outcome is wrong; empty means it passed."""
        if code != 0:
            return [f"exit code {code}"]
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc}"]
        found = getattr(self, "_" + job.check)(job, results)
        problems = [found] if found else []
        if self.digests is not None and job.name in self.digests:
            if results_digest(results) != self.digests[job.name]:
                problems.append("results digest differs from the recorded one")
        return problems

    # One method per ``Job.check``; each returns a problem or None.

    def _complex(self, job: Job, results: dict) -> Optional[str]:
        if results["mismatches"] != 0 or not all(c["passed"] for c in results["checks"]):
            return f"{results['mismatches']} identity mismatches"
        return None

    def _h0_Z(self, job: Job, results: dict) -> Optional[str]:
        group = results["group"]
        if (group["free_rank"], group["torsion"], results["basis"]) != (1, [], [[1]]):
            return f"H0(Z) is {group['rendered']} with basis {results['basis']}"
        return None

    def _h1_Z(self, job: Job, results: dict) -> Optional[str]:
        (k,) = job.expect
        group = results["group"]
        if (group["free_rank"], group["torsion"]) != (k, []):
            return f"H1(Z) over {k} primes is {group['rendered']}"
        return None

    def _digest_only(self, job: Job, results: dict) -> Optional[str]:
        """No closed form to compare with; the recorded digest checks it."""
        return None

    def _P(self, job: Job, results: dict) -> Optional[str]:
        (i,) = job.expect
        golden = self._golden(f"product_P{i}")
        if golden is not None and results["text"] != golden:
            return f"P_{i} differs from tests/golden"
        return _check_product(results["text"], i)

    def _Pij(self, job: Job, results: dict) -> Optional[str]:
        i, j = job.expect
        golden = self._golden(f"composition_P{i}_{j}")
        if golden is not None and results["text"] != golden:
            return f"P_{i},{j} differs from tests/golden"
        return _check_composition(results["text"], i, j)

    def _lambda_Z(self, job: Job, results: dict) -> Optional[str]:
        (n,), degree = job.expect
        expected = [[binomial(n, k)] for k in range(1, degree + 1)]
        if results["values"] != expected:
            return f"lambda values of {n} are not binomials"
        return None

    def _lambda(self, job: Job, results: dict) -> Optional[str]:
        element, degree = job.expect
        values = results["values"]
        if len(values) != degree or values[0] != list(element):
            return "lambda_1 is not the element itself"
        return None

    def _axioms(self, job: Job, results: dict) -> Optional[str]:
        if results["violations"]:
            return f"axiom violations: {results['violations'][:3]}"
        return None

    def _extend(self, job: Job, results: dict) -> Optional[str]:
        if not results["succeeded"]:
            return "no extension found"
        report = verify_deformation(deformation_from_dict(results["extended"]))
        if not report.passed:
            return f"extended deformation fails verification: {report.failures[:3]}"
        return None

    def _verify(self, job: Job, results: dict) -> Optional[str]:
        return None if results["passed"] else f"verification failed: {results['failures'][:3]}"

    def _infinitesimal(self, job: Job, results: dict) -> Optional[str]:
        return None if results["is_cocycle"] else "the t-coefficient is not a cocycle"

    def _normalize(self, job: Job, results: dict) -> Optional[str]:
        (level,) = job.expect
        terms = results["normalized"]["terms"]
        if any(str(level) in per_prime for per_prime in terms.values()):
            return f"t^{level} coefficient survives normalization"
        return None

    def _equiv(self, job: Job, results: dict) -> Optional[str]:
        return None if results["witness_found"] else "no inner witness for an inner shift"
