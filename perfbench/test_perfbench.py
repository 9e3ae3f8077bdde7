"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.use_checkout_sources(), "run from a checkout with src/lambdaring"

import lambdaring  # noqa: E402
import lambdaring.cli  # noqa: E402
from lambdaring import symfun  # noqa: E402
from checks import Checker, parse_poly  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import Job  # noqa: E402

JOBS = (
    Job("d-squared RC2", "complex",
        ("complex", "check", "d-squared", "--preset", "RC2", "--samples", "20", "--format", "json")),
    Job("h1 RC2", "digest_only", ("cohomology", "h1", "--preset", "RC2", "--format", "json")),
    Job("P 4", "P", ("poly", "P", "4", "--format", "json"), expect=(4,)),
    Job("axioms RC2 bound=4", "axioms", axioms=("RC2", ((1, 0), (2, -1)), 4)),
)


def _module_state() -> dict:
    """Every attribute of every lambdaring module and class, by identity."""
    state = {}
    for name, module in sys.modules.items():
        if module is None or not name.startswith("lambdaring"):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = id(value)
            if isinstance(value, type):
                for member, inner in vars(value).items():
                    state[(name, attr, member)] = id(inner)
    return state


def test_traced_jobs_emit_identical_reports_and_restore_originals():
    for job in JOBS:
        plain = run.run_job(job)
        traced = run.run_job(job, traced=True)
        assert plain["code"] == 0, plain["stderr"]
        assert traced["stdout"] == plain["stdout"]
        assert traced["trace"]["layers"]
    before = _module_state()
    out = io.StringIO()
    with Tracer() as tracer, contextlib.redirect_stdout(out):
        assert lambdaring.cli.entry(list(JOBS[1].argv)) == 0
    assert _module_state() == before
    assert tracer.layers["cli.entry"][0] == 1
    assert tracer.layers["exactalg.solve_linear"][0] > 0


def test_every_layer_is_found_and_rebound_where_imported():
    with Tracer():
        for _, module_name, path in LAYERS:
            module = sys.modules[f"lambdaring.{module_name}"]
            holder = module
            for part in path.split("."):
                holder = getattr(holder, part)
            assert hasattr(holder, "__wrapped__"), path
        # bound by name at import in other modules
        from lambdaring import cli, deformation

        assert hasattr(deformation.solve_linear, "__wrapped__")
        assert hasattr(cli.compute_P, "__wrapped__")
        assert hasattr(lambdaring.kernel_basis, "__wrapped__")
    assert not hasattr(deformation.solve_linear, "__wrapped__")


def test_identical_jobs_in_one_run_give_identical_call_counts():
    records, _, passes = run.run_passes(lambda k: list(JOBS), 0.0, traced=True)
    again, _, _ = run.run_passes(lambda k: list(JOBS), 0.0, traced=True)
    assert passes == 1
    for (_, job, _, first), (_, _, _, second) in zip(records, again):
        counts = {name: stat[0] for name, stat in first["trace"]["layers"].items()}
        assert counts == {name: stat[0] for name, stat in second["trace"]["layers"].items()}, job.name
        assert first["trace"]["edges"] == second["trace"]["edges"]
    # the parent never computes the universal polynomials itself, so no
    # job can inherit a filled lru cache
    assert not run.check_records(records + again, Checker(run.GOLDEN, None))
    assert symfun.compute_P.cache_info().currsize == 0
    assert symfun._compute_P_ij_cached.cache_info().currsize == 0


def test_checker_flags_wrong_answers():
    checker = Checker(run.GOLDEN, {"P 2": "0" * 64})
    job = JOBS[2]
    golden = (run.GOLDEN / "product_P2.txt").read_text().strip()
    report = json.dumps({"results": {"text": golden}})
    p2 = Job("P 2", "P", expect=(2,))
    assert checker.problems(p2, 0, report) == ["results digest differs from the recorded one"]
    wrong = json.dumps({"results": {"text": golden.replace("2*s2", "3*s2")}})
    assert len(checker.problems(p2, 0, wrong)) == 2
    assert checker.problems(job, 1, "") == ["exit code 1"]
    assert parse_poly("s1^2*t2 - 2*s2*t2") == [(1, (("s", 1, 2), ("t", 2, 1))), (-2, (("s", 2, 1), ("t", 2, 1)))]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
