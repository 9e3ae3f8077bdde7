"""The benchmark's reports, checked in process on every test run.

The benchmark (``perfbench/``) rejects a run whose reports fail a
known-answer check or whose ``results`` digest differs from
``perfbench/digests.json``.  These tests build the same seed-1 job lists
and apply the same checks, one job at a time through the benchmark's own
``run._execute``, in process, so a change of elimination path or of a
report fails here before a benchmark run.  They read ``perfbench/`` and
write nothing there.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``workloads``, ``checks`` and ``run``, imported without bytecode files."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "checks", "tracer", "run"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import checks
    import run
    import workloads

    return workloads, checks, run


@pytest.mark.parametrize("workload", ["symbolic", "extend", "cohomology"])
def test_seed_one_reports_pass_the_benchmark_checks(perfbench, tmp_path, workload):
    workloads, checks, run = perfbench
    digests = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))[workload]
    checker = checks.Checker(ROOT / "tests" / "golden", digests)
    jobs = workloads.build(workload, 1, tmp_path)(0)
    assert jobs
    for job in jobs:
        assert job.name in digests, job.name
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run._execute(job)
        assert checker.problems(job, code, out.getvalue()) == [], job.name
