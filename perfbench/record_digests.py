#!/usr/bin/env python3
"""Record the SHA-256 of every job's ``results`` at the default seed.

Run from the root of a checkout:

    python3 perfbench/record_digests.py

Each job runs cold, exactly as in ``run.py``, and must pass its
known-answer check before its digest is kept.  The output,
``perfbench/digests.json``, is what ``run.py`` compares against whenever
it runs with the default seed; re-record only when a change is meant to
alter report contents.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# The symbolic workload draws fresh `complex check` seeds every pass; record
# enough passes to cover a run of 60 seconds.  The other jobs repeat each
# pass and are recorded once.
RECORDED_PASSES = {"symbolic": 30}


def main() -> int:
    if not run.use_checkout_sources():
        print(f"error: no lambdaring sources under {run.SRC}", file=sys.stderr)
        return 2
    import lambdaring.cli  # noqa: F401  jobs fork from a process that has it loaded
    import workloads
    from checks import Checker, results_digest

    checker = Checker(run.GOLDEN, None)
    digests = {}
    for workload in run.WORKLOADS:
        workdir = run.WORK / f"record-{workload}"
        try:
            pass_jobs = workloads.build(workload, run.DEFAULT_SEED, workdir)
            recorded = {}
            for k in range(RECORDED_PASSES.get(workload, 1)):
                for job in pass_jobs(k):
                    if job.name in recorded:
                        continue
                    outcome = run.run_job(job)
                    problems = checker.problems(job, outcome["code"], outcome["stdout"])
                    if problems:
                        print(f"error: {workload} {job.name}: {problems}", file=sys.stderr)
                        return 1
                    recorded[job.name] = results_digest(json.loads(outcome["stdout"])["results"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        digests[workload] = recorded
        print(f"{workload}: {len(recorded)} digests")
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
