#!/usr/bin/env python3
"""Benchmark of whole lambdaring CLI jobs, with an optional traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload extend --seed 1 --seconds 36 --trace 0

Set-up imports the package and generates the workload's inputs from the
seed; it is repeated and its median reported as ``setup_s``.  The timed
phase then runs whole passes over the workload's job list for about
``--seconds``.  One client runs one job at a time (closed loop).  Each
job runs in a child forked from the set-up process, so it starts cold
as a fresh ``lambdaring`` process would: no process-global cache filled
by an earlier job survives into the next.  Only the job itself is timed,
inside the child.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` each pass runs untraced and then traced, and the line
reports the per-layer metrics of the traced jobs.  Every report is
checked (see ``checks.py``); any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, REPEAT_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("symbolic", "extend", "cohomology")
DEFAULT_SEED = 1
IMPORT_PROBES = 7
GENERATIONS = 3
TAIL_BEYOND = 10
JOB_TIMEOUT_S = 60  # a job still running then is killed and counts as failed

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("job_ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

MODULES = ("exactalg", "rings", "symfun", "cochain", "cohomology", "deformation", "cli")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every metric of a traced run, in report order, with its unit."""
    metrics: list[tuple[str, str]] = []
    for layer in dict.fromkeys(name for name, _, _ in LAYERS):
        metrics.append((f"{layer}.calls", "count"))
        metrics.append((f"{layer}.self_s", "s"))
        if layer in REPEAT_LAYERS:
            metrics.append((f"{layer}.repeat_ratio", "ratio"))
    metrics += [
        ("exactalg.solve_linear.rows_max", "count"),
        ("exactalg.solve_linear.cols_max", "count"),
        ("exactalg.solve_linear.unsolvable", "count"),
        ("exactalg.smith_normal_form.rows_max", "count"),
        ("exactalg.entry_bits_max", "bits"),
        ("deformation.try_extend.equations", "count"),
        ("deformation.try_extend.unknowns", "count"),
        ("cli.report_bytes", "bytes"),
    ]
    metrics += [(f"{module}.self_share", "ratio") for module in MODULES]
    metrics.append(("trace.overhead_ratio", "ratio"))
    return metrics


def use_checkout_sources() -> bool:
    """Put the checkout's ``src`` first on the path; False if it is missing."""
    if not (SRC / "lambdaring" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


# --- one job in a forked child ----------------------------------------------


def _execute(job) -> int:
    from lambdaring import cli, rings, symfun
    from workloads import BASE_PRIMES

    if job.axioms is None:
        try:
            return cli.entry(list(job.argv))
        except SystemExit as exc:  # argparse rejects argv this way
            return exc.code if isinstance(exc.code, int) else 2
    preset, samples, bound = job.axioms
    family = rings.preset_family(preset, BASE_PRIMES)
    data = rings.LambdaData.from_adams(family, bound)
    violations = symfun.verify_lambda_axioms(data, samples, bound)
    print(json.dumps({"results": {"violations": violations}}, sort_keys=True))
    return 0 if not violations else 1


def _child(job, traced: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    tracer = Tracer() if traced else None
    # the wrappers go in before the clock starts and come out after it stops
    with tracer or contextlib.nullcontext():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = _execute(job)
            seconds = time.perf_counter() - start
    payload = {"code": code, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if tracer is not None:
        payload["trace"] = tracer.snapshot()
    return payload


def run_job(job, traced: bool = False) -> dict:
    """Fork, run one job cold in the child, and collect its outcome.

    Adds ``rss_mb``, the child's peak resident set, to what the child
    reports.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    # Objects the parent holds move to the permanent generation, so the
    # child's collector neither walks them nor copies their pages: the job
    # sees a heap like a fresh process's, whatever the parent has gathered.
    gc.freeze()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            signal.alarm(JOB_TIMEOUT_S)
            try:
                payload = _child(job, traced)
                status = 0
            except Exception:
                payload = {"code": -1, "seconds": 0.0, "stdout": "", "stderr": traceback.format_exc()}
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(payload).encode("utf-8"))
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, _, usage = os.wait4(pid, 0)
    try:
        outcome = json.loads(data)
    except ValueError:
        outcome = {"code": -1, "seconds": 0.0, "stdout": "", "stderr": "job process died"}
    outcome["rss_mb"] = usage.ru_maxrss / 1024.0
    return outcome


# --- set-up ------------------------------------------------------------------

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import lambdaring.cli\n"
    "print(time.perf_counter() - start)\n"
)


def _import_seconds() -> float:
    """Package import time in a fresh interpreter, as a CLI process pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload: str, seed: int, workdir: Path):
    """Build the workload; return its job lister and the set-up time.

    Set-up time is the median package import time over IMPORT_PROBES
    fresh interpreters plus the median input-generation time over
    GENERATIONS builds (each build writes the same files again).
    """
    import workloads

    import_s = statistics.median(_import_seconds() for _ in range(IMPORT_PROBES))
    times = []
    for _ in range(GENERATIONS):
        start = time.perf_counter()
        pass_jobs = workloads.build(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return pass_jobs, import_s + statistics.median(times)


# --- the timed phase -----------------------------------------------------------


def run_passes(pass_jobs, seconds: float, traced: bool):
    """Run whole passes of ``pass_jobs(k)`` for about ``seconds``.

    Another pass starts only while half a mean pass still fits, so the
    phase ends within half a pass of ``seconds`` on either side.  There is
    always at least one pass.

    Returns (records, phase seconds, passes).  A record is
    (pass, job, untraced outcome, traced outcome or None).
    """
    records = []
    passes = 0
    start = time.perf_counter()
    phase = 0.0
    while True:
        for job in pass_jobs(passes):
            plain = run_job(job)
            records.append((passes, job, plain, run_job(job, traced=True) if traced else None))
        passes += 1
        phase = time.perf_counter() - start
        if phase + phase / passes / 2 >= seconds:
            return records, phase, passes


def check_records(records, checker) -> list[tuple[int, str, str]]:
    """Known-answer checks as (pass, job name, problem); each distinct
    (job, report) is checked once."""
    verdicts: dict[tuple[str, int, str], list[str]] = {}
    failures = []
    for passes, job, plain, traced in records:
        for label, outcome in (("", plain), ("traced: ", traced)):
            if outcome is None:
                continue
            key = (job.name, outcome["code"], outcome["stdout"])
            if key not in verdicts:
                verdicts[key] = checker.problems(job, outcome["code"], outcome["stdout"])
                if outcome["code"] not in (0, 1):
                    verdicts[key].append(outcome["stderr"].strip()[-500:])
            failures += [(passes, job.name, label + problem) for problem in verdicts[key]]
        if traced is not None and traced["stdout"] != plain["stdout"]:
            failures.append((passes, job.name, "traced report differs"))
    return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND jobs beyond it, and its rank."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(records, setup_s: float, failed: int) -> dict[str, float]:
    latencies = [plain["seconds"] for _, _, plain, _ in records]
    tail_s, percentile = tail(latencies)
    print(f"# {len(latencies)} jobs; job_tail_ms is p{percentile:.1f}, "
          f"with {min(TAIL_BEYOND, len(latencies) - 1)} jobs beyond it")
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "job_tail_ms": 1000.0 * tail_s,
        "job_ok_ratio": (len(latencies) - failed) / len(latencies),
        "peak_rss_mb": max(plain["rss_mb"] for _, _, plain, _ in records),
    }


def layer_values(records, passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced jobs; counts and times are per pass."""
    layers: dict[str, list[float]] = {}
    sizes: dict[str, int] = {}
    repeats: dict[str, int] = {}
    job_seconds = 0.0
    report_bytes = 0
    plain_seconds = 0.0
    for _, _, plain, traced in records:
        trace = traced.get("trace")
        if trace is None:  # the job crashed; check_records reports it
            continue
        for name, (calls, self_s, _) in trace["layers"].items():
            stat = layers.setdefault(name, [0, 0.0])
            stat[0] += calls
            stat[1] += self_s
        for name, value in trace["sizes"].items():
            if name.endswith("unsolvable"):
                sizes[name] = sizes.get(name, 0) + value
            else:
                sizes[name] = max(sizes.get(name, 0), value)
        for name, value in trace["repeats"].items():
            repeats[name] = repeats.get(name, 0) + value
        job_seconds += traced["seconds"]
        report_bytes += len(traced["stdout"].encode("utf-8"))
        plain_seconds += plain["seconds"]

    values: dict[str, float] = {}
    for name, unit in per_layer_metrics():
        layer, _, stat = name.rpartition(".")
        calls, self_s = layers.get(layer, (0, 0.0))
        if stat == "calls":
            values[name] = calls / passes
        elif stat == "self_s":
            values[name] = self_s / passes
        elif stat == "repeat_ratio":
            values[name] = repeats.get(layer, 0) / calls if calls else 0.0
        elif stat == "self_share":
            module_self = sum(s for n, (_, s) in layers.items() if n.split(".")[0] == layer)
            values[name] = module_self / job_seconds
        elif name == "cli.report_bytes":
            values[name] = report_bytes / passes
        elif name == "trace.overhead_ratio":
            values[name] = job_seconds / plain_seconds
        elif name == "exactalg.solve_linear.unsolvable":
            values[name] = sizes.get(name, 0) / passes
        else:
            values[name] = sizes.get(name, 0)
    return values


def write_trace(records, path: Path) -> None:
    """One line per traced job: its id, pass, name, time and span aggregates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for job_id, (passes, job, _, traced) in enumerate(records):
            if "trace" not in traced:
                continue
            line = {"job_id": job_id, "pass": passes, "job": job.name,
                    "seconds": traced["seconds"], **traced["trace"]}
            out.write(json.dumps(line, sort_keys=True) + "\n")


def machine_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop.

    It follows the machine's speed, not lambdaring's: when every timing of
    a run shifts together with it, the machine changed, not the program.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def machine() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc {os.cpu_count()}, {model}, Python {sys.version.split()[0]}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_sources():
        print(f"error: no lambdaring sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if not GOLDEN.is_dir():
        print(f"error: golden files missing under {GOLDEN}", file=sys.stderr)
        return 2
    import lambdaring.cli  # noqa: F401  jobs fork from a process that has it loaded
    from checks import Checker

    digests = None
    if args.seed == DEFAULT_SEED and DIGESTS.is_file():
        digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        pass_jobs, setup_s = setup(args.workload, args.seed, workdir)
        probe_before = machine_probe_ms()
        records, phase, passes = run_passes(pass_jobs, args.seconds, bool(args.trace))
        probe_after = machine_probe_ms()
        failures = check_records(records, Checker(GOLDEN, digests))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len({(p, name) for p, name, _ in failures})
    print(f"# {machine()}")
    print(f"# machine probe (fixed pure-Python loop): {probe_before:.2f} ms before and "
          f"{probe_after:.2f} ms after the timed phase")
    print(f"# workload {args.workload}, seed {args.seed}, {passes} passes of "
          f"{len(pass_jobs(0))} jobs in {phase:.2f} s"
          + (", each pass untraced then traced" if args.trace else ""))
    for p, name, problem in failures[:20]:
        print(f"# FAILED pass {p} {name}: {problem}")

    if args.trace:
        write_trace(records, WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
        values = layer_values(records, passes)
        units = dict(per_layer_metrics())
    else:
        values = end_to_end(records, setup_s, failed)
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
