#!/usr/bin/env python3
"""meanstab benchmark: seeded CLI workloads, run in process, with an exact-answer gate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-deep --seed 1 --seconds 23 --trace 0

One client, one thread, closed loop: each job is ``meanstab.cli.main(argv)``
called in this process and starts when the previous one has ended.  Seeded
rounds of jobs (see ``jobs.py``) run until the jobs have taken ``--seconds``
reference seconds (below), checked at round boundaries; every round has the
same make-up, so runs of any length measure the same mix.  Every job's report is checked against its golden
answer after the loop (see ``gate.py``).

Job times are calibrated.  On a shared machine the same work can take half
again as long for seconds at a time, while a neighbour loads the core.  So
every SAMPLE_INTERVAL_S, during jobs and between them, the benchmark times a
fixed reference workload (a Fraction Cauchy product, the operation that
dominates meanstab's run time), and scales each job's wall time, less those
samples, by REFERENCE_S over the mean of the samples in and around it.  Times
are thus in reference seconds: wall seconds on a core that runs the
reference sample in REFERENCE_S (about an undisturbed core of the 2.1 GHz
Xeon VM the benchmark was written on).  The run length is counted in the
same seconds, so a run on a loaded machine does the same number of jobs, for
longer (up to WALL_LIMIT times --seconds).  The raw wall and CPU times are
in the report file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed job
list twice, each time from a fresh import of meanstab: once untraced and once
traced from outside (see ``layers.py``), and reports the per-layer metrics.
The list is the pinned jobs (the ROADMAP baseline rows; their untraced wall
times are reported by row name) followed by the first seeded rounds.

Every metric is printed by name with its unit; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  A fuller
report (environment, per-job times, pinned rows, the span list of a traced
run) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from gate import judge, key, self_check
from jobs import WORKLOADS, Argv, Workload, schedule, trace_jobs
from layers import Tracer, layer_metrics

_PRELOADED = frozenset(sys.modules)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

SETUP_REPEATS = 7
REFERENCE_S = 1e-3  # nominal time of one reference sample
SAMPLE_INTERVAL_S = 0.1
WALL_LIMIT = 1.4  # a run also ends after this many times --seconds of wall time
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it

_REF_A = tuple(Fraction(1, k + 2) for k in range(17))
_REF_B = tuple(Fraction((-1) ** k * (k + 1), 3 * k + 1) for k in range(17))


def reference_sample() -> float:
    """Seconds taken by two fixed order-16 Fraction Cauchy products."""
    start = time.perf_counter()
    for _ in range(2):
        out = [Fraction(0)] * 17
        for i, x in enumerate(_REF_A):
            for j in range(17 - i):
                out[i + j] += x * _REF_B[j]
    return time.perf_counter() - start


class SpeedLog:
    """Reference samples taken every SAMPLE_INTERVAL_S of wall time by a
    SIGALRM handler, so that a long job is sampled while it runs."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        duration = reference_sample()
        self.ends.append(time.perf_counter())
        self.durations.append(duration)

    def __enter__(self) -> "SpeedLog":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrate(self, rec: dict) -> float:
        """Set and return the job's time in reference seconds: its wall time
        less the samples taken inside it, scaled by REFERENCE_S over the mean
        of those samples and the nearest one on either side."""
        start, end = rec["window"]
        lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        around = self.durations[max(lo - 1, 0):hi + 1]
        net = rec["seconds"] - sum(self.durations[lo:hi])
        rec["ref_seconds"] = net * REFERENCE_S / statistics.fmean(around)
        return rec["ref_seconds"]


def load_program():
    """Import ``meanstab.cli`` from the checkout's src/, first dropping every
    module imported since the benchmark's own imports, so meanstab's import
    work is redone and its module state (memo caches) starts empty."""
    if not (SRC / "meanstab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no meanstab sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n not in _PRELOADED]:
        del sys.modules[name]
    cli = importlib.import_module("meanstab.cli")
    if Path(cli.__file__).resolve().parent != SRC / "meanstab":
        raise SystemExit(f"perfbench: meanstab imported from {cli.__file__}, not {SRC}")
    return cli


def execute(cli, argv: Argv) -> tuple[int, str, float]:
    """One job: (exit code, stdout, wall seconds).  A job that raises gets
    exit code -1 and the exception as its output."""
    if threading.active_count() != 1:
        raise RuntimeError("a second thread is running; the run is single-threaded by design")
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except Exception as exc:  # counted as a failed job, never fatal
        rc, out = -1, io.StringIO(f"raised {exc!r}")
    return rc, out.getvalue(), time.perf_counter() - start


def load_golden(workload: Workload) -> tuple[Path, dict]:
    path = GOLDEN / f"{workload.name}.json"
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    missing = [key(argv) for argv in workload.all_jobs() if key(argv) not in golden]
    if missing:
        raise SystemExit(f"perfbench: {len(missing)} jobs without a golden answer, e.g. {missing[0]}")
    return path, golden


def setup_sample(golden_path: Path) -> float:
    """One set-up, in reference seconds: a fresh import of meanstab (and of
    any module it loads that the benchmark does not), the parser build and
    the load of the golden answers."""
    before = reference_sample()
    start = time.perf_counter()
    load_program().build_parser()
    with open(golden_path, encoding="utf-8") as fh:
        json.load(fh)
    elapsed = time.perf_counter() - start
    return elapsed * 2 * REFERENCE_S / (before + reference_sample())


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    and its label; the median when there are too few samples for that."""
    ordered, n = sorted(times), len(times)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), f"p50 of {n} jobs (too few for a tail)"
    index = n - TAIL_BEYOND - 1
    return ordered[index], f"p{100 * (index + 1) / n:.1f} of {n} jobs ({TAIL_BEYOND} beyond)"


def gate(records: list[dict], golden: dict) -> tuple[int, str]:
    """Judge every record in place.  Returns the number failed and the
    outcome of the gate's self-check on one matching report, preferably one
    with float evidence; the self-check raises SystemExit if it finds the
    gate accepting a corrupted report."""
    for rec in records:
        rec["failure"] = judge(rec["argv"], rec["rc"], rec["stdout"], golden[key(rec["argv"])])
    passing = sorted((not golden[key(rec["argv"])]["floats"], i)
                     for i, rec in enumerate(records) if rec["failure"] is None)
    checked = "not run: no report matched its golden answer"
    if passing:
        rec = records[passing[0][1]]
        problems = self_check(rec["argv"], rec["stdout"], golden[key(rec["argv"])])
        if problems:
            raise SystemExit("perfbench: gate self-check failed: " + "; ".join(problems))
        checked = f"corrupted copies of `{key(rec['argv'])}` were judged failed"
    for rec in records:
        del rec["stdout"]
    return sum(rec["failure"] is not None for rec in records), checked


def _record(argv: Argv, outcome: tuple[int, str, float], row: str | None = None) -> dict:
    rc, stdout, seconds = outcome
    return {"argv": argv, "row": row, "rc": rc, "stdout": stdout, "seconds": seconds}


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    golden_path, golden = load_golden(workload)
    setup = [setup_sample(golden_path) for _ in range(SETUP_REPEATS)]
    cli = load_program()
    records = []

    def run(argv: Argv) -> float:
        start = time.perf_counter()
        rec = _record(argv, execute(cli, argv))
        rec["window"] = (start, time.perf_counter())
        records.append(rec)
        return speed.calibrate(rec)

    with SpeedLog() as speed:
        cpu0, start = time.process_time(), time.perf_counter()
        measured, exhausted = 0.0, True
        for batch in schedule(workload, seed):
            measured += sum(run(argv) for argv in batch)
            if measured >= seconds or time.perf_counter() - start >= WALL_LIMIT * seconds:
                exhausted = False
                break
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for rec in records:  # again, now with the samples taken after each job
        speed.calibrate(rec)
        del rec["window"]

    failed, checked = gate(records, golden)
    times = [rec["ref_seconds"] for rec in records]
    tail_s, tail_label = tail(times)
    return {
        "records": records,
        "failed": failed,
        "notes": [f"gate self-check: {checked}",
                  f"job_tail_s is the {tail_label}",
                  f"loop {wall:.2f} s wall, {cpu:.2f} s cpu, jobs {sum(times):.2f} ref s; "
                  f"{len(speed.durations)} reference samples, median "
                  f"{statistics.median(speed.durations) * 1e3:.3f} ms"]
                 + (["pool exhausted before --seconds"] if exhausted else []),
        "metrics": {
            "jobs_per_s": ((len(records) - failed) / sum(times), "1/s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        },
        "setup_samples_s": setup,
        "reference_samples_s": speed.durations,
    }


def traced_run(workload: Workload, seed: int) -> dict:
    _, golden = load_golden(workload)
    job_list = trace_jobs(workload, seed)
    rows = {argv: row for row, argv in workload.pinned}
    cli = load_program()
    start = time.perf_counter()
    plain = [_record(argv, execute(cli, argv), rows.get(argv)) for argv in job_list]
    untraced_s = time.perf_counter() - start

    cli = load_program()
    tracer = Tracer()
    tracer.prepare()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = [_record(argv, tracer.run_job(i, execute, cli, argv))
                  for i, argv in enumerate(job_list)]
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()

    records = plain + traced
    failed, checked = gate(records, golden)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.json"
    tracer.write_spans(spans_path)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    table = tracer.table()
    job_total = table["job"]["total_s"]
    shares = sorted(((v["total_s"] / job_total, v["self_s"] / job_total, name)
                     for name, v in table.items() if name != "job" and v["calls"]), reverse=True)
    return {
        "records": records,
        "failed": failed,
        "notes": [f"gate self-check: {checked}",
                  f"{len(job_list)} jobs, untraced {untraced_s:.2f} s, traced {traced_s:.2f} s",
                  f"{len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}",
                  "share of traced job time (total / self):"]
                 + [f"  {name:<44} {t:6.1%} {s:6.1%}" for t, s, name in shares[:12]],
        "metrics": metrics,
        "functions": table,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    load_start = list(os.getloadavg())
    if args.trace:
        result = traced_run(workload, args.seed)
    else:
        result = timed_run(workload, args.seed, args.seconds)
    env = {**environment(), "loadavg_start": load_start,
           "loadavg_end": list(os.getloadavg()), "threads": threading.active_count()}
    records, failed = result["records"], result["failed"]
    pinned = {rec["row"]: rec["seconds"] for rec in records if rec["row"]}
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "notes": result["notes"],
                   "metrics": result["metrics"], "pinned_rows_s": pinned,
                   "functions": result.get("functions"),
                   "setup_samples_s": result.get("setup_samples_s"),
                   "reference_samples_s": result.get("reference_samples_s"),
                   "jobs": records}, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  python {env['python']} ({env['implementation']}), nproc {env['nproc']}, "
          f"affinity {env['affinity']}, threads {env['threads']}, "
          f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    for row, seconds in pinned.items():
        print(f"  pinned {row:<39} {seconds:>14.6g} s")
    print(f"  failed_frac {failed / len(records):.4f} ({failed} of {len(records)} jobs)")
    for note in result["notes"]:
        print(f"  {note}")
    for rec in records:
        if rec["failure"]:
            print(f"  FAILED {key(rec['argv'])}: {rec['failure']}")
    print(f"  report: {report_path.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
