#!/usr/bin/env python3
"""Write the golden answers of the benchmark's job pools.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs every job of each pool (all workloads by default) in process with the
program in src/ and writes perfbench/golden/<workload>.json, which maps each
job's argv to the digest of its exact fields and its float evidence.  A job
that exits non-zero or violates a closed-form spot check is listed and no
file is written.  Regenerate only when a change is meant to alter the
program's output; the golden answers are what the benchmark's gate trusts.
"""

from __future__ import annotations

import json
import sys

from gate import golden_entry, key, spot_check
from jobs import WORKLOADS
from run import GOLDEN, execute, load_program


def write_golden(name: str, golden: dict) -> None:
    """One job per line, sorted, so a regenerated file diffs by job."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
             for k, v in sorted(golden.items())]
    with open(GOLDEN / f"{name}.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def build(name: str) -> int:
    cli = load_program()
    golden, problems, total = {}, [], 0.0
    for argv in WORKLOADS[name].all_jobs():
        rc, stdout, seconds = execute(cli, argv)
        total += seconds
        if rc != 0:
            problems.append(f"{key(argv)}: exit code {rc}")
            continue
        report = json.loads(stdout)
        problem = spot_check(argv, report)
        if problem:
            problems.append(f"{key(argv)}: {problem}")
        golden[key(argv)] = golden_entry(report)
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)
    if problems:
        return 1
    GOLDEN.mkdir(exist_ok=True)
    write_golden(name, golden)
    print(f"{name}: {len(golden)} golden answers, {total:.1f} s of jobs")
    return 0


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(WORKLOADS)
    sys.exit(max(build(name) for name in names))
