"""Exact-answer gate: every job's report against its committed golden answer.

A golden answer holds a digest of the report's exact fields and the list of
its float fields.  Exact fields are everything that is not a float:
coefficients, case, relation, roots, leading constants, stable parameters,
notes.  They are compared through a SHA-256 digest of their canonical JSON,
so key order and whitespace do not matter.  Floats are the numeric evidence
(boundary limits, ``approx`` values); they are compared within a relative
tolerance, in the canonical key order.

On top of the golden answers, a few closed forms from the paper are checked
directly on the reports that carry them (``spot_check``).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from jobs import Argv

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


def key(argv: Argv) -> str:
    return " ".join(argv)


def _split(node, floats: list):
    """The node with every float replaced by None; floats collected in
    canonical (sorted-key, depth-first) order."""
    if isinstance(node, float):
        floats.append(node)
        return None
    if isinstance(node, dict):
        return {k: _split(node[k], floats) for k in sorted(node)}
    if isinstance(node, list):
        return [_split(v, floats) for v in node]
    return node


def golden_entry(report: dict) -> dict:
    floats: list[float] = []
    exact = _split(report, floats)
    canonical = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return {"exact": hashlib.sha256(canonical.encode()).hexdigest()[:32], "floats": floats}


def _option(argv: Argv, name: str) -> str | None:
    for i, item in enumerate(argv):
        if item == name and i + 1 < len(argv):
            return argv[i + 1]
        if item.startswith(name + "="):
            return item[len(name) + 1:]
    return None


def _rat(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _coefficient(report: dict, n: int) -> Fraction:
    return _rat(report["coefficients"][n])


# a_2 of the families with a closed form (catalog docstrings):
# B_p: (p-1)/2, L_alpha: -(2 alpha^2 + 1)/3, S_alpha: (2 alpha^2 - 1)/3.
_NAMED_FAMILY = {
    "A": ("powermean", Fraction(1)), "G": ("powermean", Fraction(0)),
    "H": ("powermean", Fraction(-1)), "L": ("salpha", Fraction(0)),
    "P": ("salpha", Fraction(1, 2)), "T": ("salpha", Fraction(1)),
    "HZ1/4": ("lalpha", Fraction(1, 4)),
}


def _closed_form_a2(argv: Argv) -> Fraction | None:
    name = _option(argv, "--mean")
    if name in _NAMED_FAMILY:
        family, value = _NAMED_FAMILY[name]
    elif name == "powermean":
        family, value = name, Fraction(_option(argv, "--power"))
    elif name in ("lalpha", "salpha"):
        family, value = name, Fraction(_option(argv, "--alpha"))
    else:
        return None
    if family == "powermean":
        return (value - 1) / 2
    if family == "lalpha":
        return -(2 * value * value + 1) / 3
    return (2 * value * value - 1) / 3


def spot_check(argv: Argv, report: dict) -> str | None:
    """Closed forms from the paper; returns the violated one, if any."""
    command, name = argv[0], _option(argv, "--mean")
    if command == "expand" and name == "powermean":
        p = Fraction(_option(argv, "--power"))
        if _coefficient(report, 2) != (p - 1) / 2:
            return "B_p: a_2 != (p-1)/2"
        if _coefficient(report, 4) != (p - 1) * (3 + p - 2 * p * p) / 24:
            return "B_p: a_4 != (p-1)(3+p-2p^2)/24"
    if command == "expand" and name == "stable":
        a2 = Fraction(_option(argv, "--a2"))
        if _coefficient(report, 2) != a2:
            return "stable: a_2 differs from --a2"
        if _coefficient(report, 4) != a2 * (1 + a2) * (1 - 4 * a2) / 6:
            return "stable: a_4 != a_2(1+a_2)(1-4a_2)/6"
    if command == "solve" and "locus" in report:
        a2 = _closed_form_a2(argv)
        locus = report["locus"]
        if a2 is not None and _rat(locus["q_intercept"]) != 3 * a2 + Fraction(3, 2):
            return "locus: q != 3 a_2 + (3-p)/2"
        if _rat(locus["q_slope"]) != Fraction(-1, 2):
            return "locus: slope of q in p != -1/2"
    if command == "scan" and _option(argv, "--family") == "L":
        found = []
        for root in report["stable_parameters"]:
            if root["kind"] != "exact-rational":
                return "L family: irrational stable parameter"
            found.append(_rat(root["value"]))
        if found != [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]:
            return "L family: stable alpha != {+-1/2, +-1}"
    return None


def judge(argv: Argv, rc: int, stdout: str, golden: dict) -> str | None:
    """Why the job failed, or None when its report matches."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    entry = golden_entry(report)
    if entry["exact"] != golden["exact"]:
        return "exact fields differ from the golden answer"
    if len(entry["floats"]) != len(golden["floats"]) or not all(
        math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL)
        for a, b in zip(entry["floats"], golden["floats"])
    ):
        return "float evidence outside tolerance"
    try:
        return spot_check(argv, report)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"spot check could not read the report: {exc!r}"


def _first(node, kind):
    """Path to the first value of the given type, in canonical order."""
    if isinstance(node, kind) and not isinstance(node, bool):
        return []
    items = sorted(node.items()) if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for k, child in items:
        path = _first(child, kind)
        if path is not None:
            return [k] + path
    return None


def _corrupt(stdout: str, kind, change) -> str | None:
    report = json.loads(stdout)
    path = _first(report, kind)
    if path is None:
        return None
    node = report
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = change(node[path[-1]])
    return json.dumps(report, indent=2)


def self_check(argv: Argv, stdout: str, golden: dict) -> list[str]:
    """Feed corrupted copies of a matching report through ``judge``.

    The report must match its golden answer.  Returns the problems found: a
    corrupted exact field or a float moved beyond tolerance must be judged
    failed, and a float moved well within tolerance must pass.
    """
    problems = []
    cases = (
        (int, lambda v: v + 1, True, "an integer field off by one"),
        (float, lambda v: v * (1 + 1e-6) + 1e-6, True, "a float moved by 1e-6"),
        (float, lambda v: v * (1 + 1e-13), False, "a float moved by 1e-13"),
    )
    for kind, change, should_fail, label in cases:
        text = _corrupt(stdout, kind, change)
        if text is None:
            continue
        failed = judge(argv, 0, text, golden) is not None
        if failed != should_fail:
            problems.append(f"{label} was {'accepted' if should_fail else 'rejected'}")
    return problems
