"""Job pools of the three workloads and the seeded schedule that draws from them.

A job is the argv of one ``meanstab`` CLI invocation.  Every pool is a fixed,
finite list of valid, in-range inputs, and every job in it has a committed
golden answer (see ``make_golden.py``).

A workload has

* pinned jobs: the indicative rows of the ROADMAP baseline table, run at the
  head of the traced job list and reported by row name;
* strata: lists of jobs of similar cost.  Every round takes one job from
  each stratum, so every round has the same make-up and a run measures the
  same mix whatever its length.

The seed shuffles each stratum and the order of jobs within a round.  It
thus decides which inputs run at which truncation order of a stratum's
band, the coefficient height of alpha, p and a_2, the parity of the mean
and, where a stratum holds several, the resultant case.  No argv repeats within a run:
strata are drawn without replacement, and a run stops when one is empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

Argv = tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    pinned: tuple[tuple[str, Argv], ...]  # (ROADMAP row name, argv)
    strata: tuple[tuple[Argv, ...], ...]
    trace_rounds: int  # rounds after the pinned jobs in the traced job list

    def all_jobs(self) -> list[Argv]:
        return [argv for _, argv in self.pinned] + [argv for s in self.strata for argv in s]


def schedule(workload: Workload, seed: int) -> Iterator[list[Argv]]:
    """Seeded rounds of jobs, one from each stratum, until a stratum is empty."""
    rng = random.Random(seed)
    queues = [rng.sample(stratum, len(stratum)) for stratum in workload.strata]
    for batch in zip(*queues):
        batch = list(batch)
        rng.shuffle(batch)
        yield batch


def trace_jobs(workload: Workload, seed: int) -> list[Argv]:
    """The fixed job list of a traced run: pinned jobs, then the first rounds."""
    jobs = [argv for _, argv in workload.pinned]
    rounds = schedule(workload, seed)
    for _ in range(workload.trace_rounds):
        jobs.extend(next(rounds))
    return jobs


# ---------------------------------------------------------------------------
# Inputs


def _unit_fractions(max_den: int, exclude: tuple[str, ...] = ()) -> list[Fraction]:
    """Reduced a/b in (0, 1) with b <= max_den, by increasing height."""
    skip = {Fraction(x) for x in exclude}
    return [
        Fraction(a, b)
        for b in range(2, max_den + 1)
        for a in range(1, b)
        if gcd(a, b) == 1 and Fraction(a, b) not in skip
    ]


def mean(name: str, **params) -> Argv:
    """``--mean`` plus exact parameters; ``=`` keeps negative values parseable."""
    return ("--mean", name) + tuple(f"--{key}={value}" for key, value in params.items())


def _stratum(command: str, order_flag: str, means: list[Argv], orders,
             pinned: tuple[tuple[str, Argv], ...] = ()) -> tuple[Argv, ...]:
    """Every mean at every order, less the pinned jobs."""
    taken = {argv for _, argv in pinned}
    jobs = ((command,) + m + (order_flag, str(order)) for order in orders for m in means)
    return tuple(argv for argv in jobs if argv not in taken)


# solve-deep: means whose difference vanishes on the locus to high order.
_DEEP_PINNED = tuple(
    (f"optimal_parameters {name} 16", ("solve", "--mean", name, "--max-order", "16"))
    for name in ("L", "G", "H")
)
_DEEP_NAMED = [mean(n) for n in ("A", "G", "H", "L")] + [
    mean("lalpha", alpha=a) for a in ("1/2", "-1/2", "1", "-1")
]
_DEEP_POWERS = [mean("powermean", power=p) for p in
                ("2", "-2", "3", "1/2", "-1/2", "1/3", "3/2", "-5/3", "7/4", "-13/6")]
_DEEP_ORDERS = [12, 13, 14, 15, 16]

SOLVE_DEEP = Workload(
    "solve-deep",
    _DEEP_PINNED,
    tuple(_stratum("solve", "--max-order", _DEEP_NAMED + _DEEP_POWERS, [order], _DEEP_PINNED)
          for order in _DEEP_ORDERS),
    trace_rounds=1,
)

# solve-early: the pivot appears by t^6, so jobs are short and numerous.
# L_1/2 and L_1 are stable (solve-deep); L_1/4 and S_1/2, S_1 are run under
# their names HZ1/4, P and T.
_EARLY_L = [mean("HZ1/4")] + [
    mean("lalpha", alpha=a) for a in _unit_fractions(20, exclude=("1/2", "1/4"))
]
_EARLY_S = [mean(n) for n in ("P", "T", "M2", "M4")] + [
    mean("salpha", alpha=a) for a in _unit_fractions(20, exclude=("1/2",))
]
_EARLY_MIXED = [mean(n) for n in ("M1", "M3", "M5")] + [
    mean("malphar", alpha=f"{sign}{a}", r=r)
    for a in ("1/5", "1/3", "3/7", "1/2", "2/3", "3/4", "5/6", "1")
    for sign in ("", "-")
    for r in ("1/2", "4/5", "1", "5/4", "3/2", "2", "7/3", "3")
]
_EARLY_ORDERS = [12, 13, 14, 15, 16]

SOLVE_EARLY = Workload(
    "solve-early",
    (),
    tuple(_stratum("solve", "--max-order", means, _EARLY_ORDERS)
          for means in (_EARLY_L, _EARLY_S, _EARLY_MIXED)),
    trace_rounds=60,
)

# compose-long: single-shot high-order expansions and resultants; no solver
# sampling.  Each stratum holds one kind of job (command, parity, resultant
# case) in a narrow order band, so its jobs cost about the same.  The bands
# sit at the low end of the ranges (resultants 32-48, expansions 64-96) to
# fit more rounds in a run; the pinned rows reach the high ends.  Case II
# (inner t-coefficient -1) is reachable from the CLI only through `stable`
# on M_{1,r}, whose inner mean is the mean itself.
_LONG_PINNED = (
    tuple(
        (f"resultant_coeffs M2,M2,M2 {n}",
         ("resultant", "--mean", "M2", "--outer", "M2", "--inner", "M2", "--order", str(n)))
        for n in (16, 32, 48)
    )
    + tuple(
        (f"expand_stable -1/2 {n}",
         ("expand", "--mean", "stable", "--a2=-1/2", "--order", str(n)))
        for n in (8, 12, 16, 20)
    )
    + tuple(
        (f"stability_parameter_scan {family} {n}",
         ("scan", "--family", family, "--order", str(n)))
        for family, n in (("L", 16), ("L", 24), ("S", 24))
    )
)


def _res(middle: Argv, outer: str | None = None, inner: str | None = None,
         p: str | None = None, q: str | None = None) -> Argv:
    if outer is not None:
        return middle + ("--outer", outer, "--inner", inner)
    return middle + (f"--p={p}", f"--q={q}")


_EVEN_CASE_I = [  # even means throughout
    _res(mean("G"), "A", "H"),
    _res(mean("powermean", power="5/3"), p="2", q="1/3"),
    _res(mean("lalpha", alpha="2/5"), "P", "M2"),
    _res(mean("L"), p="-3/2", q="5/4"),
    _res(mean("HZ1/4"), p="7/2", q="-2/3"),
    _res(mean("salpha", alpha="3/7"), "T", "A"),
    _res(mean("M4"), "G", "HZ1/4"),
]
_MIXED_CASE_I = [  # a mixed-parity middle, outer or inner (M5: t-coefficient 1/2)
    _res(mean("M5"), "T", "L"),
    _res(mean("M1"), "HZ1/4", "G"),
    _res(mean("salpha", alpha="3/7"), "M3", "A"),
    _res(mean("malphar", alpha="1/2", r="2"), "H", "M4"),
    _res(mean("A"), "G", "M5"),
    _res(mean("M3"), "M5", "P"),
    _res(mean("M5"), "H", "G"),
    _res(mean("malphar", alpha="-2/3", r="5/4"), "P", "HZ1/4"),
]
_CASE_III = [  # inner M1 or M3, t-coefficient +1
    _res(mean("A"), "A", "M1"),
    _res(mean("M3"), "H", "M3"),
    _res(mean("G"), "P", "M1"),
    _res(mean("M4"), "T", "M3"),
    _res(mean("salpha", alpha="2/3"), "L", "M1"),
    _res(mean("powermean", power="-3/2"), "M5", "M3"),
    _res(mean("malphar", alpha="-1/3", r="3"), "M2", "M1"),
    _res(mean("lalpha", alpha="5/7"), "HZ1/4", "M3"),
]
_CASE_II_STABLE = [mean("malphar", alpha="1", r=r)
                   for r in ("2", "3/2", "1", "1/2", "3", "5/4", "7/3", "4/5")]
_EVEN_STABLE = [
    mean("lalpha", alpha="2/5"), mean("lalpha", alpha="1/2"), mean("lalpha", alpha="3/4"),
    mean("salpha", alpha="3/7"), mean("salpha", alpha="5/6"),
    mean("powermean", power="5/3"), mean("powermean", power="-1/3"), mean("M2"), mean("M4"),
]
_MIXED_STABLE = [  # M_{-1,r} is case III
    mean("M1"), mean("M3"), mean("M5"), mean("malphar", alpha="-1", r="2"),
    mean("malphar", alpha="1/3", r="3/2"), mean("malphar", alpha="-2/3", r="5/4"),
    mean("malphar", alpha="3/4", r="3"),
]
_STABLE_A2 = [mean("stable", a2=a) for a in
              ("2/7", "-1/3", "1/4", "-2/5", "1/6", "-3/4", "5/9", "-1/10", "3/11",
               "2/13", "-5/7", "7/10")]
_CLASSIC = [mean(f"M{i}") for i in range(1, 6)]
_MALPHAR = [mean("malphar", alpha=a, r=r) for a, r in
            (("1/2", "2"), ("-3/7", "5/3"), ("1", "3/2"), ("-1", "3"),
             ("2/3", "4/5"), ("-1/5", "7/2"), ("3/4", "1"), ("-5/6", "9/4"))]
_S_ALPHA = [mean("salpha", alpha=a) for a in
            ("3/7", "4/9", "11/13", "2/9", "5/8", "1/3", "7/9", "3/5", "6/7", "1/8")]
_L_ALPHA_AND_POWER = [
    mean("lalpha", alpha="3/7"), mean("lalpha", alpha="9/10"), mean("lalpha", alpha="2/9"),
    mean("lalpha", alpha="5/6"), mean("powermean", power="7/3"),
    mean("powermean", power="-5/4"), mean("powermean", power="1/5"), mean("powermean", power="9/4"),
]

COMPOSE_LONG = Workload(
    "compose-long",
    _LONG_PINNED,
    (
        _stratum("resultant", "--order", _EVEN_CASE_I, (32, 33, 34)),
        _stratum("resultant", "--order", _MIXED_CASE_I, (32, 33, 34)),
        _stratum("resultant", "--order", _CASE_III, (32, 33, 34)),
        _stratum("stable", "--order", _CASE_II_STABLE, (32, 33, 34)),
        _stratum("stable", "--order", _EVEN_STABLE, (32, 33, 34)),
        _stratum("stable", "--order", _MIXED_STABLE, (32, 33, 34)),
        _stratum("expand", "--order", _STABLE_A2, (16, 17)),
        _stratum("expand", "--order", _CLASSIC, (64, 65, 66, 67)),
        _stratum("expand", "--order", _MALPHAR, (64, 65, 66)),
        _stratum("expand", "--order", _S_ALPHA, (64, 65, 66)),
        _stratum("expand", "--order", _L_ALPHA_AND_POWER, (96, 97, 98)),
    ),
    trace_rounds=1,
)

WORKLOADS = {w.name: w for w in (SOLVE_DEEP, SOLVE_EARLY, COMPOSE_LONG)}
