"""Command-line front end.

Subcommands map one-to-one onto the engines:

    expand     exact expansion coefficients of a catalog mean (or of the
               stable fixed-point series for a given t^2 coefficient)
    resultant  exact expansion of R(K, M, N)
    stable     stability check M vs R(M, M, M)
    solve      optimal power-mean parameters and stabilizability verdict
    compare    float comparison scan of two means on a grid
    limit      boundary limit at (s, 1-s), s -> 0
    verify     remainder-decay check of a truncated expansion

All parameters are exact fractions ("num/den"); decimal input is rejected so
nothing lossy crosses into the exact layer.  Reports go to stdout as JSON
(default) or a plain table; diagnostics go to stderr.  Exit codes: 0 success,
1 engine error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from collections.abc import Callable
from fractions import Fraction

from .catalog import (
    ALIASES,
    ClassicMean,
    LAlpha,
    MAlphaR,
    MeanExpansion,
    MeanSpec,
    PowerMean,
    SAlpha,
    _mean_form,
    describe_spec,
    expand_mean,
    expand_stable,
)
from .numeric import (
    GridSpec,
    boundary_limit,
    check_decay_setup,
    compare_scan,
    verify_expansion_decay,
)
from .polynomials import QuadraticSurdRoot, RationalRoot
from .rationals import Rational, parse_rational
from .resultant import _resultant, resultant_case
from .series import _values
from .solver import is_stable, optimal_parameters, scan_family, stability_parameter_scan

SCHEMA = "1"

# Largest truncation order and grid count the CLI accepts; the exact engines
# grow polynomially in the order, so larger requests are refused up front.
MAX_ORDER = 512
MAX_COUNT = 1_000_000


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON encoding helpers


def _rat_json(value: Rational) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _float_json(value: float, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


def _root_json(root: RationalRoot | QuadraticSurdRoot) -> dict:
    if isinstance(root, RationalRoot):
        return {"kind": root.kind, "value": _rat_json(root.value)}
    return {
        "kind": root.kind,
        "add": _rat_json(root.add),
        "sign": root.sign,
        "radicand": _rat_json(root.radicand),
        "div": _rat_json(root.div),
        "approx": _float_json(root.approx(), "float64"),
    }


def _leading_json(leading) -> dict | None:
    if leading is None:
        return None
    if isinstance(leading, Fraction):
        return {"exact": _rat_json(leading)}
    surd = {name: _rat_json(value) for name, value in vars(leading).items()}
    return {"exact_surd": surd, "sign": leading.sign}


def _expansion_json(expansion: MeanExpansion) -> dict:
    return {
        "order": expansion.order,
        "parity": expansion.parity,
        "coefficients": [
            {"t_power": n, "x_power": 1 - n, **_rat_json(c)}
            for n, c in enumerate(expansion.coeffs)
        ],
    }


# ---------------------------------------------------------------------------
# Mean spec parsing


def _exact(text: str) -> Rational:
    """parse_rational for a command-line value; text that is not an exact
    rational, a zero denominator included, is a usage error, not an engine
    error."""
    try:
        return parse_rational(text)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in {text!r}") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _mean_options(args: argparse.Namespace) -> dict[str, str | None]:
    """The options that give a mean's parameters, by name, as given."""
    return {"--power": args.power, "--alpha": args.alpha, "--r": args.r}


@contextlib.contextmanager
def _option_faults():
    """Turn the ValueError of a check on option values into a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


#: Every accepted mean name in lowercase: a fixed mean's spec, or a family's
#: spec type and the options of its parameters, in their inline order.
_MEANS: dict[str, MeanSpec | tuple[type, tuple[str, ...]]] = {
    **{name.lower(): spec for name, spec in ALIASES.items()},
    **dict.fromkeys(("hz14", "heinz"), ALIASES["HZ1/4"]),
    **{f"m{i}": ClassicMean(i) for i in range(1, 6)},
    "powermean": (PowerMean, ("--power",)),
    "lalpha": (LAlpha, ("--alpha",)),
    "salpha": (SAlpha, ("--alpha",)),
    "malphar": (MAlphaR, ("--alpha", "--r")),
}


def _refuse(name: str, options: dict[str, str | None]) -> None:
    """A usage error naming the given options, which the mean does not take."""
    given = [option for option, value in options.items() if value is not None]
    if given:
        raise UsageError(f"{name} does not take {' or '.join(given)}")


def parse_mean_spec(name: str, options: dict[str, str | None]) -> MeanSpec:
    """Resolve a mean name and its options' values by option name into a
    spec.  A family's parameters may instead follow its name inline, as
    ``name:value[,value]``: salpha:1/2, malphar:-1/3,3 or powermean:3/2.
    An option the mean does not take is a usage error."""
    key, colon, inline = name.strip().partition(":")
    key = key.strip()
    entry = _MEANS.get(key.lower())
    spec_type, params = entry if isinstance(entry, tuple) else (None, ())
    given = dict(options)
    if colon:
        if not params:
            raise UsageError(f"{key!r} is not a parametric mean; drop the parameters")
        if any(given.get(k) is not None for k in params):
            raise UsageError(f"give the parameters of {name!r} inline or as options, not both")
        values = [value.strip() for value in inline.split(",")]
        if len(values) > len(params):
            raise UsageError(f"{key} takes {len(params)} parameter(s), got {len(values)}")
        given.update((k, v or None) for k, v in zip(params, values))
    if entry is None:
        raise UsageError(f"unknown mean {name!r}")
    _refuse(key, {k: v for k, v in given.items() if k not in params})
    if spec_type is None:
        return entry
    missing = [k for k in params if given.get(k) is None]
    if missing:
        raise UsageError(f"{key} needs {' and '.join(missing)} num/den, or {key}:value[,value]")
    return spec_type(*(_exact(given[k]) for k in params))


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the JSON-able report dict)


def _cmd_expand(args: argparse.Namespace) -> dict:
    if args.mean.strip().lower() == "stable":
        if args.a2 is None:
            raise UsageError("the stable series needs --a2 num/den")
        _refuse("stable", _mean_options(args))
        a2 = _exact(args.a2)
        expansion = expand_stable(a2, args.order)
        label = f"stable(a2={a2})"
    else:
        spec = parse_mean_spec(args.mean, _mean_options(args) | {"--a2": args.a2})
        expansion = expand_mean(spec, args.order)
        label = describe_spec(spec)
    return {"mean": label, **_expansion_json(expansion)}


def _cmd_resultant(args: argparse.Namespace) -> dict:
    middle = parse_mean_spec(args.mean, _mean_options(args))
    if (args.outer, args.inner) != (None, None) and (args.p, args.q) != (None, None):
        raise UsageError("give either --outer/--inner names or --p/--q powers, not both")
    if args.outer is not None:
        outer = parse_mean_spec(args.outer, {})
        inner = parse_mean_spec(args.inner, {}) if args.inner else outer
    elif args.p is not None and args.q is not None:
        outer = PowerMean(_exact(args.p))
        inner = PowerMean(_exact(args.q))
    else:
        raise UsageError("give either --outer/--inner names or --p/--q powers")
    # The case is read from the inner t coefficient, also at order 0.
    inner_nums, inner_den = inner_form = _mean_form(inner, max(args.order, 1))
    case = resultant_case(MeanExpansion(_values(inner_nums[:2], inner_den)))
    # A power mean is the outer mean in closed form, as in the stability check.
    outer_form = outer.p if isinstance(outer, PowerMean) else _mean_form(outer, args.order)
    r_form = _resultant(outer_form, _mean_form(middle, args.order), inner_form, args.order)
    return {
        "outer": describe_spec(outer),
        "middle": describe_spec(middle),
        "inner": describe_spec(inner),
        "case": case,
        **_expansion_json(MeanExpansion(_values(*r_form))),
    }


def _cmd_stable(args: argparse.Namespace) -> dict:
    spec = parse_mean_spec(args.mean, _mean_options(args))
    report = is_stable(spec, args.order)
    out: dict = {
        "mean": report.description,
        "order": report.order,
        "stable_to_order": report.is_stable,
    }
    if not report.is_stable:
        out["first_mismatch"] = report.first_mismatch
        out["defect"] = _rat_json(report.defect)
    return out


def _cmd_solve(args: argparse.Namespace) -> dict:
    spec = parse_mean_spec(args.mean, _mean_options(args))
    mean = expand_mean(spec, args.max_order)
    verdict = optimal_parameters(mean, args.max_order, spec=spec)
    out: dict = {
        "mean": describe_spec(spec),
        "max_order": args.max_order,
        "relation": verdict.relation,
        "notes": list(verdict.notes),
    }
    if verdict.locus is not None:
        out["locus"] = {
            "q_intercept": _rat_json(verdict.locus.intercept),
            "q_slope": _rat_json(verdict.locus.slope),
            "describe": verdict.locus.describe(),
        }
    if verdict.fixed_leading is not None:
        out["fixed_leading"] = {
            "t_power": verdict.fixed_leading_order,
            **_rat_json(verdict.fixed_leading),
        }
    out["candidates"] = [
        {
            "p": _root_json(c.p),
            "q": _root_json(c.q),
            "first_nonzero_order": c.achieved_order,
            "leading": _leading_json(c.leading),
        }
        for c in verdict.candidates
    ]
    if verdict.boundary is not None:
        provenance = verdict.boundary.label
        out["boundary"] = {
            "mean_limit": _float_json(verdict.boundary.mean_limit, provenance),
            "resultant_limit": _float_json(verdict.boundary.resultant_limit, provenance),
        }
    return out


def _cmd_scan(args: argparse.Namespace) -> dict:
    if scan_family(args.family) is None:
        raise UsageError(f"unknown family {args.family!r}; use Lalpha or Salpha")
    roots = stability_parameter_scan(args.family, args.order)
    return {
        "family": args.family,
        "order": args.order,
        "stable_parameters": [_root_json(r) for r in roots],
    }


def _cmd_compare(args: argparse.Namespace) -> dict:
    m1 = parse_mean_spec(args.m1, {})
    m2 = parse_mean_spec(args.m2, {})
    with _option_faults():
        grid = GridSpec(args.x_min, args.x_max, args.count, args.scale)
    report = compare_scan(m1, m2, grid)
    return {
        "m1": describe_spec(m1),
        "m2": describe_spec(m2),
        "verdict": report.verdict,
        "min_gap": _float_json(report.min_gap, "float64"),
        "witnesses": [list(w) for w in report.witnesses],
    }


def _cmd_limit(args: argparse.Namespace) -> dict:
    middle = parse_mean_spec(args.mean, _mean_options(args))
    if (args.p is None) != (args.q is None):
        raise UsageError("a resultant limit needs both --p and --q")
    if args.p is not None:
        expr: object = (PowerMean(_exact(args.p)), middle, PowerMean(_exact(args.q)))
        label = f"R({', '.join(map(describe_spec, expr))})"
    else:
        expr = middle
        label = describe_spec(middle)
    report = boundary_limit(expr)
    return {
        "expression": label,
        "limit": _float_json(report.value, report.method),
        "uncertainty": report.uncertainty,
    }


def _cmd_verify(args: argparse.Namespace) -> dict:
    spec = parse_mean_spec(args.mean, _mean_options(args))
    with _option_faults():
        grid = GridSpec(args.x_min, args.x_max, args.count, "logarithmic")
        check_decay_setup(args.t, grid)
    report = verify_expansion_decay(spec, args.order, args.t, grid)
    return {"mean": describe_spec(spec), "order": args.order, "t": args.t, **vars(report)}


# ---------------------------------------------------------------------------
# Argument parser


def _integer(noun: str, minimum: int, maximum: int) -> Callable[[str], int]:
    """argparse type of orders and counts: an integer from minimum to maximum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = -1  # rejected below with the same message as a negative value
        if value < 0:
            raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected {noun} of at least {minimum}, got {text!r}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"expected {noun} of at most {maximum}, got {text!r}")
        return value

    return parse


def _finite(text: str) -> float:
    """argparse type of float options: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common_arguments(sub: argparse.ArgumentParser) -> None:
    # Accepted after the subcommand as well; SUPPRESS keeps a value parsed
    # before the subcommand intact when the flag is not repeated.
    sub.add_argument(
        "--format", choices=("json", "table"), default=argparse.SUPPRESS
    )
    sub.add_argument("--out", default=argparse.SUPPRESS)


def _add_mean_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mean", required=True, help="mean name (A,G,H,L,P,T,HZ1/4,M1..M5,powermean,Lalpha,Salpha,Malphar)")
    sub.add_argument("--alpha", help="exact fraction for Lalpha/Salpha/Malphar")
    sub.add_argument("--r", help="exact fraction for Malphar")
    sub.add_argument("--power", help="exact fraction p for powermean")


def build_parser() -> argparse.ArgumentParser:
    # Options are spelled in full: a prefix such as --p is no second name.
    no_prefixes = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = no_prefixes(
        prog="meanstab",
        description="exact asymptotic expansions and power-mean stabilizability of bivariate means",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--out", help="write the JSON report to a file as well")
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=no_prefixes)

    sub = subs.add_parser("expand", help="exact expansion coefficients")
    _add_common_arguments(sub)
    _add_mean_arguments(sub)
    sub.add_argument("--a2", help="with --mean stable: the t^2 coefficient of the stable series")
    sub.add_argument("--order", type=_integer("an order", 0, MAX_ORDER), default=8)
    sub.set_defaults(handler=_cmd_expand)

    sub = subs.add_parser("resultant", help="expansion of R(K, M, N)")
    _add_common_arguments(sub)
    _add_mean_arguments(sub)
    sub.add_argument("--outer", help="outer mean K by name")
    sub.add_argument("--inner", help="inner mean N by name")
    sub.add_argument("--p", help="outer power-mean parameter (exact fraction)")
    sub.add_argument("--q", help="inner power-mean parameter (exact fraction)")
    sub.add_argument("--order", type=_integer("an order", 0, MAX_ORDER), default=8)
    sub.set_defaults(handler=_cmd_resultant)

    sub = subs.add_parser("stable", help="compare a mean with R(M, M, M)")
    _add_common_arguments(sub)
    _add_mean_arguments(sub)
    sub.add_argument("--order", type=_integer("an order", 4, MAX_ORDER), default=8)
    sub.set_defaults(handler=_cmd_stable)

    sub = subs.add_parser("solve", help="optimal power-mean parameters")
    _add_common_arguments(sub)
    _add_mean_arguments(sub)
    sub.add_argument("--max-order", type=_integer("an order", 3, MAX_ORDER), default=8)
    sub.set_defaults(handler=_cmd_solve)

    sub = subs.add_parser("scan", help="stable parameters within a family")
    _add_common_arguments(sub)
    sub.add_argument("--family", required=True, help="Lalpha or Salpha")
    sub.add_argument("--order", type=_integer("an order", 4, MAX_ORDER), default=16)
    sub.set_defaults(handler=_cmd_scan)

    sub = subs.add_parser("compare", help="comparison scan of two means")
    _add_common_arguments(sub)
    sub.add_argument("--m1", required=True)
    sub.add_argument("--m2", required=True)
    sub.add_argument("--x-min", type=_finite, default=0.001)
    sub.add_argument("--x-max", type=_finite, default=10.0)
    sub.add_argument("--count", type=_integer("a count", 2, MAX_COUNT), default=10000)
    sub.add_argument("--scale", choices=("linear", "logarithmic"), default="linear")
    sub.set_defaults(handler=_cmd_compare)

    sub = subs.add_parser("limit", help="boundary limit at (s, 1-s)")
    _add_common_arguments(sub)
    _add_mean_arguments(sub)
    sub.add_argument("--p", help="outer power for a resultant limit")
    sub.add_argument("--q", help="inner power for a resultant limit")
    sub.set_defaults(handler=_cmd_limit)

    sub = subs.add_parser("verify", help="remainder-decay slope check")
    _add_common_arguments(sub)
    _add_mean_arguments(sub)
    sub.add_argument("--order", type=_integer("an order", 0, MAX_ORDER), default=4)
    sub.add_argument("--t", type=_finite, default=10.0)
    sub.add_argument("--x-min", type=_finite, default=100.0)
    sub.add_argument("--x-max", type=_finite, default=100000.0)
    sub.add_argument("--count", type=_integer("a count", 2, MAX_COUNT), default=40)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def _render_table(report: dict) -> str:
    if "coefficients" in report:
        header = [f"{k}: {v}" for k, v in report.items() if k not in ("coefficients",)]
        rows = [f"{'t^n':>5}  {'x^(1-n)':>8}  coefficient"]
        for c in report["coefficients"]:
            rows.append(f"{c['t_power']:>5}  {c['x_power']:>8}  {Fraction(c['num'], c['den'])}")
        return "\n".join(header + rows)
    return "\n".join(f"{k}: {json.dumps(v)}" for k, v in report.items())


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built on the first call of main, not at import, and reused: building
    # costs about forty times what parsing one command line does.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, ZeroDivisionError) as exc:
        error_obj = {"schema": SCHEMA, "error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error_obj))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"schema": SCHEMA, "command": args.subcommand, **report}
    encoded = json.dumps(report, indent=2) if args.format == "json" or args.out else None
    text = encoded if args.format == "json" else _render_table(report)
    if args.out:
        # Written before anything is printed, so a failed write leaves stdout empty.
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(encoded + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(text)
    return 0
