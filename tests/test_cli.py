import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanstab import cli
from meanstab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0, out
    report = json.loads(out)
    assert report["schema"] == "1"
    return report


def coefficient_map(report):
    return {
        c["t_power"]: F(c["num"], c["den"]) for c in report["coefficients"]
    }


#: The README's mean names and the options each one takes.
MEAN_OPTIONS = {
    **dict.fromkeys(("A", "G", "H", "L", "P", "T", "HZ1/4", "M1", "M2", "M3", "M4", "M5"), ()),
    "powermean": ("--power",),
    "Lalpha": ("--alpha",),
    "Salpha": ("--alpha",),
    "Malphar": ("--alpha", "--r"),
    "stable": ("--a2",),
}
UNTAKEN_OPTIONS = [
    (name, option)
    for name, taken in MEAN_OPTIONS.items()
    for option in ("--alpha", "--r", "--power", "--a2")
    if option not in taken
]


class TestExpand:
    def test_l_alpha_example(self, capsys):
        report = run_json(
            capsys, "expand", "--mean", "Lalpha", "--alpha", "1/3", "--order", "8",
            "--format", "json",
        )
        coeffs = coefficient_map(report)
        assert coeffs[2] == F(-11, 27)
        assert report["parity"] == "even-only"
        assert {c["t_power"]: c["x_power"] for c in report["coefficients"]}[4] == -3

    def test_stable_series(self, capsys):
        # negative fractions use the = form, as usual with argparse
        report = run_json(capsys, "expand", "--mean", "stable", "--a2=-1/2")
        coeffs = coefficient_map(report)
        assert coeffs[4] == F(-1, 8)

    def test_alias(self, capsys):
        report = run_json(capsys, "expand", "--mean", "P", "--order", "4")
        assert coefficient_map(report)[2] == F(-1, 6)

    def test_json_round_trip(self, capsys):
        report = run_json(
            capsys, "expand", "--mean", "Salpha", "--alpha", "2/3", "--order", "10"
        )
        from meanstab.catalog import SAlpha, expand_mean

        expected = expand_mean(SAlpha(F(2, 3)), 10)
        assert coefficient_map(report) == {
            n: expected.coefficient(n) for n in range(11)
        }

    @pytest.mark.parametrize("name", ["HZ14", "heinz", "Heinz"])
    def test_heinz_aliases(self, capsys, name):
        report = run_json(capsys, "expand", "--mean", name, "--order", "8")
        assert report == run_json(capsys, "expand", "--mean", "HZ1/4", "--order", "8")

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "table", "expand", "--mean", "A", "--order", "2"
        )
        assert code == 0
        assert "coefficient" in out
        code, out, _ = run_cli(
            capsys, "--format", "table", "expand", "--mean", "stable", "--a2=-1/2", "--order", "4"
        )
        assert code == 0
        assert out.splitlines()[-3:] == ["    2        -1  -1/2", "    3        -2  0", "    4        -3  -1/8"]


class TestSolve:
    def test_m2_example(self, capsys):
        report = run_json(capsys, "solve", "--mean", "M2", "--max-order", "6")
        assert report["relation"] == "candidate-super"
        # locus p + 2q = 5
        assert F(report["locus"]["q_intercept"]["num"], report["locus"]["q_intercept"]["den"]) == F(5, 2)
        cands = report["candidates"]
        assert len(cands) == 2
        for cand in cands:
            q = cand["q"]
            assert q["kind"] == "quadratic-surd"
            assert (q["add"]["num"], q["radicand"]["num"], q["div"]["num"]) == (5, 17, 2)
            assert cand["first_nonzero_order"] == 6
            lead = cand["leading"]["exact"]
            assert F(lead["num"], lead["den"]) == F(-11, 180)

    def test_stable_verdict(self, capsys):
        report = run_json(capsys, "solve", "--mean", "Lalpha", "--alpha", "1/2",
                          "--max-order", "8")
        assert report["relation"] == "stabilizable"

    def test_parameter_free_leading_term(self, capsys):
        # M5 has a_1 = 1/2: the difference starts at a_1/2 * t for every (p, q).
        report = run_json(capsys, "solve", "--mean", "M5", "--max-order", "8")
        assert report["fixed_leading"] == {"t_power": 1, "num": 1, "den": 4}
        assert report["candidates"] == []

    def test_a_vanishing_difference_has_no_leading_coefficient(self, capsys):
        report = run_json(capsys, "solve", "--mean", "powermean", "--power", "5/3",
                          "--max-order", "8")
        assert report["relation"] == "stabilizable"
        assert [(c["first_nonzero_order"], c["leading"]) for c in report["candidates"]] == [
            (None, None), (None, None)]


class TestStable:
    def test_s_alpha_mismatch(self, capsys):
        report = run_json(
            capsys, "stable", "--mean", "Salpha", "--alpha", "1", "--order", "8"
        )
        assert report["stable_to_order"] is False
        assert report["first_mismatch"] == 4

    def test_power_mean_stable(self, capsys):
        report = run_json(
            capsys, "stable", "--mean", "powermean", "--power", "7/5", "--order", "10"
        )
        assert report["stable_to_order"] is True


class TestOtherCommands:
    @pytest.mark.parametrize(("mean", "code"), [("A", 0), ("nope", 2)])
    def test_python_dash_m_meanstab(self, mean, code):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "meanstab", "expand", "--mean", mean, "--order", "2"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
        )
        assert done.returncode == code, done.stderr
        if code == 0:
            assert json.loads(done.stdout)["mean"] == "B_1"
        else:
            assert (done.stdout, done.stderr) == ("", "error: unknown mean 'nope'\n")

    def test_resultant_powers(self, capsys):
        report = run_json(
            capsys, "resultant", "--mean", "L", "--p", "1", "--q", "0", "--order", "8"
        )
        coeffs = coefficient_map(report)
        assert coeffs[2] == F(-1, 3)
        assert coeffs[4] == F(-4, 45)

    def test_resultant_names(self, capsys):
        report = run_json(
            capsys, "resultant", "--mean", "M1", "--outer", "A", "--inner", "M1",
            "--order", "6",
        )
        assert report["case"] == 3

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize(
        ("inner", "case"), [("M1", 3), ("malphar:1,2", 2), ("A", 1)], ids=["M1", "malphar", "A"]
    )
    def test_resultant_case_at_low_orders(self, capsys, inner, case, order):
        # the case is the inner mean's, however short the expansion asked for
        report = run_json(
            capsys, "resultant", "--mean", "G", "--outer", "A", "--inner", inner,
            "--order", str(order),
        )
        assert report["case"] == case
        assert report["order"] == order and len(report["coefficients"]) == order + 1

    @pytest.mark.parametrize(
        ("family", "expected"), [("L", [F(-1), F(-1, 2), F(1, 2), F(1)]), ("S", [])]
    )
    def test_scan_is_the_same_at_orders_16_and_24(self, capsys, family, expected):
        for order in ("16", "24"):
            report = run_json(capsys, "scan", "--family", family, "--order", order)
            values = [F(r["value"]["num"], r["value"]["den"]) for r in report["stable_parameters"]]
            assert values == expected

    def test_scan(self, capsys):
        report = run_json(capsys, "scan", "--family", "Lalpha", "--order", "12")
        values = [
            F(r["value"]["num"], r["value"]["den"])
            for r in report["stable_parameters"]
        ]
        assert values == [F(-1), F(-1, 2), F(1, 2), F(1)]

    def test_compare(self, capsys):
        report = run_json(
            capsys, "compare", "--m1", "G", "--m2", "A", "--count", "200"
        )
        assert report["verdict"] == "m1<m2"

    @pytest.mark.parametrize(("power", "verdict"), [("1/1000", "m2<m1"), ("-1/1000", "m1<m2")])
    def test_compare_a_power_mean_with_g_far_out(self, capsys, power, verdict):
        # G < B_p for p > 0 and B_p < G for p < 0 at every x: also past
        # x = 372, where exp(-x)/exp(x) underflows, and past x = 709.8, where
        # exp(x) overflows but f_M of B_{+-1/1000} is still finite.
        report = run_json(
            capsys, "compare", "--m1", f"powermean:{power}", "--m2", "G",
            "--x-min", "1", "--x-max", "1000", "--count", "100",
        )
        assert report["verdict"] == verdict

    def test_compare_a_quotient_mean_past_exp_range(self, capsys):
        # f_L = sinh(x)/x is finite up to about x = 717, past exp(x)'s range.
        mpmath = pytest.importorskip("mpmath")
        report = run_json(
            capsys, "compare", "--m1", "L", "--m2", "G",
            "--x-min", "711", "--x-max", "715", "--count", "3",
        )
        assert report["verdict"] == "m2<m1"
        with mpmath.workdps(50):
            true = mpmath.sinh(711) / 711 - 1
            gap = report["min_gap"]["value"]
            assert abs(gap - true) / true <= 4 * 2.0**-52

    @pytest.mark.parametrize(("m1", "m2"), [
        ("H", "lalpha:1"), ("H", "lalpha:-1"), ("lalpha:1/2", "G"), ("L", "lalpha:0"),
        ("salpha:0", "lalpha:0"), ("A", "powermean:1"), ("malphar:0,1", "L"),
        ("L", "malphar:0,7/2")])
    def test_compare_two_spellings_of_one_mean(self, capsys, m1, m2):
        # the table of exact coincidences certifies "equal" before any scan;
        # H against L_1 read "crossing" from rounding noise, 717 witnesses,
        # and M_{0,1} against L 731
        report = run_json(capsys, "compare", "--m1", m1, "--m2", m2, "--count", "1000")
        assert (report["verdict"], report["witnesses"], report["min_gap"]["value"]) == (
            "equal", [], 0.0)

    def test_compare_past_the_double_range_is_an_engine_error(self, capsys):
        # f_M1 = 2*sinh(x)/log(1 + 2x) leaves the double range before x = 713.
        code, out, _ = run_cli(
            capsys, "compare", "--m1", "M1", "--m2", "G",
            "--x-min", "711", "--x-max", "715", "--count", "3",
        )
        assert code == 1
        assert json.loads(out)["error"] == {"type": "OverflowError", "message": "math range error"}

    def test_compare_where_the_m_alpha_r_denominator_overflows(self, capsys):
        # M_{1,1/1000}'s D(2x) overflows past x = 516, at the grid's last two
        # points, and its log gives f_M there
        report = run_json(
            capsys, "compare", "--m1", "malphar:1,1/1000", "--m2", "A",
            "--x-min", "1", "--x-max", "700", "--count", "5",
        )
        assert report["verdict"] == "m1<m2" and report["witnesses"] == []

    @pytest.mark.parametrize(
        ("m1", "label", "verdict"),
        [
            ("salpha:1/2", "S_1/2", "m1<m2"),
            ("Malphar:-1/3,3", "M_(-1/3,3)", "crossing"),
            ("powermean:3/2", "B_3/2", "m2<m1"),
        ],
        ids=["salpha", "malphar", "powermean"],
    )
    def test_compare_parametric_mean_inline(self, capsys, m1, label, verdict):
        # The float scan's verdicts: P < A, a crossing, and A < B_3/2.
        report = run_json(capsys, "compare", "--m1", m1, "--m2", "A", "--count", "200")
        assert report["m1"] == label
        assert report["m2"] == "B_1"
        assert report["verdict"] == verdict

    def test_resultant_outer_and_inner_inline(self, capsys):
        from meanstab.catalog import M1, PowerMean, SAlpha, expand_mean
        from oracles import resultant_by_double_sums

        report = run_json(
            capsys, "resultant", "--mean", "M1", "--outer", "salpha:1/2",
            "--inner", "powermean:1/3", "--order", "6",
        )
        assert (report["outer"], report["inner"]) == ("S_1/2", "B_1/3")
        expected = resultant_by_double_sums(
            *(expand_mean(spec, 6).coeffs for spec in (SAlpha(F(1, 2)), M1, PowerMean(F(1, 3)))), 6
        )
        assert coefficient_map(report) == dict(enumerate(expected))

    def test_inline_parameters_match_the_options(self, capsys):
        inline = run_json(capsys, "expand", "--mean", "malphar:-1/3,3", "--order", "6")
        options = run_json(
            capsys, "expand", "--mean", "Malphar", "--alpha=-1/3", "--r", "3", "--order", "6"
        )
        assert inline == options

    def test_limit(self, capsys):
        report = run_json(capsys, "limit", "--mean", "M1", "--p", "1", "--q", "1")
        assert report["limit"]["value"] == pytest.approx(0.4747535, rel=1e-5)
        assert report["limit"]["provenance"] == "closed-form"

    def test_limit_with_a_subnormal_inner_mean(self, capsys):
        # B_{1/1050}(0, 1) = 2**-1050, and L(2**-1050, 1) = 1/(1050 ln 2)
        # needs ln(b/a) where b/a overflows
        report = run_json(capsys, "limit", "--mean", "L", "--p", "1", "--q", "1/1050")
        assert report["limit"]["value"] == pytest.approx(6.86997638518554e-4, rel=1e-12)

    def test_limit_where_sinh_overflows(self, capsys):
        # L_1 = H, and at 2**-1050 its sinh(ln(2**1050)) overflows: the limit
        # is H's, 2**-1050/(1 + 2**-1050)
        mpmath = pytest.importorskip("mpmath")
        report = run_json(capsys, "limit", "--mean", "lalpha:1", "--p", "1", "--q", "1/1050")
        h = run_json(capsys, "limit", "--mean", "H", "--p", "1", "--q", "1/1050")
        assert report["limit"] == h["limit"]
        with mpmath.workdps(50):
            nu = mpmath.mpf(2) ** -1050
            assert report["limit"]["value"] == pytest.approx(float(nu / (1 + nu)), rel=1e-6)

    def test_limit_of_a_plain_mean(self, capsys):
        # without --p/--q the limit is the mean's own: M1(0, 1) = 1/ln(1 + oo) = 0
        report = run_json(capsys, "limit", "--mean", "M1")
        assert report["expression"] == "M1"
        assert report["limit"] == {"value": 0.0, "provenance": "closed-form"}

    @pytest.mark.parametrize(
        "written, canonical, key, label",
        [
            (("limit", "--mean", "G", "--p=2/4", "--q=-03/6"),
             ("limit", "--mean", "G", "--p", "1/2", "--q=-1/2"), "expression", "R(B_1/2, B_0, B_-1/2)"),
            (("expand", "--mean", "stable", "--a2= -2/4", "--order", "6"),
             ("expand", "--mean", "stable", "--a2=-1/2", "--order", "6"), "mean", "stable(a2=-1/2)"),
            (("expand", "--mean", "stable", "--a2=+6/2", "--order", "4"),
             ("expand", "--mean", "stable", "--a2", "3", "--order", "4"), "mean", "stable(a2=3)"),
        ],
        ids=["limit", "stable", "stable-integer"],
    )
    def test_labels_show_the_parsed_values(self, capsys, written, canonical, key, label):
        report = run_json(capsys, *written)
        assert report[key] == label
        assert report == run_json(capsys, *canonical)

    def test_verify(self, capsys):
        report = run_json(
            capsys, "verify", "--mean", "M1", "--order", "1", "--t", "1"
        )
        assert report["expected_exponent"] == -1
        assert abs(report["slope"] - (-1.0)) < 0.15

    @pytest.mark.parametrize(
        "argv", [("--mean", "A", "--order", "3", "--t", "10"), ("--mean", "H", "--order", "2")],
        ids=["A", "H"],
    )
    def test_verify_exact_truncation(self, capsys, argv):
        # A = x and H = x - t^2/x: the exact expansion ends, whatever the floats say
        report = run_json(capsys, "verify", *argv)
        assert report["exact"] is True
        assert report["noise_floor"] is False
        assert report["expected_exponent"] is None

    def test_verify_zero_remainder_is_noise_floor(self, capsys):
        # at t = 1e-300 every float remainder is 0.0, but M1's expansion goes on
        report = run_json(capsys, "verify", "--mean", "M1", "--order", "2", "--t", "1e-300")
        assert report["exact"] is False
        assert report["noise_floor"] is True
        assert report["expected_exponent"] == -2


def _run_without_site_packages(command: str) -> subprocess.CompletedProcess:
    """python -S -m meanstab with the words of the command, the package on
    PYTHONPATH alone, as the CI runtime step runs it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-S", "-m", "meanstab", *command.split()],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )


def _rational_values(*pairs):
    return [{"num": n, "den": d} for n, d in pairs]


#: The canonical radicand of S_{2/9973}'s pivot roots.
_SALPHA_RADICAND = {"num": 97860270661329746644729152606785, "den": 1}

#: The runtime step's commands whose report CI checks, each with what its
#: JSON report must satisfy.
RUNTIME_REPORTS = {
    "solve --mean P --max-order 16": lambda r: [
        (x["p"]["kind"], x["q"]["kind"], x["first_nonzero_order"], x["leading"]) for x in r["candidates"]
    ] == [("quadratic-surd", "quadratic-surd", 6, {"exact": {"num": 1, "den": 1152}})] * 2,
    "solve --mean salpha:2/9973 --max-order 8": lambda r: (r["relation"], [
        (x["p"]["kind"], x["q"]["kind"], x["first_nonzero_order"], x["p"]["radicand"], x["q"]["radicand"])
        for x in r["candidates"]
    ]) == ("candidate-sub", [("quadratic-surd", "quadratic-surd", 6, _SALPHA_RADICAND, _SALPHA_RADICAND)] * 2),
    "solve --mean lalpha:3/10 --max-order 16": lambda r: (r["relation"], [
        (x["p"]["kind"], x["p"]["value"], x["q"]["kind"], x["q"]["value"], x["first_nonzero_order"], x["leading"])
        for x in r["candidates"]
    ]) == ("candidate-super", [
        ("exact-rational", {"num": -38, "den": 25}, "exact-rational", {"num": 27, "den": 25}, 6,
         {"exact": {"num": -1456, "den": 48828125}}),
        ("exact-rational", {"num": 38, "den": 25}, "exact-rational", {"num": -11, "den": 25}, 6,
         {"exact": {"num": -1456, "den": 48828125}}),
    ]),
    **{
        f"solve --mean salpha:3/7 --max-order {order}": lambda r: [
            (x["p"]["kind"], x["first_nonzero_order"]) for x in r["candidates"]
        ] == [("quadratic-surd", None)] * 2
        for order in (4, 5)
    },
    "solve --mean M1 --max-order 16": lambda r: (
        (r["relation"], r["fixed_leading"], r["candidates"]) == ("neither", {"t_power": 1, "num": 1, "den": 2}, [])
        and abs(r["boundary"]["resultant_limit"]["value"] / 0.4747535246508535 - 1) <= 1e-12
    ),
    **{
        command: lambda r, values=values: (
            r["relation"], [(x["p"]["value"], x["first_nonzero_order"]) for x in r["candidates"]]
        ) == ("stabilizable", [(v, None) for v in _rational_values(*values)])
        for command, values in (
            ("solve --mean L --max-order 24", ((-1, 1), (1, 1))),
            ("solve --mean powermean:-13/6 --max-order 16", ((-13, 6), (13, 6))),
            ("solve --mean lalpha:1 --max-order 128", ((-1, 1), (1, 1))),
        )
    },
    "compare --m1 H --m2 lalpha:1 --count 1000": lambda r: r["verdict"] == "equal",
    "compare --m1 malphar:0,1 --m2 L --count 1000": lambda r: r["verdict"] == "equal",
    "expand --mean powermean:9/4 --order 97": lambda r: r["coefficients"] == json.loads(
        _run_without_site_packages("expand --mean stable --a2=5/8 --order 97").stdout)["coefficients"],
    "expand --mean M5 --order 65": lambda r: (r["parity"], len(r["coefficients"])) == ("mixed", 66),
    "scan --family S --order 8": lambda r: r["stable_parameters"] == [],
    "scan --family L --order 24": lambda r: [(x["kind"], x["value"]) for x in r["stable_parameters"]] == [
        ("exact-rational", v) for v in _rational_values((-1, 1), (-1, 2), (1, 2), (1, 1))],
    "compare --m1 L --m2 G --x-min 711 --x-max 715 --count 3": lambda r: (
        r["verdict"] == "m2<m1" and math.isfinite(r["min_gap"]["value"])),
    "limit --mean L --p 1 --q 1/1050": lambda r: abs(r["limit"]["value"] / 6.86997638518554e-4 - 1) <= 1e-12,
}


@pytest.mark.parametrize("command", RUNTIME_REPORTS)
def test_runtime_reports_without_site_packages(command):
    # What the CI runtime step checks, run the same way: python -S, so the
    # command line needs nothing outside the standard library.
    done = _run_without_site_packages(command)
    assert (done.returncode, done.stderr) == (0, "")
    assert RUNTIME_REPORTS[command](json.loads(done.stdout))


class TestErrorHandling:
    def test_decimal_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--mean", "Lalpha", "--alpha", "0.33"
        )
        assert code == 2
        assert "fraction" in err
        assert out == ""

    def test_unknown_mean_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--mean", "nope")
        assert code == 2
        assert "unknown mean" in err

    def test_engine_error_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--mean", "Lalpha", "--alpha", "3/2"
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("expand", "--mean", "A", "--order", "-1"),
            ("resultant", "--mean", "L", "--p", "1", "--q", "0", "--order", "-2"),
            ("stable", "--mean", "L", "--order", "-1"),
            ("solve", "--mean", "M2", "--max-order", "-1"),
            ("scan", "--family", "Lalpha", "--order", "-1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_order_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "nonnegative integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--mean", "L", "--max-order", "1"),
            ("solve", "--mean", "L", "--max-order", "2"),
            ("solve", "--mean", "M1", "--max-order", "0"),
            ("stable", "--mean", "L", "--order", "3"),
            ("stable", "--mean", "A", "--order", "0"),
            ("scan", "--family", "L", "--order", "3"),
            ("scan", "--family", "Salpha", "--order", "3"),
            ("scan", "--family", "Lalpha", "--order", "0"),
        ],
        ids=lambda argv: f"{argv[0]}-{argv[-3] if argv[0] == 'scan' else ''}{argv[-1]}",
    )
    def test_order_too_low_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "order of at least" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("m1", "message"),
        [
            ("salpha", "needs --alpha"),
            ("salpha:", "needs --alpha"),
            ("malphar:1/2", "needs --r"),
            ("malphar:1/2,", "needs --r"),
            ("salpha:1/2,3", "takes 1 parameter"),
            ("powermean:1,2", "takes 1 parameter"),
            ("A:1", "not a parametric mean"),
            ("nope:1", "not a parametric mean"),
            ("b:2", "not a parametric mean"),
            ("salpha:1/0", "zero denominator"),
            ("malphar:1/2,3/0", "zero denominator"),
        ],
        ids=["no-parameter", "empty", "missing-r", "empty-r", "extra", "extra-power",
             "alias", "unknown", "unlisted", "zero-alpha", "zero-r"],
    )
    def test_inline_parameter_fault_is_usage_error(self, capsys, m1, message):
        code, out, err = run_cli(capsys, "compare", "--m1", m1, "--m2", "A", "--count", "20")
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(("name", "option"), UNTAKEN_OPTIONS,
                             ids=[name + option for name, option in UNTAKEN_OPTIONS])
    def test_an_option_the_mean_does_not_take_is_usage_error(self, capsys, name, option):
        # A family's parameters given as options and inline; either way the
        # error names the mean without them.
        taken = MEAN_OPTIONS[name]
        spellings = [(name, *(f"{o}=1/3" for o in taken))]
        if taken and name != "stable":
            spellings.append((f"{name}:" + ",".join("1/3" for _ in taken),))
        for mean, *given in spellings:
            code, out, err = run_cli(
                capsys, "expand", "--mean", mean, *given, f"{option}=1/2", "--order", "4"
            )
            assert (code, out, err) == (2, "", f"error: {name} does not take {option}\n")

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("stable", "--mean", "lalpha", "--alpha", "1/3", "--r", "5"), "lalpha does not take --r"),
            (("solve", "--mean", "M1", "--power", "2"), "M1 does not take --power"),
            (("verify", "--mean", "salpha", "--alpha", "1/3", "--power", "2"),
             "salpha does not take --power"),
            (("limit", "--mean", "G", "--alpha", "1/3", "--p", "1", "--q", "1"),
             "G does not take --alpha"),
            (("resultant", "--mean", "powermean:2", "--r", "1", "--p", "1", "--q", "0"),
             "powermean does not take --r"),
            (("expand", "--mean", "A", "--alpha", "1/3", "--r", "2", "--power", "3"),
             "A does not take --power or --alpha or --r"),
        ],
        ids=["stable", "solve", "verify", "limit", "resultant-inline", "all-three"],
    )
    def test_every_mean_option_is_checked(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("--mean", "b", "--power", "2"), "unknown mean 'b'"),
            (("--mean", "power", "--power", "2"), "unknown mean 'power'"),
            (("--mean", "power-mean", "--power", "2"), "unknown mean 'power-mean'"),
            (("--mean", "l_alpha", "--alpha", "1/2"), "unknown mean 'l_alpha'"),
            (("--mean", "s_alpha", "--alpha", "1/2"), "unknown mean 's_alpha'"),
            (("--mean", "m_alphar", "--alpha", "1/2", "--r", "2"), "unknown mean 'm_alphar'"),
            (("--mean", "m_alpha_r", "--alpha", "1/2", "--r", "2"), "unknown mean 'm_alpha_r'"),
            (("--mean", "powermean", "--p-value", "2"), "unrecognized arguments: --p-value"),
            (("--mean", "powermean", "--p", "2"), "unrecognized arguments: --p"),
            (("--mean", "L", "--ord", "4"), "unrecognized arguments: --ord"),
        ],
        ids=["b", "power", "power-mean", "l_alpha", "s_alpha", "m_alphar", "m_alpha_r",
             "p-value", "prefix-p", "prefix-ord"],
    )
    def test_unlisted_spellings_are_usage_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "expand", *argv, "--order", "4")
        assert code == 2
        assert out == ""
        assert message in err

    def test_inline_and_option_parameters_together_are_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--mean", "salpha:1/2", "--alpha", "1/3", "--order", "4"
        )
        assert code == 2
        assert out == ""
        assert "not both" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--mean", "A", "--a2", "1/3", "--max-order", "6"),
            ("stable", "--mean", "A", "--a2", "1/3"),
            ("resultant", "--mean", "A", "--p", "1", "--q", "0", "--a2", "1/3"),
            ("limit", "--mean", "A", "--a2", "5"),
            ("verify", "--mean", "A", "--a2", "1/3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_a2_is_an_option_of_expand_only(self, capsys, argv):
        # only the stable series reads --a2; elsewhere it would be dropped
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--a2" in err

    @pytest.mark.parametrize(
        "forms",
        [
            ("--outer", "A", "--p", "2", "--q", "3"),
            ("--p", "2", "--q", "3", "--inner", "M1"),
            ("--outer", "A", "--inner", "M1", "--q", "3"),
        ],
        ids=["outer-and-powers", "powers-and-inner", "names-and-q"],
    )
    def test_resultant_given_names_and_powers_is_usage_error(self, capsys, forms):
        code, out, err = run_cli(capsys, "resultant", "--mean", "L", *forms, "--order", "4")
        assert code == 2
        assert out == ""
        assert "not both" in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("expand", "--mean", "stable", "--order", "6"), "needs --a2"),
            (("resultant", "--mean", "M1", "--order", "4"), "give either --outer/--inner names"),
            (("expand", "--mean", "M1", "--order", "abc"), "nonnegative integer, got 'abc'"),
            (("verify", "--mean", "M4", "--order", "4", "--t", "abc"), "finite number, got 'abc'"),
        ],
        ids=["stable-without-a2", "resultant-without-forms", "order-abc", "t-abc"],
    )
    def test_missing_or_unreadable_option_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", ["X", "XAlpha", "", "alpha", "Lunch", "salad", "Lalphas"])
    def test_unknown_family_is_usage_error(self, capsys, family):
        code, out, err = run_cli(capsys, "scan", "--family", family, "--order", "8")
        assert code == 2
        assert out == ""
        assert "unknown family" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("expand", "--mean", "powermean", "--power", "1/0"),
            ("resultant", "--mean", "A", "--p", "1/0", "--q", "1"),
            ("resultant", "--mean", "A", "--p", "1", "--q", "2/0"),
            ("limit", "--mean", "G", "--p=-3/0", "--q", "1"),
            ("expand", "--mean", "Lalpha", "--alpha", "1/0"),
            ("expand", "--mean", "Malphar", "--alpha", "1/2", "--r", "3/0"),
            ("expand", "--mean", "stable", "--a2=-1/0"),
        ],
        ids=["power", "resultant-p", "resultant-q", "limit-p", "alpha", "r", "a2"],
    )
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "zero denominator" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("expand", "--mean", "Lalpha", "--alpha", "abc"), "cannot parse 'abc'"),
            (("expand", "--mean", "Lalpha", "--alpha", "0.25"), "such as 1/4"),
            (("expand", "--mean", "Malphar", "--alpha", "1/2", "--r", "1/2/3"), "cannot parse"),
            (("expand", "--mean", "powermean", "--power", "1.5"), "decimal input"),
            (("expand", "--mean", "stable", "--a2", "zz"), "cannot parse 'zz'"),
            (("resultant", "--mean", "A", "--p", "x", "--q", "1"), "cannot parse 'x'"),
            (("resultant", "--mean", "A", "--p", "1", "--q", "one"), "cannot parse 'one'"),
            (("limit", "--mean", "A", "--p", "x", "--q", "1"), "cannot parse 'x'"),
            (("limit", "--mean", "A", "--p", "1", "--q", ""), "cannot parse ''"),
            (("compare", "--m1", "salpha:abc", "--m2", "A"), "cannot parse 'abc'"),
            (("compare", "--m1", "A", "--m2", "malphar:1/2,0.5"), "decimal input"),
        ],
        ids=["alpha", "alpha-decimal", "r", "power", "a2", "resultant-p", "resultant-q",
             "limit-p", "limit-q-empty", "inline", "inline-decimal"],
    )
    def test_text_that_is_not_rational_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("compare", "--m1", "A", "--m2", "G", "--x-max", "1e400"), "finite number"),
            (("compare", "--m1", "A", "--m2", "G", "--x-min", "nan"), "finite number"),
            (("compare", "--m1", "A", "--m2", "G", "--count", "1"), "count of at least 2"),
            (("compare", "--m1", "A", "--m2", "G", "--count", "0"), "count of at least 2"),
            (("verify", "--mean", "M4", "--order", "4", "--t", "nan"), "finite number"),
            (("verify", "--mean", "M4", "--t=-inf"), "finite number"),
            (("verify", "--mean", "M4", "--x-max", "inf"), "finite number"),
            (("verify", "--mean", "M4", "--count", "1"), "count of at least 2"),
        ],
        ids=["compare-x-max", "compare-x-min", "compare-count-1", "compare-count-0",
             "verify-t-nan", "verify-t-inf", "verify-x-max", "verify-count"],
    )
    def test_grid_option_out_of_range_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("verify", "--mean", "M1", "--t=-5"), "0 < t < the grid start"),
            (("verify", "--mean", "M1", "--t", "0"), "0 < t < the grid start"),
            (("verify", "--mean", "M1", "--t", "100"), "0 < t < the grid start"),
            (("verify", "--mean", "M1", "--x-min", "200", "--x-max", "1e6", "--t", "250"),
             "0 < t < the grid start"),
            (("limit", "--mean", "M1", "--p", "1"), "both --p and --q"),
            (("limit", "--mean", "M1", "--q", "1"), "both --p and --q"),
            (("compare", "--m1", "A", "--m2", "G", "--x-min", "5", "--x-max", "1"), "start < stop"),
            (("compare", "--m1", "A", "--m2", "G", "--x-min", "0"), "positive half-line"),
            (("verify", "--mean", "M1", "--x-min", "5", "--x-max", "1"), "start < stop"),
            (("verify", "--mean", "M1", "--x-min", "50", "--t", "1"), "3 decades"),
            (("verify", "--mean", "M1", "--x-max", "1000"), "3 decades"),
        ],
        ids=["verify-t-negative", "verify-t-zero", "verify-t-at-x-min", "verify-t-above-x-min",
             "limit-p-alone", "limit-q-alone", "compare-reversed-grid", "compare-zero-x-min",
             "verify-reversed-grid", "verify-low-x-min", "verify-short-grid"],
    )
    def test_float_lab_option_fault_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("expand", "--mean", "A", "--order", "513"), "order of at most 512"),
            (("expand", "--mean", "stable", "--a2=-1/2", "--order", "100000"),
             "order of at most 512"),
            (("resultant", "--mean", "L", "--p", "1", "--q", "0", "--order", "513"),
             "order of at most 512"),
            (("stable", "--mean", "L", "--order", "100000"), "order of at most 512"),
            (("solve", "--mean", "M2", "--max-order", "513"), "order of at most 512"),
            (("scan", "--family", "Lalpha", "--order", "513"), "order of at most 512"),
            (("compare", "--m1", "A", "--m2", "G", "--count", "1000001"),
             "count of at most 1000000"),
            (("compare", "--m1", "A", "--m2", "G", "--count", str(10**12)),
             "count of at most 1000000"),
            (("verify", "--mean", "M4", "--order", "513"), "order of at most 512"),
            (("verify", "--mean", "M4", "--count", "1000001"), "count of at most 1000000"),
        ],
        ids=["expand", "expand-stable", "resultant", "stable", "solve", "scan",
             "compare", "compare-huge", "verify-order", "verify-count"],
    )
    def test_huge_size_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    def test_size_caps(self):
        from meanstab import cli

        assert (cli.MAX_ORDER, cli.MAX_COUNT) == (512, 1_000_000)
        assert cli._integer("an order", 0, cli.MAX_ORDER)("512") == 512
        assert cli._integer("a count", 2, cli.MAX_COUNT)("1000000") == 1_000_000

    def test_parser_is_reused_between_calls(self, capsys):
        from meanstab import cli

        first = run_json(capsys, "expand", "--mean", "G", "--order", "4")
        assert run_cli(capsys, "expand", "--mean", "G", "--order", "-1")[0] == 2
        assert run_json(capsys, "expand", "--mean", "G", "--order", "4") == first
        assert cli._shared_parsers() is cli._shared_parsers()
        assert cli.build_parser() is not cli.build_parser()

    def test_missing_subcommand_usage(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "--out", str(target), "expand", "--mean", "G", "--order", "4"
        )
        assert code == 0
        saved = json.loads(target.read_text())
        assert saved["schema"] == "1"
        assert coefficient_map(saved)[2] == F(-1, 2)

    @pytest.mark.parametrize(
        "command",
        [("expand", "--mean", "G", "--order", "4"), ("stable", "--mean", "M2", "--order", "8")],
        ids=["expand", "stable"],
    )
    def test_out_file_is_the_json_report(self, capsys, tmp_path, command):
        target = tmp_path / "report.json"
        code, stdout, _ = run_cli(capsys, "--format", "json", "--out", str(target), *command)
        assert code == 0
        assert target.read_text() == stdout
        code, table, _ = run_cli(capsys, "--format", "table", "--out", str(target), *command)
        assert code == 0
        assert target.read_text() == stdout
        assert table != stdout

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("target", ["missing-dir/x.json", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where, target):
        out = ["--out", str(tmp_path / target)]
        command = ["expand", "--mean", "A", "--order", "4"]
        argv = out + command if where == "before" else command + out
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ")
        assert "Traceback" not in stderr


#: Strings json must escape: quotes, backslashes, control characters,
#: non-ASCII and astral characters, and the line separators JavaScript
#: reads as line ends.
_ESCAPED = st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é", "😀", "\u2028\u2029", ""])
_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**4000, 10**4000) | _FLOATS
            | st.text() | _ESCAPED)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text() | _ESCAPED, inner, max_size=4)),
    max_leaves=24,
)
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


class TestIndentedWriter:
    """The report writer gives json.dumps(value, indent=2) byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON)
    def test_equals_json_dumps(self, value):
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    def test_an_int_past_the_digit_limit_raises_as_json_does(self):
        value = [10 ** (sys.get_int_max_str_digits() + 1)]
        for write in (cli._indented_json, lambda v: json.dumps(v, indent=2)):
            with pytest.raises(ValueError):
                write(value)

    @pytest.mark.parametrize("workload", ["solve-deep", "solve-early", "compose-long"])
    def test_equals_json_dumps_on_every_golden_report(self, workload, monkeypatch, capsys):
        writer, written = cli._indented_json, []

        def checked(value, indent="\n"):
            text = writer(value, indent)
            if indent == "\n":
                written.append(text == json.dumps(value, indent=2))
            return text

        monkeypatch.setattr(cli, "_indented_json", checked)
        jobs = json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))
        for job in jobs:
            assert main(job.split()) == 0
        capsys.readouterr()
        assert len(written) == len(jobs) and all(written)


class TestParserLayout:
    """The options every subcommand shares are declared once and accepted on
    either side of the subcommand; each subcommand's usage lists them first."""

    TABLE = ["schema: 1", "command: expand", "mean: B_1", "order: 2", "parity: even-only",
             "  t^n   x^(1-n)  coefficient", "    0         1  1", "    1         0  0",
             "    2        -1  0"]
    #: Each subcommand's own options, in their order, and whether it takes a mean.
    OWN_OPTIONS = {
        "expand": (True, ["--a2", "--order"]),
        "resultant": (True, ["--outer", "--inner", "--p", "--q", "--order"]),
        "stable": (True, ["--order"]),
        "solve": (True, ["--max-order"]),
        "scan": (False, ["--family", "--order"]),
        "compare": (False, ["--m1", "--m2", "--x-min", "--x-max", "--count", "--scale"]),
        "limit": (True, ["--p", "--q"]),
        "verify": (True, ["--order", "--t", "--x-min", "--x-max", "--count"]),
    }

    @pytest.mark.parametrize(
        "argv",
        [("expand", "--mean", "A", "--order", "2", "--format", "table"),
         ("--format", "table", "expand", "--mean", "A", "--order", "2")],
        ids=["after", "before"],
    )
    def test_format_on_either_side_of_the_subcommand(self, capsys, argv):
        # Given only before the subcommand, --format is not reset by the
        # subcommand's own, unrepeated --format.
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines() == self.TABLE

    def test_top_level_help_lists_the_subcommands(self, capsys):
        code, out, err = run_cli(capsys, "-h")
        assert (code, err) == (0, "")
        assert "{" + ",".join(self.OWN_OPTIONS) + "}" in out
        assert re.findall(r"^    (\w+) ", out, re.M) == list(self.OWN_OPTIONS)

    @pytest.mark.parametrize("name", list(OWN_OPTIONS))
    def test_subcommand_usage_lists_shared_options_first(self, capsys, name):
        code, out, err = run_cli(capsys, name, "-h")
        assert (code, err) == (0, "")
        usage = out.split("\n\n")[0]
        assert usage.startswith(f"usage: meanstab {name} ")
        takes_mean, own = self.OWN_OPTIONS[name]
        mean = ["--mean", "--alpha", "--r", "--power"] if takes_mean else []
        assert re.findall(r"(?<![\w-])--?[a-z][-a-z0-9]*", usage) == [
            "-h", "--format", "--out", *mean, *own]


def _joined(line: str) -> str:
    """The line with each "--option value" pair spelled "--option=value"."""
    words, out = line.split(), []
    for word in words:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not word.startswith("-"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return " ".join(out)


class TestOneParsePerLine:
    """main reads a line that starts with a subcommand with that subcommand's
    parser alone; every line parses as the two-level parser reads it: the
    same exit code, stdout and stderr, and for a valid line the same
    namespace."""

    VALID = [
        "expand --mean malphar --alpha 1/3 --r 2 --order 4 --format table --out report.json",
        "expand --mean stable --a2 1/3 --order 4",
        "expand --mean powermean --power 3/2",
        "resultant --mean M2 --outer M2 --inner L --order 6 --format json",
        "resultant --mean lalpha --alpha 1/2 --p 1 --q 0",
        "stable --mean M2 --order 8 --out report.json",
        "solve --mean salpha --alpha 3/7 --max-order 8",
        "solve --mean L --format table --out report.json",
        "solve --mean L --max-order 8 --max-order 9",
        "scan --family L --order 8 --format table",
        "compare --m1 A --m2 G --x-min 1 --x-max 2 --count 10 --scale logarithmic",
        "limit --mean M5 --p 3 --q 1/2",
        "verify --mean M4 --order 4 --t 10 --x-min 100 --x-max 1000 --count 5",
        "--format table --out a.json solve --mean L --format json --out b.json",
        "--format table expand --mean A --order 2",
    ]
    INVALID = [
        "solve --mean L --max-order 8 --ord 4",
        "solve --mean L --max-order x",
        "solve --max-order 8",
        "solve --mean L extra",
        "solve --mean L extra --max-order 8 more",
        "solve --mean L --format xml",
        "solve --mean",
        "solve --mean L -- --max-order 8",
        "expand --mean L --order -1",
        "compare --m1 A --m2 G --x-min inf",
        "-h",
        "--format table",
        "--bogus solve --mean L",
        "nosuch --mean L",
        "",
        *(f"{name} -h" for name in TestParserLayout.OWN_OPTIONS),
    ]
    LINES = VALID + [_joined(line) for line in VALID] + INVALID + [_joined(line) for line in INVALID[:3]]

    @staticmethod
    def outcome(capsys, parse, argv):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = int(exc.code or 0)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    def test_the_table_spells_options_both_ways(self):
        assert _joined("solve --mean L --max-order 8 --p=-1") == "solve --mean=L --max-order=8 --p=-1"
        assert len(set(self.LINES)) == len(self.LINES)

    @pytest.mark.parametrize("line", LINES)
    def test_main_parses_as_the_two_level_parser(self, capsys, line):
        argv = line.split()
        expected = self.outcome(capsys, cli.build_parser().parse_args, argv)
        if isinstance(expected[0], int):
            assert line not in self.VALID
            assert run_cli(capsys, *argv) == expected
        else:
            assert expected[1:] == ("", "")
            assert self.outcome(capsys, cli._parse, argv) == expected
