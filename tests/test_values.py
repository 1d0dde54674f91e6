"""The value-class contract: every immutable value of the package is a plain
class on ``values.Value``, frozen, compared and hashed by class and fields,
built positionally or by keyword with its defaults, and validated with the
messages its callers and users see; and the command line starts without
``dataclasses``, ``typing`` or ``inspect``."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import meanstab.catalog
from meanstab.catalog import (
    ClassicMean,
    LAlpha,
    MAlphaR,
    MeanExpansion,
    MuGenerated,
    PowerMean,
    SAlpha,
)
from meanstab.cli import main
from meanstab.numeric import ComparisonReport, DecayReport, GridSpec, LimitReport
from meanstab.polynomials import (
    IntervalRoot,
    QuadraticField,
    RationalRoot,
    UniPoly,
)
from meanstab.solver import (
    AffineLocus,
    BoundaryEvidence,
    DifferenceExpansion,
    OptimalCandidate,
    StabilityReport,
    StabilizabilityVerdict,
)
from meanstab.values import Value

ROOT = Path(__file__).resolve().parent.parent
HALF = F(1, 2)
LOCUS = AffineLocus(F(1, 2), F(-1, 2))

#: One instance's arguments per value class, each field set away from its
#: default, and for each class a second argument tuple that differs in one
#: field.
EXAMPLES = {
    PowerMean: ((F(1, 2),), (F(1, 3),)),
    LAlpha: ((F(1, 2),), (F(1, 3),)),
    SAlpha: ((F(1, 2),), (F(1, 3),)),
    ClassicMean: ((2,), (3,)),
    MAlphaR: ((F(1, 3), F(2)), (F(1, 3), F(3))),
    MuGenerated: (((F(1), F(1, 6)),), ((F(1), F(1, 7)),)),
    MeanExpansion: (((F(1), F(0), F(1, 6)),), ((F(1), F(0), F(1, 7)),)),
    UniPoly: (((F(-2), F(0), F(1)),), ((F(-3), F(0), F(1)),)),
    RationalRoot: ((F(1, 2),), (F(1, 3),)),
    IntervalRoot: ((F(1), F(2), UniPoly((-2, 0, 1))), (F(1), F(3, 2), UniPoly((-2, 0, 1)))),
    QuadraticField: ((F(1), F(2), F(5)), (F(1), F(3), F(5))),
    GridSpec: ((1.0, 10.0, 5, "logarithmic"), (1.0, 10.0, 6, "logarithmic")),
    ComparisonReport: (("crossing", ((1.0, 2.0),), 0.5), ("crossing", ((1.0, 3.0),), 0.5)),
    LimitReport: ((0.5, 0.0, "closed-form"), (0.25, 0.0, "closed-form")),
    DecayReport: ((-3.0, -3, 7, False, True), (-3.0, -3, 7, True, True)),
    DifferenceExpansion: (((F(0), F(1)), F(1), F(0)), ((F(0), F(1)), F(1), F(1))),
    AffineLocus: ((F(1, 2), F(-1, 2)), (F(1, 3), F(-1, 2))),
    BoundaryEvidence: ((0.5, 0.25, "closed-form"), (0.5, None, "unavailable")),
    OptimalCandidate: ((HALF, HALF, 6, F(1, 3)), (HALF, HALF, 8, F(1, 3))),
    StabilizabilityVerdict: (
        ("candidate-sub", (OptimalCandidate(HALF, HALF, 6, F(1, 3)),), LOCUS, F(1), 4,
         BoundaryEvidence(0.5, 0.25, "closed-form"), ("a note",)),
        ("candidate-sub", (), LOCUS, F(1), 4, BoundaryEvidence(0.5, 0.25, "closed-form"),
         ("a note",)),
    ),
    StabilityReport: (("B_1", 8, True, None, None), ("B_1", 8, False, 4, F(1, 2))),
}

CLASSES = list(EXAMPLES)


def example(cls):
    return cls(*EXAMPLES[cls][0])


def test_every_value_class_has_an_example():
    assert len(CLASSES) == 21
    assert set(Value.__subclasses__()) == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestContract:
    def test_assignment_and_deletion_raise(self, cls):
        value = example(cls)
        for name in [*vars(value), "new_attribute"]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert value == example(cls)

    def test_equal_fields_give_equal_values_and_hashes(self, cls):
        a, b = example(cls), example(cls)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_a_different_field_gives_a_different_value(self, cls):
        other = cls(*EXAMPLES[cls][1])
        assert other != example(cls)
        assert not other == example(cls)

    def test_keyword_construction_and_field_order(self, cls):
        # the fields are the constructor's parameters, in its order
        value = example(cls)
        assert cls(**vars(value)) == value
        code = cls.__init__.__code__
        assert tuple(vars(value)) == code.co_varnames[1:code.co_argcount]

    def test_repr_names_the_class_and_the_fields(self, cls):
        value = example(cls)
        fields = ", ".join(f"{name}={field!r}" for name, field in vars(value).items())
        assert repr(value) == f"{cls.__name__}({fields})"

    def test_not_equal_to_another_class(self, cls):
        value = example(cls)
        assert value != object() and value != tuple(vars(value).values())


def test_same_fields_in_another_class_are_not_equal():
    assert LAlpha(F(1, 2)) != SAlpha(F(1, 2))
    assert vars(LAlpha(F(1, 2))) == vars(SAlpha(F(1, 2)))
    assert RationalRoot(F(1)) != PowerMean(F(1))


def test_hash_is_the_tuple_of_the_fields():
    # as for a frozen dataclass, so sets and dicts of values keep their order
    assert hash(PowerMean(F(1, 2))) == hash((F(1, 2),))
    assert hash(LimitReport(0.5, 0.0, "closed-form")) == hash((0.5, 0.0, "closed-form"))


def test_defaults_and_keywords():
    verdict = StabilizabilityVerdict("neither")
    assert vars(verdict) == {
        "relation": "neither", "candidates": (), "locus": None, "fixed_leading": None,
        "fixed_leading_order": None, "boundary": None, "notes": (),
    }
    assert StabilizabilityVerdict(relation="neither", notes=()) == verdict
    assert GridSpec(1.0, 10.0, 3, scale="logarithmic").scale == "logarithmic"
    assert GridSpec(1.0, 10.0, 3).scale == "linear"
    assert DecayReport(None, None, 0, False, exact=True).exact is True
    assert DecayReport(None, None, 0, False).exact is False
    assert MAlphaR(r=2, alpha=F(1, 3)) == MAlphaR(F(1, 3), F(2))


def test_fields_are_normalised():
    assert vars(PowerMean(2)) == {"p": F(2)} and type(PowerMean(0.5).p) is F
    assert type(LAlpha(1).alpha) is F and type(MAlphaR(1, 2).r) is F
    assert MuGenerated((1, 0)).odd_coeffs == (F(1), F(0))
    assert UniPoly((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert all(type(c) is F for c in UniPoly((1, True, F(3))).coeffs)
    assert UniPoly((0, 0)) == UniPoly(())


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: LAlpha(2), "LAlpha requires |alpha| <= 1"),
        (lambda: SAlpha(F(-3, 2)), "SAlpha requires |alpha| <= 1"),
        (lambda: MAlphaR(2, 1), "MAlphaR requires |alpha| <= 1"),
        (lambda: MAlphaR(F(1, 2), 0), "MAlphaR requires r > 0"),
        (lambda: MAlphaR(2, -1), "MAlphaR requires r > 0"),  # r is checked first
        (lambda: ClassicMean(6), "classic mean index must be 1..5"),
        (lambda: MuGenerated(()), "mu-generated mean requires leading coefficient 1"),
        (lambda: MuGenerated((2, 1)), "mu-generated mean requires leading coefficient 1"),
        (lambda: MeanExpansion(()), "a mean expansion must start with coefficient 1"),
        (lambda: MeanExpansion((F(1, 2),)), "a mean expansion must start with coefficient 1"),
        (lambda: GridSpec(1.0, 2.0, 1), "a grid needs at least two points"),
        (lambda: GridSpec(0.0, 2.0, 1), "a grid needs at least two points"),
        (lambda: GridSpec(0.0, 2.0, 3), "grid must lie in the positive half-line, start < stop"),
        (lambda: GridSpec(2.0, 1.0, 3), "grid must lie in the positive half-line, start < stop"),
        (lambda: GridSpec(1.0, 2.0, 3, "cubic"), "scale must be 'linear' or 'logarithmic'"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_has_positive_root_is_isolated_once(monkeypatch):
    calls = []
    isolate = meanstab.catalog._isolate_intervals
    monkeypatch.setattr(meanstab.catalog, "_isolate_intervals",
                        lambda poly: calls.append(poly) or isolate(poly))
    spec = MuGenerated((1, -1))  # mu = y - y**3 vanishes at y = 1
    assert spec.has_positive_root is True and spec.has_positive_root is True
    assert MuGenerated((1, F(1, 6))).has_positive_root is False
    assert len(calls) == 2
    # the cache is not a field
    assert vars(spec) == {"odd_coeffs": (F(1), F(-1))}
    assert spec == MuGenerated((1, -1)) and hash(spec) == hash(MuGenerated((1, -1)))
    assert repr(spec) == "MuGenerated(odd_coeffs=(Fraction(1, 1), Fraction(-1, 1)))"


def test_verify_json_keeps_the_decay_report_order(capsys):
    assert main(["verify", "--mean", "M4", "--order", "4", "--t", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["schema", "command", "mean", "order", "t", "slope",
                            "expected_exponent", "points_used", "noise_floor", "exact"]
    assert {k: v for k, v in report.items() if k != "slope"} == {
        "schema": "1", "command": "verify", "mean": "M4", "order": 4, "t": 10.0,
        "expected_exponent": -5, "points_used": 12, "noise_floor": False, "exact": False,
    }
    assert abs(report["slope"] + 4.986091561565579) < 1e-6


def test_the_command_line_starts_without_dataclasses_typing_or_inspect():
    code = (
        "import sys\n"
        "from meanstab.cli import main\n"
        "code = main(['solve', '--mean', 'L', '--max-order', '8'])\n"
        "print(code, sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
