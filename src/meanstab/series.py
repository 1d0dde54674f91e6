"""Truncated formal power series over an exact field.

A series is a plain sequence of coefficients ``(a_0, ..., a_N)`` for
``sum a_n u**n``; the truncation order ``N`` is an explicit argument of every
operation, and nothing past index ``N`` is ever read or produced.

The workhorse is :func:`series_power`, the coefficient recursion for an
arbitrary real power of a series with nonzero constant term:

    P[0] = a_0**r,
    P[n] = (1/(n*a_0)) * sum_{k=1..n} (k*(1+r) - n) * a_k * P[n-k].

With integer exponents any nonzero constant term is allowed; a fractional
exponent requires constant term 1 so that every coefficient stays in the
field.  The exponent may also be a value of another field, such as a
quadratic field Q(sqrt(s)) (``polynomials.QuadraticField``), again with
constant term 1; the recursion then computes in that field, the power mean
B_p at a surd p and a solver sample at a surd root of the pivot included.

The product, the power recursion and composition each have one body, a
private primitive on forms: pairs ``(nums, den)`` with ``a[n] ==
nums[n] / den``.  The den says which field a form is in.

* Over Q den is an int and nums are integer numerators.  A product
  convolves the numerators and multiplies the denominators; the recursion
  keeps a running common denominator of the coefficients computed so far
  and rescales the stored numerators only when it grows; composition runs
  Horner's rule, where each step multiplies the accumulator by the inner
  numerators, multiplies its denominator by theirs, adds the next outer
  numerator and divides everything by the content gcd, and a step whose
  accumulator is later multiplied by the inner series k more times stops k
  times the inner valuation short of the order.  Every primitive returns its
  result reduced by one content gcd, so den is the least common
  denominator, and a caller hands that form on to the next primitive with no
  ``Fraction`` in between: the resultant runs on it from its converted
  inputs, and the solver from the catalog's forms to the difference.
* Any other scalar, a subclass of ``Fraction`` included, is a form of its
  own values over the exact ``Fraction(1)``: a truncated series in a
  perturbation parameter, say, when a computation needs an exact one-sided
  limit.  The same primitives run on it; where they reduce (``_reduced``)
  or divide (the recursion) they branch once on ``type(den) is int`` and
  divide in the field instead, so den is 1 again after every primitive.
  They multiply by ``1/den`` only when den is not 1, and never divide a
  value by den, which would shrink the window of a truncated germ.

The two public functions, :func:`series_mul` and :func:`series_power`,
convert their operands together at the edges; the catalog, the resultant
and the solver call the primitives on forms directly.  When every
coefficient of every operand is a ``Fraction`` or an ``int``, each becomes
``[c * d for c in a]`` for ``d`` its least common denominator, and the
result comes back as reduced ``Fraction`` values in a tuple, for all-int
input too.  Otherwise every operand, a rational one included, becomes a
form of its own values over ``Fraction(1)``, padded with the zero of the
first coefficient, so that a mixed pair computes in the non-rational field;
the result is the values the primitives leave.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Coeffs = Sequence

_RATIONAL_TYPES = (Fraction, int)
_FRACTION_ONE = Fraction(1)


def _fit(a: Coeffs, order: int, zero) -> list:
    out = list(a[: order + 1])
    out.extend([zero] * (order + 1 - len(out)))
    return out


def _integer_form(a: Coeffs, order: int) -> tuple[list[int], int]:
    """``(nums, d)`` with ``a[n] == nums[n] / d`` for n through the order, d
    the least common denominator; every coefficient of a must be a Fraction
    or an int."""
    ratios = [c.as_integer_ratio() for c in a[: order + 1]]
    den = lcm(*[d for _, d in ratios])
    nums = [n * (den // d) for n, d in ratios]
    nums.extend([0] * (order + 1 - len(nums)))
    return nums, den


def _forms(order: int, *series: Coeffs) -> list[tuple]:
    """The forms of the series through the order, all in one field: integer
    forms if every coefficient is a Fraction or an int, else each series'
    own values over Fraction(1), padded with the zero of the first
    coefficient."""
    heads = [a[: order + 1] for a in series]
    if all(type(c) in _RATIONAL_TYPES for head in heads for c in head):
        return [_integer_form(head, order) for head in heads]
    first = next(head[0] for head in heads if len(head))
    # The zero costs a product, so it is made only for a short series.
    return [
        (list(head) if len(head) > order else _fit(head, order, first * 0), _FRACTION_ONE)
        for head in heads
    ]


def _reduced(nums: list, den) -> tuple[list, int | Fraction]:
    """nums/den with den made least: over Q the content gcd of the
    numerators and the denominator divided out, so that den is the least
    common denominator; in any other field each value times 1/den, so that
    den is 1."""
    if type(den) is not int:
        if den == 1:
            return nums, den
        scale = 1 / den
        return [q * scale for q in nums], _FRACTION_ONE
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [q // g for q in nums], den // g


def _spread(form: tuple, order: int) -> tuple:
    """The form in w = u**2 as a form in u, on the even indices; the odd ones
    hold the zero of the scalar, so that a form of germs stays in its field."""
    nums, den = form
    out = [nums[0] * 0] * (order + 1)
    out[::2] = nums
    return out, den


def _values(nums: list, den) -> tuple:
    """The coefficients of a form: reduced Fractions over Q, else the
    field's own values."""
    if type(den) is int:
        return tuple(Fraction(q, den) for q in nums)
    return tuple(_reduced(nums, den)[0])


def _convolve(x: list, reversed_y: list, order: int) -> list:
    """The Cauchy product of x and y through the order, given y reversed; y
    must reach the order."""
    last = len(reversed_y) - 1
    return [sum(map(mul, x, reversed_y[last - k :])) for k in range(order + 1)]


def _product_form(a: tuple, b: tuple, order: int) -> tuple[list, int | Fraction]:
    """The product of two forms in one field; b must reach the order."""
    (x, dx), (y, dy) = a, b
    return _reduced(_convolve(x, y[::-1], order), dx * dy)


def series_mul(a: Coeffs, b: Coeffs, order: int) -> tuple:
    """Cauchy product truncated at the given order."""
    return _values(*_product_form(*_forms(order, a, b), order))


def _power_form(a: tuple, r, order: int) -> tuple[list, int | Fraction]:
    """The form of a**r for the form a; a_0 must be nonzero, and 1 unless r
    is an integer (otherwise the leading coefficient would leave the field).
    r is rational, or a value of another field (a Fraction subclass counts
    as rational).  a must reach the order; at r = 1 it comes back reduced.

    P[n] = top / (bottom * d) for ``top, bottom = step(n, back)``, where
    ``back`` holds the numerators of P[n-1], ..., P[0] over their common
    denominator d, newest first: each step inserts at the front, and the
    list is reversed once at the end.  Over Q d only grows, and the stored
    numerators are rescaled when it does; it ends as the least common
    denominator.  In any other field, the exponent's included, d stays 1
    and back holds the values."""
    x, dx = a
    if x[0] == 0:
        raise ValueError("zero constant term")
    if r == 1:
        return _reduced(x[: order + 1], dx)
    rational = isinstance(r, _RATIONAL_TYPES)
    s, t = r.as_integer_ratio() if rational else (r, 1)
    a0 = Fraction(x[0], dx) if type(dx) is int else x[0] * (1 / dx)
    integral = rational and t == 1
    if not integral and a0 != 1:
        raise ValueError("irrational leading power")
    # With r = s/t the weight is (k*(s+t) - n*t)/t, and the denominator of
    # a cancels against the one of a_0.  At r = -1 the k term vanishes.
    # Each dot product stops at the end of back, P[0].
    x1 = x[1:]
    kx1 = [k * c for k, c in enumerate(x1, 1)]

    def step(n, back):
        top = -n * t * sum(map(mul, x1, back))
        if s + t:
            top += (s + t) * sum(map(mul, kx1, back))
        return top, n * t * x[0]

    head = a0**s if integral else a0
    if type(dx) is not int or not rational:
        back = [head]
        for n in range(1, order + 1):
            top, bottom = step(n, back)
            back.insert(0, top / bottom)
        back.reverse()
        return back, _FRACTION_ONE
    back, den = [head.numerator], head.denominator
    for n in range(1, order + 1):
        top, bottom = step(n, back)
        g = gcd(top, bottom * den)
        top, bottom = top // g, bottom * den // g  # bottom may be negative
        if den % bottom:
            grown = lcm(den, bottom)
            scale = grown // den
            back[:] = [q * scale for q in back]
            den = grown
        back.insert(0, top * (den // bottom))
    back.reverse()
    return back, den


def series_power(a: Coeffs, r, order: int) -> tuple:
    """Coefficients of ``a**r`` for a rational exponent r.

    Integer r admits any nonzero constant term; fractional r requires
    constant term exactly 1 (otherwise the leading coefficient would leave
    the field).
    """
    (form,) = _forms(order, a)
    return _values(*_power_form(form, r, order))


def _horner_form(outer: tuple, inner: tuple, order: int) -> tuple[list, int | Fraction]:
    """Horner's rule for the forms x/dx and y/dy in one field, y with zero
    constant term and reaching the order.  The accumulator times dx is
    nums/den, and each step reduces nums/den.  With v the valuation of y,
    the accumulator that x[k] enters is later multiplied by y**k, so it is
    needed only through order - k*v."""
    (x, dx), (y, dy) = outer, inner
    v = next((i for i, c in enumerate(y[: order + 1]) if c != 0), order + 1)
    x = x[: order // v + 1]
    nums, den, ry = [x[-1]] + [y[0] * 0] * (order - (len(x) - 1) * v), 1, y[::-1]
    for k in range(len(x) - 2, -1, -1):
        nums = _convolve(nums, ry, order - k * v)
        den *= dy
        nums[0] += x[k] * den
        nums, den = _reduced(nums, den)
    return _reduced(nums, den * dx)
