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
field.  :func:`series_exp` uses the analogous recursion
``n*E[n] = sum_{k=1..n} k*a_k*E[n-k]`` for ``exp`` of a series with zero
constant term.  All functions are duck-typed over the scalar: exact rationals
in normal use, or any other type with field arithmetic, such as truncated
series in a perturbation parameter when a computation needs an exact
one-sided limit.

Over Q the product, the power recursion, the exp recursion and composition
run on integer numerators over one common denominator.  Each has a private
primitive on integer forms, pairs ``(nums, den)`` with ``a[n] == nums[n] /
den``: a product convolves the numerators and multiplies the denominators;
the recursions keep a running common denominator of the coefficients
computed so far and rescale the stored numerators only when it grows;
composition runs Horner's rule, where each step multiplies the accumulator
by the inner numerators, multiplies its denominator by theirs, adds the next
outer numerator and divides everything by the content gcd, and a step whose
accumulator is later multiplied by the inner series k more times stops k
times the inner valuation short of the order.  Every primitive returns its
result reduced by one content gcd, so den is the least common denominator,
and a caller hands that form on to the next primitive with no ``Fraction``
in between: the resultant runs on it from its converted inputs, and the
solver from the power means to the difference.  The public functions
convert at the edges: a series whose coefficients are all ``Fraction`` or
``int``, with a ``Fraction`` constant term, becomes ``[c * d for c in a]``
for ``d`` the least common denominator, and the result comes back as the
same reduced ``Fraction`` values, in tuples, as the generic loops give; any
other scalar, a subclass of ``Fraction`` included, takes the generic loops.
Where the generic loops divide (power, exp and integration), int
coefficients count as rationals, so that all-int input gives ``Fraction``
results; a product of ints stays int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

Coeffs = Sequence

_RATIONAL_TYPES = (Fraction, int)
_FRACTION_ZERO = Fraction(0)


def _zero_of(a: Coeffs):
    """The zero of a's scalar: one shared Fraction(0) for an exact Fraction
    head, else head * 0, so that any other scalar sees the product."""
    if not len(a) or type(a[0]) is Fraction:
        return _FRACTION_ZERO
    return a[0] * 0


def _field_zero(a: Coeffs):
    """The zero of a loop that divides: for int coefficients a Fraction, so
    that dividing by an int stays exact."""
    zero = _zero_of(a)
    return _FRACTION_ZERO if type(zero) is int else zero


def _fit(a: Coeffs, order: int, zero) -> list:
    out = list(a[: order + 1])
    out.extend([zero] * (order + 1 - len(out)))
    return out


def series_scale(a: Coeffs, factor, order: int) -> tuple:
    return tuple(c * factor for c in _fit(a, order, _zero_of(a)))


def _integer_form(a: Coeffs, order: int) -> tuple[list[int], int] | None:
    """``(nums, d)`` with ``a[n] == nums[n] / d`` for n through the order, d
    the least common denominator; None if a coefficient is not a Fraction or
    an int."""
    head = a[: order + 1]
    if not all(type(c) in _RATIONAL_TYPES for c in head):
        return None
    ratios = [c.as_integer_ratio() for c in head]
    den = lcm(*[d for _, d in ratios])
    nums = [n * (den // d) for n, d in ratios]
    nums.extend([0] * (order + 1 - len(nums)))
    return nums, den


def _over_q(zero, order: int, *series: Coeffs) -> list | None:
    """The integer forms of the series when the generic loops would compute
    in Fraction (their zero is a Fraction, every coefficient a Fraction or an
    int), else None."""
    if type(zero) is not Fraction:
        return None
    forms = [_integer_form(a, order) for a in series]
    return None if None in forms else forms


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums/den with the content gcd of the numerators and the denominator
    divided out, so that den is the least common denominator."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [q // g for q in nums], den // g


def _fractions(nums: Sequence[int], den: int) -> tuple:
    return tuple(Fraction(q, den) for q in nums)


def _recursion_over_q(head: Fraction, step, order: int) -> tuple[list[int], int]:
    """c_0 = head and c_n = top / (bottom * d) for ``top, bottom = step(n,
    back)``, where ``back`` holds the numerators of c_{n-1}, ..., c_0 over
    their common denominator d.  d only grows, and the stored numerators
    are rescaled when it does; it ends as the least common denominator."""
    nums, den = [head.numerator], head.denominator
    for n in range(1, order + 1):
        top, bottom = step(n, nums[::-1])
        g = gcd(top, bottom * den)
        top, bottom = top // g, bottom * den // g  # bottom may be negative
        if den % bottom:
            grown = lcm(den, bottom)
            scale = grown // den
            nums = [q * scale for q in nums]
            den = grown
        nums.append(top * (den // bottom))
    return nums, den


def _convolve(x: list[int], reversed_y: list[int], order: int) -> list[int]:
    """The integer Cauchy product of x and y through the order, given y
    reversed; y must reach the order."""
    last = len(reversed_y) - 1
    return [sum(map(mul, x[: k + 1], reversed_y[last - k :])) for k in range(order + 1)]


def _product_over_q(a: tuple, b: tuple, order: int) -> tuple[list[int], int]:
    """The product of two integer forms; b must reach the order."""
    (x, dx), (y, dy) = a, b
    return _reduced(_convolve(x, y[::-1], order), dx * dy)


def series_mul(a: Coeffs, b: Coeffs, order: int) -> tuple:
    """Cauchy product truncated at the given order."""
    zero = _zero_of(a) if len(a) else _zero_of(b)
    forms = _over_q(zero, order, a, b)
    if forms is not None:
        return _fractions(*_product_over_q(*forms, order))
    fa, fb = _fit(a, order, zero), _fit(b, order, zero)
    out = [zero] * (order + 1)
    for i, x in enumerate(fa):
        if x == 0:
            continue
        for j in range(order + 1 - i):
            y = fb[j]
            if y != 0:
                out[i + j] = out[i + j] + x * y
    return tuple(out)


def _is_integer(r) -> bool:
    return isinstance(r, int) or (isinstance(r, Fraction) and r.denominator == 1)


def _power_over_q(a: tuple, r, order: int) -> tuple[list[int], int]:
    """The integer form of a**r for the integer form a; a_0 must be nonzero,
    and 1 if r is fractional.  a must reach the order."""
    x, dx = a
    if x[0] == 0:
        raise ValueError("zero constant term")
    s, t = r.as_integer_ratio()
    head = Fraction(x[0], dx) ** s if t == 1 else Fraction(1)
    # With r = s/t the weight is (k*(s+t) - n*t)/t, and the common
    # denominator of a cancels against the one of a_0.
    kx = [k * c for k, c in enumerate(x)]

    def step(n, back):
        top = (s + t) * sum(map(mul, kx[1 : n + 1], back))
        return top - n * t * sum(map(mul, x[1 : n + 1], back)), n * t * x[0]

    return _recursion_over_q(head, step, order)


def series_power(a: Coeffs, r, order: int) -> tuple:
    """Coefficients of ``a**r`` for a rational exponent r.

    Integer r admits any nonzero constant term; fractional r requires
    constant term exactly 1 (otherwise the leading coefficient would leave
    the field).
    """
    if not len(a) or a[0] == 0:
        raise ValueError("zero constant term")
    a0 = Fraction(a[0]) if type(a[0]) is int else a[0]
    if _is_integer(r):
        r = int(r)
        head = a0 ** r
    else:
        if a0 != 1:
            raise ValueError("irrational leading power")
        r = Fraction(r)
        head = a0
    zero = _field_zero(a)
    forms = _over_q(zero, order, a)
    if forms is not None:
        return _fractions(*_power_over_q(forms[0], r, order))
    fa = _fit(a, order, zero)
    out = [zero] * (order + 1)
    out[0] = head
    for n in range(1, order + 1):
        acc = zero
        for k in range(1, n + 1):
            if fa[k] == 0:
                continue
            weight = k * (1 + r) - n
            if weight != 0:
                acc = acc + weight * fa[k] * out[n - k]
        out[n] = acc / (n * a0)
    return tuple(out)


def series_exp(a: Coeffs, order: int) -> tuple:
    """Coefficients of ``exp(a)``; a must have zero constant term, so that
    every coefficient stays in the field."""
    if len(a) and a[0] != 0:
        raise ValueError("exp requires a zero constant term")
    zero = _field_zero(a)
    forms = _over_q(zero, order, a)
    if forms is not None:
        (x, den), = forms
        kx = [k * c for k, c in enumerate(x)]
        return _fractions(*_recursion_over_q(
            Fraction(1), lambda n, back: (sum(map(mul, kx[1 : n + 1], back)), n * den), order
        ))
    fa = _fit(a, order, zero)
    out = [zero] * (order + 1)
    out[0] = zero + 1
    for n in range(1, order + 1):
        acc = zero
        for k in range(1, n + 1):
            if fa[k] != 0:
                acc = acc + k * fa[k] * out[n - k]
        out[n] = acc / n
    return tuple(out)


def series_compose(outer: Coeffs, inner: Coeffs, order: int) -> tuple:
    """Taylor coefficients of outer(inner(u)) by Horner's rule; inner must
    have zero constant term, so coefficients of outer past the order do not
    contribute and the cost is one product per remaining coefficient."""
    zero = _zero_of(inner) if len(inner) else _zero_of(outer)
    if len(inner) and inner[0] != 0:
        raise ValueError("composition requires positive valuation")
    fo = list(outer[: order + 1]) or [zero]
    # Horner's first product sees the last outer coefficient as its head.
    forms = _over_q(fo[-1] * 0, order, fo, inner) if len(fo) > 1 else None
    if forms is not None:
        (x, dx), y_form = forms
        return _fractions(*_horner_over_q((x[: len(fo)], dx), y_form, order))
    acc: tuple = tuple([fo[-1]] + [zero] * order)
    for c in reversed(fo[:-1]):
        acc = series_mul(acc, inner, order)
        acc = (acc[0] + c,) + acc[1:]
    return acc


def _horner_over_q(outer: tuple, inner: tuple, order: int) -> tuple[list[int], int]:
    """Horner's rule for the integer forms x/dx and y/dy, y with zero
    constant term and reaching the order.  The accumulator times dx is
    nums/den, and each step divides nums and den by their content gcd.
    With v the valuation of y, the accumulator that x[k] enters is later
    multiplied by y**k, so it is needed only through order - k*v."""
    (x, dx), (y, dy) = outer, inner
    v = next((i for i, c in enumerate(y[: order + 1]) if c), order + 1)
    x = x[: order // v + 1]
    nums, den, ry = [x[-1]] + [0] * (order - (len(x) - 1) * v), 1, y[::-1]
    for k in range(len(x) - 2, -1, -1):
        nums = _convolve(nums, ry, order - k * v)
        den *= dy
        nums[0] += x[k] * den
        nums, den = _reduced(nums, den)
    return _reduced(nums, den * dx)


def integrate_formal(a: Coeffs, order: int) -> tuple:
    """Term-by-term antiderivative with zero constant term."""
    zero = _field_zero(a)
    fa = _fit(a, order, zero)
    return tuple(
        [zero]
        + [Fraction(c, n) if type(c) is int else c / n for n, c in enumerate(fa[:order], 1)]
    )
