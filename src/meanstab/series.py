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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Coeffs = Sequence


def _zero_of(a: Coeffs):
    return a[0] * 0 if len(a) else Fraction(0)


def _fit(a: Coeffs, order: int, zero) -> list:
    out = list(a[: order + 1])
    out.extend([zero] * (order + 1 - len(out)))
    return out


def series_add(a: Coeffs, b: Coeffs, order: int) -> tuple:
    zero = _zero_of(a) if len(a) else _zero_of(b)
    fa, fb = _fit(a, order, zero), _fit(b, order, zero)
    return tuple(x + y for x, y in zip(fa, fb))


def series_scale(a: Coeffs, factor, order: int) -> tuple:
    return tuple(c * factor for c in _fit(a, order, _zero_of(a)))


def series_mul(a: Coeffs, b: Coeffs, order: int) -> tuple:
    """Cauchy product truncated at the given order."""
    zero = _zero_of(a) if len(a) else _zero_of(b)
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


def power_table(first: Coeffs, ratio: Coeffs, order: int) -> list[tuple]:
    """first * ratio**n for n = 0..order; ratio may have a zero constant term."""
    table = [tuple(_fit(first, order, _zero_of(ratio)))]
    for _ in range(order):
        table.append(series_mul(table[-1], ratio, order))
    return table


def _is_integer(r) -> bool:
    return isinstance(r, int) or (isinstance(r, Fraction) and r.denominator == 1)


def series_power(a: Coeffs, r, order: int) -> tuple:
    """Coefficients of ``a**r`` for a rational exponent r.

    Integer r admits any nonzero constant term; fractional r requires
    constant term exactly 1 (otherwise the leading coefficient would leave
    the field).
    """
    if not len(a) or a[0] == 0:
        raise ValueError("zero constant term")
    a0 = a[0]
    if _is_integer(r):
        r = int(r)
        head = a0 ** r
    else:
        if a0 != 1:
            raise ValueError("irrational leading power")
        r = Fraction(r)
        head = a0
    zero = _zero_of(a)
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
    zero = _zero_of(a)
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
    acc: tuple = tuple([fo[-1]] + [zero] * order)
    for c in reversed(fo[:-1]):
        acc = series_mul(acc, inner, order)
        acc = (acc[0] + c,) + acc[1:]
    return acc


def integrate_formal(a: Coeffs, order: int) -> tuple:
    """Term-by-term antiderivative with zero constant term."""
    zero = _zero_of(a)
    fa = _fit(a, order, zero)
    return tuple([zero] + [fa[n - 1] / n for n in range(1, order + 1)])

