"""Reference implementations that the production expansion route is tested
against.

Each one is an independent derivation of the same coefficients:

* ``expand_l_alpha``, ``expand_s_alpha`` and ``expand_mu_generated``: the
  dedicated binomial double sums of the L/S families and the odd-generator
  coefficient formula, all at half length in the even index;
* ``expand_by_composition``: the denominator series, built per family from
  its own closed form, composed with the log-ratio series by Horner's rule
  (cubic in the order) and inverted;
* ``coefficient_polynomial``: one t**k coefficient polynomial of the
  solver from its own k+2 difference expansions truncated at order k, where
  the solver samples one band of expansions for many k;
* ``cauchy_product``, ``power_recursion`` and ``exp_recursion``: the series
  product and the power and exp recursions as scalar-generic loops that
  reduce every ``Fraction`` term, where the kernel runs rationals on
  integer numerators over a common denominator;
* ``horner_compose``: composition by Horner's rule with one reduced series
  product per step, where the kernel keeps the accumulator over Q as
  integer numerators over one denominator;
* ``power_table``, ``composition_sums`` and ``resultant_by_double_sums``:
  the resultant as double sums over tables of powers, with the degenerate
  inner means (t-coefficient -1 or +1) run on the sequence shifted to the
  first nonzero tail coefficient, where ``resultant.py`` forms each sum as
  one composition and needs no case split.

They are exact and slow; only tests use them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from meanstab.catalog import (
    ClassicMean,
    LAlpha,
    MAlphaR,
    MeanExpansion,
    MeanSpec,
    MuGenerated,
    SAlpha,
    _denominator_derivative,
    log_ratio_series,
)
from meanstab.polynomials import UniPoly, lagrange_interpolate
from meanstab.rationals import ONE, ZERO, Rational, binomial
from meanstab.series import integrate_formal, series_compose, series_power
from meanstab.solver import AffineLocus, difference_expansion


def _spread_even(even: Sequence[Rational], order: int) -> tuple[Rational, ...]:
    out = [ZERO] * (order + 1)
    for n, c in enumerate(even):
        if 2 * n <= order:
            out[2 * n] = c
    return tuple(out)


def expand_l_alpha(alpha: Rational, order: int) -> MeanExpansion:
    """Expansion of L_alpha, the family generated by u(x) = cosh(alpha*x).

    Even-only:
        a_{2n} = 2*alpha * sum_k C(alpha, n-k) (-1)**(n-k)
                 * P[k, -1, (C(2*alpha, 2i+1))_i],
    so a_2 = -(2*alpha^2 + 1)/3.  alpha = 0 degenerates to the logarithmic
    mean and is delegated to the odd-generator formula.
    """
    alpha = Fraction(alpha)
    if abs(alpha) > 1:
        raise ValueError("LAlpha requires |alpha| <= 1")
    if alpha == 0:
        return expand_mu_generated((ONE,), order)
    half = order // 2
    odd_binoms = tuple(binomial(2 * alpha, 2 * i + 1) for i in range(half + 1))
    recip = series_power(odd_binoms, -1, half)
    even = []
    for n in range(half + 1):
        acc = ZERO
        for k in range(n + 1):
            sign = -ONE if (n - k) % 2 else ONE
            acc += binomial(alpha, n - k) * sign * recip[k]
        even.append(2 * alpha * acc)
    return MeanExpansion(_spread_even(even, order))


def expand_s_alpha(alpha: Rational, order: int) -> MeanExpansion:
    """Expansion of S_alpha, the family generated by u(x) = 1/cosh(alpha*x).

    Even-only, through two auxiliary sequences:
        C_n = sum_k C(alpha, 2k+1) * P[n-k, -1, (C(alpha, 2i))_i],
        D_n = sum_m (-1)**m/(2m+1) * P[n-m, 2m+1, (C_i)_i],
        a_{2n} = alpha * P[n, -1, (D_i)_i],
    so a_2 = (2*alpha^2 - 1)/3.  alpha = 0 is the logarithmic mean.
    """
    alpha = Fraction(alpha)
    if abs(alpha) > 1:
        raise ValueError("SAlpha requires |alpha| <= 1")
    if alpha == 0:
        return expand_mu_generated((ONE,), order)
    half = order // 2
    even_binoms = tuple(binomial(alpha, 2 * i) for i in range(half + 1))
    recip_even = series_power(even_binoms, -1, half)
    c_seq = []
    for n in range(half + 1):
        acc = ZERO
        for k in range(n + 1):
            acc += binomial(alpha, 2 * k + 1) * recip_even[n - k]
        c_seq.append(acc)
    c_powers = {m: series_power(c_seq, 2 * m + 1, half) for m in range(half + 1)}
    d_seq = []
    for n in range(half + 1):
        acc = ZERO
        for m in range(n + 1):
            term = c_powers[m][n - m] / (2 * m + 1)
            acc += -term if m % 2 else term
        d_seq.append(acc)
    final = series_power(d_seq, -1, half)
    return MeanExpansion(_spread_even([alpha * v for v in final], order))


def expand_mu_generated(odd_coeffs: Sequence[Rational], order: int) -> MeanExpansion:
    """Expansion of |b-a| / mu(|ln(b/a)|) for an odd generator
    mu(y) = sum c_n y**(2n+1), c_0 = 1.

    Even-only:  a_{2m} = P[m, -1, (E_i)_i]  with
        E_m = sum_n c_n 4**n P[m-n, 2n+1, (1/(2i+1))_i].
    """
    c = tuple(Fraction(x) for x in odd_coeffs)
    if not c or c[0] != 1:
        raise ValueError("odd generator requires constant coefficient 1")
    half = order // 2
    odd_recip = tuple(Fraction(1, 2 * i + 1) for i in range(half + 1))
    powers = {n: series_power(odd_recip, 2 * n + 1, half) for n in range(half + 1)}
    e_seq = []
    for m in range(half + 1):
        acc = ZERO
        for n in range(min(m, len(c) - 1) + 1):
            if c[n] != 0:
                acc += c[n] * Fraction(4**n) * powers[n][m - n]
        e_seq.append(acc)
    return MeanExpansion(_spread_even(series_power(e_seq, -1, half), order))


def direct_denominator_series(spec: MeanSpec, order: int) -> tuple[Rational, ...]:
    """D(y) with M(a, b) = |b - a| / D(|ln(b/a)|), from each family's own
    closed form: sinh(alpha*y)/alpha, the integral of 1/cosh(alpha*y), the
    odd generator itself, or the integral of base(y)**exponent."""
    if isinstance(spec, (ClassicMean, MAlphaR)):
        base, expo = _denominator_derivative(spec)
        return integrate_formal(series_power(base, expo, order - 1), order)
    if isinstance(spec, MuGenerated):
        c = spec.odd_coeffs
    elif isinstance(spec, LAlpha):
        a2 = spec.alpha * spec.alpha
        c, power = [], ONE
        for n in range(order // 2 + 1):
            c.append(power / math.factorial(2 * n + 1))
            power *= a2
    elif isinstance(spec, SAlpha):
        a2 = spec.alpha * spec.alpha
        half = order // 2
        cosh_even = []
        power = ONE
        for n in range(half + 1):
            cosh_even.append(power / math.factorial(2 * n))
            power *= a2
        sech = series_power(cosh_even, -1, half)
        c = [sech[n] / (2 * n + 1) for n in range(half + 1)]
    else:
        raise TypeError(f"no denominator form for {spec!r}")
    out = [ZERO] * (order + 1)
    for n, cn in enumerate(c):
        if 2 * n + 1 <= order:
            out[2 * n + 1] = cn
    return tuple(out)


def expand_by_composition(spec: MeanSpec, order: int) -> MeanExpansion:
    """M(x-t, x+t) = 2t / D(Lambda(u)) with D(Lambda) formed by composing the
    full denominator series with Lambda = ln((1+u)/(1-u))."""
    deep = order + 1
    lam = log_ratio_series(deep)
    den = series_compose(direct_denominator_series(spec, deep), lam, deep)
    if den[0] != 0 or den[1] != 2:
        raise ArithmeticError("D(Lambda) must start 2u")
    shifted = tuple(den[j + 1] / 2 for j in range(order + 1))
    return MeanExpansion(series_power(shifted, -1, order))


def coefficient_polynomial(mean: MeanExpansion, k: int, locus: AffineLocus) -> UniPoly:
    """The t**k coefficient of M - R(B_p, M, B_q) on the locus as a
    polynomial in p, interpolated through k+1 of k+2 samples at order k; the
    last sample checks the degree bound k-1."""
    samples = []
    for i in range(k + 2):
        p = Fraction(i - (k + 2) // 2)
        diff = difference_expansion(mean, p, locus.q_of(p), k)
        samples.append((p, diff.coeffs[k]))
    poly = lagrange_interpolate(samples[: k + 1])
    p_extra, v_extra = samples[k + 1]
    if poly.degree > k - 1 or poly(p_extra) != v_extra:
        raise ArithmeticError("degree bound violated")
    return poly


def _padded(a: Sequence, order: int, zero) -> list:
    return list(a[: order + 1]) + [zero] * (order + 1 - len(a[: order + 1]))


def _zero(a: Sequence):
    return a[0] * 0 if len(a) else Fraction(0)


def cauchy_product(a: Sequence, b: Sequence, order: int) -> tuple:
    """Truncated Cauchy product, one scalar operation per term."""
    zero = _zero(a) if len(a) else _zero(b)
    fa, fb = _padded(a, order, zero), _padded(b, order, zero)
    out = [zero] * (order + 1)
    for i, x in enumerate(fa):
        if x == 0:
            continue
        for j in range(order + 1 - i):
            y = fb[j]
            if y != 0:
                out[i + j] = out[i + j] + x * y
    return tuple(out)


def power_recursion(a: Sequence, r, order: int) -> tuple:
    """a**r by P[n] = (1/(n*a_0)) * sum_k (k*(1+r) - n) * a_k * P[n-k]."""
    a0 = a[0]
    if isinstance(r, int) or (isinstance(r, Fraction) and r.denominator == 1):
        r = int(r)
        head = a0**r
    else:
        if a0 != 1:
            raise ValueError("irrational leading power")
        r = Fraction(r)
        head = a0
    zero = _zero(a)
    fa = _padded(a, order, zero)
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


def exp_recursion(a: Sequence, order: int) -> tuple:
    """exp(a) for a_0 = 0 by n*E[n] = sum_k k*a_k*E[n-k]."""
    zero = _zero(a)
    fa = _padded(a, order, zero)
    out = [zero] * (order + 1)
    out[0] = zero + 1
    for n in range(1, order + 1):
        acc = zero
        for k in range(1, n + 1):
            if fa[k] != 0:
                acc = acc + k * fa[k] * out[n - k]
        out[n] = acc / n
    return tuple(out)


def horner_compose(outer: Sequence, inner: Sequence, order: int) -> tuple:
    """outer(inner(u)) by Horner's rule, one product per outer coefficient."""
    zero = _zero(inner) if len(inner) else _zero(outer)
    if len(inner) and inner[0] != 0:
        raise ValueError("composition requires positive valuation")
    fo = list(outer[: order + 1]) or [zero]
    acc: tuple = tuple([fo[-1]] + [zero] * order)
    for c in reversed(fo[:-1]):
        acc = cauchy_product(acc, inner, order)
        acc = (acc[0] + c,) + acc[1:]
    return acc


def power_table(first: Sequence, ratio: Sequence, order: int) -> list[tuple]:
    """first * ratio**n for n = 0..order; ratio may have a zero constant term."""
    table = [tuple(_padded(first, order, _zero(ratio)))]
    for _ in range(order):
        table.append(cauchy_product(table[-1], ratio, order))
    return table


def composition_sums(
    weights: Sequence, g: Sequence | None, h: Sequence, z: int | None, order: int
) -> list:
    """out[m] = sum_n weights[n] * [g**n * h**(1-n)]_(m - n*z), term by term;
    ``g=None`` keeps only n = 0."""
    zero = h[0] * 0
    h_table = power_table(h, power_recursion(h, -1, order), order)
    out = [zero] * (order + 1)
    if g is None:
        for m in range(order + 1):
            out[m] = weights[0] * h_table[0][m]
        return out
    g_table = power_table((h[0] ** 0,), g, order)
    for n in range(min(order // max(z, 1), len(weights) - 1) + 1):
        w = weights[n]
        if w == 0:
            continue
        conv = cauchy_product(g_table[n], h_table[n], order)
        for m in range(n * z, order + 1):
            out[m] = out[m] + w * conv[m - n * z]
    return out


def resultant_by_double_sums(
    outer: Sequence, middle: Sequence, inner: Sequence, order: int
) -> tuple:
    """R(K, M, N) through composition_sums, with the side that loses its
    leading term at n_1 = -1 or +1 shifted to the first nonzero tail
    coefficient (None when the tail vanishes through the order)."""
    one = inner[0]
    zero = one * 0
    n1 = inner[1] if order >= 1 else zero
    tail = list(inner[2 : order + 1])
    z_index = next((i + 2 for i, c in enumerate(tail) if c != 0), None)
    shifted = None if z_index is None else list(inner[z_index : order + 1])
    g: Sequence | None = [one + n1] + tail
    gt: Sequence | None = [one - n1] + [-c for c in tail]
    zg = zt = 1
    if n1 == -1:
        g, zg = shifted, z_index
    elif n1 == 1:
        gt, zt = (None if shifted is None else [-c for c in shifted]), z_index
    h = [one + one, n1 - one] + tail
    ht = [one + one, n1 + one] + tail
    a_side = composition_sums(middle, gt, ht, zt, order)
    b_side = composition_sums(middle, g, h, zg, order)
    d = [a_side[j + 1] - b_side[j + 1] for j in range(order)]
    s = [a_side[j] + b_side[j] for j in range(order + 1)]
    combined = composition_sums(outer, d, s, 1, order)
    return tuple(c * Fraction(1, 4) for c in combined)
