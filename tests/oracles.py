"""Reference implementations that the production expansion route is tested
against.

Each one is an independent derivation of the same coefficients:

* ``expand_l_alpha``, ``expand_s_alpha`` and ``expand_mu_generated``: the
  dedicated binomial double sums of the L/S families and the odd-generator
  coefficient formula, all at half length in the even index;
* ``expand_quotient_by_series``: the quotient means at the full order on
  tuples of ``Fraction``, with D'(Lambda) from ``exp_recursion``,
  ``horner_compose`` and ``series_power`` (``_derivative_at``), a
  ``series_mul`` by Lambda', an ``integrate`` and a ``series_power``
  inverse, where the catalog runs on integer forms with an integer
  recurrence for cosh(alpha*Lambda), running sums for Lambda' and the
  integral, and the even families at half the order in u**2;
* ``expand_by_composition``: the denominator series, built per family from
  its own closed form, composed with the log-ratio series by Horner's rule
  (cubic in the order) and inverted;
* ``denominator_series`` and ``denominator_series_value``: D(y) as an exact
  series from the production D'(y), and its float value through y**9, where
  ``numeric.py`` evaluates every family by its closed form at every y;
* ``mpmath_denominator`` and ``mpmath_mean``: D(y) and the mean at
  mpmath precision from each family's textbook closed form, the one oracle
  that shares no code with production (mpmath is a test-only dependency);
  ``mpmath_resultant`` composes the same closed forms into
  R(K, M, N)(1 - u, 1 + u) at a complex u;
* ``boundary_by_extrapolation``: the boundary limit at (s, 1-s), s -> 0,
  sampled at s = 1e-3..1e-8 and extrapolated by Neville's scheme in
  1/log10(1/s), where ``numeric.py`` takes every limit from a closed form
  and refuses inputs that have none;
* ``mean_boundary_by_table``: the boundary limit of each family read from
  its own table of values at D(inf) (2*|alpha|/pi, sqrt(2)/pi, ...), where
  ``numeric.py`` takes 1/D(inf) from the one closed form of each D;
* ``difference_form_by_horner``: one solver sample with B_p expanded and
  run through Horner's outer step, where the solver applies B_p in closed
  form;
* ``coefficient_polynomial``: one t**k coefficient polynomial of the
  solver from its own k+2 difference expansions truncated at order k, by
  Lagrange interpolation through k+1 of them, where the solver samples one
  band of expansions for many k and reads each polynomial and its degree
  certificate from a forward-difference table;
* ``coefficient_polynomials_by_interpolation``: the same band as the solver,
  with every k interpolated through k+1 samples and evaluated at the others;
* ``candidates_by_bands``: the solver's candidates with every root of the
  pivot evaluated on the coefficient polynomials of sampled bands (reach 6,
  then max_order; an even mean's even columns only), a rational root
  exactly and a surd one by ``eval_at_root``: the column reduced modulo the
  surd's ``minimal_polynomial``, rational when the remainder is constant,
  otherwise a sign-certified ``SignedInterval`` enclosure, where the solver
  reads a root from one comparison with B_r, from closed columns or from
  one difference expansion at the root, over Q(sqrt(s)) at a surd one, and
  samples no band;
* ``expand_power_mean_full_order``: B_p as the binomial series of
  (1 -/+ u)**p, averaged and raised to 1/p, each at the full order, where
  the catalog builds the even average from integer binomials and runs one
  recursion at half the order;
* ``expand_power_mean_from_fractions``: the catalog's half-order route with
  the average as Fractions and one public series_power call, where the
  catalog runs it on integer numerators and hands them on to the solver;
* ``stable_by_closed_slope``: the stable series solved one even order at a
  time, one resultant on integer forms per order and the closed slope
  1/2 + 2**(1-n) of the fixed-point step, where the catalog returns the
  power mean B_{2 a_2 + 1};
* ``stable_by_two_resultants``: the same fixed point with the slope of each
  step measured by a second resultant on Fraction sequences;
* ``resultant_mean_map``: R(K, M, N) from three expansions, or from B_p's
  exponent as the outer mean, through ``resultant_coeffs`` or the forms of
  the expansions, where the command line composes the catalog forms of its
  means;
* ``stability_defects_by_mean_map``: the stability defects M - R(M, M, M)
  from the expansion of M and ``resultant_mean_map`` as Fractions, where
  the solver computes no resultant: it compares M with the stable mean its
  first coefficients name and reads the first defect from a closed slope;
* ``binomial``: the generalized binomial coefficient, one Fraction product
  per factor;
* ``cauchy_product`` and ``power_recursion``: the series product and the
  power recursion as scalar-generic loops that skip zero terms and reduce
  every ``Fraction`` term, where the kernel runs every scalar on forms
  (nums, den), rationals as integer numerators over a common denominator;
* ``exp_recursion`` and ``integrate``: exp of a series with zero constant
  term and the term-by-term antiderivative, which the engine does not need
  (its cosh comes from an integer recurrence and its integral from a
  running sum);
* ``horner_compose``: composition by Horner's rule with one reduced series
  product per step, where the kernel keeps the accumulator as a form, over
  Q integer numerators over one denominator; ``compose_on_forms`` runs the
  kernel's own Horner primitive from sequences, converted at the edges as
  ``series_mul`` converts its operands;
* ``power_table``, ``composition_sums`` and ``resultant_by_double_sums``:
  the resultant as double sums over tables of powers, with the degenerate
  inner means (t-coefficient -1 or +1) run on the sequence shifted to the
  first nonzero tail coefficient, where ``resultant.py`` forms each sum as
  one composition and needs no case split;
* ``composition_sums_full_horner``: one composition sum on forms with
  Horner's rule over every weight, where ``resultant.py`` runs even weights
  W(x) = W~(x**2) over W~ in the square of the ratio;
* ``resultant_on_fraction_tuples``: the production case and parity logic
  with every product and power a public series function on tuples of
  Fractions, every composition a ``compose_on_forms`` over all weights, and
  an even outer step in u**2 at half the order when all three means are
  even, where ``resultant.py`` converts its inputs once, runs on integer
  numerators and composes even weights, the outer mean's included, in the
  square of the ratio at full length;
* ``resultant_two_sides``: the resultant with both middle compositions and
  the outer step at full length for every input, where ``resultant.py``
  reads one side from the other when the middle and inner means are even;
* ``isolate_real_roots_by_divisor_search``: root isolation with the rational
  roots found first by the rational-root candidate test over the divisors
  of the end coefficients (``rational_roots_by_divisor_search``, integer
  Horner on coprime candidates; it gives up on large or highly composite
  end coefficients), checked against the rationals that the production
  pass over the isolating intervals recognizes from degree 3 up, and the
  roots ordered by exact comparisons of their enclosures, where
  ``polynomials.py`` finds every rational root of degree 3 and up by
  interval recognition alone, solves degrees 1 and 2 in closed form, and
  keeps the order of the isolating intervals;
* ``simplest_between_by_recursion``: the simplest rational of an interval
  by one recursive call per continued-fraction term, where
  ``polynomials.py`` loops over the terms;
* ``descartes_count_by_products``: the Descartes count of an interval from
  UniPoly products of the Moebius numerator and denominator powers, where
  ``polynomials.py`` takes two Taylor shifts;
* ``sqrt_bounds_by_bisection``: the surd enclosure by bisection, where
  ``polynomials.py`` reads the same bounds from one integer square root;
* ``rational_roots_by_fraction_evaluation``: the same candidate test by
  ``Fraction`` evaluation of every candidate;
* ``extract_square_every_divisor`` and ``extract_square_odd_divisors``: the
  square-factor search by trial division with every d, or 2 and odd d, up
  to 10**4, where ``polynomials.py`` reads the primes that divide n twice
  from two gcds with the product of the primes up to 10**4;
* ``lagrange_interpolate``: the polynomial through arbitrary points by
  Newton's divided differences over ``Fraction``, where ``polynomials.py``
  reads polynomials through equally spaced samples from integer forward
  differences;
* ``defect_polynomial_by_lagrange``: the stability scan's defect polynomial
  in beta = alpha**2 from the mean-map defects, interpolated through 11
  unequally spaced beta samples and checked at two more, where the solver
  samples (3/8)(M - B_p) at six consecutive integers beta and reads
  Newton's forward form.

Except for the mpmath ones and the extrapolation they are exact, and all
are slow; only tests use them.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from meanstab.catalog import (
    ClassicMean,
    LAlpha,
    MAlphaR,
    MeanExpansion,
    MeanSpec,
    MuGenerated,
    PowerMean,
    SAlpha,
    _denominator_derivative,
    _power_mean_form,
    expand_mean,
)
from meanstab.polynomials import (
    QuadraticSurdRoot,
    RationalRoot,
    Root,
    UniPoly,
    _is_square,
    _recognize_roots,
    _sqrt_exact,
    affine_image,
    isolate_real_roots,
    make_surd,
    sign_variations,
    squarefree_part,
)
from meanstab.numeric import LimitReport, eval_mean, eval_resultant
from meanstab.rationals import ONE, ZERO, Rational
from meanstab import resultant
from meanstab.resultant import resultant_coeffs
from meanstab.series import (
    _forms,
    _horner_form,
    _integer_form,
    _power_form,
    _product_form,
    _values,
    series_mul,
    series_power,
)
from meanstab.solver import (
    AffineLocus,
    OptimalCandidate,
    coefficient_polynomials,
    difference_expansion,
    first_order_locus,
)


def binomial(r: Rational | int, k: int) -> Rational:
    """Generalized binomial coefficient r(r-1)...(r-k+1)/k! for rational r."""
    if k < 0:
        raise ValueError("lower index of a binomial must be nonnegative")
    r = Fraction(r)
    result = ONE
    for i in range(k):
        result *= (r - i) / (i + 1)
    return result


def expand_power_mean_full_order(p: Rational, order: int) -> MeanExpansion:
    """B_p from the binomial series of (1 -/+ u)**p, averaged and raised to
    1/p at the full order; B_0 = (1 - u^2)**(1/2)."""
    p = Fraction(p)
    if p == 0:
        return MeanExpansion(series_power((ONE, ZERO, -ONE), Fraction(1, 2), order))
    minus = series_power((ONE, -ONE), p, order)
    plus = series_power((ONE, ONE), p, order)
    avg = tuple((a + b) / 2 for a, b in zip(minus, plus))
    return MeanExpansion(series_power(avg, 1 / p, order))


def expand_power_mean_from_fractions(p: Rational, order: int) -> MeanExpansion:
    """B_p by the catalog's half-order route, with the even average built as
    Fractions and raised to 1/p by the public series_power."""
    p = Fraction(p)
    half = order // 2
    if p == 0:
        avg, exponent = [ONE, -ONE], Fraction(1, 2)
    else:
        s, t = p.as_integer_ratio()
        avg, num, den = [ONE], 1, 1
        for m in range(1, 2 * half + 1):
            num *= s - (m - 1) * t
            den *= m * t
            if m % 2 == 0:
                avg.append(Fraction(num, den))
        exponent = 1 / p
    coeffs = [ZERO] * (order + 1)
    coeffs[::2] = series_power(avg, exponent, half)
    return MeanExpansion(tuple(coeffs))


def stable_by_closed_slope(a2: Rational, order: int) -> MeanExpansion:
    """The fixed point of R(M, M, M) = M solved one even order n >= 4 at a
    time: one resultant with c_n = 0 on the integer form of the window gives
    r_n = base, and c_n = base / (1 - slope) with the closed slope
    1/2 + 2**(1-n) of is_stable's docstring."""
    coeffs = [ONE] + [ZERO] * order
    if order >= 2:
        coeffs[2] = Fraction(a2)
    for n in range(4, order + 1, 2):
        window = _integer_form(coeffs, n)
        nums, den = resultant._resultant(window, window, window, n)
        coeffs[n] = Fraction(nums[n], den) / (Fraction(1, 2) - Fraction(2, 2**n))
    return MeanExpansion(tuple(coeffs))


def stable_by_two_resultants(a2: Rational, order: int) -> MeanExpansion:
    """The fixed point of R(M, M, M) = M solved one even order at a time,
    with the affine dependence of the resultant coefficient on the unknown
    top coefficient measured at the values 0 and 1."""
    coeffs = [ONE] + [ZERO] * order
    if order >= 2:
        coeffs[2] = Fraction(a2)
    for idx in range(4, order + 1, 2):
        window = coeffs[: idx + 1]
        window[idx] = ZERO
        base = resultant_coeffs(window, window, window, idx)[idx]
        window[idx] = ONE
        slope = resultant_coeffs(window, window, window, idx)[idx] - base
        if slope == 1:
            raise ArithmeticError(f"fixed point underdetermined at order {idx}")
        coeffs[idx] = base / (1 - slope)
    return MeanExpansion(tuple(coeffs))


def resultant_mean_map(
    outer: MeanExpansion | PowerMean, middle: MeanExpansion, inner: MeanExpansion, order: int
) -> MeanExpansion:
    """Expansion of R(K, M, N) to the requested order; a PowerMean outer
    takes the closed power-mean step, an expanded one Horner's."""
    if not isinstance(outer, PowerMean):
        return MeanExpansion(resultant_coeffs(outer.coeffs, middle.coeffs, inner.coeffs, order))
    forms = resultant._checked_forms(order, middle=middle.coeffs, inner=inner.coeffs)
    return MeanExpansion(_values(*resultant._resultant(outer.p, *forms, order)))


def stability_defects_by_mean_map(spec: MeanSpec, order: int) -> list[Rational]:
    """The coefficients of M - R(M, M, M) through the order from the
    expansion of M and resultant_mean_map, a power mean as the closed outer
    step, subtracted as Fractions."""
    exp = expand_mean(spec, order)
    res = resultant_mean_map(spec if isinstance(spec, PowerMean) else exp, exp, exp, order)
    return [exp.coefficient(n) - res.coefficient(n) for n in range(order + 1)]


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


def log_ratio_series(order: int) -> tuple[Rational, ...]:
    """ln((x+t)/(x-t)) as a series in u = t/x: 2*sum u**(2k+1)/(2k+1)."""
    return tuple(
        Fraction(2, n) if n % 2 else ZERO for n in range(order + 1)
    )


def _derivative_at(spec: MeanSpec, f: tuple, order: int) -> tuple:
    """D'(f(u)) to the given order for an odd series f, where D is the
    denominator of M(a, b) = |b - a| / D(|ln(b/a)|)."""
    if isinstance(spec, (ClassicMean, MAlphaR)):
        base, expo = _denominator_derivative(spec)
        return series_power(horner_compose(base, f, order), expo, order)
    if isinstance(spec, MuGenerated):
        # mu'(y) = sum (2n+1) c_n y**(2n), a polynomial in y**2
        weights = [(2 * n + 1) * c for n, c in enumerate(spec.odd_coeffs[: order // 2 + 1])]
        return horner_compose(weights, series_mul(f, f, order), order)
    if isinstance(spec, (LAlpha, SAlpha)):
        # D' is cosh(alpha*y) for L_alpha and 1/cosh(alpha*y) for S_alpha.  As f
        # is odd, exp(-alpha*f(u)) = exp(alpha*f(-u)), so cosh(alpha*f) is the
        # even part of exp(alpha*f).
        grown = exp_recursion(tuple(c * spec.alpha for c in f), order)
        cosh = tuple(ZERO if n % 2 else c for n, c in enumerate(grown))
        return cosh if isinstance(spec, LAlpha) else series_power(cosh, -1, order)
    raise TypeError(f"unknown mean spec {spec!r}")


def expand_quotient_by_series(spec: MeanSpec, order: int) -> MeanExpansion:
    """M(x-t, x+t) = 2t / D(Lambda(u)) at the full order on tuples of
    Fractions: D'(Lambda) by exp_recursion or series_power, times
    Lambda' = 2/(1 - u^2) by series_mul, integrate, and one
    series_power(-1)."""
    lam_prime = tuple(Fraction(2) if n % 2 == 0 else ZERO for n in range(order + 1))
    slope = series_mul(_derivative_at(spec, log_ratio_series(order), order), lam_prime, order)
    den = integrate(slope, order + 1)
    if den[1] != 2:
        raise ArithmeticError("D(Lambda) must start 2u")
    return MeanExpansion(series_power(tuple(c / 2 for c in den[1:]), -1, order))


def direct_denominator_series(spec: MeanSpec, order: int) -> tuple[Rational, ...]:
    """D(y) with M(a, b) = |b - a| / D(|ln(b/a)|), from each family's own
    closed form: sinh(alpha*y)/alpha, the integral of 1/cosh(alpha*y), the
    odd generator itself, or the integral of base(y)**exponent."""
    if isinstance(spec, (ClassicMean, MAlphaR)):
        base, expo = _denominator_derivative(spec)
        return integrate(series_power(base, expo, order - 1), order)
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


def denominator_series(spec: MeanSpec, order: int) -> tuple[Rational, ...]:
    """Series D(y) with M(a, b) = |b - a| / D(|ln(b/a)|); zero constant term.
    It is the integral of the production D'(f) at f = identity.

    Defined for every catalog family except power means, which are not of
    difference-quotient shape.
    """
    if isinstance(spec, PowerMean):
        raise ValueError("power means have no log-ratio denominator form")
    return integrate(_derivative_at(spec, (ZERO, ONE), order - 1), order)


def denominator_series_value(spec: MeanSpec, y: float) -> float:
    """D(y) in double precision from its series through y**9, by Horner's
    rule; accurate for small y only."""
    acc = 0.0
    for c in reversed(denominator_series(spec, 9)):
        acc = acc * y + float(c)
    return acc


def _mpf(x: Rational):
    import mpmath

    return mpmath.mpf(x.numerator) / x.denominator


def mpmath_denominator(spec: MeanSpec, y):
    """D(y) at mpmath's working precision, real or complex, from each
    family's textbook closed form (none of the cancellation-free rewrites
    of ``numeric.py``).  Needs mpmath; tests importorskip it first."""
    import mpmath

    if isinstance(spec, LAlpha):
        a = _mpf(spec.alpha)
        return y if a == 0 else mpmath.sinh(a * y) / a
    if isinstance(spec, SAlpha):
        a = _mpf(spec.alpha)
        return y if a == 0 else 2 * mpmath.atan(mpmath.tanh(a * y / 2)) / a
    if isinstance(spec, ClassicMean):
        sqrt2 = mpmath.sqrt(2)
        return {
            1: lambda: mpmath.log(1 + y),
            2: lambda: sqrt2 * mpmath.atan(y / sqrt2),
            3: lambda: 2 * mpmath.atan(1 + y) - mpmath.pi / 2,
            4: lambda: sqrt2 * mpmath.asinh(y / sqrt2),
            5: lambda: sqrt2 * (mpmath.asinh(1 + y) - mpmath.asinh(1)),
        }[spec.index]()
    if isinstance(spec, MAlphaR):
        r, rs = _mpf(spec.r), _mpf(spec.r + spec.alpha)
        return mpmath.log(1 + r * y) / r if rs == 0 else ((1 + r * y) ** (rs / r) - 1) / rs
    if isinstance(spec, MuGenerated):
        return sum(_mpf(c) * y ** (2 * n + 1) for n, c in enumerate(spec.odd_coeffs))
    raise TypeError(f"no denominator form for {spec!r}")


def _mpmath_mean_at(spec: MeanSpec, a, b):
    """M(a, b) for complex a and b near 1, in the order given: a quotient
    mean is (b - a)/D(ln(b/a)) with no abs, which continues the expansion
    in the half-difference (b - a)/(a + b) to either sign."""
    import mpmath

    if isinstance(spec, PowerMean):
        if spec.p == 0:
            return mpmath.sqrt(a * b)
        p = _mpf(spec.p)
        return ((a**p + b**p) / 2) ** (1 / p)
    return (b - a) / mpmath_denominator(spec, mpmath.log(b / a))


def mpmath_mean(spec: MeanSpec, a: float, b: float):
    """M(a, b) at mpmath's working precision; float arguments count as
    exact binary numbers."""
    import mpmath

    return _mpmath_mean_at(spec, *sorted((mpmath.mpf(a), mpmath.mpf(b))))


def mpmath_resultant(outer: MeanSpec, middle: MeanSpec, inner: MeanSpec, u):
    """R(K, M, N)(1 - u, 1 + u) = K(M(1 - u, N), M(N, 1 + u)), N = N(1 - u,
    1 + u), at mpmath's working precision for a complex u."""
    n = _mpmath_mean_at(inner, 1 - u, 1 + u)
    return _mpmath_mean_at(outer, _mpmath_mean_at(middle, 1 - u, n), _mpmath_mean_at(middle, n, 1 + u))


def _neville_to_zero(ws: list[float], vs: list[float]) -> tuple[float, float]:
    """Polynomial extrapolation of (w, v) samples to w = 0 with an error
    estimate from the last correction."""
    table = vs[:]
    best = table[-1]
    correction = math.inf
    n = len(ws)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            table[i] = table[i] + (table[i] - table[i - 1]) * ws[i] / (ws[i - level] - ws[i])
        correction = abs(table[n - 1] - best)
        best = table[n - 1]
    return best, correction


def boundary_by_extrapolation(expr: MeanSpec | tuple[MeanSpec, MeanSpec, MeanSpec]) -> LimitReport:
    """lim_{s->0+} of M(s, 1-s), or of R(K, M, N)(s, 1-s) for a triple,
    sampled at s = 1e-3..1e-8 and extrapolated polynomially in
    1/log10(1/s), with an uncertainty estimate; where ``numeric.py`` takes
    each limit from its closed form.  A sequence still drifting through the
    samples, as logarithmically slow ones do, raises "not resolved"."""
    if isinstance(expr, tuple):

        def sample(s: float) -> float:
            return eval_resultant(*expr, s, 1.0 - s)

    else:

        def sample(s: float) -> float:
            return eval_mean(expr, s, 1.0 - s)

    ks = list(range(3, 9))
    ws = [1.0 / k for k in ks]
    vs = [sample(10.0**-k) for k in ks]
    value, uncertainty = _neville_to_zero(ws, vs)
    spread = max(vs) - min(vs)
    if not math.isfinite(value) or (uncertainty > max(2e-4, 2e-3 * abs(value)) and spread > 1e-9):
        raise ValueError("limit not resolved")
    if abs(value) < 5e-4 and spread < 0.2:
        value = max(value, 0.0)
    return LimitReport(value, uncertainty, "extrapolated")


def mean_boundary_by_table(spec: MeanSpec) -> float:
    """lim_{s->0+} M(s, 1-s) from a per-family table of limits: 0 wherever
    D(y) diverges, and the finite 1/D(inf) of S_alpha, M2, M3 and M_{alpha,r}
    with r + alpha < 0 written out."""
    if isinstance(spec, PowerMean):
        p = float(spec.p)
        return 2.0 ** (-1.0 / p) if p > 0 else 0.0
    if isinstance(spec, LAlpha):
        return 0.0  # sinh(alpha*y) (or y itself) diverges
    if isinstance(spec, SAlpha):
        a = abs(float(spec.alpha))
        return 0.0 if a == 0.0 else 2.0 * a / math.pi
    if isinstance(spec, ClassicMean):
        return {1: 0.0, 2: math.sqrt(2.0) / math.pi, 3: 2.0 / math.pi, 4: 0.0, 5: 0.0}[spec.index]
    if isinstance(spec, MAlphaR):
        s = spec.r + spec.alpha
        return float(-s) if s < 0 else 0.0
    if isinstance(spec, MuGenerated):
        if spec.has_positive_root:
            raise ValueError("mu has a positive root, where the mean is undefined")
        return 0.0  # mu grows to +infinity
    raise TypeError(f"no boundary limit for {spec!r}")


def difference_form_by_horner(m_form: tuple, p: Fraction, q: Fraction, order: int) -> tuple:
    """M - R(B_p, M, B_q) on integer forms with B_p expanded and composed by
    Horner's outer step."""
    r_form = resultant._resultant(_power_mean_form(p, order), m_form, _power_mean_form(q, order), order)
    m, r, den = resultant._common(m_form, r_form)
    return [a - b for a, b in zip(m, r)], den


def expand_by_composition(spec: MeanSpec, order: int) -> MeanExpansion:
    """M(x-t, x+t) = 2t / D(Lambda(u)) with D(Lambda) formed by composing the
    full denominator series with Lambda = ln((1+u)/(1-u))."""
    deep = order + 1
    lam = log_ratio_series(deep)
    den = horner_compose(direct_denominator_series(spec, deep), lam, deep)
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


def coefficient_polynomials_by_interpolation(
    mean: MeanExpansion, locus: AffineLocus, low: int, high: int
) -> dict[int, UniPoly]:
    """The solver's band of reach high, with the t**k polynomial
    interpolated through the first k+1 samples, checked for degree k-1 and
    evaluated at the other high+1-k samples."""
    n = high + 2
    samples = []
    for i in range(n):
        p = Fraction(i - n // 2)
        samples.append((p, difference_expansion(mean, p, locus.q_of(p), high).coeffs))
    polys = {}
    for k in range(low, high + 1):
        poly = lagrange_interpolate([(p, c[k]) for p, c in samples[: k + 1]])
        if poly.degree > k - 1 or any(poly(p) != c[k] for p, c in samples[k + 1 :]):
            raise ArithmeticError("degree bound violated")
        polys[k] = poly
    return polys


class SignedInterval(namedtuple("SignedInterval", "low high")):
    """Certified rational enclosure of a nonzero real value."""

    __slots__ = ()

    @property
    def sign(self) -> int:
        return 1 if self.low > 0 else -1


def minimal_polynomial(root: QuadraticSurdRoot) -> UniPoly:
    """The polynomial c**2 x**2 - 2ac x + a**2 - b of (a +- sqrt(b))/c."""
    a, b, c = root.add, root.radicand, root.div
    return UniPoly((a * a - b, -2 * a * c, c * c))


def interval_eval(p: UniPoly, lo: Rational, hi: Rational) -> tuple[Rational, Rational]:
    """An enclosure of p over [lo, hi], by Horner's rule on intervals."""
    acc_lo, acc_hi = ZERO, ZERO
    for c in reversed(p.coeffs):
        cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(cands) + c, max(cands) + c
    return acc_lo, acc_hi


def eval_at_root(p: UniPoly, root: QuadraticSurdRoot) -> Rational | SignedInterval:
    """Value of p at a quadratic surd: exact rational when p modulo the
    surd's minimal polynomial is constant (including exact zero), otherwise
    a sign-certified enclosure over root.bounds(width), the width squared
    each round from 10**-12."""
    p = p % minimal_polynomial(root)
    if p.degree <= 0:
        return p.coefficient(0)
    width = Fraction(1, 10**12)
    for _ in range(8):
        lo, hi = interval_eval(p, *root.bounds(width))
        if lo > 0 or hi < 0:
            return SignedInterval(lo, hi)
        width = width * width
    raise ArithmeticError(f"could not certify the sign at a root ({root.kind})")


def candidates_by_bands(mean: MeanExpansion, max_order: int) -> list[OptimalCandidate]:
    """The solver's candidates from sampled bands: the roots of the pivot
    (the first nonzero t**k polynomial on the locus, k >= 3), each with the
    first later polynomial that does not vanish at it, in root order.  The
    first band has reach 6 (max_order, if smaller), and one more at
    max_order opens when a column past it is asked for; an even mean's
    difference has no odd coefficient, so past the pivot only its even
    columns are read."""
    locus = first_order_locus(mean)
    step = 2 if mean.is_even else 1
    polys: dict[int, UniPoly] = {}

    def column(k: int) -> UniPoly:
        if k not in polys:
            reach = max_order if polys else min(max(k, 6), max_order)
            polys.update(coefficient_polynomials(mean, locus, k, reach))
        return polys[k]

    k0 = next(k for k in range(3, max_order + 1) if not column(k).is_zero)
    candidates = []
    for root in isolate_real_roots(column(k0)):
        achieved, leading = None, None
        for k in range(k0 + step, max_order + 1, step):
            if isinstance(root, RationalRoot):
                value = column(k)(root.value)
            else:
                value = eval_at_root(column(k), root)
            if not (isinstance(value, Fraction) and value == 0):
                achieved, leading = k, value
                break
        q_root = affine_image(root, locus.slope, locus.intercept)
        candidates.append(OptimalCandidate(root, q_root, achieved, leading))
    return candidates


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


def integrate(a: Sequence, order: int) -> tuple:
    """Term-by-term antiderivative through the order, with zero constant
    term."""
    return (ZERO,) + tuple(Fraction(c, n) for n, c in enumerate(_padded(a, order - 1, ZERO), 1))


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


def compose_on_forms(outer: Sequence, inner: Sequence, order: int) -> tuple:
    """outer(inner(u)) by the kernel's Horner primitive, the operands
    converted together as the public series functions convert theirs, so
    that a Fraction subclass sees every product of the generic form; inner
    must have zero constant term."""
    y_form, (x, dx) = _forms(order, inner, outer)
    return _values(*_horner_form((x[: max(len(outer), 1)], dx), y_form, order))


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


def composition_sums_full_horner(weights: tuple, g: tuple, h: tuple, order: int) -> tuple:
    """h * W(u * g / h) on forms of one field, with Horner's rule over every
    weight in the ratio u * g / h, even weights included."""
    gs, den = g
    ratio = _product_form(([h[0][0] * 0] + list(gs), den), _power_form(h, -1, order), order)
    return _product_form(h, _horner_form(weights, ratio, order), order)


def _composition_sums(weights: Sequence, g: Sequence, h: Sequence, order: int) -> tuple:
    """h * W(u * g / h) for W(x) = sum weights[n] x**n, one public series
    call per product and power and one compose_on_forms per composition."""
    ratio = series_mul([h[0] * 0] + list(g), series_power(h, -1, order), order)
    return series_mul(h, compose_on_forms(weights, ratio, order), order)


def _odd_part_vanishes(seq: Sequence, order: int) -> bool:
    return all(c == 0 for c in seq[1 : order + 1 : 2])


def _even_outer_step(outer: Sequence, b_side: Sequence, order: int) -> tuple:
    e, o, half = b_side[::2], b_side[1::2], order // 2
    w_o_squared = [e[0] * 0] + list(series_mul(o, o, half - 1))
    ratio = series_mul(w_o_squared, series_power(e, -2, half), half)
    combined = series_mul(e, compose_on_forms(outer[::2], ratio, half), half)
    scaled = [c * Fraction(1, 2) for c in combined]
    out = [scaled[0] * 0] * (order + 1)
    out[::2] = scaled
    return tuple(out)


def resultant_on_fraction_tuples(
    outer: Sequence, middle: Sequence, inner: Sequence, order: int
) -> tuple:
    """R(K, M, N) on tuples of Fractions, with every product and power a
    public series function, every composition compose_on_forms and Horner's
    rule over every weight.  It takes one middle composition for both sides
    only when the middle and inner means are both even, and then an even
    outer step in u**2 when the outer mean is even too; a mixed middle
    mean keeps two compositions whatever the inner mean, unlike the
    production route."""
    one = inner[0]
    n1 = inner[1] if order >= 1 else one * 0
    tail = list(inner[2 : order + 1])
    g = [one + n1] + tail
    h = [one + one, n1 - one] + tail
    b_side = _composition_sums(middle, g, h, order)
    if _odd_part_vanishes(middle, order) and _odd_part_vanishes(inner, order):
        if _odd_part_vanishes(outer, order):
            return _even_outer_step(outer, b_side, order)
        a_side = [-c if j % 2 else c for j, c in enumerate(b_side)]
    else:
        gt = [one - n1] + [-c for c in tail]
        ht = [one + one, n1 + one] + tail
        a_side = _composition_sums(middle, gt, ht, order)
    d = [a_side[j + 1] - b_side[j + 1] for j in range(order)]
    s = [a_side[j] + b_side[j] for j in range(order + 1)]
    combined = _composition_sums(outer, d, s, order)
    return tuple(c * Fraction(1, 4) for c in combined)


def resultant_two_sides(outer: Sequence, middle: Sequence, inner: Sequence, order: int) -> tuple:
    """R(K, M, N) by three compositions at full length, whatever the parity
    of the means."""
    one = inner[0]
    n1 = inner[1] if order >= 1 else one * 0
    tail = list(inner[2 : order + 1])
    g = [one + n1] + tail
    gt = [one - n1] + [-c for c in tail]
    h = [one + one, n1 - one] + tail
    ht = [one + one, n1 + one] + tail
    a_side = _composition_sums(middle, gt, ht, order)
    b_side = _composition_sums(middle, g, h, order)
    d = [a_side[j + 1] - b_side[j + 1] for j in range(order)]
    s = [a_side[j] + b_side[j] for j in range(order + 1)]
    combined = _composition_sums(outer, d, s, order)
    return tuple(c * Fraction(1, 4) for c in combined)


def lagrange_interpolate(
    points: Sequence[tuple[Rational | int, Rational | int]],
) -> UniPoly:
    """Unique polynomial of degree < len(points) through the given points.

    Newton's divided differences keep the arithmetic exact; duplicate
    abscissae are rejected.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae in interpolation points")
    n = len(points)
    coef = ys[:]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = UniPoly.zero()
    for i in range(n - 1, -1, -1):
        poly = poly * UniPoly((-xs[i], ONE)) + UniPoly((coef[i],))
    return poly


SCAN_ALPHAS = tuple(
    Fraction(num, den)
    for num, den in ((0, 1), (1, 8), (1, 5), (1, 4), (1, 3), (2, 5), (1, 2),
                     (3, 5), (2, 3), (3, 4), (4, 5), (7, 8), (1, 1))
)


def defect_polynomial_by_lagrange(make_spec, index: int) -> UniPoly:
    """The t**index stability defect of the family as a polynomial in
    beta = alpha**2, through the first 11 of the 13 ``SCAN_ALPHAS`` and
    checked at the last two."""
    points = [
        (alpha * alpha, stability_defects_by_mean_map(make_spec(alpha), index)[index])
        for alpha in SCAN_ALPHAS
    ]
    poly = lagrange_interpolate(points[:-2])
    for beta, value in points[-2:]:
        if poly(beta) != value:
            raise ArithmeticError("stability defect is not polynomial in alpha^2")
    return poly


TRIAL_DIVISION_BOUND = 10**5
DIVISOR_CAP = 1 << 16


def _factorize(n: int) -> dict[int, int] | None:
    """Trial-division factorization; None when a large cofactor resists."""
    n = abs(n)
    factors: dict[int, int] = {}
    if n == 0:
        return factors
    d = 2
    while d <= TRIAL_DIVISION_BOUND and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if n > TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND:
            # n might be composite with unknown factors; the divisor list
            # would be incomplete.
            return None
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors(n: int) -> list[int] | None:
    """The positive divisors of n, or None when n cannot be factored by
    trial division or has more than DIVISOR_CAP divisors."""
    factors = _factorize(n)
    if factors is None:
        return None
    divs = [1]
    for prime, mult in factors.items():
        divs = [d * prime**e for d in divs for e in range(mult + 1)]
        if len(divs) > DIVISOR_CAP:
            return None
    return divs


def rational_roots_by_divisor_search(g: UniPoly) -> tuple[list[Rational], bool]:
    """The rational roots of g (square-free), found by the rational-root
    candidate test and verified by exact evaluation, and whether they are
    all of them (False when the divisor search gave up).  A coprime
    candidate +-p/q is a root exactly when sum_i ints[i] * (+-p)**i *
    q**(n-i) = 0, evaluated by Horner's rule on integers; a pair with a
    common factor is skipped, as its reduced form is also a candidate."""
    scale = math.lcm(*(c.denominator for c in g.coeffs))
    ints = [int(c * scale) for c in g.coeffs]
    roots: list[Rational] = []
    shift = 0
    while ints[shift] == 0:
        shift += 1
    if shift:
        roots.append(ZERO)
        ints = ints[shift:]
    if len(ints) <= 1:
        return roots, True
    num_divs = divisors(ints[0])
    den_divs = divisors(ints[-1])
    if num_divs is None or den_divs is None or len(num_divs) * len(den_divs) > DIVISOR_CAP:
        return roots, False
    for p in num_divs:
        for q in den_divs:
            if math.gcd(p, q) > 1:
                continue
            for x in (p, -p):
                acc, q_power = 0, 1
                for c in reversed(ints):
                    acc = acc * x + c * q_power
                    q_power *= q
                if acc == 0:
                    roots.append(Fraction(x, q))
    return roots, True


def simplest_between_by_recursion(lo: Rational, hi: Rational) -> Rational:
    """Rational with the smallest denominator in the closed interval
    [lo, hi], one recursive call per continued-fraction term."""
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return ZERO
    if hi < 0:
        return -simplest_between_by_recursion(-hi, -lo)
    floor_lo = lo.numerator // lo.denominator
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if ceil_lo <= hi:
        return Fraction(ceil_lo)
    frac_part = simplest_between_by_recursion(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / frac_part


def isolate_real_roots_by_divisor_search(f: UniPoly) -> list[Root]:
    """Every distinct real root of f, with the rational ones from the
    divisor search, in an order read from exact comparisons of enclosures
    (``_compare_roots``).  A square-free part of degree 1 or 2 is solved in
    closed form once its rational roots are divided out.  From degree 3 up,
    the irrational roots come from the production pass over the isolating
    intervals (``_recognize_roots``); the rationals it recognizes must be
    those of the divisor search when the search was complete, and contain
    them when it gave up."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return []
    g = squarefree_part(f)
    rationals, complete = rational_roots_by_divisor_search(g)
    if g.degree >= 3:
        found = _recognize_roots(g)
        recognized = {r.value for r in found if isinstance(r, RationalRoot)}
        if not (set(rationals) == recognized if complete else set(rationals) <= recognized):
            raise AssertionError(f"divisor search {rationals} against recognition {recognized}")
        roots = [RationalRoot(r) for r in recognized]
        roots.extend(r for r in found if not isinstance(r, RationalRoot))
        return sorted(roots, key=functools.cmp_to_key(_compare_roots))
    roots: list[Root] = []
    for r in rationals:
        g, rem = divmod(g, UniPoly((-r, ONE)))
        if f(r) != 0 or not rem.is_zero:
            raise ArithmeticError(f"rational root candidate {r} does not divide the polynomial")
        roots.append(RationalRoot(r))
    if g.degree == 1:
        roots.append(RationalRoot(-g.coeffs[0] / g.coeffs[1]))
    elif g.degree == 2:
        c0, c1, c2 = g.coeffs
        disc = c1 * c1 - 4 * c0 * c2
        if disc > 0:
            if _is_square(disc):
                s = _sqrt_exact(disc)
                roots.append(RationalRoot((-c1 - s) / (2 * c2)))
                roots.append(RationalRoot((-c1 + s) / (2 * c2)))
            else:
                roots.append(make_surd(-c1, -1, disc, 2 * c2))
                roots.append(make_surd(-c1, +1, disc, 2 * c2))
    return sorted(roots, key=functools.cmp_to_key(_compare_roots))


def _compare_roots(a: Root, b: Root) -> int:
    """-1 or 1 as the root a lies below or above the distinct root b, from
    their enclosures bounds(width), the width squared until they are
    disjoint."""
    width = Fraction(1, 10**12)
    while True:
        (alo, ahi), (blo, bhi) = a.bounds(width), b.bounds(width)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        width *= width


def rational_roots_by_fraction_evaluation(g: UniPoly) -> tuple[list[Rational], bool]:
    """The rational roots of a square-free g and whether the search was
    complete, evaluating g at every candidate +-p/q as a Fraction."""
    scale = math.lcm(*(c.denominator for c in g.coeffs))
    ints = [int(c * scale) for c in g.coeffs]
    roots: list[Rational] = []
    shift = 0
    while ints[shift] == 0:
        shift += 1
    if shift:
        roots.append(ZERO)
        ints = ints[shift:]
    if len(ints) <= 1:
        return roots, True
    num_divs = divisors(ints[0])
    den_divs = divisors(ints[-1])
    if num_divs is None or den_divs is None or len(num_divs) * len(den_divs) > DIVISOR_CAP:
        return roots, False
    seen = set()
    for p in num_divs:
        for q in den_divs:
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in seen:
                    seen.add(cand)
                    if g(cand) == 0:
                        roots.append(cand)
    return roots, True


def extract_square_every_divisor(n: int) -> tuple[int, int]:
    """n = f*f*core with f collected by trying every d up to 10**4."""
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    f, core = 1, n
    d = 2
    while d <= 10_000 and d * d <= core:
        while core % (d * d) == 0:
            core //= d * d
            f *= d
        d += 1
    return f, core


def extract_square_odd_divisors(n: int) -> tuple[int, int]:
    """n = f*f*core with f collected by trying 2 and every odd d up to 10**4."""
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    f, core = 1, n
    d = 2
    while d <= 10_000 and d * d <= core:
        while core % (d * d) == 0:
            core //= d * d
            f *= d
        d += 1 if d == 2 else 2
    return f, core


def descartes_count_by_products(p: UniPoly, a: Rational, b: Rational) -> int:
    """Sign variations of (1 + y)**n * p((a + b*y)/(1 + y)), summed term by
    term from UniPoly powers of a + b*y and 1 + y."""
    n = p.degree
    lin_num = UniPoly((a, b))  # a + b*y
    lin_den = UniPoly((ONE, ONE))  # 1 + y
    acc = UniPoly.zero()
    num_pow = UniPoly((ONE,))
    den_pows = [UniPoly((ONE,))]
    for _ in range(n):
        den_pows.append(den_pows[-1] * lin_den)
    for i, c in enumerate(p.coeffs):
        if c != 0:
            acc = acc + (num_pow * den_pows[n - i]) * c
        if i < n:
            num_pow = num_pow * lin_num
    return sign_variations(acc.coeffs)


def sqrt_bounds_by_bisection(n: Rational, width: Fraction) -> tuple[Rational, Rational]:
    """Enclosure of sqrt(n) by bisecting [s/d, s/d + 1], s/d the floor of
    sqrt(n) at denominator d, until it is at most width wide."""
    lo = Fraction(math.isqrt(n.numerator * n.denominator), n.denominator)
    hi = lo + 1
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo, hi
