"""Reference routes that the production code is tested against, one per
object, each with the production route it shares nothing with.

The resultant R(K, M, N):

* ``power_table``, ``composition_sums`` and ``resultant_by_double_sums``:
  the paper's double sums over tables of powers, each term and power
  computed only as far as it is read, with the degenerate inner means
  (t-coefficient -1 or +1) run on the sequence shifted to the first nonzero
  tail coefficient, where ``resultant.py`` forms each sum as one
  composition by Horner's rule and needs no case split;
  ``difference_by_double_sums`` takes M - R(B_p, M, B_q) from them, with B_p
  and B_q expanded and p and q rational or in Q(sqrt(s)), where the solver
  applies B_p in closed form;
* ``mpmath_resultant``: R(K, M, N)(1 - u, 1 + u) from the closed forms of
  ``mpmath_mean`` at a complex u, for the Cauchy integral of its
  coefficients.

Roots:

* ``rational_roots_by_divisor_search`` (with ``divisors``): the
  rational-root candidate test over the divisors of the end coefficients,
  by integer Horner on coprime candidates (it gives up on large or highly
  composite end coefficients), where ``polynomials.py`` recognizes every
  rational root as the simplest rational of its isolating interval;
  ``isolate_real_roots_by_divisor_search`` divides those rationals out,
  solves what is left in closed form at degrees 1 and 2, an irrational
  pair as two values of Q(sqrt(s)) where ``polynomials.py`` isolates two
  intervals, and
  from degree 3 up isolates it by Sturm counts (``sturm_sequence`` and
  ``sturm_count``, on UniPoly remainders) and bisection, where
  ``polynomials.py`` counts by Descartes' rule; it orders the roots by
  exact comparisons of enclosures, each interval bisected by the oracle
  itself, where ``polynomials.py`` keeps the order of the isolating
  intervals; ``check_roots_by_sturm`` checks a root list against the Sturm
  count and the divisor search, for polynomials whose rational roots the
  search cannot find;
* ``simplest_between_by_recursion``: the simplest rational of an interval
  by one recursive call per continued-fraction term, where
  ``polynomials.py`` loops over the terms;
* ``descartes_count_by_products``: the Descartes count of an interval from
  UniPoly products of the Moebius numerator and denominator powers, where
  ``polynomials.py`` takes two Taylor shifts;
* ``sqrt_bounds_by_bisection`` and ``surd_bounds_by_bisection``: the
  enclosure of a square root by bisection, and of a surd from it, for
  those comparisons and for the tests that read a surd's value against an
  enclosure; ``polynomials.py`` encloses no surd;
* ``extract_square_every_divisor``: the square factors by trial division
  with every d up to 10**4, where ``polynomials.py`` takes two gcds with
  the product of the primes up to 10**4 and splits the primes that divide
  n twice, once per square root in ``_exact_sqrt``; the divisor search
  tests its discriminant for a square with it, and ``surd_from_parts``
  builds a value of Q(sqrt(core)) from the four parts of a surd with it,
  where production reads every square root once, by ``_exact_sqrt``;
* ``lagrange_interpolate``: the polynomial through arbitrary points by
  Newton's divided differences over ``Fraction``, where ``polynomials.py``
  reads polynomials through equally spaced samples from integer forward
  differences.

The series kernel:

* ``cauchy_product``, ``power_recursion`` (an exponent in Q(sqrt(s))
  included), ``exp_recursion``, ``integrate`` and ``horner_compose``:
  scalar-generic loops on plain tuples that skip zero terms and reduce
  every ``Fraction`` term, where the kernel runs every scalar on forms
  (nums, den), rationals as integer numerators over a common denominator.

The means:

* ``binomial`` and ``expand_power_mean_full_order``: B_p as the binomial
  series of (1 -/+ u)**p, averaged and raised to 1/p at the full order, p
  rational or in Q(sqrt(s)), where the catalog builds the even average from
  integer binomials and runs one recursion at half the order;
* ``expand_l_alpha``, ``expand_s_alpha`` and ``expand_mu_generated``: the
  dedicated binomial double sums of the L/S families and the odd-generator
  coefficient formula, at half length in the even index;
* ``expand_by_composition`` (with ``direct_denominator_series`` and
  ``log_ratio_series``): each family's own denominator series composed with
  the log-ratio series by Horner's rule (cubic in the order) and inverted;
* ``expand_quotient_by_series`` (with ``denominator_series`` and
  ``denominator_series_value``): the quotient means at the full order on
  tuples of ``Fraction``, with D'(Lambda) from ``exp_recursion``,
  ``horner_compose`` and ``series_power``, where the catalog runs on
  integer forms with an integer recurrence for cosh(alpha*Lambda), running
  sums for Lambda' and the integral, and the even families at half the
  order in u**2;
* ``mpmath_denominator`` and ``mpmath_mean``: D(y) and the mean at mpmath
  precision from each family's textbook closed form, which shares no code
  with production (mpmath is a test-only dependency);
* ``boundary_by_extrapolation``: the boundary limit at (s, 1-s), s -> 0,
  sampled at s = 1e-3..1e-8 and extrapolated by Neville's scheme in
  1/log10(1/s), and ``mean_boundary_by_table``: each family's limit from
  its own table of values at D(inf), where ``numeric.py`` takes every limit
  from the one closed form of each D.

The stable series and the solver:

* ``stable_by_closed_slope``: the fixed point of R(M, M, M) = M solved one
  even order at a time, with the closed slope of the fixed-point step,
  where the catalog returns the power mean B_{2 a_2 + 1};
* ``coefficient_polynomial``: one t**k coefficient polynomial of the
  difference on the locus from its own k+2 difference expansions truncated
  at order k, by Lagrange interpolation, where the solver's band reads a
  forward-difference table;
* ``candidates_by_bands``: the search's candidates from one band of reach
  max_order, the columns past the pivot evaluated exactly at each of its
  roots, in Q or in Q(sqrt(s)), the roots from the closed form of
  ``isolate_real_roots_by_divisor_search``, where the search reads the
  roots from w = -c_4/r and the survivor from a comparison with a
  reference mean, from closed columns or from one difference expansion at
  each root;
* ``defect_polynomial_by_lagrange``: the stability scan's t^4 defect in
  beta = alpha**2 from the double sums, interpolated through 11 unequally
  spaced beta samples and checked at two more, where the scan samples a
  closed slope formula at six consecutive integers beta.

Mirrors that stay: they run production's own route, or an older body of
it, and keep the tests that the routes above cannot take without a weaker
assertion or more than twice the time:

* ``resultant_on_fraction_tuples`` (with ``_composition_sums``,
  ``_even_outer_step`` and ``compose_on_forms``): the production case and
  parity logic with every product and power a public series function, for
  the counts of a Fraction subclass's products; ``compose_on_forms`` is
  also how the series tests reach the kernel's Horner primitive;
* ``resultant_two_sides``: both middle compositions and the outer step at
  full length for every parity, for the catalog triples at orders 33 to
  48, where the double sums take 10 to 40 times as long, and for all-int
  input, which the double sums divide to floats;
* ``stability_defects_by_resultant``: M - R(M, M, M) from
  ``resultant_coeffs``, for the stability checks at order 33, where the
  double sums take about 0.1 s per mean;
* ``surd_approx_by_fractions``: the float value of a value of Q(sqrt(s))
  with its spelled parts mixed into float arithmetic by Fraction's
  operators, for the bit-for-bit pin of ``QuadraticField.__float__``.

Except for the mpmath ones, the float ones and the extrapolation they are
exact, and all are slow; only tests use them.
"""

from __future__ import annotations

import functools
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
    PowerMean,
    SAlpha,
    _denominator_derivative,
    expand_mean,
)
from meanstab.polynomials import (
    IntervalRoot,
    QuadraticField,
    RationalRoot,
    Root,
    UniPoly,
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


def expand_power_mean_full_order(p: Rational | QuadraticField, order: int) -> tuple:
    """The coefficients of B_p from the binomial series of (1 -/+ u)**p,
    averaged and raised to 1/p at the full order; B_0 = (1 - u^2)**(1/2).
    p is rational, or in Q(sqrt(s)) at a surd root."""
    p = p if isinstance(p, QuadraticField) else Fraction(p)
    if p == 0:
        return series_power((ONE, ZERO, -ONE), Fraction(1, 2), order)
    minus = series_power((ONE, -ONE), p, order)
    plus = series_power((ONE, ONE), p, order)
    return series_power(tuple((a + b) / 2 for a, b in zip(minus, plus)), 1 / p, order)


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


def stability_defects_by_resultant(spec: MeanSpec, order: int) -> list[Rational]:
    """The coefficients of M - R(M, M, M) through the order, from the
    expansion of M and resultant_coeffs on it, subtracted as Fractions."""
    exp = expand_mean(spec, order).coeffs
    return [m - r for m, r in zip(exp, resultant_coeffs(exp, exp, exp, order))]


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


def candidates_by_bands(mean: MeanExpansion, max_order: int) -> list[OptimalCandidate]:
    """The solver's candidates from one band of reach max_order: the roots
    of the pivot (the first nonzero t**k polynomial on the locus, k >= 3),
    each with the first later column that does not vanish there, evaluated
    exactly at the root, in Q or in Q(sqrt(s)), the roots from the closed
    form of isolate_real_roots_by_divisor_search; an even mean's difference
    has no odd coefficient, so past the pivot only its even columns are
    read."""
    locus = first_order_locus(mean)
    polys = coefficient_polynomials(mean, locus, 3, max_order)
    k0 = next(k for k in range(3, max_order + 1) if not polys[k].is_zero)
    step = 1 if any(mean.coeffs[1::2]) else 2
    candidates = []
    for root in isolate_real_roots_by_divisor_search(polys[k0]):
        p = root.value if isinstance(root, RationalRoot) else root
        values = ((k, polys[k](p)) for k in range(k0 + step, max_order + 1, step))
        achieved, leading = next(((k, v) for k, v in values if v != 0), (None, None))
        candidates.append(OptimalCandidate(p, locus.q_of(p), achieved, leading))
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
    """a**r by P[n] = (1/(n*a_0)) * sum_k (k*(1+r) - n) * a_k * P[n-k]; r
    rational, or a value of another field such as Q(sqrt(s)).  An int a_0
    is taken as a Fraction, so that int coefficients divide exactly."""
    a0 = Fraction(a[0]) if type(a[0]) is int else a[0]
    if isinstance(r, int) or (isinstance(r, Fraction) and r.denominator == 1):
        r = int(r)
        head = a0**r
    else:
        if a0 != 1:
            raise ValueError("irrational leading power")
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


def power_table(first: Sequence, ratio: Sequence, order: int, step: int = 0) -> list[tuple]:
    """first * ratio**n for n = 0..order, or for n = 0..order // step with
    row n through order - n*step only; ratio may have a zero constant term."""
    table = [tuple(_padded(first, order, _zero(ratio)))]
    for n in range(1, order // step + 1 if step else order + 1):
        table.append(cauchy_product(table[-1], ratio, order - n * step))
    return table


def composition_sums(
    weights: Sequence, g: Sequence | None, h: Sequence, z: int | None, order: int
) -> list:
    """out[m] = sum_n weights[n] * [g**n * h**(1-n)]_(m - n*z), term by term;
    ``g=None`` keeps only n = 0.  The n-th term is read through order - n*z
    only, and so are the powers it is made of."""
    zero = h[0] * 0
    inverse = power_recursion(h, -1, order)
    out = [zero] * (order + 1)
    if g is None:
        for m, c in enumerate(_padded(h, order, _zero(inverse))):
            out[m] = weights[0] * c
        return out
    step = max(z, 1)
    h_table = power_table(h, inverse, order, step)
    g_table = power_table((h[0] ** 0,), g, order, step)
    for n in range(min(order // step, len(weights) - 1) + 1):
        w = weights[n]
        if w == 0:
            continue
        conv = cauchy_product(g_table[n], h_table[n], order - n * z)
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


def difference_by_double_sums(mean: Sequence, p, q, order: int) -> list:
    """M - R(B_p, M, B_q) through the order from the double sums, with B_p
    and B_q from expand_power_mean_full_order, p and q rational or in one
    Q(sqrt(s))."""
    bp, bq = (expand_power_mean_full_order(x, order) for x in (p, q))
    return [m - r for m, r in zip(mean[: order + 1], resultant_by_double_sums(bp, mean, bq, order))]


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
    points = []
    for alpha in SCAN_ALPHAS:
        c = expand_mean(make_spec(alpha), index).coeffs
        points.append((alpha * alpha, c[index] - resultant_by_double_sums(c, c, c, index)[index]))
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


def isolate_real_roots_by_divisor_search(f: UniPoly) -> list[Root | QuadraticField]:
    """Every distinct real root of f: the rational ones from the divisor
    search, each divided out of the square-free part, and what is left
    solved in closed form at degree 1 or 2, an irrational pair as two
    values of Q(sqrt(s)) (``surd_from_parts``), and isolated by Sturm counts from degree 3 up
    (``_isolate_by_sturm``), which needs a complete search; in the order
    read from exact comparisons of enclosures (``_compare_roots``)."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return []
    g = squarefree_part(f)
    rationals, complete = rational_roots_by_divisor_search(g)
    roots: list[Root | QuadraticField] = []
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
            f, core = extract_square_every_divisor(disc.numerator * disc.denominator)
            if core == 1:
                s = Fraction(f, disc.denominator)
                roots.append(RationalRoot((-c1 - s) / (2 * c2)))
                roots.append(RationalRoot((-c1 + s) / (2 * c2)))
            else:
                roots.append(surd_from_parts(-c1, -1, disc, 2 * c2))
                roots.append(surd_from_parts(-c1, +1, disc, 2 * c2))
    elif g.degree >= 3:
        if not complete:
            raise ValueError("the divisor search gave up; an interval could hold a rational root")
        roots.extend(_isolate_by_sturm(g))
    return sorted(roots, key=functools.cmp_to_key(_compare_roots))


def sturm_sequence(f: UniPoly) -> list[UniPoly]:
    """f, f' and the negated remainders of Euclid's algorithm on them, down
    to the last nonzero one."""
    seq = [f, f.derivative()]
    while not seq[-1].is_zero:
        seq.append(seq[-2] % seq[-1] * -1)
    return seq[:-1]


def sturm_count(seq: Sequence[UniPoly], low: Rational | None, high: Rational | None) -> int:
    """The distinct real roots of seq[0] in (low, high] (Sturm's theorem),
    from the sign variations of the sequence at the two ends, neither of
    them a multiple root; None stands for -infinity as low and for
    +infinity as high."""
    def variations(x: Rational | None, side: int) -> int:
        values = [p.leading * side**p.degree if x is None else p(x) for p in seq]
        signs = [v > 0 for v in values if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(low, -1) - variations(high, 1)


def _bisect(p: UniPoly, low: Rational, high: Rational, width: Fraction) -> tuple[Rational, Rational]:
    """(low, high), across which p changes sign, halved on the sign change
    until it is at most width wide; (mid, mid) if p vanishes at a midpoint."""
    low_positive = p(low) > 0
    while high - low > width:
        mid = (low + high) / 2
        value = p(mid)
        if value == 0:
            return mid, mid
        if (value > 0) == low_positive:
            low = mid
        else:
            high = mid
    return low, high


def _isolate_by_sturm(g: UniPoly) -> list[IntervalRoot]:
    """The real roots of the square-free g, which has no rational root, as
    intervals: (-B, B], B the Cauchy bound, halved until each part has a
    Sturm count of 0 or 1, and each part with a root bisected on its sign
    change to at most 10**-12 wide."""
    seq = sturm_sequence(g)
    bound = 1 + max(abs(c) for c in g.coeffs) / abs(g.leading)
    parts, found = [(-bound, bound)], []
    while parts:
        low, high = parts.pop()
        count = sturm_count(seq, low, high)
        if count == 1:
            found.append(IntervalRoot(*_bisect(g, low, high, Fraction(1, 10**12)), g))
        elif count > 1:
            mid = (low + high) / 2
            parts += [(low, mid), (mid, high)]
    return found


def check_roots_by_sturm(f: UniPoly, roots: Sequence[Root]) -> None:
    """Raise AssertionError unless roots are every distinct real root of f
    in ascending order.  A rational root is a root of f, and the rationals
    are those of the divisor search when it is complete and include them
    when it gave up; an interval root holds exactly one root of f, with
    none at its ends; the enclosures are disjoint and ascending, and the
    Sturm count of f over the real line is the number of roots."""
    seq = sturm_sequence(f)
    ends = []
    for root in roots:
        if isinstance(root, RationalRoot):
            if f(root.value) != 0:
                raise AssertionError(f"{root.value} is not a root")
            ends.append((root.value, root.value))
        elif isinstance(root, IntervalRoot):
            low, high = root.low, root.high
            if not (low < high and f(low) != 0 != f(high) and sturm_count(seq, low, high) == 1):
                raise AssertionError(f"({low}, {high}) holds no single root")
            ends.append((low, high))
        else:
            raise AssertionError(f"{root!r} is neither a rational nor an interval root")
    if any(high >= low for (_, high), (low, _) in zip(ends, ends[1:])):
        raise AssertionError(f"enclosures {ends} are not disjoint and ascending")
    total = sturm_count(seq, None, None)
    if total != len(roots):
        raise AssertionError(f"{total} real roots, {len(roots)} returned")
    rationals, complete = rational_roots_by_divisor_search(squarefree_part(f))
    found = {root.value for root in roots if isinstance(root, RationalRoot)}
    if not (set(rationals) == found if complete else set(rationals) <= found):
        raise AssertionError(f"divisor search {rationals} against {sorted(found)}")


def _compare_roots(a: Root | QuadraticField, b: Root | QuadraticField) -> int:
    """-1 or 1 as the root a lies below or above the distinct root b, from
    their enclosures, the width squared until they are disjoint: a surd's
    by ``surd_bounds_by_bisection``, an interval root's by ``_bisect`` on
    its polynomial, a rational root's the point itself."""
    def enclosure(root: Root | QuadraticField, width: Fraction) -> tuple[Rational, Rational]:
        if isinstance(root, QuadraticField):
            return surd_bounds_by_bisection(root, width)
        if isinstance(root, IntervalRoot):
            return _bisect(root.polynomial, root.low, root.high, width)
        return root.value, root.value

    width = Fraction(1, 10**12)
    while True:
        (alo, ahi), (blo, bhi) = enclosure(a, width), enclosure(b, width)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        width *= width


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


def surd_from_parts(add: Rational, sign: int, radicand: Rational, div: Rational) -> QuadraticField:
    """(add + sign*sqrt(radicand))/div as a value of Q(sqrt(core)), by
    arithmetic on the four parts: the radicand n/d made the integer n*d, as
    sqrt(n/d) = sqrt(n*d)/d, and its square factors f (every divisor up to
    10**4) moved out, so the value is add/div + (sign*f/(d*div))*sqrt(core)."""
    n, d = radicand.numerator, radicand.denominator
    f, core = extract_square_every_divisor(n * d)
    return QuadraticField(Fraction(add) / div, Fraction(sign * f, d) / div, Fraction(core))


def surd_approx_by_fractions(value: QuadraticField) -> float:
    """The float value of a + b*sqrt(s) spelled (add + sign*sqrt(s))/div,
    div = 1/|b|, add = a*div and sign that of b, with the parts left as
    Fractions and mixed with floats by Fraction's own dispatch."""
    div = 1 / abs(value.b)
    add, sign, radicand = value.a * div, 1 if value.b > 0 else -1, value.s
    sqrt = sign * math.sqrt(radicand)
    if add * sign >= 0:
        return float(add + sqrt) / float(div)
    # add and sqrt of opposite signs: this form of the value does not cancel
    return float(add * add - radicand) / (div * (add - sqrt))


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


def surd_bounds_by_bisection(value: QuadraticField, width: Fraction) -> tuple[Rational, Rational]:
    """Enclosure of a + b*sqrt(s) at most width wide, from the enclosure of
    sqrt(s) by bisection."""
    ends = [value.a + value.b * r
            for r in sqrt_bounds_by_bisection(Fraction(value.s), width / max(abs(value.b), ONE))]
    return min(ends), max(ends)
