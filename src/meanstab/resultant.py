"""Asymptotic expansion of the resultant mean-map R(K, M, N).

With K, M, N symmetric homogeneous means expanded as
``sum a_n t**n x**(1-n)``, the map

    R(K, M, N)(s, t) = K( M(s, N(s, t)), M(N(s, t), t) )

again has an expansion of the same shape.  Writing N = N(x-t, x+t), the two
inner compositions are expansions of M at the argument pairs (x-t, N) and
(N, x+t); their half-difference and half-sum feed the outer mean K.  With
u = t/x and K(u) = sum k_n u**n, M(u) = sum m_n u**n, N(u) = sum n_n u**n
the coefficient series, each piece is one series composition:

    g  = (1 + n_1, n_2, n_3, ...)        h  = (2, n_1 - 1, n_2, n_3, ...)
    gt = (1 - n_1, -n_2, -n_3, ...)      ht = (2, 1 + n_1, n_2, n_3, ...)

    B = h  * M(u * g  / h )      (M(x-t, N))
    A = ht * M(u * gt / ht)      (M(N, x+t))

    d_j = A_{j+1} - B_{j+1},   s_j = A_j + B_j,

    r = (1/4) * s * K(u * d / s).

Coefficientwise, B_m = sum_n m_n [g**n h**(1-n)]_(m-n), the double sum of the
paper's recursion.  The degenerate cases need no code of their own: when
n_1 = -1 (resp. +1) the sequence g (resp. gt) loses its leading term, and
u * g = u**z * (n_z, n_{z+1}, ...) with z >= 2 the first index where the inner
mean has a nonzero coefficient, so B = h * M(u**z * g' / h) for the shifted
sequence g'.  If the tail of the inner mean vanishes through the order, the
argument of M is zero through the order and B = m_0 * h, fully determined by
the truncated inputs.  Each composition runs by Horner's rule, the
primitive ``series._horner_form``.  Even weights, W(x) = W~(x**2) through
the order, run over W~ in the square of the ratio u * g / h: half the
Horner steps for one extra product.  That serves every even middle mean and
every even outer mean.

An even inner mean needs one ratio.  When the inner coefficient sequence
has no nonzero odd entry through the order, gt(u) = g(-u) and
ht(u) = h(-u).  So with rho = u * g / h the argument of M in A is
u * gt / ht = -rho(-u), and A(u) = [h * M(-rho)](-u) coefficientwise, for
any middle mean M.  Writing M(x) = E(x**2) + x * O(x**2), one inverse of h,
one ratio and its square serve both sides: Horner runs over E and over O in
rho**2, B = h * (E + rho * O) and A is h * (E - rho * O) at -u.  This holds
for a mixed M too, whose series is valid only for a positive
half-difference: M is still composed only with rho(u) for B and with
-rho(-u) = u * gt / ht for A, the arguments of the general route, and only
the order of the formal composition changes.  When M is even as well, O
vanishes and A(u) = B(-u): the outer step reflects B for A and composes K as
for any sides; an even K runs Horner in the square of the ratio u * d / s,
as even weights do.  The inner means of the degenerate cases have n_1 = -1
or +1 and never take this route.

A power mean K = B_p needs no expansion: the sides are M(x-t, N) = x * X and
M(N, x+t) = x * Y with X = B/2 and Y = A/2, so

    r = ((X**p + Y**p)/2)**(1/p),   r = (X * Y)**(1/2) at p = 0.

X and Y have constant term exactly 1 (h_0 = 2 and m_0 = 1, and the argument
of M has no constant term, also in the degenerate cases), so every power
stays in the field.  When A(u) = B(-u), (X**p + Y**p)/2 is the even part of
X**p, and X * Y = X(u) * X(-u) is even: the last power runs in w = u**2 at
half the order.  Expanded operands keep Horner's outer step.

The body runs once for every scalar, on the forms of :mod:`series`: pairs
(nums, den) with coefficient nums[n] / den, every product, power and
composition one primitive of that module.  :func:`resultant_coeffs`
converts its three inputs together.  Over Q they become integer numerators
over their least common denominators, and the result becomes ``Fraction``
values only on the way out.  The other callers hand the body integer forms
directly: the solver and :func:`resultant_power_means` B_p's exponent and
the forms of M and B_q, the solver taking the difference before
converting, and the command line's ``resultant`` the catalog forms of its
three means (or B_p's exponent as the outer mean).  Any other
scalar, a ``Fraction`` subclass included, enters as its own values over
``Fraction(1)``, and so do the rational inputs that come with it, so a
mixed triple computes in the non-rational field; the result is that
field's values.  The tests run the body over truncated series in a
perturbation parameter to check the degenerate cases against one-sided
limits at n_1 = -1 and +1, through the primitives of a rational call.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .catalog import MeanExpansion, _power_mean_form
from .rationals import Rational
from .series import _forms, _horner_form, _power_form, _product_form, _reduced, _spread, _values


def _common(*forms: tuple) -> tuple:
    """The coefficients of the forms over one denominator, then that
    denominator: over Q the least common one.  Forms that share theirs, as
    forms of another field over Fraction(1) do, come back as they are."""
    den = forms[0][1]
    if all(d == den for _, d in forms):
        return (*(nums for nums, _ in forms), den)
    den = lcm(*(d for _, d in forms))
    return (*([c * (den // d) for c in nums] for nums, d in forms), den)


def _odd_part_vanishes(seq: Sequence, order: int) -> bool:
    return all(c == 0 for c in seq[1 : order + 1 : 2])


def _ratio(g: tuple, h: tuple, order: int) -> tuple:
    """The form of u * g / h; h[0] must be invertible."""
    gs, den = g
    return _product_form(([h[0][0] * 0] + list(gs), den), _power_form(h, -1, order), order)


def _signed_sums(weights: tuple, h: tuple, ratio: tuple, order: int) -> tuple:
    """h * W(rho) and h * W(-rho) for the ratio rho and W(x) = E(x**2) +
    x * O(x**2): Horner runs over E and over O in rho**2.  The second is
    None when O vanishes through the order, where it equals the first."""
    nums, w_den = weights
    square = _product_form(ratio, ratio, order)
    even = _horner_form((nums[::2], w_den), square, order)
    if _odd_part_vanishes(nums, order):
        return _product_form(h, even, order), None
    # O(rho**2) is needed one short of the order: rho has no constant term.
    odd = _product_form(_horner_form((nums[1::2], w_den), square, order - 1), ratio, order)
    e, o, common = _common(even, odd)
    plus = _product_form(h, ([x + y for x, y in zip(e, o)], common), order)
    return plus, _product_form(h, ([x - y for x, y in zip(e, o)], common), order)


def _composition_sums(weights: tuple, g: tuple, h: tuple, order: int) -> tuple:
    """h * W(u * g / h) for W(x) = sum weights[n] x**n, that is
    out[m] = sum_n weights[n] * [g**n * h**(1-n)]_(m-n); h[0] must be
    invertible.  Even weights, W(x) = W~(x**2), run Horner in the square of
    the ratio."""
    ratio = _ratio(g, h, order)
    if _odd_part_vanishes(weights[0], order):
        return _signed_sums(weights, h, ratio, order)[0]
    return _product_form(h, _horner_form(weights, ratio, order), order)


def _reflected(form: tuple) -> tuple:
    """The form of B(-u) for the form of B(u)."""
    nums, den = form
    return [-c if j % 2 else c for j, c in enumerate(nums)], den


def _sides(middle: tuple, inner: tuple, order: int) -> tuple:
    """The forms of B and A, with None for A when A(u) = B(-u).  An even
    inner mean gives both from one ratio rho = u * g / h, as
    A(u) = [h * M(-rho)](-u)."""
    nums, den = inner
    one = nums[0]
    n1 = nums[1] if order >= 1 else one * 0
    tail = list(nums[2 : order + 1])
    g = ([one + n1] + tail, den)
    h = ([one + one, n1 - one] + tail, den)
    if _odd_part_vanishes(nums, order):
        b_side, minus = _signed_sums(middle, h, _ratio(g, h, order), order)
        return b_side, None if minus is None else _reflected(minus)
    gt = ([one - n1] + [-c for c in tail], den)
    ht = ([one + one, n1 + one] + tail, den)
    return _composition_sums(middle, g, h, order), _composition_sums(middle, gt, ht, order)


def _horner_outer_step(outer: tuple, b_side: tuple, a_side: tuple | None, order: int) -> tuple:
    """(1/4) * s * K(u * d / s) for the form of K."""
    a, b, common = _common(_reflected(b_side) if a_side is None else a_side, b_side)
    d = [a[j + 1] - b[j + 1] for j in range(order)]
    s = [a[j] + b[j] for j in range(order + 1)]
    combined, den = _composition_sums(outer, (d, common), (s, common), order)
    return _reduced(combined, den * 4)


def _power_outer_step(p: Fraction, b_side: tuple, a_side: tuple | None, order: int) -> tuple:
    """B_p(X, Y) = ((X**p + Y**p)/2)**(1/p), or (X*Y)**(1/2) at p = 0, for
    X = B/2 and Y = A/2."""
    root = 1 / p if p else Fraction(1, 2)
    x = _reduced(b_side[0], b_side[1] * 2)
    if a_side is None:
        # Y(u) = X(-u): the mean is the even part of X**p, or X(u)*X(-u).
        nums, den = _power_form(x, p, order) if p else _product_form(x, _reflected(x), order)
        return _spread(_power_form((nums[::2], den), root, order // 2), order)
    y = _reduced(a_side[0], a_side[1] * 2)
    if p:
        xp, yp, den = _common(_power_form(x, p, order), _power_form(y, p, order))
        return _power_form(_reduced([c + e for c, e in zip(xp, yp)], den * 2), root, order)
    return _power_form(_product_form(x, y, order), root, order)


def _resultant(outer, middle: tuple, inner: tuple, order: int) -> tuple:
    """R(K, M, N) through the order on forms in one field that reach the
    order.  The inner constant term stands for one; over Q it is den.  K is
    a form, or the exponent p of the power mean B_p as a Fraction."""
    sides = _sides(middle, inner, order)
    if isinstance(outer, tuple):
        return _horner_outer_step(outer, *sides, order)
    return _power_outer_step(outer, *sides, order)


def _checked_forms(order: int, **named: Sequence) -> list[tuple]:
    """The forms of the named sequences, each of which must reach the order."""
    for name, seq in named.items():
        if len(seq) < order + 1:
            raise ValueError(
                f"order mismatch: {name} expansion has {len(seq) - 1} coefficients, "
                f"need at least order {order}"
            )
    return _forms(order, *named.values())


def resultant_coeffs(outer: Sequence, middle: Sequence, inner: Sequence, order: int) -> tuple:
    """Coefficients r_0..r_order of R(K, M, N) from plain coefficient
    sequences (a_0 = 1 each).  Scalar-generic; see the module docstring."""
    return _values(*_resultant(*_checked_forms(order, outer=outer, middle=middle, inner=inner), order))


def resultant_case(inner: MeanExpansion) -> int:
    """1 for the generic recursion; 2 and 3 for inner t-coefficient -1/+1."""
    n1 = inner.coefficient(1)
    return 2 if n1 == -1 else 3 if n1 == 1 else 1


def resultant_power_means(
    p: Rational, q: Rational, middle: MeanExpansion, order: int
) -> MeanExpansion:
    """R(B_p, M, B_q): the specialization driving the stabilizability solver.

    For even M the t^2 coefficient is (2 a_2^M + p + 2q - 3)/8; for mixed M
    the expansion additionally carries a_1^M/2 at t and
    (2 a_3^M - (p-1)(2q-1) a_1^M)/16 at t^3.
    """
    (m_form,) = _checked_forms(order, middle=middle.coeffs)
    r_form = _resultant(Fraction(p), m_form, _power_mean_form(Fraction(q), order), order)
    return MeanExpansion(_values(*r_form))
