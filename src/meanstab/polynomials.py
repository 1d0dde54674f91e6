"""Exact univariate polynomials over Q with certified real-root isolation.

Roots are reported in exact ascending order, rational roots exactly.  The
square-free part of a polynomial is isolated once, at every degree, by
Descartes' rule of signs on Moebius-transformed coordinates with exact sign
evaluation, and one pass over the intervals recognizes the rational roots,
verifies each by exact division and divides it out; every irrational root
is an isolating interval with a sign change, at most 10**-12 wide.

A quadratic surd, a candidate parameter of the solver and not a result of
isolation, is a number of the field Q(sqrt(s)), ``QuadraticField``, whose
arithmetic is exact and whose values have an exact sign; the series kernel
computes in it at such a parameter, and a report spells it as
``(add + sign*sqrt(radicand))/div`` from its own parts.  Every square root
enters through one helper, ``_exact_sqrt``: sqrt(w) of a rational w >= 0
is read once, by one ``_extract_square``, into a Fraction or into
Q(sqrt(core)) with a canonical core.  Every surd is a value of such a
field, or an image of one under the field arithmetic.

Polynomials through equally spaced samples come from one route: the
integer forward-difference table of the samples (``forward_differences``)
and Newton's forward form (``newton_forward``).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction

from .rationals import ONE, ZERO, Rational
from .values import Value


class UniPoly(Value):
    """Dense univariate polynomial; ``coeffs[i]`` multiplies ``x**i``.

    The zero polynomial is the empty tuple; otherwise the leading coefficient
    is nonzero.  Instances are immutable and safe to share.
    """

    def __init__(self, coeffs: Sequence[Rational]) -> None:
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        self.__dict__["coeffs"] = tuple(c if type(c) is Fraction else Fraction(c) for c in trimmed)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Rational:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> Rational:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __call__(self, x: Rational | int) -> Rational:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            tuple(self.coefficient(i) - other.coefficient(i) for i in range(n))
        )

    def __mul__(self, other: "UniPoly | Rational | int") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        q = [ZERO] * max(len(rem) - len(div) + 1, 0)
        inv_lead = 1 / div[-1]
        for k in range(len(rem) - len(div), -1, -1):
            factor = rem[k + len(div) - 1] * inv_lead
            q[k] = factor
            if factor != 0:
                for j, d in enumerate(div):
                    rem[k + j] -= factor * d
        return UniPoly(tuple(q)), UniPoly(tuple(rem[: len(div) - 1]))

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * (1 / self.leading)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): same real roots, all simple."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    q, r = divmod(p, g)
    if not r.is_zero:
        raise ArithmeticError("gcd(p, p') does not divide p")
    return q.monic()


def forward_differences(row: Sequence[int]) -> list[int]:
    """The leading forward differences deltas[j] = (Delta^j v)_0, j <
    len(row), of a row of integers v_i: the numerators of values over one
    denominator, which newton_forward takes alongside."""
    deltas = []
    while row:
        deltas.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return deltas


def newton_forward(x0: int, deltas: Sequence[int], den: int) -> UniPoly:
    """Newton's forward form at the integer nodes x0, x0 + 1, ...:

        sum_j deltas[j] / (j! * den) * (x - x0)(x - x0 - 1)...(x - x0 - j + 1),

    the polynomial through values v_i / den whose integer numerators have the
    leading forward differences deltas[j] = (Delta^j v)_0.  The nested form
    runs on integers scaled by m! (m the top index); each coefficient is
    divided once at the end.
    """
    m = len(deltas) - 1
    if m < 0:
        return UniPoly.zero()
    acc, weight = [deltas[m]], 1
    for j in range(m - 1, -1, -1):
        weight *= j + 1  # m!/j!
        shift = x0 + j
        acc = [0] + acc  # acc * (x - shift) + deltas[j] * weight
        for i in range(len(acc) - 1):
            acc[i] -= shift * acc[i + 1]
        acc[0] += deltas[j] * weight
    scale = den * math.factorial(m)
    return UniPoly(tuple(Fraction(c, scale) for c in acc))


# ---------------------------------------------------------------------------
# Quadratic fields


class QuadraticField(Value):
    """The number a + b*sqrt(s) of the field Q(sqrt(s)), s a positive
    integer that is not a square, held with Fractions a and b, b != 0; int
    parts are converted, so that a quotient stays exact.  _exact_sqrt gives
    s in canonical form, the core of a radicand, and the field arithmetic
    keeps it.

    Arithmetic with a value of the same field, a Fraction or an int comes
    back as a Fraction wherever b cancels, so a rational result stays
    rational: the series primitives run on these values as on any field's.
    A report spells the value (add + sign*sqrt(radicand))/div, with add =
    a/|b|, div = 1/|b|, radicand = s and the sign of b, and float() reads
    it from those parts.
    """

    def __init__(self, a: Rational, b: Rational, s: Rational) -> None:
        a = a if type(a) is Fraction else Fraction(a)
        b = b if type(b) is Fraction else Fraction(b)
        self.__dict__.update(a=a, b=b, s=s)

    def _of(self, a: Rational, b: Rational) -> "QuadraticField | Rational":
        return QuadraticField(a, b, self.s) if b else a

    @property
    def sign(self) -> int:
        """That of b, unless a has the other sign and a**2 > b**2*s."""
        b = 1 if self.b > 0 else -1
        return -b if self.a * b < 0 and self.a * self.a > self.b * self.b * self.s else b

    @property
    def add(self) -> Fraction:
        return self.a / abs(self.b)

    @property
    def div(self) -> Fraction:
        return 1 / abs(self.b)

    @property
    def radicand(self) -> Rational:
        return self.s

    def __float__(self) -> float:
        """(add + root)/div, root = +-sqrt(radicand) the sign of b; where add
        and root have opposite signs, which would cancel, (add**2 -
        radicand)/(div*(add - root)).  add, div and add**2 - radicand are
        each one int true division, correctly rounded."""
        (an, ad), (bn, bd) = self.a.as_integer_ratio(), self.b.as_integer_ratio()
        s = self.s.numerator
        num, den = an * bd, ad * abs(bn)  # add = num/den
        add, div = num / den, bd / abs(bn)
        root = math.sqrt(s) if bn > 0 else -math.sqrt(s)
        if an * bn >= 0:
            return (add + root) / div
        return (num * num - s * den * den) / (den * den) / (div * (add - root))

    def __add__(self, other):
        if isinstance(other, QuadraticField):
            return self._of(self.a + other.a, self.b + other.b)
        if isinstance(other, (int, Fraction)):
            return QuadraticField(self.a + other, self.b, self.s)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "QuadraticField":
        return QuadraticField(-self.a, -self.b, self.s)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, QuadraticField):
            a, b, c, d = self.a, self.b, other.a, other.b
            return self._of(a * c + b * d * self.s, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return self._of(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self) -> "QuadraticField":
        norm = self.a * self.a - self.b * self.b * self.s
        return QuadraticField(self.a / norm, -self.b / norm, self.s)

    def __truediv__(self, other):
        if isinstance(other, QuadraticField):
            return self * other._inverse()
        if isinstance(other, (int, Fraction)):
            return QuadraticField(self.a / other, self.b / other, self.s)
        return NotImplemented

    def __rtruediv__(self, other):
        return self._inverse() * other


# ---------------------------------------------------------------------------
# Root descriptions


class RationalRoot(Value):
    kind = "exact-rational"

    def __init__(self, value: Rational) -> None:
        self.__dict__["value"] = value

    def bounds(self, width: Fraction = Fraction(1, 10**18)) -> tuple[Rational, Rational]:
        return self.value, self.value


class IntervalRoot(Value):
    """Isolating interval (low, high) for one simple root of ``polynomial``."""

    kind = "isolated-interval"

    def __init__(self, low: Rational, high: Rational, polynomial: UniPoly) -> None:
        self.__dict__.update(low=low, high=high, polynomial=polynomial)

    def bounds(self, width: Fraction = Fraction(1, 10**18)) -> tuple[Rational, Rational]:
        return _refine(self.polynomial, self.low, self.high, width)


Root = RationalRoot | IntervalRoot


@functools.cache
def _small_prime_product() -> int:
    """The product of the primes up to 10**4, built on the first call."""
    sieve = bytearray([1]) * 10_001
    sieve[:2] = b"\0\0"
    for i in range(2, 101):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, 10_001, i)))
    return math.prod(i for i, is_prime in enumerate(sieve) if is_prime)


def _extract_square(n: int) -> tuple[int, int]:
    """Write n = f*f*core with the square factors of primes up to 10**4
    pulled into f, by one route for every n: a square is f*f; otherwise
    two gcds with the product of those primes give twice, the product of
    the ones that divide n twice, and trial division splits twice while d*d
    is at most what is left of it, which then is one prime.  _exact_sqrt is
    its one reader."""
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    g = math.gcd(n, _small_prime_product())
    twice = math.gcd(n // g, g)
    f, core, d = 1, n, 2
    while twice > 1:
        if d * d > twice:
            d = twice
        if twice % d == 0:
            twice //= d
            while core % (d * d) == 0:
                core //= d * d
                f *= d
        d += 1 if d == 2 else 2
    return f, core


def _exact_sqrt(q: Rational) -> Rational | QuadraticField:
    """The square root of a rational q >= 0, read once: q = n/d and n*d =
    f*f*core by _extract_square, so sqrt(q) = (f/d)*sqrt(core), a Fraction
    when core is 1, else that value of Q(sqrt(core)).  A negative q raises
    ValueError."""
    if q < 0:
        raise ValueError("a negative rational has no real square root")
    f, core = _extract_square(q.numerator * q.denominator)
    root = Fraction(f, q.denominator)
    return root if core == 1 else QuadraticField(ZERO, root, Fraction(core))


# ---------------------------------------------------------------------------
# Descartes / bisection isolation


def sign_variations(coeffs: Sequence[Rational]) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _taylor_shift(coeffs: Sequence[Rational], c: Rational) -> list[Rational]:
    """Coefficients of p(x + c) from those of p, by repeated synthetic division."""
    out = list(coeffs)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return out


def _affine_substitution(coeffs: Sequence[Rational], slope: Rational, intercept: Rational) -> list[Rational]:
    """Coefficients of p(slope*x + intercept) from those of p: a Taylor shift
    by the intercept, then the coefficient of x**i times slope**i."""
    return [c * slope**i for i, c in enumerate(_taylor_shift(coeffs, intercept))]


def _descartes_count(p: UniPoly, a: Rational, b: Rational) -> int:
    """Sign-variation bound for the number of roots of p in the open (a, b).

    The substitution x = a + (b - a)/(1 + y) maps y in (0, inf) onto (a, b),
    and (1 + y)**n * p(x) is q(s) = p(a + (b - a)*s) reversed and shifted by
    1; Descartes' rule applies to its coefficients.
    """
    q = _affine_substitution(p.coeffs, b - a, a)
    return sign_variations(_taylor_shift(q[::-1], ONE))


def cauchy_root_bound(p: UniPoly) -> Rational:
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs) / lead


def _isolate_intervals(g: UniPoly) -> list[tuple[Rational, Rational]]:
    """Isolating intervals for all real roots of square-free g.  No endpoint
    is a root: a splitting point where g vanishes moves towards the left end."""
    bound = cauchy_root_bound(g)
    stack = [(-bound, bound)]
    found: list[tuple[Rational, Rational]] = []
    while stack:
        a, b = stack.pop()
        v = _descartes_count(g, a, b)
        if v == 0:
            continue
        if v == 1:
            found.append((a, b))
            continue
        mid = (a + b) / 2
        while g(mid) == 0:
            mid = (a + mid) / 2
        stack.append((a, mid))
        stack.append((mid, b))
    found.sort()
    return found


def _refine(g: UniPoly, a: Rational, b: Rational, width: Fraction) -> tuple[Rational, Rational]:
    """Bisect the isolating interval (a, b) of a simple root of g down to the
    width; a midpoint where g vanishes is the root, returned as (mid, mid)."""
    sign_a = 1 if g(a) > 0 else -1
    while b - a > width:
        mid = (a + b) / 2
        v = g(mid)
        if v == 0:
            return mid, mid
        if (1 if v > 0 else -1) == sign_a:
            a = mid
        else:
            b = mid
    return a, b


# ---------------------------------------------------------------------------
# Rational roots


def simplest_between(lo: Rational, hi: Rational) -> Rational:
    """Rational with the smallest denominator in the closed interval [lo, hi]:
    while no integer lies in it, the integer part t of lo is a continued-
    fraction term and [lo, hi] becomes [1/(hi - t), 1/(lo - t)]."""
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return ZERO
    if hi < 0:
        return -simplest_between(-hi, -lo)
    terms: list[int] = []
    while True:
        floor_lo = lo.numerator // lo.denominator
        ceil_lo = -(-lo.numerator // lo.denominator)
        if ceil_lo <= hi:
            break
        terms.append(floor_lo)
        lo, hi = 1 / (hi - floor_lo), 1 / (lo - floor_lo)
    num, den = ceil_lo, 1
    for term in reversed(terms):
        num, den = term * num + den, num
    return Fraction(num, den)


def _integer_lead(g: UniPoly) -> Rational:
    """|leading coefficient| L of g's integer form.  The denominator of a
    rational root divides L (Gauss), and two such rationals lie at least
    1/L**2 apart."""
    return abs(g.leading * math.lcm(*(c.denominator for c in g.coeffs)))


def _recognize_roots(g: UniPoly) -> list[Root]:
    """The real roots of the square-free g in the order of their isolating
    intervals (see _integer_lead for L).  Refined to width 1/(2*L**2), an
    interval holds at most one rational whose denominator divides L, so a
    rational root c is the simplest rational of its interval.  It is kept
    when x - c divides what is left of g exactly, and divided out; the other
    roots are intervals of what is left of g, refined on to 10**-12."""
    lead = _integer_lead(g)
    fine = [_refine(g, a, b, 1 / (2 * lead * lead)) for a, b in _isolate_intervals(g)]
    roots: list[Root | None] = []
    rest = g
    for lo, hi in fine:
        c = simplest_between(lo, hi)
        quotient, rem = divmod(rest, UniPoly((-c, ONE)))
        if rem.is_zero:
            rest = quotient
        roots.append(RationalRoot(c) if rem.is_zero else None)
    return [root or IntervalRoot(*_refine(rest, lo, hi, Fraction(1, 10**12)), rest)
            for root, (lo, hi) in zip(roots, fine)]


def isolate_real_roots(f: UniPoly) -> list[Root]:
    """Describe every distinct real root of f, in exact ascending order.

    One route at every degree: one pass over the isolating intervals of the
    square-free part finds the rational roots exactly (_recognize_roots),
    every irrational root is a sign-change interval at most 10**-12 wide,
    and the roots keep the order of the intervals.  A nonzero constant has
    no root.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    return _recognize_roots(squarefree_part(f))
