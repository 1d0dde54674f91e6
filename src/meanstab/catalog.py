"""Mean families and their exact asymptotic expansions.

Every mean M handled here is symmetric and homogeneous, so its behaviour for
large ``x`` is captured by a single coefficient sequence:

    M(x - t, x + t) ~ sum_n  a_n * t**n * x**(1 - n),   t > 0 fixed, x -> oo,

equivalently ``M = x * A(u)`` with ``u = t/x`` and ``A`` a formal power
series with constant term 1.  All-powers indexing is used throughout: a mean
whose expansion contains only even powers simply has zero odd coefficients.
The ``t > 0`` convention turns every ``|t|**k`` of the mixed-parity families
into ``t**k``; symmetry recovers ``t < 0``.

Families:

* power means ``B_p``,
* ``L_alpha`` and ``S_alpha``, the one-parameter interpolations generated by
  ``u(x) = cosh(alpha*x)`` and ``1/cosh(alpha*x)`` (covering H, G, L and the
  Seiffert means P, T),
* the difference-quotient means M1..M5 and the two-parameter family
  ``M_{alpha,r}``, all of the shape ``|b - a| / D(|ln(b/a)|)``,
* means generated by an odd function with prescribed Taylor coefficients,
* the "stable mean" series for a prescribed t^2 coefficient, the fixed
  point of the resultant mean-map, which is a power mean.

Power and quotient means run on integer forms, B_p and the quotient means
with an even D' at half the order in u**2.  L_alpha and S_alpha depend on
alpha only through beta = alpha**2: cosh(alpha*Lambda) comes from one linear
integer recurrence in beta, which takes any rational beta (see
expand_quotient_mean).  The Stolarsky mean E_{r,s}, the parameter search's
reference, has an integer form at half the order too (_stolarsky_form), and
no spec; is_stolarsky says which specs are Stolarsky means.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .polynomials import UniPoly, _isolate_intervals, squarefree_part
from .rationals import ONE, ZERO, Rational
from .series import (
    _exp_form,
    _horner_form,
    _integer_form,
    _power_form,
    _product_form,
    _reduced,
    _spread,
    _values,
)
from .values import Value

# ---------------------------------------------------------------------------
# Mean specifications


class PowerMean(Value):
    def __init__(self, p: Rational) -> None:
        self.__dict__["p"] = Fraction(p)


def _set_alpha(spec: LAlpha | SAlpha | MAlphaR, alpha: Rational) -> None:
    """Store spec.alpha as a Fraction; the families take |alpha| <= 1."""
    alpha = Fraction(alpha)
    if abs(alpha) > 1:
        raise ValueError(f"{type(spec).__name__} requires |alpha| <= 1")
    spec.__dict__["alpha"] = alpha


class LAlpha(Value):
    __init__ = _set_alpha


class SAlpha(Value):
    __init__ = _set_alpha


class ClassicMean(Value):
    """One of the difference-quotient means M1..M5."""

    def __init__(self, index: int) -> None:
        if type(index) is not int or not 1 <= index <= 5:
            raise ValueError("classic mean index must be 1..5")
        self.__dict__["index"] = index


class MAlphaR(Value):
    def __init__(self, alpha: Rational, r: Rational) -> None:
        r = Fraction(r)
        if r <= 0:
            raise ValueError("MAlphaR requires r > 0")
        _set_alpha(self, alpha)
        self.__dict__["r"] = r


class MuGenerated(Value):
    """Mean |b-a| / mu(|ln(b/a)|) for the odd function
    mu(y) = sum_n c_n y**(2n+1) with c_0 = 1."""

    __slots__ = ("_has_positive_root",)  # a cache, outside the fields

    def __init__(self, odd_coeffs: tuple[Rational, ...]) -> None:
        coeffs = tuple(Fraction(c) for c in odd_coeffs)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("mu-generated mean requires leading coefficient 1")
        self.__dict__["odd_coeffs"] = coeffs

    @property
    def has_positive_root(self) -> bool:
        """Whether mu vanishes at some y > 0, where the mean is undefined.
        mu(y) = y * P(y**2), P(0) = 1, has a simple root at 0 and its other
        real roots in pairs +-r, so one lies at y > 0 exactly when its
        square-free part has more than one isolating interval; counted once
        per spec."""
        try:
            return self._has_positive_root
        except AttributeError:
            pass
        c = self.odd_coeffs
        mu = UniPoly(tuple(c[n // 2] if n % 2 else 0 for n in range(2 * len(c))))
        found = len(_isolate_intervals(squarefree_part(mu))) > 1
        object.__setattr__(self, "_has_positive_root", found)
        return found


MeanSpec = PowerMean | LAlpha | SAlpha | ClassicMean | MAlphaR | MuGenerated

M1 = ClassicMean(1)
M2 = ClassicMean(2)
M3 = ClassicMean(3)
M4 = ClassicMean(4)
M5 = ClassicMean(5)

#: Named classics resolved to their parametric forms.
ALIASES: dict[str, MeanSpec] = {
    "A": PowerMean(Fraction(1)),
    "G": PowerMean(Fraction(0)),
    "H": PowerMean(Fraction(-1)),
    "L": SAlpha(Fraction(0)),
    "P": SAlpha(Fraction(1, 2)),
    "T": SAlpha(Fraction(1)),
    "HZ1/4": LAlpha(Fraction(1, 4)),
}

#: The table of exact coincidences: L_alpha at beta = alpha**2 -> the spec
#: of the same mean (see coincident).
_COINCIDENCES = {
    Fraction(1): ALIASES["H"],
    Fraction(1, 4): ALIASES["G"],
    Fraction(0): ALIASES["L"],
}


def coincident(spec: MeanSpec) -> MeanSpec:
    """The one spec the table of exact coincidences writes for the mean of
    the spec; two specs are one mean where this is equal.  Every spec not
    in a row stands for itself.  With M = |b - a|/D(ln(b/a)), b > a, and
    D' = cosh(alpha*y) for L_alpha (so D(y) = sinh(alpha*y)/alpha, y at
    alpha = 0):

    * B_p is the PowerMean spec, which the aliases A = B_1, G = B_0 and
      H = B_-1 name.
    * L_+-1 = H: sinh(ln(b/a)) = (b/a - a/b)/2 = (b - a)(b + a)/(2ab), so
      M = 2ab/(a + b).
    * L_+-1/2 = G: 2*sinh(ln(b/a)/2) = sqrt(b/a) - sqrt(a/b) = (b -
      a)/sqrt(ab), so M = sqrt(ab).
    * L_0 = S_0 = L: D' = 1 for both, as cosh(0) = 1/cosh(0) = 1, so D(y) =
      y and M = (b - a)/ln(b/a), the logarithmic mean.
    * M_0,r = L for every r > 0: D' = (1 + r*y)**0 = 1, so D(y) = y.
    * The mu-generated mean with every c_n past c_0 zero is L: mu(y) = y.
    """
    if isinstance(spec, LAlpha):
        return _COINCIDENCES.get(spec.alpha**2, spec)
    if (isinstance(spec, MAlphaR) and spec.alpha == 0
            or isinstance(spec, MuGenerated) and not any(spec.odd_coeffs[1:])):
        return ALIASES["L"]
    return spec


def is_stolarsky(spec: MeanSpec) -> bool:
    """Whether the mean of the spec is a Stolarsky mean E_{r,s} (see
    _stolarsky_form), by the table of coincidences every B_p (A, G and H
    among them) and L; the parameter search reads such a spec as its own
    reference and builds no form.  The rows, with E_{r,s}**(r - s) = (s/r)*(b**r
    - a**r)/(b**s - a**s):

    * E_{2p,p} = E_{p,2p} = B_p: (b**(2p) - a**(2p))/(2*(b**p - a**p)) =
      (a**p + b**p)/2, and E_{r,s} = E_{s,r};
    * E_{r,-r} = G: -(b**r - a**r)/(b**-r - a**-r) = (ab)**r, to the power
      1/(2r);
    * E_{1,0} = L: at s = 0 the log form (b - a)/ln(b/a).
    """
    spec = coincident(spec)
    return isinstance(spec, PowerMean) or spec == ALIASES["L"]


# ---------------------------------------------------------------------------
# Expansions


class MeanExpansion(Value):
    """Coefficients a_0..a_N of M(x-t, x+t) ~ sum a_n t**n x**(1-n), t > 0."""

    def __init__(self, coeffs: tuple[Rational, ...]) -> None:
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("a mean expansion must start with coefficient 1")
        self.__dict__["coeffs"] = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Rational:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else ZERO

    def truncated(self, order: int) -> "MeanExpansion":
        if order > self.order:
            raise ValueError("cannot extend a truncated expansion")
        return MeanExpansion(self.coeffs[: order + 1])

    def partial_sum(self, x: float, t: float) -> float:
        """Float value of the truncated series at (x - t, x + t)."""
        u = t / x
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * u + float(c)
        return x * acc


def _power_mean_form(p: Fraction, order: int) -> tuple[list[int], int]:
    """The expansion of B_p as integer numerators over their least common
    denominator (see expand_power_mean)."""
    half = order // 2
    if p == 0:
        avg, den, exponent = [1, -1] + [0] * (half - 1), 1, Fraction(1, 2)
    else:
        s, t = p.as_integer_ratio()
        terms, num, den = [(1, 1)], 1, 1
        for m in range(1, 2 * half + 1):
            num *= s - (m - 1) * t
            den *= m * t
            if m % 2 == 0:
                terms.append((num, den))
        # Each denominator divides the next, so the last one is common.
        avg, exponent = [n * (den // d) for n, d in terms], 1 / p
    return _spread(_power_form((avg, den), exponent, half), order)


def expand_power_mean(p: Rational, order: int) -> MeanExpansion:
    """Expansion of the power mean B_p; B_0 is the geometric mean.

    B_p is even in u, so the route works in w = u**2.  The average of
    (1 -/+ u)**p is sum_k binom(p, 2k) w**k; for p = s/t its coefficients
    come from one running integer product, numerator prod_j (s - j*t) over
    denominator m! * t**m.  One power recursion at half the order raises it to
    1/p, and the result is spread onto the even indices; B_0 = (1 - w)**(1/2)
    takes the same path.  First coefficients: a_2 = (p-1)/2 and
    a_4 = (p-1)(3+p-2p^2)/24.
    """
    return MeanExpansion(_values(*_power_mean_form(Fraction(p), order)))


def _stolarsky_form(r, s, order: int) -> tuple[list[int], int]:
    """The expansion of the Stolarsky mean E_{r,s} as integer numerators over
    their least common denominator, r and s rational or conjugates in one
    Q(sqrt(w)).

    E_{r,s}(a, b) = ((s/r)*(b**r - a**r)/(b**s - a**s))**(1/(r - s)), with
    its limits at s = 0 and at r = s.  With O_x(w) = sum_k prod_{j=1..2k}(x
    - j)/(2k+1)! * w**k, (1 + u)**x - (1 - u)**x = 2*x*u*O_x(u**2), so E =
    (O_r/O_s)**(1/(r - s)) in w = u**2, one inverse, one product and one
    power at half the order; O_0 = sum w**k/(2k+1) is the log form, with no
    branch.  At r = s, E_{r,r} = exp(O_r'/O_r), O' the derivative in x at
    r, the limit of ln(O_r/O_s)/(r - s); E_{0,0} = G.  For x = n/d one
    running product gives the numerators of O_x's coefficients over
    d**(2k)*(2k+1)!, and by the product rule those of O_x' over the same
    denominators.

    Every coefficient is rational, at a surd pair too: ln O_x has
    coefficients polynomial in x, as O_x starts with 1, so (ln O_r - ln
    O_s)/(r - s) and its exp have coefficients polynomial in r and s.  They
    are symmetric, as E_{r,s} = E_{s,r}, so polynomials in r + s and r*s,
    which are rational for conjugates.  A coefficient that is not rational
    raises ArithmeticError.
    """
    half, forms = order // 2, []
    for x in (r, s) if r != s else (r,):
        n, d = x.as_integer_ratio() if isinstance(x, (int, Fraction)) else (x, 1)
        terms, num, slope, den = [(1, 0, 1)], 1, 0, 1
        for j in range(1, 2 * half + 1):
            num, slope, den = num * (n - j * d), slope * (n - j * d) + num * d, den * d * (j + 1)
            if j % 2 == 0:
                terms.append((num, slope, den))
        # Each denominator divides the next, so the last one is common; a
        # surd's values go over it as a Fraction.
        common = den if type(n) is int else Fraction(den)
        forms.append([([t[i] * (den // t[2]) for t in terms], common) for i in (0, 1)])
    if r == s:
        ((o_r, slope),) = forms
        form = _exp_form(_product_form(slope, _power_form(o_r, -1, half), half), half)
    else:
        (o_r, _), (o_s, _) = forms
        ratio = _product_form(o_r, _power_form(o_s, -1, half), half)
        form = _power_form(ratio, 1 / (r - s), half)
    if type(form[1]) is not int:
        if not all(isinstance(c, (int, Fraction)) for c in form[0]):
            raise ArithmeticError("a coefficient of the Stolarsky mean is not rational")
        form = _integer_form(form[0], half)
    return _spread(form, order)


def _denominator_derivative(spec: ClassicMean | MAlphaR | MuGenerated) -> tuple[tuple, Rational]:
    """(base, exponent) with D'(y) = base(y)**exponent, base a polynomial in
    y; D is the denominator applied to |ln(b/a)|."""
    half = Fraction(1, 2)
    if isinstance(spec, ClassicMean):
        return {
            1: ((ONE, ONE), Fraction(-1)),           # ln(1+y)
            2: ((ONE, ZERO, half), Fraction(-1)),    # sqrt2*arctan(y/sqrt2)
            3: ((ONE, ONE, half), Fraction(-1)),     # 2*arctan(1+y) - pi/2
            4: ((ONE, ZERO, half), -half),           # sqrt2*arcsinh(y/sqrt2)
            5: ((ONE, ONE, half), -half),            # sqrt2*(arcsinh(1+y) - arcsinh 1)
        }[spec.index]
    if isinstance(spec, MuGenerated):  # mu'(y) = sum (2n+1) c_n y**(2n)
        c = spec.odd_coeffs
        return tuple(ZERO if n % 2 else (n + 1) * c[n // 2] for n in range(2 * len(c) - 1)), ONE
    if isinstance(spec, MAlphaR):
        # ((1 + r*y)**((r+alpha)/r) - 1)/(r+alpha); the limit alpha -> -r is
        # the logarithmic form and needs no special casing at the series level.
        return (ONE, spec.r), spec.alpha / spec.r
    raise TypeError(f"no denominator form for {spec!r}")


def _log_ratio_form(order: int, even: bool) -> tuple[list[int], int]:
    """Lambda = ln((1+u)/(1-u)) = 2 sum u**(2k+1)/(2k+1) through u**order,
    or, if even, Lambda**2 = w * lam(w)**2 with lam = 2 sum w**k/(2k+1)."""
    if not even:
        den = lcm(*range(1, order + 1, 2))
        return [2 * den // n if n % 2 else 0 for n in range(order + 1)], den
    den = lcm(*range(1, 2 * order + 2, 2))
    lam = [2 * den // (2 * k + 1) for k in range(order + 1)]
    square, den = _product_form((lam, den), (lam, den), order)
    return [0] + square[:order], den


def _quotient_form(derivative: tuple, order: int, even: bool) -> tuple[list[int], int]:
    """The mean 2u/D(Lambda) through the order from d = D'(Lambda), in u or,
    if even, in w through w**(order//2).  As Lambda' = 2/(1 - u^2), the
    integral of d * Lambda' has u**(n+1) coefficient 2 S_n/(n+1),
    S_n = d_n + d_{n-2} + ...: a running sum; one inverse gives the mean."""
    reach = order // 2 if even else order
    nums, den = derivative
    if nums[0] != den:
        raise ArithmeticError("D(Lambda) must start 2u")
    lag = 1 if even else 2
    sums = nums[:lag]
    for c in nums[lag : reach + 1]:
        sums.append(c + sums[-lag])
    lengths = range(1, 2 * reach + 2, 2) if even else range(1, reach + 2)
    common = lcm(*lengths)
    quotient = _reduced([q * (common // m) for q, m in zip(sums, lengths)], den * common)
    form = _power_form(quotient, -1, reach)
    return _spread(form, order) if even else form


def _cosh_mean_form(beta: Fraction, invert: bool, order: int) -> tuple[list[int], int]:
    """The integer form of L_alpha, or if inverted S_alpha, at beta = alpha**2
    for any rational beta, by the recurrence of expand_quotient_mean."""
    s, t = beta.as_integer_ratio()
    half = order // 2
    e = [0, 1]  # e_{-2}, e_0, e_2, ...
    for m in range(0, 2 * half, 2):
        e.append((4 * s + 2 * m * m * t) * e[-1] - m * (m - 1) ** 2 * (m - 2) * t * t * e[-2])
    nums, den = [], 1  # over (2*half)! t**half, from the top index down
    for k in range(half, 0, -1):
        nums.append(e[k + 1] * den)
        den *= 2 * k * (2 * k - 1) * t
    cosh = _reduced([den] + nums[::-1], den)
    return _quotient_form(_power_form(cosh, -1, half) if invert else cosh, order, True)


def expand_quotient_mean(spec: MeanSpec, order: int) -> MeanExpansion:
    """Expansion of a mean of the shape |b - a| / D(|ln(b/a)|): L_alpha,
    S_alpha, M1..M5, M_{alpha,r} and the mu-generated means.

        M(x-t, x+t) = 2t / D(Lambda(u)),   Lambda = ln((1+u)/(1-u)),  u = t/x.

    D(Lambda) is the integral of D'(Lambda) * Lambda', so no series is ever
    composed with a full denominator series.  It has valuation 1 with
    linear coefficient 2, so the quotient is x * (power series with constant
    term 1); coefficients stay in Q because every sqrt(2) in the closed
    forms cancels against the scaled argument.

    The route runs on integer forms.  D'(Lambda) is C = cosh(alpha*Lambda)
    for L_alpha, its inverse for S_alpha, and else base(Lambda)**exponent by
    Horner's rule and one power recursion; the product with Lambda' and the
    integral are one running sum, and one inverse gives the mean.  C depends
    on alpha only through beta = alpha**2: it solves C'' = beta*C in Lambda,
    and d/dLambda = ((1 - u^2)/2) d/du, so for beta = s/t the numbers
    e_m = m! t**(m/2) C_m (m even) are integers, with e_0 = 1, e_{-2} = 0 and
    e_{m+2} = (4s + 2m^2 t) e_m - m(m-1)^2(m-2) t^2 e_{m-2}.  The recurrence
    takes any rational beta, and the u**(2k) coefficient of C, and so of the
    mean, is a polynomial of degree at most k in beta.  When D' is even (L_alpha, S_alpha, M2, M4, mu)
    every step runs in w = u**2 at half the order, on Lambda**2.
    """
    return MeanExpansion(_values(*_quotient_mean_form(spec, order)))


def _quotient_mean_form(spec: MeanSpec, order: int) -> tuple[list[int], int]:
    """The integer form of a quotient mean (see expand_quotient_mean)."""
    if isinstance(spec, (LAlpha, SAlpha)):
        return _cosh_mean_form(spec.alpha**2, isinstance(spec, SAlpha), order)
    base, expo = _denominator_derivative(spec)
    even = not any(base[1::2])
    base, reach = (base[::2], order // 2) if even else (base, order)
    composed = _horner_form(_integer_form(base, len(base) - 1), _log_ratio_form(reach, even), reach)
    return _quotient_form(_power_form(composed, expo, reach), order, even)


def expand_stable(a2: Rational, order: int) -> MeanExpansion:
    """The even-only series fixed under the resultant mean-map, R(M, M, M)
    = M, with t^2 coefficient a2: the power mean B_p, p = 2*a2 + 1.

    B_p is stable: for N = B_p(s, t) and n = N**p = (s**p + t**p)/2 the two
    sides have p-th powers (s**p + n)/2 and (n + t**p)/2, whose mean is n
    again (at p = 0 the same holds for logarithms), and a_2(B_p) = (p - 1)/2.
    The fixed point is unique: as c_1 = 0, the top coefficient c_n enters
    the resultant coefficient r_n affinely with slope 1/2 + 2**(1-n) (see
    solver.is_stable), which is not 1 for n >= 4, so each c_n is
    determined by the ones below it.  First terms:
        a_4 = a_2 (1 + a_2)(1 - 4 a_2)/6,
        a_6 = a_2 (1 + a_2)(6 - 31 a_2 + 36 a_2^2 + 64 a_2^3)/90.
    """
    return expand_power_mean(2 * Fraction(a2) + 1, order)


def _mean_form(spec: MeanSpec, order: int) -> tuple[list[int], int]:
    """The expansion of any catalog mean through the order as integer
    numerators over their least common denominator."""
    if isinstance(spec, PowerMean):
        return _power_mean_form(spec.p, order)
    return _quotient_mean_form(spec, order)


def expand_mean(spec: MeanSpec, order: int) -> MeanExpansion:
    """Expansion of any catalog mean to the given truncation order."""
    return MeanExpansion(_values(*_mean_form(spec, order)))


def describe_spec(spec: MeanSpec) -> str:
    if isinstance(spec, PowerMean):
        return f"B_{spec.p}"
    if isinstance(spec, LAlpha):
        return f"L_{spec.alpha}"
    if isinstance(spec, SAlpha):
        return f"S_{spec.alpha}"
    if isinstance(spec, ClassicMean):
        return f"M{spec.index}"
    if isinstance(spec, MAlphaR):
        return f"M_({spec.alpha},{spec.r})"
    return f"mu-generated({len(spec.odd_coeffs)} coeffs)"
