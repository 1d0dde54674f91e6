"""Stability classification and power-mean sub/super-stabilizability.

Given a mean M with exact expansion coefficients, the solver studies the
difference M - R(B_p, M, B_q) order by order:

* the t coefficient is a_1/2, independent of (p, q): a mixed-parity mean
  with a_1 != 0 can never have the leading term cancelled;
* the t^2 coefficient vanishes exactly on the affine locus
  q = 3*a_2 + (3 - p)/2;
* on that locus the t^k coefficient is a polynomial in p of degree at most
  k - 1; the first nonzero one, the pivot, is closed (below), a constant or
  a quadratic, so its roots p and their images q on the locus are rationals
  or quadratic surds.

The pivot, the first nonzero coefficient polynomial, needs no sample: with
r = 2*a_2 + 1, the t^3 column is the constant (7/8)*a_3 and, when a_3 = 0,
the t^4 column is the closed quadratic (r/128)*(p**2 - r**2) + (15/16)*(a_4 -
b_4), b_4 the t^4 coefficient of B_r; for a_2 = -1/2 (r = 0) it is one
comparison of M with G (see optimal_parameters).  A constant pivot is read
as the constant it is.  The roots of the t^4 quadratic are one pair p =
+-sqrt(w), w = -c_4/r, or the double root 0, read from w with no root
isolation (a surd root and its conjugate when w is not a rational square),
and the pair takes one route.  When the pair is the identity points of a
reference mean E that M agrees with through t^4, where R(B_p, E, B_q) = E,
both roots come from one comparison of M with E: B_r at w = r**2 (A, H,
L_{+-1} = H and every B_r) and the logarithmic mean L at (r, w) = (1/3, 1),
p = +-1.  A spec that is E by the table of exact coincidences
(catalog.coincident) never leaves it, and builds no form.
Any other pair reads two more closed columns: t^5 is the constant
(31/32)*a_5, and when a_5 = 0 the t^6 column is, modulo the pivot, the
constant c_6 = 9F/(320r) of a_2, a_4 and a_6, F read at most once.  The
first of them that is nonzero is the survivor at both roots, rational or
surd, with no sample and no evaluation at the root.  Only where both vanish
does each root take a longer route, the same for both kinds: one difference
expansion at the root, truncated at max_order, in Q at a rational root and
in the quadratic field Q(sqrt(s)) at a surd one; its first nonzero
coefficient is the survivor, exact and of exact sign.

So a search reads the mean through a_6 (CLOSED_ORDER) unless it takes one
of the two routes past t^6, the comparison with E and the expansion at
each root.  Given a mean spec, the search accepts a mean through
min(max_order, CLOSED_ORDER), and those routes take M through max_order from
the spec, once; without a spec the mean must reach max_order.  No catalog
mean that is its own reference (A, G, H, L, L_{+-1/2}, L_{+-1}, L_0 and
every B_p) reads past t^6 at all.

The search samples no band.  A band of reach K, which the tests and the
stability scan read, samples the difference once at the n = K + 2
consecutive integers p = x0 .. x0+n-1, x0 = -(n//2), truncated at order K,
and serves every k <= K it is asked for: the t^k coefficient of a
truncation at K equals that of a truncation at k.
A sample expands B_q only; B_p enters the resultant as its closed form.
The samples stay integer numerators, over one denominator for the band, and
column k gets a forward-difference table.  Its leading entries Delta^j must
vanish for j = k .. n-1, which holds exactly when the polynomial through
k + 1 of the samples has degree <= k - 1 and passes through the other
K + 1 - k; the polynomial is then Newton's forward form of
Delta^0 .. Delta^(k-1), built on integers with one division per coefficient.
The stability scan of L_alpha and S_alpha reads its t^4 defect this way, as
a band of reach 4 in beta = alpha**2 (see stability_parameter_scan).  A
stability check expands M to the order only when, through the first reach
(_FIRST_REACH = 6), M matches its stable reference: every unstable mean of
the benchmark's stable pool differs by t^4.

Stability computes no resultant.  M is stable when R(M, M, M) = M; the
stable means with c_1 = 0 are the power means, and those with c_1 = 1 or -1
the maximum and the minimum.  M is compared with the one its first
coefficients name, and the first coefficient of M - R(M, M, M) follows in
closed form from where M leaves it (see is_stable).

The verdict distinguishes a candidate direction of the inequality (the sign
of the first surviving coefficient, which is only the asymptotic, near-
diagonal side) from boundary evidence at (s, 1-s), s -> 0; it never claims
the global inequality.  The boundary probes are evaluated in order, up to
the first that supports the asymptotic sign.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction

from .catalog import (
    _cosh_mean_form,
    _mean_form,
    _power_mean_form,
    ALIASES,
    LAlpha,
    MeanExpansion,
    MeanSpec,
    PowerMean,
    SAlpha,
    coincident,
    describe_spec,
    expand_mean,
)
from .numeric import _resultant_boundary_closed, boundary_limit
from .polynomials import (
    QuadraticField,
    RationalRoot,
    UniPoly,
    _exact_sqrt,
    forward_differences,
    isolate_real_roots,
    newton_forward,
)
from .rationals import Rational
from .resultant import _common, _resultant
from .series import _integer_form, _values
from .values import Value

#: A parameter p or q of the search: a rational, or a value of Q(sqrt(s))
#: at a surd root.
Parameter = Rational | QuadraticField

# The order of a stability probe, by which every known unstable mean has
# left its stable reference.
_FIRST_REACH = 6

#: The order through which the closed columns of the search read the mean:
#: a_1..a_6 decide every pair they settle (see optimal_parameters).
CLOSED_ORDER = 6

#: The identity points besides B_r's: (r, w) -> the mean E with R(B_p, E,
#: B_q) = E at both roots p = +-sqrt(w) of the t^4 pivot on the locus q =
#: (3r - p)/2, where every mean with this r and w agrees with E through t^4
#: (see optimal_parameters).
_IDENTITY_POINTS = {(Fraction(1, 3), Fraction(1)): ALIASES["L"]}

# ---------------------------------------------------------------------------
# Difference expansions


class DifferenceExpansion(Value):
    """Coefficients of M - R(B_p, M, B_q) in t**n x**(1-n)."""

    def __init__(self, coeffs: tuple[Rational, ...], p: Rational, q: Rational) -> None:
        self.__dict__.update(coeffs=coeffs, p=p, q=q)

    @property
    def first_nonzero(self) -> int | None:
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return n
        return None

    @property
    def is_zero(self) -> bool:
        return self.first_nonzero is None


def _difference_form(m_form: tuple, p: Fraction, q: Fraction, order: int) -> tuple:
    """M - R(B_p, M, B_q) through the order as integer numerators over one
    denominator, from the integer form of the mean through the order: B_q's
    expansion, the two sides and the closed power-mean outer step.  A mean
    in Q(sqrt(s)) is its values over Fraction(1), and so is the difference."""
    q_form = _power_mean_form(q, order)
    if type(q_form[1]) is not type(m_form[1]):
        # a rational B_q beside a mean in Q(sqrt(s)): its values over Fraction(1)
        q_form = list(_values(*q_form)), m_form[1]
    m, r, den = _common(m_form, _resultant(p, m_form, q_form, order))
    return [a - b for a, b in zip(m, r)], den


def difference_expansion(mean: MeanExpansion, p: Parameter, q: Parameter, order: int) -> DifferenceExpansion:
    """Exact difference between the mean and its power-mean resultant,
    computed on integer numerators from B_p and B_q to the difference; for p
    or q in a quadratic field Q(sqrt(s)), at a surd root, in that field, a
    rational operand included."""
    coeffs = mean.truncated(order).coeffs
    p, q = (x if isinstance(x, QuadraticField) else Fraction(x) for x in (p, q))
    if QuadraticField in (type(p), type(q)):
        m_form = list(coeffs), Fraction(1)
    else:
        m_form = _integer_form(coeffs, order)
    return DifferenceExpansion(_values(*_difference_form(m_form, p, q, order)), p, q)


# ---------------------------------------------------------------------------
# First-order locus and coefficient polynomials


class AffineLocus(Value):
    """q as an affine function of p."""

    def __init__(self, intercept: Rational, slope: Rational) -> None:
        self.__dict__.update(intercept=intercept, slope=slope)

    def q_of(self, p: Parameter) -> Parameter:
        return self.intercept + self.slope * p

    def describe(self) -> str:
        return f"q = {self.intercept} + ({self.slope})*p"


def first_order_locus(mean: MeanExpansion) -> AffineLocus:
    """The locus where the t^2 coefficient of M - R(B_p, M, B_q) vanishes:
    q = 3*a_2 + (3 - p)/2.

    For a mixed-parity mean with a_1 != 0 the difference already starts at
    the parameter-free term a_1/2 * t, so no locus can help."""
    if mean.coefficient(1) != 0:
        raise ValueError("leading term parameter-independent")
    a2 = mean.coefficient(2)
    return AffineLocus(3 * a2 + Fraction(3, 2), Fraction(-1, 2))


def coefficient_polynomials(
    mean: MeanExpansion, locus: AffineLocus, low: int, high: int
) -> dict[int, UniPoly]:
    """The t**k coefficients of the difference on the locus, for k in
    low..high, as exact polynomials in p (degree <= k-1): one band of
    difference expansions, truncated at order high, serves every k.
    """
    if low < 2:
        raise ValueError("coefficient polynomials start at the t^2 index")
    m_form = _integer_form(mean.truncated(high).coeffs, high)
    return _band(lambda p: _difference_form(m_form, p, locus.q_of(p), high), low, high)


def _band(sample: Callable[[Fraction], tuple], low: int, high: int) -> dict[int, UniPoly]:
    """Columns k = low..high of the forms sample(x), through the order high,
    at the n = high+2 consecutive integers x = x0 .. x0+n-1, x0 = -(n//2), as
    polynomials in x of degree <= k-1.  The samples stay integer numerators,
    brought over one denominator for the band.  Column k has the forward
    differences Delta^j, j < n; the samples lie on a polynomial of degree
    <= k-1 exactly when Delta^j = 0 for j = k..n-1, and that polynomial is
    the Newton form of Delta^0..Delta^(k-1).
    """
    n = high + 2
    x0 = -(n // 2)
    *rows, den = _common(*(sample(Fraction(x0 + i)) for i in range(n)))
    polys = {}
    for k in range(low, high + 1):
        deltas = forward_differences([row[k] for row in rows])
        if any(deltas[k:]):
            raise ArithmeticError("degree bound violated")
        polys[k] = newton_forward(x0, deltas[:k], den)
    return polys


# ---------------------------------------------------------------------------
# Verdicts


class BoundaryEvidence(Value):
    """Numeric limits of M and R at (s, 1-s), s -> 0; evidence only."""

    def __init__(self, mean_limit: float | None, resultant_limit: float | None, label: str) -> None:
        self.__dict__.update(mean_limit=mean_limit, resultant_limit=resultant_limit, label=label)

    @property
    def difference_sign(self) -> int | None:
        if self.mean_limit is None or self.resultant_limit is None:
            return None
        gap = self.mean_limit - self.resultant_limit
        scale = 1.0 + abs(self.mean_limit) + abs(self.resultant_limit)
        if abs(gap) <= 1e-6 * scale:
            return 0
        return 1 if gap > 0 else -1


class OptimalCandidate(Value):
    """One optimal parameter pair, each a Fraction or a value of Q(sqrt(s)),
    with the first surviving coefficient."""

    def __init__(
        self,
        p: Parameter,
        q: Parameter,
        achieved_order: int | None,  # index of first nonzero coefficient; None = all zero
        leading: Rational | QuadraticField | None,
    ) -> None:
        self.__dict__.update(p=p, q=q, achieved_order=achieved_order, leading=leading)

    @property
    def sign(self) -> int:
        """The sign of the leading coefficient, for a candidate that has one."""
        if isinstance(self.leading, QuadraticField):
            return self.leading.sign
        return 1 if self.leading > 0 else (-1 if self.leading < 0 else 0)


class StabilizabilityVerdict(Value):
    def __init__(
        self,
        relation: str,  # "candidate-sub" | "candidate-super" | "neither" | "stabilizable"
        candidates: tuple[OptimalCandidate, ...] = (),
        locus: AffineLocus | None = None,
        fixed_leading: Rational | None = None,  # parameter-free leading coefficient
        fixed_leading_order: int | None = None,
        boundary: BoundaryEvidence | None = None,
        notes: tuple[str, ...] = (),
    ) -> None:
        self.__dict__.update(relation=relation, candidates=candidates, locus=locus,
                             fixed_leading=fixed_leading, fixed_leading_order=fixed_leading_order,
                             boundary=boundary, notes=notes)


def _boundary_evidence(spec: MeanSpec, p: Parameter, q: Parameter, m_limit: float) -> BoundaryEvidence:
    """The evidence at one exact probe (p, q), given M's own boundary limit,
    which does not depend on (p, q).  The float lab takes p and q as floats,
    converted here and nowhere else in the solver."""
    try:
        r_limit = _resultant_boundary_closed(PowerMean(float(p)), spec, PowerMean(float(q)), m_limit)
    except (ValueError, OverflowError):
        return BoundaryEvidence(None, None, "unavailable")
    return BoundaryEvidence(m_limit, r_limit, "closed-form")


#: (p, q) probes for the parameter-free paths, including extreme corners:
#: the sign of the boundary difference may depend on where B_p, B_q sit.
_BOUNDARY_SAMPLES = (
    (1, 1),
    (2, Fraction(1, 2)),
    (Fraction(1, 2), 2),
    (-20, 10),
    (-1, 3),
    (6, -2),
)

#: p probes on the first-order locus, for a pivot coefficient of fixed sign.
_LOCUS_SAMPLES = (1, 2, -1, -20, 6)


def _sampled_relation(
    spec: MeanSpec | None, asym: int, probes: Sequence[tuple[Parameter, Parameter]]
) -> tuple[str, BoundaryEvidence | None]:
    """Relation from the asymptotic sign and boundary evidence at the probes:
    several when the leading difference coefficient keeps one sign, the best
    candidate's (p, q) alone otherwise.  Without a spec there is no evidence.

    "neither" only when the boundary difference at the (p, q) probes
    conflicts with the asymptotic sign at some probe and supports it at none;
    probes with a vanishing boundary difference are uninformative, and with
    no informative probe the evidence of the first one is reported.  The
    probes are evaluated in order, and none after the first that supports;
    M's own limit is taken once, and without it every probe is unavailable.
    """
    base = "candidate-sub" if asym > 0 else "candidate-super"
    if spec is None:
        return base, None
    try:
        m_limit = boundary_limit(spec).value
    except ValueError:
        return base, BoundaryEvidence(None, None, "unavailable")
    first = conflicted = None
    for p, q in probes:
        evidence = _boundary_evidence(spec, p, q, m_limit)
        if evidence.difference_sign == asym:
            return base, evidence
        if first is None:
            first = evidence
        if conflicted is None and evidence.difference_sign == -asym:
            conflicted = evidence
    if conflicted is not None:
        return "neither", conflicted
    return base, first


def optimal_parameters(
    mean: MeanExpansion, max_order: int, spec: MeanSpec | None = None
) -> StabilizabilityVerdict:
    """Search for power-mean parameters cancelling as many difference
    coefficients as possible, then certify the first survivor.

    Let r = 2*a_2 + 1, so that the locus is q = (3r - p)/2, and let b_n be
    the coefficients of B_r; b_4 = (r - 1)*(3 + r - 2*r**2)/24.  The pivot
    comes from closed columns: the t^3 column is the constant (7/8)*a_3, and
    when a_3 = 0 the t^4 column is (r/128)*(p**2 - r**2) + (15/16)*(a_4 -
    b_4), that is (c_4 + r*p**2)/128 with c_4 = 120*a_4 + 9*r**3 - 15*r**2
    - 10*r + 15:

    * t^3: the top coefficient a_3 enters R(B_p, M, B_q) with slope 2**-3,
      by the argument for identity points below, and the part of the t^3
      coefficient that a_2 alone gives is that of an even mean, whose
      difference has no odd coefficient; so the column is a_3 - a_3/8;
    * t^4: for even K, M and N, R(K, M, N)(a, b) = K(M(a, N), M(N, b)) has
      the t^4 coefficient r_4 = k_4/16 + m_4/16 + n_4/2 - k_2*m_2*n_2/2 -
      3*k_2*m_2/16 - k_2*n_2/8 + m_2*n_2**2/4 + m_2*n_2/8 + m_2/16, and
      through t^4 a mean with a_1 = a_3 = 0 enters as an even one.  K = B_p
      and N = B_q have k_2 = (p - 1)/2, k_4 = b_4 at p, and the same at q;
      with m_2 = (r - 1)/2, a_4 - r_4 is the column above.

    A constant pivot (t^3, or the comparison with G at r = 0 below) is read
    as a constant.  The t^4 column P_4 has the roots p = +-sqrt(w), w =
    -c_4/r, one pair or the double root 0; with no real root it keeps the
    sign of c_4.  The pair is read from w, with no polynomial and no root
    isolation: the rationals -sqrt(w) and sqrt(w) when w is a rational
    square, else the surd sqrt(w), built once, and its conjugate -sqrt(w).
    On the locus q = (3r -+ sqrt(w))/2 at p = +-sqrt(w), so q at -sqrt(w)
    is the conjugate of q at sqrt(w), and a surd pair makes two surd
    constructions, not four.  The pair takes one route: it is a pair of
    identity points (below) of B_r when w = r**2 and of L when (r, w) =
    (1/3, 1), and otherwise reads the next two columns in closed form.  The
    t^5 column is (31/32)*a_5 at every p, and when a_5 = 0 the t^6 column
    P_6 is, at both roots of P_4, the constant c_6 = 9*F/(320*r), F =
    48*a_2**6 + 104*a_2**5 + 65*a_2**4 + 80*a_2**3*a_4 - 5*a_2**3 +
    150*a_2**2*a_4 - 13*a_2**2 + 65*a_2*a_4 + 70*a_2*a_6 + a_2 - 100*a_4**2
    - 20*a_4 + 35*a_6:

    * t^5: as at t^3, a_5 enters with slope 2**-5, and the part of the t^5
      coefficient that a_2 and a_4 give is that of an even mean, zero;
    * t^6: through t^6 a mean with a_1 = a_3 = a_5 = 0 enters as an even
      one, and for even K, M and N, R(K, M, N) has the t^6 coefficient
      r_6 = k_6/64 + m_6/64 + n_6/2 - 3*k_4*n_2/32 - (k_2*m_4 +
      k_4*m_2)*(16*n_2 + 7)/64 + k_2*m_2**2*(2*n_2 + 1)**2/16 +
      k_2*m_2*(20*n_2**2 + 6*n_2 - 32*n_4 - 3)/64 + k_2*(n_2**2 - 2*n_4)/16
      + 3*m_4*(4*n_2**2 + 3*n_2 + 1)/32 + m_2*(1 - 2*n_2 - 8*n_2**2 -
      8*n_2**3 + 8*n_4 + 32*n_2*n_4)/64;
    * B_p has k_6 = (p**2 - 1)*(16*p**3 - 30*p**2 - 19*p + 45)/720.  With
      the rest as for t^4, P_6 = a_6 - r_6 is r*p*P_4/4 plus the even part
      E = 63*a_6/64 - (27*r**2 + 3*r + 5)*a_4/128 - r*p**4/1536 -
      (840*a_4 + 180*r**3 - 165*r**2 - 170*r + 105)*p**2/15360 -
      81*r**5/2560 + 63*r**4/1024 + 15*r**3/256 - 125*r**2/1024 -
      197*r/7680 + 29/512;
    * a root of P_4 has p**2 = w = -c_4/r, and there E is c_6, with a_2 =
      (r - 1)/2.  At a_4 = b_4, where the roots are the identity points, c_6
      is (63/64)*(a_6 - b_6).

    So the first of these columns that is nonzero, and within max_order, is
    the survivor at both roots, rational or surd, with no band, no expansion
    and no evaluation at the root; F is read at most once per search, and
    only if the pair asks for it.  Below t^6, at max_order 4 or at 5 with
    a_5 = 0, every column through max_order vanishes at both roots.

    At an identity point of a reference mean E with c_1 = 0, a (p, q) with
    R(B_p, E, B_q) = E, if M first leaves E at index n <= max_order, with
    c_n - e_n = delta, the difference vanishes below n and is (1 -
    2**-n)*delta at n; if M never leaves E, it vanishes through max_order.
    The argument reads nothing of E but the identity:

    * through order n the resultant reads only m_0..m_n, so below n the
      difference is that of E, zero at an identity point;
    * the middle mean's top coefficient enters B_n and A_n as
      h_0*(g_0/h_0)**n*delta = 2**(1-n)*delta, as g_0/h_0 = gt_0/ht_0 = 1/2
      at n_1 = 0 (g, h, B, A, X and Y as in resultant.py), so X_n and Y_n
      each gain 2**-n*delta; B_p, like any symmetric mean, has partial
      derivatives 1/2 at (1, 1), so r_n gains 2**-n*delta for every p and q;
    * at an identity point r_n of E is e_n, so the difference at n is
      (1 - 2**-n)*delta.

    A mean with a_1 = a_3 = 0 and the r and w of an even E agrees with E
    through t^4 (r gives a_2, and w with r gives a_4), so its pivot pair is
    E's.  The references, each with its proof:

    * B_r, r != 0, at (r, r) and (-r, 2r), the pair of w = r**2;
    * B_0 = G on the whole locus q = -p/2 (r = 0), so a mean with a_2 =
      -1/2 samples no band: every column is zero below n and the constant
      (1 - 2**-n)*delta at n;
    * the logarithmic mean L (r = 1/3, w = 1) at (1, 0) and (-1, 1), the
      pair on its locus q = (1 - p)/2.

    The identities, with X = B_r(a, N) and Y = B_r(N, b) for B_r and y =
    ln(b/a) for L:

    * R(B_r, B_r, B_r) = B_r: at N = B_r(a, b), X**r + Y**r = (a**r + b**r)/2
      + N**r = 2*N**r, so B_r(X, Y) = N;
    * R(B_-r, B_r, B_2r) = B_r: at N**(2r) = (a**(2r) + b**(2r))/2,
      4*X**r*Y**r = N**r*(a**r + b**r) + (a**r + b**r)**2/2 = (a**r +
      b**r)*(X**r + Y**r), so B_-r(X, Y)**(-r) = 2/(a**r + b**r);
    * r = 0: with N = B_q(s, t), R(B_p, G, B_q) = sqrt(N)*B_p(sqrt(s),
      sqrt(t)), which at q = -p/2 is [(s**(p/2) + t**(p/2))/(s**(-p/2) +
      t**(-p/2))]**(1/p) = sqrt(s*t), and at p = q = 0 is R(G, G, G) = G;
    * R(A, L, G) = L: with N = sqrt(ab), ln(N/a) = ln(b/N) = y/2, so
      L(a, N) + L(N, b) = (N - a + b - N)/(y/2) = 2(b - a)/y;
    * R(H, L, A) = L: with N = (a + b)/2, N - a = b - N = (b - a)/2, so
      1/L(a, N) + 1/L(N, b) = (ln(N/a) + ln(b/N))/((b - a)/2) = 2y/(b - a).

    A spec that is E by the table of exact coincidences (catalog.coincident)
    never leaves E, with no form built.

    Where t^5 and t^6 both vanish at a pair of no reference, each root is
    read from its own difference expansion, truncated at max_order: over Q at
    a rational root, over Q(sqrt(s)) at a surd one, where the series kernel
    takes B_p's and B_q's surd exponents as values of that field.  Its first
    nonzero coefficient is the survivor, a Fraction wherever its sqrt(s)
    part cancels, else a QuadraticField, and its sign is exact either way.
    Every coefficient below the pivot vanishes on the locus and the pivot at
    its root, so a survivor at or below the pivot raises ArithmeticError.
    Boundary limits (when a mean spec is supplied) are numeric evidence
    attached to the verdict, never part of the exact computation.

    The reach of the mean: every closed column reads a_1..a_6 alone, F as
    an integer polynomial in the numerators of a_2, a_4 and a_6 over one
    denominator.  Without a spec the mean must reach max_order.  With a
    spec it need only reach min(max_order, CLOSED_ORDER), and the two routes
    that read past t^6 take M through max_order from the mean if it is that
    long, else from the spec: leaving E compares integer forms by
    cross-multiplication, E's with M's, and the roots' expansions expand the
    spec once.  A shorter mean raises ValueError.  c_4 and w are read from
    the same integer numerators.
    """
    if max_order < 3:
        raise ValueError("the search needs max_order >= 3")
    if mean.order < (max_order if spec is None else min(max_order, CLOSED_ORDER)):
        raise ValueError("mean expansion shorter than the requested search order")

    def verdict(leading, probes, **fields) -> StabilizabilityVerdict:
        # The relation from the sign of the leading term and the probes.
        relation, boundary = _sampled_relation(spec, 1 if leading > 0 else -1, probes)
        return StabilizabilityVerdict(relation, boundary=boundary, **fields)

    # Parameter-free leading term: mixed parity with a_1 != 0.
    a1 = mean.coefficient(1)
    if a1 != 0:
        note = "the t coefficient a_1/2 does not depend on (p, q)"
        return verdict(a1, _BOUNDARY_SAMPLES, fixed_leading=a1 / 2, fixed_leading_order=1,
                       notes=(note,))

    locus = first_order_locus(mean)
    r = 2 * mean.coefficient(2) + 1  # the locus is q = (3r - p)/2

    def full() -> MeanExpansion:
        # M through max_order, for the routes past t^6: the mean if it
        # reaches max_order, else the spec's expansion.
        return mean if mean.order >= max_order else expand_mean(spec, max_order)

    def leaving(reference: MeanSpec) -> tuple[int | None, Rational | None]:
        # The first index n where M leaves the reference E, and the
        # difference at n at an identity point of E (see above); (None, None)
        # if M never leaves E, at once if the spec is E by the table of
        # coincidences.  Else compared on integer forms through max_order,
        # one Fraction built at n alone.
        if spec is not None and coincident(spec) == reference:
            return None, None
        e, den = _mean_form(reference, max_order)
        m, d = _integer_form(full().coeffs, max_order)
        n = next((n for n in range(3, max_order + 1) if m[n] * den != e[n] * d), None)
        if n is None:
            return None, None
        return n, Fraction((2**n - 1) * (m[n] * den - e[n] * d), 2**n * d * den)

    # The pivot from the closed columns (see above): a constant at r = 0,
    # where every point of the locus is an identity point of G, and at t^3,
    # the only column at max_order 3; the t^4 quadratic otherwise.
    a3 = mean.coefficient(3)
    if r == 0 or a3 != 0 or max_order == 3:
        k0, constant = leaving(PowerMean(r)) if r == 0 else (3, a3 * Fraction(7, 8))
        if not constant:
            note = f"difference vanishes identically on the locus through order {max_order}"
            return StabilizabilityVerdict("stabilizable", locus=locus, notes=(note,))
        probes = [(p, locus.q_of(p)) for p in _LOCUS_SAMPLES]
        note = f"the t^{k0} coefficient on the locus is constant in p"
        return verdict(constant, probes, locus=locus, fixed_leading=constant,
                       fixed_leading_order=k0, notes=(note,))

    # a_n as the numerators nums[n] over one d, a2 and a4 among them, rd =
    # r*d and c4 = c_4*d**3, so w = -c_4/r = -c4/(d**2*rd)
    nums, d = _integer_form(mean.coeffs, min(mean.order, CLOSED_ORDER))
    a2, a4, dd = nums[2], nums[4], d * d
    rd = 2 * a2 + d
    c4 = ((9 * rd - 15 * d) * rd - 10 * dd) * rd + (120 * a4 + 15 * d) * dd
    w = Fraction(-c4, dd * rd)
    if w < 0:
        # The pivot keeps the sign of c4 for every p on the locus.
        probes = [(p, locus.q_of(p)) for p in _LOCUS_SAMPLES]
        return verdict(c4, probes, locus=locus, fixed_leading_order=4,
                       notes=("the t^4 coefficient has no real zero; its sign is fixed",))
    # The roots p in ascending order: 0, or -sqrt(w) and sqrt(w), rational
    # or in Q(sqrt(core)).
    s = _exact_sqrt(w)

    def settled() -> tuple[int | None, Rational | None] | None:
        # The survivor at both roots p = +-sqrt(w), where one route reads it
        # for the pair (see above): the identity points of the reference
        # that M agrees with through t^4, B_r at w = r**2 and L at (r, w) =
        # (1/3, 1), else the t^5 column, else the t^6 column modulo the
        # pivot if it is nonzero, and nothing below t^6; None if each root
        # needs its own expansion.
        reference = PowerMean(r) if w == r * r else _IDENTITY_POINTS.get((r, w))
        if reference is not None:
            return leaving(reference)
        a5 = mean.coefficient(5) if max_order >= 5 else 0
        if a5 != 0:
            return 5, a5 * Fraction(31, 32)
        if max_order < CLOSED_ORDER:
            # t^2, t^3 and the pivot vanish at both roots, and so does t^5
            return None, None
        # F*d**6 from the numerators, and c_6 = 9*F/(320*r) as one Fraction
        f = ((((((48 * a2 + 104 * d) * a2 + 65 * dd) * a2 - 5 * d * dd) * a2 - 13 * dd * dd)
              * a2 + d * dd * dd) * a2
             + ((((80 * a2 + 150 * d) * a2 + 65 * dd) * a2 - (100 * a4 + 20 * d) * dd) * a4
                + (70 * a2 + 35 * d) * nums[6] * dd) * dd)
        return (6, Fraction(9 * f, 320 * d * dd * dd * rd)) if f else None

    pair = settled()
    if pair is None:  # each root reads its own expansion, through max_order
        expanded = full()
    candidates = []
    for p in (-s, s) if s else (s,):
        q = locus.q_of(p)
        if pair is not None:
            achieved, leading = pair
        else:
            # The exact difference at the root, over Q or Q(sqrt(core)).
            diff = difference_expansion(expanded, p, q, max_order)
            achieved = diff.first_nonzero
            if achieved is not None and achieved <= 4:
                raise ArithmeticError("difference at a root survives at or below the pivot")
            leading = None if achieved is None else diff.coeffs[achieved]
        candidates.append(OptimalCandidate(p, q, achieved, leading))

    if any(c.achieved_order is None for c in candidates):
        best = tuple(c for c in candidates if c.achieved_order is None)
        rest = tuple(c for c in candidates if c.achieved_order is not None)
        return StabilizabilityVerdict(
            "stabilizable",
            candidates=best + rest,
            locus=locus,
            notes=(f"difference vanishes through order {max_order} at "
                   f"{len(best)} parameter pair(s)",),
        )

    # A stable sort: the first best candidate is the first in root order.
    ranked = tuple(sorted(candidates, key=lambda c: -c.achieved_order))
    top = ranked[0]
    notes = ()
    if any(c.sign != top.sign for c in ranked if c.achieved_order == top.achieved_order):
        notes = ("best candidates disagree in sign; relation taken from the first",)
    # The sign stands for the leading coefficient, which may be irrational.
    return verdict(top.sign, [(top.p, top.q)], candidates=ranked, locus=locus, notes=notes)


# ---------------------------------------------------------------------------
# Stability


class StabilityReport(Value):
    def __init__(
        self, description: str, order: int, is_stable: bool, first_mismatch: int | None,
        defect: Rational | None,
    ) -> None:
        self.__dict__.update(description=description, order=order, is_stable=is_stable,
                             first_mismatch=first_mismatch, defect=defect)


def is_stable(spec: MeanSpec, order: int) -> StabilityReport:
    """Compare a mean M with R(M, M, M) coefficientwise through the order,
    and first through the first reach: truncated series arithmetic is exact
    through its order, so a defect found there is the first one.

    No resultant is computed.  M is compared with the stable mean that its
    first coefficients name, and the coefficient of M - R(M, M, M) at the
    first mismatch n is read from a closed form (g, h, d and s as in
    resultant.py).  A power mean is its own reference.

    * At n = 1 the defect is (c_1**3 - c_1)/2, nonzero unless c_1 is 0, 1
      or -1.  Through u**1, B = 2 + (c_1**2 + 2c_1 - 1)u and A = 2 +
      (1 + 2c_1 - c_1**2)u, so u*d/s = (1 - c_1**2)u/2 + ... and
      r_1 = c_1 + c_1(1 - c_1**2)/2 = (3c_1 - c_1**3)/2.
    * c_1 = 0: the reference is the power mean B_p, p = 2c_2 + 1, which is
      stable (see catalog.expand_stable).  The top coefficient c_n enters
      r_n affinely, with slope 1/2 + 2**(1-n):

      - as the inner mean, it reaches r_n only through h and ht, which carry
        it at index n (in u*g/h it meets only m_1 = 0 at order n), so s_n
        gains 2*c_n and r = s * K(u*d/s) / 4 gains c_n/2;
      - as the middle mean, m_n * h * (u*g/h)**n contributes
        h_0 * (g_0/h_0)**n = 2 * (1/2)**n on each side, 2**(-n) after the
        1/4;
      - as the outer mean, k_n * s * (u*d/s)**n / 4 contributes
        s_0 * (d_0/s_0)**n / 4 = 2**(-n), with s_0 = 4 and d_0 = 2.

      So if M agrees with B_p below n (n >= 3), R(M, M, M) agrees with
      R(B_p, B_p, B_p) = B_p there, r_n = b_n + (1/2 + 2**(1-n))(c_n - b_n),
      and the defect is (1/2 - 2**(1-n))(c_n - b_n).  At n = 4 it is
      (3/8)(a_4 - a_2(1 + a_2)(1 - 4a_2)/6).
    * c_1 = 1 or -1 (the inner mean of resultant case III or II): the
      reference is the maximum or minimum mean x + c_1*t, and the defect is
      c_n at the first n >= 2 with c_n != 0.  For c_1 = 1, rho = u*g/h =
      u + (c_n/2)u**n + O(u**(n+1)), so B = 2 + 2u + 4c_n*u**n + ...; the
      argument u*gt/ht of the other side has valuation n, so
      A = ht(1 - (c_n/2)u**n) + ... = 2 + 2u + O(u**(n+1)).  Then
      u*d/s = -c_n*u**n + ..., so r = 1 + u + O(u**(n+1)) and r_n = 0.
      c_1 = -1 follows by u -> -u.
    """
    if order < 4:
        raise ValueError("stability checks need order >= 4")
    for reach in dict.fromkeys((min(_FIRST_REACH, order), order)):
        defects, den = _defect_form(_mean_form(spec, reach))
        n = next((n for n, d in enumerate(defects) if d), None)
        if n is not None:
            return StabilityReport(describe_spec(spec), order, False, n, Fraction(defects[n], den))
    return StabilityReport(describe_spec(spec), order, True, None, None)


def _defect_form(m_form: tuple) -> tuple:
    """Integer numerators over one denominator that agree with the
    coefficients of M - R(M, M, M) through the first nonzero one, from the
    integer form of M through its order, at least 2 (see is_stable)."""
    m, den = m_form
    if m[1]:  # M - (x + r_1*t), r_1 = (3c_1 - c_1**3)/2, which is c_1 at c_1 = 1 or -1
        return [0, m[1] ** 3 - m[1] * den**2, *(2 * den**2 * c for c in m[2:])], 2 * den**3
    # (1/2 - 2**(1-n))(M - B_p), p = 2c_2 + 1, as (2**n - 4)/2**(n+1) times the gap
    order = len(m) - 1
    m, b, den = _common(m_form, _power_mean_form(Fraction(2 * m[2] + den, den), order))
    gap = [(x - y) * (2**n - 4) << (order - n) for n, (x, y) in enumerate(zip(m, b))]
    return gap, den << (order + 1)


_SCAN_FAMILIES = {"L": LAlpha, "LALPHA": LAlpha, "S": SAlpha, "SALPHA": SAlpha}


def scan_family(family: str) -> Callable[[Rational], MeanSpec] | None:
    """The spec constructor a scan family name stands for: LAlpha for L or
    LAlpha, SAlpha for S or SAlpha (any case, surrounding blanks ignored),
    else None."""
    return _SCAN_FAMILIES.get(family.strip().upper())


def stability_parameter_scan(family: str, order: int = 16) -> list[RationalRoot]:
    """All parameters alpha in [-1, 1] for which the family is stable.

    The t^4 stability defect is read as an exact polynomial in beta =
    alpha**2, as a band of reach 4 reads its t^4 column: the defect form of
    is_stable at order 4 on the catalog's beta forms at beta = -3..2, with
    Delta^4 and Delta^5 checked to vanish.  As the family is even, that form
    is (3/8)(M - B_p), p = 2a_2 + 1, below t^5, and its t^4 coefficient
    (3/8)(a_4 - a_2(1 + a_2)(1 - 4a_2)/6) is that of M - R(M, M, M) whether
    or not M leaves B_p there.  The column's degree bound 3 is
    proven: the u**(2k) coefficient of the cosh form, and so of the mean,
    has degree at most k in beta, so a_2 is affine and a_4 quadratic.  Only
    rational alpha are reported: a root in [0, 1] that is a rational square
    must pass a full coefficient comparison to the given order (at least
    4), and any other root there raises ArithmeticError ("unresolved"); L's
    roots are -1/20, 1/4 and 1, S's only root is about 1.37.
    Families: "L" (generated by cosh) and "S" (generated by 1/cosh).
    """
    if order < 4:
        raise ValueError("stability checks need order >= 4")
    make_spec = scan_family(family)
    if make_spec is None:
        raise ValueError("family must be 'LAlpha' or 'SAlpha'")

    defect4 = _band(lambda x: _defect_form(_cosh_mean_form(x, make_spec is SAlpha, 4)), 4, 4)[4]
    if defect4.is_zero:
        raise ArithmeticError("t^4 defect vanishes identically; scan inconclusive")
    results: list[RationalRoot] = []
    for root in isolate_real_roots(defect4):
        lo, hi = root.bounds()
        if hi < 0 or lo > 1:
            continue
        alpha = _exact_sqrt(root.value) if isinstance(root, RationalRoot) else None
        if not isinstance(alpha, Fraction):
            raise ArithmeticError(
                "stability candidate alpha^2 in [0, 1] with alpha not rational; unresolved"
            )
        if is_stable(make_spec(alpha), order).is_stable:
            if alpha != 0:
                results.append(RationalRoot(-alpha))
            results.append(RationalRoot(alpha))
    results.sort(key=lambda r: r.value)
    return results
