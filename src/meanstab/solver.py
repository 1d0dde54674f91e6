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

The pivot, the first nonzero coefficient polynomial, needs no sample.
With r = 2*a_2 + 1, each point p of the locus is an identity point of one
Stolarsky mean E_p, which has M's a_2, and where M first leaves E_p, at
t^n, the column at p is (1 - 2**-n)*(a_n - e_n) (see optimal_parameters).
E_p's coefficients through t^6 are closed polynomials in r and p**2, so
the t^3 column is the constant (7/8)*a_3 and, when a_3 = 0, the t^4 column
is the quadratic (15/16)*(a_4 - e_4(r, p**2)) = (c_4 + r*p**2)/128; at
a_2 = -1/2 (r = 0) every E_p is G, and every column is a constant.  A
constant pivot is read as the constant it is.  The roots of the t^4
quadratic are one pair p = +-sqrt(w), w = -c_4/r, or the double root 0,
read from w with no root isolation (a surd root and its conjugate when w
is not a rational square).  The pair shares one reference, E_{x,y} with x
+ y = 3r and x - y = sqrt(w), whose coefficients are rational at a surd
pair too, so it takes one route and one rational survivor: t^5 =
(31/32)*a_5, then t^6 = (63/64)*(a_6 - e_6) with E's closed e_6, and only
past t^6 E's form, with no sample and no evaluation at a root.  B_r at w =
r**2, G on the locus at r = 0 and the logarithmic mean L at (r, w) = (1/3,
1) are among these references.  A spec that is a Stolarsky mean
(catalog.is_stolarsky) never leaves itself, and builds no form.

So a search reads the mean through a_6 (CLOSED_ORDER) unless it takes the
one route past t^6, the comparison with E's form.  Given a mean spec, the search
accepts a mean through min(max_order, CLOSED_ORDER), and that route takes M
through max_order from the spec, once; without a spec the mean must reach
max_order.  No catalog mean that is its own reference (A, G, H, L,
L_{+-1/2}, L_{+-1}, L_0 and every B_p) reads past t^6 at all.  The
search runs on the mean's integer form, numerators over one denominator:
the solve command hands it the catalog's form, and optimal_parameters
converts a MeanExpansion once.

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
    _stolarsky_form,
    LAlpha,
    MeanExpansion,
    MeanSpec,
    PowerMean,
    SAlpha,
    describe_spec,
    is_stolarsky,
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
    expansion, the two sides and the closed power-mean outer step."""
    m, r, den = _common(m_form, _resultant(p, m_form, _power_mean_form(q, order), order))
    return [a - b for a, b in zip(m, r)], den


def difference_expansion(mean: MeanExpansion, p: Rational, q: Rational, order: int) -> DifferenceExpansion:
    """Exact difference between the mean and its power-mean resultant at
    rational p and q, computed on integer numerators from B_p and B_q to the
    difference."""
    m_form = _integer_form(mean.truncated(order).coeffs, order)
    p, q = Fraction(p), Fraction(q)
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
    return _locus(*mean.coefficient(2).as_integer_ratio())


def _locus(a2: int, d: int) -> AffineLocus:
    """The first-order locus q = 3*a_2 + (3 - p)/2 at a_2 = a2/d."""
    return AffineLocus(Fraction(6 * a2 + 3 * d, 2 * d), Fraction(-1, 2))


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
    with the first surviving coefficient, rational at a surd pair too."""

    def __init__(
        self,
        p: Parameter,
        q: Parameter,
        achieved_order: int | None,  # index of first nonzero coefficient; None = all zero
        leading: Rational | None,
    ) -> None:
        self.__dict__.update(p=p, q=q, achieved_order=achieved_order, leading=leading)


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

    Let r = 2*a_2 + 1, so that the locus is q = (3r - p)/2.  Every column
    the search reads is one rule, the identity-point lemma, applied to one
    reference per point of the locus, the Stolarsky mean E_p below.

    The lemma.  At an identity point of a reference mean E with c_1 = 0, a
    (p, q) with R(B_p, E, B_q) = E, if M first leaves E at index n <=
    max_order, with c_n - e_n = delta, the difference vanishes below n and
    is (1 - 2**-n)*delta at n; if M never leaves E, it vanishes through
    max_order.  The argument reads nothing of E but the identity:

    * through order n the resultant reads only m_0..m_n, so below n the
      difference is that of E, zero at an identity point;
    * the middle mean's top coefficient enters B_n and A_n as
      h_0*(g_0/h_0)**n*delta = 2**(1-n)*delta, as g_0/h_0 = gt_0/ht_0 = 1/2
      at n_1 = 0 (g, h, B, A, X and Y as in resultant.py), so X_n and Y_n
      each gain 2**-n*delta; B_p, like any symmetric mean, has partial
      derivatives 1/2 at (1, 1), so r_n gains 2**-n*delta for every p and q;
    * at an identity point r_n of E is e_n, so the difference at n is
      (1 - 2**-n)*delta.

    The references.  The Stolarsky mean is E_{x,y}(a, b) = ((y/x)*(b**x -
    a**x)/(b**y - a**y))**(1/(x - y)) (K. B. Stolarsky, "Generalizations of
    the logarithmic mean", Math. Mag. 48, 1975; see catalog._stolarsky_form),
    and E_p = E_{(3r+p)/2, (3r-p)/2}, E_{3r/2,3r/2} at p = 0:

    * R(B_{x-y}, E, B_y) = E: at n = B_y(a, b), n**y - a**y = b**y - n**y =
      (b**y - a**y)/2, so the (x - y)-th powers of E(a, n) and E(n, b)
      average to (y/x)*(b**x - a**x)/(b**y - a**y) = E(a, b)**(x - y).  At
      y = 0 the same holds with logarithms, n = G, and at x = y in the
      limit;
    * so the point (p, q) of the locus is an identity point of E_p, as x -
      y = p and y = (3r - p)/2 = q; and E_p = E_{-p}, as E_{x,y} = E_{y,x},
      so the pair +-p shares one reference;
    * E_p has M's a_2, e_2 = (x + y - 3)/6 = (r - 1)/2, and is even.

    E's closed head.  Put rho = (x + y)/3 and W = (x - y)**2, so that E_p
    has rho = r and W = p**2.  Then e_1 = e_3 = e_5 = 0, e_2 = (rho - 1)/2,

        e_4 = -(rho*W + 9*rho**3 - 15*rho**2 - 10*rho + 15)/120,
        e_6 = (rho*W**2 + 30*rho**3*W - 21*rho**2*W - 35*rho*W + 81*rho**5
               - 189*rho**4 - 210*rho**3 + 525*rho**2 + 133*rho - 315)/5040,

    from catalog._stolarsky_form's definition E = (O_x/O_y)**(1/(x - y)) in
    w = u**2, O_t = sum_k o_k w**k, o_k = (t - 1)(t - 2)..(t - 2k)/(2k + 1)!:

    * ln O_t = l_1 w + l_2 w**2 + l_3 w**3 + ..., with l_1 = (t - 1)(t -
      2)/6, l_2 = -(t - 1)(t - 2)(t**2 + 3t - 13)/180 and l_3 = (t - 1)(t -
      2)(2t**4 + 6t**3 - 28t**2 - 96t + 251)/5670, from o_1..o_3 by the
      logarithm's series, l_2 = o_2 - o_1**2/2 and l_3 = o_3 - o_1*o_2 +
      o_1**3/3;
    * ln E = sum_k lambda_k w**k, lambda_k = (l_k(x) - l_k(y))/(x - y) the
      divided difference, l_k'(x) at x = y: a symmetric polynomial in x and
      y, so one in sigma = x + y and pi = x*y.  lambda_1 = (sigma - 3)/6,
      lambda_2 = (2*pi*sigma - sigma**3 + 20*sigma - 45)/180 and lambda_3 =
      (6*pi**2*sigma - 8*pi*sigma**3 + 84*pi*sigma + 2*sigma**5 -
      42*sigma**3 + 483*sigma - 945)/5670;
    * sigma = 3*rho and pi = (9*rho**2 - W)/4 are rational at a surd pair
      too, and e_2 = lambda_1, e_4 = lambda_2 + lambda_1**2/2 and e_6 =
      lambda_3 + lambda_1*lambda_2 + lambda_1**3/6 by the exponential's
      series.  At rho = 0, e_4 = -1/8 and e_6 = -1/16 for every W: G's.

    The columns.  M agrees with E_p through t^2 at every p, so:

    * t^3 is (7/8)*(a_3 - e_3) = (7/8)*a_3 at every p;
    * at a_3 = 0, t^4 is (15/16)*(a_4 - e_4(r, p**2)) = (c_4 +
      r*p**2)/128, c_4 = 120*a_4 + 9*r**3 - 15*r**2 - 10*r + 15.  At r = 0
      it is the constant c_4/128, and E_p = E_{p/2,-p/2} = G for every p:
      the whole locus q = -p/2 is one reference's identity points, and t^5,
      t^6 and the columns past them are constants too.  Otherwise the pivot
      has the roots p = +-sqrt(w), w = -c_4/r, where a_4 = e_4(r, w), one
      pair or the double root 0; with no real root it keeps the sign of
      c_4;
    * at the pair M agrees with E_p through t^4, so t^5 is (31/32)*a_5, and
      at a_5 = 0 t^6 is (63/64)*(a_6 - e_6(r, w)); past t^6 the column is
      read where M leaves E_p's form.  E_p's coefficients are polynomials
      in sigma and pi at every order (catalog._stolarsky_form), rational at
      a surd pair, so the two roots share one rational survivor.

    The pair is read from w, with no polynomial and no root isolation: the
    rationals -sqrt(w) and sqrt(w) when w is a rational square, else the
    surd sqrt(w), built once, and its conjugate -sqrt(w).  On the locus q =
    (3r -+ sqrt(w))/2 at p = +-sqrt(w), so q at -sqrt(w) is the conjugate
    of q at sqrt(w).  The pair takes one route, with no band, no expansion
    and no evaluation at a root.  Below t^6, at max_order 4 or at 5 with
    a_5 = 0, every column through max_order vanishes at both roots.  As M
    agrees with E_p through the closed columns when the form is read,
    leaving the form at or below t^6 raises ArithmeticError.  A spec that
    is a Stolarsky mean is its own reference, and never leaves it, with no
    e_6 read and no form built; by catalog.is_stolarsky these are:

    * B_p = E_{2p,p} = E_{p,2p}, at the pair of w = p**2;
    * G = E_{x,-x} for every x, on the locus at r = 0;
    * L = E_{1,0}, at the pair of (r, w) = (1/3, 1).

    Boundary limits (when a mean spec is supplied) are numeric evidence
    attached to the verdict, never part of the exact computation.

    The reach of the mean: every closed column reads a_1..a_6 alone, c_4
    and w from the integer numerators of a_2 and a_4 over one denominator,
    and a_6 - e_6 as one integer polynomial in those numerators, a_6's and
    w's numerator and denominator.  Without a spec the mean must reach
    max_order.  With a spec it need only reach min(max_order,
    CLOSED_ORDER), and the comparison with E_p's form, the one route past
    t^6, takes M through max_order from the mean if it is that long, else
    from the spec, and compares integer forms by cross-multiplication, E's
    with M's.  A shorter mean raises ValueError.  The search itself, _search,
    runs on the mean's integer form, converted here once.
    """
    if max_order < 3:
        raise ValueError("the search needs max_order >= 3")
    if mean.order < (max_order if spec is None else min(max_order, CLOSED_ORDER)):
        raise ValueError("mean expansion shorter than the requested search order")
    return _search(_integer_form(mean.coeffs, min(mean.order, max_order)), max_order, spec)


def _search(form: tuple[list[int], int], max_order: int, spec: MeanSpec | None) -> StabilizabilityVerdict:
    """optimal_parameters on the integer form (nums, d) of the mean, a_n =
    nums[n]/d, through at least min(max_order, CLOSED_ORDER), and through
    max_order when there is no spec; past t^6 M comes from the form if it
    reaches max_order, else from the spec."""
    nums, d = form
    # The closed columns read a_1..a_6, zero past a shorter form.
    nums = nums + [0] * (CLOSED_ORDER + 1 - len(nums))

    def verdict(leading, probes, **fields) -> StabilizabilityVerdict:
        # The relation from the sign of the leading term and the probes.
        relation, boundary = _sampled_relation(spec, 1 if leading > 0 else -1, probes)
        return StabilizabilityVerdict(relation, boundary=boundary, **fields)

    # Parameter-free leading term: mixed parity with a_1 != 0.
    if nums[1]:
        note = "the t coefficient a_1/2 does not depend on (p, q)"
        return verdict(nums[1], _BOUNDARY_SAMPLES, fixed_leading=Fraction(nums[1], 2 * d),
                       fixed_leading_order=1, notes=(note,))

    locus = _locus(nums[2], d)
    # A spec that is a Stolarsky mean is its own reference, and never leaves it.
    own = spec is not None and is_stolarsky(spec)
    # rd = r*d, r = 2*a_2 + 1 (the locus is q = (3r - p)/2), and c4 = c_4*d**3
    rd, dd = 2 * nums[2] + d, d * d
    c4 = ((9 * rd - 15 * d) * rd - 10 * dd) * rd + (120 * nums[4] + 15 * d) * dd

    def leaving(w: Rational) -> tuple[int | None, Rational | None]:
        # The first index n > 4 where M leaves E_p = E_{(3r+p)/2, (3r-p)/2}
        # at the pair p = +-sqrt(w), and the column (1 - 2**-n)*(a_n - e_n)
        # there, (None, None) if M does not leave E_p through max_order (see
        # above): a_5 against e_5 = 0, a_6 against the closed e_6, and past
        # t^6 E_p's form against M's, M from the mean if it reaches
        # max_order, else from the spec, and one Fraction built at n alone.
        if max_order >= 5 and nums[5]:
            return 5, Fraction(31 * nums[5], 32 * d)
        if own or max_order < CLOSED_ORDER:
            return None, None
        # e6 = e_6*5040*d**5*v**2 from rho = rd/d and W = w = u/v, and the
        # column (63/64)*(a_6 - e_6) as one Fraction
        u, v, d4 = w.numerator, w.denominator, dd * dd
        e6 = ((((((81 * rd - 189 * d) * rd - 210 * dd) * rd + 525 * d * dd) * rd + 133 * d4) * rd
               - 315 * d * d4) * v * v + (((30 * rd - 21 * d) * rd - 35 * dd) * dd * v + d4 * u) * rd * u)
        gap = 5040 * nums[6] * d4 * v * v - e6
        if gap:
            return 6, Fraction(gap, 5120 * d * d4 * v * v)
        if max_order == CLOSED_ORDER:
            return None, None
        s, r = _exact_sqrt(w), Fraction(rd, d)
        e, den = _stolarsky_form((3 * r + s) / 2, (3 * r - s) / 2, max_order)
        m, dm = form if len(form[0]) > max_order else _mean_form(spec, max_order)
        n = next((n for n in range(3, max_order + 1) if m[n] * den != e[n] * dm), None)
        if n is None:
            return None, None
        if n <= CLOSED_ORDER:
            raise ArithmeticError("the mean leaves its Stolarsky reference in a closed column")
        return n, Fraction((2**n - 1) * (m[n] * den - e[n] * dm), 2**n * dm * den)

    # The pivot from the closed columns (see above): the constant t^3, the
    # only column at max_order 3; at r = 0, where every point of the locus is
    # an identity point of G = E_{0,0}, the constant t^4 and then the columns
    # past it; the t^4 quadratic otherwise.
    if nums[3] or max_order == 3 or not rd:
        k0, constant = 3, Fraction(7 * nums[3], 8 * d)
        if not constant and max_order > 3:
            k0, constant = (4, Fraction(c4, 128 * d * dd)) if c4 else leaving(Fraction(0))
        if not constant:
            note = f"difference vanishes identically on the locus through order {max_order}"
            return StabilizabilityVerdict("stabilizable", locus=locus, notes=(note,))
        probes = [(p, locus.q_of(p)) for p in _LOCUS_SAMPLES]
        note = f"the t^{k0} coefficient on the locus is constant in p"
        return verdict(constant, probes, locus=locus, fixed_leading=constant,
                       fixed_leading_order=k0, notes=(note,))

    w = Fraction(-c4, dd * rd)
    if w < 0:
        # The pivot keeps the sign of c4 for every p on the locus.
        probes = [(p, locus.q_of(p)) for p in _LOCUS_SAMPLES]
        return verdict(c4, probes, locus=locus, fixed_leading_order=4,
                       notes=("the t^4 coefficient has no real zero; its sign is fixed",))
    # The roots p in ascending order: 0, or -sqrt(w) and sqrt(w), rational
    # or in Q(sqrt(core)), and the survivor they share.
    s = _exact_sqrt(w)
    achieved, leading = leaving(w)
    roots = (-s, s) if s else (s,)
    candidates = tuple(OptimalCandidate(p, locus.q_of(p), achieved, leading) for p in roots)
    if achieved is None:
        note = f"difference vanishes through order {max_order} at {len(roots)} parameter pair(s)"
        return StabilizabilityVerdict("stabilizable", candidates=candidates, locus=locus,
                                      notes=(note,))
    top = candidates[0]
    return verdict(leading, [(top.p, top.q)], candidates=candidates, locus=locus)


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
