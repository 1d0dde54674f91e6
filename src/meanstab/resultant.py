"""Asymptotic expansion of the resultant mean-map R(K, M, N).

With K, M, N symmetric homogeneous means expanded as
``sum a_n t**n x**(1-n)``, the map

    R(K, M, N)(s, t) = K( M(s, N(s, t)), M(N(s, t), t) )

again has an expansion of the same shape.  Writing N = N(x-t, x+t), the two
inner compositions are expansions of M at the argument pairs (x-t, N) and
(N, x+t); their half-difference and half-sum feed the outer mean K.  Each
piece is captured by power-transformed coefficient sequences:

    g  = (1 + n_1, n_2, n_3, ...)        h  = (2, n_1 - 1, n_2, n_3, ...)
    gt = (1 - n_1, -n_2, -n_3, ...)      ht = (2, 1 + n_1, n_2, n_3, ...)

    B_m = sum_n m_n sum_k P[k, n, g ] P[m-n-k, 1-n, h ]      (M(x-t, N))
    A_m = sum_n m_n sum_k P[k, n, gt] P[m-n-k, 1-n, ht]      (M(N, x+t))

    d_j = A_{j+1} - B_{j+1},   s_j = A_j + B_j,

    r_m = (1/4) sum_n k_n sum_k P[k, n, d] P[m-n-k, 1-n, s].

The generic recursion needs ``n_1 != +-1``.  When ``n_1 = -1`` (resp. ``+1``)
the sequence g (resp. gt) loses its leading term; with z the first index
>= 2 where the inner mean has a nonzero coefficient, the affected side is
re-expressed through the shifted sequence starting at z, which shows up as
an index shift ``m -> m - n*z`` in its double sum.  If the tail of the
inner mean vanishes through the order, every term with n >= 1 is shifted
past the order whatever the later coefficients are, so the affected side is
its n = 0 term and the result is fully determined by the truncated inputs.

Everything here is duck-typed over the scalar field, so the same code runs on
exact rationals and on any other field-like scalar; the tests run it over
truncated series in a perturbation parameter to check the degenerate cases
against one-sided limits of the generic recursion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .catalog import MeanExpansion, expand_power_mean
from .rationals import Rational
from .series import power_table, series_mul, series_power


def _composition_sums(
    weights: Sequence,
    g: Sequence | None,
    h: Sequence,
    z: int | None,
    order: int,
) -> list:
    """out[m] = sum_n weights[n] * [g**n * h**(1-n)]_(m - n*z).

    ``g=None`` marks a degenerate side whose shifted sequence starts past the
    order: only n = 0 survives and the sum collapses to h itself.
    """
    zero = h[0] * 0
    h_table = power_table(h, series_power(h, -1, order), order)
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
        conv = series_mul(g_table[n], h_table[n], order)
        for m in range(n * z, order + 1):
            out[m] = out[m] + w * conv[m - n * z]
    return out


def resultant_coeffs(outer: Sequence, middle: Sequence, inner: Sequence, order: int) -> tuple:
    """Coefficients r_0..r_order of R(K, M, N) from plain coefficient
    sequences (a_0 = 1 each).  Scalar-generic; see the module docstring."""
    for name, seq in (("outer", outer), ("middle", middle), ("inner", inner)):
        if len(seq) < order + 1:
            raise ValueError(
                f"order mismatch: {name} expansion has {len(seq) - 1} coefficients, "
                f"need at least order {order}"
            )
    one = inner[0]
    zero = one * 0
    n1 = inner[1] if order >= 1 else zero

    tail = list(inner[2 : order + 1])
    z_index = next((i + 2 for i, c in enumerate(tail) if c != 0), None)
    # The side that loses its leading term runs on the sequence shifted to z;
    # None when the tail vanishes through the order.
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

    a_side = _composition_sums(middle, gt, ht, zt, order)
    b_side = _composition_sums(middle, g, h, zg, order)
    d = [a_side[j + 1] - b_side[j + 1] for j in range(order)]
    s = [a_side[j] + b_side[j] for j in range(order + 1)]
    combined = _composition_sums(outer, d, s, 1, order)
    quarter = Fraction(1, 4)
    return tuple(c * quarter for c in combined)


def resultant_case(inner: MeanExpansion) -> int:
    """1 for the generic recursion; 2 and 3 for inner t-coefficient -1/+1."""
    n1 = inner.coefficient(1)
    return 2 if n1 == -1 else 3 if n1 == 1 else 1


def resultant_mean_map(
    outer: MeanExpansion, middle: MeanExpansion, inner: MeanExpansion, order: int
) -> MeanExpansion:
    """Expansion of R(K, M, N) to the requested order."""
    return MeanExpansion(resultant_coeffs(outer.coeffs, middle.coeffs, inner.coeffs, order))


def resultant_power_means(
    p: Rational, q: Rational, middle: MeanExpansion, order: int
) -> MeanExpansion:
    """R(B_p, M, B_q): the specialization driving the stabilizability solver.

    For even M the t^2 coefficient is (2 a_2^M + p + 2q - 3)/8; for mixed M
    the expansion additionally carries a_1^M/2 at t and
    (2 a_3^M - (p-1)(2q-1) a_1^M)/16 at t^3.
    """
    outer = expand_power_mean(Fraction(p), order)
    inner = expand_power_mean(Fraction(q), order)
    return resultant_mean_map(outer, middle, inner, order)
