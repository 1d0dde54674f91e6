"""Double-precision evaluation lab: direct mean values, associated
one-variable functions, resultant compositions, comparison scans, boundary
limits and remainder-decay checks.

Everything here is floating point on purpose; it cross-validates the exact
engine rather than feeding it.  Each quotient family has one closed form,
D(y) in M(a, b) = |b-a|/D(|ln(b/a)|), written without cancellation up to
the diagonal and defined at y = inf, and B_p has one; values, associated
functions and boundary limits (1/D(inf)) all come from these.
"""

from __future__ import annotations

import math

from .catalog import (
    ClassicMean,
    LAlpha,
    MAlphaR,
    MeanSpec,
    MuGenerated,
    PowerMean,
    SAlpha,
    coincident,
    expand_mean,
)
from .values import Value

_EPS = 2.0 ** -52
_SQRT2 = math.sqrt(2.0)


def _require_positive(*values: float) -> None:
    if any(not (v > 0) for v in values):
        raise ValueError("means are defined on positive arguments only")


def _denominator_closed(spec: MeanSpec, y: float) -> float:
    """D(y) with M(a,b) = |b-a|/D(|ln(b/a)|), in closed form."""
    if isinstance(spec, LAlpha):
        a = float(spec.alpha)
        return y if a == 0.0 else math.sinh(a * y) / a
    if isinstance(spec, SAlpha):
        a = float(spec.alpha)
        return y if a == 0.0 else 2.0 * math.atan(math.tanh(a * y / 2.0)) / a
    if isinstance(spec, ClassicMean):
        if spec.index == 1:
            return math.log1p(y)
        if spec.index == 2:
            return _SQRT2 * math.atan(y / _SQRT2)
        if spec.index == 3:
            # 2*atan(1+y) - pi/2 without cancellation, and defined at y = inf
            return 2.0 * math.atan2(y, 2.0 + y)
        if spec.index == 4:
            return _SQRT2 * math.asinh(y / _SQRT2)
        # sqrt2*(asinh(u) - asinh(1)) at u = 1 + y is sqrt2*asinh(sqrt2*u -
        # sqrt(1 + u^2)), and sqrt2*u - sqrt(1 + u^2) = (u^2 - 1)/(sqrt2*u +
        # sqrt(1 + u^2)) = y(1 + t)/(sqrt2 + sqrt(1 + t^2)) with t = 1/u
        t = 1.0 / (1.0 + y)
        return _SQRT2 * math.asinh(y * (1.0 + t) / (_SQRT2 + math.sqrt(1.0 + t * t)))
    if isinstance(spec, MAlphaR):
        r, alpha = float(spec.r), float(spec.alpha)
        if alpha + r == 0.0:
            return math.log1p(r * y) / r
        s = (r + alpha) / r
        return math.expm1(s * math.log1p(r * y)) / (r + alpha)
    if isinstance(spec, MuGenerated):
        if spec.has_positive_root:
            raise ValueError("mu has a positive root, where the mean is undefined")
        # mu(y) = y * sum c_n (y**2)**n, by Horner's rule in y**2 from the
        # top nonzero coefficient: at y = inf, 0.0 * inf would be nan
        acc, w = 0.0, y * y
        for c in reversed(spec.odd_coeffs):
            acc = acc * w + float(c) if acc else float(c)
        return y * acc
    raise TypeError(f"no denominator form for {spec!r}")


def _log_denominator(spec: MeanSpec, y: float) -> float:
    """ln D(y) where D(y) overflows.  L_alpha's does where sinh(|alpha|*y)
    does, past |alpha|*y = 710: there exp(-2|alpha|*y) underflows, so D(y) =
    exp(|alpha|*y)/(2|alpha|) in double precision.  M_{alpha,r}'s does where
    expm1(s*log1p(r*y)) does, s = (r + alpha)/r > 0 (for s < 0 it lies in
    (-1, 0)): past s*log1p(r*y) = 709.8 the -1 is lost, so ln D(y) =
    s*log1p(r*y) - ln(r + alpha).  No other family's D overflows."""
    if isinstance(spec, LAlpha):
        a = abs(float(spec.alpha))
        return a * y - math.log(2.0 * a)
    if isinstance(spec, MAlphaR):
        r, alpha = float(spec.r), float(spec.alpha)
        return (r + alpha) / r * math.log1p(r * y) - math.log(r + alpha)
    raise OverflowError("math range error")


def _power_factor_log(p: float, y: float) -> float:
    """ln ((1 + exp(-|p|y))/2)**(1/p): B_p, p != 0, at y = ln(hi/lo) is this
    factor times hi for p > 0 and lo for p < 0; log1p and expm1 keep the
    digits of a small |p|y."""
    return math.log1p(math.expm1(-abs(p) * y) / 2.0) / p


def eval_mean(spec: MeanSpec, a: float, b: float) -> float:
    """Value of the mean at (a, b), finite across the double range: y =
    ln(hi/lo) by log1p, or by two logs once hi/lo overflows; (hi - lo)/D(y)
    for a quotient mean, and for B_p, p != 0, the dominant argument times
    exp of the power factor, in one exp of the summed logs once that factor
    leaves e^+-700.  Where D(y) overflows (L_alpha and M_{alpha,r}, see
    _log_denominator) the quotient is exp(ln(hi - lo) - ln D(y))."""
    _require_positive(a, b)
    if a == b:
        return float(a)
    lo, hi = (a, b) if a < b else (b, a)
    if isinstance(spec, PowerMean) and spec.p == 0:
        return math.sqrt(lo) * math.sqrt(hi)
    ratio = (hi - lo) / lo
    y = math.log1p(ratio) if ratio < math.inf else math.log(hi) - math.log(lo)
    if isinstance(spec, PowerMean):
        p = float(spec.p)
        dominant, log_power = (hi if p > 0 else lo), _power_factor_log(p, y)
        if abs(log_power) <= 700.0:
            return dominant * math.exp(log_power)
        return math.exp(math.log(dominant) + log_power)
    try:
        value = (hi - lo) / _denominator_closed(spec, y)
    except OverflowError:
        value = math.exp(math.log(hi - lo) - _log_denominator(spec, y))
    return min(max(value, lo), hi)


def eval_f(spec: MeanSpec, x: float) -> float:
    """Associated function f_M(x) = M(exp(-x), exp(x)); with G = 1 it turns
    mean comparison into comparison of one-variable functions.  G is exactly
    1.0; another B_p is exp(+-x) times exp of the power factor at y = 2x, in
    one exp once either leaves e^+-700.  A quotient mean is 2*sinh(x)/D(2x),
    past x = 700 exp(x - 700)*(exp(700)/D(2x)), and exp of the difference of
    the logs where D(2x) overflows (L_alpha and M_{alpha,r}): OverflowError
    only where f_M does."""
    if not (x > 0):
        raise ValueError("evaluate the associated function at x > 0")
    if isinstance(spec, PowerMean):
        if spec.p == 0:
            return 1.0
        p = float(spec.p)
        lead = math.copysign(x, p)
        log_power = _power_factor_log(p, 2.0 * x)
        if max(abs(lead), abs(log_power)) <= 700.0:
            return math.exp(lead) * math.exp(log_power)
        return math.exp(lead + log_power)
    try:
        d = _denominator_closed(spec, 2.0 * x)
    except OverflowError:
        # ln(2*sinh(x)) is x past 700, where exp(-2x) underflows
        log_sinh = math.log(2.0 * math.sinh(x)) if x <= 700.0 else x
        return math.exp(log_sinh - _log_denominator(spec, 2.0 * x))
    value = 2.0 * math.sinh(x) / d if x <= 700.0 else math.exp(x - 700.0) * (math.exp(700.0) / d)
    if value == math.inf:
        raise OverflowError("math range error")
    return value


def eval_resultant(
    outer: MeanSpec, middle: MeanSpec, inner: MeanSpec, s: float, t: float
) -> float:
    """Direct composition K(M(s, N(s,t)), M(N(s,t), t))."""
    _require_positive(s, t)
    n = eval_mean(inner, s, t)
    return eval_mean(outer, eval_mean(middle, s, n), eval_mean(middle, n, t))


# ---------------------------------------------------------------------------
# Grids and comparisons


class GridSpec(Value):
    def __init__(self, start: float, stop: float, count: int, scale: str = "linear") -> None:
        if count < 2:
            raise ValueError("a grid needs at least two points")
        if not (0 < start < stop):
            raise ValueError("grid must lie in the positive half-line, start < stop")
        if scale not in ("linear", "logarithmic"):
            raise ValueError("scale must be 'linear' or 'logarithmic'")
        self.__dict__.update(start=start, stop=stop, count=count, scale=scale)

    def points(self) -> list[float]:
        n = self.count
        if self.scale == "linear":
            step = (self.stop - self.start) / (n - 1)
            return [self.start + i * step for i in range(n)]
        ratio = (self.stop / self.start) ** (1.0 / (n - 1))
        return [self.start * ratio**i for i in range(n)]


class ComparisonReport(Value):
    def __init__(
        self, verdict: str, witnesses: tuple[tuple[float, float], ...], min_gap: float
    ) -> None:
        # verdict: "m1<m2" | "m2<m1" | "crossing" | "equal"
        self.__dict__.update(verdict=verdict, witnesses=witnesses, min_gap=min_gap)


def compare_scan(m1: MeanSpec, m2: MeanSpec, grid: GridSpec) -> ComparisonReport:
    """Compare the associated functions on the grid; a uniform verdict,
    bracketing witnesses for each sign change, or "equal" when the two agree
    exactly at every grid point.  Two specs of one mean by the table of
    exact coincidences (catalog.coincident) are "equal" with no scan."""
    if coincident(m1) == coincident(m2):
        return ComparisonReport("equal", (), 0.0)
    xs = grid.points()
    diffs = [eval_f(m1, x) - eval_f(m2, x) for x in xs]
    min_gap = min(abs(d) for d in diffs)
    if all(d == 0.0 for d in diffs):
        return ComparisonReport("equal", (), min_gap)
    witnesses = tuple(
        (xs[i], xs[i + 1])
        for i in range(len(xs) - 1)
        if diffs[i] == 0.0 or (diffs[i] > 0) != (diffs[i + 1] > 0)
    )
    if witnesses:
        return ComparisonReport("crossing", witnesses, min_gap)
    verdict = "m1<m2" if diffs[0] < 0 else "m2<m1"
    return ComparisonReport(verdict, (), min_gap)


# ---------------------------------------------------------------------------
# Boundary limits


class LimitReport(Value):
    def __init__(self, value: float, uncertainty: float, method: str) -> None:
        # method: "closed-form"
        self.__dict__.update(value=value, uncertainty=uncertainty, method=method)

    @property
    def is_exact(self) -> bool:
        return self.method == "closed-form"


def _mean_boundary_closed(spec: MeanSpec) -> float:
    """lim_{s->0+} M(s, 1-s) in closed form: 2**(-1/p) for B_p with p > 0
    and 0 for p <= 0; 1/D(inf) for a quotient mean |b-a|/D(|ln(b/a)|),
    since |b-a| -> 1 and ln(b/a) -> inf."""
    if isinstance(spec, PowerMean):
        p = float(spec.p)
        return 2.0 ** (-1.0 / p) if p > 0 else 0.0
    return 1.0 / _denominator_closed(spec, math.inf)


def _resultant_boundary_closed(
    outer: MeanSpec, middle: MeanSpec, inner: MeanSpec, mean_limit: float | None = None
) -> float:
    """lim_{s->0+} R(B_p, M, B_q)(s, 1-s) via continuity of the composition:
    the inner mean tends to nu = B_q(0, 1), the two middle values to
    nu*lim M(s,1) and M(nu, 1), and B_p extends continuously to the
    boundary, where B_p(0, w) = w * B_p(0, 1).  M's own limit is taken
    here unless the caller gives it."""
    if not isinstance(outer, PowerMean) or not isinstance(inner, PowerMean):
        raise ValueError("the outer and inner means must be power means")
    if mean_limit is None:
        mean_limit = _mean_boundary_closed(middle)
    nu = _mean_boundary_closed(inner)
    if nu > 0.0:
        w1 = nu * mean_limit
        w2 = eval_mean(middle, nu, 1.0)
    else:
        w1, w2 = 0.0, mean_limit
    if w1 > 0.0 and w2 > 0.0:
        return eval_mean(outer, w1, w2)
    return max(w1, w2) * _mean_boundary_closed(outer)


def boundary_limit(
    expr: MeanSpec | tuple[MeanSpec, MeanSpec, MeanSpec],
) -> LimitReport:
    """lim_{s->0+} of M(s, 1-s), or of R(K, M, N)(s, 1-s) for a triple, in
    closed form.

    Every catalog mean has one, a mu-generated mean when mu has no positive
    root, and so has every power-mean sandwich R(B_p, M, B_q) of such a mean.
    A quotient mean's limit is 1/D(inf).  Several families approach their
    limit only logarithmically, far too slowly for sampling.  Any other
    input, or a composition whose terms leave the double range, raises
    ``ValueError("limit not resolved: ...")``.
    """
    try:
        if isinstance(expr, tuple):
            value = _resultant_boundary_closed(*expr)
        else:
            value = _mean_boundary_closed(expr)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"limit not resolved: {exc}") from exc
    return LimitReport(value, 0.0, "closed-form")


# ---------------------------------------------------------------------------
# Remainder decay


class DecayReport(Value):
    def __init__(
        self, slope: float | None, expected_exponent: int | None, points_used: int,
        noise_floor: bool, exact: bool = False,
    ) -> None:
        self.__dict__.update(slope=slope, expected_exponent=expected_exponent,
                             points_used=points_used, noise_floor=noise_floor, exact=exact)


def check_decay_setup(t: float, grid: GridSpec) -> None:
    """Raise ValueError unless a decay check can run at t on the grid."""
    if grid.scale != "logarithmic":
        raise ValueError("decay verification expects a logarithmic grid")
    if math.log10(grid.stop / grid.start) < 3 or grid.start < 100.0:
        raise ValueError("grid must span >= 3 decades with x >= 100")
    if not 0 < t < grid.start:
        raise ValueError("t must satisfy 0 < t < the grid start")


def verify_expansion_decay(
    spec: MeanSpec, order: int, t: float, grid: GridSpec
) -> DecayReport:
    """Check that the truncation remainder decays at the predicted rate.

    The remainder after summing through t**order is dominated by the next
    nonzero term a_n t**n x**(1-n), so log|remainder| against log x has
    slope 1 - n.  The truncation is exact when the exact expansion has no
    nonzero coefficient past the order (searched through order + 6); then
    there is nothing to fit.  Points within 400 ulp of the direct
    evaluation are discarded as float noise; with fewer than four usable
    points the report says so instead of fitting."""
    check_decay_setup(t, grid)
    deep = expand_mean(spec, order + 6)
    next_nonzero = next(
        (n for n in range(order + 1, deep.order + 1) if deep.coefficient(n) != 0),
        None,
    )
    if next_nonzero is None:
        return DecayReport(None, None, 0, False, True)
    expected = 1 - next_nonzero
    truncated = deep.truncated(order)
    usable = []
    for x in grid.points():
        rem = abs(eval_mean(spec, x - t, x + t) - truncated.partial_sum(x, t))
        if rem > 400.0 * _EPS * x:
            usable.append((x, rem))
    if len(usable) < 4:
        return DecayReport(None, expected, len(usable), True)
    lx = [math.log(x) for x, _ in usable]
    lr = [math.log(r) for _, r in usable]
    n = len(lx)
    mean_x = sum(lx) / n
    mean_r = sum(lr) / n
    slope = sum((a - mean_x) * (b - mean_r) for a, b in zip(lx, lr)) / sum(
        (a - mean_x) ** 2 for a in lx
    )
    return DecayReport(slope, expected, n, False)
