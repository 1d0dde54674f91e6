"""meanstab: exact asymptotic expansions, resultant mean-maps and power-mean
stabilizability analysis for bivariate means.

The exact layer (rationals, polynomials, series, catalog, resultant, solver)
computes every coefficient and parameter over Q; the numeric lab cross-checks
against direct floating-point evaluation.
"""

from .catalog import (
    ALIASES,
    ClassicMean,
    LAlpha,
    M1,
    M2,
    M3,
    M4,
    M5,
    MAlphaR,
    MeanExpansion,
    MeanSpec,
    MuGenerated,
    PowerMean,
    SAlpha,
    expand_mean,
    expand_power_mean,
    expand_quotient_mean,
    expand_stable,
)
from .polynomials import (
    IntervalRoot,
    RationalRoot,
    UniPoly,
    isolate_real_roots,
)
from .rationals import Rational, parse_rational
from .resultant import (
    resultant_case,
    resultant_coeffs,
    resultant_power_means,
)
from .series import series_mul, series_power
from .solver import (
    DifferenceExpansion,
    StabilizabilityVerdict,
    coefficient_polynomials,
    difference_expansion,
    first_order_locus,
    is_stable,
    optimal_parameters,
    stability_parameter_scan,
)

__version__ = "0.1.0"
