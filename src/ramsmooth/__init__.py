"""Exact-arithmetic toolkit for smooth-restricted Ramanujan expansions.

Everything is rational: identity checks are exact, truncated series carry
certified (or explicitly empirical) radii, and no float ever enters a
machine-readable output.
"""

from .arith import (
    FactoredInteger,
    FunctionTable,
    common_denominator,
    dirichlet_sieve,
    divisors,
    eratosthenes_transform,
    euler_phi,
    factorize,
    inverse_transform,
    lcm_range,
    mobius,
    mobius_sieve,
    omega,
    primes_up_to,
    ramanujan_sum,
    ramanujan_sums,
    totient_sieve,
)
from .coefficients import (
    CoefficientRecord,
    ExpansionPartial,
    PeriodicityError,
    carmichael_formula,
    carmichael_periodic_exact,
    coefficient_record,
    expansion_partial,
    weighted_decay_check,
    wintner_restricted,
)
from .correlations import (
    BasicHypothesisError,
    CorrelationTable,
    SeriesEstimate,
    TailSplitRecord,
    correlation,
    seeded_instance,
    tail_split_identity,
)
from .functions import (
    ArithmeticFunctionSpec,
    CertificateError,
    FiniteSupport,
    GrowthCertificate,
    RangeQFunction,
    build_range_q,
    catalog_spec,
    constant_one,
    finite_ramanujan_eval,
    format_rational,
    format_rationals,
    mobius_spec,
    mobius_squared_spec,
    mobius_switch_rhs,
    parse_function_file,
    parse_rational,
    point_mass,
    ramanujan_modulus,
    totient_ratio_spec,
    range_q,
    range_q_ramanujan,
    smooth_restrict,
    spec_from_table,
)
from .intervals import BoundedValue, interval_sum
from .orthogonality import (
    orthogonality_exact,
    orthogonality_truncated,
    orthogonality_truncated_auto,
    pair_series_exact,
    pair_series_partial,
    tail_radius,
)
from .reef import (
    ReefInstance,
    ReefReport,
    ResidualProfile,
    ShiftedOrthogonalityPoint,
    SweepOutcome,
    counterexample_report,
    find_shifted_orthogonality_violations,
    reef_report,
    reef_rhs,
    residual_profile,
    shifted_orthogonality_eval,
)
from .smooth import (
    SmoothContext,
    SmoothSeries,
    best_tail_params,
    euler_product_upper,
    refine_cutoff,
    sifted_count,
    smooth_power_series,
    smooth_tail_bound,
    smooth_up_to,
)

__version__ = "0.1.0"
