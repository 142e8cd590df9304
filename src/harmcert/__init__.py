"""Numerical certification toolkit for a disk-defined harmonic map class.

The analytic class at level lam collects normalized series F with
|F(z) - z F'(z)| < lam on the unit disk; the harmonic class pairs an
analytic part h with a co-analytic part g under
|h - z h'| + |g - z g'| < lam.  This package turns membership, sharp
coefficient bounds, growth and Jacobian envelopes, certified starlike and
convex radii, convolution and convex-combination closure, and the
special-function example families into runnable numerical checks.
"""

from .catalog import (
    CATALOG_NAMES,
    CatalogParams,
    ConditionReport,
    condition,
    make_example,
)
from .errors import (
    ConsistencyError,
    NonMemberError,
    NormalizationError,
    ParameterError,
)
from .geometry import (
    CurveAudit,
    DifferentialTestResult,
    EnvelopeAudit,
    JacobianAudit,
    RadiusCertificate,
    RadiusKind,
    boundary_curve_audit,
    convex_combination,
    convolve_members,
    euler_operator_test,
    growth_envelope_check,
    harmonic_radius_certify,
    jacobian_bound_check,
    radius_certify,
    second_derivative_test,
)
from .membership import (
    BoundsAuditEntry,
    ClassParams,
    CoefficientSufficiency,
    HarmonicMap,
    MembershipReport,
    StableFamilyReport,
    Verdict,
    ZetaFamilyScan,
    analytic_membership,
    coefficient_bounds_audit,
    coefficient_sufficient,
    harmonic_membership,
    paired_boundary_sup,
    random_member,
    stable_family_check,
    zeta_family_sup,
)
from .series import (
    AnalyticSeries,
    EvalGrid,
    default_grid,
    deficiency,
    derivative,
    eval_array,
    eval_series,
    hadamard,
    linear_combination,
)
from .specfun import (
    HypergeomParams,
    gauss_value,
    hyper_coefficients,
    pochhammer,
    weighted_gauss_value,
)

__version__ = "0.1.0"
