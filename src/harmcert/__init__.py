"""Numerical certification toolkit for a disk-defined harmonic map class.

The analytic class at level lam collects normalized series F with
|F(z) - z F'(z)| < lam on the unit disk; the harmonic class pairs an
analytic part h with a co-analytic part g under
|h - z h'| + |g - z g'| < lam.  This package turns membership, sharp
coefficient bounds, growth and Jacobian envelopes, certified starlike and
convex radii, convolution and convex-combination closure, and the
special-function example families into runnable numerical checks.
The names below are the paper's statements and the CLI subcommands'
engines, as the README's Public API table lists them; scan internals and
the special-function kernel stay in their modules.
"""

from .catalog import (
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
    coefficient_bounds_audit,
    coefficient_sufficient,
    harmonic_membership,
    random_member,
    stable_family_check,
)
from .series import (
    AnalyticSeries,
    EvalGrid,
    default_grid,
    deficiency,
    derivative,
    hadamard,
    linear_combination,
)

__version__ = "0.1.0"
