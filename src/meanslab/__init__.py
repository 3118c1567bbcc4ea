"""meanslab — bivariate means, sharp two-sided bounds, and their checkers.

The package evaluates a family of classical bivariate means (arithmetic,
geometric, harmonic, contraharmonic, centroidal, root-square, the two
Seifferts, the generalized logarithmic family, and the asinh-based mean
``M``), carries a catalog of sharp inequalities between them with
vectorised margin checks and sharpness probes, and verifies the power
series and monotonicity facts the bounds rest on.
"""

from .records import (
    InequalityRecord,
    Margins,
    ProbeResult,
    ProbeSpec,
    VerificationReport,
    catalog,
    record,
    sharpness_probe,
    verify,
    verify_all,
    verify_random,
)
from .constants import SharpConstant, constant, expr_value, sharp_constants, solve_p0
from .errors import (
    DegeneratePairError,
    DomainError,
    NotApplicableError,
    ParameterError,
)
from .means import (
    MEANS,
    PositivePair,
    arithmetic,
    centroidal,
    ch_difference,
    contraharmonic,
    first_seiffert,
    format_float,
    generalized_logarithmic,
    geometric,
    harmonic,
    neuman_sandor,
    root_square,
    second_seiffert,
)
from .ratios import (
    THETA_STAR,
    IdentityResiduals,
    ScanVerdict,
    h_eval,
    identity_residuals,
    monotonicity_scan,
    substitution_theta,
)
from .series import (
    DifferenceReport,
    LemmaSeries,
    SeriesId,
    difference_sign_check,
)

__version__ = "0.1.0"

__all__ = [
    "DegeneratePairError",
    "DifferenceReport",
    "DomainError",
    "IdentityResiduals",
    "InequalityRecord",
    "LemmaSeries",
    "MEANS",
    "Margins",
    "NotApplicableError",
    "ParameterError",
    "PositivePair",
    "ProbeResult",
    "ProbeSpec",
    "ScanVerdict",
    "SeriesId",
    "SharpConstant",
    "THETA_STAR",
    "VerificationReport",
    "__version__",
    "arithmetic",
    "catalog",
    "centroidal",
    "ch_difference",
    "constant",
    "contraharmonic",
    "difference_sign_check",
    "expr_value",
    "first_seiffert",
    "format_float",
    "generalized_logarithmic",
    "geometric",
    "h_eval",
    "harmonic",
    "identity_residuals",
    "monotonicity_scan",
    "neuman_sandor",
    "record",
    "root_square",
    "second_seiffert",
    "sharp_constants",
    "sharpness_probe",
    "solve_p0",
    "substitution_theta",
    "verify",
    "verify_all",
    "verify_random",
]
