"""Exception hierarchy shared by all symplat modules.

Two broad families matter to the CLI: validation failures (bad input,
bad schema, out-of-range arguments) map to exit code 2, numerical
failures (singular matrices, enumeration budget, SPD violations) map
to exit code 3.
"""


class SymplatError(Exception):
    """Base class for all symplat errors."""


# -- validation / schema ----------------------------------------------------

class ParseError(SymplatError):
    """Input file is not syntactically valid JSON."""


class SchemaError(SymplatError):
    """Input JSON does not match the expected object schema."""


class OutOfRange(SymplatError):
    """Argument violates a documented precondition range."""


class OddDimension(SymplatError):
    """Operation requires an even dimension."""


class NotPowerOfTwo(SymplatError):
    """Operation requires the dimension to be a power of two."""


class InconsistentParams(SymplatError):
    """Parameter map does not cover exactly the canonical index region."""


# -- numerical --------------------------------------------------------------

class NotSymmetric(SymplatError):
    """Matrix asymmetry exceeds the requested tolerance."""


class NotSPD(SymplatError):
    """Matrix is not symmetric positive definite at the given tolerance."""


class Singular(SymplatError):
    """Matrix is numerically singular: its smallest singular value is at
    most dim * eps times its largest."""


class NotIntegral(SymplatError):
    """An entry is too far from the nearest integer to round safely."""


class OrderExceeded(SymplatError):
    """Group closure grew past the configured maximum order."""


class NumericalBreakdown(SymplatError):
    """A floating-point routine lost the precision it needs to continue."""


class RadiusTooLarge(SymplatError):
    """Short-vector enumeration exceeded its node budget."""


class NotASymmetry(SymplatError):
    """Candidate orthogonal matrix does not induce an integral change of basis."""


class NotUnimodular(SymplatError):
    """Induced integer matrix does not have determinant +-1."""


class NotInvariant(SymplatError):
    """Group element fails to preserve vector lengths on the given lattice."""


#: Errors the CLI reports with exit code 2 (bad input).
VALIDATION_ERRORS = (
    ParseError,
    SchemaError,
    OutOfRange,
    OddDimension,
    NotPowerOfTwo,
    InconsistentParams,
)

#: Errors the CLI reports with exit code 3 (numerical failure).
NUMERICAL_ERRORS = (
    NotSymmetric,
    NotSPD,
    Singular,
    NotIntegral,
    OrderExceeded,
    NumericalBreakdown,
    RadiusTooLarge,
    NotASymmetry,
    NotUnimodular,
    NotInvariant,
)
