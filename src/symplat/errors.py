"""Exception hierarchy shared by all symplat modules.

Every concrete error belongs to one of two families, and the CLI maps
each family to its exit code: ``InputError`` (bad input, bad schema,
out-of-range arguments) to 2, ``NumericalError`` (singular matrices,
enumeration budget, SPD violations) to 3.
"""


class SymplatError(Exception):
    """Base class for all symplat errors."""


class InputError(SymplatError):
    """Bad input: the CLI reports it with exit code 2."""


class NumericalError(SymplatError):
    """Numerical failure: the CLI reports it with exit code 3."""


# -- input ------------------------------------------------------------------

class ParseError(InputError):
    """Input file is not syntactically valid JSON."""


class SchemaError(InputError):
    """Input JSON does not match the expected object schema."""


class OutOfRange(InputError):
    """Argument violates a documented precondition range."""


class OddDimension(InputError):
    """Operation requires an even dimension."""


class NotPowerOfTwo(InputError):
    """Operation requires the dimension to be a power of two."""


class InconsistentParams(InputError):
    """Parameter map does not cover exactly the canonical index region."""


# -- numerical --------------------------------------------------------------

class NotSymmetric(NumericalError):
    """Matrix asymmetry exceeds the requested tolerance."""


class NotSPD(NumericalError):
    """Matrix is not symmetric positive definite at the given tolerance."""


class Singular(NumericalError):
    """Matrix is numerically singular: its smallest singular value is at
    most dim * eps times its largest."""


class NotIntegral(NumericalError):
    """An entry is too far from the nearest integer to round safely."""


class OrderExceeded(NumericalError):
    """Group closure grew past the configured maximum order."""


class NumericalBreakdown(NumericalError):
    """A floating-point routine lost the precision it needs to continue."""


class RadiusTooLarge(NumericalError):
    """Short-vector enumeration exceeded its node budget."""


class NotASymmetry(NumericalError):
    """Candidate orthogonal matrix does not induce an integral change of basis."""


class NotUnimodular(NumericalError):
    """Induced integer matrix does not have determinant +-1."""


class NotInvariant(NumericalError):
    """A ``--verify`` check of a family point or lattice fails."""

