"""Exception types raised by permorb.

Each validation error names the hypothesis it found violated, so callers
(and the CLI) can report precisely what was wrong with the input.
"""


class PermorbError(Exception):
    """Base class for all permorb errors."""


class NotSymmetric(PermorbError):
    """Gram matrix is not symmetric."""


class NotEven(PermorbError):
    """Gram matrix has an odd diagonal entry."""


class NotPositiveDefinite(PermorbError):
    """Gram matrix is not positive definite."""


class DimensionMismatch(PermorbError):
    """Vector or matrix dimensions are incompatible."""


class NotInAmbientGroup(PermorbError):
    """Vector is outside the ambient group of the requested quotient."""


class NotInDual(NotInAmbientGroup):
    """Vector does not lie in the dual lattice."""


class NotInLattice(NotInAmbientGroup):
    """Vector does not lie in the lattice."""


class NonIntegralPairing(PermorbError):
    """Sign pairing requested for vectors with non-integral inner product."""


class DegeneratePair(PermorbError):
    """Off-diagonal module label given two equal cosets."""


class ParseError(PermorbError):
    """Label or input text does not match the expected grammar."""


class TableTooLarge(PermorbError):
    """The fusion table, the verify sweep, a module or qdim listing, or a
    decomposition would need more than the memory limit, estimated from the
    input size before any of the work is done."""
