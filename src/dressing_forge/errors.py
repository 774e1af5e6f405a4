"""Exception hierarchy used across the package."""


class DressingForgeError(Exception):
    """Base class for all package errors."""


class NonFiniteError(DressingForgeError, ValueError):
    """A matrix has non-finite entries (an input or an evaluation overflowed)."""


class RankDeficientError(DressingForgeError):
    """Spanning columns are (numerically) linearly dependent."""


class SingularError(DressingForgeError):
    """Linear system matrix is singular or too ill-conditioned."""


class AtPoleError(DressingForgeError):
    """Evaluation requested too close to a pole with no pole-free form."""


class PoleCollisionError(DressingForgeError):
    """Two rational factors place poles at (numerically) the same point."""


class SphericalViolationError(DressingForgeError):
    """Sphere-preserving transformation requested with non-orthogonal data."""


class OutOfDomainError(DressingForgeError):
    """Evaluation point outside a seed profile's domain."""


class ProjectionDriftError(DressingForgeError):
    """Integrated projection drifted too far off the projection manifold."""


class ChartSingularError(DressingForgeError):
    """Affine chart coordinate too close to zero for a stable quotient."""
