"""Exception and warning types shared across the lab."""


class StokesLabError(Exception):
    """Base class for all lab-specific failures."""


# --- tensor algebra ---------------------------------------------------------

class NotPositiveDefinite(StokesLabError):
    """The induced quadratic form on symmetric tensors has a nonpositive eigenvalue."""


class InvalidBounds(StokesLabError):
    """Positivity bounds must satisfy 0 < lower <= upper."""


class BoundsViolated(StokesLabError):
    """A sampled tensor falls outside the declared positivity bounds."""


# --- boundary elements ------------------------------------------------------

class SingularPoint(StokesLabError):
    """The fundamental matrix was requested at the singular point d = 0."""


class NotStronglyElliptic(StokesLabError):
    """The constant tensor fails the strong ellipticity margin test."""


class CurveNotSmooth(UserWarning):
    """Quadrature accuracy downgraded: the curve is not analytically smooth."""


class DegenerateBasis(StokesLabError):
    """The totals matrix of the equilibrium densities is numerically singular."""


class SingularSystem(StokesLabError):
    """The augmented boundary system is too ill-conditioned to trust."""


class PointInsideBody(StokesLabError):
    """Evaluation requested inside the body; the solution lives outside."""


class NotAnEllipse(StokesLabError):
    """The operation requires a curve constructed by BoundaryCurve.ellipse."""


# --- annulus solver ---------------------------------------------------------

class SolverDiverged(StokesLabError):
    """The discrete solve did not reach the requested residual."""


class RadiusOutOfGrid(StokesLabError):
    """A sampling radius falls outside the polar grid, or on its inner ring
    where an interior ring is needed."""


class NotContracting(StokesLabError):
    """Fixed-point factors exceeded 1 for three consecutive iterations."""


# --- counter-example --------------------------------------------------------

class OriginSingular(StokesLabError):
    """The counter-example tensor is undefined at the origin."""


# --- inequality checks ------------------------------------------------------

class NonDecayingProfile(StokesLabError):
    """The radial profile does not settle toward the declared far-field value."""


class BoundaryNotZero(StokesLabError):
    """The field must vanish on every boundary node of the grid."""


# --- configuration ----------------------------------------------------------

class ConfigInvalid(StokesLabError):
    """An experiment configuration failed validation; message names the field."""
