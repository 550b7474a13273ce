"""Exception types shared across the package."""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value or inconsistent parameter set."""


class GeometryError(ValueError):
    """Physically impossible geometry (zero-area contour, nonpositive range, ...)."""


class SingularChannelError(RuntimeError):
    """A channel submatrix is rank deficient where full rank is required."""


class InfeasibleChannelError(RuntimeError):
    """A precoder cannot be built for this channel (e.g. null space too small)."""


class DegenerateBeamError(RuntimeError):
    """A beam's effective channel vanished; no intra-beam direction exists."""


# Failure codes of the stacked design pass per (design, power, beam), 0 if
# none. A larger code is an earlier stage: fewer feeds than users, a singular
# cross-Gram matrix, a vanished beam, no finite positive power scale.
NO_SCALE, DEAD, SINGULAR, SHAPE = 1, 2, 3, 4

# Numerical failures the channel model can produce: a Monte Carlo cell that
# raises one is skipped. Any other exception is a bug and propagates.
MODELLED_FAILURES = (
    SingularChannelError,
    InfeasibleChannelError,
    DegenerateBeamError,
    np.linalg.LinAlgError,
)
