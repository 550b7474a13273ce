"""Exception types shared across the package."""


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
