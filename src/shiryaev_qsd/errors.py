"""Exception hierarchy shared by all modules."""


class QsdError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QsdError):
    """An argument lies outside the mathematical domain of the operation."""


class DenominatorPoleError(DomainError):
    """A denominator parameter of a hypergeometric series is a nonpositive integer."""


class EvaluationDomainError(DomainError):
    """The evaluation point is outside the supported domain (e.g. z <= 0)."""


class DivergenceError(DomainError):
    """The requested integral is divergent at the given lower limit."""


class ImaginaryResidueError(QsdError):
    """A quantity that must be real came out with a non-negligible imaginary part."""


class NonConvergenceError(QsdError):
    """A series or quadrature failed to converge within its budget."""


class InvalidBracketError(QsdError):
    """A root bracket does not actually bracket a sign change."""


class BracketFailure(QsdError):
    """The eigenvalue bounds hold no sign change, or the root fails its checks."""


class ConfigError(QsdError):
    """A simulation configuration is degenerate or inconsistent."""


class AllAbsorbedError(QsdError):
    """Every simulated path was absorbed before the requested horizon."""


class MismatchedAError(QsdError):
    """Empirical and analytic objects refer to different absorption levels."""
