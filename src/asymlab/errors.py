"""Exception hierarchy shared by all modules."""


class LabError(Exception):
    """Base class; `kind`, the class name, is the machine-readable tag used in CLI error JSON."""

    kind = property(lambda self: type(self).__name__)


class ConfigError(LabError):
    pass


class UnknownName(ConfigError):
    pass


class BadParams(ConfigError):
    pass


class WrongDimension(LabError):
    pass


class SingularHessian(LabError):
    pass


class NotAdmissible(LabError):
    pass


class SingularRotation(LabError):
    pass


class StripViolation(LabError):
    """The eigenvalue bound lambda_max < cot(vartheta) fails, so the rotated
    coordinates cannot cover an exterior domain."""


class InverseMapDiverged(LabError):
    pass


class NotConvex(LabError):
    pass


class NoDecay(LabError):
    """Hessian residuals do not shrink with radius: quadratic asymptotics fail."""


class IllConditioned(LabError):
    pass


class NonPositiveValue(LabError):
    pass


class DidNotConverge(LabError):
    """Newton solve stalled; carries the report of its last iterate."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class InadmissibleIterate(LabError):
    pass


class SingularJacobian(LabError):
    """The Newton Jacobian is singular to working precision: its sparse LU
    factorization fails or the step it yields is not finite."""
