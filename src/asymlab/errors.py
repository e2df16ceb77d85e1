"""Exception hierarchy shared by all modules."""


class LabError(Exception):
    """Base class; `kind` is the machine-readable tag used in CLI error JSON."""

    kind = "LabError"


class ConfigError(LabError):
    kind = "ConfigError"


class UnknownName(ConfigError):
    kind = "UnknownName"


class BadParams(ConfigError):
    kind = "BadParams"


class WrongDimension(LabError):
    kind = "WrongDimension"


class SingularHessian(LabError):
    kind = "SingularHessian"


class NotAdmissible(LabError):
    kind = "NotAdmissible"


class SingularRotation(LabError):
    kind = "SingularRotation"


class StripViolation(LabError):
    """The eigenvalue bound lambda_max < cot(vartheta) fails, so the rotated
    coordinates cannot cover an exterior domain."""

    kind = "StripViolation"


class InverseMapDiverged(LabError):
    kind = "InverseMapDiverged"


class NotConvex(LabError):
    kind = "NotConvex"


class NoDecay(LabError):
    """Hessian residuals do not shrink with radius: quadratic asymptotics fail."""

    kind = "NoDecay"


class IllConditioned(LabError):
    kind = "IllConditioned"


class NonPositiveValue(LabError):
    kind = "NonPositiveValue"


class DidNotConverge(LabError):
    """Newton solve stalled; carries the report of its last iterate."""

    kind = "DidNotConverge"

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class InadmissibleIterate(LabError):
    kind = "InadmissibleIterate"


class SingularJacobian(LabError):
    """The Newton Jacobian is singular to working precision: its sparse LU
    factorization fails or the step it yields is not finite."""

    kind = "SingularJacobian"
