"""Numerical laboratory for exterior quadratic asymptotics of fully
nonlinear elliptic equations (special Lagrangian, Monge-Ampere, quadratic
Hessian, inverse harmonic Hessian)."""

from .errors import (BadParams, ConfigError, DidNotConverge, IllConditioned,
                     InadmissibleIterate, InverseMapDiverged, LabError,
                     NoDecay, NotAdmissible, NotConvex, SingularHessian,
                     SingularJacobian, SingularRotation, StripViolation,
                     UnknownName, WrongDimension)
from .core import (AnnulusField, AnnulusGrid, AsymptoticProfile, EquationSpec,
                   PotentialFn, SymMat)
from .equations import phase, residual
from .transforms import (legendre, legendre_lewy, rotate_hessian,
                         rotate_potential, unrotate_hessian, unrotate_potential)
from .oracle2d import (LaurentCoeffs, builtin, expected_profile,
                       harmonic_potential, oracle_sle)
from .asymptotics import (BoundaryCurve, ShellSpec, boundary_d, decay_exponent,
                          fit_profile, flux_identity, hessian_limit)
from .solver import SolveReport, convergence_study, solve_annulus

__all__ = [
    "BadParams", "ConfigError", "DidNotConverge", "IllConditioned",
    "InadmissibleIterate", "InverseMapDiverged", "LabError", "NoDecay",
    "NotAdmissible", "NotConvex", "SingularHessian", "SingularJacobian",
    "SingularRotation", "StripViolation", "UnknownName", "WrongDimension",
    "AnnulusField", "AnnulusGrid", "AsymptoticProfile", "EquationSpec",
    "PotentialFn", "SymMat", "phase",
    "residual",
    "legendre", "legendre_lewy", "rotate_hessian", "rotate_potential",
    "unrotate_hessian", "unrotate_potential",
    "LaurentCoeffs", "builtin", "expected_profile", "harmonic_potential",
    "oracle_sle",
    "BoundaryCurve", "ShellSpec", "boundary_d", "decay_exponent",
    "fit_profile", "flux_identity", "hessian_limit",
    "SolveReport", "convergence_study", "solve_annulus",
]

__version__ = "0.1.0"
