"""Exception taxonomy shared across the package."""

from __future__ import annotations


class NeckspecError(Exception):
    """Base class for all package errors."""


class SpectrumFormatError(NeckspecError):
    """A spectrum file is malformed; the message names the offending field."""


class ContractViolation(NeckspecError):
    """An input violates a documented precondition of the calculus."""


class AnalysisError(NeckspecError):
    """A numerical certificate failed (fit residual, unexpected bound state).

    Every more specific analysis failure derives from it, so the CLI
    catches this class alone and exits 1.
    """


class MatchingConditionError(NeckspecError):
    """Two building blocks cannot be glued (incompatible spectra or grids)."""


class NotOrthogonalError(AnalysisError):
    """Data required to be orthogonal to the substitute kernel is not."""


class NoContractionError(AnalysisError):
    """The correction iteration does not contract; the message gives the
    measured rate and names the mode family left with the largest residual."""

    def __init__(self, eta: float, mode_index: int, nu: float, T: float):
        super().__init__(
            f"iteration does not contract: eta = {eta:.6g} >= 1; the largest residual is on "
            f"the family of mode {mode_index}, nu = {nu:.6g}, sqrt(nu) T = {nu**0.5 * T:.6g}"
        )


class ResolutionError(AnalysisError):
    """The grid is too coarse to represent the requested object."""


class InsufficientEigenvaluesError(AnalysisError):
    """An eigenvalue count was requested beyond the computed window."""
