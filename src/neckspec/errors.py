"""Exception taxonomy shared across the package."""

from __future__ import annotations


class NeckspecError(Exception):
    """Base class for all package errors."""


class ContractViolation(NeckspecError):
    """An input is unusable; the message names the field."""


class AnalysisError(NeckspecError):
    """A numerical certificate failed (fit residual, unexpected bound state).

    Every failed certificate raises it, so the CLI catches this class
    alone and exits 1.
    """

