"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class CapillaryLabError(Exception):
    """Base class for all package-specific errors."""


class BadDimension(CapillaryLabError):
    """Base dimension outside the supported set {1, 2}."""


class NonconformingExtent(CapillaryLabError):
    """Domain extent is not an integer multiple of the mesh width."""


class EmptyRegion(CapillaryLabError):
    """No grid node lies in (or near) the requested region."""


class UnresolvedRegion(CapillaryLabError):
    """Region radius smaller than one mesh cell."""


class ZeroVector(CapillaryLabError):
    """A direction argument that must be nonzero was zero."""


class DegenerateAngle(CapillaryLabError):
    """Contact angle too close to 0 or pi (sin below the configured floor)."""


class ShapeMismatch(CapillaryLabError):
    """Field or vector shape does not match the grid it claims to live on."""


class LinearSolveFailure(CapillaryLabError):
    """Krylov iteration stagnated or hit its iteration cap."""


class DegenerateState(CapillaryLabError):
    """Coefficient evaluation requested outside its domain of validity."""


class HypothesisViolation(CapillaryLabError):
    """Configured data family breaks the hypothesis of the chosen scenario."""


class InvalidParameter(CapillaryLabError, ValueError):
    """Solver or problem parameter outside its domain; also a ValueError."""


def require_count(name: str, value) -> None:
    """Raise InvalidParameter unless value is an integer >= 1 (bool rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidParameter(f"{name} must be an integer >= 1, got {value!r}")


class BadConfig(CapillaryLabError):
    """Malformed or unknown configuration input."""


class InvariantViolation(CapillaryLabError):
    """A solve broke a documented invariant (v >= sin(theta)); a run's own
    checks are harness.CheckResult records, not exceptions."""
