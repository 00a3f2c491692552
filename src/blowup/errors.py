"""Exception hierarchy shared across the library, and its shared input checks."""

from __future__ import annotations

import numpy as np


class BlowupError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(BlowupError, ValueError):
    """A constructor or operation precondition was violated."""


def check_int(name: str, value, lo: int = 1, hi: int | None = None, rule: str = "") -> int:
    """``value`` as an int when it is an integer in [lo, hi] (hi None: no
    upper bound); otherwise InvalidParameterError "<name> <rule>, got <value!r>",
    the rule reading "must be an integer >= <lo>" unless given."""
    if not (isinstance(value, (int, np.integer)) and lo <= value and (hi is None or value <= hi)):
        raise InvalidParameterError(
            f"{name} {rule or f'must be an integer >= {lo}'}, got {value!r}"
        )
    return int(value)


def check_tol(tol) -> float:
    """``tol`` as a float when it lies in (1e-14, 1e-2), else InvalidParameterError."""
    if not (1e-14 < tol < 1e-2):
        raise InvalidParameterError(f"tol must lie in (1e-14, 1e-2), got {tol!r}")
    return float(tol)


def check_thresholds(thresholds) -> list[float]:
    """The escape levels as floats: at least one, each >= 10, increasing."""
    thresholds = [float(M) for M in thresholds]
    if not thresholds:
        raise InvalidParameterError("thresholds must list at least one level")
    if any(M < 10.0 for M in thresholds):
        raise InvalidParameterError("thresholds must each be >= 10")
    if any(hi <= lo for lo, hi in zip(thresholds, thresholds[1:])):
        raise InvalidParameterError("thresholds must be strictly increasing")
    return thresholds


class SingularIntegrandError(BlowupError, ArithmeticError):
    """The dichotomy integrand is undefined (h(s) <= 0) at some point.

    Carries the offending abscissa in ``where``.
    """

    def __init__(self, message: str, where: float | None = None):
        super().__init__(message)
        self.where = where


class NumericFailureError(BlowupError, ArithmeticError):
    """A numeric routine produced non-finite values or otherwise failed."""


class FiniteEscapeError(BlowupError, ArithmeticError):
    """The quadrature majorant itself escapes to infinity in finite time.

    ``escape_time`` is the finite limit F(inf) = u0^(1/n) I(g, n; u0) / n of
    the inverted integral, from the integral test taken from u0
    (:func:`blowup.classify.classify_from`); requests for times at or beyond
    it have no solution.
    """

    def __init__(self, message: str, escape_time: float):
        super().__init__(message)
        self.escape_time = escape_time


class InternalConsistencyError(BlowupError, RuntimeError):
    """An internal invariant was violated (e.g. decreasing escape times)."""


class ConfigError(BlowupError, ValueError):
    """Config text failed to parse or validate.

    ``errors`` is the full list of per-line messages.
    """

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class StageError(BlowupError, RuntimeError):
    """Failure inside a pipeline stage, labelled with the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
