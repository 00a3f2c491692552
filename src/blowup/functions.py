"""Scalar function model.

Every one-variable function the library manipulates (the nonlinearity h,
the time coefficient q, derived majorant growth functions g) is wrapped in
a :class:`ScalarFn`: a plain callable plus declared structure, such as
monotonicity, sign and asymptotic power, that the classifier and the
constructive solvers rely on.  The declarations are *claims*: they are
checkable by sampling (:func:`validate_fn`) but never proven.

Functions are built through the family constructors (:func:`make_power`,
:func:`make_power_log`, :func:`make_constant`, :func:`make_piecewise`) or
parsed from the line-oriented config syntax, e.g. ``power(2.0)``,
``powerlog(1.0, 2.0, 2.718281828459045)``, ``constant(1.0)``,
``piecewise((0,1):0.5, (1,inf):2.0)``.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Family",
    "PowerFamilyParams",
    "ScalarFn",
    "ValidationReport",
    "make_power",
    "make_power_log",
    "make_constant",
    "make_piecewise",
    "make_custom",
    "validate_fn",
    "parse_fn_spec",
]

# Relative slack used by the monotonicity claim: f(s1) <= f(s2) + SLACK*(1+|f(s2)|).
MONOTONE_SLACK = 1e-12


class Family(str, Enum):
    POWER = "Power"
    POWER_LOG = "PowerLog"
    CONSTANT = "Constant"
    PIECEWISE = "Piecewise"
    CUSTOM = "Custom"


@dataclass(frozen=True)
class PowerFamilyParams:
    """Parameters for the power / power-log families: s^lam * log(shift+s)^sigma."""

    lam: float
    sigma: float = 0.0
    shift: float = math.e

    def __post_init__(self):
        if not (self.lam >= 0.0):
            raise InvalidParameterError(f"power exponent must be >= 0, got {self.lam}")
        if not (self.shift > 1.0):
            raise InvalidParameterError(f"log shift must be > 1, got {self.shift}")


@dataclass(frozen=True)
class ScalarFn:
    """An evaluable function [0, inf) -> R with declared structure.

    Instances are immutable and safe to share across threads; ``fn`` must be
    a pure function of its argument.
    """

    fn: Callable[[float], float]
    nondecreasing: bool = False
    nonnegative: bool = False
    asymptotic_exponent: Optional[float] = None
    family: Family = Family.CUSTOM
    params: tuple = ()
    spec_text: str = "custom"
    # Interior jump points (piecewise family); integrators restart there.
    breakpoints: tuple = ()

    def __call__(self, s):
        return self.fn(s)

    def eval_array(self, s) -> np.ndarray:
        """Evaluate on an array, falling back to a scalar loop for callables
        that do not broadcast."""
        arr = np.asarray(s, dtype=float)
        try:
            out = np.asarray(self.fn(arr), dtype=float)
            if out.shape == arr.shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.array([float(self.fn(x)) for x in arr.ravel()]).reshape(arr.shape)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"ScalarFn({self.spec_text})"


def _fmt(x: float) -> str:
    return repr(float(x))


def make_power(lam: float) -> ScalarFn:
    """h(s) = s**lam, lam >= 0. Nondecreasing and nonnegative on [0, inf)."""
    if not (lam >= 0.0):
        raise InvalidParameterError(f"power exponent must be >= 0, got {lam}")
    lam = float(lam)

    def fn(s, _lam=lam):
        return s ** _lam

    return ScalarFn(
        fn=fn,
        nondecreasing=True,
        nonnegative=True,
        asymptotic_exponent=lam,
        family=Family.POWER,
        params=(lam,),
        spec_text=f"power({_fmt(lam)})",
    )


def make_power_log(p: PowerFamilyParams) -> ScalarFn:
    """h(s) = s**lam * log(shift+s)**sigma.

    The asymptotic exponent is lam; the log factor only matters on the
    borderline lam = 1.  The monotonicity claim is made only for sigma >= 0
    (for sigma < 0 the function can have a decreasing stretch).
    """
    lam, sigma, shift = float(p.lam), float(p.sigma), float(p.shift)
    if not (shift > 1.0):
        raise InvalidParameterError(f"log shift must be > 1, got {shift}")

    def fn(s, _l=lam, _sg=sigma, _sh=shift):
        if isinstance(s, float) and _sh + s > 0.0:  # the generated step's formula, for rhs
            return s ** _l * math.log(_sh + s) ** _sg
        return s ** _l * np.log(_sh + s) ** _sg

    return ScalarFn(
        fn=fn,
        nondecreasing=sigma >= 0.0,
        nonnegative=True,
        asymptotic_exponent=lam,
        family=Family.POWER_LOG,
        params=(lam, sigma, shift),
        spec_text=f"powerlog({_fmt(lam)}, {_fmt(sigma)}, {_fmt(shift)})",
    )


def make_constant(c: float) -> ScalarFn:
    """The constant function s -> c."""
    c = float(c)

    def fn(s, _c=c):
        if isinstance(s, float):
            return _c
        arr = np.asarray(s, dtype=float)
        if arr.shape == ():
            return _c
        return np.full(arr.shape, _c)

    return ScalarFn(
        fn=fn,
        nondecreasing=True,
        nonnegative=c >= 0.0,
        asymptotic_exponent=0.0 if c > 0.0 else None,
        family=Family.CONSTANT,
        params=(c,),
        spec_text=f"constant({_fmt(c)})",
    )


def make_piecewise(pieces: Sequence[tuple[tuple[float, float], float]]) -> ScalarFn:
    """Step function from ((lo, hi), value) pieces.

    Pieces must start at 0, be contiguous, and end at inf; each piece is
    right-open, so the value at an interior breakpoint comes from the piece
    starting there.
    """
    if not pieces:
        raise InvalidParameterError("piecewise needs at least one piece")
    los = [float(lo) for (lo, _hi), _v in pieces]
    his = [float(hi) for (_lo, hi), _v in pieces]
    vals = [float(v) for _b, v in pieces]
    if los[0] != 0.0:
        raise InvalidParameterError("piecewise must start at 0")
    if not math.isinf(his[-1]):
        raise InvalidParameterError("piecewise must end at inf")
    for i in range(len(pieces)):
        if not his[i] > los[i]:
            raise InvalidParameterError(f"piecewise interval {i} is empty")
        if i + 1 < len(pieces) and his[i] != los[i + 1]:
            raise InvalidParameterError("piecewise intervals must be contiguous")

    edges = np.array(los, dtype=float)
    values = np.array(vals, dtype=float)

    def fn(s, _e=edges, _v=values):
        if isinstance(s, float):  # the integrator's path: no array round trip
            return vals[max(0, bisect_right(los, s) - 1)]
        arr = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(_e, arr, side="right") - 1, 0, len(_v) - 1)
        out = _v[idx]
        return float(out) if arr.shape == () else out

    body = ", ".join(
        f"({_fmt(lo)},{'inf' if math.isinf(hi) else _fmt(hi)}):{_fmt(v)}"
        for (lo, hi), v in zip(zip(los, his), vals)
    )
    return ScalarFn(
        fn=fn,
        nondecreasing=all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)),
        nonnegative=all(v >= 0.0 for v in vals),
        asymptotic_exponent=0.0 if vals[-1] > 0.0 else None,
        family=Family.PIECEWISE,
        params=(tuple(los), tuple(vals)),
        spec_text=f"piecewise({body})",
        breakpoints=tuple(los[1:]),
    )


def make_custom(
    fn: Callable[[float], float],
    *,
    nondecreasing: bool = False,
    nonnegative: bool = False,
    asymptotic_exponent: Optional[float] = None,
    label: str = "custom",
) -> ScalarFn:
    """Wrap an arbitrary callable with declared metadata."""
    return ScalarFn(
        fn=fn,
        nondecreasing=nondecreasing,
        nonnegative=nonnegative,
        asymptotic_exponent=asymptotic_exponent,
        family=Family.CUSTOM,
        spec_text=label,
    )


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Sampled check of a ScalarFn's claims on a geometric grid.

    ``monotonicity_violation`` and ``nonnegativity_violation`` are the worst
    observed magnitudes (0.0 when the corresponding claim holds on the grid
    or is not made); ``nonfinite_points`` lists abscissas where evaluation
    was not finite (a defect, not an exception).
    """

    lo: float
    hi: float
    samples: int
    monotonicity_violation: float
    nonnegativity_violation: float
    min_value: float
    nonfinite_points: tuple = ()

    @property
    def passed(self) -> bool:
        return (
            self.monotonicity_violation == 0.0
            and self.nonnegativity_violation == 0.0
            and not self.nonfinite_points
        )


def _geometric_grid(lo: float, hi: float, samples: int) -> np.ndarray:
    # Geometric spacing covers both the s->0 and s->inf scales; a zero left
    # endpoint is kept and the geometric part anchored 18 decades below hi.
    if lo > 0.0:
        return np.geomspace(lo, hi, samples)
    return np.concatenate(([0.0], np.geomspace(hi * 1e-18, hi, samples - 1)))


def validate_fn(fn: ScalarFn, lo: float, hi: float, samples: int) -> ValidationReport:
    """Check the declared claims of ``fn`` on a deterministic geometric grid."""
    if not (lo < hi):
        raise InvalidParameterError(f"need lo < hi, got [{lo}, {hi}]")
    if lo < 0.0:
        raise InvalidParameterError("functions live on [0, inf); lo must be >= 0")
    if samples < 2:
        raise InvalidParameterError("need at least 2 samples")

    grid = _geometric_grid(float(lo), float(hi), int(samples))
    vals = fn.eval_array(grid)
    finite = np.isfinite(vals)
    bad = tuple(float(s) for s in grid[~finite])
    vals_f = vals[finite]

    mono_viol = 0.0
    if fn.nondecreasing and len(vals_f) >= 2:
        run_max = np.maximum.accumulate(vals_f)
        # prior maximum must not exceed the current value beyond the slack
        excess = run_max[:-1] - vals_f[1:] - MONOTONE_SLACK * (1.0 + np.abs(vals_f[1:]))
        mono_viol = float(max(0.0, np.max(excess, initial=0.0)))

    min_value = float(np.min(vals_f)) if len(vals_f) else math.nan
    nonneg_viol = 0.0
    if fn.nonnegative and len(vals_f):
        nonneg_viol = float(max(0.0, -min_value))

    return ValidationReport(
        lo=float(lo),
        hi=float(hi),
        samples=int(samples),
        monotonicity_violation=mono_viol,
        nonnegativity_violation=nonneg_viol,
        min_value=min_value,
        nonfinite_points=bad,
    )


# ---------------------------------------------------------------------------
# config syntax

_CALL_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*\((.*)\)\s*$", re.S)
_PIECE_RE = re.compile(
    r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)\s*:\s*([^\s,()]+)"
)


def _parse_real(tok: str) -> float:
    t = tok.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(tok)
    except ValueError:
        raise InvalidParameterError(f"expected a real number, got {tok!r}") from None


def parse_fn_spec(text: str) -> ScalarFn:
    """Parse one function spec: power / powerlog / constant / piecewise."""
    m = _CALL_RE.match(text)
    if not m:
        raise InvalidParameterError(f"cannot parse function spec {text!r}")
    name, body = m.group(1).lower(), m.group(2).strip()

    if name == "piecewise":
        pieces = []
        consumed = 0
        for pm in _PIECE_RE.finditer(body):
            lo, hi, v = (_parse_real(pm.group(i)) for i in (1, 2, 3))
            pieces.append(((lo, hi), v))
            consumed = pm.end()
        if not pieces or body[consumed:].strip(" ,"):
            raise InvalidParameterError(f"cannot parse piecewise spec {text!r}")
        return make_piecewise(pieces)

    args = [_parse_real(a) for a in body.split(",")] if body else []
    if name == "power":
        if len(args) != 1:
            raise InvalidParameterError("power() takes exactly one argument")
        return make_power(args[0])
    if name == "powerlog":
        if len(args) not in (2, 3):
            raise InvalidParameterError("powerlog() takes (lam, sigma[, shift])")
        return make_power_log(PowerFamilyParams(*args))
    if name == "constant":
        if len(args) != 1:
            raise InvalidParameterError("constant() takes exactly one argument")
        return make_constant(args[0])
    raise InvalidParameterError(f"unknown function family {name!r}")
