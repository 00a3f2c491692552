"""Scalar function model.

Every one-variable function the library manipulates (the nonlinearity h,
the time coefficient q, derived majorant growth functions g) is wrapped in
a :class:`ScalarFn`: a plain callable plus its family, its parameters, its
jump points and one declaration, the asymptotic power, which the classifier
reads for its exact verdict on custom and step-function h.  The declaration
is a *claim*, never checked.  The jumps are read through
:meth:`ScalarFn.cuts` alone.

Functions are built through the family constructors (:func:`make_power`,
:func:`make_power_log`, :func:`make_piecewise` for step functions and
:func:`make_constant` for their one-piece case) or parsed from the
line-oriented config syntax, e.g. ``power(2.0)``,
``powerlog(1.0, 2.0, 2.718281828459045)``, ``constant(1.0)``,
``piecewise((0,1):0.5, (1,inf):2.0)``.  :func:`scaled` reads one function
at another scale, weight * h(factor * s), keeping its asymptotic power.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, check_real

__all__ = [
    "Family",
    "ScalarFn",
    "make_power",
    "make_power_log",
    "make_constant",
    "make_piecewise",
    "make_custom",
    "scaled",
    "parse_fn_spec",
]

class Family(str, Enum):
    POWER = "Power"
    POWER_LOG = "PowerLog"
    PIECEWISE = "Piecewise"
    CUSTOM = "Custom"


@dataclass(frozen=True)
class ScalarFn:
    """An evaluable function [0, inf) -> R with its declared asymptotic power.

    Instances are immutable and safe to share across threads; ``fn`` must be
    a pure function of its argument.
    """

    fn: Callable[[float], float]
    asymptotic_exponent: Optional[float] = None
    family: Family = Family.CUSTOM
    params: tuple = ()
    spec_text: str = "custom"
    # Interior jump points, strictly increasing; integrators restart there.
    # Read them through :meth:`cuts`.
    breakpoints: tuple = ()

    def __post_init__(self):
        bps = self.breakpoints
        if not all(b > a for a, b in zip(bps, bps[1:])):
            raise InvalidParameterError(f"breakpoints must be strictly increasing, got {bps!r}")

    def __call__(self, s):
        return self.fn(s)

    def cuts(self, lo: float, hi: float) -> list:
        """[lo, the jumps strictly inside (lo, hi), hi]: the edges of the
        pieces of [lo, hi] on which a step function is one constant."""
        return [lo, *(b for b in self.breakpoints if lo < b < hi), hi]

    def eval_array(self, s) -> np.ndarray:
        """Evaluate on an array, falling back to a scalar loop for callables
        that do not broadcast: each call tries ``fn`` on the whole array once,
        and loops over the elements where that raises TypeError or ValueError
        or returns another shape.  In the loop an OverflowError (``math.exp``,
        a float ``**``) reads as inf, the value numpy gives."""
        arr = np.asarray(s, dtype=float)
        try:
            out = np.asarray(self.fn(arr), dtype=float)
            if out.shape == arr.shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.array([self._scalar(x) for x in arr.ravel()]).reshape(arr.shape)

    def _scalar(self, x: float) -> float:
        try:
            return float(self.fn(x))
        except OverflowError:
            return math.inf

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"ScalarFn({self.spec_text})"


def _fmt(x: float) -> str:
    return repr(float(x))


def make_power(lam: float) -> ScalarFn:
    """h(s) = s**lam, lam >= 0."""
    lam = check_real("power exponent", lam, lam >= 0.0, "must be >= 0")

    def fn(s, _lam=lam):
        return s ** _lam

    return ScalarFn(
        fn=fn,
        asymptotic_exponent=lam,
        family=Family.POWER,
        params=(lam,),
        spec_text=f"power({_fmt(lam)})",
    )


def make_power_log(lam: float, sigma: float = 0.0, shift: float = math.e) -> ScalarFn:
    """h(s) = s**lam * log(shift+s)**sigma, lam >= 0, shift > 1, each finite.

    The asymptotic exponent is lam; the log factor only matters on the
    borderline lam = 1.  For sigma < 0 the function can have a decreasing
    stretch.
    """
    lam = check_real("power exponent", lam, lam >= 0.0, "must be >= 0")
    shift = check_real("log shift", shift, shift > 1.0, "must be > 1")
    sigma = check_real("log exponent", sigma)

    def fn(s, _l=lam, _sg=sigma, _sh=shift):
        if isinstance(s, float) and _sh + s > 0.0:  # the generated step's formula, for rhs
            return s ** _l * math.log(_sh + s) ** _sg
        return s ** _l * np.log(_sh + s) ** _sg

    return ScalarFn(
        fn=fn,
        asymptotic_exponent=lam,
        family=Family.POWER_LOG,
        params=(lam, sigma, shift),
        spec_text=f"powerlog({_fmt(lam)}, {_fmt(sigma)}, {_fmt(shift)})",
    )


def make_constant(c: float) -> ScalarFn:
    """The constant function s -> c: the one-piece step function, with its
    own spec text."""
    return replace(make_piecewise([((0.0, math.inf), c)]), spec_text=f"constant({_fmt(c)})")


def make_piecewise(pieces: Sequence[tuple[tuple[float, float], float]]) -> ScalarFn:
    """Step function from ((lo, hi), value) pieces.

    Pieces must start at 0, be contiguous, and end at inf, with finite
    values; each piece is right-open, so the value at an interior breakpoint
    comes from the piece starting there.  The params are (the pieces' left
    ends, their values).
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
    for v in vals:
        check_real("step function value", v)

    # piece i holds the s with exactly i interior breakpoints at or below it;
    # s < 0 falls in the first piece, inf and nan in the last
    inner = los[1:]
    edges, values = np.array(inner, dtype=float), np.array(vals, dtype=float)

    def fn(s, _e=edges, _v=values):
        if isinstance(s, float):  # the integrator's path: no array round trip
            return vals[bisect_right(inner, s)]
        arr = np.asarray(s, dtype=float)
        out = _v[np.searchsorted(_e, arr, side="right")]
        return float(out) if arr.shape == () else out

    body = ", ".join(
        f"({_fmt(lo)},{'inf' if math.isinf(hi) else _fmt(hi)}):{_fmt(v)}"
        for (lo, hi), v in zip(zip(los, his), vals)
    )
    return ScalarFn(
        fn=fn,
        asymptotic_exponent=0.0 if vals[-1] > 0.0 else None,
        family=Family.PIECEWISE,
        params=(tuple(los), tuple(vals)),
        spec_text=f"piecewise({body})",
        breakpoints=tuple(los[1:]),
    )


def make_custom(
    fn: Callable[[float], float],
    *,
    asymptotic_exponent: Optional[float] = None,
    label: str = "custom",
) -> ScalarFn:
    """Wrap an arbitrary callable with its declared asymptotic exponent."""
    return ScalarFn(
        fn=fn,
        asymptotic_exponent=asymptotic_exponent,
        family=Family.CUSTOM,
        spec_text=label,
    )


def scaled(h: ScalarFn, factor: float, *, weight: float = 1.0, label: str) -> ScalarFn:
    """g(s) = weight * h(factor * s), factor > 0 and finite, with h's
    asymptotic exponent and its breakpoints moved to bp / factor."""
    check_real("scale factor", factor, factor > 0.0, "must be > 0")

    def fn(s, _w=float(weight), _f=float(factor), _h=h):
        return _w * _h(_f * s)

    return ScalarFn(
        fn=fn,
        asymptotic_exponent=h.asymptotic_exponent,
        spec_text=label,
        breakpoints=tuple(bp * (1.0 / factor) for bp in h.breakpoints),
    )


# ---------------------------------------------------------------------------
# config syntax

_CALL_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*\((.*)\)\s*$", re.S)
_PIECE_RE = re.compile(
    r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)\s*:\s*([^\s,()]+)"
)


# name -> (constructor, argument counts, usage) of the families that take reals
_FAMILIES = {
    "power": (make_power, (1,), "power() takes exactly one argument"),
    "powerlog": (make_power_log, (2, 3), "powerlog() takes (lam, sigma[, shift])"),
    "constant": (make_constant, (1,), "constant() takes exactly one argument"),
}


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
    if name not in _FAMILIES:
        raise InvalidParameterError(f"unknown function family {name!r}")
    make, counts, usage = _FAMILIES[name]
    if len(args) not in counts:
        raise InvalidParameterError(usage)
    return make(*args)
