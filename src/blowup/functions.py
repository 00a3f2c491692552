"""Scalar function model.

Every one-variable function the library manipulates (the nonlinearity h,
the time coefficient q, derived majorant growth functions g) is wrapped in
a :class:`ScalarFn`: a plain callable plus its family, its parameters, its
jump points and one declaration, the asymptotic power, which the classifier
reads for its exact verdict on custom and piecewise h.  The declaration is a
*claim*, never checked.

Functions are built through the family constructors (:func:`make_power`,
:func:`make_power_log`, :func:`make_constant`, :func:`make_piecewise`) or
parsed from the line-oriented config syntax, e.g. ``power(2.0)``,
``powerlog(1.0, 2.0, 2.718281828459045)``, ``constant(1.0)``,
``piecewise((0,1):0.5, (1,inf):2.0)``.  :func:`scaled` reads one function
at another scale, weight * h(factor * s), keeping its asymptotic power.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError

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
    CONSTANT = "Constant"
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
    # Interior jump points (piecewise family); integrators restart there.
    breakpoints: tuple = ()

    def __call__(self, s):
        return self.fn(s)

    def eval_array(self, s) -> np.ndarray:
        """Evaluate on an array, falling back to a scalar loop for callables
        that do not broadcast.  A callable whose array call raised TypeError
        or ValueError once goes straight to the loop from then on."""
        arr = np.asarray(s, dtype=float)
        if "_scalar_only" not in self.__dict__:
            try:
                out = np.asarray(self.fn(arr), dtype=float)
                if out.shape == arr.shape:
                    return out
            except (TypeError, ValueError):
                object.__setattr__(self, "_scalar_only", True)  # not a field: eq and hash ignore it
        return np.array([float(self.fn(x)) for x in arr.ravel()]).reshape(arr.shape)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"ScalarFn({self.spec_text})"


def _fmt(x: float) -> str:
    return repr(float(x))


def make_power(lam: float) -> ScalarFn:
    """h(s) = s**lam, lam >= 0."""
    if not (lam >= 0.0):
        raise InvalidParameterError(f"power exponent must be >= 0, got {lam}")
    lam = float(lam)

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
    """h(s) = s**lam * log(shift+s)**sigma, lam >= 0, shift > 1.

    The asymptotic exponent is lam; the log factor only matters on the
    borderline lam = 1.  For sigma < 0 the function can have a decreasing
    stretch.
    """
    if not (lam >= 0.0):
        raise InvalidParameterError(f"power exponent must be >= 0, got {lam}")
    if not (shift > 1.0):
        raise InvalidParameterError(f"log shift must be > 1, got {shift}")
    lam, sigma, shift = float(lam), float(sigma), float(shift)

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
    """g(s) = weight * h(factor * s), factor > 0, with h's asymptotic exponent
    and its breakpoints moved to bp / factor."""
    if not (factor > 0.0):
        raise InvalidParameterError(f"scale factor must be > 0, got {factor}")

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
