"""Convergence/divergence test for the blow-up dichotomy integral.

For a nondecreasing nonlinearity h and integer n >= 1 the improper
integral

    I(h, n) = int_1^inf h(s)^(-1/n) * s^(1/n - 1) ds

separates two regimes of the driven Cauchy problems handled by this
library: convergence puts the problem in the finite-time blow-up regime
(for large data), divergence in the global-existence regime.  For power
functions h(s) = s^lam the test reduces to the exact threshold: divergent
iff lam <= 1, for every n.

Verdicts are exact for the built-in families (and for any function with a
declared asymptotic exponent != 1); any other h is integrated out to the
float range, the last unit step of y = log s below Y_MAX (the log of the
largest double) where h is finite, and is Diverges once the running
integral passes DIVERGE_CAP, Converges where the rest past that step is
within QUAD_TOL of the integral, and honest Inconclusive otherwise — a
numeric routine cannot prove divergence, it can only exceed a cap.  Every
piece of I = int_0^inf h(e^y)^(-1/n) e^(y/n) dy is computed in y = log s
by :mod:`blowup.quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    InvalidParameterError,
    NumericFailureError,
    SingularIntegrandError,
    check_int,
)
from .functions import Family, ScalarFn, scaled
from .quadrature import QUAD_TOL, Y_MAX, integral, rest

__all__ = [
    "Verdict",
    "Method",
    "IntegralVerdict",
    "blowup_integrand",
    "classify",
    "classify_scaled",
    "classify_from",
]


class Verdict(str, Enum):
    CONVERGES = "Converges"
    DIVERGES = "Diverges"
    INCONCLUSIVE = "Inconclusive"


class Method(str, Enum):
    EXACT_FAMILY = "ExactFamily"
    NUMERIC_HEURISTIC = "NumericHeuristic"


DIVERGE_CAP = 1e9      # the numeric path's running integral beyond this -> Diverges


@dataclass(frozen=True)
class IntegralVerdict:
    verdict: Verdict
    estimate: Optional[float]     # value of the integral, when convergent
    panels_used: int              # doubling panels in y the numeric path ran; 0 when exact
    method: Method
    # cumulative: the integral over those panels (when exact, the estimate or 0.0);
    # last_panel: the last one's integral; cap_hit: cumulative passed DIVERGE_CAP;
    # tail_bound: quadrature.rest past them, inf where the integrand does not
    # decay there (None when exact or past the cap)
    evidence: dict = field(default_factory=dict)

    def __str__(self):
        est = "" if self.estimate is None else f", estimate={self.estimate!r}"
        return f"{self.verdict.value} ({self.method.value}{est})"


def blowup_integrand(h: ScalarFn, n: int, s):
    """The dichotomy integrand h(s)^(-1/n) * s^(1/n - 1) at s > 0: a float
    for a scalar s, elementwise for an array.  NumericFailureError where h or
    the integrand is not a finite float (h subnormal there)."""
    check_int("n", n)
    s = np.asarray(s, dtype=float)
    hv = h.eval_array(s)
    bad = np.flatnonzero(~(hv > 0.0) | np.isinf(hv))  # nan counts as <= 0
    if len(bad):
        at, value = float(s.flat[bad[0]]), float(hv.flat[bad[0]])
        if value > 0.0:
            raise NumericFailureError(f"{h.spec_text} is not finite at s = {at!r}")
        raise SingularIntegrandError(
            f"{h.spec_text} = {value!r} <= 0 at s = {at!r}: integrand singular", where=at)
    with np.errstate(over="ignore"):
        out = hv ** (-1.0 / n) * s ** (1.0 / n - 1.0)
    bad = np.flatnonzero(np.isinf(out))
    if len(bad):
        at, value = float(s.flat[bad[0]]), float(hv.flat[bad[0]])
        raise NumericFailureError(f"the integrand is not finite at s = {at!r}, where {h.spec_text} = {value!r}")
    return float(out) if out.ndim == 0 else out


def classify(h: ScalarFn, n: int) -> IntegralVerdict:
    """Decide convergence of I(h, n); see module docstring."""
    return _classify(h, n, 1.0, 0.0)


def classify_scaled(h: ScalarFn, n: int, alpha: float) -> IntegralVerdict:
    """Decide convergence of int_1^inf h(alpha*s)^(-1/n) s^(1/n-1) ds.

    By the substitution zeta = alpha*s the verdict agrees with
    :func:`classify` whenever both are decisive; only the estimate changes.
    """
    if not (alpha > 0.0):
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    return _classify(h, n, float(alpha), 0.0)


def classify_from(h: ScalarFn, n: int, u0: float) -> IntegralVerdict:
    """Decide convergence of int_u0^inf h(U)^(-1/n) U^(1/n-1) dU.

    That is u0^(1/n) times :func:`classify_scaled`'s integral at alpha = u0,
    n times the time F(inf) that u' = n u^(1-1/n) h(u)^(1/n) takes from u0 to
    infinity.  The closed forms raise u0 to one power, (1 - lam)/n, so the
    estimate is a float wherever the integral is, even where the scaled
    integral alone under- or overflows (u0 = 1e300, h = s^2).
    """
    n = check_int("n", n)
    if not (u0 > 0.0):
        raise InvalidParameterError(f"u0 must be > 0, got {u0}")
    return _classify(h, n, float(u0), 1.0 / n)


def _classify(h: ScalarFn, n: int, scale: float, lift: float) -> IntegralVerdict:
    """The verdict at scale, with its estimate times scale^lift; a numeric
    verdict's evidence stays the integral at scale, as its panels ran it."""
    n = check_int("n", n)

    exact = _exact_verdict(h, n, scale, lift)
    if exact is not None:
        verdict, est = exact
        return _verdict(verdict, Method.EXACT_FAMILY, est, cumulative=0.0 if est is None else est)
    return _numeric_verdict(_at_scale(h, scale), n, scale ** lift)


def _at_scale(h: ScalarFn, scale: float) -> ScalarFn:
    """s -> h(scale*s) for the numeric path: h itself at scale 1, where scale*s is s."""
    return h if scale == 1.0 else scaled(h, scale, label=f"scaled({h.spec_text}, {scale!r})")


def _verdict(verdict, method, estimate=None, panels_used=0, *,
             cumulative=0.0, last_panel=0.0, cap_hit=False, tail_bound=None) -> IntegralVerdict:
    return IntegralVerdict(
        verdict=verdict, estimate=estimate, panels_used=panels_used, method=method,
        evidence={"cumulative": cumulative, "last_panel": last_panel,
                  "cap_hit": cap_hit, "tail_bound": tail_bound},
    )


def _exact_verdict(h: ScalarFn, n: int, scale: float, lift: float) -> Optional[tuple]:
    """(verdict, estimate times scale^lift) for the families decided in closed
    form, else None."""
    if h.family is Family.POWER:
        (lam,) = h.params
        if lam <= 1.0:
            return Verdict.DIVERGES, None
        # integrand scale^(-lam/n) * s^((1-lam)/n - 1): exact antiderivative
        return Verdict.CONVERGES, _power(scale, lift - lam / n) * n / (lam - 1.0)

    if h.family is Family.POWER_LOG:
        lam, sigma, shift = h.params
        if lam < 1.0 or (lam == 1.0 and sigma <= n):
            return Verdict.DIVERGES, None
        return Verdict.CONVERGES, _powerlog_estimate(lam, sigma, shift, n, scale, lift)

    lam = h.asymptotic_exponent
    if lam is not None and lam != 1.0:
        if lam < 1.0:
            return Verdict.DIVERGES, None
        # the estimate only where the rest past the table is within QUAD_TOL of I
        total, _, _, tail = _custom_integral(_at_scale(h, scale), n)
        return Verdict.CONVERGES, scale ** lift * total if tail <= QUAD_TOL * total else None

    return None


def _power(scale: float, e: float) -> float:
    """scale^e, inf where that overflows: a convergent integral past the float range."""
    try:
        return scale ** e
    except OverflowError:
        return math.inf


def _in_y(h: ScalarFn, n: int):
    """The dichotomy integrand as a function of y = log s: blowup_integrand(e^y) e^y."""
    return lambda y: blowup_integrand(h, n, np.exp(y)) * np.exp(y)


def _y_integral(fy, y_end: float) -> float:
    """int_0^y_end fy dy on panels that double in width up to y_end."""
    return integral(fy, np.append(0.0, y_end / 2.0 ** np.arange(10, -1, -1)))


def _powerlog_estimate(lam, sigma, shift, n, scale, lift) -> float:
    """I times scale^lift for h = s^lam log(shift+s)^sigma in the convergent cases.

    In y = log s, with a = (lam - 1)/n and p = sigma/n,
        I = scale^(-lam/n) int_0^inf e^(-a y) log(shift + scale e^y)^(-p) dy.
    For lam > 1 the integral stops at y = 746/a, past which e^(-a y)
    underflows to 0.  On the borderline lam = 1 (needs p > 1) it stops at
    Y = 700, where the log is y + log(scale) to double precision, and the
    tail (Y + log(scale))^(1-p)/(p-1) is added in closed form."""
    a, p = (lam - 1.0) / n, sigma / n
    log_shift, log_scale = math.log(shift), math.log(scale)

    def fy(y):
        return np.exp(-a * y) * np.logaddexp(log_shift, y + log_scale) ** -p

    Y = 746.0 / a if lam > 1.0 else 700.0
    tail = 0.0 if lam > 1.0 else (Y + log_scale) ** (1.0 - p) / (p - 1.0)
    return _power(scale, lift - lam / n) * (_y_integral(fy, Y) + tail)


def _custom_integral(h: ScalarFn, n: int) -> tuple:
    """(total, last panel, panels run, rest) of I for a custom h, in y = log s from 0 to
    y_end, the last unit step of y < Y_MAX with h finite, on :func:`_y_integral`'s panels
    run one by one.  The rest past y_end is quadrature.rest of the last two unit steps,
    or inf where the running total passes DIVERGE_CAP: the table stops there, before a
    growing integrand can overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(h.eval_array(np.exp(np.arange(1.0, Y_MAX))))
    y_end = float(np.argmin(np.append(finite, False)))
    fy = _in_y(h, n)
    lo = total = 0.0
    for j, hi in enumerate(y_end / 2.0 ** np.arange(10, -1, -1)):
        panel, lo = integral(fy, [lo, hi]), hi
        total += panel
        if total >= DIVERGE_CAP:
            return total, panel, j + 1, math.inf
    return total, panel, j + 1, rest(fy(np.arange(max(y_end - 1.0, 0.0), y_end + 1.0)))


def _numeric_verdict(h: ScalarFn, n: int, weight: float) -> IntegralVerdict:
    """Diverges once the running integral passes DIVERGE_CAP, Converges with weight
    times I where the rest is within QUAD_TOL of I, else Inconclusive."""
    total, panel, used, tail = _custom_integral(h, n)
    if total >= DIVERGE_CAP:
        return _verdict(Verdict.DIVERGES, Method.NUMERIC_HEURISTIC, None, used,
                        cumulative=total, last_panel=panel, cap_hit=True)
    verdict, estimate = ((Verdict.CONVERGES, weight * total) if tail <= QUAD_TOL * total
                         else (Verdict.INCONCLUSIVE, None))
    return _verdict(verdict, Method.NUMERIC_HEURISTIC, estimate, used,
                    cumulative=total, last_panel=panel, tail_bound=tail)
