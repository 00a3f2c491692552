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
declared asymptotic exponent != 1); everything else goes through a dyadic
panel quadrature with honest Inconclusive as the fallback — a numeric
routine cannot prove divergence, it can only exceed a cap.  Every piece of
I = int_0^inf h(e^y)^(-1/n) e^(y/n) dy is computed in y = log s by
:mod:`blowup.quadrature`.
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
from .quadrature import QUAD_TOL, integral, rest

__all__ = [
    "Verdict",
    "Method",
    "IntegralVerdict",
    "blowup_integrand",
    "classify",
    "classify_scaled",
]


class Verdict(str, Enum):
    CONVERGES = "Converges"
    DIVERGES = "Diverges"
    INCONCLUSIVE = "Inconclusive"


class Method(str, Enum):
    EXACT_FAMILY = "ExactFamily"
    NUMERIC_HEURISTIC = "NumericHeuristic"


# Caps and thresholds of the numeric heuristic
DIVERGE_CAP = 1e9      # cumulative integral beyond this -> Diverges
TAIL_EPS = 1e-10       # relative panel contribution for convergence
TAIL_STREAK = 4        # consecutive small panels required
J_MAX = 256            # dyadic panels [2^j, 2^(j+1)], j < J_MAX


@dataclass(frozen=True)
class IntegralVerdict:
    verdict: Verdict
    estimate: Optional[float]     # value of the integral, when convergent
    panels_used: int
    method: Method
    evidence: dict = field(default_factory=dict)

    def __str__(self):
        est = "" if self.estimate is None else f", estimate={self.estimate!r}"
        return f"{self.verdict.value} ({self.method.value}{est})"


def blowup_integrand(h: ScalarFn, n: int, s):
    """The dichotomy integrand h(s)^(-1/n) * s^(1/n - 1) at s > 0: a float
    for a scalar s, elementwise for an array."""
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
    out = hv ** (-1.0 / n) * s ** (1.0 / n - 1.0)
    return float(out) if out.ndim == 0 else out


def classify(h: ScalarFn, n: int) -> IntegralVerdict:
    """Decide convergence of I(h, n); see module docstring."""
    return _classify(h, n, 1.0)


def classify_scaled(h: ScalarFn, n: int, alpha: float) -> IntegralVerdict:
    """Decide convergence of int_1^inf h(alpha*s)^(-1/n) s^(1/n-1) ds.

    By the substitution zeta = alpha*s the verdict agrees with
    :func:`classify` whenever both are decisive; only the estimate changes.
    """
    if not (alpha > 0.0):
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    return _classify(h, n, float(alpha))


def _classify(h: ScalarFn, n: int, scale: float) -> IntegralVerdict:
    n = check_int("n", n)

    exact = _exact_verdict(h, n, scale)
    if exact is not None:
        verdict, est = exact
        return _verdict(verdict, Method.EXACT_FAMILY, est, cumulative=0.0 if est is None else est)
    return _panel_classify(_at_scale(h, scale), n)


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


def _exact_verdict(h: ScalarFn, n: int, scale: float) -> Optional[tuple]:
    """(verdict, estimate) for the families decided in closed form, else None."""
    if h.family is Family.POWER:
        (lam,) = h.params
        if lam <= 1.0:
            return Verdict.DIVERGES, None
        # integrand scale^(-lam/n) * s^((1-lam)/n - 1): exact antiderivative
        return Verdict.CONVERGES, scale ** (-lam / n) * n / (lam - 1.0)

    if h.family is Family.POWER_LOG:
        lam, sigma, shift = h.params
        if lam < 1.0 or (lam == 1.0 and sigma <= n):
            return Verdict.DIVERGES, None
        return Verdict.CONVERGES, _powerlog_estimate(lam, sigma, shift, n, scale)

    lam = h.asymptotic_exponent
    if lam is not None and lam != 1.0:
        if lam < 1.0:
            return Verdict.DIVERGES, None
        return Verdict.CONVERGES, _declared_estimate(_at_scale(h, scale), n)

    return None


def _in_y(h: ScalarFn, n: int):
    """The dichotomy integrand as a function of y = log s: blowup_integrand(e^y) e^y."""
    return lambda y: blowup_integrand(h, n, np.exp(y)) * np.exp(y)


def _y_integral(fy, y_end: float) -> float:
    """int_0^y_end fy dy on panels that double in width up to y_end."""
    return integral(fy, np.append(0.0, y_end / 2.0 ** np.arange(10, -1, -1)))


def _powerlog_estimate(lam, sigma, shift, n, scale) -> float:
    """I for h = s^lam log(shift+s)^sigma in the convergent cases.

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
    return scale ** (-lam / n) * (_y_integral(fy, Y) + tail)


def _declared_estimate(h: ScalarFn, n: int) -> Optional[float]:
    """I for a custom h with declared exponent > 1, up to the last unit step of y < 710
    with h finite; None when the rest past it (as in the inversion) exceeds QUAD_TOL of I."""
    y_end = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for y in range(1, 710):
            try:
                if not math.isfinite(h(math.exp(y))):
                    break
            except OverflowError:  # a float ** overflows where numpy gives inf
                break
            y_end = float(y)
    fy = _in_y(h, n)
    total = _y_integral(fy, y_end)
    return total if rest(fy(np.arange(max(y_end - 1.0, 0.0), y_end + 1.0))) <= QUAD_TOL * total else None


def _panel_classify(h: ScalarFn, n: int) -> IntegralVerdict:
    cumulative = prev_panel = 0.0
    streak = 0
    for j in range(J_MAX):
        # the dyadic panel [2^j, 2^(j+1)] of s is [j log 2, (j+1) log 2] in y
        panel = integral(_in_y(h, n), np.array([j, j + 1.0]) * math.log(2.0))
        if not math.isfinite(panel):
            raise NumericFailureError(f"quadrature failed on panel [{2.0 ** j}, {2.0 ** (j + 1)}]")
        cumulative += panel

        if cumulative >= DIVERGE_CAP:
            return _verdict(Verdict.DIVERGES, Method.NUMERIC_HEURISTIC, None, j + 1,
                            cumulative=cumulative, last_panel=panel, cap_hit=True)

        if panel / max(cumulative, 1.0) < TAIL_EPS:
            streak += 1
        else:
            streak = 0

        ratio = panel / prev_panel if prev_panel > 0.0 else 1.0
        if streak >= TAIL_STREAK and ratio < 0.9:
            # sampled check that the integrand in s decays beyond the panel;
            # where h has overflowed to inf the integrand is 0, decayed
            s = 2.0 ** (j + 1 + np.arange(4))
            with np.errstate(over="ignore"):
                finite = h.eval_array(s) != math.inf
            f = np.zeros(len(s))
            f[finite] = blowup_integrand(h, n, s[finite])
            if np.all(f[1:] <= f[:-1] * 1.0000001):
                tail = panel * ratio / (1.0 - ratio)
                return _verdict(Verdict.CONVERGES, Method.NUMERIC_HEURISTIC, cumulative + tail, j + 1,
                                cumulative=cumulative, last_panel=panel, tail_bound=tail)
        prev_panel = panel

    return _verdict(Verdict.INCONCLUSIVE, Method.NUMERIC_HEURISTIC, None, J_MAX,
                    cumulative=cumulative, last_panel=panel)
