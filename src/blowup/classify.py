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
routine cannot prove divergence, it can only exceed a cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .errors import (
    InvalidParameterError,
    NumericFailureError,
    SingularIntegrandError,
    check_int,
)
from .functions import Family, ScalarFn

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
PANEL_TOL = 1e-12      # per-panel quadrature tolerance (abs and rel)


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


def blowup_integrand(h: ScalarFn, n: int, s: float, *, scale: float = 1.0) -> float:
    """The dichotomy integrand h(scale*s)^(-1/n) * s^(1/n - 1) at s > 0."""
    check_int("n", n)
    hv = float(h(scale * s))
    if not hv > 0.0:
        raise SingularIntegrandError(
            f"h({scale * s!r}) = {hv!r} <= 0: integrand singular", where=float(s)
        )
    if not math.isfinite(hv):
        raise NumericFailureError(f"h({scale * s!r}) is not finite")
    return hv ** (-1.0 / n) * s ** (1.0 / n - 1.0)


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
    return _panel_classify(h, n, scale)


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

    if h.family is Family.CONSTANT:
        (c,) = h.params
        if c <= 0.0:
            raise SingularIntegrandError(f"constant h = {c} is not positive", where=1.0)
        return Verdict.DIVERGES, None  # exponent 0 <= 1

    lam = h.asymptotic_exponent
    if lam is not None and lam != 1.0:
        if lam < 1.0:
            return Verdict.DIVERGES, None
        return Verdict.CONVERGES, _generic_converging_estimate(h, n, scale)

    return None


def _log_shift_exp(y: float, shift: float, scale: float) -> float:
    """log(shift + scale * e^y), stable for large y."""
    if y > 40.0:
        return y + math.log(scale) + math.log1p(shift / scale * math.exp(-y))
    return math.log(shift + scale * math.exp(y))


def _powerlog_estimate(lam, sigma, shift, n, scale) -> float:
    """I for h = s^lam log(shift+s)^sigma in the convergent cases.

    Uses the substitution s = e^y:
        I = scale^(-lam/n) int_0^inf e^(y(1-lam)/n) log(shift+scale e^y)^(-sigma/n) dy
    For lam > 1 the integrand decays exponentially; on the borderline
    lam = 1 (needs sigma > n) the decay is y^(-sigma/n) and the tail beyond
    Y is appended analytically.
    """
    pref = scale ** (-lam / n)
    p = sigma / n

    def fy(y):
        return math.exp(y * (1.0 - lam) / n) * _log_shift_exp(y, shift, scale) ** (-p)

    if lam > 1.0:
        val, _ = quad(fy, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        return pref * val
    # lam == 1, p > 1: integrand ~ (y + log(scale))^(-p)
    Y = 700.0
    val, _ = quad(fy, 0.0, Y, epsabs=1e-13, epsrel=1e-12, limit=400)
    tail = (Y + math.log(scale)) ** (1.0 - p) / (p - 1.0)
    return pref * (val + tail)


def _generic_converging_estimate(h: ScalarFn, n: int, scale: float) -> Optional[float]:
    """Best-effort estimate for a custom fn with declared exponent > 1."""

    def fy(y):
        try:
            return blowup_integrand(h, n, math.exp(y), scale=scale) * math.exp(y)
        except (OverflowError, NumericFailureError):
            return 0.0  # h huge => integrand underflows

    try:
        val, err = quad(fy, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400)
    except SingularIntegrandError:
        raise
    except Exception:
        return None
    if not math.isfinite(val) or err > 1e-4 * max(abs(val), 1.0):
        return None
    return val


def _panel_classify(h: ScalarFn, n: int, scale: float) -> IntegralVerdict:
    def f(s):
        return blowup_integrand(h, n, s, scale=scale)

    cumulative = 0.0
    prev_panel = None
    last_panel = 0.0
    streak = 0
    for j in range(J_MAX):
        lo, hi = 2.0 ** j, 2.0 ** (j + 1)
        panel, _ = quad(f, lo, hi, epsabs=PANEL_TOL, epsrel=PANEL_TOL, limit=200)
        if not math.isfinite(panel):
            raise NumericFailureError(f"quadrature failed on panel [{lo}, {hi}]")
        cumulative += panel
        last_panel = panel

        if cumulative >= DIVERGE_CAP:
            return _verdict(Verdict.DIVERGES, Method.NUMERIC_HEURISTIC, None, j + 1,
                            cumulative=cumulative, last_panel=last_panel, cap_hit=True)

        if panel / max(cumulative, 1.0) < TAIL_EPS:
            streak += 1
        else:
            streak = 0

        if streak >= TAIL_STREAK and prev_panel is not None and prev_panel > 0.0:
            ratio = panel / prev_panel
            if ratio < 0.9 and _integrand_decays(f, hi):
                tail = panel * ratio / (1.0 - ratio)
                return _verdict(Verdict.CONVERGES, Method.NUMERIC_HEURISTIC, cumulative + tail, j + 1,
                                cumulative=cumulative, last_panel=last_panel, tail_bound=tail)
        prev_panel = panel

    return _verdict(Verdict.INCONCLUSIVE, Method.NUMERIC_HEURISTIC, None, J_MAX,
                    cumulative=cumulative, last_panel=last_panel)


def _integrand_decays(f, s0: float) -> bool:
    """Sampled check that the integrand is decaying beyond s0."""
    vals = [f(s0 * 2.0 ** i) for i in range(4)]
    return all(vals[i + 1] <= vals[i] * 1.0000001 for i in range(3))
