"""Forward integration of the order-m problem and blow-up detection.

The Cauchy problem

    w^(m) = f(t, w, w', ..., w^(m-1)),    w^(i)(0) = a_i >= 0,

with 0 <= f(t, x) <= q(t) h(x_k) is integrated as the first-order system
y_i' = y_{i+1}, y_{m-1}' = f.  The integrator is an embedded Dormand-Prince
5(4) pair with PI step-size control, written here rather than taken from a
library so that threshold-escape events, forced restarts at the
coefficient's jump points, and the Hermite dense output are fully under
control (all three are load-bearing for blow-up time estimation).

Everything in the intended regime (q, h >= 0, a >= 0) is monotone: w^(m)
is nonnegative, so every lower derivative is nondecreasing.  Blow-up
manifests as escape through a ladder of thresholds; the finite blow-up
time is estimated by Richardson/Aitken extrapolation of the escape times,
which needs no knowledge of the blow-up exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NumericFailureError,
    check_int,
)
from .functions import ScalarFn

__all__ = [
    "ProblemSpec",
    "Trajectory",
    "BlowupEvent",
    "BlowupKind",
    "BlowupReport",
    "integrate",
    "detect_blowup",
    "aitken_blowup_estimate",
]

ESCAPE_THRESHOLD = 1e12
MIN_STEP_FACTOR = 1e-13
DEFAULT_THRESHOLDS = tuple(np.geomspace(10.0, 1e12, 12))
# Internal multiplier on the user tolerance: the per-step estimate controls
# the embedded 4th-order error while the 5th-order solution is propagated,
# so the margin buys global accuracy near the user tol on unit-scale spans.
TOL_SAFETY = 0.05

@dataclass(frozen=True)
class ProblemSpec:
    """Order-m Cauchy problem data.

    ``f_override``, when given, is called as f(t, y) with y the state
    vector (w, ..., w^(m-1)) and must satisfy 0 <= f <= q(t) h(y[k]); the
    default right-hand side is q(t) h(y[k]) itself.
    """

    m: int
    k: int
    a: tuple
    q: ScalarFn
    h: ScalarFn
    f_override: Optional[Callable[[float, np.ndarray], float]] = None

    def __post_init__(self):
        m = check_int("m", self.m)
        k = check_int("k", self.k, 0, m - 1, rule="must satisfy 0 <= k <= m-1")
        a = tuple(float(x) for x in self.a)
        if len(a) != self.m:
            raise InvalidParameterError(f"need {self.m} initial values, got {len(a)}")
        if any(x < 0.0 for x in a):
            raise InvalidParameterError("initial values must be >= 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        """Reduced order m - k."""
        return self.m - self.k

    def rhs(self, t: float, y: Sequence[float]) -> float:
        """Top derivative f(t, y) of the first-order system, for the state
        y = (w, ..., w^(m-1)) given as floats.

        q and h are evaluated through their ``.fn`` directly: calling the
        ScalarFn only forwards to it, and this runs six times per step.  The
        product q(t) h(y[k]) is taken as is when it is a Python float.  Any
        other product (a numpy scalar from powerlog's ``np.log``, a complex
        from a fractional power of a negative stage value) is recomputed as
        float(q) * float(h), with a complex h read as nan, which then fails
        the finiteness check so that the step is retried.
        """
        try:
            qv, hv = self.q.fn(t), self.h.fn(y[self.k])
        except OverflowError:  # Python's float ** raises where numpy gives inf
            raise NumericFailureError(f"q or h overflowed at t={t!r}, y={y!r}") from None
        qh = qv * hv
        if qh.__class__ is not float:
            # a fractional power of a negative stage value is complex for a
            # Python float (nan for numpy's): not finite either way
            qh = float(qv) * (math.nan if isinstance(hv, complex) else float(hv))
        if self.f_override is not None:
            fv = float(self.f_override(t, np.array(y)))
            # contract: 0 <= f <= q h, with float-scale slack
            slack = 1e-12 * (1.0 + abs(qh))
            if fv < -slack or fv > qh + slack:
                raise InvalidParameterError(
                    f"f_override out of [0, q*h] bounds at t={t!r}: f={fv!r}, q*h={qh!r}"
                )
        else:
            fv = qh
        if not math.isfinite(fv):
            raise NumericFailureError(f"right-hand side not finite at t={t!r}, y={y!r}")
        return fv


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration nodes with Hermite dense output.

    ``ys[i]`` is the state (w, ..., w^(m-1)) at ``ts[i]``; ``dys[i]`` is its
    time derivative (y[1:], f).  Because the state packs consecutive
    derivatives of one function, every component except the top one also has
    an exact second derivative at the nodes (component i+2, or f itself for
    i = m-2), so dense output is quintic Hermite there and cubic Hermite
    only for the top component.  A jump point of q where integration
    restarted appears twice in ``ts``: first with the left-limit derivative
    that closes the cell before it, then with the right-limit one that opens
    the cell after it.  Values are immutable once returned and safe to share.
    """

    ts: np.ndarray
    ys: np.ndarray
    dys: np.ndarray
    m: int
    tol: float

    def __post_init__(self):
        for name in ("ts", "ys", "dys"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def __call__(self, t):
        """Dense state at time(s) t within the grid span; shape (..., m)."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.shape == ()
        tq = np.atleast_1d(t_arr)
        if np.any(tq < self.ts[0] - 1e-12) or np.any(tq > self.ts[-1] * (1 + 1e-12) + 1e-12):
            raise InvalidParameterError("dense output requested outside the grid span")
        i = np.clip(np.searchsorted(self.ts, tq, side="right") - 1, 0, len(self.ts) - 2)
        h = (self.ts[i + 1] - self.ts[i])[:, None]
        th = np.clip(((tq - self.ts[i])[:, None]) / h, 0.0, 1.0)
        y0, y1 = self.ys[i], self.ys[i + 1]
        out = np.empty((len(tq), self.m))

        # top component: cubic Hermite
        out[:, -1] = _cubic_hermite(
            th[:, 0], h[:, 0], y0[:, -1], y1[:, -1], self.dys[i, -1], self.dys[i + 1, -1]
        )

        if self.m > 1:
            # lower components: quintic Hermite (two-point Taylor) with exact
            # second derivatives s = (y[2:], f) at both ends
            d0, d1 = self.dys[i][:, :-1] * h, self.dys[i + 1][:, :-1] * h
            s0 = self.dys[i][:, 1:] * h * h
            s1 = self.dys[i + 1][:, 1:] * h * h
            t2, t3 = th * th, th ** 3
            t4, t5 = th ** 4, th ** 5
            A0 = 1 - 10 * t3 + 15 * t4 - 6 * t5
            B0 = th - 6 * t3 + 8 * t4 - 3 * t5
            C0 = 0.5 * (t2 - 3 * t3 + 3 * t4 - t5)
            A1 = 10 * t3 - 15 * t4 + 6 * t5
            B1 = -4 * t3 + 7 * t4 - 3 * t5
            C1 = 0.5 * (t3 - 2 * t4 + t5)
            out[:, :-1] = (
                A0 * y0[:, :-1]
                + B0 * d0
                + C0 * s0
                + A1 * y1[:, :-1]
                + B1 * d1
                + C1 * s1
            )
        return out[0] if scalar else out

    def component(self, i: int):
        """Callable t -> w^(i)(t)."""
        return lambda t: self(t)[..., i]


@dataclass(frozen=True)
class BlowupEvent:
    """Escape through the threshold (or step-size collapse) before T."""

    t_event: float
    reason: str  # "escape" | "step-collapse"
    threshold: Optional[float]
    trajectory: Trajectory


class BlowupKind(str, Enum):
    GLOBAL_UP_TO_HORIZON = "GlobalUpToHorizon"
    BLOW_UP = "BlowUp"


@dataclass(frozen=True)
class BlowupReport:
    kind: BlowupKind
    horizon: float
    escape_thresholds: tuple  # ((M, t_M), ...)
    t_blow_estimate: Optional[float] = None
    t_blow_interval: Optional[tuple] = None
    trajectory: Optional[Trajectory] = None


def _validate_tol(tol: float) -> float:
    if not (1e-14 < tol < 1e-2):
        raise InvalidParameterError(f"tol must lie in (1e-14, 1e-2), got {tol!r}")
    return float(tol)


def integrate(p: ProblemSpec, T: float, tol: float = 1e-9):
    """Integrate up to T; returns a Trajectory, or a BlowupEvent if the
    state escapes ESCAPE_THRESHOLD (or the step collapses) first."""
    result, _ = _integrate_events(p, T, tol, (), ESCAPE_THRESHOLD)
    return result


def _cubic_hermite(th, h, y0, y1, d0, d1):
    """Cubic Hermite interpolant at th = (t - t0)/h of a cell of width h, from
    the end values y0, y1 and end derivatives d0, d1."""
    h00 = (1 + 2 * th) * (1 - th) ** 2
    h10 = th * (1 - th) ** 2
    h01 = th * th * (3 - 2 * th)
    h11 = th * th * (th - 1)
    return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1


def _crossing_time(t0, t1, y0, y1, d0, d1, level):
    """First time the max-component cubic Hermite interpolant of the cell
    [t0, t1] reaches ``level``: bisection on floats until the midpoint no
    longer splits the bracket."""
    w = t1 - t0
    cells = list(zip(y0, y1, d0, d1))
    lo, hi = t0, t1
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if max(_cubic_hermite((mid - t0) / w, w, *c) for c in cells) < level:
            lo = mid
        else:
            hi = mid
    return hi


def _segment_stops(p: ProblemSpec, T: float) -> list[float]:
    stops = [b for b in p.q.breakpoints if 0.0 < b < T]
    return sorted(set(stops)) + [T]


def _integrate_events(
    p: ProblemSpec,
    T: float,
    tol: float,
    thresholds: Sequence[float],
    escape_threshold: float,
):
    """Core loop.  Returns (Trajectory | BlowupEvent, {M: t_M crossings})."""
    tol = _validate_tol(tol)
    if not (T > 0.0):
        raise InvalidParameterError(f"T must be > 0, got {T!r}")

    y = list(p.a)
    crossings: dict[float, float] = {}
    pending = sorted(float(M) for M in thresholds)

    def finish(partial=False, t_event=None, reason=None, threshold=None):
        if len(ts) > 1 and ts[-1] == ts[-2]:  # stopped right at a restart
            del ts[-1], ys[-1], dys[-1]
        traj = Trajectory(
            ts=np.array(ts), ys=np.array(ys), dys=np.array(dys), m=p.m, tol=tol
        )
        if not partial:
            return traj, crossings
        return (
            BlowupEvent(
                t_event=float(t_event), reason=reason, threshold=threshold, trajectory=traj
            ),
            crossings,
        )

    # exact zero solution: all-zero data and h(0) = 0 (default right-hand side)
    if p.f_override is None and not any(y) and float(p.h(0.0)) == 0.0:
        ts, ys, dys = [0.0, float(T)], [y, y], [y, y]
        return finish()

    # The state, stage states and stage slopes are lists of floats: numpy's
    # per-call overhead dominates on states of one to three components.  A
    # slope is (y[1:], f); only its top component calls the right-hand side.
    rhs = p.rhs
    t = 0.0
    f = y[1:] + [rhs(t, y)]
    ts, ys, dys = [t], [y], [f]

    # initial escape check (data may already sit above thresholds)
    while pending and max(y) >= pending[0]:
        crossings[pending.pop(0)] = 0.0
    if max(map(abs, y)) >= escape_threshold:
        return finish(partial=True, t_event=0.0, reason="escape", threshold=escape_threshold)

    eff_tol = tol * TOL_SAFETY
    h = min(0.01 * (1.0 + max(map(abs, y))) / (1.0 + max(map(abs, f))), T / 10.0)
    err_prev = 1.0

    for seg_end in _segment_stops(p, T):
        if t >= seg_end:
            continue
        # within a segment stay on its own branch of q: stage times that hit
        # the right endpoint must not see the jump's right limit
        hi = math.nextafter(seg_end, -math.inf)

        # re-evaluate at the segment start: q may jump there, so a restart
        # inside the span repeats the node with the right-limit derivative
        f = y[1:] + [rhs(t, y)]
        if t > 0.0:
            ts.append(t)
            ys.append(y)
            dys.append(f)
        while t < seg_end:
            h = min(h, seg_end - t)
            min_step = MIN_STEP_FACTOR * max(1.0, abs(t))
            if h < min_step:
                return finish(partial=True, t_event=t, reason="step-collapse", threshold=None)

            # stage times stay inside the segment unless this step reaches
            # its end; min(., hi) would leave the others unchanged
            t2, t3, t4, t5, t6 = t + 1 / 5 * h, t + 3 / 10 * h, t + 4 / 5 * h, t + 8 / 9 * h, t + h
            if t6 > hi:
                t2, t3, t4, t5, t6 = min(t2, hi), min(t3, hi), min(t4, hi), min(t5, hi), hi

            # Dormand-Prince 5(4) stages; the 5th-order weights equal the
            # seventh stage's row (FSAL), so y_new is the seventh stage state
            try:
                s = [v + h * (1 / 5 * a) for v, a in zip(y, f)]
                k2 = s[1:]
                k2.append(rhs(t2, s))
                s = [v + h * (3 / 40 * a + 9 / 40 * b) for v, a, b in zip(y, f, k2)]
                k3 = s[1:]
                k3.append(rhs(t3, s))
                s = [v + h * (44 / 45 * a - 56 / 15 * b + 32 / 9 * c)
                     for v, a, b, c in zip(y, f, k2, k3)]
                k4 = s[1:]
                k4.append(rhs(t4, s))
                s = [v + h * (19372 / 6561 * a - 25360 / 2187 * b + 64448 / 6561 * c
                              - 212 / 729 * d) for v, a, b, c, d in zip(y, f, k2, k3, k4)]
                k5 = s[1:]
                k5.append(rhs(t5, s))
                s = [v + h * (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c
                              + 49 / 176 * d - 5103 / 18656 * e)
                     for v, a, b, c, d, e in zip(y, f, k2, k3, k4, k5)]
                k6 = s[1:]
                k6.append(rhs(t6, s))
                y_new = [v + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                                  - 2187 / 6784 * e + 11 / 84 * g)
                         for v, a, c, d, e, g in zip(y, f, k3, k4, k5, k6)]
                f_new = y_new[1:]
                f_new.append(rhs(t6, y_new))
            except NumericFailureError:
                # retry with a smaller step before giving up
                h *= 0.25
                if h < min_step:
                    raise
                continue
            # embedded error (5th- minus 4th-order weights), scaled RMS norm
            err = math.sqrt(sum([(r := (
                h * (71 / 57600 * a - 71 / 16695 * c + 71 / 1920 * d - 17253 / 339200 * e
                     + 22 / 525 * g - 1 / 40 * k)
                / (eff_tol + eff_tol * max(abs(v), abs(w)))
            )) * r for v, w, a, c, d, e, g, k in zip(y, y_new, f, k3, k4, k5, k6, f_new)]) / len(y))

            if not math.isfinite(err):
                h *= 0.25
                continue
            if err > 1.0:
                h *= max(0.2, 0.9 * err ** (-0.2))
                continue

            # accepted
            t_new = t + h

            # threshold crossings inside this step (components are monotone
            # in the intended regime; bisection is robust regardless)
            while pending and max(y_new) >= pending[0]:
                M = pending.pop(0)
                crossings[M] = _crossing_time(t, t_new, y, y_new, f, f_new, M)

            if max(map(abs, y_new)) >= escape_threshold:
                t_star = _crossing_time(t, t_new, y, y_new, f, f_new, escape_threshold)
                y_star = [
                    _cubic_hermite((t_star - t) / (t_new - t), t_new - t, *c)
                    for c in zip(y, y_new, f, f_new)
                ]
                ts.append(t_star)
                ys.append(y_star)
                dys.append(y_star[1:] + [rhs(min(t_star, hi), y_star)])
                return finish(
                    partial=True, t_event=t_star, reason="escape", threshold=escape_threshold
                )

            ts.append(t_new)
            ys.append(y_new)
            dys.append(f_new)
            t, y, f = t_new, y_new, f_new

            # PI controller (Hairer-style exponents for a 5(4) pair)
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, fac))
            err_prev = max(err, 1e-10)

    return finish()


def detect_blowup(
    p: ProblemSpec,
    *,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    horizon: float = 50.0,
    tol: float = 1e-10,
) -> BlowupReport:
    """Escape-time ladder + extrapolation estimate of the blow-up time.

    Integrates until every threshold M has been escaped (recording t_M) or
    the horizon is reached.  With the ladder escaped (or the step size
    collapsed, which is escape to numerical infinity) the blow-up time is
    estimated by Richardson/Aitken extrapolation of the t_M sequence and
    bracketed by [t_last, estimate + margin]; otherwise the problem is
    reported global up to the horizon.
    """
    thresholds = [float(M) for M in thresholds]
    if not thresholds:
        raise InvalidParameterError("thresholds must list at least one level")
    if any(M < 10.0 for M in thresholds):
        raise InvalidParameterError("thresholds must each be >= 10")
    if any(hi <= lo for lo, hi in zip(thresholds, thresholds[1:])):
        raise InvalidParameterError("thresholds must be strictly increasing")

    result, crossings = _integrate_events(p, horizon, tol, thresholds, thresholds[-1])
    traj = result.trajectory if isinstance(result, BlowupEvent) else result
    escapes = tuple((M, crossings[M]) for M in thresholds if M in crossings)

    times = [tM for _, tM in escapes]
    if any(b < a for a, b in zip(times, times[1:])):
        raise InternalConsistencyError(f"escape times not monotone: {times}")

    # A step-size collapse is escape to numerical infinity: very fast
    # blow-ups can exhaust the step floor between two thresholds.
    collapsed = isinstance(result, BlowupEvent) and result.reason == "step-collapse"
    if len(escapes) < len(thresholds) and not (collapsed and len(escapes) >= 1):
        return BlowupReport(
            kind=BlowupKind.GLOBAL_UP_TO_HORIZON,
            horizon=float(horizon),
            escape_thresholds=escapes,
            trajectory=traj,
        )

    noise_floor = max(1e-12, 20.0 * tol) * max(1.0, times[-1])
    if len(times) >= 3:
        estimate = _extrapolate_escape_times(
            times, [M for M, _ in escapes], noise_floor
        )
    else:
        estimate = result.t_event if collapsed else times[-1]
    estimate = max(estimate, times[-1])
    margin = max(10.0 * tol * max(1.0, estimate), 0.5 * (estimate - times[-1]))
    interval = (times[-1], estimate + margin)
    return BlowupReport(
        kind=BlowupKind.BLOW_UP,
        horizon=float(horizon),
        escape_thresholds=escapes,
        t_blow_estimate=float(estimate),
        t_blow_interval=interval,
        trajectory=traj,
    )


def aitken_blowup_estimate(times: Sequence[float], noise_floor: float = 1e-12) -> float:
    """Iterated Aitken acceleration of an increasing escape-time sequence.

    Each Aitken stage maps x_j -> x_{j+2} - (dx_{j+1})^2 / (x_{j+2} - 2 x_{j+1} + x_j)
    and is exact for geometrically converging errors (power-law blow-up);
    for slower, log-type sequences a stage roughly halves the residual.
    Stages stop when second differences fall under the noise floor or the
    stage stops improving (the deepest table entries go non-monotone).
    """
    table = np.asarray(times, dtype=float)
    if len(table) == 0:
        raise InvalidParameterError("need at least one escape time")
    best = float(table[-1])
    while len(table) >= 3:
        d2 = table[2:] - 2.0 * table[1:-1] + table[:-2]
        if np.any(np.abs(d2) < noise_floor):
            break
        nxt = table[2:] - (table[2:] - table[1:-1]) ** 2 / d2
        if not np.all(np.isfinite(nxt)):
            break
        # for an increasing sequence with a finite limit every valid stage
        # must move the deepest entry forward
        if float(nxt[-1]) <= best:
            break
        table = nxt
        best = float(table[-1])
    return best


def _neville_to_zero(z: np.ndarray, t: np.ndarray) -> float:
    """Neville polynomial extrapolation of t(z) to z = 0."""
    tab = t.astype(float).copy()
    npts = len(z)
    for order in range(1, npts):
        for i in range(npts - order):
            # value at z=0 of the interpolant through z[i..i+order]
            tab[i] = (z[i + order] * tab[i] - z[i] * tab[i + 1]) / (z[i + order] - z[i])
    return float(tab[0])


def _extrapolate_escape_times(
    times: Sequence[float], thresholds: Sequence[float], noise_floor: float
) -> float:
    """Blow-up time from the escape ladder.

    Primary estimator: Richardson (Neville) extrapolation of t_M against
    z = 1/log(M) to z = 0.  For power-law blow-up t_M - T decays like a
    power of M (all z-derivatives vanish at 0), for log-driven blow-up it
    is asymptotically linear in z; polynomial extrapolation handles both
    without knowing the blow-up exponent.  Falls back to iterated Aitken
    when the polynomial estimate is not sane (must exceed the last escape
    and stay within one ladder-width of it).
    """
    t = np.asarray(times, dtype=float)
    z = 1.0 / np.log(np.asarray(thresholds, dtype=float))
    est = _neville_to_zero(z, t)
    spread = t[-1] - t[0]
    if math.isfinite(est) and t[-1] <= est <= t[-1] + max(spread, 1.0):
        return est
    return aitken_blowup_estimate(times, noise_floor=noise_floor)
