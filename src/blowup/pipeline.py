"""Order reduction, solution lifting, the level-doubling majorization
experiment, and the end-to-end classification pipeline.

The driven problem w^(m) = f(t, w, ..., w^(m-1)) with f <= q(t) h(x_k) is
handled through its reduced form: with n = m - k, the function u = w^(k)
solves u^(n) = q(t) h(u) with data a_k..a_{m-1}.  A global u lifts back by
k-fold repeated integration,

    v(t) = sum_{i<k} a_i t^i / i!  +  1/(k-1)! int_0^t (t-tau)^(k-1) u(tau) dtau,

and v dominates every admissible solution w of the original problem.

The majorization experiment realizes the comparison construction that
underpins the global-existence side: levels t_j with u(t_j) = rho^j u(t_0)
are located on the reduced solution, the reparameterized times
tau_j = tau_{j-1} + (t_j - t_{j-1}) + eps_j with eps_j = int q absorb the
coefficient, and the autonomous companion w^(n) = h(rho w) started above
the data must dominate at the mapped times: w^(i)(tau_j) >= u^(i)(t_j).
The experiment tabulates those margins; they are the checkable content of
the comparison argument at desk scale.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .classify import IntegralVerdict, Verdict, classify
from .errors import (
    InvalidParameterError,
    NumericFailureError,
    StageError,
    check_int,
)
from .functions import ScalarFn, make_constant, make_custom
from .ode import (
    DEFAULT_THRESHOLDS,
    BlowupEvent,
    BlowupKind,
    BlowupReport,
    ProblemSpec,
    Trajectory,
    detect_blowup,
    integrate,
)
from .picard import picard_solve, tower_trajectory
from .volterra import integral_image

__all__ = [
    "ReducedProblem",
    "reduce_problem",
    "lift_solution",
    "MajorizationRow",
    "MajorizationTable",
    "majorization_experiment",
    "PipelineOptions",
    "PipelineReport",
    "run_pipeline",
]

PICARD_TOL = 1e-8          # tower sup-gap tolerance
CONSISTENCY_TOL = 1e-5     # constructed vs direct sup-norm gate (criterion 11)


@dataclass(frozen=True)
class ReducedProblem:
    """u^(n) = q(t) h(u) with u^(i)(0) = a_reduced[i], n = m - k."""

    n: int
    a_reduced: tuple
    q: ScalarFn
    h: ScalarFn


def reduce_problem(p: ProblemSpec) -> ReducedProblem:
    return ReducedProblem(n=p.n, a_reduced=tuple(p.a[p.k :]), q=p.q, h=p.h)


def lift_solution(u: Trajectory, a_low: Sequence[float], k: int) -> Trajectory:
    """k-fold repeated integration of u with the low-order data a_low.

    Returns a trajectory with k + u.m components: component i < k is the
    i-th derivative of the lift, components k.. are u's own.  For k = 0 the
    input is returned unchanged.
    """
    k = check_int("k", k, 0)
    if k == 0:
        return u
    a_low = [float(x) for x in a_low]
    if len(a_low) != k:
        raise InvalidParameterError(f"need {k} low-order values, got {len(a_low)}")

    grid = u.ts
    m_new = k + u.m
    ys = np.empty((len(grid), m_new))
    ys[:, k:] = u.ys
    ys[:, :k] = integral_image(a_low, [(0, len(grid) - 1, u.ys[:, 0])], grid)

    dys = np.empty_like(ys)
    dys[:, :-1] = ys[:, 1:]
    dys[:, -1] = u.dys[:, -1]
    return Trajectory(ts=grid.copy(), ys=ys, dys=dys, m=m_new, tol=u.tol)


# ---------------------------------------------------------------------------
# majorization experiment


@dataclass(frozen=True)
class MajorizationRow:
    j: int
    t_j: float
    tau_j: float
    eps_j: float
    u_derivs: tuple
    w_derivs: tuple
    margin_min: float       # min over i of w^(i)(tau_j) - u^(i)(t_j)
    margin_min_rel: float   # min over i of margin / (1 + |u^(i)(t_j)|)


@dataclass(frozen=True)
class MajorizationTable:
    rho: float
    t0: float
    u0: float
    rows: tuple
    levels_reachable: bool
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(r.margin_min_rel >= -1e-7 for r in self.rows)


def _integral_of_q(q: ScalarFn, a: float, b: float) -> float:
    if b <= a:
        return 0.0
    pts = [bp for bp in q.breakpoints if a < bp < b] or None
    val, _ = quad(lambda t: float(q(t)), a, b, points=pts, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def majorization_experiment(
    q: ScalarFn,
    h: ScalarFn,
    n: int,
    a_reduced: Sequence[float],
    b: Optional[Sequence[float]] = None,
    J: int = 8,
    horizon: float = 50.0,
    *,
    rho: float = 2.0,
    tol: float = 1e-12,
    u: Optional[Trajectory] = None,
) -> MajorizationTable:
    """Tabulate the comparison margins w^(i)(tau_j) - u^(i)(t_j), j = 0..J.

    ``rho`` is the level factor (the construction's own value is 2; other
    values are experimental knobs with no correctness claim).  Levels stop
    early when u never reaches the next one within the horizon.

    ``u`` is the reduced solution when the caller has already integrated it:
    the pipeline's direct cross-check for k = 0 is that very solve.  It must
    be what this function would have integrated itself: order n, initial
    values a_reduced, accuracy ``tol`` and span [0, horizon]; anything else
    raises InvalidParameterError.  Left out, u is integrated here.
    """
    check_int("n", n)
    if not (rho > 1.0):
        raise InvalidParameterError(f"rho must be > 1, got {rho!r}")
    a_reduced = tuple(float(x) for x in a_reduced)
    if b is None:
        b = tuple(x + 1.0 for x in a_reduced)
    b = tuple(float(x) for x in b)
    if any(bi <= ai for bi, ai in zip(b, a_reduced)):
        raise InvalidParameterError("need b_i > a_reduced_i componentwise")

    pu = ProblemSpec(m=n, k=0, a=a_reduced, q=q, h=h)
    if u is None:
        res = integrate(pu, horizon, tol)
        traj = res.trajectory if isinstance(res, BlowupEvent) else res
    elif (u.m, tuple(u.ys[0]), u.tol, u.ts[0], u.t_end) != (n, pu.a, tol, 0.0, horizon):
        raise InvalidParameterError(
            f"u must be the order-{n} solve from {pu.a} at tol {tol!r} on [0, {horizon!r}]"
        )
    else:
        traj = u
    t_end = traj.t_end
    u_end = float(traj.ys[-1, 0])

    def crossing(level, lo):
        """The time in [lo, t_end] at which u reaches ``level``, by dense root finding."""
        return brentq(lambda t: float(traj(t)[0]) - level, lo, t_end, xtol=1e-14, rtol=8.9e-16)

    # anchor level: first time u is meaningfully positive
    if a_reduced[0] > 0.0:
        t0 = 0.0
    else:
        thresh = 1e-8 * (1.0 + max(abs(x) for x in a_reduced) if a_reduced else 1.0)
        if u_end < thresh:
            return MajorizationTable(
                rho=float(rho), t0=math.nan, u0=0.0, rows=(),
                levels_reachable=False,
                note="solution never exceeds the positivity threshold (stagnant)",
            )
        t0 = crossing(thresh, 0.0)
    u0 = float(traj(t0)[0])

    # levels u(t_j) = rho^j * u0
    t_levels = [t0]
    for j in range(1, J + 1):
        level = rho ** j * u0
        if u_end < level:
            break
        t_levels.append(crossing(level, t_levels[-1]))

    eps = [0.0]
    taus = [0.0]
    for j in range(1, len(t_levels)):
        e_j = _integral_of_q(q, t_levels[j - 1], t_levels[j])
        eps.append(e_j)
        taus.append(taus[-1] + (t_levels[j] - t_levels[j - 1]) + e_j)

    # companion problem w^(n) = h(rho w), w^(i)(0) = b_i
    h_rho = make_custom(
        lambda s, _h=h.fn, _r=rho: _h(_r * s),
        nondecreasing=h.nondecreasing,
        nonnegative=h.nonnegative,
        asymptotic_exponent=h.asymptotic_exponent,
        label=f"scaled({h.spec_text}, {rho})",
    )
    pw = ProblemSpec(m=n, k=0, a=b, q=make_constant(1.0), h=h_rho)
    w_end = max(taus[-1], 1e-12)
    wres = integrate(pw, w_end, tol)
    if isinstance(wres, BlowupEvent):
        raise NumericFailureError(
            f"companion solution escaped at t={wres.t_event!r} before tau_J={taus[-1]!r}"
        )

    # one dense call per trajectory; at tau_0 = 0 the companion returns b exactly
    rows = []
    for j, (u_d, w_d) in enumerate(zip(traj(np.array(t_levels)), wres(np.array(taus)))):
        margins = w_d - u_d
        rel = margins / (1.0 + np.abs(u_d))
        rows.append(
            MajorizationRow(
                j=j,
                t_j=float(t_levels[j]),
                tau_j=float(taus[j]),
                eps_j=float(eps[j]),
                u_derivs=tuple(float(x) for x in u_d),
                w_derivs=tuple(float(x) for x in w_d),
                margin_min=float(np.min(margins)),
                margin_min_rel=float(np.min(rel)),
            )
        )
    note = "" if len(t_levels) == J + 1 else (
        f"only {len(t_levels) - 1} of {J} levels reachable within the horizon"
    )
    return MajorizationTable(
        rho=float(rho), t0=float(t0), u0=u0, rows=tuple(rows),
        levels_reachable=len(t_levels) == J + 1, note=note,
    )


# ---------------------------------------------------------------------------
# the pipeline


@dataclass(frozen=True)
class PipelineOptions:
    tol: float = 1e-10                 # direct-integration tolerance
    thresholds: tuple = DEFAULT_THRESHOLDS
    majorize_levels: int = 6
    rho: float = 2.0


@dataclass(frozen=True)
class ConstructionReport:
    tower_iterations: int
    tower_converged: bool
    tower_sup_gap: float
    discretization_gap: float
    consistency_sup: float
    consistency_tol: float

    @property
    def consistent(self) -> bool:
        return self.consistency_sup <= self.consistency_tol


@dataclass(frozen=True)
class PipelineReport:
    label: str  # GlobalConstructed | BlowUpDetected | BlowUpNotObserved | Inconclusive
    horizon: float
    classification: IntegralVerdict
    reduced: ReducedProblem
    construction: Optional[ConstructionReport] = None
    constructed: Optional[Trajectory] = None
    direct: Optional[Trajectory] = None
    blowup: Optional[BlowupReport] = None
    majorization: Optional[MajorizationTable] = None
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        if self.construction is not None and not self.construction.consistent:
            return False
        if self.majorization is not None and not self.majorization.passed:
            return False
        return True


@contextlib.contextmanager
def _stage(name):
    """Relabel a failure inside the block as a StageError of this stage."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_pipeline(p: ProblemSpec, horizon: float = 5.0, opts: PipelineOptions | None = None) -> PipelineReport:
    """Classify, then construct (global regime) or probe blow-up.

    One flow: reduce, classify, detect blow-up unless the test diverges,
    then construct, lift, cross-check and majorize unless it converges.
    Divergent test: a global solution of the dominating problem is built by
    the monotone tower on the reduced data, lifted, and cross-checked
    against direct integration; a failing stage raises.  Convergent test:
    the escape ladder runs up to the horizon.  Inconclusive: both probes
    run, no verdict is claimed, and a failing construction stage becomes a
    note that keeps whatever the stages before it finished.
    """
    opts = opts or PipelineOptions()
    notes: list[str] = []
    construction = constructed = direct = blow = table = None

    with _stage("reduce"):
        red = reduce_problem(p)
    with _stage("classify"):
        cls = classify(red.h, red.n)
    verdict = cls.verdict
    if verdict is Verdict.INCONCLUSIVE:
        notes.append("integral test inconclusive; reporting numeric probes only")

    if verdict is not Verdict.DIVERGES:
        with _stage("detect-blowup"):
            blow = detect_blowup(p, thresholds=opts.thresholds, horizon=horizon, tol=opts.tol)

    if verdict is Verdict.CONVERGES:
        if max(p.a, default=0.0) < 1.0:
            notes.append(
                "initial data are small; the convergent regime guarantees "
                "blow-up only for sufficiently large data"
            )
        if blow.kind is BlowupKind.BLOW_UP:
            label = "BlowUpDetected"
        else:
            label = "BlowUpNotObserved"
            notes.append("no escape within the horizon despite convergent test")
    else:
        label = "GlobalConstructed" if verdict is Verdict.DIVERGES else "Inconclusive"
        try:
            construction, constructed, direct = _construct_and_check(p, red, horizon, opts, notes)
            with _stage("majorize"):
                tol = max(opts.tol, 1e-12)
                # for k = 0 the direct cross-check has integrated the reduced problem
                table = majorization_experiment(
                    red.q, red.h, red.n, red.a_reduced, J=opts.majorize_levels,
                    horizon=float(horizon), rho=opts.rho, tol=tol,
                    u=direct if p.k == 0 and tol == opts.tol else None,
                )
        except StageError as e:
            if verdict is Verdict.DIVERGES:
                raise
            notes.append(f"construction probe failed: {e}")

    return PipelineReport(
        label=label, horizon=float(horizon), classification=cls, reduced=red,
        construction=construction, constructed=constructed, direct=direct,
        blowup=blow, majorization=table, notes=tuple(notes),
    )


def _construct_and_check(p, red, horizon, opts, notes):
    """Tower on the reduced data, its lift, and the direct cross-check:
    (construction report, lifted trajectory, direct trajectory)."""
    with _stage("construct"):
        a_red = np.asarray(red.a_reduced)
        tower = picard_solve(
            red.h,
            red.n,
            a_red,
            float(horizon),
            tol=PICARD_TOL,
            q=red.q,
            majorant_b=a_red + 1.0,
        )
        if not tower.converged:
            notes.append(
                f"tower not converged after {tower.iterations} iterations "
                f"(sup gap {tower.sup_gap:.3e})"
            )
        if not tower.grid_converged:
            notes.append(
                f"tower grid stopped at its cap of {len(tower.grid)} nodes "
                f"(discretization gap {tower.discretization_gap:.3e} > tol/4)"
            )
        u_traj = tower_trajectory(tower, red.h, red.q, red.a_reduced)

    with _stage("lift"):
        lifted = lift_solution(u_traj, p.a[: p.k], p.k)

    with _stage("cross-check"):
        majorant_problem = ProblemSpec(m=p.m, k=p.k, a=p.a, q=p.q, h=p.h)
        direct = integrate(majorant_problem, float(horizon), opts.tol)
        if isinstance(direct, BlowupEvent):
            raise NumericFailureError(
                f"direct integration escaped at t={direct.t_event!r} in the divergent regime"
            )
        sup = float(np.max(np.abs(lifted.ys - direct(lifted.ts))))
        construction = ConstructionReport(
            tower_iterations=tower.iterations,
            tower_converged=tower.converged,
            tower_sup_gap=tower.sup_gap,
            discretization_gap=tower.discretization_gap,
            consistency_sup=sup,
            consistency_tol=CONSISTENCY_TOL,
        )
        if p.f_override is not None:
            wres = integrate(p, float(horizon), opts.tol)
            if isinstance(wres, BlowupEvent):
                raise NumericFailureError("driven solution escaped under a global majorant")
            sandwich = float(np.min(lifted.ys - wres(lifted.ts)))
            notes.append(f"sandwich slack min(v - w) = {sandwich:.3e}")

    return construction, lifted, direct
