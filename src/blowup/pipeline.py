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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .classify import IntegralVerdict, Verdict, classify
from .errors import (
    InvalidParameterError,
    NumericFailureError,
    StageError,
    check_int,
)
from .functions import Family, make_constant, scaled
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
from .picard import picard_solve
from .quadrature import integral
from .volterra import integral_image

__all__ = [
    "reduce_problem",
    "lift_solution",
    "MajorizationRow",
    "MajorizationTable",
    "majorization_experiment",
    "PipelineReport",
    "run_pipeline",
]

PICARD_TOL = 1e-8          # tower sup-gap tolerance
CONSISTENCY_TOL = 1e-5     # constructed vs direct sup-norm gate (criterion 11)


def reduce_problem(p: ProblemSpec) -> ProblemSpec:
    """The dominating problem of u = w^(k): u^(n) = q(t) h(u), n = m - k,
    with u^(i)(0) = a_{k+i}, as the order-n problem with k = 0 (and no
    ``f_override``)."""
    return ProblemSpec(m=p.n, k=0, a=p.a[p.k :], q=p.q, h=p.h)


def lift_solution(u: Trajectory, a_low: Sequence[float], k: int) -> Trajectory:
    """k-fold repeated integration of u with the low-order data a_low.

    Returns a trajectory on u's nodes with k + u.m components: component
    i < k is the i-th derivative of the lift, components k.. are u's own.
    For k = 0 the input is returned unchanged.  The lift is taken by the
    O(h^6) repeated-integration rule, which needs u smooth over each block:
    a repeated node of u (a jump of q, where u's top derivative jumps; see
    :class:`Trajectory`) ends one block and starts the next, and the lift
    keeps it twice, as u does.  Its dense output is the Hermite interpolant
    of the node values and derivatives, so its accuracy is that of u's
    grid: an integrator trajectory's nodes are its steps, far wider than
    the tower grids the pipeline lifts; sample its dense output on a finer
    grid first.
    """
    k = check_int("k", k, 0)
    if k == 0:
        return u
    a_low = [float(x) for x in a_low]
    if len(a_low) != k:
        raise InvalidParameterError(f"need {k} low-order values, got {len(a_low)}")

    ts = u.ts
    ys = np.empty((len(ts), k + u.m))
    ys[:, k:] = u.ys
    # one block between repeated nodes, on the distinct nodes: ts[i] is grid[at[i]]
    first = u.distinct
    grid, at, w = ts[first], np.cumsum(first) - 1, u.ys[first, 0]
    edges = [0, *at[~first], len(grid) - 1]
    blocks = [(i0, i1, w[i0 : i1 + 1]) for i0, i1 in zip(edges, edges[1:])]
    ys[:, :k] = integral_image(a_low, blocks, grid)[at]

    dys = np.empty_like(ys)
    dys[:, :-1] = ys[:, 1:]
    dys[:, -1] = u.dys[:, -1]
    return Trajectory(ts=ts.copy(), ys=ys, dys=dys, tol=u.tol)


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


def majorization_experiment(
    p: ProblemSpec,
    u: Trajectory,
    b: Optional[Sequence[float]] = None,
    J: int = 8,
    *,
    rho: float = 2.0,
) -> MajorizationTable:
    """Tabulate the comparison margins w^(i)(tau_j) - u^(i)(t_j), j = 0..J.

    ``p`` is the reduced problem u^(n) = q(t) h(u) (:func:`reduce_problem`:
    k = 0, no ``f_override``) and ``u`` its solve: order p.m, from p.a at
    t = 0; anything else raises InvalidParameterError.  :func:`run_pipeline`
    passes components k.. of its direct cross-check
    (:meth:`Trajectory.reduced`).  The levels are read on u's span, and the
    companion is integrated at u's ``tol``.

    ``rho`` is the level factor (the construction's own value is 2; other
    values are experimental knobs with no correctness claim).  Each t_j is
    found by :meth:`Trajectory.crossing` on u's nodes and dense output,
    from t_{j-1} on.  Levels stop early when u never reaches the next one
    within its span.  The time shifts eps_j = int q over [t_{j-1}, t_j] are
    exact sums over the pieces of a step-function q (a constant is its one
    piece), which :meth:`ScalarFn.cuts` bounds; any other q takes the
    quadrature on the same cuts.
    """
    if p.k != 0 or p.f_override is not None:
        raise InvalidParameterError("p must be a reduced problem: k = 0 and no f_override")
    if (u.m, tuple(u.ys[0]), u.ts[0]) != (p.m, p.a, 0.0):
        raise InvalidParameterError(f"u must be the order-{p.m} solve from {p.a} at t = 0")
    if not (1.0 < rho < math.inf):
        raise InvalidParameterError(f"rho must be > 1 and finite, got {rho!r}")
    J = check_int("J", J, 0)
    b = tuple(x + 1.0 for x in p.a) if b is None else tuple(float(x) for x in b)
    if any(bi <= ai for bi, ai in zip(b, p.a)):
        raise InvalidParameterError("need b_i > a_i componentwise")
    q, h, u_end = p.q, p.h, float(u.ys[-1, 0])

    # anchor level: first time u is meaningfully positive
    if p.a[0] > 0.0:
        t0 = 0.0
    else:
        thresh = 1e-8 * (1.0 + max(p.a))
        if u_end < thresh:
            return MajorizationTable(
                rho=float(rho), t0=math.nan, u0=0.0, rows=(),
                levels_reachable=False,
                note="solution never exceeds the positivity threshold (stagnant)",
            )
        t0 = u.crossing(thresh, 0.0)
    u0 = float(u(t0)[0])

    # levels u(t_j) = rho^j * u0
    t_levels = [t0]
    for j in range(1, J + 1):
        level = rho ** j * u0
        if u_end < level:
            break
        t_levels.append(u.crossing(level, t_levels[-1]))

    # eps_j = int q over [t_{j-1}, t_j], piece by piece
    eps, taus = [0.0], [0.0]
    for lo, hi in zip(t_levels, t_levels[1:]):
        cuts = q.cuts(lo, hi)
        if q.family is Family.PIECEWISE:
            values = q.eval_array(cuts[:-1])  # the piece starting at each cut
            eps.append(math.fsum(c * (b - a) for a, b, c in zip(cuts, cuts[1:], values)))
        else:
            eps.append(integral(q.eval_array, cuts))
        taus.append(taus[-1] + (hi - lo) + eps[-1])

    # companion problem w^(n) = h(rho w), w^(i)(0) = b_i; for a power h that
    # is rho^lam w^lam, which the integrator's step evaluates itself
    if h.family is Family.POWER:
        c_w, h_w = rho ** h.params[0], h
    else:
        c_w, h_w = 1.0, scaled(h, rho, label=f"scaled({h.spec_text}, {rho})")
    wres = integrate(replace(p, a=b, q=make_constant(c_w), h=h_w), max(taus[-1], 1e-12), u.tol)
    if isinstance(wres, BlowupEvent):
        raise NumericFailureError(
            f"companion solution escaped at t={wres.t_event!r} before tau_J={taus[-1]!r}"
        )

    # one dense call per trajectory; at tau_0 = 0 the companion returns b exactly
    rows = []
    for j, (u_d, w_d) in enumerate(zip(u(np.array(t_levels)), wres(np.array(taus)))):
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
    reduced: ProblemSpec
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
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_pipeline(p: ProblemSpec, horizon: float = 5.0, *, tol: float = 1e-10,
                 thresholds: tuple = DEFAULT_THRESHOLDS, majorize_levels: int = 6,
                 rho: float = 2.0) -> PipelineReport:
    """Classify, then construct (global regime) or probe blow-up.

    One flow: reduce, classify, detect blow-up unless the test diverges,
    then construct, lift, cross-check and majorize unless it converges.
    The reduced problem (:func:`reduce_problem`) is the report's
    ``reduced``.  Divergent test: a global solution of the dominating
    problem is built by the monotone tower on the reduced data, lifted by
    k integrations of the tower's ``trajectory`` (:func:`lift_solution`,
    block by block between the repeated nodes at q's jumps, where u can
    have a kink), and cross-checked at every node against
    one direct integration at ``tol``, whose components k.. the
    majorization reads as its reduced solution; a failing stage raises.
    Convergent test: the escape ladder runs up to the horizon; a blow-up
    time that the integral test's tail puts past the horizon labels the case
    BlowUpNotObserved, with a note that gives it.
    Inconclusive: both probes run, no verdict is claimed, and a failing
    construction stage becomes a note; the report keeps what the stages
    before it finished: ``constructed`` once the lift has run, and
    ``construction`` and ``direct`` only once the whole cross-check has.

    ``tol`` is the tolerance of the direct integrations (the escape ladder
    and the cross-check), ``thresholds`` the escape ladder's rungs, and
    ``majorize_levels`` and ``rho`` the majorization's J and level ratio.
    """
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
            blow = detect_blowup(p, thresholds=thresholds, horizon=horizon, tol=tol)

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
            notes.append("no escape within the horizon despite convergent test" if blow.t_blow_estimate is None
                         else f"the integral test's tail puts the blow-up at T* = {blow.t_blow_estimate!r}, "
                              "past the horizon")
    else:
        label = "GlobalConstructed" if verdict is Verdict.DIVERGES else "Inconclusive"
        try:
            with _stage("construct"):
                a_red = np.asarray(red.a)
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

            with _stage("lift"):
                constructed = lift_solution(tower.trajectory, p.a[: p.k], p.k)

            with _stage("cross-check"):
                solve = integrate(replace(p, f_override=None), float(horizon), tol)
                if isinstance(solve, BlowupEvent):
                    raise NumericFailureError(
                        f"direct integration escaped at t={solve.t_event!r} in the divergent regime"
                    )
                sup = float(np.max(np.abs(constructed.ys - solve(constructed.ts))))
                if p.f_override is not None:
                    wres = integrate(p, float(horizon), tol)
                    if isinstance(wres, BlowupEvent):
                        raise NumericFailureError("driven solution escaped under a global majorant")
                    sandwich = float(np.min(constructed.ys - wres(constructed.ts)))
                    notes.append(f"sandwich slack min(v - w) = {sandwich:.3e}")
                construction = ConstructionReport(
                    tower_iterations=tower.iterations,
                    tower_converged=tower.converged,
                    tower_sup_gap=tower.sup_gap,
                    discretization_gap=tower.discretization_gap,
                    consistency_sup=sup,
                    consistency_tol=CONSISTENCY_TOL,
                )
                direct = solve

            with _stage("majorize"):
                # components k.. of the direct cross-check solve the reduced problem
                table = majorization_experiment(red, direct.reduced(p.k), J=majorize_levels, rho=rho)
        except StageError as e:
            if verdict is Verdict.DIVERGES:
                raise
            notes.append(f"construction probe failed: {e}")

    return PipelineReport(
        label=label, horizon=float(horizon), classification=cls, reduced=red,
        construction=construction, constructed=constructed, direct=direct,
        blowup=blow, majorization=table, notes=tuple(notes),
    )
