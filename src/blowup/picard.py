"""Constructive machinery: comparison constants, quadrature inversion,
monotone Picard towers, and the integral operator behind them.

The pieces fit together as follows.  For the driven problem
u^(n) = q(t) h(u) a *majorant growth function* g is built from h
(:func:`majorant_growth`) such that the scalar equation
(d/dt) u^(1/n) = g(u)^(1/n) produces a dominating solution; that equation
is autonomous and separable, so its solution is obtained by inverting

    F(U) = 1/n * int_{u0}^{U} g(s)^(-1/n) s^(1/n - 1) ds  =  t

against one Gauss-Legendre table of F per call, with Newton steps for all
targets at once (:func:`solve_autonomous_quadrature`).  A power growth
g(s) = kappa s^lam inverts in closed form instead: with a = (1 - lam)/n,
F(U) = (U^a - u0^a) / ((1 - lam) kappa^(1/n)), or log(U/u0) / (n kappa^(1/n))
at lam = 1, so U(t) = u0 exp(log1p(x)/a) with x = n a kappa^(1/n) t u0^(-a)
(u0 exp(n kappa^(1/n) t) at lam = 1); for lam > 1, x = -t/F(inf) with
F(inf) = u0^a / ((lam - 1) kappa^(1/n)).  A power g takes that form in
:func:`solve_autonomous_quadrature`, and a tower of a power h in its
``majorant``, whose g = c h(s/beta) is kappa s^lam with kappa = g(1); the
escape check of :func:`picard_solve` keeps F's table.  Either way a U past
the largest double is +inf, which still bounds the solution from above.  The
comparison inequality

    u(t) - u(0) >= alpha * int_0^t (t - tau)^(n-1) g(beta u(tau)) dtau

with alpha = 1/2^(n+1), beta = 1/(1 + 2^n) links the dominating solution
back to the Volterra form (:func:`verify_comparison_bound` makes it
assertable).  The global solution itself is built as the limit of the
monotone Picard iteration

    v_j(t) = sum_i b_i t^i / i!  +  1/(n-1)! int_0^t (t-tau)^(n-1) q h(v_{j-1}) dtau

whose iterates increase in j and stay below the quadrature majorant
(:func:`picard_solve`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .classify import Method, Verdict, classify, classify_from
from .errors import (
    FiniteEscapeError,
    InvalidParameterError,
    NumericFailureError,
    check_int,
    check_tol,
)
from .functions import Family, ScalarFn, make_constant, scaled
from .ode import ProblemSpec, Trajectory
from .quadrature import Y_MAX, gauss_rules, panels
# unused here: kept only because perfbench/tracer.py patches this name to count
# picard.invert.quad_calls
from .quadrature import integral as quad
from .volterra import _sub_span, integral_image, weighted_volterra

__all__ = [
    "ComparisonConstants",
    "comparison_constants",
    "solve_autonomous_quadrature",
    "ComparisonReport",
    "verify_comparison_bound",
    "majorant_growth",
    "TowerLevel",
    "PicardTower",
    "picard_solve",
    "apply_integral_operator",
    "BoundPreservationReport",
    "verify_bound_preservation",
]

GRID_MIN = 129        # nodes of the tower's first grid
GRADE = 4             # t_j = t_1 (j/N)^GRADE on the first segment of a singular start
BOUND_PIECES = 4      # blocks of the random data in verify_bound_preservation


@dataclass(frozen=True)
class ComparisonConstants:
    """alpha = 1/2^(n+1), beta = 1/(1+2^n); both depend only on n."""

    n: int
    alpha: float
    beta: float


def comparison_constants(n: int) -> ComparisonConstants:
    n = check_int("n", n)
    return ComparisonConstants(n=n, alpha=1.0 / 2 ** (n + 1), beta=1.0 / (1 + 2 ** n))


# ---------------------------------------------------------------------------
# quadrature inversion

# F's table in y = log s: starting panels of width _PANEL (quadrature.panels halves
# each until its rules agree), _CHUNK per g.eval_array call, up to y = Y_MAX (the
# largest double, the end of the float range); targets are solved _SLICE at a time
_PANEL, _CHUNK, _SLICE = 1.0, 64, 1024


def solve_autonomous_quadrature(
    g: ScalarFn,
    n: int,
    u0: float,
    t_targets: Sequence[float],
) -> np.ndarray:
    """Invert F(U) = t for each finite target t >= 0; a target 0 gives u0,
    and a target whose U is not a finite float gives +inf.  So does, in F's
    table, one whose g(U) is past the largest double, where the table reads
    F's integrand as 0; inf still bounds U from above.

    F is tabulated in the log abscissa y = log s, which keeps the panels
    well-scaled over many decades: unit panels in y (edges also at log of
    g's breakpoints), each halved by :func:`blowup.quadrature.panels` until
    its two rules agree, a running sum grown until F passes the largest
    target or reaching y = Y_MAX, the log of the largest double.  All
    targets are then solved at once by bracketed Newton steps with the
    analytic F' = g(U)^(-1/n) U^(1/n-1) / n.  Each call builds its own
    table, which depends only on g, n, u0 and the largest target.  A power
    g (``Family.POWER``, kappa = 1) builds no table: F inverts in closed
    form (see the module docstring), exact to rounding.

    Where F stays below a target at y = Y_MAX the integral test decides, with
    F(inf) = u0^(1/n) I(g, n; u0) / n (:func:`blowup.classify.classify_from`):
    FiniteEscapeError carrying F(inf), the majorant's own escape time, where I
    converges and F(inf) < max(t_targets); otherwise every target the table
    does not reach gives +inf, also where U lies past an escape that an
    Inconclusive test cannot place.  The closed form raises the same error
    with the same text, and gives +inf exactly where U is past the largest
    double.
    """
    n = check_int("n", n)
    if not (0.0 < u0 < math.inf):
        raise InvalidParameterError(f"u0 must be > 0 and finite, got {u0!r}")
    targets = np.asarray(t_targets, dtype=float)
    if targets.ndim != 1:
        raise InvalidParameterError("t_targets must be a 1-D sequence")
    if not np.all((targets >= 0.0) & (targets < math.inf)):
        raise InvalidParameterError("targets must be finite and >= 0")
    if g.family is Family.POWER:
        return _power_inverse(g, 1.0, n, float(u0), targets)
    out = np.full_like(targets, float(u0))
    if not np.any(targets > 0.0):
        return out
    f, E, C = _f_table(g, n, float(u0), targets)
    out[targets > C[-1]] = math.inf  # F reaches them only where U or g(U) is past the largest double
    live = np.flatnonzero((targets > 0.0) & (targets <= C[-1]))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(0, len(live), _SLICE):
            idx = live[i : i + _SLICE]
            out[idx] = np.maximum(u0, np.exp(_newton(f, n, E, C, targets[idx], *gauss_rules()[0])))
    return out


def _escape_error(escape: float, t_max: float) -> FiniteEscapeError:
    return FiniteEscapeError(f"majorant escapes at finite time ~{escape!r} < target {t_max!r}",
                             escape_time=escape)


def _power_inverse(h: ScalarFn, kappa: float, n: int, u0: float, targets: np.ndarray) -> np.ndarray:
    """F(U) = t inverted in closed form for g(s) = kappa s^lam, h = s^lam a
    ``Family.POWER`` function (see the module docstring).

    A target 0 gives u0 exactly, and every other U >= u0; a U past the
    largest double is +inf.  U is formed as u0 e^z, z = log1p(x)/a, where
    e^z is a float, else as e^(log u0 + z); an x or z that overflows is inf
    only where U is past the float range too, except x from a tiny u0,
    which takes log x instead.  For lam > 1, F(inf) is
    ``classify_from(h, n, u0)``'s estimate over n kappa^(1/n), the table's
    escape time when kappa = 1."""
    lam = h.params[0]
    a, c = (1.0 - lam) / n, kappa ** (1.0 / n)
    out = np.full_like(targets, u0)
    live = targets > 0.0
    t = targets[live]
    if not len(t):
        return out
    # an overflow, or log1p(-1) = -inf at t = F(inf), makes z inf only where
    # U is past the float range, and U overflows to inf there
    with np.errstate(over="ignore", divide="ignore"):
        if lam > 1.0:
            escape, t_max = classify_from(h, n, u0).estimate / (n * c), float(t.max())
            if t_max > escape:
                raise _escape_error(escape, t_max)
            z = np.log1p(-t / escape) / a
        elif lam < 1.0:
            x = n * a * c * t * np.power(u0, -a)
            log_x = math.log(n * a * c) + np.log(t) - a * math.log(u0)
            z = np.where(np.isfinite(x), np.log1p(x), log_x) / a
        else:
            z = n * c * t
        # u0 e^z where e^z is a float (from a tiny u0, z may pass 709 while U does not)
        out[live] = np.where(z <= 709.0, u0 * np.exp(np.minimum(z, 709.0)), np.exp(math.log(u0) + z))
    return out


def _f_table(g: ScalarFn, n: int, u0: float, targets: np.ndarray) -> tuple:
    """(f, E, C): f is n times F's integrand in y, E the table's panel edges
    and C the values of F there, grown until F passes every target or y = Y_MAX
    (see :func:`solve_autonomous_quadrature`, which raises what this raises)."""
    t_max = float(targets.max())

    def f(y):  # n times F's integrand in y, e^(y/n) g(e^y)^(-1/n); 0 where g is inf
        s = np.exp(y)
        gv = g.eval_array(s)
        if not np.all(gv > 0.0):
            i = np.flatnonzero(~(gv > 0.0))[0]
            raise NumericFailureError(f"g({float(s.flat[i])!r}) = {float(gv.flat[i])!r} not positive")
        out = np.exp(y / n) * gv ** (-1.0 / n)
        if not np.isfinite(out).all():  # a subnormal g overflows g^(-1/n), not the product
            bad = ~np.isfinite(out) & np.isfinite(gv)
            out[bad] = np.exp(y[bad] / n - np.log(gv[bad]) / n)
        return out

    bps = np.log(g.cuts(0.0, math.inf)[1:-1])
    # g may overflow to inf far out, where the integrand is 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lefts, cums, y, c_last = [], [[0.0]], math.log(u0), 0.0
        while c_last <= t_max and y < Y_MAX:
            z = min(y + _PANEL * _CHUNK, Y_MAX)
            cuts = np.union1d(np.append(np.arange(y, z, _PANEL), z), bps[(bps > y) & (bps < z)])
            edges, val = panels(f, cuts)
            lefts.append(edges[:-1])
            cums.append(c_last + np.cumsum(val) / n)
            y, c_last = z, float(cums[-1][-1])

        if t_max > c_last:  # past the largest double the integral test from u0 decides F(inf)
            estimate = classify_from(g, n, u0).estimate
            if estimate is not None and t_max > estimate / n:
                raise _escape_error(estimate / n, t_max)

    return f, np.append(np.concatenate(lefts), y), np.concatenate(cums)


def _newton(f, n: int, E: np.ndarray, C: np.ndarray, t: np.ndarray, x, w) -> np.ndarray:
    """y with F(y) = t from the table (edges E, F there C) by the rule (x, w); each
    target keeps a bracket in its panel and bisects when a Newton step leaves it."""
    k = np.clip(np.searchsorted(C, t, side="right") - 1, 0, len(E) - 2)
    a, c, lo, hi = E[k], C[k], E[k], E[k + 1]
    y = a + (t - c) / (C[k + 1] - c) * (hi - a)
    for _ in range(64):
        half = (y - a) / 2.0
        fv = f(np.column_stack([a[:, None] + half[:, None] * (x + 1.0), y]))
        r = c + half * (fv[:, :-1] @ w) / n - t
        lo, hi = np.where(r <= 0.0, y, lo), np.where(r >= 0.0, y, hi)
        y_new = y - n * r / fv[:, -1]
        y_new = np.where((lo <= y_new) & (y_new <= hi), y_new, (lo + hi) / 2.0)
        y, moved = y_new, np.abs(y_new - y)
        if np.all(moved <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(y))):
            break
    return y


# ---------------------------------------------------------------------------
# comparison inequality


@dataclass(frozen=True)
class ComparisonReport:
    """Grid check of u(t) - u(0) >= alpha * int (t-tau)^(n-1) g(beta u)."""

    n: int
    u0: float
    T: float
    grid_size: int
    min_slack: float            # min of LHS - RHS over the grid
    min_slack_rel: float        # min of (LHS - RHS) / (1 + |LHS|)
    t_at_min: float

    @property
    def passed(self) -> bool:
        return self.min_slack_rel >= -1e-9


def verify_comparison_bound(
    g: ScalarFn, n: int, u0: float, T: float, grid_size: int = 200
) -> ComparisonReport:
    """Evaluate both sides of the comparison inequality on a uniform grid of
    ``grid_size`` nodes (an integer >= 2) on [0, T], 0 < T < inf."""
    consts = comparison_constants(n)
    if not (0.0 < T < math.inf):
        raise InvalidParameterError(f"T must be > 0 and finite, got {T!r}")
    grid_size = check_int("grid_size", grid_size, 2)
    grid = np.linspace(0.0, float(T), grid_size)
    u = solve_autonomous_quadrature(g, n, u0, grid)
    phi = g.eval_array(consts.beta * u)
    rhs = consts.alpha * math.factorial(n - 1) * weighted_volterra(phi, n, grid)
    lhs = u - u0
    slack = lhs - rhs
    rel = slack / (1.0 + np.abs(lhs))
    i = int(np.argmin(rel))
    return ComparisonReport(
        n=int(n),
        u0=float(u0),
        T=float(T),
        grid_size=grid_size,
        min_slack=float(np.min(slack)),
        min_slack_rel=float(rel[i]),
        t_at_min=float(grid[i]),
    )


# ---------------------------------------------------------------------------
# majorant growth function


def majorant_growth(h: ScalarFn, n: int, *, weight: float = 1.0) -> ScalarFn:
    """g(s) = weight * h(s / beta) / (alpha (n-1)!), metadata and (scaled by
    beta) breakpoints inherited from h.

    ``weight`` absorbs a constant bound on the time coefficient (sup q) when
    the driven problem is not autonomous.
    """
    consts = comparison_constants(n)
    c = float(weight) / (consts.alpha * math.factorial(n - 1))
    return scaled(h, 1.0 / consts.beta, weight=c, label=f"majorant_growth({h.spec_text}, n={n})")


# ---------------------------------------------------------------------------
# monotone Picard tower


class TowerLevel(NamedTuple):
    """One grid level of the tower's refinement ladder."""

    nodes: int          # len(grid) on this level
    iterations: int     # Picard steps taken on it
    step_gap: float     # sup |v_j - v_{j-1}| of its last step, inf with none


@dataclass(frozen=True)
class PicardTower:
    """Iterates of the monotone Volterra map on one fixed grid.

    ``grid`` is uniform between q's breakpoints, except that a singular
    start grades its first segment (see :func:`picard_solve`).

    ``iterates[0]`` is the seed polynomial; ``converged`` refers to the
    iteration sup-gap, separate from the recorded discretization gap of the
    grid-refinement ladder; ``grid_converged`` says whether that gap met
    tol/4 (false when the ladder stopped at its grid cap).  ``solution`` is
    the final iterate, not extrapolated: the ladder converges at sixth
    order, where a second-order Richardson correction overshoots.
    ``majorant`` is the quadrature majorant on ``grid`` and
    ``majorant_slack`` the most negative u - v_j over the iterates; both are
    diagnostics the tower does not use, so the majorant is inverted on the
    returned grid, in closed form for a power h and from a table of F of its
    own for any other, only when one of them is first read, and kept from
    then on.
    ``trajectory`` is the solution's full derivative state, built on first
    read from the h, q and initial values the tower was built from.
    Every other diagnostic (gaps, slacks, iteration count) is read from the
    returned iterates.  ``levels`` holds one row per grid level of the
    doubling ladder, coarsest first (see :func:`picard_solve`); the last is
    the returned grid.
    """

    grid: np.ndarray
    iterates: list
    converged: bool
    iterations: int
    sup_gap: float
    solution: np.ndarray
    discretization_gap: float
    grid_converged: bool
    monotone_slack: float      # most negative value of v_j - v_{j-1} observed
    levels: tuple              # TowerLevel rows, one per grid level run
    # (g, n, u0) of the quadrature majorant and (h, q, b) of the tower
    _built_from: tuple = field(repr=False, compare=False, kw_only=True)

    @functools.cached_property
    def majorant(self) -> np.ndarray:
        """The quadrature majorant on ``grid``: for a power h, whose growth
        g = c h(s/beta) is kappa s^lam with kappa = g(1), in closed form
        (``_power_inverse``), else from F's table; +inf past the largest double."""
        g, n, u0, h = self._built_from[:4]
        if h.family is Family.POWER:
            return _power_inverse(h, float(g(1.0)), n, u0, self.grid)
        return solve_autonomous_quadrature(g, n, u0, self.grid)

    @functools.cached_property
    def majorant_slack(self) -> float:
        """Most negative value of u - v_j observed."""
        return min(float(np.min(self.majorant - v)) for v in self.iterates)

    @functools.cached_property
    def trajectory(self) -> Trajectory:
        """Full derivative state of the solution of v^(n) = q(t) h(v).

        One extra application of the integral operator to the solution
        yields all n components with mutually consistent integral
        relations; blocks keep the quadrature away from q's jump points.
        Each block keeps its own rows, so a jump of q inside the grid is a
        repeated node, as in an integrator's trajectory: the first copy's
        top derivative takes q's left limit, the second its right value.
        The trajectory's ``tol`` is the larger of the iteration and
        discretization gaps, the error actually achieved.
        """
        *_, h, q, b = self._built_from
        grid = self.grid
        h_vals = h.eval_array(self.solution)
        blocks = [(i0, i1, qv * h_vals[i0 : i1 + 1]) for i0, i1, _, qv in _q_blocks(q, grid)]
        image = integral_image(b, blocks, grid)
        ts, ys = (np.concatenate([x[i0 : i1 + 1] for i0, i1, _ in blocks]) for x in (grid, image))
        dys = np.empty_like(ys)
        dys[:, :-1] = ys[:, 1:]
        dys[:, -1] = np.concatenate([f for *_, f in blocks])
        tol = max(self.sup_gap, self.discretization_gap)
        return Trajectory(ts=ts, ys=ys, dys=dys, tol=tol)


def picard_solve(
    h: ScalarFn,
    n: int,
    b: Sequence[float],
    T: float,
    tol: float = 1e-10,
    max_iter: int = 60,
    *,
    q: Optional[ScalarFn] = None,
    majorant_b: Optional[Sequence[float]] = None,
    grid_cap: int = 16385,
) -> PicardTower:
    """Run the monotone Picard tower for v^(n) = q(t) h(v) on [0, T].

    ``b`` are the tower's initial values (all > 0 in the plain autonomous
    use).  ``majorant_b`` (componentwise >= b, all > 0) seeds the
    quadrature majorant; it defaults to b and allows towers started from
    nonnegative data as long as a strictly positive dominating seed is
    supplied.  The grid (GRID_MIN nodes at first, uniform between q's
    breakpoints, with a node at each) is doubled until a tower differs from
    its parent's, one doubling coarser, by <= tol/4 (or the ladder reaches
    the first level of at least ``grid_cap`` nodes; the achieved gap is
    reported either way); the solution is that grid's final iterate.  Each
    level runs Picard from the seed on its own grid, so its iterates do not
    depend on which levels ran before it.  A singular start, b[0] = 0 with
    h a power or powerlog of exponent 0 < lambda < 1, grades the first
    segment [0, t_1] as t_j = t_1 (j/N)^GRADE: the solution behaves like a
    fractional power of t there, which holds a uniform grid to O(h^1.5);
    the kernel's 4-node fallback takes the first, most unequal cells.

    Raises FiniteEscapeError if the quadrature majorant fails to exist on
    [0, T] (the divergence hypothesis fails numerically); that is checked
    once, at T, before the first tower is built.  Where the majorant is +inf
    at T, past the largest double, an exact Diverges from ``classify(h, n)``
    lets the tower go on, as the majorant exists on [0, T], and any other
    verdict raises NumericFailureError naming T and it.  The majorant itself is
    inverted on the grid the ladder stops at, and only when the tower's
    ``majorant`` or ``majorant_slack`` is first read: in closed form for a
    power h, else from F's table, built a second time; the values are those
    of an inversion on that grid whenever it runs, since F's table depends
    only on g, n, u0 and T.
    """
    n = check_int("n", n)
    if not (0.0 < T < math.inf):
        raise InvalidParameterError(f"T must be > 0 and finite, got {T!r}")
    tol = check_tol(tol)
    b = np.array(b, dtype=float)  # a copy: the tower's trajectory reads it later
    if len(b) != n:
        raise InvalidParameterError(f"need {n} initial values, got {len(b)}")
    if majorant_b is None:
        if np.any(b <= 0.0):
            raise InvalidParameterError(
                "tower initial values must be > 0 (or supply majorant_b)"
            )
        mb = b.copy()
    else:
        mb = np.asarray(majorant_b, dtype=float)
        if len(mb) != n or np.any(mb <= 0.0) or np.any(mb < b):
            raise InvalidParameterError(
                "majorant_b must be positive and componentwise >= b"
            )
    if np.any(b < 0.0):
        raise InvalidParameterError("tower initial values must be >= 0")
    q = make_constant(1.0) if q is None else q

    q_sup = _sup_on_interval(q, T)
    if q_sup <= 0.0:
        q_sup = 1.0  # q == 0: the tower is the bare polynomial; any majorant works
    g = majorant_growth(h, n, weight=q_sup)
    u0_maj = sum(bi * T ** i / math.factorial(i) for i, bi in enumerate(mb))
    edges = q.cuts(0.0, float(T))
    base_cells = [max(2, round((GRID_MIN - 1) * (hi - lo) / T)) for lo, hi in zip(edges, edges[1:])]
    graded = b[0] == 0.0 and _singular_at_zero(h)

    # F is increasing, so the majorant escapes before some grid node exactly
    # when it escapes before T: one target settles escape for every grid
    if math.isinf(solve_autonomous_quadrature(g, n, u0_maj, [T])[0]):
        test = classify(h, n)
        if not (test.verdict is Verdict.DIVERGES and test.method is Method.EXACT_FAMILY):
            raise NumericFailureError(
                f"the majorant leaves the float range before T={T!r}, where the integral test of h gives {test}")

    # every segment doubles its cells, so coarse node i is fine node 2i
    parent, levels, mult = None, [], 1
    while True:
        grid = _segmented_grid(edges, [c * mult for c in base_cells], graded)
        iterates = _run_tower(h, b, q, grid, tol, max_iter)
        final = iterates[-1]
        step_gap = float(np.max(np.abs(final - iterates[-2]))) if len(iterates) > 1 else math.inf
        levels.append(TowerLevel(len(grid), len(iterates) - 1, step_gap))
        if parent is not None:
            disc_gap = float(np.max(np.abs(final[::2] - parent)))
            if disc_gap <= tol / 4.0 or len(grid) >= grid_cap:
                break
        parent = final
        mult *= 2

    pairs = list(zip(iterates[1:], iterates))
    return PicardTower(
        grid=grid,
        iterates=iterates,
        converged=step_gap <= tol,
        iterations=len(pairs),
        sup_gap=step_gap,
        solution=final,
        discretization_gap=disc_gap,
        grid_converged=disc_gap <= tol / 4.0,
        monotone_slack=min([0.0] + [float(np.min(v - w)) for v, w in pairs]),
        levels=tuple(levels),
        _built_from=(g, n, u0_maj, h, q, b),
    )


def _segmented_grid(edges: list, seg_cells: list, graded: bool = False) -> np.ndarray:
    """Piecewise-uniform grid with nodes exactly at the q breakpoints.

    Per-segment cell counts sit on a doubling ladder, so successive
    refinements contain the coarser nodes.  ``graded`` replaces the first
    segment [0, t_1] by t_j = t_1 (j/N)^GRADE (Brunner, *Collocation Methods
    for Volterra Integral and Related Functional Differential Equations*,
    2004), which restores the kernel's order when the solution is not smooth
    at 0; j^GRADE / N^GRADE is a ratio of exact integers, so node j of N
    cells is node 2j of 2N cells bit for bit.
    """
    parts = []
    for i, c in enumerate(seg_cells):
        if i == 0 and graded:
            seg = edges[1] * (np.arange(c + 1) ** GRADE / c ** GRADE)
        else:
            seg = np.linspace(edges[i], edges[i + 1], c + 1)
        parts.append(seg if i == 0 else seg[1:])
    return np.concatenate(parts)


def _singular_at_zero(h: ScalarFn) -> bool:
    """h is a power or powerlog with 0 < lambda < 1: not C^1 at 0, so a tower
    started at v(0) = 0 is not smooth there."""
    return h.family in (Family.POWER, Family.POWER_LOG) and 0.0 < h.params[0] < 1.0


def _sup_on_interval(q: ScalarFn, T: float) -> float:
    probes, cuts = np.linspace(0.0, T, 257), q.cuts(0.0, T)
    if len(cuts) > 2:
        probes = np.unique(np.concatenate([probes, cuts]))
    return float(np.max(q.eval_array(probes)))


def _q_blocks(q: ScalarFn, grid: np.ndarray):
    """(i0, i1, sample times, q values) per smoothness block, edges on nodes.

    The blocks split the grid at q's breakpoints inside it.  The sample
    times are the block's nodes, except that an interior right edge takes
    q's left limit, so each block sees only its own branch of a piecewise
    coefficient.
    """
    edges = q.cuts(float(grid[0]), float(grid[-1]))
    blocks = []
    for i in range(len(edges) - 1):
        i0 = int(np.searchsorted(grid, edges[i]))
        i1 = int(np.searchsorted(grid, edges[i + 1]))
        ts = grid[i0 : i1 + 1].copy()
        if i + 1 < len(edges) - 1:  # interior right edge: left limit
            ts[-1] = np.nextafter(ts[-1], ts[0])
        blocks.append((i0, i1, ts, q.eval_array(ts)))
    return blocks


def _run_tower(h, b, q, grid, tol, max_iter) -> list:
    """Picard iterates on ``grid`` from the seed polynomial, until a step
    moves the iterate by <= tol or max_iter steps are taken.

    Each step is column 0 of :func:`integral_image`: the seed, built once,
    plus the order-n image of each block of q h(v).  A block that spans the
    whole grid steps through :func:`weighted_volterra`; a sub-block's kernel
    (its grid and order checks, weights and Taylor rows to every node) is
    resolved once for the level and applied at every step, with the values
    of ``partial_volterra(f, n, sub, grid) / (n-1)!``."""
    n, full = len(b), len(grid) - 1
    seed = integral_image(b, (), grid)[:, 0]
    blocks = [(i0, i1, qv, None if i0 == 0 and i1 == full else _sub_span(n, grid[i0 : i1 + 1], grid))
              for i0, i1, _, qv in _q_blocks(q, grid)]
    iterates = [seed]
    # an iterate that overflows reaches the gap test below as inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            h_vals = h.eval_array(iterates[-1])
            v_new = seed.copy()
            for i0, i1, qv, image in blocks:
                f = qv * h_vals[i0 : i1 + 1]
                if image is None:
                    v_new += weighted_volterra(f, n, grid)
                else:
                    v_new += image(f) / math.factorial(n - 1)
            gap = abs(v_new - iterates[-1]).max()  # nan or inf when v_new is not finite
            if not math.isfinite(gap):
                raise NumericFailureError("Picard iterate became non-finite")
            iterates.append(v_new)
            if gap <= tol:
                break
    return iterates


# ---------------------------------------------------------------------------
# the integral operator of the full problem


def apply_integral_operator(
    p: ProblemSpec,
    grid: np.ndarray,
    u_values: np.ndarray,
) -> np.ndarray:
    """Image (and derivatives) of the order-m Volterra operator.

    Maps admissible sampled data u (columns u, u', ..., u^(m-1)) to the
    array whose column i is

        sum_j a_{i+j} t^j / j!  +  1/(m-i-1)! int_0^t (t-tau)^(m-i-1) f dtau,

    with f = f_override(t, u) (or q h(u_k)).  Column 0 is the operator
    image, column i its i-th derivative.  f is integrated block by block
    between q's jumps, each block sampling q's own branch at its ends, so on
    a grid with nodes at the jumps the quadrature never straddles one.  The
    quadrature is O(h^6) in the grid's spacing, so the image is as accurate
    as the grid: an integrator trajectory's own nodes are its steps, too
    wide for it; sample its dense output on a finer grid.
    """
    grid = np.asarray(grid, dtype=float)
    u_values = np.atleast_2d(np.asarray(u_values, dtype=float))
    if u_values.shape == (1, len(grid)) and p.m == 1:
        u_values = u_values.T
    if u_values.shape != (len(grid), p.m):
        raise InvalidParameterError(
            f"u_values must have shape ({len(grid)}, {p.m}), got {u_values.shape}"
        )
    blocks = []
    for i0, i1, ts, qv in _q_blocks(p.q, grid):
        u = u_values[i0 : i1 + 1]
        if p.f_override is None:
            f = qv * p.h.eval_array(u[:, p.k])
        else:
            f = np.array([float(p.f_override(t, y)) for t, y in zip(ts, u)])
        blocks.append((i0, i1, f))
    if not all(np.all(np.isfinite(f)) for _, _, f in blocks):
        raise NumericFailureError("non-finite right-hand side samples")

    return integral_image(p.a, blocks, grid)


@dataclass(frozen=True)
class BoundPreservationReport:
    trials: int
    seed: int
    worst_violation: float
    worst_trial: int

    @property
    def passed(self) -> bool:
        return self.worst_violation <= 1e-9


def verify_bound_preservation(
    p: ProblemSpec,
    v: Trajectory,
    trials: int,
    seed: int = 0,
) -> BoundPreservationReport:
    """Randomized check that the operator maps the box [0, v] into itself.

    Each trial draws admissible data u with 0 <= u^(i) <= v^(i) (random
    scalings of v's components on BOUND_PIECES blocks, jumps aligned with
    trajectory nodes) and an admissible right-hand side f = c(t) q h(u_k) with piecewise c in
    [0, 1], then checks 0 <= (operator image)^(i) <= v^(i) at all nodes.
    The check runs on the trajectory's own nodes (exact values, no dense
    interpolation), reading a repeated node (a jump of q) once, at its first
    copy, and the image integrals are assembled block by block,
    split at q's jumps too (each block sampling q's own branch, as in
    :func:`apply_integral_operator`), so the quadrature never straddles a
    jump of c or q.  Violations are reported, never raised.
    """
    trials = check_int("trials", trials, 0)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    grid, V = v.ts[v.distinct], v.ys[v.distinct]
    q_blocks = _q_blocks(p.q, grid)
    worst = 0.0
    worst_trial = -1

    for trial in range(trials):
        cuts = _block_cuts(rng, len(grid))
        u_scales = rng.uniform(0.0, 1.0, (len(cuts) - 1, p.m))
        c_scales = rng.uniform(0.0, 1.0, len(cuts) - 1)

        blocks = []
        for bi in range(len(cuts) - 1):
            for i0, i1, _, qv in q_blocks:
                a_idx, b_idx = max(cuts[bi], i0), min(cuts[bi + 1], i1)
                if a_idx < b_idx:
                    u_k = V[a_idx : b_idx + 1, p.k] * u_scales[bi, p.k]
                    f_block = c_scales[bi] * qv[a_idx - i0 : b_idx - i0 + 1] * p.h.eval_array(u_k)
                    blocks.append((a_idx, b_idx, f_block))
        img = integral_image(p.a, blocks, grid)

        over = float(np.max(img - V))
        under = float(np.max(-img))
        viol = max(over, under, 0.0)
        if viol > worst:
            worst, worst_trial = viol, trial
    return BoundPreservationReport(
        trials=trials, seed=int(seed), worst_violation=worst, worst_trial=worst_trial
    )


def _block_cuts(rng, n_nodes: int) -> list[int]:
    """Node indices splitting [0, n-1] into BOUND_PIECES blocks, or into one
    block when nodes 2..n-3 are too few to hold the cuts."""
    if n_nodes < BOUND_PIECES + 3:
        return [0, n_nodes - 1]
    interior = rng.choice(np.arange(2, n_nodes - 2), size=BOUND_PIECES - 1, replace=False)
    return [0] + sorted(int(i) for i in interior) + [n_nodes - 1]
