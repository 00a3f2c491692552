"""Constructive machinery: comparison constants, quadrature inversion,
monotone Picard towers, and the integral operator behind them.

The pieces fit together as follows.  For the driven problem
u^(n) = q(t) h(u) a *majorant growth function* g is built from h
(:func:`majorant_growth`) such that the scalar equation
(d/dt) u^(1/n) = g(u)^(1/n) produces a dominating solution; that equation
is autonomous and separable, so its solution is obtained by inverting

    F(U) = 1/n * int_{u0}^{U} g(s)^(-1/n) s^(1/n - 1) ds  =  t

against one Gauss-Legendre table of F per call, with Newton steps for all
targets at once (:func:`solve_autonomous_quadrature`).  The
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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import (
    BracketFailureError,
    FiniteEscapeError,
    InvalidParameterError,
    NumericFailureError,
    check_int,
)
from .functions import ScalarFn, make_constant, make_custom
from .ode import ProblemSpec, Trajectory
from .volterra import integral_image, weighted_volterra

__all__ = [
    "ComparisonConstants",
    "comparison_constants",
    "solve_autonomous_quadrature",
    "ComparisonReport",
    "verify_comparison_bound",
    "majorant_growth",
    "PicardTower",
    "picard_solve",
    "tower_trajectory",
    "apply_integral_operator",
    "BoundPreservationReport",
    "verify_bound_preservation",
]

QUAD_TOL = 1e-12      # relative error allowed on each panel of the table of F
GRID_MIN = 129        # nodes of the tower's first grid
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

# F's table in y = log s: panels of width _PANEL, _CHUNK per g.eval_array call, up to
# Y_CAP (e^660 ~ 5e286; quad takes the tail on); targets are solved _SLICE at a time
_PANEL, _CHUNK, _SLICE, Y_CAP = 0.125, 64, 1024, 660.0


@functools.cache
def _gauss_rules():
    """20-point Gauss-Legendre checked by 11-point (odd: it sees a jump at a
    panel's centre, where two even rules agree), as read-only (x, w) pairs.
    Built on first use and kept, so an import runs no LAPACK."""
    rules = np.polynomial.legendre.leggauss(20), np.polynomial.legendre.leggauss(11)
    for x, w in rules:
        x.setflags(write=False)
        w.setflags(write=False)
    return rules


def _panels(f, edges: np.ndarray, rules):
    """The panel edges after halving each panel until the two rules agree to
    QUAD_TOL of its first value, and the panels' integrals of f."""
    (x20, w20), (x11, w11) = rules
    x, budget = np.concatenate([x20, x11]), None
    for _ in range(64):
        mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
        fv = f(mid[:, None] + half[:, None] * x)
        val = half * (fv[:, : len(w20)] @ w20)
        budget = QUAD_TOL * val if budget is None else budget
        bad = np.abs(val - half * (fv[:, len(w20) :] @ w11)) > budget
        if not bad.any():
            return edges, val
        edges = np.insert(edges, np.flatnonzero(bad) + 1, mid[bad])
        budget = np.repeat(budget, np.where(bad, 2, 1))
    raise NumericFailureError(f"F not resolved to {QUAD_TOL} on [{edges[0]:.17g}, {edges[-1]:.17g}]")


def solve_autonomous_quadrature(
    g: ScalarFn,
    n: int,
    u0: float,
    t_targets: Sequence[float],
) -> np.ndarray:
    """Invert F(U) = t for each finite target t >= 0.

    F is tabulated once per call in the log abscissa y = log s, which keeps
    the panels well-scaled over many decades: panels of width 0.125, edges
    also at log of g's breakpoints, 20-point Gauss-Legendre halved until an
    11-point rule agrees to QUAD_TOL, a running sum grown until F passes the
    largest target.  All targets are then solved at once by bracketed Newton
    steps with the analytic F' = g(U)^(-1/n) U^(1/n-1) / n.

    If F stays below a target up to y = Y_CAP, one quad of the tail decides:
    FiniteEscapeError when F is shown to converge to some t_max <
    max(t_targets), so the majorant itself reaches infinity at the finite
    time t_max (carried on the exception), else BracketFailureError.
    """
    n = check_int("n", n)
    if not (0.0 < u0 < math.inf):
        raise InvalidParameterError(f"u0 must be > 0 and finite, got {u0!r}")
    targets = np.asarray(t_targets, dtype=float)
    if targets.ndim != 1:
        raise InvalidParameterError("t_targets must be a 1-D sequence")
    if not np.all((targets >= 0.0) & (targets < math.inf)):
        raise InvalidParameterError("targets must be finite and >= 0")
    out = np.full_like(targets, float(u0))
    live = np.flatnonzero(targets > 0.0)
    if not len(live):
        return out

    def f(y):  # n times F's integrand in y, e^(y/n) g(e^y)^(-1/n); 0 where g is inf
        s = np.exp(y)
        gv = g.eval_array(s)
        if not np.all(gv > 0.0):
            i = np.flatnonzero(~(gv > 0.0))[0]
            raise NumericFailureError(f"g({float(s.flat[i])!r}) = {float(gv.flat[i])!r} not positive")
        return np.exp(y / n) * gv ** (-1.0 / n)

    t_max, bps = float(targets.max()), np.log([bp for bp in g.breakpoints if bp > 0.0])
    rules = _gauss_rules()
    # g may overflow to inf far out, where the integrand is 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lefts, cums, y, c_last = [], [[0.0]], math.log(u0), 0.0
        while c_last <= t_max and y < Y_CAP:
            z = min(y + _PANEL * _CHUNK, Y_CAP)
            cuts = np.union1d(np.append(np.arange(y, z, _PANEL), z), bps[(bps > y) & (bps < z)])
            edges, val = _panels(f, cuts, rules)
            lefts.append(edges[:-1])
            cums.append(c_last + np.cumsum(val) / n)
            y, c_last = z, float(cums[-1][-1])

        if t_max > c_last:
            # quad sums the tail to e^709 ~ 8e307; the rest past the last unit step of y
            # where g is finite, extrapolated from its decay, must be within QUAD_TOL
            t = float(targets[targets > c_last].min())
            total = c_last + quad(f, y, max(709.0, y), epsabs=QUAD_TOL, epsrel=1e-9, limit=400)[0] / n
            f1, f2 = np.append([0.0, 0.0], np.trim_zeros(f(np.arange(math.log(u0), 709.0)), "b"))[-2:]
            rest = f2 / math.log(f1 / f2) if 0.0 < f2 < f1 else math.inf
            if rest <= QUAD_TOL * n * total and total < t:
                raise FiniteEscapeError(f"majorant escapes at finite time ~{total!r} < target {t!r}",
                                        escape_time=total)
            raise BracketFailureError(f"could not bracket target t={t!r} below the overflow cap")

        E, C = np.append(np.concatenate(lefts), y), np.concatenate(cums)
        for i in range(0, len(live), _SLICE):
            idx = live[i : i + _SLICE]
            out[idx] = np.maximum(u0, np.exp(_newton(f, n, E, C, targets[idx], *rules[0])))
    return out


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
    """Evaluate both sides of the comparison inequality on a uniform grid."""
    consts = comparison_constants(n)
    grid = np.linspace(0.0, float(T), int(grid_size))
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
        grid_size=int(grid_size),
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
    inv_beta = 1.0 / consts.beta

    def fn(s, _c=c, _ib=inv_beta, _h=h):
        return _c * _h(s * _ib)

    g = make_custom(
        fn,
        nondecreasing=h.nondecreasing,
        nonnegative=h.nonnegative,
        asymptotic_exponent=h.asymptotic_exponent,
        label=f"majorant_growth({h.spec_text}, n={n})",
    )
    return replace(g, breakpoints=tuple(bp * consts.beta for bp in h.breakpoints))


# ---------------------------------------------------------------------------
# monotone Picard tower


@dataclass(frozen=True)
class PicardTower:
    """Iterates of the monotone Volterra map on a fixed uniform grid.

    ``iterates[0]`` is the seed polynomial; ``converged`` refers to the
    iteration sup-gap, separate from the recorded discretization gap of the
    grid-refinement ladder; ``grid_converged`` says whether that gap met
    tol/4 (false when the ladder stopped at its grid cap).  ``solution`` is
    the final iterate with one Richardson correction across the last grid
    doubling (used where extra accuracy matters); the invariant checks apply
    to the raw iterates.  ``majorant`` is the quadrature majorant on
    ``grid``, inverted once for the returned grid only, and every
    diagnostic (gaps, slacks, iteration count) is read from the returned
    iterates.
    """

    grid: np.ndarray
    iterates: list
    converged: bool
    iterations: int
    sup_gap: float
    majorant: np.ndarray
    solution: np.ndarray
    discretization_gap: float
    grid_converged: bool
    monotone_slack: float      # most negative value of v_j - v_{j-1} observed
    majorant_slack: float      # most negative value of u - v_j observed


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
    supplied.  The uniform grid (GRID_MIN nodes at first) is doubled until
    two successive converged towers differ by < tol/4 (or the cap is
    reached; the achieved gap is reported either way).

    Raises FiniteEscapeError if the quadrature majorant fails to exist on
    [0, T] (the divergence hypothesis fails numerically); that is checked
    once, at T, before the first tower is built.  The majorant itself is
    inverted once, on the grid the ladder stops at.
    """
    n = check_int("n", n)
    if not (T > 0.0):
        raise InvalidParameterError(f"T must be > 0, got {T!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InvalidParameterError(f"tol must be > 0 and finite, got {tol!r}")
    b = np.asarray(b, dtype=float)
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
    bps = tuple(bp for bp in q.breakpoints if 0.0 < bp < T)

    edges = [0.0, *bps, float(T)]
    base_cells = [max(2, round((GRID_MIN - 1) * (hi - lo) / T)) for lo, hi in zip(edges, edges[1:])]

    # F is increasing, so the majorant escapes before some grid node exactly
    # when it escapes before T: one target settles escape for every grid
    solve_autonomous_quadrature(g, n, u0_maj, [T])

    # every segment doubles its cells, so coarse node i is fine node 2i
    prev_grid = prev_final = None
    mult = 1
    while True:
        grid = _segmented_grid(edges, [c * mult for c in base_cells])
        iterates = _run_tower(h, b, q, grid, tol, max_iter)
        final = iterates[-1]
        if prev_final is not None:
            disc_gap = float(np.max(np.abs(final[::2] - prev_final)))
            if disc_gap <= tol / 4.0 or len(grid) >= grid_cap:
                break
        prev_grid, prev_final = grid, final
        mult *= 2

    correction = (final[::2] - prev_final) / 3.0
    u_maj = solve_autonomous_quadrature(g, n, u0_maj, grid)
    pairs = list(zip(iterates[1:], iterates))
    sup_gap = float(np.max(np.abs(final - iterates[-2]))) if pairs else math.inf
    return PicardTower(
        grid=grid,
        iterates=iterates,
        converged=sup_gap <= tol,
        iterations=len(pairs),
        sup_gap=sup_gap,
        majorant=u_maj,
        solution=final + np.interp(grid, prev_grid, correction),
        discretization_gap=disc_gap,
        grid_converged=disc_gap <= tol / 4.0,
        monotone_slack=min([0.0] + [float(np.min(v - w)) for v, w in pairs]),
        majorant_slack=min(float(np.min(u_maj - v)) for v in iterates),
    )


def _segmented_grid(edges: list, seg_cells: list) -> np.ndarray:
    """Piecewise-uniform grid with nodes exactly at the q breakpoints.

    Per-segment cell counts sit on a doubling ladder, so successive
    refinements contain the coarser nodes.
    """
    parts = []
    for i, c in enumerate(seg_cells):
        seg = np.linspace(edges[i], edges[i + 1], c + 1)
        parts.append(seg if i == 0 else seg[1:])
    return np.concatenate(parts)


def _sup_on_interval(q: ScalarFn, T: float) -> float:
    probes = np.linspace(0.0, T, 257)
    if q.breakpoints:
        inside = [bp for bp in q.breakpoints if 0.0 <= bp <= T]
        probes = np.unique(np.concatenate([probes, inside]))
    return float(np.max(q.eval_array(probes)))


def _q_blocks(q: ScalarFn, grid: np.ndarray):
    """(i0, i1, sample times, q values) per smoothness block, edges on nodes.

    The blocks split the grid at q's breakpoints inside it.  The sample
    times are the block's nodes, except that an interior right edge takes
    q's left limit, so each block sees only its own branch of a piecewise
    coefficient.
    """
    bps = [bp for bp in q.breakpoints if grid[0] < bp < grid[-1]]
    edges = [float(grid[0]), *bps, float(grid[-1])]
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
    moves the iterate by <= tol or max_iter steps are taken."""
    q_blocks = _q_blocks(q, grid)
    iterates = [integral_image(b, (), grid)[:, 0]]
    for _ in range(max_iter):
        h_vals = h.eval_array(iterates[-1])
        blocks = [(i0, i1, qv * h_vals[i0 : i1 + 1]) for i0, i1, _, qv in q_blocks]
        v_new = integral_image(b, blocks, grid)[:, 0]
        if not np.all(np.isfinite(v_new)):
            raise NumericFailureError("Picard iterate became non-finite")
        iterates.append(v_new)
        if float(np.max(np.abs(v_new - iterates[-2]))) <= tol:
            break
    return iterates


def tower_trajectory(tower: PicardTower, h: ScalarFn, q: ScalarFn, b: Sequence[float]) -> Trajectory:
    """Full derivative state of a tower's solution of v^(n) = q(t) h(v).

    ``h``, ``q`` and the initial values ``b`` are the ones the tower was
    built from.  One extra application of the integral operator to the
    refined solution yields all n components with mutually consistent
    integral relations; blocks keep the quadrature away from q's jump points.
    The trajectory's ``tol`` is the larger of the tower's iteration and
    discretization gaps, the error actually achieved.
    """
    grid = tower.grid
    h_vals = h.eval_array(tower.solution)
    blocks = [(i0, i1, qv * h_vals[i0 : i1 + 1]) for i0, i1, _, qv in _q_blocks(q, grid)]
    ys = integral_image(b, blocks, grid)
    dys = np.empty_like(ys)
    dys[:, :-1] = ys[:, 1:]
    dys[:, -1] = q.eval_array(grid) * h_vals
    tol = max(tower.sup_gap, tower.discretization_gap)
    return Trajectory(ts=grid.copy(), ys=ys, dys=dys, m=len(b), tol=tol)


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
    a grid with nodes at the jumps the quadrature never straddles one.
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
    interpolation) and the image integrals are assembled block by block so
    the quadrature never straddles a factor jump.  Violations are reported,
    never raised; a trajectory with a repeated node (a restart at a jump of
    q) is refused with InvalidParameterError, since the operator needs a
    strictly increasing grid.
    """
    rng = np.random.default_rng(seed)
    grid = v.ts
    V = v.ys
    qvals = p.q.eval_array(grid)
    worst = 0.0
    worst_trial = -1

    for trial in range(int(trials)):
        cuts = _block_cuts(rng, len(grid))
        u_scales = rng.uniform(0.0, 1.0, (len(cuts) - 1, p.m))
        c_scales = rng.uniform(0.0, 1.0, len(cuts) - 1)

        blocks = []
        for bi in range(len(cuts) - 1):
            a_idx, b_idx = cuts[bi], cuts[bi + 1]
            u_k = V[a_idx : b_idx + 1, p.k] * u_scales[bi, p.k]
            f_block = c_scales[bi] * qvals[a_idx : b_idx + 1] * p.h.eval_array(u_k)
            blocks.append((a_idx, b_idx, f_block))
        img = integral_image(p.a, blocks, grid)

        over = float(np.max(img - V))
        under = float(np.max(-img))
        viol = max(over, under, 0.0)
        if viol > worst:
            worst, worst_trial = viol, trial
    return BoundPreservationReport(
        trials=int(trials), seed=int(seed), worst_violation=worst, worst_trial=worst_trial
    )


def _block_cuts(rng, n_nodes: int) -> list[int]:
    """Node indices splitting [0, n-1] into BOUND_PIECES blocks, or into one
    block when nodes 2..n-3 are too few to hold the cuts."""
    if n_nodes < BOUND_PIECES + 3:
        return [0, n_nodes - 1]
    interior = rng.choice(np.arange(2, n_nodes - 2), size=BOUND_PIECES - 1, replace=False)
    return [0] + sorted(int(i) for i in interior) + [n_nodes - 1]
