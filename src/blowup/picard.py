"""Constructive machinery: comparison constants, quadrature inversion,
monotone Picard towers, and the integral operator behind them.

The pieces fit together as follows.  For the driven problem
u^(n) = q(t) h(u) a *majorant growth function* g is built from h
(:func:`majorant_growth`) such that the scalar equation
(d/dt) u^(1/n) = g(u)^(1/n) produces a dominating solution; that equation
is autonomous and separable, so its solution is obtained by inverting

    F(U) = 1/n * int_{u0}^{U} g(s)^(-1/n) s^(1/n - 1) ds  =  t

with bracketed root finding (:func:`solve_autonomous_quadrature`).  The
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

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import (
    BracketFailureError,
    FiniteEscapeError,
    InvalidParameterError,
    NumericFailureError,
)
from .functions import ScalarFn, make_custom
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


@dataclass(frozen=True)
class ComparisonConstants:
    """alpha = 1/2^(n+1), beta = 1/(1+2^n); both depend only on n."""

    n: int
    alpha: float
    beta: float


def comparison_constants(n: int) -> ComparisonConstants:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameterError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    return ComparisonConstants(n=n, alpha=1.0 / 2 ** (n + 1), beta=1.0 / (1 + 2 ** n))


# ---------------------------------------------------------------------------
# quadrature inversion


def _inverse_integrand_y(g: ScalarFn, n: int):
    """Integrand of F after the substitution s = e^y: e^(y/n) g(e^y)^(-1/n)."""

    def fy(y):
        try:
            s = math.exp(y)
            gv = float(g(s))
        except OverflowError:
            return 0.0  # g huge => integrand underflows to 0
        if gv <= 0.0 or not math.isfinite(gv):
            if math.isinf(gv):
                return 0.0
            raise NumericFailureError(f"g({s!r}) = {gv!r} not positive")
        return math.exp(y / n) * gv ** (-1.0 / n)

    return fy


def solve_autonomous_quadrature(
    g: ScalarFn,
    n: int,
    u0: float,
    t_targets: Sequence[float],
    *,
    quad_tol: float = 1e-12,
) -> np.ndarray:
    """Invert F(U) = t for each target t >= 0.

    F is computed by adaptive quadrature (in log abscissa, which keeps the
    panels well-scaled over many decades), the root bracketed by geometric
    growth and solved by Brent's method, then polished with two Newton
    steps using the analytic F' = g(U)^(-1/n) U^(1/n-1) / n.

    Raises FiniteEscapeError when F is bounded above by some
    t_max < max(t_targets): the majorant itself reaches infinity at the
    finite time t_max (carried on the exception).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameterError(f"n must be an integer >= 1, got {n!r}")
    if not (u0 > 0.0):
        raise InvalidParameterError(f"u0 must be > 0, got {u0!r}")
    targets = np.asarray(t_targets, dtype=float)
    if targets.ndim != 1:
        raise InvalidParameterError("t_targets must be a 1-D sequence")
    if np.any(targets < 0.0):
        raise InvalidParameterError("targets must be >= 0")
    n = int(n)

    fy = _inverse_integrand_y(g, n)
    y0 = math.log(u0)

    def F_of_y(yb: float) -> float:
        if yb <= y0:
            return 0.0
        val, _ = quad(fy, y0, yb, epsabs=quad_tol, epsrel=quad_tol, limit=400)
        return val / n

    order = np.argsort(targets)
    out = np.empty_like(targets)
    Y_CAP = 660.0  # e^660 ~ 5e286, close to the float ceiling
    y_warm = y0

    # g may overflow to inf on the way to a root; the integrand maps that to 0
    with np.errstate(over="ignore"):
        for idx in order:
            t = float(targets[idx])
            if t == 0.0:
                out[idx] = u0
                continue
            # grow the bracket geometrically in y (multiplicatively in U),
            # warm-started from the previous (smaller) root
            y_lo = y_warm
            f_lo = F_of_y(y_lo)
            while f_lo > t:  # paranoia: warm start overshot
                y_lo = max(y0, y_lo - 1.0)
                f_lo = F_of_y(y_lo)
                if y_lo == y0:
                    break
            y_hi, step = y_lo, 0.5
            f_hi = f_lo
            while f_hi < t:
                if y_hi >= Y_CAP:
                    tail, _ = quad(fy, y_hi, np.inf, epsabs=quad_tol, epsrel=1e-9, limit=400)
                    total = f_hi + tail / n
                    if math.isfinite(total) and total < t:
                        raise FiniteEscapeError(
                            f"majorant escapes at finite time ~{total!r} < target {t!r}",
                            escape_time=total,
                        )
                    raise BracketFailureError(
                        f"could not bracket target t={t!r} below the overflow cap"
                    )
                y_lo, f_lo = y_hi, f_hi
                y_hi = min(Y_CAP, y_hi + step)
                f_hi = F_of_y(y_hi)
                step = min(step * 2.0, 128.0)

            y_root = brentq(lambda yb: F_of_y(yb) - t, y_lo, y_hi, xtol=1e-13, rtol=8.9e-16)
            U = math.exp(y_root)
            # Newton polish on F(U) = t with the analytic derivative
            for _ in range(2):
                r = F_of_y(math.log(U)) - t
                gv = float(g(U))
                if gv <= 0.0:
                    break
                dF = gv ** (-1.0 / n) * U ** (1.0 / n - 1.0) / n
                if dF <= 0.0 or not math.isfinite(dF):
                    break
                U = max(u0, U - r / dF)
            out[idx] = U
            y_warm = max(y0, min(math.log(U) - 1e-9, Y_CAP))
    return out


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
    """g(s) = weight * h(s / beta) / (alpha (n-1)!), metadata inherited from h.

    ``weight`` absorbs a constant bound on the time coefficient (sup q) when
    the driven problem is not autonomous.
    """
    consts = comparison_constants(n)
    c = float(weight) / (consts.alpha * math.factorial(n - 1))
    inv_beta = 1.0 / consts.beta

    def fn(s, _c=c, _ib=inv_beta, _h=h):
        return _c * _h(s * _ib)

    return make_custom(
        fn,
        nondecreasing=h.nondecreasing,
        nonnegative=h.nonnegative,
        asymptotic_exponent=h.asymptotic_exponent,
        label=f"majorant_growth({h.spec_text}, n={n})",
    )


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

    def value(self, t=None) -> np.ndarray:
        return self.iterates[-1] if t is None else np.interp(t, self.grid, self.iterates[-1])


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
    grid_min: int = 129,
    grid_cap: int = 16385,
) -> PicardTower:
    """Run the monotone Picard tower for v^(n) = q(t) h(v) on [0, T].

    ``b`` are the tower's initial values (all > 0 in the plain autonomous
    use).  ``majorant_b`` (componentwise >= b, all > 0) seeds the
    quadrature majorant; it defaults to b and allows towers started from
    nonnegative data as long as a strictly positive dominating seed is
    supplied.  The uniform grid is doubled until two successive converged
    towers differ by < tol/4 (or the cap is reached; the achieved gap is
    reported either way).

    Raises FiniteEscapeError if the quadrature majorant fails to exist on
    [0, T] (the divergence hypothesis fails numerically); that is checked
    once, at T, before the first tower is built.  The majorant itself is
    inverted once, on the grid the ladder stops at.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameterError(f"n must be an integer >= 1, got {n!r}")
    if not (T > 0.0):
        raise InvalidParameterError(f"T must be > 0, got {T!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InvalidParameterError(f"tol must be > 0 and finite, got {tol!r}")
    n = int(n)
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

    q_sup = _sup_on_interval(q, T) if q is not None else 1.0
    if q_sup <= 0.0:
        q_sup = 1.0  # q == 0: the tower is the bare polynomial; any majorant works
    g = majorant_growth(h, n, weight=q_sup)
    u0_maj = sum(bi * T ** i / math.factorial(i) for i, bi in enumerate(mb))
    bps = tuple(bp for bp in (q.breakpoints if q is not None else ()) if 0.0 < bp < T)

    edges = [0.0, *bps, float(T)]
    base_cells = _allocate_cells(edges, max(8, int(grid_min) - 1))

    # F is increasing, so the majorant escapes before some grid node exactly
    # when it escapes before T: one target settles escape for every grid
    solve_autonomous_quadrature(g, n, u0_maj, [T])

    prev_grid = prev_final = None
    mult = 1
    while True:
        grid = _segmented_grid(edges, [c * mult for c in base_cells])
        iterates = _run_tower(h, b, q, grid, tol, max_iter)
        final = iterates[-1]
        if prev_final is not None:
            shared = _nearest_indices(grid, prev_grid)
            disc_gap = float(np.max(np.abs(final[shared] - prev_final)))
            if disc_gap <= tol / 4.0 or len(grid) >= grid_cap:
                break
        prev_grid, prev_final = grid, final
        mult *= 2

    correction = (final[shared] - prev_final) / 3.0
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


def _allocate_cells(edges: list, total_cells: int) -> list:
    T = edges[-1] - edges[0]
    return [
        max(2, int(round(total_cells * (edges[i + 1] - edges[i]) / T)))
        for i in range(len(edges) - 1)
    ]


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


def _nearest_indices(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """Index of the fine node nearest each coarse node (nested up to ulp)."""
    idx = np.clip(np.searchsorted(fine, coarse), 1, len(fine) - 1)
    left_closer = np.abs(fine[idx - 1] - coarse) <= np.abs(fine[idx] - coarse)
    return np.where(left_closer, idx - 1, idx)


def _sup_on_interval(q: ScalarFn, T: float) -> float:
    probes = np.linspace(0.0, T, 257)
    if q.breakpoints:
        inside = [bp for bp in q.breakpoints if 0.0 <= bp <= T]
        probes = np.unique(np.concatenate([probes, inside]))
    return float(np.max(q.eval_array(probes)))


def _q_blocks(q: Optional[ScalarFn], grid: np.ndarray):
    """(i0, i1, q values) per smoothness block, edges exactly on nodes.

    The blocks split the grid at q's breakpoints inside it.  The right-edge
    sample takes q's left limit so each block sees only its own branch of a
    piecewise coefficient.
    """
    bps = [bp for bp in (q.breakpoints if q is not None else ()) if grid[0] < bp < grid[-1]]
    edges = [float(grid[0]), *bps, float(grid[-1])]
    blocks = []
    for i in range(len(edges) - 1):
        i0 = int(np.searchsorted(grid, edges[i]))
        i1 = int(np.searchsorted(grid, edges[i + 1]))
        sub = grid[i0 : i1 + 1].copy()
        if q is None:
            qv = np.ones(len(sub))
        else:
            sub_eval = sub.copy()
            if i + 1 < len(edges) - 1:  # interior right edge: left limit
                sub_eval[-1] = np.nextafter(sub_eval[-1], sub_eval[0])
            qv = q.eval_array(sub_eval)
        blocks.append((i0, i1, qv))
    return blocks


def _run_tower(h, b, q, grid, tol, max_iter) -> list:
    """Picard iterates on ``grid`` from the seed polynomial, until a step
    moves the iterate by <= tol or max_iter steps are taken."""
    q_blocks = _q_blocks(q, grid)
    iterates = [integral_image(b, (), grid)[:, 0]]
    for _ in range(max_iter):
        h_vals = h.eval_array(iterates[-1])
        blocks = [(i0, i1, qv * h_vals[i0 : i1 + 1]) for i0, i1, qv in q_blocks]
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
    blocks = [(i0, i1, qv * h_vals[i0 : i1 + 1]) for i0, i1, qv in _q_blocks(q, grid)]
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
    f_values: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Image (and derivatives) of the order-m Volterra operator.

    Maps admissible sampled data u (columns u, u', ..., u^(m-1)) to the
    array whose column i is

        sum_j a_{i+j} t^j / j!  +  1/(m-i-1)! int_0^t (t-tau)^(m-i-1) f dtau,

    with f = f_override(t, u) (or q h(u_k)) unless explicit samples are
    passed.  Column 0 is the operator image, column i its i-th derivative.
    """
    grid = np.asarray(grid, dtype=float)
    u_values = np.atleast_2d(np.asarray(u_values, dtype=float))
    if u_values.shape == (1, len(grid)) and p.m == 1:
        u_values = u_values.T
    if u_values.shape != (len(grid), p.m):
        raise InvalidParameterError(
            f"u_values must have shape ({len(grid)}, {p.m}), got {u_values.shape}"
        )
    if f_values is None:
        if p.f_override is not None:
            f_values = np.array(
                [float(p.f_override(t, u_values[i])) for i, t in enumerate(grid)]
            )
        else:
            f_values = p.q.eval_array(grid) * p.h.eval_array(u_values[:, p.k])
    f_values = np.asarray(f_values, dtype=float)
    if not np.all(np.isfinite(f_values)):
        raise NumericFailureError("non-finite right-hand side samples")

    return integral_image(p.a, [(0, len(grid) - 1, f_values)], grid)


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
    *,
    pieces: int = 4,
) -> BoundPreservationReport:
    """Randomized check that the operator maps the box [0, v] into itself.

    Each trial draws admissible data u with 0 <= u^(i) <= v^(i) (piecewise
    random scalings of v's components, jumps aligned with trajectory nodes)
    and an admissible right-hand side f = c(t) q h(u_k) with piecewise c in
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
        cuts = _block_cuts(rng, len(grid), pieces)
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


def _block_cuts(rng, n_nodes: int, pieces: int) -> list[int]:
    """Node indices splitting [0, n-1] into up to ``pieces`` blocks."""
    if pieces <= 1 or n_nodes < 4:
        return [0, n_nodes - 1]
    interior = rng.choice(np.arange(2, n_nodes - 2), size=pieces - 1, replace=False)
    return [0] + sorted(int(i) for i in interior) + [n_nodes - 1]
