import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from blowup.errors import BracketFailureError, FiniteEscapeError, InvalidParameterError
from blowup.functions import make_constant, make_custom, make_piecewise, make_power, parse_fn_spec
from blowup.ode import ProblemSpec, integrate
from blowup.picard import (
    apply_integral_operator,
    comparison_constants,
    majorant_growth,
    picard_solve,
    solve_autonomous_quadrature,
    tower_trajectory,
    verify_bound_preservation,
    verify_comparison_bound,
)

ONE = make_constant(1.0)


class TestConstants:
    @pytest.mark.parametrize("n,alpha,beta", [(1, 0.25, 1 / 3), (2, 0.125, 0.2), (3, 1 / 16, 1 / 9)])
    def test_values(self, n, alpha, beta):
        c = comparison_constants(n)
        assert c.alpha == pytest.approx(alpha, rel=1e-15)
        assert c.beta == pytest.approx(beta, rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_growth_identities(self, n):
        c = comparison_constants(n)
        assert 2 ** n * c.alpha == 0.5
        assert (c.alpha / 2 ** (n - 1)) * (1.0 / c.beta - 1.0) == pytest.approx(
            2.0 * c.alpha, rel=1e-14
        )
        assert 0.0 < c.alpha <= 0.25
        assert 0.0 < c.beta <= 1 / 3

    def test_decreasing_in_n(self):
        cs = [comparison_constants(n) for n in range(1, 7)]
        assert all(a.alpha > b.alpha and a.beta > b.beta for a, b in zip(cs, cs[1:]))

    def test_bad_n(self):
        with pytest.raises(InvalidParameterError):
            comparison_constants(0)


class TestQuadratureInversion:
    def test_exponential(self):
        u = solve_autonomous_quadrature(make_power(1), 1, 1.0, [1.0])
        assert u[0] == pytest.approx(math.e, abs=1e-9)

    def test_square_growth(self):
        u = solve_autonomous_quadrature(ONE, 2, 1.0, [1.0])
        assert u[0] == pytest.approx(4.0, abs=1e-8)

    def test_hyperbolic(self):
        u = solve_autonomous_quadrature(make_power(2), 1, 1.0, [0.5])
        assert u[0] == pytest.approx(2.0, abs=1e-9)

    def test_finite_escape_detected(self):
        with pytest.raises(FiniteEscapeError) as exc:
            solve_autonomous_quadrature(make_power(2), 1, 1.0, [1.5])
        assert exc.value.escape_time == pytest.approx(1.0, abs=1e-6)

    def test_inverse_consistency(self):
        targets = np.linspace(0.0, 3.0, 50)
        u = solve_autonomous_quadrature(ONE, 2, 1.0, targets)
        for U, t in zip(u, targets):
            F, _ = quad(lambda s: 0.5 * s ** -0.5, 1.0, U, epsabs=1e-14, epsrel=1e-13)
            assert abs(F - t) <= 1e-10

    def test_target_order_preserved(self):
        shuffled = np.array([2.0, 0.0, 1.0, 0.5])
        u = solve_autonomous_quadrature(make_power(1), 1, 1.0, shuffled)
        assert np.allclose(u, np.exp(shuffled), rtol=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            solve_autonomous_quadrature(ONE, 1, 0.0, [1.0])
        with pytest.raises(InvalidParameterError):
            solve_autonomous_quadrature(ONE, 1, 1.0, [-1.0])
        with pytest.raises(InvalidParameterError):
            solve_autonomous_quadrature(ONE, 1, math.inf, [1.0])
        with pytest.raises(InvalidParameterError):
            solve_autonomous_quadrature(ONE, 1, 1.0, [math.nan])
        with pytest.raises(InvalidParameterError):
            solve_autonomous_quadrature(make_power(0.5), 1, 1.0, [math.inf])

    @pytest.mark.parametrize("lam,t", [(0.5, 1e300), (1.0, 1e300), (1.01, 99.95)])
    def test_no_escape_from_a_truncated_tail(self, lam, t):
        # F is unbounded for lam <= 1 and tends to 100 for lam = 1.01, so none
        # of these majorants escapes before t; each target lies past e^660
        with pytest.raises(BracketFailureError):
            solve_autonomous_quadrature(make_power(lam), 1, 1.0, [t])

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        n=st.integers(1, 3),
        u0=st.floats(0.1, 10.0),
        targets=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=20),
    )
    def test_matches_mpmath_oracle(self, lam, n, u0, targets):
        # g = s^lam: F(U) = (U^a - u0^a) / (n a) with a = (1 - lam)/n, log at a = 0
        u = solve_autonomous_quadrature(make_power(lam), n, u0, targets)
        with mpmath.workdps(40):
            a = (1 - mpmath.mpf(lam)) / n
            for U, t in zip(u, targets):
                U, v = mpmath.mpf(U), mpmath.mpf(u0)
                F = (U ** a - v ** a) / (n * a) if a else mpmath.log(U / v) / n
                assert abs(float(F) - t) <= 1e-10

    def test_jump_of_a_piecewise_g(self):
        # n = 1, g = 1 below s = 2 and 4 above: F(U) = U - 1, then 1 + (U - 2)/4
        g = make_piecewise([((0.0, 2.0), 1.0), ((2.0, math.inf), 4.0)])
        targets = np.linspace(0.0, 3.0, 61)
        u = solve_autonomous_quadrature(g, 1, 1.0, targets)
        exact = np.where(targets <= 1.0, 1.0 + targets, 2.0 + 4.0 * (targets - 1.0))
        assert np.max(np.abs(u / exact - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "fn", [lambda s: max(s, 2.0), lambda s: 1.0 if s < 2.0 else 4.0], ids=["kink", "jump"]
    )
    def test_scalar_only_g_with_a_kink_or_jump(self, fn):
        # neither g broadcasts, so eval_array loops over scalars; g declares no
        # breakpoint, and its kink or jump at s = 2 falls inside a table panel
        g = make_custom(fn, nondecreasing=True, nonnegative=True)
        with pytest.raises(ValueError):
            g(np.array([1.0, 3.0]))
        targets = np.linspace(0.0, 4.0, 41)
        u = solve_autonomous_quadrature(g, 2, 1.0, targets)
        for U, t in zip(u, targets):
            F, _ = quad(lambda s: 0.5 * g(s) ** -0.5 * s ** -0.5, 1.0, U,
                        points=[2.0] if U > 2.0 else None, epsabs=1e-14, epsrel=1e-13)
            assert abs(F - t) <= 1e-13

    def test_quad_not_called_below_the_cap(self, monkeypatch):
        # the table does the work; quad is kept for the tail past Y_CAP
        import blowup.picard as picard

        calls = []
        real = picard.quad
        monkeypatch.setattr(picard, "quad", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        u = solve_autonomous_quadrature(make_power(1), 2, 1.0, np.linspace(0.0, 5.0, 2049))
        assert u[-1] == pytest.approx(math.exp(10.0), rel=1e-13)  # F = log(U) / 2
        assert len(calls) <= 1


class TestComparisonBound:
    def test_exponential_closed_form(self):
        rep = verify_comparison_bound(make_power(1), 1, 1.0, 3.0, 200)
        assert rep.passed
        # at t = T the two sides are (e^3 - 1) and (e^3 - 1)/12
        assert rep.min_slack >= 0.0

    def test_constant_growth(self):
        # u = 1 + t: slack = t - t/4 = 3t/4
        rep = verify_comparison_bound(ONE, 1, 1.0, 5.0, 200)
        assert rep.passed

    @pytest.mark.parametrize(
        "n,g,T",
        [
            (1, make_power(1), 3.0),
            (1, ONE, 5.0),
            (1, make_power(2), 0.9),  # finite escape at t=1: stay below
            (2, ONE, 2.0),
            (2, make_power(1), 2.0),
        ],
    )
    def test_suite_nonnegative_slack(self, n, g, T):
        rep = verify_comparison_bound(g, n, 1.0, T, 200)
        assert rep.min_slack_rel >= -1e-9

    def test_quadratic_case_values(self):
        # n=2, g=1: u = (1+t)^2, LHS = 2t+t^2, RHS = t^2/16
        rep = verify_comparison_bound(ONE, 2, 1.0, 2.0, 200)
        grid = np.linspace(0, 2.0, 200)
        u = solve_autonomous_quadrature(ONE, 2, 1.0, grid)
        assert np.max(np.abs(u - (1 + grid) ** 2)) <= 1e-8
        assert rep.passed


class TestMajorantGrowth:
    def test_linear_case(self):
        g = majorant_growth(make_power(1), 1)
        assert g(3.0) == pytest.approx(36.0, rel=1e-14)

    def test_constant_case(self):
        g = majorant_growth(make_constant(1.0), 2)
        assert g(7.0) == pytest.approx(8.0, rel=1e-14)

    def test_quadratic_case(self):
        g = majorant_growth(make_power(2), 1)
        assert g(1.0) == pytest.approx(36.0, rel=1e-14)

    def test_metadata_inherited(self):
        h = make_power(2)
        g = majorant_growth(h, 2)
        assert g.nondecreasing and g.nonnegative
        assert g.asymptotic_exponent == 2.0

    def test_breakpoints_inherited(self):
        # g(s) = c h(s / beta) jumps where s / beta meets a jump of h
        g = majorant_growth(parse_fn_spec("piecewise((0,1):1, (1,inf):2)"), 2)
        assert g.breakpoints == (0.2,)
        assert g(0.19) * 2.0 == g(0.21)

    def test_weight_scales(self):
        g = majorant_growth(make_constant(1.0), 1, weight=3.0)
        assert g(1.0) == pytest.approx(12.0, rel=1e-14)


class TestPicardTower:
    def test_exponential_series(self):
        tw = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-10)
        assert tw.converged
        assert tw.iterations <= 30
        assert abs(tw.iterates[-1][-1] - math.e) <= 1e-6
        # early iterates are the Taylor partial sums
        g = tw.grid
        assert np.max(np.abs(tw.iterates[1] - (1 + g))) <= 1e-12
        assert np.max(np.abs(tw.iterates[2] - (1 + g + g ** 2 / 2))) <= 1e-10

    def test_monotone_and_bounded(self):
        tw = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-10)
        assert tw.monotone_slack >= -1e-12
        assert tw.majorant_slack >= -1e-12 * (1.0 + np.max(tw.majorant))
        # closed-form majorant: growth g(s) = 12 s from u0 = 1 gives e^(12 t)
        assert tw.majorant[-1] == pytest.approx(math.exp(12.0), rel=1e-8)

    def test_constant_h_exact_after_one_iteration(self):
        tw = picard_solve(make_constant(1.0), 2, [1.0, 1.0], 2.0, tol=1e-12)
        g = tw.grid
        assert np.max(np.abs(tw.iterates[-1] - (1 + g + g ** 2 / 2))) == 0.0
        assert tw.iterations <= 2

    def test_fixed_point_residual(self):
        from blowup.volterra import weighted_volterra

        tw = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-10)
        v = tw.iterates[-1]
        image = 1.0 + weighted_volterra(v, 1, tw.grid)
        assert np.max(np.abs(image - v)) <= 10.0 * 1e-10

    def test_refuses_escaping_majorant(self):
        # h = s^2 forces a finite-escape majorant: hypothesis fails
        with pytest.raises(FiniteEscapeError):
            picard_solve(make_power(2), 1, [1.0], 2.0, tol=1e-8)

    def test_majorant_inverted_once_on_the_returned_grid(self, monkeypatch):
        # one target at T settles escape; the majorant is inverted on the
        # grid the ladder stops at, never on the coarser levels before it
        import blowup.picard as picard

        targets = []
        inverse = picard.solve_autonomous_quadrature

        def counted(g, n, u0, t_targets, **kw):
            targets.append(len(t_targets))
            return inverse(g, n, u0, t_targets, **kw)

        monkeypatch.setattr(picard, "solve_autonomous_quadrature", counted)
        tw = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-10)
        assert len(tw.grid) > 129  # the ladder doubled at least once
        assert targets == [1, len(tw.grid)]  # len(tw.grid) + 1 targets in all

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(InvalidParameterError, match="tol"):
            picard_solve(make_power(1), 1, [1.0], 1.0, tol=tol)

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        b=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=2),
        T=st.floats(0.05, 1.0),
    )
    def test_tower_monotone_and_below_majorant(self, lam, b, T):
        # power-law data, n = len(b) in {1, 2}: the paper's two invariants
        tw = picard_solve(make_power(lam), len(b), b, T, tol=1e-9)
        assert tw.monotone_slack >= -1e-12
        assert tw.majorant_slack >= -1e-12 * (1.0 + float(np.max(tw.majorant)))

    def test_nonconvergence_reported(self):
        tw = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-12, max_iter=3)
        assert not tw.converged
        assert tw.iterations == 3
        assert tw.sup_gap > 1e-12

    def test_grid_cap_is_reported(self):
        # e^t to 1e-13 needs more than 257 nodes: the ladder stops at the cap
        # and says so, and the trajectory carries the achieved error
        capped = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-13, grid_cap=257)
        assert len(capped.grid) == 257 and capped.converged
        assert not capped.grid_converged
        assert capped.discretization_gap > 1e-13 / 4
        traj = tower_trajectory(capped, make_power(1), ONE, [1.0])
        assert traj.tol == capped.discretization_gap > capped.sup_gap
        free = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-10)
        assert free.grid_converged and free.discretization_gap <= 1e-10 / 4

    def test_positive_data_required_without_majorant_seed(self):
        with pytest.raises(InvalidParameterError):
            picard_solve(make_power(1), 1, [0.0], 1.0)
        tw = picard_solve(make_power(1), 1, [0.0], 1.0, majorant_b=[1.0])
        assert np.all(tw.iterates[-1] == 0.0)  # zero data, h(0) = 0

    def test_weighted_tower_matches_direct(self):
        # v'' = q(t) h(v) with piecewise q: closed form on each branch
        from blowup.functions import make_piecewise

        q = make_piecewise([((0, 1), 0.5), ((1, math.inf), 1.0)])
        tw = picard_solve(make_power(1), 2, [1.0, 1.0], 3.0, tol=1e-9, q=q)
        rt = math.sqrt(0.5)
        v1 = math.cosh(rt) + math.sinh(rt) / rt
        v1p = rt * math.sinh(rt) + math.cosh(rt)
        c1, c2 = (v1 + v1p) / 2, (v1 - v1p) / 2
        i1 = int(np.argmin(np.abs(tw.grid - 1.0)))
        assert tw.grid[i1] == 1.0  # breakpoint is a grid node
        assert tw.solution[i1] == pytest.approx(v1, abs=1e-8)
        assert tw.solution[-1] == pytest.approx(c1 * math.e ** 2 + c2 * math.e ** -2, abs=1e-8)

        # direct integration agrees at every tower node, inside the
        # dense-output cell that follows the jump too
        p = ProblemSpec(m=2, k=0, a=(1.0, 1.0), q=q, h=make_power(1))
        traj = integrate(p, 3.0, 1e-10)
        direct = traj(tw.grid)[:, 0]
        assert np.max(np.abs(tw.solution - direct)) <= 1e-6

    @pytest.mark.parametrize(
        "q,per_level",
        [(None, 1), (make_piecewise([((0, 1), 0.5), ((1, 2), 2.0), ((2, math.inf), 1.0)]), 3)],
    )
    def test_kernel_weights_built_once_per_grid(self, monkeypatch, q, per_level):
        # every Picard iteration on a grid level reuses that level's weights:
        # one build per grid, one grid per smoothness block of q
        from blowup import picard, volterra

        builds, levels = [], []
        build, run_tower = volterra._grid_weights, picard._run_tower

        def counted_build(grid, p):
            builds.append(grid.tobytes())
            return build(grid, p)

        def counted_tower(*args):
            levels.append(len(args[3]))
            return run_tower(*args)

        monkeypatch.setattr(volterra, "_grid_weights", counted_build)
        monkeypatch.setattr(volterra, "_WEIGHTS", {})
        monkeypatch.setattr(picard, "_run_tower", counted_tower)
        tw = picard_solve(make_power(1), 2, [1.0, 1.0], 3.0, tol=1e-9, q=q)
        assert len(levels) >= 3 and tw.iterations >= 5
        assert len(set(builds)) == len(builds)
        if per_level == 1:
            assert len(builds) == len(levels)
        else:
            assert len(levels) < len(builds) <= per_level * len(levels)


class TestIntegralOperator:
    def test_zero_rhs_gives_taylor_polynomial(self):
        p = ProblemSpec(m=3, k=0, a=(2.0, 1.0, 0.5), q=make_constant(0.0), h=make_power(1))
        grid = np.linspace(0, 2, 65)
        u = np.zeros((65, 3))
        img = apply_integral_operator(p, grid, u)
        want = 2.0 + grid + 0.25 * grid ** 2
        assert np.max(np.abs(img[:, 0] - want)) <= 1e-13

    def test_unit_case(self):
        p = ProblemSpec(m=1, k=0, a=(0.0,), q=ONE, h=make_constant(1.0))
        grid = np.linspace(0, 2, 65)
        img = apply_integral_operator(p, grid, np.zeros((65, 1)))
        assert np.max(np.abs(img[:, 0] - grid)) <= 1e-13

    def test_cosh_fixed_point(self):
        p = ProblemSpec(m=2, k=0, a=(1.0, 0.0), q=ONE, h=make_power(1))
        traj = integrate(p, 3.0, 1e-10)
        img = apply_integral_operator(p, traj.ts, traj.ys)
        assert np.max(np.abs(img - traj.ys)) <= 1e-7

    def test_fixed_point_across_a_jump_of_q(self):
        # the tower's grid has a node at the jump; the operator must not
        # run its quadrature stencil across it
        q = parse_fn_spec("piecewise((0,0.5):1, (0.5,inf):3)")
        h = make_power(1)
        tw = picard_solve(h, 1, [1.0], 1.0, q=q)
        traj = tower_trajectory(tw, h, q, [1.0])
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=h)
        img = apply_integral_operator(p, traj.ts, traj.ys)
        assert np.max(np.abs(img - traj.ys)) <= 1e-10


class TestBoundPreservation:
    def test_vacuous(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        traj = integrate(p, 2.0, 1e-10)
        rep = verify_bound_preservation(p, traj, 0, seed=0)
        assert rep.passed and rep.worst_violation == 0.0

    @pytest.mark.parametrize("m,a", [(1, (1.0,)), (2, (1.0, 0.0))])
    def test_hundred_trials(self, m, a):
        p = ProblemSpec(m=m, k=0, a=a, q=ONE, h=make_power(1))
        traj = integrate(p, 3.0, 1e-10)
        rep = verify_bound_preservation(p, traj, 100, seed=0)
        assert rep.worst_violation <= 1e-9

    def test_refuses_a_repeated_jump_node(self):
        # integration restarts at q's jump and repeats the node there; the
        # operator needs a strictly increasing grid, so the check must raise
        # rather than report a NaN violation as a pass
        from blowup.functions import make_piecewise

        q = make_piecewise([((0, 1), 0.5), ((1, math.inf), 1.0)])
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=make_power(1))
        traj = integrate(p, 2.0, 1e-10)
        assert np.any(np.diff(traj.ts) == 0.0)
        for seed in range(5):
            with pytest.raises(InvalidParameterError):
                verify_bound_preservation(p, traj, 3, seed=seed)

    def test_short_trajectory(self):
        # q = 0: the integrator needs only four steps, too few nodes for
        # the random cuts
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=make_constant(0.0), h=make_power(1))
        traj = integrate(p, 1.0, 1e-10)
        assert len(traj.ts) < 7
        assert verify_bound_preservation(p, traj, 10, seed=0).passed

    def test_deterministic_for_seed(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        traj = integrate(p, 2.0, 1e-10)
        a = verify_bound_preservation(p, traj, 10, seed=3)
        b = verify_bound_preservation(p, traj, 10, seed=3)
        assert a == b
