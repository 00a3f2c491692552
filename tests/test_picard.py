import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from blowup.classify import classify
from blowup.errors import (
    BracketFailureError,
    FiniteEscapeError,
    InvalidParameterError,
    NumericFailureError,
)
from blowup.functions import (
    make_constant,
    make_custom,
    make_piecewise,
    make_power,
    make_power_log,
    parse_fn_spec,
)
from blowup.ode import ProblemSpec, Trajectory, integrate
from blowup.picard import (
    GRADE,
    GRID_MIN,
    _run_tower,
    _segmented_grid,
    apply_integral_operator,
    comparison_constants,
    majorant_growth,
    picard_solve,
    solve_autonomous_quadrature,
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

    def test_overflow_from_the_start_is_named(self):
        # u0 lies past e^660 (past e^709 for 1e308), so F's table cannot reach
        # t; the integral test from u0 gives F(inf) = u0^(1-lam)/(lam-1), a float
        # although u0^-lam, the scaled integral's factor, underflows to 0
        for lam, u0 in [(2.0, 1e307), (2.0, 1e308), (1.5, 1e300)]:
            with pytest.raises(FiniteEscapeError) as exc:
                solve_autonomous_quadrature(make_power(lam), 1, u0, [1.0])
            exact = u0 ** (1.0 - lam) / (lam - 1.0)
            assert exc.value.escape_time == pytest.approx(exact, rel=1e-14, abs=0.0)
            assert str(exc.value) == f"majorant escapes at finite time ~{exc.value.escape_time!r} < target 1.0"

    def test_start_where_g_underflows_is_named(self):
        # g(1e-250) = 1e-375 is 0.0 in floats, so F's integrand is not finite at u0
        with pytest.raises(NumericFailureError, match="not positive"):
            solve_autonomous_quadrature(make_power(1.5), 1, 1e-250, [1e300])

    def test_diverging_tail_names_its_verdict(self):
        # a diverging F that stays below t in floats names the integral test's verdict
        with pytest.raises(BracketFailureError) as exc:
            solve_autonomous_quadrature(make_power(1.0), 1, 1.0, [1e300])
        assert str(exc.value) == (
            "could not bracket target t=1e+300 below the overflow cap: F is still below t at "
            "s = e^709, where the integral test gives Diverges (ExactFamily)"
        )

    @pytest.mark.parametrize("g, n, t", [
        (make_power(2), 1, 1.5),
        (make_power_log(1.0, 1.5), 1, 1e300),
        (make_power_log(1.0, 3.0), 2, 1e300),
    ], ids=["s^2", "powerlog(1,1.5)", "powerlog(1,3)"])
    def test_escape_time_is_the_integral_test(self, g, n, t):
        # from u0 = 1, F(inf) = I(g, n) / n; a powerlog with lam = 1 and sigma > n
        # has an F whose tail decays only like y^(1 - sigma/n) in y = log s
        with pytest.raises(FiniteEscapeError) as exc:
            solve_autonomous_quadrature(g, n, 1.0, [t])
        assert exc.value.escape_time == classify(g, n).estimate / n

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["power", "borderline", "powerlog"]),
        r=st.floats(0.0, 1.0),
        sigma=st.floats(0.0, 2.0),
        n=st.integers(1, 3),
        u0=st.floats(0.5, 2.0),
    )
    def test_escape_time_matches_mpmath(self, kind, r, sigma, n, u0):
        # F(inf) = 1/n int_{log u0}^inf e^(y/n) g(e^y)^(-1/n) dy: closed form for a
        # power, in 30 digits for a powerlog; for lam = 1 (sigma > n) the integral
        # runs to y = 1000, where log(e + e^y) = y to 400 digits, and the rest
        # is Y^(1-p)/(p-1) with p = sigma/n (mpmath.quad out to inf falls short there)
        lam = {"power": 1.1 + 1.9 * r, "borderline": 1.0, "powerlog": 1.1 + 0.9 * r}[kind]
        if kind == "borderline":
            sigma = n + 0.2 + 0.9 * sigma  # in [n + 0.2, n + 2]
        g = make_power(lam) if kind == "power" else make_power_log(lam, sigma)
        with pytest.raises(FiniteEscapeError) as exc:
            solve_autonomous_quadrature(g, n, u0, [1e300])
        with mpmath.workdps(30):
            lam, sigma, y0 = mpmath.mpf(lam), mpmath.mpf(sigma), mpmath.log(u0)
            if kind == "power":
                oracle = mpmath.mpf(u0) ** ((1 - lam) / n) / (lam - 1)
            else:
                a, p = (lam - 1) / n, sigma / n
                f = lambda y: mpmath.exp(-a * y) * mpmath.log(mpmath.e + mpmath.exp(y)) ** -p
                ends = [y0, 1, 10, 100, 1000]
                rest = 1000 ** (1 - p) / (p - 1) if kind == "borderline" else mpmath.quad(f, [1000, mpmath.inf])
                oracle = (mpmath.quad(f, ends) + rest) / n
        assert exc.value.escape_time == pytest.approx(float(oracle), rel=1e-12)

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
        g = make_custom(fn)
        with pytest.raises(ValueError):
            g(np.array([1.0, 3.0]))
        targets = np.linspace(0.0, 4.0, 41)
        u = solve_autonomous_quadrature(g, 2, 1.0, targets)
        for U, t in zip(u, targets):
            F, _ = quad(lambda s: 0.5 * g(s) ** -0.5 * s ** -0.5, 1.0, U,
                        points=[2.0] if U > 2.0 else None, epsabs=1e-14, epsrel=1e-13)
            assert abs(F - t) <= 1e-13

    def test_targets_up_to_the_float_range(self):
        # F's table runs on to s = e^709: g = s, n = 1 gives F = log U, and
        # g = s^0.99 gives F = 100 (U^0.01 - 1), so t = 1e5 at U = 1001^100 ~ e^690.9
        u = solve_autonomous_quadrature(make_power(1.0), 1, 1.0, [700.0])
        assert u[0] == pytest.approx(math.exp(700.0), rel=1e-13)
        u = solve_autonomous_quadrature(make_power(0.99), 1, 1.0, [1e5])
        assert u[0] == pytest.approx(float(mpmath.mpf(1001) ** 100), rel=1e-11)

    @pytest.mark.parametrize("lam", [0.99, 0.999, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_targets_between_e660_and_e709(self, lam, n):
        # F(U) = (U^a - 1) / (n a), a = (1 - lam) / n, log(U) / n at a = 0
        ys = np.linspace(661.0, 708.5, 6)
        a = (1.0 - lam) / n
        targets = np.expm1(a * ys) / (n * a) if a else ys / n
        u = solve_autonomous_quadrature(make_power(lam), n, 1.0, targets)
        assert np.max(np.abs(np.log(u) - ys)) <= 1e-11


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

    @pytest.mark.parametrize("T", [-1.0, 0.0, math.inf, math.nan])
    def test_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(InvalidParameterError, match=f"^T must be > 0 and finite, got {T}$"):
            verify_comparison_bound(ONE, 1, 1.0, T)

    @pytest.mark.parametrize("grid_size", [1, 0, 2.7, 200.0])
    def test_grid_size_must_be_an_integer_from_2(self, grid_size):
        with pytest.raises(InvalidParameterError, match=rf"^grid_size must be an integer >= 2, got {grid_size}$"):
            verify_comparison_bound(ONE, 1, 1.0, 1.0, grid_size)

    def test_two_nodes_are_enough(self):
        rep = verify_comparison_bound(ONE, 1, 1.0, 1.0, np.int64(2))
        assert rep.passed and rep.grid_size == 2 and type(rep.grid_size) is int

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

    @pytest.mark.parametrize("T", [math.inf, math.nan, 0.0])
    def test_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(InvalidParameterError, match=f"^T must be > 0 and finite, got {T}$"):
            picard_solve(make_power(0.5), 1, [1.0], T)

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

    @pytest.mark.parametrize("q", [None, make_piecewise([((0, 1), 0.5), ((1, math.inf), 2.0)])],
                             ids=["constant-q", "piecewise-q"])
    @pytest.mark.parametrize("max_iter", [60, 3])
    def test_levels_end_at_the_returned_grid(self, q, max_iter):
        tw = picard_solve(make_power(1), 2, [1.0, 1.0], 2.0, tol=1e-9, max_iter=max_iter, q=q)
        last = tw.levels[-1]
        assert (last.nodes, last.iterations, last.step_gap) == (len(tw.grid), tw.iterations, tw.sup_gap)
        # the ladder doubles every segment, and each level stops at tol or max_iter
        nodes = [lv.nodes for lv in tw.levels]
        assert len(nodes) >= 2 and all(b - 1 == 2 * (a - 1) for a, b in zip(nodes, nodes[1:]))
        for lv in tw.levels:
            assert lv.step_gap <= 1e-9 or lv.iterations == max_iter
        assert (max_iter == 3) == all(lv.iterations == 3 for lv in tw.levels)
        again = picard_solve(make_power(1), 2, [1.0, 1.0], 2.0, tol=1e-9, max_iter=max_iter, q=q)
        assert again.levels == tw.levels

    def test_refuses_escaping_majorant(self):
        # h = s^2 forces a finite-escape majorant: hypothesis fails
        with pytest.raises(FiniteEscapeError):
            picard_solve(make_power(2), 1, [1.0], 2.0, tol=1e-8)

    def test_osgood_divergent_majorant_leaving_floats_is_named(self):
        # I(h) diverges for h = s log s, but F grows like log log U: F is
        # still below t = 1 when U leaves the float range.  The exact Diverges
        # says the majorant exists on [0, T], so the tower is built, and only
        # reading the majorant names where it leaves the floats
        tw = picard_solve(parse_fn_spec("powerlog(1, 1)"), 1, [1.0], 1.0)
        assert tw.converged and tw.grid_converged
        with pytest.raises(BracketFailureError) as exc:
            tw.majorant
        assert str(exc.value).startswith("could not bracket target t=")
        assert "F is still below t at s = e^709, where the integral test gives " in str(exc.value)

    def test_one_f_table_per_inversion(self, monkeypatch):
        # an inversion sums every panel of F's table once; the escape check
        # at T is the solve's one inversion, and the majorant on the final
        # grid, which ends at T, is a second one on the same panels
        import blowup.picard as picard

        cuts, real = [], picard.panels
        monkeypatch.setattr(picard, "panels", lambda f, c: cuts.append(c.tobytes()) or real(f, c))
        tw = picard_solve(make_power(1), 2, [1.0, 1.0], 3.0, tol=1e-9)
        assert len(tw.grid) > 129 and tw.grid[-1] == 3.0
        escape = list(cuts)
        assert escape and len(set(escape)) == len(escape)
        assert np.all(tw.majorant > 0.0)  # the inversion on the final grid
        assert cuts == escape + escape

    def test_second_solve_builds_no_kernel_weights(self, monkeypatch):
        # every level of a repeated solve finds its weights cached
        from blowup import volterra

        builds, real = [], volterra._grid_weights
        monkeypatch.setattr(volterra, "_grid_weights", lambda grid, p: builds.append(len(grid)) or real(grid, p))
        monkeypatch.setattr(volterra, "_WEIGHTS", {})
        first = picard_solve(make_power(0.5), 3, [0.0, 1.0, 1.0], 2.0, tol=1e-11, majorant_b=[1.0, 1.0, 1.0])
        assert builds == [lv.nodes for lv in first.levels] and len(builds) >= 4
        builds.clear()
        again = picard_solve(make_power(0.5), 3, [0.0, 1.0, 1.0], 2.0, tol=1e-11, majorant_b=[1.0, 1.0, 1.0])
        assert builds == [] and again.levels == first.levels
        assert np.array_equal(again.solution, first.solution)

    def test_majorant_inverted_once_on_the_returned_grid(self, monkeypatch):
        # one target at T settles escape; the majorant is inverted on the
        # grid the ladder stops at, never on the coarser levels before it,
        # and only when it is first read
        import blowup.picard as picard

        targets = []
        inverse = picard.solve_autonomous_quadrature

        def counted(g, n, u0, t_targets, **kw):
            targets.append(len(t_targets))
            return inverse(g, n, u0, t_targets, **kw)

        monkeypatch.setattr(picard, "solve_autonomous_quadrature", counted)
        tw = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-10)
        assert len(tw.grid) > 129  # the ladder doubled at least once
        assert targets == [1]  # the escape check alone
        majorant = tw.majorant
        assert targets == [1, len(tw.grid)]  # len(tw.grid) + 1 targets in all
        assert tw.majorant is majorant and tw.majorant_slack <= 0.0
        assert targets == [1, len(tw.grid)]

    @pytest.mark.parametrize("h, n, b, majorant_b, q", [
        (make_power(1), 2, [1.0, 1.0], None, None),
        (make_power(0.5), 2, [0.0, 1.0], [1.0, 1.0], None),
        (make_power(1), 2, [1.0, 1.0], None, make_piecewise([((0, 1), 0.5), ((1, math.inf), 2.0)])),
    ], ids=["plain", "graded", "piecewise-q"])
    def test_majorant_read_later_is_the_eager_inversion(self, h, n, b, majorant_b, q):
        # the majorant read first after another solve is, bit for bit, an
        # inversion on the tower's grid from a fresh g
        T = 3.0
        tw = picard_solve(h, n, b, T, tol=1e-9, majorant_b=majorant_b, q=q)
        picard_solve(make_power(0.5), 1, [2.0], 1.0, tol=1e-9)
        weight = 1.0 if q is None else 2.0  # sup of q on [0, T]
        u0 = sum(bi * T ** i / math.factorial(i) for i, bi in enumerate(majorant_b or b))
        eager = solve_autonomous_quadrature(majorant_growth(h, n, weight=weight), n, u0, tw.grid)
        assert tw.majorant.tobytes() == eager.tobytes()
        assert tw.majorant_slack == min(float(np.min(eager - v)) for v in tw.iterates)
        # read right after its own solve: the same bits
        again = picard_solve(h, n, b, T, tol=1e-9, majorant_b=majorant_b, q=q)
        assert again.majorant.tobytes() == eager.tobytes()

    @pytest.mark.parametrize("h, n, b, majorant_b, q", [
        (make_power(1), 2, [1.0, 1.0], None, None),
        (make_power(0.5), 2, [0.0, 1.0], [1.0, 1.0], None),
        (make_power(1), 2, [1.0, 1.0], None, make_piecewise([((0, 1), 0.5), ((1, math.inf), 2.0)])),
    ], ids=["plain", "graded", "piecewise-q"])
    def test_trajectory_is_the_operator_image_of_the_solution(self, h, n, b, majorant_b, q):
        # the tower's trajectory comes from the h, q and b it was built from:
        # one application of the operator to its solution, kept once read
        tw = picard_solve(h, n, b, 3.0, tol=1e-9, majorant_b=majorant_b, q=q)
        traj = tw.trajectory
        assert tw.trajectory is traj
        u = np.zeros((len(tw.grid), n))
        u[:, 0] = tw.solution
        p = ProblemSpec(m=n, k=0, a=b, q=ONE if q is None else q, h=h)
        image = apply_integral_operator(p, tw.grid, u)
        first = traj.distinct
        assert traj.ys[first].tobytes() == image.tobytes()
        assert np.array_equal(traj.ts[first], tw.grid) and traj.ts is not tw.grid
        assert traj.m == n and traj.tol == max(tw.sup_gap, tw.discretization_gap)
        # the jump of q at t = 1 is a repeated node: the same state, with q's
        # left value in the first copy's top derivative and its right value
        # in the second's
        again = np.flatnonzero(~first)
        assert traj.ts[again].tolist() == ([] if q is None else [1.0])
        for i in again:
            assert np.array_equal(traj.ys[i - 1], traj.ys[i])
            hv = h.eval_array(tw.solution)[np.searchsorted(tw.grid, traj.ts[i])]
            assert (traj.dys[i - 1, -1], traj.dys[i, -1]) == (0.5 * hv, 2.0 * hv)

    def test_trajectory_keeps_the_data_it_was_built_from(self):
        # the caller's array may change after the solve; the tower's may not
        b = np.array([1.0, 1.0])
        tw = picard_solve(make_power(1), 2, b, 1.0, tol=1e-9)
        b[:] = 5.0
        assert np.array_equal(tw.trajectory.ys[0], [1.0, 1.0])

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf, 1e-2, 1e-15])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(InvalidParameterError, match="tol"):
            picard_solve(make_power(1), 1, [1.0], 1.0, tol=tol)

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        b=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=2),
        T=st.floats(0.05, 1.0),
        singular=st.booleans(),
    )
    def test_tower_monotone_and_below_majorant(self, lam, b, T, singular):
        # power-law data, n = len(b) in {1, 2}: the paper's two invariants;
        # a singular start v(0) = 0 with 0 < lambda < 1 runs on a graded grid
        majorant_b = None
        if singular:
            lam, b, majorant_b = min(max(lam, 0.05), 0.95), [0.0, *b[1:]], [1.0, *b[1:]]
        tw = picard_solve(make_power(lam), len(b), b, T, tol=1e-9, majorant_b=majorant_b)
        assert tw.monotone_slack >= -1e-12
        assert tw.majorant_slack >= -1e-12 * (1.0 + float(np.max(tw.majorant)))

    def test_nonconvergence_reported(self):
        tw = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-12, max_iter=3)
        assert not tw.converged
        assert tw.iterations == 3
        assert tw.sup_gap > 1e-12

    def test_grid_cap_is_reported(self):
        # e^t on [0, 3] to 1e-12 needs more than 257 nodes: the ladder stops at
        # the cap and says so, and the trajectory carries the achieved error
        capped = picard_solve(make_power(1), 1, [1.0], 3.0, tol=1e-12, grid_cap=257)
        assert len(capped.grid) == 257 and capped.converged
        assert not capped.grid_converged
        assert capped.discretization_gap > 1e-12 / 4
        traj = capped.trajectory
        assert traj.tol == capped.discretization_gap > capped.sup_gap
        free = picard_solve(make_power(1), 1, [1.0], 3.0, tol=1e-10)
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

    def test_solution_is_the_final_iterate(self):
        # the ladder converges at sixth order, where a second-order Richardson
        # correction across the last doubling (gap ~ 63 e) turns an error e into -20 e
        h, b = make_power(0.5), (1.0, 0.0, 1.0)
        tw = picard_solve(h, 3, b, 5.0, tol=1e-8, majorant_b=[2.0, 1.0, 2.0])
        assert np.array_equal(tw.solution, tw.iterates[-1])
        direct = integrate(ProblemSpec(m=3, k=0, a=b, q=ONE, h=h), 5.0, 1e-13)
        assert np.max(np.abs(tw.solution - direct(tw.grid)[:, 0])) <= 1.5e-10

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
        tw = picard_solve(make_power(1), 2, [1.0, 1.0], 3.0, tol=1e-11, q=q)
        assert len(levels) >= 3 and tw.iterations >= 5
        assert len(set(builds)) == len(builds)
        if per_level == 1:
            assert len(builds) == len(levels)
        else:
            assert len(levels) < len(builds) <= per_level * len(levels)


def every_level(h, b, T, tol, q, max_iter=60):
    """The tower's doubling ladder, past any stop, built as picard_solve builds
    each level: (grid, iterates, gap to the level before) per level."""
    edges = [0.0, *(bp for bp in q.breakpoints if 0.0 < bp < T), T]
    cells = [max(2, round((GRID_MIN - 1) * (hi - lo) / T)) for lo, hi in zip(edges, edges[1:])]
    graded = b[0] == 0.0 and 0.0 < h.params[0] < 1.0  # a power h
    parent, mult = None, 1
    while True:
        grid = _segmented_grid(edges, [c * mult for c in cells], graded)
        iterates = _run_tower(h, np.array(b, dtype=float), q, grid, tol, max_iter)
        gap = math.inf if parent is None else float(np.max(np.abs(iterates[-1][::2] - parent)))
        yield grid, iterates, gap
        parent, mult = iterates[-1], 2 * mult


class TestGridLadder:
    """Each level is the next doubling, and the ladder stops at the first
    level whose gap meets tol/4, or at the cap level."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(
        lam=st.floats(0.3, 1.0),
        b=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=1, max_size=3),
        T=st.floats(0.5, 5.0),
        log_tol=st.floats(-11.0, -7.0),
        q_vals=st.lists(st.floats(0.25, 2.0), min_size=1, max_size=2),
        cut=st.floats(0.1, 0.9),
    )
    def test_returned_level_is_the_full_ladders_or_a_later_one(self, lam, b, T, log_tol, q_vals, cut):
        # power h, n = len(b) <= 3, data with zeros (singular starts), constant
        # q or q with one jump: the tower is the full ladder's first level that
        # passes, or its cap level, with the same numbers bit for bit, after
        # one row of levels for each level of the ladder up to it
        h, tol = make_power(lam), 10.0 ** log_tol
        if len(q_vals) == 1:
            q = make_constant(q_vals[0])
        else:
            q = make_piecewise([((0.0, cut * T), q_vals[0]), ((cut * T, math.inf), q_vals[1])])
        tw = picard_solve(h, len(b), b, T, tol=tol, q=q, majorant_b=np.add(b, 1.0))
        rows = []
        for grid, iterates, gap in every_level(h, b, T, tol, q):
            last = float(np.max(np.abs(iterates[-1] - iterates[-2]))) if len(iterates) > 1 else math.inf
            rows.append((len(grid), len(iterates) - 1, last))
            if gap <= tol / 4.0 or len(grid) >= 16385:
                break
        assert [tuple(lv) for lv in tw.levels] == rows
        assert np.array_equal(tw.grid, grid)
        assert len(tw.iterates) == len(iterates)
        assert all(v.tobytes() == w.tobytes() for v, w in zip(tw.iterates, iterates))
        pairs, step_gap = list(zip(iterates[1:], iterates)), rows[-1][2]
        assert tw.solution.tobytes() == iterates[-1].tobytes()
        assert (tw.discretization_gap, tw.sup_gap, tw.iterations) == (gap, step_gap, len(pairs))
        assert tw.monotone_slack == min([0.0] + [float(np.min(v - w)) for v, w in pairs])
        assert (tw.converged, tw.grid_converged) == (step_gap <= tol, gap <= tol / 4.0)

    @pytest.mark.parametrize("cap", [1025, 2049, 4097])
    def test_a_prediction_past_the_cap_stops_at_the_cap_level(self, cap):
        # u'' = sqrt(u) from (1e-30, 1) on [0, 5] is not smooth near 0, and
        # b[0] > 0 keeps the uniform ladder, whose gap falls only as h^1.5: no
        # level passes, and the ladder stops at the cap level
        h, one, b = make_power(0.5), make_constant(1.0), [1e-30, 1.0]
        tw = picard_solve(h, 2, b, 5.0, grid_cap=cap)
        assert len(tw.grid) == cap and tw.levels[-1].nodes == cap
        assert tw.converged and not tw.grid_converged
        full = {len(g): (its, gap) for g, its, gap in itertools.islice(every_level(h, b, 5.0, 1e-10, one), 6)}
        its, gap = full[cap]
        assert tw.discretization_gap == gap > 1e-10 / 4.0
        assert tw.solution.tobytes() == its[-1].tobytes()

    def test_levels_skipped_stay_on_the_doubling_ladder(self):
        # e^(t - 20) on [0, 20]: the gap of 257 nodes misses tol/4 by more than
        # 64^2, and the ladder still runs every doubling up to the 2049 nodes
        # it returns
        tw = picard_solve(make_power(1), 1, [math.exp(-20.0)], 20.0)
        nodes = [lv.nodes for lv in tw.levels]
        assert nodes == [129, 257, 513, 1025, 2049] and tw.grid_converged
        assert all((b - 1) % (a - 1) == 0 and b > a for a, b in zip(nodes, nodes[1:]))
        assert len(tw.grid) == nodes[-1] and tw.levels[-1].iterations == tw.iterations


class TestGradedMesh:
    """A singular start (v(0) = 0, h = s^lambda with 0 < lambda < 1) grades
    the tower's first segment; every other tower keeps the uniform ladder."""

    @pytest.mark.parametrize("cells", [2, 128, 1024, 8192])
    def test_coarse_node_i_is_fine_node_2i(self, cells):
        coarse = _segmented_grid([0.0, 0.7, 3.0], [cells, 3], True)[: cells + 1]
        fine = _segmented_grid([0.0, 0.7, 3.0], [2 * cells, 6], True)[: 2 * cells + 1]
        assert np.array_equal(fine[::2], coarse)
        assert coarse[-1] == 0.7 and np.all(np.diff(coarse, 2) > 0.0)

    def test_piecewise_q_keeps_breakpoints_and_uniform_later_segments(self):
        q = make_piecewise([((0, 1), 0.5), ((1, 2), 2.0), ((2, math.inf), 1.0)])
        tw = picard_solve(make_power(0.5), 2, [0.0, 1.0], 3.0, tol=1e-8, q=q, majorant_b=[1.0, 2.0])
        i1, i2 = (int(np.flatnonzero(tw.grid == bp)[0]) for bp in (1.0, 2.0))
        assert np.array_equal(tw.grid[: i1 + 1], np.arange(i1 + 1) ** GRADE / i1 ** GRADE)
        assert np.array_equal(tw.grid[i1 : i2 + 1], np.linspace(1.0, 2.0, i2 - i1 + 1))
        assert np.array_equal(tw.grid[i2:], np.linspace(2.0, 3.0, len(tw.grid) - i2))
        assert tw.grid_converged

    def test_singular_start_meets_tol_below_the_cap(self):
        # u'' = sqrt(u), u(0) = 0, u'(0) = 1: O(h^1.5) on the uniform ladder,
        # which stops at its 16385-node cap with a gap near 1e-5
        h = make_power(0.5)
        tw = picard_solve(h, 2, [0.0, 1.0], 5.0, tol=1e-8, majorant_b=[1.0, 2.0])
        assert tw.grid_converged and tw.discretization_gap <= 1e-8 / 4
        assert len(tw.grid) < 16385
        direct = integrate(ProblemSpec(m=2, k=0, a=(0.0, 1.0), q=ONE, h=h), 5.0, 1e-12)
        assert np.max(np.abs(tw.solution - direct(tw.grid)[:, 0])) <= 1e-8

    @pytest.mark.parametrize(
        "h", [make_power(1.0), make_power(0.0), make_custom(np.sqrt)]
    )
    def test_smooth_or_custom_h_keeps_the_uniform_grid(self, h):
        tw = picard_solve(h, 2, [0.0, 1.0], 1.0, tol=1e-8, majorant_b=[1.0, 2.0])
        assert np.array_equal(tw.grid, _segmented_grid([0.0, 1.0], [len(tw.grid) - 1]))

    def test_positive_start_keeps_the_uniform_grid(self):
        tw = picard_solve(make_power(0.5), 2, [1.0, 0.0], 1.0, tol=1e-8, majorant_b=[2.0, 1.0])
        assert np.array_equal(tw.grid, np.linspace(0.0, 1.0, len(tw.grid)))


class TestIntegralOperator:
    def test_zero_rhs_gives_taylor_polynomial(self):
        p = ProblemSpec(m=3, k=0, a=(2.0, 1.0, 0.5), q=make_constant(0.0), h=make_power(1))
        grid = np.linspace(0, 2, 65)
        u = np.zeros((65, 3))
        img = apply_integral_operator(p, grid, u)
        want = 2.0 + grid + 0.25 * grid ** 2
        assert np.max(np.abs(img[:, 0] - want)) <= 1e-13

    def test_f_override_replaces_q_h(self):
        # f = u/2 + t on u = t^2 from 1: 1 + t^3/6 + t^2/2, where q h(u) = u
        # would give 1 + t^3/3; the quadrature is exact on this cubic
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1), f_override=lambda t, y: 0.5 * y[0] + t)
        grid = np.linspace(0, 2, 65)
        img = apply_integral_operator(p, grid, grid ** 2)
        assert np.max(np.abs(img[:, 0] - (1.0 + grid ** 3 / 6.0 + grid ** 2 / 2.0))) <= 1e-13

    def test_unit_case(self):
        p = ProblemSpec(m=1, k=0, a=(0.0,), q=ONE, h=make_constant(1.0))
        grid = np.linspace(0, 2, 65)
        img = apply_integral_operator(p, grid, np.zeros((65, 1)))
        assert np.max(np.abs(img[:, 0] - grid)) <= 1e-13

    def test_cosh_fixed_point(self):
        p = ProblemSpec(m=2, k=0, a=(1.0, 0.0), q=ONE, h=make_power(1))
        traj = integrate(p, 3.0, 1e-10)
        # the operator is as accurate as its grid: the dense output sampled
        # with each integrator cell split into 8
        grid = np.append(traj.ts[:-1, None] + np.diff(traj.ts)[:, None] * np.arange(8) / 8, traj.t_end)
        img = apply_integral_operator(p, grid, traj(grid))
        assert np.max(np.abs(img - traj(grid))) <= 1e-7

    def test_fixed_point_across_a_jump_of_q(self):
        # the tower's grid has a node at the jump; the operator must not
        # run its quadrature stencil across it.  The trajectory repeats that
        # node, and the operator takes the grid, which it keeps strict
        q = parse_fn_spec("piecewise((0,0.5):1, (0.5,inf):3)")
        h = make_power(1)
        tw = picard_solve(h, 1, [1.0], 1.0, q=q)
        traj = tw.trajectory
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=h)
        first = traj.distinct
        assert np.count_nonzero(~first) == 1 and np.array_equal(traj.ts[first], tw.grid)
        img = apply_integral_operator(p, tw.grid, traj.ys[first])
        assert np.max(np.abs(img - traj.ys[first])) <= 1e-10
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            apply_integral_operator(p, traj.ts, traj.ys)


class TestBoundPreservation:
    def test_vacuous(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        traj = integrate(p, 2.0, 1e-10)
        rep = verify_bound_preservation(p, traj, 0, seed=0)
        assert rep.passed and rep.worst_violation == 0.0

    def test_negative_trial_count_refused(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        traj = integrate(p, 2.0, 1e-10)
        for trials in (-1, -3):
            with pytest.raises(InvalidParameterError, match=f"^trials must be an integer >= 0, got {trials}$"):
                verify_bound_preservation(p, traj, trials, seed=0)

    def test_negative_seed_refused(self):
        # named here rather than by numpy's bare "expected non-negative integer"
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        traj = integrate(p, 2.0, 1e-10)
        with pytest.raises(InvalidParameterError, match=r"^seed must be an integer >= 0, got -1$"):
            verify_bound_preservation(p, traj, 3, seed=-1)

    def test_half_a_solution_is_refused(self):
        # v/2 starts at a/2 < a, so the operator's image leaves the box [0, v/2]
        p = ProblemSpec(m=2, k=0, a=(1.0, 1.0), q=ONE, h=make_power(0.5))
        v = picard_solve(p.h, 2, p.a, 2.0).trajectory
        half = Trajectory(ts=v.ts, ys=v.ys / 2.0, dys=v.dys / 2.0, tol=v.tol)
        rep = verify_bound_preservation(p, half, 20, seed=0)
        assert not rep.passed and rep.worst_violation > 1.0
        assert 0 <= rep.worst_trial < 20

    @pytest.mark.parametrize("m,a", [(1, (1.0,)), (2, (1.0, 0.0))])
    def test_hundred_trials(self, m, a):
        p = ProblemSpec(m=m, k=0, a=a, q=ONE, h=make_power(1))
        traj = integrate(p, 3.0, 1e-10)
        rep = verify_bound_preservation(p, traj, 100, seed=0)
        assert rep.worst_violation <= 1e-9

    def test_repeated_node_checked_once(self):
        # a jump of q is a repeated node in every trajectory: the check reads
        # it once, at its first copy, so a tower's trajectory gets the report
        # of its distinct nodes, and an integrator's restart is checked too
        from blowup.functions import make_piecewise

        q = make_piecewise([((0, 1), 0.5), ((1, math.inf), 1.0)])
        p = ProblemSpec(m=2, k=0, a=(1.0, 0.5), q=q, h=make_power(0.5))
        v = picard_solve(p.h, 2, p.a, 2.0, tol=1e-10, q=q).trajectory
        first = v.distinct
        assert np.count_nonzero(~first) == 1
        distinct = Trajectory(ts=v.ts[first], ys=v.ys[first], dys=v.dys[first], tol=v.tol)
        for seed in range(3):
            rep = verify_bound_preservation(p, v, 5, seed=seed)
            assert rep == verify_bound_preservation(p, distinct, 5, seed=seed) and rep.passed

        p = ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=make_power(1))
        traj = integrate(p, 2.0, 1e-10)
        assert np.any(np.diff(traj.ts) == 0.0)
        for seed in range(5):
            assert math.isfinite(verify_bound_preservation(p, traj, 3, seed=seed).worst_violation)

    def test_short_trajectory(self):
        # q = 0: the integrator needs only four steps, too few nodes for
        # the random cuts
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=make_constant(0.0), h=make_power(1))
        traj = integrate(p, 1.0, 1e-10)
        assert len(traj.ts) < 7
        assert verify_bound_preservation(p, traj, 10, seed=0).passed

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        sigma=st.one_of(st.none(), st.floats(0.0, 2.0)),
        a=st.lists(st.one_of(st.just(0.0), st.floats(0.1, 2.0)), min_size=1, max_size=3),
        jumps=st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(0.0, 2.0)), min_size=1, max_size=3),
        q0=st.floats(0.0, 2.0),
        T=st.floats(0.5, 2.0),
        seed=st.integers(0, 2 ** 16),
    )
    def test_drawn_problems(self, lam, sigma, a, jumps, q0, T, seed):
        # v^(n) = q(t) h(v), n = len(a) in 1..3, h a power or powerlog, q a
        # step function; v is the tower's solution, whose nodes include q's
        # jumps once each, so the operator must map [0, v] into itself.  A
        # powerlog keeps lambda <= 0.9: nearer 1 its majorant grows so slowly
        # (log log s for n = 1, lambda = 1) that it leaves floating point
        # before T, and picard_solve raises BracketFailureError.  The data
        # are 0 or >= 0.1: a start just above 0 with lambda < 1 (a = [1e-300])
        # crawls away from 0 so slowly that the iteration stops on a small
        # step long before the fixed point (see CHANGES.md)
        h = make_power(lam) if sigma is None else make_power_log(0.9 * lam, sigma)
        bps = sorted({round(f * T, 6) for f, _ in jumps})
        vals = [q0, *(c for _, c in jumps)][: len(bps) + 1]
        q = make_piecewise(list(zip(zip([0.0, *bps], [*bps, math.inf]), vals)))
        a = tuple(a)
        tw = picard_solve(h, len(a), a, T, tol=1e-10, q=q, majorant_b=np.add(a, 1.0))
        v = tw.trajectory
        rep = verify_bound_preservation(ProblemSpec(m=len(a), k=0, a=a, q=q, h=h), v, 10, seed=seed)
        assert rep.passed, rep

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.05, 0.5),
        rest=st.lists(st.one_of(st.just(0.0), st.floats(0.1, 2.0)), min_size=1, max_size=2),
        q_vals=st.lists(st.floats(0.25, 2.0), min_size=1, max_size=2),
        cut=st.floats(0.01, 0.9),
        T=st.floats(0.5, 5.0),
        seed=st.integers(0, 2 ** 16),
    )
    def test_drawn_singular_starts(self, lam, rest, q_vals, cut, T, seed):
        # v^(n) = q(t) v^lambda from v(0) = 0, n = len(a) in {2, 3}, constant q
        # or q with one jump, at the pipeline's tower tol: the graded first
        # segment's narrowest cells sit next to cells many times wider (a jump
        # near 0 leaves that segment only a few of them, in a block of its
        # own), and a jump puts a uniform segment next to the graded one; a
        # 6-node stencil across such cells overshoots, and its 4-node fallback
        # keeps the operator inside [0, v]
        a = (0.0, *rest)
        if len(q_vals) == 1:
            q = make_constant(q_vals[0])
        else:
            q = make_piecewise([((0.0, cut * T), q_vals[0]), ((cut * T, math.inf), q_vals[1])])
        h = make_power(lam)
        tw = picard_solve(h, len(a), a, T, tol=1e-8, q=q, majorant_b=np.add(a, 1.0))
        rep = verify_bound_preservation(ProblemSpec(m=len(a), k=0, a=a, q=q, h=h), tw.trajectory, 10, seed=seed)
        assert rep.worst_violation <= 1e-10, rep

    def test_deterministic_for_seed(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        traj = integrate(p, 2.0, 1e-10)
        a = verify_bound_preservation(p, traj, 10, seed=3)
        b = verify_bound_preservation(p, traj, 10, seed=3)
        assert a == b
