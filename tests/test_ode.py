import math

import numpy as np
import pytest

from blowup.errors import InvalidParameterError
from blowup.functions import (
    PowerFamilyParams,
    make_constant,
    make_custom,
    make_piecewise,
    make_power,
    make_power_log,
)
from blowup.ode import (
    BlowupEvent,
    BlowupKind,
    ProblemSpec,
    Trajectory,
    aitken_blowup_estimate,
    detect_blowup,
    integrate,
)

ONE = make_constant(1.0)

# blow-up time of w' = w log^2(e+w), w(0)=1: the separation integral
# int_1^inf ds/(s log^2(e+s)), three-way quadrature oracle (see classify tests)
OSGOOD_BLOWUP_TIME = 1.1898839703443496


def cosh_problem():
    return ProblemSpec(m=2, k=0, a=(1.0, 0.0), q=ONE, h=make_power(1))


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec(m=2, k=3, a=(1.0, 1.0), q=ONE, h=make_power(1))
        with pytest.raises(InvalidParameterError):
            ProblemSpec(m=2, k=0, a=(1.0,), q=ONE, h=make_power(1))
        with pytest.raises(InvalidParameterError):
            ProblemSpec(m=1, k=0, a=(-1.0,), q=ONE, h=make_power(1))

    def test_reduced_order(self):
        p = ProblemSpec(m=3, k=1, a=(1.0, 1.0, 1.0), q=ONE, h=make_power(1))
        assert p.n == 2

    def test_override_bounds_enforced(self):
        bad = ProblemSpec(
            m=1, k=0, a=(1.0,), q=ONE, h=make_power(1),
            f_override=lambda t, y: 2.0 * float(y[0]),  # exceeds q*h
        )
        with pytest.raises(InvalidParameterError):
            integrate(bad, 1.0, 1e-9)

    def test_override_within_bounds(self):
        half = ProblemSpec(
            m=1, k=0, a=(1.0,), q=ONE, h=make_power(1),
            f_override=lambda t, y: 0.5 * float(y[0]),
        )
        traj = integrate(half, 2.0, 1e-10)
        assert traj(2.0)[0] == pytest.approx(math.e, rel=1e-8)


class TestIntegrate:
    def test_cosh_oracle(self):
        traj = integrate(cosh_problem(), 10.0, 1e-9)
        ts = np.linspace(0, 10, 1001)
        assert np.max(np.abs(traj(ts)[:, 0] - np.cosh(ts))) <= 1e-6

    def test_quadratic_blowup_event(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        ev = integrate(p, 2.0, 1e-9)
        assert isinstance(ev, BlowupEvent)
        assert ev.t_event < 1.0 + 1e-9
        assert ev.trajectory.t_end == pytest.approx(ev.t_event)

    def test_zero_data_zero_solution(self):
        p = ProblemSpec(m=1, k=0, a=(0.0,), q=ONE, h=make_power(1))
        traj = integrate(p, 5.0, 1e-9)
        assert np.all(traj.ys == 0.0)
        assert traj.t_end == 5.0

    def test_initial_vector_stored(self):
        traj = integrate(cosh_problem(), 1.0, 1e-9)
        assert traj.ts[0] == 0.0
        assert tuple(traj.ys[0]) == (1.0, 0.0)

    def test_tol_range_enforced(self):
        with pytest.raises(InvalidParameterError):
            integrate(cosh_problem(), 1.0, 1e-15)
        with pytest.raises(InvalidParameterError):
            integrate(cosh_problem(), 1.0, 0.5)

    def test_monotone_components(self):
        # q, h >= 0 and a >= 0: every derivative is nondecreasing
        p = ProblemSpec(m=3, k=1, a=(0.5, 0.0, 1.0), q=ONE, h=make_power(0.5))
        traj = integrate(p, 4.0, 1e-9)
        for i in range(p.m):
            diffs = np.diff(traj.ys[:, i])
            assert np.min(diffs, initial=0.0) >= -10.0 * traj.tol

    def test_self_consistency_running_integral(self):
        # w^(m-1)(t) - a_{m-1} equals the running integral of f
        from blowup.volterra import weighted_volterra

        p = ProblemSpec(m=2, k=0, a=(1.0, 0.5), q=ONE, h=make_power(1))
        traj = integrate(p, 3.0, 1e-9)
        f_nodes = traj.dys[:, -1]
        running = weighted_volterra(f_nodes, 1, traj.ts)
        drift = np.abs(traj.ys[:, -1] - p.a[-1] - running)
        assert np.max(drift) <= 10.0 * max(traj.tol, 1e-9) * (1 + np.max(traj.ys))

    def test_piecewise_q_restarts(self):
        # w' = q(t), exact kink at t = 1: w(2) = 0.5 + 2
        q = make_piecewise([((0, 1), 0.5), ((1, math.inf), 2.0)])
        p = ProblemSpec(m=1, k=0, a=(0.0,), q=q, h=make_power(0))
        traj = integrate(p, 2.0, 1e-10)
        assert traj(2.0)[0] == pytest.approx(2.5, rel=1e-10)
        assert 1.0 in traj.ts  # forced node at the jump

    def test_dense_output_clamps_span(self):
        traj = integrate(cosh_problem(), 1.0, 1e-9)
        with pytest.raises(InvalidParameterError):
            traj(1.5)


class TestDenseOutput:
    def test_quintic_on_lower_components(self):
        traj = integrate(cosh_problem(), 6.0, 1e-9)
        mids = 0.5 * (traj.ts[:-1] + traj.ts[1:])
        err0 = np.max(np.abs(traj(mids)[:, 0] - np.cosh(mids)))
        node_err = np.max(np.abs(traj.ys[:, 0] - np.cosh(traj.ts)))
        assert err0 <= 4.0 * node_err + 1e-12

    def test_first_cell_after_a_jump(self):
        # w' = q(t) is piecewise linear; the cell after the jump must start
        # from the right-limit slope, so cubic Hermite is exact there
        q = make_piecewise([((0, 1), 0.5), ((1, math.inf), 2.0)])
        p = ProblemSpec(m=1, k=0, a=(0.0,), q=q, h=make_power(0))
        traj = integrate(p, 2.0, 1e-10)
        assert list(traj.ts).count(1.0) == 2  # the jump node, left and right limit
        after = traj.ts[np.searchsorted(traj.ts, 1.0, side="right")]
        t = np.linspace(1.0, after, 7)
        assert np.max(np.abs(traj(t)[:, 0] - (0.5 + 2.0 * (t - 1.0)))) <= 1e-12
        t = np.linspace(0.5, 1.0, 7)
        assert np.max(np.abs(traj(t)[:, 0] - 0.5 * t)) <= 1e-12

    def test_component_callable(self):
        traj = integrate(cosh_problem(), 2.0, 1e-9)
        w1 = traj.component(1)
        assert w1(2.0) == pytest.approx(math.sinh(2.0), rel=1e-6)


class TestDetectBlowup:
    def test_quadratic_oracle(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        rep = detect_blowup(p, thresholds=(1e3, 1e6, 1e9), horizon=2.0, tol=1e-10)
        assert rep.kind is BlowupKind.BLOW_UP
        assert abs(rep.t_blow_estimate - 1.0) <= 1e-3
        lo, hi = rep.t_blow_interval
        assert lo <= rep.t_blow_estimate <= hi

    def test_exponential_stays_global(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        rep = detect_blowup(p, thresholds=(1e3, 1e6, 1e9), horizon=20.0, tol=1e-10)
        assert rep.kind is BlowupKind.GLOBAL_UP_TO_HORIZON
        assert len(rep.escape_thresholds) == 2  # e^t crosses 1e9 only past t ~ 20.7

    def test_osgood_oracle(self):
        h = make_power_log(PowerFamilyParams(1.0, 2.0, math.e))
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=h)
        rep = detect_blowup(p, horizon=3.0, tol=1e-10)
        assert rep.kind is BlowupKind.BLOW_UP
        rel = abs(rep.t_blow_estimate - OSGOOD_BLOWUP_TIME) / OSGOOD_BLOWUP_TIME
        assert rel <= 0.01

    def test_escape_times_monotone_in_threshold(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        rep = detect_blowup(p, thresholds=(1e2, 1e4, 1e6, 1e8), horizon=2.0, tol=1e-10)
        times = [t for _, t in rep.escape_thresholds]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_step_collapse_counts_as_blowup(self):
        # fast blow-up exhausts the step floor before very high thresholds
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        rep = detect_blowup(p, horizon=2.0, tol=1e-10)  # ladder up to 1e12
        assert rep.kind is BlowupKind.BLOW_UP
        assert abs(rep.t_blow_estimate - 1.0) <= 1e-3

    def test_threshold_validation(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        with pytest.raises(InvalidParameterError):
            detect_blowup(p, thresholds=(5.0, 100.0), horizon=1.0)
        with pytest.raises(InvalidParameterError):
            detect_blowup(p, thresholds=(1e3, 1e2), horizon=1.0)

    def test_empty_ladder_is_refused(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        with pytest.raises(InvalidParameterError, match="at least one level"):
            detect_blowup(p, thresholds=(), horizon=1.0)


class TestAitken:
    def test_geometric_sequence_exact(self):
        # x_j = 1 - 3^(-j): Aitken recovers the limit
        xs = [1.0 - 3.0 ** (-j) for j in range(1, 6)]
        assert aitken_blowup_estimate(xs) == pytest.approx(1.0, abs=1e-12)

    def test_log_like_sequence_improves(self):
        xs = [2.0 - 1.0 / j for j in range(1, 12)]
        est = aitken_blowup_estimate(xs)
        assert abs(est - 2.0) < abs(xs[-1] - 2.0) / 3.0

    def test_short_input(self):
        assert aitken_blowup_estimate([1.5]) == 1.5
