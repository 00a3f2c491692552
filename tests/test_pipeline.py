import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blowup.classify import Verdict, classify, classify_scaled
from blowup.cli import parse_config, run_experiment
from blowup.errors import InvalidParameterError, NumericFailureError, SingularIntegrandError, StageError
from blowup.functions import (
    make_constant,
    make_custom,
    make_piecewise,
    make_power,
    make_power_log,
    parse_fn_spec,
)
from blowup.ode import BlowupEvent, BlowupReport, ProblemSpec, Trajectory, detect_blowup, integrate
from blowup.picard import PicardTower, picard_solve
from blowup.pipeline import (
    lift_solution,
    majorization_experiment,
    reduce_problem,
    run_pipeline,
)

from helpers import majorize

ONE = make_constant(1.0)
LN2 = math.log(2.0)
# I(h, 1) is on the border of the dichotomy and no exponent decides it
LOG_BORDER = make_custom(
    lambda s: s * np.log(np.e + s) ** 1.05,
    asymptotic_exponent=1.0,
    label="log-border",
)
FLOAT_RANGE_NOTE = (
    ", where the integral test of h gives Inconclusive (NumericHeuristic)"
)
SMALL_NOTE = (
    "initial data are small; the convergent regime guarantees "
    "blow-up only for sufficiently large data"
)
INCONCLUSIVE_NOTE = "integral test inconclusive; reporting numeric probes only"


def constant_trajectory(value=1.0, T=2.0, n_nodes=513):
    ts = np.linspace(0.0, T, n_nodes)
    ys = np.full((n_nodes, 1), value)
    dys = np.zeros((n_nodes, 1))
    return Trajectory(ts=ts, ys=ys, dys=dys, tol=1e-12)


class TestReduce:
    def test_shift(self):
        p = ProblemSpec(m=3, k=1, a=(5.0, 1.0, 2.0), q=ONE, h=make_power(1))
        r = reduce_problem(p)
        assert r.n == 2
        assert r.a == (1.0, 2.0)

    def test_identity_reduction(self):
        p = ProblemSpec(m=2, k=0, a=(1.0, 0.0), q=ONE, h=make_power(1))
        r = reduce_problem(p)
        assert r.n == 2 and r.a == (1.0, 0.0)

    def test_top_derivative(self):
        p = ProblemSpec(m=4, k=3, a=(0.0, 0.0, 0.0, 1.0), q=ONE, h=make_power(1))
        r = reduce_problem(p)
        assert r.n == 1 and r.a == (1.0,)

    def test_reduced_problem_is_a_problem_spec_without_f_override(self):
        p = ProblemSpec(m=3, k=1, a=(5.0, 1.0, 2.0), q=ONE, h=make_power(1),
                        f_override=lambda t, y: 0.5 * y[1])
        r = reduce_problem(p)
        assert isinstance(r, ProblemSpec)
        assert (r.m, r.k, r.n, r.a) == (2, 0, 2, (1.0, 2.0))
        assert r.q is p.q and r.h is p.h and r.f_override is None


class TestLift:
    def test_single_integration(self):
        v = lift_solution(constant_trajectory(), [0.0], 1)
        assert np.max(np.abs(v.ys[:, 0] - v.ts)) <= 1e-13
        assert np.allclose(v.ys[:, 1], 1.0)

    def test_double_integration(self):
        v = lift_solution(constant_trajectory(), [1.0, 0.0], 2)
        assert np.max(np.abs(v.ys[:, 0] - (1.0 + v.ts ** 2 / 2))) <= 1e-13

    def test_identity(self):
        u = constant_trajectory()
        assert lift_solution(u, [], 0) is u

    def test_lifted_derivative_is_input(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        u = integrate(p, 2.0, 1e-10)
        v = lift_solution(u, [0.5], 1)
        assert np.allclose(v.ys[:, 1], u.ys[:, 0])

    @pytest.mark.parametrize("k", [1, 2])
    def test_across_an_integrator_restart(self, k):
        # the integrator restarts at each jump of q and repeats the node: the
        # lift keeps it twice and starts a new block there, which is the same
        # as lifting each block on its own grid from the values the block
        # before ends with
        q = make_piecewise([((0.0, 0.7), 2.0), ((0.7, 1.3), 0.5), ((1.3, math.inf), 1.5)])
        u = integrate(ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=make_power(0.5)), 2.0, 1e-10)
        a_low = [0.5, 0.25][:k]
        v = lift_solution(u, a_low, k)
        assert v.ts.tobytes() == u.ts.tobytes() and v.ys[:, k:].tobytes() == u.ys.tobytes()
        assert v.dys[:, -1].tobytes() == u.dys[:, -1].tobytes()

        # the reference: each block between repeated nodes lifted on its own
        # grid, shifted to start at 0, from the block before's end values
        again = np.flatnonzero(~u.distinct)
        assert u.ts[again].tolist() == [0.7, 1.3]
        low, start = [], a_low
        for i0, i1 in zip([0, *again], [*(again - 1), len(u.ts) - 1]):
            part = slice(i0, i1 + 1)
            block = lift_solution(Trajectory(ts=u.ts[part] - u.ts[i0], ys=u.ys[part], dys=u.dys[part],
                                             tol=u.tol), start, k)
            low.append(block.ys[:, :k])
            start = block.ys[-1, :k]
        np.testing.assert_allclose(v.ys[:, :k], np.concatenate(low), rtol=1e-14, atol=0.0)

    def test_differentiation_round_trip(self):
        # finite differences of the lift recover u to 1e-6 relative
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        u = integrate(p, 2.0, 1e-10)
        # the lift is as accurate as its grid: u's dense output sampled with
        # each integrator cell split into 8
        grid = np.append(u.ts[:-1, None] + np.diff(u.ts)[:, None] * np.arange(8) / 8, u.t_end)
        ys = u(grid)
        dys = np.array([[*y[1:], p.rhs(t, y)] for t, y in zip(grid, ys.tolist())])
        v = lift_solution(Trajectory(ts=grid, ys=ys, dys=dys, tol=u.tol), [0.5, 0.25], 2)
        ts = np.linspace(0.05, 1.95, 1025)
        hstep = 1e-3
        vals = lambda t: v(t)[..., 0]
        d2 = (vals(ts + hstep) - 2 * vals(ts) + vals(ts - hstep)) / hstep ** 2
        truth = u(ts)[:, 0]
        assert np.max(np.abs(d2 - truth) / np.abs(truth)) <= 1e-6


class TestMajorization:
    def test_exponential_closed_form(self):
        tab = majorize(ONE, make_power(1), 1, (1.0,), (2.0,), J=5, horizon=10.0)
        assert tab.passed and tab.levels_reachable
        for row in tab.rows:
            assert row.t_j == pytest.approx(row.j * LN2, abs=1e-8)
            assert row.tau_j == pytest.approx(2 * row.j * LN2, abs=1e-8)
            assert row.eps_j == pytest.approx(LN2 if row.j else 0.0, abs=1e-8)

    def test_constant_growth_closed_form(self):
        tab = majorize(ONE, make_constant(1.0), 1, (1.0,), (2.0,), J=3, horizon=10.0)
        for row in tab.rows:
            assert row.t_j == pytest.approx(2.0 ** row.j - 1.0, abs=1e-9)
            assert row.tau_j == pytest.approx(2.0 * (2.0 ** row.j - 1.0), abs=1e-9)

    @pytest.mark.parametrize("pieces", [
        [((0.0, 0.3), 0.5), ((0.3, 0.7), 2.0), ((0.7, math.inf), 1.0)],
        # a negative piece strictly inside the level interval [log 2, 1.94]
        [((0.0, 1.0), 1.0), ((1.0, 1.5), -0.1), ((1.5, math.inf), 1.0)],
    ])
    def test_eps_of_piecewise_q_is_exact(self, pieces):
        # eps_j = int q over [t_(j-1), t_j]: the sum of c_i times the overlap
        # of the level interval with piece i; level intervals straddle jumps
        tab = majorize(make_piecewise(pieces), make_power(1), 1, (1.0,), J=4, horizon=5.0)
        assert tab.levels_reachable
        for prev, row in zip(tab.rows, tab.rows[1:]):
            exact = math.fsum(c * max(0.0, min(hi, row.t_j) - max(lo, prev.t_j))
                              for (lo, hi), c in pieces)
            assert row.eps_j == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lam, n", [(0.5, 2), (1.0, 1), (0.75, 3)])
    def test_power_companion_is_the_scaled_problem(self, lam, n):
        # for h = s^lam the companion w^(n) = h(rho w) runs as
        # w^(n) = rho^lam w^lam; the same function as a custom h runs h(rho w)
        # itself, and the two agree to rounding
        custom = make_custom(lambda s: s ** lam, asymptotic_exponent=lam)
        a = (1.0,) + (0.0,) * (n - 1)
        tabs = [majorize(ONE, h, n, a, J=5, horizon=3.0)
                for h in (make_power(lam), custom)]
        assert len(tabs[0].rows) == len(tabs[1].rows) > 1
        for row, ref in zip(tabs[0].rows, tabs[1].rows):
            assert row.u_derivs == ref.u_derivs and row.tau_j == ref.tau_j
            assert row.w_derivs == pytest.approx(ref.w_derivs, rel=1e-13)

    def test_levels_double(self):
        tab = majorize(ONE, make_power(1), 2, (1.0, 1.0), J=6, horizon=10.0)
        for row in tab.rows:
            assert row.u_derivs[0] == pytest.approx(2.0 ** row.j * tab.u0, rel=1e-9)

    def test_zero_level_row(self):
        tab = majorize(ONE, make_power(1), 1, (1.0,), (2.0,), J=0, horizon=5.0)
        assert len(tab.rows) == 1
        assert tab.rows[0].margin_min == pytest.approx(1.0)  # b - a

    def test_reparameterization_inequalities(self):
        tab = majorize(ONE, make_power(1), 1, (1.0,), J=6, horizon=10.0)
        rows = tab.rows
        for prev, cur in zip(rows, rows[1:]):
            assert cur.tau_j - prev.tau_j >= cur.t_j - prev.t_j - 1e-12
            assert cur.tau_j >= cur.t_j - 1e-12
        total_eps = sum(r.eps_j for r in rows)
        q_mass = rows[-1].t_j  # int_0^{t_J} 1 dt
        assert total_eps <= q_mass + 1e-9

    def test_stagnant_solution_reported(self):
        # zero data with h(0) = 0: u stays at 0, levels unreachable
        tab = majorize(ONE, make_power(1), 1, (0.0,), (1.0,), J=3, horizon=5.0)
        assert not tab.levels_reachable
        assert tab.rows == ()

    def test_early_stop_when_horizon_short(self):
        tab = majorize(ONE, make_power(1), 1, (1.0,), (2.0,), J=50, horizon=3.0)
        assert not tab.levels_reachable
        assert 0 < len(tab.rows) < 51
        assert tab.passed

    def test_rho_knob(self):
        tab = majorize(ONE, make_power(1), 1, (1.0,), (2.0,), J=4, horizon=10.0, rho=3.0)
        for row in tab.rows:
            assert row.u_derivs[0] == pytest.approx(3.0 ** row.j, rel=1e-8)

    @pytest.mark.parametrize("rho", [1.0, math.inf, math.nan])
    def test_rho_must_be_above_1_and_finite(self, rho):
        # an infinite rho would only fail later, inside the companion solve
        with pytest.raises(InvalidParameterError, match=f"^rho must be > 1 and finite, got {rho!r}$"):
            majorize(ONE, make_power(1), 1, (1.0,), (2.0,), J=2, horizon=5.0, rho=rho)

    def test_eps_of_constant_q_is_its_value_times_the_length(self):
        tab = majorize(make_constant(1.5), make_power(1), 1, (1.0,), J=4, horizon=5.0)
        assert tab.levels_reachable
        for prev, row in zip(tab.rows, tab.rows[1:]):
            assert row.eps_j == 1.5 * (row.t_j - prev.t_j)

    def test_eps_of_custom_q_by_quadrature(self):
        # a custom q is integrated on the shared rule: int (1 + t) over each level interval
        tab = majorize(make_custom(lambda t: 1.0 + t), make_power(1), 1, (1.0,), J=3, horizon=5.0)
        for prev, row in zip(tab.rows, tab.rows[1:]):
            exact = (row.t_j - prev.t_j) + (row.t_j ** 2 - prev.t_j ** 2) / 2.0
            assert row.eps_j == pytest.approx(exact, rel=1e-14)

    def test_b_must_dominate(self):
        with pytest.raises(InvalidParameterError):
            majorize(ONE, make_power(1), 1, (1.0,), (1.0,), J=2, horizon=5.0)

    def test_negative_level_count_refused(self, capsys):
        # J = 0 is the one-row table; a negative count has no meaning
        with pytest.raises(InvalidParameterError, match=r"^J must be an integer >= 0, got -1$"):
            majorize(ONE, make_power(1), 1, (1.0,), (2.0,), J=-1, horizon=5.0)
        cfg = "run = majorize\nh = power(1.0)\nn = 1\na = [1]\nJ = -1\nhorizon = 5.0\n"
        assert run_experiment(parse_config(cfg)) == 2
        assert capsys.readouterr().err == "error: J must be an integer >= 0, got -1\n"

    def test_order_checked_by_its_own_name(self, capsys):
        # the reduced problem's order is its m; the CLI's key for it is n
        with pytest.raises(InvalidParameterError, match=r"^m must be an integer >= 1, got 0$"):
            majorize(ONE, make_power(1), 0, (), J=2, horizon=5.0)
        assert run_experiment(parse_config("run = majorize\nh = power(1.0)\nn = 0\na = []\n")) == 2
        assert capsys.readouterr().err == "error: n must be an integer >= 1, got 0\n"

    def test_given_solution_must_be_the_reduced_solve(self):
        h = make_power(1)
        p = ProblemSpec(m=2, k=0, a=(1.0, 1.0), q=ONE, h=h)
        u = integrate(p, 5.0, 1e-10)
        for n, a in [(1, (1.0,)),           # order
                     (2, (1.0, 0.5))]:      # data
            with pytest.raises(InvalidParameterError, match="u must be the order"):
                majorization_experiment(ProblemSpec(m=n, k=0, a=a, q=ONE, h=h), u, J=4)
        driven = replace(p, f_override=lambda t, y: 0.0)
        for other in (ProblemSpec(m=3, k=1, a=(0.0, 1.0, 1.0), q=ONE, h=h), driven):
            with pytest.raises(InvalidParameterError, match="reduced problem"):
                majorization_experiment(other, u, J=4)


class TestPipeline:
    def test_global_exponential(self):
        p = ProblemSpec(m=2, k=0, a=(1.0, 1.0), q=ONE, h=make_power(1))
        rep = run_pipeline(p, horizon=5.0)
        assert rep.label == "GlobalConstructed"
        assert rep.passed
        assert rep.classification.verdict is Verdict.DIVERGES
        ts = np.linspace(0, 5, 201)
        assert np.max(np.abs(rep.constructed(ts)[:, 0] - np.exp(ts))) <= 1e-6
        assert rep.construction.consistency_sup <= 1e-5
        assert rep.majorization is not None and rep.majorization.passed

    def test_passed_reads_both_gates(self):
        # a consistency sup past its tol, or a majorization row below -1e-7
        # relative, fails the report
        p = ProblemSpec(m=2, k=0, a=(1.0, 1.0), q=ONE, h=make_power(1))
        rep = run_pipeline(p, horizon=2.0)
        assert rep.passed
        con = rep.construction
        assert not replace(rep, construction=replace(con, consistency_sup=2.0 * con.consistency_tol)).passed
        tab = rep.majorization
        for rel, passed in [(-1e-7, True), (math.nextafter(-1e-7, -1.0), False), (-0.5, False)]:
            rows = (*tab.rows[:-1], replace(tab.rows[-1], margin_min_rel=rel))
            assert replace(rep, majorization=replace(tab, rows=rows)).passed is passed

    def test_blowup_quadratic(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        rep = run_pipeline(p, horizon=5.0)
        assert rep.label == "BlowUpDetected"
        assert rep.blowup.t_blow_estimate == pytest.approx(1.0, abs=1e-3)

    def test_lifted_reduction(self):
        p = ProblemSpec(m=3, k=1, a=(5.0, 1.0, 1.0), q=ONE, h=make_power(1))
        rep = run_pipeline(p, horizon=5.0)
        assert rep.label == "GlobalConstructed"
        ts = np.linspace(0, 5, 201)
        vals = rep.constructed(ts)
        assert np.max(np.abs(vals[:, 0] - (4.0 + np.exp(ts)))) <= 1e-5
        assert np.max(np.abs(vals[:, 1] - np.exp(ts))) <= 1e-5  # v' = u

    def test_grid_cap_note(self, monkeypatch):
        import blowup.pipeline as pipeline
        from blowup.picard import picard_solve

        forced = {"tol": 1e-12, "grid_cap": 257}
        monkeypatch.setattr(pipeline, "picard_solve",
                            lambda *args, **kwargs: picard_solve(*args, **{**kwargs, **forced}))
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        rep = run_pipeline(p, horizon=3.0)
        assert rep.construction.discretization_gap > 1e-12 / 4
        assert any("cap of 257 nodes" in note for note in rep.notes)
        del forced["tol"]  # the pipeline's own tower tol stays under the same cap
        assert not any("cap" in note for note in run_pipeline(p, horizon=3.0).notes)

    def test_small_data_note_on_blowup_side(self):
        p = ProblemSpec(m=1, k=0, a=(0.5,), q=ONE, h=make_power(2))
        rep = run_pipeline(p, horizon=10.0)
        assert any("small" in note for note in rep.notes)

    def test_blowup_not_observed_label(self):
        # zero data with h(0) = 0 in the convergent regime: no escape
        p = ProblemSpec(m=1, k=0, a=(0.0,), q=ONE, h=make_power(2))
        rep = run_pipeline(p, horizon=5.0)
        assert rep.label == "BlowUpNotObserved"

    def test_inconclusive_reports_probes(self):
        h = make_custom(
            lambda s: s * np.log(np.e + s) ** 1.05,
            asymptotic_exponent=1.0,
            label="log-border",
        )
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=h)
        rep = run_pipeline(p, horizon=3.0)
        assert rep.label == "Inconclusive"
        assert rep.blowup is not None

    def test_override_sandwiched(self):
        p = ProblemSpec(
            m=1, k=0, a=(1.0,), q=ONE, h=make_power(1),
            f_override=lambda t, y: 0.5 * float(y[0]),
        )
        rep = run_pipeline(p, horizon=3.0)
        assert rep.label == "GlobalConstructed"
        slack_notes = [n for n in rep.notes if "sandwich" in n]
        assert slack_notes
        assert float(slack_notes[0].split("=")[-1]) >= -1e-9

    def test_stage_labels_on_failure(self):
        # h = s^0.97 with no declared exponent diverges only numerically, so a
        # majorant that leaves the float range before a huge horizon still
        # fails inside construct
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_custom(lambda s: s ** 0.97))
        with pytest.raises(StageError) as exc:
            run_pipeline(p, horizon=1e12)
        assert exc.value.stage == "construct"

    @pytest.mark.parametrize("k, m", [(0, 2), (1, 3)])
    def test_one_solve_per_problem(self, k, m, monkeypatch):
        # both problems reduce to u'' = u^0.5 from (1, 1); the majorization
        # reuses components k.. of the direct cross-check's solve, and the
        # companion from b = (2, 2) is the only other solve
        import blowup.pipeline as pipeline

        calls = []
        monkeypatch.setattr(pipeline, "integrate",
                            lambda *args, **kw: calls.append(args) or integrate(*args, **kw))
        p = ProblemSpec(m=m, k=k, a=(1.0,) * m, q=ONE, h=make_power(0.5))
        rep = run_pipeline(p, horizon=5.0)
        assert rep.label == "GlobalConstructed" and rep.passed
        assert [(c[0].m, c[0].a) for c in calls] == [(m, p.a), (2, (2.0, 2.0))]
        red = reduce_problem(p)
        alone = majorize(red.q, red.h, red.n, red.a, J=6, horizon=5.0, tol=1e-10)
        assert alone.passed and rep.majorization.passed
        if k == 0:
            assert repr(rep.majorization) == repr(alone)
            return
        # the direct solve's step control also covered w, so its components
        # 1.. are the standalone solve to within their tolerance
        got, want = rep.majorization, alone
        assert (len(got.rows), got.levels_reachable, got.note) == (len(want.rows), want.levels_reachable, want.note)

        def numbers(table):
            return [table.rho, table.t0, table.u0] + [
                x for r in table.rows
                for x in (r.t_j, r.tau_j, r.eps_j, *r.u_derivs, *r.w_derivs, r.margin_min, r.margin_min_rel)]

        assert np.allclose(numbers(got), numbers(want), rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("k, m", [(0, 2), (1, 3)])
    def test_one_solve_per_problem_below_1e_12(self, k, m, monkeypatch):
        # at a tol below 1e-12 the majorization still reads the direct
        # solve: the companion is the only other integration
        import blowup.pipeline as pipeline

        calls = []
        monkeypatch.setattr(pipeline, "integrate",
                            lambda *args, **kw: calls.append(args) or integrate(*args, **kw))
        p = ProblemSpec(m=m, k=k, a=(1.0,) * m, q=ONE, h=make_power(0.5))
        rep = run_pipeline(p, horizon=5.0, tol=5e-13)
        assert [(c[0].m, c[0].a, c[2]) for c in calls] == [(m, p.a, 5e-13), (2, (2.0, 2.0), 5e-13)]
        assert rep.label == "GlobalConstructed" and rep.passed
        assert rep.construction.consistent and rep.majorization.passed
        if k == 0:  # the table is the standalone experiment's at that tol
            red = reduce_problem(p)
            alone = majorize(red.q, red.h, red.n, red.a, J=6, horizon=5.0, tol=5e-13)
            assert repr(rep.majorization) == repr(alone)

    @pytest.mark.parametrize("m, k", [(1, 0), (2, 1), (3, 1), (3, 2)])
    def test_majorant_inverted_only_at_T(self, m, k, monkeypatch):
        # the tower's escape check is the pipeline's one inversion: the
        # majorant on the tower's grid is never read
        import blowup.picard as picard

        targets, real = [], picard.solve_autonomous_quadrature
        monkeypatch.setattr(picard, "solve_autonomous_quadrature",
                            lambda g, n, u0, t, **kw: targets.append(len(t)) or real(g, n, u0, t, **kw))
        rep = run_pipeline(ProblemSpec(m=m, k=k, a=(1.0,) * m, q=ONE, h=make_power(0.5)), horizon=5.0)
        assert rep.label == "GlobalConstructed" and rep.passed
        assert targets == [1]

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_consistency_matrix(self, lam, m):
        a = tuple(1.0 if i % 2 == 0 else 0.0 for i in range(m))
        for k in range(m):
            p = ProblemSpec(m=m, k=k, a=a, q=ONE, h=make_power(lam))
            rep = run_pipeline(p, horizon=5.0)
            assert rep.label == "GlobalConstructed"
            assert rep.construction.consistency_sup <= 1e-5, (lam, m, k)

    def test_inconclusive_keeps_construction_when_majorize_fails(self, monkeypatch):
        import blowup.pipeline as pipeline

        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=LOG_BORDER)
        whole = run_pipeline(p, horizon=0.3)
        assert whole.label == "Inconclusive" and whole.majorization is not None

        def fail(*args, **kwargs):
            raise NumericFailureError("companion escaped")

        monkeypatch.setattr(pipeline, "majorization_experiment", fail)
        rep = run_pipeline(p, horizon=0.3)
        assert rep.label == "Inconclusive"
        assert repr(rep.construction) == repr(whole.construction)
        assert rep.constructed is not None and rep.direct is not None
        assert rep.majorization is None
        assert rep.notes == (
            INCONCLUSIVE_NOTE,
            "construction probe failed: stage 'majorize' failed: companion escaped",
        )
        # with a divergent test the same failure is the pipeline's own
        with pytest.raises(StageError) as exc:
            run_pipeline(ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1)), horizon=1.0)
        assert exc.value.stage == "majorize"

    def test_inconclusive_keeps_the_lift_when_the_cross_check_fails(self, monkeypatch):
        # h(s) = s declares no exponent, so the test is inconclusive; the tower
        # and its lift reach the horizon, and the direct solve fails.  No
        # natural input gets there: a majorant that leaves the floats fails
        # "construct" first, so the cross-check's integration is made to fail
        import blowup.pipeline as pipeline

        def fail(*args, **kwargs):
            raise NumericFailureError("direct solve failed")

        monkeypatch.setattr(pipeline, "integrate", fail)
        h = make_custom(lambda s: s)
        rep = run_pipeline(ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=h), horizon=1.0)
        assert rep.label == "Inconclusive"
        assert rep.constructed is not None and rep.constructed.t_end == 1.0
        assert rep.direct is None and rep.construction is None and rep.majorization is None
        assert rep.notes == (
            INCONCLUSIVE_NOTE,
            "construction probe failed: stage 'cross-check' failed: direct solve failed",
        )

    def test_osgood_divergent_majorant_leaving_floats_is_named(self):
        # the test diverges exactly, so a majorant that leaves the float range
        # before the horizon passes construct, and the cross-check with it; the
        # majorization's companion w' = h(rho w) stays below the escape level
        # 1e300 up to its last level, so the pipeline passes
        h = parse_fn_spec("powerlog(1, 1)")
        rep = run_pipeline(ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=h), horizon=1.0)
        assert rep.label == "GlobalConstructed" and rep.passed
        assert rep.construction.consistency_sup <= rep.construction.consistency_tol
        assert rep.majorization is not None and rep.majorization.passed

    def test_overflowing_tower_is_named(self):
        # u' = u from 1e300 leaves the floats long before t = 100: the tower's
        # iterate overflows, and its own check names it, not numpy's warning
        p = ProblemSpec(m=1, k=0, a=(1e300,), q=ONE, h=make_power(1.0))
        with pytest.raises(StageError) as exc:
            run_pipeline(p, horizon=100.0)
        assert exc.value.stage == "construct"
        assert isinstance(exc.value.cause, NumericFailureError)
        assert str(exc.value.cause) == "Picard iterate became non-finite"

    @pytest.mark.parametrize("h, a, horizon, label, notes, present", [
        (make_power(1), (1.0,), 1.0, "GlobalConstructed", (), {"construction", "majorization"}),
        (make_power(2), (1.0,), 5.0, "BlowUpDetected", (), {"blowup"}),
        (make_power(2), (0.0,), 5.0, "BlowUpNotObserved",
         (SMALL_NOTE, "no escape within the horizon despite convergent test"), {"blowup"}),
        (LOG_BORDER, (1.0,), 0.3, "Inconclusive", (INCONCLUSIVE_NOTE,),
         {"construction", "blowup", "majorization"}),
        (LOG_BORDER, (1.0,), 3.0, "Inconclusive",
         (INCONCLUSIVE_NOTE, "construction probe failed: stage 'construct' failed: "
          "the majorant leaves the float range before T=3.0" + FLOAT_RANGE_NOTE), {"blowup"}),
    ])
    def test_one_row_per_label(self, h, a, horizon, label, notes, present):
        rep = run_pipeline(ProblemSpec(m=1, k=0, a=a, q=ONE, h=h), horizon=horizon)
        assert rep.label == label
        assert rep.notes == notes
        assert {name for name in ("construction", "blowup", "majorization")
                if getattr(rep, name) is not None} == present
        kept = "construction" in present
        assert (rep.constructed is not None) is kept and (rep.direct is not None) is kept


class TestDrawnCriterion11:
    """Criterion 11 on drawn divergent-regime problems with a power h."""

    def test_lift_across_a_kink(self):
        # w'' = q(t) (w')^0.5 with q = 2 on [0, 1) and 0.5 after: u = w' has a
        # kink at t = 1, and a lift of u in one block across it missed the gate
        q = make_piecewise([((0.0, 1.0), 2.0), ((1.0, math.inf), 0.5)])
        p = ProblemSpec(m=2, k=1, a=(1.0, 1.0), q=q, h=make_power(0.5))
        rep = run_pipeline(p, horizon=3.0)
        assert rep.label == "GlobalConstructed" and rep.passed
        assert rep.construction.consistency_sup <= 1e-7
        assert np.count_nonzero(rep.constructed.ts == 1.0) == 2  # the jump's node, repeated
        # between nodes too: the Hermite cell that closes on the jump takes
        # the derivative from its own side
        ts = np.linspace(0.0, 3.0, 3001)
        assert np.max(np.abs(rep.constructed(ts) - integrate(p, 3.0, 1e-13)(ts))) <= 1e-8

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        lam=st.floats(0.2, 1.0),
        mk=st.sampled_from([(m, k) for m in (1, 2, 3) for k in range(m)]),
        data=st.lists(st.one_of(st.just(0.0), st.floats(0.1, 2.0)), min_size=3, max_size=3),
        horizon=st.floats(0.5, 5.0),
        q_vals=st.lists(st.floats(0.25, 2.0), min_size=1, max_size=3),
        cuts=st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2, unique=True),
    )
    def test_drawn_problems_pass(self, lam, mk, data, horizon, q_vals, cuts):
        # m <= 3, k < m, data 0 or in [0.1, 2], constant q or q with 1-2 jumps
        # inside the horizon: the pipeline constructs, its lift meets the gate
        # against the direct solve, and the majorization passes.  Data just
        # above 0 with lambda < 1 stay out: the direct solve's first stage can
        # fall below 0 there (ROADMAP, small item "A stage below 0").  Two
        # cuts that scale to the same time would make an empty piece, which
        # is no q at all
        m, k = mk
        edges = [0.0, *sorted(c * horizon for c in cuts[: len(q_vals) - 1]), math.inf]
        assume(len(set(edges)) == len(edges))
        q = make_piecewise(list(zip(zip(edges, edges[1:]), q_vals)))
        rep = run_pipeline(ProblemSpec(m=m, k=k, a=tuple(data[:m]), q=q, h=make_power(lam)), horizon=horizon)
        assert rep.label == "GlobalConstructed"
        assert rep.passed, rep.construction
        assert rep.majorization is not None and rep.majorization.passed
        # the gate reads the nodes; the dense output must agree between them
        ts = np.linspace(0.0, horizon, 1001)
        direct = rep.direct(ts)
        err = np.max(np.abs(rep.constructed(ts) - direct) / (1.0 + np.abs(direct)), axis=0)
        assert np.all(err <= 1e-8), err



@st.composite
def divergent_edge_problems(draw):
    """u^(n) = u log(e + u)^sigma on the divergent side of the flip at
    sigma = n, sigma = n itself drawn on purpose, with data in [0.5, 2] and
    q = 1: (problem, horizon).  The horizon stops at 1.5 for n = 1 and at
    2 for n = 2: the majorization's companion w^(n) = h(2 w) runs to
    tau_J, about twice the horizon, and leaves the float range near
    tau = 3 for n = 1 with sigma <= 1 and near tau = 4.7 for n = 2 at
    sigma = 2, where its escape is a float limit and not the regime's."""
    n = draw(st.sampled_from([1, 2]))
    sigma = draw(st.one_of(st.just(float(n)), st.floats(n - 0.5, n)))
    a = tuple(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    horizon = draw(st.floats(0.5, 1.5 if n == 1 else 2.0))
    return ProblemSpec(m=n, k=0, a=a, q=ONE, h=make_power_log(1.0, sigma)), horizon


class TestDichotomyEdge:
    """The divergent side of the paper's borderline h = s log(e + s)^sigma,
    where the integral test diverges exactly for sigma <= n."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(drawn=divergent_edge_problems())
    def test_divergent_side_constructs(self, drawn):
        p, horizon = drawn
        assert classify(p.h, p.n).verdict is Verdict.DIVERGES
        rep = run_pipeline(p, horizon=horizon)
        assert rep.label == "GlobalConstructed"
        assert rep.passed, (rep.construction, rep.majorization)
        assert rep.majorization is not None

def _bits(x):
    """x as nested tuples of bytes and plain values: two results give the
    same bits exactly when these are equal."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, Trajectory):
        return tuple(_bits(getattr(x, f)) for f in ("ts", "ys", "dys", "dense")) + (x.tol, x.stats)
    if isinstance(x, (BlowupEvent, BlowupReport, PicardTower)):
        return type(x).__name__, tuple(_bits(getattr(x, f.name)) for f in fields(x) if f.name[0] != "_")
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    return repr(x)


class TestConstantIsOnePiece:
    """make_constant(c) is the one-piece step function, with its own spec
    text and evaluation: every solver reads the same bits from it as from
    make_piecewise's one piece."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        c=st.floats(0.1, 4.0),
        mk=st.sampled_from([(m, k) for m in (1, 2, 3) for k in range(m)]),
        lam=st.floats(0.3, 3.0),
        mu=st.floats(0.3, 1.0),
        a=st.lists(st.one_of(st.just(0.0), st.floats(0.1, 2.0)), min_size=3, max_size=3),
        T=st.floats(0.5, 3.0),
    )
    def test_every_solver_reads_the_same_bits(self, c, mk, lam, mu, a, T):
        one, piece = make_constant(c), make_piecewise([((0.0, math.inf), c)])
        assert (one.family, one.params, one.breakpoints) == (piece.family, piece.params, piece.breakpoints)
        m, k = mk
        got = []
        for q in (one, piece):
            p = ProblemSpec(m=m, k=k, a=tuple(a[:m]), q=q, h=make_power(lam))
            b = a[k:m]
            got.append(_bits((
                integrate(p, T, 1e-9),
                detect_blowup(p, thresholds=(10.0, 1e3, 1e6), horizon=T, tol=1e-9),
                picard_solve(make_power(mu), m - k, b, min(T, 1.0), tol=1e-8, q=q, majorant_b=np.add(b, 1.0)),
                [classify(q, n) for n in (1, 2, 3)],
                [classify_scaled(q, n, alpha) for n in (1, 2, 3) for alpha in (0.3, 2.0, 17.0)],
            )))
        assert got[0] == got[1]

    @pytest.mark.parametrize("c", [0.0, -1.5])
    def test_a_nonpositive_constant_is_singular_where_its_piece_is(self, c):
        # the numeric path refuses it at its first quadrature node
        where = []
        for h in (make_constant(c), make_piecewise([((0.0, math.inf), c)])):
            with pytest.raises(SingularIntegrandError) as err:
                classify(h, 1)
            where.append(err.value.where)
        assert where[0] == where[1] > 1.0
