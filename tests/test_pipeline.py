import math

import numpy as np
import pytest

from blowup.classify import Verdict
from blowup.errors import InvalidParameterError, NumericFailureError, StageError
from blowup.functions import make_constant, make_custom, make_power
from blowup.ode import ProblemSpec, Trajectory, integrate
from blowup.pipeline import (
    lift_solution,
    majorization_experiment,
    reduce_problem,
    run_pipeline,
)

ONE = make_constant(1.0)
LN2 = math.log(2.0)
# I(h, 1) is on the border of the dichotomy and no exponent decides it
LOG_BORDER = make_custom(
    lambda s: s * np.log(np.e + s) ** 1.05,
    nonnegative=True,
    nondecreasing=True,
    asymptotic_exponent=1.0,
    label="log-border",
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
    return Trajectory(ts=ts, ys=ys, dys=dys, m=1, tol=1e-12)


class TestReduce:
    def test_shift(self):
        p = ProblemSpec(m=3, k=1, a=(5.0, 1.0, 2.0), q=ONE, h=make_power(1))
        r = reduce_problem(p)
        assert r.n == 2
        assert r.a_reduced == (1.0, 2.0)

    def test_identity_reduction(self):
        p = ProblemSpec(m=2, k=0, a=(1.0, 0.0), q=ONE, h=make_power(1))
        r = reduce_problem(p)
        assert r.n == 2 and r.a_reduced == (1.0, 0.0)

    def test_top_derivative(self):
        p = ProblemSpec(m=4, k=3, a=(0.0, 0.0, 0.0, 1.0), q=ONE, h=make_power(1))
        r = reduce_problem(p)
        assert r.n == 1 and r.a_reduced == (1.0,)


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

    def test_differentiation_round_trip(self):
        # finite differences of the lift recover u to 1e-6 relative
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        u = integrate(p, 2.0, 1e-10)
        v = lift_solution(u, [0.5, 0.25], 2)
        ts = np.linspace(0.05, 1.95, 1025)
        hstep = 1e-3
        vals = lambda t: v(t)[..., 0]
        d2 = (vals(ts + hstep) - 2 * vals(ts) + vals(ts - hstep)) / hstep ** 2
        truth = u(ts)[:, 0]
        assert np.max(np.abs(d2 - truth) / np.abs(truth)) <= 1e-6


class TestMajorization:
    def test_exponential_closed_form(self):
        tab = majorization_experiment(ONE, make_power(1), 1, (1.0,), (2.0,), J=5, horizon=10.0)
        assert tab.passed and tab.levels_reachable
        for row in tab.rows:
            assert row.t_j == pytest.approx(row.j * LN2, abs=1e-8)
            assert row.tau_j == pytest.approx(2 * row.j * LN2, abs=1e-8)
            assert row.eps_j == pytest.approx(LN2 if row.j else 0.0, abs=1e-8)

    def test_constant_growth_closed_form(self):
        tab = majorization_experiment(ONE, make_constant(1.0), 1, (1.0,), (2.0,), J=3, horizon=10.0)
        for row in tab.rows:
            assert row.t_j == pytest.approx(2.0 ** row.j - 1.0, abs=1e-9)
            assert row.tau_j == pytest.approx(2.0 * (2.0 ** row.j - 1.0), abs=1e-9)

    def test_levels_double(self):
        tab = majorization_experiment(ONE, make_power(1), 2, (1.0, 1.0), J=6, horizon=10.0)
        for row in tab.rows:
            assert row.u_derivs[0] == pytest.approx(2.0 ** row.j * tab.u0, rel=1e-9)

    def test_zero_level_row(self):
        tab = majorization_experiment(ONE, make_power(1), 1, (1.0,), (2.0,), J=0, horizon=5.0)
        assert len(tab.rows) == 1
        assert tab.rows[0].margin_min == pytest.approx(1.0)  # b - a

    def test_reparameterization_inequalities(self):
        tab = majorization_experiment(ONE, make_power(1), 1, (1.0,), J=6, horizon=10.0)
        rows = tab.rows
        for prev, cur in zip(rows, rows[1:]):
            assert cur.tau_j - prev.tau_j >= cur.t_j - prev.t_j - 1e-12
            assert cur.tau_j >= cur.t_j - 1e-12
        total_eps = sum(r.eps_j for r in rows)
        q_mass = rows[-1].t_j  # int_0^{t_J} 1 dt
        assert total_eps <= q_mass + 1e-9

    def test_stagnant_solution_reported(self):
        # zero data with h(0) = 0: u stays at 0, levels unreachable
        tab = majorization_experiment(ONE, make_power(1), 1, (0.0,), (1.0,), J=3, horizon=5.0)
        assert not tab.levels_reachable
        assert tab.rows == ()

    def test_early_stop_when_horizon_short(self):
        tab = majorization_experiment(ONE, make_power(1), 1, (1.0,), (2.0,), J=50, horizon=3.0)
        assert not tab.levels_reachable
        assert 0 < len(tab.rows) < 51
        assert tab.passed

    def test_rho_knob(self):
        tab = majorization_experiment(ONE, make_power(1), 1, (1.0,), (2.0,), J=4, horizon=10.0, rho=3.0)
        for row in tab.rows:
            assert row.u_derivs[0] == pytest.approx(3.0 ** row.j, rel=1e-8)

    def test_b_must_dominate(self):
        with pytest.raises(InvalidParameterError):
            majorization_experiment(ONE, make_power(1), 1, (1.0,), (1.0,), J=2, horizon=5.0)

    def test_order_checked_by_its_own_name(self):
        with pytest.raises(InvalidParameterError, match=r"^n must be an integer >= 1, got 0$"):
            majorization_experiment(ONE, make_power(1), 0, (), J=2, horizon=5.0)

    def test_given_solution_must_be_the_reduced_solve(self):
        h = make_power(1)
        u = integrate(ProblemSpec(m=2, k=0, a=(1.0, 1.0), q=ONE, h=h), 5.0, 1e-10)
        given = majorization_experiment(ONE, h, 2, (1.0, 1.0), J=4, horizon=5.0, tol=1e-10, u=u)
        own = majorization_experiment(ONE, h, 2, (1.0, 1.0), J=4, horizon=5.0, tol=1e-10)
        assert repr(given) == repr(own)
        for n, a, horizon, tol in [
            (1, (1.0,), 5.0, 1e-10),           # order
            (2, (1.0, 0.5), 5.0, 1e-10),       # data
            (2, (1.0, 1.0), 4.0, 1e-10),       # span
            (2, (1.0, 1.0), 5.0, 1e-12),       # tol
        ]:
            with pytest.raises(InvalidParameterError, match="u must be the order"):
                majorization_experiment(ONE, h, n, a, J=4, horizon=horizon, tol=tol, u=u)


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

        forced = {"tol": 1e-13, "grid_cap": 257}
        monkeypatch.setattr(pipeline, "picard_solve",
                            lambda *args, **kwargs: picard_solve(*args, **{**kwargs, **forced}))
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        rep = run_pipeline(p, horizon=1.0)
        assert rep.construction.discretization_gap > 1e-13 / 4
        assert any("cap of 257 nodes" in note for note in rep.notes)
        del forced["tol"]  # the pipeline's own tower tol stays under the same cap
        assert not any("cap" in note for note in run_pipeline(p, horizon=1.0).notes)

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
            nonnegative=True,
            nondecreasing=True,
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
        # a huge horizon makes the majorant escape inside construct
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1))
        with pytest.raises(StageError) as exc:
            run_pipeline(p, horizon=1e6)
        assert exc.value.stage == "construct"

    @pytest.mark.parametrize("k, solves", [(0, 2), (1, 3)])
    def test_one_solve_per_problem(self, k, solves, monkeypatch):
        # for k = 0 the majorization reuses the direct cross-check's solve;
        # the companion is the other one
        import blowup.pipeline as pipeline

        calls = []
        monkeypatch.setattr(pipeline, "integrate",
                            lambda *args, **kw: calls.append(args) or integrate(*args, **kw))
        p = ProblemSpec(m=2, k=k, a=(1.0, 1.0), q=ONE, h=make_power(0.5))
        rep = run_pipeline(p, horizon=5.0)
        assert rep.label == "GlobalConstructed" and rep.passed
        assert len(calls) == solves
        red = reduce_problem(p)
        alone = majorization_experiment(red.q, red.h, red.n, red.a_reduced,
                                        J=6, horizon=5.0, tol=1e-10)
        assert repr(rep.majorization) == repr(alone)

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

    @pytest.mark.parametrize("h, a, horizon, label, notes, present", [
        (make_power(1), (1.0,), 1.0, "GlobalConstructed", (), {"construction", "majorization"}),
        (make_power(2), (1.0,), 5.0, "BlowUpDetected", (), {"blowup"}),
        (make_power(2), (0.0,), 5.0, "BlowUpNotObserved",
         (SMALL_NOTE, "no escape within the horizon despite convergent test"), {"blowup"}),
        (LOG_BORDER, (1.0,), 0.3, "Inconclusive", (INCONCLUSIVE_NOTE,),
         {"construction", "blowup", "majorization"}),
        (LOG_BORDER, (1.0,), 3.0, "Inconclusive",
         (INCONCLUSIVE_NOTE, "construction probe failed: stage 'construct' failed: "
          "could not bracket target t=3.0 below the overflow cap"), {"blowup"}),
    ])
    def test_one_row_per_label(self, h, a, horizon, label, notes, present):
        rep = run_pipeline(ProblemSpec(m=1, k=0, a=a, q=ONE, h=h), horizon=horizon)
        assert rep.label == label
        assert rep.notes == notes
        assert {name for name in ("construction", "blowup", "majorization")
                if getattr(rep, name) is not None} == present
        kept = "construction" in present
        assert (rep.constructed is not None) is kept and (rep.direct is not None) is kept
