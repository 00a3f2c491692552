import inspect
import linecache
import math
import re
import sys
import threading
import traceback
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import blowup.ode as ode
from blowup.errors import InvalidParameterError, NumericFailureError
from blowup.functions import (
    make_constant,
    make_custom,
    make_piecewise,
    make_power,
    make_power_log,
)
from blowup.ode import (
    BlowupKind,
    ProblemSpec,
    Trajectory,
    aitken_blowup_estimate,
    detect_blowup,
    integrate,
)
from blowup.picard import picard_solve
from blowup.pipeline import lift_solution, run_pipeline

ONE = make_constant(1.0)
# q = 0.5, then 2 from t = 0.25
STEP_UP = make_piecewise([((0.0, 0.25), 0.5), ((0.25, math.inf), 2.0)])

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
        for x in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match=f"^initial values must be finite, got {x}$"):
                ProblemSpec(m=2, k=0, a=(1.0, x), q=ONE, h=make_power(1))

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


def reference_rhs(self, t, y):
    """ProblemSpec.rhs as it was written through the ScalarFn calls, with every
    factor converted by float(): the reference the direct ``.fn`` path must
    reproduce bit for bit."""
    try:
        qv, hv = self.q(t), self.h(y[self.k])
    except OverflowError:
        raise NumericFailureError("overflow") from None
    qh = float(qv) * (math.nan if isinstance(hv, complex) else float(hv))
    if self.f_override is not None:
        fv = float(self.f_override(t, np.array(y)))
        slack = 1e-12 * (1.0 + abs(qh))
        if fv < -slack or fv > qh + slack:
            raise InvalidParameterError("f_override out of bounds")
    else:
        fv = qh
    if not math.isfinite(fv):
        raise NumericFailureError("not finite")
    return fv


def _outcome(rhs, p, t, y):
    try:
        return rhs(p, t, y)
    except Exception as exc:
        return type(exc)


_H = {
    "power": lambda x: make_power(3.0 * x),
    "powerlog": lambda x: make_power_log(3.0 * x, 2.0 * x - 0.5),
    "custom": lambda x: make_custom(lambda s: s * s / (1.0 + s * s) + x * abs(s) ** 0.75),
}
_Q = {
    "constant": lambda x: make_constant(10.0 * x),
    "piecewise": lambda x: make_piecewise([((0, 1.0 + x), 0.5), ((1.0 + x, math.inf), 2.0 + x)]),
}


@st.composite
def in_class_problems(draw):
    """Problems of the intended class, q, h >= 0 and a >= 0: m <= 3, k < m,
    a power, powerlog or custom h, a constant q or a q with one jump, and
    data in [0, 2]."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(0, m - 1))
    h = _H[draw(st.sampled_from(sorted(_H)))](draw(st.floats(0.1, 1.0)))
    c, cut = draw(st.floats(0.25, 2.0)), draw(st.none() | st.floats(0.1, 2.5))
    q = make_constant(c) if cut is None else make_piecewise(
        [((0, cut), c), ((cut, math.inf), draw(st.floats(0.25, 2.0)))])
    a = draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m))
    return ProblemSpec(m=m, k=k, a=tuple(a), q=q, h=h)


class TestRhsAgainstReference:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        h=st.sampled_from(sorted(_H)), q=st.sampled_from(sorted(_Q)),
        x=st.floats(0.0, 1.0), t=st.floats(0.0, 1e6),
        y=st.lists(st.floats(-2.0, 1e150), min_size=1, max_size=3),
        k=st.integers(0, 2), override=st.booleans(),
    )
    @example(h="power", q="constant", x=0.5, t=0.0, y=[-1.0], k=0, override=False)
    @example(h="powerlog", q="piecewise", x=0.5, t=2.0, y=[-1.0, 3.0], k=0, override=False)
    @example(h="power", q="constant", x=1.0, t=0.0, y=[1e150], k=0, override=False)
    @example(h="powerlog", q="constant", x=0.9, t=0.0, y=[1e100], k=0, override=False)
    def test_same_float_or_same_error(self, h, q, x, t, y, k, override):
        # complex (a fractional power of a negative state), numpy scalars
        # (powerlog), overflow and the f_override contract all meet the
        # reference's outcome
        f_override = (lambda t, y: 0.5 * float(y[-1])) if override else None
        p = ProblemSpec(m=len(y), k=min(k, len(y) - 1), a=(0.0,) * len(y),
                        q=_Q[q](x), h=_H[h](x), f_override=f_override)
        with np.errstate(all="ignore"):
            got, want = _outcome(ProblemSpec.rhs, p, t, y), _outcome(reference_rhs, p, t, y)
        if isinstance(want, float):
            assert type(got) is float and got.hex() == want.hex()
        else:
            assert got is want

    @pytest.mark.parametrize("p, through_rhs", [
        (ProblemSpec(m=3, k=1, a=(1.0, 0.0, 1.0), q=ONE,
                     h=make_power_log(0.5, 1.0)), False),
        (ProblemSpec(m=1, k=0, a=(0.5,),
                     q=make_piecewise([((0, 0.5), 0.5), ((0.5, math.inf), 2.0)]),
                     h=make_power(0.5)), False),
        (ProblemSpec(m=2, k=0, a=(0.5, 1.0),
                     q=make_piecewise([((0, 0.5), 0.5), ((0.5, math.inf), 2.0)]),
                     h=_H["custom"](0.5)), True),
    ], ids=["m3-k1-powerlog", "piecewise-q", "custom-h"])
    def test_integrate_is_byte_identical(self, p, through_rhs, monkeypatch):
        new = integrate(p, 2.0, 1e-10)
        calls = []
        monkeypatch.setattr(ProblemSpec, "rhs", lambda self, t, y: calls.append(t) or reference_rhs(self, t, y))
        ref = integrate(p, 2.0, 1e-10)
        for name in ("ts", "ys", "dys"):
            assert getattr(new, name).tobytes() == getattr(ref, name).tobytes()
        # a custom h takes the step that calls rhs at every stage, so the
        # reference is compared inside each step; a power or powerlog h takes
        # the step that computes c h(s_k) itself and reaches rhs only at the
        # start, at restarts and at an escape
        if through_rhs:
            assert len(calls) >= 6 * new.stats.accepted > 0
        else:
            assert len(calls) < new.stats.accepted


EPS = 2.0 ** -52


def _floats(a):
    return [float(x).hex() for x in a]


class TestTableau:
    """The DOP853 coefficients: bitwise those of scipy's transcription of
    Hairer's dop853.f, and, as exact sums of the stored floats, within one
    rounding of the row sums and the quadrature order conditions."""

    def test_coefficients_match_scipy(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        # stages 2..12, then the FSAL stage 13 (state y_new, node 1), then
        # the continuous extension's stages 14..16
        assert _floats(ode._C) == _floats(ref.C[1:12]) and ref.C[12] == 1.0
        assert _floats(ode._C_EXTRA) == _floats(ref.C[13:])
        rows = [*ode._A, ode._B, *ode._A_EXTRA]
        assert len(rows) == ref.N_STAGES_EXTENDED - 1
        for s, row in enumerate(rows, start=1):
            assert _floats(row) == _floats(ref.A[s, :s]) and not ref.A[s, s:].any(), s
        assert _floats(ode._B) == _floats(ref.B)
        for mine, theirs in ((ode._E5, ref.E5), (ode._E3, ref.E3)):
            assert _floats(mine) == _floats(theirs[:-1]) and theirs[-1] == 0.0
        assert [_floats(row) for row in ode._D] == [_floats(row) for row in ref.D]

    def test_rows_sum_to_their_nodes(self):
        nodes = [*ode._C, 1.0, *ode._C_EXTRA]
        rows = [*ode._A, ode._B, *ode._A_EXTRA]
        assert len(rows) == len(nodes)
        for row, c in zip(rows, nodes):
            assert abs(sum(map(Fraction, row)) - Fraction(c)) <= EPS * sum(map(abs, row))

    def test_quadrature_order_conditions(self):
        # B is of order 8, B - E5 of order 5 and B - E3 of order 3; each
        # fails the next condition by far more than a rounding
        c = [Fraction(0), *map(Fraction, ode._C)]  # c_1 .. c_12
        b = [Fraction(x) for x in ode._B]
        for order, e in ((8, None), (5, ode._E5), (3, ode._E3)):
            w = b if e is None else [bi - Fraction(ei) for bi, ei in zip(b, e)]
            for k in range(1, order + 2):
                scale = sum(abs(wi) * ci ** (k - 1) for wi, ci in zip(w, c))
                miss = abs(sum(wi * ci ** (k - 1) for wi, ci in zip(w, c)) - Fraction(1, k))
                assert (miss <= EPS * scale) == (k <= order), (order, k)


def _dot(weights, slopes, i):
    """sum_j w_j * slope_j[i] over the nonzero w_j, left to right."""
    terms = [w * sl[i] for w, sl in zip(weights, slopes) if w]
    acc = terms[0]
    for x in terms[1:]:
        acc = acc + x
    return acc


def reference_step(rhs, t, h, hi, y, f, tol):
    """The DOP853 step as loops over the stages and list comprehensions over
    the state, with scipy's coefficients: the reference the generated step
    must reproduce bit for bit."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    A, C, E5, E3, D = (x.tolist() for x in (ref.A, ref.C, ref.E5, ref.E3, ref.D))
    m = len(y)
    times = [t + c * h for c in C]
    if times[11] > hi:
        times = [min(x, hi) for x in times]
    slopes = [list(f)]
    for s in range(1, 16):  # stages 2..16; the 13th's state is y_new
        if s == 13:
            scale = [tol + tol * max(abs(a), abs(b)) for a, b in zip(y, y_new)]
            e5 = sum([(r := _dot(E5, slopes, i) / scale[i]) * r for i in range(m)])
            e3 = sum([(r := _dot(E3, slopes, i) / scale[i]) * r for i in range(m)])
            den = e5 + 0.01 * e3
            err = h * e5 / math.sqrt(den * m) if den else 0.0
            f_new = slopes[12]
            if not err <= 1.0:
                return y_new, f_new, err, None
        state = [y[i] + h * _dot(A[s][:s], slopes, i) for i in range(m)]
        if s == 12:
            y_new = state
        slopes.append(state[1:] + [rhs(times[s], state)])
    return y_new, f_new, err, [h * _dot(row, slopes, i) for row in D for i in range(m)]


def _uncut(pair):
    """A generated (step, extend) pair as one step with the reference's
    outcome (y_new, f_new, err, dense): the step, then for a step that passes
    its error test the extension from its slopes."""
    step, extend = pair

    def uncut(arg, t, h, hi, y, f, tol):
        y_new, f_new, err, K = step(arg, t, h, hi, y, f, tol)
        return y_new, f_new, err, extend(arg, t, h, hi, y, f, f_new, K) if err <= 1.0 else None

    return uncut


def _reference_rows(run, p):
    """``run()`` with every step replaced by ``reference_step`` driven by
    p.rhs, whose extension returns the rows the reference computed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ode, "_stepper", lambda m, family=None: (
            lambda arg, *rest: reference_step(p.rhs, *rest),
            lambda arg, t, h, hi, y, f, f_new, dense: dense))
        return run()


def _step_outcome(step, *args):
    try:
        y_new, f_new, err, dense = step(*args)
    except Exception as exc:
        return type(exc)
    return [v.hex() for v in y_new], [v.hex() for v in f_new], err.hex(), dense and [v.hex() for v in dense]


def _loop_outcome(step, *args):
    """A step's outcome as the integration loop reads it: the floats, or
    NumericFailureError for a step that raised one or whose err is not
    finite (a failed stage), which the loop retries alike."""
    try:
        y_new, f_new, err, dense = step(*args)
    except NumericFailureError:
        return NumericFailureError
    if not math.isfinite(err):
        return NumericFailureError
    return [v.hex() for v in y_new], [v.hex() for v in f_new], err.hex(), dense and [v.hex() for v in dense]


# a q that varies between stage times, so each stage's time is seen
_STEP_Q = {**_Q, "cosine": lambda x: make_custom(lambda t: 1.0 + x * math.cos(3.0 * t))}


class TestStepAgainstReference:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        m=st.integers(1, 4), k=st.integers(0, 3),
        h=st.sampled_from(sorted(_H)), q=st.sampled_from(sorted(_STEP_Q)), x=st.floats(0.0, 1.0),
        y=st.lists(st.floats(-1.0, 1e6), min_size=4, max_size=4),
        f=st.lists(st.floats(-1e3, 1e6), min_size=4, max_size=4),
        t=st.floats(0.0, 10.0), gap=st.floats(0.0, 3.0), dt=st.floats(1e-9, 2.0),
        tol=st.floats(1e-16, 1e-3),
    )
    @example(m=2, k=0, h="power", q="constant", x=1.0, y=[1e6] * 4, f=[1e6] * 4,
             t=0.0, gap=3.0, dt=2.0, tol=1e-16)
    @example(m=1, k=0, h="powerlog", q="piecewise", x=1.0, y=[1e6] * 4, f=[1e6] * 4,
             t=0.0, gap=3.0, dt=2.0, tol=1e-9)
    @example(m=1, k=0, h="power", q="constant", x=1 / 12, y=[1e-300] * 4, f=[-1e3] * 4,
             t=0.0, gap=1.0, dt=1e-3, tol=1e-12)
    @example(m=2, k=1, h="powerlog", q="constant", x=0.5, y=[1.0, -0.5, 0, 0], f=[-0.5, -1e3, 0, 0],
             t=0.0, gap=1.0, dt=1.0, tol=1e-9)
    # an accepted step whose extension stage times are clamped to hi
    @example(m=2, k=0, h="power", q="cosine", x=1.0, y=[1.0] * 4, f=[1.0] * 4,
             t=0.0, gap=5e-4, dt=1e-3, tol=1e-3)
    def test_same_floats_or_same_error(self, m, k, h, q, x, y, f, t, gap, dt, tol):
        # stage times clamped below hi (gap < dt), negative and overflowing
        # stage values, and every state size the step is generated for
        k = min(k, m - 1)
        p = ProblemSpec(m=m, k=k, a=(0.0,) * m, q=_STEP_Q[q](x), h=_H[h](x))
        args = (p.rhs, t, dt, t + gap, y[:m], f[:m], tol)
        with np.errstate(all="ignore"):
            got = _step_outcome(_uncut(ode._stepper(m)), *args)
            want = _step_outcome(reference_step, *args)
        assert got == want

        if h == "custom" or q == "cosine":
            return
        # the step generated for the family computes c h(s_k) itself, with c
        # q's value on the segment: stage times stay below q's next jump, as
        # in the integration loop
        hi = min([t + gap] + [math.nextafter(b, -math.inf) for b in p.q.breakpoints if b > t])
        args = (t, dt, hi, y[:m], f[:m], tol)
        with np.errstate(all="ignore"):
            got = _loop_outcome(_uncut(ode._stepper(m, p.h.family)), (k, p.q.fn(t), *p.h.params), *args)
            want = _loop_outcome(reference_step, p.rhs, *args)
        assert got == want

    @pytest.mark.parametrize("p", [
        ProblemSpec(m=3, k=1, a=(1.0, 0.0, 1.0), q=ONE,
                    h=make_power_log(0.5, 1.0)),
        ProblemSpec(m=1, k=0, a=(0.5,),
                    q=make_piecewise([((0, 0.5), 0.5), ((0.5, math.inf), 2.0)]),
                    h=make_power(0.5)),
    ], ids=["m3-k1-powerlog", "piecewise-q"])
    def test_integrate_is_byte_identical(self, p):
        new = integrate(p, 2.0, 1e-10)
        # every step, generated for the family or not, replaced by the
        # reference driven by p.rhs
        ref = _reference_rows(lambda: integrate(p, 2.0, 1e-10), p)
        assert len(new.ts) > 10
        for name in ("ts", "ys", "dys", "dense"):
            assert getattr(new, name).tobytes() == getattr(ref, name).tobytes()

    def test_one_step_per_state_size(self):
        # the step generated for a family reads k at run time, so every k < m
        # integrates with the one step of its (m, family)
        hs = (make_power(0.5), make_power_log(0.5, 1.0))
        ode._stepper.cache_clear()
        for m in (1, 2, 3, 4):
            for k in range(m):
                for h in hs:
                    integrate(ProblemSpec(m=m, k=k, a=(1.0,) * m, q=ONE, h=h), 0.5, 1e-9)
            assert ode._stepper.cache_info().currsize == len(hs) * m

    def test_traceback_shows_the_calling_stage(self):
        calls = []

        def override(t, y):
            calls.append(t)
            if len(calls) == 3:  # the initial slope, stages 2 and 3
                raise RuntimeError("third call")
            return 0.5 * float(y[0])

        p = ProblemSpec(m=2, k=0, a=(1.0, 0.0), q=ONE, h=make_power(1), f_override=override)
        with pytest.raises(RuntimeError) as exc:
            integrate(p, 1.0, 1e-9)
        step, _ = ode._stepper(2)
        filename = step.__code__.co_filename
        frames = [fr for fr in traceback.extract_tb(exc.value.__traceback__)
                  if fr.filename == filename]
        assert len(frames) == 1
        assert frames[0].line == "k3 = rhs(t3, [s3_0, s3_1])"
        text = inspect.getsource(step)
        assert text == "".join(linecache.getlines(filename))
        assert text.startswith("def step(rhs, t, h, hi, y, f, tol):\n")
        assert text.splitlines()[frames[0].lineno - 1].strip() == frames[0].line


# a jump in q from 1 to 1e4 drives stages of w^0.75 below 0: retried steps
_RETRIED = ProblemSpec(m=1, k=0, a=(1e-9,), q=make_piecewise([((0, 2e-3), 1.0), ((2e-3, math.inf), 1e4)]),
                       h=make_power(0.75))


class TestStepStats:
    @pytest.mark.parametrize("p, T", [
        (_RETRIED, 0.1),
        (ProblemSpec(m=2, k=0, a=(1.0, 1.0), q=ONE, h=make_power(2)), 5.0),
        (ProblemSpec(m=3, k=1, a=(1.0, 0.0, 1.0), q=make_piecewise([((0, 0.5), 0.5), ((0.5, math.inf), 2.0)]),
                     h=make_power_log(1.5, 1.0)), 0.8),
    ], ids=["retried", "escape", "powerlog-restart"])
    def test_the_family_step_counts_what_rhs_would(self, p, T, monkeypatch):
        # the step that computes c h(s_k) itself and the one that calls rhs
        # take the same steps and count the same evaluations
        new = integrate(p, T, 1e-8)
        calls = []
        rhs = ProblemSpec.rhs
        monkeypatch.setattr(ProblemSpec, "rhs", lambda self, t, y: calls.append(t) or rhs(self, t, y))
        monkeypatch.setattr(ode, "_INLINE", {})
        ref = integrate(p, T, 1e-8)
        assert (new.stats, new.event) == (ref.stats, ref.event)
        for name in ("ts", "ys", "dys"):
            assert getattr(new, name).tobytes() == getattr(ref, name).tobytes()
        s = new.stats
        # through rhs every evaluation is a call, but a failing stage cuts its step short
        assert s.evals == len(calls) if s.retries == 0 else s.evals > len(calls)
        # twelve per attempt, one at the start, at each restart and at an
        # escape, and three for the escape step's extension, which the
        # integration reads to find the crossing; no other cell is built
        segments = 1 + sum(0.0 < b < new.t_end for b in p.q.breakpoints)
        escaped = new.event == "escape"
        assert s.evals == 12 * (s.accepted + s.rejected + s.retries) + segments + 4 * escaped
        assert s.accepted == len(new.ts) - 1 - (segments - 1)
        assert (s.retries > 0) == (p is _RETRIED)


class TestIntegrate:
    def test_cosh_oracle(self):
        traj = integrate(cosh_problem(), 10.0, 1e-9)
        ts = np.linspace(0, 10, 1001)
        assert np.max(np.abs(traj(ts)[:, 0] - np.cosh(ts))) <= 1e-6

    def test_quadratic_blowup_event(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        traj = integrate(p, 2.0, 1e-9)
        # the step floor stops the run before w reaches the escape level 1e300
        assert traj.event == "step-collapse"
        assert traj.t_end < 1.0 + 1e-9

    @pytest.mark.parametrize("a", [(1.0,), (1e13,)], ids=["stepped", "one-node"])
    def test_stopped_trajectory_refuses_a_read_past_its_end(self, a):
        # a run that stops before T is read up to where it stopped, and no further
        traj = integrate(ProblemSpec(m=1, k=0, a=a, q=ONE, h=make_power(2)), 2.0, 1e-9)
        assert traj.event is not None and traj.t_end < 1.0 + 1e-9
        assert traj(traj.t_end).tobytes() == traj.ys[-1].tobytes()
        for read in (traj, traj.reduced(0)):
            for t in (1.5, 2.0, [0.0, 1.5]):
                with pytest.raises(InvalidParameterError, match="outside the grid span"):
                    read(t)

    @pytest.mark.parametrize("T", [math.inf, math.nan, 0.0])
    def test_horizon_must_be_positive_and_finite(self, T):
        # u' = u^2 from 1 escapes at t = 1, so an infinite horizon would
        # still end; the check does not depend on that
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        for run in (lambda: integrate(p, T, 1e-9), lambda: detect_blowup(p, horizon=T, tol=1e-9)):
            with pytest.raises(InvalidParameterError, match=f"^T must be > 0 and finite, got {T}$"):
                run()

    def test_zero_data_zero_solution(self):
        p = ProblemSpec(m=1, k=0, a=(0.0,), q=ONE, h=make_power(1))
        traj = integrate(p, 5.0, 1e-9)
        assert np.all(traj.ys == 0.0)
        assert traj.t_end == 5.0
        # zero data step like any other: the error estimate is 0, so the step
        # grows 5x a step, the state stays exactly 0, and a jump of q inside
        # the horizon is a repeated node, as on every other trajectory
        q = make_piecewise([((0, 1), 0.5), ((1, math.inf), 2.0)])
        p = ProblemSpec(m=2, k=0, a=(0.0, 0.0), q=q, h=make_power(0.5))
        rep = detect_blowup(p, horizon=3.0, tol=1e-9)
        assert rep.kind is BlowupKind.GLOBAL_UP_TO_HORIZON and rep.escape_thresholds == ()
        for traj in (integrate(p, 3.0, 1e-9), rep.trajectory):
            assert traj.ts[:4] == pytest.approx([0.0, 0.01, 0.06, 0.31], abs=1e-15)
            assert traj.ts[4:].tolist() == [1.0, 1.0, 3.0]
            assert not traj.ys.any() and not traj.dys.any() and not traj.dense.any()
            assert not traj(np.linspace(0.0, 3.0, 7)).any()

    def test_initial_vector_stored(self):
        traj = integrate(cosh_problem(), 1.0, 1e-9)
        assert traj.ts[0] == 0.0
        assert tuple(traj.ys[0]) == (1.0, 0.0)

    def test_tol_range_enforced(self):
        with pytest.raises(InvalidParameterError):
            integrate(cosh_problem(), 1.0, 1e-15)
        with pytest.raises(InvalidParameterError):
            integrate(cosh_problem(), 1.0, 0.5)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(p=in_class_problems(), T=st.floats(0.5, 3.0), tol=st.sampled_from([1e-6, 1e-9]))
    @example(p=ProblemSpec(m=3, k=1, a=(0.5, 0.0, 1.0), q=ONE, h=make_power(0.5)), T=4.0, tol=1e-9)
    def test_monotone_components(self, p, T, tol):
        # q, h >= 0 and a >= 0: every derivative is nondecreasing from >= 0,
        # so the escape test reads the largest component, not its size
        res = integrate(p, T, tol)
        traj = getattr(res, "trajectory", res)
        for i in range(p.m):
            diffs = np.diff(traj.ys[:, i])
            assert np.min(diffs, initial=0.0) >= -10.0 * traj.tol
        assert traj.ys.min() >= -10.0 * traj.tol

    def test_self_consistency_running_integral(self):
        # w^(m-1)(t) - a_{m-1} equals the running integral of f
        from blowup.volterra import weighted_volterra

        p = ProblemSpec(m=2, k=0, a=(1.0, 0.5), q=ONE, h=make_power(1))
        traj = integrate(p, 3.0, 1e-9)
        # the quadrature is 4th order in the grid's spacing: take it on the
        # dense output sampled with each integrator cell split into 8
        ts = np.append(traj.ts[:-1, None] + np.diff(traj.ts)[:, None] * np.arange(8) / 8, traj.t_end)
        ys = traj(ts)
        f_nodes = np.array([p.rhs(t, y) for t, y in zip(ts, ys.tolist())])
        running = weighted_volterra(f_nodes, 1, ts)
        drift = np.abs(ys[:, -1] - p.a[-1] - running)
        assert np.max(drift) <= 10.0 * max(traj.tol, 1e-9) * (1 + np.max(traj.ys))

    def test_piecewise_q_restarts(self):
        # w' = q(t), exact kink at t = 1: w(2) = 0.5 + 2
        q = make_piecewise([((0, 1), 0.5), ((1, math.inf), 2.0)])
        p = ProblemSpec(m=1, k=0, a=(0.0,), q=q, h=make_power(0))
        traj = integrate(p, 2.0, 1e-10)
        assert traj(2.0)[0] == pytest.approx(2.5, rel=1e-10)
        # forced node at the jump, repeated: left-limit slope, then right
        assert traj.ts[~traj.distinct].tolist() == [1.0]
        assert traj.dys[traj.ts == 1.0, 0].tolist() == [0.5, 2.0]

    def test_collapse_at_a_restart_ends_on_one_copy_of_the_node(self):
        # two jumps of q an ulp apart leave a piece narrower than the least
        # step: the run restarts at the first jump, collapses there, and
        # drops the restart's second copy of that node
        q = make_piecewise([((0, 0.05), 1.0), ((0.05, 0.05000000000000001), 1.0),
                            ((0.05000000000000001, math.inf), 1.0)])
        traj = integrate(ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=make_power(1)), 1.0, 1e-9)
        assert (traj.event, traj.t_end) == ("step-collapse", 0.05)
        assert traj.ts[-2:].tolist() == [0.01, 0.05]
        assert traj(traj.t_end).tolist() == traj.ys[-1].tolist()

    def test_step_onto_a_jump_lands_on_it(self):
        # w'' = q w' with w'(0) = 0 stays at w = 1.75, so steps grow until one
        # ends the segment at the second jump; there t + (jump - t) rounds an
        # ulp short of the jump, and the sliver left collapsed the step
        horizon = 2.38466765651207
        cuts = [0.125 * horizon, 0.828125 * horizon]
        q = make_piecewise(list(zip(zip([0.0, *cuts], [*cuts, math.inf]), [1.0, 1.0, 1.0])))
        traj = integrate(ProblemSpec(m=2, k=1, a=(1.75, 0.0), q=q, h=make_power(1)), horizon, 1e-10)
        assert isinstance(traj, Trajectory)
        assert traj.ts.tolist().count(cuts[1]) == 2 and traj.t_end == horizon
        assert np.all(traj.ys == [1.75, 0.0])

    def test_retry_starts_from_the_accepted_slope(self):
        # h climbs from 1 to 21 across w = 2, so steps are rejected there; a
        # retry must start from the last accepted node's slope, not from the
        # rejected trial's last stage.  Reference: t = int ds/h.
        h = make_custom(lambda s: 1.0 + 10.0 * (1.0 + np.tanh(40.0 * (s - 2.0))))
        traj = integrate(ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=h), 1.5, 1e-10)
        t_end, _ = quad(lambda s: 1.0 / h(s), 1.0, traj.ys[-1, 0], points=[2.0],
                        epsabs=0.0, epsrel=1e-13, limit=200)
        assert abs(t_end - 1.5) <= 1e-10

    def test_overflow_is_a_numeric_failure(self):
        # Python's float ** raises OverflowError where numpy's gives inf
        p = ProblemSpec(m=1, k=0, a=(1e10,), q=ONE, h=make_power(60))
        with pytest.raises(NumericFailureError):
            integrate(p, 1.0, 1e-9)
        with pytest.raises(NumericFailureError):
            detect_blowup(p, horizon=1.0)

    def test_negative_stage_value_is_retried(self):
        # a spike in q drives a stage state below 0, where sqrt is complex for
        # a Python float; the step is retried smaller, as for a non-finite f.
        # Exact: 2 sqrt(w) = 2 sqrt(a) + int_0^T q
        spike = make_custom(lambda t: 1.0 + 1e4 * np.exp(-((t - 2e-3) / 1e-3) ** 2))
        p = ProblemSpec(m=1, k=0, a=(1e-6,), q=spike, h=make_power(0.5))
        traj = integrate(p, 0.1, 1e-8)
        Q = 0.1 + 5.0 * math.sqrt(math.pi) * (math.erf(98.0) + math.erf(2.0))
        assert traj(0.1)[0] == pytest.approx((1e-3 + Q / 2.0) ** 2, rel=1e-6)

    def test_complex_stage_down_to_the_floor_is_a_numeric_failure(self):
        # from 1e-300 a stage overshoots below 0, where w^0.25 is complex, on
        # every retry down to the step floor: the failure is a
        # NumericFailureError naming t and y, not the complex value's
        # TypeError
        q = make_piecewise([((0, 0.5), 1.0), ((0.5, math.inf), 0.0)])
        p = ProblemSpec(m=1, k=0, a=(1e-300,), q=q, h=make_power(0.25))
        with pytest.raises(NumericFailureError, match=r"t=[-+.e\d]+, y=\[[-+.e\d]+\]"):
            integrate(p, 1.0, 1e-12)

    def test_stage_times_on_a_time_dependent_q(self):
        # w' = (cos 3t + 1.5) w: each stage must see q at its own time, or the
        # order drops and the step count explodes.  Exact: w = exp(1.5 t + sin(3t)/3)
        q = make_custom(lambda t: math.cos(3.0 * t) + 1.5)
        traj = integrate(ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=make_power(1)), 2.0, 1e-10)
        assert traj.ys[-1, 0] == pytest.approx(math.exp(3.0 + math.sin(6.0) / 3.0), rel=1e-11)
        assert len(traj.ts) < 500

    def test_dense_output_clamps_span(self):
        traj = integrate(cosh_problem(), 1.0, 1e-9)
        with pytest.raises(InvalidParameterError):
            traj(1.5)


def assert_cells_return_their_ends(traj):
    """Every cell's extension, from its rows in ``traj.dense``, is finite and
    returns the cell's end states bitwise at th = 0 and 1."""
    ts, ys, dys, dense = traj.ts, traj.ys, traj.dys, traj.dense
    assert np.isfinite(dense).all()
    h = np.diff(ts)[:, None]
    F = ode._coefficients(h, ys[:-1], ys[1:], dys[:-1], dys[1:], dense.transpose(1, 0, 2))
    for th, end in ((0.0, ys[:-1]), (1.0, ys[1:])):
        got = ode._continuous(np.full_like(h, th), ys[:-1], ys[1:], F)
        assert got.tobytes() == end.tobytes()


class TestDenseOutput:
    def test_quintic_on_lower_components(self):
        traj = integrate(cosh_problem(), 6.0, 1e-9)
        mids = 0.5 * (traj.ts[:-1] + traj.ts[1:])
        err0 = np.max(np.abs(traj(mids)[:, 0] - np.cosh(mids)))
        node_err = np.max(np.abs(traj.ys[:, 0] - np.cosh(traj.ts)))
        assert err0 <= 4.0 * node_err + 1e-12

    def test_first_cell_after_a_jump(self):
        # w' = q(t) is piecewise linear; the cell after the jump must start
        # from the right-limit slope, so its extension is exact there
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
        assert traj(2.0)[1] == pytest.approx(math.sinh(2.0), rel=1e-6)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        power=st.booleans(),
        lam=st.one_of(st.floats(0.0, 0.9), st.just(1.0), st.floats(1.1, 3.0)),
        a=st.floats(0.1, 4.0), b=st.floats(0.0, 2.0), c=st.floats(0.25, 4.0),
        span=st.floats(0.1, 0.8), tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]),
        th=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=20),
    )
    def test_continuous_extension_meets_the_closed_form(self, power, lam, a, b, c, span, tol, th):
        # w' = c w^lam, w(0) = a, up to a share of T* (of 5 without a blow-up),
        # or w'' = c w, w(0) = a, w'(0) = b, up to 10 span: cosh and sinh
        if power:
            p = ProblemSpec(m=1, k=0, a=(a,), q=make_constant(c), h=make_power(lam))
            T = span * (a ** (1.0 - lam) / ((lam - 1.0) * c) if lam > 1.0 else 5.0)
            if lam == 1.0:
                exact = lambda t: a * np.exp(c * t)  # noqa: E731
            else:  # w^(1-lam) = a^(1-lam) + (1-lam) c t
                exact = lambda t: a * np.exp(  # noqa: E731
                    np.log1p((1.0 - lam) * c * t * a ** (lam - 1.0)) / (1.0 - lam))
        else:
            p = ProblemSpec(m=2, k=0, a=(a, b), q=make_constant(c), h=make_power(1))
            T, r = 10.0 * span, math.sqrt(c)
            exact = lambda t: a * np.cosh(r * t) + b / r * np.sinh(r * t)  # noqa: E731
        traj = integrate(p, T, tol)
        assert isinstance(traj, Trajectory) and not np.isnan(traj.dense).any()
        ts = T * np.array(th)
        w = exact(ts)
        assert np.all(np.abs(traj(ts)[:, 0] - w) <= 10.0 * tol * (1.0 + np.abs(w)))
        assert traj(traj.ts).tobytes() == traj.ys.tobytes()

    @pytest.mark.parametrize("p, T", [
        (cosh_problem(), 5.0),
        (ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2)), 2.0),
        (ProblemSpec(m=3, k=1, a=(1.0, 0.0, 1.0), q=make_piecewise([((0, 0.5), 0.5), ((0.5, 0.7), 2.0),
                                                                     ((0.7, math.inf), 1.0)]),
                     h=make_power_log(1.5, 1.0)), 1.5),
    ], ids=["cosh", "escape", "restarts"])
    def test_each_cell_returns_its_ends_bitwise(self, p, T):
        # every cell's extension at th = 0 and 1: a stepped cell's own rows,
        # zero rows on the zero-width restart cells and Hermite rows on the
        # cell that ends at an escape; no row is nan
        res = integrate(p, T, 1e-9)
        traj = getattr(res, "trajectory", res)
        ts, ys, dys, dense = traj.ts, traj.ys, traj.dys, traj.dense
        assert dense.shape == (len(ts) - 1, 4, p.m)
        assert not np.isnan(dense).any()
        restart = np.diff(ts) == 0.0
        assert restart.any() == bool(p.q.breakpoints)
        assert not dense[restart].any()
        assert_cells_return_their_ends(traj)
        assert traj(ts).tobytes() == ys.tobytes()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        coef=st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6),
        nodes=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=12, unique=True),
        th=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    )
    def test_grid_cells_reproduce_polynomials(self, coef, nodes, th):
        # a grid-built trajectory of (w, w'): quintic on w, whose second
        # derivative the state holds, so w of degree 5 comes back; cubic on
        # w', so both components do for w of degree 4
        ts = np.array(sorted(nodes))
        t = ts[0] + (ts[-1] - ts[0]) * np.array(th)
        for degree, exact in ((5, 1), (4, 2)):
            w = np.polynomial.Polynomial(coef[:degree + 1])
            ys = np.column_stack([w(ts), w.deriv()(ts)])
            dys = np.column_stack([w.deriv()(ts), w.deriv(2)(ts)])
            traj = Trajectory(ts=ts, ys=ys, dys=dys, tol=1e-9)
            want = np.column_stack([w(t), w.deriv()(t)])
            scale = 1.0 + np.abs(coef[:degree + 1]) @ (np.arange(degree + 1) + 1.0) * 2.0 ** degree
            assert np.all(np.abs(traj(t) - want)[:, :exact] <= 1e-13 * scale)
            assert traj(ts).tobytes() == ys.tobytes()

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 3), data=st.data(), lam=st.floats(0.5, 3.0), a=st.floats(0.1, 4.0),
        c=st.floats(0.25, 4.0), jump=st.one_of(st.none(), st.floats(0.05, 2.0)),
    )
    def test_integrator_cells_have_finite_rows_and_return_their_ends(self, m, data, lam, a, c, jump):
        # w^(m) = q w^(k)^lam to T = 30: escapes for lam >= 1 within the span
        # (the escape cell ends at the crossing), restarts at q's jump
        k = data.draw(st.integers(0, m - 1))
        q = make_constant(c) if jump is None else make_piecewise([((0, jump), c), ((jump, math.inf), 2.0 * c)])
        res = integrate(ProblemSpec(m=m, k=k, a=(a,) * m, q=q, h=make_power(lam)), 30.0, 1e-9)
        traj = getattr(res, "trajectory", res)
        assert_cells_return_their_ends(traj)
        assert traj(traj.ts).tobytes() == traj.ys.tobytes()

    @pytest.mark.parametrize("p, T, grid_built", [
        (ProblemSpec(m=3, k=1, a=(1.0, 0.0, 1.0), q=make_piecewise([((0, 0.5), 0.5), ((0.5, 0.7), 2.0),
                                                                     ((0.7, math.inf), 1.0)]),
                     h=make_power_log(1.5, 1.0)), 1.5, False),
        (ProblemSpec(m=3, k=1, a=(1.0, 0.0, 1.0), q=ONE, h=make_power(2)), 10.0, False),
        (ProblemSpec(m=3, k=1, a=(1.0, 0.0, 1.0), q=ONE, h=make_power(2)), 10.0, True),
    ], ids=["restarts", "escape", "grid-built"])
    def test_reduced_is_the_columns_bitwise(self, p, T, grid_built):
        # components k.. of a trajectory, through its restart cells, its
        # escape cell or Hermite rows of its own: the same dense output, and
        # the crossing of w^(k) on it
        traj = integrate(p, T, 1e-9)
        assert (traj.event is not None) == (T == 10.0)
        assert (np.diff(traj.ts) == 0.0).any() == bool(p.q.breakpoints)
        if grid_built:
            traj = Trajectory(ts=traj.ts, ys=traj.ys, dys=traj.dys, tol=traj.tol)
        th = np.array([0.0, 0.1, 0.3, 0.5, 0.7, 0.95])
        t = (traj.ts[:-1, None] + np.diff(traj.ts)[:, None] * th).ravel()
        full = traj(t)
        for k in range(p.m):
            r = traj.reduced(k)
            assert (r.m, r.tol, r.stats, r.event, r.ts is traj.ts) == (p.m - k, traj.tol, traj.stats,
                                                                       traj.event, True)
            assert r(t).tobytes() == full[:, k:].tobytes()
            assert r(t[5]).tobytes() == traj(t[5])[k:].tobytes()
            w = traj.ys[:, k]
            for level in (w[len(w) // 3], 0.5 * (w[len(w) // 2] + w[len(w) // 2 + 1]), w[-1]):
                got = r.crossing(level, 0.0)
                if k == 0:
                    assert got == traj.crossing(level, 0.0)
                want = brentq(lambda s: float(traj(s)[k]) - level, 0.0, traj.t_end,
                              xtol=1e-300, rtol=8.9e-16, maxiter=400)
                assert abs(got - want) <= 1e-14 * want
        with pytest.raises(InvalidParameterError, match=r"k must be an integer in \[0, 2\], got 3"):
            traj.reduced(p.m)

    def test_one_node_trajectory_evaluates_at_its_node(self):
        # from 1e13, below the escape threshold 1e300, w' = w^2 blows up at
        # t = 1e-13, inside the least step: the step collapses at t = 0,
        # with no cell
        traj = integrate(ProblemSpec(m=1, k=0, a=(1e13,), q=ONE, h=make_power(2)), 1.0)
        assert (traj.event, traj.t_end) == ("step-collapse", 0.0)
        assert traj.ts.tolist() == [0.0] and traj.dense.shape == (0, 4, 1)
        assert traj(0.0).tobytes() == traj.ys[0].tobytes()
        assert traj(np.zeros(3)).tobytes() == np.repeat(traj.ys, 3, axis=0).tobytes()
        assert traj.crossing(1e13, 0.0) == 0.0
        with pytest.raises(InvalidParameterError):
            traj(1.0)


class TestLazyRows:
    """An integrator trajectory builds a cell's rows when it is first read:
    the rows are the reference step's, bit for bit, whatever reads them
    first and in whatever order."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 3), data=st.data(), h=st.sampled_from(sorted(_H)),
        q=st.sampled_from(sorted(_STEP_Q)), x=st.floats(0.1, 1.0),
        a=st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3), T=st.floats(0.5, 3.0),
        tol=st.sampled_from([1e-6, 1e-9]), ladder=st.booleans(),
        reads=st.lists(st.sampled_from(["scalar", "array", "crossing", "reduced"]), max_size=6),
    )
    def test_rows_are_the_reference_in_any_order(self, m, data, h, q, x, a, T, tol, ladder, reads):
        # power, powerlog and custom h; constant, piecewise and custom q (a q
        # that varies between the extension's stage times); with a ladder the
        # crossing step's rows are built by the integration itself
        k = data.draw(st.integers(0, m - 1))
        p = ProblemSpec(m=m, k=k, a=tuple(a[:m]), q=_STEP_Q[q](x), h=_H[h](x))

        def run():
            if ladder:
                return detect_blowup(p, thresholds=(10.0, 1e3, 1e6), horizon=T, tol=tol).trajectory
            res = integrate(p, T, tol)
            return getattr(res, "trajectory", res)

        want = run().dense
        ref = _reference_rows(run, p)
        lazy = run()
        for name in ("ts", "ys", "dys"):
            assert getattr(lazy, name).tobytes() == getattr(ref, name).tobytes()
        assert want.tobytes() == ref.dense.tobytes()
        cells = len(lazy.ts) - 1
        if cells == 0:
            return
        full = Trajectory(ts=lazy.ts, ys=lazy.ys, dys=lazy.dys, tol=tol, _rows=want.copy())
        mids = 0.5 * (lazy.ts[:-1] + lazy.ts[1:])
        for read in reads:
            c = data.draw(st.integers(0, cells - 1))
            if read == "scalar":
                assert lazy(mids[c]).tobytes() == full(mids[c]).tobytes()
            elif read == "array":
                picked = data.draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=8))
                assert lazy(mids[picked]).tobytes() == full(mids[picked]).tobytes()
            elif read == "crossing":
                level = float(lazy.ys[c + 1, 0])
                assert lazy.crossing(level, 0.0) == full.crossing(level, 0.0)
            else:
                j = data.draw(st.integers(0, m - 1))
                assert lazy.reduced(j).dense.tobytes() == want[:, :, j:].tobytes()
        assert lazy.dense.tobytes() == want.tobytes()

    def test_reading_a_cell_takes_its_three_extra_stages(self, monkeypatch):
        # a custom q takes the step that calls rhs: each stepped cell's first
        # read calls it three times, at the cell's extra stage times, and a
        # cell already built not at all; the integration's count stays
        p = ProblemSpec(m=2, k=0, a=(1.0, 0.5), q=make_custom(lambda t: 1.0 + 0.5 * math.cos(t)),
                        h=make_power(1.5))
        calls = []
        rhs = ProblemSpec.rhs
        monkeypatch.setattr(ProblemSpec, "rhs", lambda self, t, y: calls.append(t) or rhs(self, t, y))
        traj = integrate(p, 1.0, 1e-9)
        s = traj.stats
        assert s.evals == len(calls) == 12 * (s.accepted + s.rejected + s.retries) + 1
        del calls[:]
        t0, t1 = traj.ts[2], traj.ts[3]
        traj(0.5 * (t0 + t1))
        assert len(calls) == 3 and all(t0 < t < t1 for t in calls)
        traj(np.array([0.25, 0.75]) * (t1 - t0) + t0)
        assert len(calls) == 3
        assert traj.dense.shape == (len(traj.ts) - 1, 4, 2)
        assert len(calls) == 3 * (len(traj.ts) - 1)
        assert traj.stats is s

    def test_a_failed_extension_reads_the_hermite_rows(self, monkeypatch):
        # q turns non-finite at one stepped cell's first extra stage time,
        # t + 0.1 h, after the integration and before the first read: that
        # cell reads the Hermite rows of its ends, every other cell its
        # extension, as an integration that q never fails reads them
        poison = []
        q = make_custom(lambda t: math.nan if t in poison else 1.0 + 0.5 * math.cos(t))
        p = ProblemSpec(m=2, k=0, a=(1.0, 0.5), q=q, h=make_power(1.5))
        calls = []
        rhs = ProblemSpec.rhs
        monkeypatch.setattr(ProblemSpec, "rhs", lambda self, t, y: calls.append(t) or rhs(self, t, y))
        ref, traj = integrate(p, 1.0, 1e-9), integrate(p, 1.0, 1e-9)
        c = (len(ref.ts) - 1) // 2
        del calls[:]
        ref(0.5 * (ref.ts[c] + ref.ts[c + 1]))
        poison.append(calls[0])
        got = traj.dense
        i = np.array([c])
        hermite = ode._hermite_rows((traj.ts[i + 1] - traj.ts[i])[:, None], traj.ys[i], traj.ys[i + 1],
                                    traj.dys[i], traj.dys[i + 1])
        assert got[c].tobytes() == hermite[0].tobytes() != ref.dense[c].tobytes()
        others = np.arange(len(got)) != c
        assert got[others].tobytes() == ref.dense[others].tobytes()


    def test_threads_share_a_trajectory(self):
        # readers of one trajectory in threads, each cell read first by
        # several at once: a cell counted as built before its rows are
        # written would be read as zeros
        p = ProblemSpec(m=2, k=0, a=(1.0, 0.5), q=make_piecewise([((0, 0.7), 1.0), ((0.7, math.inf), 2.0)]),
                        h=make_power(1.5))
        read_in_threads(lambda: integrate(p, 1.2, 1e-12))


def read_in_threads(make):
    """Twenty trajectories from ``make()``, each read at the midpoints of up
    to 32 cells spread over its span by eight threads at once, in shuffled
    orders, with the switch interval shortened: every value is that of a
    trajectory read alone, bitwise, and so are the rows."""
    want = make()
    cells = np.unique(np.linspace(0, len(want.ts) - 2, 32).astype(int))
    mids = 0.5 * (want.ts[cells] + want.ts[cells + 1])
    expected, wrong = want(mids), []

    def reader(traj, seed):
        for j in np.random.default_rng(seed).permutation(len(mids)):
            if traj(mids[j]).tobytes() != expected[j].tobytes():
                wrong.append(j)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            traj = make()
            threads = [threading.Thread(target=reader, args=(traj, seed)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert traj.dense.tobytes() == want.dense.tobytes()
    finally:
        sys.setswitchinterval(switch)
    assert len(mids) > 20 and wrong == []


class TestGridStore:
    """A grid trajectory (a Picard tower's, or a lift of one) builds every
    cell's Hermite rows in one call at its first read and keeps them: the
    rows are each cell's, bit for bit, whatever reads them first."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3), data=st.data(), lam=st.floats(0.3, 1.0), singular=st.booleans(),
        b=st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3), T=st.floats(0.5, 3.0),
        q_vals=st.lists(st.floats(0.25, 2.0), min_size=1, max_size=2), cut=st.floats(0.1, 0.9),
        reads=st.lists(st.sampled_from(["scalar", "array", "crossing", "reduced", "dense"]), max_size=6),
    )
    def test_rows_are_each_cells_hermite_rows_in_any_order(self, n, data, lam, singular, b, T, q_vals,
                                                           cut, reads):
        # m = n + k <= 3 components: the tower's trajectory (k = 0) or its
        # lift; constant q or q with one jump (a repeated node); a singular
        # start (b[0] = 0, lambda < 1) grades the first segment
        k = data.draw(st.integers(0, 3 - n))
        b = [0.0 if singular else b[0], *b[1:n]]
        edges = [0.0, cut * T, math.inf] if len(q_vals) == 2 else [0.0, math.inf]
        q = make_piecewise(list(zip(zip(edges, edges[1:]), q_vals)))

        def build():
            tower = picard_solve(make_power(lam), n, b, T, tol=1e-8, q=q, majorant_b=np.add(b, 1.0))
            return lift_solution(tower.trajectory, [1.0] * k, k)

        lazy = build()
        ts, ys, dys, m = lazy.ts, lazy.ys, lazy.dys, lazy.m
        assert (m, np.count_nonzero(~lazy.distinct)) == (n + k, len(q_vals) - 1)
        assert lazy._rows is None  # nothing is built before the first read
        want = np.array([ode._hermite_rows(float(ts[i + 1] - ts[i]), ys[i], ys[i + 1], dys[i], dys[i + 1])
                         for i in range(len(ts) - 1)])
        full = Trajectory(ts=ts, ys=ys, dys=dys, tol=lazy.tol, _rows=want.copy())
        mids = 0.5 * (ts[:-1] + ts[1:])
        builds = []
        hermite = ode._hermite_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ode, "_hermite_rows", lambda *args: builds.append(args) or hermite(*args))
            for read in reads:
                c = data.draw(st.integers(0, len(mids) - 1))
                if read == "scalar":
                    assert lazy(mids[c]).tobytes() == full(mids[c]).tobytes()
                elif read == "array":
                    picked = data.draw(st.lists(st.integers(0, len(mids) - 1), min_size=1, max_size=8))
                    assert lazy(mids[picked]).tobytes() == full(mids[picked]).tobytes()
                elif read == "crossing":
                    for level in (float(ys[c + 1, 0]), 0.5 * float(ys[c, 0] + ys[c + 1, 0])):
                        assert lazy.crossing(level, 0.0) == full.crossing(level, 0.0)
                elif read == "reduced":
                    j = data.draw(st.integers(0, m - 1))
                    r = lazy.reduced(j)
                    assert r.dense.tobytes() == want[:, :, j:].tobytes()
                    assert r(mids).tobytes() == full(mids)[:, j:].tobytes()
                else:
                    assert lazy.dense.tobytes() == want.tobytes()
            assert lazy.dense.tobytes() == want.tobytes()
            assert len(builds) == 1  # one build, at the first read that reads a cell, and kept
        assert lazy.dense.shape == (len(ts) - 1, 4, m) and not lazy.dense.flags.writeable

    def test_threads_share_a_grid_trajectory(self):
        # the first read by several threads at once: each reader builds a
        # whole store or reads one, never one half written
        q = make_piecewise([((0, 0.7), 1.0), ((0.7, math.inf), 2.0)])
        u = picard_solve(make_power(0.5), 2, [1.0, 0.5], 1.2, tol=1e-8, q=q).trajectory
        read_in_threads(lambda: Trajectory(ts=u.ts, ys=u.ys, dys=u.dys, tol=u.tol))


class TestCrossing:
    """Trajectory.crossing against brentq on the dense output itself."""

    @staticmethod
    def oracle(traj, level, lo):
        return brentq(lambda t: float(traj(t)[0]) - level, lo, traj.t_end,
                      xtol=1e-300, rtol=8.9e-16, maxiter=400)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        a=st.lists(st.one_of(st.just(0.0), st.floats(0.1, 2.0)), min_size=1, max_size=3).filter(any),
        factors=st.lists(st.floats(1.25, 4.0), min_size=1, max_size=6),
    )
    def test_matches_brentq(self, lam, a, factors):
        # w^(n) = w^lam, n = 1..3; levels grow from w(0) (from 1e-8 for
        # w(0) = 0, as the majorization's anchor does) and each is crossed
        # from the previous crossing on, while w(t_end) reaches them
        traj = integrate(ProblemSpec(m=len(a), k=0, a=tuple(a), q=ONE, h=make_power(lam)), 2.0, 1e-10)
        lo, level = 0.0, a[0] or 1e-8
        for f in factors:
            level *= f
            if level > traj.ys[-1, 0]:
                break
            t, want = traj.crossing(level, lo), self.oracle(traj, level, lo)
            assert abs(t - want) <= 1e-14 * want
            lo = t

    @staticmethod
    def float_bisection(value, level, lo, hi):
        """(hi, evaluations) of bisecting [lo, hi] on floats, value < level
        kept at lo and >= level at hi, until the midpoint no longer splits it."""
        evals = 0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            evals += 1
            if value(mid) < level:
                lo = mid
            else:
                hi = mid
        return hi, evals

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        lo=st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3)),
        width=st.floats(1e-8, 10.0),
        monotone=st.booleans(),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        scale=st.floats(-3.0, 3.0),
        frac=st.floats(0.0, 1.0),
    )
    # a crossing ~720 binades below the cell's end, where false position
    # rounds to an end of the bracket
    @example(lo=0.0, width=3.314453125, monotone=False, coeffs=[0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
             scale=0.037109375, frac=1.5404097476205583e-217)
    # levels an ulp or less above value(lo), where the residual is -level
    # or exactly 0 over long runs of floats and false position rounds onto
    # an end again and again: tries from an end that went on doubling past
    # 4 floats took 109 and 146 evaluations here, over the bound
    @example(lo=0.0, width=0.03125, monotone=False, coeffs=[0.0, 0.0, -0.625, 0.0, 0.5, 0.0, 1.0, 0.0],
             scale=0.0, frac=3.584011551935908e-44)
    @example(lo=0.0, width=1.0, monotone=True, coeffs=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
             scale=0.0, frac=2.220446049250313e-16)
    def test_find_level_on_drawn_cells(self, lo, width, monotone, coeffs, scale, frac):
        # a monotone cell is a polynomial in th = (t - lo)/width with
        # coefficients >= 0, nondecreasing in floats too; any other cell is a
        # continuous extension with drawn coefficients, which may wiggle.
        # Either way the result is a float at which the value has reached the
        # level, one float after a point where it has not; on a monotone cell
        # it is the first such float.  The false-position steps spend at most
        # twice the evaluations of plain float bisection, ends included (about
        # a fifth of them on the integrator's cells)
        hi = lo + width
        if monotone:
            c = [abs(x) ** 3 * 10.0 ** scale for x in coeffs]

            def value(t):
                th, acc = (t - lo) / width, 0.0
                for ck in reversed(c):
                    acc = acc * th + ck
                return acc
        else:
            y1 = 10.0 ** scale
            F = [y1] + [8.0 * y1 * x for x in coeffs[2:]]

            def value(t):
                return ode._continuous((t - lo) / width, 0.0, y1, F)

        a, b = value(lo), value(hi)
        level = a + (b - a) * frac
        assume(a < level <= b)
        want, bisections = self.float_bisection(value, level, lo, hi)
        evals = 0

        def counted(t):
            nonlocal evals
            evals += 1
            assert evals <= 2 * bisections + 2, "evaluation bound exceeded"
            return value(t)

        r = ode._find_level(counted, level, lo, hi)
        assert lo < r <= hi
        assert value(r) >= level and value(math.nextafter(r, lo)) < level
        if monotone:
            assert r == want

    # integrator steps that cross the escape level 10 from a node a hair
    # below it, so that every false-position point rounds onto lo: the step's
    # (t0, width, crossing), its continuous extension, one (y0, y1, F) per
    # component, and the crossing it must give.  Each was traced from
    # w' = c w^lam (m = 1) or w'' = c w^lam (m = 2, two components)
    LADDER_STEPS = [
        pytest.param(
            0.04796700793449856, 0.010107846101036183, 0.058074854035534744,
            [(1.6371916001316247, 1.732954779699954,
              [0.09576317956832936, -0.008722334204571386, -0.00021333119199326567,
               1.055305287451382e-05, 2.2783276933485873e-07, -7.84435614917163e-09,
               -8.488156710190408e-11]),
             (8.611215930052118, 10.358175611138462,
              [1.7469596810863433, -0.061228422665804416, -0.004221265344454661,
               0.00011038079077698962, 4.697895124372474e-06, -9.87964444264817e-08,
               -2.8142814177066687e-09])],
            0.05606206306978503, id="m2"),
        pytest.param(
            1.795025380707192, 0.004424272152631525, 1.7994496528598236,
            [(9.997922248168615, 10.637028115225315,
              [0.6391058670566991, -0.051789143570519, -0.005016463646478231,
               0.0004598936304571204, 4.7613762747546594e-05, -4.524536754366743e-06,
               -4.063827121005698e-07])],
            1.7950410280139177, id="m1-late"),
        pytest.param(
            0.7682028343416086, 0.0025611382232200164, 0.7707639725648286,
            [(9.998585382905324, 10.6865342112573,
              [0.6879488283519759, -0.055901536803489305, -0.005336209028227401,
               0.0004795422710757233, 4.835185768099845e-05, -4.475727737482595e-06,
               -3.883450996697155e-07])],
            0.7682085655189866, id="m1-early"),
    ]

    @pytest.mark.parametrize("t0, width, t1, comps, want", LADDER_STEPS)
    def test_find_level_near_an_end_tries_the_next_float(self, t0, width, t1, comps, want):
        # bisecting toward a crossing false position already found took 23-35
        # evaluations here; the float next to lo settles it in under 10
        evals = 0

        def value(t):
            nonlocal evals
            evals += 1
            return max(ode._continuous((t - t0) / width, *c) for c in comps)

        assert ode._find_level(value, 10.0, t0, t1) == want
        assert evals <= 10

    def test_find_level_gallops_from_an_end(self):
        # a Picard tower's first cell, read by Trajectory.crossing for a
        # level 1.65e-7 above the cell's start: false position lands 34367
        # floats below the crossing, then one float above it, where the
        # residual is 0 exactly; trying the floats 1 and 2 below that end
        # finds it, where trying one float and then bisecting took 28
        # evaluations
        width = 6.239399092893971e-06
        below = (-1.6524320000000003e-07, 6.4830861356917295e-06,
                 (6.648329335691729e-06, -2.6249487507939723e-14, -1.391268387117544e-14,
                  -4.364707463484655e-14, 2.311082481946401e-13, 1.1967505385675785e-13,
                  -9.60082524805952e-13))
        evals = 0

        def cell(t):
            return ode._continuous(t / width, *below)

        def value(t):
            nonlocal evals
            evals += 1
            return cell(t)

        lo = 7.753965126040375e-08
        want, _ = self.float_bisection(cell, 0.0, lo, width)
        assert ode._find_level(value, 0.0, lo, width) == want == 1.550793025255425e-07
        assert evals <= 10

    def test_find_level_bisects_a_walk_up_from_lo(self):
        # the last @example of test_find_level_on_drawn_cells: the level an ulp
        # above value(lo), where each Illinois halving of r_hi doubles the
        # false-position point's offset from lo; walking up that way to the
        # crossing takes 104 evaluations, a bisection step after two such
        # points 74
        evals = 0

        def value(t):
            nonlocal evals
            evals += 1
            return t * t * t * t * t * t * t + 1.0

        level = 1.0 + 2.0 ** -52
        want, _ = self.float_bisection(value, level, 0.0, 1.0)
        evals = 0
        assert ode._find_level(value, level, 0.0, 1.0) == want
        assert evals < 80

    @pytest.mark.parametrize("lo, hi, steps", [(-1.0, 1.0, 3), (-1e-323, 1e-323, 3), (-3.0, -2.5, 6)])
    def test_find_level_gallops_on_negative_floats(self, lo, hi, steps):
        # the crossing lies `steps` floats above lo, and the residual below it
        # is tiny beside the one at hi, so every false-position point rounds
        # onto lo; the tries 1, 2 and 4 ulps up from lo step below 0 and
        # across it as they do above it
        c = lo
        for _ in range(steps):
            c = math.nextafter(c, hi)
        evals = 0

        def value(t):
            nonlocal evals
            evals += 1
            return -1e-300 if t < c else 1.0

        assert ode._find_level(value, 0.0, lo, hi) == c
        assert evals <= 7

    def test_level_at_a_node(self):
        traj = integrate(cosh_problem(), 2.0, 1e-9)
        i = len(traj.ts) // 2
        level = float(traj.ys[i, 0])
        assert traj.crossing(level, 0.0) == traj.ts[i]
        assert traj.crossing(level, 0.0) == pytest.approx(self.oracle(traj, level, 0.0), rel=1e-14)

    def test_level_reached_only_at_t_end(self):
        traj = integrate(cosh_problem(), 2.0, 1e-9)
        assert traj.crossing(float(traj.ys[-1, 0]), 1.0) == traj.t_end
        with pytest.raises(InvalidParameterError):
            traj.crossing(np.nextafter(traj.ys[-1, 0], math.inf), 0.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_first_crossing_of_a_non_monotone_trajectory(self, m):
        # w = sin on [0, 3 pi] crosses 1/2 at pi/6, 5 pi/6 and 13 pi/6
        ts = np.linspace(0.0, 3.0 * math.pi, 301)
        ys = np.column_stack([np.sin(ts), np.cos(ts)])[:, :m]
        dys = np.column_stack([np.cos(ts), -np.sin(ts)])[:, :m]
        traj = Trajectory(ts=ts, ys=ys, dys=dys, tol=1e-9)
        t = traj.crossing(0.5, 0.0)
        assert t == pytest.approx(math.pi / 6, abs=1e-6)
        want = brentq(lambda s: float(traj(s)[0]) - 0.5, 0.0, 1.0, xtol=1e-300, rtol=8.9e-16)
        assert abs(t - want) <= 1e-14 * want
        assert traj.crossing(0.5, 3.0) == pytest.approx(13 * math.pi / 6, abs=1e-6)


def ladder_only(p, **kw):
    """detect_blowup with the tail switched off: the full ladder and its
    extrapolation, the report every problem got before the tail."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ode, "_tail_rule", lambda p: None)
        return detect_blowup(p, **kw)


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
        h = make_power_log(1.0, 2.0, math.e)
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=h)
        rep = detect_blowup(p, horizon=3.0, tol=1e-10)
        assert rep.kind is BlowupKind.BLOW_UP
        rel = abs(rep.t_blow_estimate - OSGOOD_BLOWUP_TIME) / OSGOOD_BLOWUP_TIME
        assert rel <= 0.01

    def test_escape_times_monotone_in_threshold(self):
        # on the full ladder: the tail stops at the first rung, one row
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        rep = ladder_only(p, thresholds=(1e2, 1e4, 1e6, 1e8), horizon=2.0, tol=1e-10)
        times = [t for _, t in rep.escape_thresholds]
        assert len(times) >= 3
        assert all(b > a for a, b in zip(times, times[1:]))

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(lam=st.floats(1.1, 3.0), a=st.floats(0.5, 2.0), c=st.floats(0.5, 2.0))
    @example(lam=2.0, a=1.0, c=1.0)
    def test_escape_times_meet_closed_form(self, lam, a, c):
        # each crossing is interpolated between its own cell's end slopes;
        # w reaches M at t_M = (a^(1-lam) - M^(1-lam)) / (c (lam-1))
        p = ProblemSpec(m=1, k=0, a=(a,), q=make_constant(c), h=make_power(lam))
        rep = ladder_only(p, horizon=50.0, tol=1e-10)
        times = [t for _, t in rep.escape_thresholds]
        assert len(times) >= 3
        assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
        for M, t in rep.escape_thresholds:
            exact = (a ** (1.0 - lam) - M ** (1.0 - lam)) / (c * (lam - 1.0))
            assert t == pytest.approx(exact, rel=1e-8)

    def test_step_collapse_counts_as_blowup(self):
        # fast blow-up exhausts the step floor before very high thresholds
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        rep = detect_blowup(p, horizon=2.0, tol=1e-10)  # ladder up to 1e12
        assert rep.kind is BlowupKind.BLOW_UP
        assert abs(rep.t_blow_estimate - 1.0) <= 1e-3

    def test_step_collapse_outside_the_tail(self):
        # w' = w^2 with q a custom function: no tail, so the ladder runs on
        # to 1e12 and the step floor gives out before its last threshold
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=make_custom(lambda t: 1.0), h=make_power(2))
        rep = detect_blowup(p, horizon=2.0, tol=1e-10)
        assert rep.kind is BlowupKind.BLOW_UP
        assert rep.t_blow_method == "extrapolated"
        assert len(rep.escape_thresholds) < len(ode.DEFAULT_THRESHOLDS)  # collapsed
        assert abs(rep.t_blow_estimate - 1.0) <= 1e-3

    @pytest.mark.parametrize("h, q, thresholds, t_blow", [
        (make_power(20), ONE, ode.DEFAULT_THRESHOLDS, 1.0 / 19.0),
        (make_power(2), ONE, (1e13,), 1.0),
        (make_power(2), STEP_UP, (1e12,), 0.6875),
        (make_custom(lambda s: s * s + s, label="s^2+s"), STEP_UP, (1e12,), 0.25 + (math.log(2.0) - 0.125) / 2.0),
    ], ids=["w^20", "w^2-to-1e13", "w^2-step-q", "custom-step-q"])
    def test_collapse_below_the_first_rung_is_a_blow_up(self, h, q, thresholds, t_blow):
        # w' = q h(w) from 1: the step collapses before w reaches the first
        # rung, at t_end, which can lie a little past T*; the interval
        # reaches both ways
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=h)
        tol = 1e-9
        rep = detect_blowup(p, thresholds=thresholds, horizon=4.0, tol=tol)
        assert (rep.kind, rep.t_blow_method, rep.escape_thresholds) == (BlowupKind.BLOW_UP, "extrapolated", ())
        assert rep.trajectory.event == "step-collapse"
        assert rep.t_blow_estimate == rep.trajectory.t_end
        half = 10.0 * tol * max(1.0, rep.t_blow_estimate)
        assert rep.t_blow_interval == (rep.t_blow_estimate - half, rep.t_blow_estimate + half)
        lo, hi = rep.t_blow_interval
        assert lo <= t_blow <= hi
        assert abs(rep.t_blow_estimate - t_blow) <= 1e-10 * t_blow

    def test_collapse_below_the_first_rung_labels_the_pipeline(self):
        # w' = w^20 from 1 blows up at 1/19, below the default ladder's first rung
        rep = run_pipeline(ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(20)), horizon=5.0)
        assert rep.label == "BlowUpDetected"
        lo, hi = rep.blowup.t_blow_interval
        assert lo <= 1.0 / 19.0 <= hi

    def test_first_order_tail_refuses_a_state_at_zero(self):
        # w'' = w'^2 from w' = 0: w stays at 20, past the first rung at t = 0,
        # and the tail from u = w' = 0 gives no T*
        p = ProblemSpec(m=2, k=1, a=(20.0, 0.0), q=ONE, h=make_power(2))
        rep = detect_blowup(p, horizon=1.0)
        assert rep.kind is BlowupKind.GLOBAL_UP_TO_HORIZON
        assert rep.escape_thresholds == ((10.0, 0.0),)
        assert rep.t_blow_estimate is None

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(p=in_class_problems(), T=st.floats(0.5, 3.0), tol=st.sampled_from([1e-6, 1e-9]))
    def test_integrate_is_the_one_rung_ladder(self, p, T, tol):
        # integrate's escape level is the last rung of a ladder of one, so
        # the ladder's run, asking the tail where there is one, is the same
        def ladder():
            return detect_blowup(p, thresholds=(ode.ESCAPE_THRESHOLD,), horizon=T, tol=tol)

        try:
            res = integrate(p, T, tol)
        except NumericFailureError as exc:  # so does a step that fails down to the floor
            with pytest.raises(NumericFailureError, match=f"^{re.escape(str(exc))}$"):
                ladder()
            return
        rep = ladder()
        for name in ("ts", "ys", "dys", "dense"):
            assert getattr(rep.trajectory, name).tobytes() == getattr(res, name).tobytes()
        assert (rep.trajectory.stats, rep.trajectory.event) == (res.stats, res.event)
        escaped = res.event == "escape"
        assert rep.escape_thresholds == (((ode.ESCAPE_THRESHOLD, res.t_end),) if escaped else ())
        # a run that stops before T, by escape or by a step collapse below
        # the one rung, is a blow-up; a run that reaches T is global
        assert rep.kind is (BlowupKind.GLOBAL_UP_TO_HORIZON if res.event is None else BlowupKind.BLOW_UP)
        if res.event == "step-collapse":
            assert (rep.t_blow_method, rep.t_blow_estimate) == ("extrapolated", res.t_end)

    def test_threshold_validation(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        with pytest.raises(InvalidParameterError):
            detect_blowup(p, thresholds=(5.0, 100.0), horizon=1.0)
        with pytest.raises(InvalidParameterError):
            detect_blowup(p, thresholds=(1e3, 1e2), horizon=1.0)
        for M in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match=rf"^thresholds must be finite, got \[1000.0, {M}\]$"):
                detect_blowup(p, thresholds=(1e3, M), horizon=1.0)

    def test_empty_ladder_is_refused(self):
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
        with pytest.raises(InvalidParameterError, match="at least one level"):
            detect_blowup(p, thresholds=(), horizon=1.0)


def energy_blowup_time(lam, a0, a1, c):
    """T* of w'' = c w^lam, w(0) = a0, w'(0) = a1, not both 0, in mpmath: the
    energy integral int_a0^inf ds / sqrt(a1^2 + kappa (s^(lam+1) - a0^(lam+1))),
    kappa = 2c/(lam+1), taken in y = log(s/a0), or in s itself for a0 = 0.
    In y the integrand bends where a1^2 stops dominating, near
    y_b = log(1 + a1^2 / e) / (lam + 1) with e = kappa a0^(lam+1), so
    y_b 2^j, j = -8..2, are breakpoints too."""
    with mpmath.workdps(30):
        lam, a0, a1, c = (mpmath.mpf(x) for x in (lam, a0, a1, c))
        kappa = 2 * c / (lam + 1)
        points = [0, 1, 10, 100, 1000]
        if a0 == 0:
            f = lambda s: 1 / mpmath.sqrt(a1 ** 2 + kappa * s ** (lam + 1))
        else:
            e = kappa * a0 ** (lam + 1)
            f = lambda y: a0 * mpmath.exp(y) / mpmath.sqrt(a1 ** 2 + e * mpmath.expm1((lam + 1) * y))
            y_b = mpmath.log1p(a1 ** 2 / e) / (lam + 1)
            points += [y_b * 2 ** j for j in range(-8, 3) if y_b > 0]
        return float(mpmath.quad(f, sorted(points) + [mpmath.inf]))


class TestTailOracle:
    """Blow-up times finished by the tail integral against exact values.  The
    exponents stop at 2.5 (n = 1), where w' = w^lam still crosses 1e6 more
    than a step floor before T*."""

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(lam=st.floats(1.05, 2.5), a=st.floats(0.1, 10.0))
    def test_first_order_power(self, lam, a):
        with mpmath.workdps(30):  # w' = w^lam, w(0) = a: T* = a^(1-lam) / (lam - 1)
            exact = float(mpmath.mpf(a) ** (1 - mpmath.mpf(lam)) / (mpmath.mpf(lam) - 1))
        p = ProblemSpec(m=1, k=0, a=(a,), q=ONE, h=make_power(lam))
        rep = detect_blowup(p, horizon=2.0 * exact + 1.0, tol=1e-10)
        assert rep.t_blow_method == "tail"
        lo, hi = rep.t_blow_interval
        assert lo <= exact <= hi
        assert rep.t_blow_estimate == pytest.approx(exact, rel=1e-9)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(lam=st.floats(1.1, 4.0), a0=st.floats(0.5, 2.0), a1=st.floats(0.1, 2.0),
           c=st.floats(0.5, 2.0))
    def test_second_order_power(self, lam, a0, a1, c):
        exact = energy_blowup_time(lam, a0, a1, c)
        p = ProblemSpec(m=2, k=0, a=(a0, a1), q=make_constant(c), h=make_power(lam))
        rep = detect_blowup(p, horizon=2.0 * exact + 1.0, tol=1e-10)
        assert rep.t_blow_method == "tail"
        lo, hi = rep.t_blow_interval
        assert lo <= exact <= hi
        assert rep.t_blow_estimate == pytest.approx(exact, rel=1e-9)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["power", "powerlog", "custom", "declared"]), lam=st.floats(1.1, 3.0),
           sigma=st.floats(1.2, 3.0), a=st.floats(0.5, 2.0), c=st.floats(0.5, 2.0))
    def test_first_order_any_h(self, kind, lam, sigma, a, c):
        # w' = c h(w): T* = (1/c) int_a^inf ds / h(s) for every h whose
        # integral test converges from the node, a custom h's numeric test
        # included
        if kind == "powerlog":
            h, exact = make_power_log(1.0, sigma), powerlog_blowup_time(sigma, a) / c
        else:
            with mpmath.workdps(30):
                lam_, a_, c_ = (mpmath.mpf(x) for x in (lam, a, c))
                exact = float(a_ ** (1 - lam_) / ((lam_ - 1) * c_))
            h = {"power": make_power(lam),
                 "custom": make_custom(lambda s: s ** lam),
                 "declared": make_custom(lambda s: s ** lam, asymptotic_exponent=lam)}[kind]
        p = ProblemSpec(m=1, k=0, a=(a,), q=make_constant(c), h=h)
        rep = detect_blowup(p, horizon=2.0 * exact + 1.0, tol=1e-10)
        assert rep.t_blow_method == "tail"
        lo, hi = rep.t_blow_interval
        assert lo <= exact <= hi

    def test_first_order_tail_from_a_tiny_state(self):
        # q steps to 2 at t = 1 and h = s^2: from u = 1e-200 at t = 2 the
        # tail is (1/2) int_u^inf ds / s^2 = 5e199, a float, although the
        # integral at scale u, int_1^inf ds / (u s)^2 = u^-2, overflows
        q = make_piecewise([((0.0, 1.0), 1.0), ((1.0, math.inf), 2.0)])
        tail = ode._tail_rule(ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=make_power(2)))
        assert tail(2.0, (1e-200,)) == 5e199
        assert math.isnan(tail(0.5, (1e-200,)))  # T* = 0.5 + 1e200 is past the piece's end at 1

    def test_second_order_speed_far_below_the_energy_scale(self):
        # w'' = w^2 from (1e13, 1): v^2 / e ~ 1.5e-39, so 1 + (v^2/e - 1) x^K
        # would round to 0 at x = 1
        p = ProblemSpec(m=2, k=0, a=(1e13, 1.0), q=ONE, h=make_power(2))
        rep = detect_blowup(p)
        assert rep.t_blow_method == "tail"
        assert rep.t_blow_estimate == pytest.approx(energy_blowup_time(2, 1e13, 1, 1), rel=1e-13)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(lam=st.floats(1.1, 4.0), log_u=st.floats(-2.0, 14.0), log_v=st.floats(-3.0, 12.0),
           c=st.floats(0.25, 4.0))
    @example(lam=2.5, log_u=3.0, log_v=0.0, c=1.5)
    @example(lam=1.49, log_u=9.544, log_v=4.88, c=1.41)
    def test_second_order_tail_on_every_scale(self, lam, log_u, log_v, c):
        # the tail from (u, v) = (10^log_u, 10^log_v) is the energy integral
        # from u, whatever v^2 / e, to a few units of the last place
        u, v = 10.0 ** log_u, 10.0 ** log_v
        tail = ode._tail_rule(ProblemSpec(m=2, k=0, a=(u, v), q=make_constant(c), h=make_power(lam)))
        assert tail(0.0, (u, v)) == pytest.approx(energy_blowup_time(lam, u, v, c), rel=1e-13)


class TestRungIndependence:
    """The tail is exact from any state in the piece of q the node is in,
    when it holds until T* (here q is a constant, one piece), so the
    ladder's first rung does not matter: from ladders that start at 10, 1e3
    and 1e6 T* stays within 5% of its half-width of the oracle, and the
    escape rows are a bitwise prefix of the full ladder's on the same
    rungs."""

    STARTS = (10.0, 1e3, 1e6)

    def assert_rung_independent(self, p, exact, horizon):
        ref = ladder_only(p, horizon=horizon)
        for start in self.STARTS:
            ladder = tuple(M for M in ode.DEFAULT_THRESHOLDS if M >= start)
            rep = detect_blowup(p, thresholds=ladder, horizon=horizon)
            assert rep.t_blow_method == "tail"
            lo, hi = rep.t_blow_interval
            assert abs(rep.t_blow_estimate - exact) <= 0.05 * 0.5 * (hi - lo), start
            rows = [row for row in ref.escape_thresholds if row[0] >= start][:len(rep.escape_thresholds)]
            assert np.array(rep.escape_thresholds).tobytes() == np.array(rows).tobytes()

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(lam=st.floats(1.05, 2.5), a=st.floats(0.1, 5.0), c=st.floats(0.5, 2.0))
    def test_first_order_power(self, lam, a, c):
        with mpmath.workdps(30):  # w' = c w^lam: T* = a^(1-lam) / ((lam - 1) c)
            lam_, a_, c_ = (mpmath.mpf(x) for x in (lam, a, c))
            exact = float(a_ ** (1 - lam_) / ((lam_ - 1) * c_))
        p = ProblemSpec(m=1, k=0, a=(a,), q=make_constant(c), h=make_power(lam))
        self.assert_rung_independent(p, exact, 2.0 * exact + 1.0)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(lam=st.floats(1.1, 4.0), a0=st.floats(0.5, 2.0), a1=st.floats(0.1, 2.0),
           c=st.floats(0.5, 2.0))
    def test_second_order_power(self, lam, a0, a1, c):
        exact = energy_blowup_time(lam, a0, a1, c)
        p = ProblemSpec(m=2, k=0, a=(a0, a1), q=make_constant(c), h=make_power(lam))
        self.assert_rung_independent(p, exact, 2.0 * exact + 1.0)


class TestTailAroundTheHorizon:
    """A tail T* is final, inside the horizon or past it: power problems
    with n <= 2 whose T* lies between 0.3 and 3 horizons report BLOW_UP
    within the horizon and GLOBAL_UP_TO_HORIZON past it, both with the
    tail's T* and an interval that holds the exact one.  A run that crosses
    no rung before the horizon has no T* to report."""

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(
        form=st.sampled_from(["m=1", "m=2 k=1", "m=2 k=0"]), lam=st.floats(1.1, 3.0),
        a0=st.floats(0.1, 2.0), a1=st.floats(0.1, 2.0), c=st.floats(0.5, 2.0),
        share=st.floats(0.3, 3.0), from_data=st.booleans(),
    )
    def test_verdict_and_interval(self, form, lam, a0, a1, c, share, from_data):
        # share = T* / horizon; data from 20 to 400 are past the first rung,
        # so the tail is asked from y(0), and data below 2 ask it from the
        # node before the step that crosses 10
        if from_data:
            a0, a1 = 200.0 * a0, 200.0 * a1
        if form == "m=2 k=0":
            p = ProblemSpec(m=2, k=0, a=(a0, a1), q=make_constant(c), h=make_power(lam))
            exact = energy_blowup_time(lam, a0, a1, c)
        else:
            p = ProblemSpec(m=form.count("m=2") + 1, k=form.count("k=1"), a=(a0, a1)[:form.count("m=2") + 1],
                            q=make_constant(c), h=make_power(lam))
            with mpmath.workdps(30):  # u' = c u^lam from u0: T* = u0^(1-lam) / ((lam - 1) c)
                lam_, u0, c_ = (mpmath.mpf(v) for v in (lam, p.a[-1], c))
                exact = float(u0 ** (1 - lam_) / ((lam_ - 1) * c_))
        horizon = exact / share
        rep = detect_blowup(p, horizon=horizon, tol=1e-10)
        if rep.t_blow_method is None:
            assert rep.escape_thresholds == () and exact > horizon and not from_data
            assert rep.kind is BlowupKind.GLOBAL_UP_TO_HORIZON
            return
        assert rep.t_blow_method == "tail"
        lo, hi = rep.t_blow_interval
        assert lo <= exact <= hi
        assert rep.t_blow_estimate == pytest.approx(exact, rel=1e-9)
        assert rep.kind is (BlowupKind.BLOW_UP if rep.t_blow_estimate <= horizon
                            else BlowupKind.GLOBAL_UP_TO_HORIZON)
        if not lo <= horizon <= hi:
            assert (rep.kind is BlowupKind.BLOW_UP) == (exact < horizon)


def assert_same_report(rep, ref):
    """Every field but t_blow_method equal, the trajectory bit for bit."""
    for name in ("kind", "horizon", "escape_thresholds", "t_blow_estimate", "t_blow_interval"):
        assert getattr(rep, name) == getattr(ref, name), name
    for name in ("ts", "ys", "dys"):
        assert getattr(rep.trajectory, name).tobytes() == getattr(ref.trajectory, name).tobytes()


# every problem TestTailScope runs, with its detect_blowup keywords
TAIL_SCOPE = {
    # w' = q w^1.1, w(0) = 1: int_1^inf ds/s^1.1 = 10, and 8 of it before
    # the jump at t = 1 puts w(1) = 0.2^-10 ~ 9.8e6, past the 1e6 crossing;
    # the rest at q = 2 takes 1, so T* = 2
    "jump": (ProblemSpec(m=1, k=0, a=(1.0,), q=make_piecewise([((0, 1.0), 8.0), ((1.0, math.inf), 2.0)]),
                         h=make_power(1.1)), dict(horizon=5.0)),
    # w'' = c (w')^lam with lam near 3: the step floor gives out before w'
    # reaches 1e6; the first rung is far from it
    "collapse": (ProblemSpec(m=2, k=1, a=(1.77891, 0.863317), q=make_constant(0.563213),
                             h=make_power(2.97608)), dict(horizon=5.0)),
    # w' = w^1.1, w(0) = 1 crosses 1e6 at t ~ 7.49, but T* = 10 > 8
    "past-the-horizon": (ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1.1)), dict(horizon=8.0)),
    # e^t escapes a short ladder although I(s, 1) diverges: no tail
    "divergent": (ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(1)),
                  dict(thresholds=(1e3, 1e6), horizon=20.0)),
    # w'' = w^2 from data past rungs at t = 0, where the tail cannot finish
    # from y(0): with w or w' = 0 the energy integrand is singular at its end
    # or u = 0, and with w' = 1e300 w'^2 / e overflows
    "at-rest": (ProblemSpec(m=2, k=0, a=(1e7, 0.0), q=ONE, h=make_power(2)), dict(horizon=5.0)),
    "overflowing-speed": (ProblemSpec(m=2, k=0, a=(1e6, 1e300), q=ONE, h=make_power(2)), dict(horizon=5.0)),
    "w-past-the-first-rung": (ProblemSpec(m=2, k=0, a=(20.0, 0.0), q=ONE, h=make_power(2)), dict(horizon=5.0)),
    "speed-past-the-first-rung": (ProblemSpec(m=2, k=0, a=(0.0, 20.0), q=ONE, h=make_power(2)),
                                  dict(horizon=5.0)),
    "n=3": (ProblemSpec(m=3, k=0, a=(1.0, 1.0, 1.0), q=ONE, h=make_power(2)), dict(horizon=5.0)),
    "custom-q": (ProblemSpec(m=1, k=0, a=(1.0,), q=make_custom(lambda t: 1.0), h=make_power(2)),
                 dict(horizon=5.0)),
    "custom-h": (ProblemSpec(m=2, k=0, a=(1.0, 0.5), q=ONE, h=make_custom(make_power(3).fn)),
                 dict(horizon=5.0)),
    "f_override": (ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2),
                               f_override=lambda t, y: float(y[0]) ** 2), dict(horizon=5.0)),
    # w' = q w^2, w(0) = 1 with q = 1 until t = 2: T* = 1 comes before the jump
    "jump-after-the-blow-up": (ProblemSpec(m=1, k=0, a=(1.0,), q=make_piecewise(
        [((0, 2.0), 1.0), ((2.0, math.inf), 0.5)]), h=make_power(2)), dict(horizon=5.0)),
    # "past-the-horizon" with q = 1 until t = 20: T* = 10 comes before the
    # jump, which lies past the horizon too
    "last-jump-past-the-horizon": (ProblemSpec(m=1, k=0, a=(1.0,), q=make_piecewise(
        [((0, 20.0), 1.0), ((20.0, math.inf), 2.0)]), h=make_power(1.1)), dict(horizon=8.0)),
}


def powerlog_blowup_time(sigma, a=1.0):
    """T* of w' = w log(e + w)^sigma, w(0) = a, sigma > 1, in mpmath: with
    z = log(e + s) the integral int_a^inf ds / (s log(e + s)^sigma) is
    int_z0^inf z^-sigma dz / (1 - e^(1-z)), whose z^-sigma part is closed."""
    with mpmath.workdps(30):
        sigma, z0 = mpmath.mpf(sigma), mpmath.log(mpmath.e + mpmath.mpf(a))
        rest = mpmath.quad(lambda z: z ** -sigma * mpmath.exp(1 - z) / -mpmath.expm1(1 - z),
                           [z0, z0 + 10, z0 + 100, mpmath.inf])
        return float(z0 ** (1 - sigma) / (sigma - 1) + rest)


# problems w' = h(w), w(0) = 1, whose T* lies past the horizon although the
# solution escapes the default ladder's top rung before it: (h, horizon, T*)
PAST_THE_HORIZON = {
    "powerlog-1.2": (make_power_log(1.0, 1.2), 5.0, powerlog_blowup_time(1.2)),
    "powerlog-1.01": (make_power_log(1.0, 1.01), 50.0, powerlog_blowup_time(1.01)),
    "power-1.05": (make_power(1.05), 15.0, 20.0),
    "power-1.01": (make_power(1.01), 50.0, 100.0),
}


class TestTailScope:
    def test_jump_after_the_first_stop_moves_it(self):
        p, kw = TAIL_SCOPE["jump"]
        rep, ref = detect_blowup(p, **kw), ladder_only(p, **kw)
        assert rep.t_blow_method == "tail"
        assert [M for M, _ in rep.escape_thresholds][-2:] == [1e6, 1e7]
        assert rep.escape_thresholds[-2][1] < 1.0 <= rep.escape_thresholds[-1][1]
        assert rep.escape_thresholds == ref.escape_thresholds[:7]
        lo, hi = rep.t_blow_interval
        assert lo <= 2.0 <= hi
        assert rep.t_blow_estimate == pytest.approx(2.0, rel=1e-9)

    def test_collapse_before_1e6_takes_the_tail(self):
        # T* = a1^(1-lam) / ((lam-1) c)
        p, kw = TAIL_SCOPE["collapse"]
        with mpmath.workdps(30):
            lam_, c_, a1 = (mpmath.mpf(x) for x in (p.h.params[0], p.q(0.0), p.a[1]))
            exact = float(a1 ** (1 - lam_) / ((lam_ - 1) * c_))
        rep = detect_blowup(p, **kw)
        assert rep.t_blow_method == "tail"
        lo, hi = rep.t_blow_interval
        assert lo <= exact <= hi
        assert rep.t_blow_estimate == pytest.approx(exact, rel=1e-11)

    def test_blowup_past_the_horizon_keeps_the_ladder(self):
        # the tail's T* = 10 is final: the run goes on through the ladder as
        # without the tail, and the report, global on [0, 8], carries T*
        p, kw = TAIL_SCOPE["past-the-horizon"]
        rep, ref = detect_blowup(p, **kw), ladder_only(p, **kw)
        assert 1e6 in dict(rep.escape_thresholds)
        assert rep.kind is BlowupKind.GLOBAL_UP_TO_HORIZON
        assert rep.t_blow_method == "tail"
        lo, hi = rep.t_blow_interval
        assert lo <= 10.0 <= hi
        assert rep.t_blow_estimate == pytest.approx(10.0, rel=1e-9)
        assert (ref.kind, ref.t_blow_method) == (BlowupKind.GLOBAL_UP_TO_HORIZON, None)
        assert rep.escape_thresholds == ref.escape_thresholds
        for name in ("ts", "ys", "dys"):
            assert getattr(rep.trajectory, name).tobytes() == getattr(ref.trajectory, name).tobytes()

    @pytest.mark.parametrize("name", list(PAST_THE_HORIZON))
    def test_tail_past_the_horizon_is_final(self, name):
        # each escapes its top rung before the horizon, where the ladder's
        # extrapolation gave an interval that misses T* or a blow-up inside
        # the horizon; the solution exists on [0, horizon]
        h, horizon, exact = PAST_THE_HORIZON[name]
        p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=h)
        rep = detect_blowup(p, horizon=horizon)
        assert rep.kind is BlowupKind.GLOBAL_UP_TO_HORIZON
        assert rep.t_blow_method == "tail"
        assert rep.escape_thresholds[-1][0] == ode.DEFAULT_THRESHOLDS[-1]
        lo, hi = rep.t_blow_interval
        assert lo <= exact <= hi
        assert rep.t_blow_estimate == pytest.approx(exact, rel=1e-9)
        assert ladder_only(p, horizon=horizon).kind is BlowupKind.BLOW_UP
        report = run_pipeline(p, horizon=horizon)
        assert report.label == "BlowUpNotObserved"
        assert f"T* = {rep.t_blow_estimate!r}, past the horizon" in " ".join(report.notes)

    def test_divergent_tail_keeps_the_ladder(self):
        p, kw = TAIL_SCOPE["divergent"]
        rep = detect_blowup(p, **kw)
        assert rep.t_blow_method == "extrapolated"
        assert_same_report(rep, ladder_only(p, **kw))

    @pytest.mark.parametrize("name", ["at-rest", "overflowing-speed"])
    def test_state_the_tail_cannot_finish_from_keeps_the_ladder(self, name):
        # at rest the run goes on to the next rung, 1e8, and the tail finishes
        # from the node before it; the overflowing speed is past every rung
        # at t = 0, so the full ladder's extrapolation stands: every escape
        # time is 0.0, and the estimate is 0.0, not the extrapolated -0.0
        p, kw = TAIL_SCOPE[name]
        rep = detect_blowup(p, **kw)
        if name == "at-rest":
            assert rep.t_blow_method == "tail"
            assert [M for M, _ in rep.escape_thresholds][-2:] == [1e7, 1e8]
            lo, hi = rep.t_blow_interval
            assert lo <= energy_blowup_time(2, *p.a, 1) <= hi
        else:
            assert rep.t_blow_method == "extrapolated"
            assert {t for _, t in rep.escape_thresholds} == {0.0}
            assert math.copysign(1.0, rep.t_blow_estimate) == 1.0
            assert_same_report(rep, ladder_only(p, **kw))

    @pytest.mark.parametrize("name", ["w-past-the-first-rung", "speed-past-the-first-rung"])
    def test_data_past_the_first_rung_takes_the_tail_at_the_next(self, name):
        # the largest component is past 10 at t = 0, where u or u' is 0
        p, kw = TAIL_SCOPE[name]
        exact = energy_blowup_time(2, *p.a, 1)
        rep = detect_blowup(p, **kw)
        assert rep.t_blow_method == "tail"
        assert rep.escape_thresholds[0] == (10.0, 0.0)
        assert [M for M, _ in rep.escape_thresholds] == [10.0, 100.0]
        lo, hi = rep.t_blow_interval
        assert lo <= exact <= hi
        assert rep.t_blow_estimate == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("name", ["n=3", "custom-q", "custom-h", "f_override"])
    def test_out_of_scope_stays_extrapolated(self, name):
        p, kw = TAIL_SCOPE[name]
        rep = detect_blowup(p, **kw)
        assert rep.t_blow_method == "extrapolated"
        assert_same_report(rep, ladder_only(p, **kw))

    def test_jump_after_the_blow_up_takes_the_tail(self):
        # q's jump at t = 2 is never reached: the report is q = 1's, bit for bit
        p, kw = TAIL_SCOPE["jump-after-the-blow-up"]
        rep = detect_blowup(p, **kw)
        assert rep.t_blow_method == "tail"
        lo, hi = rep.t_blow_interval
        assert lo <= 1.0 <= hi
        assert rep.t_blow_estimate == pytest.approx(1.0, rel=1e-9)
        assert_same_report(rep, detect_blowup(ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2)), **kw))

    def test_last_jump_past_the_horizon_takes_the_tail(self):
        # T* = 10 lies past the horizon 8 and before q's jump at 20: the
        # report is "past-the-horizon"'s, whose q = 1 has no jump
        p, kw = TAIL_SCOPE["last-jump-past-the-horizon"]
        rep = detect_blowup(p, **kw)
        assert (rep.kind, rep.t_blow_method) == (BlowupKind.GLOBAL_UP_TO_HORIZON, "tail")
        lo, hi = rep.t_blow_interval
        assert lo <= 10.0 <= hi
        ref_p, ref_kw = TAIL_SCOPE["past-the-horizon"]
        ref = detect_blowup(ref_p, **ref_kw)
        assert_same_report(rep, ref)
        assert rep.t_blow_method == ref.t_blow_method

    def test_tail_reads_the_piece_a_node_on_a_jump_starts(self):
        # q = 1 on [0, 1), 2 on [1, 5), 1 after; h = s^2 from u = 1 at t = 1:
        # the piece that starts at the jump gives T* = 1 + 1/2
        q = make_piecewise([((0.0, 1.0), 1.0), ((1.0, 5.0), 2.0), ((5.0, math.inf), 1.0)])
        tail = ode._tail_rule(ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=make_power(2)))
        assert tail(1.0, (1.0,)) == 1.5

    @pytest.mark.parametrize("m", [1, 2])
    def test_no_tail_where_q_is_zero(self, m):
        # the tail at a node with q = 0 has no T*, though the next piece has one
        q = make_piecewise([((0.0, 1.0), 0.0), ((1.0, math.inf), 1.0)])
        tail = ode._tail_rule(ProblemSpec(m=m, k=0, a=(1.0,) * m, q=q, h=make_power(2)))
        assert math.isnan(tail(0.5, (1.0,) * m))
        assert tail(1.0, (1.0,) * m) > 1.0

    def test_tail_ending_at_the_piece_end_stands(self):
        # q = 1 on [0, 2): from u = 1 at t = 1, h = s^2, T* = 2 is the piece's
        # end, where q does not act before the blow-up
        q = make_piecewise([((0.0, 2.0), 1.0), ((2.0, math.inf), 0.5)])
        tail = ode._tail_rule(ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=make_power(2)))
        assert tail(1.0, (1.0,)) == 2.0
        assert math.isnan(tail(1.0, (0.9,)))  # T* = 1 + 1/0.9, past the end

    @pytest.mark.parametrize("name", list(TAIL_SCOPE))
    def test_one_integration_per_report(self, name, monkeypatch):
        # the tail is asked at each rung inside the loop: a report whose tail
        # cannot finish, or finishes past the horizon, runs no second pass
        p, kw = TAIL_SCOPE[name]
        calls, run = [], ode._integrate_events
        monkeypatch.setattr(ode, "_integrate_events", lambda *args: calls.append(args) or run(*args))
        detect_blowup(p, **kw)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", list(TAIL_SCOPE))
    def test_tail_asked_once_per_node(self, name, monkeypatch):
        # a step that crosses several rungs, or y(0) past several, asks the
        # tail once: the node, and so the answer, is the same for each rung
        p, kw = TAIL_SCOPE[name]
        asks, rule = [], ode._tail_rule

        def counted(p):
            tail = rule(p)
            return tail and (lambda t, y: asks.append((t, tuple(y))) or tail(t, y))

        monkeypatch.setattr(ode, "_tail_rule", counted)
        detect_blowup(p, **kw)
        assert len(asks) == len(set(asks))


class TestTailInItsPiece:
    """The tail reads the piece of q the node is in and keeps its T* only
    where that piece holds until T*: a jump of q after T* changes no bit of
    the report, and a blow-up inside q's first piece, or in its last after
    a late jump, ends with the oracle's T* inside the interval."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(order=st.sampled_from([(1, 0), (2, 1), (3, 2), (2, 0), (3, 1)]), powerlog=st.booleans(), lam=st.floats(1.1, 3.0),
           sigma=st.floats(1.2, 3.0), a=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
           c0=st.floats(0.5, 2.0), horizon=st.floats(0.5, 10.0), delta=st.floats(0.01, 2.0),
           c1=st.one_of(st.just(0.0), st.floats(0.25, 2.0)))
    def test_jump_after_the_blow_up_changes_nothing(self, order, powerlog, lam, sigma, a, c0, horizon,
                                                      delta, c1):
        # (m, k) with n = m - k in {1, 2}: q = c0, then q = c0 until b and c1
        # after, with b past T* (or past the horizon when the first report
        # has no T*)
        m, k = order
        h = make_power_log(1.0, sigma) if powerlog and m - k == 1 else make_power(lam)
        ref = detect_blowup(ProblemSpec(m=m, k=k, a=tuple(a[:m]), q=make_constant(c0), h=h), horizon=horizon)
        b = (horizon if ref.t_blow_estimate is None else ref.t_blow_estimate) * (1.0 + delta)
        q = make_piecewise([((0.0, b), c0), ((b, math.inf), c1)])
        rep = detect_blowup(ProblemSpec(m=m, k=k, a=tuple(a[:m]), q=q, h=h), horizon=horizon)
        assert_same_report(rep, ref)
        assert rep.t_blow_method == ref.t_blow_method

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["power", "powerlog", "energy", "late-jump"]), lam=st.floats(1.1, 3.0),
           sigma=st.floats(1.2, 3.0), a0=st.floats(0.5, 2.0), a1=st.floats(0.5, 2.0),
           c0=st.floats(0.5, 2.0), delta=st.floats(0.01, 2.0), share=st.floats(0.7, 0.95),
           c1=st.floats(0.25, 2.0), zero=st.booleans())
    def test_tail_in_the_piece_against_the_oracle(self, kind, lam, sigma, a0, a1, c0, delta, share, c1, zero):
        # a blow-up in q's first piece [0, b), b = T* (1 + delta), reports
        # the tail, with c1 = 0 or c1 after b; with the jump at b = share T*_0
        # before T*_0 = I(a0)/c0 (n = 1, power h), int_0^T* q = I(a0) gives
        # T* = b + (I(a0) - c0 b)/c1
        h = make_power_log(1.0, sigma) if kind == "powerlog" else make_power(lam)
        with mpmath.workdps(30):
            lam_, a_, c0_, c1_ = (mpmath.mpf(x) for x in (lam, a0, c0, c1))
            whole = a_ ** (1 - lam_) / (lam_ - 1)  # I(a0) of a power h, n = 1
            if kind == "late-jump":
                b = share * float(whole / c0_)
                exact = float(b + (whole - c0_ * b) / c1_)
            elif kind == "energy":
                exact = energy_blowup_time(lam, a0, a1, c0)
            elif kind == "powerlog":
                exact = powerlog_blowup_time(sigma, a0) / c0
            else:
                exact = float(whole / c0_)
        if kind != "late-jump":
            b, c1 = exact * (1.0 + delta), 0.0 if zero else c1
        m = 2 if kind == "energy" else 1
        q = make_piecewise([((0.0, b), c0), ((b, math.inf), c1)])
        rep = detect_blowup(ProblemSpec(m=m, k=0, a=(a0, a1)[:m], q=q, h=h), horizon=2.0 * exact + 1.0, tol=1e-10)
        if kind != "late-jump":
            assert rep.t_blow_method == "tail"
        lo, hi = rep.t_blow_interval
        assert lo <= exact <= hi


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

    def test_empty_input_refused(self):
        with pytest.raises(InvalidParameterError, match="at least one escape time"):
            aitken_blowup_estimate([])

    def test_stage_moving_the_deepest_entry_back_is_not_taken(self):
        # the one stage is (2.0, 0.5): its deepest entry lies behind 2.5
        assert aitken_blowup_estimate([0.0, 1.0, 1.5, 2.5]) == 2.5

    def test_stage_that_is_not_finite_stops(self):
        # a nan time makes the first stage's last two entries nan
        assert aitken_blowup_estimate([0.0, 1.0, 1.5, math.nan, 1.875]) == 1.875
