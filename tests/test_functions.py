import math

import numpy as np
import pytest

from blowup.errors import InvalidParameterError
from blowup.functions import (
    Family,
    make_constant,
    make_custom,
    make_piecewise,
    make_power,
    make_power_log,
    parse_fn_spec,
    scaled,
)


class TestPower:
    def test_values(self):
        assert make_power(2)(3.0) == 9.0
        assert make_power(0)(7.0) == 1.0
        assert make_power(1.5)(4.0) == 8.0

    def test_metadata(self):
        h = make_power(2.5)
        assert h.family is Family.POWER
        assert h.asymptotic_exponent == 2.5

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_power(-1.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.5])
    def test_scaling_homogeneity(self, lam):
        # f(alpha s) = alpha^lam f(s), up to float rounding
        h = make_power(lam)
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = float(rng.uniform(0.01, 100.0))
            alpha = float(rng.uniform(0.01, 100.0))
            lhs = h(alpha * s)
            rhs = alpha ** lam * h(s)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


class TestPowerLog:
    def test_zero_at_origin(self):
        h = make_power_log(1.0, 2.0, math.e)
        assert h(0.0) == 0.0

    def test_sigma_zero_reduces_to_power(self):
        h = make_power_log(1.0, 0.0, math.e)
        assert h(5.0) == pytest.approx(5.0, abs=0)

    def test_constructed_log_value(self):
        # at s = e^2 - e the log factor is exactly 2
        h = make_power_log(1.0, 2.0, math.e)
        s = math.e ** 2 - math.e
        assert float(h(s)) == pytest.approx(s * 4.0, rel=1e-14)

    def test_bad_shift(self):
        with pytest.raises(InvalidParameterError):
            make_power_log(1.0, 2.0, 1.0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidParameterError, match="power exponent must be >= 0, got -1.0"):
            make_power_log(-1.0, 1.0)

    def test_float_path_is_math_log(self):
        # a Python float takes math.log, the formula the integrator's step
        # computes; arrays keep np.log, equal to within rounding
        h = make_power_log(2.0, 2.5, 1.7)
        xs = [0.0, 0.3, 2.0, 1e6, 1e100]
        for x, v in zip(xs, h.eval_array(np.array(xs))):
            assert type(h(x)) is float and h(x) == x ** 2.0 * math.log(1.7 + x) ** 2.5
            assert h(x) == pytest.approx(v, rel=1e-14)
        # at or below -shift, where math.log refuses, the array formula's nan
        with np.errstate(invalid="ignore"):
            assert np.isnan(h(-2.0))

    def test_negative_sigma_drops_monotone_claim(self):
        # s / log(1.001 + s)^2 falls near 0 before it grows like s
        h = make_power_log(1.0, -2.0, 1.001)
        assert h(0.001) > h(0.01) > 0.0
        assert h.asymptotic_exponent == 1.0


class TestConstantPiecewise:
    def test_constant(self):
        q = make_constant(2.5)
        assert q(17.0) == 2.5
        assert np.all(q.eval_array(np.arange(4.0)) == 2.5)

    def test_piecewise_values(self):
        q = make_piecewise([((0, 1), 0.5), ((1, math.inf), 2.0)])
        assert q(0.0) == 0.5
        assert q(0.999) == 0.5
        assert q(1.0) == 2.0  # right-open pieces
        assert q(100.0) == 2.0
        assert q.breakpoints == (1.0,)

    @pytest.mark.parametrize("fn", [
        make_constant(2.5),
        make_piecewise([((0, 1), 0.5), ((1, 3), 2.0), ((3, math.inf), 7.0)]),
    ])
    def test_scalar_path_matches_array_path(self, fn):
        # at 0, inside a piece, on a breakpoint (pieces are right-open), past
        # the last edge, at nan, and for a numpy scalar
        xs = [0.0, 0.5, 1.0, 2.0, 3.0, 1e9, math.nan, np.float64(1.0)]
        for x, v in zip(xs, fn.eval_array(np.array(xs))):
            assert type(fn(x)) is float and fn(x) == v

    def test_piecewise_validation(self):
        with pytest.raises(InvalidParameterError):
            make_piecewise([((0, 1), 1.0)])  # must end at inf
        with pytest.raises(InvalidParameterError):
            make_piecewise([((0, 1), 1.0), ((2, math.inf), 1.0)])  # gap
        with pytest.raises(InvalidParameterError):
            make_piecewise([((1, math.inf), 1.0)])  # must start at 0


class TestEvalArray:
    @staticmethod
    def counted(body):
        """(fn, calls): fn runs body and records each argument's type."""
        calls = []

        def fn(s):
            calls.append(type(s))
            return body(s)

        return fn, calls

    def test_a_callable_that_does_not_broadcast_is_tried_once(self):
        # math.log raises TypeError on an array: the first call falls back to
        # the loop and remembers it, the second goes straight to the loop
        fn, calls = self.counted(lambda s: s * math.log(math.e + s))
        h = make_custom(fn, label="math.log")
        xs = np.array([0.0, 0.5, 2.0, 1e6])
        first = h.eval_array(xs)
        second = h.eval_array(xs)
        assert calls.count(np.ndarray) == 1 and len(calls) == 1 + 2 * len(xs)
        assert first.tolist() == second.tolist() == [x * math.log(math.e + x) for x in xs.tolist()]
        assert h == make_custom(fn, label="math.log")  # the memo is not a field

    def test_a_shape_mismatch_tries_the_array_call_every_time(self):
        fn, calls = self.counted(lambda s: 2.0)  # broadcasts to nothing
        h = make_custom(fn, label="flat")
        for _ in range(2):
            assert h.eval_array(np.arange(3.0)).tolist() == [2.0, 2.0, 2.0]
        assert calls.count(np.ndarray) == 2


class TestScaled:
    XS = [0.0, 1e-300, 0.3, 1.0, 2.5, 7.0, 1e6, 1e100]

    @pytest.mark.parametrize("h", [
        make_power(1.5),
        make_power_log(1.0, 2.0, 1.7),
        make_piecewise([((0, 1), 0.5), ((1, 3), 2.0), ((3, math.inf), 7.0)]),
        make_custom(lambda s: s * math.log(math.e + s), label="scalar only"),
    ], ids=["power", "powerlog", "piecewise", "scalar-only"])
    @pytest.mark.parametrize("factor,weight", [(0.3, 1.0), (3.0, 0.25), (1.0 / 17.0, 17.0)])
    def test_values_are_weight_times_h_at_factor_s(self, h, factor, weight):
        g = scaled(h, factor, weight=weight, label="g")
        for x in self.XS:
            assert g(x) == weight * h(factor * x)
        # the scalar-only h makes both eval_arrays fall back to one call per element
        xs = np.array(self.XS)
        assert np.array_equal(g.eval_array(xs), weight * h.eval_array(factor * xs))

    def test_declarations_carried(self):
        h = make_custom(np.exp, asymptotic_exponent=3.0)
        g = scaled(h, 2.0, weight=5.0, label="g")
        assert g.asymptotic_exponent == 3.0
        assert g.spec_text == "g" and g.family is Family.CUSTOM
        bare = scaled(make_custom(np.sin), 2.0, label="g")
        assert bare.asymptotic_exponent is None

    @pytest.mark.parametrize("factor", [0.3, 3.0, 1.0 / 17.0, 17.0])
    def test_breakpoints_move_to_bp_over_factor(self, factor):
        h = make_piecewise([((0, 0.1), 0.5), ((0.1, 1), 1.0), ((1, 7.5), 2.0), ((7.5, math.inf), 3.0)])
        g = scaled(h, factor, label="g")
        assert g.breakpoints == tuple(bp * (1.0 / factor) for bp in h.breakpoints)
        # each moved breakpoint is where g jumps
        for bp, lo, hi in zip(g.breakpoints, (0.5, 1.0, 2.0), (1.0, 2.0, 3.0)):
            assert g(bp * (1 - 1e-9)) == lo and g(bp * (1 + 1e-9)) == hi

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan])
    def test_factor_must_be_positive(self, factor):
        with pytest.raises(InvalidParameterError, match="scale factor must be > 0"):
            scaled(make_power(1.0), factor, label="g")


class TestParser:
    @pytest.mark.parametrize(
        "text",
        [
            "power(2.0)",
            "powerlog(1.0, 2.0, 2.718281828459045)",
            "constant(1.0)",
            "piecewise((0,1):0.5, (1,inf):2.0)",
        ],
    )
    def test_round_trip(self, text):
        fn = parse_fn_spec(text)
        again = parse_fn_spec(fn.spec_text)
        assert again.spec_text == fn.spec_text
        for s in (0.0, 0.5, 1.0, 7.0):
            assert float(again(s)) == float(fn(s))

    def test_parse_values(self):
        assert parse_fn_spec("power(2)")(3.0) == 9.0
        q = parse_fn_spec("piecewise((0,1):0.5, (1,inf):2.0)")
        assert q(0.5) == 0.5 and q(2.0) == 2.0

    @pytest.mark.parametrize(
        "bad",
        ["power()", "power(-1)", "powerlog(1)", "mystery(1)", "power(abc)", "piecewise(1)"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_fn_spec(bad)

    @pytest.mark.parametrize("bad,message", [
        ("power()", "power() takes exactly one argument"),
        ("power(1, 2)", "power() takes exactly one argument"),
        ("powerlog(1)", "powerlog() takes (lam, sigma[, shift])"),
        ("powerlog(1, 2, 3, 4)", "powerlog() takes (lam, sigma[, shift])"),
        ("constant()", "constant() takes exactly one argument"),
        ("power(-1)", "power exponent must be >= 0, got -1.0"),
        ("powerlog(-1, 2)", "power exponent must be >= 0, got -1.0"),
        ("powerlog(1, 2, 0.5)", "log shift must be > 1, got 0.5"),
        ("mystery(1)", "unknown function family 'mystery'"),
        ("mystery(x)", "expected a real number, got 'x'"),
    ])
    def test_parse_error_messages(self, bad, message):
        with pytest.raises(InvalidParameterError) as exc:
            parse_fn_spec(bad)
        assert str(exc.value) == message
