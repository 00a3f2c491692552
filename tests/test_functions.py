import math

import numpy as np
import pytest

from blowup.errors import InvalidParameterError
from blowup.functions import (
    Family,
    PowerFamilyParams,
    make_constant,
    make_custom,
    make_piecewise,
    make_power,
    make_power_log,
    parse_fn_spec,
    validate_fn,
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
        assert h.nondecreasing and h.nonnegative

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
        h = make_power_log(PowerFamilyParams(1.0, 2.0, math.e))
        assert h(0.0) == 0.0

    def test_sigma_zero_reduces_to_power(self):
        h = make_power_log(PowerFamilyParams(1.0, 0.0, math.e))
        assert h(5.0) == pytest.approx(5.0, abs=0)

    def test_constructed_log_value(self):
        # at s = e^2 - e the log factor is exactly 2
        h = make_power_log(PowerFamilyParams(1.0, 2.0, math.e))
        s = math.e ** 2 - math.e
        assert float(h(s)) == pytest.approx(s * 4.0, rel=1e-14)

    def test_bad_shift(self):
        with pytest.raises(InvalidParameterError):
            make_power_log(PowerFamilyParams(1.0, 2.0, 1.0))

    def test_float_path_is_math_log(self):
        # a Python float takes math.log, the formula the integrator's step
        # computes; arrays keep np.log, equal to within rounding
        h = make_power_log(PowerFamilyParams(2.0, 2.5, 1.7))
        xs = [0.0, 0.3, 2.0, 1e6, 1e100]
        for x, v in zip(xs, h.eval_array(np.array(xs))):
            assert type(h(x)) is float and h(x) == x ** 2.0 * math.log(1.7 + x) ** 2.5
            assert h(x) == pytest.approx(v, rel=1e-14)
        # at or below -shift, where math.log refuses, the array formula's nan
        with np.errstate(invalid="ignore"):
            assert np.isnan(h(-2.0))

    def test_negative_sigma_drops_monotone_claim(self):
        h = make_power_log(PowerFamilyParams(1.0, -2.0, 1.001))
        assert not h.nondecreasing
        assert h.nonnegative


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


class TestValidate:
    def test_power_clean(self):
        rep = validate_fn(make_power(2), 0.0, 100.0, 64)
        assert rep.passed
        assert rep.monotonicity_violation == 0.0
        assert rep.nonnegativity_violation == 0.0

    def test_negative_constant_flagged(self):
        bad = make_custom(lambda s: -1.0, nonnegative=True, label="neg")
        rep = validate_fn(bad, 0.0, 10.0, 32)
        assert rep.nonnegativity_violation == pytest.approx(1.0)
        assert not rep.passed

    def test_sine_not_monotone(self):
        wavy = make_custom(np.sin, nondecreasing=True, label="sin")
        rep = validate_fn(wavy, 0.0, 10.0, 200)
        assert rep.monotonicity_violation > 0.1
        assert not rep.passed

    def test_deterministic(self):
        a = validate_fn(make_power(1.3), 0.0, 50.0, 64)
        b = validate_fn(make_power(1.3), 0.0, 50.0, 64)
        assert a == b

    def test_nonfinite_reported_not_raised(self):
        spiky = make_custom(
            lambda s: math.inf if s > 5.0 else 1.0, label="pole"
        )
        rep = validate_fn(spiky, 1.0, 10.0, 16)
        assert rep.nonfinite_points
        assert not rep.passed


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
