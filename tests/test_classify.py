import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from blowup.classify import (
    DIVERGE_CAP,
    Method,
    Verdict,
    blowup_integrand,
    classify,
    classify_from,
    classify_scaled,
)
from blowup.errors import InvalidParameterError, NumericFailureError, SingularIntegrandError
from blowup.functions import (
    make_constant,
    make_custom,
    make_power,
    make_power_log,
)

# independent oracle for int_1^inf ds/(s log^2(e+s)); three quadrature
# methods (log-substitution quad, dyadic panels, composite Simpson) agree
# on this value to 4e-13
OSGOOD_INTEGRAL = 1.1898839703443496


def brute_force_integral(h, n):
    """Independent panel-sum oracle in s-space (no shared code path)."""
    f = lambda s: float(h(s)) ** (-1.0 / n) * s ** (1.0 / n - 1.0)
    total = 0.0
    for j in range(600):
        panel, _ = quad(f, 2.0 ** j, 2.0 ** (j + 1), epsabs=1e-14, epsrel=1e-13)
        total += panel
        if j > 4 and panel < 1e-13 * total:
            break
    return total


class TestIntegrand:
    def test_values(self):
        assert blowup_integrand(make_power(2), 1, 4.0) == pytest.approx(1 / 16, rel=1e-14)
        assert blowup_integrand(make_power(1), 2, 9.0) == pytest.approx(1 / 9, rel=1e-14)
        assert blowup_integrand(make_power(3), 2, 2.0) == pytest.approx(0.25, rel=1e-14)

    def test_singular_reports_location(self):
        zero = make_custom(lambda s: 0.0, label="zero")
        with pytest.raises(SingularIntegrandError) as exc:
            blowup_integrand(zero, 1, 3.0)
        assert exc.value.where == 3.0

    def test_errors_name_the_function_and_the_point(self):
        pole = make_custom(lambda s: np.inf * s, label="pole")
        with pytest.raises(NumericFailureError, match=r"^pole is not finite at s = 1\.0$"):
            blowup_integrand(pole, 1, [1.0, 2.0])
        # the numeric path of the scaled test integrates h(2 s) in s
        zero = make_custom(lambda s: 0.0 * s, label="zero")
        with pytest.raises(SingularIntegrandError) as exc:
            classify_scaled(zero, 1, 2.0)
        assert str(exc.value) == f"scaled(zero, 2.0) = 0.0 <= 0 at s = {exc.value.where!r}: integrand singular"
        assert 1.0 < exc.value.where < 2.0

    def test_bad_n(self):
        with pytest.raises(InvalidParameterError):
            blowup_integrand(make_power(1), 0, 1.0)


class TestPowerThreshold:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0])
    def test_exact_threshold(self, n, lam):
        extra = [n - 0.5, float(n), n + 0.5, 2.0 * n]
        for ell in [lam] + extra:
            v = classify(make_power(ell), n)
            assert v.method is Method.EXACT_FAMILY
            assert (v.verdict is Verdict.DIVERGES) == (ell <= 1.0), (n, ell)

    def test_estimates(self):
        assert classify(make_power(2), 1).estimate == pytest.approx(1.0, rel=1e-14)
        assert classify(make_power(3), 2).estimate == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0, 5.0])
    def test_estimate_matches_brute_force(self, n, lam):
        v = classify(make_power(lam), n)
        oracle = brute_force_integral(make_power(lam), n)
        assert v.estimate == pytest.approx(oracle, rel=5e-3)


class TestPowerLogBorderline:
    def test_log_saves_convergence(self):
        # lam = 1 alone diverges; sigma > n tips it convergent
        h = make_power_log(1.0, 2.0, math.e)
        v = classify(h, 1)
        assert v.verdict is Verdict.CONVERGES
        assert v.method is Method.EXACT_FAMILY
        assert v.estimate == pytest.approx(OSGOOD_INTEGRAL, rel=1e-2)
        assert v.estimate == pytest.approx(OSGOOD_INTEGRAL, rel=5e-3)

    @pytest.mark.parametrize(
        "lam,sigma,n,diverges",
        [
            (1.0, 1.0, 1, True),   # sigma <= n
            (1.0, 0.5, 1, True),
            (1.0, 2.0, 2, True),   # sigma = n
            (1.0, 3.0, 2, False),
            (0.5, 5.0, 1, True),   # lam < 1 regardless of sigma
            (2.0, 0.0, 1, False),  # lam > 1
            (2.0, 3.0, 2, False),
        ],
    )
    def test_borderline_matrix(self, lam, sigma, n, diverges):
        v = classify(make_power_log(lam, sigma), n)
        assert (v.verdict is Verdict.DIVERGES) == diverges

    def test_supercritical_estimate(self):
        h = make_power_log(2.0, 1.0, math.e)
        v = classify(h, 1)
        oracle = brute_force_integral(h, 1)
        assert v.estimate == pytest.approx(oracle, rel=5e-3)


class TestConstantAndCustom:
    def test_constant_diverges(self):
        v = classify(make_constant(3.0), 2)
        assert v.verdict is Verdict.DIVERGES
        assert v.method is Method.EXACT_FAMILY

    def test_constant_zero_singular(self):
        with pytest.raises(SingularIntegrandError):
            classify(make_constant(0.0), 1)

    def test_declared_exponent_used(self):
        h = make_custom(lambda s: 3.0 * s ** 2, asymptotic_exponent=2.0, label="3s^2")
        v = classify(h, 1)
        assert v.verdict is Verdict.CONVERGES
        assert v.method is Method.EXACT_FAMILY
        oracle = brute_force_integral(h, 1)
        assert v.estimate == pytest.approx(oracle, rel=5e-3)

    @pytest.mark.parametrize("lam, n", [(1.05, 3), (1.01, 2)])
    def test_declared_estimate_refused_when_h_overflows_first(self, lam, n):
        # I = n / (lam - 1) = 60 and 200, but e^(-(lam-1) y/n) has barely decayed
        # where s^lam overflows (y ~ 700): the verdict stands without an estimate
        h = make_custom(lambda s: s ** lam, asymptotic_exponent=lam)
        v = classify(h, n)
        assert v.verdict is Verdict.CONVERGES
        assert v.method is Method.EXACT_FAMILY
        assert v.estimate is None

    def test_heuristic_convergent(self):
        h = make_custom(lambda s: s * s, label="s^2")
        v = classify(h, 1)
        assert v.verdict is Verdict.CONVERGES
        assert v.method is Method.NUMERIC_HEURISTIC
        assert v.estimate == pytest.approx(1.0, rel=1e-6)
        # invariant: small relative tail for a heuristic convergence call
        assert v.evidence["last_panel"] / max(v.evidence["cumulative"], 1.0) < 1e-10

    def test_heuristic_divergent_hits_cap(self):
        h = make_custom(lambda s: np.sqrt(s), label="sqrt")
        v = classify(h, 1)
        assert v.verdict is Verdict.DIVERGES
        assert v.method is Method.NUMERIC_HEURISTIC
        assert v.evidence["cap_hit"]
        assert v.evidence["cumulative"] >= DIVERGE_CAP

    def test_heuristic_inconclusive_on_borderline(self):
        h = make_custom(
            lambda s: s * np.log(np.e + s) ** 1.05,
            asymptotic_exponent=1.0,
            label="log-border",
        )
        assert classify(h, 1).verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("fn, exact", [
        (lambda s: np.exp(s), math.exp(-1.0)),    # h(e^7) = inf
        (lambda s: math.exp(s), math.exp(-1.0)),  # the same, where math.exp raises OverflowError
        (lambda s: s ** 200.0, 1.0 / 199.0),      # and here h(e^4) = inf
    ], ids=["exp", "math-exp", "s^200"])
    def test_overflowing_h_has_decayed(self, fn, exact):
        # the integral stops at the last unit step of y = log s where h is
        # finite, and the rest past it is far below QUAD_TOL of I
        v = classify(make_custom(fn), 1)
        assert v.verdict is Verdict.CONVERGES
        assert v.method is Method.NUMERIC_HEURISTIC
        assert v.estimate == pytest.approx(exact, rel=1e-12)

    def test_estimate_only_when_convergent(self):
        for h, n in [(make_power(0.5), 1), (make_constant(1.0), 1)]:
            v = classify(h, n)
            assert v.estimate is None


class TestScaled:
    def test_identity_case(self):
        base = classify(make_power(2), 1)
        scaled = classify_scaled(make_power(2), 1, 1.0)
        assert scaled.verdict == base.verdict
        assert scaled.estimate == base.estimate

    def test_substitution_value(self):
        v = classify_scaled(make_power(2), 1, 2.0)
        assert v.estimate == pytest.approx(0.25, rel=1e-14)

    def test_divergent_scaled(self):
        assert classify_scaled(make_power(1), 1, 10.0).verdict is Verdict.DIVERGES

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_scale_invariance_all_families(self, alpha, n):
        instances = [
            make_power(0.5),
            make_power(1.0),
            make_power(2.0),
            make_power(3.0),
            make_power_log(1.0, 2.0 * n, math.e),
            make_power_log(1.0, 0.5, math.e),
            make_power_log(1.5, 1.0, 2.0),
            make_constant(2.0),
        ]
        for h in instances:
            plain = classify(h, n).verdict
            scaled = classify_scaled(h, n, alpha).verdict
            if Verdict.INCONCLUSIVE not in (plain, scaled):
                assert plain == scaled, h.spec_text

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(
        lam=st.floats(0.2, 3.0), sigma=st.floats(-2.0, 3.0), log_power=st.booleans(),
        declared=st.booleans(), n=st.integers(1, 3), log_alpha=st.floats(-3.0, 3.0),
    )
    def test_scale_invariant_verdicts(self, lam, sigma, log_power, declared, n, log_alpha):
        # zeta = alpha s maps one integral onto the other's tail, so decisive
        # verdicts agree; custom h goes through the panel heuristic unless
        # its exponent is declared
        sigma = sigma if log_power else 0.0
        h = make_custom(lambda s: s ** lam * math.log(math.e + s) ** sigma,
                        asymptotic_exponent=lam if declared else None)
        plain, scaled = classify(h, n).verdict, classify_scaled(h, n, 10.0 ** log_alpha).verdict
        if Verdict.INCONCLUSIVE not in (plain, scaled):
            assert plain == scaled

    def test_scaled_estimate_matches_substitution_oracle(self):
        # int_1^inf (alpha s)^(-2) ds = alpha^(-2)
        for alpha in (0.5, 2.0, 4.0):
            v = classify_scaled(make_power(2), 1, alpha)
            assert v.estimate == pytest.approx(alpha ** -2, rel=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            classify_scaled(make_power(2), 1, 0.0)
        with pytest.raises(InvalidParameterError):
            classify_from(make_power(2), 1, 0.0)

    @pytest.mark.parametrize("h", [
        make_power(2.0), make_power_log(1.0, 3.0), make_power_log(1.5, 1.0, 2.0),
        make_custom(lambda s: s ** 2, asymptotic_exponent=2.0),
        make_custom(lambda s: s ** 2), make_custom(lambda s: s * math.log(math.e + s) ** 4),
        make_power(1.0),
    ], ids=["power", "borderline", "powerlog", "declared", "numeric", "inconclusive", "divergent"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_from_is_the_scaled_integral_lifted(self, h, n):
        # int_u0^inf = u0^(1/n) int_1^inf by U = u0 s; the verdict is the scaled one
        for u0 in (0.5, 3.0):
            scaled, lifted = classify_scaled(h, n, u0), classify_from(h, n, u0)
            assert lifted.verdict is scaled.verdict and lifted.method is scaled.method
            if scaled.estimate is None:
                assert lifted.estimate is None
            else:
                lift = u0 ** (1.0 / n) * scaled.estimate
                assert lifted.estimate == pytest.approx(lift, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lam, n, u0", [(2.0, 1, 1e300), (1.6, 1, 1e-200), (3.0, 2, 1e250)])
    def test_from_stays_in_floats_where_the_scaled_integral_leaves_them(self, lam, n, u0):
        # int_u0^inf U^(-lam/n + 1/n - 1) dU = n u0^((1-lam)/n) / (lam - 1) is a
        # float although u0^(-lam/n) under- or overflows: the scaled estimate
        # reads 0.0 or inf there, and no OverflowError escapes
        exact = n * u0 ** ((1.0 - lam) / n) / (lam - 1.0)
        assert classify_from(make_power(lam), n, u0).estimate == pytest.approx(exact, rel=1e-14, abs=0.0)
        assert classify_scaled(make_power(lam), n, u0).estimate in (0.0, math.inf)
        assert classify_from(make_power_log(lam, 1.0), n, u0).estimate > 0.0


class TestAgainstClosedForm:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(lam=st.one_of(st.just(1.0), st.floats(0.0, 3.0)), sigma=st.floats(-3.0, 3.0),
           kind=st.sampled_from(["undeclared", "declared", "powerlog"]), n=st.integers(1, 3))
    def test_verdicts(self, lam, sigma, kind, n):
        # I(s^lam log(e+s)^sigma, n) converges iff lam > 1, or lam = 1 and sigma > n
        if kind == "powerlog":
            h = make_power_log(lam, sigma)
        else:
            h = make_custom(lambda s: s ** lam * math.log(math.e + s) ** sigma,
                            asymptotic_exponent=lam if kind == "declared" else None)
        v = classify(h, n)
        if v.verdict is not Verdict.INCONCLUSIVE:
            assert (v.verdict is Verdict.CONVERGES) == (lam > 1.0 or (lam == 1.0 and sigma > n))
        elif kind != "undeclared":
            # an undeclared h is integrated out to the float range, where a
            # rest near lam = 1 may still be too large to settle; the other
            # kinds are settled exactly
            assert lam == 1.0


def mp_integral(h, n, alpha=1.0):
    """int_1^inf h(alpha s)^(-1/n) s^(1/n - 1) ds in mpmath, in y = log s out to
    y = 1e36 (the slowest tail below, y^(-1.5), leaves < 1e-17 past it); 50
    digits keep h(alpha e^y)^(-1/n) e^(y/n) exact to 1e-13 there."""
    with mpmath.workdps(50):
        f = lambda y: h(alpha * mpmath.exp(y)) ** (-mpmath.mpf(1) / n) * mpmath.exp(y / n)
        return float(mpmath.quad(f, [0, 1, 10, 100, 1e3, 1e4, 1e6, 1e9, 1e12, 1e18, 1e24, 1e36]))


class TestEstimateOracles:
    @pytest.mark.parametrize("lam,sigma,shift,n", [
        (2.0, 1.0, math.e, 1), (1.5, -1.0, 2.0, 2), (3.0, 2.5, math.e, 3),   # lam > 1
        (1.0, 2.0, math.e, 1), (1.0, 3.5, 2.0, 2), (1.0, 4.5, math.e, 3),   # lam = 1, sigma > n
    ])
    @pytest.mark.parametrize("alpha", [None, 30.0])
    def test_powerlog(self, lam, sigma, shift, n, alpha):
        h = make_power_log(lam, sigma, shift)
        v = classify(h, n) if alpha is None else classify_scaled(h, n, alpha)
        oracle = mp_integral(lambda s: s ** lam * mpmath.log(shift + s) ** sigma, n, alpha or 1.0)
        assert v.method is Method.EXACT_FAMILY
        assert v.estimate == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha", [None, 0.01])
    def test_declared_exponent(self, n, alpha):
        # and its undeclared twin, which the numeric path settles to the same accuracy
        oracle = mp_integral(lambda s: 3 * s ** 2 * mpmath.log(mpmath.e + s), n, alpha or 1.0)
        for declared, method in [(2.0, Method.EXACT_FAMILY), (None, Method.NUMERIC_HEURISTIC)]:
            h = make_custom(lambda s: 3.0 * s ** 2 * np.log(np.e + s), asymptotic_exponent=declared)
            v = classify(h, n) if alpha is None else classify_scaled(h, n, alpha)
            assert v.method is method
            assert v.estimate == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n, oracle", [
        (2, math.sqrt(2.0 * math.pi) * math.erfc(math.sqrt(0.5))),  # int_1^inf e^(-s/2) s^(-1/2) ds
        (3, 1.0916277113053613),                                     # mpmath
    ], ids=["n2", "n3"])
    def test_exponential_h(self, n, oracle):
        # h = e^s overflows at s ~ 709.8, where the integrand is long decayed
        v = classify(make_custom(lambda s: np.exp(s)), n)
        assert v.verdict is Verdict.CONVERGES
        assert v.method is Method.NUMERIC_HEURISTIC
        assert v.estimate == pytest.approx(oracle, rel=1e-12)


def test_determinism():
    h = make_custom(lambda s: s * s, label="s^2")
    a = classify(h, 1)
    b = classify(h, 1)
    assert a == b
