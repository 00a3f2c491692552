# Detecting finite-time blow-up and estimating the blow-up time.
#
# The solver integrates until the state escapes a ladder of thresholds
# (10, ..., 1e12 by default).  Where the integral test's tail is exact, as
# for the two examples below (q constant, h a power or powerlog, order 1),
# each threshold escaped asks that tail, read from the last accepted
# integration node before the escape, for the remaining time; the first
# blow-up time within the horizon ends the run.  Elsewhere the same run
# goes on and extrapolates the escape times t_M to M -> infinity.  The
# quadratic example w' = w^2, w(0) = 1 has the exact blow-up time T = 1
# (w = 1/(1-t)); the log-driven example has
# T = int_1^inf ds / (s log^2(e+s)), computable by quadrature.

import math

import numpy as np

from blowup import (
    PowerFamilyParams,
    ProblemSpec,
    detect_blowup,
    make_constant,
    make_power,
    make_power_log,
)
from blowup.quadrature import integral

one = make_constant(1.0)

print("quadratic blow-up, exact T = 1:")
p = ProblemSpec(m=1, k=0, a=(1.0,), q=one, h=make_power(2))
rep = detect_blowup(p, thresholds=(1e3, 1e6, 1e9), horizon=2.0, tol=1e-10)
for M, tM in rep.escape_thresholds:
    print(f"  escaped {M:>10.0e} at t = {tM:.12f}")
print(f"  blow-up time ({rep.t_blow_method}): {rep.t_blow_estimate:.12f}"
      f"  (error {abs(rep.t_blow_estimate - 1.0):.2e})")
print(f"  bracketing interval: [{rep.t_blow_interval[0]:.9f}, {rep.t_blow_interval[1]:.9f}]")

print()
print("log-driven blow-up, T from separation of variables:")
h = make_power_log(PowerFamilyParams(1.0, 2.0, math.e))
# int_1^inf ds/h(s) on the dyadic panels [2^j, 2^(j+1)], j < 200, with the
# tail past 2^200 in closed form (s log(e+s)^2 ~ s log(s)^2 there)
T_exact = integral(lambda s: 1.0 / (s * np.log(np.e + s) ** 2), 2.0 ** np.arange(201))
T_exact += 1.0 / math.log(math.e + 2.0 ** 200)
p = ProblemSpec(m=1, k=0, a=(1.0,), q=one, h=h)
rep = detect_blowup(p, horizon=3.0, tol=1e-10)
print(f"  quadrature value:  {T_exact:.10f}")
print(f"  escape estimate:   {rep.t_blow_estimate:.10f}"
      f"  (relative error {abs(rep.t_blow_estimate - T_exact) / T_exact:.2e})")

print()
print("sub-threshold growth is reported honestly:")
p = ProblemSpec(m=1, k=0, a=(1.0,), q=one, h=make_power(1))
rep = detect_blowup(p, thresholds=(1e3, 1e6, 1e9), horizon=20.0, tol=1e-9)
print(f"  w' = w on [0, 20]: {rep.kind.value} "
      f"({len(rep.escape_thresholds)} of 3 thresholds escaped; e^20 < 1e9)")
