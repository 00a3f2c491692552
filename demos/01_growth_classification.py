# Classifying nonlinear growth: convergent integral => finite-time blow-up
# regime (for large data), divergent integral => global existence.
#
# The test integral for a nonlinearity h and reduced order n is
#     I(h, n) = int_1^inf h(s)^(-1/n) s^(1/n - 1) ds.
# For pure powers h(s) = s^lam the answer is exact: divergent iff lam <= 1,
# for every n.  Log factors only matter on the borderline lam = 1.

import math

from blowup import (
    classify,
    classify_scaled,
    make_constant,
    make_custom,
    make_power,
    make_power_log,
)

print("power-law threshold (verdict is the same for every n):")
for n in (1, 2, 3):
    row = []
    for lam in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        v = classify(make_power(lam), n)
        row.append(f"lam={lam}: {v.verdict.value[:4]}")
    print(f"  n={n}: " + "  ".join(row))

print()
print("the borderline lam = 1 is decided by the log power:")
for sigma in (0.5, 1.0, 2.0, 3.0):
    h = make_power_log(1.0, sigma, math.e)
    v = classify(h, 1)
    print(f"  s * log(e+s)^{sigma}: {v.verdict.value}"
          + (f", integral = {v.estimate:.6f}" if v.estimate else ""))

print()
print("scaling the argument never changes the verdict (only the value):")
h = make_power(2)
print(f"  plain:     {classify(h, 1)}")
for alpha in (0.5, 2.0, 10.0):
    print(f"  alpha={alpha:4}: {classify_scaled(h, 1, alpha)}")

print()
print("functions without a declared exponent go through dyadic panels:")
fast = make_custom(lambda s: s ** 3, nonnegative=True, nondecreasing=True,
                   label="cubed (undeclared)")
v = classify(fast, 1)
print(f"  s^3 (undeclared), n=1: {v.verdict.value} after {v.panels_used} panels,"
      f" estimate {v.estimate:.6f} (exact 0.5)")

sqrtish = make_custom(lambda s: s ** 0.5, nonnegative=True, nondecreasing=True,
                      label="sqrt (undeclared)")
v = classify(sqrtish, 1)
print(f"  sqrt (undeclared), n=1: {v.verdict.value} after {v.panels_used} panels"
      f" (cumulative passed the divergence cap)")

# s^2/(1+s) grows only like s at infinity: a true log-divergence that no
# finite panel sum can certify -- the honest verdict is Inconclusive
mystery = make_custom(lambda s: s * s / (1.0 + s), nonnegative=True,
                      nondecreasing=True, label="s^2/(1+s)")
v = classify(mystery, 1)
print(f"  s^2/(1+s), n=1: {v.verdict.value} after {v.panels_used} panels "
      f"(cumulative only {v.evidence['cumulative']:.3g}: too slow to prove)")
