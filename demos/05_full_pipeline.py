# The end-to-end pipeline: reduce, classify, then either construct a global
# solution (divergent integral) or hunt the blow-up time (convergent one).
#
# Order reduction: for w^(m) = q(t) h(w^(k)) the function u = w^(k) solves
# the order-(m-k) problem u^(n) = q(t) h(u); a global u lifts back by
# k-fold repeated integration and dominates every admissible right-hand
# side f <= q h.

import numpy as np

from blowup import ProblemSpec, make_constant, make_power, run_pipeline

one = make_constant(1.0)

print("=== global side: w''' = w', mixed data ===")
p = ProblemSpec(m=3, k=1, a=(5.0, 1.0, 1.0), q=one, h=make_power(1))
rep = run_pipeline(p, horizon=5.0)
print(f"label:        {rep.label}")
print(f"reduced:      n = {rep.reduced.n}, data {rep.reduced.a}")
print(f"test:         {rep.classification.verdict.value} ({rep.classification.method.value})")
print(f"tower:        {rep.construction.tower_iterations} iterations, "
      f"sup gap {rep.construction.tower_sup_gap:.2e}")
print(f"cross-check:  |constructed - direct| = {rep.construction.consistency_sup:.2e} "
      f"(gate {rep.construction.consistency_tol:g})")
ts = np.linspace(0.0, 5.0, 6)
vals = rep.constructed(ts)
print("closed form:  reduced u = e^t lifts to v = 4 + e^t")
for t, v in zip(ts, vals[:, 0]):
    print(f"  v({t:.0f}) = {v:12.6f}   (4 + e^t = {4 + np.exp(t):12.6f})")
if rep.majorization is not None:
    print(f"majorization: {len(rep.majorization.rows)} levels, "
          f"margins nonnegative = {rep.majorization.passed}")

print()
print("=== blow-up side: w' = w^2 ===")
p = ProblemSpec(m=1, k=0, a=(1.0,), q=one, h=make_power(2))
rep = run_pipeline(p, horizon=5.0)
print(f"label:      {rep.label}")
print(f"test:       {rep.classification.verdict.value}, integral = {rep.classification.estimate}")
print(f"blow-up at: {rep.blowup.t_blow_estimate:.9f} (exact 1)")
print(f"interval:   {rep.blowup.t_blow_interval}")

print()
print("=== convergent test but tiny data: no escape, honest label ===")
p = ProblemSpec(m=1, k=0, a=(0.0,), q=one, h=make_power(2))
rep = run_pipeline(p, horizon=5.0)
print(f"label: {rep.label}")
for note in rep.notes:
    print(f"note:  {note}")
