# The level-doubling comparison experiment.
#
# On the reduced problem u^(n) = q(t) h(u), pick times t_j where u doubles:
# u(t_j) = 2^j u(t_0).  Map them to
#     tau_j = tau_{j-1} + (t_j - t_{j-1}) + eps_j,  eps_j = int q over the gap,
# and run the autonomous companion w^(n) = h(2w) started strictly above the
# data.  The companion must dominate at the mapped times:
# w^(i)(tau_j) >= u^(i)(t_j) for every derivative order i.  The margins in
# the table below are the checkable content of that comparison argument.

from blowup import ProblemSpec, integrate, make_constant, make_power, majorization_experiment

one = make_constant(1.0)


def majorize(h, n, a, b=None, *, J, horizon, rho=2.0):
    """The table for u^(n) = h(u) from a, on u solved over [0, horizon]."""
    p = ProblemSpec(m=n, k=0, a=a, q=one, h=h)
    return majorization_experiment(p, integrate(p, horizon, 1e-12), b, J, rho=rho)


print("u' = u (so u = e^t, t_j = j ln 2, tau_j = 2 j ln 2):")
tab = majorize(make_power(1), 1, (1.0,), (2.0,), J=6, horizon=10.0)
print(f"  {'j':>2} {'t_j':>10} {'tau_j':>10} {'eps_j':>9} {'u(t_j)':>10} {'w(tau_j)':>12} {'margin':>12}")
for r in tab.rows:
    print(f"  {r.j:>2} {r.t_j:>10.6f} {r.tau_j:>10.6f} {r.eps_j:>9.6f}"
          f" {r.u_derivs[0]:>10.3f} {r.w_derivs[0]:>12.3f} {r.margin_min:>12.4g}")
print(f"  all margins nonnegative: {tab.passed}")

print()
print("u' = 1 (u = 1 + t, levels at t_j = 2^j - 1):")
tab = majorize(make_constant(1.0), 1, (1.0,), (2.0,), J=4, horizon=50.0)
for r in tab.rows:
    print(f"  j={r.j}: t_j = {r.t_j:9.4f}, tau_j = {r.tau_j:9.4f}, margin = {r.margin_min:.4f}")

print()
print("second order, u'' = u with u(0) = u'(0) = 1:")
tab = majorize(make_power(1), 2, (1.0, 1.0), J=6, horizon=20.0)
for r in tab.rows:
    print(f"  j={r.j}: u levels {r.u_derivs[0]:10.3f}, companion {r.w_derivs[0]:12.3f},"
          f" min margin {r.margin_min:10.4g}")
print(f"  passed: {tab.passed} (margins cover both u and u')")

print()
print("the level factor is exposed as a knob (no claim for rho != 2):")
tab = majorize(make_power(1), 1, (1.0,), (2.0,), J=4, horizon=10.0, rho=3.0)
print("  rho=3 levels:", [round(r.u_derivs[0], 3) for r in tab.rows],
      "-> margins still", ["%+.3g" % r.margin_min for r in tab.rows])
