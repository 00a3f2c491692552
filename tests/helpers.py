"""Shared test helpers."""

from blowup.ode import ProblemSpec, integrate
from blowup.pipeline import majorization_experiment


def majorize(q, h, n, a, b=None, *, J, horizon, rho=2.0, tol=1e-12):
    """The majorization table of u^(n) = q(t) h(u) from a, on u solved over
    [0, horizon] at tol (up to its escape), as the CLI's majorize run does."""
    p = ProblemSpec(m=n, k=0, a=a, q=q, h=h)
    return majorization_experiment(p, integrate(p, horizon, tol), b, J, rho=rho)
