import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.quadrature import QUAD_TOL, gauss_rules, panels


def panels_evaluating_every_panel(f, edges):
    """The halving loop that evaluates f on every panel in every round: the
    reference :func:`panels` must match bit for bit."""
    (x20, w20), (x11, w11) = gauss_rules()
    x, budget = np.concatenate([x20, x11]), None
    for _ in range(64):
        mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
        fv = f(mid[:, None] + half[:, None] * x)
        val = half * (fv[:, : len(w20)] @ w20)
        budget = QUAD_TOL * np.abs(val) if budget is None else budget
        bad = np.abs(val - half * (fv[:, len(w20) :] @ w11)) > budget
        if not bad.any():
            return edges, val
        edges = np.insert(edges, np.flatnonzero(bad) + 1, mid[bad])
        budget = np.repeat(budget, np.where(bad, 2, 1))
    raise AssertionError("reference did not settle")


class Counted:
    """f with a count of the points it was evaluated at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, y):
        self.points += y.size
        return self.f(y)


class TestPanels:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(lam=st.floats(1.01, 4.0), sigma=st.floats(-1.0, 3.0), width=st.floats(0.5, 60.0),
           pieces=st.integers(1, 12))
    def test_same_bits_as_evaluating_every_panel(self, lam, sigma, width, pieces):
        # the dichotomy integrand of s^lam log(e+s)^sigma in y = log s
        def f(y):
            return np.exp((1.0 - lam) * y) * np.log(math.e + np.exp(y)) ** -sigma

        edges = np.linspace(0.0, width, pieces + 1)
        counted = Counted(f)
        got, ref = panels(counted, edges), panels_evaluating_every_panel(f, edges)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()
        # every panel is evaluated once, when it is made
        assert counted.points == (2 * len(got[1]) - len(edges) + 1) * 31

    def test_a_jump_is_resolved_once(self):
        # a step inside one of four panels: only that panel's halves are redone
        counted = Counted(lambda y: np.where(y < 1.3, 1.0, 2.0))
        edges, val = panels(counted, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert float(np.sum(val)) == pytest.approx(6.7, rel=1e-12)
        assert counted.points == (2 * len(val) - 4) * 31
