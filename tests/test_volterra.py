import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import volterra
from blowup.errors import InvalidParameterError, NumericFailureError
from blowup.volterra import partial_volterra, weighted_volterra


def cold(fn, *args):
    """fn(*args) with no kernel weights cached."""
    volterra._WEIGHTS.clear()
    return fn(*args)


class TestExactCases:
    def test_constant_p2(self):
        g = np.linspace(0, 1, 9)
        out = weighted_volterra(np.ones_like(g), 2, g)
        assert out[-1] == pytest.approx(0.5, abs=1e-15)

    def test_running_integral_of_identity(self):
        g = np.linspace(0, 2, 9)
        out = weighted_volterra(g, 1, g)
        assert out[-1] == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(out, g ** 2 / 2, atol=1e-14)

    def test_threefold_of_one(self):
        g = np.linspace(0, 1, 9)
        out = weighted_volterra(np.ones_like(g), 3, g)
        assert out[-1] == pytest.approx(1 / 6, rel=1e-13)

    def test_cubic_phi_exact(self):
        # product rule integrates piecewise-cubic data exactly
        g = np.linspace(0, 2, 17)
        phi = 1.0 + g - 2.0 * g ** 2 + 0.5 * g ** 3
        out = weighted_volterra(phi, 2, g)
        # analytic: int_0^t (t-tau) phi(tau) dtau
        t = g
        exact = (t**2 / 2 + t**3 / 6 - 2 * t**4 / 12 + 0.5 * t**5 / 20)
        assert np.allclose(out, exact, atol=1e-13)

    def test_callable_phi(self):
        g = np.linspace(0, 1, 9)
        assert weighted_volterra(lambda t: 1.0, 2, g)[-1] == pytest.approx(0.5)


class TestAccuracy:
    def test_fourth_order_convergence(self):
        exact = 1.0 - math.cos(1.0)  # int_0^1 (1-tau) cos tau dtau
        errs = []
        for n in (17, 33, 65):
            g = np.linspace(0, 1, n)
            errs.append(abs(weighted_volterra(np.cos(g), 2, g)[-1] - exact))
        assert errs[0] / errs[1] > 8.0
        assert errs[1] / errs[2] > 8.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_sixth_order_convergence(self, p):
        # the p-fold integral of cos over [0, 1]: sin 1, 1 - cos 1, 1 - sin 1
        exact = [math.sin(1.0), 1.0 - math.cos(1.0), 1.0 - math.sin(1.0)][p - 1]
        errs = []
        for n in (17, 33, 65):
            g = np.linspace(0, 1, n)
            errs.append(abs(weighted_volterra(np.cos(g), p, g)[-1] - exact))
        assert errs[0] / errs[1] >= 40.0
        assert errs[1] / errs[2] >= 40.0

    @pytest.mark.parametrize("n", [5, 6, 7, 33])
    def test_quintic_phi_exact_on_uniform_grids(self, n):
        # from 6 nodes on, every cell integrates the quintic through its
        # stencil; 5 nodes give one quartic stencil, exact for a quartic
        g = np.linspace(0.0, 2.0, n)
        coeffs = [0.3, -1.0, 0.5, 2.0, -0.7, 0.25][: min(n, 6)]
        phi = sum(c * g ** d for d, c in enumerate(coeffs))
        for p in (1, 2, 3, 4):
            terms = [c * math.factorial(d) / math.factorial(d + p) * g ** (d + p) for d, c in enumerate(coeffs)]
            err = np.max(np.abs(cold(weighted_volterra, phi, p, g) - sum(terms)))
            assert err <= 1e-13 * np.max(sum(np.abs(t) for t in terms))

    def test_fallback_cells_on_a_graded_grid(self):
        # t_j = (j/N)^4: the first cells' stencils span cells far more than 2x
        # apart and take the centred 4 nodes, with zero weight on the outer
        # two slots; later cells keep all six; cubics stay exact everywhere
        g = 0.5 * (np.arange(65) / 64.0) ** 4
        wts = volterra._grid_weights(g, 3)
        assert 5 <= len(wts.narrow) < 32 and wts.narrow[0] == 0
        assert np.array_equal(wts.narrow, np.arange(len(wts.narrow)))
        assert np.all(wts.W[:, [0, 5]][:, :, wts.narrow] == 0.0)
        wide = np.setdiff1d(np.arange(64), wts.narrow)
        assert np.all(wts.W[:, [0, 5]][:, :, wide] != 0.0)
        coeffs = [0.5, -1.0, 2.0, 0.75]
        phi = sum(c * g ** d for d, c in enumerate(coeffs))
        for p in (1, 2, 3):
            terms = [c * math.factorial(d) / math.factorial(d + p) * g ** (d + p) for d, c in enumerate(coeffs)]
            err = np.max(np.abs(weighted_volterra(phi, p, g) - sum(terms)))
            assert err <= 1e-13 * np.max(sum(np.abs(t) for t in terms))

    def test_nonuniform_grid(self):
        rng = np.random.default_rng(0)
        g = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 120))))
        exact = 1.0 - math.cos(1.0)
        assert weighted_volterra(np.cos(g), 2, g)[-1] == pytest.approx(exact, abs=1e-8)

    def test_repeated_integration_identity(self):
        # p-fold kernel equals p nested running integrals, smooth phi
        g = np.linspace(0, 1, 513)
        phi = np.sin(g) + 1.0
        for p in (2, 3):
            direct = weighted_volterra(phi, p, g)
            nested = phi.copy()
            for _ in range(p):
                nested = weighted_volterra(nested, 1, g)
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(direct - nested)) <= 1e-8 * scale


class TestPartial:
    def test_matches_full_on_own_grid(self):
        g = np.linspace(0, 2, 33)
        phi = np.exp(g)
        for p in (1, 2, 3):
            a = weighted_volterra(phi, p, g) * math.factorial(p - 1)
            b = partial_volterra(phi, p, g, g)
            assert np.allclose(a, b, rtol=1e-13, atol=1e-15)

    def test_block_additivity_at_jump(self):
        # a genuinely discontinuous integrand, jump aligned with a node:
        # int_0^t (t-tau) c(tau) dtau with c = 1 on [0,1), c = 3 on [1,2]
        g = np.linspace(0, 2, 41)
        cut = 20  # node at tau = 1
        left = partial_volterra(np.ones(cut + 1), 2, g[: cut + 1], g)
        right = partial_volterra(3.0 * np.ones(41 - cut), 2, g[cut:], g)
        total = left + right
        t = 2.0
        exact = (t - 0.5) + 3.0 * 0.5  # int (2-tau)*1 on [0,1] + int (2-tau)*3 on [1,2]
        assert total[-1] == pytest.approx(exact, rel=1e-13)

    def test_cells_below_the_rounding_slack(self):
        # a graded grid's first cells can be far narrower than 1e-12: a node
        # target must still read its own node, not extend back from a later one
        g = 0.5 * (np.arange(9) / 8192.0) ** 3
        got = partial_volterra(np.ones(9), 2, g, g)
        assert got[0] == 0.0 and np.allclose(got, g ** 2 / 2, rtol=1e-13, atol=0.0)


class TestKernelContract:
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(
        steps=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=40),
        coeffs=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        p=st.integers(1, 4),
    )
    def test_random_cubic_on_random_grid_is_exact(self, steps, coeffs, p):
        # the rule reproduces any cubic phi on any grid (spacing ratio <= 20),
        # on 6-node and 4-node fallback cells alike, from freshly built and
        # from cached weights
        g = np.concatenate(([0.0], np.cumsum(steps)))
        phi = sum(c * g ** d for d, c in enumerate(coeffs))
        terms = [
            c * math.factorial(d) / math.factorial(d + p) * g ** (d + p)
            for d, c in enumerate(coeffs)
        ]
        exact = sum(terms)
        scale = np.max(sum(np.abs(t) for t in terms))
        first = cold(weighted_volterra, phi, p, g)
        warm = weighted_volterra(phi, p, g)
        assert np.array_equal(first, warm)
        err = np.max(np.abs(warm - exact))
        assert err <= 1e-11 * max(scale, 1e-300)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.floats(0.5, 1.0), min_size=5, max_size=40),
        coeffs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
        p=st.integers(1, 4),
    )
    def test_random_quintic_on_a_grid_within_2x_is_exact(self, steps, coeffs, p):
        # neighbouring spans within 2x of each other: no cell falls back, and
        # every cell's stencil reproduces a quintic
        g = np.concatenate(([0.0], np.cumsum(steps)))
        phi = sum(c * g ** d for d, c in enumerate(coeffs))
        terms = [c * math.factorial(d) / math.factorial(d + p) * g ** (d + p) for d, c in enumerate(coeffs)]
        assert len(cold(volterra._grid_weights, g, p).narrow) == 0
        err = np.max(np.abs(weighted_volterra(phi, p, g) - sum(terms)))
        assert err <= 1e-11 * max(np.max(sum(np.abs(t) for t in terms)), 1e-300)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        cells=st.integers(1, 300),
        grading=st.sampled_from([1, 2, 3]),
        p=st.integers(1, 6),
        seed=st.integers(0, 2 ** 32 - 1),
        scale=st.floats(-30.0, 30.0),
    )
    def test_fused_carry_equals_one_order_at_a_time(self, cells, grading, p, seed, scale):
        # the stencil sums of every order in one pass give the bits of one
        # stencil sum per order, on uniform and graded grids
        g = 2.0 * (np.arange(cells + 1) / cells) ** grading
        phi = np.random.default_rng(seed).standard_normal(cells + 1) * 10.0 ** scale
        wts = volterra._grid_weights(g, p)
        stencil = phi[wts.idx]
        want = np.zeros((p, cells + 1))
        for r in range(1, p + 1):
            inc = np.einsum("sj,sj->j", wts.W[r - 1], stencil)
            for s in range(1, r):
                inc += want[r - s - 1, :-1] * wts.taylor[s - 1]
            np.cumsum(inc, out=want[r - 1, 1:])
        assert np.array_equal(volterra._carry(phi, p, wts), want)

    def test_partial_targets_off_the_nodes(self):
        # targets before the span, between nodes, on a node and past the end:
        # the span integral runs up to the last node t_k <= t, kernel (t - tau)^(p-1)
        coeffs = [0.5, -1.0, 2.0, 0.75]
        span = np.linspace(1.0, 2.0, 9)
        phi = np.polynomial.Polynomial(coeffs)(span)
        targets = np.array([0.5, 1.1, 1.3, 1.5, 2.0, 2.7])
        last_node = np.array([1.0, 1.0, 1.25, 1.5, 2.0, 2.0])
        p = 3
        got = partial_volterra(phi, p, span, targets)
        for t, t_k, val in zip(targets, last_node, got):
            integrand = np.polynomial.Polynomial([t, -1.0]) ** (p - 1) * np.polynomial.Polynomial(coeffs)
            F = integrand.integ()
            exact = F(t_k) - F(1.0)
            assert val == pytest.approx(exact, rel=1e-12, abs=1e-14)
        assert got[0] == 0.0 and got[1] == 0.0


class TestValidation:
    def test_bad_grid(self):
        with pytest.raises(InvalidParameterError):
            weighted_volterra([1.0, 1.0], 1, [0.0, 0.0])
        with pytest.raises(InvalidParameterError):
            weighted_volterra([1.0], 1, [0.0])

    def test_bad_order(self):
        g = np.linspace(0, 1, 5)
        with pytest.raises(InvalidParameterError):
            weighted_volterra(np.ones(5), 0, g)
        with pytest.raises(InvalidParameterError):
            weighted_volterra(np.ones(5), 2.5, g)

    def test_phi_shape(self):
        with pytest.raises(InvalidParameterError):
            weighted_volterra(np.ones(4), 1, np.linspace(0, 1, 5))

    def test_tiny_grids(self):
        # width degrades gracefully below 6 nodes
        g = np.array([0.0, 1.0])
        assert weighted_volterra(np.array([0.0, 2.0]), 1, g)[-1] == pytest.approx(1.0)
        g3 = np.array([0.0, 0.5, 1.0])
        out = weighted_volterra(g3 ** 2, 1, g3)  # quadratic exactly integrable at w=3
        assert out[-1] == pytest.approx(1 / 3, rel=1e-14)

    @pytest.mark.parametrize(
        "grid", [[math.nan, 1.0, 2.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.inf]]
    )
    def test_non_finite_grid_is_refused_and_not_cached(self, grid):
        volterra._WEIGHTS.clear()
        with pytest.raises(InvalidParameterError):
            weighted_volterra([1.0, 1.0, 1.0], 1, grid)
        with pytest.raises(InvalidParameterError):
            partial_volterra([1.0, 1.0, 1.0], 1, grid, [0.5])
        assert not volterra._WEIGHTS

    def test_partial_checks_its_input_like_the_full_kernel(self):
        targets = [1.5, 3.0]
        with pytest.raises(InvalidParameterError):  # unsorted span
            partial_volterra([1.0, 1.0, 1.0], 1, [0.0, 2.0, 1.0], targets)
        with pytest.raises(InvalidParameterError):  # repeated node
            partial_volterra([1.0, 1.0, 1.0], 1, [0.0, 1.0, 1.0], targets)
        with pytest.raises(NumericFailureError):  # non-finite sample
            partial_volterra([1.0, math.nan, 1.0], 1, [0.0, 1.0, 2.0], targets)
        with pytest.raises(InvalidParameterError):
            partial_volterra(np.ones(3), 13, [0.0, 1.0, 2.0], targets)
        with pytest.raises(InvalidParameterError):
            partial_volterra(np.ones(2), 1, [0.0, 1.0, 2.0], targets)


class TestWeightCache:
    """Cached grid weights give the same bits as a cold build."""

    def test_warm_calls_equal_cold(self):
        g = np.linspace(0.0, 3.0, 257)
        phi = np.exp(-g) * np.cos(4 * g)
        for p in (1, 3, 4):
            first = cold(weighted_volterra, phi, p, g)
            assert np.array_equal(weighted_volterra(phi, p, g), first)
            assert np.array_equal(weighted_volterra(phi, p, g), first)

    def test_lower_order_from_a_higher_order_entry(self):
        # order 1 is built alone, then the entry is rebuilt for order 3, and
        # order 1 is read back from it
        g = np.cumsum(np.linspace(0.05, 1.0, 40))
        phi = np.sin(g) + 2.0
        want = {p: cold(weighted_volterra, phi, p, g) for p in (1, 3)}
        volterra._WEIGHTS.clear()
        for p in (1, 3, 1):
            assert np.array_equal(weighted_volterra(phi, p, g), want[p])
        assert len(volterra._WEIGHTS) == 1

    def test_an_entry_counts_its_bytes(self):
        # the eviction walk reads each entry's stored count: it is the bytes of
        # the entry's arrays after a build and after a raise from order 1 to 3
        # (a grid with fallback cells, so that every array holds some)
        g = np.concatenate([np.linspace(0.0, 0.01, 9), np.linspace(0.02, 1.0, 50)])
        cold(weighted_volterra, np.cos(g), 1, g)
        built = volterra._WEIGHTS[g.tobytes()]
        weighted_volterra(np.cos(g), 3, g)
        raised = volterra._WEIGHTS[g.tobytes()]
        assert (built.order, raised.order) == (1, 3) and len(built.narrow)
        for wts in (built, raised, volterra._grid_weights(g, 3)):
            assert wts.nbytes == sum(a.nbytes for a in wts if isinstance(a, np.ndarray))
        assert raised.nbytes > built.nbytes

    def test_more_grids_than_slots(self, monkeypatch):
        # a budget of four entries of these equal-sized grids keeps the four
        # most recently used
        grids = [np.linspace(0.0, 1.0 + k, 65) for k in range(6)]
        monkeypatch.setattr(volterra, "_CACHE_BYTES", 4 * volterra._grid_weights(grids[0], 2).nbytes)
        want = [cold(weighted_volterra, np.cos(g), 2, g) for g in grids]
        volterra._WEIGHTS.clear()
        for order in (range(len(grids)), reversed(range(len(grids))), range(len(grids))):
            for k in order:
                g = grids[k]
                assert np.array_equal(weighted_volterra(np.cos(g), 2, g), want[k])
        assert list(volterra._WEIGHTS) == [g.tobytes() for g in grids[2:]]

    def test_an_entry_over_the_budget_is_kept_alone(self, monkeypatch):
        g, small = np.linspace(0.0, 1.0, 257), np.linspace(0.0, 1.0, 9)
        monkeypatch.setattr(volterra, "_CACHE_BYTES", volterra._grid_weights(g, 3).nbytes - 1)
        volterra._WEIGHTS.clear()
        weighted_volterra(np.ones(9), 1, small)
        want = cold(weighted_volterra, np.cos(g), 3, g)
        assert np.array_equal(weighted_volterra(np.cos(g), 3, g), want)
        assert list(volterra._WEIGHTS) == [g.tobytes()]

    def test_sub_grids_alternating_with_the_full_grid(self):
        # the access pattern of a piecewise-q tower plus a full-span operator
        g = np.linspace(0.0, 3.0, 97)
        cuts = [(0, 32), (32, 64), (64, 96)]
        phi = 1.0 + g ** 2
        want_full = cold(weighted_volterra, phi, 3, g)
        want_sub = [cold(partial_volterra, phi[i0 : i1 + 1], 3, g[i0 : i1 + 1], g) for i0, i1 in cuts]
        volterra._WEIGHTS.clear()
        for _ in range(3):
            for (i0, i1), want in zip(cuts, want_sub):
                assert np.array_equal(partial_volterra(phi[i0 : i1 + 1], 3, g[i0 : i1 + 1], g), want)
            assert np.array_equal(weighted_volterra(phi, 3, g), want_full)

    def test_grid_changed_in_place(self):
        g = np.linspace(0.0, 2.0, 17)
        phi = np.ones_like(g)
        before = cold(weighted_volterra, phi, 2, g)
        g *= 2.0  # same array object, new nodes
        after = weighted_volterra(phi, 2, g)
        assert np.array_equal(after, cold(weighted_volterra, phi, 2, g.copy()))
        assert after[-1] == pytest.approx(8.0, rel=1e-14) and before[-1] == pytest.approx(2.0, rel=1e-14)

    def test_repeated_grid_keeps_its_key_and_a_changed_one_is_checked(self):
        # equal bytes reuse the last key object (whose hash is cached), from
        # another array too; a grid changed in place right after a warm call
        # is a new key and goes through the grid checks again
        g = np.linspace(0.0, 2.0, 17)
        phi = np.ones_like(g)
        want = cold(weighted_volterra, phi, 2, g)
        key = volterra._LAST_KEY
        assert key == g.tobytes()
        assert np.array_equal(weighted_volterra(phi, 2, g.copy()), want)
        assert volterra._LAST_KEY is key
        g[3] = g[2]  # same array object, a repeated node
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            weighted_volterra(phi, 2, g)

    def test_an_entry_built_while_another_thread_caches_its_grid(self, monkeypatch):
        # a thread misses on g at order 3 and builds; meanwhile g is cached
        # at order 1 and h at order 3, which fill the budget.  The thread's
        # entry goes in newest, so h is evicted instead of staying beside it
        # over the budget
        g, h = np.linspace(0.0, 1.0, 129), np.linspace(0.0, 2.0, 129)
        want = cold(weighted_volterra, np.cos(g), 3, g)
        real = volterra._grid_weights
        monkeypatch.setattr(volterra, "_CACHE_BYTES", real(h, 3).nbytes + real(g, 1).nbytes)
        volterra._WEIGHTS.clear()
        started, resume, got = threading.Event(), threading.Event(), []

        def paused(grid, p):
            if threading.current_thread() is worker:
                started.set()
                resume.wait(timeout=60)
            return real(grid, p)

        monkeypatch.setattr(volterra, "_grid_weights", paused)
        worker = threading.Thread(target=lambda: got.append(weighted_volterra(np.cos(g), 3, g)))
        worker.start()
        assert started.wait(timeout=60)
        weighted_volterra(np.cos(g), 1, g)
        weighted_volterra(np.cos(h), 3, h)
        resume.set()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(got) == 1 and np.array_equal(got[0], want)
        assert list(volterra._WEIGHTS) == [g.tobytes()]
        assert sum(w.nbytes for w in volterra._WEIGHTS.values()) <= volterra._CACHE_BYTES

    def test_threads_sharing_the_cache(self, monkeypatch):
        # more threads than cores and grids than the budget holds, switching
        # often: every result still equals its cold value
        grids = [np.linspace(0.0, 1.0 + k, 65 + 16 * k) for k in range(6)]
        monkeypatch.setattr(volterra, "_CACHE_BYTES", 4 * volterra._grid_weights(grids[3], 3).nbytes)
        want = {(k, p): cold(weighted_volterra, np.cos(g), p, g) for k, g in enumerate(grids) for p in (1, 3)}
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(150):
                    k, p = int(rng.integers(len(grids))), int(rng.choice([1, 3]))
                    if not np.array_equal(weighted_volterra(np.cos(grids[k]), p, grids[k]), want[k, p]):
                        errors.append((k, p))
            except Exception as e:  # a thread's exception would otherwise be lost
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert sum(w.nbytes for w in volterra._WEIGHTS.values()) <= volterra._CACHE_BYTES
