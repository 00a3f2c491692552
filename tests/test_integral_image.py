"""integral_image takes every derivative order from one kernel carry per
block; each column must still be, bit for bit, the seed polynomial plus the
per-order kernel calls it replaces.  The kernel's grid checks are skipped
for a grid whose weights are cached, so a bad grid must be refused whatever
the cache holds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import volterra
from blowup.errors import InvalidParameterError, NumericFailureError
from blowup.volterra import integral_image, partial_volterra, weighted_volterra


def reference_column(a, blocks, grid, i):
    """Column i as the seed polynomial plus one kernel call of order p - i per
    block, summed in block order."""
    p = len(a)
    col = np.zeros(len(grid))
    for j, aj in enumerate(a[i:]):
        col += aj * grid ** j / math.factorial(j)
    order = p - i
    for i0, i1, f in blocks:
        if i0 == 0 and i1 == len(grid) - 1:
            col += weighted_volterra(f, order, grid)
        else:
            col += partial_volterra(f, order, grid[i0 : i1 + 1], grid) / math.factorial(order - 1)
    return col


@st.composite
def grids(draw):
    kind = draw(st.sampled_from(["uniform", "graded", "random"]))
    cells = draw(st.integers(3, 40))
    end = draw(st.floats(0.1, 5.0))
    if kind == "uniform":
        return np.linspace(0.0, end, cells + 1)
    if kind == "graded":
        return end * (np.arange(cells + 1) ** 3 / cells ** 3)
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=cells, max_size=cells))
    return np.concatenate(([0.0], np.cumsum(steps)))


class TestOneCarryPerBlock:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        grid=grids(), p=st.integers(1, 4), n_blocks=st.integers(1, 3),
        a=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
        seed=st.integers(0, 2 ** 32 - 1), data=st.data(),
    )
    def test_columns_equal_the_per_order_kernel_calls(self, grid, p, n_blocks, a, seed, data):
        # 1-3 blocks with edges on nodes: one block may be the full span (the
        # weighted_volterra path) or any sub-span (the partial_volterra path)
        nodes = len(grid)
        n_blocks = min(n_blocks, nodes - 1)
        edges = sorted(data.draw(
            st.lists(st.integers(0, nodes - 1), min_size=n_blocks + 1, max_size=n_blocks + 1, unique=True)))
        rng = np.random.default_rng(seed)
        blocks = [(i0, i1, rng.uniform(-2.0, 2.0) + np.cos(3.0 * grid[i0 : i1 + 1]) * rng.uniform(0.0, 5.0))
                  for i0, i1 in zip(edges, edges[1:])]
        a = a[:p]
        got = integral_image(a, blocks, grid)
        assert got.shape == (nodes, p)
        for i in range(p):
            assert got[:, i].tobytes() == reference_column(a, blocks, grid, i).tobytes()


class TestChecksOnACachedGrid:
    GOOD = np.array([0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [
        [0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 3.0], [3.0, 2.0, 1.0, 0.0],
        [0.0, 1.0, math.nan, 3.0], [0.0, 1.0, 2.0, math.inf],
    ], ids=["unsorted", "repeated", "decreasing", "nan", "inf"])
    def test_bad_grid_refused_after_a_good_one_of_its_length_is_cached(self, bad):
        volterra._WEIGHTS.clear()
        weighted_volterra(np.ones(4), 2, self.GOOD)
        calls = [
            lambda: weighted_volterra(np.ones(4), 2, bad),
            lambda: partial_volterra(np.ones(4), 2, bad, self.GOOD),
            lambda: integral_image([1.0, 0.0], [(0, 3, np.ones(4))], bad),
            lambda: integral_image([1.0, 0.0], (), bad),
        ]
        for call in calls:
            # refused before any arithmetic on the grid: no numpy warning
            with pytest.raises(InvalidParameterError), warnings.catch_warnings():
                warnings.simplefilter("error")
                call()
        assert list(volterra._WEIGHTS) == [self.GOOD.tobytes()]

    def test_phi_checked_on_every_call(self):
        volterra._WEIGHTS.clear()
        weighted_volterra(np.ones(4), 2, self.GOOD)
        with pytest.raises(NumericFailureError):
            weighted_volterra([1.0, math.nan, 1.0, 1.0], 2, self.GOOD)
        with pytest.raises(InvalidParameterError):
            weighted_volterra(np.ones(3), 2, self.GOOD)
        with pytest.raises(InvalidParameterError):
            weighted_volterra(np.ones(4), 13, self.GOOD)

    def test_same_bytes_in_another_shape_are_refused(self):
        # the cache key is the grid's bytes; a 2-D array with a cached grid's
        # bytes is still not a grid
        volterra._WEIGHTS.clear()
        weighted_volterra(np.ones(4), 1, self.GOOD)
        with pytest.raises(InvalidParameterError):
            weighted_volterra(np.ones((2, 2)), 1, self.GOOD.reshape(2, 2))

    def test_each_grid_checked_once_per_image(self, monkeypatch):
        # the image checks its grid before the seed, and each block's kernel
        # call checks that block's slice, a full-span one too
        seen, check = [], volterra._checked_grid
        monkeypatch.setattr(volterra, "_checked_grid", lambda g: seen.append(len(g)) or check(g))
        integral_image([1.0, 0.0], [(0, 3, np.ones(4))], self.GOOD)
        assert seen == [4, 4]
        seen.clear()
        integral_image([1.0, 0.0], [(0, 2, np.ones(3)), (2, 3, np.ones(2))], self.GOOD)
        assert seen == [4, 3, 2]
