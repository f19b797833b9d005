"""``grid_bracket``'s numpy screen, apart from any solver's objective."""

import math

import numpy as np
from hypothesis import assume, given, strategies as st

from dpsrk._search import SCREEN_SLACK, grid_bracket

finite = st.one_of(st.sampled_from([-1.0, 0.0, 2.5]), st.floats(-1e3, 1e3))


@st.composite
def grid_point(draw):
    """(screen value, scale, scalar value), the scalar within SCREEN_SLACK * scale."""
    kind = draw(st.sampled_from(["finite", "nan", "inf", "inf-scale"]))
    if kind == "nan":
        return math.nan, 1.0, math.nan
    if kind == "inf":
        return math.inf, 1.0, math.inf
    if kind == "inf-scale":  # as the NEP screen scales a zero-efficiency point
        return math.inf, math.inf, math.inf
    value, scale = draw(finite), draw(st.floats(0.0, 1e10))
    return value, scale, value + draw(st.floats(-1.0, 1.0)) * (SCREEN_SLACK * scale)


def scan(points, lo, hi, ceiling, screened):
    """``grid_bracket`` over the drawn points, and the grids it handed out."""
    n = len(points) - 1
    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    index = {x: i for i, x in enumerate(xs)}
    assume(len(index) == n + 1)
    values, scales, scalars = (np.array(column) for column in zip(*points))
    grids = []

    def screen(grid):
        grids.append(grid)
        return values, scales, ceiling

    result = grid_bracket(lambda x: scalars[index[x]], lo, hi, n, screen if screened else None)
    return result, grids, xs


@given(
    points=st.lists(grid_point(), min_size=2, max_size=40),
    lo=st.floats(-10.0, 10.0),
    width=st.floats(1e-3, 10.0),
    ceiling=st.one_of(st.just(0.0), st.just(math.inf), finite),
)
def test_screened_scan_is_the_full_scan(points, lo, width, ceiling):
    full, _, _ = scan(points, lo, lo + width, ceiling, screened=False)
    screened, grids, xs = scan(points, lo, lo + width, ceiling, screened=True)
    # the screen sees the scan's own points
    assert len(grids) == 1 and grids[0].tolist() == xs
    if full[2] < ceiling:
        assert screened == full
    else:
        assert screened[2] >= ceiling


@given(
    values=st.lists(st.one_of(finite, st.just(math.inf)), min_size=2, max_size=40),
    ceiling=st.one_of(st.just(0.0), finite),
)
def test_nothing_below_the_ceiling_returns_inf(values, ceiling):
    # every value at or above the ceiling, with no slack: no point is scored
    points = [(max(v, ceiling), 0.0, max(v, ceiling)) for v in values]
    (a, b, best), _, xs = scan(points, 0.0, 1.0, ceiling, screened=True)
    assert (a, b, best) == (xs[0], xs[1], math.inf)
