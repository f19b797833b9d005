"""Grid bracketing and golden-section refinement for 1-D minimization.

The optimizers scan a coarse grid first because their objectives are not
unimodal over a wide range (the NEP has one minimum per efficiency fringe;
the secure rate can bend once dead time matters), then refine the bracket
around the best grid point.  A solver may pass ``grid_bracket`` a
``screen``: one numpy pass of its objective over the whole grid
(``detector._nep_grid`` and ``rate._grid_rates``, each beside its solver),
within ``SCREEN_SLACK`` times a scale of the scalar objective.  The scalar
objective then scores only the points that may hold the first minimum.
Importing numpy costs far more than one scalar scan of every point, so the
first screened solve of a process that has not loaded numpy scans every
point instead (``screen_numpy``); either way the bracket is that of a full
scan.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# How far, relative to the scale each screen returns, a scalar objective may
# lie from its numpy pass's value.  The two differ only by the rounding of
# numpy's transcendental functions; the tests hold them to 1e-12.
SCREEN_SLACK = 1e-9

# Whether a solve has asked ``screen_numpy`` before.  A race between threads
# at most lets two solves scan every point, which gives the same bracket.
_solved = False


def screen_numpy():
    """The numpy module for a grid screen, or None to scan every point.

    The first solve in a process that has not loaded numpy gets None: one
    scalar scan of the grid takes a few ms, against about 0.1 s to import
    numpy, so a one-shot CLI solve starts and ends without it.  Every later
    solve, and any solve once numpy is loaded, gets numpy, so a long run
    pays for one scan more at most.
    """
    global _solved
    if _solved or "numpy" in sys.modules:
        import numpy  # here, on first use: importing dpsrk loads no numpy

        return numpy
    _solved = True
    return None


def grid_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    n: int,
    screen: Callable | None = None,
) -> tuple[float, float, float]:
    """Scan ``f`` on ``n + 1`` evenly spaced points of ``[lo, hi]``.

    Returns the grid neighbours ``(a, b)`` of the first minimum and the
    minimum value itself; ``a`` and ``b`` are clipped to the range ends.
    NaN values never win, so an all-NaN scan returns ``inf``.

    ``screen`` takes the grid as a numpy array and returns ``(values,
    scale, ceiling)``: arrays of ``f``'s values, each within
    ``SCREEN_SLACK * scale`` of ``f``'s, and a bound that only a winning
    value lies below.  ``f`` then scores only the points that may hold the
    first minimum, and the result is that of a full scan.  Where ``f``'s
    minimum is not below ``ceiling``, the returned value is not below it
    either (``inf`` when no point is kept), and the bracket may differ.
    """
    np = None if screen is None else screen_numpy()
    indices = range(n + 1)
    if np is not None:
        values, scale, ceiling = screen(lo + (hi - lo) * np.arange(n + 1) / n)
        slack = SCREEN_SLACK * scale
        # a point whose best case lies above another's worst case cannot
        # win, nor can one whose best case is not below the ceiling; inf -
        # inf is NaN, and a NaN point is never kept
        with np.errstate(invalid="ignore"):
            worst = min(ceiling, float((values + slack).min()))
            low = values - slack
            indices = ((low <= worst) & (low < ceiling)).nonzero()[0].tolist()
    best_i, best = 0, math.inf
    for i in indices:
        v = f(lo + (hi - lo) * i / n)
        if v < best:
            best_i, best = i, v
    a = lo + (hi - lo) * max(best_i - 1, 0) / n
    b = lo + (hi - lo) * min(best_i + 1, n) / n
    return a, b, best


def golden_min(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Golden-section search for a minimum of ``f`` in ``[a, b]``.

    Shrinks the bracket below ``tol`` and returns its midpoint.  Ties keep
    the left part, so flat stretches resolve toward smaller arguments.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2.0
