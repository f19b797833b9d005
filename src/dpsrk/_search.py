"""Grid bracketing and golden-section refinement for 1-D minimization.

The optimizers scan a coarse grid first because their objectives are not
unimodal over a wide range (the NEP has one minimum per efficiency fringe;
the secure rate can bend once dead time matters), then refine the bracket
around the best grid point.  Both can score their grid in one numpy pass
first (``detector._nep_grid`` and ``rate._grid_rates``, each beside its
solver) and hand ``grid_bracket`` only the points ``first_min_candidates``
keeps, so the scalar objective scores a handful of grid points instead of
all of them.  Importing numpy costs far more than one scalar scan of every
point, so ``screen_numpy`` lets the first solve of a process that has not
loaded numpy scan instead; either way the bracket is that of a full scan.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# How far, relative to the scale each screen passes, a scalar objective may
# lie from its numpy pass's value.  The two differ only by the rounding of
# numpy's transcendental functions; the tests hold them to 1e-12.
SCREEN_SLACK = 1e-9

# Whether a solve has asked ``screen_numpy`` before.  A race between threads
# at most lets two solves scan every point, which gives the same bracket.
_solved = False


def screen_numpy():
    """The numpy module for a solver's grid screen, or None to scan every point.

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
    indices: Iterable[int] | None = None,
) -> tuple[float, float, float]:
    """Scan ``f`` on ``n + 1`` evenly spaced points of ``[lo, hi]``.

    Returns the grid neighbours ``(a, b)`` of the first minimum and the
    minimum value itself; ``a`` and ``b`` are clipped to the range ends.
    NaN values never win, so an all-NaN scan returns ``inf``.  ``indices``,
    increasing, restricts the scan to those grid points, for a caller that
    knows the first minimum is among them; none at all also returns ``inf``.
    """
    best_i, best = 0, math.inf
    for i in range(n + 1) if indices is None else indices:
        v = f(lo + (hi - lo) * i / n)
        if v < best:
            best_i, best = i, v
    a = lo + (hi - lo) * max(best_i - 1, 0) / n
    b = lo + (hi - lo) * min(best_i + 1, n) / n
    return a, b, best


def first_min_candidates(values, slack, ceiling: float = math.inf) -> list[int]:
    """Indices, increasing, of the grid points that may hold the first minimum.

    ``values`` is a numpy array of the grid's objective values, each within
    ``slack`` (an array or a scalar) of what the scalar objective returns.
    A point whose best case lies above another's worst case cannot win, nor
    can one whose best case is not below ``ceiling``.  A NaN value is never
    kept.  Passed to ``grid_bracket``, the kept indices give the bracket and
    minimum of a scan of every point.
    """
    worst = min(ceiling, float((values + slack).min()))
    low = values - slack
    return ((low <= worst) & (low < ceiling)).nonzero()[0].tolist()


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
