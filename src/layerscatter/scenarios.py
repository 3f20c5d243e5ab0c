"""Named parametric structure families for the CLI.

Besides the periodic lattice there are four graded 8-barrier chains that
break the lattice ideality in different ways (linearly graded,
quadratically graded, product-form heights, sinusoidally modulated
heights).  Barrier centers are accumulated left to right from the
per-index width d_n and inter-barrier gap g_n formulas; the span is the
sum of the outer margins, all widths, and all gaps.  Every family builds
the structure's (3, N) array of heights, widths and centers directly.
"""
from __future__ import annotations

import math

import numpy as np

from .periodic import PeriodicLattice
from .structure import LayeredStructure
from .wavefunction import MAX_GRID_POINTS


def _chain(count: int, height, width, gap, media) -> LayeredStructure:
    """Assemble a chain from per-index callables u_n, d_n, g_n (n is
    1-based) and ``media`` = (v_left, v_right, margin), with the same outer
    margin on both sides."""
    v_left, v_right, margin = media
    heights, widths = (np.array([f(n) for n in range(1, count + 1)], float)
                       for f in (height, width))
    # Left edges by one cumulative sum, added in the order of a walk from
    # x = 0: margin, d_1, g_1, d_2, ..., g_{N-1}, d_N (and a trailing 0).
    steps = np.zeros(2 * widths.size + 1)
    steps[0], steps[1::2] = margin, widths
    steps[2:-1:2] = [gap(n) for n in range(1, count)]
    x = np.cumsum(steps)
    centers = x[0:-1:2] + widths / 2.0
    return LayeredStructure(v_left, v_right, float(x[-1] + margin),
                            np.array([heights, widths, centers]))


def periodic_chain(
    barrier_height: float = 3.0,
    barrier_width: float = 1.0,
    period: float = 2.0,
    count: int = 8,
    first_center: float | None = None,
    v_left: float = 0.0,
    v_right: float = 0.0,
) -> LayeredStructure:
    """Identical equidistant barriers; defaults give the reference lattice
    (height*width^2 = 3, period/width = 2)."""
    lat = PeriodicLattice(barrier_height, barrier_width, period, count, first_center)
    return lat.to_structure(v_left, v_right)


def graded_linear(count: int = 8) -> LayeredStructure:
    """Heights and widths grow linearly, gaps shrink linearly:
    u_n = 4 + 0.35 n, d_n = 1 + 0.1 n, g_n = 1 - 0.1 n, media 2 and 1."""
    return _chain(count, height=lambda n: 4.0 + 0.35 * n, width=lambda n: 1.0 + 0.1 * n,
                  gap=lambda n: 1.0 - 0.1 * n, media=(2.0, 1.0, 0.75))


def graded_quadratic(count: int = 8) -> LayeredStructure:
    """Heights and widths grow quadratically, gaps linearly:
    u_n = 0.05 n^2, d_n = 1 + 0.1 n^2, g_n = 1 + 0.1 n, media 2 and 1."""
    return _chain(count, height=lambda n: 0.05 * n * n, width=lambda n: 1.0 + 0.1 * n * n,
                  gap=lambda n: 1.0 + 0.1 * n, media=(2.0, 1.0, 0.75))


def graded_product(count: int = 8, m: int | None = None) -> LayeredStructure:
    """Product-form heights u_n = 0.035 n (m - n + 1) with m defaulting to
    the barrier count, d_n = 0.2 n + 0.1 n^2, g_n = 0.1 n^2, media 0.5/0.75."""
    if m is None:
        m = count
    return _chain(count, height=lambda n: 0.035 * n * (m - n + 1),
                  width=lambda n: 0.2 * n + 0.1 * n * n, gap=lambda n: 0.1 * n * n,
                  media=(0.5, 0.75, 1.0))


def modulated_sin(count: int = 8) -> LayeredStructure:
    """Equidistant unit-width barriers with heights u_n = 4 sin^2(n),
    unit gaps, media 0.5/0.75."""
    return _chain(count, height=lambda n: 4.0 * math.sin(n) ** 2, width=lambda n: 1.0,
                  gap=lambda n: 1.0, media=(0.5, 0.75, 1.0))


SCENARIOS = {
    "periodic": periodic_chain,
    "graded-linear": graded_linear,
    "graded-quadratic": graded_quadratic,
    "graded-product": graded_product,
    "modulated-sin": modulated_sin,
}

# Single-evaluation energies the graded chains are typically plotted at.
SCENARIO_ENERGIES = {
    "graded-linear": 9.0,
    "graded-quadratic": 3.5,
    "graded-product": 1.3,
    "modulated-sin": 5.0,
}


def build_scenario(name: str, **params) -> LayeredStructure:
    """The scenario ``name`` built with ``params``.  A ``count`` above
    ``MAX_GRID_POINTS``, the bound of every grid, is refused with a ValueError
    before anything is allocated."""
    # The integer parameters, given as an integral float (count=8.0), are that int.
    params.update({k: int(v) for k, v in params.items() if k in ("count", "m")
                   and isinstance(v, float) and v.is_integer()})
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    count = params.get("count")
    if isinstance(count, (int, float)) and count > MAX_GRID_POINTS:
        raise ValueError(f"count must be at most {MAX_GRID_POINTS}, got {count}")
    return factory(**params)
