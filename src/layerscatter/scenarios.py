"""Named parametric structure families for the CLI.

Besides the periodic lattice there are four graded 8-barrier chains that
break the lattice ideality in different ways (linearly graded,
quadratically graded, product-form heights, sinusoidally modulated
heights).  Barrier centers are accumulated left to right from the
per-index width d_n and inter-barrier gap g_n formulas; the span is the
sum of the outer margins, all widths, and all gaps.
"""
from __future__ import annotations

import math

from .periodic import PeriodicLattice
from .structure import Barrier, LayeredStructure, validate_structure


def _chain(
    n_barriers: int,
    height,
    width,
    gap,
    v_left: float,
    v_right: float,
    margin: float,
) -> LayeredStructure:
    """Assemble a chain from per-index callables (n is 1-based), with the
    same outer margin on both sides."""
    barriers = []
    x = margin
    for n in range(1, n_barriers + 1):
        d = width(n)
        barriers.append(Barrier(height(n), d, x + d / 2.0))
        x += d
        if n < n_barriers:
            x += gap(n)
    span = x + margin
    return validate_structure(
        LayeredStructure(v_left, v_right, span, tuple(barriers))
    )


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
    return validate_structure(lat.to_structure(v_left, v_right))


def graded_linear(count: int = 8) -> LayeredStructure:
    """Heights and widths grow linearly, gaps shrink linearly:
    u_n = 4 + 0.35 n, d_n = 1 + 0.1 n, g_n = 1 - 0.1 n, media 2 and 1."""
    return _chain(
        count,
        height=lambda n: 4.0 + 0.35 * n,
        width=lambda n: 1.0 + 0.1 * n,
        gap=lambda n: 1.0 - 0.1 * n,
        v_left=2.0,
        v_right=1.0,
        margin=0.75,
    )


def graded_quadratic(count: int = 8) -> LayeredStructure:
    """Heights and widths grow quadratically, gaps linearly:
    u_n = 0.05 n^2, d_n = 1 + 0.1 n^2, g_n = 1 + 0.1 n, media 2 and 1."""
    return _chain(
        count,
        height=lambda n: 0.05 * n * n,
        width=lambda n: 1.0 + 0.1 * n * n,
        gap=lambda n: 1.0 + 0.1 * n,
        v_left=2.0,
        v_right=1.0,
        margin=0.75,
    )


def graded_product(count: int = 8, m: int | None = None) -> LayeredStructure:
    """Product-form heights u_n = 0.035 n (m - n + 1) with m defaulting to
    the barrier count, d_n = 0.2 n + 0.1 n^2, g_n = 0.1 n^2, media 0.5/0.75."""
    if m is None:
        m = count
    return _chain(
        count,
        height=lambda n: 0.035 * n * (m - n + 1),
        width=lambda n: 0.2 * n + 0.1 * n * n,
        gap=lambda n: 0.1 * n * n,
        v_left=0.5,
        v_right=0.75,
        margin=1.0,
    )


def modulated_sin(count: int = 8) -> LayeredStructure:
    """Equidistant unit-width barriers with heights u_n = 4 sin^2(n),
    unit gaps, media 0.5/0.75."""
    return _chain(
        count,
        height=lambda n: 4.0 * math.sin(n) ** 2,
        width=lambda n: 1.0,
        gap=lambda n: 1.0,
        v_left=0.5,
        v_right=0.75,
        margin=1.0,
    )


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
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return factory(**params)
