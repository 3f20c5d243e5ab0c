import numpy as np
import pytest

from layerscatter import Barrier, LayeredStructure


def random_structure(rng, max_barriers=10, heights=(-5.0, 5.0), widths=(0.2, 2.0),
                     asymmetric=True):
    """Random valid structure plus an energy propagating in the left medium."""
    n = int(rng.integers(0, max_barriers + 1))
    ws = rng.uniform(widths[0], widths[1], n)
    gaps = rng.uniform(0.0, 1.5, n + 1)
    hs = rng.uniform(heights[0], heights[1], n)
    centers = []
    x = gaps[0]
    for w, g in zip(ws, gaps[1:]):
        centers.append(x + w / 2.0)
        x += w + g
    span = max(x, 0.5)
    if asymmetric:
        v1, v2 = rng.uniform(-3.0, 3.0, 2)
        while v1 == v2:
            v2 = rng.uniform(-3.0, 3.0)
    else:
        v1 = v2 = 0.0
    s = LayeredStructure(v1, v2, span,
                         tuple(Barrier(h, w, c) for h, w, c in zip(hs, ws, centers)))
    # keep the gap background propagating and avoid k_n = 0 degeneracies
    energy = max(0.05, v1 + 0.05) + rng.uniform(0.05, 8.0)
    while any(abs(energy - b.height) < 1e-6 for b in s.barriers):
        energy += 1e-3
    return s, energy


def criterion_1_cases():
    """Acceptance criterion 1's 200 seeded (structure, energy) cases."""
    rng = np.random.default_rng(42)
    cases = []
    for _ in range(200):
        n = int(rng.integers(0, 11))
        widths = rng.uniform(0.2, 2.0, n) + 1e-12  # widths in (0.2, 2]
        gaps = rng.uniform(0.0, 1.5, n + 1)
        heights = rng.uniform(-5.0, 5.0, n)
        centers, x = [], gaps[0]
        for w, g in zip(widths, gaps[1:]):
            centers.append(x + w / 2.0)
            x += w + g
        v1, v2 = rng.uniform(-3.0, 3.0, 2)
        while v1 == v2:
            v2 = rng.uniform(-3.0, 3.0)
        s = LayeredStructure(
            v1, v2, max(x, 0.5),
            tuple(Barrier(h, w, c) for h, w, c in zip(heights, widths, centers)),
        )
        e = max(0.05, v1 + 0.05) + rng.uniform(0.05, 8.0)
        while any(abs(e - b.height) < 1e-9 for b in s.barriers):
            e += 1e-3
        cases.append((s, e))
    return cases


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
