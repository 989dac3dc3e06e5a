"""The benchmark's closed forms against brute force.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402


def corner_max(partial, boxes, i):
    """max |partial(x)| over every corner of the box, coordinate i widened
    through 0; exact for partials that are multilinear in the variables."""
    ranges = [oracles.widened(*b) if j == i else b for j, b in enumerate(boxes)]
    return max(abs(partial(x)) for x in itertools.product(*ranges))


def random_boxes(rng, k):
    boxes = []
    for _ in range(k):
        a, b = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
        boxes.append((a, b))
    return boxes


@pytest.mark.parametrize("seed", range(40))
def test_square_of_sum_slope_matches_corner_scan(seed):
    rng = random.Random(seed)
    boxes = random_boxes(rng, rng.randint(1, 6))
    slopes = oracles.square_of_sum_slopes(boxes)
    for i in range(len(boxes)):
        brute = corner_max(lambda x: 2.0 * sum(x), boxes, i)
        assert slopes[i] == pytest.approx(brute, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(40))
def test_shifted_product_slope_matches_corner_scan(seed):
    rng = random.Random(seed)
    boxes = random_boxes(rng, rng.randint(1, 6))
    slopes = oracles.shifted_product_slopes(boxes)
    for i in range(len(boxes)):
        brute = corner_max(
            lambda x: math.prod(v + 1.0 for j, v in enumerate(x) if j != i), boxes, i)
        assert slopes[i] == pytest.approx(brute, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_slopes_dominate_interior_points(seed):
    """No point inside the box beats the closed-form slope."""
    rng = random.Random(1000 + seed)
    boxes = random_boxes(rng, 4)
    sq, prod = oracles.square_of_sum_slopes(boxes), oracles.shifted_product_slopes(boxes)
    for _ in range(2000):
        i = rng.randrange(4)
        x = [rng.uniform(*(oracles.widened(*b) if j == i else b)) for j, b in enumerate(boxes)]
        assert abs(2.0 * sum(x)) <= sq[i] * (1 + 1e-12)
        assert abs(math.prod(v + 1.0 for j, v in enumerate(x) if j != i)) <= prod[i] * (1 + 1e-12)


def numeric_eps(rho, delta):
    """min over alpha > 1 of rho*alpha + ln(1/delta)/(alpha-1): a fine log grid,
    then golden-section refinement around its best point."""
    log_inv = math.log(1.0 / delta)

    def f(a):
        return rho * a + log_inv / (a - 1.0)

    grid = [1.0 + 10.0 ** (e / 400.0) for e in range(-4000, 4001)]
    k = min(range(len(grid)), key=lambda j: f(grid[j]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        m1, m2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return f((lo + hi) / 2.0)


@pytest.mark.parametrize("rho", [1e-8, 1e-5, 3e-3, 0.05, 0.8, 7.0, 250.0])
@pytest.mark.parametrize("delta", [1e-12, 1e-6, 1e-3, 0.2])
def test_conversion_closed_form_matches_numeric_minimum(rho, delta):
    assert oracles.conversion_eps(rho, delta) == pytest.approx(numeric_eps(rho, delta), rel=1e-9)


def test_rho_cap_inverts_the_conversion():
    for eps, delta in [(0.1, 1e-9), (2.0, 1e-6), (8.0, 1e-3)]:
        assert oracles.conversion_eps(oracles.rho_cap(eps, delta), delta) == pytest.approx(eps, rel=1e-12)


def test_sigma_for_share_spends_at_most_the_share():
    for cost in (0.003, 1.0, 244.0 / 400 * 122):
        sigma = oracles.sigma_for_share(cost, 0.4, 2.0, 1e-6)
        spent = oracles.gaussian_rho(cost, 1.0, sigma)
        assert spent <= 0.4 * oracles.rho_cap(2.0, 1e-6)
        assert spent > 0.4 * oracles.rho_cap(2.0, 1e-6) * (1 - 2e-3)


def test_journal_totals_sum_per_entity_in_file_order():
    text = "p000001\ta\t0.25\tt\np000001\tb\t1e-3\tt\n\np000002\ta\t0.5\tt\n"
    assert oracles.journal_totals(text) == {"a": 0.75, "b": 1e-3}
