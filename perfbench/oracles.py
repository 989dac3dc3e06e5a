"""Reference figures the benchmark checks the node against.

Nothing here imports pscalar: slopes, costs and budgets are derived in
closed form from the rows the benchmark generated, and ledger totals are
read straight from the journal file the node wrote.
"""

from __future__ import annotations

import math
from pathlib import Path


def conversion_eps(rho: float, delta: float) -> float:
    """Converted epsilon of the linear Renyi curve rho*alpha at delta.

    Minimising ``rho*alpha + ln(1/delta)/(alpha-1)`` over alpha > 1 gives
    ``rho + 2*sqrt(rho*ln(1/delta))``; a zero curve converts to 0.
    """
    if rho == 0.0:
        return 0.0
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def remaining_eps(cap: float, rho: float, delta: float) -> float:
    return max(0.0, cap - conversion_eps(rho, delta))


def rho_cap(eps: float, delta: float) -> float:
    """Largest cumulative rho whose converted epsilon stays within eps."""
    log_inv = math.log(1.0 / delta)
    return (math.sqrt(eps + log_inv) - math.sqrt(log_inv)) ** 2


def gaussian_rho(slope: float, x: float, sigma: float) -> float:
    """Cost of one Gaussian release: (slope * x)^2 / (2 sigma^2)."""
    return (slope * x) ** 2 / (2.0 * sigma * sigma)


def sigma_for_share(worst_cost: float, share: float, eps: float, delta: float) -> float:
    """Smallest sigma, rounded up to 4 significant digits, at which a release
    costing ``worst_cost^2 / (2 sigma^2)`` uses at most ``share`` of rho_cap."""
    sigma = worst_cost / math.sqrt(2.0 * share * rho_cap(eps, delta))
    scale = 10.0 ** (math.floor(math.log10(sigma)) - 3)
    return math.ceil(sigma / scale) * scale


def clip(value: float, floor: float, ceiling: float) -> float:
    return min(max(value, floor), ceiling)


def widened(floor: float, ceiling: float) -> tuple[float, float]:
    """A coordinate's range under removal semantics: its box hulled with 0."""
    return min(floor, 0.0), max(ceiling, 0.0)


def square_of_sum_slopes(boxes: list[tuple[float, float]]) -> list[float]:
    """Max |d/dx_i (sum x)^2| = 2 max(|sum lo|, |sum hi|), own box widened."""
    lo_sum = sum(lo for lo, _ in boxes)
    hi_sum = sum(hi for _, hi in boxes)
    out = []
    for lo, hi in boxes:
        wlo, whi = widened(lo, hi)
        out.append(2.0 * max(abs(lo_sum - lo + wlo), abs(hi_sum - hi + whi)))
    return out


def shifted_product_slopes(boxes: list[tuple[float, float]]) -> list[float]:
    """Max |d/dx_i prod_j (x_j + 1)| = prod_{j != i} max(|lo_j + 1|, |hi_j + 1|)."""
    factors = [max(abs(lo + 1.0), abs(hi + 1.0)) for lo, hi in boxes]
    out = []
    for i in range(len(boxes)):
        out.append(math.prod(f for j, f in enumerate(factors) if j != i))
    return out


def journal_totals(text: str) -> dict[str, float]:
    """Per-entity cumulative rho from ledger journal text, summed in file order."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        _publish_id, entity, rho, _ts = line.split("\t")
        totals[entity] = totals.get(entity, 0.0) + float(rho)
    return totals


def read_journal(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
