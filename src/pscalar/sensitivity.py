"""Sound per-entity Lipschitz bounds for polynomial queries over public boxes.

Every bound here depends only on public data (the polynomial structure and
the per-entity floors/ceilings), never on raw input values, so computing a
bound costs no privacy budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .poly import Interval, Monomial, Polynomial, VarId
from .scalar import PrivateScalar, UnknownEntityError

FIRST_DEGREE = "first_degree"
MONOTONE_CEILING = "monotone_ceiling"
VERTEX_EXACT = "vertex_exact"
INTERVAL_SOUND = "interval_sound"

#: Dispatch order: cheapest exact rule first, sound fallback last.
STRATEGY_ORDER = (FIRST_DEGREE, MONOTONE_CEILING, VERTEX_EXACT, INTERVAL_SOUND)

DEFAULT_VERTEX_CAP = 20


@dataclass(frozen=True)
class LipschitzBound:
    """Per-entity slope bound: |dg/dx_entity| <= bound everywhere on the box."""

    entity: VarId
    bound: float
    strategy: str
    exact: bool


def _box_for(scalar: PrivateScalar, entity: VarId, include_origin: bool) -> dict[VarId, Interval]:
    if entity not in scalar.inputs:
        raise UnknownEntityError(f"entity {entity.label()} does not contribute to this scalar")
    box = scalar.box()
    if include_origin:
        # Removal semantics: the entity's replacement value is 0, so the
        # perturbed coordinate must range over the hull of {0} and its box.
        box[entity] = box[entity].hull_with(0.0)
    return box


def _first_degree(poly: Polynomial, entity: VarId) -> LipschitzBound | None:
    """Degree <= 1: the partial is the variable's coefficient, exactly."""
    if poly.degree() > 1:
        return None
    coeff = poly.coefficient(Monomial.of({entity: 1}))
    return LipschitzBound(entity, abs(coeff), FIRST_DEGREE, True)


def _monotone_ceiling(
    poly: Polynomial, box: dict[VarId, Interval], entity: VarId
) -> LipschitzBound | None:
    """All coefficients and all floors non-negative: the partial derivative is
    itself non-negative with non-negative coefficients, hence maximized at the
    all-ceilings corner.  Exact."""
    if any(c < 0 for _, c in poly.items()):
        return None
    if any(box[v].lo < 0 for v in poly.variables()):
        return None
    d = poly.partial(entity)
    ceilings = {v: box[v].hi for v in d.variables()}
    return LipschitzBound(entity, d.evaluate(ceilings), MONOTONE_CEILING, True)


def _vertex_exact(
    poly: Polynomial, box: dict[VarId, Interval], entity: VarId, vertex_cap: int
) -> LipschitzBound | None:
    """Multilinear partial: |d| attains its max at a box vertex, so scanning
    all 2^k corners is exact.  Capped at vertex_cap variables."""
    d = poly.partial(entity)
    dvars = sorted(d.variables())
    if len(dvars) > vertex_cap:
        return None
    if any(d.degree_in(v) > 1 for v in dvars):
        return None
    best = 0.0
    corners = [(box[v].lo, box[v].hi) for v in dvars]
    for corner in itertools.product(*corners):
        val = abs(d.evaluate(dict(zip(dvars, corner))))
        if val > best:
            best = val
    if not dvars:
        best = abs(d.coefficient(Monomial.unit()))
    return LipschitzBound(entity, best, VERTEX_EXACT, True)


def _interval_sound(
    poly: Polynomial, box: dict[VarId, Interval], entity: VarId
) -> LipschitzBound:
    """Sound fallback: interval-evaluate the partial and take max |endpoint|."""
    r = poly.partial(entity).range_over(box)
    return LipschitzBound(entity, r.abs_max(), INTERVAL_SOUND, False)


def _run(
    strategy: str,
    poly: Polynomial,
    box: dict[VarId, Interval],
    entity: VarId,
    vertex_cap: int,
) -> LipschitzBound | None:
    if strategy == FIRST_DEGREE:
        return _first_degree(poly, entity)
    if strategy == MONOTONE_CEILING:
        return _monotone_ceiling(poly, box, entity)
    if strategy == VERTEX_EXACT:
        return _vertex_exact(poly, box, entity, vertex_cap)
    if strategy == INTERVAL_SOUND:
        return _interval_sound(poly, box, entity)
    raise ValueError(f"unknown strategy {strategy!r}")


def lipschitz_bound(
    scalar: PrivateScalar,
    entity: VarId,
    strategy: str | None = None,
    *,
    include_origin: bool = False,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> LipschitzBound:
    """Sound bound on |dg/dx_entity| over the scalar's public box.

    Tries the strategies in STRATEGY_ORDER and returns the first applicable
    one; ``strategy`` forces a specific rule instead (an error if it does not
    apply).  ``include_origin`` widens the entity's own coordinate range to
    include the removal replacement value 0.
    """
    box = _box_for(scalar, entity, include_origin)
    if strategy is not None:
        result = _run(strategy, scalar.poly, box, entity, vertex_cap)
        if result is None:
            raise ValueError(f"strategy {strategy!r} is not applicable here")
        return result
    for name in STRATEGY_ORDER:
        result = _run(name, scalar.poly, box, entity, vertex_cap)
        if result is not None:
            return result
    raise AssertionError("interval_sound is always applicable")  # pragma: no cover

