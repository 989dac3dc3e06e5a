"""Sound per-entity Lipschitz bounds for polynomial queries over public boxes.

Every bound here depends only on public data (the polynomial structure and
the per-entity floors/ceilings), never on raw input values, so computing a
bound costs no privacy budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Interval, Monomial, NonFiniteError, Polynomial, VarId
from .scalar import PrivateScalar, UnknownEntityError

FIRST_DEGREE = "first_degree"
MONOTONE_CEILING = "monotone_ceiling"
VERTEX_EXACT = "vertex_exact"
INTERVAL_SOUND = "interval_sound"

#: Most live variables a slope may have for vertex_exact to scan its 2^k corners.
VERTEX_CAP = 20


@dataclass(frozen=True)
class LipschitzBound:
    """Per-entity slope bound: |dg/dx_entity| <= bound everywhere on the box."""

    entity: VarId
    bound: float
    strategy: str
    exact: bool


def lipschitz_bound(
    scalar: PrivateScalar, entity: VarId, *, include_origin: bool = False
) -> LipschitzBound:
    """Sound bound on |dg/dx_entity| over the scalar's public box.

    The first route that applies wins, cheapest exact rule first:

    - first_degree: degree <= 1, so the slope is the entity's coefficient.
    - monotone_ceiling: all coefficients and floors are non-negative, so the
      slope has non-negative coefficients and peaks at the all-ceilings corner.
    - vertex_exact: the slope is multilinear in at most VERTEX_CAP variables,
      so |slope| peaks at one of the box's 2^k corners, all evaluated at once
      by ``_corner_max_abs``.
    - interval_sound: interval evaluation of the slope; sound but not exact.

    ``include_origin`` widens the entity's own coordinate range to include
    the removal replacement value 0.
    """
    if entity not in scalar.inputs:
        raise UnknownEntityError(f"entity {entity.label()} does not contribute to this scalar")
    poly = scalar.poly
    if poly.degree() <= 1:
        coeff = poly.coefficient(Monomial.of({entity: 1}))
        return LipschitzBound(entity, abs(coeff), FIRST_DEGREE, True)
    box = scalar.box()
    if include_origin:
        box[entity] = box[entity].hull_with(0.0)
    d = poly.partial(entity)
    if all(c >= 0 for _, c in poly.items()) and all(box[v].lo >= 0 for v in poly.variables()):
        ceilings = {v: box[v].hi for v in d.variables()}
        return LipschitzBound(entity, d.evaluate(ceilings), MONOTONE_CEILING, True)
    dvars = sorted(d.variables())
    if len(dvars) <= VERTEX_CAP and all(d.degree_in(v) == 1 for v in dvars):
        return LipschitzBound(entity, _corner_max_abs(d, dvars, box), VERTEX_EXACT, True)
    return LipschitzBound(entity, d.range_over(box).abs_max(), INTERVAL_SOUND, False)


def _corner_max_abs(d: Polynomial, dvars: list[VarId], box: dict[VarId, Interval]) -> float:
    """Largest |d| over the 2^k corners of the box, for d multilinear in dvars.

    d goes into a (2,)*k tensor with one cell per monomial (axis i at 1 when
    dvars[i] occurs).  Folding one axis at a time, a[0] + x*a[1] at x = lo and
    x = hi, leaves d's value at every corner: O(terms*k + k*2^k) numpy work.
    """
    axis = {v: i for i, v in enumerate(dvars)}
    a = np.zeros((2,) * len(dvars))
    for m, c in d.items():
        cell = [0] * len(dvars)
        for v, _ in m.powers:
            cell[axis[v]] = 1
        a[tuple(cell)] = c
    with np.errstate(over="ignore", invalid="ignore"):
        for v in dvars:
            lo, hi = box[v].lo, box[v].hi
            a = np.stack((a[0] + lo * a[1], a[0] + hi * a[1]), axis=-1)
        best = float(np.abs(a).max())
    if not math.isfinite(best):
        raise NonFiniteError("slope value at a corner overflows a float")
    return best
