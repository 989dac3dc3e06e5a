"""Sound per-entity Lipschitz bounds for polynomial queries over public boxes.

Every bound here depends only on public data (the polynomial structure and
the per-entity floors/ceilings), never on raw input values, so computing a
bound costs no privacy budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Interval, NonFiniteError, Polynomial, VarId
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

    The facts all entities share are kept with the scalar (``_shared_facts``),
    so a call costs O(entity's terms x degree), plus 2^k corners on vertex_exact.
    """
    if entity not in scalar.inputs:
        raise UnknownEntityError(f"entity {entity.label()} does not contribute to this scalar")
    facts = _shared_facts(scalar)
    if facts[0] <= 1:
        return LipschitzBound(entity, abs(facts[1].get(entity, 0.0)), FIRST_DEGREE, True)
    _, own_terms, box, monotone = facts
    d = Polynomial._canonical(dict(own_terms.get(entity, ()))).partial(entity)
    dbox = {v: box[v] for v in d.variables()}
    if include_origin and entity in dbox:
        dbox[entity] = dbox[entity].hull_with(0.0)
    if monotone:
        ceilings = {v: iv.hi for v, iv in dbox.items()}
        return LipschitzBound(entity, d.evaluate(ceilings), MONOTONE_CEILING, True)
    dvars = sorted(dbox)
    if len(dvars) <= VERTEX_CAP and all(e == 1 for m, _ in d.items() for _, e in m.powers):
        return LipschitzBound(entity, _corner_max_abs(d, dvars, dbox), VERTEX_EXACT, True)
    return LipschitzBound(entity, d.range_over(dbox).abs_max(), INTERVAL_SOUND, False)


def _shared_facts(scalar: PrivateScalar) -> tuple:
    """(degree, variable -> its terms in term order, unhulled box, monotone flag), once.

    Degree <= 1 keeps (degree, variable -> coefficient, None, None) instead.
    """
    if scalar._bound_facts is None:
        poly, degree = scalar.poly, scalar.poly.degree()
        if degree <= 1:
            coeffs = {m.powers[0][0]: c for m, c in poly.items() if m.powers}
            scalar._bound_facts = (degree, coeffs, None, None)
            return scalar._bound_facts
        own_terms = {}
        for term in poly.items():
            for v, _ in term[0].powers:
                own_terms.setdefault(v, []).append(term)
        box = scalar.box()
        monotone = all(c >= 0 for _, c in poly.items()) and all(box[v].lo >= 0 for v in own_terms)
        scalar._bound_facts = (degree, own_terms, box, monotone)
    return scalar._bound_facts


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
