"""Sound per-entity Lipschitz bounds for polynomial queries over public boxes.

Every bound here depends only on public data (the polynomial structure and
the per-entity floors/ceilings), never on raw input values, so computing a
bound costs no privacy budget.
"""

from __future__ import annotations

import math

from .poly import Interval, NonFiniteError, Polynomial, VarId, _tuple_record
from .scalar import PrivateScalar, UnknownEntityError

FIRST_DEGREE = "first_degree"
MONOTONE_CEILING = "monotone_ceiling"
VERTEX_EXACT = "vertex_exact"
INTERVAL_SOUND = "interval_sound"

#: Most live variables a slope may have for vertex_exact to scan its 2^k corners.
VERTEX_CAP = 20


class LipschitzBound(_tuple_record("LipschitzBound", "entity bound strategy exact")):
    """Per-entity slope bound: |dg/dx_entity| <= bound everywhere on the box."""

    __slots__ = ()


def lipschitz_bound(
    scalar: PrivateScalar, entity: VarId, *, include_origin: bool = False
) -> LipschitzBound:
    """Sound bound on |dg/dx_entity| over the scalar's public box.

    The first route that applies wins, cheapest exact rule first:

    - first_degree: degree <= 1, so the slope is the entity's coefficient.
    - monotone_ceiling: all coefficients and floors are non-negative, so the
      slope has non-negative coefficients and peaks at the all-ceilings corner.
    - vertex_exact: the slope is multilinear in at most VERTEX_CAP variables,
      so |slope| peaks at one of the box's 2^k corners, scanned by
      ``_corner_max_abs``.
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

    Bit i of a monomial's mask stands for dvars[i].  The first p of dvars are
    the shortest prefix after which every monomial has at most one variable
    left.  Folding the prefix one variable at a time (a0 + lo*a1 and
    a0 + hi*a1 over each pair of masks that differ only in its bit; a missing
    mask holds zeros) leaves, for the constant and for each remaining
    variable, its coefficient at every prefix corner, where d is affine in
    the rest: C + c_j*x_j + ... .  Float + and * by a fixed number round
    monotonically, so the left-to-right sum of the larger (smaller) of lo*c_j
    and hi*c_j is the largest (smallest) corner value, bit for bit what the
    fold of every variable of a (2,)*k tensor gives.  The fold is dense,
    p*2^p float operations for the constant and for each remaining variable
    however few terms d has, so a sparse slope with a long prefix is slow.
    """
    bit = {v: 1 << i for i, v in enumerate(dvars)}
    coeffs, head = {}, 0  # head: the bits of variables not last in their monomial
    for m, c in d.items():
        mask = last = 0
        for v, _ in m.powers:
            last = bit[v]
            mask |= last
        coeffs[mask] = c
        head |= mask ^ last
    p = head.bit_length()
    n = 1 << p
    # a monomial's mask above the prefix (0, or the bit of its one variable
    # left) -> that variable's coefficient at every prefix corner
    cells = {key: [0.0] * n for key in {mask >> p for mask in coeffs}}
    for mask, c in coeffs.items():
        cells[mask >> p][mask & (n - 1)] = c
    for v in dvars[:p]:
        lo, hi = box[v].lo, box[v].hi
        for key, a in cells.items():
            xs, ys = a[0::2], a[1::2]
            cells[key] = [x + lo * y for x, y in zip(xs, ys)] + [x + hi * y for x, y in zip(xs, ys)]
    top = bottom = cells.pop(0, [0.0] * n)
    for key in sorted(cells):
        iv, cs = box[dvars[p + key.bit_length() - 1]], cells[key]
        top = [t + (iv.hi * c if c > 0 else iv.lo * c) for t, c in zip(top, cs)]
        bottom = [t + (iv.lo * c if c > 0 else iv.hi * c) for t, c in zip(bottom, cs)]
    if not (all(map(math.isfinite, top)) and all(map(math.isfinite, bottom))):
        raise NonFiniteError("slope value at a corner overflows a float")
    # top >= bottom at every corner, so these two bound |d| at all of them
    return max(max(top), -min(bottom))
