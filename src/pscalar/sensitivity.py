"""Sound per-entity Lipschitz bounds for polynomial queries over public boxes.

Every bound here depends only on public data (the polynomial structure and
the per-entity floors/ceilings), never on raw input values, so computing a
bound costs no privacy budget.
"""

from __future__ import annotations

import math

from .poly import Interval, NonFiniteError, VarId, _require_finite, _tuple_record
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


def lipschitz_bound(scalar: PrivateScalar, entity: VarId) -> LipschitzBound:
    """Sound bound on |dg/dx_entity| over the scalar's public box, the entity's
    own range hulled with 0, the value that stands in for it once it is removed.

    The first route that applies wins, cheapest exact rule first:

    - first_degree: degree <= 1, so the slope is the entity's coefficient.
    - monotone_ceiling: all coefficients and floors are non-negative, so the
      slope has non-negative coefficients and peaks at the all-ceilings corner.
    - vertex_exact: the slope is multilinear in at most VERTEX_CAP variables, so
      |slope| peaks at one of the box's 2^k corners (``_corner_max_abs``).
    - interval_sound: interval evaluation of the slope; sound but not exact.

    The first call bounds every entity at once (``_sweep``) and keeps the
    bounds with the scalar.  A query whose value can overflow a float on the
    box raises NonFiniteError for every entity, so no release of it is charged.
    """
    if entity not in scalar.inputs:
        raise UnknownEntityError(f"entity {entity.label()} does not contribute to this scalar")
    if scalar._bound_facts is None:
        scalar._bound_facts = _sweep(scalar)
    res = scalar._bound_facts.get(entity, 0.0)  # 0.0: cancelled out of a degree <= 1 query
    if isinstance(res, float):
        return LipschitzBound(entity, abs(res), FIRST_DEGREE, True)
    if isinstance(res, str):
        raise NonFiniteError(res)
    return res


def _sweep(scalar: PrivateScalar) -> dict:
    """Each entity's bound or NonFiniteError message (coefficient if degree <= 1), in one pass.

    It first refuses a query whose value can overflow a float on the box: the
    terms' magnitudes at each variable's largest |x|, rounded as
    ``Polynomial.evaluate`` rounds, must sum to a float (rounding is monotone).
    A degree <= 1 query's slopes are its coefficients: it needs no box or index.
    """
    poly, inputs = scalar.poly, scalar.inputs
    first_degree = poly.degree() <= 1
    # variable -> powers, its index there, coefficient, ... for each of its terms
    # in term order; flat, as a tuple per (term, variable) pair costs memory
    own_terms = None if first_degree else {v: [] for v in inputs}
    bounds, size = {}, 0.0
    mags = {v: max(-rec.floor, rec.ceiling) for v, rec in inputs.items()}
    try:
        for m, c in poly.items():
            powers, term, i = m.powers, abs(c), 0
            for v, e in powers:
                if first_degree:  # v is the term's one variable
                    bounds[v] = c
                else:
                    own_terms[v].extend((powers, i, c))
                term *= mags[v] if e == 1 else mags[v] ** e
                i += 1
            size += term
    except OverflowError:
        size = math.inf
    if not math.isfinite(size):
        raise NonFiniteError("the query's value can overflow a float on its public box")
    if first_degree:
        return bounds
    box = scalar.box()
    monotone = all(c >= 0 for _, c in poly.items())
    monotone = monotone and all(box[v].lo >= 0 for v, own in own_terms.items() if own)
    for v, own in own_terms.items():
        iv = box[v]
        # hull the entity's own range while it is bounded (iv itself if it holds 0)
        if not iv.lo <= 0.0 <= iv.hi:
            box[v] = iv.hull_with(0.0)
        try:
            bounds[v] = _bound_slope(v, own, box, monotone)
        except NonFiniteError as exc:
            bounds[v] = str(exc)
        box[v] = iv
    return bounds


def _bound_slope(v: VarId, own_terms, box: dict[VarId, Interval], monotone: bool) -> LipschitzBound:
    """One entity's bound, each float step as its own partial's route would take it
    (interval_sound with one pair of products for a linear slope term c*x)."""
    # distinct monomials have distinct partials in v: one slope term per own
    # term, c*e times the powers left, in term order
    slope, flat = [], iter(own_terms)
    for powers, i, c in zip(flat, flat, flat):
        e = powers[i][1]
        if e != 1:  # c*1 is c, a finite coefficient
            try:
                c *= e
            except OverflowError:
                c = math.inf
            if not math.isfinite(c):
                raise NonFiniteError(f"the slope coefficient of {v.label()} overflows a float")
        rest = powers[:i] if e == 1 else powers[:i] + ((v, e - 1),)
        slope.append((rest + powers[i + 1 :], c))
    if monotone:  # as Polynomial.evaluate sums the slope at the ceilings
        total = 0.0
        try:
            for rest, c in slope:
                for u, k in rest:
                    c *= box[u].hi ** k
                total += c
        except OverflowError:
            total = math.inf
        total = _require_finite(total, "the slope at the ceilings")
        return LipschitzBound(v, total, MONOTONE_CEILING, True)
    live = {p for rest, _ in slope for p in rest}  # (variable, exponent) pairs
    if len(live) <= VERTEX_CAP and all(k == 1 for _, k in live):
        dvars = sorted(u for u, _ in live)
        return LipschitzBound(v, _corner_max_abs(slope, dvars, box), VERTEX_EXACT, True)
    # as Polynomial.range_over: each term is its coefficient times
    # Interval.power of each remaining variable, each product the min and max of four
    lo = hi = 0.0
    for rest, c in slope:
        if len(rest) == 1 and rest[0][1] == 1:  # c*x: its four products are a, b, a, b
            plo, phi = box[rest[0][0]]
            a, b = c * plo, c * phi  # min and max of four keep the first of equal values
            tlo, thi = (a, b) if a < b else (b, a) if b < a else (a, a)
        else:
            tlo = thi = c
            for u, k in rest:
                plo, phi = box[u] if k == 1 else box[u].power(k)
                products = (tlo * plo, tlo * phi, thi * plo, thi * phi)
                tlo, thi = min(products), max(products)
                if not (-math.inf < tlo and thi < math.inf):
                    raise NonFiniteError("the slope's range overflows a float")
        if not (-math.inf < tlo and thi < math.inf):
            raise NonFiniteError("the slope's range overflows a float")
        lo += tlo
        hi += thi
    bound = _require_finite(max(abs(lo), abs(hi)), "the slope's range")
    return LipschitzBound(v, bound, INTERVAL_SOUND, False)


def _corner_max_abs(terms, dvars: list[VarId], box: dict[VarId, Interval]) -> float:
    """Largest |d| over the box's 2^k corners, for d's (powers, c) pairs multilinear in dvars.

    Bit i of a monomial's mask stands for dvars[i].  The first p of dvars are
    the shortest prefix after which every monomial has at most one variable
    left.  Folding the prefix one variable at a time (a0 + lo*a1 and
    a0 + hi*a1 over each pair of masks that differ only in its bit; a missing
    mask holds zeros) leaves, for the constant and for each remaining
    variable, its coefficient at every prefix corner, where d is affine in
    the rest: C + c_j*x_j + ... .  Float + and * by a fixed number round
    monotonically, so the left-to-right sum of the larger (smaller) of lo*c_j
    and hi*c_j is the largest (smallest) corner value, bit for bit what the
    fold of every variable of a (2,)*k tensor gives.  An affine d (p = 0) is
    summed once for each end, with no masks or lists.  Otherwise the fold is
    dense, p*2^p float operations for the constant and for each remaining
    variable however few terms d has, so a sparse slope with a long prefix is slow.
    """
    if all(len(powers) < 2 for powers, _ in terms):  # affine, p = 0: nothing to fold
        linear = {powers[0][0] if powers else None: c for powers, c in terms}
        top = bottom = linear.pop(None, 0.0)
        for v in dvars:
            c = linear[v]
            lo, hi = box[v] if c > 0 else reversed(box[v])  # hi*c is the larger product
            top, bottom = top + hi * c, bottom + lo * c
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise NonFiniteError("slope value at a corner overflows a float")
        return max(top, -bottom)
    bit = {v: 1 << i for i, v in enumerate(dvars)}
    coeffs, head = {}, 0  # head: the bits of variables not last in their monomial
    for powers, c in terms:
        mask = last = 0
        for v, _ in powers:
            last = bit[v]
            mask |= last
        coeffs[mask] = c
        head |= mask ^ last
    p = head.bit_length()
    n = 1 << p
    # a monomial's mask above the prefix (0, or the bit of its one variable
    # left) -> that variable's coefficient at every prefix corner, in dvars order
    cells = {key: [0.0] * n for key in sorted({mask >> p for mask in coeffs})}
    for mask, c in coeffs.items():
        cells[mask >> p][mask & (n - 1)] = c
    for v in dvars[:p]:
        lo, hi = box[v]
        for key, a in cells.items():
            xs, ys = a[0::2], a[1::2]
            cells[key] = a = [x + lo * y for x, y in zip(xs, ys)]
            a += [x + hi * y for x, y in zip(xs, ys)]
    top = bottom = cells.pop(0, [0.0] * n)
    for key, cs in cells.items():
        lo, hi = box[dvars[p + key.bit_length() - 1]]
        top = [t + (hi * c if c > 0 else lo * c) for t, c in zip(top, cs)]
        bottom = [t + (lo * c if c > 0 else hi * c) for t, c in zip(bottom, cs)]
    if not (all(map(math.isfinite, top)) and all(map(math.isfinite, bottom))):
        raise NonFiniteError("slope value at a corner overflows a float")
    # top >= bottom at every corner, so these two bound |d| at all of them
    return max(max(top), -min(bottom))
