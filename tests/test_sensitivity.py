"""Worst-case slope bounds: route order, exactness, soundness, independence."""

from __future__ import annotations

import hashlib
import math
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import corner_fold_max_abs, corner_max_abs, diff_terms, eval_terms, grid_max_abs
from conftest import clipped_values, random_scalar, to_box, to_terms
from pscalar.accounting import spend_for_publish
from pscalar.poly import Interval, Monomial, NonFiniteError, Polynomial, VarId
from pscalar.scalar import EntityInput, PrivateScalar, UnknownEntityError, sum_scalars
from pscalar.sensitivity import (
    FIRST_DEGREE,
    INTERVAL_SOUND,
    MONOTONE_CEILING,
    VERTEX_CAP,
    VERTEX_EXACT,
    _corner_max_abs,
    lipschitz_bound,
)

A, B = VarId("A"), VarId("B")


def mk(entity, value, lo, hi):
    return PrivateScalar.make_private(entity, value, lo, hi)


# -- frozen strategy examples ---------------------------------------------------------


def test_first_degree_examples():
    # f = 0.5*(A+B): slope in A is the literal coefficient
    f = (mk("A", 50.0, 0.0, 122.0) + mk("B", 60.0, 0.0, 122.0)).scale(0.5)
    res = lipschitz_bound(f, A)
    assert res.bound == 0.5 and res.strategy == FIRST_DEGREE and res.exact
    # negative coefficient: absolute value
    g = mk("A", 50.0, 0.0, 122.0).scale(-2.0)
    res = lipschitz_bound(g, A)
    assert res.bound == 2.0 and res.strategy == FIRST_DEGREE
    # the mean of 100 gives the exact double 0.01
    parts = [mk(f"u{i}", float(i), 0.0, 122.0) for i in range(100)]
    mean = sum(parts[1:], parts[0]).scale(0.01)
    res = lipschitz_bound(mean, VarId("u7"))
    assert res.bound == 0.01 and res.strategy == FIRST_DEGREE and res.exact


def test_monotone_ceiling_example():
    # f = A*B, floors at 0: slope in A is B evaluated at B's ceiling
    f = mk("A", 100.0, 0.0, 122.0) * mk("B", 5.0, 0.0, 10.0)
    res = lipschitz_bound(f, A)
    assert res.bound == 10.0 and res.strategy == MONOTONE_CEILING and res.exact
    res_b = lipschitz_bound(f, B)
    assert res_b.bound == 122.0 and res_b.strategy == MONOTONE_CEILING


def test_vertex_exact_example():
    # f = A^2 over A in [-3, 2]: slope 2A, maximised in absolute value at -3
    f = mk("A", 1.0, -3.0, 2.0) ** 2
    res = lipschitz_bound(f, A)
    assert res.bound == 6.0 and res.strategy == VERTEX_EXACT and res.exact
    # f = A*B with a negative floor on B: corners of [-3, 2] give |B| = 3
    g = mk("A", 1.0, 0.0, 5.0) * mk("B", 1.0, -3.0, 2.0)
    res = lipschitz_bound(g, A)
    assert res.bound == 3.0 and res.strategy == VERTEX_EXACT and res.exact
    # f = A + B^2 with a negative floor on B: the slope in A is the constant 1
    h = mk("A", 1.0, 0.0, 5.0) + mk("B", 1.0, -3.0, 2.0) ** 2
    res = lipschitz_bound(h, A)
    assert res.bound == 1.0 and res.strategy == VERTEX_EXACT and res.exact


def test_interval_sound_example():
    # slope of A*B^2 in A is B^2: degree 2 in B, so corners are not enough
    # and the interval route reports sup |B^2| over [-3, 2] = 9 (here: tight)
    f = mk("A", 1.0, 0.0, 5.0) * (mk("B", 1.0, -3.0, 2.0) ** 2)
    res = lipschitz_bound(f, A)
    assert res.bound == 9.0 and res.strategy == INTERVAL_SOUND and not res.exact


def test_include_origin_extends_only_that_entity():
    # f = (A-3)^2 = A^2 - 6A + 9 over A in [1, 2]: slope 2A-6, whose largest
    # |.| over A's own range hulled through 0 is |0-6| = 6 (over [1, 2]: 4)
    f = (mk("A", 1.5, 1.0, 2.0) + PrivateScalar.from_public(-3.0)) ** 2
    assert lipschitz_bound(f, A).bound == 6.0


def test_include_origin_leaves_other_entities_alone():
    # f = A*B, A in [2, 4], B in [1, 5].  Slope in A is B; widening A's own
    # box through 0 must not touch B's box, so the bound stays 5.
    f = mk("A", 3.0, 2.0, 4.0) * mk("B", 2.0, 1.0, 5.0)
    assert lipschitz_bound(f, A).bound == 5.0
    # the slope in B (which is A) sees only B's own box widened, not A's
    res_b = lipschitz_bound(f, B)
    assert res_b.bound == 4.0  # sup |A| over the untouched [2, 4]


def test_degenerate_width_zero_box():
    # widening B's own box through 0 does not change the slope in B
    f = mk("A", 5.0, 5.0, 5.0) * mk("B", 1.0, 0.0, 2.0)
    assert lipschitz_bound(f, B).bound == 5.0


def test_absent_and_cancelled_entities():
    f = mk("A", 1.0, 0.0, 5.0) + mk("B", 1.0, 0.0, 5.0)
    with pytest.raises(UnknownEntityError):
        lipschitz_bound(f, VarId("nobody"))
    g = f - mk("B", 1.0, 0.0, 5.0)  # B cancels out but stays on record
    assert lipschitz_bound(g, B).bound == 0.0
    # the same on the vertex route: B cancels out of a square with a negative floor
    h = mk("A", 1.0, -3.0, 2.0) ** 2 + mk("B", 1.0, 0.0, 5.0) - mk("B", 1.0, 0.0, 5.0)
    res = lipschitz_bound(h, B)
    assert res.bound == 0.0 and res.strategy == VERTEX_EXACT and res.exact


def test_vertex_cap_falls_back_to_interval():
    def product(n):
        parts = [mk(f"v{i}", 1.0, -1.0, 2.0) for i in range(n)]
        f = parts[0]
        for p in parts[1:]:
            f = f * p
        return f

    # 5 remaining variables in the slope: all 2^5 corners are scanned
    exact = lipschitz_bound(product(6), VarId("v0"))
    assert exact.strategy == VERTEX_EXACT
    assert exact.bound == 2.0 ** 5
    # one live variable past the cap forces the interval route, which is
    # still sound (and tight here: a single monomial)
    res = lipschitz_bound(product(VERTEX_CAP + 2), VarId("v0"))
    assert res.strategy == INTERVAL_SOUND and not res.exact
    assert res.bound >= 2.0 ** (VERTEX_CAP + 1)


def _floors_ceilings(k):
    # negative floors on even entities; odd ones sit above 0, so hulling
    # their own box through 0 moves their floor
    return [(-1.0 - 0.25 * j, 2.0 + j) if j % 2 == 0 else (1.0 + 0.5 * j, 3.0 + j) for j in range(k)]


@pytest.mark.parametrize("k", [12, VERTEX_CAP])
def test_square_of_sum_matches_closed_form(k):
    # slope of (sum x)^2 in x_i is 2*sum x, whose largest |.| over the box
    # (x_i's own range hulled through 0) is 2*max(|sum lo|, |sum hi|)
    bounds = _floors_ceilings(k)
    parts = [mk(f"s{j}", 1.0, lo, hi) for j, (lo, hi) in enumerate(bounds)]
    total = sum(parts[1:], parts[0])
    f = total * total
    for i in (0, 1, k - 1):
        los = [min(lo, 0.0) if j == i else lo for j, (lo, _) in enumerate(bounds)]
        his = [max(hi, 0.0) if j == i else hi for j, (_, hi) in enumerate(bounds)]
        res = lipschitz_bound(f, VarId(f"s{i}"))
        assert res.strategy == VERTEX_EXACT and res.exact
        assert res.bound == 2.0 * max(abs(sum(los)), abs(sum(his)))


def test_product_of_shifted_entities_matches_closed_form():
    # slope of prod(x_j + 1) in x_i is prod_{j != i} (x_j + 1), a product of
    # independent factors: its largest |.| is the product of each factor's
    bounds = [(-3.0 - 0.5 * j, 1.0 + j) for j in range(8)]
    f = PrivateScalar.from_public(1.0)
    for j, (lo, hi) in enumerate(bounds):
        f = f * mk(f"p{j}", 1.0, lo, hi).shift(1.0)
    for i in range(8):
        expected = 1.0
        for j, (lo, hi) in enumerate(bounds):
            if j != i:
                expected *= max(abs(lo + 1.0), abs(hi + 1.0))
        res = lipschitz_bound(f, VarId(f"p{i}"))
        assert res.strategy == VERTEX_EXACT and res.exact
        assert res.bound == pytest.approx(expected, rel=1e-12)


# -- oracle sweeps ---------------------------------------------------------------------


def test_bounds_dominate_grid_suprema():
    rnd = random.Random(314)
    for _ in range(60):
        scalar = random_scalar(rnd)
        terms = to_terms(scalar.poly)
        for entity in sorted(scalar.inputs):
            res = lipschitz_bound(scalar, entity)
            box = to_box(scalar, hulled=entity)
            sup = grid_max_abs(diff_terms(terms, entity.label()), box, 21)
            assert res.bound >= sup - 1e-9 * max(1.0, sup), (
                str(scalar.poly), entity.label(), res, sup
            )


def test_exact_bounds_match_corner_oracle():
    # where the package claims exactness and the slope is multilinear,
    # the corner oracle must agree to double precision noise
    rnd = random.Random(2718)
    checked = 0
    for _ in range(80):
        scalar = random_scalar(rnd, max_power=1)  # multilinear queries
        terms = to_terms(scalar.poly)
        for entity in sorted(scalar.inputs):
            res = lipschitz_bound(scalar, entity)
            if not res.exact:
                continue
            box = to_box(scalar, hulled=entity)
            sup = corner_max_abs(diff_terms(terms, entity.label()), box)
            assert res.bound == pytest.approx(sup, rel=1e-12, abs=1e-12)
            checked += 1
    assert checked > 50


def test_vertex_exact_matches_corner_oracle_up_to_ten_live_variables():
    rnd = random.Random(1618)
    checked = 0
    for _ in range(40):
        scalar = random_scalar(rnd, max_vars=11, max_terms=24, max_power=1)
        terms = to_terms(scalar.poly)
        for entity in sorted(scalar.inputs):
            res = lipschitz_bound(scalar, entity)
            if res.strategy != VERTEX_EXACT:
                continue
            sup = corner_max_abs(diff_terms(terms, entity.label()), to_box(scalar, hulled=entity))
            assert res.exact
            assert res.bound == pytest.approx(sup, rel=1e-12, abs=1e-12)
            checked += 1
    assert checked > 100


def test_bound_depends_only_on_public_data():
    def build(value_a, value_b):
        return mk("A", value_a, 0.0, 122.0) * mk("B", value_b, -3.0, 7.0)

    f1, f2 = build(1.0, 2.0), build(99.0, -555.0)
    for entity in (A, B):
        r1 = lipschitz_bound(f1, entity)
        r2 = lipschitz_bound(f2, entity)
        assert r1 == r2  # bit-identical: values never enter the computation


def test_empirical_slope_soundness():
    # |f(x) - f(x with one coordinate moved)| <= L * |move|, sampled
    rnd = random.Random(979)
    for _ in range(30):
        scalar = random_scalar(rnd, max_vars=3, max_terms=4)
        entities = sorted(scalar.inputs)
        box = scalar.box()
        for entity in entities:
            res = lipschitz_bound(scalar, entity)
            iv = box[entity].hull_with(0.0)
            for _ in range(20):
                point = {v: rnd.uniform(box[v].lo, box[v].hi) for v in entities}
                t0, t1 = (rnd.uniform(iv.lo, iv.hi) for _ in range(2))
                p0, p1 = {**point, entity: t0}, {**point, entity: t1}
                shift = abs(scalar.poly.evaluate(p0) - scalar.poly.evaluate(p1))
                allowed = res.bound * abs(t0 - t1)
                assert shift <= allowed + 1e-7 * max(1.0, allowed)


def test_removal_shift_bounded_by_spend_ingredients():
    # moving a coordinate from its clipped value to 0 (the removal surrogate)
    # changes the query by at most L * |clipped value|
    rnd = random.Random(551)
    for _ in range(40):
        scalar = random_scalar(rnd, max_vars=3)
        assign = clipped_values(scalar)
        for entity in sorted(scalar.inputs):
            res = lipschitz_bound(scalar, entity)
            removed = {**assign, entity: 0.0}
            shift = abs(scalar.poly.evaluate(assign) - scalar.poly.evaluate(removed))
            allowed = res.bound * abs(assign[entity])
            assert shift <= allowed + 1e-7 * max(1.0, allowed)


# -- facts shared across entities ------------------------------------------------------


def test_bounds_are_bit_identical_to_the_per_entity_recomputation():
    # 400 seeds x three query shapes; every entity's removal bound on one
    # scalar.  The digest was taken from the version that recomputed degree,
    # box and the full partial for every entity.
    lines = []
    for seed in range(400):
        rnd = random.Random(seed)
        for kwargs in ({}, {"max_power": 1}, {"allow_negative_floor": False}):
            scalar = random_scalar(rnd, **kwargs)
            for entity in sorted(scalar.inputs):
                res = lipschitz_bound(scalar, entity)
                lines.append(f"{res.bound.hex()} {res.strategy} {res.exact}")
    assert len(lines) == 2758
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "596299e0f3423623b33933c4415d61517f1c15c4c7ed1899b26f5bed30982a12"


def _reference_bound(scalar, entity):
    """(bound, strategy, exact) as one entity's own partial gives them, route by route.

    Raises NonFiniteError where the query's value at the largest |x| of each
    variable, with every coefficient made positive, overflows a float, as it
    does where some point of the box overflows ``evaluate``, or where the
    partial or its route overflows.
    """
    poly, box = scalar.poly, scalar.box()
    magnitudes = Polynomial({m: abs(c) for m, c in poly.items()})
    magnitudes.evaluate({v: max(abs(iv.lo), abs(iv.hi)) for v, iv in box.items()})
    d = poly.partial(entity)
    if poly.degree() <= 1:
        return abs(d.evaluate({})), FIRST_DEGREE, True
    dbox = {v: box[v] for v in d.variables()}
    if entity in dbox:
        dbox[entity] = dbox[entity].hull_with(0.0)
    if all(c >= 0 for _, c in poly.items()) and all(box[v].lo >= 0 for v in poly.variables()):
        return d.evaluate({v: iv.hi for v, iv in dbox.items()}), MONOTONE_CEILING, True
    dvars = sorted(dbox)
    if len(dvars) <= VERTEX_CAP and all(e == 1 for m, _ in d.items() for _, e in m.powers):
        sup = corner_fold_max_abs(
            [(c, {v.label(): 1 for v, _ in m.powers}) for m, c in d.items()],
            [v.label() for v in dvars],
            {v.label(): (iv.lo, iv.hi) for v, iv in dbox.items()},
        )
        if not math.isfinite(sup):
            raise NonFiniteError("a corner value overflows a float")
        return sup, VERTEX_EXACT, True
    r = d.range_over(dbox)
    return max(abs(r.lo), abs(r.hi)), INTERVAL_SOUND, False


@st.composite
def _sweep_scalars(draw):
    """A scalar over up to three entities, some with two attributes.

    ``monotone`` draws non-negative coefficients and floors.  A ``wild`` one
    may draw exponents, coefficients and box ends that overflow a float.  An
    input that no term uses stands for an entity that cancelled out.
    """
    monotone, wild = draw(st.booleans()), draw(st.integers(0, 3)) == 0
    names = draw(
        st.lists(
            st.tuples(st.sampled_from(["e0", "e1", "e2"]), st.sampled_from(["", "kg"])),
            min_size=1, max_size=5, unique=True,
        )
    )
    small = st.one_of(st.floats(-6.0, 3.0), st.integers(-2, 2).map(float))
    big = st.sampled_from([1e10, 1e150, 1e200])
    inputs = {}
    for name in names:
        lo = draw(st.one_of(small, big.map(lambda x: -x)) if wild else small)
        lo = abs(lo) if monotone else lo
        width = st.one_of(st.just(0.0), st.floats(0.0, 6.0))
        hi = lo + draw(st.one_of(width, big) if wild else width)
        inputs[VarId(*name)] = EntityInput(0.5, lo, hi)
    variables = sorted(inputs)
    exponent = st.sampled_from([1, 1, 1, 2, 3] + ([10**6, 10**400] if wild else []))
    coefficient = st.one_of(
        st.floats(-4.0, 4.0), st.integers(-3, 3).map(float), st.sampled_from([1e300, -1e300])
    ) if wild else st.one_of(st.floats(-4.0, 4.0), st.integers(-3, 3).map(float))
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        chosen = draw(st.lists(st.sampled_from(variables), max_size=len(variables), unique=True))
        m = Monomial(tuple((v, draw(exponent)) for v in sorted(chosen)))
        c = draw(coefficient.filter(lambda c: c != 0.0))
        terms[m] = abs(c) if monotone else c
    used = Polynomial(terms).variables()
    unused = [v for v in variables if v not in used]
    keep = draw(st.lists(st.sampled_from(unused), unique=True)) if unused else []
    kept = {v: inputs[v] for v in variables if v in used or v in keep}
    return PrivateScalar(Polynomial(terms), kept)


def _overflow_then_zero_width():
    # the slope in A, 1e300*B^2*C, overflows at B on the interval route; C's
    # zero-width box must not turn that inf into a nan that min and max drop.
    # A's tiny box keeps the value itself, 1e300*A*B^2*C, a float everywhere.
    a, b, c = mk("A", 0.0, -1e-30, 1e-30), mk("B", 1.0, -1e10, 1e10), mk("C", 0.0, 0.0, 0.0)
    return (a * b ** 2 * c).scale(1e300)


@settings(max_examples=300, deadline=None)
@given(_sweep_scalars())
@example(_overflow_then_zero_width())
def test_swept_bounds_match_each_entitys_own_partial(scalar):
    # the sweep bounds every entity of a scalar at once and keeps the results;
    # each must equal, bit for bit, what that entity's own partial gives, and
    # one entity's overflow must not touch another's bound
    for entity in sorted(scalar.inputs):
        try:
            want = _reference_bound(scalar, entity)
        except NonFiniteError:
            with pytest.raises(NonFiniteError):
                lipschitz_bound(scalar, entity)
            continue
        res = lipschitz_bound(scalar, entity)
        assert (res.bound.hex(), res.strategy, res.exact) == (want[0].hex(), *want[1:])


def _routes_match_reference(scalar, entities=None):
    """Assert each entity's bound equals its own partial's, bit for bit; return the routes."""
    routes = []
    for entity in entities or sorted(scalar.inputs):
        res = lipschitz_bound(scalar, entity)
        want = _reference_bound(scalar, entity)
        assert (res.bound.hex(), res.strategy, res.exact) == (want[0].hex(), *want[1:]), entity
        routes.append(res.strategy)
    return routes


def _corner_boxes(k, seed):
    # as the benchmark's corner_exact draws them: floors in -{0.25..1}, ceilings in {0.25..1}
    rnd = random.Random(seed)
    steps = (0.25, 0.5, 0.75, 1.0)
    return [(-rnd.choice(steps), rnd.choice(steps)) for _ in range(k)]


@pytest.mark.parametrize("k", [12, VERTEX_CAP, VERTEX_CAP + 1, 30])
def test_square_of_sum_is_bit_identical_to_each_entitys_partial(k):
    # the slope 2*sum x is affine: one sum per corner bound up to the cap,
    # and one pair of products per term on the interval route past it
    for seed in range(3):
        parts = [mk(f"c{j:02d}", 0.1 * j - 0.5, lo, hi) for j, (lo, hi) in enumerate(_corner_boxes(k, seed))]
        total = sum_scalars(parts)
        # at the cap the numpy reference folds 2^20 corners an entity: three entities will do
        some = None if k < VERTEX_CAP else [VarId("c00"), VarId("c01"), VarId(f"c{k - 1:02d}")]
        routes = set(_routes_match_reference(total * total, some))
        assert routes == ({VERTEX_EXACT} if k <= VERTEX_CAP else {INTERVAL_SOUND})


@pytest.mark.parametrize("k", [8, 12])
def test_shifted_product_is_bit_identical_to_each_entitys_partial(k):
    for seed in range(2):
        f = PrivateScalar.from_public(1.0)
        for j, (lo, hi) in enumerate(_corner_boxes(k, seed)):
            f = f * mk(f"p{j:02d}", 0.0, lo, hi).shift(1.0)
        assert set(_routes_match_reference(f)) == {VERTEX_EXACT}


@st.composite
def _wide_quadratics(draw):
    """A degree-2 scalar over 21-30 variables: the square of a sum, with some
    coefficients changed, plus linear terms and a constant.

    The sum runs over 12-16 variables (vertex_exact slopes) or over 23 or more
    (interval_sound ones).  Boxes may be [0, 0] or hold -0.0, and coefficients
    may be 0.0 (the term drops out; past the cap only off the cross terms, so
    every slope there stays past it) or subnormal, so products meet signed zeros.
    """
    size = draw(st.one_of(st.integers(12, 16), st.integers(VERTEX_CAP + 3, 30)))
    k = draw(st.integers(max(size, VERTEX_CAP + 1), 30))
    names = [VarId(f"w{i:02d}") for i in range(k)]
    ends = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.75, 1.0, -1.0, 5e-324, -5e-324])
    inputs = {}
    for v in names:
        lo, hi = sorted((draw(ends), draw(ends)))
        inputs[v] = EntityInput(0.0, lo, hi)
    coefficient = st.sampled_from([2.0, 2.0, 2.0, 1.0, -1.0, -3.5, 0.0, 5e-324, -5e-324])
    inside = names[:size]
    cross = coefficient if size <= 16 else coefficient.filter(lambda c: c != 0.0)
    terms = {}
    for i, a in enumerate(inside):
        terms[Monomial(((a, 2),))] = draw(coefficient) / 2.0
        for b in inside[i + 1 :]:
            terms[Monomial(((a, 1), (b, 1)))] = draw(cross)
    for v in draw(st.lists(st.sampled_from(names), unique=True, max_size=6)):
        terms[Monomial(((v, 1),))] = draw(coefficient)
    terms[Monomial()] = draw(coefficient)
    return PrivateScalar(Polynomial(terms), inputs)


@settings(max_examples=30, deadline=None)
@given(_wide_quadratics())
def test_wide_quadratics_are_bit_identical_to_each_entitys_partial(scalar):
    _routes_match_reference(scalar)


def test_an_entity_cancelled_out_of_a_wide_square_is_bounded_by_zero():
    parts = [mk(f"c{j:02d}", 0.0, lo, hi) for j, (lo, hi) in enumerate(_corner_boxes(VERTEX_CAP + 1, 7))]
    total = sum_scalars(parts)
    gone = mk("gone", 0.5, -1.0, 1.0)
    f = total * total + gone - gone
    routes = dict(zip(sorted(f.inputs), _routes_match_reference(f)))
    assert routes.pop(VarId("gone")) == VERTEX_EXACT
    assert set(routes.values()) == {INTERVAL_SOUND}
    assert lipschitz_bound(f, VarId("gone")).bound == 0.0


def _mixed_floors():
    # (A+B)^2 + C^3 - 20*C*D: A and D have negative floors, B and C positive
    # ones, so hulling B's or C's own box through 0 moves the bound
    a, b = mk("A", 1.0, -6.0, 1.0), mk("B", 1.0, 1.0, 4.0)
    c, d = mk("C", 1.0, 0.5, 2.0), mk("D", 1.0, -1.0, 2.0)
    return (a + b) ** 2 + c ** 3 - (c * d).scale(20.0)


def _positive_floors():
    a, b = mk("A", 1.0, 1.0, 3.0), mk("B", 1.0, 2.0, 5.0)
    return a * b + b ** 2


@pytest.mark.parametrize("build", [_mixed_floors, _positive_floors])
def test_shared_facts_never_carry_one_entitys_hull(build):
    entities = sorted(build().inputs)
    fresh = {e: lipschitz_bound(build(), e) for e in entities}
    for order in (entities, entities[::-1]):
        shared = build()
        for e in order:
            assert lipschitz_bound(shared, e) == fresh[e]
        assert shared.box() == build().box()
    # each bound is the one over that entity's own hull alone
    for e in entities:
        assert fresh[e] == (e, *_reference_bound(build(), e))
    routes = {res.strategy for res in fresh.values()}
    if build is _mixed_floors:
        assert routes == {VERTEX_EXACT, INTERVAL_SOUND}
    else:
        assert routes == {MONOTONE_CEILING}


def test_spends_of_a_mean_of_squares_do_linear_work(monkeypatch):
    n = 2000
    roots = [mk(f"m{i:04d}", float(i % 123), 0.0, 122.0) for i in range(n)]
    query = sum_scalars(r ** 2 for r in roots).scale(1.0 / n)
    calls = {"box": 0, "degree": 0, "partial_terms": 0}

    def counted(name, fn, weight=lambda self: 1):
        def wrapper(self, *args, **kwargs):
            calls[name] += weight(self)
            return fn(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(PrivateScalar, "box", counted("box", PrivateScalar.box))
    monkeypatch.setattr(Polynomial, "degree", counted("degree", Polynomial.degree))
    monkeypatch.setattr(
        Polynomial,
        "partial",
        counted("partial_terms", Polynomial.partial, lambda self: self.term_count),
    )
    spends = spend_for_publish(query, 10.0)
    assert len(spends) == n and all(sp.lipschitz == 2 * 122 / n for sp in spends)
    assert calls["box"] <= 1 and calls["degree"] <= 1
    assert calls["partial_terms"] <= 2 * n


def test_first_degree_bounds_read_one_coefficient_map(monkeypatch):
    n = 500
    roots = [mk(f"u{i:03d}", float(i), -3.0, 600.0) for i in range(n)]
    query = sum_scalars(r.scale(1.0 + i % 7) for i, r in enumerate(roots)).shift(2.0)
    calls = {"box": 0, "degree_in": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(PrivateScalar, "box", counted("box", PrivateScalar.box))
    monkeypatch.setattr(Monomial, "degree_in", counted("degree_in", Monomial.degree_in))
    bounds = [lipschitz_bound(query, v) for v in sorted(query.inputs)]
    assert [b.bound for b in bounds] == [1.0 + i % 7 for i in range(n)]
    assert {b.strategy for b in bounds} == {FIRST_DEGREE}
    assert calls == {"box": 0, "degree_in": 0}


def test_multilinear_guard_takes_one_pass_over_the_slope(monkeypatch):
    # prod(x_j + 1) over 8 entities with negative floors: every slope is
    # multilinear, and the sweep reads each term's exponents as it forms the
    # slope, so no monomial is asked for its degree in one variable
    roots = [mk(f"p{j}", 0.5, -1.0 - j, 2.0) for j in range(8)]
    query = roots[0] + 1.0
    for r in roots[1:]:
        query = query * (r + 1.0)
    callers = []
    real = Monomial.degree_in

    def traced(self, v):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(self, v)

    monkeypatch.setattr(Monomial, "degree_in", traced)
    for v in sorted(query.inputs):
        assert lipschitz_bound(query, v).strategy == VERTEX_EXACT
    assert callers == []


# -- the corner scan against the numpy fold it replaced --------------------------------


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COEFFS = st.one_of(
    st.floats(-10.0, 10.0), st.integers(-4, 4).map(float), st.floats(-1e300, 1e300), _FINITE
).filter(lambda c: c != 0.0)
_ENDS = st.one_of(st.floats(-10.0, 10.0), st.integers(-3, 3).map(float), st.floats(-1e10, 1e10), _FINITE)


@st.composite
def _multilinear_slopes(draw):
    """(slope, its live variables in order, box): 1-12 live variables, some overflowing."""
    k = draw(st.integers(1, 12))
    names = [VarId(f"x{i:02d}") for i in range(k)]
    shape = draw(st.sampled_from(["any", "affine", "every subset", "sum times sum"]))
    if shape == "affine":  # as in the slope of (sum x)^2: nothing to fold
        masks = [0] + [1 << i for i in range(k)]
    elif shape == "every subset":  # as in prod(x_j + 1): the fold is dense
        masks = list(range(2 ** min(k, 5)))
    elif shape == "sum times sum" and k > 1:  # a long prefix, few terms
        cut = draw(st.integers(1, k - 1))
        masks = [1 << a | 1 << b for a in range(cut) for b in range(cut, k)]
        masks += draw(st.lists(st.integers(0, 2**k - 1), max_size=3))
    else:
        masks = draw(st.lists(st.integers(0, 2**k - 1), min_size=1, max_size=40, unique=True))
    terms = {
        Monomial(tuple((v, 1) for i, v in enumerate(names) if mask >> i & 1)): draw(_COEFFS)
        for mask in masks
    }
    d = Polynomial(terms)
    box = {v: Interval(*sorted((draw(_ENDS), draw(_ENDS)))) for v in names}
    dvars = sorted(d.variables())
    return d, dvars, {v: box[v] for v in dvars}


@settings(max_examples=400, deadline=None)
@given(_multilinear_slopes())
def test_corner_scan_is_bit_identical_to_the_numpy_fold(slope):
    d, dvars, box = slope
    want = corner_fold_max_abs(
        [(c, {v.label(): 1 for v, _ in m.powers}) for m, c in d.items()],
        [v.label() for v in dvars],
        {v.label(): (iv.lo, iv.hi) for v, iv in box.items()},
    )
    terms = [(m.powers, c) for m, c in d.items()]
    if not math.isfinite(want):
        with pytest.raises(NonFiniteError):
            _corner_max_abs(terms, dvars, box)
    else:
        assert _corner_max_abs(terms, dvars, box).hex() == want.hex()


def test_square_of_sum_at_the_cap_bounds_every_entity_in_linear_time():
    # the slope 2*sum x is affine, so no corner needs folding: the numpy fold
    # of 2^20 corners per entity took about 2 s for the 20 entities
    bounds = _floors_ceilings(VERTEX_CAP)
    total = sum_scalars(mk(f"s{j:02d}", 1.0, lo, hi) for j, (lo, hi) in enumerate(bounds))
    f = total * total
    t0 = time.perf_counter()
    results = [lipschitz_bound(f, v) for v in sorted(f.inputs)]
    elapsed = time.perf_counter() - t0
    assert {r.strategy for r in results} == {VERTEX_EXACT}
    assert elapsed < 0.2, f"{elapsed:.3f}s for {VERTEX_CAP} entities"


def test_a_slope_coefficient_that_overflows_refuses_that_entity_alone():
    # 1e308 * A^2 on [0, 1e-10] is at most about 1e288, so the value fits the
    # box, but the slope in A is 2e308 * A, whose coefficient is not a float
    query = (mk("A", 5e-11, 0.0, 1e-10) ** 2).scale(1e308) + mk("B", 0.5, 0.0, 1.0)
    with pytest.raises(NonFiniteError, match="^the slope coefficient of A overflows a float$"):
        spend_for_publish(query, 1.0)
    with pytest.raises(NonFiniteError, match="slope coefficient of A"):
        lipschitz_bound(query, A)
    assert lipschitz_bound(query, B) == (B, 1.0, MONOTONE_CEILING, True)
