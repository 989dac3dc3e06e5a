"""Private scalars: leaf clipping, metadata discipline, operator surface."""

from __future__ import annotations

import functools
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pscalar.accounting import spend_for_publish
from pscalar.node import Node
from pscalar.poly import Monomial, NonFiniteError, Polynomial, VarId
from pscalar.scalar import (
    EntityInput,
    MetadataConflictError,
    PrivateScalar,
    UnsupportedOperationError,
    clip,
    sum_scalars,
)
from pscalar.wire import encode, scalar_summary


def mk(entity, value, lo, hi):
    return PrivateScalar.make_private(entity, value, lo, hi)


# -- clipping -------------------------------------------------------------------------


def test_clip_function():
    assert clip(130.0, 0.0, 122.0) == 122.0
    assert clip(-5.0, 0.0, 122.0) == 0.0
    assert clip(50.0, 0.0, 122.0) == 50.0
    assert clip(0.0, 0.0, 0.0) == 0.0


def test_clipping_applies_once_at_leaves():
    a = mk("A", 130.0, 0.0, 122.0)
    assert a.value() == 122.0
    # the SQUARE of a clipped leaf, not the clip of a square:
    assert (a * a).value() == 122.0 * 122.0
    # shifting past the ceiling is not clipped again: f(x) = x + 100 at x~=122
    assert a.shift(100.0).value() == 222.0
    # negation may leave the original bounds entirely
    assert (-a).value() == -122.0


def test_value_uses_clipped_inputs_everywhere():
    a = mk("A", -7.0, 0.0, 10.0)   # clips up to 0
    b = mk("B", 3.0, 0.0, 10.0)    # in range
    assert (a + b).value() == 3.0
    assert (a * b).value() == 0.0
    assert (a - b).value() == -3.0


def test_in_range_value_passes_through_exactly():
    a = mk("A", 3.7, 0.0, 10.0)
    assert a.value() == 3.7
    assert a.inputs[VarId("A")].clipped == 3.7


# -- input records --------------------------------------------------------------------


def test_entity_input_validation():
    with pytest.raises(ValueError):
        EntityInput(1.0, 5.0, 2.0)       # floor above ceiling
    with pytest.raises(ValueError):
        EntityInput(math.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        EntityInput(1.0, 0.0, math.inf)
    rec = EntityInput(12.0, 0.0, 10.0)
    assert rec.clipped == 10.0
    assert rec.floor == 0.0 and rec.ceiling == 10.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1e6, 1e6),
    st.floats(-1e3, 1e3),
    st.floats(0.0, 1e3),
)
def test_a_raw_value_and_its_clip_make_the_same_scalar(raw, lo, width):
    hi = lo + width
    b = mk("B", 2.0, -1.0, 4.0)
    roots = [mk("A", raw, lo, hi), mk("A", clip(raw, lo, hi), lo, hi)]
    assert roots[0].inputs == roots[1].inputs
    for build in (lambda a: a, lambda a: (a ** 2).scale(0.5) + b, lambda a: -(a * b).shift(3.0)):
        raw_q, clipped_q = (build(a) for a in roots)
        assert raw_q.inputs == clipped_q.inputs
        assert raw_q.value().hex() == clipped_q.value().hex()
        assert spend_for_publish(raw_q, 10.0) == spend_for_publish(clipped_q, 10.0)
        assert encode(scalar_summary(raw_q)) == encode(scalar_summary(clipped_q))


def test_metadata_conflict_on_combine():
    a1 = mk("A", 5.0, 0.0, 10.0)
    a2 = mk("A", 5.0, 0.0, 99.0)   # same entity, different ceiling
    with pytest.raises(MetadataConflictError):
        _ = a1 + a2
    a3 = mk("A", 6.0, 0.0, 10.0)   # same bounds, different stored value
    with pytest.raises(MetadataConflictError):
        _ = a1 * a3
    # identical records merge fine
    a4 = mk("A", 5.0, 0.0, 10.0)
    assert (a1 + a4).value() == 10.0


def test_same_entity_different_attribute_is_distinct():
    age = PrivateScalar.make_private("A", 30.0, 0.0, 122.0, attribute="age")
    weight = PrivateScalar.make_private("A", 70.0, 0.0, 300.0, attribute="kg")
    combined = age + weight
    assert combined.value() == 100.0
    assert len(combined.inputs) == 2
    assert {v.attribute for v in combined.inputs} == {"age", "kg"}


def test_cancellation_keeps_participation_record():
    a, b = mk("A", 5.0, 0.0, 10.0), mk("B", 7.0, 0.0, 10.0)
    g = (a + b) - b
    assert g.value() == 5.0
    # the polynomial lost B but the scalar still remembers B took part
    assert VarId("B") in g.inputs
    assert VarId("B") not in g.poly.variables()


# -- operator surface -----------------------------------------------------------------


def test_public_constant_mixing():
    a = mk("A", 5.0, 0.0, 10.0)
    assert (a + 2.0).value() == 7.0
    assert (2.0 + a).value() == 7.0
    assert (a - 1.0).value() == 4.0
    assert (1.0 - a).value() == -4.0
    assert (a * 3.0).value() == 15.0
    assert (3.0 * a).value() == 15.0
    assert a.scale(0.5).value() == 2.5
    assert a.shift(-5.0).value() == 0.0
    assert (a ** 2).value() == 25.0
    assert (a ** 0).value() == 1.0


def test_from_public_and_sum():
    c = PrivateScalar.from_public(4.0)
    assert c.value() == 4.0
    assert c.inputs == {}
    parts = [mk(f"e{i}", float(i), 0.0, 100.0) for i in range(5)]
    total = sum_scalars(parts)
    assert total.value() == 0.0 + 1 + 2 + 3 + 4
    assert len(total.inputs) == 5
    assert sum_scalars([]).value() == 0.0


def test_ops_that_keep_their_variables_share_the_input_map():
    a, b = mk("A", 5.0, 0.0, 10.0), mk("B", 7.0, 0.0, 10.0)
    for result in (-a, a.scale(0.5), a.shift(1.0), a ** 3, a * 3.0, 3.0 * a, a + 2.0,
                   2.0 + a, a - 1.0, 1.0 - a):
        assert result.inputs is a.inputs
    # the ops that merge two maps build a fresh one and write neither operand's
    scaled = a.scale(2.0)  # shares a's map, so a write into it would reach a
    before = [(s, s.inputs, dict(s.inputs)) for s in (a, b, scaled)]
    for result in (scaled + b, scaled * b, b - scaled, sum_scalars([scaled, b])):
        assert set(result.inputs) == {VarId("A"), VarId("B")}
        for s, shared, content in before:
            assert s.inputs is shared and s.inputs == content
            assert result.inputs is not shared


# coefficients that cancel exactly (1 - 1) and inexactly (0.1 + 0.2 - 0.3)
FOLD_COEFFS = (1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.1, 0.2, -0.3, 3.0)


def random_part(rng: random.Random, roots: list[PrivateScalar]) -> PrivateScalar:
    part = PrivateScalar.from_public(rng.choice(FOLD_COEFFS))
    for _ in range(rng.randint(1, 3)):
        term = rng.choice(roots)
        if rng.random() < 0.5:
            term = term * rng.choice(roots)
        part = part + term.scale(rng.choice(FOLD_COEFFS))
    return part


def test_sum_scalars_equals_the_add_fold_bit_for_bit():
    for seed in range(400):
        rng = random.Random(seed)
        roots = [
            PrivateScalar.make_private(f"e{i}", rng.uniform(-5.0, 5.0), -4.0, 4.0, attribute=attr)
            for i in range(4)
            for attr in ("", "b")  # a second attribute of the same entity
        ]
        parts = [random_part(rng, roots) for _ in range(rng.randint(1, 12))]
        one_pass = sum_scalars(parts)
        fold = functools.reduce(operator.add, parts)
        assert list(one_pass.poly.items()) == list(fold.poly.items()), seed
        assert list(one_pass.inputs.items()) == list(fold.inputs.items()), seed
        assert one_pass.value().hex() == fold.value().hex(), seed
    a1, a2 = mk("A", 5.0, 0.0, 10.0), mk("A", 5.0, 0.0, 99.0)
    with pytest.raises(MetadataConflictError):
        sum_scalars([a1, mk("B", 1.0, 0.0, 1.0), a2])


# -- op results are canonical by construction ---------------------------------------------


def reference_add(p: Polynomial, q: Polynomial) -> Polynomial:
    """Sum through the validating constructor: merge all terms, then drop zeros."""
    out = dict(p.items())
    for m, c in q.items():
        out[m] = out.get(m, 0.0) + c
    return Polynomial(out)


def merged_inputs(scalars) -> list:
    out = {}
    for s in scalars:
        for v, rec in s.inputs.items():
            out.setdefault(v, rec)
    return list(out.items())


def assert_canonical(s: PrivateScalar) -> None:
    """s equals its rebuild through the validating constructors, term order included.

    A degree the op cached must be the true one; an unknown one stays unknown,
    so later ops see operands both with and without a cached degree.
    """
    terms = list(s.poly.items())
    rebuilt = PrivateScalar(Polynomial(dict(terms)), s.inputs)
    assert terms == list(rebuilt.poly.items())
    assert s.poly._degree in (None, rebuilt.poly.degree())
    assert list(s.inputs) == list(rebuilt.inputs)


SLOT = st.integers(0, 63)
COEFF = st.sampled_from(FOLD_COEFFS + (0.0, 1e308))
OP = st.one_of(
    st.tuples(st.sampled_from(("add", "sub")), SLOT, SLOT),
    st.tuples(st.sampled_from(("neg", "degree")), SLOT),
    st.tuples(st.sampled_from(("scale", "shift")), SLOT, COEFF),
    st.tuples(st.just("pow"), SLOT, st.integers(0, 3)),
    st.tuples(st.just("fold"), st.lists(SLOT, min_size=1, max_size=5)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(OP, max_size=16))
def test_op_results_equal_their_validated_rebuild(program):
    pool = [
        mk("A", 1.5, -2.0, 3.0),
        mk("B", 2.0, 0.0, 4.0),
        PrivateScalar.make_private("A", 7.0, 0.0, 9.0, attribute="b"),
        PrivateScalar.from_public(2.0),
        mk("B", 2.0, 0.0, 4.0).scale(1e308),  # two of these overflow a sum
    ]
    for op, *args in program:
        slots = args[0] if op == "fold" else args[:2] if op in ("add", "sub") else args[:1]
        operands = [pool[i % len(pool)] for i in slots]
        a, b = operands[0], operands[-1]
        if op == "degree":
            assert a.degree() == Polynomial(dict(a.poly.items())).degree()
            continue
        if op == "pow" and a.term_count > 6:
            continue
        polys = [s.poly for s in operands]
        if op == "sub":
            polys[1] = -b.poly
        try:
            if op in ("add", "sub"):
                result = a + b if op == "add" else a - b
            elif op == "fold":
                result = sum_scalars(operands)
            elif op == "neg":
                result = -a
            elif op == "scale":
                result = a.scale(args[1])
            elif op == "shift":
                result = a.shift(args[1])
            else:
                result = a ** args[1]
        except NonFiniteError:
            # an overflowing sum is refused exactly where the validated sum refuses it
            if op in ("add", "sub", "fold"):
                with pytest.raises(NonFiniteError):
                    functools.reduce(reference_add, polys)
            continue
        if op in ("add", "sub", "fold"):
            expected = functools.reduce(reference_add, polys)
            assert list(result.poly.items()) == list(expected.items())
        assert list(result.inputs.items()) == merged_inputs(operands)
        assert_canonical(result)
        pool.append(result)


def test_cancelled_top_term_lowers_the_cached_degree():
    x, y = mk("X", 1.0, 0.0, 2.0), mk("Y", 1.0, 0.0, 2.0)
    left, right = x ** 2 + y, -(x ** 2)
    assert (left.degree(), right.degree()) == (2, 2)  # both operands' degrees cached
    total = left + right
    assert total.degree() == 1
    assert list(total.poly.items()) == [(Monomial(((VarId("Y"), 1),)), 1.0)]
    assert_canonical(total)
    zero = x + (-x)
    assert zero.poly == Polynomial() and zero.degree() == 0
    assert list(zero.inputs) == [VarId("X")]
    assert_canonical(zero)
    assert sum_scalars([x, -x]).degree() == 0
    clash = mk("X", 1.0, 0.0, 3.0)
    for combine in (operator.add, operator.sub, operator.mul, lambda a, b: sum_scalars([a, b])):
        with pytest.raises(MetadataConflictError):
            combine(x ** 2 + y, clash)


def test_public_constructor_keeps_its_checks():
    a = mk("A", 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        PrivateScalar(a.poly, {})
    with pytest.raises(TypeError):
        PrivateScalar(a.poly, {VarId("A"): (1.0, 0.0, 2.0)})
    with pytest.raises(NonFiniteError):
        Polynomial({Monomial(): math.inf})


def test_left_fold_with_meta_after_each_step_does_linear_work(monkeypatch):
    # a running total that is described after every step, as the node does for
    # each binop: neither the sum nor its degree may rescan the whole total
    n = 2000
    calls = {"monomial.degree": 0, "variables": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Monomial, "degree", property(counted("monomial.degree", Monomial.degree.fget)))
    monkeypatch.setattr(Polynomial, "variables", counted("variables", Polynomial.variables))
    roots = [mk(f"e{i:05d}", float(i % 7), 0.0, 10.0) for i in range(n)]
    total = roots[0]
    for r in roots[1:]:
        total = total + r
        Node._meta(total)
    for r in roots:  # squares reach the sum with no degree computed yet
        total = total + r ** 2
        Node._meta(total)
    assert Node._meta(total) == {"degree": 2, "terms": 2 * n, "entities": n}
    assert calls["monomial.degree"] <= 4 * n, calls
    assert calls["variables"] <= n, calls  # the roots' own checks only


def test_division_rejected_with_guidance():
    a = mk("A", 5.0, 0.0, 10.0)
    with pytest.raises(UnsupportedOperationError) as err:
        _ = a / 2.0
    assert "rescale" in str(err.value)
    with pytest.raises(UnsupportedOperationError):
        _ = 2.0 / a
    with pytest.raises(UnsupportedOperationError):
        _ = a / a


def test_number_operands_are_shifts_and_scales_bit_for_bit():
    # x + c, c + x and x - c add the constant c or -c to the polynomial, c - x
    # adds c to its negation and x * c scales it, each sharing x's inputs
    def hexed(poly):
        return [(m, coef.hex()) for m, coef in poly.items()]

    x = mk("A", 1.5, -2.0, 3.0) * mk("B", 0.25, 0.0, 4.0) * 0.1 + mk("A", 1.5, -2.0, 3.0) + 0.3
    for c in (3.0, -0.0, 0.0, 2.5, 0.1, -0.3, 1e-300, 7):
        cases = (
            (x + c, x.shift(c), x.poly + Polynomial.constant(c)),
            (c + x, x.shift(c), x.poly + Polynomial.constant(c)),
            (x - c, x.shift(-c), x.poly - Polynomial.constant(c)),
            (c - x, (-x).shift(c), -x.poly + Polynomial.constant(c)),
            (x * c, x.scale(c), x.poly.scale(c)),
            (c * x, x.scale(c), x.poly.scale(c)),
        )
        for got, same, formula in cases:
            assert hexed(got.poly) == hexed(same.poly) == hexed(formula), c
            assert got.inputs is x.inputs


def test_both_kinds_of_scalar_inherit_one_operator_set():
    from pscalar.client import RemoteScalar
    from pscalar.scalar import ScalarArithmetic

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        for cls in (PrivateScalar, RemoteScalar):
            assert name not in vars(cls) and getattr(cls, name) is getattr(ScalarArithmetic, name)
    for bad in ("x", None, [1.0]):
        with pytest.raises(TypeError):
            _ = mk("A", 1.0, 0.0, 2.0) + bad


def test_pow_rejects_bad_exponents():
    a = mk("A", 5.0, 0.0, 10.0)
    with pytest.raises(UnsupportedOperationError):
        _ = a ** 1.5
    with pytest.raises(UnsupportedOperationError):
        _ = a ** -1
    with pytest.raises(UnsupportedOperationError):
        _ = a ** True  # bools are not exponents


def test_make_private_validation():
    with pytest.raises(ValueError):
        mk("A", 1.0, 5.0, 2.0)
    with pytest.raises(ValueError):
        mk("A", math.inf, 0.0, 1.0)


def test_box_and_assignment():
    a = mk("A", 130.0, 0.0, 122.0)
    b = mk("B", 3.0, -1.0, 4.0)
    f = a + b
    box = f.box()
    assert box[VarId("A")].hi == 122.0
    assert box[VarId("B")].lo == -1.0
    assert f.inputs[VarId("A")].clipped == 122.0
    assert f.inputs[VarId("B")].clipped == 3.0


def test_degree_and_terms():
    a, b = mk("A", 1.0, 0.0, 2.0), mk("B", 1.0, 0.0, 2.0)
    f = (a + b) ** 3
    assert f.degree() == 3
    assert f.term_count == 4  # a^3, 3a^2b, 3ab^2, b^3
