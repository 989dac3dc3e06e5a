"""Polynomial engine: exact arithmetic, evaluation, calculus, interval ranges."""

from __future__ import annotations

import math
import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import corner_max_abs, eval_terms, grid_max_abs
from conftest import to_terms
from pscalar import poly
from pscalar.poly import (
    Interval,
    MissingVariableError,
    Monomial,
    NonFiniteError,
    Polynomial,
    TermLimitError,
    VarId,
)

A, B, C = VarId("A"), VarId("B"), VarId("C")
xA, xB, xC = (Polynomial.variable(v) for v in (A, B, C))


# -- frozen examples ------------------------------------------------------------------


def test_variable_and_constant_evaluate():
    assert xA.evaluate({A: 7.0}) == 7.0
    assert Polynomial.constant(3.5).evaluate({}) == 3.5
    assert Polynomial.zero().evaluate({}) == 0.0
    assert Polynomial.zero().is_zero


def test_known_polynomial_value():
    # f = 2*A^2*B + 3*B  at A=2, B=5  ->  2*4*5 + 15 = 55
    f = xA.mul(xA).mul(xB).scale(2.0) + xB.scale(3.0)
    assert f.evaluate({A: 2.0, B: 5.0}) == 55.0
    assert f.degree() == 3
    assert f.degree_in(A) == 2
    assert f.degree_in(B) == 1
    assert f.degree_in(C) == 0
    assert f.term_count == 2
    assert f.variables() == {A, B}


def test_known_partial_derivative():
    # d/dA (2*A^2*B + 3*B) = 4*A*B;  frozen against the oracle's differentiator
    f = xA.mul(xA).mul(xB).scale(2.0) + xB.scale(3.0)
    df = f.partial(A)
    assert to_terms(df) == [(4.0, {"A": 1, "B": 1})]
    assert df.evaluate({A: -3.0, B: 2.0}) == -24.0
    # derivative with respect to an absent variable is zero
    assert f.partial(C).is_zero


def test_cancellation_drops_terms():
    f = xA + xB
    g = f - xB
    assert g == xA
    assert (f - f).is_zero
    assert (f - f).term_count == 0


def test_text_form():
    f = xA.mul(xB).scale(2.0) + Polynomial.constant(3.0)
    assert str(f) == "2*x[A]*x[B] + 3"
    assert str(Polynomial.zero()) == "0"
    assert str(xA - xB.scale(2.0)) in ("x[A] - 2*x[B]", "- 2*x[B] + x[A]")
    assert str(Monomial.of({A: 2, B: 1})) == "x[A]^2*x[B]"


def test_sorted_terms_graded_lex():
    f = xA + xA.mul(xA) + Polynomial.constant(1.0) + xB
    order = [str(m) for m, _ in f.sorted_terms()]
    assert order == ["x[A]^2", "x[A]", "x[B]", "1"]


def _dense_graded_lex_key(variables):
    # the reference order: a dense exponent vector over every variable, sorted
    index = {v: i for i, v in enumerate(sorted(variables))}

    def key(item):
        m, _ = item
        vec = [0] * len(index)
        for v, e in m.powers:
            vec[index[v]] = e
        return (-m.degree, [-e for e in vec])

    return key


_VARS = [VarId(e, a) for e in ("A", "B", "a", "b1", "zz") for a in ("", "kg")]


@given(
    st.dictionaries(
        st.dictionaries(st.sampled_from(_VARS), st.integers(1, 3), max_size=4).map(
            lambda powers: tuple(sorted(powers.items()))
        ),
        st.floats(-5.0, 5.0).filter(lambda c: c != 0.0),
        max_size=24,
    )
)
@settings(max_examples=150, deadline=None)
def test_sorted_terms_match_the_dense_exponent_order(terms):
    p = Polynomial({Monomial(powers): c for powers, c in terms.items()})
    want = sorted(p.items(), key=_dense_graded_lex_key(p.variables()))
    assert p.sorted_terms() == want


# -- validation -----------------------------------------------------------------------


def test_missing_variable_is_named():
    f = xA + xB
    with pytest.raises(MissingVariableError) as err:
        f.evaluate({A: 1.0})
    assert "B" in str(err.value)


def test_non_finite_coefficients_rejected():
    with pytest.raises(NonFiniteError):
        Polynomial.constant(math.inf)
    with pytest.raises(NonFiniteError):
        Polynomial.constant(math.nan)
    with pytest.raises(NonFiniteError):
        xA.scale(math.inf)


def test_monomial_of_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Monomial.of({A: -1})
    with pytest.raises(ValueError):
        Monomial.of({A: 1.5})  # type: ignore[dict-item]
    assert Monomial.of({A: 0}) == Monomial.unit()


def test_power_validation():
    assert xA.power(0) == Polynomial.constant(1.0)
    with pytest.raises(ValueError):
        xA.power(-1)


def test_term_limit_enforced(monkeypatch):
    # (A+B)*(A+B) with a cap of 2 possible output terms must refuse
    f = xA + xB
    with monkeypatch.context() as m:
        m.setattr(poly, "TERM_LIMIT", 2)
        with pytest.raises(TermLimitError):
            f.mul(f)
    # and the default cap stops runaway blowup: (x1+..+x24)^8 has C(31,7) ~ 2.6e6 terms
    many = Polynomial.zero()
    vs = [Polynomial.variable(VarId(f"v{i}")) for i in range(24)]
    for v in vs:
        many = many + v
    with pytest.raises(TermLimitError):
        many.power(8)


# -- algebraic laws (structural equality; integer coefficients keep floats exact) -----


coeffs = st.integers(min_value=-4, max_value=4)


def poly_strategy(vars_=(A, B, C), max_terms=4, max_exp=2):
    mono = st.dictionaries(
        st.sampled_from(list(vars_)), st.integers(1, max_exp), max_size=len(vars_)
    )
    term = st.tuples(coeffs, mono)

    def build(terms):
        p = Polynomial.zero()
        for c, powers in terms:
            p = p + _term(c, powers)
        return p

    return st.lists(term, min_size=0, max_size=max_terms).map(build)


def _term(c, powers):
    t = Polynomial.constant(float(c))
    for v, e in powers.items():
        t = t.mul(Polynomial.variable(v).power(e))
    return t


@settings(max_examples=120, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p.mul(q) == q.mul(p)
    assert p.mul(q).mul(r) == p.mul(q.mul(r))
    assert p.mul(q + r) == p.mul(q) + p.mul(r)
    assert p + Polynomial.zero() == p
    assert p.mul(Polynomial.constant(1.0)) == p
    assert p.mul(Polynomial.zero()).is_zero
    assert (p - p).is_zero


@settings(max_examples=120, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_evaluation_homomorphism(p, q):
    point = {A: 1.5, B: -2.0, C: 0.25}
    assert math.isclose(
        (p + q).evaluate(point), p.evaluate(point) + q.evaluate(point),
        rel_tol=1e-12, abs_tol=1e-12,
    )
    assert math.isclose(
        p.mul(q).evaluate(point), p.evaluate(point) * q.evaluate(point),
        rel_tol=1e-12, abs_tol=1e-9,
    )


@settings(max_examples=80, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_product_rule(p, q):
    left = p.mul(q).partial(A)
    right = p.partial(A).mul(q) + p.mul(q.partial(A))
    assert left == right


@settings(max_examples=80, deadline=None)
@given(poly_strategy())
def test_power_matches_repeated_mul(p):
    assert p.power(3) == p.mul(p).mul(p)


@settings(max_examples=80, deadline=None)
@given(poly_strategy())
def test_derivative_matches_oracle(p):
    def canon(pairs):
        merged = {}
        for c, pw in pairs:
            key = tuple(sorted(pw.items()))
            merged[key] = merged.get(key, 0.0) + c
        return {k: v for k, v in merged.items() if v != 0.0}

    assert canon(to_terms(p.partial(A))) == canon(_oracle_diff(to_terms(p)))


def _oracle_diff(terms):
    from oracles import diff_terms

    return [(c, pw) for c, pw in diff_terms(terms, "A") if c != 0]


# -- key records ----------------------------------------------------------------------


@given(st.lists(st.builds(VarId, st.text(max_size=3), st.text(max_size=3)), max_size=30))
def test_varids_sort_by_entity_then_attribute(vs):
    assert sorted(vs) == sorted(vs, key=attrgetter("entity", "attribute"))


def _monomials():
    """Monomials over a few short entity names, often disjoint and in order."""
    var = st.builds(VarId, st.text("ABCD", max_size=2), st.sampled_from(["", "x"]))
    return st.dictionaries(var, st.integers(1, 3), max_size=4).map(Monomial.of)


@settings(max_examples=300, deadline=None)
@given(_monomials(), _monomials())
def test_monomial_product_matches_the_dict_and_sort_product(m, n):
    merged = dict(m.powers)
    for v, e in n.powers:
        merged[v] = merged.get(v, 0) + e
    expected = Monomial(tuple(sorted(merged.items())))
    for product in (m * n, n * m):
        assert type(product) is Monomial and product.powers == expected.powers
        assert hash(product) == hash(expected)


def test_key_records_hash_as_their_field_tuples():
    # the hashes a frozen dataclass gave, so sets and dicts of keys iterate as before
    m = Monomial(((A, 2), (B, 1)))
    assert hash(A) == hash(("A", "")) and hash(VarId("A", "age")) == hash(("A", "age"))
    assert hash(m) == hash((m.powers,))


def test_tuple_records_gain_no_arithmetic():
    m = Monomial.of({A: 1})
    i = Interval(0.0, 1.0)
    for op in (lambda: m + m, lambda: 2 * m, lambda: i + i, lambda: 2 * i):
        with pytest.raises(TypeError):
            op()
    assert m * m == Monomial.of({A: 2})


# -- interval ranges ------------------------------------------------------------------


def test_interval_primitives():
    i = Interval(-3.0, 2.0)
    assert i.power(2) == Interval(0.0, 9.0)       # even power straddling zero
    assert i.power(3) == Interval(-27.0, 8.0)     # odd power is monotone
    assert Interval(1.0, 2.0).power(2) == Interval(1.0, 4.0)
    assert Interval(-3.0, -1.0).power(2) == Interval(1.0, 9.0)
    assert i.abs_max() == 3.0
    assert Interval(-1.0, 2.0) * Interval(3.0, 4.0) == Interval(-4.0, 8.0)
    assert Interval(1.0, 2.0).hull_with(0.0) == Interval(0.0, 2.0)
    assert Interval(1.0, 2.0).hull_with(1.5) == Interval(1.0, 2.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)


def test_range_over_contains_dense_samples():
    rnd = random.Random(7)
    for _ in range(40):
        p = _random_poly(rnd)
        box = {v: Interval(*sorted((rnd.uniform(-4, 4), rnd.uniform(-4, 4)))) for v in p.variables()}
        rng_iv = p.range_over(box)
        names = sorted(p.variables(), key=lambda v: v.label())
        grids = [
            [box[v].lo + (box[v].hi - box[v].lo) * k / 10.0 for k in range(11)]
            for v in names
        ]
        import itertools

        for point in itertools.product(*grids):
            val = p.evaluate(dict(zip(names, point)))
            assert rng_iv.lo - 1e-9 <= val <= rng_iv.hi + 1e-9


def test_range_over_tight_for_single_monomial():
    # x^2 over [-3, 2]: per-monomial interval power is exact -> [0, 9]
    assert xA.mul(xA).range_over({A: Interval(-3.0, 2.0)}) == Interval(0.0, 9.0)


def _random_poly(rnd: random.Random) -> Polynomial:
    vars_ = [A, B, C][: rnd.randint(1, 3)]
    p = Polynomial.constant(rnd.uniform(-2, 2))
    for _ in range(rnd.randint(1, 5)):
        t = Polynomial.constant(rnd.uniform(-3, 3))
        for v in rnd.sample(vars_, rnd.randint(1, len(vars_))):
            t = t.mul(Polynomial.variable(v).power(rnd.randint(1, 3)))
        p = p + t
    return p


# -- oracle agreement on absolute suprema (drives the slope machinery downstream) ----


def test_grid_oracle_agreement_on_eval():
    rnd = random.Random(11)
    for _ in range(25):
        p = _random_poly(rnd)
        terms = to_terms(p)
        point = {v: rnd.uniform(-2, 2) for v in p.variables()}
        plain = {v.label(): x for v, x in point.items()}
        assert math.isclose(
            p.evaluate(point), eval_terms(terms, plain), rel_tol=1e-12, abs_tol=1e-9
        )
