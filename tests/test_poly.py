"""Polynomial engine: exact arithmetic, evaluation, calculus, interval ranges."""

from __future__ import annotations

import hashlib
import math
import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import corner_max_abs, eval_terms, grid_max_abs, mul_terms, power_terms, scale_terms
from conftest import random_scalar, to_terms
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
from pscalar.scalar import PrivateScalar

A, B, C = VarId("A"), VarId("B"), VarId("C")
xA, xB, xC = (Polynomial.variable(v) for v in (A, B, C))


# -- frozen examples ------------------------------------------------------------------


def test_variable_and_constant_evaluate():
    assert xA.evaluate({A: 7.0}) == 7.0
    assert Polynomial.constant(3.5).evaluate({}) == 3.5
    assert Polynomial().evaluate({}) == 0.0
    assert Polynomial().term_count == 0


def test_known_polynomial_value():
    # f = 2*A^2*B + 3*B  at A=2, B=5  ->  2*4*5 + 15 = 55
    f = xA.mul(xA).mul(xB).scale(2.0) + xB.scale(3.0)
    assert f.evaluate({A: 2.0, B: 5.0}) == 55.0
    assert f.degree() == 3
    assert [max(m.degree_in(v) for m, _ in f.items()) for v in (A, B, C)] == [2, 1, 0]
    assert f.term_count == 2
    assert f.variables() == {A, B}


def test_known_partial_derivative():
    # d/dA (2*A^2*B + 3*B) = 4*A*B;  frozen against the oracle's differentiator
    f = xA.mul(xA).mul(xB).scale(2.0) + xB.scale(3.0)
    df = f.partial(A)
    assert to_terms(df) == [(4.0, {"A": 1, "B": 1})]
    assert df.evaluate({A: -3.0, B: 2.0}) == -24.0
    # derivative with respect to an absent variable is zero
    assert f.partial(C) == Polynomial()


def test_cancellation_drops_terms():
    f = xA + xB
    g = f - xB
    assert g == xA
    assert f - f == Polynomial()
    assert (f - f).term_count == 0


def test_text_form():
    f = xA.mul(xB).scale(2.0) + Polynomial.constant(3.0)
    assert str(f) == "2*x[A]*x[B] + 3"
    assert str(Polynomial()) == "0"
    assert str(xA - xB.scale(2.0)) in ("x[A] - 2*x[B]", "- 2*x[B] + x[A]")
    assert str(Monomial(((A, 2), (B, 1)))) == "x[A]^2*x[B]"


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


def test_text_of_random_polynomials_is_pinned():
    # 300 random scalars with attributes, unit and huge coefficients, leading
    # minus signs and the zero polynomial; the digest was taken before the
    # text and its term order were sped up
    texts = []
    for seed in range(300):
        rnd = random.Random(seed)
        s = random_scalar(rnd, max_vars=5, max_terms=10, allow_negative_floor=seed % 2 == 0)
        if seed % 3 == 0:
            kg = PrivateScalar.make_private("e1", 1.0, 0.0, 2.0, attribute="kg")
            s = s * kg.shift(rnd.choice([-1.0, 1.0, 1e-7, 2.5e12]))
        if seed % 5 == 0:
            s = -s
        if seed % 7 == 0:
            a = PrivateScalar.make_private("a0", 1.0, -1.0, 1.0)
            s = s + a - a ** 2 if seed % 2 else a ** 3 - s
        if seed % 100 == 0:
            s = s - s
        texts.append(str(s.poly))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "cce8dc510bd6bafc4d05b577d1dad172578146403e903afbe3f404b18f4f9b27"


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
    many = Polynomial()
    vs = [Polynomial.variable(VarId(f"v{i}")) for i in range(24)]
    for v in vs:
        many = many + v
    with pytest.raises(TermLimitError):
        many.power(8)


# -- the product kernel against the reference, float for float --------------------------

# entity-only and attributed variables, so monomials join either way round, interleave
# (A < A:kg < B) and overlap
_KVARS = [VarId("A"), VarId("A", "kg"), VarId("B"), VarId("C")]
_BY_LABEL = {v.label(): v for v in _KVARS}
# small integers cancel exactly; random mantissas round, so the order of float
# operations shows; 1e200 overflows a product and 1e-200 underflows one to 0.0
_KCOEFFS = st.one_of(
    st.integers(-3, 3).filter(bool).map(float),
    st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 1e-3),
    st.sampled_from([1e200, -1e200, 1e-200, -3e-200]),
)


def _kernel_polys(max_terms=5, max_exp=3, coeffs=_KCOEFFS):
    mono = st.dictionaries(st.sampled_from(_KVARS), st.integers(1, max_exp), max_size=3).map(
        lambda powers: Monomial(tuple(sorted(powers.items())))
    )
    return st.dictionaries(mono, coeffs, max_size=max_terms).map(Polynomial)


def _raw(p: Polynomial):
    return [(c, {v.label(): e for v, e in m.powers}) for m, c in p.items()]


def _hex(terms):
    return [(c.hex(), powers) for c, powers in terms]


def _assert_kernel_result(got_call, raw):
    """The kernel's answer is the reference's nonzero terms in order, or its first non-finite."""
    bad = [(c, powers) for c, powers in raw if not math.isfinite(c)]
    if bad:
        c, powers = bad[0]
        term = Monomial(tuple(sorted((_BY_LABEL[n], e) for n, e in powers.items())))
        with pytest.raises(NonFiniteError) as err:
            got_call()
        assert str(err.value) == f"non-finite coefficient {c!r} on term {term}"
        return
    got = got_call()
    want = [(c, powers) for c, powers in raw if c != 0.0]
    assert _hex(_raw(got)) == _hex(want)
    assert got.degree() == max((sum(pw.values()) for _, pw in want), default=0)


@settings(max_examples=300, deadline=None)
@given(_kernel_polys(), _kernel_polys())
def test_mul_is_the_reference_product_term_for_term(p, q):
    raw = mul_terms(_raw(p), _raw(q))
    _assert_kernel_result(lambda: p.mul(q), raw)
    # the term cap counts every monomial formed, one that cancelled to 0.0 included
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "TERM_LIMIT", len(raw))
        _assert_kernel_result(lambda: p.mul(q), raw)
        if raw:
            patch.setattr(poly, "TERM_LIMIT", len(raw) - 1)
            with pytest.raises(TermLimitError, match="term cap"):
                p.mul(q)


@settings(max_examples=200, deadline=None)
@given(_kernel_polys(), st.one_of(_KCOEFFS, st.just(0.0)))
def test_scale_is_the_reference_scaling_term_for_term(p, c):
    _assert_kernel_result(lambda: p.scale(c), scale_terms(_raw(p), c))


@settings(max_examples=150, deadline=None)
@given(_kernel_polys(max_terms=4, max_exp=2), st.integers(0, 6))
def test_power_is_the_reference_power_term_for_term(p, k):
    try:
        want = power_terms(_raw(p), k)
    except OverflowError:
        with pytest.raises(NonFiniteError):
            p.power(k)
        return
    got = p.power(k)
    assert _hex(_raw(got)) == _hex(want)
    assert got.degree() == max((sum(pw.values()) for _, pw in want), default=0)


def test_a_cancelled_cross_term_drops_but_still_counts_against_the_term_cap(monkeypatch):
    product = (xA + xB).mul(xA - xB)
    assert [(str(m), c) for m, c in product.items()] == [("x[A]^2", 1.0), ("x[B]^2", -1.0)]
    assert product.degree() == 2
    monkeypatch.setattr(poly, "TERM_LIMIT", 2)  # x[A]*x[B] was formed before it cancelled
    with pytest.raises(TermLimitError, match="term cap of 2 terms"):
        (xA + xB).mul(xA - xB)


def test_the_first_power_is_the_polynomial_itself(monkeypatch):
    # no product by 1.0 (which was exact): the first power of a sum over the term
    # cap is that sum, where it used to be refused with the term cap
    monkeypatch.setattr(poly, "TERM_LIMIT", 3)
    p = xA + xB + xC + Polynomial.variable(VarId("D"))
    assert p.power(1) is p and p ** 1 is p
    with pytest.raises(TermLimitError, match="term cap of 3 terms"):
        p.power(2)


# -- algebraic laws (structural equality; integer coefficients keep floats exact) -----


coeffs = st.integers(min_value=-4, max_value=4)


def poly_strategy(vars_=(A, B, C), max_terms=4, max_exp=2):
    mono = st.dictionaries(
        st.sampled_from(list(vars_)), st.integers(1, max_exp), max_size=len(vars_)
    )
    term = st.tuples(coeffs, mono)

    def build(terms):
        p = Polynomial()
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
    assert p + Polynomial() == p
    assert p.mul(Polynomial.constant(1.0)) == p
    assert p.mul(Polynomial()) == Polynomial()
    assert p - p == Polynomial()


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
    powers = st.dictionaries(var, st.integers(1, 3), max_size=4)
    return powers.map(lambda p: Monomial(tuple(sorted(p.items()))))


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
    m = Monomial(((A, 1),))
    i = Interval(0.0, 1.0)
    for op in (lambda: m + m, lambda: 2 * m, lambda: i + i, lambda: 2 * i):
        with pytest.raises(TypeError):
            op()
    assert m * m == Monomial(((A, 2),))


# -- interval ranges ------------------------------------------------------------------


def test_interval_primitives():
    i = Interval(-3.0, 2.0)
    assert i.power(2) == Interval(0.0, 9.0)       # even power straddling zero
    assert i.power(3) == Interval(-27.0, 8.0)     # odd power is monotone
    assert Interval(1.0, 2.0).power(2) == Interval(1.0, 4.0)
    assert Interval(-3.0, -1.0).power(2) == Interval(1.0, 9.0)
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
