"""Sparse multivariate polynomial arithmetic over entity-indexed variables."""

from __future__ import annotations

import math
from collections import namedtuple
from operator import itemgetter
from typing import Iterator, Mapping

#: Most terms a product may hold before it is refused.
TERM_LIMIT = 100_000
#: Most term pairs a product may form before it is refused: enough for the
#: square of any sum whose square fits TERM_LIMIT (446 terms, 198,916 pairs).
PAIR_LIMIT = 2 * TERM_LIMIT

_exponent = itemgetter(1)  # of a (variable, exponent) pair
_new_tuple = tuple.__new__


class PolynomialError(ValueError):
    """Base class for polynomial arithmetic failures."""


class MissingVariableError(PolynomialError):
    """An assignment or box does not cover some variable of the polynomial."""


class TermLimitError(PolynomialError):
    """A product would exceed the term cap ``TERM_LIMIT`` or the work cap ``PAIR_LIMIT``."""


class NonFiniteError(PolynomialError):
    """A coefficient or operand stopped being a finite float."""


def _require_finite(x, what: str) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise NonFiniteError(f"{what} must be a real number, got {x!r}") from None
    if not math.isfinite(x):
        raise NonFiniteError(f"{what} must be finite, got {x!r}")
    return x


def _tuple_record(name: str, fields: str, defaults=None) -> type:
    """A namedtuple base for a public record: it hashes, compares and orders in C.

    Tuple ``+`` and ``*`` are taken away, so a record gains no arithmetic.
    """
    base = namedtuple(name, fields, defaults=defaults)
    base.__add__ = base.__mul__ = base.__rmul__ = lambda self, other: NotImplemented
    return base


class _SlotsRecord:
    """Equality and repr over ``__slots__``, for records that must never be tuples.

    They hold a raw value or a value-dependent cost: ``json.dumps`` refuses
    them, and the leak scan never meets their numbers bare.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self.__slots__] == [
            getattr(other, f) for f in self.__slots__
        ]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class VarId(_tuple_record("VarId", "entity attribute", defaults=("",))):
    """One indeterminate: a single attribute contributed by a single entity.

    Two VarIds name the same indeterminate iff both fields match, and they
    order by ``(entity, attribute)``.  Budget accounting aggregates spends by
    ``entity`` alone, so one person contributing several attributes is
    charged for all of them together.
    """

    __slots__ = ()

    def label(self) -> str:
        return f"{self.entity}:{self.attribute}" if self.attribute else self.entity


class Monomial(_tuple_record("Monomial", "powers", defaults=((),))):
    """Product of variables with positive integer exponents; the empty product is 1.

    ``powers`` is kept sorted by variable with every exponent >= 1, so equal
    monomials are structurally identical and hash alike.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return sum(map(_exponent, self.powers))

    def degree_in(self, v: VarId) -> int:
        for var, e in self.powers:
            if var == v:
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.powers, other.powers
        # disjoint and in order, as in each step of a left fold over roots: join
        if not a or not b or a[-1][0] < b[0][0]:
            return Monomial(a + b)
        if b[-1][0] < a[0][0]:
            return Monomial(b + a)
        return _merged(a, b)

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        return "*".join(
            [f"x[{v.label()}]" if e == 1 else f"x[{v.label()}]^{e}" for v, e in self.powers]
        )


def _merged(a: tuple, b: tuple) -> Monomial:
    """The product of two monomials' powers that share a variable or interleave."""
    merged = dict(a)
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return _new_tuple(Monomial, (tuple(sorted(merged.items())),))


_UNIT = Monomial()


class Interval(_tuple_record("Interval", "lo hi")):
    """Closed interval [lo, hi] with finite endpoints."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        lo = _require_finite(lo, "interval lower end")
        hi = _require_finite(hi, "interval upper end")
        if lo > hi:
            raise ValueError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    def hull_with(self, x: float) -> "Interval":
        """Smallest interval covering both self and the point x."""
        x = _require_finite(x, "hull point")
        return Interval(min(self.lo, x), max(self.hi, x))

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def power(self, k: int) -> "Interval":
        """Exact range of x**k over the interval (not repeated multiplication)."""
        if not isinstance(k, int) or k < 0:
            raise PolynomialError(f"interval power must be a non-negative integer, got {k!r}")
        if k == 0:
            return Interval(1.0, 1.0)
        try:
            if k % 2 == 1:
                return Interval(self.lo**k, self.hi**k)
            lo_k, hi_k = abs(self.lo) ** k, abs(self.hi) ** k
        except OverflowError:
            raise NonFiniteError(f"power {k} of {self} overflows a float") from None
        if self.lo <= 0.0 <= self.hi:
            return Interval(0.0, max(lo_k, hi_k))
        return Interval(min(lo_k, hi_k), max(lo_k, hi_k))


def _merge_terms(out: dict[Monomial, float], p: "Polynomial", degree: int | None) -> int | None:
    """Add p's terms into canonical ``out`` of degree ``degree``; return the sum's degree.

    A sum of exactly 0.0 is deleted, so a later term on its monomial goes last,
    as in a sum built from scratch.  The degree is None (unknown) once a term
    cancelled or when ``degree`` is; p's own is computed if need be.
    """
    for m, c in p._terms.items():
        total = out.get(m, 0.0) + c
        if total == 0.0:
            del out[m]
            degree = None
        elif math.isfinite(total):
            out[m] = total
        else:
            raise NonFiniteError(f"coefficient of term {m} overflows a float")
    if degree is None:
        return None
    return max(degree, p.degree() if p._degree is None else p._degree)


def _collected(terms: dict[Monomial, float], degree: int | None) -> "Polynomial":
    """The polynomial over freshly computed ``terms``, of degree ``degree`` if none is 0.0.

    Exact zeros are dropped, leaving the degree to be computed when asked for;
    a non-finite coefficient raises the constructor's NonFiniteError.
    """
    coefficients = terms.values()
    if not all(map(math.isfinite, coefficients)):
        Polynomial(terms)  # raises NonFiniteError naming the first such term
    if 0.0 in coefficients:
        return Polynomial._canonical({m: c for m, c in terms.items() if c != 0.0})
    return Polynomial._canonical(terms, degree)


def _grlex_key(m: Monomial) -> tuple:
    # plain tuples of str and int, which the collector stops tracking, so a
    # sort of many terms does not make it walk the whole heap
    return (-sum(map(_exponent, m.powers)), tuple([(*v, -e) for v, e in m.powers]))


class Polynomial:
    """Canonical sparse polynomial: a map from monomials to nonzero coefficients.

    ``2*x[A]*x[B] + 3`` is stored as ``{Monomial(x_A*x_B): 2.0, Monomial(): 3.0}``.
    Like terms are always collected and exact-zero coefficients dropped, so
    structural equality coincides with semantic equality.  Instances are
    treated as immutable; every operation returns a new polynomial.
    """

    __slots__ = ("_terms", "_degree")

    def __init__(self, terms: Mapping[Monomial, float] | None = None):
        clean: dict[Monomial, float] = {}
        if terms:
            for m, c in terms.items():
                c = float(c)
                if not math.isfinite(c):
                    raise NonFiniteError(f"non-finite coefficient {c!r} on term {m}")
                if c != 0.0:
                    clean[m] = c
        self._terms = clean
        self._degree: int | None = None  # computed on first use

    # -- construction -------------------------------------------------------

    @classmethod
    def _canonical(cls, terms: dict[Monomial, float], degree: int | None = None) -> "Polynomial":
        """Polynomial over terms that are canonical by construction: kept, not checked."""
        p = object.__new__(cls)
        p._terms = terms
        p._degree = degree
        return p

    @classmethod
    def constant(cls, c) -> "Polynomial":
        c = _require_finite(c, "constant")
        return cls._canonical({_UNIT: c} if c != 0.0 else {}, 0)

    @classmethod
    def variable(cls, v: VarId) -> "Polynomial":
        return cls._canonical({Monomial(((v, 1),)): 1.0}, 1)

    # -- inspection ----------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, float]]:
        return iter(self._terms.items())

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        if self._degree is None:
            self._degree = max((m.degree for m in self._terms), default=0)
        return self._degree

    def variables(self) -> frozenset[VarId]:
        return frozenset(v for m in self._terms for v, _ in m.powers)

    def sorted_terms(self) -> list[tuple[Monomial, float]]:
        """Terms in graded-lexicographic order, highest first.

        A monomial's ``(variable, -exponent)`` pairs order it as its dense
        exponent vector would, since variables order as their ranks do: of
        equal degree, no key is a prefix of another.
        """
        terms = self._terms
        return [(m, terms[m]) for m in sorted(terms, key=_grlex_key)]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        return Polynomial._canonical(out, _merge_terms(out, other, self._degree))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._canonical({m: -c for m, c in self._terms.items()}, self._degree)

    def scale(self, c) -> "Polynomial":
        c = _require_finite(c, "scale factor")
        return _collected({m: c * coeff for m, coeff in self._terms.items()}, self._degree)

    def mul(self, other: "Polynomial") -> "Polynomial":
        if len(self._terms) * len(other._terms) > PAIR_LIMIT:
            raise TermLimitError(f"product exceeds the work cap of {PAIR_LIMIT} term pairs")
        out: dict[Monomial, float] = {}
        get = out.get
        # each of other's terms once: its monomial, powers, first and last variable
        row = []
        for m2, c2 in other._terms.items():
            b = m2.powers
            row.append((m2, b, b[0][0], b[-1][0], c2) if b else (m2, b, None, None, c2))
        for m1, c1 in self._terms.items():
            a = m1.powers
            if not a:
                for m2, _, _, _, c2 in row:
                    out[m2] = get(m2, 0.0) + c1 * c2
            else:
                a_first, a_last = a[0][0], a[-1][0]
                for m2, b, b_first, b_last, c2 in row:
                    # as Monomial.__mul__, building no tuple where one operand is 1
                    if not b:
                        m = m1
                    elif a_last < b_first:
                        m = _new_tuple(Monomial, (a + b,))
                    elif b_last < a_first:
                        m = _new_tuple(Monomial, (b + a,))
                    else:
                        m = _merged(a, b)
                    out[m] = get(m, 0.0) + c1 * c2
            if len(out) > TERM_LIMIT:
                raise TermLimitError(f"product exceeds the term cap of {TERM_LIMIT} terms")
        # with no term lost, the product of two leading terms keeps the top degree
        return _collected(out, self.degree() + other.degree() if out else 0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.mul(other)

    def power(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise PolynomialError(f"exponent must be a non-negative integer, got {k!r}")
        if k == 0:
            return Polynomial.constant(1.0)
        base = self
        while not k & 1:
            base = base.mul(base)
            k >>= 1
        out = base  # the first factor: a product by 1.0 would be exact
        k >>= 1
        while k:
            base = base.mul(base)
            if k & 1:
                out = out.mul(base)
            k >>= 1
        return out

    def __pow__(self, k: int) -> "Polynomial":
        return self.power(k)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, assignment: Mapping[VarId, float]) -> float:
        """Exact float evaluation; every variable must have an assigned value.

        Raises NonFiniteError when the value overflows a float.
        """
        total = 0.0
        try:
            for m, c in self._terms.items():
                term = c
                for v, e in m.powers:
                    if v not in assignment:
                        raise MissingVariableError(f"no value assigned for variable {v.label()}")
                    term *= assignment[v] ** e
                total += term
        except OverflowError:
            total = math.inf  # a power overflowed; products that overflow reach inf silently
        if not math.isfinite(total):
            raise NonFiniteError("polynomial value overflows a float")
        return total

    def partial(self, v: VarId) -> "Polynomial":
        """Formal partial derivative with respect to v: each term loses one power of v."""
        out: dict[Monomial, float] = {}
        for m, c in self._terms.items():
            e = m.degree_in(v)
            if e == 0:
                continue
            dm = Monomial(tuple((u, k - (u == v)) for u, k in m.powers if u != v or k > 1))
            try:
                out[dm] = out.get(dm, 0.0) + c * e
            except OverflowError:
                raise NonFiniteError(f"exponent {e} of {v.label()} overflows a float") from None
        return Polynomial(out)

    def range_over(self, box: Mapping[VarId, Interval]) -> Interval:
        """Sound interval bound on the polynomial's range over the box.

        Each monomial uses the exact per-variable power rule, so single-term
        polynomials are bounded tightly; sums of terms may be conservative.
        """
        lo = hi = 0.0
        for m, c in self._terms.items():
            r = Interval(c, c)
            for v, e in m.powers:
                if v not in box:
                    raise MissingVariableError(f"no box entry for variable {v.label()}")
                r = r * box[v].power(e)
            lo += r.lo
            hi += r.hi
        return Interval(lo, hi)

    # -- equality and text ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-ish container semantics; not usable as a dict key

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for m, c in self.sorted_terms():
            mag = abs(c)
            if not m.powers:
                body = f"{mag:g}"
            elif mag == 1.0:
                body = str(m)
            else:
                body = f"{mag:g}*{m}"
            chunks.append(f"- {body}" if c < 0 else f"+ {body}")
        text = " ".join(chunks)  # the leading sign has no space, and no "+"
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self})"
