"""Sparse multivariate polynomial arithmetic over entity-indexed variables."""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterator, Mapping

#: Most terms a product may hold before it is refused.
TERM_LIMIT = 100_000


class PolynomialError(ValueError):
    """Base class for polynomial arithmetic failures."""


class MissingVariableError(PolynomialError):
    """An assignment or box does not cover some variable of the polynomial."""


class TermLimitError(PolynomialError):
    """An operation would exceed the term-count cap ``TERM_LIMIT``."""


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

    @classmethod
    def unit(cls) -> "Monomial":
        return _UNIT

    @classmethod
    def of(cls, exponents: Mapping[VarId, int]) -> "Monomial":
        items = []
        for v, e in exponents.items():
            if e == 0:
                continue
            if not isinstance(e, int) or e < 0:
                raise PolynomialError(
                    f"exponent of {v.label()} must be a non-negative integer, got {e!r}"
                )
            items.append((v, e))
        return cls(tuple(sorted(items)))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def degree_in(self, v: VarId) -> int:
        for var, e in self.powers:
            if var == v:
                return e
        return 0

    def variables(self) -> frozenset[VarId]:
        return frozenset(v for v, _ in self.powers)

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.powers, other.powers
        # disjoint and in order, as in each step of a left fold over roots: join
        if not a or not b or a[-1][0] < b[0][0]:
            return Monomial(a + b)
        if b[-1][0] < a[0][0]:
            return Monomial(b + a)
        merged = dict(a)
        for v, e in b:
            merged[v] = merged.get(v, 0) + e
        return Monomial(tuple(sorted(merged.items())))

    def without_one(self, v: VarId) -> "Monomial":
        """This monomial with one power of v removed (differentiation step)."""
        out = []
        for var, e in self.powers:
            if var == v:
                if e > 1:
                    out.append((var, e - 1))
            else:
                out.append((var, e))
        return Monomial(tuple(out))

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        parts = []
        for v, e in self.powers:
            parts.append(f"x[{v.label()}]" if e == 1 else f"x[{v.label()}]^{e}")
        return "*".join(parts)


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

    def abs_max(self) -> float:
        return max(abs(self.lo), abs(self.hi))

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
    def zero(cls) -> "Polynomial":
        return cls()

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

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        if self._degree is None:
            self._degree = max((m.degree for m in self._terms), default=0)
        return self._degree

    def degree_in(self, v: VarId) -> int:
        return max((m.degree_in(v) for m in self._terms), default=0)

    def variables(self) -> frozenset[VarId]:
        out: set[VarId] = set()
        for m in self._terms:
            out.update(m.variables())
        return frozenset(out)

    def sorted_terms(self) -> list[tuple[Monomial, float]]:
        """Terms in graded-lexicographic order, highest first.

        A monomial's ``(variable rank, -exponent)`` pairs order it as its dense
        exponent vector would: of equal degree, no key is a prefix of another.
        """
        ranked = sorted(self.variables())
        index = {v: i for i, v in enumerate(ranked)}

        def key(item):
            m, _ = item
            return (-m.degree, [(index[v], -e) for v, e in m.powers])

        return sorted(self._terms.items(), key=key)

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
        return Polynomial({m: c * coeff for m, coeff in self._terms.items()})

    def mul(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, float] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0.0) + c1 * c2
            if len(out) > TERM_LIMIT:
                raise TermLimitError(f"product exceeds the term cap of {TERM_LIMIT} terms")
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.mul(other)

    def power(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise PolynomialError(f"exponent must be a non-negative integer, got {k!r}")
        out = Polynomial.constant(1.0)
        base = self
        e = k
        while e:
            if e & 1:
                out = out.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
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
        """Formal partial derivative with respect to v."""
        out: dict[Monomial, float] = {}
        for m, c in self._terms.items():
            e = m.degree_in(v)
            if e == 0:
                continue
            dm = m.without_one(v)
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
            if not chunks:
                chunks.append(f"-{body}" if c < 0 else body)
            else:
                chunks.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"
