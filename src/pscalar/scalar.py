"""Private scalars: a polynomial query plus the per-entity inputs it ranges over."""

from __future__ import annotations

import numbers
import operator
from typing import Iterable, Mapping

from .poly import (
    Interval,
    Monomial,
    Polynomial,
    VarId,
    _merge_terms,
    _require_finite,
    _SlotsRecord,
)


class MetadataConflictError(ValueError):
    """One entity variable carries two different (value, floor, ceiling) records."""


class UnsupportedOperationError(TypeError):
    """The requested operation would leave the polynomial closure."""


class UnknownEntityError(ValueError):
    """The named entity does not contribute to this scalar."""


def clip(value: float, floor: float, ceiling: float) -> float:
    """Project value onto [floor, ceiling]."""
    return min(max(value, floor), ceiling)


class EntityInput(_SlotsRecord):
    """One entity's contribution: the raw private value and its public bounds.

    ``value`` is owner-side only: it must never be serialized toward a
    data-scientist session.  ``floor`` and ``ceiling`` are public metadata.
    """

    __slots__ = ("value", "floor", "ceiling")

    def __init__(self, value: float, floor: float, ceiling: float):
        self.value = _require_finite(value, "value")
        self.floor = _require_finite(floor, "floor")
        self.ceiling = _require_finite(ceiling, "ceiling")
        if self.floor > self.ceiling:
            raise ValueError(
                f"floor must not exceed ceiling, got [{self.floor}, {self.ceiling}]"
            )

    @property
    def clipped(self) -> float:
        return clip(self.value, self.floor, self.ceiling)

    @property
    def interval(self) -> Interval:
        return Interval(self.floor, self.ceiling)


def _merge_inputs(out: dict[VarId, EntityInput], inputs: Mapping[VarId, EntityInput]) -> None:
    """Add ``inputs`` to ``out``; one variable must keep one input record."""
    for v, rec in inputs.items():
        seen = out.get(v)
        if seen is not None and seen != rec:
            raise MetadataConflictError(
                f"variable {v.label()} carries conflicting input records"
            )
        out[v] = rec


class PrivateScalar:
    """A derived scalar held on the data owner's side.

    The scalar is a polynomial over entity variables together with the
    per-entity input records.  Inputs are clipped to their public bounds
    exactly once, at the leaves, when the value is evaluated.  Entities whose
    variables cancelled out of the polynomial stay in ``inputs`` so their
    (zero) contribution remains visible downstream.

    Instances are immutable by convention: operations return new scalars.
    Two caches rely on that, and both hold public data only: ``sensitivity``
    keeps the facts every entity's slope bound shares in ``_bound_facts``, and
    ``accounting.spend_for_publish`` keeps the sorted ``(VarId, removal slope)``
    pairs in ``_slopes``, so each query is bounded once whatever its sigma.
    """

    __slots__ = ("poly", "inputs", "_bound_facts", "_slopes")

    def __init__(self, poly: Polynomial, inputs: Mapping[VarId, EntityInput]):
        missing = [v for v in poly.variables() if v not in inputs]
        if missing:
            names = ", ".join(sorted(v.label() for v in missing))
            raise ValueError(f"polynomial variables without input records: {names}")
        for v, rec in inputs.items():
            if not isinstance(v, VarId) or not isinstance(rec, EntityInput):
                raise TypeError("inputs must map VarId to EntityInput")
        self.poly = poly
        self.inputs = dict(inputs)
        self._bound_facts = self._slopes = None

    @classmethod
    def _derived(cls, poly: Polynomial, inputs: dict[VarId, EntityInput]) -> "PrivateScalar":
        """An op's result: its poly's variables lie in its operands' fresh ``inputs``."""
        s = object.__new__(cls)
        s.poly = poly
        s.inputs = inputs
        s._bound_facts = s._slopes = None
        return s

    # -- construction ---------------------------------------------------------

    @classmethod
    def make_private(
        cls,
        entity: VarId | str,
        value: float,
        floor: float,
        ceiling: float,
        attribute: str = "",
    ) -> "PrivateScalar":
        """Root scalar for one entity's raw input with its public bounds."""
        v = entity if isinstance(entity, VarId) else VarId(str(entity), attribute)
        return cls(Polynomial.variable(v), {v: EntityInput(value, floor, ceiling)})

    @classmethod
    def from_public(cls, c: float) -> "PrivateScalar":
        """Constant scalar depending on no entity."""
        return cls(Polynomial.constant(c), {})

    # -- inspection -------------------------------------------------------------

    def entities(self) -> frozenset[VarId]:
        return frozenset(self.inputs)

    def box(self) -> dict[VarId, Interval]:
        """Public box: every entity variable's [floor, ceiling] interval."""
        return {v: rec.interval for v, rec in self.inputs.items()}

    def clipped_assignment(self) -> dict[VarId, float]:
        return {v: rec.clipped for v, rec in self.inputs.items()}

    def degree(self) -> int:
        return self.poly.degree()

    @property
    def term_count(self) -> int:
        return self.poly.term_count

    def value(self) -> float:
        """Owner-side evaluation: clip every input once, then evaluate the poly."""
        return self.poly.evaluate(self.clipped_assignment())

    # -- arithmetic ---------------------------------------------------------------

    def _binary(self, other, combine) -> "PrivateScalar":
        if isinstance(other, PrivateScalar):
            inputs = dict(self.inputs)
            _merge_inputs(inputs, other.inputs)
            return PrivateScalar._derived(combine(self.poly, other.poly), inputs)
        if isinstance(other, numbers.Real):
            const = Polynomial.constant(float(other))
            return PrivateScalar._derived(combine(self.poly, const), dict(self.inputs))
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __rsub__(self, other):
        negated = -self
        return negated.__add__(other)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return self.scale(float(other))
        return self._binary(other, operator.mul)

    __rmul__ = __mul__

    def __neg__(self) -> "PrivateScalar":
        return PrivateScalar._derived(-self.poly, dict(self.inputs))

    def scale(self, c: float) -> "PrivateScalar":
        return PrivateScalar._derived(self.poly.scale(c), dict(self.inputs))

    def shift(self, c: float) -> "PrivateScalar":
        return PrivateScalar._derived(self.poly + Polynomial.constant(c), dict(self.inputs))

    def __pow__(self, k) -> "PrivateScalar":
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise UnsupportedOperationError(
                f"only non-negative integer powers stay polynomial, got {k!r}"
            )
        return PrivateScalar._derived(self.poly.power(k), dict(self.inputs))

    def __truediv__(self, other):
        raise UnsupportedOperationError(
            "division is not polynomial; rescale by a public constant instead"
        )

    __rtruediv__ = __truediv__

    def __repr__(self) -> str:
        ents = ",".join(sorted(v.label() for v in self.inputs))
        return f"PrivateScalar({self.poly} | entities: {ents or 'none'})"


def sum_scalars(scalars: Iterable[PrivateScalar]) -> PrivateScalar:
    """Sum a collection of scalars in one pass (empty sum is the public 0).

    Equals the ``+`` left fold bit for bit, term and input order included,
    because both merge terms with ``_merge_terms``.
    """
    terms: dict[Monomial, float] = {}
    inputs: dict[VarId, EntityInput] = {}
    degree = 0
    for s in scalars:
        _merge_inputs(inputs, s.inputs)
        degree = _merge_terms(terms, s.poly, degree)
    return PrivateScalar._derived(Polynomial._canonical(terms, degree), inputs)
