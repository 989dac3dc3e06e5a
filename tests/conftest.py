"""Shared fixtures and converters between package objects and oracle data."""

from __future__ import annotations

import io
import os
import random
from pathlib import Path

import pytest

from pscalar.poly import Polynomial, VarId
from pscalar.scalar import PrivateScalar

# Tests that start `python -m pscalar` need the checkout's package too, as
# pytest's own `pythonpath` setting reaches only this process.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def to_terms(poly: Polynomial):
    """Convert a package polynomial to the oracle's plain term-list form."""
    out = []
    for mono, coeff in poly.sorted_terms():
        out.append((coeff, {v.label(): e for v, e in mono.powers}))
    return out


def to_box(scalar: PrivateScalar, *, hulled: VarId | None = None):
    """Oracle box (label -> (lo, hi)) for a scalar, entity ``hulled``'s range widened to 0.

    The hulled box is the one a removal bound of ``hulled`` ranges over.
    """
    box = {}
    for v, rec in scalar.inputs.items():
        lo, hi = rec.floor, rec.ceiling
        if v == hulled:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        box[v.label()] = (lo, hi)
    return box


def clipped_values(scalar: PrivateScalar) -> dict[VarId, float]:
    """Each input's clipped value, the point ``PrivateScalar.value`` evaluates at."""
    return {v: rec.clipped for v, rec in scalar.inputs.items()}


def random_scalar(
    rng: random.Random,
    *,
    max_vars: int = 4,
    max_terms: int = 8,
    max_power: int = 3,
    allow_negative_floor: bool = True,
) -> PrivateScalar:
    """A random private polynomial query over fresh entities with random bounds."""
    n_vars = rng.randint(1, max_vars)
    parts = []
    for k in range(n_vars):
        lo = rng.uniform(-5.0, 0.0) if (allow_negative_floor and rng.random() < 0.5) else rng.uniform(0.0, 3.0)
        hi = lo + rng.uniform(0.5, 6.0)
        value = rng.uniform(lo - 2.0, hi + 2.0)  # sometimes outside: exercises clipping
        parts.append(PrivateScalar.make_private(f"e{k}", value, lo, hi))
    acc = PrivateScalar.from_public(rng.uniform(-2.0, 2.0))
    for _ in range(rng.randint(1, max_terms)):
        term = PrivateScalar.from_public(rng.uniform(-3.0, 3.0))
        for var in rng.sample(parts, rng.randint(1, len(parts))):
            term = term * (var ** rng.randint(1, max_power))
        acc = acc + term
    return acc


@pytest.fixture
def rng():
    return random.Random(20260817)


class RawSink(io.RawIOBase):
    """A raw file that keeps what it is given: at most ``limit`` bytes per write, or an error."""

    def __init__(self, limit=None, fail=False):
        self.data, self.calls, self.limit, self.fail = bytearray(), 0, limit, fail

    def writable(self):
        return True

    def write(self, b):
        self.calls += 1
        if self.fail:
            raise OSError(28, "No space left on device")
        taken = bytes(b[: self.limit])
        self.data += taken
        return len(taken)
