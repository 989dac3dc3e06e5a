"""Wire formats for the client-node protocol, with a private-value scan built in.

Transport is newline-delimited UTF-8 JSON.  Requests look like
``{"id": 7, "op": "publish", ...}``; responses echo the id with either
``"ok": true`` and a payload or ``"ok": false`` and an ``error`` object
(plus a ``rejection`` object for budget refusals).

Everything leaving the node toward a data-scientist session is built from
the serializers below, which carry no input value field, and then
structurally scanned: no raw or clipped entity input value may ever appear
on the wire.  The scan checks the keys of every dict and walks only into
dict, list and tuple values; a string or number cannot hold a key.
"""

from __future__ import annotations

import json
from json.encoder import c_encode_basestring_ascii, c_make_encoder
from typing import Any, Sequence

from .accounting import RdpSpend
from .mechanism import PublishReceipt
from .scalar import PrivateScalar

#: Keys that carry private per-entity data in owner-side structures.  They are
#: forbidden anywhere in an outbound message.
PRIVATE_KEYS = frozenset({"clipped_input", "raw_value"})

#: Deepest container nesting the leak scan walks, as the recursive scan it
#: replaced stopped at the interpreter's recursion limit.
_MAX_SCAN_DEPTH = 1000

# exact types that cannot hold a key: the scan passes them with one set lookup
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})


class WireLeakError(AssertionError):
    """An outbound message was about to carry private entity data."""


def _unserialisable(obj: Any) -> None:
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def json_line(msg: dict) -> str:
    """``msg`` as one line of compact ASCII JSON, newline included.

    Bytes and errors are those of ``json.dumps(msg, separators=(",", ":"),
    allow_nan=False)``, from CPython's C encoder without ``JSONEncoder``'s
    Python layers.  The encoder is made per call so that its cycle markers
    are its own: shared markers keep stale ids after an error and are seen by
    every node thread, and no markers turn a cycle into RecursionError.
    """
    encoder = c_make_encoder(
        {}, _unserialisable, c_encode_basestring_ascii, None, ":", ",", False, False, False
    )
    return "".join(encoder(msg, 0)) + "\n"


def encode(msg: dict) -> bytes:
    """One protocol message as a single JSON line."""
    return json_line(msg).encode()


# the C scanner json.loads runs; it keeps no state between calls, so the
# node's connection threads share it as they share json's own decoder
_scan = json.JSONDecoder().scan_once


def decode(line: bytes | str) -> dict:
    """One protocol message from a JSON line; ValueError unless it is an object.

    A line that opens with ``{`` is decoded as UTF-8 and handed straight to
    the C scanner.  Anything that path does not take whole (a scan error, or
    more than JSON whitespace after the object) goes through ``json.loads``,
    so what is accepted, the object and the error text are json.loads' own:
    a byte after ``{`` that marks UTF-16 or UTF-32 fails the scan.  The one
    difference: a line nested deeper than the recursion limit, on which
    json.loads raises RecursionError, raises ValueError here.
    """
    try:
        if isinstance(line, bytes) and line.startswith(b"{"):
            try:
                text = line.decode("utf-8", "surrogatepass")
                msg, end = _scan(text, 0)
            except (ValueError, StopIteration):
                pass
            else:
                if not text[end:].strip(" \t\n\r"):
                    return msg
        msg = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(msg, dict):
        raise ValueError("protocol messages must be JSON objects")
    return msg


def spend_wire(spend: RdpSpend) -> dict:
    return {
        "entity": spend.entity.entity,
        "attribute": spend.entity.attribute,
        "lipschitz": spend.lipschitz,
        "rho": spend.rho,
    }


def rejection_wire(violations: Sequence[tuple[str, float]]) -> dict:
    """A budget refusal: the entities over the cap and their projected epsilons."""
    return {
        "entities": [e for e, _ in violations],
        "projected_eps": [eps for _, eps in violations],
    }


def receipt_wire(receipt: PublishReceipt) -> dict:
    return {
        "publish_id": receipt.publish_id,
        "value": receipt.value,
        "sigma": receipt.sigma,
        "timestamp": receipt.timestamp,
        "spends": [spend_wire(s) for s in receipt.spends],
    }


def scalar_summary(scalar: PrivateScalar) -> dict:
    """Shareable description of a scalar: structure and public bounds only."""
    entities = [
        {"entity": v.entity, "attribute": v.attribute, "floor": rec.floor, "ceiling": rec.ceiling}
        for v, rec in sorted(scalar.inputs.items())
    ]
    return {
        "poly": str(scalar.poly),
        "degree": scalar.degree(),
        "terms": scalar.term_count,
        "entities": entities,
    }


def assert_no_private_leakage(obj: Any) -> None:
    """Structural scan of an outbound payload.

    Rejects any dict carrying a private key, and any serialized entity-input
    record (a dict with both ``floor`` and ``ceiling``) that also carries a
    ``value`` field.  The first such dict in document order is reported.
    """
    stack = [iter((obj,))]  # one iterator per open container, deepest last
    while stack:
        for v in stack[-1]:
            if type(v) in _LEAF_TYPES:
                continue
            if isinstance(v, dict):
                if not PRIVATE_KEYS.isdisjoint(v):
                    bad = sorted(PRIVATE_KEYS.intersection(v))
                    raise WireLeakError(f"private key(s) {bad} in outbound message")
                if "floor" in v and "ceiling" in v and "value" in v:
                    raise WireLeakError("entity input serialized with its raw value")
                inner = v.values()
            elif isinstance(v, (list, tuple)):
                inner = v
            else:
                continue
            if len(stack) == _MAX_SCAN_DEPTH:  # a cycle would otherwise grow the stack forever
                raise RecursionError("outbound message nested too deeply to scan")
            stack.append(iter(inner))
            break
        else:
            stack.pop()
