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
from typing import Any, Sequence

from .accounting import RdpSpend
from .mechanism import PublishReceipt
from .scalar import PrivateScalar

#: Keys that carry private per-entity data in owner-side structures.  They are
#: forbidden anywhere in an outbound message.
PRIVATE_KEYS = frozenset({"clipped_input", "raw_value"})


class WireLeakError(AssertionError):
    """An outbound message was about to carry private entity data."""


# one for the wire and the audit log: json.dumps with options builds one per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def encode(msg: dict) -> bytes:
    """One protocol message as a single JSON line."""
    return (_ENCODER.encode(msg) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    msg = json.loads(line)
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
    entities = []
    for v in sorted(scalar.inputs):
        rec = scalar.inputs[v]
        entities.append(
            {
                "entity": v.entity,
                "attribute": v.attribute,
                "floor": rec.floor,
                "ceiling": rec.ceiling,
            }
        )
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
    if isinstance(obj, dict):
        keys = obj.keys()
        bad = PRIVATE_KEYS.intersection(keys)
        if bad:
            raise WireLeakError(f"private key(s) {sorted(bad)} in outbound message")
        if "floor" in keys and "ceiling" in keys and "value" in keys:
            raise WireLeakError("entity input serialized with its raw value")
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return
    for v in obj:
        if isinstance(v, (dict, list, tuple)):
            assert_no_private_leakage(v)
