"""Wire bytes pinned by digest, and the leak scan checked against its oracle."""

from __future__ import annotations

import hashlib
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import leak_scan
from pscalar.node import AUDIT_FILE, Node, NodeConfig, NodeSession
from pscalar.wire import WireLeakError, assert_no_private_leakage, encode

# -- golden bytes ---------------------------------------------------------------------------

PEOPLE = "entity,value,floor,ceiling\nA,77.2512345678,0,122\nB,40,0,122\nC,130,-10,122\n"
WARD = "entity,value,floor,ceiling\nA,3.5,-2,8\nD,1e-3,0,1\n"

# Roots are h1..h3 (people) and h4..h5 (ward); each successful op mints the next handle.
GOLDEN_REQUESTS = [
    {"id": 1, "op": "list_datasets"},                                   # auth_required
    {"id": 2, "op": "auth", "key": "nope"},                             # auth_failed
    {"id": 3, "op": "auth", "key": "k1"},
    {"op": "list_datasets"},                                            # no id
    {"id": True, "op": "list_datasets"},                                # bool id
    {"id": 6},                                                          # no op
    {"id": 7, "op": "no_such_op"},                                      # unknown_op
    {"id": 8, "op": "list_datasets"},
    {"id": 9, "op": "get_roots", "dataset": "people"},
    {"id": 10, "op": "get_roots", "dataset": "ward"},
    {"id": 11, "op": "get_roots", "dataset": "nope"},                   # unknown_dataset
    {"id": 12, "op": "binop", "kind": "add", "a": "h1", "b": "h2"},     # h6
    {"id": 13, "op": "binop", "kind": "sub", "a": "h6", "b": "h3"},     # h7
    {"id": 14, "op": "binop", "kind": "mul", "a": "h1", "b": "h4"},     # h8
    {"id": 15, "op": "binop", "kind": "div", "a": "h1", "b": "h2"},     # bad kind
    {"id": 16, "op": "binop", "kind": "add", "a": "h1", "b": 3},        # bad field
    {"id": 17, "op": "unop", "kind": "neg", "handle": "h1"},            # h9
    {"id": 18, "op": "unop", "kind": "scale", "handle": "h6", "c": 0.5},  # h10
    {"id": 19, "op": "unop", "kind": "shift", "handle": "h10", "c": 1.25},  # h11
    {"id": 20, "op": "unop", "kind": "pow", "handle": "h3", "k": 3},    # h12
    {"id": 21, "op": "unop", "kind": "pow", "handle": "h3", "k": -1},   # unsupported
    {"id": 22, "op": "fold", "kind": "sum", "handles": ["h1", "h2", "h3", "h5"]},  # h13
    {"id": 23, "op": "fold", "kind": "product", "handles": ["h1", "h2", "h4"]},    # h14
    {"id": 24, "op": "fold", "kind": "sum", "handles": []},             # bad handles
    {"id": 25, "op": "describe", "handle": "h8"},
    {"id": 26, "op": "describe", "handle": "h99"},                      # unknown_handle
    {"id": 27, "op": "simulate_publish", "handle": "h13", "sigma": 500.0},
    {"id": 28, "op": "simulate_publish", "handle": "h13", "sigma": 0.01},  # would refuse
    {"id": 29, "op": "fork_sim"},
    {"id": 30, "op": "publish", "handle": "h13", "sigma": 500.0},
    {"id": 31, "op": "publish", "handle": "h8", "sigma": 4000.0},
    {"id": 32, "op": "publish", "handle": "h13", "sigma": 0.0001},      # budget_rejected
    {"id": 33, "op": "publish", "handle": "h13", "sigma": "x"},         # bad sigma
    {"id": 34, "op": "remaining_budget", "entity": "*"},
    {"id": 35, "op": "remaining_budget", "entity": "min"},
    {"id": 36, "op": "remaining_budget", "entity": "A"},
    {"id": 37, "op": "remaining_budget", "entity": "Z"},                # unknown_entity
    {"id": 38, "op": "drop", "handle": "h8"},
    {"id": 39, "op": "drop", "handle": "h1"},                           # roots stay
    {"id": 40, "op": "describe", "handle": "h8"},                       # dropped
    {"id": 41, "op": "d\u00e9j\u00e0 \u2603"},                              # non-ASCII op
]

GOLDEN_OUTCOMES = [
    "auth_required", "auth_failed", "ok", "bad_request", "bad_request", "bad_request",
    "unknown_op", "ok", "ok", "ok", "unknown_dataset", "ok", "ok", "ok", "bad_request",
    "bad_request", "ok", "ok", "ok", "ok", "unsupported", "ok", "ok", "bad_request", "ok",
    "unknown_handle", "ok", "ok", "ok", "ok", "ok", "budget_rejected", "bad_request", "ok",
    "ok", "ok", "unknown_entity", "ok", "forbidden", "unknown_handle", "unknown_op",
]

# Responses without ``timestamp``, audit lines without ``ts`` and journal lines
# without their time field, as written by the node whose encoder and audit
# writer built a JSONEncoder on every call.
RESPONSES_SHA256 = "c9b9cb53e833cb739673464c87837ebd06d869a67d305eff87ffde6a3d341fc1"
AUDIT_SHA256 = "70231dd936af8619f2a3e7599113e065ce9dfdbe7b685322934539283197c06f"
JOURNAL_SHA256 = "58fe888d99ac6ab04882327151307ec25f462b7553e7cad081bf79ba8edfa2cc"


def test_wire_audit_and_journal_bytes_are_pinned(tmp_path):
    (tmp_path / "people.csv").write_text(PEOPLE, encoding="utf-8")
    (tmp_path / "ward.csv").write_text(WARD, encoding="utf-8")
    state = tmp_path / "state"
    node = Node(NodeConfig(eps_cap=6.0, delta=1e-6, journal_dir=state, seed=7))
    node.ingest(tmp_path / "people.csv")
    node.ingest(tmp_path / "ward.csv")
    node.add_user("u1", key="k1")
    session = NodeSession(peer="golden")
    frames, outcomes = [], []
    for msg in GOLDEN_REQUESTS:
        resp = node.handle_request(session, msg)
        outcomes.append("ok" if resp["ok"] else resp["error"]["code"])
        resp.pop("timestamp", None)
        frames.append(encode(resp))
    node.close()
    assert outcomes == GOLDEN_OUTCOMES
    audit = (state / AUDIT_FILE).read_text(encoding="utf-8")
    audit = re.sub(r'^\{"ts":"[^"]*",', "{", audit, flags=re.M)
    assert audit.count("\n") == len(GOLDEN_REQUESTS)
    journal = (state / "ledger-user-u1.log").read_text(encoding="utf-8")
    journal = re.sub(r"\t[^\t\n]*$", "", journal, flags=re.M)
    digests = [
        hashlib.sha256(data).hexdigest()
        for data in (b"".join(frames), audit.encode(), journal.encode())
    ]
    assert digests == [RESPONSES_SHA256, AUDIT_SHA256, JOURNAL_SHA256]


# -- leak scan against its oracle -------------------------------------------------------------

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4)
)
KEYS = st.sampled_from(
    ["floor", "ceiling", "value", "clipped_input", "raw_value", "entity", "rho", "a", "b"]
)


def _payloads():
    """Nested dicts, lists and tuples with private keys and bound triples at any depth."""
    triple = st.fixed_dictionaries({"floor": SCALARS, "ceiling": SCALARS, "value": SCALARS})
    leaf = st.one_of(SCALARS, triple)
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(KEYS, inner, max_size=5),
        ),
        max_leaves=25,
    )


def _verdict(payload):
    try:
        assert_no_private_leakage(payload)
    except WireLeakError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(_payloads())
# two leaks: the first in document order is reported
@example({"a": [1, {"floor": 0, "ceiling": 1, "value": 2}], "b": ({"raw_value": 3},)})
def test_leak_scan_agrees_with_its_recursive_oracle(payload):
    assert _verdict(payload) == leak_scan(payload)
