"""Node: ingest, auth, handle isolation, protocol errors, confinement, persistence."""

from __future__ import annotations

import gc
import itertools
import json
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RawSink
from oracles import rho_cap
from pscalar import cli
from pscalar.cli import node_main
from pscalar.node import (
    AUDIT_FILE,
    MAX_REQUEST_BYTES,
    IngestError,
    Node,
    NodeConfig,
    NodeSession,
    NodeTCPServer,
    UserAccount,
    load_users_file,
    read_audit,
    read_dataset_csv,
    start_server,
    users_add,
)
from pscalar.poly import VarId
from pscalar.scalar import PrivateScalar, sum_scalars
from pscalar.wire import (
    WireLeakError,
    assert_no_private_leakage,
    decode,
    encode,
    json_line,
    receipt_wire,
    scalar_summary,
    spend_wire,
)
from pscalar.accounting import LedgerError, RdpSpend
from pscalar.mechanism import PublishReceipt
from pscalar.scalar import EntityInput


# -- wire primitives --------------------------------------------------------------------


def test_encode_decode_roundtrip():
    msg = {"id": 3, "op": "auth", "key": "k", "x": [1, 2.5, None, "s"]}
    line = encode(msg)
    assert line.endswith(b"\n")
    assert decode(line[:-1]) == msg


def test_encode_rejects_nan():
    with pytest.raises(ValueError):
        encode({"x": float("nan")})


def test_decode_rejects_non_objects():
    with pytest.raises(ValueError):
        decode(b"[1, 2]")
    with pytest.raises(ValueError):
        decode(b"not json")


def test_leak_scanner_forbidden_keys():
    assert_no_private_leakage({"ok": True, "value": 3.0})  # bare noisy value: fine
    with pytest.raises(WireLeakError):
        assert_no_private_leakage({"nested": [{"clipped_input": 5.0}]})
    with pytest.raises(WireLeakError):
        assert_no_private_leakage({"deep": {"a": {"raw_value": 1.0}}})
    # a dict that carries bounds AND a value looks like an entity record: refuse
    with pytest.raises(WireLeakError):
        assert_no_private_leakage({"entity": "A", "floor": 0.0, "ceiling": 1.0, "value": 0.7})
    assert_no_private_leakage({"entity": "A", "floor": 0.0, "ceiling": 1.0})


def test_spend_wire_redaction():
    spend = RdpSpend(VarId("A", "age"), 0.125, 0.5)
    assert spend_wire(spend) == {"entity": "A", "attribute": "age", "lipschitz": 0.5, "rho": 0.125}


def test_receipt_wire_redaction():
    spend = RdpSpend(VarId("A"), 0.125, 0.5)
    receipt = PublishReceipt("p000001", 12.5, 3.0, (spend,), "2026-01-01T00:00:00+00:00")
    wired = receipt_wire(receipt)
    assert wired["value"] == 12.5 and wired["publish_id"] == "p000001"
    assert_no_private_leakage(wired)
    assert "clipped_input" not in json.dumps(wired)


# -- records ---------------------------------------------------------------------------


def test_value_records_refuse_json_and_keep_their_checks():
    spend = RdpSpend(VarId("A"), 0.125, 0.5)
    for record in (
        EntityInput(0.7, 0.0, 1.0),
        ("A", EntityInput(0.7, 0.0, 1.0)),  # a dataset row
        spend,
        PublishReceipt("p000001", 12.5, 3.0, (spend,), "2026-01-01T00:00:00+00:00"),
    ):
        with pytest.raises(TypeError):
            json.dumps(record)
        with pytest.raises(TypeError):
            json.dumps({"nested": [record]})
    assert EntityInput(0.7, 0.0, 1.0) == EntityInput(0.7, 0.0, 1.0) != EntityInput(0.7, 0.0, 2.0)
    assert EntityInput(1.5, 0.0, 1.0) == EntityInput(1.0, 0.0, 1.0)  # equal once clipped
    assert spend == RdpSpend(VarId("A"), 0.125, 0.5)
    assert repr(spend) == "RdpSpend(entity=VarId(entity='A', attribute=''), rho=0.125, lipschitz=0.5)"
    for rho in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            RdpSpend(VarId("A"), rho, 0.5)


# -- ingest ------------------------------------------------------------------------------


def good_csv(tmp_path, body, name="data.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def test_ingest_happy_path(tmp_path):
    path = good_csv(tmp_path, "entity,value,floor,ceiling\nA,5.5,0,10\nB,-2,0,10\n")
    ds = read_dataset_csv(path)
    assert ds.name == "data"
    assert [entity for entity, _ in ds.rows] == ["A", "B"]
    assert ds.rows[0][1].clipped == 5.5
    assert ds.rows[1][1].floor == 0.0
    assert ds.rows[1][1].clipped == 0.0  # -2 clipped into [0, 10] as it was read
    named = read_dataset_csv(path, name="override")
    assert named.name == "override"


def test_ingest_header_must_match(tmp_path):
    path = good_csv(tmp_path, "entity,value,lo,hi\nA,1,0,2\n")
    with pytest.raises(IngestError) as err:
        read_dataset_csv(path)
    assert "header" in str(err.value)


def test_ingest_keeps_no_raw_value(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node, "entity,value,floor,ceiling\nA,150.0,0,100\nB,-7.5,0,100\nC,42,0,100")
    stored = list(node.store._objects.values())  # ObjectStore exposes no listing
    assert len(stored) == 3
    kept = []
    for obj in stored:
        kept += [c for _, c in obj.scalar.poly.items()]
        for rec in obj.scalar.inputs.values():
            kept += [getattr(rec, field) for field in rec.__slots__]
    assert 150.0 not in kept and -7.5 not in kept
    assert sorted(rec.clipped for obj in stored for rec in obj.scalar.inputs.values()) == [
        0.0, 42.0, 100.0]
    node.close()


def test_ingest_errors_carry_line_numbers(tmp_path):
    cases = [
        ("entity,value,floor,ceiling\nA,1,0\n", ":2:"),              # missing field
        ("entity,value,floor,ceiling\nA,1,0,2\nA,2,0,2\n", ":3:"),   # duplicate
        ("entity,value,floor,ceiling\nA,x,0,2\n", ":2:"),            # non-numeric
        ("entity,value,floor,ceiling\nA,1,5,2\n", ":2:"),            # floor>ceiling
        ("entity,value,floor,ceiling\n,1,0,2\n", ":2:"),             # empty entity
        ("entity,value,floor,ceiling\nA,1,0,2\n*,1,0,2\n", ":3:"),   # remaining_budget's
        ("entity,value,floor,ceiling\nmin,1,0,2\n", ":2:"),          # aggregate queries
        # a quoted line break stays in its field, and numbers count physical lines
        ('entity,value,floor,ceiling\n"a\nb",1,0,2\n', ":3: bad entity identifier 'a\\nb'"),
        ('entity,value,floor,ceiling\nB,"1\n",0,2\nA,x,0,2\n', ":4:"),
    ]
    for body, needle in cases:
        with pytest.raises(IngestError) as err:
            read_dataset_csv(good_csv(tmp_path, body))
        assert needle in str(err.value), body


def test_ingest_duplicate_mentions_first_occurrence(tmp_path):
    body = "entity,value,floor,ceiling\nA,1,0,2\nB,1,0,2\nA,2,0,2\n"
    with pytest.raises(IngestError) as err:
        read_dataset_csv(good_csv(tmp_path, body))
    assert ":4:" in str(err.value) and "line 2" in str(err.value)


def test_ingest_empty_and_headerless(tmp_path):
    with pytest.raises(IngestError):
        read_dataset_csv(good_csv(tmp_path, ""))
    with pytest.raises(IngestError):
        read_dataset_csv(good_csv(tmp_path, "entity,value,floor,ceiling\n"))


def test_node_rejects_duplicate_dataset(tmp_path):
    path = good_csv(tmp_path, "entity,value,floor,ceiling\nA,1,0,2\n")
    node = make_node(tmp_path)
    node.ingest(path)
    with pytest.raises(IngestError):
        node.ingest(path)
    node.close()


# -- node helpers ------------------------------------------------------------------------


def make_node(tmp_path, *, eps=6.0, shared=False, seed=1, subdir="state") -> Node:
    node = Node(
        NodeConfig(
            eps_cap=eps, delta=1e-6, shared_ledger=shared,
            journal_dir=tmp_path / subdir, seed=seed,
        )
    )
    return node


def serve_csv(tmp_path, node: Node, body=None, name="people.csv"):
    body = body or (
        "entity,value,floor,ceiling\n"
        "A,77.2512345678,0,122\n"
        "B,40,0,122\n"
        "C,130,0,122\n"
    )
    node.ingest(good_csv(tmp_path, body, name))


def authed_session(node: Node, key="k1") -> NodeSession:
    session = NodeSession(peer="test")
    resp = node.handle_request(session, {"id": 1, "op": "auth", "key": key})
    assert resp["ok"], resp
    return session


def call(node: Node, session: NodeSession, op: str, rid=99, **params) -> dict:
    return node.handle_request(session, {"id": rid, "op": op, **params})


# -- auth and sessions --------------------------------------------------------------------


def test_auth_flow(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    session = NodeSession(peer="t")
    # ops before auth are refused
    resp = node.handle_request(session, {"id": 1, "op": "list_datasets"})
    assert not resp["ok"] and resp["error"]["code"] == "auth_required"
    # wrong key
    resp = node.handle_request(session, {"id": 2, "op": "auth", "key": "nope"})
    assert not resp["ok"] and resp["error"]["code"] == "auth_failed"
    # right key reports datasets
    resp = node.handle_request(session, {"id": 3, "op": "auth", "key": "k1"})
    assert resp["ok"] and resp["user"] == "u1"
    assert resp["datasets"] == [{"name": "people", "rows": 3}]
    node.close()


def test_request_envelope_validation(tmp_path):
    node = make_node(tmp_path)
    node.add_user("u1", key="k1")
    session = authed_session(node)
    for bad in ({"op": "list_datasets"},                      # no id
                {"id": True, "op": "list_datasets"},          # bool id
                {"id": 4.5, "op": "list_datasets"},           # non-integer id
                {"id": 5}):                                   # no op
        resp = node.handle_request(session, bad)
        assert not resp["ok"] and resp["error"]["code"] == "bad_request", bad
    resp = node.handle_request(session, {"id": 6, "op": "no_such_op"})
    assert resp["error"]["code"] == "unknown_op"
    node.close()


def test_handle_isolation_between_users(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    node.add_user("u2", key="k2")
    s1, s2 = authed_session(node, "k1"), authed_session(node, "k2")
    roots = call(node, s1, "get_roots", dataset="people")["roots"]
    # both users may read dataset roots
    assert call(node, s2, "get_roots", dataset="people")["ok"]
    derived = call(node, s1, "binop", kind="add", a=roots[0]["handle"], b=roots[1]["handle"])
    assert derived["ok"]
    # u2 cannot touch u1's derived handle
    stolen = call(node, s2, "describe", handle=derived["handle"])
    assert not stolen["ok"] and stolen["error"]["code"] == "forbidden"
    # unknown handle
    missing = call(node, s1, "describe", handle="h99999")
    assert not missing["ok"] and missing["error"]["code"] == "unknown_handle"
    # roots may not be dropped; derived handles may
    assert not call(node, s1, "drop", handle=roots[0]["handle"])["ok"]
    assert call(node, s1, "drop", handle=derived["handle"])["ok"]
    gone = call(node, s1, "describe", handle=derived["handle"])
    assert gone["error"]["code"] == "unknown_handle"
    node.close()


def test_release_forgets_only_the_users_own_derived_handles(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    node.add_user("u2", key="k2")
    s1, s2 = authed_session(node, "k1"), authed_session(node, "k2")
    roots = [r["handle"] for r in call(node, s1, "get_roots", dataset="people")["roots"]]
    mine = call(node, s1, "unop", kind="neg", handle=roots[0])["handle"]
    theirs = call(node, s2, "unop", kind="neg", handle=roots[1])["handle"]
    plain = call(node, s1, "describe", rid=7, handle=mine)
    released = call(node, s1, "describe", rid=7, handle=mine,
                    release=[roots[2], theirs, "h99999", mine, mine])
    # the op ran on the handle before it was let go; the answer never shows the release
    assert released == plain and released["ok"]
    assert set(node.store._objects) == {*roots, theirs}
    assert call(node, s2, "describe", handle=theirs)["ok"]
    # an empty list is no release at all
    assert call(node, s2, "list_datasets", release=[])["ok"]
    assert theirs in node.store._objects
    node.close()
    events = read_audit(tmp_path / "state")["events"]
    assert [e.get("released") for e in events if e["op"] == "describe"] == [None, 1, None]


@pytest.mark.parametrize("release", ["h4", [4], ["h4", None], {"h4": 1}, None, True])
def test_release_that_is_not_a_list_of_strings_is_a_bad_request(tmp_path, release):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    roots = [r["handle"] for r in call(node, s, "get_roots", dataset="people")["roots"]]
    doomed = call(node, s, "unop", kind="neg", handle=roots[0])["handle"]
    before = set(node.store._objects)
    resp = call(node, s, "unop", kind="neg", handle=roots[1], release=release)
    assert resp["error"]["code"] == "bad_request" and "release" in resp["error"]["detail"]
    # neither the op nor any release ran
    assert set(node.store._objects) == before and doomed in before
    node.close()


def test_release_applies_when_the_op_fails(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    roots = [r["handle"] for r in call(node, s, "get_roots", dataset="people")["roots"]]
    a = call(node, s, "unop", kind="neg", handle=roots[0])["handle"]
    b = call(node, s, "unop", kind="neg", handle=roots[1])["handle"]
    failed = call(node, s, "describe", handle="h99999", release=[a])
    assert failed["error"]["code"] == "unknown_handle"
    unknown = call(node, s, "no_such_op", release=[b])
    assert unknown["error"]["code"] == "unknown_op"
    assert set(node.store._objects) == set(roots)
    node.close()
    events = read_audit(tmp_path / "state")["events"]
    assert [(e["op"], e["ok"], e.get("code"), e.get("released")) for e in events[-2:]] == [
        ("describe", False, "unknown_handle", 1), ("no_such_op", False, "unknown_op", 1)
    ]


def test_release_is_not_read_before_authentication(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    session = NodeSession(peer="test")
    early = call(node, session, "list_datasets", release="not a list")
    assert early["error"]["code"] == "auth_required"
    auth = call(node, session, "auth", key="k1", release="not a list")
    assert auth["ok"]
    node.close()


def test_describe_exposes_only_public_data(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    roots = call(node, s, "get_roots", dataset="people")["roots"]
    sq = call(node, s, "unop", kind="pow", handle=roots[0]["handle"], k=2)
    desc = call(node, s, "describe", handle=sq["handle"])["scalar"]
    assert desc["degree"] == 2
    assert desc["entities"] == [
        {"entity": "A", "attribute": "people", "floor": 0.0, "ceiling": 122.0}
    ]
    assert "value" not in json.dumps(desc)
    node.close()


def test_describe_of_a_wide_mean_is_linear():
    # one describe of a 10^4-entity mean; the dense sort key of the graded
    # order took 0.95 s at 4000 entities and grew with the square of N
    n = 10_000
    roots = [PrivateScalar.make_private(f"u{i:05d}", 1.0, 0.0, 2.0) for i in range(n)]
    mean = sum_scalars(roots).scale(1.0 / n)
    t0 = time.perf_counter()
    desc = scalar_summary(mean)
    elapsed = time.perf_counter() - t0
    assert desc["terms"] == n and len(desc["entities"]) == n
    assert desc["poly"].startswith("0.0001*x[u00000] + 0.0001*x[u00001] + ")
    assert elapsed < 2.0, f"describe of a {n}-entity mean took {elapsed:.2f} s"


# -- fold: n-ary sum and product in one request -------------------------------------------


def test_fold_is_one_handle_equal_to_the_binop_fold(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    handles = [r["handle"] for r in call(node, s, "get_roots", dataset="people")["roots"]]
    # a derived operand too, so the sum has a cancellation and a repeated monomial
    neg = call(node, s, "unop", kind="scale", handle=handles[0], c=-1.0)["handle"]
    operands = handles + [neg, handles[1]]
    for kind, binop in (("sum", "add"), ("product", "mul")):
        before = len(node.store._objects)
        folded = call(node, s, "fold", kind=kind, handles=operands)
        assert folded["ok"], folded
        assert len(node.store._objects) == before + 1
        step = {"handle": operands[0]}
        for h in operands[1:]:
            step = call(node, s, "binop", kind=binop, a=step["handle"], b=h)
        assert folded["meta"] == step["meta"]
        assert (call(node, s, "describe", handle=folded["handle"])["scalar"]
                == call(node, s, "describe", handle=step["handle"])["scalar"])
    node.close()


def test_fold_refuses_malformed_requests(tmp_path, monkeypatch):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    node.add_user("u2", key="k2")
    s1, s2 = authed_session(node, "k1"), authed_session(node, "k2")
    handles = [r["handle"] for r in call(node, s1, "get_roots", dataset="people")["roots"]]
    before = len(node.store._objects)
    for params in ({"kind": "sum", "handles": []},
                   {"kind": "sum", "handles": handles[0]},
                   {"kind": "sum", "handles": [handles[0], 7]},
                   {"kind": "sum"},
                   {"kind": "mean", "handles": handles},
                   {"handles": handles}):
        resp = call(node, s1, "fold", **params)
        assert not resp["ok"] and resp["error"]["code"] == "bad_request", params
    # another session's handle
    mine = call(node, s1, "binop", kind="add", a=handles[0], b=handles[1])["handle"]
    resp = call(node, s2, "fold", kind="sum", handles=[handles[2], mine])
    assert resp["error"]["code"] == "forbidden"
    # one entity variable with two different input records
    var = VarId("A", "people")
    clash = [node.store.add(PrivateScalar.make_private(var, x, 0.0, 122.0), owner="u1")
             for x in (1.0, 2.0)]
    resp = call(node, s1, "fold", kind="sum", handles=clash)
    assert resp["error"]["code"] == "conflict"
    # a product over the term cap: (A+B+C)^2 already has 6 terms
    total = call(node, s1, "fold", kind="sum", handles=handles)["handle"]
    monkeypatch.setattr("pscalar.poly.TERM_LIMIT", 5)
    resp = call(node, s1, "fold", kind="product", handles=[total, total, handles[0]])
    assert resp["error"]["code"] == "term_limit"
    assert len(node.store._objects) == before + 4  # mine, two clashes, total
    node.close()


# -- confinement: no private value ever leaves on the wire --------------------------------


def test_every_response_is_leak_scanned(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    secret_fragments = ("77.2512345678", "77.25123", '"value": 40', '"value": 130')
    frames = []

    def run(op, **params):
        resp = call(node, s, op, **params)
        frames.append(encode(resp).decode())
        return resp

    roots = run("get_roots", dataset="people")["roots"]
    h = {r["entity"]: r["handle"] for r in roots}
    total = run("binop", kind="add", a=h["A"], b=h["B"])["handle"]
    total = run("binop", kind="add", a=total, b=h["C"])["handle"]
    prod = run("binop", kind="mul", a=h["A"], b=h["B"])["handle"]
    run("unop", kind="pow", handle=h["A"], k=3)
    run("unop", kind="scale", handle=total, c=1.0 / 3.0)
    run("describe", handle=prod)
    run("simulate_publish", handle=total, sigma=500.0)
    run("publish", handle=total, sigma=500.0)
    run("publish", handle=total, sigma=0.0001)         # rejected: payload still clean
    run("remaining_budget", entity="*")
    run("remaining_budget", entity="min")
    run("remaining_budget", entity="A")
    run("fork_sim")
    run("drop", handle=prod)
    for frame in frames:
        payload = json.loads(frame)
        assert_no_private_leakage(payload)
        for fragment in secret_fragments:
            assert fragment not in frame, frame
    node.close()


def test_budget_rejection_payload_shape(tmp_path):
    node = make_node(tmp_path, eps=1.0)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    roots = call(node, s, "get_roots", dataset="people")["roots"]
    resp = call(node, s, "publish", handle=roots[0]["handle"], sigma=1.0)
    assert not resp["ok"]
    assert resp["error"]["code"] == "budget_rejected"
    assert resp["rejection"]["entities"] == ["A"]
    (projected,) = resp["rejection"]["projected_eps"]
    assert projected > 1.0
    node.close()


def test_publish_response_shape(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    roots = call(node, s, "get_roots", dataset="people")["roots"]
    resp = call(node, s, "publish", handle=roots[1]["handle"], sigma=300.0)
    assert resp["ok"]
    assert resp["publish_id"] == "p000001"
    assert resp["sigma"] == 300.0
    assert isinstance(resp["value"], float)
    (spend,) = resp["spends"]
    assert spend == {
        "entity": "B", "attribute": "people",
        "lipschitz": 1.0, "rho": 40.0**2 / (2 * 300.0**2),
    }
    node.close()


def test_remaining_budget_shapes(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    roots = call(node, s, "get_roots", dataset="people")["roots"]
    call(node, s, "publish", handle=roots[2]["handle"], sigma=300.0)  # charge C
    star = call(node, s, "remaining_budget", entity="*")["remaining"]
    assert set(star) == {"A", "B", "C"}
    assert star["A"] == 6.0 and star["C"] < 6.0
    m = call(node, s, "remaining_budget", entity="min")
    assert m["entity"] == "C" and m["eps"] == star["C"]
    one = call(node, s, "remaining_budget", entity="B")
    assert one["eps"] == 6.0
    bad = call(node, s, "remaining_budget", entity="nobody")
    assert bad["error"]["code"] == "unknown_entity"
    node.close()


def test_min_budget_tie_breaks_deterministically(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node, body="entity,value,floor,ceiling\nzz,1,0,2\naa,1,0,2\n")
    node.add_user("u1", key="k1")
    s = authed_session(node)
    m = call(node, s, "remaining_budget", entity="min")
    assert m["entity"] == "aa"  # untouched budgets tie; lexicographic winner
    node.close()


def test_min_budget_is_the_least_remaining_and_ties_go_to_the_smallest_name(tmp_path):
    node = make_node(tmp_path)
    names = ["zz", "mm", "ee", "dd", "cc", "bb", "aa"]
    serve_csv(tmp_path, node, body="entity,value,floor,ceiling\n" + "".join(
        f"{name},1,0,2\n" for name in names))
    node.add_user("u1", key="k1")
    s = authed_session(node)
    ledger = node._ledger_for("u1")
    # zz, mm and cc exhausted to 0; dd and ee tie at one partial spend; aa and bb untouched
    ledger.record([RdpSpend(VarId(e), 1e6, 1.0) for e in ("zz", "mm", "cc")], "p000001")
    ledger.record([RdpSpend(VarId(e), 0.01, 1.0) for e in ("ee", "dd")], "p000002")
    star = call(node, s, "remaining_budget", entity="*")["remaining"]
    assert [star[e] for e in ("zz", "mm", "cc")] == [0.0, 0.0, 0.0]
    assert 0.0 < star["dd"] == star["ee"] < star["aa"] == star["bb"] == 6.0
    m = call(node, s, "remaining_budget", entity="min")
    assert (m["entity"], m["eps"]) == ("cc", 0.0)
    # without the exhausted three, the partial pair's smaller name wins
    node.close()
    node = make_node(tmp_path, subdir="other")
    serve_csv(tmp_path, node, body="entity,value,floor,ceiling\n" + "".join(
        f"{name},1,0,2\n" for name in ("ee", "dd", "bb", "aa")))
    node.add_user("u1", key="k1")
    s = authed_session(node)
    node._ledger_for("u1").record([RdpSpend(VarId(e), 0.01, 1.0) for e in ("ee", "dd")], "p1")
    m = call(node, s, "remaining_budget", entity="min")
    assert (m["entity"], m["eps"]) == ("dd", star["dd"])
    node.close()


def test_sigma_whose_square_is_not_normal_is_a_bad_request(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    roots = call(node, s, "get_roots", dataset="people")["roots"]
    assert call(node, s, "publish", handle=roots[1]["handle"], sigma=300.0)["ok"]
    ledger = s.user.ledger
    before = ledger.snapshot_bytes()
    # 2*sigma^2 underflows to 0 at 1e-300 and overflows at 1e160
    for sigma in (1e-300, 1e160):
        for op in ("publish", "simulate_publish"):
            resp = call(node, s, op, handle=roots[0]["handle"], sigma=sigma)
            assert resp["error"]["code"] == "bad_request", (op, sigma, resp)
    assert ledger.snapshot_bytes() == before
    node.close()


def test_huge_integer_numbers_are_a_bad_request(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    h = call(node, s, "get_roots", dataset="people")["roots"][0]["handle"]
    before = s.user.ledger.snapshot_bytes()
    for op, params in (
        ("publish", {"handle": h, "sigma": 10**400}),
        ("unop", {"kind": "scale", "handle": h, "c": 10**400}),
    ):
        resp = call(node, s, op, **params)
        assert resp["error"]["code"] == "bad_request", (op, resp)
    assert s.user.ledger.snapshot_bytes() == before
    node.close()


def test_overflowing_sum_is_a_bad_request(tmp_path):
    # 1e308*A + 1e308*A: the merged coefficient is not a float, so the binop is
    # refused as the caller's error and leaves no handle behind
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    a = call(node, s, "get_roots", dataset="people")["roots"][0]["handle"]
    big = [call(node, s, "unop", kind="scale", handle=a, c=1e308)["handle"] for _ in range(2)]
    before = len(node.store._objects)
    for kind in ("add", "sub"):
        b = big[1] if kind == "add" else call(node, s, "unop", kind="neg", handle=big[1])["handle"]
        before = len(node.store._objects)
        resp = call(node, s, "binop", kind=kind, a=big[0], b=b)
        assert not resp["ok"] and resp["error"]["code"] == "bad_request", resp
        assert "overflows a float" in resp["error"]["detail"]
        assert len(node.store._objects) == before
    resp = call(node, s, "fold", kind="sum", handles=big)
    assert resp["error"]["code"] == "bad_request", resp
    assert len(node.store._objects) == before
    node.close()


def test_overflowing_slope_bound_is_a_bad_request(tmp_path):
    # x^(10^6) over [0, 122] overflows on the monotone route (Polynomial.evaluate),
    # over [-5, 122] on the interval route (Interval.power); the slope of
    # x^(10^400) overflows its coefficient (Polynomial.partial).  All of these
    # use the public box only, so the refusal says nothing about the data
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    serve_csv(tmp_path, node, body="entity,value,floor,ceiling\nA,3,-5,122\n", name="signed.csv")
    node.add_user("u1", key="k1")
    s = authed_session(node)
    people = call(node, s, "get_roots", dataset="people")["roots"]
    signed = call(node, s, "get_roots", dataset="signed")["roots"]
    assert call(node, s, "simulate_publish", handle=people[1]["handle"], sigma=300.0)["passed"]
    sim_before = s.sim.snapshot_bytes()
    real_before = s.user.ledger.snapshot_bytes()
    for root, k in itertools.product((people[0], signed[0]), (10**6, 10**400)):
        p = call(node, s, "unop", kind="pow", handle=root["handle"], k=k)
        assert p["ok"], p
        for op in ("simulate_publish", "publish"):
            resp = call(node, s, op, handle=p["handle"], sigma=300.0)
            assert resp["error"]["code"] == "bad_request", (op, k, resp)
    assert s.sim.snapshot_bytes() == sim_before
    assert s.user.ledger.snapshot_bytes() == real_before
    node.close()


def test_a_value_that_can_overflow_on_the_box_is_refused_before_any_charge(tmp_path):
    # 1e-300 * x^148 over [0, 122]: its slope needs x^147, which fits a float,
    # but x^148 does not at x = 122.  The refusal reads the box alone, so a
    # value where the release would overflow and one where it would not get
    # the same answers, and neither is journaled
    answers = []
    for value in (122, 100):
        node = make_node(tmp_path, subdir=f"state{value}")
        serve_csv(tmp_path, node, f"entity,value,floor,ceiling\nA,{value},0,122\n", f"x{value}.csv")
        node.add_user("u1", key="k1")
        s = authed_session(node)
        a = call(node, s, "get_roots", dataset=f"x{value}")["roots"][0]["handle"]
        p = call(node, s, "unop", kind="pow", handle=a, k=148)["handle"]
        q = call(node, s, "unop", kind="scale", handle=p, c=1e-300)
        answers.append([q] + [call(node, s, op, handle=q["handle"], sigma=1e12)
                              for op in ("simulate_publish", "publish", "simulate_publish")])
        assert answers[-1][-1]["error"]["code"] == "bad_request", answers[-1]
        assert s.user.ledger.snapshot_bytes() == b""
        node.close()
        assert (tmp_path / f"state{value}" / "ledger-user-u1.log").read_text() == ""
    assert encode(answers[0]) == encode(answers[1])


def test_a_product_that_forms_too_many_term_pairs_is_refused_at_once(tmp_path):
    # (0.5*(x + 1))^16384 keeps each power of two under the term cap, yet its
    # squarings form 4^14/3 pairs; the work cap refuses it before that work
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    a = call(node, s, "get_roots", dataset="people")["roots"][0]["handle"]
    x1 = call(node, s, "unop", kind="shift", handle=a, c=1.0)["handle"]
    half = call(node, s, "unop", kind="scale", handle=x1, c=0.5)["handle"]
    before = len(node.store._objects)
    t0 = time.perf_counter()
    resp = call(node, s, "unop", kind="pow", handle=half, k=16384)
    elapsed = time.perf_counter() - t0
    assert resp["error"]["code"] == "term_limit", resp
    assert elapsed < 1.0, f"refused after {elapsed:.2f}s"
    assert len(node.store._objects) == before
    assert call(node, s, "unop", kind="pow", handle=half, k=256)["meta"]["terms"] == 257
    node.close()


def test_overflowing_corner_slope_is_a_bad_request(tmp_path):
    # the slope of 1e300*A*B in A is 1e300*B, whose corners at B = +-1e10
    # overflow a float on the vertex route: a typed refusal, with no warning
    # (a RuntimeWarning from the package fails the test suite)
    node = make_node(tmp_path)
    body = "entity,value,floor,ceiling\nA,3,-5,122\nB,1,-1e10,1e10\n"
    serve_csv(tmp_path, node, body=body, name="wide.csv")
    node.add_user("u1", key="k1")
    s = authed_session(node)
    a, b = call(node, s, "get_roots", dataset="wide")["roots"]
    ab = call(node, s, "binop", kind="mul", a=a["handle"], b=b["handle"])
    big = call(node, s, "unop", kind="scale", handle=ab["handle"], c=1e300)
    assert big["ok"], big
    assert call(node, s, "fork_sim")["ok"]
    sim_before = s.sim.snapshot_bytes()
    resp = call(node, s, "simulate_publish", handle=big["handle"], sigma=300.0)
    assert resp["error"]["code"] == "bad_request", resp
    assert s.sim.snapshot_bytes() == sim_before
    node.close()


def test_serve_refuses_a_delta_whose_inverse_overflows(tmp_path, capsys, monkeypatch):
    # 1/1e-310 overflows a float; the node must refuse to start, not serve a cap of 0
    def no_server(*args, **kwargs):
        raise AssertionError("the node started serving")

    monkeypatch.setattr(cli, "NodeTCPServer", no_server)
    csv = good_csv(tmp_path, "entity,value,floor,ceiling\nA,3,0,10\n", "people.csv")
    argv = ["serve", "--data", str(csv), "--port", "0", "--eps", "2", "--delta", "1e-310"]
    assert node_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_publish_after_close_is_refused_and_not_journaled(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    h = call(node, s, "get_roots", dataset="people")["roots"][1]["handle"]
    assert call(node, s, "publish", handle=h, sigma=300.0)["ok"]
    journal = tmp_path / "state" / "ledger-user-u1.log"
    lines = journal.read_text(encoding="utf-8")
    before = s.user.ledger.snapshot_bytes()
    node.close()
    resp = call(node, s, "publish", handle=h, sigma=300.0)
    assert not resp["ok"], resp
    assert journal.read_text(encoding="utf-8") == lines
    assert s.user.ledger.snapshot_bytes() == before


# -- ledger scope and persistence ----------------------------------------------------------


def drain(node, session, handle, sigma):
    """Publish until refused; count successes."""
    n = 0
    while True:
        resp = call(node, session, "publish", handle=handle, sigma=sigma)
        if not resp["ok"]:
            assert resp["error"]["code"] == "budget_rejected"
            return n
        n += 1


def test_shared_ledger_pools_users(tmp_path):
    node = make_node(tmp_path, eps=3.0, shared=True)
    serve_csv(tmp_path, node, body="entity,value,floor,ceiling\nA,50,0,122\n")
    node.add_user("u1", key="k1")
    node.add_user("u2", key="k2")
    s1, s2 = authed_session(node, "k1"), authed_session(node, "k2")
    h1 = call(node, s1, "get_roots", dataset="people")["roots"][0]["handle"]
    h2 = call(node, s2, "get_roots", dataset="people")["roots"][0]["handle"]
    cap = rho_cap(3.0, 1e-6)
    per = 50.0**2 / (2 * 200.0**2)
    fits = int(cap / per)
    used_by_u1 = drain(node, s1, h1, 200.0)
    assert used_by_u1 == fits
    # the pool is exhausted for u2 as well
    assert drain(node, s2, h2, 200.0) == 0
    node.close()


def test_per_user_ledgers_are_independent(tmp_path):
    node = make_node(tmp_path, eps=3.0, shared=False)
    serve_csv(tmp_path, node, body="entity,value,floor,ceiling\nA,50,0,122\n")
    node.add_user("u1", key="k1")
    node.add_user("u2", key="k2")
    s1, s2 = authed_session(node, "k1"), authed_session(node, "k2")
    h1 = call(node, s1, "get_roots", dataset="people")["roots"][0]["handle"]
    h2 = call(node, s2, "get_roots", dataset="people")["roots"][0]["handle"]
    cap = rho_cap(3.0, 1e-6)
    fits = int(cap / (50.0**2 / (2 * 200.0**2)))
    assert drain(node, s1, h1, 200.0) == fits
    assert drain(node, s2, h2, 200.0) == fits  # u2 has a fresh ledger
    node.close()


def test_restart_preserves_budgets(tmp_path):
    path = good_csv(tmp_path, "entity,value,floor,ceiling\nA,50,0,122\n", name="people.csv")

    def boot():
        node = make_node(tmp_path, eps=3.0, subdir="persist")
        node.ingest(path)
        node.add_user("u1", key="k1")
        return node

    node = boot()
    s = authed_session(node)
    h = call(node, s, "get_roots", dataset="people")["roots"][0]["handle"]
    fits = drain(node, s, h, 200.0)
    assert fits > 0
    before = call(node, s, "remaining_budget", entity="A")["eps"]
    # a crash: the second node boots while the first was never closed, so the
    # journals must already be on disk
    node2 = boot()
    s2 = authed_session(node2)
    h2 = call(node2, s2, "get_roots", dataset="people")["roots"][0]["handle"]
    assert call(node2, s2, "remaining_budget", entity="A")["eps"] == before
    # still refused after restart: nothing was forgotten
    resp = call(node2, s2, "publish", handle=h2, sigma=200.0)
    assert resp["error"]["code"] == "budget_rejected"
    node2.close()
    node.close()


def test_user_registry_persistence(tmp_path):
    journal = tmp_path / "reg"
    key1 = users_add(journal, "alice")
    key2 = users_add(journal, "bob")
    assert key1 != key2 and len(key1) == 32
    with pytest.raises(ValueError):
        users_add(journal, "alice")  # duplicate
    with pytest.raises(ValueError):
        users_add(journal, "bad name!")  # invalid characters
    records = load_users_file(journal)
    assert [r["name"] for r in records] == ["alice", "bob"]
    # a node booted on that directory accepts the minted keys
    node = Node(NodeConfig(eps_cap=1.0, delta=1e-6, journal_dir=journal))
    session = NodeSession(peer="t")
    resp = node.handle_request(session, {"id": 1, "op": "auth", "key": key1})
    assert resp["ok"] and resp["user"] == "alice"
    node.close()


@pytest.mark.parametrize(
    "users, match",
    [
        ({"name": "alice", "key": "k"}, "expected a JSON list"),
        ([{"name": "alice", "key": "k1"}, {"name": "alice", "key": "k2"}], "already exists"),
        ([{"name": "alice", "key": "k"}, {"name": "bob", "key": "k"}], "api key"),
    ],
    ids=["not_a_list", "repeated_name", "repeated_key"],
)
def test_node_that_fails_to_start_closes_its_files(tmp_path, users, match):
    # the first account's ledger journal is open when the second one is refused;
    # a file left open fails the test through the ResourceWarning filter
    journal = tmp_path / "state"
    journal.mkdir()
    (journal / "users.json").write_text(json.dumps(users), encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        Node(NodeConfig(eps_cap=1.0, delta=1e-6, journal_dir=journal))
    gc.collect()


@pytest.mark.parametrize("rho", ["nan", "inf", "-1.0"])
def test_node_refuses_to_start_on_a_journal_rho_no_record_writes(tmp_path, rho):
    journal = tmp_path / "state"
    journal.mkdir()
    (journal / "ledger-shared.log").write_text(f"p000001\tA\t{rho}\t2026-01-01T00:00:00+00:00\n")
    with pytest.raises(LedgerError, match="journal line 1"):
        Node(NodeConfig(eps_cap=1.0, delta=1e-6, shared_ledger=True, journal_dir=journal))
    gc.collect()  # the audit file it opened is closed, or the ResourceWarning filter fails


def test_audit_trail_records_publishes(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    roots = call(node, s, "get_roots", dataset="people")["roots"]
    call(node, s, "publish", handle=roots[1]["handle"], sigma=300.0)
    call(node, s, "publish", handle=roots[1]["handle"], sigma=0.0001)
    node.close()
    dump = read_audit(tmp_path / "state")
    ops = [(e["op"], e["ok"]) for e in dump["events"]]
    assert ops == [("auth", True), ("get_roots", True), ("publish", True), ("publish", False)]
    published = [e for e in dump["events"] if e["op"] == "publish" and e["ok"]]
    assert published[0]["publish_id"] == "p000001" and published[0]["sigma"] == 300.0
    rejected = [e for e in dump["events"] if e["op"] == "publish" and not e["ok"]]
    assert rejected[0]["rejected_entities"] == ["B"]
    # the accepted publish is the only charge on u1's ledger
    assert list(dump["cumulative"]) == ["user-u1"]
    assert list(dump["cumulative"]["user-u1"]) == ["B"]


def test_audit_file_keeps_every_request(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    for rid in range(5000):
        call(node, s, "list_datasets", rid=rid)
    # one line per request, on disk as soon as it is handled, the first auth included
    lines = (tmp_path / "state" / AUDIT_FILE).read_text().splitlines()
    node.close()
    assert len(lines) == 5001
    assert json.loads(lines[0])["op"] == "auth"
    assert {json.loads(line)["op"] for line in lines[1:]} == {"list_datasets"}


def _parent_audit_line(ts, session, op, resp, released):
    """The audit line as the node built it before its lines were assembled from cached parts."""
    event = {
        "ts": ts,
        "peer": session.peer,
        "user": session.user.name if session.user else None,
        "op": op if isinstance(op, str) else None,
        "ok": resp["ok"],
    }
    if not resp["ok"]:
        event["code"] = resp["error"]["code"]
    if resp.get("publish_id"):
        event["publish_id"], event["sigma"] = resp["publish_id"], resp["sigma"]
    if resp.get("rejection"):
        event["rejected_entities"] = resp["rejection"]["entities"]
    if released:
        event["released"] = released
    return json_line(event).encode()


_ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)  # lone surrogates too


@settings(max_examples=400, deadline=None)
@given(
    peer=_ANY_TEXT,
    user=st.none() | _ANY_TEXT,
    op=_ANY_TEXT | st.none() | st.integers() | st.floats() | st.lists(st.integers(), max_size=2),
    ok=st.booleans(),
    code=_ANY_TEXT,
    publish_id=st.none() | _ANY_TEXT,
    sigma=st.floats(),
    rejected=st.none() | st.lists(_ANY_TEXT, max_size=3),
    released=st.integers(min_value=0, max_value=2**70),
)
@example(peer="127.0.0.1:5", user="u1", op="binop", ok=True, code="", publish_id=None,
         sigma=0.0, rejected=None, released=0)
def test_audit_line_is_the_event_dict_as_json_line(
    peer, user, op, ok, code, publish_id, sigma, rejected, released
):
    node = Node(NodeConfig(eps_cap=1.0, delta=1e-6))
    node._audit_file = sink = RawSink()
    session = NodeSession(peer=peer)
    if user is not None:
        session.set_user(UserAccount(user, "key", None))
    resp = {"id": 1, "ok": ok}
    if not ok:
        resp["error"] = {"code": code, "detail": "d"}
    if publish_id is not None:
        resp["publish_id"], resp["sigma"] = publish_id, sigma
    if rejected is not None:
        resp["rejection"] = {"entities": rejected, "projected_eps": [1.0] * len(rejected)}
    try:
        want = _parent_audit_line("T", session, op, resp, released)
    except ValueError as exc:  # a NaN or infinite sigma: refused, nothing written
        with pytest.raises(ValueError, match=str(exc)):
            node._audit_event(session, op, resp, released)
        assert sink.calls == 0
        return
    node._audit_event(session, op, resp, released)
    line = bytes(sink.data)
    ts = re.match(rb'\{"ts":"([^"]*)",', line).group(1).decode()
    assert line == want.replace(b'"ts":"T"', f'"ts":"{ts}"'.encode(), 1)
    assert sink.calls == 1


def test_audit_lines_land_whole_through_short_writes(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    s = authed_session(node)
    node._audit_file.close()
    node._audit_file = sink = RawSink(limit=3)
    b = call(node, s, "get_roots", dataset="people")["roots"][1]["handle"]
    call(node, s, "publish", handle=b, sigma=300.0)
    call(node, s, "publish", handle=b, sigma=0.0001)
    call(node, s, "no_such_op")
    events = [json.loads(line) for line in sink.data.decode().splitlines()]
    assert [(e["op"], e["ok"]) for e in events] == [
        ("get_roots", True), ("publish", True), ("publish", False), ("no_such_op", False)
    ]
    assert events[1]["publish_id"] == "p000001" and events[2]["rejected_entities"] == ["B"]
    # each line was written three bytes at a time
    assert sink.calls == sum(-(-len(line) // 3) for line in sink.data.splitlines(keepends=True))
    node._audit_file = RawSink(fail=True)
    with pytest.raises(OSError, match="No space left"):
        call(node, s, "list_datasets")
    node.close()


def test_audit_command_reads_shared_and_per_user_journals(tmp_path, capsys):
    rho = 40.0**2 / (2.0 * 300.0**2)  # B's one-release cost: slope 1, value 40, sigma 300
    for shared, scopes, second_id in (
        (False, {"user-u1": rho, "user-u2": rho}, "p000001"),
        (True, {"shared": 2.0 * rho}, "p000002"),
    ):
        node = make_node(tmp_path, shared=shared, subdir=f"shared-{shared}")
        serve_csv(tmp_path, node)
        node.add_user("u1", key="k1")
        node.add_user("u2", key="k2")
        s1, s2 = authed_session(node, "k1"), authed_session(node, "k2")
        b = call(node, s1, "get_roots", dataset="people")["roots"][1]["handle"]
        call(node, s1, "publish", handle=b, sigma=300.0)
        call(node, s2, "publish", handle=b, sigma=300.0)
        call(node, s2, "publish", handle=b, sigma=0.0001)
        node.close()
        journal = str(tmp_path / f"shared-{shared}")

        assert node_main(["audit", "--journal", journal, "--json"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump == read_audit(journal)
        assert list(dump) == ["cumulative", "events"]
        assert {scope: totals["B"] for scope, totals in dump["cumulative"].items()} == (
            pytest.approx(scopes, rel=1e-12))

        assert node_main(["audit", "--journal", journal]) == 0
        lines = capsys.readouterr().out.splitlines()
        # event lines without their timestamps
        assert [line.split(" ", 3)[3] for line in lines[1:7]] == [
            "u1 auth ok",
            "u2 auth ok",
            "u1 get_roots ok",
            "u1 publish ok publish=p000001 sigma=300.0",
            f"u2 publish ok publish={second_id} sigma=300.0",
            "u2 publish err:budget_rejected rejected=B",
        ]
        ledger_lines = []
        for scope in sorted(scopes):
            ledger_lines += [f"ledger {scope}:", f"  B\trho={dump['cumulative'][scope]['B']:.17g}"]
        assert lines == ["6 audited requests", *lines[1:7], *ledger_lines]


# -- raw TCP framing ------------------------------------------------------------------------


def test_tcp_malformed_and_auth_frames(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    server = start_server(node)
    host, port = server.address
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            f = sock.makefile("rwb")

            def send(raw: bytes) -> dict:
                f.write(raw + b"\n")
                f.flush()
                return json.loads(f.readline())

            # the second line is nested deeper than the decoder's recursion limit
            for raw in (b"this is not json", b'{"id":1,"op":"auth","key":"k","x":' + b"[" * 100_000):
                bad = send(raw)
                assert bad["ok"] is False and bad["id"] is None
                assert bad["error"]["code"] == "bad_request"
            ok = send(json.dumps({"id": 1, "op": "auth", "key": "k1"}).encode())
            assert ok["ok"] and ok["id"] == 1
            # ids echo back on every frame
            resp = send(json.dumps({"id": 42, "op": "list_datasets"}).encode())
            assert resp["id"] == 42 and resp["datasets"][0]["name"] == "people"
    finally:
        server.shutdown()
        server.server_close()
        node.close()


def test_tcp_request_line_is_bounded(tmp_path, monkeypatch):
    fold = {"id": 1, "op": "fold", "kind": "sum", "handles": [f"h{i}" for i in range(10**5)]}
    assert len(encode(fold)) < MAX_REQUEST_BYTES
    limit = 4096
    monkeypatch.setattr("pscalar.node.MAX_REQUEST_BYTES", limit)
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    server = start_server(node)
    host, port = server.address
    auth = json.dumps({"id": 1, "op": "auth", "key": "k1"}).encode()
    try:
        with socket.create_connection((host, port), timeout=5) as other, \
                socket.create_connection((host, port), timeout=5) as sock:
            g, f = other.makefile("rwb"), sock.makefile("rwb")
            for stream in (g, f):
                stream.write(auth + b"\n")
                stream.flush()
                assert json.loads(stream.readline())["ok"]
            # a line of exactly the limit, newline included, is served
            f.write(auth + b" " * (limit - len(auth) - 1) + b"\n")
            f.flush()
            assert json.loads(f.readline())["ok"]
            # one byte more, sent without a newline: one refusal, then the node hangs up
            f.write(b"x" * (limit + 1))
            f.flush()
            resp = json.loads(f.readline())
            assert resp == {"id": None, "ok": False,
                            "error": {"code": "bad_request", "detail": "request too large"}}
            assert f.readline() == b""
            g.write(json.dumps({"id": 2, "op": "list_datasets"}).encode() + b"\n")
            g.flush()
            assert json.loads(g.readline())["datasets"][0]["name"] == "people"
            g.close()
            f.close()
    finally:
        server.shutdown()
        server.server_close()
        node.close()


def test_tcp_reset_mid_request_ends_the_session_quietly(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("u1", key="k1")
    server = start_server(node)
    errors, closed = [], threading.Event()
    server.handle_error = lambda request, addr: errors.append(addr)
    shutdown_request = server.shutdown_request

    def note_closed(request):
        shutdown_request(request)
        closed.set()

    server.shutdown_request = note_closed
    auth = json.dumps({"id": 1, "op": "auth", "key": "k1"}).encode() + b"\n"
    try:
        with socket.create_connection(server.address, timeout=5) as other:
            g = other.makefile("rwb")
            g.write(auth)
            g.flush()
            assert json.loads(g.readline())["ok"]
            sock = socket.create_connection(server.address, timeout=5)
            f = sock.makefile("rwb")
            f.write(auth)
            f.flush()
            assert json.loads(f.readline())["ok"]  # the node now waits on this session
            f.write(b'{"id": 2, "op": "list_')
            f.flush()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            f.close()
            sock.close()  # an RST in the middle of a request line, not a FIN
            assert closed.wait(5)
            assert errors == []
            g.write(json.dumps({"id": 3, "op": "list_datasets"}).encode() + b"\n")
            g.flush()
            assert json.loads(g.readline())["datasets"][0]["name"] == "people"
            g.close()
    finally:
        server.shutdown()
        server.server_close()
        node.close()


def test_shutdown_wakes_the_serve_loop_at_once(tmp_path):
    node = make_node(tmp_path)
    server = NodeTCPServer(node)
    # a poll this long would hold a shutdown that only waits for the next poll
    serving = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 60}, daemon=True
    )
    stopping = threading.Thread(target=server.shutdown, daemon=True)
    try:
        serving.start()
        with socket.create_connection(server.address, timeout=5) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"id":1,"op":"list_datasets"}\n')
            f.flush()
            assert json.loads(f.readline())["error"]["code"] == "auth_required"
            f.close()
        stopping.start()
        stopping.join(10)
        serving.join(10)
        assert not stopping.is_alive() and not serving.is_alive()
    finally:
        server.server_close()
        node.close()


def _interrupt_serve(tmp_path, **popen) -> tuple[int, float, str]:
    """Start ``serve``, send SIGINT once it listens: (exit code, seconds to stop, stderr)."""
    path = good_csv(tmp_path, "entity,value,floor,ceiling\nA,1,0,2\n")
    with subprocess.Popen(
        [sys.executable, "-m", "pscalar", "node", "serve", "--data", str(path), "--port", "0",
         "--eps", "1", "--delta", "1e-6", "--user", "u1:k1", "--journal", str(tmp_path / "state")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **popen,
    ) as proc:
        try:
            assert proc.stdout.readline().startswith("pscalar-node listening on ")
            t0 = time.monotonic()
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=10)
            elapsed = time.monotonic() - t0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return code, elapsed, proc.stderr.read()


def test_serve_stops_promptly_on_sigint(tmp_path):
    code, elapsed, stderr = _interrupt_serve(tmp_path)
    assert code == 0, stderr
    assert elapsed < 0.2, f"stop took {elapsed:.3f}s"


def test_serve_stops_on_sigint_when_started_with_it_ignored(tmp_path):
    # a job started with & from a non-interactive shell inherits SIGINT ignored
    code, _elapsed, stderr = _interrupt_serve(
        tmp_path, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN)
    )
    assert code == 0, stderr


def test_serve_refuses_a_duplicate_api_key(tmp_path):
    path = good_csv(tmp_path, "entity,value,floor,ceiling\nA,1,0,2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pscalar", "node", "serve", "--data", str(path), "--port", "0",
         "--eps", "1", "--delta", "1e-6", "--user", "alice:k", "--user", "bob:k"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""  # refused before listening
    assert proc.stderr == "error: user 'bob' reuses the api key of another user\n"


def test_serve_refuses_a_negative_seed(tmp_path):
    # random.Random(-s) would replay the stream of seed s
    path = good_csv(tmp_path, "entity,value,floor,ceiling\nA,1,0,2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pscalar", "node", "serve", "--data", str(path), "--port", "0",
         "--eps", "1", "--delta", "1e-6", "--seed", "-1", "--user", "alice:k",
         "--journal", str(tmp_path / "state")],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""  # refused before listening
    assert proc.stderr == "error: noise seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "state").exists()


def test_duplicate_api_key_is_refused(tmp_path):
    node = make_node(tmp_path)
    serve_csv(tmp_path, node)
    node.add_user("alice", key="k")
    with pytest.raises(ValueError, match="api key"):
        node.add_user("bob", key="k")
    assert node.user_names() == ["alice"]
    # the key still authenticates alice, and bob got no ledger
    assert authed_session(node, "k").user.name == "alice"
    node.close()
    assert sorted(p.name for p in (tmp_path / "state").glob("ledger-*")) == ["ledger-user-alice.log"]


def test_user_name_validation(tmp_path):
    node = make_node(tmp_path)
    with pytest.raises(ValueError):
        node.add_user("spaces are bad", key="x")
    node.add_user("ok-name_1.2", key="x")
    with pytest.raises(ValueError):
        node.add_user("ok-name_1.2", key="y")  # duplicate
    node.close()
