"""Analyst client: remote arithmetic, error mapping, state confinement."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from pscalar.client import (
    AuthFailed,
    ClientError,
    PublishRejectedError,
    RemoteScalar,
    RequestFailed,
    Session,
    TransportError,
)
from pscalar.node import Node, NodeConfig, start_server

SECRET_A = 77.2512345678
SECRET_B = 40.25


@pytest.fixture
def live(tmp_path):
    node = Node(NodeConfig(eps_cap=6.0, delta=1e-6, journal_dir=tmp_path / "n", seed=8))
    csv = tmp_path / "people.csv"
    csv.write_text(
        "entity,value,floor,ceiling\n"
        f"A,{SECRET_A},0,122\n"
        f"B,{SECRET_B},0,122\n"
        "C,130,0,122\n",
        encoding="utf-8",
    )
    node.ingest(csv)
    node.add_user("u1", key="k1")
    node.add_user("u2", key="k2")
    server = start_server(node)
    yield server.address, node
    server.shutdown()
    server.server_close()
    node.close()


def connect(live, key="k1") -> Session:
    (host, port), _node = live
    return Session.connect(f"{host}:{port}", key)


# -- connection --------------------------------------------------------------------------


def test_connect_and_metadata(live):
    with connect(live) as s:
        assert s.user == "u1"
        assert s.datasets == [{"name": "people", "rows": 3}]
        assert s.list_datasets() == s.datasets
        records = s.root_records("people")
        assert records[0]["entity"] == "A"
        assert records[0]["floor"] == 0.0 and records[0]["ceiling"] == 122.0
        assert set(records[0]) == {"handle", "entity", "floor", "ceiling"}


def test_bad_key_raises_auth_failed(live):
    with pytest.raises(AuthFailed):
        connect(live, key="wrong")


def test_tuple_address_accepted(live):
    (host, port), _ = live
    with Session.connect((host, port), "k1") as s:
        assert s.user == "u1"


def test_bad_address_format():
    with pytest.raises(ClientError):
        Session.connect("no-port-here", "k")


# -- remote arithmetic ---------------------------------------------------------------------


def test_operator_round_trips(live):
    with connect(live) as s:
        a, b, c = s.roots("people")
        combos = [
            a + b, a - b, a * b, -a,
            a + 2.0, 2.0 + a, a - 1.0, 1.0 - a,
            a * 3.0, 3.0 * a, a.scale(0.5), a.shift(-5.0),
            a ** 2, (a + b) ** 3, s.sum_of([a, b, c]), s.product_of([a, b]),
        ]
        for r in combos:
            assert isinstance(r, RemoteScalar)
            desc = s.describe(r)
            assert desc["terms"] >= 1
        cube = (a + b) ** 3
        assert cube.degree == 3 and cube.entities == 2
        assert s.describe(cube)["degree"] == 3


def test_division_rejected_client_side(live):
    with connect(live) as s:
        a, *_ = s.roots("people")
        with pytest.raises(ClientError):
            _ = a / 2.0


def test_cross_session_mixing_rejected(live):
    s1, s2 = connect(live), connect(live, key="k2")
    try:
        a1 = s1.roots("people")[0]
        a2 = s2.roots("people")[0]
        with pytest.raises(ClientError) as err:
            _ = a1 + a2
        assert "session" in str(err.value)
    finally:
        s1.close()
        s2.close()


def test_foreign_handle_is_forbidden(live):
    s1, s2 = connect(live), connect(live, key="k2")
    try:
        mine = s1.roots("people")[0] * s1.roots("people")[1]
        stolen = RemoteScalar(s2, mine.handle)
        with pytest.raises(RequestFailed) as err:
            s2.describe(stolen)
        assert err.value.code == "forbidden"
    finally:
        s1.close()
        s2.close()


def test_drop_frees_handle(live):
    with connect(live) as s:
        a, b, _ = s.roots("people")
        d = a + b
        s.drop(d)
        with pytest.raises(RequestFailed) as err:
            s.describe(d)
        assert err.value.code == "unknown_handle"
        with pytest.raises(RequestFailed) as err2:
            s.drop(a)  # roots are not droppable
        assert err2.value.code == "forbidden"


# -- publish / simulate ----------------------------------------------------------------------


def test_publish_and_rejection(live):
    with connect(live) as s:
        a, b, c = s.roots("people")
        mean = s.sum_of([a, b, c]).scale(1.0 / 3.0)
        res = s.publish(mean, 100.0)
        assert res.publish_id == "p000001" and res.sigma == 100.0
        assert isinstance(res.value, float)
        assert [sp["entity"] for sp in res.spends] == ["A", "B", "C"]
        for sp in res.spends:
            assert set(sp) == {"entity", "attribute", "lipschitz", "rho"}
        with pytest.raises(PublishRejectedError) as err:
            s.publish(mean, 0.0001)
        assert err.value.entities == ["A", "B", "C"]
        assert all(eps > 6.0 for eps in err.value.projected_eps)


def test_rehearsal_and_receipt_of_one_handle_carry_identical_spends(live):
    with connect(live) as s:
        a, b, c = s.roots("people")
        mean, quadratic = s.sum_of([a, b, c]).scale(1.0 / 3.0), (a + b) ** 2 + b * c
        for query, sigma in ((mean, 400.0), (quadratic, 1e5)):
            sim = s.simulate(query, sigma)
            res = s.publish(query, sigma)
            assert sim.passed and len(sim.spends) == 3
            assert list(sim.spends) == list(res.spends)


def test_simulate_and_budget(live):
    with connect(live) as s:
        a, *_ = s.roots("people")
        before = s.remaining_budget("A")
        assert before == 6.0
        sim = s.simulate(a, 100.0)
        assert sim.passed and sim.rejection is None
        sim_reject = s.simulate(a, 0.0001)
        assert not sim_reject.passed
        assert sim_reject.rejection["entities"] == ["A"]
        assert s.remaining_budget("A") == before  # rehearsals are free
        s.fork_sim()
        assert s.simulate(a, 100.0).passed
        star = s.remaining_budget("*")
        assert set(star) == {"A", "B", "C"} and star["A"] == 6.0
        assert s.remaining_budget() == 6.0  # "min" default
        res = s.publish(a, 100.0)
        assert res.value != pytest.approx(SECRET_A, abs=1e-9) or True
        assert s.remaining_budget("A") < 6.0


def test_empty_folds_rejected(live):
    with connect(live) as s:
        with pytest.raises(ClientError):
            s.sum_of([])
        with pytest.raises(ClientError):
            s.product_of([])


def test_sum_of_is_one_request_and_one_handle(live, tmp_path):
    _addr, node = live
    csv = tmp_path / "wide.csv"
    csv.write_text(
        "entity,value,floor,ceiling\n" + "".join(f"w{i},{i % 7},0,10\n" for i in range(300)),
        encoding="utf-8",
    )
    node.ingest(csv)
    with connect(live) as s:
        roots = s.roots("wide")
        for fold in (s.sum_of, s.product_of):
            handles, requests = len(node.store._objects), s._next_id
            result = fold(roots)
            assert s._next_id == requests + 1
            assert len(node.store._objects) == handles + 1
            assert result.entities == 300
        assert s.sum_of(roots).terms == 300


def test_mean_of_squares_over_2000_rows_answers_within_the_default_timeout(live, tmp_path):
    # each rehearsal and release bounds all 2000 entities; that must stay well
    # inside Session's default 10 s timeout over TCP
    _addr, node = live
    n = 2000
    csv = tmp_path / "squares.csv"
    csv.write_text(
        "entity,value,floor,ceiling\n" + "".join(f"q{i:04d},{i % 123},0,122\n" for i in range(n)),
        encoding="utf-8",
    )
    node.ingest(csv)
    with connect(live) as s:
        mean_sq = s.sum_of([r ** 2 for r in s.roots("squares")]).scale(1.0 / n)
        sim = s.simulate(mean_sq, 100.0)
        assert sim.passed
        res = s.publish(mean_sq, 100.0)
        # slope of x_i^2 / n over [0, 122] peaks at the ceiling: 2 * 122 / n
        for spends in (sim.spends, res.spends):
            assert len(spends) == n
            assert all(sp["lipschitz"] == 2 * 122 / n for sp in spends)


def test_folds_refuse_mixed_sessions_before_sending(live):
    _addr, node = live
    s1, s2 = connect(live), connect(live, key="k2")
    try:
        a1, b1, _ = s1.roots("people")
        a2 = s2.roots("people")[0]
        handles, requests = len(node.store._objects), (s1._next_id, s2._next_id)
        for fold in (s1.sum_of, s1.product_of, s2.sum_of):
            with pytest.raises(ClientError) as err:
                fold([a1, b1, a2])
            assert "session" in str(err.value)
        assert (s1._next_id, s2._next_id) == requests
        assert len(node.store._objects) == handles
    finally:
        s1.close()
        s2.close()


# -- confinement: the client process never holds raw inputs ----------------------------------


def test_client_state_contains_no_private_values(live):
    with connect(live) as s:
        a, b, c = s.roots("people")
        f = (a + b) * c
        s.describe(f)
        s.simulate(f, 500.0)
        s.publish(f, 50000.0)

        seen = set()

        def scan(obj, path="root"):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, float):
                for secret in (SECRET_A, SECRET_B, 130.0, 122.0 * SECRET_B):
                    assert obj != secret, f"{path} holds a private value"
            elif isinstance(obj, dict):
                for k, v in obj.items():
                    scan(k, path)
                    scan(v, f"{path}.{k}")
            elif isinstance(obj, (list, tuple, set, frozenset)):
                for i, v in enumerate(obj):
                    scan(v, f"{path}[{i}]")
            elif isinstance(obj, (RemoteScalar, Session)):
                slots = getattr(type(obj), "__slots__", None)
                attrs = (
                    {name: getattr(obj, name) for name in slots if hasattr(obj, name)}
                    if slots
                    else {k: v for k, v in vars(obj).items() if not k.startswith("_sock")}
                )
                for k, v in attrs.items():
                    if k in ("_rfile", "_sock", "session"):
                        continue
                    scan(v, f"{path}.{k}")

        for obj in (s, a, b, c, f):
            scan(obj)


# -- transport faults --------------------------------------------------------------------------


def _one_shot_server(lines: list[bytes]):
    """A fake node that reads one line then answers with canned bytes."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)

    def run():
        with srv:
            conn, _ = srv.accept()
        with conn:
            conn.recv(65536)
            for line in lines:
                conn.sendall(line)

    threading.Thread(target=run, daemon=True).start()
    return srv.getsockname()


def test_garbage_response_is_transport_error():
    addr = _one_shot_server([b"not json at all\n"])
    with pytest.raises(TransportError):
        Session.connect(addr, "k")


def test_id_mismatch_is_transport_error():
    addr = _one_shot_server([json.dumps({"id": 999, "ok": True, "user": "x", "datasets": []}).encode() + b"\n"])
    with pytest.raises(TransportError):
        Session.connect(addr, "k")


def test_closed_connection_is_transport_error():
    addr = _one_shot_server([])
    with pytest.raises(TransportError):
        Session.connect(addr, "k")


def test_call_after_close_fails(live):
    s = connect(live)
    s.close()
    with pytest.raises(ClientError):
        s.list_datasets()
