"""Interactive client: REPL words become script steps on one live session."""

from __future__ import annotations

import argparse
import json

import pytest

from pscalar.cli import _cmd_repl
from pscalar.client import ClientError, RemoteScalar, Session
from pscalar.node import Node, NodeConfig, start_server
from pscalar.script import ScriptError, _Repl, _Runner


@pytest.fixture
def live(tmp_path):
    node = Node(NodeConfig(eps_cap=2.0, delta=1e-6, journal_dir=tmp_path / "n", seed=4))
    csv = tmp_path / "people.csv"
    csv.write_text(
        "entity,value,floor,ceiling\nA,30,0,122\nB,40,0,122\nC,50,0,122\n", encoding="utf-8"
    )
    node.ingest(csv)
    node.add_user("u1", key="k1")
    server = start_server(node)
    host, port = server.address
    yield f"{host}:{port}"
    server.shutdown()
    server.server_close()
    node.close()


@pytest.fixture
def repl(live):
    with Session.connect(live, "k1") as session:
        yield _Repl(_Runner(session, live, {}))


def test_load_and_let_every_kind(repl):
    assert repl.handle("datasets") == "people (3 rows)"
    assert repl.handle("") is None
    assert "3 roots" in repl.handle("load people as p")
    repl.handle("let a = pick p 0")
    repl.handle("let b = pick p 1")
    lines = {
        "add": "let x = add a b",
        "sub": "let x = sub a b",
        "mul": "let x = mul a b",
        "sum": "let x = sum p",
        "product": "let x = product p",
        "scale": "let x = scale a 0.5",
        "shift": "let x = shift a 1",
        "pow": "let x = pow a 3",
        "neg": "let x = neg a",
        "pick": "let x = pick p 2",
    }
    for kind, line in lines.items():
        assert repl.handle(line).startswith(f"x = {kind}"), line
        assert isinstance(repl.runner.bindings["x"], RemoteScalar)
    repl.handle("let x = pow a 3")
    assert json.loads(repl.handle("describe x"))["degree"] == 3


def test_simulate_fork_publish_and_budget(repl):
    repl.handle("load people as p")
    repl.handle("let s = sum p")
    repl.handle("let m = scale s 0.001")
    assert repl.handle("budget") == "budget min: 2"
    assert repl.handle("simulate m 5").endswith("pass")
    refused = repl.handle("simulate s 0.001")
    assert "reject" in refused and "['A', 'B', 'C']" in refused and "projected_eps" in refused
    assert repl.handle("fork") == "simulated ledger forked"
    assert repl.handle("publish m 5").startswith("publish sigma=5.0: value")
    with pytest.raises(ScriptError) as err:
        repl.handle("publish s 0.001")
    assert "['A', 'B', 'C']" in str(err.value) and "projected" in str(err.value)
    assert float(repl.handle("budget A").removeprefix("budget A: ")) < 2.0


def test_release_lines_send_one_request_each(repl, monkeypatch):
    repl.handle("load people as p")
    repl.handle("let m = sum p")
    sent = []
    call = Session._call

    def counted(self, op, **fields):
        sent.append(op)
        return call(self, op, **fields)

    monkeypatch.setattr(Session, "_call", counted)
    repl.handle("publish m 1000")
    assert sent == ["publish"]
    repl.handle("simulate m 1000")
    assert sent == ["publish", "simulate_publish"]


def test_bad_lines_are_errors(repl):
    repl.handle("load people as p")
    for line, error in [
        ("frobnicate", ScriptError),          # unknown command
        ("load people", ScriptError),         # usage
        ("let x add p", ScriptError),         # usage
        ("let x = warp p", ScriptError),      # unknown op kind
        ("let x = add p", ScriptError),       # a list is not a scalar
        ("let x = add", KeyError),            # too few words
        ("describe nope", ScriptError),
        ("simulate", KeyError),
        ("publish p", ScriptError),
        ("budget nobody", ClientError),
        ("let x = pick p many", ValueError),
        ("let x = pick p 9", IndexError),
        ('load "people as p', ValueError),    # unbalanced quote
    ]:
        with pytest.raises(error):
            repl.handle(line)
    with pytest.raises(EOFError):
        repl.handle("quit")


def test_repl_loop_survives_bad_lines(live, monkeypatch, capsys):
    lines = iter(["load people as p", "let a = pick p 0", "let x = add a", "frobnicate",
                  "let t = sum p", "budget", "quit"])
    monkeypatch.setattr("builtins.input", lambda _prompt: next(lines))
    assert _cmd_repl(argparse.Namespace(addr=live, key="k1")) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "connected as u1; 'quit' to leave"
    assert out[3] == "error: 'b'"
    assert out[4].startswith("error: unknown command 'frobnicate'")
    assert out[5].startswith("t = sum")
    assert out[6] == "budget min: 2"
