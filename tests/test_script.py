"""Scenario runner: parsing, execution, expectation enforcement, reporting."""

from __future__ import annotations

import json

import pytest

from pscalar import demos
from pscalar.node import Node, NodeConfig, start_server
from pscalar.script import ScriptError, parse_script, run_script


@pytest.fixture
def live(tmp_path):
    node = Node(NodeConfig(eps_cap=2.0, delta=1e-6, journal_dir=tmp_path / "n", seed=3))
    csv = tmp_path / "ages.csv"
    rows = "\n".join(f"u{i:03d},{18 + ((i * 37) % 73)},0,122" for i in range(1, 101))
    csv.write_text("entity,value,floor,ceiling\n" + rows + "\n", encoding="utf-8")
    node.ingest(csv)
    node.add_user("alice", key="ka")
    node.add_user("bob", key="kb")
    server = start_server(node)
    host, port = server.address
    yield f"{host}:{port}"
    server.shutdown()
    server.server_close()
    node.close()


def write_script(tmp_path, lines) -> str:
    path = tmp_path / "scenario.script"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# -- parsing -----------------------------------------------------------------------------


def test_parse_skips_comments_and_blanks(tmp_path):
    path = write_script(tmp_path, [
        "# a comment",
        "",
        json.dumps({"step": "fork_sim"}),
        "   # indented comment",
        json.dumps({"step": "budget"}),
    ])
    steps = parse_script(path)
    assert [s["step"] for s in steps] == ["fork_sim", "budget"]
    assert steps[0]["_line"] == 3 and steps[1]["_line"] == 5


def test_parse_reports_bad_lines(tmp_path):
    path = write_script(tmp_path, ['{"step": "budget"}', "{broken"])
    with pytest.raises(ScriptError) as err:
        parse_script(path)
    assert "line 2" in str(err.value)
    path2 = write_script(tmp_path, ["[1, 2, 3]"])
    with pytest.raises(ScriptError):
        parse_script(path2)


def test_parse_rejects_empty_script(tmp_path):
    path = write_script(tmp_path, ["# nothing here"])
    with pytest.raises(ScriptError):
        parse_script(path)


# -- execution ---------------------------------------------------------------------------


def test_full_scenario(tmp_path, live):
    path = write_script(tmp_path, [
        json.dumps({"step": "load", "dataset": "ages", "as": "people"}),
        json.dumps({"step": "op", "kind": "sum", "arg": "people", "as": "total"}),
        json.dumps({"step": "op", "kind": "scale", "arg": "total", "c": 0.01, "as": "mean"}),
        json.dumps({"step": "budget", "as": "before"}),
        json.dumps({"step": "simulate", "target": "mean", "sigma": 5.0, "expect": "pass"}),
        json.dumps({"step": "publish", "target": "mean", "sigma": 5.0, "as": "released"}),
        json.dumps({"step": "budget", "as": "after"}),
        json.dumps({"step": "assert_budget", "at_least": 0.5, "at_most": 2.0}),
    ])
    echoed = []
    report = run_script(path, live, "ka", echo=echoed.append)
    assert report.ok
    assert len(report.steps) == 8 == len(echoed)
    assert all(r.ok for r in report.steps)
    assert report.bindings["before"] == 2.0
    assert report.bindings["after"] < 2.0
    assert isinstance(report.bindings["released"], float)
    assert "people" not in report.bindings  # scalars are not reportable
    assert len(report.budget_trajectory) == 2
    assert report.budget_trajectory[0]["min_remaining"] == 2.0


def test_ops_and_bindings(tmp_path, live):
    path = write_script(tmp_path, [
        json.dumps({"step": "load", "dataset": "ages", "as": "people"}),
        json.dumps({"step": "op", "kind": "pick", "arg": "people", "index": 0, "as": "a"}),
        json.dumps({"step": "op", "kind": "pick", "arg": "people", "index": 1, "as": "b"}),
        json.dumps({"step": "op", "kind": "add", "a": "a", "b": "b", "as": "apb"}),
        json.dumps({"step": "op", "kind": "sub", "a": "apb", "b": "b", "as": "back"}),
        json.dumps({"step": "op", "kind": "mul", "a": "a", "b": "b", "as": "ab"}),
        json.dumps({"step": "op", "kind": "pow", "arg": "a", "k": 2, "as": "a2"}),
        json.dumps({"step": "op", "kind": "neg", "arg": "a2", "as": "na2"}),
        json.dumps({"step": "op", "kind": "shift", "arg": "na2", "c": 1.5, "as": "sh"}),
        json.dumps({"step": "op", "kind": "product", "arg": "people", "as": "prod"}),
        json.dumps({"step": "budget", "entity": "u001", "as": "check"}),
    ])
    report = run_script(path, live, "ka")
    assert report.ok, [r.detail for r in report.steps if not r.ok]
    assert report.bindings["check"] == 2.0


def test_expectation_mismatch_fails_with_line(tmp_path, live):
    path = write_script(tmp_path, [
        json.dumps({"step": "load", "dataset": "ages", "as": "people"}),
        json.dumps({"step": "op", "kind": "sum", "arg": "people", "as": "total"}),
        # the raw sum at sigma 5 cannot pass; expecting success must fail the run
        json.dumps({"step": "publish", "target": "total", "sigma": 5.0, "expect": "pass"}),
        json.dumps({"step": "budget", "as": "never_reached"}),
    ])
    report = run_script(path, live, "ka")
    assert not report.ok
    last = report.steps[-1]
    assert not last.ok and "line 3" in last.detail
    assert len(report.steps) == 3  # stopped at the failure
    assert "never_reached" not in report.bindings


def test_expect_reject_inverts(tmp_path, live):
    path = write_script(tmp_path, [
        json.dumps({"step": "load", "dataset": "ages", "as": "people"}),
        json.dumps({"step": "op", "kind": "sum", "arg": "people", "as": "total"}),
        json.dumps({"step": "expect_reject", "target": "total", "sigma": 5.0}),
        json.dumps({"step": "op", "kind": "scale", "arg": "total", "c": 0.01, "as": "mean"}),
        json.dumps({"step": "expect_reject", "target": "mean", "sigma": 5.0}),
    ])
    report = run_script(path, live, "ka")
    assert not report.ok                       # the mean would have passed
    assert report.steps[2].ok                  # the sum rejection matched
    assert "line 5" in report.steps[-1].detail


def test_budget_trajectory_notes_each_passed_release_step(tmp_path, live):
    path = write_script(tmp_path, [
        json.dumps({"step": "load", "dataset": "ages", "as": "people"}),
        json.dumps({"step": "op", "kind": "sum", "arg": "people", "as": "total"}),
        json.dumps({"step": "op", "kind": "scale", "arg": "total", "c": 0.01, "as": "mean"}),
        json.dumps({"step": "simulate", "target": "total", "sigma": 5.0, "expect": "reject"}),
        json.dumps({"step": "expect_reject", "target": "total", "sigma": 5.0}),
        json.dumps({"step": "connect", "as": "second", "key_env": "OTHER_KEY"}),
        json.dumps({"step": "load", "session": "second", "dataset": "ages", "as": "theirs"}),
        json.dumps({"step": "op", "session": "second", "kind": "sum", "arg": "theirs", "as": "t2"}),
        json.dumps({"step": "op", "session": "second", "kind": "scale", "arg": "t2", "c": 0.01, "as": "m2"}),
        json.dumps({"step": "publish", "session": "second", "target": "m2", "sigma": 5.0}),
        json.dumps({"step": "simulate", "target": "mean", "sigma": 5.0, "expect": "reject"}),
    ])
    report = run_script(path, live, "ka", env={"OTHER_KEY": "kb"})
    assert not report.ok and "line 11" in report.steps[-1].detail
    # one entry per simulate, publish or expect_reject step that passed, none for the failed one
    trajectory = report.budget_trajectory
    assert [(t["line"], t["session"]) for t in trajectory] == [
        (4, "main"), (5, "main"), (10, "second")]
    assert trajectory[0]["min_remaining"] == trajectory[1]["min_remaining"] == 2.0
    assert trajectory[2]["min_remaining"] < 2.0


def test_rebinding_a_name_releases_the_old_handle_on_the_next_step(tmp_path, live, monkeypatch):
    from pscalar import client

    sent = []
    call = client.Session._call

    def spy(self, op, **fields):
        sent.append((op, list(self._release or [])))
        return call(self, op, **fields)

    monkeypatch.setattr(client.Session, "_call", spy)
    path = write_script(tmp_path, [
        json.dumps({"step": "load", "dataset": "ages", "as": "ages"}),
        json.dumps({"step": "op", "kind": "sum", "arg": "ages", "as": "t"}),
        json.dumps({"step": "op", "kind": "scale", "arg": "t", "c": 0.01, "as": "t"}),
        json.dumps({"step": "budget", "entity": "min"}),
    ])
    report = run_script(path, live, "ka")
    assert report.ok
    ops = [op for op, _ in sent]
    assert ops == ["auth", "get_roots", "fold", "unop", "remaining_budget"]
    # the sum was let go when "t" was rebound; it went out with the budget step
    assert [len(release) for _, release in sent] == [0, 0, 0, 0, 1]


def test_simulation_steps_and_assert_equal(tmp_path, live):
    path = write_script(tmp_path, [
        json.dumps({"step": "load", "dataset": "ages", "as": "people"}),
        json.dumps({"step": "op", "kind": "sum", "arg": "people", "as": "total"}),
        json.dumps({"step": "op", "kind": "scale", "arg": "total", "c": 0.01, "as": "mean"}),
        json.dumps({"step": "budget", "as": "pre"}),
        json.dumps({"step": "fork_sim"}),
        json.dumps({"step": "simulate", "target": "total", "sigma": 5.0, "expect": "reject"}),
        json.dumps({"step": "simulate", "target": "mean", "sigma": 5.0, "expect": "pass"}),
        json.dumps({"step": "assert_budget", "equals": "pre"}),
        json.dumps({"step": "budget", "entity": "*", "as": "map"}),
    ])
    report = run_script(path, live, "ka")
    assert report.ok, [r.detail for r in report.steps if not r.ok]
    assert set(report.bindings["map"]) == {f"u{i:03d}" for i in range(1, 101)}


def test_unknown_constructs_fail_cleanly(tmp_path, live):
    for lines, fragment in [
        ([json.dumps({"step": "warp"})], "unknown step"),
        ([json.dumps({"step": "op", "kind": "sum", "arg": "nope", "as": "x"})], "nope"),
        ([json.dumps({"step": "publish", "target": "ghost", "sigma": 1.0})], "ghost"),
        ([json.dumps({"step": "connect", "as": "x", "key_env": "PSCALAR_NO_SUCH_VAR"})],
         "PSCALAR_NO_SUCH_VAR"),
    ]:
        report = run_script(write_script(tmp_path, lines), live, "ka")
        assert not report.ok
        assert fragment in report.steps[-1].detail


def test_number_fields_take_json_numbers_and_no_booleans(tmp_path, live):
    # int() and float() would read 2.5 as 2, true as 1 and 0.9 as 0, all reported ok
    head = [
        json.dumps({"step": "load", "dataset": "ages", "as": "people"}),
        json.dumps({"step": "op", "kind": "pick", "arg": "people", "index": 1, "as": "a"}),
    ]
    pick = {"step": "op", "kind": "pick", "arg": "people", "as": "x"}
    pow_ = {"step": "op", "kind": "pow", "arg": "a", "as": "x"}
    scale = {"step": "op", "kind": "scale", "arg": "a", "as": "x"}
    for step, field in [
        (dict(pow_, k=2.5), "'k'"), (dict(pow_, k=True), "'k'"), (dict(pow_, k="2"), "'k'"),
        (dict(pick, index=0.9), "'index'"), (dict(pick, index=False), "'index'"),
        (dict(scale, c=True), "'c'"), (dict(scale, c="0.5"), "'c'"),
        ({"step": "simulate", "target": "a", "sigma": True}, "'sigma'"),
        ({"step": "publish", "target": "a", "sigma": "5"}, "'sigma'"),
        ({"step": "assert_budget", "at_least": True}, "'at_least'"),
        ({"step": "assert_budget", "at_most": [2]}, "'at_most'"),
    ]:
        report = run_script(write_script(tmp_path, [*head, json.dumps(step)]), live, "ka")
        assert not report.ok and len(report.steps) == 3, step
        assert report.steps[-1].detail.startswith(f"line 3: {field} must be"), step
    # the numbers themselves still pass, an int where a float is meant included
    ok = [dict(pow_, k=2), dict(pick, index=0), dict(scale, c=1),
          {"step": "simulate", "target": "a", "sigma": 500, "expect": "pass"},
          {"step": "assert_budget", "at_least": 2, "at_most": 2.0}]
    report = run_script(write_script(tmp_path, [*head, *map(json.dumps, ok)]), live, "ka")
    assert report.ok, [r.detail for r in report.steps if not r.ok]


def test_multi_session_script(tmp_path, live):
    path = write_script(tmp_path, [
        json.dumps({"step": "load", "dataset": "ages", "as": "mine"}),
        json.dumps({"step": "connect", "as": "second", "key_env": "OTHER_KEY"}),
        json.dumps({"step": "load", "session": "second", "dataset": "ages", "as": "theirs"}),
        json.dumps({"step": "op", "session": "second", "kind": "sum", "arg": "theirs", "as": "t2"}),
        json.dumps({"step": "op", "session": "second", "kind": "scale", "arg": "t2", "c": 0.01, "as": "m2"}),
        json.dumps({"step": "publish", "session": "second", "target": "m2", "sigma": 5.0}),
        json.dumps({"step": "budget", "session": "second", "as": "bob_left"}),
        json.dumps({"step": "budget", "as": "alice_left"}),
    ])
    report = run_script(path, live, "ka", env={"OTHER_KEY": "kb"})
    assert report.ok, [r.detail for r in report.steps if not r.ok]
    # per-user ledgers: bob paid, alice did not
    assert report.bindings["bob_left"] < 2.0
    assert report.bindings["alice_left"] == 2.0


def test_binary_op_step_sends_only_its_own_kind(tmp_path):
    # t*t of a 700-entity sum would be over the term cap; add must not build it
    node = Node(NodeConfig(eps_cap=2.0, delta=1e-6, seed=3))
    csv = tmp_path / "wide.csv"
    csv.write_text(
        "entity,value,floor,ceiling\n" + "".join(f"w{i},{i % 9},0,10\n" for i in range(700)),
        encoding="utf-8",
    )
    node.ingest(csv)
    node.add_user("alice", key="ka")
    server = start_server(node)
    host, port = server.address
    try:
        before = len(node.store._objects)
        path = write_script(tmp_path, [
            json.dumps({"step": "load", "dataset": "wide", "as": "rows"}),
            json.dumps({"step": "op", "kind": "sum", "arg": "rows", "as": "t"}),
            json.dumps({"step": "op", "kind": "add", "a": "t", "b": "t", "as": "twice"}),
        ])
        report = run_script(path, f"{host}:{port}", "ka")
        assert report.ok, [r.detail for r in report.steps if not r.ok]
        assert len(node.store._objects) == before + 2  # the sum and the add
    finally:
        server.shutdown()
        server.server_close()
        node.close()


# (script, datasets, node options) as each demo's header comment says to serve it
DEMOS = [
    ("demo_mean.script", ["ages.csv"], {"eps_cap": 2.0}),
    ("demo_simulation.script", ["ages.csv"], {"eps_cap": 2.0}),
    ("demo_overlap.script", ["hospital1.csv", "hospital2.csv"],
     {"eps_cap": 3.0, "shared_ledger": True}),
]


@pytest.mark.parametrize("script, datasets, options", DEMOS, ids=[d[0] for d in DEMOS])
def test_bundled_demo_runs(tmp_path, script, datasets, options):
    node = Node(NodeConfig(delta=1e-6, journal_dir=tmp_path / "n", seed=5, **options))
    for name in datasets:
        node.ingest(demos.path(name))
    node.add_user("alice", key="ka")
    node.add_user("bob", key="kb")
    server = start_server(node)
    host, port = server.address
    try:
        report = run_script(demos.path(script), f"{host}:{port}", "ka",
                            env={"PSCALAR_KEY_BOB": "kb"})
        assert report.ok, [r.detail for r in report.steps if not r.ok]
    finally:
        server.shutdown()
        server.server_close()
        node.close()


def test_every_bundled_demo_is_run():
    assert {d[0] for d in DEMOS} == {n for n in demos.names() if n.endswith(".script")}
