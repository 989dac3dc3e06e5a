"""Scenario scripts: JSON-lines programs a client runs against a node.

Each line is one step object.  Step kinds:

- ``{"step": "load", "dataset": NAME, "as": BIND}`` - bind the dataset roots.
- ``{"step": "op", "kind": K, ...}`` - arithmetic; kinds: ``sum``/``product``
  (over ``arg`` list binding), ``add``/``sub``/``mul`` (over ``a``/``b``),
  ``scale``/``shift`` (``arg`` + ``c``), ``pow`` (``arg`` + ``k``), ``neg``
  (``arg``), ``pick`` (``arg`` + ``index``).  Result bound to ``as``.
- ``{"step": "simulate", "target": B, "sigma": S, "expect": "pass"|"reject"}``
- ``{"step": "publish", "target": B, "sigma": S, "as": BIND?, "expect": ...}``
- ``{"step": "expect_reject", "target": B, "sigma": S}`` - publish that must
  be refused for budget reasons.
- ``{"step": "budget", "entity": E|"min"|"*", "as": BIND}`` - snapshot.
- ``{"step": "assert_budget", ...}`` - either ``{"equals": BIND}`` against a
  snapshot, or ``{"entity": E, "at_least": X}`` / ``{"at_most": X}``.
- ``{"step": "fork_sim"}`` - reset the simulated ledger fork.
- ``{"step": "connect", "as": NAME, "key_env": ENVVAR}`` - open a second
  session (api key read from the environment).

Number fields take JSON numbers and no booleans: ``k`` and ``index`` an
integer, ``c``, ``sigma``, ``at_least`` and ``at_most`` any number.

Any step may carry ``"session": NAME`` to run on a session opened by a
``connect`` step; the default session is ``"main"``.  The REPL's lines
(``_Repl``) are the same steps as words.
"""

from __future__ import annotations

import json
import os
import shlex
from dataclasses import dataclass, field
from pathlib import Path

from .client import ClientError, PublishRejectedError, RemoteScalar, Session
from .scalar import BINARY_OPS


class ScriptError(ClientError):
    """A scenario script is malformed or an expectation failed."""


@dataclass
class StepResult:
    index: int
    kind: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"step {self.index:3d} {'ok  ' if self.ok else 'FAIL'} {self.kind:14s} {self.detail}"


@dataclass
class ScriptReport:
    ok: bool
    steps: list[StepResult] = field(default_factory=list)
    budget_trajectory: list[dict] = field(default_factory=list)
    bindings: dict = field(default_factory=dict)


def parse_script(path: str | Path) -> list[dict]:
    steps = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            step = json.loads(line)
        except ValueError as exc:
            raise ScriptError(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(step, dict) or "step" not in step:
            raise ScriptError(f"line {lineno}: each step must be an object with a 'step' key")
        step["_line"] = lineno
        steps.append(step)
    if not steps:
        raise ScriptError(f"{path}: empty script")
    return steps


# steps after which a script's report notes the session's least remaining budget
_BUDGET_NOTED = ("simulate", "publish", "expect_reject")
# what a failed step raises, in a script run and at the REPL prompt alike
_STEP_FAILURES = (ClientError, KeyError, IndexError, TypeError, ValueError)


# the number fields of steps, and the type each is read as
_NUMBER_FIELDS = {"k": int, "index": int, "c": float, "sigma": float, "at_least": float,
                  "at_most": float}


def _number(step: dict, name: str):
    """``step[name]`` as its field's type: an int for an int field, a bool never."""
    kind, value = _NUMBER_FIELDS[name], step[name]
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ScriptError(f"{name!r} must be {what}, got {value!r}")
    return kind(value)


class _Runner:
    """Runs step dicts on an open session, the ``main`` one."""

    def __init__(self, session: Session, addr: str, env: dict):
        self.addr = addr
        self.env = env
        self.sessions: dict[str, Session] = {"main": session}
        self.bindings: dict[str, object] = {}
        self.report = ScriptReport(ok=True)

    def close(self):
        for s in self.sessions.values():
            try:
                s.close()
            except Exception:
                pass

    def session_for(self, step: dict) -> Session:
        name = step.get("session", "main")
        if name not in self.sessions:
            raise ScriptError(f"unknown session {name!r}")
        return self.sessions[name]

    def binding(self, name: str):
        if name not in self.bindings:
            raise ScriptError(f"unknown binding {name!r}")
        return self.bindings[name]

    def scalar_binding(self, name: str) -> RemoteScalar:
        val = self.binding(name)
        if not isinstance(val, RemoteScalar):
            raise ScriptError(f"binding {name!r} is not a scalar")
        return val

    # -- steps ----------------------------------------------------------------

    def run_step(self, step: dict) -> str:
        kind = step["step"]
        handler = getattr(self, f"step_{kind}", None)
        if handler is None:
            raise ScriptError(f"unknown step kind {kind!r}")
        return handler(step)

    def step_connect(self, step: dict) -> str:
        name = step.get("as")
        env_var = step.get("key_env")
        if not name or not env_var:
            raise ScriptError("connect needs 'as' and 'key_env'")
        key = self.env.get(env_var)
        if not key:
            raise ScriptError(f"environment variable {env_var} is not set")
        self.sessions[name] = Session.connect(self.addr, key)
        return f"session {name} as user {self.sessions[name].user}"

    def step_load(self, step: dict) -> str:
        session = self.session_for(step)
        dataset = step.get("dataset")
        bind = step.get("as")
        if not dataset or not bind:
            raise ScriptError("load needs 'dataset' and 'as'")
        roots = session.roots(dataset)
        self.bindings[bind] = roots
        return f"{bind} = {len(roots)} roots of {dataset}"

    def step_op(self, step: dict) -> str:
        session = self.session_for(step)
        kind = step.get("kind")
        bind = step.get("as")
        if not kind or not bind:
            raise ScriptError("op needs 'kind' and 'as'")
        if kind in ("sum", "product", "pick"):
            arg = self.binding(step["arg"])
            if not isinstance(arg, list):
                raise ScriptError(f"op {kind} needs a list binding")
            if kind == "pick":
                result = arg[_number(step, "index")]
            else:
                result = (session.sum_of if kind == "sum" else session.product_of)(arg)
        elif kind in BINARY_OPS:
            a, b = self.scalar_binding(step["a"]), self.scalar_binding(step["b"])
            result = BINARY_OPS[kind](a, b)
        elif kind in ("scale", "shift"):
            result = getattr(self.scalar_binding(step["arg"]), kind)(_number(step, "c"))
        elif kind == "pow":
            result = self.scalar_binding(step["arg"]) ** _number(step, "k")
        elif kind == "neg":
            result = -self.scalar_binding(step["arg"])
        else:
            raise ScriptError(f"unknown op kind {kind!r}")
        self.bindings[bind] = result
        if isinstance(result, RemoteScalar):
            return f"{bind} = {kind} (degree {result.degree}, {result.entities} entities)"
        return f"{bind} = {kind}"

    def _note_budget(self, step: dict):
        self.report.budget_trajectory.append(
            {
                "line": step.get("_line"),
                "session": step.get("session", "main"),
                "min_remaining": self.session_for(step).remaining_budget("min"),
            }
        )

    def step_simulate(self, step: dict) -> str:
        session = self.session_for(step)
        target = self.scalar_binding(step["target"])
        sigma = _number(step, "sigma")
        result = session.simulate(target, sigma)
        expect = step.get("expect")
        if expect == "pass" and not result.passed:
            raise ScriptError(f"simulation was rejected: {result.rejection}")
        if expect == "reject" and result.passed:
            raise ScriptError("simulation passed but a rejection was expected")
        verdict = "pass" if result.passed else f"reject {result.rejection}"
        return f"simulate sigma={sigma}: {verdict}"

    def step_publish(self, step: dict) -> str:
        session = self.session_for(step)
        target = self.scalar_binding(step["target"])
        sigma = _number(step, "sigma")
        expect = step.get("expect", "pass")
        try:
            result = session.publish(target, sigma)
        except PublishRejectedError as exc:
            if expect != "reject":
                raise ScriptError(
                    f"publish rejected for entities {exc.entities}"
                    f" projected {exc.projected_eps}"
                ) from exc
            return f"publish sigma={sigma}: rejected as expected ({len(exc.entities)} entities)"
        if expect == "reject":
            raise ScriptError("publish passed but a rejection was expected")
        if step.get("as"):
            self.bindings[step["as"]] = result.value
        return f"publish sigma={sigma}: value {result.value:.6g} ({result.publish_id})"

    def step_expect_reject(self, step: dict) -> str:
        return self.step_publish(dict(step, expect="reject"))

    def step_budget(self, step: dict) -> str:
        session = self.session_for(step)
        entity = step.get("entity", "min")
        bind = step.get("as")
        value = session.remaining_budget(entity)
        if bind:
            self.bindings[bind] = value
        if isinstance(value, dict):
            worst = min(value.values()) if value else None
            return f"budget {entity}: {len(value)} entities, min {worst}"
        return f"budget {entity}: {value:.6g}"

    def step_assert_budget(self, step: dict) -> str:
        session = self.session_for(step)
        if "equals" in step:
            expected = self.binding(step["equals"])
            entity = step.get("entity", "*" if isinstance(expected, dict) else "min")
            current = session.remaining_budget(entity)
            if current != expected:
                raise ScriptError(
                    f"budget changed: expected {expected!r}, found {current!r}"
                )
            return f"budget unchanged ({entity})"
        entity = step.get("entity", "min")
        current = session.remaining_budget(entity)
        if not isinstance(current, (int, float)):
            raise ScriptError("assert_budget bounds need a single-entity or 'min' query")
        if "at_least" in step and current < _number(step, "at_least"):
            raise ScriptError(f"budget {current} below expected minimum {step['at_least']}")
        if "at_most" in step and current > _number(step, "at_most"):
            raise ScriptError(f"budget {current} above expected maximum {step['at_most']}")
        return f"budget {entity}: {current:.6g} within bounds"

    def step_fork_sim(self, step: dict) -> str:
        self.session_for(step).fork_sim()
        return "simulated ledger forked"


# let NAME = KIND ARGS...: the op step fields that each kind's words fill, in order
_LET_FIELDS = {
    **dict.fromkeys(BINARY_OPS, ("a", "b")),
    **dict.fromkeys(("sum", "product", "neg"), ("arg",)),
    **dict.fromkeys(("scale", "shift"), ("arg", "c")),
    "pow": ("arg", "k"),
    "pick": ("arg", "index"),
}
# other step words: the step kind and the fields their words fill, in order
_STEP_WORDS = {
    "simulate": ("simulate", ("target", "sigma")),
    "publish": ("publish", ("target", "sigma")),
    "budget": ("budget", ("entity",)),
    "fork": ("fork_sim", ()),
}


def _fields(names: tuple, words: list[str]) -> dict:
    """Step fields from REPL words, a number field's word read by int() or float()."""
    return {name: _NUMBER_FIELDS.get(name, str)(word) for name, word in zip(names, words)}


def _repl_step(cmd: str, rest: list[str]) -> dict:
    """The script step that a REPL line stands for."""
    if cmd == "load":  # load DATASET as NAME
        if len(rest) != 3 or rest[1] != "as":
            raise ScriptError("usage: load DATASET as NAME")
        return {"step": "load", "dataset": rest[0], "as": rest[2]}
    if cmd == "let":  # let NAME = KIND ARGS...
        if len(rest) < 3 or rest[1] != "=":
            raise ScriptError("usage: let NAME = KIND ARGS...")
        kind = rest[2]
        return {"step": "op", "kind": kind, "as": rest[0],
                **_fields(_LET_FIELDS.get(kind, ()), rest[3:])}
    if cmd in _STEP_WORDS:
        kind, fields = _STEP_WORDS[cmd]
        return {"step": kind, **_fields(fields, rest)}
    raise ScriptError(
        f"unknown command {cmd!r} "
        "(try: datasets load let describe simulate publish budget fork quit)"
    )


class _Repl:
    """Line syntax over the script runner: most lines are one script step."""

    def __init__(self, runner: _Runner):
        self.runner = runner

    def handle(self, line: str) -> str | None:
        words = shlex.split(line)
        if not words:
            return None
        cmd, rest = words[0], words[1:]
        if cmd in ("quit", "exit"):
            raise EOFError
        session = self.runner.sessions["main"]
        if cmd == "datasets":
            return "\n".join(f"{d['name']} ({d['rows']} rows)" for d in session.datasets)
        if cmd == "describe":
            return json.dumps(session.describe(self.runner.scalar_binding(rest[0])), indent=2)
        return self.runner.run_step(_repl_step(cmd, rest))


def run_script(
    path: str | Path,
    addr: str,
    key: str,
    *,
    env: dict | None = None,
    echo=None,
) -> ScriptReport:
    """Execute a scenario script; stops at the first failing step.

    The report lists one result per executed step plus the remaining-budget
    trajectory observed after every simulate/publish.  ``echo`` (if given)
    receives one line per step as it completes.
    """
    steps = parse_script(path)
    runner = _Runner(Session.connect(addr, key), addr, dict(os.environ if env is None else env))
    report = runner.report
    try:
        for index, step in enumerate(steps, 1):
            kind = step["step"]
            try:
                detail = runner.run_step(step)
                if kind in _BUDGET_NOTED:
                    runner._note_budget(step)
            except _STEP_FAILURES as exc:
                detail = f"line {step['_line']}: {exc}"
                report.ok = False
            report.steps.append(StepResult(index, kind, report.ok, detail))
            if echo:
                echo(report.steps[-1])
            if not report.ok:
                break
    finally:
        report.bindings = {
            k: v for k, v in runner.bindings.items() if isinstance(v, (int, float, dict))
        }
        runner.close()
    return report
