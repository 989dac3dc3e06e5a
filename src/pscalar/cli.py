"""Command-line entry points for the node operator and the analyst client."""

from __future__ import annotations

import argparse
import json
import os
import shlex
import signal
import sys

from . import demos
from .client import ClientError, Session
from .node import (
    Node,
    NodeConfig,
    NodeTCPServer,
    load_users_file,
    read_audit,
    users_add,
)
from .script import ScriptError, _Runner, run_script

KEY_ENV_VAR = "PSCALAR_API_KEY"


# -- node ---------------------------------------------------------------------


def _node_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pscalar-node", description="Run and administer a data-owner node."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve datasets over TCP")
    serve.add_argument(
        "--data",
        action="append",
        required=True,
        metavar="CSV[:NAME]",
        help="dataset file (header entity,value,floor,ceiling); repeatable",
    )
    serve.add_argument("--port", type=int, required=True, help="TCP port (0 picks one)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--eps", type=float, required=True, help="per-entity epsilon cap")
    serve.add_argument("--delta", type=float, required=True, help="delta for conversion")
    serve.add_argument(
        "--shared-ledger",
        action="store_true",
        help="one global per-entity ledger instead of one per user",
    )
    serve.add_argument("--journal", metavar="DIR", help="state directory (journals, users, audit)")
    serve.add_argument("--seed", type=int, help="noise seed for reproducible runs")
    serve.add_argument(
        "--user",
        action="append",
        default=[],
        metavar="NAME:KEY",
        help="ephemeral account (not persisted); for demos and tests",
    )

    users = sub.add_parser("users", help="manage the persistent user registry")
    users_sub = users.add_subparsers(dest="users_command", required=True)
    add = users_sub.add_parser("add", help="register a user and print the api key")
    add.add_argument("--name", required=True)
    add.add_argument("--journal", required=True, metavar="DIR")
    lst = users_sub.add_parser("list", help="list registered users")
    lst.add_argument("--journal", required=True, metavar="DIR")

    audit = sub.add_parser("audit", help="print request history and cumulative spends")
    audit.add_argument("--journal", required=True, metavar="DIR")
    audit.add_argument("--json", action="store_true", help="raw JSON output")
    return parser


def _cmd_serve(args) -> int:
    config = NodeConfig(
        eps_cap=args.eps,
        delta=args.delta,
        shared_ledger=args.shared_ledger,
        journal_dir=args.journal,
        seed=args.seed,
    )
    node = Node(config)
    for spec in args.data:
        path, _, name = spec.partition(":")
        node.ingest(path, name or None)
    for spec in args.user:
        name, sep, key = spec.partition(":")
        if not sep or not name or not key:
            print(f"--user must look like NAME:KEY, got {spec!r}", file=sys.stderr)
            return 2
        node.add_user(name, key)
    if not node.user_names():
        print(
            "warning: no users registered; run 'pscalar-node users add' first",
            file=sys.stderr,
        )
    server = NodeTCPServer(node, args.host, args.port)
    try:
        # A node started in the background inherits SIGINT ignored, so restore
        # the default; inside the try, so that an interrupt right after the
        # banner still stops the node cleanly.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        host, port = server.address
        print(f"pscalar-node listening on {host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        node.close()
    return 0


def _cmd_users(args) -> int:
    if args.users_command == "add":
        key = users_add(args.journal, args.name)
        print(key)
        return 0
    for record in load_users_file(args.journal):
        print(record["name"])
    return 0


def _cmd_audit(args) -> int:
    dump = read_audit(args.journal)
    events, cumulative = dump["events"], dump["cumulative"]
    if args.json:
        print(json.dumps(dump, indent=2, sort_keys=True))
        return 0
    print(f"{len(events)} audited requests")
    for event in events:
        status = "ok" if event.get("ok") else f"err:{event.get('code')}"
        extras = ""
        if event.get("publish_id"):
            extras = f" publish={event['publish_id']} sigma={event['sigma']}"
        if event.get("rejected_entities"):
            extras += f" rejected={','.join(event['rejected_entities'])}"
        print(f"  {event.get('ts')} {event.get('user')} {event.get('op')} {status}{extras}")
    for scope in sorted(cumulative):
        print(f"ledger {scope}:")
        for entity, rho in sorted(cumulative[scope].items()):
            print(f"  {entity}\trho={rho:.17g}")
    return 0


def _broken_pipe_exit() -> int:
    # downstream closed early (e.g. piped into head): silence the interpreter's
    # shutdown flush by pointing stdout at devnull, exit like a killed pipe
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    return 1


def _finish(rc: int) -> int:
    # buffered output can hit a closed pipe only at flush time; force that
    # here where it can be handled instead of at interpreter shutdown
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        return _broken_pipe_exit()
    return rc


def node_main(argv: list[str] | None = None) -> int:
    args = _node_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _finish(_cmd_serve(args))
        if args.command == "users":
            return _finish(_cmd_users(args))
        if args.command == "audit":
            return _finish(_cmd_audit(args))
    except BrokenPipeError:
        return _broken_pipe_exit()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover


# -- client -------------------------------------------------------------------


def _client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pscalar-client", description="Talk to a data-owner node."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario script")
    run.add_argument("script", help="JSON-lines scenario file")
    run.add_argument("--addr", required=True, metavar="HOST:PORT")
    run.add_argument("--key", help=f"api key (default: ${KEY_ENV_VAR})")

    repl = sub.add_parser("repl", help="interactive line-oriented session")
    repl.add_argument("--addr", required=True, metavar="HOST:PORT")
    repl.add_argument("--key", help=f"api key (default: ${KEY_ENV_VAR})")

    demo = sub.add_parser("demos", help="copy the bundled demo files somewhere")
    demo.add_argument("--out", required=True, metavar="DIR")
    return parser


def _resolve_key(args) -> str | None:
    return args.key or os.environ.get(KEY_ENV_VAR)


def _cmd_run(args) -> int:
    key = _resolve_key(args)
    if not key:
        print(f"no api key: pass --key or set ${KEY_ENV_VAR}", file=sys.stderr)
        return 2
    report = run_script(
        args.script,
        args.addr,
        key,
        echo=lambda r: print(r, flush=True),
    )
    print("report:", json.dumps(
        {
            "ok": report.ok,
            "steps": len(report.steps),
            "budget_trajectory": report.budget_trajectory,
            "bindings": report.bindings,
        },
        sort_keys=True,
    ))
    return 0 if report.ok else 1


# let NAME = KIND ARGS...: the op step fields that each kind's words fill, in order
_LET_FIELDS = {
    **dict.fromkeys(("add", "sub", "mul"), ("a", "b")),
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
                **dict(zip(_LET_FIELDS.get(kind, ()), rest[3:]))}
    if cmd in _STEP_WORDS:
        kind, fields = _STEP_WORDS[cmd]
        return {"step": kind, **dict(zip(fields, rest))}
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


def _cmd_repl(args) -> int:
    key = _resolve_key(args)
    if not key:
        print(f"no api key: pass --key or set ${KEY_ENV_VAR}", file=sys.stderr)
        return 2
    with Session.connect(args.addr, key) as session:
        print(f"connected as {session.user}; 'quit' to leave")
        repl = _Repl(_Runner(session, args.addr, {}))
        while True:
            try:
                line = input("pscalar> ")
            except EOFError:
                print()
                return 0
            try:
                out = repl.handle(line)
            except EOFError:
                return 0
            except (ClientError, ValueError, IndexError, KeyError, TypeError) as exc:
                out = f"error: {exc}"
            if out:
                print(out)


def _cmd_demos(args) -> int:
    for name in demos.copy_all(args.out):
        print(name)
    return 0


def client_main(argv: list[str] | None = None) -> int:
    args = _client_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _finish(_cmd_run(args))
        if args.command == "repl":
            return _finish(_cmd_repl(args))
        if args.command == "demos":
            return _finish(_cmd_demos(args))
    except ScriptError as exc:
        print(f"script error: {exc}", file=sys.stderr)
        return 1
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return _broken_pipe_exit()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    """Combined entry: ``python -m pscalar node ...`` or ``... client ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("node", "client"):
        print("usage: python -m pscalar {node|client} ...", file=sys.stderr)
        return 2
    role, rest = argv[0], argv[1:]
    return node_main(rest) if role == "node" else client_main(rest)
