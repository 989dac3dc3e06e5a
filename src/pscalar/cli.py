"""Command-line entry points for the node operator and the analyst client."""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from .node import (
    Node,
    NodeConfig,
    NodeTCPServer,
    load_users_file,
    read_audit,
    users_add,
)

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
# Each client command imports the analyst-side modules it runs on, so that
# starting a node never loads them.


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
    from .script import run_script

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


def _cmd_repl(args) -> int:
    from .client import ClientError, Session
    from .script import _Repl, _Runner

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
    from . import demos

    for name in demos.copy_all(args.out):
        print(name)
    return 0


def client_main(argv: list[str] | None = None) -> int:
    from .client import ClientError
    from .script import ScriptError

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
