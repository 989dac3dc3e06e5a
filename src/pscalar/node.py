"""Data-owner node: dataset ingestion, remote handles, budget-gated publishing.

The node holds the clipped inputs and all derived private scalars.  Remote
sessions only ever see opaque handles, public metadata, spend totals, and
noisy released values; every outbound message is structurally scanned
against private-value leakage.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import operator
import os
import re
import socket
import socketserver
import threading
from json.encoder import c_encode_basestring_ascii
from pathlib import Path

from .accounting import (
    JOURNAL_UNSAFE,
    BudgetPolicy,
    PrivacyLedger,
    _now_iso,
    _write_all,
    remaining_budget,
)
from .mechanism import BudgetRejected, GaussianNoiseSource, publish, simulate_publish
from .poly import Polynomial, PolynomialError, TermLimitError, VarId, _SlotsRecord, _tuple_record
from .scalar import (
    EntityInput,
    MetadataConflictError,
    PrivateScalar,
    UnsupportedOperationError,
    sum_scalars,
)
from .wire import (
    assert_no_private_leakage,
    decode,
    encode,
    json_line,
    receipt_wire,
    rejection_wire,
    scalar_summary,
    spend_wire,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
_BINOPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}

USERS_FILE = "users.json"
AUDIT_FILE = "audit.jsonl"

#: Most bytes one request line may hold, newline included; a 10^5-handle
#: ``fold`` takes about 1.1 MB.
MAX_REQUEST_BYTES = 16 * 2**20


class IngestError(ValueError):
    """A dataset file could not be loaded; messages carry line numbers."""


class NodeError(Exception):
    """Request-level failure that maps to a wire error code."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class Dataset(_tuple_record("Dataset", "name rows")):
    """A loaded CSV column: its name and a tuple of (entity, EntityInput) pairs."""

    __slots__ = ()


class NodeConfig(
    _tuple_record(
        "NodeConfig", "eps_cap delta shared_ledger journal_dir seed", defaults=(False, None, None)
    )
):
    """Budget policy, ledger scope, state directory (str, Path or None) and noise seed."""

    __slots__ = ()


class UserAccount(_tuple_record("UserAccount", "name key ledger")):
    __slots__ = ()


class StoredObject(_tuple_record("StoredObject", "scalar owner")):
    """A handle's scalar; owner None marks a dataset root, readable by any authenticated user."""

    __slots__ = ()


class NodeSession(_SlotsRecord):
    """Per-connection state: who is talking and their simulated fork.

    ``audit_head`` is the JSON text ``,"peer":…,"user":…,"op":`` that each of
    the session's audit lines carries after its timestamp; ``set_user`` keeps
    it in step with ``user``.
    """

    __slots__ = ("peer", "user", "sim", "audit_head")

    def __init__(
        self, peer: str = "", user: UserAccount | None = None, sim: PrivacyLedger | None = None
    ):
        self.peer, self.sim = peer, sim
        self.set_user(user)

    def set_user(self, user: UserAccount | None) -> None:
        name = "null" if user is None else c_encode_basestring_ascii(user.name)
        self.user = user
        self.audit_head = f',"peer":{c_encode_basestring_ascii(self.peer)},"user":{name},"op":'


class ObjectStore:
    """Handle -> scalar map; handles are never reused within a node lifetime."""

    def __init__(self):
        self._objects: dict[str, StoredObject] = {}
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def add(self, scalar: PrivateScalar, owner: str | None) -> str:
        with self._lock:
            handle = f"h{next(self._counter)}"
            self._objects[handle] = StoredObject(scalar, owner)
            return handle

    def get(self, handle: str, user: str) -> PrivateScalar:
        with self._lock:
            obj = self._objects.get(handle)
        if obj is None:
            raise NodeError("unknown_handle", f"no such handle {handle!r}")
        if obj.owner is not None and obj.owner != user:
            raise NodeError("forbidden", f"handle {handle!r} belongs to another session")
        return obj.scalar

    def drop(self, handles: list[str], user: str, *, skip_others: bool = False) -> int:
        """Forget each of ``handles`` that ``user`` derived; return how many went.

        A handle that is unknown, a dataset root or another user's raises
        NodeError, or with ``skip_others`` is passed over.
        """
        dropped = 0
        with self._lock:
            for handle in handles:
                obj = self._objects.get(handle)
                if obj is not None and obj.owner == user:
                    del self._objects[handle]
                    dropped += 1
                elif skip_others:
                    continue
                elif obj is None:
                    raise NodeError("unknown_handle", f"no such handle {handle!r}")
                elif obj.owner is None:
                    raise NodeError("forbidden", "dataset roots cannot be dropped")
                else:
                    raise NodeError("forbidden", f"handle {handle!r} belongs to another session")
        return dropped


def read_dataset_csv(path: str | Path, name: str | None = None) -> Dataset:
    """Load one dataset column from a CSV with header entity,value,floor,ceiling."""
    path = Path(path)
    name = name if name is not None else path.stem
    if not _NAME_RE.match(name):
        raise IngestError(f"bad dataset name {name!r}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    # a stream keeps each line's ending, so a quoted field may span lines;
    # line_num is then the physical line on which the record ends
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: list[tuple[str, EntityInput]] = []
    seen: dict[str, int] = {}
    header = None
    for record in reader:
        lineno = reader.line_num
        if not record or all(not cell.strip() for cell in record):
            continue
        if header is None:
            header = [cell.strip().lower() for cell in record]
            if header != ["entity", "value", "floor", "ceiling"]:
                raise IngestError(
                    f"{path}:{lineno}: header must be entity,value,floor,ceiling"
                )
            continue
        if len(record) != 4:
            raise IngestError(f"{path}:{lineno}: expected 4 fields, got {len(record)}")
        entity = record[0].strip()
        if not entity or JOURNAL_UNSAFE.search(entity):
            raise IngestError(f"{path}:{lineno}: bad entity identifier {record[0]!r}")
        if entity in ("*", "min"):  # remaining_budget's aggregate queries
            raise IngestError(f"{path}:{lineno}: entity identifier {entity!r} is reserved")
        if entity in seen:
            raise IngestError(
                f"{path}:{lineno}: duplicate entity {entity!r} (first at line {seen[entity]})"
            )
        seen[entity] = lineno
        try:
            value, floor, ceiling = (float(record[i]) for i in (1, 2, 3))
        except ValueError:
            raise IngestError(f"{path}:{lineno}: non-numeric value/floor/ceiling") from None
        try:
            rows.append((entity, EntityInput(value, floor, ceiling)))
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from None
    if header is None:
        raise IngestError(f"{path}: empty file")
    if not rows:
        raise IngestError(f"{path}: no data rows")
    return Dataset(name, tuple(rows))


# -- user registry persistence ----------------------------------------------------


def load_users_file(journal_dir: str | Path) -> list[dict]:
    path = Path(journal_dir) / USERS_FILE
    if not path.exists():
        return []
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list")
    return data


def users_add(journal_dir: str | Path, name: str) -> str:
    """Register a user offline and return the fresh api key."""
    if not _NAME_RE.match(name):
        raise ValueError(f"bad user name {name!r}")
    users = load_users_file(journal_dir)
    if any(u.get("name") == name for u in users):
        raise ValueError(f"user {name!r} already exists")
    key = os.urandom(16).hex()
    users.append({"name": name, "key": key})
    path = Path(journal_dir) / USERS_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(users, indent=2) + "\n", encoding="utf-8")
    tmp.replace(path)
    return key


def read_audit(journal_dir: str | Path) -> dict:
    """The owner's audit view of a state directory, read from its files alone.

    ``events`` holds the audit file's records, one per handled request, and
    ``cumulative`` each ledger's per-entity rho replayed from its journal,
    keyed by the journal's scope (``shared`` or ``user-<name>``).
    """
    journal = Path(journal_dir)
    audit_path = journal / AUDIT_FILE
    lines = audit_path.read_text(encoding="utf-8").splitlines() if audit_path.exists() else []
    return {
        "events": [json.loads(line) for line in lines if line.strip()],
        "cumulative": {
            path.stem.removeprefix("ledger-"): PrivacyLedger.replayed(path).cumulative
            for path in sorted(journal.glob("ledger-*.log"))
        },
    }


def _error(rid: int | None, code: str, detail: str) -> dict:
    return {"id": rid, "ok": False, "error": {"code": code, "detail": detail}}


# wire error code of each failure a request may raise, most specific first
_ERROR_CODES = (
    (TermLimitError, "term_limit"),
    (UnsupportedOperationError, "unsupported"),
    (MetadataConflictError, "conflict"),
    ((PolynomialError, ValueError), "bad_request"),
)


class Node:
    """All owner-side state plus the request dispatcher."""

    def __init__(self, config: NodeConfig):
        self.config = config
        self.policy = BudgetPolicy(config.eps_cap, config.delta)
        self.noise = GaussianNoiseSource(config.seed)
        self.journal_dir = Path(config.journal_dir) if config.journal_dir else None
        self.store = ObjectStore()
        # dataset -> its public root records; clipped values live only in the scalars
        self._roots: dict[str, list[dict]] = {}
        self._entities: set[str] = set()
        self._users: dict[str, UserAccount] = {}  # by api key
        self._users_lock = threading.Lock()
        self._ledgers: dict[str, PrivacyLedger] = {}  # by journal scope
        self._audit_lock = threading.Lock()
        self._audit_file = None
        try:  # a start that fails closes what it opened
            if self.journal_dir is not None:
                self.journal_dir.mkdir(parents=True, exist_ok=True)
                self._audit_file = open(self.journal_dir / AUDIT_FILE, "ab", buffering=0)
                for record in load_users_file(self.journal_dir):
                    self.add_user(str(record["name"]), str(record["key"]))
            if config.shared_ledger:
                self._ledger_for("")  # the one journal every account charges opens at start
        except BaseException:
            self.close()
            raise

    # -- administration -----------------------------------------------------------

    def _ledger_for(self, name: str) -> PrivacyLedger:
        """The ledger that user ``name`` charges: the shared one, or its own."""
        scope = "shared" if self.config.shared_ledger else f"user-{name}"
        if scope not in self._ledgers:
            path = self.journal_dir / f"ledger-{scope}.log" if self.journal_dir else None
            self._ledgers[scope] = PrivacyLedger(journal_path=path)
        return self._ledgers[scope]

    def add_user(self, name: str, key: str) -> None:
        """Register a user with its api key for this node's lifetime."""
        if not _NAME_RE.match(name):
            raise ValueError(f"bad user name {name!r}")
        with self._users_lock:
            if any(account.name == name for account in self._users.values()):
                raise ValueError(f"user {name!r} already exists")
            if key in self._users:
                raise ValueError(f"user {name!r} reuses the api key of another user")
            self._users[key] = UserAccount(name, key, self._ledger_for(name))

    def user_names(self) -> list[str]:
        with self._users_lock:
            return sorted(account.name for account in self._users.values())

    def ingest(self, path: str | Path, name: str | None = None) -> str:
        """Load a dataset column and mint one root scalar per row."""
        ds = read_dataset_csv(path, name)
        if ds.name in self._roots:
            raise IngestError(f"dataset {ds.name!r} already loaded")
        roots = []
        for entity, rec in ds.rows:
            var = VarId(entity, ds.name)
            handle = self.store.add(PrivateScalar(Polynomial.variable(var), {var: rec}), owner=None)
            roots.append(
                {"handle": handle, "entity": entity, "floor": rec.floor, "ceiling": rec.ceiling}
            )
        self._roots[ds.name] = roots
        self._entities.update(entity for entity, _ in ds.rows)
        return ds.name

    # -- audit ---------------------------------------------------------------------

    def _audit_event(self, session: NodeSession, op: object, resp: dict, released: int) -> None:
        """Append the request's audit line: one ``write(2)`` before the reply goes out.

        The bytes are ``json_line`` of ``{"ts", "peer", "user", "op", "ok"}``
        followed by whichever of ``code``, ``publish_id`` and ``sigma``,
        ``rejected_entities`` and ``released`` apply.  They are built from the
        session's cached head; the encoder runs only for the rare fields, and
        ``released``, which most requests of a left fold carry, is an int.
        """
        if self._audit_file is None:
            return
        ok = resp["ok"]
        rare = {}
        if not ok:
            rare["code"] = resp["error"]["code"]
        if resp.get("publish_id"):
            rare["publish_id"], rare["sigma"] = resp["publish_id"], resp["sigma"]
        if resp.get("rejection"):
            rare["rejected_entities"] = resp["rejection"]["entities"]
        line = "".join((
            '{"ts":"', _now_iso(), '"', session.audit_head,
            c_encode_basestring_ascii(op) if isinstance(op, str) else "null",
            ',"ok":true' if ok else ',"ok":false',
            "," + json_line(rare)[1:-2] if rare else "",
            f',"released":{released}}}\n' if released else "}\n",
        )).encode()
        with self._audit_lock:
            if self._audit_file is not None:
                _write_all(self._audit_file, line)

    def close(self) -> None:
        with self._audit_lock:
            if self._audit_file is not None:
                self._audit_file.close()
                self._audit_file = None
        for ledger in self._ledgers.values():
            ledger.close()

    # -- request dispatch -------------------------------------------------------------

    def handle_request(self, session: NodeSession, msg: dict) -> dict:
        rid = msg.get("id")
        rid = rid if isinstance(rid, int) and not isinstance(rid, bool) else None
        op = msg.get("op")
        released = 0
        try:
            if rid is None:
                raise NodeError("bad_request", "request id must be an integer")
            if not isinstance(op, str):
                raise NodeError("bad_request", "missing op")
            if op == "auth":
                payload = self._op_auth(session, msg)
            else:
                if session.user is None:
                    raise NodeError("auth_required", "authenticate first")
                # handles the client let go of, forgotten after the op whatever its outcome
                release = msg.get("release", [])
                if not isinstance(release, list) or not all(isinstance(h, str) for h in release):
                    raise NodeError("bad_request", "field 'release' must be a list of strings")
                try:
                    handler = self._OPS.get(op)
                    if handler is None:
                        raise NodeError("unknown_op", f"unsupported op {op!r}")
                    payload = handler(self, session, msg)
                finally:
                    if release:
                        released = self.store.drop(release, session.user.name, skip_others=True)
            resp = {"id": rid, "ok": True, **payload}
        except BudgetRejected as exc:
            resp = _error(rid, "budget_rejected", str(exc))
            resp["rejection"] = rejection_wire(exc.violations)
        except NodeError as exc:
            resp = _error(rid, exc.code, exc.detail)
        except Exception as exc:  # the first matching code; "internal" is defensive
            code = next((c for kind, c in _ERROR_CODES if isinstance(exc, kind)), "internal")
            resp = _error(rid, code, str(exc))
        assert_no_private_leakage(resp)
        self._audit_event(session, op, resp, released)
        return resp

    # -- param helpers ------------------------------------------------------------------

    @staticmethod
    def _want_str(msg: dict, key: str) -> str:
        val = msg.get(key)
        if not isinstance(val, str):
            raise NodeError("bad_request", f"field {key!r} must be a string")
        return val

    @staticmethod
    def _want_number(msg: dict, key: str) -> float:
        val = msg.get(key)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise NodeError("bad_request", f"field {key!r} must be a number")
        try:
            return float(val)
        except OverflowError:
            raise NodeError("bad_request", f"field {key!r} is too large for a float") from None

    @staticmethod
    def _want_int(msg: dict, key: str) -> int:
        val = msg.get(key)
        if isinstance(val, bool) or not isinstance(val, int):
            raise NodeError("bad_request", f"field {key!r} must be an integer")
        return val

    def _scalar(self, session: NodeSession, handle: str) -> PrivateScalar:
        return self.store.get(handle, session.user.name)

    @staticmethod
    def _meta(scalar: PrivateScalar) -> dict:
        return {
            "degree": scalar.degree(),
            "terms": scalar.term_count,
            "entities": len(scalar.inputs),
        }

    # -- op handlers ---------------------------------------------------------------------

    def _op_auth(self, session: NodeSession, msg: dict) -> dict:
        key = self._want_str(msg, "key")
        account = self._users.get(key)
        if account is None:
            raise NodeError("auth_failed", "invalid api key")
        session.set_user(account)
        return {"user": account.name, **self._op_list_datasets(session, msg)}

    def _op_list_datasets(self, session: NodeSession, msg: dict) -> dict:
        return {
            "datasets": [
                {"name": name, "rows": len(roots)} for name, roots in sorted(self._roots.items())
            ]
        }

    def _op_get_roots(self, session: NodeSession, msg: dict) -> dict:
        name = self._want_str(msg, "dataset")
        if name not in self._roots:
            raise NodeError("unknown_dataset", f"no dataset named {name!r}")
        return {"dataset": name, "roots": self._roots[name]}

    def _op_binop(self, session: NodeSession, msg: dict) -> dict:
        kind = self._want_str(msg, "kind")
        a = self._scalar(session, self._want_str(msg, "a"))
        b = self._scalar(session, self._want_str(msg, "b"))
        if kind not in _BINOPS:
            raise NodeError("bad_request", f"unknown binop kind {kind!r}")
        result = _BINOPS[kind](a, b)
        handle = self.store.add(result, owner=session.user.name)
        return {"handle": handle, "meta": self._meta(result)}

    def _op_unop(self, session: NodeSession, msg: dict) -> dict:
        kind = self._want_str(msg, "kind")
        a = self._scalar(session, self._want_str(msg, "handle"))
        if kind == "neg":
            result = -a
        elif kind == "scale":
            result = a.scale(self._want_number(msg, "c"))
        elif kind == "shift":
            result = a.shift(self._want_number(msg, "c"))
        elif kind == "pow":
            result = a ** self._want_int(msg, "k")
        else:
            raise NodeError("bad_request", f"unknown unop kind {kind!r}")
        handle = self.store.add(result, owner=session.user.name)
        return {"handle": handle, "meta": self._meta(result)}

    def _op_fold(self, session: NodeSession, msg: dict) -> dict:
        kind = self._want_str(msg, "kind")
        if kind not in ("sum", "product"):
            raise NodeError("bad_request", f"unknown fold kind {kind!r}")
        handles = msg.get("handles")
        if not isinstance(handles, list) or not handles or not all(
            isinstance(h, str) for h in handles
        ):
            raise NodeError("bad_request", "field 'handles' must be a non-empty list of strings")
        scalars = [self._scalar(session, h) for h in handles]
        # a product is folded step by step so that the term cap holds at each one
        result = sum_scalars(scalars) if kind == "sum" else functools.reduce(operator.mul, scalars)
        handle = self.store.add(result, owner=session.user.name)
        return {"handle": handle, "meta": self._meta(result)}

    def _op_describe(self, session: NodeSession, msg: dict) -> dict:
        scalar = self._scalar(session, self._want_str(msg, "handle"))
        return {"scalar": scalar_summary(scalar)}

    def _op_publish(self, session: NodeSession, msg: dict) -> dict:
        scalar = self._scalar(session, self._want_str(msg, "handle"))
        sigma = self._want_number(msg, "sigma")
        receipt = publish(scalar, sigma, session.user.ledger, self.policy, self.noise)
        return receipt_wire(receipt)

    def _op_simulate(self, session: NodeSession, msg: dict) -> dict:
        scalar = self._scalar(session, self._want_str(msg, "handle"))
        sigma = self._want_number(msg, "sigma")
        if session.sim is None:
            session.sim = session.user.ledger.fork_simulated()
        decision, spends = simulate_publish(scalar, sigma, session.sim, self.policy)
        return {
            "passed": decision.ok,
            "spends": [spend_wire(s) for s in spends],
            "rejection": None if decision.ok else rejection_wire(decision.violations),
        }

    def _op_fork_sim(self, session: NodeSession, msg: dict) -> dict:
        session.sim = session.user.ledger.fork_simulated()
        return {"forked": True}

    def _op_remaining_budget(self, session: NodeSession, msg: dict) -> dict:
        entity = self._want_str(msg, "entity")
        ledger, policy = session.user.ledger, self.policy
        known = self._entities | ledger.entities()
        if entity == "*":
            return {"remaining": {e: remaining_budget(ledger, e, policy) for e in sorted(known)}}
        if entity == "min":
            if not known:
                return {"eps": policy.eps_cap, "entity": None}
            # a tie goes to the smallest name
            eps, worst = min((remaining_budget(ledger, e, policy), e) for e in known)
            return {"eps": eps, "entity": worst}
        if entity not in known:
            raise NodeError("unknown_entity", f"no entity named {entity!r}")
        return {"eps": remaining_budget(ledger, entity, policy), "entity": entity}

    def _op_drop(self, session: NodeSession, msg: dict) -> dict:
        self.store.drop([self._want_str(msg, "handle")], session.user.name)
        return {"dropped": True}

    _OPS = {
        "list_datasets": _op_list_datasets,
        "get_roots": _op_get_roots,
        "binop": _op_binop,
        "unop": _op_unop,
        "fold": _op_fold,
        "describe": _op_describe,
        "publish": _op_publish,
        "simulate_publish": _op_simulate,
        "fork_sim": _op_fork_sim,
        "remaining_budget": _op_remaining_budget,
        "drop": _op_drop,
    }


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):  # pragma: no cover - exercised via live-server tests
        host, port = self.client_address[:2]
        session = NodeSession(peer=f"{host}:{port}")
        node = self.server.node
        while True:
            try:
                line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            except OSError:  # the peer reset the connection mid-line
                break
            if not line:
                break
            if not line.strip():
                continue
            too_large = len(line) > MAX_REQUEST_BYTES
            if too_large:
                resp = _error(None, "bad_request", "request too large")
            else:
                try:
                    msg = decode(line)
                except ValueError:
                    resp = _error(None, "bad_request", "invalid JSON request")
                else:
                    resp = node.handle_request(session, msg)
            try:
                self.request.sendall(encode(resp))
            except OSError:
                break
            if too_large:
                break  # the rest of that line is never read


class NodeTCPServer(socketserver.ThreadingTCPServer):
    """Newline-delimited JSON over TCP, one thread per connection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, node: Node, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _LineHandler)
        self.node = node

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def shutdown(self) -> None:
        """Stop ``serve_forever`` now, not at the end of its 0.5 s poll.

        This is ``BaseServer.shutdown`` with one step between setting the stop
        flag and waiting: a connection to the listening socket wakes the poll,
        and ``serve_forever`` sees the flag before it accepts anything.
        """
        self._BaseServer__shutdown_request = True
        try:
            socket.create_connection(self.address, timeout=1.0).close()
        except OSError:  # the loop still sees the flag at its next poll
            pass
        self._BaseServer__is_shut_down.wait()


def start_server(node: Node, host: str = "127.0.0.1", port: int = 0) -> NodeTCPServer:
    """Start serving in a daemon thread; returns the bound server."""
    server = NodeTCPServer(node, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
