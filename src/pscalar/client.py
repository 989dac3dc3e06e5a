"""Data-scientist client: remote scalars over the wire, no raw values ever held.

A RemoteScalar is just a handle plus public metadata; arithmetic on it costs
one round trip per operation and returns a new handle.  Raw entity inputs
never reach this side of the connection.
"""

from __future__ import annotations

import socket
from collections import deque
from dataclasses import dataclass

from .scalar import ScalarArithmetic
from .wire import decode, encode


class ClientError(Exception):
    """Base class for client-side failures."""


class TransportError(ClientError):
    """The connection died or the node answered gibberish."""


class RequestFailed(ClientError):
    """The node refused a request."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class AuthFailed(RequestFailed):
    pass


class PublishRejectedError(RequestFailed):
    """Budget refusal: carries the violating entities and projected epsilons."""

    def __init__(self, code: str, detail: str, entities: list[str], projected_eps: list[float]):
        super().__init__(code, detail)
        self.entities = entities
        self.projected_eps = projected_eps


@dataclass(frozen=True)
class PublishResult:
    value: float
    publish_id: str
    sigma: float
    spends: tuple[dict, ...]
    timestamp: str


@dataclass(frozen=True)
class SimulateResult:
    passed: bool
    spends: tuple[dict, ...]
    rejection: dict | None


_NUMBER = (int, float)  # JSON does not tell 1 from 1.0


def _field(payload: dict, key: str, kind: type | tuple[type, ...]):
    """``payload[key]`` if it is a ``kind``; a node answer of another shape is gibberish."""
    value = payload.get(key)
    if not isinstance(value, kind):
        raise TransportError(f"bad response: field {key!r} is missing or of the wrong type")
    return value


class RemoteScalar(ScalarArithmetic):
    """Reference to a private scalar living on the node.

    Holds only the handle and public metadata (degree, term and entity
    counts).  Mixing scalars from different sessions is an error.  A scalar
    its session minted (``owned``) is forgotten on the node once it is
    garbage-collected here: its handle rides on the session's next request.
    """

    __slots__ = ("owned", "session", "handle", "degree", "terms", "entities")

    def __init__(self, session: "Session", handle: str, meta: dict | None = None):
        self.owned = False  # first, so that __del__ sees it on any object
        self.session = session
        self.handle = handle
        meta = meta or {}
        self.degree = meta.get("degree")
        self.terms = meta.get("terms")
        self.entities = meta.get("entities")

    _division_error = ClientError

    def _combine(self, kind: str, other):
        if not isinstance(other, RemoteScalar):
            return NotImplemented
        return self.session._derive("binop", kind=kind, a=self.handle, b=self.session._own(other))

    def __neg__(self):
        return self.session._unop("neg", self)

    def __pow__(self, k: int):
        return self.session._unop("pow", self, k=k)

    def scale(self, c: float):
        return self.session._unop("scale", self, c=c)

    def shift(self, c: float):
        return self.session._unop("shift", self, c=c)

    # a copy is the scalar itself: one object owns a minted handle, and releases it once
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __del__(self):
        if self.owned:
            queue = self.session._release
            if queue is not None:  # None once the session is closed
                queue.append(self.handle)

    def __repr__(self):
        return f"RemoteScalar({self.handle}, degree={self.degree}, entities={self.entities})"


class Session:
    """Authenticated connection to a node."""

    def __init__(self, sock: socket.socket, user: str, datasets: list[dict]):
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._next_id = 0
        # handles to forget with the next request; a deque, because a scalar
        # may be collected in another thread while a request takes them out
        self._release: deque[str] | None = deque()
        self.user = user
        self.datasets = datasets

    @classmethod
    def connect(cls, addr: str | tuple[str, int], key: str, timeout: float = 10.0) -> "Session":
        """Open a TCP session and authenticate with the api key."""
        if isinstance(addr, str):
            host, _, port = addr.rpartition(":")
            if not host or not port.isdecimal():
                raise ClientError(f"address must look like host:port, got {addr!r}")
            addr = (host, int(port))
        if not 0 < addr[1] < 65536:
            raise ClientError(f"port must be in 1-65535, got {addr[1]}")
        session = cls(socket.create_connection(addr, timeout=timeout), user="", datasets=[])
        try:
            payload = session._call("auth", key=key)
            session.user = _field(payload, "user", str)
            session.datasets = _field(payload, "datasets", list)
        except BaseException:
            session.close()
            raise
        return session

    # -- plumbing ------------------------------------------------------------

    def _call(self, op: str, **fields) -> dict:
        rid = self._next_id + 1
        msg = {"id": rid, "op": op, **fields}
        queue = self._release
        if queue:
            msg["release"] = [queue.popleft() for _ in range(len(queue))]
        data = None
        try:
            data = encode(msg)  # a value JSON cannot carry fails here, before anything is sent
            self._next_id = rid
            self._sock.sendall(data)
            line = self._rfile.readline()
        except (OSError, TypeError, ValueError) as exc:
            if "release" in msg:
                queue.extend(msg["release"])  # unsent, or sent on a dead connection
            if data is None:
                raise ClientError(f"request cannot be encoded: {exc}") from exc
            raise TransportError(f"connection unusable: {exc}") from exc
        if not line:
            raise TransportError("connection closed by node")
        try:
            resp = decode(line)
        except ValueError as exc:
            raise TransportError(f"bad response: {exc}") from exc
        if resp.get("id") not in (rid, None):
            raise TransportError("response id mismatch")
        if resp.get("ok"):
            return resp
        err = resp.get("error") or {}
        if not isinstance(err, dict):
            raise TransportError("bad response: a refusal's error must be an object")
        code = err.get("code", "unknown")
        detail = err.get("detail", "")
        if code == "budget_rejected":
            rej = _field(resp, "rejection", dict)
            raise PublishRejectedError(
                code, detail, _field(rej, "entities", list), _field(rej, "projected_eps", list)
            )
        if code == "auth_failed":
            raise AuthFailed(code, detail)
        raise RequestFailed(code, detail)

    def close(self) -> None:
        self._release = None  # scalars collected from now on are not queued
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- operations --------------------------------------------------------------

    def list_datasets(self) -> list[dict]:
        return _field(self._call("list_datasets"), "datasets", list)

    def roots(self, dataset: str) -> list[RemoteScalar]:
        return [
            RemoteScalar(self, r["handle"], {"degree": 1, "terms": 1, "entities": 1})
            for r in self.root_records(dataset)
        ]

    def root_records(self, dataset: str) -> list[dict]:
        """Public per-root metadata: handle, entity, floor, ceiling."""
        return _field(self._call("get_roots", dataset=dataset), "roots", list)

    def _own(self, scalar: RemoteScalar) -> str:
        """The handle of one of this session's scalars."""
        if scalar.session is not self:
            raise ClientError("cannot mix scalars from different sessions")
        return scalar.handle

    def _derive(self, op: str, **fields) -> RemoteScalar:
        """Send an op that makes a new scalar and wrap the handle it answers with."""
        payload = self._call(op, **fields)
        scalar = RemoteScalar(self, _field(payload, "handle", str), _field(payload, "meta", dict))
        scalar.owned = True
        return scalar

    def _fold(self, kind: str, scalars: list[RemoteScalar]) -> RemoteScalar:
        if not scalars:
            raise ClientError(f"cannot {kind} an empty list of remote scalars")
        return self._derive("fold", kind=kind, handles=[self._own(s) for s in scalars])

    def _unop(self, kind: str, a: RemoteScalar, **extra) -> RemoteScalar:
        return self._derive("unop", kind=kind, handle=a.handle, **extra)

    def describe(self, scalar: RemoteScalar) -> dict:
        return _field(self._call("describe", handle=scalar.handle), "scalar", dict)

    def publish(self, scalar: RemoteScalar, sigma: float) -> PublishResult:
        payload = self._call("publish", handle=scalar.handle, sigma=sigma)
        return PublishResult(
            value=_field(payload, "value", _NUMBER),
            publish_id=_field(payload, "publish_id", str),
            sigma=_field(payload, "sigma", _NUMBER),
            spends=tuple(_field(payload, "spends", list)),
            timestamp=_field(payload, "timestamp", str),
        )

    def simulate(self, scalar: RemoteScalar, sigma: float) -> SimulateResult:
        payload = self._call("simulate_publish", handle=scalar.handle, sigma=sigma)
        return SimulateResult(
            passed=_field(payload, "passed", bool),
            spends=tuple(_field(payload, "spends", list)),
            rejection=_field(payload, "rejection", (dict, type(None))),
        )

    def fork_sim(self) -> None:
        self._call("fork_sim")

    def remaining_budget(self, entity: str = "min"):
        """Remaining converted epsilon: one entity, 'min', or '*' for all."""
        payload = self._call("remaining_budget", entity=entity)
        if entity == "*":
            return _field(payload, "remaining", dict)
        return _field(payload, "eps", _NUMBER)

    def drop(self, scalar: RemoteScalar) -> None:
        scalar.owned = False  # gone now; not released a second time
        self._call("drop", handle=scalar.handle)

    def sum_of(self, scalars: list[RemoteScalar]) -> RemoteScalar:
        """Sum a non-empty list of remote scalars in one request."""
        return self._fold("sum", scalars)

    def product_of(self, scalars: list[RemoteScalar]) -> RemoteScalar:
        """Multiply a non-empty list of remote scalars in one request."""
        return self._fold("product", scalars)
