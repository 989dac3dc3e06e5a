"""Data-scientist client: remote scalars over the wire, no raw values ever held.

A RemoteScalar is just a handle plus public metadata; arithmetic on it costs
one round trip per operation and returns a new handle.  Raw entity inputs
never reach this side of the connection.
"""

from __future__ import annotations

import json
import numbers
import socket
from dataclasses import dataclass

from .wire import encode


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


class RemoteScalar:
    """Reference to a private scalar living on the node.

    Holds only the handle and public metadata (degree, term and entity
    counts).  Mixing scalars from different sessions is an error.
    """

    __slots__ = ("session", "handle", "degree", "terms", "entities")

    def __init__(self, session: "Session", handle: str, meta: dict | None = None):
        self.session = session
        self.handle = handle
        meta = meta or {}
        self.degree = meta.get("degree")
        self.terms = meta.get("terms")
        self.entities = meta.get("entities")

    def __add__(self, other):
        if isinstance(other, RemoteScalar):
            return self.session._binop("add", self, other)
        if isinstance(other, numbers.Real):
            return self.shift(float(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RemoteScalar):
            return self.session._binop("sub", self, other)
        if isinstance(other, numbers.Real):
            return self.shift(-float(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            return (-self).shift(float(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RemoteScalar):
            return self.session._binop("mul", self, other)
        if isinstance(other, numbers.Real):
            return self.scale(float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self.session._unop("neg", self)

    def __pow__(self, k: int):
        return self.session._unop("pow", self, k=k)

    def scale(self, c: float):
        return self.session._unop("scale", self, c=c)

    def shift(self, c: float):
        return self.session._unop("shift", self, c=c)

    def __truediv__(self, other):
        raise ClientError("division is not available on private scalars")

    __rtruediv__ = __truediv__

    def __repr__(self):
        return f"RemoteScalar({self.handle}, degree={self.degree}, entities={self.entities})"


class Session:
    """Authenticated connection to a node."""

    def __init__(self, sock: socket.socket, user: str, datasets: list[dict]):
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._next_id = 0
        self.user = user
        self.datasets = datasets

    @classmethod
    def connect(cls, addr: str | tuple[str, int], key: str, timeout: float = 10.0) -> "Session":
        """Open a TCP session and authenticate with the api key."""
        if isinstance(addr, str):
            host, _, port_text = addr.rpartition(":")
            if not host:
                raise ClientError(f"address must look like host:port, got {addr!r}")
            addr = (host, int(port_text))
        sock = socket.create_connection(addr, timeout=timeout)
        session = object.__new__(cls)
        Session.__init__(session, sock, user="", datasets=[])
        try:
            payload = session._call("auth", key=key)
        except ClientError:
            sock.close()
            raise
        session.user = payload["user"]
        session.datasets = payload["datasets"]
        return session

    # -- plumbing ------------------------------------------------------------

    def _call(self, op: str, **fields) -> dict:
        self._next_id += 1
        rid = self._next_id
        try:
            self._sock.sendall(encode({"id": rid, "op": op, **fields}))
            line = self._rfile.readline()
        except (OSError, ValueError) as exc:
            raise TransportError(f"connection unusable: {exc}") from exc
        if not line:
            raise TransportError("connection closed by node")
        try:
            resp = json.loads(line)
        except ValueError as exc:
            raise TransportError(f"bad response: {exc}") from exc
        if resp.get("id") not in (rid, None):
            raise TransportError("response id mismatch")
        if resp.get("ok"):
            return resp
        err = resp.get("error") or {}
        code = err.get("code", "unknown")
        detail = err.get("detail", "")
        if code == "budget_rejected":
            rej = resp.get("rejection") or {}
            raise PublishRejectedError(
                code, detail, rej.get("entities", []), rej.get("projected_eps", [])
            )
        if code == "auth_failed":
            raise AuthFailed(code, detail)
        raise RequestFailed(code, detail)

    def close(self) -> None:
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
        return self._call("list_datasets")["datasets"]

    def roots(self, dataset: str) -> list[RemoteScalar]:
        payload = self._call("get_roots", dataset=dataset)
        return [
            RemoteScalar(self, r["handle"], {"degree": 1, "terms": 1, "entities": 1})
            for r in payload["roots"]
        ]

    def root_records(self, dataset: str) -> list[dict]:
        """Public per-root metadata: handle, entity, floor, ceiling."""
        return self._call("get_roots", dataset=dataset)["roots"]

    def _own(self, scalar: RemoteScalar) -> str:
        """The handle of one of this session's scalars."""
        if scalar.session is not self:
            raise ClientError("cannot mix scalars from different sessions")
        return scalar.handle

    def _binop(self, kind: str, a: RemoteScalar, b: RemoteScalar) -> RemoteScalar:
        payload = self._call("binop", kind=kind, a=a.handle, b=self._own(b))
        return RemoteScalar(self, payload["handle"], payload.get("meta"))

    def _fold(self, kind: str, scalars: list[RemoteScalar]) -> RemoteScalar:
        if not scalars:
            raise ClientError(f"cannot {kind} an empty list of remote scalars")
        payload = self._call("fold", kind=kind, handles=[self._own(s) for s in scalars])
        return RemoteScalar(self, payload["handle"], payload.get("meta"))

    def _unop(self, kind: str, a: RemoteScalar, **extra) -> RemoteScalar:
        payload = self._call("unop", kind=kind, handle=a.handle, **extra)
        return RemoteScalar(self, payload["handle"], payload.get("meta"))

    def describe(self, scalar: RemoteScalar) -> dict:
        return self._call("describe", handle=scalar.handle)["scalar"]

    def publish(self, scalar: RemoteScalar, sigma: float) -> PublishResult:
        payload = self._call("publish", handle=scalar.handle, sigma=sigma)
        return PublishResult(
            value=payload["value"],
            publish_id=payload["publish_id"],
            sigma=payload["sigma"],
            spends=tuple(payload["spends"]),
            timestamp=payload["timestamp"],
        )

    def simulate(self, scalar: RemoteScalar, sigma: float) -> SimulateResult:
        payload = self._call("simulate_publish", handle=scalar.handle, sigma=sigma)
        return SimulateResult(
            passed=payload["passed"],
            spends=tuple(payload["spends"]),
            rejection=payload.get("rejection"),
        )

    def fork_sim(self) -> None:
        self._call("fork_sim")

    def remaining_budget(self, entity: str = "min"):
        """Remaining converted epsilon: one entity, 'min', or '*' for all."""
        payload = self._call("remaining_budget", entity=entity)
        if entity == "*":
            return payload["remaining"]
        return payload["eps"]

    def drop(self, scalar: RemoteScalar) -> None:
        self._call("drop", handle=scalar.handle)

    def sum_of(self, scalars: list[RemoteScalar]) -> RemoteScalar:
        """Sum a non-empty list of remote scalars in one request."""
        return self._fold("sum", scalars)

    def product_of(self, scalars: list[RemoteScalar]) -> RemoteScalar:
        """Multiply a non-empty list of remote scalars in one request."""
        return self._fold("product", scalars)
