"""Traced node launcher, and the per-layer figures read from its spans.

Run as ``python perfbench/tracer.py OUT.json <pscalar-node serve args>``.
Before serving, it wraps public functions and methods of each pscalar
module, at the name through which the caller reaches them (for example
``lipschitz_bound`` as ``accounting`` sees it and ``spend_for_publish`` as
``mechanism`` sees it), plus ``Node._audit_event``, the one place where
audit records are appended.  Each call becomes a span ``(id, name, start_ns,
end_ns, parent id, request id, self_ns, attrs)``, kept in memory and written
to OUT.json when the node stops, together with a few end-of-life counts.
Nothing is written while requests are served.

``layer_metrics`` turns one such file into the per-layer metrics that the
benchmark reports.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

OPS = ("binop", "unop", "simulate_publish", "publish", "fork_sim",
       "remaining_budget", "get_roots", "drop")
ROUTES = ("first_degree", "monotone_ceiling", "vertex_exact", "interval_sound")


class Recorder:
    """In-memory span store with one call stack per thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.rid = 0
        return stack

    def new_request(self) -> None:
        self._stack()
        self._local.rid = next(self._rids)

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recorded as span ``name``; ``attrs(args, result)`` adds detail."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                extra = attrs(args, result) if (ok and attrs is not None) else None
                spans.append((sid, name, t0, t1, parent, self._local.rid, t1 - t0 - frame[1], extra))

        return traced


def _file_sizes(journal: Path | None) -> dict[str, int]:
    if journal is None or not journal.is_dir():
        return {}
    return {p.name: p.stat().st_size for p in journal.iterdir() if p.is_file()}


def _vertex_corners(scalar, entity) -> int:
    """2^k for the k live variables of the partial that vertex_exact scans."""
    live: set = set()
    for mono, _ in scalar.poly.items():
        e = mono.degree_in(entity)
        if e:
            live.update(v for v, _ in mono.powers if v != entity or e > 1)
    return 2 ** len(live)


def install(rec: Recorder, nodes: list) -> None:
    """Wrap the layer boundaries of every pscalar module in place."""
    from pscalar import accounting, mechanism, node, poly, scalar

    P, S = poly.Polynomial, scalar.PrivateScalar
    P.__add__ = rec.wrap("poly.add", P.__add__,
                         lambda a, r: a[0].term_count + a[1].term_count)
    for meth in ("mul", "degree", "partial", "evaluate"):
        setattr(P, meth, rec.wrap(f"poly.{meth}", getattr(P, meth)))

    for meth in ("__add__", "__sub__", "__mul__", "__neg__", "scale", "shift", "__pow__"):
        setattr(S, meth, rec.wrap("scalar.op", getattr(S, meth)))
    S.box = rec.wrap("scalar.box", S.box)
    scalar_init = S.__init__

    def counted_init(self, poly_, inputs):
        rec.count("scalar.inputs_copied", len(inputs))
        scalar_init(self, poly_, inputs)

    S.__init__ = counted_init

    def bound_attrs(args, lb):
        corners = _vertex_corners(args[0], args[1]) if lb.strategy == "vertex_exact" else 0
        return [lb.entity.entity, lb.bound, lb.strategy, lb.exact, corners]

    accounting.lipschitz_bound = rec.wrap("sensitivity.bound", accounting.lipschitz_bound, bound_attrs)
    accounting.rdp_to_dp = rec.wrap("accounting.rdp_to_dp", accounting.rdp_to_dp)
    mechanism.spend_for_publish = rec.wrap("accounting.spend", mechanism.spend_for_publish)
    mechanism.filter_check = rec.wrap("accounting.filter", mechanism.filter_check)
    L = accounting.PrivacyLedger
    L.record = rec.wrap("accounting.record", L.record)
    L.fork_simulated = rec.wrap("accounting.fork", L.fork_simulated)
    ledger_init = L.__init__
    traced_init = rec.wrap("accounting.replay", ledger_init)

    def ledger_open(self, mode=L.REAL, journal_path=None):
        (ledger_init if journal_path is None else traced_init)(self, mode, journal_path)

    L.__init__ = ledger_open

    node.publish = rec.wrap("mechanism.publish", node.publish)
    node.simulate_publish = rec.wrap("mechanism.simulate", node.simulate_publish)
    sample = mechanism.GaussianNoiseSource.sample

    def counted_sample(self, sigma):
        rec.count("mechanism.noise_draws", 1)
        return sample(self, sigma)

    mechanism.GaussianNoiseSource.sample = counted_sample

    node.encode = rec.wrap("wire.encode", node.encode, lambda a, r: len(r))
    node.assert_no_private_leakage = rec.wrap("wire.leak_scan", node.assert_no_private_leakage)

    N = node.Node
    handle = rec.wrap("node.handle", N.handle_request,
                      lambda a, r: a[2].get("op") if isinstance(a[2].get("op"), str) else None)

    def handle_request(self, session, msg):
        rec.new_request()
        return handle(self, session, msg)

    N.handle_request = handle_request
    N._audit_event = rec.wrap("node.audit", N._audit_event)
    N.ingest = rec.wrap("node.ingest", N.ingest)
    node_init = N.__init__

    def remember(self, config):
        node_init(self, config)
        nodes.append(self)

    N.__init__ = remember


def _store_stats(nodes: list) -> dict[str, int]:
    handles = terms = 0
    for n in nodes:
        objects = list(n.store._objects.values())  # ObjectStore exposes no listing
        handles += len(objects)
        terms += sum(obj.scalar.term_count for obj in objects)
    return {"handles_live": handles, "store_terms": terms}


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    serve_args = argv[1:]
    journal = argparse.ArgumentParser(add_help=False)
    journal.add_argument("--journal")
    known, _ = journal.parse_known_args(serve_args)
    journal_dir = Path(known.journal) if known.journal else None
    before = _file_sizes(journal_dir)

    rec, nodes = Recorder(), []
    install(rec, nodes)
    from pscalar.cli import node_main

    try:
        return node_main(["serve", *serve_args])
    finally:
        after = _file_sizes(journal_dir)
        grown = {name: size - before.get(name, 0) for name, size in after.items()}
        doc = {
            "spans": rec.spans,
            "counts": rec.counts,
            "stats": {
                **_store_stats(nodes),
                "journal_bytes": sum(v for k, v in grown.items() if k.startswith("ledger-")),
                "audit_bytes": grown.get("audit.jsonl", 0),
            },
        }
        out.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


# -- reading a trace -----------------------------------------------------------------


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer counts and self times (seconds) from one node's trace file.

    Only requests other than ``auth`` count toward ``node.handle_s``, the
    node-side time that ``client.wait_s`` is measured against.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    op_self = dict.fromkeys(OPS, 0.0)
    routes = dict.fromkeys(ROUTES, 0)
    exact = corners = terms_copied = bytes_out = 0
    handle_s = 0.0
    for _sid, name, t0, t1, _parent, _rid, self_ns, attrs in doc["spans"]:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_ns / 1e9
        if name == "poly.add":
            terms_copied += attrs or 0
        elif name == "sensitivity.bound" and attrs:
            routes[attrs[2]] += 1
            exact += bool(attrs[3])
            corners += attrs[4]
        elif name == "wire.encode":
            bytes_out += attrs or 0
        elif name == "node.handle" and attrs != "auth":
            handle_s += (t1 - t0) / 1e9
            if attrs in op_self:
                op_self[attrs] += self_ns / 1e9
    bounds = calls.get("sensitivity.bound", 0)
    stats = doc["stats"]
    out = {
        "poly.add_calls": calls.get("poly.add", 0),
        "poly.terms_copied": terms_copied,
        "poly.add_s": self_s.get("poly.add", 0.0),
        "poly.mul_s": self_s.get("poly.mul", 0.0),
        "poly.degree_calls": calls.get("poly.degree", 0),
        "poly.degree_s": self_s.get("poly.degree", 0.0),
        "poly.partial_calls": calls.get("poly.partial", 0),
        "poly.partial_s": self_s.get("poly.partial", 0.0),
        "poly.evaluate_calls": calls.get("poly.evaluate", 0),
        "poly.evaluate_s": self_s.get("poly.evaluate", 0.0),
        "scalar.ops_s": self_s.get("scalar.op", 0.0),
        "scalar.inputs_copied": doc["counts"].get("scalar.inputs_copied", 0),
        "scalar.box_calls": calls.get("scalar.box", 0),
        "scalar.box_s": self_s.get("scalar.box", 0.0),
        "sensitivity.bound_calls": bounds,
        "sensitivity.bound_s": self_s.get("sensitivity.bound", 0.0),
        "sensitivity.corners": corners,
        **{f"sensitivity.route.{r}": n for r, n in routes.items()},
        "sensitivity.exact_share": exact / bounds if bounds else 0.0,
        "accounting.spend_s": self_s.get("accounting.spend", 0.0),
        "accounting.filter_s": self_s.get("accounting.filter", 0.0),
        "accounting.rdp_to_dp_calls": calls.get("accounting.rdp_to_dp", 0),
        "accounting.rdp_to_dp_s": self_s.get("accounting.rdp_to_dp", 0.0),
        "accounting.record_s": self_s.get("accounting.record", 0.0),
        "accounting.journal_bytes": stats["journal_bytes"],
        "accounting.fork_s": self_s.get("accounting.fork", 0.0),
        "accounting.replay_s": self_s.get("accounting.replay", 0.0),
        "mechanism.publish_s": self_s.get("mechanism.publish", 0.0),
        "mechanism.simulate_s": self_s.get("mechanism.simulate", 0.0),
        "mechanism.noise_draws": doc["counts"].get("mechanism.noise_draws", 0),
        "wire.encode_s": self_s.get("wire.encode", 0.0),
        "wire.leak_scan_s": self_s.get("wire.leak_scan", 0.0),
        "wire.bytes_out": bytes_out,
        **{f"node.op_s.{op}": s for op, s in op_self.items()},
        "node.audit_s": self_s.get("node.audit", 0.0),
        "node.audit_bytes": stats["audit_bytes"],
        "node.ingest_s": self_s.get("node.ingest", 0.0),
        "node.handles_live": stats["handles_live"],
        "node.store_terms": stats["store_terms"],
        "node.handle_s": handle_s,
    }
    return out


def bound_records(doc: dict) -> list[list]:
    """``[entity, bound, strategy, exact, corners]`` for each traced slope bound."""
    return [s[7] for s in doc["spans"] if s[1] == "sensitivity.bound" and s[7]]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
