"""End-to-end benchmark of a pscalar node over TCP.

    python3 perfbench/run.py --workload mean_wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run pins itself, and so every node it
starts, to one CPU (speed.py).  Each run writes its inputs from --seed,
then repeats whole rounds while a typical round still fits in --seconds
(at least MIN_ROUNDS):
start a node with ``pscalar-node serve`` on a fresh journal, connect as the
analyst(s), run the workload's session, stop the node, restart it
SETUP_STARTS times over the journal the session left and check every
answer.  Timings are per round, scaled to a reference host speed by the
probes of speed.py taken between requests; the run reports their medians.  With
--trace 1, rounds alternate between an untraced node and one started by
tracer.py, and the run reports per-layer figures from the traced rounds.
The last stdout line is one JSON object with correct, attempted, failed and
metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
from statistics import median
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"
MIN_ROUNDS = 3
SETUP_STARTS = 4  # restarts whose launch-to-first-reply times add up to setup_s

E2E_UNITS = {"setup_s": "s", "session_s": "s", "build_s": "s", "rehearse_s": "s",
             "release_s": "s", "node_cpu_s": "s", "node_peak_rss_mb": "MB"}
OP_GROUPS = {"build_s": ("binop", "unop"), "rehearse_s": ("fork_sim", "simulate_publish"),
             "release_s": ("publish",)}


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "pscalar" / "__init__.py").is_file():
    fail_setup(f"no pscalar sources under {ROOT / 'src'}; run from the root of a checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pscalar  # noqa: E402
from pscalar.client import ClientError, PublishRejectedError, Session  # noqa: E402
from pscalar.wire import encode  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nodeproc import NodePool  # noqa: E402

if Path(pscalar.__file__).resolve().parent != ROOT / "src" / "pscalar":
    fail_setup(f"imported pscalar from {pscalar.__file__}, not from this checkout")


class Tally:
    """Client-side count and waiting time of every request, by op."""

    def __init__(self, count_bytes: bool, refusals_ok: bool, track: speed.SpeedTrack):
        self.track = track
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.refused: Counter = Counter()
        self.wait: Counter = Counter()
        self.count_bytes = count_bytes
        self.refusals_ok = refusals_ok
        self.bytes_sent = 0


class TimedSession(Session):
    """A Session that adds each request's round trip to its tally, and takes
    a host-speed sample before a request when one is due."""

    tally: Tally | None = None

    def _call(self, op: str, **fields) -> dict:
        tally = self.tally
        if tally is None:
            return super()._call(op, **fields)
        if tally.track.due():
            tally.track.sample()
        t0 = time.perf_counter()
        try:
            return super()._call(op, **fields)
        except PublishRejectedError:
            (tally.refused if tally.refusals_ok else tally.failed)[op] += 1
            raise
        except ClientError:
            tally.failed[op] += 1
            raise
        finally:
            waited = time.perf_counter() - t0
            tally.wait[op] += waited
            tally.track.add(op, waited)
            tally.calls[op] += 1
            if tally.count_bytes:
                tally.bytes_sent += len(encode({"id": self._next_id, "op": op, **fields}))


class Runner:
    def __init__(self, args, pool: NodePool, workload: workloads.Workload):
        self.args = args
        self.pool = pool
        self.wl = workload
        self.keys = {u: f"{u}-key-{args.seed}" for u in workload.users}
        self.data_args = workload.write_inputs(pool.run_dir)
        self.ops = Counter()
        self.failed = Counter()
        self.refused = Counter()
        self.rounds = 0

    def serve_args(self, journal: Path) -> list[str]:
        args = [*self.data_args, "--port", "0", "--eps", repr(workloads.EPS_CAP),
                "--delta", repr(workloads.DELTA), "--journal", str(journal),
                "--seed", str(self.args.seed)]
        if self.wl.shared_ledger:
            args.append("--shared-ledger")
        for user, key in self.keys.items():
            args += ["--user", f"{user}:{key}"]
        return args

    def start(self, journal: Path, log: str, trace_out: Path | None):
        """Start a node; return it, its first session and the seconds from
        launch to that session's authenticated reply."""
        t0 = time.perf_counter()
        node = self.pool.start(self.serve_args(journal), log, trace_out)
        addr = node.wait_listening()
        first = TimedSession.connect(addr, self.keys[self.wl.users[0]], timeout=120.0)
        return node, first, time.perf_counter() - t0

    def round(self, traced: bool) -> dict:
        """One whole round; returns its end-to-end (and traced) figures, each
        time scaled by host-speed probes taken between the session's requests
        and around each restart (speed.py)."""
        i = self.rounds
        self.rounds += 1
        rdir = self.pool.run_dir / f"round{i}"
        journal = rdir / "journal"
        trace_out = rdir / "trace-session.json" if traced else None
        node, first, _ = self.start(journal, f"round{i}-node.log", trace_out)
        track = speed.SpeedTrack(node.cpu_seconds)
        tally = Tally(count_bytes=traced, refusals_ok=self.wl.refusals_expected, track=track)
        sessions = [first]
        try:
            for user in self.wl.users[1:]:
                sessions.append(TimedSession.connect(node.addr, self.keys[user], timeout=120.0))
            for s in sessions:
                s.tally = tally
            track.sample()
            cpu0 = node.cpu_seconds()
            try:
                got = self.wl.session(sessions, journal)
            finally:
                track.sample()
                self.ops.update(tally.calls)
                self.failed.update(tally.failed)
                self.refused.update(tally.refused)
            cpu = node.cpu_seconds() - cpu0
            rss = node.peak_rss_mb()
        finally:
            for s in sessions:
                s.close()
            # A clean stop waits out the server's 0.5 s poll.  The journal is
            # flushed on every record, so only a traced node, which writes its
            # spans at exit, needs one; the others are killed, as in a crash.
            self.pool.stop(node, kill=not traced)
        workloads.require(track.node_was_idle(),
                          f"the node used {track.node_busy_s:.3f} s of CPU during "
                          f"{track.probe_s:.3f} s of speed probes; scaled times would be too low")
        boot = speed.SpeedTrack()
        boot.sample()
        restarted, start_traces = [], []
        for j in range(SETUP_STARTS):
            start_trace = rdir / f"trace-restart{j}.json" if traced else None
            node, s, seconds = self.start(journal, f"round{i}-restart{j}.log", start_trace)
            boot.add("setup_s", seconds)
            try:
                restarted.append(s.remaining_budget("*"))
            finally:
                s.close()
                self.pool.stop(node, kill=not traced)
            if traced:
                start_traces.append(start_trace)
            boot.sample()
        self.wl.verify(got, journal, restarted)
        session_s = track.measured["wall"]  # without the probes
        figures = {
            "setup_s": boot.scaled["setup_s"], "session_s": track.scaled["wall"],
            "node_cpu_s": cpu * track.factor(), "node_peak_rss_mb": rss,
            **{m: sum(track.scaled[op] for op in ops) for m, ops in OP_GROUPS.items()},
        }
        figures["measured"] = {"setup_s": boot.measured["setup_s"], "session_s": session_s,
                               "node_cpu_s": cpu,
                               **{m: sum(tally.wait[op] for op in ops) for m, ops in OP_GROUPS.items()}}
        samples = track.samples + boot.samples
        print(f"round {i}{' traced' if traced else ''}: "
              + " ".join(f"{k} {figures[k]:.4f}" for k in E2E_UNITS)
              + f" (measured session_s {session_s:.4f}; {len(samples)} probes "
              f"{min(samples) * 1e3:.2f}-{max(samples) * 1e3:.2f} ms)", flush=True)
        if traced:
            figures["layers"] = self.layers(trace_out, start_traces, tally, track.factor(),
                                            boot.factor("setup_s"))
            self.keep_traces(rdir)
        shutil.rmtree(rdir, ignore_errors=True)
        return figures

    def layers(self, session_trace: Path, start_traces: list[Path], tally: Tally,
               session_factor: float, boot_factor: float) -> dict:
        """Per-layer figures of one traced round, times scaled as the
        end-to-end ones are; start-up layers (ingest and replay) are summed
        over the restarts, as setup_s is."""
        doc = json.loads(session_trace.read_text(encoding="utf-8"))
        out = tracer.layer_metrics(doc)
        starts = [tracer.layer_metrics(json.loads(p.read_text(encoding="utf-8"))) for p in start_traces]
        for entity, _bound, strategy, exact, _ in tracer.bound_records(doc):
            workloads.require(exact == self.wl.exact_expected(entity),
                              f"traced {strategy} bound of {entity} is flagged exact={exact}")
        out["client.round_trips"] = sum(tally.calls.values())
        out["client.wait_s"] = sum(tally.wait.values()) - out.pop("node.handle_s")
        out["wire.bytes_in"] = tally.bytes_sent
        for name in out:
            if layer_unit(name) == "s":
                out[name] *= session_factor
        for name in ("node.ingest_s", "accounting.replay_s"):
            out[name] = sum(m[name] for m in starts) * boot_factor
        return out

    def keep_traces(self, rdir: Path) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        for path in rdir.glob("trace-*.json"):
            shutil.copyfile(path, OUT_DIR / f"{self.wl.name}-{path.name}")


def run(args) -> tuple[bool, dict]:
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](sizes, args.seed)
    run_dir = HERE / ".run" / f"{args.workload}-{args.seed}-{int(time.time() * 1e3)}"
    plain, traced = [], []
    with NodePool(ROOT, run_dir) as pool:
        runner = Runner(args, pool, wl)
        start = time.perf_counter()
        lengths = []
        try:
            while True:
                trace_this = bool(args.trace) and len(plain) > len(traced)
                t0 = time.perf_counter()
                (traced if trace_this else plain).append(runner.round(trace_this))
                lengths.append(time.perf_counter() - t0)
                done = len(lengths) >= MIN_ROUNDS and (not args.trace or traced)
                # start a round only if a typical one still ends within --seconds
                if done and time.perf_counter() - start + median(lengths) > args.seconds:
                    break
        except workloads.CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            return False, summary(runner, plain, traced, args)
        except ClientError as exc:  # a refusal the workload does not expect, or a failed request
            print(f"perfbench: request failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return False, summary(runner, plain, traced, args)
        return True, summary(runner, plain, traced, args)


def summary(runner: Runner, plain: list, traced: list, args) -> dict:
    for op in sorted(runner.ops):
        print(f"op {op:18s} attempted {runner.ops[op]:7d}  failed {runner.failed[op]:3d}"
              f"  refused {runner.refused[op]:4d}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds")
    e2e = {name: {"value": median(r[name] for r in plain), "unit": unit}
           for name, unit in E2E_UNITS.items()} if plain else {}
    for name, m in e2e.items():
        print(f"{name:18s} {m['value']:.6f} {m['unit']}"
              + (f"  (measured {median(r['measured'][name] for r in plain):.6f})"
                 if name in plain[0]["measured"] else ""))
    metrics = {} if args.trace else e2e
    if args.trace and traced:
        names = traced[0]["layers"].keys()
        for name in names:
            metrics[name] = {"value": median(r["layers"][name] for r in traced),
                             "unit": layer_unit(name)}
        traced_s = median(r["session_s"] for r in traced)
        metrics["trace.session_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - median(r["session_s"] for r in plain),
                                       "unit": "s"}
    return {"attempted": sum(runner.ops.values()), "failed": sum(runner.failed.values()),
            "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".op_s." in name:
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("_share"):
        return "share"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGHUP, terminate)
    speed.pin_to_one_cpu()
    correct, result = run(args)
    result = {"correct": correct, **result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, separators=(",", ":")))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
