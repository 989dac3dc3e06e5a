"""The benchmark's tracer still reaches every layer it hooks in the package."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Run in a child process: tracer.install patches pscalar's modules in place.
# The child finds the package through PYTHONPATH, which conftest points at src.
DRIVE = r"""
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tracer

rec = tracer.Recorder()
tracer.install(rec, [])
from pscalar.node import Node, NodeConfig, NodeSession

tmp = Path(sys.argv[2])
(tmp / "people.csv").write_text("entity,value,floor,ceiling\nA,3,-5,10\nB,4,-5,10\n")
node = Node(NodeConfig(eps_cap=6.0, delta=1e-6, journal_dir=tmp / "state", seed=1))
node.ingest(tmp / "people.csv")
node.add_user("u", key="k")
session = NodeSession(peer="test")

def call(op, **params):
    resp = node.handle_request(session, {"id": 1, "op": op, **params})
    assert resp["ok"], resp
    return resp

call("auth", key="k")
a, b = (r["handle"] for r in call("get_roots", dataset="people")["roots"])
ab = call("binop", kind="mul", a=a, b=b)["handle"]
assert call("simulate_publish", handle=ab, sigma=100.0)["passed"]
call("publish", handle=ab, sigma=100.0)
call("remaining_budget", entity="A")
node.close()
stats = dict.fromkeys(("journal_bytes", "audit_bytes", "handles_live", "store_terms"), 0)
doc = {"spans": rec.spans, "counts": rec.counts, "stats": stats}
print(json.dumps(tracer.layer_metrics(doc)))
"""


def test_tracer_hooks_reach_every_layer(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", DRIVE, str(BENCH), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ("sensitivity.bound_calls", "accounting.record_s", "accounting.fork_s",
                 "accounting.replay_s", "accounting.rdp_to_dp_calls", "mechanism.publish_s",
                 "node.audit_s", "node.ingest_s", "poly.mul_s"):
        assert metrics[name] > 0, name  # poly.mul_s: the binop kind=mul reaches Polynomial.mul
    # one traced bound per entity, although one sweep bounds both, and the
    # release reads the slopes its rehearsal kept
    assert metrics["sensitivity.bound_calls"] == 2
    assert metrics["sensitivity.route.vertex_exact"] == 2


def test_the_benchmarks_bound_checks_pass_on_corner_exact():
    # the smoke run checks every rehearsed and released slope against the
    # benchmark's closed forms, and that the k = 24 group stays inexact; a
    # child process, as perfbench/tests and tests/ each have an oracles module
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "corner_exact", "--smoke",
         "--trace", "1", "--seconds", "0", "--seed", "5"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
