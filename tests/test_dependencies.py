"""The node runs on the standard library alone: numpy is a test dependency only.

A node's start loads what it serves and nothing of the analyst side.
"""

from __future__ import annotations

import functools
import operator
import re
import signal
import subprocess
import sys

from pscalar.accounting import spend_for_publish
from pscalar.client import Session
from pscalar.scalar import PrivateScalar, sum_scalars

# Runs ``python -m pscalar`` with numpy made unimportable.
NO_NUMPY_LAUNCHER = (
    "import runpy, sys; sys.modules['numpy'] = None; "
    "runpy.run_module('pscalar', run_name='__main__', alter_sys=True)"
)


def test_importing_the_package_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pscalar, pscalar.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Modules that starting a node must not load: dataclasses pulls in inspect and
# ast, the client and script modules are analyst-side, secrets loads OpenSSL,
# and the node's timestamps need no datetime.
OFF_START_PATH = (
    "dataclasses", "pscalar.client", "pscalar.script", "secrets", "hashlib", "datetime"
)

START_PATH_PROBE = f"""
import sys, pscalar, pscalar.cli
print(sorted(m for m in {OFF_START_PATH!r} if m in sys.modules))
missing = [n for n in pscalar.__all__ if not hasattr(pscalar, n)]
from pscalar import Session, run_script
print(missing, Session.__module__, run_script.__module__)
"""


def test_starting_a_node_loads_no_analyst_module():
    proc = subprocess.run(
        [sys.executable, "-c", START_PATH_PROBE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[] pscalar.client pscalar.script\n"


def test_a_node_serves_with_analyst_modules_unimportable(tmp_path):
    data = tmp_path / "people.csv"
    data.write_text("entity,value,floor,ceiling\nA,1,0,2\nB,3,0,4\n", encoding="utf-8")
    launcher = (
        "import runpy, sys; "
        + "".join(f"sys.modules[{m!r}] = None; " for m in OFF_START_PATH)
        + "runpy.run_module('pscalar', run_name='__main__', alter_sys=True)"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", launcher, "node", "serve", "--data", f"{data}:people",
         "--port", "0", "--eps", "50", "--delta", "1e-6", "--seed", "3", "--user", "u:k",
         "--journal", str(tmp_path / "state")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        m = re.match(r"pscalar-node listening on (\S+):(\d+)", proc.stdout.readline())
        assert m, proc.stderr.read() if proc.poll() is not None else "no banner"
        with Session.connect(f"{m.group(1)}:{m.group(2)}", "k") as s:
            query = s.sum_of(s.roots("people")) ** 2
            assert s.simulate(query, 10.0).passed
            assert s.publish(query, 10.0).publish_id
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.stderr.close()
    assert proc.returncode == 0, stderr


def _bounds(j):
    # negative floors rule out the monotone route, so every slope scans corners
    return -1.0 - 0.25 * j, 2.0 + 0.5 * j


def _local_spends(query, sigma):
    return [(sp.entity.entity, sp.lipschitz, sp.rho) for sp in spend_for_publish(query, sigma)]


def test_a_node_without_numpy_rehearses_and_releases_corner_scans(tmp_path):
    rows = [(f"p{j}", 0.5 * j, *_bounds(j)) for j in range(8)]
    rows += [(f"s{j:02d}", 1.0 - 0.5 * j, *_bounds(j)) for j in range(12)]
    data = tmp_path / "people.csv"
    data.write_text(
        "entity,value,floor,ceiling\n" + "".join(",".join(map(str, r)) + "\n" for r in rows),
        encoding="utf-8",
    )
    local = {r[0]: PrivateScalar.make_private(*r) for r in rows}
    product = functools.reduce(operator.mul, (local[f"p{j}"].shift(1.0) for j in range(8)))
    square = sum_scalars(local[f"s{j:02d}"] for j in range(12)) ** 2
    expected = {"product": _local_spends(product, 1e6), "square": _local_spends(square, 1e4)}

    proc = subprocess.Popen(
        [sys.executable, "-c", NO_NUMPY_LAUNCHER, "node", "serve", "--data", f"{data}:people",
         "--port", "0", "--eps", "50", "--delta", "1e-6", "--seed", "12", "--user", "u:k"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline()
        m = re.match(r"pscalar-node listening on (\S+):(\d+)", banner)
        assert m, f"unexpected banner {banner!r}: {proc.stderr.read() if proc.poll() is not None else ''}"
        with Session.connect(f"{m.group(1)}:{m.group(2)}", "k") as s:
            roots = dict(zip((rec["entity"] for rec in s.root_records("people")), s.roots("people")))
            queries = {
                "product": s.product_of([roots[f"p{j}"] + 1.0 for j in range(8)]),
                "square": s.sum_of([roots[f"s{j:02d}"] for j in range(12)]) ** 2,
            }
            for name, sigma in (("product", 1e6), ("square", 1e4)):
                rehearsal = s.simulate(queries[name], sigma)
                assert rehearsal.passed
                got = [(sp["entity"], sp["lipschitz"], sp["rho"]) for sp in rehearsal.spends]
                assert got == expected[name]
                receipt = s.publish(queries[name], sigma)
                assert [(sp["entity"], sp["lipschitz"], sp["rho"]) for sp in receipt.spends] == got
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
    assert proc.returncode == 0
