"""Start, watch and stop pscalar node processes for one benchmark run.

Every node runs from the checkout's own ``src`` tree, either through the
program's entry point (``python -m pscalar node serve``) or through the
tracing launcher in this directory.  A ``NodePool`` owns every process it
starts and the run directory that holds their journals: leaving its ``with``
block stops each node and deletes that directory, also on a failed check,
an exception or an interrupt.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class NodeStartError(RuntimeError):
    """The node exited or stayed silent before announcing its address."""


class NodeProcess:
    def __init__(self, proc: subprocess.Popen, log_path: Path):
        self.proc = proc
        self.log_path = log_path
        self.addr: tuple[str, int] | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_listening(self) -> tuple[str, int]:
        """Block until the node prints its listening line; return host, port."""
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise NodeStartError(f"node silent for {START_TIMEOUT_S:.0f} s; see {self.log_path}")
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise NodeStartError(f"node exited during start: {self.log_tail()}")
            buf += chunk
        line = buf.split(b"\n", 1)[0].decode("utf-8", "replace")
        _, _, hostport = line.rpartition(" ")
        host, _, port = hostport.rpartition(":")
        if not line.startswith("pscalar-node listening on") or not port.isdigit():
            raise NodeStartError(f"unexpected first line from node: {line!r}")
        self.addr = (host, int(port))
        return self.addr

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the node so far, from /proc/<pid>/stat."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rfind(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """The node's resident-set high-water mark (VmHWM) in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self, kill: bool = False) -> None:
        """SIGINT (the node's own clean shutdown), then SIGKILL if it lingers;
        with ``kill``, SIGKILL at once."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class NodePool:
    """Owner of a run directory and of every node started inside it."""

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.run_dir = run_dir
        self._live: list[NodeProcess] = []
        self._env = dict(os.environ)
        src = str(root / "src")
        old = self._env.get("PYTHONPATH")
        self._env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        # pscalar makes no BLAS calls, but importing numpy starts an OpenBLAS
        # worker per CPU that spins during the node's start; on a 2-vCPU VM it
        # added ~80 ms to each start and made that sum depend on the host.
        self._env["OPENBLAS_NUM_THREADS"] = "1"

    def __enter__(self) -> "NodePool":
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
        self.run_dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.stop_all()
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            try:
                self.run_dir.parent.rmdir()  # only when no other run is using it
            except OSError:
                pass

    def start(self, serve_args: list[str], log_name: str, trace_out: Path | None = None) -> NodeProcess:
        """Launch ``pscalar-node serve`` with the given arguments, untraced or traced."""
        if trace_out is None:
            argv = [sys.executable, "-m", "pscalar", "node", "serve", *serve_args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_out), *serve_args]
        log_path = self.run_dir / log_name
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self._env, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL,
            )
        node = NodeProcess(proc, log_path)
        self._live.append(node)
        return node

    def stop(self, node: NodeProcess, kill: bool = False) -> None:
        try:
            node.stop(kill)
        finally:
            if node in self._live:
                self._live.remove(node)

    def stop_all(self) -> None:
        while self._live:
            self.stop(self._live[-1])
