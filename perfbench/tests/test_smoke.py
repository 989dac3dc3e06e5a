"""Each workload at smoke size, untraced and traced, end to end over TCP."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["mean_wide", "corner_exact", "budget_drain"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct(workload, trace):
    proc = run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
    assert not list((BENCH / ".run").glob(f"{workload}-5-*"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".run", ".out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
                           "mean_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_unexpected_refusal_fails_the_run(tmp_path):
    """A release refused where the workload expects none (here: a sigma far
    too small for the budget) makes the run incorrect and counts as failed."""
    script = tmp_path / "tiny_sigma.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import run, workloads\n"
        "init = workloads.MeanWide.__init__\n"
        "def tiny_sigma(self, sizes, seed):\n"
        "    init(self, sizes, seed)\n"
        "    self.sigma_mean = 1e-3\n"
        "workloads.MeanWide.__init__ = tiny_sigma\n"
        "sys.exit(run.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run([sys.executable, str(script), "--workload", "mean_wide", "--seed", "5",
                           "--seconds", "0", "--trace", "0", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "PublishRejectedError" in proc.stderr
    assert not list((BENCH / ".run").glob("mean_wide-5-*"))
