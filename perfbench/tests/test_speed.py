"""The host-speed scaling of speed.py, with the probe replaced by fixed times.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402


def fixed_probes(monkeypatch, *seconds):
    it = iter(seconds)
    monkeypatch.setattr(speed, "probe", lambda: next(it))


def test_each_stretch_is_scaled_by_the_mean_of_its_two_probes(monkeypatch):
    fixed_probes(monkeypatch, 1e-3, 3e-3, 2e-3)
    track = speed.SpeedTrack()
    track.sample()
    track.add("publish", 0.5)
    track.sample()
    track.add("publish", 0.25)
    track.sample()
    assert track.measured["publish"] == 0.75
    assert track.scaled["publish"] == pytest.approx(0.5 * 2e-3 / 2e-3 + 0.25 * 2e-3 / 2.5e-3)
    assert track.factor("publish") == pytest.approx(track.scaled["publish"] / 0.75)


def test_wall_time_leaves_out_the_probes(monkeypatch):
    def slow_probe():
        time.sleep(0.05)
        return speed.REF_PROBE_S

    monkeypatch.setattr(speed, "probe", slow_probe)
    track = speed.SpeedTrack()
    track.sample()
    time.sleep(0.02)
    track.sample()
    assert 0.02 <= track.measured["wall"] < 0.045
    assert track.scaled["wall"] == pytest.approx(track.measured["wall"])
    assert track.probe_s >= 0.1


def test_a_node_busy_during_the_probes_fails_the_idle_check(monkeypatch):
    fixed_probes(monkeypatch, 2e-3, 2e-3)
    cpu = iter([0.0, 0.0, 0.0, 0.5])
    track = speed.SpeedTrack(node_cpu=lambda: next(cpu))
    track.sample()
    assert track.node_was_idle()
    track.sample()
    assert not track.node_was_idle()


def test_the_probe_times_the_loop():
    assert 0.0 < speed.probe(loops=1) < 1.0
