"""Budget accounting: spend formula, conversion, ledger, filter, calibration."""

from __future__ import annotations

import datetime
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RawSink, TornFile, random_scalar
from oracles import analytic_rho_for_eps, analytic_sigma, closed_form_eps, golden_eps, rho_cap
from pscalar import accounting
from pscalar.accounting import (
    BudgetPolicy,
    CalibrationError,
    FilterDecision,
    LedgerError,
    PrivacyLedger,
    RdpSpend,
    calibrate_sigma,
    filter_check,
    least_remaining,
    rdp_to_dp,
    remaining_budget,
    spend_for_publish,
)
from pscalar.poly import VarId
from pscalar.scalar import PrivateScalar


def mk(entity, value, lo, hi, attribute=""):
    return PrivateScalar.make_private(entity, value, lo, hi, attribute=attribute)


# -- spend formula ---------------------------------------------------------------------


def test_spend_single_entity_frozen():
    # one entity, slope 1, clipped value 50, sigma 50: rho = 50^2 / (2*50^2) = 0.5
    solo = mk("solo", 50.0, 0.0, 50.0)
    (spend,) = spend_for_publish(solo, 50.0)
    assert spend.rho == 0.5
    assert spend.lipschitz == 1.0
    assert solo.inputs[VarId("solo")].clipped == 50.0
    assert spend.entity == VarId("solo")


def test_spend_uses_clipped_value():
    over = mk("A", 130.0, 0.0, 122.0)
    (spend,) = spend_for_publish(over, 122.0)
    assert over.inputs[VarId("A")].clipped == 122.0
    assert spend.rho == (122.0 * 122.0) / (2.0 * 122.0 * 122.0)  # = 0.5


def test_spend_zero_value_zero_cost():
    (spend,) = spend_for_publish(mk("A", 0.0, 0.0, 10.0), 5.0)
    assert spend.rho == 0.0


def test_spend_scaling_with_sigma():
    f = mk("A", 40.0, 0.0, 100.0)
    (s1,) = spend_for_publish(f, 10.0)
    (s2,) = spend_for_publish(f, 20.0)
    assert s1.rho == pytest.approx(4.0 * s2.rho, rel=1e-15)


def test_spends_sorted_and_per_variable():
    f = mk("B", 1.0, 0.0, 2.0) + mk("A", 1.0, 0.0, 2.0) + mk("A", 2.0, 0.0, 5.0, "kg")
    spends = spend_for_publish(f, 3.0)
    labels = [s.entity.label() for s in spends]
    assert labels == sorted(labels)
    assert labels == ["A", "A:kg", "B"]


def test_spend_uses_removal_widened_slope():
    # f = (A-3)^2, A in [1,2]: plain slope bound 4, through-origin bound 6.
    # the spend must use 6 (removal replaces the value with 0).
    f = (mk("A", 1.5, 1.0, 2.0) + PrivateScalar.from_public(-3.0)) ** 2
    (spend,) = spend_for_publish(f, 1.0)
    assert spend.lipschitz == 6.0
    assert spend.rho == (6.0 * 1.5) ** 2 / 2.0


def test_spend_sigma_validation():
    f = mk("A", 1.0, 0.0, 2.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            spend_for_publish(f, bad)


# -- conversion ------------------------------------------------------------------------


def test_conversion_matches_golden_oracle():
    for rho in (1e-8, 1e-5, 1e-3, 0.01, 0.1, 0.5, 1.0, 5.0, 42.0, 1000.0):
        for delta in (1e-5, 1e-6, 1e-8, 1e-10):
            got = rdp_to_dp(rho, delta)
            want = golden_eps(rho, delta)
            assert got == pytest.approx(want, rel=1e-9), (rho, delta)
            # never below the true optimum, never above the closed form
            assert got >= want - 1e-9 * want
            assert got <= closed_form_eps(rho, delta) + 1e-9 * want


def test_conversion_frozen_values():
    assert rdp_to_dp(0.5, 1e-6) == pytest.approx(5.756521769756931, rel=1e-12)
    assert rdp_to_dp(0.0, 1e-6) == 0.0


def test_conversion_monotonicity():
    rnd = random.Random(99)
    rhos = sorted(rnd.uniform(1e-6, 10.0) for _ in range(50))
    eps = [rdp_to_dp(r, 1e-6) for r in rhos]
    assert all(a <= b + 1e-12 for a, b in zip(eps, eps[1:]))
    # stricter delta costs more
    assert rdp_to_dp(0.3, 1e-9) > rdp_to_dp(0.3, 1e-5)


_RHO_GRID = (0.0, 5e-324, 1e-12, 1e-3, 0.1234567, 0.5, 1.0, 7.25, 42.0, 1e6, 1e200)
_DELTA_GRID = (1e-300, 1e-12, 1e-6, 1e-5, 0.01, 0.5, 0.999999)


def test_conversion_with_its_log_taken_once_is_bit_identical():
    for delta in _DELTA_GRID:
        for rho in _RHO_GRID:
            # the formula rdp_to_dp has always computed, log(1/delta) inside
            want = (rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))).hex()
            assert rdp_to_dp(rho, delta).hex() == want


def test_filter_and_remaining_budget_convert_as_rdp_to_dp():
    for delta in _DELTA_GRID:
        for rho in _RHO_GRID:
            led = PrivacyLedger()
            led.record([_spend("A", rho)])
            want = rdp_to_dp(rho + 0.25, delta)
            tight = BudgetPolicy(eps_cap=math.nextafter(want, 0.0), delta=delta)
            ((entity, projected),) = filter_check(led, [_spend("A", 0.25)], tight).violations
            assert entity == "A" and projected.hex() == want.hex()
            assert filter_check(led, [_spend("A", 0.25)], BudgetPolicy(want, delta)).ok
            cap = 2.0 * rdp_to_dp(rho, delta) + 1.0
            left = remaining_budget(led, "A", BudgetPolicy(cap, delta))
            assert left.hex() == (cap - rdp_to_dp(rho, delta)).hex()


def test_conversion_validation():
    with pytest.raises(ValueError):
        rdp_to_dp(-0.1, 1e-6)
    for bad_delta in (0.0, 1.0, 2.0, -1e-6):
        with pytest.raises(ValueError):
            rdp_to_dp(0.5, bad_delta)


def test_policy_validation():
    BudgetPolicy(eps_cap=1.0, delta=1e-6)
    with pytest.raises(ValueError):
        BudgetPolicy(eps_cap=0.0, delta=1e-6)
    with pytest.raises(ValueError):
        BudgetPolicy(eps_cap=1.0, delta=1.5)


@pytest.mark.parametrize("delta", [1e-310, 5e-324])
def test_a_delta_whose_inverse_overflows_is_refused(delta):
    # 1/delta overflows below about 5.6e-309: the conversion read nan and the
    # policy's cap 0.0, so every remaining budget read 0.0
    assert math.isinf(1.0 / delta)
    with pytest.raises(ValueError, match="finite inverse"):
        rdp_to_dp(0.0, delta)
    with pytest.raises(ValueError, match="finite inverse"):
        BudgetPolicy(2.0, delta)
    # the smallest normal delta still converts
    assert 0.0 < BudgetPolicy(2.0, 2.2250738585072014e-308).rho_cap < 2.0


# -- ledger ----------------------------------------------------------------------------


def _spend(entity, rho, attribute=""):
    return RdpSpend(VarId(entity, attribute), rho, 1.0)


def test_ledger_record_and_totals():
    led = PrivacyLedger()
    led.record([_spend("A", 0.25), _spend("B", 0.5)])
    led.record([_spend("A", 0.25)])
    assert led.total("A") == 0.5
    assert led.total("B") == 0.5
    assert led.total("missing") == 0.0
    assert led.entities() == frozenset({"A", "B"})


def test_ledger_aggregates_attributes_per_entity():
    led = PrivacyLedger()
    led.record([_spend("A", 0.1), _spend("A", 0.2, "kg")])
    assert led.total("A") == pytest.approx(0.30000000000000004, abs=0.0)  # plain float sum
    assert led.entities() == frozenset({"A"})


def test_ledger_journal_roundtrip(tmp_path):
    path = tmp_path / "ledger.log"
    led = PrivacyLedger(journal_path=path)
    led.record([_spend("A", 1.0 / 3.0), _spend("B", 0.1)])
    led.record([_spend("A", 0.2)])
    # journal is tab-separated: publish_id, entity, rho (%.17g), timestamp
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        pid, entity, rho, ts = line.split("\t")
        assert pid.startswith("p")
        float(rho)
        assert "T" in ts
    assert lines[0].split("\t")[2] == "%.17g" % (1.0 / 3.0)
    replayed = PrivacyLedger.replayed(path)
    assert replayed.snapshot_bytes() == led.snapshot_bytes()
    assert replayed.cumulative == led.cumulative
    # ids continue after the replayed prefix
    assert replayed.record([_spend("A", 0.1)]) == "p000003"
    led.close()


def test_ledger_journal_resume_appends(tmp_path):
    path = tmp_path / "ledger.log"
    led = PrivacyLedger(journal_path=path)
    led.record([_spend("A", 0.25)])
    led.close()
    led2 = PrivacyLedger(journal_path=path)  # picks up existing state
    assert led2.total("A") == 0.25
    led2.record([_spend("A", 0.25)])
    led2.close()
    assert PrivacyLedger.replayed(path).total("A") == 0.5


def test_closed_journal_refuses_records(tmp_path):
    path = tmp_path / "ledger.log"
    led = PrivacyLedger(journal_path=path)
    led.record([_spend("A", 0.1)])
    led.close()
    before = led.snapshot_bytes()
    with pytest.raises(LedgerError):
        led.record([_spend("A", 0.1)])
    # memory and journal still agree, so a restart charges what was charged
    assert led.snapshot_bytes() == before
    assert PrivacyLedger.replayed(path).snapshot_bytes() == before
    # a ledger without a journal has nothing to fall behind
    mem = PrivacyLedger()
    mem.close()
    mem.record([_spend("A", 0.1)])
    assert mem.total("A") == 0.1


@pytest.mark.parametrize("bad", ["x\ty", "x\ny", "x\ry", "x\x0by", "x\x1cy", "x\x85y", "x\u2029y"])
def test_ledger_refuses_an_entity_id_its_journal_cannot_hold(tmp_path, bad):
    # replay splits a journal into lines with str.splitlines and a line into
    # four fields at tabs, so such an id would leave a journal no node can reopen
    from pscalar.mechanism import GaussianNoiseSource, publish, simulate_publish

    path = tmp_path / "ledger.log"
    pol = BudgetPolicy(eps_cap=2.0, delta=1e-6)
    led = PrivacyLedger(journal_path=path)
    publish(mk("ok", 1.0, 0.0, 1.0), 10.0, led, pol, GaussianNoiseSource(seed=1))
    journal, totals, snapshot = path.read_text(), led.cumulative, led.snapshot_bytes()
    query = mk("ok", 1.0, 0.0, 1.0) + mk(bad, 1.0, 0.0, 1.0)
    fork = led.fork_simulated()
    with pytest.raises(LedgerError):  # a rehearsal refuses as its release does
        simulate_publish(query, 10.0, fork, pol)
    with pytest.raises(LedgerError):
        publish(query, 10.0, led, pol, GaussianNoiseSource(seed=1))
    assert fork.snapshot_bytes() == snapshot
    assert (path.read_text(), led.cumulative, led.snapshot_bytes()) == (journal, totals, snapshot)
    led.close()
    assert PrivacyLedger.replayed(path).snapshot_bytes() == snapshot


def test_publish_ids_never_repeat_across_a_restart(tmp_path):
    # a refused release writes nothing and takes no id, and replay resumes after
    # the largest id it read; an input-less scalar has no spend, so no journal
    # line would hold its id, and it is refused
    from pscalar.mechanism import GaussianNoiseSource, publish, simulate_publish

    pol, noise = BudgetPolicy(eps_cap=2.0, delta=1e-6), GaussianNoiseSource(seed=1)
    for n, refused in enumerate((mk("b\tc", 1.0, 0.0, 1.0), PrivateScalar.from_public(3.0))):
        path = tmp_path / f"ledger-{n}.log"
        led = PrivacyLedger(journal_path=path)
        ids = [publish(mk("a", 1.0, 0.0, 1.0), 10.0, led, pol, noise).publish_id]
        journal, snapshot = path.read_bytes(), led.snapshot_bytes()
        with pytest.raises(LedgerError):
            publish(refused, 10.0, led, pol, noise)
        with pytest.raises(LedgerError):
            simulate_publish(refused, 10.0, led.fork_simulated(), pol)
        assert (path.read_bytes(), led.snapshot_bytes()) == (journal, snapshot)
        ids.append(publish(mk("a", 1.0, 0.0, 1.0), 10.0, led, pol, noise).publish_id)
        led.close()
        led = PrivacyLedger(journal_path=path)
        ids.append(publish(mk("a", 1.0, 0.0, 1.0), 10.0, led, pol, noise).publish_id)
        led.close()
        assert ids == ["p000001", "p000002", "p000003"]
        assert [line.split("\t")[0] for line in path.read_text().splitlines()] == ids


def test_journal_records_land_whole_through_short_writes(tmp_path):
    path = tmp_path / "ledger.log"
    led = PrivacyLedger(journal_path=path)
    led.record([_spend("A", 1.0 / 3.0), _spend("B", 0.1)])
    led._journal.close()
    for limit in (None, 3):
        led._journal = sink = RawSink(limit)
        led.record([_spend("A", 0.2), _spend("\u00e9", 0.5)])
        led.record([_spend("B", 0.7)])
        lines = sink.data.decode("utf-8").splitlines(keepends=True)
        # one write per record, or per three bytes of it when writes come up short
        records = ["".join(lines[:2]).encode(), lines[2].encode()]
        assert sink.calls == (2 if limit is None else sum(-(-len(r) // 3) for r in records))
        n = 2 if limit is None else 4
        assert [line.split("\t")[:3] for line in lines] == [
            [f"p{n:06d}", "A", "%.17g" % 0.2],
            [f"p{n:06d}", "\u00e9", "0.5"],
            [f"p{n + 1:06d}", "B", "%.17g" % 0.7],
        ]
        with open(path, "ab") as f:
            f.write(sink.data)
    assert PrivacyLedger.replayed(path).snapshot_bytes() == led.snapshot_bytes()
    # a failed append charges nothing and takes no id: memory still equals the replay
    before = led.snapshot_bytes()
    led._journal = RawSink(fail=True)
    with pytest.raises(OSError, match="No space left"):
        led.record([_spend("A", 0.1)])
    assert led.snapshot_bytes() == before == PrivacyLedger.replayed(path).snapshot_bytes()
    led._journal = RawSink()
    assert led.record([_spend("A", 0.1)]) == "p000006"


@pytest.mark.parametrize("take", [1, 17, 40])
def test_a_failed_append_leaves_no_partial_line(tmp_path, take):
    # the second release's first write takes ``take`` bytes and the next one
    # fails: the file is cut back, so the release after it lands on a line of its own
    path = tmp_path / "ledger.log"
    led = PrivacyLedger(journal_path=path)
    led.record([_spend("A", 0.25)])
    before = path.read_bytes()
    led._journal.close()
    led._journal = TornFile(path, take)
    with pytest.raises(OSError, match="No space left"):
        led.record([_spend("A", 0.5), _spend("B", 0.125)])
    assert path.read_bytes() == before
    assert PrivacyLedger.replayed(path).snapshot_bytes() == led.snapshot_bytes()
    assert led.record([_spend("B", 0.25)]) == "p000002"
    lines = path.read_text().splitlines()
    assert [line.split("\t")[:3] for line in lines] == [["p000001", "A", "0.25"], ["p000002", "B", "0.25"]]
    assert PrivacyLedger.replayed(path).snapshot_bytes() == led.snapshot_bytes()
    led.close()


def test_a_journal_it_cannot_cut_back_closes(tmp_path):
    path = tmp_path / "ledger.log"
    led = PrivacyLedger(journal_path=path)
    led.record([_spend("A", 0.25)])
    before = path.read_bytes()
    led._journal.close()
    led._journal = TornFile(path, 17, stuck=True)
    with pytest.raises(OSError, match="Input/output error"):
        led.record([_spend("A", 0.5)])
    torn = path.read_bytes()
    assert torn == before + b"p000002\tA\t0.5\t202"
    # no later release joins the partial line: each is refused and memory stays put
    with pytest.raises(LedgerError, match="closed"):
        led.record([_spend("B", 0.25)])
    assert path.read_bytes() == torn
    assert led.snapshot_bytes() == b"A\t0.25\n"


def test_a_torn_last_journal_line_is_never_a_record(tmp_path):
    # what a stuck cut-back leaves: replay skips it, and opening the journal
    # cuts it off, so the next release gets a line of its own at each restart
    path = tmp_path / "ledger.log"
    led = PrivacyLedger(journal_path=path)
    led.record([_spend("A", 0.25)])
    before = path.read_bytes()
    led._journal.close()
    led._journal = TornFile(path, 17, stuck=True)
    with pytest.raises(OSError, match="Input/output error"):
        led.record([_spend("A", 0.5)])
    assert path.read_bytes() == before + b"p000002\tA\t0.5\t202"
    assert PrivacyLedger.replayed(path).snapshot_bytes() == b"A\t0.25\n"
    for restart, (entity, rho) in enumerate((("B", 0.125), ("A", 0.5)), start=1):
        led = PrivacyLedger(journal_path=path)
        assert path.read_bytes().endswith(b"\n")
        assert PrivacyLedger.replayed(path).snapshot_bytes() == led.snapshot_bytes()
        assert led.record([_spend(entity, rho)]) == f"p{restart + 1:06d}"
        led.close()
    assert [line.split("\t")[:3] for line in path.read_text().splitlines()] == [
        ["p000001", "A", "0.25"], ["p000002", "B", "0.125"], ["p000003", "A", "0.5"]
    ]
    assert PrivacyLedger.replayed(path).snapshot_bytes() == b"A\t0.75\nB\t0.125\n"
    # a journal that is one torn line holds no record
    path.write_bytes(b"p000001\tA\t0.5\t2026-10")
    led = PrivacyLedger(journal_path=path)
    assert (path.read_bytes(), led.snapshot_bytes(), led.record([_spend("A", 0.1)])) == (
        b"", b"", "p000001"
    )
    led.close()


def _datetime_iso(ns):
    epoch = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
    return (epoch + datetime.timedelta(microseconds=ns // 1000)).isoformat(timespec="microseconds")


_LAST_NS_OF_9999 = 253_402_300_799_999_999_999


def test_iso_text_matches_datetime_across_boundaries():
    # each pair steps over a second, a day, a year or a leap day, in order, so
    # the cached second must be replaced at every step
    edges = [
        0, 999, 1_000, 999_999_999, 1_000_000_000,
        86_399_999_999_999, 86_400_000_000_000,
        946_684_799_999_999_000, 946_684_800_000_000_000,
        951_782_399_999_999_999, 951_782_400_000_000_000,
        1_704_067_199_999_999_999, 1_704_067_200_000_000_000,
        _LAST_NS_OF_9999,
    ]
    assert [accounting._iso_utc(ns) for ns in edges] == [_datetime_iso(ns) for ns in edges]
    before = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="microseconds")
    now = accounting._now_iso()
    after = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="microseconds")
    assert before <= now <= after


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=_LAST_NS_OF_9999))
def test_iso_text_matches_datetime(ns):
    assert accounting._iso_utc(ns) == _datetime_iso(ns)


def test_ledger_rejects_malformed_journal(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text("p000001\tA\tnot-a-number\t2026-01-01T00:00:00+00:00\n")
    with pytest.raises(LedgerError):
        PrivacyLedger.replayed(path)
    path.write_text("p000001\tA\n")
    with pytest.raises(LedgerError):
        PrivacyLedger.replayed(path)
    # no record writes these; a NaN total would pass every filter, as nan > cap is False
    for rho in ("nan", "inf", "-1.0"):
        path.write_text(
            "p000001\tA\t0.5\t2026-01-01T00:00:00+00:00\n"
            f"p000002\tA\t{rho}\t2026-01-01T00:00:01+00:00\n"
        )
        with pytest.raises(LedgerError, match="journal line 2"):
            PrivacyLedger.replayed(path)
        with pytest.raises(LedgerError, match="journal line 2"):
            PrivacyLedger(journal_path=path)


def test_snapshot_bytes_sorted_and_stable():
    led = PrivacyLedger()
    led.record([_spend("zz", 0.1), _spend("aa", 0.2)])
    snap = led.snapshot_bytes()
    assert snap == b"aa\t0.20000000000000001\nzz\t0.10000000000000001\n"


def test_ledger_refuses_an_unknown_mode_and_a_journaled_simulation(tmp_path):
    with pytest.raises(LedgerError, match="unknown ledger mode"):
        PrivacyLedger(mode="x")
    with pytest.raises(LedgerError, match="never journal"):
        PrivacyLedger(mode=PrivacyLedger.SIMULATED, journal_path=tmp_path / "ledger.log")
    assert not (tmp_path / "ledger.log").exists()


def test_fork_is_isolated_and_journal_free(tmp_path):
    path = tmp_path / "ledger.log"
    led = PrivacyLedger(journal_path=path)
    led.record([_spend("A", 0.1)])
    fork = led.fork_simulated()
    assert fork.mode == PrivacyLedger.SIMULATED
    assert fork.cumulative == led.cumulative
    fork.record([_spend("A", 5.0)])
    assert led.total("A") == 0.1
    assert fork.total("A") == pytest.approx(5.1)
    # the parent journal never saw the fork's activity
    assert len(path.read_text().splitlines()) == 1
    led.close()


def test_cumulative_is_a_copy():
    led = PrivacyLedger()
    led.record([_spend("A", 0.1)])
    led.cumulative["A"] = 999.0
    assert led.total("A") == 0.1


def test_ledger_memory_does_not_grow_with_releases():
    # memory holds one total per entity; only the journal keeps each release
    spends = [_spend(f"e{i:04d}", 1e-6) for i in range(1000)]
    led = PrivacyLedger()
    led.record(spends)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            led.record(spends)
        fork = led.fork_simulated()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert fork.snapshot_bytes() == led.snapshot_bytes()
    assert grown < 200_000, grown


# -- the policy's rho cap --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    eps_cap=st.floats(min_value=5e-324, max_value=1.7e308),
    delta=st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
    t=st.floats(min_value=0.0, max_value=1.7e308),
)
def test_rho_cap_decides_exactly_as_the_conversion(eps_cap, delta, t):
    policy = BudgetPolicy(eps_cap, delta)
    cap = policy.rho_cap
    for total in (t, cap, math.nextafter(cap, -math.inf), math.nextafter(cap, math.inf)):
        if 0.0 <= total < math.inf:
            assert (total <= cap) == (rdp_to_dp(total, delta) <= eps_cap), total.hex()


@settings(max_examples=100, deadline=None)
@given(
    eps_cap=st.floats(min_value=1e-6, max_value=1e6),
    delta=st.floats(min_value=1e-300, max_value=0.5),
    shares=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
def test_filter_converts_only_the_entities_it_refuses(eps_cap, delta, shares):
    policy = BudgetPolicy(eps_cap, delta)
    cap = policy.rho_cap
    led = PrivacyLedger()
    names = [f"e{i}" for i in range(len(shares))]
    led.record([_spend(n, share * cap / 2.0) for n, share in zip(names, shares)])
    under = [_spend(n, share * cap / 2.0) for n, share in zip(names, shares)] + [_spend("x", cap)]
    calls = []

    def counted(*args):
        calls.append(args)
        return rdp_to_dp(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accounting, "rdp_to_dp", counted)
        assert filter_check(led, under, policy).ok
        assert calls == []
        over = filter_check(led, [_spend("x", cap), _spend("x", cap * 1e-6 + 1e-300)], policy)
    assert [e for e, _ in over.violations] == ["x"] and len(calls) == 1


def test_policy_cap_search_is_fast_at_the_float_extremes():
    for eps_cap, delta in ((1.7e308, 1e-300), (5e-324, 1e-6)):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            policy = BudgetPolicy(eps_cap, delta)
            best = min(best, time.perf_counter() - start)
        assert best < 0.010, (eps_cap, delta, best)
        cap = policy.rho_cap
        assert rdp_to_dp(cap, delta) <= eps_cap < rdp_to_dp(math.nextafter(cap, math.inf), delta)
    # the closed form (sqrt(eps + L) - sqrt(L))^2 is about 1.7e308 here; the true cap is far lower
    assert BudgetPolicy(1.7e308, 1e-300).rho_cap == pytest.approx(2.6024e305, rel=1e-4)


# -- filter ----------------------------------------------------------------------------


def test_filter_pass_and_reject_frozen():
    pol = BudgetPolicy(eps_cap=3.0, delta=1e-6)
    led = PrivacyLedger()
    cap = rho_cap(3.0, 1e-6)  # ~0.147264
    ok = filter_check(led, [_spend("A", cap * 0.99)], pol)
    assert ok == FilterDecision(True, ())
    bad = filter_check(led, [_spend("A", cap * 1.01)], pol)
    assert not bad.ok
    assert [v[0] for v in bad.violations] == ["A"]
    assert bad.violations[0][1] > 3.0


def test_filter_is_pure():
    pol = BudgetPolicy(eps_cap=1.0, delta=1e-6)
    led = PrivacyLedger()
    led.record([_spend("A", 0.01)])
    before = led.snapshot_bytes()
    filter_check(led, [_spend("A", 100.0)], pol)
    filter_check(led, [_spend("A", 1e-9)], pol)
    assert led.snapshot_bytes() == before


def test_filter_aggregates_same_entity_within_release():
    pol = BudgetPolicy(eps_cap=3.0, delta=1e-6)
    cap = rho_cap(3.0, 1e-6)
    led = PrivacyLedger()
    # two attributes of one entity, each individually under the cap,
    # together over it: must reject
    spends = [_spend("A", cap * 0.6), _spend("A", cap * 0.6, "kg")]
    decision = filter_check(led, spends, pol)
    assert not decision.ok and decision.violations[0][0] == "A"


def test_filter_decides_on_the_total_record_stores():
    # t + (a + b) <= cap < (t + a) + b, and the ledger holds (t + a) + b: refused,
    # as that total converts to eps 2.0000000000000004 > 2
    pol = BudgetPolicy(eps_cap=2.0, delta=1e-6)
    assert pol.rho_cap == 0.06757388167314404
    led = PrivacyLedger()
    led.record([_spend("A", 0.03347847195187463)])
    spends = [_spend("A", 0.015325582020021681, "x"), _spend("A", 0.01876982770124774, "y")]
    decision = filter_check(led, spends, pol)
    led.record(spends)
    assert led.total("A") == 0.06757388167314406 > pol.rho_cap
    assert decision.violations == (("A", rdp_to_dp(led.total("A"), pol.delta)),)
    assert decision.violations[0][1] > pol.eps_cap


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),  # prior total, as a share of the cap
            st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=3),
            st.integers(min_value=-3, max_value=3),  # ulps off an even split of the headroom
        ),
        min_size=1,
        max_size=4,
    )
)
def test_filter_admits_exactly_the_totals_record_stores(tmp_path_factory, entities):
    # 1-3 attributes per entity that together fill its headroom to within a few ulps
    pol = BudgetPolicy(eps_cap=2.0, delta=1e-6)
    cap = pol.rho_cap
    path = tmp_path_factory.mktemp("journal") / "ledger.log"
    led = PrivacyLedger(journal_path=path)
    spends = []
    for i, (prior, weights, ulps) in enumerate(entities):
        if prior > 0.0:
            led.record([_spend(f"e{i}", prior * cap)])
        parts = [(cap - led.total(f"e{i}")) * w / sum(weights) for w in weights]
        for _ in range(abs(ulps)):
            parts[-1] = math.nextafter(parts[-1], math.copysign(math.inf, ulps))
        spends += [_spend(f"e{i}", max(part, 0.0), f"a{k}") for k, part in enumerate(parts)]
    computed = led.totals_after(spends)
    decision = filter_check(led, spends, pol)
    led.record(spends)
    after = {e: led.total(e) for e in computed}
    assert decision.ok == all(total <= cap for total in after.values())
    assert after == computed
    assert decision.violations == tuple(
        (e, rdp_to_dp(total, pol.delta)) for e, total in sorted(after.items()) if total > cap
    )
    led.close()
    assert PrivacyLedger.replayed(path).snapshot_bytes() == led.snapshot_bytes()


def test_filter_counts_existing_ledger_state():
    pol = BudgetPolicy(eps_cap=3.0, delta=1e-6)
    cap = rho_cap(3.0, 1e-6)
    led = PrivacyLedger()
    led.record([_spend("A", cap * 0.7)])
    assert filter_check(led, [_spend("A", cap * 0.2)], pol).ok
    assert not filter_check(led, [_spend("A", cap * 0.4)], pol).ok


def test_remaining_budget_frozen():
    pol = BudgetPolicy(eps_cap=6.0, delta=1e-6)
    led = PrivacyLedger()
    assert remaining_budget(led, "A", pol) == 6.0
    led.record([_spend("A", 0.5)])
    assert remaining_budget(led, "A", pol) == pytest.approx(6.0 - golden_eps(0.5, 1e-6), rel=1e-9)
    led.record([_spend("A", 50.0)])
    assert remaining_budget(led, "A", pol) == 0.0  # clamped, never negative


_POLICY = BudgetPolicy(eps_cap=6.0, delta=1e-6)


def _totals_pool():
    """Totals that tie: one ulp apart with the same epsilon, at and over the cap, and zero."""
    cap = _POLICY.rho_cap
    pool = [0.0, cap, math.nextafter(cap, 0.0), math.nextafter(cap, math.inf), 2 * cap, 1e6]
    for t in (0.01, 0.5, 3.0):
        up = math.nextafter(t, math.inf)
        while rdp_to_dp(up, _POLICY.delta) == rdp_to_dp(t, _POLICY.delta):
            pool.append(up)  # a neighbour no conversion tells apart from t
            up = math.nextafter(up, math.inf)
        pool += [t, up]
    return pool


_POOL = _totals_pool()


def remaining_budget_of(total):
    led = PrivacyLedger()
    led.record([_spend("e", total)])
    return remaining_budget(led, "e", _POLICY)


def test_the_totals_pool_holds_distinct_totals_that_convert_alike():
    eps_of = {t: remaining_budget_of(t) for t in _POOL}
    assert len(set(_POOL)) > len(set(eps_of.values()))
    assert any(a != b and eps_of[a] == eps_of[b] > 0.0 for a in _POOL for b in _POOL)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.text("abcdef", min_size=1, max_size=2), st.sampled_from(_POOL),
                    min_size=1, max_size=12),
    st.sets(st.text("abcdef", min_size=1, max_size=2), max_size=4),
)
def test_least_remaining_is_the_min_over_every_entity(charged, untouched):
    led = PrivacyLedger()
    for e, total in charged.items():
        led.record([_spend(e, total)])
    known = set(charged) | untouched
    want = min((remaining_budget(led, e, _POLICY), e) for e in known)
    assert least_remaining(led.cumulative, known, _POLICY) == want


def test_least_remaining_converts_only_the_totals_it_needs(monkeypatch):
    calls = []
    convert = accounting.rdp_to_dp
    monkeypatch.setattr(accounting, "rdp_to_dp", lambda rho, delta: calls.append(rho) or
                        convert(rho, delta))
    totals = {f"e{i:03d}": 0.001 * i for i in range(280)}
    assert least_remaining(totals, totals, _POLICY)[1] == "e279"
    assert calls == [totals["e279"], totals["e278"]]


# -- calibration -----------------------------------------------------------------------


def test_calibrate_single_entity_matches_analytic_inverse():
    # slope 1, clipped value 50; cap chosen so the analytic answer is sigma=50
    eps = golden_eps(0.5, 1e-6)
    pol = BudgetPolicy(eps_cap=eps, delta=1e-6)
    target = mk("solo", 50.0, 0.0, 50.0)
    led = PrivacyLedger()
    sigma = calibrate_sigma(target, led, pol)
    assert sigma == pytest.approx(analytic_sigma(50.0, eps, 1e-6), rel=1e-3)
    # the answer actually passes the real filter...
    assert filter_check(led, spend_for_publish(target, sigma), pol).ok
    # ...and meaningfully less noise does not
    assert not filter_check(led, spend_for_publish(target, sigma / 1.001), pol).ok


def test_calibrate_respects_prior_spends():
    eps = golden_eps(0.5, 1e-6)
    pol = BudgetPolicy(eps_cap=eps, delta=1e-6)
    target = mk("solo", 50.0, 0.0, 50.0)
    fresh = PrivacyLedger()
    sigma_fresh = calibrate_sigma(target, fresh, pol)
    spent = PrivacyLedger()
    spent.record([_spend("solo", 0.25)])
    sigma_spent = calibrate_sigma(target, spent, pol)
    assert sigma_spent > sigma_fresh  # less budget left -> more noise needed


def test_calibrate_blocked_entity_error():
    pol = BudgetPolicy(eps_cap=1.0, delta=1e-6)
    led = PrivacyLedger()
    led.record([_spend("gone", 100.0)])
    target = mk("gone", 5.0, 0.0, 10.0) + mk("fine", 5.0, 0.0, 10.0)
    with pytest.raises(CalibrationError) as err:
        calibrate_sigma(target, led, pol)
    assert err.value.blocked == ["gone"]
    assert "gone" in str(err.value)


def test_calibrate_zero_cost_query_returns_floor():
    pol = BudgetPolicy(eps_cap=1.0, delta=1e-6)
    target = mk("A", 0.0, 0.0, 10.0)  # clipped value 0: free at any sigma
    sigma = calibrate_sigma(target, PrivacyLedger(), pol)
    assert sigma == pytest.approx(1e-6)


def test_calibrate_is_tight_against_the_filter():
    # Random sums and products, some with a second attribute of one entity,
    # over ledgers holding prior spends of up to 90% of the cap.
    rnd = random.Random(0xCA1B)
    for case in range(200):
        target = random_scalar(rnd, max_vars=3, max_terms=4, max_power=2)
        if rnd.random() < 0.5:
            target = target + mk("e0", rnd.uniform(0.0, 5.0), 0.0, 5.0, attribute="kg").scale(
                rnd.uniform(-2.0, 2.0)
            )
        pol = BudgetPolicy(eps_cap=10.0 ** rnd.uniform(-1, 1), delta=10.0 ** rnd.uniform(-10, -3))
        cap = analytic_rho_for_eps(pol.eps_cap, pol.delta)
        led = PrivacyLedger()
        for entity in sorted({v.entity for v in target.inputs}):
            if rnd.random() < 0.5:
                led.record([_spend(entity, rnd.uniform(0.0, 0.9) * cap)])
        sigma = calibrate_sigma(target, led, pol)
        assert filter_check(led, spend_for_publish(target, sigma), pol).ok, case
        assert not filter_check(led, spend_for_publish(target, sigma * (1 - 1e-9)), pol).ok, case


def test_calibrate_admits_a_release_that_fits_just_under_the_cap():
    # Prior spend 0.999x the closed-form cap: that form lies a few ulps from the cap
    # the filter enforces, and the small headroom magnified the gap past every
    # nudge, so this release was refused with CalibrationError(['A']).
    eps, delta = 0.623, 1e-5
    log_inv = math.log(1.0 / delta)
    closed_form_cap = (eps / (math.sqrt(eps + log_inv) + math.sqrt(log_inv))) ** 2
    pol = BudgetPolicy(eps_cap=eps, delta=delta)
    led = PrivacyLedger()
    led.record([_spend("A", 0.999 * closed_form_cap)])
    target = mk("A", 5.0, 0.0, 10.0)
    sigma = calibrate_sigma(target, led, pol)
    assert sigma == pytest.approx(1234.097, rel=1e-6)
    assert filter_check(led, spend_for_publish(target, sigma), pol).ok
    assert not filter_check(led, spend_for_publish(target, sigma * (1 - 1e-9)), pol).ok


def test_calibrate_blocks_entities_needing_sigma_above_hi(monkeypatch):
    pol = BudgetPolicy(eps_cap=1.0, delta=1e-6)
    led = PrivacyLedger()
    led.record([_spend("spent", 1.0)])  # already past the cap
    huge = mk("huge", 1e12, 0.0, 1e12)  # needs sigma ~ 2.7e12 against SIGMA_MAX = 1e9
    with pytest.raises(CalibrationError) as err:
        calibrate_sigma(huge + mk("spent", 5.0, 0.0, 10.0) + mk("fine", 5.0, 0.0, 10.0), led, pol)
    assert err.value.blocked == ["huge", "spent"]
    monkeypatch.setattr(accounting, "SIGMA_MAX", 1e13)
    sigma = calibrate_sigma(huge, led, pol)
    assert sigma == pytest.approx(1e12 / math.sqrt(2.0 * rho_cap(1.0, 1e-6)), rel=1e-9)
