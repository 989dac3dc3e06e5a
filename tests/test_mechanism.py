"""Noisy release mechanism: determinism, charge-before-noise, simulation purity."""

from __future__ import annotations

import math
import random

import pytest

from oracles import golden_eps, rho_cap
from pscalar.accounting import BudgetPolicy, PrivacyLedger, calibrate_sigma, spend_for_publish
from pscalar.mechanism import (
    BudgetRejected,
    GaussianNoiseSource,
    publish,
    simulate_publish,
)
from pscalar.poly import NonFiniteError, VarId
from pscalar.scalar import PrivateScalar


def mk(entity, value, lo, hi):
    return PrivateScalar.make_private(entity, value, lo, hi)


POLICY = BudgetPolicy(eps_cap=6.0, delta=1e-6)


# -- noise source ----------------------------------------------------------------------


def test_noise_source_seeded_determinism():
    a, b = GaussianNoiseSource(seed=42), GaussianNoiseSource(seed=42)
    assert [a.sample(3.0) for _ in range(5)] == [b.sample(3.0) for _ in range(5)]
    c = GaussianNoiseSource(seed=43)
    assert a.sample(3.0) != c.sample(3.0)


def test_noise_source_validation():
    src = GaussianNoiseSource(seed=1)
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            src.sample(bad)


def test_seeded_noise_is_the_standard_library_gauss():
    src, ref = GaussianNoiseSource(seed=0xC8), random.Random(0xC8)
    assert [src.sample(s) for s in (1.0, 2.5, 7.0, 0.25)] == [
        ref.gauss(0.0, s) for s in (1.0, 2.5, 7.0, 0.25)
    ]


@pytest.mark.parametrize("seed", [-1, -0xC8, 1.5, 2.0, "7", b"7", True])
def test_noise_source_refuses_seeds_outside_the_one_to_one_range(seed):
    # random.Random(-s) replays Random(s), and floats, strings and bools
    # would alias integer seeds or other streams
    with pytest.raises(ValueError, match="non-negative integer"):
        GaussianNoiseSource(seed=seed)


def test_unseeded_noise_draws_from_os_entropy():
    src = GaussianNoiseSource()
    assert src.seed is None and isinstance(src._gen, random.SystemRandom)
    draws = [src.sample(1.0) for _ in range(4)]
    assert all(math.isfinite(x) for x in draws) and len(set(draws)) == 4


# -- real publish ----------------------------------------------------------------------


def test_publish_happy_path(tmp_path):
    led = PrivacyLedger(journal_path=tmp_path / "j.log")
    src = GaussianNoiseSource(seed=5)
    f = mk("A", 50.0, 0.0, 122.0)
    receipt = publish(f, 100.0, led, POLICY, src)
    assert receipt.publish_id == "p000001"
    assert receipt.sigma == 100.0
    assert receipt.value == 50.0 + GaussianNoiseSource(seed=5).sample(100.0)
    assert [s.entity.label() for s in receipt.spends] == ["A"]
    assert led.total("A") == receipt.spends[0].rho == 50.0**2 / (2 * 100.0**2)
    # journal already flushed by the time the receipt exists, with its timestamp
    lines = (tmp_path / "j.log").read_text().splitlines()
    assert len(lines) == 1
    assert lines[-1].split("\t")[3] == receipt.timestamp
    led.close()


def test_publish_rejection_charges_nothing(tmp_path):
    path = tmp_path / "j.log"
    led = PrivacyLedger(journal_path=path)
    src = GaussianNoiseSource(seed=5)
    f = mk("A", 50.0, 0.0, 122.0)
    publish(f, 100.0, led, POLICY, src)
    snap, journal = led.snapshot_bytes(), path.read_bytes()
    with pytest.raises(BudgetRejected) as err:
        publish(f, 0.001, led, POLICY, src)
    assert [v[0] for v in err.value.violations] == ["A"]
    assert err.value.violations[0][1] > POLICY.eps_cap
    assert led.snapshot_bytes() == snap
    assert path.read_bytes() == journal
    assert publish(f, 100.0, led, POLICY, src).publish_id == "p000002"  # the refusal took no id
    led.close()


def test_rejected_publish_draws_no_noise():
    # twin runs, same seed; one suffers a rejected attempt in the middle.
    # the released values must match bit for bit.
    def run(with_reject: bool):
        led = PrivacyLedger()
        src = GaussianNoiseSource(seed=77)
        f = mk("A", 50.0, 0.0, 122.0)
        first = publish(f, 100.0, led, POLICY, src).value
        if with_reject:
            with pytest.raises(BudgetRejected):
                publish(f, 1e-6, led, POLICY, src)
        second = publish(f, 100.0, led, POLICY, src).value
        return first, second

    assert run(False) == run(True)


def test_publish_charges_cumulatively_until_refusal():
    led = PrivacyLedger()
    src = GaussianNoiseSource(seed=3)
    f = mk("A", 50.0, 0.0, 50.0)
    cap = rho_cap(POLICY.eps_cap, POLICY.delta)
    per = 50.0**2 / (2 * 70.0**2)
    fits = int(cap / per)
    for _ in range(fits):
        publish(f, 70.0, led, POLICY, src)
    with pytest.raises(BudgetRejected):
        publish(f, 70.0, led, POLICY, src)
    assert led.total("A") == pytest.approx(fits * per, rel=1e-12)


# -- simulation ------------------------------------------------------------------------


def test_simulate_requires_simulated_ledger():
    led = PrivacyLedger()
    with pytest.raises(ValueError):
        simulate_publish(mk("A", 1.0, 0.0, 2.0), 1.0, led, POLICY)


def test_simulate_records_on_pass_only():
    real = PrivacyLedger()
    sim = real.fork_simulated()
    f = mk("A", 50.0, 0.0, 122.0)
    decision, spends = simulate_publish(f, 100.0, sim, POLICY)
    assert decision.ok and len(spends) == 1
    assert sim.total("A") == spends[0].rho
    assert real.total("A") == 0.0
    decision2, _ = simulate_publish(f, 1e-6, sim, POLICY)
    assert not decision2.ok
    assert sim.total("A") == spends[0].rho  # rejected rehearsal left no trace


def test_simulation_never_draws_noise():
    # a real publish after N simulations equals one with no simulations at all
    def run(n_sims: int) -> float:
        real = PrivacyLedger()
        src = GaussianNoiseSource(seed=123)
        sim = real.fork_simulated()
        f = mk("A", 50.0, 0.0, 122.0)
        for _ in range(n_sims):
            simulate_publish(f, 100.0, sim, POLICY)
        return publish(f, 100.0, real, POLICY, src).value

    assert run(0) == run(1) == run(25)


def test_simulated_chain_predicts_real_filter():
    # walk the simulated ledger to exhaustion; the real chain then behaves
    # exactly as predicted, step for step
    f = mk("A", 50.0, 0.0, 50.0)
    real = PrivacyLedger()
    sim = real.fork_simulated()
    verdicts = []
    for _ in range(30):
        decision, _ = simulate_publish(f, 60.0, sim, POLICY)
        verdicts.append(decision.ok)
    src = GaussianNoiseSource(seed=1)
    for expected_ok in verdicts:
        if expected_ok:
            publish(f, 60.0, real, POLICY, src)
        else:
            with pytest.raises(BudgetRejected):
                publish(f, 60.0, real, POLICY, src)
    assert True in verdicts and False in verdicts  # the walk crossed the cap


def test_receipt_spends_keep_owner_side_details():
    led = PrivacyLedger()
    scalar = mk("A", 130.0, 0.0, 122.0)
    receipt = publish(scalar, 200.0, led, POLICY, GaussianNoiseSource(seed=2))
    (spend,) = receipt.spends
    # the spend is charged on the clipped input, which it does not keep
    assert scalar.inputs[VarId("A")].clipped == 122.0
    assert spend.lipschitz == 1.0
    assert spend.rho == 122.0**2 / (2 * 200.0**2)


# -- slopes kept with the scalar ---------------------------------------------------------


def _square_of_sum():
    # (a + b)^2 with negative floors: each slope 2(a + b) peaks at 2*(5 + 5) = 20,
    # found by the vertex_exact corner scan
    return (mk("a", 3.0, -2.0, 5.0) + mk("b", 1.5, -2.0, 5.0)) ** 2


@pytest.fixture
def bound_calls(monkeypatch):
    from pscalar import accounting

    calls = []
    real = accounting.lipschitz_bound

    def counted(scalar, entity, **kwargs):
        calls.append(entity)
        return real(scalar, entity, **kwargs)

    monkeypatch.setattr(accounting, "lipschitz_bound", counted)
    return calls


def test_release_after_its_rehearsal_does_no_bounding(bound_calls):
    f = _square_of_sum()
    real = PrivacyLedger()
    decision, rehearsed = simulate_publish(f, 500.0, real.fork_simulated(), POLICY)
    assert decision.ok and len(bound_calls) == 2
    receipt = publish(f, 500.0, real, POLICY, GaussianNoiseSource(seed=3))
    simulate_publish(f, 900.0, real.fork_simulated(), POLICY)
    calibrate_sigma(f, real, POLICY)
    assert len(bound_calls) == 2
    assert list(receipt.spends) == rehearsed


@pytest.mark.parametrize("sigma", [37.0, 410.5])
def test_kept_slopes_give_a_fresh_scalars_spends_bit_for_bit(sigma):
    warm = _square_of_sum()
    spend_for_publish(warm, 1.0)

    def bits(spends):
        return [(s.entity, s.rho.hex(), s.lipschitz.hex()) for s in spends]

    assert bits(spend_for_publish(warm, sigma)) == bits(spend_for_publish(_square_of_sum(), sigma))


def test_refused_release_then_rehearsal_at_a_larger_sigma_charges_the_oracle_rho(bound_calls):
    f = _square_of_sum()
    real = PrivacyLedger()
    with pytest.raises(BudgetRejected):
        publish(f, 1.0, real, POLICY, GaussianNoiseSource(seed=4))
    sim = real.fork_simulated()
    decision, _ = simulate_publish(f, 300.0, sim, POLICY)
    assert decision.ok and len(bound_calls) == 2
    # closed-form slope 20 at the clipped inputs 3.0 and 1.5
    assert sim.total("a") == 20.0**2 * 3.0**2 / (2 * 300.0**2)
    assert sim.total("b") == 20.0**2 * 1.5**2 / (2 * 300.0**2)
    assert real.total("a") == real.total("b") == 0.0


def test_a_bound_that_overflows_keeps_no_slopes(bound_calls):
    f = mk("A", 1.0, -1e200, 1e200) ** 3  # the slope 3*A^2 overflows on the box
    for _ in range(2):
        with pytest.raises(NonFiniteError):
            spend_for_publish(f, 1.0)
    assert len(bound_calls) == 2
