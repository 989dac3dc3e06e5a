"""Gaussian output perturbation and the budget-gated release path."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .accounting import (
    BudgetPolicy,
    FilterDecision,
    PrivacyLedger,
    RdpSpend,
    _now_iso,
    filter_check,
    spend_for_publish,
)
from .scalar import PrivateScalar

#: How noise is produced, fixed for reproducibility guarantees.
NOISE_ALGORITHM = "numpy PCG64 bit generator, Generator.normal (ziggurat)"


class BudgetRejected(Exception):
    """Typed refusal: the release would push listed entities over their cap.

    Carries ``violations``: (entity identity, projected converted epsilon)
    pairs.  Nothing was recorded and no noise was drawn.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        names = ", ".join(f"{e} (eps {eps:.4g})" for e, eps in self.violations)
        super().__init__(f"release rejected, budget exceeded for: {names}")


class GaussianNoiseSource:
    """Seeded Gaussian sampler with a bit-exact stream per seed.

    Backed by numpy's PCG64 bit generator through ``Generator.normal``; the
    same 64-bit seed always reproduces the same draw sequence on a given
    installation.  Thread-safe: draws are serialized.
    """

    def __init__(self, seed: int | None = None):
        self.seed = seed
        self.algorithm = NOISE_ALGORITHM
        self._gen = np.random.default_rng(seed)
        self._lock = threading.Lock()

    def sample(self, sigma: float) -> float:
        if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be a positive finite number, got {sigma!r}")
        with self._lock:
            return float(self._gen.normal(0.0, sigma))


@dataclass(frozen=True)
class PublishReceipt:
    """What a successful release produced and what it cost each entity."""

    publish_id: str
    value: float
    sigma: float
    spends: tuple[RdpSpend, ...]
    timestamp: str


def _check_and_record(
    scalar: PrivateScalar, sigma: float, ledger: PrivacyLedger, policy: BudgetPolicy
) -> tuple[FilterDecision, list[RdpSpend], str | None, str | None]:
    """Charge a release to the ledger if it fits: (decision, spends, id, timestamp).

    Atomic per ledger: the filter check and the recording happen inside one
    ledger transaction, and the spends hit the journal before the caller can
    draw noise.  On rejection nothing is recorded and id and timestamp are None.
    """
    spends = spend_for_publish(scalar, sigma)
    with ledger.transaction():
        decision = filter_check(ledger, spends, policy)
        if not decision.ok:
            return decision, spends, None, None
        publish_id, timestamp = ledger.next_publish_id(), _now_iso()
        ledger.record(spends, publish_id, timestamp)
    return decision, spends, publish_id, timestamp


def publish(
    scalar: PrivateScalar,
    sigma: float,
    ledger: PrivacyLedger,
    policy: BudgetPolicy,
    source: GaussianNoiseSource,
) -> PublishReceipt:
    """Budget-checked Gaussian release.

    The receipt carries the timestamp of the release's journal lines.  On
    rejection nothing is recorded and no noise is drawn.
    """
    decision, spends, publish_id, timestamp = _check_and_record(scalar, sigma, ledger, policy)
    if not decision.ok:
        raise BudgetRejected(decision.violations)
    noisy = scalar.value() + source.sample(sigma)
    return PublishReceipt(publish_id, noisy, sigma, tuple(spends), timestamp)


def simulate_publish(
    scalar: PrivateScalar, sigma: float, sim_ledger: PrivacyLedger, policy: BudgetPolicy
) -> tuple[FilterDecision, list[RdpSpend]]:
    """The publish decision logic run against a simulated ledger.

    Advances the simulated ledger exactly as a real publish would (records on
    pass, records nothing on rejection) but draws no noise and returns no
    value, so real state and the noise stream are untouched.
    """
    if sim_ledger.mode != PrivacyLedger.SIMULATED:
        raise ValueError("simulate_publish requires a simulated ledger")
    decision, spends, _, _ = _check_and_record(scalar, sigma, sim_ledger, policy)
    return decision, spends
