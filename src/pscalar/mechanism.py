"""Gaussian output perturbation and the budget-gated release path."""

from __future__ import annotations

import math
import random
import threading

from .accounting import (
    BudgetPolicy,
    FilterDecision,
    PrivacyLedger,
    RdpSpend,
    _now_iso,
    filter_check,
    spend_for_publish,
)
from .poly import _SlotsRecord
from .scalar import PrivateScalar

#: How noise is produced, fixed for reproducibility guarantees.
NOISE_ALGORITHM = (
    "random.gauss (Box-Muller) over random.Random (MT19937) when seeded, "
    "over random.SystemRandom (OS entropy) when not"
)


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
    """Gaussian sampler from the standard library, with a bit-exact stream per seed.

    A seed (a non-negative integer) picks a Mersenne Twister ``random.Random``,
    so the same seed always reproduces the same draw sequence; without one,
    ``random.SystemRandom`` draws from OS entropy.  ``random.gauss`` keeps a
    spare draw between calls and is not thread-safe, so draws are serialized.
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            gen = random.SystemRandom()
        elif isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0:
            # Random(-s) replays Random(s), so negative seeds are refused to
            # keep one stream per seed.
            gen = random.Random(seed)
        else:
            raise ValueError(f"noise seed must be a non-negative integer, got {seed!r}")
        self.seed = seed
        self.algorithm = NOISE_ALGORITHM
        self._gen = gen
        self._lock = threading.Lock()

    def sample(self, sigma: float) -> float:
        if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be a positive finite number, got {sigma!r}")
        with self._lock:
            return self._gen.gauss(0.0, sigma)


class PublishReceipt(_SlotsRecord):
    """What a successful release produced and what it cost each entity (RdpSpends)."""

    __slots__ = ("publish_id", "value", "sigma", "spends", "timestamp")

    def __init__(self, publish_id: str, value: float, sigma: float, spends: tuple, timestamp: str):
        self.publish_id, self.value, self.sigma = publish_id, value, sigma
        self.spends, self.timestamp = spends, timestamp


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
