"""Per-entity privacy accounting: spends, budget conversion, ledger, calibration.

Budgets are tracked per entity identity as the alpha-linear coefficient of a
Renyi curve: one Gaussian release at noise sigma costs an entity
``rho = L^2 * x^2 / (2 sigma^2)`` where L is its sound Lipschitz bound and x
its clipped input, and the curve is ``eps(alpha) = rho * alpha``.  Curves add
across releases, so a single cumulative rho per entity suffices.
"""

from __future__ import annotations

import contextlib
import datetime
import math
import sys
import threading
from operator import attrgetter
from pathlib import Path

from .poly import VarId, _SlotsRecord, _tuple_record
from .scalar import PrivateScalar
from .sensitivity import lipschitz_bound

# Nudges that calibrate_sigma may take past its closed form; rounding leaves
# that form at most a few ulps short of what the filter admits.
_CALIBRATION_ULP_STEPS = 64


class LedgerError(ValueError):
    """Misuse of a privacy ledger (bad mode, closed journal, bad record)."""


class CalibrationError(ValueError):
    """No noise level in range can satisfy the budget; lists blocked entities."""

    def __init__(self, message: str, blocked: list[str]):
        super().__init__(message)
        self.blocked = blocked


class RdpSpend(_SlotsRecord):
    """One entity's cost for one release and the slope bound behind it.

    No input value is kept; ``rho`` is computed from the clipped input.
    """

    __slots__ = ("entity", "rho", "lipschitz")

    def __init__(self, entity: VarId, rho: float, lipschitz: float):
        if not (math.isfinite(rho) and rho >= 0.0):
            raise ValueError(f"rho must be finite and non-negative, got {rho!r}")
        self.entity, self.rho, self.lipschitz = entity, rho, lipschitz


class BudgetPolicy(_tuple_record("BudgetPolicy", "eps_cap delta")):
    """Owner-set cap: per-entity converted epsilon at a fixed delta."""

    __slots__ = ()

    def __new__(cls, eps_cap: float, delta: float):
        if not (math.isfinite(eps_cap) and eps_cap > 0):
            raise ValueError(f"eps_cap must be positive, got {eps_cap!r}")
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
        return tuple.__new__(cls, (eps_cap, delta))


class FilterDecision(_tuple_record("FilterDecision", "ok violations", defaults=((),))):
    """Outcome of a pre-release budget check; never mutates any state.

    ``violations`` holds (entity, projected epsilon) pairs.
    """

    __slots__ = ()


def spend_for_publish(scalar: PrivateScalar, sigma: float) -> list[RdpSpend]:
    """Per-entity Renyi cost of one Gaussian release of the scalar at sigma.

    Uses removal semantics: the Lipschitz bound for each entity is taken over
    its box widened through 0, the replacement value.  Sigma must keep
    ``2 sigma^2`` a positive normal float, so that every cost is finite.

    The slopes depend only on public data, so the first call keeps them with
    the immutable scalar and later calls, at any sigma, only derive each rho.
    Threads that fill them at once store equal values; a bound that raises
    keeps none.
    """
    if not (
        isinstance(sigma, (int, float))
        and sigma > 0
        and sys.float_info.min <= 2.0 * sigma * sigma < math.inf
    ):
        raise ValueError(f"sigma must be positive with 2*sigma^2 a normal float, got {sigma!r}")
    if scalar._slopes is None:
        scalar._slopes = tuple(
            (v, lipschitz_bound(scalar, v, include_origin=True).bound)
            for v in sorted(scalar.inputs)
        )
    spends = []
    denom, inputs = 2.0 * sigma * sigma, scalar.inputs
    for v, slope in scalar._slopes:
        x = inputs[v].clipped
        spends.append(RdpSpend(v, (slope * slope) * (x * x) / denom, slope))
    return spends


def rdp_to_dp(rho: float, delta: float) -> float:
    """Tightest (eps, delta) conversion of the linear curve eps(alpha) = rho*alpha.

    Minimizing ``rho*alpha + ln(1/delta)/(alpha-1)`` over alpha > 1 gives the
    closed form ``rho + 2*sqrt(rho*ln(1/delta))`` (Bun & Steinke, Prop. 1.3;
    Mironov, Prop. 3).  A zero curve converts to eps = 0.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return _rdp_to_dp(rho, math.log(1.0 / delta))


def _rdp_to_dp(rho: float, log_inv_delta: float) -> float:
    """``rdp_to_dp`` with ``ln(1/delta)`` already taken, for one delta and many rho."""
    if not (math.isfinite(rho) and rho >= 0.0):
        raise ValueError(f"rho must be finite and non-negative, got {rho!r}")
    return rho + 2.0 * math.sqrt(rho * log_inv_delta)


def _now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="microseconds")


class PrivacyLedger:
    """Append-only per-entity cumulative rho, optionally journaled to disk.

    Memory holds only each entity's running total; the journal is the only
    per-release record.

    Journal format: one tab-separated record per line,
    ``publish_id<TAB>entity<TAB>rho<TAB>timestamp`` with rho printed to 17
    significant digits so replay reconstructs the exact float state.  Records
    are flushed to the journal before any caller can observe the new state,
    which keeps crash recovery conservative.
    """

    REAL = "real"
    SIMULATED = "simulated"

    def __init__(self, mode: str = REAL, journal_path: str | Path | None = None):
        if mode not in (self.REAL, self.SIMULATED):
            raise LedgerError(f"unknown ledger mode {mode!r}")
        if mode == self.SIMULATED and journal_path is not None:
            raise LedgerError("simulated ledgers never journal")
        self.mode = mode
        self.journal_path = Path(journal_path) if journal_path is not None else None
        self._cumulative: dict[str, float] = {}
        self._seq = 0
        self._lock = threading.RLock()
        self._journal = None
        if self.journal_path is not None:
            if self.journal_path.exists():
                self._replay_lines(self.journal_path.read_text(encoding="utf-8"))
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal = open(self.journal_path, "a", encoding="utf-8")

    # -- replay -----------------------------------------------------------------

    def _replay_lines(self, text: str) -> None:
        seen_ids: dict[str, None] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise LedgerError(f"journal line {lineno}: expected 4 fields, got {len(parts)}")
            publish_id, entity, rho_text, _ts = parts
            try:
                rho = float(rho_text)
            except ValueError:
                raise LedgerError(f"journal line {lineno}: bad rho {rho_text!r}") from None
            self._cumulative[entity] = self._cumulative.get(entity, 0.0) + rho
            seen_ids[publish_id] = None
        self._seq = len(seen_ids)

    @classmethod
    def replayed(cls, journal_path: str | Path) -> "PrivacyLedger":
        """Rebuild ledger state from a journal without taking an append handle."""
        ledger = cls(mode=cls.REAL)
        ledger._replay_lines(Path(journal_path).read_text(encoding="utf-8"))
        return ledger

    # -- state ---------------------------------------------------------------------

    @property
    def cumulative(self) -> dict[str, float]:
        with self._lock:
            return dict(self._cumulative)

    def total(self, entity: str) -> float:
        with self._lock:
            return self._cumulative.get(entity, 0.0)

    def entities(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._cumulative)

    def snapshot_bytes(self) -> bytes:
        """Canonical byte form of the cumulative state, for exact comparisons."""
        with self._lock:
            lines = [f"{e}\t{self._cumulative[e]:.17g}" for e in sorted(self._cumulative)]
        return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""

    # -- mutation --------------------------------------------------------------------

    @contextlib.contextmanager
    def transaction(self):
        """Serialize a check-and-record sequence against this ledger."""
        with self._lock:
            yield self

    def next_publish_id(self) -> str:
        with self._lock:
            self._seq += 1
            return f"p{self._seq:06d}"

    def record(self, spends: list[RdpSpend], publish_id: str, timestamp: str | None = None) -> None:
        """Append the spends of one release; journaled before returning.

        A journaled ledger whose journal is closed refuses the record and
        stays unchanged, so its totals never run ahead of what a restart replays.
        """
        ts = timestamp if timestamp is not None else _now_iso()
        with self._lock:
            if self.journal_path is not None and self._journal is None:
                raise LedgerError("the ledger's journal is closed")
            lines = []
            for s in sorted(spends, key=attrgetter("entity")):
                entity = s.entity.entity
                self._cumulative[entity] = self._cumulative.get(entity, 0.0) + s.rho
                lines.append(f"{publish_id}\t{entity}\t{s.rho:.17g}\t{ts}\n")
            if self._journal is not None and lines:
                self._journal.write("".join(lines))
                self._journal.flush()

    def fork_simulated(self) -> "PrivacyLedger":
        """Independent deep copy for what-if exploration; never journals."""
        with self._lock:
            fork = PrivacyLedger(mode=self.SIMULATED)
            fork._cumulative = dict(self._cumulative)
            fork._seq = self._seq
            return fork

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None


def _aggregate_by_entity(spends: list[RdpSpend]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in spends:
        key = s.entity.entity
        out[key] = out.get(key, 0.0) + s.rho
    return out


def filter_check(ledger: PrivacyLedger, spends: list[RdpSpend], policy: BudgetPolicy) -> FilterDecision:
    """Would recording these spends keep every affected entity under the cap?

    Pure check: no state is touched, so a rejected request costs nothing.
    """
    violations = []
    proposed = _aggregate_by_entity(spends)
    log_inv = math.log(1.0 / policy.delta)
    for entity in sorted(proposed):
        projected = _rdp_to_dp(ledger.total(entity) + proposed[entity], log_inv)
        if projected > policy.eps_cap:
            violations.append((entity, projected))
    return FilterDecision(ok=not violations, violations=tuple(violations))


def remaining_budget(ledger: PrivacyLedger, entity: str, policy: BudgetPolicy) -> float:
    """Converted epsilon still available to one entity (floored at zero)."""
    log_inv = math.log(1.0 / policy.delta)
    return max(0.0, policy.eps_cap - _rdp_to_dp(ledger.total(entity), log_inv))


def calibrate_sigma(
    scalar: PrivateScalar,
    ledger: PrivacyLedger,
    policy: BudgetPolicy,
    *,
    lo: float = 1e-6,
    hi: float = 1e9,
) -> float:
    """Smallest sigma, at least lo, whose release passes the budget filter.

    Spends scale as 1/sigma^2, so an entity costing u at sigma = 1 with ledger
    total t fits iff ``sigma^2 >= u / (rho_cap - t)``, where rho_cap is the
    largest total whose conversion stays within the cap.  The largest of these
    exact inverses is stepped up by ulps until the filter admits it, then
    confirmed through the real spend path.  Raises CalibrationError naming the
    blocked entities when no sigma up to hi can pass.
    """
    unit_spends = spend_for_publish(scalar, 1.0)
    eps, log_inv = policy.eps_cap, math.log(1.0 / policy.delta)
    # (sqrt(eps + L) - sqrt(L))^2 without the cancellation of that form.
    rho_cap = (eps / (math.sqrt(eps + log_inv) + math.sqrt(log_inv))) ** 2
    needed = {}
    for entity, unit in _aggregate_by_entity(unit_spends).items():
        if unit > 0.0:
            headroom = rho_cap - ledger.total(entity)
            needed[entity] = math.sqrt(unit / headroom) if headroom > 0.0 else math.inf
    blocked = sorted(e for e, s in needed.items() if s > hi)
    if not blocked:
        sigma = max([lo, *needed.values()])
        for _ in range(_CALIBRATION_ULP_STEPS):
            scaled = [RdpSpend(s.entity, s.rho / (sigma * sigma), s.lipschitz) for s in unit_spends]
            if filter_check(ledger, scaled, policy).ok:
                break
            sigma = math.nextafter(sigma, math.inf)
        # The scaled and direct spends round alike, so this refuses only when
        # the steps ran out: the entities still over the cap are blocked.
        decision = filter_check(ledger, spend_for_publish(scalar, sigma), policy)
        blocked = [e for e, _ in decision.violations]
    if blocked:
        raise CalibrationError(
            "no noise level in range can fit the budget; blocked entities: "
            + ", ".join(blocked),
            blocked,
        )
    return sigma
