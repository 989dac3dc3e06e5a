"""Per-entity privacy accounting: spends, budget conversion, ledger, calibration.

Budgets are tracked per entity identity as the alpha-linear coefficient of a
Renyi curve: one Gaussian release at noise sigma costs an entity
``rho = L^2 * x^2 / (2 sigma^2)`` where L is its sound Lipschitz bound and x
its clipped input, and the curve is ``eps(alpha) = rho * alpha``.  Curves add
across releases, so a single cumulative rho per entity suffices.
Every budget decision compares a total with the policy's ``rho_cap``; epsilon
is computed only for a refusal's projected epsilon and the remaining budget.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
import struct
import sys
import threading
import time
from operator import attrgetter
from pathlib import Path

from .poly import VarId, _SlotsRecord, _tuple_record
from .scalar import PrivateScalar
from .sensitivity import lipschitz_bound

# Nudges that calibrate_sigma may take past its exact inverse; rounding in the
# spends leaves that inverse at most a few ulps short of what the filter admits.
_CALIBRATION_ULP_STEPS = 64
#: Least and greatest noise level that calibrate_sigma returns.
SIGMA_MIN, SIGMA_MAX = 1e-6, 1e9
#: What a journal field cannot hold: the field separator and each break of str.splitlines.
JOURNAL_UNSAFE = re.compile("[\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# what next_publish_id hands out
_PUBLISH_ID = re.compile("p[0-9]+")


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


def rdp_to_dp(rho: float, delta: float) -> float:
    """Tightest (eps, delta) conversion of the linear curve eps(alpha) = rho*alpha.

    Minimizing ``rho*alpha + ln(1/delta)/(alpha-1)`` over alpha > 1 gives the
    closed form ``rho + 2*sqrt(rho*ln(1/delta))`` (Bun & Steinke, Prop. 1.3;
    Mironov, Prop. 3).  A zero curve converts to eps = 0.
    """
    if not (0.0 < delta < 1.0 and 1.0 / delta < math.inf):
        raise ValueError(f"delta must lie in (0, 1) and have a finite inverse, got {delta!r}")
    if not (math.isfinite(rho) and rho >= 0.0):
        raise ValueError(f"rho must be finite and non-negative, got {rho!r}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


class BudgetPolicy(_tuple_record("BudgetPolicy", "eps_cap delta rho_cap")):
    """Owner-set cap: per-entity converted epsilon at a fixed delta.

    ``rho_cap`` is derived, never given: the largest float total t with
    ``rdp_to_dp(t, delta) <= eps_cap``.  Each step of the conversion (the
    product, the correctly rounded sqrt, the sum) rounds monotonically in t,
    so that test holds exactly when ``t <= rho_cap``.
    """

    __slots__ = ()

    def __new__(cls, eps_cap: float, delta: float):
        if not (math.isfinite(eps_cap) and eps_cap > 0):
            raise ValueError(f"eps_cap must be positive, got {eps_cap!r}")
        rdp_to_dp(0.0, delta)  # refuses a delta out of range or with an infinite inverse
        # Bisect the bit patterns of the non-negative floats, which order as the
        # floats do: 0.0 passes and inf is refused, so at most 63 conversions.
        lo, hi = 0, 0x7FF0000000000000  # the bits of 0.0 and of inf
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if rdp_to_dp(_float_from_bits(mid), delta) <= eps_cap:
                lo = mid
            else:
                hi = mid
        return tuple.__new__(cls, (eps_cap, delta, _float_from_bits(lo)))


class FilterDecision(_tuple_record("FilterDecision", "ok violations", defaults=((),))):
    """Outcome of a pre-release budget check; never mutates any state.

    ``violations`` holds (entity, projected epsilon) pairs.
    """

    __slots__ = ()


def spend_for_publish(scalar: PrivateScalar, sigma: float) -> list[RdpSpend]:
    """Per-entity Renyi cost of one Gaussian release of the scalar at sigma.

    Uses removal semantics: each entity's Lipschitz bound is taken over its
    box widened through 0, the replacement value.  Sigma must keep
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
        scalar._slopes = tuple((v, lipschitz_bound(scalar, v).bound) for v in sorted(scalar.inputs))
    spends = []
    denom, inputs = 2.0 * sigma * sigma, scalar.inputs
    for v, slope in scalar._slopes:
        x = inputs[v].clipped
        spends.append(RdpSpend(v, (slope * slope) * (x * x) / denom, slope))
    return spends


@functools.lru_cache(maxsize=1)
def _second_text(second: int) -> str:
    return "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(second)[:6]


def _iso_utc(ns: int) -> str:
    """``ns`` nanoseconds after the epoch as datetime's UTC ``isoformat(timespec="microseconds")``.

    Microseconds are floored, as ``datetime.now`` floors the clock.
    """
    second, micros = divmod(ns // 1000, 1_000_000)
    return f"{_second_text(second)}.{micros:06d}+00:00"


def _now_iso() -> str:
    return _iso_utc(time.time_ns())


def _write_all(file, data: bytes) -> None:
    """Append ``data`` to an unbuffered binary file, one ``write(2)`` unless it comes up short."""
    written = file.write(data)
    while written < len(data):
        data = data[written:]
        written = file.write(data)


class PrivacyLedger:
    """Append-only per-entity cumulative rho, optionally journaled to disk.

    Memory holds only each entity's running total; the journal is the only
    per-release record.

    Journal format: one tab-separated record per line,
    ``publish_id<TAB>entity<TAB>rho<TAB>timestamp`` with rho printed to 17
    significant digits so replay reconstructs the exact float state.  Each
    record is one unbuffered append, made before any caller can observe the
    new state, which keeps crash recovery conservative.
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
            self._journal = open(self.journal_path, "ab", buffering=0)

    # -- replay -----------------------------------------------------------------

    def _replay_lines(self, text: str) -> None:
        last_id = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise LedgerError(f"journal line {lineno}: expected 4 fields, got {len(parts)}")
            publish_id, entity, rho_text, _ts = parts
            try:
                rho = float(rho_text)
                if not (math.isfinite(rho) and rho >= 0.0):  # no RdpSpend holds such a rho
                    raise ValueError
            except ValueError:
                raise LedgerError(f"journal line {lineno}: bad rho {rho_text!r}") from None
            self._cumulative[entity] = self._cumulative.get(entity, 0.0) + rho
            # ids may skip numbers (a refused record used one up): resume after the largest
            if publish_id != last_id and _PUBLISH_ID.fullmatch(publish_id):
                self._seq = max(self._seq, int(publish_id[1:]))
            last_id = publish_id

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
        So does any ledger, simulated too, when an entity id holds a character
        in ``JOURNAL_UNSAFE``, which replay would split on.
        """
        ts = timestamp if timestamp is not None else _now_iso()
        with self._lock:
            if self.journal_path is not None and self._journal is None:
                raise LedgerError("the ledger's journal is closed")
            spends = sorted(spends, key=attrgetter("entity"))
            ids = [s.entity.entity for s in spends]
            if JOURNAL_UNSAFE.search("".join(ids)):
                raise LedgerError("an entity id holds a tab or a line break; a journal cannot")
            lines = []
            for s, entity in zip(spends, ids):
                self._cumulative[entity] = self._cumulative.get(entity, 0.0) + s.rho
                lines.append(f"{publish_id}\t{entity}\t{s.rho:.17g}\t{ts}\n")
            if self._journal is not None and lines:
                _write_all(self._journal, "".join(lines).encode("utf-8"))

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
    One compare per entity with ``policy.rho_cap``; only refusals are converted.
    """
    violations = []
    rho_cap = policy.rho_cap
    for entity, rho in _aggregate_by_entity(spends).items():
        projected = ledger.total(entity) + rho
        if projected > rho_cap:
            violations.append((entity, rdp_to_dp(projected, policy.delta)))
    violations.sort()
    return FilterDecision(ok=not violations, violations=tuple(violations))


def remaining_budget(ledger: PrivacyLedger, entity: str, policy: BudgetPolicy) -> float:
    """Converted epsilon still available to one entity (floored at zero)."""
    return max(0.0, policy.eps_cap - rdp_to_dp(ledger.total(entity), policy.delta))


def calibrate_sigma(scalar: PrivateScalar, ledger: PrivacyLedger, policy: BudgetPolicy) -> float:
    """Smallest sigma, at least SIGMA_MIN, whose release passes the budget filter.

    Spends scale as 1/sigma^2, so an entity costing u at sigma = 1 with ledger
    total t fits iff ``sigma^2 >= u / (policy.rho_cap - t)``, the exact cap the
    filter enforces.  The largest of these inverses is stepped up by ulps, for
    the rounding of the spends, until the filter admits it.  Raises
    CalibrationError naming the blocked entities when no sigma up to SIGMA_MAX can pass.
    """
    needed = {}
    for entity, unit in _aggregate_by_entity(spend_for_publish(scalar, 1.0)).items():
        if unit > 0.0:
            headroom = policy.rho_cap - ledger.total(entity)
            needed[entity] = math.sqrt(unit / headroom) if headroom > 0.0 else math.inf
    blocked = sorted(e for e, s in needed.items() if s > SIGMA_MAX)
    if not blocked:
        sigma = max([SIGMA_MIN, *needed.values()])
        for _ in range(_CALIBRATION_ULP_STEPS):
            decision = filter_check(ledger, spend_for_publish(scalar, sigma), policy)
            if decision.ok:
                break
            sigma = math.nextafter(sigma, math.inf)
        # a refusal here means the steps ran out: the entities still over the cap are blocked
        blocked = [e for e, _ in decision.violations]
    if blocked:
        raise CalibrationError(
            "no noise level in range can fit the budget; blocked entities: "
            + ", ".join(blocked),
            blocked,
        )
    return sigma
