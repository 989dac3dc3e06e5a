"""The three benchmark workloads: seeded inputs, analyst sessions, checks.

Each workload writes its dataset CSVs from a seed, drives a node through
``pscalar.client.Session`` inside ``session`` (the timed part, which only
records what the node said) and then checks every answer in ``verify``
against figures from ``oracles``, computed from the generated rows and the
node's journal files.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles
from pscalar.client import PublishRejectedError, RemoteScalar

EPS_CAP = 2.0
DELTA = 1e-6
NOISE_SIGMAS = 6.0  # a released value must lie this many sigmas from its query
REL_TOL = 1e-9
VERTEX_CAP = 20  # the node's default limit on live variables for corner scans


class CheckFailed(AssertionError):
    """The node answered something the reference figures contradict."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Row:
    entity: str
    value: float
    floor: float
    ceiling: float

    @property
    def clipped(self) -> float:
        return oracles.clip(self.value, self.floor, self.ceiling)

    @property
    def magnitude(self) -> float:
        """Largest |clipped value| the bounds allow."""
        return max(abs(self.floor), abs(self.ceiling))


@dataclass(frozen=True)
class Sizes:
    wide_entities: int = 300
    corner_groups: tuple[int, int, int] = (12, 8, 30)
    drain_rows: int = 160
    drain_shared: int = 40
    drain_subset: int = 100
    drain_cycles: int = 24


FULL = Sizes()
SMOKE = Sizes(wide_entities=30, corner_groups=(6, 4, 24), drain_rows=20,
              drain_shared=6, drain_subset=10, drain_cycles=6)


def write_csv(path: Path, rows: list[Row]) -> None:
    lines = ["entity,value,floor,ceiling"]
    lines += [f"{r.entity},{r.value!r},{r.floor!r},{r.ceiling!r}" for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def outside_positions(rng: random.Random, n: int, share: float) -> set[int]:
    """A fixed count, round(share * n), of seeded row positions."""
    return set(rng.sample(range(n), round(share * n)))


def fold(items: list[RemoteScalar], combine) -> RemoteScalar:
    """Left fold, one request per step, as an analyst's loop would send them."""
    total = items[0]
    for item in items[1:]:
        total = combine(total, item)
    return total


def remote_roots(session, dataset: str, rows: list[Row]) -> list[RemoteScalar]:
    records = session.root_records(dataset)
    require([(r["entity"], r["floor"], r["ceiling"]) for r in records]
            == [(r.entity, r.floor, r.ceiling) for r in rows],
            f"get_roots of {dataset} does not list the generated rows in order")
    meta = {"degree": 1, "terms": 1, "entities": 1}
    return [RemoteScalar(session, r["handle"], meta) for r in records]


def check_release(value: float, expected: float, sigma: float, what: str) -> None:
    require(abs(value - expected) <= NOISE_SIGMAS * sigma,
            f"{what}: released {value!r} is over {NOISE_SIGMAS} sigma from {expected!r}")


def check_spends(spends, rows: dict[str, Row], slopes: dict[str, float], exact: bool,
                 sigma: float, what: str) -> None:
    """Every spend names a query entity, bounds its slope soundly (and tightly
    where the route is exact) and charges (L x)^2 / (2 sigma^2)."""
    require(sorted(s["entity"] for s in spends) == sorted(slopes),
            f"{what}: spends name other entities than the query's")
    for s in spends:
        e, lip = s["entity"], s["lipschitz"]
        ref = slopes[e]
        require(lip >= ref * (1.0 - REL_TOL), f"{what}: slope {lip!r} of {e} is below {ref!r}")
        if exact:
            require(oracles.close(lip, ref, REL_TOL), f"{what}: slope {lip!r} of {e} != {ref!r}")
        rho = oracles.gaussian_rho(lip, rows[e].clipped, sigma)
        require(oracles.close(s["rho"], rho, REL_TOL), f"{what}: rho {s['rho']!r} of {e} != {rho!r}")


def check_remaining(reported: float, totals: dict[str, float], entity: str, what: str) -> None:
    ref = oracles.remaining_eps(EPS_CAP, totals.get(entity, 0.0), DELTA)
    require(abs(reported - ref) <= REL_TOL * EPS_CAP,
            f"{what}: remaining {reported!r} for {entity} != {ref!r}")


def check_remaining_min(reported: float, totals: dict[str, float], entities, what: str) -> None:
    ref = min(oracles.remaining_eps(EPS_CAP, totals.get(e, 0.0), DELTA) for e in entities)
    require(abs(reported - ref) <= REL_TOL * EPS_CAP,
            f"{what}: remaining min {reported!r} != {ref!r}")


def check_restarts(restarted: list[dict], before: dict) -> None:
    """Every restart over the journal answers remaining '*' exactly as before."""
    for i, answer in enumerate(restarted):
        require(answer == before, f"remaining '*' after restart {i + 1} differs from before it")


def rehearse_and_publish(session, query: RemoteScalar, sigma: float):
    session.fork_sim()
    sim = session.simulate(query, sigma)
    return sim, session.publish(query, sigma)


@dataclass
class Workload:
    """Inputs of one workload; subclasses add the session and its checks."""

    name: str
    datasets: dict[str, list[Row]] = field(default_factory=dict)
    users: tuple[str, ...] = ("alice",)
    shared_ledger: bool = False
    refusals_expected: bool = False  # budget_rejected is a success, not a failure

    def write_inputs(self, directory: Path) -> list[str]:
        """Write each dataset's CSV; return the ``--data`` arguments."""
        args = []
        for name, rows in self.datasets.items():
            path = directory / f"{name}.csv"
            write_csv(path, rows)
            args += ["--data", f"{path}:{name}"]
        return args

    def journal_name(self) -> str:
        return "ledger-shared.log" if self.shared_ledger else f"ledger-user-{self.users[0]}.log"

    def exact_expected(self, entity: str) -> bool:
        """Whether the node should flag the slope bounds of ``entity`` exact."""
        return True


class MeanWide(Workload):
    """Mean and mean of squares over several hundred bounded entities."""

    FLOOR, CEILING = 0.0, 122.0
    OUTSIDE_SHARE = 0.12
    SHARE_PER_QUERY = 0.4

    def __init__(self, sizes: Sizes, seed: int):
        super().__init__("mean_wide")
        rng = random.Random(f"mean_wide/{seed}")
        n = sizes.wide_entities
        outside = outside_positions(rng, n, self.OUTSIDE_SHARE)
        rows = []
        for i in range(n):
            if i in outside:
                value = rng.uniform(-40.0, -0.5) if rng.random() < 0.5 else rng.uniform(122.5, 200.0)
            else:
                value = rng.uniform(self.FLOOR, self.CEILING)
            rows.append(Row(f"w{i:05d}", round(value, 3), self.FLOOR, self.CEILING))
        self.datasets = {"wide": rows}
        m = max(r.magnitude for r in rows)
        self.slope_mean = 1.0 / n
        self.slope_sq = 2.0 * max(oracles.widened(self.FLOOR, self.CEILING), key=abs) / n
        self.sigma_mean = oracles.sigma_for_share(self.slope_mean * m, self.SHARE_PER_QUERY, EPS_CAP, DELTA)
        self.sigma_sq = oracles.sigma_for_share(self.slope_sq * m, self.SHARE_PER_QUERY, EPS_CAP, DELTA)

    def session(self, sessions, journal_dir: Path) -> dict:
        s = sessions[0]
        rows = self.datasets["wide"]
        n = len(rows)
        roots = remote_roots(s, "wide", rows)
        mean = fold(roots, lambda a, b: a + b).scale(1.0 / n)
        squares = [r ** 2 for r in roots]
        mean_sq = fold(squares, lambda a, b: a + b).scale(1.0 / n)
        out = {"mean": rehearse_and_publish(s, mean, self.sigma_mean),
               "mean_sq": rehearse_and_publish(s, mean_sq, self.sigma_sq)}
        out["remaining"] = s.remaining_budget("*")
        return out

    def verify(self, got: dict, journal_dir: Path, restarted: list[dict]) -> None:
        rows = self.datasets["wide"]
        by_entity = {r.entity: r for r in rows}
        n = len(rows)
        cases = (
            ("mean", self.slope_mean, self.sigma_mean, math.fsum(r.clipped for r in rows) / n),
            ("mean_sq", self.slope_sq, self.sigma_sq, math.fsum(r.clipped ** 2 for r in rows) / n),
        )
        charged: dict[str, float] = {}
        for name, slope, sigma, expected in cases:
            sim, pub = got[name]
            slopes = dict.fromkeys(by_entity, slope)
            require(sim.passed, f"{name}: rehearsal refused")
            check_spends(sim.spends, by_entity, slopes, True, sigma, f"{name} rehearsal")
            check_spends(pub.spends, by_entity, slopes, True, sigma, f"{name} release")
            check_release(pub.value, expected, sigma, name)
            for s in pub.spends:
                charged[s["entity"]] = charged.get(s["entity"], 0.0) + s["rho"]
        totals = oracles.journal_totals(oracles.read_journal(journal_dir / self.journal_name()))
        require(totals.keys() == charged.keys(), "journal names other entities than were charged")
        for e, rho in charged.items():
            require(oracles.close(totals[e], rho, REL_TOL), f"journal total of {e} != charges")
        require(sorted(got["remaining"]) == sorted(by_entity), "remaining '*' lists other entities")
        for e, eps in got["remaining"].items():
            check_remaining(eps, totals, e, "remaining '*'")
        check_restarts(restarted, got["remaining"])


class CornerExact(Workload):
    """Square-of-sum and shifted-product queries whose slopes need corner scans."""

    OUTSIDE_SHARE = 0.1
    STEPS = (0.25, 0.5, 0.75, 1.0)
    SHARE_PER_QUERY = 0.8  # every entity enters one release only

    def __init__(self, sizes: Sizes, seed: int):
        super().__init__("corner_exact")
        rng = random.Random(f"corner_exact/{seed}")
        n = sum(sizes.corner_groups)
        outside = outside_positions(rng, n, self.OUTSIDE_SHARE)
        rows = []
        for i in range(n):
            floor, ceiling = -rng.choice(self.STEPS), rng.choice(self.STEPS)
            if i in outside:
                value = floor - rng.uniform(0.05, 1.0) if rng.random() < 0.5 else ceiling + rng.uniform(0.05, 1.0)
            else:
                value = rng.uniform(floor, ceiling)
            rows.append(Row(f"c{i:03d}", round(value, 4), floor, ceiling))
        self.datasets = {"corner": rows}
        k1, k2, _ = sizes.corner_groups
        self.groups = (rows[:k1], rows[k1:k1 + k2], rows[k1 + k2:])
        self.group_size = {r.entity: len(g) for g in self.groups for r in g}
        self.kinds = ("square_of_sum", "shifted_product", "square_of_sum")
        self.slopes = []
        self.sigmas = []
        for kind, group in zip(self.kinds, self.groups):
            boxes = [(r.floor, r.ceiling) for r in group]
            fn = oracles.square_of_sum_slopes if kind == "square_of_sum" else oracles.shifted_product_slopes
            slopes = dict(zip((r.entity for r in group), fn(boxes)))
            worst = max(slopes[r.entity] * r.magnitude for r in group)
            self.slopes.append(slopes)
            self.sigmas.append(oracles.sigma_for_share(worst, self.SHARE_PER_QUERY, EPS_CAP, DELTA))

    def exact_expected(self, entity: str) -> bool:
        return self.group_size[entity] <= VERTEX_CAP

    def session(self, sessions, journal_dir: Path) -> dict:
        s = sessions[0]
        rows = self.datasets["corner"]
        roots = dict(zip((r.entity for r in rows), remote_roots(s, "corner", rows)))
        results = []
        for kind, group, sigma in zip(self.kinds, self.groups, self.sigmas):
            handles = [roots[r.entity] for r in group]
            if kind == "square_of_sum":
                query = fold(handles, lambda a, b: a + b) ** 2
            else:
                query = fold([h.shift(1.0) for h in handles], lambda a, b: a * b)
            results.append(rehearse_and_publish(s, query, sigma))
        return {"queries": results, "remaining_min": s.remaining_budget("min")}

    def verify(self, got: dict, journal_dir: Path, restarted: list[dict]) -> None:
        rows = self.datasets["corner"]
        by_entity = {r.entity: r for r in rows}
        for i, (kind, group, sigma, slopes) in enumerate(zip(self.kinds, self.groups, self.sigmas, self.slopes)):
            sim, pub = got["queries"][i]
            what = f"query {i + 1} ({kind}, k={len(group)})"
            require(sim.passed, f"{what}: rehearsal refused")
            exact = len(group) <= VERTEX_CAP
            check_spends(sim.spends, by_entity, slopes, exact, sigma, f"{what} rehearsal")
            check_spends(pub.spends, by_entity, slopes, exact, sigma, f"{what} release")
            if kind == "square_of_sum":
                expected = math.fsum(r.clipped for r in group) ** 2
            else:
                expected = math.prod(r.clipped + 1.0 for r in group)
            check_release(pub.value, expected, sigma, what)
        totals = oracles.journal_totals(oracles.read_journal(journal_dir / self.journal_name()))
        check_remaining_min(got["remaining_min"], totals, by_entity, "remaining min")
        require(sorted(restarted[0]) == sorted(by_entity), "remaining '*' lists other entities")
        for e, eps in restarted[0].items():
            check_remaining(eps, totals, e, "remaining '*' after a restart")
        check_restarts(restarted, restarted[0])


class BudgetDrain(Workload):
    """Two analysts on a shared ledger release means until budgets run out."""

    FLOOR, CEILING = 0.0, 100.0
    OUTSIDE_SHARE = 0.1
    RELEASES_AT_BOUND = 6.5  # an entity charged at its bound affords 6 releases

    def __init__(self, sizes: Sizes, seed: int):
        super().__init__("budget_drain", users=("alice", "bob"),
                         shared_ledger=True, refusals_expected=True)
        rng = random.Random(f"budget_drain/{seed}")
        shared = [f"s{i:03d}" for i in range(sizes.drain_shared)]
        own = sizes.drain_rows - sizes.drain_shared
        entity_sets = {"clinic_a": shared + [f"a{i:03d}" for i in range(own)],
                       "clinic_b": shared + [f"b{i:03d}" for i in range(own)]}
        for name, entities in entity_sets.items():
            outside = outside_positions(rng, len(entities), self.OUTSIDE_SHARE)
            rows = []
            for i, e in enumerate(entities):
                if i in outside:
                    value = rng.uniform(-30.0, -0.5) if rng.random() < 0.5 else rng.uniform(100.5, 150.0)
                else:
                    value = rng.uniform(self.FLOOR, self.CEILING)
                rows.append(Row(e, round(value, 3), self.FLOOR, self.CEILING))
            self.datasets[name] = rows
        n = sizes.drain_subset
        self.slope = 1.0 / n
        self.sigma = oracles.sigma_for_share(self.slope * self.CEILING, 1.0 / self.RELEASES_AT_BOUND,
                                             EPS_CAP, DELTA)
        names = list(self.datasets)
        self.cycles = []  # (analyst index, dataset, subset positions)
        for c in range(sizes.drain_cycles):
            who = c % 2
            self.cycles.append((who, names[who], sorted(rng.sample(range(sizes.drain_rows), n))))

    def session(self, sessions, journal_dir: Path) -> dict:
        journal = journal_dir / self.journal_name()
        roots = [remote_roots(s, name, self.datasets[name]) for s, name in zip(sessions, self.datasets)]
        cycles = []
        for who, _name, subset in self.cycles:
            s = sessions[who]
            query = fold([roots[who][i] for i in subset], lambda a, b: a + b).scale(self.slope)
            s.fork_sim()
            sim = s.simulate(query, self.sigma)
            size_before = journal.stat().st_size
            try:
                outcome = s.publish(query, self.sigma)
            except PublishRejectedError as exc:
                outcome = exc
            size_after = journal.stat().st_size
            s.drop(query)
            cycles.append({"sim": sim, "outcome": outcome,
                           "size_before": size_before, "size_after": size_after,
                           "remaining_min": s.remaining_budget("min")})
        return {"cycles": cycles, "remaining": sessions[0].remaining_budget("*")}

    def verify(self, got: dict, journal_dir: Path, restarted: list[dict]) -> None:
        text = oracles.read_journal(journal_dir / self.journal_name())
        everyone = {r.entity for rows in self.datasets.values() for r in rows}
        for c, ((_who, name, subset), rec) in enumerate(zip(self.cycles, got["cycles"])):
            what = f"cycle {c + 1} ({name})"
            rows = [self.datasets[name][i] for i in subset]
            by_entity = {r.entity: r for r in rows}
            before = oracles.journal_totals(text[:rec["size_before"]])
            projected = {r.entity: oracles.conversion_eps(
                before.get(r.entity, 0.0) + oracles.gaussian_rho(self.slope, r.clipped, self.sigma), DELTA)
                for r in rows}
            over = sorted(e for e, eps in projected.items() if eps > EPS_CAP)
            borderline = any(abs(eps - EPS_CAP) <= REL_TOL * EPS_CAP for eps in projected.values())
            sim, outcome = rec["sim"], rec["outcome"]
            if isinstance(outcome, PublishRejectedError):
                # the journal is append-only, so an unchanged size means unchanged bytes
                require(rec["size_after"] == rec["size_before"], f"{what}: a refusal changed the journal")
                require(not sim.passed, f"{what}: rehearsal passed, release refused")
                require(sorted(sim.rejection["entities"]) == sorted(outcome.entities),
                        f"{what}: rehearsal and release refuse different entities")
                for e, eps in zip(outcome.entities, outcome.projected_eps):
                    require(eps > EPS_CAP, f"{what}: refusal names {e} at eps {eps!r} within the cap")
                    require(oracles.close(eps, projected[e], REL_TOL),
                            f"{what}: projected eps {eps!r} of {e} != {projected[e]!r}")
                if not borderline:
                    require(sorted(outcome.entities) == over, f"{what}: refused {outcome.entities}, expected {over}")
            else:
                require(sim.passed, f"{what}: rehearsal refused, release admitted")
                require(not over or borderline, f"{what}: admitted although {over} go over the cap")
                slopes = dict.fromkeys(by_entity, self.slope)
                check_spends(sim.spends, by_entity, slopes, True, self.sigma, f"{what} rehearsal")
                check_spends(outcome.spends, by_entity, slopes, True, self.sigma, f"{what} release")
                expected = math.fsum(r.clipped for r in rows) * self.slope
                check_release(outcome.value, expected, self.sigma, what)
                require(rec["size_after"] > rec["size_before"], f"{what}: release left no journal lines")
            after = oracles.journal_totals(text[:rec["size_after"]])
            check_remaining_min(rec["remaining_min"], after, everyone, f"{what} remaining min")
        totals = oracles.journal_totals(text)
        require(sorted(got["remaining"]) == sorted(everyone), "remaining '*' lists other entities")
        for e, eps in got["remaining"].items():
            check_remaining(eps, totals, e, "remaining '*'")
        check_restarts(restarted, got["remaining"])


WORKLOADS = {"mean_wide": MeanWide, "corner_exact": CornerExact, "budget_drain": BudgetDrain}
