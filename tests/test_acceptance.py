"""Acceptance gate: ten end-to-end criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every expected number here comes from the independent oracles in oracles.py
or from closed-form arithmetic done in the test body — never from the package
code under test.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import clipped_values, random_scalar, to_box, to_terms
from oracles import (
    analytic_rho_for_eps,
    analytic_sigma,
    closed_form_eps,
    diff_terms,
    golden_eps,
    grid_max_abs,
    renyi_divergence_quad,
)
from pscalar import demos
from pscalar.accounting import (
    BudgetPolicy,
    PrivacyLedger,
    calibrate_sigma,
    filter_check,
    rdp_to_dp,
    spend_for_publish,
)
from pscalar.mechanism import BudgetRejected, GaussianNoiseSource, publish
from pscalar.node import Node, NodeConfig, NodeSession, read_audit
from pscalar.poly import VarId
from pscalar.scalar import PrivateScalar
from pscalar.sensitivity import FIRST_DEGREE, MONOTONE_CEILING, lipschitz_bound


@contextmanager
def criterion(tag: str, title: str):
    try:
        yield
    except BaseException:
        print(f"\n{tag} FAIL - {title}", flush=True)
        raise
    else:
        print(f"\n{tag} PASS - {title}", flush=True)


def mk(entity, value, lo, hi, attribute=""):
    return PrivateScalar.make_private(entity, value, lo, hi, attribute=attribute)


# -- criterion 1 ------------------------------------------------------------------------


def _sample_bounded_query(rnd: random.Random) -> PrivateScalar:
    """Random query: <=4 entities, total degree <=3 per term, <=8 nonconstant
    terms, coefficients in [-5, 5], boxes inside [-10, 10], raw values in
    [-12, 12] so clipping fires sometimes."""
    k = rnd.randint(1, 4)
    parts = []
    for j in range(k):
        lo = rnd.uniform(-10.0, 9.0)
        hi = rnd.uniform(lo + 0.1, 10.0)
        parts.append(mk(f"e{j}", rnd.uniform(-12.0, 12.0), lo, hi))
    scalar = PrivateScalar.from_public(rnd.uniform(-5.0, 5.0))
    for _ in range(rnd.randint(1, 8)):
        term = PrivateScalar.from_public(rnd.uniform(-5.0, 5.0))
        for _ in range(rnd.randint(1, 3)):
            term = term * rnd.choice(parts)
        scalar = scalar + term
    return scalar


def test_c01_slope_bounds_dominate_grid_suprema():
    with criterion("C1", "slope bounds dominate dense-grid suprema on 2000 random queries"):
        rnd = random.Random(0xC1)
        t0 = time.monotonic()
        exact_checked = 0
        exact_nontrivial = 0
        sound_checked = 0
        for _ in range(2000):
            scalar = _sample_bounded_query(rnd)
            terms = to_terms(scalar.poly)
            for entity in sorted(scalar.inputs):
                dterms = diff_terms(terms, entity.label())
                dvars = sorted({n for _, pw in dterms for n in pw})
                res = lipschitz_bound(scalar, entity)
                box = to_box(scalar, hulled=entity)
                # soundness: a 41-point-per-axis supremum never exceeds the bound
                sup = grid_max_abs(dterms, box, 41)
                assert sup <= res.bound + 1e-9, (str(scalar.poly), entity.label(), res, sup)
                sound_checked += 1
                # tightness: where the package claims exactness and the box
                # has at most two live coordinates, a 201-point grid (which
                # contains every corner) must agree to 1e-6
                if res.exact and len(dvars) <= 2:
                    sup201 = grid_max_abs(dterms, box, 201)
                    assert res.bound == pytest.approx(sup201, rel=1e-6, abs=1e-6), (
                        str(scalar.poly), entity.label(), res, sup201
                    )
                    exact_checked += 1
                    if dvars:
                        exact_nontrivial += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
        assert sound_checked >= 3000
        assert exact_checked >= 100 and exact_nontrivial >= 30
        print(
            f"  swept {sound_checked} bounds in {elapsed:.1f}s; "
            f"{exact_checked} exactness agreements ({exact_nontrivial} non-constant)",
            flush=True,
        )


# -- criterion 2 ------------------------------------------------------------------------


def test_c02_linear_and_monotone_bounds_are_literal():
    with criterion("C2", "mean-of-100 slope is the literal 0.01; products bound at ceilings"):
        parts = [mk(f"u{i:03d}", 18.0 + (i * 37) % 73, 0.0, 122.0) for i in range(1, 101)]
        mean = sum(parts[1:], parts[0]).scale(0.01)
        for i in range(1, 101):
            res = lipschitz_bound(mean, VarId(f"u{i:03d}"))
            assert res.bound == 0.01          # the exact double, not an approximation
            assert res.strategy == FIRST_DEGREE and res.exact
        spends = spend_for_publish(mean, 5.0)
        ages = {f"u{i:03d}": 18.0 + (i * 37) % 73 for i in range(1, 101)}
        assert len(spends) == 100
        for spend in spends:
            x = ages[spend.entity.entity]
            assert spend.rho == (0.01 * 0.01) * (x * x) / 50.0
        # monotone route: nonnegative boxes put the worst slope at the ceilings
        f = mk("A", 100.0, 0.0, 122.0) * mk("B", 5.0, 0.0, 10.0)
        res_a = lipschitz_bound(f, VarId("A"))
        res_b = lipschitz_bound(f, VarId("B"))
        assert (res_a.bound, res_a.strategy, res_a.exact) == (10.0, MONOTONE_CEILING, True)
        assert (res_b.bound, res_b.strategy, res_b.exact) == (122.0, MONOTONE_CEILING, True)
        # higher degree: the bound IS the derivative evaluated at the all-ceilings
        # corner, computed here by the independent differentiator
        g = mk("A", 100.0, 0.0, 122.0)
        g = g * g * mk("B", 5.0, 0.0, 10.0)  # A^2 B
        corner = {"A": 122.0, "B": 10.0}
        for name, want in (("A", 2.0 * 122.0 * 10.0), ("B", 122.0 * 122.0)):
            res = lipschitz_bound(g, VarId(name))
            dcorner = sum(
                c * math.prod(corner[v] ** p for v, p in pw.items())
                for c, pw in diff_terms(to_terms(g.poly), name)
            )
            assert res.bound == want == dcorner
            assert res.strategy == MONOTONE_CEILING and res.exact


# -- criterion 3 ------------------------------------------------------------------------


def test_c03_spends_match_quadrature_divergence():
    with criterion("C3", "charged costs equal numeric divergence of the release pair"):
        rnd = random.Random(0xC3)
        alphas = (1.5, 2.0, 8.0, 64.0)
        cases = 0
        while cases < 50:
            scalar = random_scalar(rnd, max_vars=3, max_terms=5)
            sigma = rnd.uniform(5.0, 500.0)
            spends = spend_for_publish(scalar, sigma)
            assign = clipped_values(scalar)
            value = scalar.poly.evaluate(assign)
            spend = spends[cases % len(spends)]
            worst_shift = spend.lipschitz * abs(assign[spend.entity])
            if worst_shift == 0.0:
                continue
            removed_value = scalar.poly.evaluate({**assign, spend.entity: 0.0})
            for alpha in alphas:
                # at the worst-case shift the divergence equals alpha * rho exactly
                d_worst = renyi_divergence_quad(value, value - worst_shift, sigma, alpha)
                assert d_worst == pytest.approx(alpha * spend.rho, rel=1e-6), (
                    sigma, spend, alpha
                )
                # the divergence of the ACTUAL release pair never exceeds it
                d_actual = renyi_divergence_quad(value, removed_value, sigma, alpha)
                assert d_actual <= alpha * spend.rho * (1 + 1e-9) + 1e-12
            cases += 1
        assert cases == 50


# -- criterion 4 ------------------------------------------------------------------------


def test_c04_conversion_tracks_reference_curve():
    with criterion("C4", "order-curve conversion matches reference optimum"):
        eps05 = rdp_to_dp(0.5, 1e-6)
        assert 4.8 <= eps05 <= 5.7561 + 1e-3
        assert eps05 <= closed_form_eps(0.5, 1e-6)
        assert eps05 == pytest.approx(closed_form_eps(0.5, 1e-6), rel=1e-9)
        assert rdp_to_dp(0.0, 1e-6) == 0.0
        rnd = random.Random(0xC4)
        for _ in range(200):
            rho = 10.0 ** rnd.uniform(-8, 2)
            delta = 10.0 ** rnd.uniform(-10, -2)
            got = rdp_to_dp(rho, delta)
            want = golden_eps(rho, delta)
            assert got == pytest.approx(want, rel=1e-9), (rho, delta)
            assert got >= want * (1 - 1e-9)       # never below the true optimum
        # monotone in rho at several deltas
        for delta in (1e-4, 1e-6, 1e-9):
            rhos = sorted(10.0 ** rnd.uniform(-6, 1.5) for _ in range(40))
            eps = [rdp_to_dp(r, delta) for r in rhos]
            assert all(a <= b + 1e-12 for a, b in zip(eps, eps[1:]))
        # monotone in 1/delta at several rhos: shrinking delta can only cost more
        for rho in (0.01, 0.5, 3.0):
            deltas = [10.0 ** -d for d in range(2, 11)]
            eps = [rdp_to_dp(rho, d) for d in deltas]
            assert all(a <= b + 1e-12 for a, b in zip(eps, eps[1:]))
        print(f"  eps(rho=0.5, delta=1e-6) = {eps05:.6f}", flush=True)


# -- criterion 5 ------------------------------------------------------------------------


def test_c05_adaptive_walk_never_crosses_cap(tmp_path):
    with criterion("C5", "200-step adaptive walk stays under cap; journal replays exactly"):
        policy = BudgetPolicy(eps_cap=3.0, delta=1e-6)
        path = tmp_path / "walk.log"
        ledger = PrivacyLedger(journal_path=path)
        src = GaussianNoiseSource(seed=0xC5)
        rnd = random.Random(0xC5)
        people = {
            "A": mk("A", 30.0, 0.0, 100.0),
            "B": mk("B", 50.0, 0.0, 100.0),
            "C": mk("C", 70.0, 0.0, 100.0),
        }
        queries = [
            (people["A"] + people["B"] + people["C"]).scale(1.0 / 3.0),
            people["A"],
            people["A"] + people["B"],
            people["C"].scale(2.0),
            people["B"] * people["C"],
        ]
        shadow: dict[str, float] = {}   # oracle-side cumulative rho per entity
        accepted = rejected = 0
        first_rejection_checked = False
        for _ in range(200):
            q = rnd.choice(queries)
            sigma = 60.0 * (10.0 ** rnd.uniform(0.0, 1.0))
            spends = spend_for_publish(q, sigma)
            proposed: dict[str, float] = {}
            for s in spends:
                proposed[s.entity.entity] = proposed.get(s.entity.entity, 0.0) + s.rho
            try:
                publish(q, sigma, ledger, policy, src)
            except BudgetRejected as exc:
                rejected += 1
                reported = {e for e, _ in exc.violations}
                over = {
                    e for e, add in proposed.items()
                    if golden_eps(shadow.get(e, 0.0) + add, 1e-6) > 3.0
                }
                assert reported == over, (reported, over)
                if not first_rejection_checked:
                    worst = max(
                        golden_eps(shadow.get(e, 0.0) + proposed[e], 1e-6) for e in reported
                    )
                    assert worst > 3.0 - 1e-7
                    first_rejection_checked = True
                continue
            accepted += 1
            for e, add in proposed.items():
                shadow[e] = shadow.get(e, 0.0) + add
            # invariant after every accepted step: all entities within cap
            for e, total in shadow.items():
                assert golden_eps(total, 1e-6) <= 3.0 + 1e-9, (e, total)
        assert accepted >= 5 and rejected >= 5, (accepted, rejected)
        assert first_rejection_checked
        # the package ledger agrees with the oracle shadow to float precision
        for e, total in shadow.items():
            assert ledger.total(e) == pytest.approx(total, rel=1e-12)
        replayed = PrivacyLedger.replayed(path)
        assert replayed.snapshot_bytes() == ledger.snapshot_bytes()
        ledger.close()
        print(f"  accepted {accepted}, rejected {rejected}; replay byte-identical", flush=True)


# -- criterion 6 ------------------------------------------------------------------------


def test_c06_simulation_leaves_no_trace(tmp_path):
    with criterion("C6", "100 rehearsals charge nothing and shift no noise"):
        def build(tag: str) -> tuple[Node, NodeSession, str]:
            node = Node(NodeConfig(
                eps_cap=2.0, delta=1e-6, journal_dir=tmp_path / tag, seed=0xC6,
            ))
            node.ingest(str(demos.path("ages.csv")))
            node.add_user("u", key="k")
            session = NodeSession(peer=tag)
            assert node.handle_request(session, {"id": 1, "op": "auth", "key": "k"})["ok"]
            roots = node.handle_request(
                session, {"id": 2, "op": "get_roots", "dataset": "ages"}
            )["roots"]
            total = roots[0]["handle"]
            rid = 3
            for r in roots[1:]:
                resp = node.handle_request(session, {
                    "id": rid, "op": "binop", "kind": "add", "a": total, "b": r["handle"],
                })
                total, rid = resp["handle"], rid + 1
            resp = node.handle_request(session, {
                "id": rid, "op": "unop", "kind": "scale", "handle": total, "c": 0.01,
            })
            return node, session, resp["handle"]

        plain_node, plain_session, plain_mean = build("plain")
        sim_node, sim_session, sim_mean = build("sims")
        # 100 rehearsals on the second node: a mix of passing and failing ones
        for i in range(100):
            sigma = 5.0 if i % 2 == 0 else 1e-5
            resp = sim_node.handle_request(sim_session, {
                "id": 1000 + i, "op": "simulate_publish", "handle": sim_mean, "sigma": sigma,
            })
            assert resp["ok"]
        assert sim_session.user.ledger.cumulative == {}
        assert not (tmp_path / "sims" / "ledger-user-u.log").exists() or (
            (tmp_path / "sims" / "ledger-user-u.log").read_bytes() == b""
        )
        # the real publish is bit-identical on both nodes
        out_plain = plain_node.handle_request(
            plain_session, {"id": 9000, "op": "publish", "handle": plain_mean, "sigma": 5.0}
        )
        out_sim = sim_node.handle_request(
            sim_session, {"id": 9000, "op": "publish", "handle": sim_mean, "sigma": 5.0}
        )
        assert out_plain["ok"] and out_sim["ok"]
        assert out_plain["value"] == out_sim["value"]
        assert out_plain["spends"] == out_sim["spends"]
        led_a = plain_session.user.ledger
        led_b = sim_session.user.ledger
        assert led_a.snapshot_bytes() == led_b.snapshot_bytes()
        plain_node.close()
        sim_node.close()


# -- criterion 7 ------------------------------------------------------------------------


def _hospital_values() -> tuple[dict[str, float], dict[str, float]]:
    """Parse the bundled hospital CSVs: entity -> value, per file."""
    out = []
    for name in ("hospital1.csv", "hospital2.csv"):
        rows = {}
        for line in demos.path(name).read_text().splitlines()[1:]:
            entity, value, _floor, _ceiling = line.split(",")
            rows[entity] = float(value)
        out.append(rows)
    return out[0], out[1]


def _overlap_run(tmp_path, shared: bool):
    node = Node(NodeConfig(
        eps_cap=3.0, delta=1e-6, shared_ledger=shared,
        journal_dir=tmp_path / ("shared" if shared else "peruser"), seed=0xC7,
    ))
    node.ingest(str(demos.path("hospital1.csv")))
    node.ingest(str(demos.path("hospital2.csv")))
    node.add_user("alice", key="ka")
    node.add_user("bob", key="kb")

    def session(key):
        s = NodeSession(peer=key)
        assert node.handle_request(s, {"id": 1, "op": "auth", "key": key})["ok"]
        return s

    def total_of(s, dataset, rid0):
        roots = node.handle_request(
            s, {"id": rid0, "op": "get_roots", "dataset": dataset}
        )["roots"]
        h = roots[0]["handle"]
        for i, r in enumerate(roots[1:]):
            h = node.handle_request(s, {
                "id": rid0 + 1 + i, "op": "binop", "kind": "add", "a": h, "b": r["handle"],
            })["handle"]
        return h

    alice, bob = session("ka"), session("kb")
    alice_total = total_of(alice, "hospital1", 100)
    bob_total = total_of(bob, "hospital2", 200)
    results = []
    results.append(node.handle_request(alice, {"id": 301, "op": "publish", "handle": alice_total, "sigma": 200.0}))
    results.append(node.handle_request(alice, {"id": 302, "op": "publish", "handle": alice_total, "sigma": 200.0}))
    results.append(node.handle_request(bob, {"id": 303, "op": "publish", "handle": bob_total, "sigma": 200.0}))
    results.append(node.handle_request(bob, {"id": 304, "op": "publish", "handle": bob_total, "sigma": 200.0}))
    results.append(node.handle_request(bob, {"id": 305, "op": "publish", "handle": bob_total, "sigma": 200.0}))
    return node, results


def test_c07_overlapping_datasets_share_budgets(tmp_path):
    with criterion("C7", "overlap entities pool spends under a shared ledger only"):
        h1, h2 = _hospital_values()
        shared_entities = sorted(set(h1) & set(h2))
        assert shared_entities == [f"p{i}" for i in range(16, 26)]

        node, results = _overlap_run(tmp_path, shared=True)
        assert [r["ok"] for r in results] == [True, True, True, True, False]
        rejection = results[-1]["rejection"]
        assert rejection["entities"] == shared_entities
        # oracle arithmetic: exactly five same-sized spends cross the cap
        for entity in shared_entities:
            r = h1[entity] ** 2 / (2.0 * 200.0**2)
            assert golden_eps(4 * r, 1e-6) <= 3.0
            assert golden_eps(5 * r, 1e-6) > 3.0
        for entity, projected in zip(rejection["entities"], rejection["projected_eps"]):
            want = golden_eps(5 * h1[entity] ** 2 / (2.0 * 200.0**2), 1e-6)
            assert projected == pytest.approx(want, rel=1e-9)
        # what the shared ledger actually accepted keeps EVERY entity within cap
        node.close()
        pooled = read_audit(tmp_path / "shared")["cumulative"]["shared"]
        assert all(golden_eps(total, 1e-6) <= 3.0 + 1e-9 for total in pooled.values())

        node2, results2 = _overlap_run(tmp_path, shared=False)
        assert all(r["ok"] for r in results2)  # separate ledgers never collide
        # but the COMBINED spend on shared entities exceeds the cap:
        node2.close()
        cumulative = read_audit(tmp_path / "peruser")["cumulative"]
        for entity in shared_entities:
            combined = cumulative["user-alice"][entity] + cumulative["user-bob"][entity]
            assert golden_eps(combined, 1e-6) > 3.0
        print(f"  shared mode rejected exactly {rejection['entities']}", flush=True)


# -- criterion 8 ------------------------------------------------------------------------


def test_c08_noise_is_calibrated_gaussian():
    with criterion("C8", "100000 seeded releases match the stated mean and variance"):
        f = (mk("A", 130.0, 0.0, 122.0) + mk("B", 40.0, 0.0, 122.0)).scale(0.5)
        true_value = f.value()
        assert true_value == 81.0
        sigma = 5.0
        src = GaussianNoiseSource(seed=0xC8)
        n = 100_000
        values = [f.value() + src.sample(sigma) for _ in range(n)]
        mean = sum(values) / n
        var = statistics.variance(values, xbar=mean)
        assert abs(mean - true_value) <= 4.0 * sigma / math.sqrt(n)
        assert abs(var - sigma * sigma) <= 0.05 * sigma * sigma
        within_1s = sum(1 for v in values if abs(v - true_value) <= sigma) / n
        assert abs(within_1s - 0.6827) < 0.01
        print(
            f"  mean {mean:.4f} (true {true_value}), var {var:.3f} (sigma^2 {sigma**2})",
            flush=True,
        )


# -- criterion 9 ------------------------------------------------------------------------


def test_c09_calibration_matches_analytic_inverse():
    with criterion("C9", "noise calibration inverts the budget curve to 0.1%"):
        eps = golden_eps(0.5, 1e-6)          # cap chosen so the answer is sigma = 50
        policy = BudgetPolicy(eps_cap=eps, delta=1e-6)
        target = mk("solo", 50.0, 0.0, 50.0)
        ledger = PrivacyLedger()
        sigma = calibrate_sigma(target, ledger, policy)
        want = analytic_sigma(50.0, eps, 1e-6)
        assert want == pytest.approx(50.0, rel=1e-12)
        assert sigma == pytest.approx(want, rel=1e-3)
        assert filter_check(ledger, spend_for_publish(target, sigma), policy).ok
        assert not filter_check(
            ledger, spend_for_publish(target, 0.999 * sigma), policy
        ).ok
        # a publish at the calibrated noise really is admitted end to end
        publish(target, sigma, ledger, policy, GaussianNoiseSource(seed=0xC9))
        # remaining headroom is now tiny: a repeat release is refused
        with pytest.raises(BudgetRejected):
            publish(target, sigma, ledger, policy, GaussianNoiseSource(seed=0xC9))
        # analytic inverse at another cap, with multiple entities
        eps2 = 2.0
        rho2 = analytic_rho_for_eps(eps2, 1e-6)
        multi = mk("m1", 30.0, 0.0, 30.0) + mk("m2", 18.0, 0.0, 60.0)
        sigma2 = calibrate_sigma(multi, PrivacyLedger(), BudgetPolicy(eps_cap=eps2, delta=1e-6))
        want2 = 30.0 / math.sqrt(2.0 * rho2)   # binding entity: the larger shift
        assert sigma2 == pytest.approx(want2, rel=1e-3)
        print(f"  calibrated sigma {sigma:.4f} (analytic 50); multi-entity {sigma2:.4f}", flush=True)


# -- criterion 10 -----------------------------------------------------------------------


def test_c10_end_to_end_demo_and_stress(tmp_path):
    with criterion("C10", "demo run under 5s over TCP; 12-way product stress under 10s"):
        env = dict(os.environ)
        proc = subprocess.Popen(
            [sys.executable, "-m", "pscalar", "node", "serve",
             "--data", str(demos.path("ages.csv")),
             "--port", "0", "--eps", "2.0", "--delta", "1e-6", "--seed", "7",
             "--user", "demo:demokey", "--journal", str(tmp_path / "demo-state")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            m = re.match(r"pscalar-node listening on (\S+):(\d+)", banner)
            assert m, f"unexpected banner: {banner!r}"
            addr = f"{m.group(1)}:{m.group(2)}"
            t0 = time.monotonic()
            run = subprocess.run(
                [sys.executable, "-m", "pscalar", "client", "run",
                 str(demos.path("demo_mean.script")), "--addr", addr, "--key", "demokey"],
                capture_output=True, text=True, timeout=30, env=env,
            )
            demo_elapsed = time.monotonic() - t0
            assert run.returncode == 0, run.stdout + run.stderr
            assert demo_elapsed < 5.0, f"demo took {demo_elapsed:.2f}s"
            report = json.loads(run.stdout.strip().splitlines()[-1].removeprefix("report: "))
            assert report["ok"] is True
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()  # fail without leaving the node running
                proc.wait()
                raise
            finally:
                proc.stdout.close()

        # stress: a 12-way product whose slope needs 2^11 corner evaluations
        # per entity (negative floors rule the cheaper routes out)
        csv = tmp_path / "wide.csv"
        csv.write_text(
            "entity,value,floor,ceiling\n"
            + "".join(f"w{i:02d},1.5,-1,2\n" for i in range(12)),
            encoding="utf-8",
        )
        node = Node(NodeConfig(eps_cap=2.0, delta=1e-6, journal_dir=tmp_path / "stress", seed=1))
        node.ingest(csv)
        node.add_user("u", key="k")
        session = NodeSession(peer="stress")
        node.handle_request(session, {"id": 1, "op": "auth", "key": "k"})
        roots = node.handle_request(session, {"id": 2, "op": "get_roots", "dataset": "wide"})["roots"]

        t1 = time.monotonic()
        prod = roots[0]["handle"]
        for i, r in enumerate(roots[1:]):
            prod = node.handle_request(session, {
                "id": 10 + i, "op": "binop", "kind": "mul", "a": prod, "b": r["handle"],
            })["handle"]
        resp = node.handle_request(session, {"id": 50, "op": "publish", "handle": prod, "sigma": 20000.0})
        stress_elapsed = time.monotonic() - t1
        assert resp["ok"], resp
        assert stress_elapsed < 10.0, f"stress took {stress_elapsed:.2f}s"
        # every entity was charged through the corner-walk route at slope 2^11
        for spend in resp["spends"]:
            assert spend["lipschitz"] == 2.0 ** 11
            assert spend["rho"] == (2.0**11 * 1.5) ** 2 / (2.0 * 20000.0**2)

        # document the exponential term growth that motivates the default cap:
        # chaining (x_i + 1) doubles the term count at each step: 2, 4, ..., 4096
        shifted = [
            node.handle_request(session, {
                "id": 100 + i, "op": "unop", "kind": "shift", "handle": r["handle"], "c": 1.0,
            })["handle"]
            for i, r in enumerate(roots)
        ]
        counts = []
        h = shifted[0]
        counts.append(node.handle_request(session, {"id": 200, "op": "describe", "handle": h})["scalar"]["terms"])
        for i, s in enumerate(shifted[1:]):
            h = node.handle_request(session, {
                "id": 210 + i, "op": "binop", "kind": "mul", "a": h, "b": s,
            })["handle"]
            counts.append(node.handle_request(session, {
                "id": 230 + i, "op": "describe", "handle": h,
            })["scalar"]["terms"])
        assert counts == [2 ** k for k in range(1, 13)]
        node.close()
        print(
            f"  demo {demo_elapsed:.2f}s; stress {stress_elapsed:.2f}s; "
            f"term growth {counts[:4]}...{counts[-1]}",
            flush=True,
        )
