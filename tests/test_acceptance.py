"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Tolerances are pinned here, not
computed; numbered comments give the criterion being exercised.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import bachelier_reference, brute_force_cost, crr_price, level_aux_lattice
from impactlab.dual import _tilt, kusuoka_lower_bound
from impactlab.limits import HJBGrid, LimitProblem, hjb_value, limit_from_market
from impactlab.market import MarketParams, fundamental_path, stopping_grid, terminal_wealth
from impactlab.payoffs import PayoffSpec, quadratic_claim
from impactlab.pricing import (
    DOOB_LAMBDA_MAX,
    DPGrids,
    doob_quadratic_hedge,
    superreplication_cost,
)
from impactlab.cli import run_experiment


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def mk(n, **kw):
    base = dict(p0=0.0, sigma=1.0, n_steps=n, depth=1.0, resilience=0.5)
    base.update(kw)
    return MarketParams(**base)


def test_criterion_1_algebraic_identity_suite(tmp_path):
    # the shipped battery of `impactlab verify` (1000 random markets) at a
    # pinned seed; each row holds a worst violation and its tolerance
    t0 = time.time()
    config = tmp_path / "identity.cfg"
    config.write_text("[run]\nseed = 20240811\n")
    code, rows = run_experiment(config, mode="identity_suite", out_dir=tmp_path)
    elapsed = time.time() - t0
    tol = {"spread": 1e-12, "potential": 1e-10, "kappa": 1e-10, "wealth": 1e-9, "walk_square": 1e-9}
    worst = {r.label: r.value for r in rows}
    ok = (
        code == 0
        and worst.keys() == tol.keys()
        and all(r.err == tol[r.label] and r.value <= tol[r.label] and r.flag == "" for r in rows)
        and elapsed < 30.0
    )
    report(
        "criterion 1 (identity suite)",
        ok,
        f"violations {worst} in {elapsed:.1f}s",
    )


def test_criterion_2_frictionless_reduction():
    t0 = time.time()
    details = []
    ok = True
    for spec in (PayoffSpec("call", strike=0.0), PayoffSpec("put", strike=0.0), PayoffSpec("lookback_max")):
        for n in (2, 8):
            p = mk(n, perm_impact=0.0, x0=0.0)
            res = superreplication_cost(p.frictionless(), spec)
            ref = crr_price(p, spec)
            tol = 1e-3 + res.report["max_interp_residual"]
            good = abs(res.cost - ref) <= tol
            ok &= good
            details.append(f"{spec.kind}/N={n}: |{res.cost:.6f}-{ref:.6f}|<={tol:.1e} {good}")
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report("criterion 2 (frictionless = CRR)", ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    spec = PayoffSpec("call", strike=0.0)
    grid = np.linspace(-2.0, 2.0, 41)
    cases = [
        (0.5, 0.5, 0.0),
        (2.0, 0.5, 0.0),
        (0.5, 1.0, 0.0),
        (2.0, 1.0, 0.1),
        (0.5, 0.5, 0.1),
        (2.0, 1.0, 0.0),
    ]
    ok = True
    gaps = []
    for depth, r, iota in cases:
        p = mk(3, depth=depth, resilience=r, perm_impact=iota)
        bf = brute_force_cost(p, spec, grid)
        res = superreplication_cost(p, spec, DPGrids(x_grid=grid, n_zeta=160, refine=False))
        tol = max(res.report["max_interp_residual"], 1e-3)
        gaps.append(abs(res.cost - bf))
        ok &= abs(res.cost - bf) <= tol
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(
        "criterion 3 (DP = brute force)",
        ok,
        f"six N=3 instances, max gap {max(gaps):.2e} ({elapsed:.1f}s)",
    )


def test_criterion_4_domination_by_temporary_model():
    t0 = time.time()
    spec = PayoffSpec("call", strike=0.0)
    ok = True
    details = []
    for r in (0.3, 0.7):
        for depth in (0.5, 2.0):
            p = mk(6, depth=depth, resilience=r)
            hat = replace(p, resilience=1.0, depth=r * depth / (2.0 - r))
            res = superreplication_cost(p, spec)
            res_hat = superreplication_cost(hat, spec)
            slack = res.report["max_interp_residual"] + res_hat.report["max_interp_residual"] + 1e-3
            good = res.cost <= res_hat.cost + slack
            ok &= good
            details.append(f"r={r},d={depth}: {res.cost:.4f}<={res_hat.cost:.4f}+{slack:.1e} {good}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    report("criterion 4 (domination)", ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_5_weak_duality_kusuoka_vs_primal():
    t0 = time.time()
    spec = PayoffSpec("call", strike=0.0)
    ok = True
    details = []
    for n in (8, 12):
        p = mk(n)
        primal = superreplication_cost(p, spec)
        slack = primal.report["max_interp_residual"] + 1e-3
        for nu in (0.8, 1.0, 1.2):
            rows = kusuoka_lower_bound(nu, spec, p, n_list=[n])
            good = rows[0]["certified"] and rows[0]["bound"] <= primal.cost + slack
            ok &= good
            details.append(f"N={n},nu={nu}: {rows[0]['bound']:.4f}<={primal.cost:.4f} {good}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    report("criterion 5 (weak duality)", ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_6_martingale_exactness():
    # the up-probabilities the exact bound's lattice pass uses make the
    # shadow price M = P + alpha xi / sqrt(N) a martingale: on every
    # (state, last shock) of the call's and the lookback's price lattices
    # the one-step mean of dM is zero (at the root q = 1/2 and M = P)
    t0 = time.time()
    ok = True
    worst = 0.0
    for n in (6, 10, 12):
        p = mk(n)
        for spec in (PayoffSpec("call", strike=0.0), PayoffSpec("lookback_max")):
            lat = level_aux_lattice(spec, p)
            for nu in (0.8, 1.0, 1.2):
                alpha, q, clipped = _tilt(nu, p.sigma)
                ok &= not clipped.any()
                tilt = alpha / math.sqrt(n)
                m_up = [lat.prices[d + 1][lat.up[d]] + tilt for d in range(n)]
                m_dn = [lat.prices[d + 1][lat.dn[d]] - tilt for d in range(n)]
                gaps = [0.5 * m_up[0] + 0.5 * m_dn[0] - lat.prices[0]]
                for d in range(1, n):
                    for side, xi in ((0, -1.0), (1, 1.0)):
                        m_now = lat.prices[d] + xi * tilt
                        gaps.append(q[side] * m_up[d] + (1.0 - q[side]) * m_dn[d] - m_now)
                worst = max(worst, max(float(np.max(np.abs(g))) for g in gaps))
    ok &= worst <= 1e-12
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(
        "criterion 6 (martingale exactness)",
        ok,
        f"worst |E_Q[dM | state, last shock]| = {worst:.2e} over N<=12 lattices ({elapsed:.1f}s)",
    )


def test_criterion_7_hjb_vs_bachelier():
    t0 = time.time()
    target = bachelier_reference("call", 0.0, 0.0, 1.0, 1.0)
    spec = PayoffSpec("call", strike=0.0)
    prob = LimitProblem(payoff=spec, penalty_c=1e6, sigma_sq=1.0, nu_sq_max=2.0)
    coarse = hjb_value(prob, HJBGrid(n_space=401))
    fine = hjb_value(prob, HJBGrid(n_space=801))
    rel_err = abs(fine.value - target) / target
    refinement = abs(fine.value - coarse.value) / target
    elapsed = time.time() - t0
    ok = rel_err < 5e-3 and refinement < 2e-3 and elapsed < 60.0
    report(
        "criterion 7 (HJB vs Bachelier)",
        ok,
        f"value {fine.value:.6f} vs {target:.6f} (rel {rel_err:.2e}), refinement change {refinement:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_8_doob_hedge_certificate():
    t0 = time.time()
    lam, eps, n = DOOB_LAMBDA_MAX, 0.3, 256
    hat = mk(n, resilience=1.0, depth=1.0 * 0.5 / (2.0 - 0.5))  # full-resilience market
    strat = doob_quadratic_hedge(lam, eps, hat)
    capital_ok = strat.meta["capital"] == lam * (1.0 + 36.0 * hat.sigma**2)
    # the charged-capital display from the construction, at a reference scale
    formula_ok = 0.01 * (1 + 36 * 1.0**2) == pytest.approx(0.37)
    rng = np.random.default_rng(811)
    violations = 0
    min_slack = np.inf
    n_paths = 100000
    for _ in range(n_paths):
        shocks = rng.choice([-1, 1], size=n)
        pos = strat.positions(shocks)
        wealth = strat.meta["capital"] + terminal_wealth(pos, shocks, hat)
        path = fundamental_path(shocks, hat)
        q = quadratic_claim(path, stopping_grid(path, eps, hat), hat)
        slack = wealth - lam * q
        min_slack = min(min_slack, slack)
        violations += slack < 0
    elapsed = time.time() - t0
    ok = capital_ok and formula_ok and violations == 0 and elapsed < 300.0
    report(
        "criterion 8 (quadratic-claim hedge)",
        ok,
        f"lam={lam}, {violations} violations on {n_paths} paths, min slack {min_slack:.3e}, "
        f"capital {strat.meta['capital']:.6f} ({elapsed:.1f}s)",
    )


def test_criterion_9_convergence_trend():
    t0 = time.time()
    spec = PayoffSpec("call", strike=0.0)
    prices = {}
    bounds = {}
    for n in (8, 16, 32):
        p = mk(n)
        prices[n] = superreplication_cost(p, spec).cost
        best = -np.inf
        for nu in (0.8, 1.0, 1.2):
            rows = kusuoka_lower_bound(nu, spec, p, n_list=[n], mc_paths=40000, seed=5)
            margin = 3.0 * rows[0]["std_error"]
            best = max(best, rows[0]["bound"] + margin)
        bounds[n] = best
    limit = hjb_value(limit_from_market(mk(32), spec), HJBGrid(n_space=601)).value
    gaps = {n: abs(prices[n] - limit) for n in prices}
    trend_ok = gaps[32] < gaps[8]
    bounds_ok = all(bounds[n] <= prices[n] for n in prices)
    elapsed = time.time() - t0
    ok = trend_ok and bounds_ok and elapsed < 1800.0
    report(
        "criterion 9 (convergence trend)",
        ok,
        f"prices {prices}, limit {limit:.4f}, gaps {gaps}, bounds below: {bounds_ok} ({elapsed:.0f}s)",
    )


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        """
[market]
sigma = 1.0
depth = 1.0
resilience = 0.5

[payoff]
kind = call
strike = 0.0

[run]
n_list = 2 3
study_id = accept
seed = 31415

[dp]
n_x = 41
n_zeta = 48

[dual]
nu_values = 1.0 1.2

[hjb]
n_space = 201
nu_sq_max = 4.0
"""
    )
    rows_a = run_experiment(str(cfg), mode="convergence_study", out_dir=str(tmp_path / "a"))[1]
    rows_b = run_experiment(str(cfg), mode="convergence_study", out_dir=str(tmp_path / "b"))[1]
    same = [r.key_fields() for r in rows_a] == [r.key_fields() for r in rows_b]
    cached = run_experiment(str(cfg), mode="convergence_study", out_dir=str(tmp_path / "a"))[1]
    cache_same = [r.key_fields() for r in cached] == [r.key_fields() for r in rows_a]
    elapsed = time.time() - t0
    ok = same and cache_same
    report(
        "criterion 10 (reproducibility)",
        ok,
        f"fresh/fresh identical: {same}, cached identical: {cache_same} ({elapsed:.1f}s)",
    )
