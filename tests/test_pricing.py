"""Minimax DP, brute-force oracle and the explicit hedging strategies."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    REPLAY_EPSILONS,
    REPLAY_N,
    REPLAY_RESILIENCE,
    all_paths,
    crr_price,
    interp_weights,
    replay_shocks,
    stopping_indices_loop,
)
from impactlab.market import MarketParams, fundamental_path, spread_step, stopping_grid, terminal_wealth, trade_cost
from impactlab.payoffs import PayoffSpec, quadratic_claim
from impactlab.pricing import (
    DOOB_LAMBDA_MAX,
    GOLDEN_STEPS,
    DPGrids,
    Strategy,
    affine_constrained_strategy,
    brute_force_cost,
    certificate_check,
    doob_quadratic_hedge,
    liquidation_preamble,
    superreplication_cost,
)
from impactlab import pricing
from impactlab.pricing import _bracket, _golden_min, _node_cells, _spread_cells


def mk(n=2, **kw):
    base = dict(p0=0.0, sigma=1.0, n_steps=n, depth=1.0, resilience=0.5)
    base.update(kw)
    return MarketParams(**base)


def flat_strategy(n_steps):
    return Strategy(n_steps=n_steps, vector_fn=lambda s: np.zeros(len(s)), terminal_zero=True)


ABS_CALL = PayoffSpec("custom_terminal", table=((-8.0, 8.0), (0.0, 0.0), (8.0, 8.0)))


def test_price_n1_no_hedge_possible():
    # |p(1)| pays 1 on both branches; trading can only add cost.
    for iota, delta in ((0.0, 1.0), (0.1, 0.5)):
        p = mk(n=1, perm_impact=iota, depth=delta)
        res = superreplication_cost(p, ABS_CALL)
        assert res.cost == pytest.approx(1.0, abs=1e-9)
        bf = brute_force_cost(p, ABS_CALL, np.linspace(-2, 2, 21))
        assert bf == pytest.approx(1.0, abs=1e-9)


def test_price_n2_frictionless_call_matches_crr():
    p = mk(n=2, sigma=np.sqrt(2.0))
    spec = PayoffSpec("call", strike=0.0)
    res = superreplication_cost(p, spec, frictionless=True)
    assert res.cost == pytest.approx(0.5, abs=1e-3)
    bf = brute_force_cost(p, spec, np.linspace(-2, 2, 81), frictionless=True)
    assert bf == pytest.approx(0.5, abs=1e-9)
    assert crr_price(p, spec) == pytest.approx(0.5)


def test_price_n2_with_costs_between_crr_and_bruteforce():
    p = mk(n=2, sigma=np.sqrt(2.0), depth=1.0, resilience=0.5)
    spec = PayoffSpec("call", strike=0.0)
    grid = np.linspace(-2.0, 2.0, 41)
    bf = brute_force_cost(p, spec, grid)
    res = superreplication_cost(
        p, spec, DPGrids(x_grid=grid, n_zeta=120, refine=False)
    )
    # bounded by the frictionless price below and the no-trade price above
    assert 0.5 <= bf <= 2.0
    assert res.cost == pytest.approx(bf, abs=max(res.report["max_interp_residual"], 1e-3))


def test_bruteforce_zero_payoff_costs_nothing():
    p = mk(n=2)
    spec = PayoffSpec("call", strike=50.0)  # worthless on every path
    assert brute_force_cost(p, spec, np.linspace(-1, 1, 5)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("delta,r,iota", [(0.5, 0.5, 0.0), (2.0, 1.0, 0.1), (0.5, 1.0, 0.0)])
def test_dp_matches_bruteforce_small_instances(delta, r, iota):
    p = mk(n=2, depth=delta, resilience=r, perm_impact=iota)
    spec = PayoffSpec("call", strike=0.0)
    grid = np.linspace(-2.0, 2.0, 41)
    bf = brute_force_cost(p, spec, grid)
    res = superreplication_cost(p, spec, DPGrids(x_grid=grid, n_zeta=120, refine=False))
    assert res.cost == pytest.approx(bf, abs=max(res.report["max_interp_residual"], 1e-3))


def test_refinement_never_increases_cost():
    # resilience 1 collapses the spread axis to a single node
    cases = [
        (mk(n=4), PayoffSpec("call", strike=0.0)),
        (mk(n=4), PayoffSpec("lookback_max")),
        (mk(n=4, resilience=1.0), PayoffSpec("call", strike=0.0)),
    ]
    for p, spec in cases:
        coarse = superreplication_cost(p, spec, DPGrids(refine=False))
        fine = superreplication_cost(p, spec, DPGrids(refine=True))
        assert fine.cost <= coarse.cost + 1e-12
        # the continuous minimizer lives within one grid cell of the scan's
        assert coarse.cost - fine.cost <= 0.25


def test_headline_prices_default_grids():
    call = PayoffSpec("call", strike=0.0)
    for n, spec, ref in ((4, call, 1.107174), (8, call, 1.075058), (8, PayoffSpec("lookback_max"), 1.306322)):
        res = superreplication_cost(mk(n=n), spec)
        assert round(res.cost, 6) == ref
        assert res.report["boundary_hits"] == 0


def test_golden_min_one_evaluation_per_step():
    targets = np.array([-0.7, 0.0, 0.3, 0.999])
    calls = []

    def objective(x):
        calls.append(1)
        return (x - targets) ** 2

    lo, hi = np.full(4, -1.0), np.full(4, 1.0)
    value, mid = _golden_min(objective, lo, hi)
    assert len(calls) == GOLDEN_STEPS + 2
    # the final bracket is no wider than after 30 ternary steps
    assert np.all(np.abs(mid - targets) <= 0.5 * (2.0 / 3.0) ** 30 * (hi - lo))
    assert np.array_equal(value, (mid - targets) ** 2)


def test_one_step_objective_convex_along_controls():
    # Scan a control slice by pricing with a singleton-augmented grid; the
    # brute-force one-step values along X' must be convex for a convex payoff.
    p = mk(n=1, depth=0.8, resilience=0.6, perm_impact=0.05)
    spec = PayoffSpec("call", strike=0.0)
    xs = np.linspace(-1.5, 1.5, 61)
    vals = np.array([brute_force_cost(p, spec, [x]) for x in xs])
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-9)
    # golden-section style minimizer within one cell of the grid minimizer
    j = int(np.argmin(vals))
    assert vals[max(j - 1, 0)] >= vals[j] <= vals[min(j + 1, len(xs) - 1)]


def test_dp_monotone_in_payoff_and_depth():
    spec_small = PayoffSpec("call", strike=0.2)
    spec_big = PayoffSpec("call", strike=0.0)  # pointwise dominates
    p = mk(n=4)
    c_small = superreplication_cost(p, spec_small).cost
    c_big = superreplication_cost(p, spec_big).cost
    assert c_big >= c_small - 1e-9
    deep = superreplication_cost(mk(n=4, depth=4.0), spec_big).cost
    shallow = superreplication_cost(mk(n=4, depth=0.5), spec_big).cost
    assert deep <= shallow + 1e-9


def test_domination_by_full_resilience_model():
    # Transient costs are dominated by the purely temporary model with
    # depth r*delta/(2-r); prices must order the same way.
    spec = PayoffSpec("call", strike=0.0)
    for r, delta in [(0.3, 0.5), (0.7, 2.0)]:
        p = mk(n=4, depth=delta, resilience=r)
        hat = replace(p, resilience=1.0, depth=r * delta / (2.0 - r))
        cost = superreplication_cost(p, spec).cost
        hat_cost = superreplication_cost(hat, spec).cost
        assert cost <= hat_cost + 2e-3


def test_certificate_exhaustive_small_tree():
    p = mk(n=6)
    spec = PayoffSpec("call", strike=0.0)
    res = superreplication_cost(p, spec, DPGrids(n_zeta=60), keep_policy=True)
    out = certificate_check(res, p, spec)
    assert out["paths"] == 64
    assert out["min_margin"] >= -5e-3


def test_certificate_sampled_lookback():
    p = mk(n=10)
    spec = PayoffSpec("lookback_max")
    res = superreplication_cost(p, spec, keep_policy=True)
    out = certificate_check(res, p, spec, n_paths=2000, seed=4)
    assert out["min_margin"] >= -5e-3


def test_certificate_counts_repeated_paths():
    # Too little cash: every sampled path fails, repeats included.
    p = mk(n=8)
    spec = PayoffSpec("lookback_max")
    res = superreplication_cost(p, spec, DPGrids(n_x=41), keep_policy=True)
    short = replace(res, cost=res.cost - 10.0)
    out = certificate_check(short, p, spec, n_paths=4000, seed=7)
    drawn = np.random.default_rng(7).choice([-1, 1], size=(4000, 8))
    assert out["distinct"] == len(np.unique(drawn, axis=0)) < 4000
    assert out["paths"] == out["violations"] == 4000
    assert out["min_margin"] < -9.0
    assert certificate_check(res, p, spec)["distinct"] == 2**8


def _cell_points(grid, lo, hi, rng):
    """Random points, nodes and their float neighbours in [lo, hi]."""
    nodes = grid[(grid >= lo) & (grid <= hi)]
    pts = np.concatenate([
        rng.uniform(lo, hi, 200), nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf), [lo, hi],
    ])
    return pts[(pts >= lo) & (pts <= hi)]


def test_bracket_cells_match_binary_search():
    rng = np.random.default_rng(5)
    grids = [
        DPGrids().x_axis(PayoffSpec("call"), mk(x0=0.3137)),  # off-grid x0: one short cell
        np.array([-1.0, 0.0, 2.0]),
        np.array([-1.0, -0.5, 0.0, 3.0]),
        np.linspace(-2.0, 2.0, 9),
    ]
    for xg in grids:
        n_x = len(xg)
        for j in range(n_x):
            lo, hi, cells = _bracket(xg, np.array([j]))
            pts = _cell_points(xg, lo[0], hi[0], rng)
            k, w = cells(pts)
            k_ref, w_ref = interp_weights(xg, pts)
            # golden-section search never evaluates the upper end; there the
            # cell below at weight 1 gives the oracle's interpolant
            top = (pts == hi[0]) & (k_ref == k + 1)
            assert np.array_equal(k[~top], k_ref[~top]) and np.array_equal(w[~top], w_ref[~top])
            assert np.all(w[top] == 1.0) and np.all(w_ref[top] == 0.0)
        k, w = _node_cells(xg, np.arange(n_x))(xg)
        k_ref, w_ref = interp_weights(xg, xg)
        assert np.array_equal(k, k_ref) and np.array_equal(w, w_ref)


def test_spread_cells_match_binary_search():
    rng = np.random.default_rng(6)
    xg = np.linspace(-2.0, 2.0, 81)
    base = DPGrids().zeta_axis(mk(), xg, False)
    cases = [
        (DPGrids(), mk()),
        (DPGrids(), mk(zeta0=0.0123)),  # off-grid zeta0
        (DPGrids(), mk(zeta0=float(np.nextafter(base[7], np.inf)))),  # a hair above a node
        (DPGrids(), mk(zeta0=1e-9)),  # below the geometric part
        (DPGrids(zeta_max=0.7, n_zeta=9), mk(zeta0=2.5)),  # user zeta_max, zeta0 beyond it
        (DPGrids(n_zeta=1), mk(zeta0=0.4)),
        (DPGrids(n_zeta=2), mk()),
        (DPGrids(n_zeta=3), mk(zeta0=0.05)),
        (DPGrids(n_zeta=3), mk()),
    ]
    axes = [g.zeta_axis(p, xg, False) for g, p in cases] + [DPGrids().zeta_axis(mk(), xg, True)]
    assert {len(zg) for zg in axes} == {1, 2, 3, 4, 10, 48, 49}
    for zg in axes:
        pts = np.concatenate([[0.0, 2.0 * zg[-1], 1e3], _cell_points(zg, 0.0, 1.5 * zg[-1] + 1.0, rng)])
        k, w = _spread_cells(zg)(pts)
        k_ref, w_ref = interp_weights(zg, pts)
        assert np.array_equal(k, k_ref) and np.array_equal(w, w_ref)


def _oracle_bracket(xg, j):
    lo, hi, _ = _bracket(xg, j)
    return lo, hi, lambda x: interp_weights(xg, x)


def _oracle_lookups(monkeypatch):
    """Put binary search back in place of the arithmetic cell lookups."""
    monkeypatch.setattr(pricing, "_spread_cells", lambda zg: lambda z: interp_weights(zg, z))
    monkeypatch.setattr(pricing, "_bracket", _oracle_bracket)
    monkeypatch.setattr(pricing, "_node_cells", lambda xg, j: lambda x: interp_weights(xg, x))


def test_dp_matches_binary_search_lookups(monkeypatch):
    # a coarser position axis keeps the run short; the spread axis is the
    # default one
    grids = DPGrids(n_x=41)
    runs = []
    for kind in ("call", "put", "lookback_max", "asian_mean"):
        spec = PayoffSpec(kind, strike=0.1 if kind != "lookback_max" else 0.0)
        for r in (0.3, 0.5, 1.0):
            runs.append((mk(n=4, resilience=r), spec, {"grids": grids}))
        off = mk(n=4, x0=0.37, zeta0=0.123, perm_impact=0.1)
        runs.append((off, spec, {"grids": grids}))
        runs.append((off, spec, {"grids": DPGrids(x_grid=np.linspace(-1.5, 1.5, 13))}))
        runs.append((off, spec, {"grids": grids, "frictionless": True}))

    def price_all():
        return [repr((r.cost, r.report)) for r in (superreplication_cost(p, s, **kw) for p, s, kw in runs)]

    fast = price_all()
    _oracle_lookups(monkeypatch)
    assert price_all() == fast


def test_certificate_matches_binary_search_lookups(monkeypatch):
    call, lookback = PayoffSpec("call", strike=0.0), PayoffSpec("lookback_max")
    p6, p8, p12 = mk(n=6), mk(n=8), mk(n=12)
    checks = [
        (superreplication_cost(p6, call, DPGrids(n_zeta=60), keep_policy=True), p6, call, {}),
        (superreplication_cost(p12, call, keep_policy=True), p12, call, {"n_paths": 3000, "seed": 5}),
    ]
    res8 = superreplication_cost(p8, lookback, keep_policy=True)
    checks += [(res8, p8, lookback, {"n_paths": 4000, "seed": seed}) for seed in (7, 123)]

    def replay_all():
        return [repr(certificate_check(res, p, spec, **kw)) for res, p, spec, kw in checks]

    fast = replay_all()
    _oracle_lookups(monkeypatch)
    assert replay_all() == fast


def test_dp_and_certificate_search_only_at_the_root(monkeypatch):
    calls = []
    search = np.searchsorted

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    p = mk(n=4, zeta0=0.05)
    spec = PayoffSpec("call", strike=0.0)
    res = superreplication_cost(p, spec, keep_policy=True)
    certificate_check(res, p, spec, n_paths=500, seed=1)
    assert len(calls) == 2  # the root's position and spread nodes


def test_wealth_with_liquidation_matches_manual():
    # The pricers' convention: trade m at P_{m-1}, then close the residual
    # at P_N one period later, paying the once-more decayed spread.
    p = mk(n=3, depth=2.0, resilience=0.4, perm_impact=0.3, x0=0.5, xi0=1.0)
    shocks = [1, -1, 1]
    pos = np.array([0.9, -0.3, 0.7])
    base = terminal_wealth(pos, shocks, p)
    prices = fundamental_path(shocks, p).values
    z = p.zeta0
    decay = 1 - p.resilience
    for dx in np.abs(np.diff(np.concatenate([[p.x0], pos]))):
        z = decay * z + dx / p.depth
    liq_cost = (decay * z + 0.7 / (2 * p.depth)) * 0.7
    expected = base + prices[-1] * 0.7 + 0.5 * p.perm_impact * 0.7**2 - liq_cost

    x, zeta, cash = p.x0, p.zeta0, p.xi0
    for price, x_new in zip(prices, np.append(pos, 0.0)):
        cash -= trade_cost(price, x, x_new, zeta, p)
        zeta = spread_step(zeta, x_new - x, p)
        x = x_new
    assert cash == pytest.approx(expected, abs=1e-12)


# -- quadratic-claim hedge ---------------------------------------------------


def test_doob_hedge_zero_lambda_is_trivial():
    p = mk(n=16)
    strat = doob_quadratic_hedge(0.0, 0.4, p)
    assert strat.meta["capital"] == 0.0
    assert np.all(strat.positions(np.tile([1, -1], 8)) == 0.0)


def test_doob_hedge_rejects_bad_inputs():
    p = mk(n=16)
    with pytest.raises(ValueError):
        doob_quadratic_hedge(DOOB_LAMBDA_MAX * 2, 0.4, p)
    with pytest.raises(ValueError):
        doob_quadratic_hedge(1e-4, 0.4, mk(n=16, x0=1.0))


def test_doob_hedge_capital_charge_formula():
    sigma = 1.3
    p = mk(n=16, sigma=sigma)
    lam = DOOB_LAMBDA_MAX
    strat = doob_quadratic_hedge(lam, 0.4, p)
    assert strat.meta["capital"] == pytest.approx(lam * (1 + 36 * sigma**2))
    assert (strat.meta["b"], strat.meta["d"], strat.meta["e"]) == (8 * lam, 4 * lam, 36 * lam)


def _doob_positions_loop(strat, shocks, params):
    """Hedge positions by a loop over the stop intervals (the oracle for
    the vectorized plan)."""
    b, d, e = strat.meta["b"], strat.meta["d"], strat.meta["e"]
    n = params.n_steps
    path = fundamental_path(shocks, params)
    prices = path.values
    p0 = params.p0
    pos = np.zeros(n)
    run_max = 0.0
    run_min = 0.0  # max of (p0 - P_tau_i), i.e. depth below the start
    idx = stopping_indices_loop(path, strat.meta["epsilon"], params)
    for k in range(1, len(idx)):
        lo, hi = idx[k - 1], idx[k]
        anchor = prices[lo] - p0
        run_max = max(run_max, anchor)
        run_min = max(run_min, -anchor)
        base = -b * run_max + b * run_min - d * anchor
        pos[lo:hi] = base + e * (prices[lo:hi] - p0)
    return pos


def test_doob_hedge_positions_match_stop_interval_loop():
    rng = np.random.default_rng(37)
    for r in REPLAY_RESILIENCE:
        for n in REPLAY_N:
            p = mk(n=n, resilience=r, depth=1.0 / 3.0, p0=0.25)
            for eps in REPLAY_EPSILONS:
                strat = doob_quadratic_hedge(DOOB_LAMBDA_MAX, eps, p)
                for shocks in replay_shocks(n, rng):
                    oracle = _doob_positions_loop(strat, shocks, p)
                    assert repr(strat.positions(shocks).tolist()) == repr(oracle.tolist())


def test_doob_hedge_dominates_quadratic_claim_exhaustive():
    # Full-resilience market (the domination target model), small tree.
    n = 12
    hat = mk(n=n, resilience=1.0, depth=1.0 * 0.5 / 1.5)
    lam, eps = DOOB_LAMBDA_MAX, 0.5
    strat = doob_quadratic_hedge(lam, eps, hat)
    worst = np.inf
    for shocks in all_paths(n):
        pos = strat.positions(shocks)
        wealth = strat.meta["capital"] + terminal_wealth(pos, shocks, hat)
        path = fundamental_path(shocks, hat)
        q = quadratic_claim(path, stopping_grid(path, eps, hat), hat)
        worst = min(worst, wealth - lam * q)
    assert worst >= 0.0


def test_doob_hedge_dominates_quadratic_claim_sampled():
    n = 256
    hat = mk(n=n, resilience=1.0, depth=1.0 / 3.0)
    lam, eps = DOOB_LAMBDA_MAX, 0.3
    strat = doob_quadratic_hedge(lam, eps, hat)
    rng = np.random.default_rng(11)
    for _ in range(300):
        shocks = rng.choice([-1, 1], size=n)
        pos = strat.positions(shocks)
        wealth = strat.meta["capital"] + terminal_wealth(pos, shocks, hat)
        path = fundamental_path(shocks, hat)
        q = quadratic_claim(path, stopping_grid(path, eps, hat), hat)
        assert wealth >= lam * q


# -- affine constrained strategies -------------------------------------------


def test_affine_zero_coefficients_zero_strategy():
    p = mk(n=64)
    path = fundamental_path(np.tile([1, -1], 32), p)
    grid = stopping_grid(path, 0.5, p)
    strat = affine_constrained_strategy([0.0], [0.0], grid, p)
    assert np.all(strat.positions(np.tile([1, -1], 32)) == 0.0)


def test_affine_single_interval_ramp_hold_ramp():
    n = 64
    p = mk(n=n, sigma=0.05)  # price barely moves: only the cap stop exists
    shocks = np.tile([1, -1], n // 2)
    path = fundamental_path(shocks, p)
    grid = stopping_grid(path, 5.0, p)
    strat = affine_constrained_strategy([1.0], [0.0], grid, p)
    pos = strat.positions(shocks)
    m = math.ceil(n ** (1 / 3))
    assert np.allclose(pos[:m], (np.arange(1, m + 1)) / m)
    n_cap = grid.indices[-1]
    assert np.all(pos[m:n_cap] == 1.0)
    assert pos[-1] == 0.0 or n_cap + m < n  # fully unwound when room remains


def test_affine_rejects_coefficients_beyond_log_bound():
    p = mk(n=64)
    path = fundamental_path(np.tile([1, -1], 32), p)
    grid = stopping_grid(path, 0.5, p)
    with pytest.raises(ValueError):
        affine_constrained_strategy([math.log(64) * 1.5], [0.0], grid, p)


def test_affine_tracking_cost_converges_to_quadratic_formula():
    # Quadratic cost of the psi-tracking leg approaches psi^2 sigma^2 dt/(2 depth);
    # ramp and unwind contributions vanish with N.
    rel_err = {}
    for n in (2**10, 2**14):
        rng = np.random.default_rng(5)
        hat = mk(n=n, resilience=1.0, depth=0.5)
        errs = []
        for _ in range(40):
            shocks = rng.choice([-1, 1], size=n)
            path = fundamental_path(shocks, hat)
            grid = stopping_grid(path, 0.5, hat)
            strat = affine_constrained_strategy([0.0], [1.0], grid, hat)
            pos = strat.positions(shocks)
            dx = np.diff(np.concatenate([[0.0], pos]))
            cost = float(np.sum(dx**2)) / (2 * hat.depth)
            covered = grid.indices[1] / n  # single coefficient: first interval only
            formula = 1.0**2 * hat.sigma**2 * covered / (2 * hat.depth)
            errs.append(abs(cost - formula) / formula)
        rel_err[n] = float(np.mean(errs))
    assert rel_err[2**14] < rel_err[2**10]
    assert rel_err[2**14] < 0.1


# -- liquidation preamble ------------------------------------------------------


def test_preamble_with_zero_endowment_is_shifted_inner():
    n = 32
    m = math.ceil(n ** (1 / 3))
    p = mk(n=n, x0=0.0)
    inner = Strategy(n_steps=n - 2 * m, vector_fn=lambda s: np.cumsum(s) * 0.1)
    strat = liquidation_preamble(inner, p)
    shocks = np.tile([1, -1], n // 2)
    pos = strat.positions(shocks)
    assert np.all(pos[: 2 * m] == 0.0)
    assert np.allclose(pos[2 * m :], inner.positions(shocks[2 * m :]))


def test_preamble_liquidation_proceeds_near_initial_value():
    # Flat-ish fundamental: proceeds of the ramp approach P0*x0 + iota*x0^2/2.
    for n in (64, 512):
        p = mk(n=n, p0=5.0, x0=1.0, depth=1.0, perm_impact=0.2)
        m = math.ceil(n ** (1 / 3))
        inner = flat_strategy(n - 2 * m)
        strat = liquidation_preamble(inner, p)
        shocks = np.tile([1, -1], n // 2)
        pos = strat.positions(shocks)
        wealth = terminal_wealth(pos, shocks, p)
        target = p.p0 * p.x0 + 0.5 * p.perm_impact * p.x0**2
        assert abs(wealth - target) <= 4.0 * n ** (-1.0 / 6.0)


def test_preamble_spread_decays_during_idle_phase():
    n = 64
    p = mk(n=n, x0=1.0, zeta0=0.3, depth=2.0, resilience=0.4)
    m = math.ceil(n ** (1 / 3))
    inner = flat_strategy(n - 2 * m)
    strat = liquidation_preamble(inner, p)
    shocks = np.tile([1, -1], n // 2)
    pos = strat.positions(shocks)
    z = p.zeta0
    for dx in np.abs(np.diff(np.concatenate([[p.x0], pos[: 2 * m]]))):
        z = (1 - p.resilience) * z + dx / p.depth
    assert z <= (p.zeta0 + p.x0 / p.depth) * (1 - p.resilience) ** m + 1e-12


def test_preamble_rejects_small_n():
    p = mk(n=4, x0=1.0)
    with pytest.raises(ValueError):
        liquidation_preamble(flat_strategy(1), p)


def test_full_tree_mode_agrees_with_running_max():
    p = mk(n=6, depth=1.5, resilience=0.6)
    spec = PayoffSpec("lookback_max")
    fast = superreplication_cost(p, spec, DPGrids(n_x=41, n_zeta=24))
    slow = superreplication_cost(p, spec, DPGrids(n_x=41, n_zeta=24, augmentation="full_tree"))
    assert slow.cost == pytest.approx(fast.cost, abs=1e-10)
    assert slow.report["augmentation"] == "full_tree"


def test_forced_augmentation_prices_the_given_payoff():
    # An augmented lattice still pays the spec's payoff, not its own kind's.
    p = mk(n=5, depth=1.5, resilience=0.6)
    grids = DPGrids(n_x=41, n_zeta=24)
    for spec in (PayoffSpec("call", strike=0.1), PayoffSpec("put", strike=-0.2)):
        plain = superreplication_cost(p, spec, grids)
        for aug in ("running_max", "running_sum"):
            forced = superreplication_cost(p, spec, replace(grids, augmentation=aug))
            assert forced.cost == pytest.approx(plain.cost, abs=1e-10)
    with pytest.raises(ValueError):
        superreplication_cost(p, PayoffSpec("asian_mean"), replace(grids, augmentation="running_max"))


def test_asian_dp_frictionless_matches_path_average_oracle():
    p = mk(n=6)
    spec = PayoffSpec("asian_mean", strike=0.0)
    res = superreplication_cost(p, spec, frictionless=True)
    assert res.report["augmentation"] == "running_sum"
    assert res.cost == pytest.approx(crr_price(p, spec), abs=1e-3)


def test_asian_dp_with_costs_matches_bruteforce():
    p = mk(n=3, depth=1.0, resilience=0.5)
    spec = PayoffSpec("asian_mean", strike=0.0)
    grid = np.linspace(-2.0, 2.0, 41)
    bf = brute_force_cost(p, spec, grid)
    res = superreplication_cost(p, spec, DPGrids(x_grid=grid, n_zeta=160, refine=False))
    assert res.cost == pytest.approx(bf, abs=max(res.report["max_interp_residual"], 1e-3))
