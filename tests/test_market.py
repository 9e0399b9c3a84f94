"""Dynamics identities and path-discretization behaviour."""

import math
import warnings

import numpy as np
import pytest

from helpers import (
    REPLAY_EPSILONS,
    REPLAY_N,
    REPLAY_RESILIENCE,
    discretize_path,
    replay_shocks,
    stopping_indices_loop,
)
from impactlab import market
from impactlab.market import (
    MarketParams,
    fundamental_path,
    iterate_cash,
    liquidity_cost,
    spread_closed_form,
    spread_cost,
    spread_step,
    stopping_grid,
    terminal_wealth,
    trade_cost,
)


def mk(**kw):
    base = dict(p0=0.0, sigma=1.0, n_steps=4, depth=1.0, resilience=0.5)
    base.update(kw)
    return MarketParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        mk(sigma=0.0)
    with pytest.raises(ValueError):
        mk(depth=-1.0)
    with pytest.raises(ValueError):
        mk(resilience=0.0)
    with pytest.raises(ValueError):
        mk(resilience=1.5)
    with pytest.raises(ValueError):
        mk(zeta0=-0.1)


@pytest.mark.parametrize(
    "name, bad",
    [(name, bad) for name in ("p0", "sigma", "perm_impact", "x0", "zeta0", "xi0") for bad in (math.nan, math.inf, -math.inf)]
    + [("depth", math.nan), ("depth", -math.inf)],
)
def test_params_reject_non_finite(name, bad):
    # NaN fails every `<=` test: a NaN-sigma market once priced to nan
    with pytest.raises(ValueError, match=name):
        mk(**{name: bad})


def test_params_accept_infinite_depth():
    # the frictionless market's depth
    assert mk(depth=math.inf).depth == mk().frictionless().depth == math.inf


def test_fundamental_path_empty_prefix_is_constant():
    path = fundamental_path([], mk(p0=3.0))
    assert path.tolist() == [3.0]


def test_fundamental_path_two_up_moves():
    path = fundamental_path([1, 1], mk(sigma=1.0, n_steps=4, p0=0.0))
    assert path.dtype == np.float64
    assert np.allclose(path, [0.0, 0.5, 1.0])


def test_fundamental_path_telescoping():
    path = fundamental_path([1, -1, 1, -1], mk(sigma=2.0, n_steps=4, p0=10.0))
    assert path[-1] == pytest.approx(10.0)


def test_fundamental_path_rejects_long_prefix():
    with pytest.raises(ValueError):
        fundamental_path([1] * 5, mk(n_steps=4))


def test_spread_step_fixed_point_and_decay():
    p = mk(resilience=0.5)
    assert spread_step(0.0, 0.0, p) == 0.0
    assert spread_step(1.0, 0.0, p) == pytest.approx(0.5)


def test_spread_two_unit_trades():
    # zeta0=0, r=0.5, delta=2: after two |dx|=1 trades the spread is 0.75.
    p = mk(resilience=0.5, depth=2.0)
    z1 = spread_step(0.0, 1.0, p)
    z2 = spread_step(z1, 1.0, p)
    assert z2 == pytest.approx(0.75)
    assert spread_closed_form([1.0, 1.0], p, 2) == pytest.approx(0.75)


def test_spread_closed_form_pure_decay():
    p = mk(resilience=0.3, zeta0=1.0)
    assert spread_closed_form([0.0, 0.0, 0.0], p, 3) == pytest.approx(0.7**3)


def test_spread_closed_form_full_resilience_is_memoryless():
    p = mk(resilience=1.0, depth=2.0, zeta0=5.0)
    assert spread_closed_form([3.0, -1.5], p, 2) == pytest.approx(1.5 / 2.0)


def test_spread_recursion_matches_closed_form_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = rng.uniform(0.05, 1.0)
        p = mk(
            resilience=r,
            depth=rng.uniform(0.2, 5.0),
            zeta0=rng.uniform(0.0, 2.0),
            n_steps=64,
        )
        trades = rng.normal(size=rng.integers(1, 65))
        z = p.zeta0
        for m, dx in enumerate(trades, start=1):
            z = spread_step(z, dx, p)
            ref = spread_closed_form(trades, p, m)
            assert z == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_cash_step_zero_trade_only_decays_spread():
    # one trade of size 0 from position 2 at price 100 with half-spread 1
    p = mk(p0=100.0, n_steps=1, resilience=0.4, x0=2.0, zeta0=1.0, xi0=5.0)
    assert iterate_cash([2.0], [1], p) == 5.0
    assert spread_step(1.0, 2.0 - 2.0, p) == pytest.approx(0.6)


def test_cash_step_buy_one_share():
    p = mk(p0=100.0, n_steps=1, depth=1.0, perm_impact=0.0, resilience=0.5)
    assert iterate_cash([1.0], [1], p) == pytest.approx(-100.5)


def test_cash_step_sell_one_share_with_permanent_impact():
    p = mk(p0=100.0, n_steps=1, depth=1.0, perm_impact=2.0, resilience=0.5, x0=1.0)
    # (100 + 1)(0-1) = -101 received back, minus 0.5 liquidity.
    assert iterate_cash([0.0], [1], p) == pytest.approx(100.5)
    assert type(iterate_cash([0.0], [1], p)) is float
    # cross-check with the wealth oracle: one-trade strategy on any path
    assert terminal_wealth([0.0], [1], p) == pytest.approx(100.5)


def test_frictionless_trade_cost_is_the_mid_leg_to_the_bit():
    # infinite depth and full resilience make the spread leg +0.0
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = mk(depth=rng.uniform(0.2, 5.0), resilience=rng.uniform(0.05, 1.0),
               perm_impact=rng.uniform(0.0, 0.5)).frictionless()
        assert (p.depth, p.resilience) == (np.inf, 1.0)
        price = rng.normal(size=(3, 4, 1))
        x_old = rng.normal(size=(3, 4, 1))
        x_new = rng.normal(size=(1, 4, 5))
        zeta = rng.uniform(0.0, 2.0, size=(1, 4, 5))
        mid = (price + 0.5 * p.perm_impact * (x_new + x_old)) * (x_new - x_old)
        assert trade_cost(price, x_old, x_new, zeta, p).tobytes() == mid.tobytes()


def test_kernels_fold_to_terminal_wealth():
    # Folding the one-trade kernels along a path reproduces the summation
    # identity, which charges the direct liquidity sum `market._direct_cost`
    # instead.
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = int(rng.integers(1, 33))
        p = mk(
            p0=rng.normal(),
            sigma=rng.uniform(0.5, 2.0),
            n_steps=n,
            depth=rng.uniform(0.2, 5.0),
            resilience=rng.uniform(0.05, 0.95),
            perm_impact=rng.uniform(0.05, 0.5),
            x0=rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0),
            zeta0=rng.uniform(0.05, 1.0),
            xi0=rng.normal(),
        )
        trades = rng.normal(size=n)
        pos = np.cumsum(trades) + p.x0
        shocks = rng.choice([-1, 1], size=n)
        prices = fundamental_path(shocks, p)
        x, z, paid = p.x0, p.zeta0, 0.0
        for m in range(n):
            paid += trade_cost(prices[m], x, pos[m], z, p)
            z = spread_step(z, pos[m] - x, p)
            x = pos[m]
        assert p.xi0 - paid == pytest.approx(terminal_wealth(pos, shocks, p), abs=1e-9)


def test_kernels_broadcast_like_scalar_calls():
    rng = np.random.default_rng(23)
    p = mk(resilience=0.3, depth=1.7, perm_impact=0.2)
    a, b, c = 3, 4, 5
    price = rng.normal(size=(a, b, 1))
    x_old = rng.normal(size=(a, b, 1))
    x_new = rng.normal(size=(1, b, c))
    zeta = rng.uniform(0.0, 1.0, size=(1, b, c))
    for params in (p, p.frictionless()):
        cost = trade_cost(price, x_old, x_new, zeta, params)
        assert cost.shape == (a, b, c)
        for i, j, k in np.ndindex(a, b, c):
            args = (float(price[i, j, 0]), float(x_old[i, j, 0]), float(x_new[0, j, k]), float(zeta[0, j, k]))
            assert cost[i, j, k] == trade_cost(*args, params)
    spread = spread_step(zeta, x_new - x_old, p)
    assert spread.shape == (a, b, c)
    for i, j, k in np.ndindex(a, b, c):
        assert spread[i, j, k] == spread_step(float(zeta[0, j, k]), float(x_new[0, j, k] - x_old[i, j, 0]), p)
    with pytest.raises(ValueError):
        spread_step(np.array([0.2, -1e-3]), 1.0, p)


def test_trade_cost_is_its_mid_leg_plus_spread_cost_to_the_bit():
    # the spread leg has one implementation; x_old and x_new both hold
    # +0.0 and -0.0, so +0.0 and -0.0 trades occur, and zeta holds 0
    rng = np.random.default_rng(37)
    price = rng.normal(size=(3, 1, 1))
    zeta = np.array([0.0, 0.4, 1.3])[:, None, None]
    x_old = np.array([0.0, -0.0, 0.7, -1.1])[None, :, None]
    x_new = np.array([0.0, -0.0, 0.7, -1.1, 2.3])[None, None, :]
    trade = x_new - x_old
    assert np.signbit(trade[0, :2, :2]).any()
    for p in (mk(resilience=0.3, depth=1.7, perm_impact=0.2), mk(perm_impact=0.2).frictionless()):
        mid = (price + 0.5 * p.perm_impact * (x_new + x_old)) * trade
        spread = spread_cost(zeta, trade, p)
        assert spread.shape == (3, 4, 5) and not np.signbit(spread).any()
        assert trade_cost(price, x_old, x_new, zeta, p).tobytes() == (mid + spread).tobytes()
    assert not spread.any()  # the frictionless spread leg is +0.0


def test_liquidity_cost_direct_form_sums_spread_cost():
    rng = np.random.default_rng(41)
    for _ in range(100):
        r = rng.choice([rng.uniform(0.05, 1.0), 1.0])
        p = mk(resilience=r, depth=rng.uniform(0.2, 5.0), zeta0=rng.uniform(0.0, 2.0))
        trades = rng.normal(size=8)
        for params in (p, p.frictionless()):
            for n in (0, 1, 5, 8):
                zetas = market._spread_path(trades[:n], params)
                direct, _ = liquidity_cost(trades, params, n)
                assert direct == float(np.sum(spread_cost(zetas[:-1], trades[:n], params)))


def test_liquidity_cost_zero_trades():
    assert liquidity_cost([], mk(), 0) == (0.0, 0.0)


def test_liquidity_cost_single_trade_both_forms():
    for r in (0.2, 0.7, 1.0):
        p = mk(resilience=r, depth=1.0)
        direct, spread = liquidity_cost([2.0], p, 1)
        assert direct == pytest.approx(2.0)
        assert spread == pytest.approx(2.0)


def test_liquidity_cost_frictionless_market_is_zero_without_warnings():
    # at depth inf the spread form once read inf * 0: (0.0, nan) with a
    # RuntimeWarning
    rng = np.random.default_rng(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zeta0 in (0.0, 0.4):
            p = mk(n_steps=6, zeta0=zeta0, perm_impact=0.2).frictionless()
            trades = rng.normal(size=6)
            for n in range(7):
                assert liquidity_cost(trades, p, n) == (0.0, 0.0)
            pos = np.append(np.cumsum(trades[:5]), 0.0)
            shocks = rng.choice([-1, 1], size=6)
            assert terminal_wealth(pos, shocks, p) == pytest.approx(iterate_cash(pos, shocks, p), abs=1e-12)


def test_liquidity_cost_identity_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = mk(
            resilience=rng.uniform(0.05, 1.0),
            depth=rng.uniform(0.2, 5.0),
            zeta0=rng.uniform(0.0, 2.0),
        )
        trades = rng.normal(size=10)
        direct, spread = liquidity_cost(trades, p, 10)
        assert direct == pytest.approx(spread, rel=1e-10, abs=1e-12)


def test_terminal_wealth_no_trading_returns_cash():
    p = mk(xi0=7.5, n_steps=6)
    assert terminal_wealth(np.zeros(6), [1, -1, 1, 1, -1, -1], p) == 7.5


def test_terminal_wealth_buy_and_hold_frictionless_limit():
    # Huge depth and iota=0: wealth change is just the price gain on the held share.
    p = mk(n_steps=8, depth=1e12, sigma=1.0)
    shocks = [1, 1, -1, 1, 1, -1, 1, 1]
    pos = np.ones(8)
    pos[-1] = 0.0  # liquidate at the last trade, executed at P_{N-1}
    gain = float(np.dot(pos, np.diff(fundamental_path(shocks, p))))
    assert terminal_wealth(pos, shocks, p) == pytest.approx(gain, abs=1e-9)


def test_terminal_wealth_charges_the_direct_liquidity_cost_to_the_bit():
    # the summation identity's liquidity charge is `liquidity_cost`'s direct
    # form, computed once, in memoryless, frictionless and endowed markets
    rng = np.random.default_rng(33)
    for resilience in (0.3, 1.0):
        for p in (mk(resilience=resilience, perm_impact=0.2, x0=0.37, zeta0=0.123, xi0=1.5),
                  mk(resilience=resilience).frictionless()):
            shocks = rng.choice([-1, 1], size=p.n_steps)
            pos = rng.normal(size=p.n_steps)
            dx = np.diff(np.concatenate([[p.x0], pos]))
            trade_leg = float(np.dot(fundamental_path(shocks, p)[:-1], dx))
            perm_leg = 0.5 * p.perm_impact * (pos[-1] ** 2 - p.x0**2)
            direct, _ = liquidity_cost(dx, p, p.n_steps)
            assert terminal_wealth(pos, shocks, p) == p.xi0 - trade_leg - perm_leg - direct


def test_wealth_identity_randomized():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        p = mk(
            p0=rng.normal(),
            sigma=rng.uniform(0.5, 2.0),
            n_steps=n,
            depth=rng.uniform(0.2, 5.0),
            resilience=rng.uniform(0.05, 1.0),
            perm_impact=rng.uniform(0.0, 0.5),
            x0=rng.normal(),
            zeta0=rng.uniform(0.0, 1.0),
            xi0=rng.normal(),
        )
        shocks = rng.choice([-1, 1], size=n)
        pos = rng.normal(size=n)
        assert terminal_wealth(pos, shocks, p) == pytest.approx(iterate_cash(pos, shocks, p), abs=1e-9)


def test_random_walk_square_identity():
    rng = np.random.default_rng(17)
    p = mk(n_steps=64, sigma=1.7, p0=0.4)
    for _ in range(50):
        shocks = rng.choice([-1, 1], size=64)
        vals = fundamental_path(shocks, p)
        l, n = sorted(rng.choice(np.arange(65), size=2, replace=False))
        lhs = float(np.dot(vals[l : n], np.diff(vals[l : n + 1])))
        rhs = 0.5 * (vals[n] ** 2 - vals[l] ** 2 - p.sigma**2 * (n - l) / p.n_steps)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_spread_nonnegative_on_random_paths():
    rng = np.random.default_rng(19)
    for _ in range(100):
        p = mk(resilience=rng.uniform(0.05, 1.0), zeta0=rng.uniform(0, 1))
        z = p.zeta0
        for dx in rng.normal(size=30):
            z = spread_step(z, dx, p)
            assert z >= 0.0


def test_stopping_grid_time_trigger_only():
    # Alternating shocks keep the price within one step of p0; with a large
    # epsilon only the epsilon^2 clock fires, every N/4 steps.
    n = 16
    p = mk(n_steps=n, sigma=1.0)
    shocks = np.tile([1, -1], n // 2)
    path = fundamental_path(shocks, p)
    grid = stopping_grid(path, epsilon=0.5, params=p)
    n_cap = int(np.floor(n * (1 - n ** (-2 / 3))))
    expect = [0]
    while expect[-1] < n_cap:
        expect.append(min(expect[-1] + 4, n_cap))
    assert grid.tolist() == expect


def test_stopping_grid_every_step_trigger():
    n = 16
    p = mk(n_steps=n)
    shocks = np.tile([1, -1], n // 2)
    path = fundamental_path(shocks, p)
    grid = stopping_grid(path, epsilon=p.step_vol, params=p)
    n_cap = int(np.floor(n * (1 - n ** (-2 / 3))))
    assert grid.tolist() == list(range(n_cap + 1))


def test_stopping_grid_monotone_path_hand_walk():
    p = mk(n_steps=100, sigma=1.0)
    path = fundamental_path(np.ones(100, dtype=int), p)
    grid = stopping_grid(path, epsilon=0.3, params=p)
    assert grid.dtype.kind == "i"
    assert grid[1] == 3
    assert grid[2] == 6
    n_cap = int(np.floor(100 * (1 - 100 ** (-2 / 3))))
    assert grid[-1] == n_cap == 95


def test_stopping_grid_rejects_bad_epsilon():
    p = mk()
    path = fundamental_path([1, 1, 1, 1], p)
    with pytest.raises(ValueError, match="epsilon"):
        stopping_grid(path, epsilon=0.0, params=p)


@pytest.mark.parametrize("n_prices", [1, 3, 6])
def test_stopping_grid_rejects_path_of_wrong_length(n_prices):
    # a short prefix's prices once came back silently sliced short
    p = mk(n_steps=4)
    path = p.p0 + p.step_vol * np.arange(n_prices, dtype=float)
    with pytest.raises(ValueError, match=r"path has %d prices, expected n_steps \+ 1 = 5" % n_prices):
        stopping_grid(path, epsilon=0.3, params=p)


def test_stopping_grid_guarantee_randomized():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(16, 200))
        p = mk(n_steps=n, sigma=rng.uniform(0.5, 2.0))
        path = fundamental_path(rng.choice([-1, 1], size=n), p)
        eps = rng.uniform(0.1, 1.0)
        grid = stopping_grid(path, eps, p)
        vals = path[grid]
        for k in range(1, len(grid)):
            if grid[k] == grid[-1]:
                continue  # capped stop carries no guarantee
            moved = abs(vals[k] - vals[k - 1]) >= eps * (1 - 1e-9)
            waited = (grid[k] - grid[k - 1]) / n >= eps**2 * (1 - 1e-9)
            assert moved or waited


def test_stopping_grid_matches_per_anchor_search():
    rng = np.random.default_rng(29)
    kinds = set()
    for r in REPLAY_RESILIENCE:
        for n in REPLAY_N:
            p = mk(n_steps=n, resilience=r)
            for shocks in replay_shocks(n, rng):
                path = fundamental_path(shocks, p)
                for eps in REPLAY_EPSILONS:
                    idx = stopping_grid(path, eps, p).tolist()
                    assert idx == stopping_indices_loop(path, eps, p)
                    # which triggers fired at the stops before the cap
                    time_hit = int(np.ceil(eps**2 * n * (1 - 1e-9)))
                    fired = {
                        (abs(path[hi] - path[lo]) >= eps * (1 - 1e-9), hi - lo >= time_hit)
                        for lo, hi in zip(idx[:-2], idx[1:-1])
                    }
                    if fired == {(True, False)}:
                        kinds.add("price only")
                    if fired and not any(price for price, _ in fired):
                        kinds.add("time only")
    assert {"price only", "time only"} <= kinds


def _spread_fold(trades, params):
    """Scalar `spread_step` fold over the trades, zeta_0..zeta_n."""
    out = np.empty(len(trades) + 1)
    out[0] = z = params.zeta0
    for m, dx in enumerate(trades.tolist(), start=1):
        z = out[m] = spread_step(z, dx, params)
    return out


def test_memoryless_spread_path_matches_scalar_fold(monkeypatch):
    # At r = 1 the spread path is one broadcast `spread_step`; the wealth and
    # liquidity cost must carry the scalar fold's floats exactly.
    rng = np.random.default_rng(31)
    cases = []
    for n in REPLAY_N:
        for zeta0 in (0.0, 0.7):
            p = mk(n_steps=n, resilience=1.0, depth=rng.uniform(0.2, 5.0), perm_impact=0.2,
                   x0=0.4, zeta0=zeta0, xi0=1.5)
            trades = rng.normal(size=n)
            trades[::3] = 0.0
            trades[1::5] = -0.0
            pos = p.x0 + np.cumsum(trades)
            shocks = rng.choice([-1, 1], size=n)
            calls = [lambda p=p, pos=pos, shocks=shocks: terminal_wealth(pos, shocks, p)]
            calls += [lambda p=p, trades=trades, m=m: liquidity_cost(trades, p, m) for m in (0, n // 2, n)]
            cases += [(call, repr(call())) for call in calls]
    monkeypatch.setattr(market, "_spread_path", _spread_fold)
    for call, fast in cases:
        assert repr(call()) == fast


def test_discretize_single_interval_freezes_at_cap():
    n = 16
    p = mk(n_steps=n, p0=2.0, sigma=0.01)
    shocks = np.tile([1, -1], n // 2)
    path = fundamental_path(shocks, p)
    grid = stopping_grid(path, epsilon=5.0, params=p)
    disc = discretize_path(path, grid, p)
    n_cap = int(np.floor(n * (1 - n ** (-2 / 3))))
    assert grid.tolist() == [0, n_cap]
    assert disc.tolist() == [2.0] * n_cap + [path[n_cap]] * (n + 1 - n_cap)


def test_discretize_every_step_equals_path_up_to_cap():
    n = 16
    p = mk(n_steps=n)
    shocks = np.tile([1, -1], n // 2)
    path = fundamental_path(shocks, p)
    grid = stopping_grid(path, epsilon=p.step_vol, params=p)
    disc = discretize_path(path, grid, p)
    n_cap = grid[-1]
    assert np.array_equal(disc[: n_cap + 1], path[: n_cap + 1])
    assert np.all(disc[n_cap:] == path[n_cap])


def test_discretize_monotone_values():
    p = mk(n_steps=100, sigma=1.0)
    path = fundamental_path(np.ones(100, dtype=int), p)
    grid = stopping_grid(path, epsilon=0.3, params=p)
    disc = discretize_path(path, grid, p)
    assert disc[0] == pytest.approx(0.0)
    assert disc[3] == pytest.approx(0.3)
    assert disc[5] == pytest.approx(0.3)
    assert disc[6] == pytest.approx(0.6)
