"""Payoff evaluation, distance bound, and claim decomposition."""

import numpy as np
import pytest

from helpers import all_paths
from impactlab.market import MarketParams, SteppedPath, discretize_path, fundamental_path, stopping_grid
from impactlab.payoffs import PayoffSpec, claims, evaluate_payoff, payoff_on_paths, skorohod_distance_upper


def mk(n=16, **kw):
    base = dict(p0=0.0, sigma=1.0, n_steps=n, depth=1.0, resilience=0.5)
    base.update(kw)
    return MarketParams(**base)


def sp(times, values):
    return SteppedPath(times=np.asarray(times, float), values=np.asarray(values, float))


def test_call_on_terminal():
    assert evaluate_payoff(PayoffSpec("call", strike=0.0), sp([0.0, 0.5], [0.0, 2.0])) == 2.0


def test_put_on_terminal():
    assert evaluate_payoff(PayoffSpec("put", strike=1.0), sp([0.0], [0.25])) == 0.75


def test_lookback_rise_then_fall():
    path = sp([0.0, 0.3, 0.6], [0.0, 1.0, -0.5])
    assert evaluate_payoff(PayoffSpec("lookback_max"), path) == 1.0


def test_asian_constant_path():
    assert evaluate_payoff(PayoffSpec("asian_mean", strike=0.0), sp([0.0], [1.0])) == 1.0


def test_custom_terminal_table():
    spec = PayoffSpec("custom_terminal", table=((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)))
    assert evaluate_payoff(spec, sp([0.0], [0.5])) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "spec",
    [
        PayoffSpec("call", strike=0.1),
        PayoffSpec("put", strike=-0.2),
        PayoffSpec("lookback_max"),
        PayoffSpec("asian_mean", strike=0.05),
        PayoffSpec("custom_terminal", table=((-1.0, 0.0), (0.0, 1.0), (1.0, 0.25))),
    ],
    ids=lambda spec: spec.kind,
)
def test_payoff_on_paths_matches_per_path_evaluation(spec):
    for n, p0 in ((1, 0.0), (5, 0.3), (10, -0.7)):
        params = mk(n=n, p0=p0, sigma=1.3)
        rows = all_paths(n)
        oracle = np.array([evaluate_payoff(spec, fundamental_path(row, params)) for row in rows])
        values = np.array([fundamental_path(row, params).values for row in rows])
        batch = payoff_on_paths(spec, values)
        assert batch.shape == (2**n,)
        if spec.kind == "asian_mean":
            assert np.max(np.abs(batch - oracle)) <= 1e-12
        else:
            assert np.array_equal(batch, oracle)


def test_payoff_nonnegative_and_lipschitz_sampled():
    rng = np.random.default_rng(3)
    specs = [
        PayoffSpec("call", strike=0.2),
        PayoffSpec("put", strike=-0.1),
        PayoffSpec("lookback_max"),
        PayoffSpec("asian_mean", strike=0.1),
    ]
    p = mk(n=32)
    for _ in range(60):
        a = fundamental_path(rng.choice([-1, 1], size=32), p)
        b = fundamental_path(rng.choice([-1, 1], size=32), p)
        d = a.sup_distance(b)
        for spec in specs:
            ha, hb = evaluate_payoff(spec, a), evaluate_payoff(spec, b)
            assert ha >= 0.0 and hb >= 0.0
            assert abs(ha - hb) <= spec.lipschitz_l * d + 1e-12


def test_skorohod_identical_paths():
    path = sp([0.0, 0.4], [1.0, 2.0])
    assert skorohod_distance_upper(path, path) == 0.0


def test_skorohod_vertical_shift():
    a = sp([0.0, 0.4, 0.7], [0.0, 1.0, 0.5])
    b = sp([0.0, 0.4, 0.7], [0.25, 1.25, 0.75])
    assert skorohod_distance_upper(a, b) == pytest.approx(0.25)


def test_skorohod_aligns_single_jumps():
    a = sp([0.0, 0.4], [0.0, 1.0])
    b = sp([0.0, 0.5], [0.0, 1.0])
    bound = skorohod_distance_upper(a, b)
    assert bound <= 0.1 + 1e-12
    assert bound >= 0.0


def test_skorohod_bound_dominates_time_cost_only():
    # Misaligned two-jump staircases: aligning both jumps costs only time.
    a = sp([0.0, 0.3, 0.6], [0.0, 1.0, 2.0])
    b = sp([0.0, 0.35, 0.55], [0.0, 1.0, 2.0])
    assert skorohod_distance_upper(a, b) <= 0.05 + 1e-12


def test_growth_bound_sampled():
    rng = np.random.default_rng(5)
    p = mk(n=64)
    spec = PayoffSpec("call", strike=-0.3)
    for lam in (0.2, 0.5, 0.9):
        c = spec.growth_c(lam, p0=p.p0)
        for _ in range(40):
            path = fundamental_path(rng.choice([-1, 1], size=64), p)
            sup2 = float(np.max((path.values - p.p0) ** 2))
            assert evaluate_payoff(spec, path) <= lam**2 * (sup2 + c) + 1e-12


def test_claims_knockout_off_when_stops_exhaust_k():
    # Monotone path, moderate epsilon, lam near 1: stops pile up past the
    # K threshold before the cap, switching the knock-out payoff off.
    p = mk(n=256)
    path = fundamental_path(np.ones(256, dtype=int), p)
    grid = stopping_grid(path, epsilon=0.2, params=p)
    pair = claims(PayoffSpec("call", strike=0.0), path, grid, p, lam=0.9)
    assert grid.n_stops > pair.k_threshold
    assert pair.knockout == 0.0


def test_claims_quadratic_time_only_for_huge_epsilon():
    # Alternating shocks with an even cap index: the discretized path is
    # constant at p0, so only the elapsed-time sum contributes.
    n = 64
    p = mk(n=n)
    path = fundamental_path(np.tile([1, -1], n // 2), p)
    grid = stopping_grid(path, epsilon=50.0, params=p)
    n_cap = int(np.floor(n * (1 - n ** (-2 / 3))))
    assert n_cap % 2 == 0
    pair = claims(PayoffSpec("call", strike=0.0), path, grid, p, lam=0.5)
    assert pair.quadratic == pytest.approx(n_cap / n)
    assert pair.quadratic <= 1.0


def test_claims_quadratic_monotone_path_enumeration():
    # Independent walker over the stop sequence of the monotone path.
    p = mk(n=100)
    path = fundamental_path(np.ones(100, dtype=int), p)
    grid = stopping_grid(path, epsilon=0.3, params=p)
    pair = claims(PayoffSpec("call", strike=0.0), path, grid, p, lam=0.5)

    n_cap = 95
    stops = [0]
    while stops[-1] < n_cap:
        anchor = stops[-1]
        nxt = anchor + 1
        while nxt < n_cap and abs(0.1 * nxt - 0.1 * anchor) < 0.3 - 1e-12 and (nxt - anchor) < 9:
            nxt += 1
        stops.append(min(nxt, n_cap))
    vals = 0.1 * np.asarray(stops, float)
    expect = float(
        np.max(vals**2)
        + np.sum(np.diff(vals) ** 2)
        + np.sum(np.diff(np.asarray(stops)) / 100.0)
    )
    assert pair.quadratic == pytest.approx(expect, rel=1e-12)


def test_claims_rejects_bad_lambda():
    p = mk()
    path = fundamental_path(np.tile([1, -1], 8), p)
    grid = stopping_grid(path, epsilon=0.5, params=p)
    for lam in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            claims(PayoffSpec("call"), path, grid, p, lam=lam)


def test_decomposition_inequality_sampled():
    # h(P^{N,eps}) <= knockout + lam^2 * quadratic pathwise.
    rng = np.random.default_rng(21)
    p = mk(n=128)
    specs = [PayoffSpec("call", strike=0.0), PayoffSpec("lookback_max")]
    for _ in range(50):
        path = fundamental_path(rng.choice([-1, 1], size=128), p)
        for eps in (0.25, 0.6):
            grid = stopping_grid(path, eps, p)
            disc = discretize_path(path, grid, p)
            for lam in (0.3, 0.7):
                for spec in specs:
                    pair = claims(spec, path, grid, p, lam)
                    h_disc = evaluate_payoff(spec, disc)
                    assert h_disc <= pair.knockout + lam**2 * pair.quadratic + 1e-10


def test_discretization_inequality_large_n():
    # h(P^N) <= 3 L eps + h(P^{N,eps}) once N is large enough.
    rng = np.random.default_rng(27)
    n = 1024
    p = mk(n=n)
    eps = 0.3
    specs = [PayoffSpec("call", strike=0.0), PayoffSpec("lookback_max"), PayoffSpec("asian_mean", strike=0.0)]
    for _ in range(25):
        path = fundamental_path(rng.choice([-1, 1], size=n), p)
        grid = stopping_grid(path, eps, p)
        disc = discretize_path(path, grid, p)
        for spec in specs:
            lhs = evaluate_payoff(spec, path)
            rhs = 3 * spec.lipschitz_l * eps + evaluate_payoff(spec, disc)
            assert lhs <= rhs + 1e-10
