"""Payoff evaluation and the quadratic claim."""

import numpy as np
import pytest

from helpers import all_paths, discretize_path, replay_shocks, sup_distance
from impactlab.market import MarketParams, SteppedPath, fundamental_path, stopping_grid
from impactlab.payoffs import PayoffSpec, evaluate_payoff, payoff_on_paths, quadratic_claim


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
        d = sup_distance(a, b)
        for spec in specs:
            ha, hb = evaluate_payoff(spec, a), evaluate_payoff(spec, b)
            assert ha >= 0.0 and hb >= 0.0
            assert abs(ha - hb) <= spec.lipschitz_l * d + 1e-12


def test_claims_quadratic_time_only_for_huge_epsilon():
    # Alternating shocks with an even cap index: the discretized path is
    # constant at p0, so only the elapsed-time sum contributes.
    n = 64
    p = mk(n=n)
    path = fundamental_path(np.tile([1, -1], n // 2), p)
    grid = stopping_grid(path, epsilon=50.0, params=p)
    n_cap = int(np.floor(n * (1 - n ** (-2 / 3))))
    assert n_cap % 2 == 0
    quadratic = quadratic_claim(path, grid, p)
    assert quadratic == pytest.approx(n_cap / n)
    assert quadratic <= 1.0


def test_quadratic_claim_matches_discretized_path_formula():
    # The claim reads the stop values off the path; the oracle freezes the
    # path into its own step path first.  Equal to the last bit.
    rng = np.random.default_rng(31)
    checked = 0
    for r in (0.3, 1.0):
        for n in (1, 2, 16, 256):
            p = mk(n=n, resilience=r)
            for shocks in replay_shocks(n, rng):
                path = fundamental_path(shocks, p)
                for eps in (0.01, 0.3, 2.0):
                    grid = stopping_grid(path, eps, p)
                    stop_vals = discretize_path(path, grid, p).values
                    expect = float(
                        np.max((stop_vals - p.p0) ** 2)
                        + np.sum(np.diff(stop_vals) ** 2)
                        + np.sum(np.diff(grid.indices) / n)
                    )
                    assert quadratic_claim(path, grid, p) == expect
                    checked += 1
    assert checked == 2 * 4 * 6 * 3


def test_claims_quadratic_monotone_path_enumeration():
    # Independent walker over the stop sequence of the monotone path.
    p = mk(n=100)
    path = fundamental_path(np.ones(100, dtype=int), p)
    grid = stopping_grid(path, epsilon=0.3, params=p)
    quadratic = quadratic_claim(path, grid, p)

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
    assert quadratic == pytest.approx(expect, rel=1e-12)


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
