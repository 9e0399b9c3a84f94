"""Shared test oracles, kept independent of the library's pricing code."""

import math

import numpy as np

from impactlab.market import MarketParams, SteppedPath, StoppingGrid, fundamental_path
from impactlab.payoffs import PayoffSpec, evaluate_payoff


def all_paths(n: int) -> np.ndarray:
    """All 2^n shock vectors, one per row."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    return np.where(bits == 1, 1, -1)


def crr_price(params: MarketParams, spec: PayoffSpec) -> float:
    """Frictionless complete-market price: plain average over all paths
    (the symmetric walk is the unique martingale measure)."""
    n = params.n_steps
    vals = [
        evaluate_payoff(spec, fundamental_path(row, params)) for row in all_paths(n)
    ]
    return float(np.mean(vals))


def ks_distance_to_normal(samples: np.ndarray, mean: float, std: float) -> float:
    """Kolmogorov-Smirnov distance between the sample law and N(mean, std^2)."""
    x = np.sort(np.asarray(samples, float))
    n = len(x)
    z = (x - mean) / std
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def discretize_path(path: SteppedPath, grid: StoppingGrid, params: MarketParams) -> SteppedPath:
    """Freeze the path at its stop values; hold the cap value to t = 1."""
    times = grid.indices / params.n_steps
    return SteppedPath(times=times, values=path.value_at(times))


def interp_weights(grid: np.ndarray, x: np.ndarray):
    """Lower index and weight for piecewise-linear lookup on a sorted grid
    by binary search (the oracle for the DP's cell lookups)."""
    if len(grid) < 2:
        z = np.zeros(np.shape(x), dtype=int)
        return z, np.zeros(np.shape(x))
    idx = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
    w = (x - grid[idx]) / (grid[idx + 1] - grid[idx])
    return idx, np.clip(w, 0.0, 1.0)


def sup_distance(a: SteppedPath, b: SteppedPath) -> float:
    """Exact sup-norm distance between two step paths on [0, 1]."""
    knots = np.union1d(a.times, b.times)
    return float(np.max(np.abs(a.value_at(knots) - b.value_at(knots))))


# Replay grid shared by the stopping-grid and hedge oracle tests.  At
# sigma = 1 it runs from stops at every step (eps below the step size), over
# price stops only (the monotone path at eps = 0.3, N = 256: 5 steps to move
# eps against a 24-step clock), to time and cap stops only (the alternating
# path never moves eps = 0.5 and beyond).  N = 1 has its cap at index 0.
REPLAY_N = (1, 16, 256)
REPLAY_RESILIENCE = (0.3, 1.0)
REPLAY_EPSILONS = (0.05, 0.3, 0.5, 0.9, 5.0)


def replay_shocks(n: int, rng) -> list:
    """Monotone, alternating and random shock paths of length n."""
    return [
        np.ones(n, dtype=int),
        np.resize([1, -1], n),
        *rng.choice([-1, 1], size=(4, n)),
    ]


def stopping_indices_loop(path: SteppedPath, epsilon: float, params: MarketParams) -> list:
    """Stop indices by a search from each anchor (the oracle for the
    library's one-pass `stopping_grid`)."""
    _HIT_TOL = 1e-9
    n = params.n_steps
    cap_time = 1.0 - n ** (-2.0 / 3.0)
    n_cap = int(np.floor(n * cap_time + _HIT_TOL))
    values = path.value_at(np.arange(n_cap + 1) / n)
    indices = [0]
    price_tol = epsilon * (1.0 - _HIT_TOL)
    time_hit = int(np.ceil(epsilon**2 * n * (1.0 - _HIT_TOL)))
    while indices[-1] < n_cap:
        anchor = indices[-1]
        seg = np.abs(values[anchor + 1 :] - values[anchor]) >= price_tol
        hit_price = anchor + 1 + int(np.argmax(seg)) if seg.any() else n_cap + time_hit + 1
        hit = min(hit_price, anchor + time_hit, n_cap)
        indices.append(hit)
    return indices
