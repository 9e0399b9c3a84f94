"""Discrete-time market with transient price impact.

Price, half-spread, cash and liquidity-cost dynamics for a large investor
trading on a scaled binomial walk, plus the space-time path discretization
used by the hedging constructions.  All functions are pure; the recursions
and their summation identities are cross-checked against each other in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MarketParams",
    "PortfolioState",
    "SteppedPath",
    "StoppingGrid",
    "as_shocks",
    "fundamental_path",
    "spread_step",
    "spread_closed_form",
    "trade_cost",
    "cash_step",
    "liquidity_cost",
    "terminal_wealth",
    "iterate_cash",
    "stopping_grid",
]

# Relative slack for float comparisons against hit thresholds; the price grid
# is exact to ~1 ulp so this never changes which step triggers.
_HIT_TOL = 1e-9


@dataclass(frozen=True)
class MarketParams:
    """All model constants in one validated record.

    p0: initial fundamental price
    sigma: volatility per unit time (> 0)
    n_steps: number of trading periods N (>= 1)
    depth: market depth delta, shares per unit of half-spread (> 0)
    resilience: fraction r of the spread recovered per period (0 < r <= 1)
    perm_impact: permanent linear impact iota (>= 0)
    x0: initial share position
    zeta0: initial half-spread (>= 0)
    xi0: initial cash
    """

    p0: float
    sigma: float
    n_steps: int
    depth: float
    resilience: float
    perm_impact: float = 0.0
    x0: float = 0.0
    zeta0: float = 0.0
    xi0: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.depth <= 0:
            raise ValueError("depth must be > 0")
        if not 0.0 < self.resilience <= 1.0:
            raise ValueError("resilience must be in (0, 1]")
        if self.perm_impact < 0:
            raise ValueError("perm_impact must be >= 0")
        if self.zeta0 < 0:
            raise ValueError("zeta0 must be >= 0")

    @property
    def step_vol(self) -> float:
        """Price move per step, sigma / sqrt(N)."""
        return self.sigma / np.sqrt(self.n_steps)


@dataclass(frozen=True)
class PortfolioState:
    """Position, half-spread and cash triple evolved by the dynamics."""

    position: float
    half_spread: float
    cash: float

    def __post_init__(self):
        if self.half_spread < -1e-15:
            raise ValueError("half_spread must be >= 0")


@dataclass(frozen=True)
class SteppedPath:
    """Piecewise-constant right-continuous path on [0, 1].

    `values[k]` holds on [times[k], times[k+1]); the final value extends to
    t = 1.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size == 0 or t[0] != 0.0:
            raise ValueError("times must start at 0")
        if np.any(np.diff(t) < 0):
            raise ValueError("times must be nondecreasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def value_at(self, t):
        """Right-continuous evaluation; scalar or array t."""
        idx = np.searchsorted(self.times, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return self.values[idx]

    @property
    def terminal(self) -> float:
        return float(self.values[-1])

    @property
    def sup(self) -> float:
        return float(np.max(self.values))

    def integral(self) -> float:
        """Exact integral of the step function over [0, 1]."""
        widths = np.diff(np.append(self.times, 1.0))
        return float(np.dot(self.values, widths))


@dataclass(frozen=True)
class StoppingGrid:
    """Space-time stop indices of a path, capped at 1 - N^(-2/3).

    `indices[k]` is the step index of the k-th stop (indices[0] == 0, the
    last entry is the cap index).  Stored as integers so no float time
    comparisons are needed downstream.
    """

    indices: np.ndarray
    epsilon: float


def as_shocks(seq) -> np.ndarray:
    """Validate a +/-1 shock sequence and return it as an int array."""
    arr = np.asarray(seq, dtype=int)
    if arr.ndim != 1:
        raise ValueError("shock sequence must be one-dimensional")
    if arr.size and not np.all(np.abs(arr) == 1):
        raise ValueError("shocks must all be +1 or -1")
    return arr


def fundamental_path(prefix, params: MarketParams) -> SteppedPath:
    """Scaled-walk price path p0 + sigma/sqrt(N) * cumsum(shocks).

    Breakpoints sit at n/N for n = 0..len(prefix).
    """
    shocks = as_shocks(prefix)
    n = len(shocks)
    if n > params.n_steps:
        raise ValueError(f"prefix length {n} exceeds n_steps {params.n_steps}")
    times = np.arange(n + 1) / params.n_steps
    values = params.p0 + params.step_vol * np.concatenate([[0.0], np.cumsum(shocks)])
    return SteppedPath(times=times, values=values)


def spread_step(zeta_prev, trade, params: MarketParams):
    """One-period half-spread update (1-r)*zeta + |trade|/delta.

    Scalars or broadcasting arrays.  This and `trade_cost` are the model's
    one implementation of the spread and trade-cost formulas.
    """
    # scalars compare directly: a numpy reduction per step would dominate
    # the r < 1 scalar loop in `_spread_path`
    if zeta_prev < 0 if isinstance(zeta_prev, float) else np.any(zeta_prev < 0):
        raise ValueError("zeta_prev must be >= 0")
    return (1.0 - params.resilience) * zeta_prev + abs(trade) / params.depth


def spread_closed_form(trades, params: MarketParams, n: int) -> float:
    """Half-spread after n trades via the geometric-decay sum.

    Equals the iterated `spread_step` recursion (to rounding).  At r = 1 the
    memory dies and only the last trade contributes.
    """
    trades = np.asarray(trades, dtype=float)
    if n > len(trades):
        raise ValueError("n exceeds number of trades")
    decay = 1.0 - params.resilience
    if n == 0:
        return params.zeta0
    powers = decay ** np.arange(n - 1, -1, -1)
    # decay^0 at n=0 handled above, so 0^0 never arises here at r=1.
    return decay**n * params.zeta0 + float(np.dot(powers, np.abs(trades[:n]))) / params.depth


def trade_cost(price, x_old, x_new, zeta, params: MarketParams, frictionless: bool = False):
    """Cash paid to move the position x_old -> x_new at mid price `price`
    when the half-spread before the trade's period is zeta.

    The trade fills gradually between the pre- and post-transaction mid
    price and spread, which is what the averaged terms encode: the mid leg
    (price + iota (x_old + x_new)/2) dx plus the spread leg
    ((1-r) zeta + |dx|/(2 delta)) |dx|, the latter dropped when
    `frictionless`.  Scalars or broadcasting arrays.
    """
    dx = x_new - x_old
    cost = (price + 0.5 * params.perm_impact * (x_new + x_old)) * dx
    if not frictionless:
        adx = abs(dx)
        cost = cost + ((1.0 - params.resilience) * zeta + adx / (2.0 * params.depth)) * adx
    return cost


def cash_step(state: PortfolioState, p_prev: float, x_new: float, params: MarketParams) -> PortfolioState:
    """Execute one trade at pre-shock price p_prev, returning the new state."""
    return PortfolioState(
        position=x_new,
        half_spread=spread_step(state.half_spread, x_new - state.position, params),
        cash=state.cash - trade_cost(p_prev, state.position, x_new, state.half_spread, params),
    )


def _spread_path(trades: np.ndarray, params: MarketParams) -> np.ndarray:
    """Half-spread after each of the n trades, zeta_0..zeta_n."""
    out = np.empty(len(trades) + 1)
    out[0] = z = params.zeta0
    if params.resilience == 1.0:
        # memoryless: 0.0 * zeta vanishes for every finite zeta >= 0, so one
        # broadcast gives the loop's floats
        out[1:] = spread_step(z, trades, params)
        return out
    # Python floats: the same IEEE arithmetic, without numpy-scalar overhead
    for m, dx in enumerate(trades.tolist(), start=1):
        z = out[m] = spread_step(z, dx, params)
    return out


def liquidity_cost(trades, params: MarketParams, n: int) -> tuple[float, float]:
    """Cumulative liquidity cost after n trades, both representations.

    Returns (direct, spread): `direct` sums the executed spread and
    quadratic costs trade by trade; `spread` expresses the same quantity
    through the squared half-spread trajectory.  They agree to rounding.
    """
    trades = np.asarray(trades, dtype=float)
    if n > len(trades):
        raise ValueError("n exceeds number of trades")
    decay = 1.0 - params.resilience
    zetas = _spread_path(trades[:n], params)
    abs_dx = np.abs(trades[:n])
    direct = decay * float(np.dot(zetas[:-1], abs_dx)) + float(np.dot(abs_dx, abs_dx)) / (
        2.0 * params.depth
    )
    if n == 0:
        return 0.0, 0.0
    inner = float(np.dot(zetas[1:-1], zetas[1:-1]))  # m = 1..n-1
    spread = 0.5 * params.depth * (
        zetas[-1] ** 2 + (1.0 - decay**2) * inner - decay**2 * params.zeta0**2
    )
    return direct, spread


def iterate_cash(positions, shocks, params: MarketParams) -> PortfolioState:
    """Run the trade-by-trade cash recursion along one path.

    positions: X_1..X_N chosen before each shock; shocks: the N shocks.
    """
    positions = np.asarray(positions, dtype=float)
    shocks = as_shocks(shocks)
    if len(positions) != len(shocks):
        raise ValueError("positions and shocks must have equal length")
    prices = params.p0 + params.step_vol * np.concatenate([[0.0], np.cumsum(shocks)])
    state = PortfolioState(position=params.x0, half_spread=params.zeta0, cash=params.xi0)
    for m, x_new in enumerate(positions):
        state = cash_step(state, prices[m], x_new, params)
    return state


def terminal_wealth(positions, shocks, params: MarketParams) -> float:
    """Cash after the N trades via the summation identity.

    positions: X_1..X_N (the last one is the position held through the
    final shock; any liquidation is the caller's business).  Agrees with
    `iterate_cash` to accumulated rounding.
    """
    positions = np.asarray(positions, dtype=float)
    shocks = as_shocks(shocks)
    n = len(shocks)
    if len(positions) != n:
        raise ValueError("strategy must give one position per shock")
    prices = params.p0 + params.step_vol * np.concatenate([[0.0], np.cumsum(shocks)])
    x_full = np.concatenate([[params.x0], positions])
    dx = np.diff(x_full)
    trade_leg = float(np.dot(prices[:-1], dx))
    perm_leg = 0.5 * params.perm_impact * (positions[-1] ** 2 - params.x0**2) if n else 0.0
    kappa, _ = liquidity_cost(dx, params, n)
    return params.xi0 - trade_leg - perm_leg - kappa


def stopping_grid(path: SteppedPath, epsilon: float, params: MarketParams) -> StoppingGrid:
    """Space-time stops: leave a band of width epsilon or wait epsilon^2.

    Stops are taken on the discrete grid {0, 1/N, ...} and capped at the
    last step index not exceeding 1 - N^(-2/3).  Between consecutive
    non-capped stops either the price displacement is >= epsilon or the
    elapsed time is >= epsilon^2.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    n = params.n_steps
    cap_time = 1.0 - n ** (-2.0 / 3.0)
    n_cap = int(np.floor(n * cap_time + _HIT_TOL))
    values = path.value_at(np.arange(n_cap + 1) / n).tolist()
    price_tol = epsilon * (1.0 - _HIT_TOL)
    time_hit = int(np.ceil(epsilon**2 * n * (1.0 - _HIT_TOL)))
    # one forward pass: stop at the first price hit, time hit or the cap
    # after each anchor (time_hit >= 1, so no stop is skipped)
    indices = [0]
    anchor, a = 0, values[0]
    for t in range(1, n_cap + 1):
        v = values[t]
        if abs(v - a) >= price_tol or t - anchor >= time_hit or t == n_cap:
            indices.append(t)
            anchor, a = t, v
    return StoppingGrid(indices=np.asarray(indices, dtype=int), epsilon=epsilon)

