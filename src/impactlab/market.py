"""Discrete-time market with transient price impact.

Price, half-spread, cash and liquidity-cost dynamics for a large investor
trading on a scaled binomial walk, plus the space-time path discretization
used by the hedging constructions.  All functions are pure; the recursions
and their summation identities are cross-checked against each other in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "MarketParams",
    "as_shocks",
    "fundamental_path",
    "spread_step",
    "spread_closed_form",
    "spread_cost",
    "trade_cost",
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
        for name in ("p0", "sigma", "perm_impact", "x0", "zeta0", "xi0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.depth > 0:  # NaN fails too; inf is the frictionless market
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

    def frictionless(self) -> "MarketParams":
        """The same market without the spread: infinite depth, full
        resilience (permanent impact is kept).  Every trade's spread leg is
        then +0.0, and the spread stays 0 after the first trade."""
        return replace(self, depth=math.inf, resilience=1.0)


def as_shocks(seq) -> np.ndarray:
    """Validate a +/-1 shock sequence and return it as an int array."""
    arr = np.asarray(seq, dtype=int)
    if arr.ndim != 1:
        raise ValueError("shock sequence must be one-dimensional")
    if arr.size and not (np.abs(arr) == 1).all():
        raise ValueError("shocks must all be +1 or -1")
    return arr


def _price_walk(shocks: np.ndarray, params: MarketParams) -> np.ndarray:
    """Fundamental price before the first shock and after each one."""
    out = np.empty(len(shocks) + 1)
    out[0] = 0.0
    np.add.accumulate(shocks, out=out[1:])
    out *= params.step_vol
    out += params.p0
    return out


def fundamental_path(prefix, params: MarketParams) -> np.ndarray:
    """Scaled-walk prices p0 + sigma/sqrt(N) * cumsum(shocks) at the trading
    times n/N, n = 0..len(prefix): a float array of len(prefix) + 1 prices.
    """
    shocks = as_shocks(prefix)
    if len(shocks) > params.n_steps:
        raise ValueError(f"prefix length {len(shocks)} exceeds n_steps {params.n_steps}")
    return _price_walk(shocks, params)


def spread_step(zeta_prev, trade, params: MarketParams):
    """One-period half-spread update (1-r)*zeta + |trade|/delta.

    Scalars or broadcasting arrays.  This and `spread_cost` are the model's
    one implementation of the spread and its trade cost.
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


def spread_cost(zeta_prev, trade, params: MarketParams):
    """Spread leg ((1-r) zeta_prev + |trade|/(2 delta)) |trade| of a trade's
    cash, +0.0 in the frictionless market (`MarketParams.frictionless`): all
    the price-free DP charges.  Scalars or broadcasting arrays."""
    size = abs(trade)
    return ((1.0 - params.resilience) * zeta_prev + size / (2.0 * params.depth)) * size


def trade_cost(price, x_old, x_new, zeta, params: MarketParams):
    """Cash paid to move the position x_old -> x_new at mid price `price`
    when the half-spread before the trade's period is zeta.

    The trade fills gradually between the pre- and post-transaction mid
    price and spread, which is what the averaged terms encode: the mid leg
    (price + iota (x_old + x_new)/2) dx plus the spread leg `spread_cost`.
    Scalars or broadcasting arrays."""
    dx = x_new - x_old
    return (price + 0.5 * params.perm_impact * (x_new + x_old)) * dx + spread_cost(zeta, dx, params)


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


def _direct_cost(trades: np.ndarray, params: MarketParams) -> tuple[float, np.ndarray]:
    """The executed spread costs of `trades` summed trade by trade, and the
    half-spreads zeta_0..zeta_n they leave (`_spread_path`)."""
    zetas = _spread_path(trades, params)
    return float(np.sum(spread_cost(zetas[:-1], trades, params))), zetas


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
    direct, zetas = _direct_cost(trades[:n], params)
    if n == 0:
        return 0.0, 0.0
    if math.isinf(params.depth):
        # trades leave no spread, so the spread form below is depth times
        # sums that vanish; its limit as the depth grows is the direct form
        # (0 in the frictionless market)
        return direct, direct
    inner = float(np.dot(zetas[1:-1], zetas[1:-1]))  # m = 1..n-1
    spread = 0.5 * params.depth * (
        zetas[-1] ** 2 + (1.0 - decay**2) * inner - decay**2 * params.zeta0**2
    )
    return direct, spread


def iterate_cash(positions, shocks, params: MarketParams) -> float:
    """Cash after the N trades by the trade-by-trade recursion along one
    path: each trade pays `trade_cost` at the pre-shock price, then the
    spread moves by `spread_step`.

    positions: X_1..X_N chosen before each shock; shocks: the N shocks.
    """
    positions = np.asarray(positions, dtype=float)
    shocks = as_shocks(shocks)
    if len(positions) != len(shocks):
        raise ValueError("positions and shocks must have equal length")
    prices = _price_walk(shocks, params)
    x, zeta, cash = params.x0, params.zeta0, params.xi0
    for m, x_new in enumerate(positions):
        cash = cash - trade_cost(prices[m], x, x_new, zeta, params)
        zeta = spread_step(zeta, x_new - x, params)
        x = x_new
    return float(cash)


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
    prices = _price_walk(shocks, params)
    dx = positions.copy()  # the trades X_m - X_{m-1}, from X_0 = x0
    dx[1:] -= positions[:-1]
    dx[:1] -= params.x0
    trade_leg = float(np.dot(prices[:-1], dx))
    perm_leg = 0.5 * params.perm_impact * (positions[-1] ** 2 - params.x0**2) if n else 0.0
    kappa, _ = _direct_cost(dx, params)
    return params.xi0 - trade_leg - perm_leg - kappa


def stopping_grid(path: np.ndarray, epsilon: float, params: MarketParams) -> np.ndarray:
    """Space-time stops: leave a band of width epsilon or wait epsilon^2.

    path: the N+1 prices of a full walk (`fundamental_path` of N shocks).
    Returns the int step index of each stop: the first is 0 and the last
    the cap, the last step index not exceeding 1 - N^(-2/3).  Between
    consecutive non-capped stops either the price displacement is >= epsilon
    or the elapsed time is >= epsilon^2.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    n = params.n_steps
    if len(path) != n + 1:
        raise ValueError(f"path has {len(path)} prices, expected n_steps + 1 = {n + 1}")
    cap_time = 1.0 - n ** (-2.0 / 3.0)
    n_cap = math.floor(n * cap_time + _HIT_TOL)
    values = path[: n_cap + 1].tolist()
    price_tol = epsilon * (1.0 - _HIT_TOL)
    time_hit = math.ceil(epsilon**2 * n * (1.0 - _HIT_TOL))
    # one forward pass: stop at the first price hit, time hit or the cap
    # after each anchor (time_hit >= 1, so no stop is skipped)
    indices = [0]
    anchor, a = 0, values[0]
    for t in range(1, n_cap + 1):
        v = values[t]
        if abs(v - a) >= price_tol or t - anchor >= time_hit or t == n_cap:
            indices.append(t)
            anchor, a = t, v
    return np.asarray(indices, dtype=int)

