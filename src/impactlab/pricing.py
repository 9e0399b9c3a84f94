"""Super-replication pricing: minimax DP, brute-force oracle, hedges.

The price of a claim is the least initial cash such that some predictable
position plan ends with cash covering the payoff on every path.  Positions
X_1..X_N are chosen one period ahead and traded at the pre-shock price; the
residual position is liquidated at the post-shock terminal price (one extra
trading period with no price move), so that with costs disabled the price
collapses to the classical backward-induction value with q = 1/2.

A full-tree brute force over grid-valued strategies serves as the oracle
for small instances.  The explicit hedging strategies (quadratic-claim
hedge, stop-anchored affine tracking, liquidation preamble) live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .market import MarketParams, as_shocks, fundamental_path, spread_step, stopping_grid, trade_cost
from .payoffs import PayoffSpec, evaluate_payoff, payoff_from_summaries, payoff_on_paths

__all__ = [
    "Strategy",
    "DPGrids",
    "PriceResult",
    "superreplication_cost",
    "brute_force_cost",
    "doob_quadratic_hedge",
    "affine_constrained_strategy",
    "liquidation_preamble",
    "certificate_check",
    "DOOB_LAMBDA_MAX",
]

# Largest hedge scale admitted for the quadratic-claim hedge.  Calibrated
# empirically: at N=256, eps=0.3, sigma=1, depth 1/3 the pathwise
# domination holds with ~9x-lambda slack at this value over 3x30k sampled
# paths, still holds at 0.007, and first fails near 0.01.  See
# tests/test_acceptance.py for the frozen verification run.
DOOB_LAMBDA_MAX = 5e-3


# ---------------------------------------------------------------------------
# strategies


@dataclass
class Strategy:
    """Predictable position plan: X_n may depend on the first n-1 shocks."""

    n_steps: int
    vector_fn: Callable[[np.ndarray], np.ndarray]
    terminal_zero: bool = False
    meta: dict = field(default_factory=dict)

    def positions(self, shocks) -> np.ndarray:
        """Positions X_1..X_N along one path."""
        shocks = as_shocks(shocks)
        if len(shocks) != self.n_steps:
            raise ValueError("path length must equal n_steps")
        pos = np.asarray(self.vector_fn(shocks), dtype=float)
        if self.terminal_zero and self.n_steps and pos[-1] != 0.0:
            raise AssertionError("strategy declared terminal-flat but X_N != 0")
        return pos


# ---------------------------------------------------------------------------
# payoff lattices

_AUG_BY_KIND = {
    "call": "none",
    "put": "none",
    "custom_terminal": "none",
    "lookback_max": "running_max",
    "asian_mean": "running_sum",
}


@dataclass
class _Lattice:
    prices: list  # per depth: float array of node prices
    up: list  # per depth < N: child indices
    dn: list
    payoff: np.ndarray  # terminal payoff per depth-N node
    augmentation: str


def _build_lattice(spec: PayoffSpec, params: MarketParams, augmentation: str) -> _Lattice:
    n = params.n_steps
    s = params.step_vol
    if augmentation == "auto":
        augmentation = _AUG_BY_KIND.get(spec.kind, "full_tree")

    if augmentation == "none":
        prices = [params.p0 + s * (2.0 * np.arange(d + 1) - d) for d in range(n + 1)]
        up = [np.arange(d + 1) + 1 for d in range(n)]
        dn = [np.arange(d + 1) for d in range(n)]
        payoff = spec.terminal_fn(prices[n])
        return _Lattice(prices, up, dn, np.asarray(payoff, float), augmentation)

    if augmentation in ("running_max", "running_sum"):
        if augmentation == "running_sum" and n > 24:
            raise ValueError("running_sum lattice limited to n_steps <= 24")
        states = [[(0, 0)]]  # (level j, aux)
        for d in range(n):
            seen = {}
            nxt = []
            for (j, a) in states[d]:
                for dj in (1, -1):
                    jj = j + dj
                    aa = max(a, jj) if augmentation == "running_max" else a + j
                    key = (jj, aa)
                    if key not in seen:
                        seen[key] = len(nxt)
                        nxt.append(key)
            states.append(nxt)
        index = [None] * (n + 1)
        for d in range(n + 1):
            index[d] = {st: i for i, st in enumerate(states[d])}
        prices, up, dn = [], [], []
        for d in range(n + 1):
            prices.append(params.p0 + s * np.array([j for (j, _) in states[d]], float))
            if d < n:
                u = np.empty(len(states[d]), dtype=int)
                w = np.empty(len(states[d]), dtype=int)
                for i, (j, a) in enumerate(states[d]):
                    if augmentation == "running_max":
                        u[i] = index[d + 1][(j + 1, max(a, j + 1))]
                        w[i] = index[d + 1][(j - 1, max(a, j - 1))]
                    else:
                        u[i] = index[d + 1][(j + 1, a + j)]
                        w[i] = index[d + 1][(j - 1, a + j)]
                up.append(u)
                dn.append(w)
        aux = np.array([a for (_, a) in states[n]], float)
        payoff = payoff_from_summaries(
            spec,
            terminal=prices[n],
            rise=s * aux if augmentation == "running_max" else None,
            average=params.p0 + s * aux / n if augmentation == "running_sum" else None,
        )
        return _Lattice(prices, up, dn, payoff, augmentation)

    if augmentation == "full_tree":
        if n > 16:
            raise ValueError("full-tree mode limited to n_steps <= 16")
        levels = [np.zeros(1)]
        for d in range(n):
            j = levels[d]
            nxt = np.empty(2 ** (d + 1))
            nxt[: 2**d] = j - 1  # bit d of the index: 0 = down
            nxt[2**d :] = j + 1
            levels.append(nxt)
        prices = [params.p0 + s * j for j in levels]
        up = [np.arange(2**d) + 2**d for d in range(n)]
        dn = [np.arange(2**d) for d in range(n)]
        # leaf i descends from node i mod 2^d at depth d
        leaves = np.arange(2**n)
        paths = np.stack([prices[d][leaves % 2**d] for d in range(n + 1)], axis=1)
        return _Lattice(prices, up, dn, payoff_on_paths(spec, paths), augmentation)

    raise ValueError(f"unknown augmentation {augmentation!r}")


# ---------------------------------------------------------------------------
# grids


@dataclass
class DPGrids:
    """Discretization of the control/position and spread axes.

    Both grids always contain 0; the initial position and spread are
    inserted so the root value needs no interpolation.  `x_grid` may be
    passed explicitly (the oracle-comparison tests share it with the brute
    force); `augmentation` 'auto' picks the cheapest lattice for the payoff.
    """

    x_max: Optional[float] = None
    n_x: int = 81
    n_zeta: int = 48
    zeta_max: Optional[float] = None
    x_grid: Optional[np.ndarray] = None
    augmentation: str = "auto"
    refine: bool = True
    tie_eps: float = 1e-9
    # spread-axis residual (payoff currency units) above which the run is
    # flagged; calibrated so that visibly coarse spread grids trip it while
    # converged ones stay an order of magnitude below
    residual_tol: float = 0.1

    def x_axis(self, spec: PayoffSpec, params: MarketParams) -> np.ndarray:
        if self.x_grid is not None:
            g = np.asarray(self.x_grid, float)
        else:
            # Positions beyond twice the payoff slope are never optimal for
            # the instances priced here; the boundary-hit diagnostic guards
            # the assumption.
            xm = self.x_max if self.x_max is not None else 2.0 * max(1.0, spec.lipschitz_l)
            g = np.linspace(-xm, xm, self.n_x)
        g = np.union1d(g, [0.0, params.x0])
        return g

    def zeta_axis(self, params: MarketParams, x_axis: np.ndarray, collapsed: bool) -> np.ndarray:
        if collapsed:
            return np.array([0.0])
        span = 2.0 * float(np.max(np.abs(x_axis)))
        zm = self.zeta_max
        if zm is None:
            zm = params.zeta0 + span / (params.depth * params.resilience)
        lo = max(zm * 2e-4, 1e-12)
        g = np.concatenate([[0.0], np.geomspace(lo, zm, self.n_zeta - 1)])
        return np.union1d(g, [params.zeta0])


@dataclass
class PriceResult:
    """DP output: the cost estimate plus its discretization report."""

    cost: float
    report: dict
    policy: Optional["DPPolicy"] = None


@dataclass
class DPPolicy:
    """Value tables retained for policy simulation."""

    tables: list  # per depth: (n_states, nX, nZ) arrays
    lattice: _Lattice
    x_axis: np.ndarray
    zeta_axis: np.ndarray
    frictionless: bool


# Golden-section steps per one-step minimization: the bracket shrinks by at
# least as much as 30 ternary steps, ceil(30 ln(2/3) / ln(1/phi)) = 26.
GOLDEN_STEPS = 26
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _spread_cells(zg: np.ndarray):
    """Cell lookup on the spread axis without a search.

    `cells(z)` returns the lower cell index and weight of piecewise-linear
    interpolation, equal to `searchsorted` clamped to the grid's cells and
    the weight clipped to [0, 1] (flat beyond the last node).  The positive
    nodes are geometric (plus an off-grid zeta0), so one log finds a bucket
    of a table four times finer than the axis; the table holds the cell at
    each bucket's start, less a margin far above the log's rounding, and
    `steps` comparisons against the real nodes lift it to the exact cell.
    A one-node (collapsed) axis reads cell 0 at weight 0.
    """
    n_z = len(zg)
    if n_z < 2:
        return lambda z: (np.zeros(np.shape(z), dtype=np.int64), np.zeros(np.shape(z)))
    width = np.diff(zg)
    upper = np.append(zg[1:-1], np.inf)  # right node of each cell; none past the last
    z_lo = zg[1]
    log_lo, log_hi = np.log(zg[[1, -1]])
    # any positive scale is exact, since `steps` is measured on the table
    n_b = 4 * n_z
    scale = n_b / ((log_hi - log_lo) or 1.0)

    def cell_at(z):
        return np.minimum(np.count_nonzero(zg <= z[:, None], axis=1) - 1, n_z - 2)

    edge = np.arange(n_b + 1)
    start = cell_at(np.exp(log_lo + (edge[:-1] - 1e-6) / scale))
    steps = int(np.max(cell_at(np.exp(log_lo + (edge[1:] + 1e-6) / scale)) - start))

    def cells(z):
        b = ((np.log(np.maximum(z, z_lo)) - log_lo) * scale).astype(np.int64)
        k = start[np.minimum(b, n_b - 1, out=b)]
        for _ in range(steps):
            k += z >= upper[k]
        w = (z - zg[k]) / width[k]
        return k, np.minimum(w, 1.0, out=w)

    return cells


def _node_cells(xg: np.ndarray, j):
    """Position lookup for points on the grid nodes `j`: each node's own
    cell at weight 0, or the last cell at weight 1 for the last node."""
    k = np.minimum(j, len(xg) - 2)
    w = np.asarray(j - k, dtype=float)
    return lambda x: (k, w)


def _bracket(xg: np.ndarray, j):
    """Golden-section bracket [x_{j-1}, x_{j+1}] around the grid argmins
    `j` (clamped to the grid), and the position cell of its points.

    A point inside the bracket lies in cell j-1 or j (cells clamped to
    [0, n_x - 2]), so one comparison with the bracket's middle node gives
    the cell and weight `searchsorted` would; golden-section search never
    evaluates the bracket's ends.
    """
    n_x = len(xg)
    lo = xg[np.maximum(j - 1, 0)]
    hi = xg[np.minimum(j + 1, n_x - 1)]
    base = np.clip(j - 1, 0, n_x - 3)
    middle = xg[base + 1]
    width = np.diff(xg)

    def cells(x):
        k = base + (x >= middle)
        return k, (x - xg[k]) / width[k]

    return lo, hi, cells


def superreplication_cost(
    params: MarketParams,
    spec: PayoffSpec,
    grids: DPGrids | None = None,
    frictionless: bool = False,
    keep_policy: bool = False,
) -> PriceResult:
    """Minimax backward induction for the super-replication cost.

    State per depth: (augmented price node, position, spread), with the
    spread handled by piecewise-linear interpolation.  Each minimization
    scans the position grid and optionally refines by golden-section
    search over the two cells around the scan's argmin.  Refinement assumes
    the one-step objective is unimodal there, which can fail at low
    resilience, where some states' scan values are not unimodal; it can
    never raise a value, since each state keeps the smaller of its scan
    and refined values (`np.minimum(best, refined)`).
    """
    grids = grids or DPGrids()
    lattice = _build_lattice(spec, params, grids.augmentation)
    n = params.n_steps
    xg = grids.x_axis(spec, params)
    collapsed = frictionless or params.resilience == 1.0
    zg = grids.zeta_axis(params, xg, collapsed)
    n_x, n_z = len(xg), len(zg)

    # Terminal layer: forced liquidation at the post-shock price, then payoff.
    p_term = lattice.prices[n][:, None, None]
    x_b = xg[None, :, None]
    z_b = zg[None, None, :]
    v = trade_cost(p_term, x_b, 0.0, z_b, params, frictionless) + lattice.payoff[:, None, None]
    v = np.broadcast_to(v, (len(lattice.prices[n]), n_x, n_z)).copy()

    tables = [None] * (n + 1)
    if keep_policy:
        tables[n] = v
    boundary_hits = 0
    max_resid = 0.0
    max_resid_x = 0.0

    # Spread after a trade of size |dx|, shared across depths and nodes.
    z_cells = _spread_cells(zg)
    zp_by_pair = {}
    for jxp in range(n_x):
        zp_by_pair[jxp] = z_cells(spread_step(zg[None, :], (xg[jxp] - xg)[:, None], params))

    order = np.argsort(np.abs(xg), kind="stable")

    for depth in range(n - 1, -1, -1):
        pairmax = np.maximum(v[lattice.up[depth]], v[lattice.dn[depth]])
        m = len(lattice.prices[depth])
        prices = lattice.prices[depth][:, None, None]

        best = np.full((m, n_x, n_z), np.inf)
        best_j = np.zeros((m, n_x, n_z), dtype=np.int64)
        for jxp in order:
            k, w = zp_by_pair[jxp]
            kp1 = np.minimum(k + 1, n_z - 1)
            slab = pairmax[:, jxp, :]
            cand = slab[:, k.ravel()].reshape(m, n_x, n_z) * (1.0 - w) + slab[
                :, kp1.ravel()
            ].reshape(m, n_x, n_z) * w
            # plus the trade: its mid leg (m, n_x, 1) and spread leg
            # (1, n_x, n_z) meet in one full-size add inside trade_cost
            cand += trade_cost(prices, x_b, xg[jxp], z_b, params, frictionless)
            take_j = cand < best - grids.tie_eps
            np.minimum(best, cand, out=best)
            best_j[take_j] = jxp

        # Grid-edge argmins signal a binding position bound, except where the
        # state already sits at the edge and holding it is the choice.
        own = np.arange(n_x)[None, :, None]
        at_edge = (best_j == 0) | (best_j == n_x - 1)
        boundary_hits += int(np.count_nonzero(at_edge & (best_j != own)))

        if grids.refine and n_x >= 3:
            refined = _refine_layer(
                best_j, v, lattice.up[depth], lattice.dn[depth], prices, xg, zg, z_cells, params, frictionless
            )
            np.minimum(best, refined, out=best)

        v = best
        if keep_policy:
            tables[depth] = v
        rz, rx = _interp_residual(v, xg, zg)
        max_resid = max(max_resid, rz)
        max_resid_x = max(max_resid_x, rx)

    ix0 = int(np.searchsorted(xg, params.x0))
    iz0 = int(np.searchsorted(zg, min(params.zeta0, zg[-1]))) if n_z > 1 else 0
    cost = float(v[0, ix0, iz0])
    # Only the spread axis is interpolated during the scan, so its residual
    # is the propagating error; the position axis enters refinement only,
    # where interpolating the convex tables errs on the safe side.
    report = {
        "n_x": n_x,
        "n_zeta": n_z,
        "augmentation": lattice.augmentation,
        "max_interp_residual": max_resid,
        "x_kink_residual": max_resid_x,
        "boundary_hits": boundary_hits,
        "refined": bool(grids.refine),
        "flagged": bool(boundary_hits > 0 or max_resid > grids.residual_tol),
    }
    policy = None
    if keep_policy:
        policy = DPPolicy(tables=tables, lattice=lattice, x_axis=xg, zeta_axis=zg, frictionless=frictionless)
    return PriceResult(cost=cost, report=report, policy=policy)


def _branch_max(vnext, up_rows, dn_rows, x_cells, z_cells, xp, zp):
    """Worse of the up and down continuations at off-grid (position, spread).

    Each branch is the bilinear interpolant of its row of `vnext`; the
    lookups `x_cells`/`z_cells` give the cells and weights of `xp`/`zp`,
    and the flat cell index is computed once for both branches.
    `up_rows`/`dn_rows` and `xp` broadcast against `zp`, which has the
    shape of the result.
    """
    n_z = vnext.shape[2]
    flat = vnext.reshape(-1)
    jx, wx = x_cells(xp)
    kz, wz = z_cells(zp)
    cell = jx * n_z  # the one int64 index array kept per evaluation
    cell += kz
    del jx, kz, zp
    wx1, wz1 = 1.0 - wx, 1.0 - wz

    def branch():
        c00, c10 = flat[cell], flat[n_z:][cell]
        if n_z > 1:
            c00 = c00 * wz1 + flat[1:][cell] * wz
            c10 = c10 * wz1 + flat[n_z + 1 :][cell] * wz
        return c00 * wx1 + c10 * wx

    stride = vnext.shape[1] * n_z
    cell += up_rows * stride
    up = branch()
    cell += (dn_rows - up_rows) * stride
    return np.maximum(up, branch(), out=up)


def _one_step_objective(vnext, up_rows, dn_rows, price, x_old, zeta, z_cells, params, frictionless):
    """Cost of moving x_old -> xp plus the worse branch's continuation, as a
    function of xp and the lookup `x_cells` of its position cell: the
    objective every one-step minimization shares.  `z_cells` is the spread
    axis's lookup."""

    def objective(xp, x_cells):
        # the continuation first, and the new spread passed as a temporary
        # that `_branch_max` drops once looked up: the trade's and the
        # interpolation's temporaries never coexist
        value = _branch_max(
            vnext, up_rows, dn_rows, x_cells, z_cells, xp, spread_step(zeta, xp - x_old, params)
        )
        value += trade_cost(price, x_old, xp, zeta, params, frictionless)
        return value

    return objective


def _golden_min(objective, lo, hi):
    """Elementwise golden-section search of a unimodal objective on [lo, hi].

    One new evaluation per step, GOLDEN_STEPS steps; returns the objective
    at the final bracket midpoint and that midpoint.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = objective(c), objective(d)
    for step in range(GOLDEN_STEPS):
        left = fc <= fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        if step == GOLDEN_STEPS - 1:
            break
        # the surviving interior point keeps its value; one new point
        x = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        fx = objective(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    mid = 0.5 * (lo + hi)
    return objective(mid), mid


def _refine_layer(best_j, v, up, dn, prices, xg, zg, z_cells, params, frictionless):
    """Vectorized golden-section search around the grid argmin, one cell
    each side.

    The up/down continuations are interpolated separately before taking the
    adversarial max, so kinks between the branches survive refinement.
    """
    objective = _one_step_objective(
        v, up[:, None, None], dn[:, None, None], prices,
        xg[None, :, None], zg[None, None, :], z_cells, params, frictionless,
    )
    lo, hi, cells = _bracket(xg, best_j)
    return _golden_min(lambda x: objective(x, cells), lo, hi)[0]


def _interp_residual(v, xg, zg) -> tuple[float, float]:
    """Mid-node deviation from the linear interpolant of the neighbours,
    per axis (spread, position)."""
    rz = rx = 0.0
    if len(zg) >= 3:
        t = (zg[1:-1] - zg[:-2]) / (zg[2:] - zg[:-2])
        vhat = v[:, :, :-2] * (1.0 - t) + v[:, :, 2:] * t
        rz = float(np.max(np.abs(v[:, :, 1:-1] - vhat)))
    if len(xg) >= 3:
        t = ((xg[1:-1] - xg[:-2]) / (xg[2:] - xg[:-2]))[None, :, None]
        vhat = v[:, :-2, :] * (1.0 - t) + v[:, 2:, :] * t
        rx = float(np.max(np.abs(v[:, 1:-1, :] - vhat)))
    return rz, rx


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_cost(
    params: MarketParams,
    spec: PayoffSpec,
    control_grid,
    frictionless: bool = False,
) -> float:
    """Exhaustive minimax over grid-valued predictable strategies.

    Full-tree recursion with exact spread states; positions are restricted
    to `control_grid` and the residual is liquidated at the terminal price.
    Feasible only for a handful of periods.
    """
    n = params.n_steps
    if n > 4:
        raise ValueError("brute force limited to n_steps <= 4")
    grid = np.asarray(control_grid, dtype=float)
    s = params.step_vol

    payoff_cache = {}

    def payoff(shocks: tuple) -> float:
        if shocks not in payoff_cache:
            payoff_cache[shocks] = evaluate_payoff(
                spec, fundamental_path(np.asarray(shocks), params)
            )
        return payoff_cache[shocks]

    def leaf_cost(shocks: tuple, price: float, x: float, zeta: float) -> float:
        return trade_cost(price, x, 0.0, zeta, params, frictionless) + payoff(shocks)

    def rec(shocks: tuple, price: float, x: float, zeta: float, depth: int) -> float:
        if depth == n - 1:
            # Vectorize the final decision over the control grid.
            cost = trade_cost(price, x, grid, zeta, params, frictionless)
            z_next = spread_step(zeta, grid - x, params)
            res = np.empty(len(grid))
            for i, xp in enumerate(grid):
                up = leaf_cost(shocks + (1,), price + s, xp, z_next[i])
                dn = leaf_cost(shocks + (-1,), price - s, xp, z_next[i])
                res[i] = cost[i] + max(up, dn)
            return float(np.min(res))
        best = math.inf
        for xp in grid:
            cost = trade_cost(price, x, xp, zeta, params, frictionless)
            z_next = spread_step(zeta, xp - x, params)
            worst = max(
                rec(shocks + (1,), price + s, xp, z_next, depth + 1),
                rec(shocks + (-1,), price - s, xp, z_next, depth + 1),
            )
            best = min(best, cost + worst)
        return best

    return rec((), params.p0, params.x0, params.zeta0, 0)


# ---------------------------------------------------------------------------
# policy certificate


def certificate_check(
    result: PriceResult,
    params: MarketParams,
    spec: PayoffSpec,
    n_paths: int = 0,
    seed: int = 0,
) -> dict:
    """Simulate the DP policy and report the worst wealth-minus-payoff margin.

    Exhaustive over all 2^N paths when n_paths == 0, otherwise on n_paths
    sampled paths.  Each distinct path is replayed once: the replay is
    elementwise per path, so a repeated path has the same margin.  `paths`,
    `min_margin` and `violations` count every path, `distinct` the replays.
    The policy re-solves the one-step minimization at the exact (position,
    spread) state using the stored value tables, then wealth is accumulated
    with the exact cash dynamics.  It keeps its own position scan rather
    than the DP's: after the first trade its states lie off the grid, where
    the DP's scan, tabulated per grid state, has no entry.
    """
    if result.policy is None:
        raise ValueError("price result was computed without keep_policy=True")
    pol = result.policy
    n = params.n_steps
    if n_paths == 0:
        if n > 20:
            raise ValueError("exhaustive check limited to n_steps <= 20")
        bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
        drawn = np.where(bits == 1, 1, -1)
    else:
        drawn = np.random.default_rng(seed).choice([-1, 1], size=(n_paths, n))
    shocks, inverse = np.unique(drawn, axis=0, return_inverse=True)
    count = len(shocks)

    xg, zg = pol.x_axis, pol.zeta_axis
    z_cells = _spread_cells(zg)
    s = params.step_vol
    frictionless = pol.frictionless

    node = np.zeros(count, dtype=int)
    x = np.full(count, params.x0)
    zeta = np.full(count, params.zeta0)
    cash = np.full(count, result.cost)
    price = np.full(count, params.p0)

    n_x = len(xg)
    for depth in range(n):
        up_idx = pol.lattice.up[depth][node]
        dn_idx = pol.lattice.dn[depth][node]
        objective = _one_step_objective(
            pol.tables[depth + 1], up_idx, dn_idx, price, x, zeta, z_cells, params, frictionless
        )

        best = np.full(count, np.inf)
        best_jx = np.zeros(count, dtype=int)
        for jxp in np.argsort(np.abs(xg), kind="stable"):
            cand = objective(xg[jxp], _node_cells(xg, jxp))
            take = cand < best - 1e-12
            best_jx = np.where(take, jxp, best_jx)
            np.minimum(best, cand, out=best)
        best_x = xg[best_jx]
        if n_x >= 3:
            lo, hi, cells = _bracket(xg, best_jx)
            f_mid, mid = _golden_min(lambda x_new: objective(x_new, cells), lo, hi)
            best_x = np.where(f_mid < objective(best_x, _node_cells(xg, best_jx)), mid, best_x)
        cash -= trade_cost(price, x, best_x, zeta, params, frictionless)
        zeta = spread_step(zeta, best_x - x, params)
        x = best_x
        price = price + s * shocks[:, depth]
        node = np.where(shocks[:, depth] == 1, up_idx, dn_idx)

    # liquidation at the terminal price
    cash -= trade_cost(price, x, 0.0, zeta, params, frictionless)
    payoff = pol.lattice.payoff[node]
    margin = (cash - payoff)[inverse.reshape(-1)]
    return {
        "paths": len(margin),
        "distinct": count,
        "min_margin": float(np.min(margin)),
        "violations": int(np.count_nonzero(margin < -1e-9)),
    }


# ---------------------------------------------------------------------------
# explicit hedging strategies


def doob_quadratic_hedge(lam: float, epsilon: float, params: MarketParams) -> Strategy:
    """Hedge whose terminal wealth dominates lam times the quadratic claim.

    Piecewise position plan anchored at the space-time stops: short the
    running max and long the running min of the frozen path (scale b),
    fade the last stop value (scale d), and track the live price (scale e),
    going flat after the time cap.  The initial capital charged is
    lam * (1 + 36 sigma^2).
    """
    if lam < 0 or lam > DOOB_LAMBDA_MAX:
        raise ValueError(f"lam must lie in [0, {DOOB_LAMBDA_MAX}]")
    if params.x0 != 0.0 or params.zeta0 != 0.0:
        raise ValueError("hedge is constructed for x0 = 0 and zeta0 = 0")
    b, d, e = 8.0 * lam, 4.0 * lam, 36.0 * lam
    capital = lam * (1.0 + 36.0 * params.sigma**2)
    n = params.n_steps

    def vector_fn(shocks: np.ndarray) -> np.ndarray:
        path = fundamental_path(shocks, params)
        idx = stopping_grid(path, epsilon, params).indices
        prices = path.values
        p0 = params.p0
        cap = idx[-1]
        anchor = prices[idx[:-1]] - p0  # frozen path at each interval's start stop
        run_max = np.maximum.accumulate(np.maximum(anchor, 0.0))
        run_min = np.maximum.accumulate(np.maximum(-anchor, 0.0))  # depth below the start
        base = -b * run_max + b * run_min - d * anchor
        pos = np.zeros(n)
        pos[:cap] = np.repeat(base, np.diff(idx)) + e * (prices[:cap] - p0)
        return pos

    return Strategy(
        n_steps=n,
        vector_fn=vector_fn,
        terminal_zero=True,
        meta={"capital": capital, "b": b, "d": d, "e": e, "lam": lam, "epsilon": epsilon},
    )


def affine_constrained_strategy(phi, psi, grid, params: MarketParams) -> Strategy:
    """Stop-anchored affine tracking plan with logarithmic position bounds.

    Over each stop interval: ramp at constant speed (ceil(N^(1/3)) steps)
    into phi_k + psi_k * (price at the last stop), then hold
    phi_k + psi_k * (previous step price); after the last covered stop or
    past 1 - N^(-1/2), unwind in another ramp and stay flat.  `grid` only
    supplies the space threshold epsilon; the stops are re-derived on each
    path so the plan stays predictable.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if len(phi) != len(psi):
        raise ValueError("phi and psi must have equal length")
    n = params.n_steps
    bound = math.log(n)
    if np.any(np.abs(phi) > bound) or np.any(np.abs(psi) > bound):
        raise ValueError("coefficients must satisfy |phi|, |psi| <= log N")
    epsilon = grid.epsilon
    m_ramp = math.ceil(n ** (1.0 / 3.0))

    def vector_fn(shocks: np.ndarray) -> np.ndarray:
        path = fundamental_path(shocks, params)
        stops = stopping_grid(path, epsilon, params).indices
        prices = path.values
        pos = np.zeros(n)
        cur = params.x0
        slot = 0
        late = 1.0 - n ** (-0.5)
        for k in range(1, len(stops)):
            if k > len(phi) or stops[k - 1] / n >= late:
                break
            lo, hi = stops[k - 1], stops[k]
            target = phi[k - 1] + psi[k - 1] * prices[lo]
            ramp = min(m_ramp, hi - lo)
            for j in range(1, ramp + 1):
                pos[lo + j - 1] = cur + (target - cur) * j / ramp
            track = np.arange(lo + ramp, hi)
            pos[track] = phi[k - 1] + psi[k - 1] * prices[track]
            cur = pos[hi - 1]
            slot = hi
        ramp = min(m_ramp, n - slot)
        for j in range(1, ramp + 1):
            pos[slot + j - 1] = cur * (1.0 - j / ramp)
        return pos

    return Strategy(n_steps=n, vector_fn=vector_fn, terminal_zero=False, meta={"m_ramp": m_ramp})


def liquidation_preamble(inner: Strategy, params: MarketParams) -> Strategy:
    """Unwind the endowed position, let the spread decay, then run `inner`.

    First ceil(N^(1/3)) steps ramp x0 to zero at constant speed, the next
    ceil(N^(1/3)) steps stay flat (the spread shrinks geometrically), and
    the remaining N - 2 ceil(N^(1/3)) steps follow `inner` on the
    time-shifted tail of the path.
    """
    n = params.n_steps
    m = math.ceil(n ** (1.0 / 3.0))
    if 2 * m >= n:
        raise ValueError("n_steps too small for the liquidation preamble")
    if inner.n_steps != n - 2 * m:
        raise ValueError(f"inner strategy must cover {n - 2 * m} steps")

    def vector_fn(shocks: np.ndarray) -> np.ndarray:
        pos = np.zeros(n)
        for j in range(1, m + 1):
            pos[j - 1] = params.x0 * (1.0 - j / m)
        pos[2 * m :] = inner.positions(shocks[2 * m :])
        return pos

    return Strategy(n_steps=n, vector_fn=vector_fn, terminal_zero=inner.terminal_zero, meta={"ramp": m})
