"""Super-replication pricing: minimax DP, its policy replay, hedges.

The price of a claim is the least initial cash such that some predictable
position plan ends with cash covering the payoff on every path.  Positions
X_1..X_N are chosen one period ahead and traded at the pre-shock price; the
residual position is liquidated at the post-shock terminal price (one extra
trading period with no price move), so that in the frictionless market
(`MarketParams.frictionless`) the price collapses to the classical
backward-induction value with q = 1/2.

The explicit quadratic-claim hedge lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .market import MarketParams, as_shocks, fundamental_path, spread_cost, spread_step, stopping_grid, trade_cost
from .payoffs import PayoffSpec, payoff_from_summaries

__all__ = [
    "Strategy",
    "DPGrids",
    "PriceResult",
    "superreplication_cost",
    "doob_quadratic_hedge",
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
    """Predictable position plan: X_n may depend on the first n-1 shocks.

    Every plan ends flat (X_N = 0); `positions` checks it on each path.
    """

    n_steps: int
    vector_fn: Callable[[np.ndarray], np.ndarray]
    meta: dict = field(default_factory=dict)

    def positions(self, shocks) -> np.ndarray:
        """Positions X_1..X_N along one path."""
        shocks = as_shocks(shocks)
        if len(shocks) != self.n_steps:
            raise ValueError("path length must equal n_steps")
        pos = np.asarray(self.vector_fn(shocks), dtype=float)
        if self.n_steps and pos[-1] != 0.0:
            raise AssertionError("strategy must end flat, but X_N != 0")
        return pos


# ---------------------------------------------------------------------------
# payoff lattices

# the lattice's aux by the path statistic the payoff reads (`PayoffSpec.summary`)
_AUG_BY_SUMMARY = {"terminal": "none", "rise": "running_max", "average": "running_sum"}


@dataclass
class _Lattice:
    states: list  # per depth, sorted: group keys, or a split's (group, lifts) int64 rows
    up: list  # per depth < N: child indices
    dn: list
    lift: list  # per depth < N: bool, the up move adds s to the payoff
    payoff: np.ndarray  # terminal payoff per depth-N state
    prices: Optional[list]  # per depth: a split's state prices (perfbench reads them); None for groups


# A group's up child key, down child key and whether the up move lifts the
# payoff by s, when m periods follow: keys are the level j, the lookback's
# drawdown a - j (up from 0 is a new max) and the asian's (Z - p0) N / s = A + (N - d) j.
_KEY_STEP = {
    "none": lambda k, m: (k + 1, k - 1, np.zeros_like(k, dtype=bool)),
    "running_max": lambda k, m: (np.maximum(k - 1, 0), k + 1, k == 0),
    "running_sum": lambda k, m: (k + m, k - m, np.zeros_like(k, dtype=bool)),
}


def _lattice_depths(spec: PayoffSpec, params: MarketParams):
    """The price lattice's states merged by the integer key (`_KEY_STEP`)
    that their price-free value W = V + x P depends on, up to s per lift on
    the way to them, one depth at a time.  A path's state is its level j
    (price p0 + s j) and an aux a: 0 for a terminal payoff, the running max
    for the lookback and the running sum A of the pre-move levels for the
    asian.  The lookback's state (j, a) is worth its drawdown's W plus a s.
    Each depth's keys are one step over its parents', merged.  For each
    depth d < N, yields depth d's up and down child indices, its lift mask
    and the sorted keys of depth d + 1, and keeps no earlier depth: a pass
    that reads each depth once holds one depth at a time.
    """
    n = params.n_steps
    step = _KEY_STEP[_AUG_BY_SUMMARY[spec.summary]]
    keys = np.zeros(1, dtype=np.int64)
    for d in range(n):
        k_up, k_dn, lifted = step(keys, n - d - 1)
        kids = np.concatenate([k_up, k_dn])
        lo = kids.min()
        seen = np.bincount(kids - lo) > 0  # keys are small integers: no sort
        u, w = (np.cumsum(seen) - 1)[kids - lo].reshape(2, -1)
        keys = np.flatnonzero(seen) + lo
        yield u, w, lifted, keys


def _group_payoff(spec: PayoffSpec, params: MarketParams, keys: np.ndarray) -> np.ndarray:
    """The payoff of each depth-N group of `_lattice_depths` by its key:
    its reference state's (running max p0 for the lookback)."""
    n, s = params.n_steps, params.step_vol
    key = keys.astype(float)
    return payoff_from_summaries(spec, terminal=params.p0 + s * key, rise=0.0 * key, average=params.p0 + s * key / n)


def _grouped_lattice(spec: PayoffSpec, params: MarketParams) -> _Lattice:
    """Every depth of `_lattice_depths`, collected, with the groups' payoff."""
    keys, up, dn, lift = [np.zeros(1, dtype=np.int64)], [], [], []
    for u, w, lifted, nxt in _lattice_depths(spec, params):
        up.append(u)
        dn.append(w)
        lift.append(lifted)
        keys.append(nxt)
    return _Lattice(keys, up, dn, lift, _group_payoff(spec, params, keys[-1]), None)


def _split_by_lifts(groups: _Lattice, params: MarketParams) -> _Lattice:
    """`groups` with each group split by the number of lifts on the way to
    it, the lattice a kept policy lives on.  A state (group g, lifts m) is
    worth g's W plus m s and pays g's payoff plus m s, so no move of the
    split lifts.  Only the lookback lifts: its (drawdown, lifts) state is
    the one at level lifts - drawdown with running max lifts.  Every other
    kind's split is its groups, in their order.  Each depth's rows are one
    step over its parents', merged and sorted by `np.unique`.  `prices`
    follows each state's level along the moves: the state's own price where
    it fixes one, which the asian's Z groups do not.
    """
    n, s = params.n_steps, params.step_vol
    rows, levels, up, dn = [np.zeros((1, 2), dtype=np.int64)], [np.zeros(1, dtype=np.int64)], [], []
    for d in range(n):
        g, m = rows[-1].T
        # at most d + 1 lifts reach depth d + 1, so (group, lifts) packs into one integer
        kids = np.concatenate([groups.up[d][g] * (d + 2) + m + groups.lift[d][g], groups.dn[d][g] * (d + 2) + m])
        nxt, inverse = np.unique(kids, return_inverse=True)
        u, w = inverse.reshape(2, -1)
        level = np.empty(len(nxt), dtype=np.int64)
        level[u], level[w] = levels[-1] + 1, levels[-1] - 1
        up.append(u)
        dn.append(w)
        levels.append(level)
        rows.append(np.stack(np.divmod(nxt, d + 2), axis=1))
    g, m = rows[n].T
    prices = [params.p0 + s * level.astype(float) for level in levels]
    return _Lattice(rows, up, dn, [np.zeros(len(u), dtype=bool) for u in up], groups.payoff[g] + s * m, prices)


def _build_lattice(spec: PayoffSpec, params: MarketParams, augmentation: str = "auto") -> _Lattice:
    """The payoff's groups split by lifts (`_split_by_lifts`).  Only
    perfbench/tests/test_spans.py calls it, as `_build_lattice(spec, params,
    "auto")`, and reads its `prices`; `augmentation` is unused."""
    return _split_by_lifts(_grouped_lattice(spec, params), params)


# ---------------------------------------------------------------------------
# grids


@dataclass
class DPGrids:
    """Discretization of the position and spread axes.

    `n_x` nodes on [-2L, 2L], L the larger of 1 and the payoff's steepest
    slope (`PayoffSpec.lipschitz_l`), set the position spacing.  The DP
    keeps only those that reach half a unit beyond the payoff's slope range
    stretched to x0, with their exact values (41 of 81, on [-0.5, 1.5], for
    a call held from flat); the report's `n_x` counts the nodes kept.  An
    explicit `x_grid` is used whole (the oracle-comparison tests share it
    with the brute force).  `n_zeta` nodes span the spread axis, 0 and
    geometric up to the spread the widest trade leaves; at full
    resilience, and so in the frictionless market
    (`MarketParams.frictionless`), the spread axis is the one node 0.  Both
    axes always contain 0; the initial position and (below full resilience)
    spread are inserted so the root value needs no interpolation.  `refine`
    turns on golden-section refinement of each minimization.  The price
    lattice is not a setting: the payoff's `summary` fixes it.
    """

    n_x: int = 81
    n_zeta: int = 48
    x_grid: Optional[np.ndarray] = None
    refine: bool = True

    def _nodes(self, spec: PayoffSpec) -> np.ndarray:
        if self.x_grid is not None:
            return np.asarray(self.x_grid, float)
        xm = 2.0 * max(1.0, spec.lipschitz_l)
        return np.linspace(-xm, xm, self.n_x)

    def x_axis(self, spec: PayoffSpec, params: MarketParams) -> np.ndarray:
        g = self._nodes(spec)
        if self.x_grid is None:
            # A super-replicating hedge holds positions in the payoff's slope
            # range, once it has traded away from x0, possibly over several
            # periods.  Keep the nodes from the last at or below lo - 1/2 to
            # the first at or above hi + 1/2, with the range stretched to x0:
            # without the margin the argmin sits on the edge as the true
            # optimum.  The boundary-hit diagnostic guards the range.
            g = g[_hedge_span(g, spec, params)]
        return _sorted_union(g, [0.0, params.x0])

    def zeta_axis(self, spec: PayoffSpec, params: MarketParams) -> np.ndarray:
        """The spread axis: the one node 0 at full resilience, where the
        spread's memory dies and a trade's cost never reads it.  Otherwise
        its top follows the widest trade over all `n_x` nodes (or `x_grid`)
        and x0, not over the nodes `x_axis` keeps, so sizing the position
        axis to the payoff moves no spread node."""
        if params.resilience == 1.0:
            return np.array([0.0])
        span = 2.0 * float(np.max(np.abs(np.append(self._nodes(spec), params.x0))))
        zm = params.zeta0 + span / (params.depth * params.resilience)
        if zm == 0.0:
            # no spread to start from and no position to trade to
            return np.array([0.0])
        g = np.geomspace(max(zm * 2e-4, 1e-12), zm, self.n_zeta - 1)
        g[-1:] = zm  # the top, also as the one positive node (geomspace gives its start there)
        return _sorted_union(np.append(0.0, g), [params.zeta0])


def _sorted_union(*parts) -> np.ndarray:
    """`np.union1d` of `parts` without its masked-array check, which imports
    numpy.ma: the same sort, then the first of each run of equal values, so
    the same bytes (which of 0.0 and -0.0 survives is the sort's choice)."""
    a = np.sort(np.concatenate(parts, axis=None))
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _hedge_span(g: np.ndarray, spec: PayoffSpec, params: MarketParams) -> slice:
    """The nodes of the sorted axis `g` from the last at or below lo - 1/2
    to the first at or above hi + 1/2, for the payoff's slope range [lo, hi]
    stretched to x0 (all of `g` where it ends sooner)."""
    lo, hi = spec.slope_range
    lo, hi = min(lo, params.x0), max(hi, params.x0)
    first = max(np.count_nonzero(g <= lo - 0.5) - 1, 0)
    return slice(first, len(g) - np.count_nonzero(g >= hi + 0.5) + 1)


@dataclass
class PriceResult:
    """DP output: the cost estimate plus its discretization report."""

    cost: float
    report: dict
    policy: Optional["DPPolicy"] = None


@dataclass
class DPPolicy:
    """Value tables retained for policy simulation."""

    tables: list  # per depth: (n_states, nX, nZ) price-free values W; V = W - x P
    lattice: _Lattice  # `_split_by_lifts` of the DP's groups
    x_axis: np.ndarray
    zeta_axis: np.ndarray
    refine: bool  # the DP refined its scans, so the replay does too
    params: MarketParams  # the market the DP priced; a replay in another is refused


# Golden-section steps per one-step minimization: the bracket shrinks by at
# least as much as 30 ternary steps, ceil(30 ln(2/3) / ln(1/phi)) = 26.
GOLDEN_STEPS = 26
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# A scanned candidate takes over the argmin only when cheaper by more than
# this, so near-ties keep the node scanned first.
_TIE_EPS = 1e-9
# Spread-axis residual (payoff currency units) above which the run is
# flagged; calibrated so that visibly coarse spread grids trip it while
# converged ones stay an order of magnitude below.
_RESIDUAL_TOL = 0.1
# `superreplication_cost` solves a depth's groups in blocks whose
# (position, spread) tables take about this many bytes.
_BLOCK_BYTES = 1 << 16


def _spread_cells(zg: np.ndarray):
    """Cell lookup on the spread axis by binary search.

    `cells(z)` returns the lower cell index and weight of piecewise-linear
    interpolation: the last node at or below z, clamped to the axis's cells
    (the count of inner nodes at or below z), and the weight capped at 1
    (flat beyond the last node).  A one-node (collapsed) axis reads cell 0
    at weight 0.
    """
    if len(zg) < 2:
        return lambda z: (np.zeros(np.shape(z), dtype=np.int64), np.zeros(np.shape(z)))
    inner, width = zg[1:-1], np.diff(zg)

    def cells(z):
        k = np.searchsorted(inner, z, side="right")
        w = z - zg[k]
        w /= width[k]
        return k, np.minimum(w, 1.0, out=w)

    return cells


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
        w = x - xg[k]
        w /= width[k]
        return k, w

    return lo, hi, cells


def _scan(up_t, dn_t, rows, z_cells, x_old, zeta, xg, params):
    """Position scan: per state (branch-table row `rows`, x_old, zeta), the
    least over nodes xg[j] of the trade's `spread_cost` plus the pair max
    max(up_t, dn_t) at j, taken one slab at a time and interpolated along
    the spread axis at the spread the trade xg[j] - x_old leaves,
    `z_cells(spread_step(zeta, trade, params))`, as `_refine` reads it.
    `rows`, `x_old` and `zeta` broadcast to the result's shape.  Nodes are
    scanned by |x|; on near-ties (`_TIE_EPS`) the first keeps the argmin.
    Returns the values and argmin nodes.
    """
    n_z = up_t.shape[2]
    shape = np.broadcast_shapes(np.shape(rows), np.shape(x_old), np.shape(zeta))
    best = np.full(shape, np.inf)
    best_j = np.zeros(shape, dtype=np.int64)
    # each state's row in the flattened slab: one index array gathers about
    # twice as fast as a (row, cell) pair
    start = rows * n_z
    for j in np.argsort(np.abs(xg), kind="stable"):
        trade = xg[j] - x_old
        k, w = z_cells(spread_step(zeta, trade, params))
        slab = np.maximum(up_t[:, j, :], dn_t[:, j, :]).reshape(-1)
        cand = slab[start + k] * (1.0 - w) + slab[start + np.minimum(k + 1, n_z - 1)] * w
        cand += spread_cost(zeta, trade, params)
        take = cand < best - _TIE_EPS
        np.minimum(best, cand, out=best)
        best_j[take] = j
    return best, best_j


def _branches(v, up, dn, lift, sx, s):
    """Each parent row's up branch v[up] (plus s where `lift` is set) less s y
    and down branch v[dn] plus s y, from the next depth's W table `v`."""
    up_t = v[up]
    up_t[lift] += s
    up_t -= sx
    dn_t = v[dn]
    dn_t += sx
    return up_t, dn_t


def superreplication_cost(
    params: MarketParams,
    spec: PayoffSpec,
    grids: DPGrids | None = None,
    keep_policy: bool = False,
) -> PriceResult:
    """Minimax backward induction for the super-replication cost.

    State per depth: (group of `_grouped_lattice`, position, spread), with
    the spread handled by piecewise-linear interpolation.  At iota = 0 a
    trade's cash is P (y - x) + spread_cost(zeta, y - x), so the value is
    V = -x P + W, and the DP solves W: the up branch reads W (lifted by s
    first on a new max) less s y, the down branch W plus s y.  Each
    minimization scans the position grid (`_scan`) and optionally refines
    by golden-section search over the two cells around the scan's argmin
    (`_refine`); the policy replay runs the same two.  Refinement assumes
    the one-step objective is unimodal there, which can fail at low
    resilience, where some states' scan values are not unimodal; it can
    never raise a value, since each state keeps the smaller of its scan
    and refined values (`np.minimum(best, refined)`).

    Each depth is solved a block of groups at a time, about `_BLOCK_BYTES`
    per table-sized array: branches, scan, boundary hits, refinement and
    residuals are elementwise per group (a max over blocks is the max over
    the depth), so the working set is two full tables, this depth's and
    the next, plus one block's temporaries, and no value depends on the
    block size.

    Permanent impact is solved exactly at the root.  Every plan ends flat,
    so its permanent legs iota (x_old + x_new)/2 dx sum to -iota x0^2/2 on
    every path: the DP solves at iota = 0 and the root subtracts
    p0 x0 + iota x0^2/2.  Left in the tables, the concave -iota x^2/2 would
    make interpolation along the position axis undershoot what the policy
    needs.

    The report counts boundary hits on the DP's own states, the groups.
    A kept policy lives on the groups split by lifts (`_split_by_lifts`):
    each kept table row is its group's W plus s per lift, so the policy and
    its replay see no lift.
    """
    grids = grids or DPGrids()
    groups = _grouped_lattice(spec, params)
    n = params.n_steps
    s = params.step_vol
    xg = grids.x_axis(spec, params)
    zg = grids.zeta_axis(spec, params)
    n_x, n_z = len(xg), len(zg)
    refine = grids.refine and n_x >= 3
    z_cells = _spread_cells(zg)

    # Terminal layer: forced liquidation, price leg aside, then payoff.
    x_b, z_b = xg[None, :, None], zg[None, None, :]
    v = spread_cost(z_b, -x_b, params) + groups.payoff[:, None, None]

    tables = [None] * (n + 1)
    if keep_policy:
        tables[n] = v
    boundary_hits, max_resid, max_resid_x = 0, 0.0, 0.0

    # Residuals are measured only where a hedge goes: on the nodes the
    # default axis keeps (all of that axis), so a wider explicit axis
    # cannot raise them, or the flag, through nodes no hedge visits.
    hedged = _hedge_span(xg, spec, params)
    sx = s * xg[:, None]
    own = np.arange(n_x)[None, :, None]

    per = max(1, _BLOCK_BYTES // (8 * n_x * n_z))
    for depth in range(n - 1, -1, -1):
        up, dn, lift = groups.up[depth], groups.dn[depth], groups.lift[depth]
        nxt = np.empty((len(up), n_x, n_z))
        for start in range(0, len(up), per):
            blk = slice(start, start + per)
            up_t, dn_t = _branches(v, up[blk], dn[blk], lift[blk], sx, s)
            rows = np.arange(len(up_t))[:, None, None]
            best, best_j = _scan(up_t, dn_t, rows, z_cells, x_b, z_b, xg, params)

            # Grid-edge argmins signal a binding position bound, except where
            # the state already sits at the edge and holding it is the choice.
            at_edge = (best_j == 0) | (best_j == n_x - 1)
            boundary_hits += int(np.count_nonzero(at_edge & (best_j != own)))

            if refine:
                bracket = _bracket(xg, best_j)
                del best_j  # the bracket replaces the argmins: one block-size array less in the search
                refined, _ = _refine(up_t, dn_t, rows, x_b, z_b, bracket, z_cells, params)
                np.minimum(best, refined, out=best)

            rz, rx = _interp_residual(best[:, hedged], xg[hedged], zg)
            max_resid = max(max_resid, rz)
            max_resid_x = max(max_resid_x, rx)
            nxt[blk] = best
        v = nxt
        if keep_policy:
            tables[depth] = v

    ix0 = int(np.searchsorted(xg, params.x0))
    iz0 = int(np.searchsorted(zg, params.zeta0)) if n_z > 1 else 0
    cost = float(v[0, ix0, iz0]) - params.p0 * params.x0 - 0.5 * params.perm_impact * params.x0**2
    # Only the spread axis is interpolated during the scan, so its residual
    # is the propagating error; the position axis enters refinement only,
    # where the tables, solved at iota = 0, hold no concave -iota x^2/2 for
    # interpolation to undershoot.  The residual needs three spread nodes, so
    # below full resilience a shorter axis that a spread can reach is flagged.
    coarse = params.resilience < 1.0 and n_z < 3 and (zg[-1] > 0.0 or np.ptp(xg) > 0.0)
    report = {
        "n_x": n_x,
        "n_zeta": n_z,
        "augmentation": _AUG_BY_SUMMARY[spec.summary],
        "max_interp_residual": max_resid,
        "x_kink_residual": max_resid_x,
        "boundary_hits": boundary_hits,
        "flagged": bool(boundary_hits > 0 or max_resid > _RESIDUAL_TOL or coarse),
    }
    policy = None
    if keep_policy:
        kept = _split_by_lifts(groups, params)
        for d, (group, lifts) in enumerate(rows.T for rows in kept.states):
            tables[d] = tables[d][group] + (lifts * s)[:, None, None]
        policy = DPPolicy(tables=tables, lattice=kept, x_axis=xg, zeta_axis=zg, refine=refine, params=params)
    return PriceResult(cost=cost, report=report, policy=policy)


def _branch_max(up_t, dn_t, rows, x_cells, z_cells, xp, zp):
    """Worse of the up and down branch tables at off-grid (position, spread).

    Each branch is the bilinear interpolant of its row `rows` of `up_t` or
    `dn_t`; the lookups `x_cells`/`z_cells` give the cells and weights of
    `xp`/`zp`, and the flat cell index is computed once for both branches.
    `rows` and `xp` broadcast against `zp`, which has the shape of the
    result.  Each branch interpolates in place, into the corners it
    gathers: along the spread axis, then along the position axis.
    """
    n_z = up_t.shape[2]
    jx, wx = x_cells(xp)
    kz, wz = z_cells(zp)
    cell = jx * n_z  # the one int64 index array kept per evaluation
    cell += kz
    cell += rows * (up_t.shape[1] * n_z)
    del jx, kz, zp
    wx1, wz1 = 1.0 - wx, 1.0 - wz

    def lerp(c, t, w1, w):
        # c * w1 + t * w, into c
        c *= w1
        t *= w
        c += t
        return c

    def branch(flat):
        c0, c1 = flat[cell], flat[n_z:][cell]  # at the cell's lower and upper position node
        if n_z > 1:
            lerp(c0, flat[1:][cell], wz1, wz)
            lerp(c1, flat[n_z + 1 :][cell], wz1, wz)
        return lerp(c0, c1, wx1, wx)

    up = branch(up_t.reshape(-1))
    return np.maximum(up, branch(dn_t.reshape(-1)), out=up)


def _golden_min(objective, lo, hi):
    """Elementwise golden-section search of a unimodal objective on [lo, hi].

    One new evaluation per step, GOLDEN_STEPS steps; returns the objective
    at the final bracket midpoint and that midpoint.
    """
    gap = _INV_PHI * (hi - lo)
    c, d = hi - gap, lo + gap
    fc, fd = objective(c), objective(d)
    for step in range(GOLDEN_STEPS):
        left = fc <= fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        if step == GOLDEN_STEPS - 1:
            break
        # the surviving interior point keeps its value; one new point
        gap = _INV_PHI * (hi - lo)
        x = np.where(left, hi - gap, lo + gap)
        fx = objective(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    mid = 0.5 * (lo + hi)
    return objective(mid), mid


def _refine(up_t, dn_t, rows, x_old, zeta, bracket, z_cells, params):
    """Golden-section refinement over the two position cells around the
    scan's argmins, as `_bracket` gives them (`bracket`).  The worse branch
    is taken after each branch (row `rows` of `up_t`/`dn_t`) is
    interpolated, so kinks between them survive.  Returns the value at the
    final midpoint and that point.
    """
    lo, hi, x_cells = bracket

    def objective(xp):
        # the continuation first, and the new spread passed as a temporary
        # that `_branch_max` drops once looked up: the trade's and the
        # interpolation's temporaries never coexist
        value = _branch_max(up_t, dn_t, rows, x_cells, z_cells, xp, spread_step(zeta, xp - x_old, params))
        value += spread_cost(zeta, xp - x_old, params)
        return value

    return _golden_min(objective, lo, hi)


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
    At each path's exact (lattice node, price, position, spread) state the
    policy re-solves the DP's one-step minimization on the stored value
    tables, with the DP's position scan (`_scan`) and, where the DP refined,
    golden-section refinement (`_refine`) on the branch tables of the path's
    node, keeping the refined point where its value beats the scan's;
    wealth is then accumulated with the exact cash dynamics.  Trades are
    chosen on the DP's objective (`spread_cost`) and paid by `trade_cost`.
    `params` must be the market the DP priced, its `frictionless()` copy
    included: a policy replayed in another market (another sigma, r or N)
    certifies nothing and is refused with ValueError.  `spec` is unused,
    since the kept lattice holds the payoff; it stays because
    perfbench/workloads.py passes it positionally.
    """
    if result.policy is None:
        raise ValueError("price result was computed without keep_policy=True")
    pol = result.policy
    if params != pol.params:
        raise ValueError(f"the policy was priced in {pol.params}, not in {params}")
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

    node = np.zeros(count, dtype=int)
    x = np.full(count, params.x0)
    zeta = np.full(count, params.zeta0)
    cash = np.full(count, result.cost)
    price = np.full(count, params.p0)

    for depth in range(n):
        up, dn = pol.lattice.up[depth], pol.lattice.dn[depth]
        up_t, dn_t = _branches(pol.tables[depth + 1], up, dn, pol.lattice.lift[depth], s * xg[:, None], s)
        best, best_j = _scan(up_t, dn_t, node, z_cells, x, zeta, xg, params)
        best_x = xg[best_j]
        if pol.refine:
            f_mid, mid = _refine(up_t, dn_t, node, x, zeta, _bracket(xg, best_j), z_cells, params)
            best_x = np.where(f_mid < best, mid, best_x)
        del up_t, dn_t
        cash -= trade_cost(price, x, best_x, zeta, params)
        zeta = spread_step(zeta, best_x - x, params)
        x = best_x
        price = price + s * shocks[:, depth]
        node = np.where(shocks[:, depth] == 1, up[node], dn[node])

    # liquidation at the terminal price
    cash -= trade_cost(price, x, 0.0, zeta, params)
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
        prices = fundamental_path(shocks, params)
        idx = stopping_grid(prices, epsilon, params)
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
        meta={"capital": capital, "b": b, "d": d, "e": e, "lam": lam, "epsilon": epsilon},
    )
