"""Shared test oracles, kept independent of the library's pricing code."""

import math
from dataclasses import dataclass

import numpy as np

from impactlab.market import MarketParams, fundamental_path, spread_step, trade_cost
from impactlab.payoffs import PayoffSpec, evaluate_payoff, payoff_from_summaries


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


def brute_force_cost(
    params: MarketParams,
    spec: PayoffSpec,
    control_grid,
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
        return trade_cost(price, x, 0.0, zeta, params) + payoff(shocks)

    def rec(shocks: tuple, price: float, x: float, zeta: float, depth: int) -> float:
        if depth == n - 1:
            # Vectorize the final decision over the control grid.
            cost = trade_cost(price, x, grid, zeta, params)
            z_next = spread_step(zeta, grid - x, params)
            res = np.empty(len(grid))
            for i, xp in enumerate(grid):
                up = leaf_cost(shocks + (1,), price + s, xp, z_next[i])
                dn = leaf_cost(shocks + (-1,), price - s, xp, z_next[i])
                res[i] = cost[i] + max(up, dn)
            return float(np.min(res))
        best = math.inf
        for xp in grid:
            cost = trade_cost(price, x, xp, zeta, params)
            z_next = spread_step(zeta, xp - x, params)
            worst = max(
                rec(shocks + (1,), price + s, xp, z_next, depth + 1),
                rec(shocks + (-1,), price - s, xp, z_next, depth + 1),
            )
            best = min(best, cost + worst)
        return best

    return float(rec((), params.p0, params.x0, params.zeta0, 0))


# How a child's aux follows from its parent's level j and aux a and its own
# level jj: the running max, the running sum of the levels before each move,
# or 0 throughout for a terminal payoff.
_AUX_STEP = {
    "lookback_max": lambda j, a, jj: np.maximum(a, jj),
    "asian_mean": lambda j, a, jj: a + j,
}


@dataclass
class LevelAuxLattice:
    """The price lattice with every state its own group (fields as the
    library's grouped lattice has them)."""

    states: list  # per depth, sorted (level, aux) int64 rows
    up: list  # per depth < N: child indices
    dn: list
    lift: list  # per depth < N: all False, no move lifts the payoff
    payoff: np.ndarray  # per depth-N state
    prices: list  # per depth: p0 + s level


def level_aux_lattice(spec: PayoffSpec, params: MarketParams) -> LevelAuxLattice:
    """The payoff's price lattice without grouping: states (level j, aux a)
    at price p0 + s j, with aux 0 for a terminal payoff, the running max for
    the lookback and the running sum of the pre-move levels for the asian.
    Each depth's children are one step over its parents' rows, merged and
    sorted by `np.unique`, whose inverse gives the up and down child of
    every parent.  Patched in for `pricing._grouped_lattice`, it makes the
    DP solve every state on its own (the oracle for the grouping)."""
    n, s = params.n_steps, params.step_vol
    step = _AUX_STEP.get(spec.kind, lambda j, a, jj: a)
    states, up, dn = [np.zeros((1, 2), dtype=np.int64)], [], []
    for _ in range(n):
        j, a = states[-1].T
        kids = np.concatenate([np.stack([jj, step(j, a, jj)], axis=1) for jj in (j + 1, j - 1)])
        nxt, inverse = np.unique(kids, axis=0, return_inverse=True)
        u, w = inverse.reshape(2, -1)
        up.append(u)
        dn.append(w)
        states.append(nxt)
    prices = [params.p0 + s * st[:, 0].astype(float) for st in states]
    aux = states[n][:, 1].astype(float)
    payoff = payoff_from_summaries(spec, terminal=prices[n], rise=s * aux, average=params.p0 + s * aux / n)
    return LevelAuxLattice(states, up, dn, [np.zeros(len(u), dtype=bool) for u in up], payoff, prices)


# the library's clip of the tilted walk's up-probabilities
Q_MIN = 1e-6


@dataclass
class DualCertificate:
    """Measure + predictable tilt on the 2^N shock tree (the oracle for the
    dual's forward pass over the price lattice).

    q[k][idx]: probability that shock k+1 is up, given the length-k prefix
    encoded as an integer (bit j set means shock j+1 was up).
    alpha[k][idx]: tilt attached to period k+1, measurable at time k.
    clip_q: how many of the tree's probabilities were clipped.
    """

    q: list
    alpha: list
    clip_q: int

    @property
    def n_steps(self) -> int:
        return len(self.q)


def _constant_tilt(nu: float, sigma: float):
    """alpha = (nu^2 - sigma^2) / (2 sigma) and, as a function of the last
    shock, the raw and the clipped up-probability (1 + alpha xi / (sigma +
    alpha)) / 2."""
    alpha = (nu * nu - sigma * sigma) / (2.0 * sigma)

    def q_after(xi):
        raw = 0.5 * (1.0 + alpha * xi / (sigma + alpha))
        return raw, np.clip(raw, Q_MIN, 1.0 - Q_MIN)

    return alpha, q_after


def kusuoka_certificate(nu: float, params: MarketParams) -> DualCertificate:
    """The tilted walk of constant target volatility nu on every node of the
    2^N tree: the tilt alpha at every node, q = 1/2 at the root and, after a
    shock xi, the clipped q of the one-step martingale condition."""
    n = params.n_steps
    alpha, q_after = _constant_tilt(nu, params.sigma)
    q_list, alpha_list, clip_q = [np.full(1, 0.5)], [np.full(1, alpha)], 0
    for k in range(1, n):
        idx = np.arange(2**k)
        raw, q = q_after(np.where((idx >> (k - 1)) & 1 == 1, 1.0, -1.0))
        clip_q += int(np.count_nonzero(q != raw))
        q_list.append(q)
        alpha_list.append(np.full(2**k, alpha))
    return DualCertificate(q=q_list, alpha=alpha_list, clip_q=clip_q)


def certificate_martingale_gaps(cert: DualCertificate, params: MarketParams) -> float:
    """Largest |E_Q[dM | node]| over the tree; zero for exact certificates."""
    n = cert.n_steps
    s = params.step_vol
    root_n = math.sqrt(n)

    def tilt_values(k: int) -> np.ndarray:
        idx = np.arange(2**k)
        if k == 0:
            return np.full(1, params.p0)
        prices = params.p0 + s * all_paths(k).sum(axis=1)
        xi = np.where((idx >> (k - 1)) & 1 == 1, 1.0, -1.0)
        parent = idx % (2 ** (k - 1))
        return prices + cert.alpha[k - 1][parent] * xi / root_n

    worst = 0.0
    m_next = tilt_values(n)
    for k in range(n - 1, -1, -1):
        idx = np.arange(2**k)
        closed = cert.q[k][idx] * m_next[idx + (1 << k)] + (1.0 - cert.q[k][idx]) * m_next[idx]
        m_next = tilt_values(k)
        worst = max(worst, float(np.max(np.abs(closed - m_next))))
    return worst


def collected_lattice_mean(groups, params: MarketParams, q, clipped):
    """E_Q[H] and clip_q by the dual's forward pass of Q-mass over a grouped
    lattice held whole (every depth's `up`, `dn`, `lift` and `states`, and
    the groups' `payoff`, as `pricing._grouped_lattice` collects them): the
    oracle for the library's pass, which reads one depth at a time."""
    lift = 0.0
    clip_q = 0
    for d in range(params.n_steps):
        if d == 0:
            to_up = to_dn = np.full(1, 0.5)
        else:
            clip_q += int(np.count_nonzero(mass[clipped]))
            to_up, to_dn = q @ mass, (1.0 - q) @ mass
        lift += params.step_vol * np.sum(to_up[groups.lift[d]])
        width = len(groups.states[d + 1])
        mass = np.stack([np.bincount(groups.dn[d], to_dn, width), np.bincount(groups.up[d], to_up, width)])
    return float(mass.sum(axis=0) @ groups.payoff) + lift, clip_q


def bachelier_reference(kind: str, p0: float, strike: float, sigma: float, t: float) -> float:
    """Closed-form vanilla price under arithmetic Brownian motion."""
    if sigma <= 0 or t <= 0:
        raise ValueError("sigma and t must be > 0")
    sd = sigma * math.sqrt(t)
    d = (p0 - strike) / sd
    phi = math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(d / math.sqrt(2.0)))
    call = (p0 - strike) * cdf + sd * phi
    if kind == "call":
        return call
    if kind == "put":
        return call - (p0 - strike)
    raise ValueError("kind must be 'call' or 'put'")


def payoff_on_paths(spec: PayoffSpec, values) -> np.ndarray:
    """Payoffs of a batch of full walk paths, one per row.

    values: (batch, N+1) prices at the breakpoints n/N, n = 0..N, so each
    row is the path `fundamental_path` builds from N shocks; the time
    average of a row is the mean of its first N values.
    """
    values = np.asarray(values, dtype=float)
    return payoff_from_summaries(
        spec,
        terminal=values[:, -1],
        rise=values.max(axis=1) - values[:, 0],
        average=values[:, :-1].mean(axis=1),
    )


def matrix_bound(h_vals, alphas, prob, params: MarketParams):
    """The certified dual bound and its standard error from a full (paths, N)
    tilt array (the oracle for the dual's forward walk).

    h_vals: payoff per path; prob: exact path probabilities, or None for
    equally weighted samples (then the standard error is reported, else 0).
    With b_m = |alpha_m|/sqrt(N) and b_0 = 0 the bound is

        E[H - delta/2 sum_{m=1..N} ((b_{m-1} - (1-r) b_m)_+)^2 / (1-(1-r)^2)
             - delta/2 b_N^2]
        - delta (1-r)^2 zeta0^2 / 2 - p0 x0 - iota x0^2 / 2.
    """
    n = alphas.shape[1]
    decay = 1.0 - params.resilience
    b = np.abs(alphas) / math.sqrt(n)
    b_prev = np.hstack([np.zeros((len(b), 1)), b[:, :-1]])
    mid = np.clip(b_prev - decay * b, 0.0, None) ** 2
    pen = params.depth / (2.0 * (1.0 - decay**2)) * mid.sum(axis=1) + 0.5 * params.depth * b[:, -1] ** 2
    vals = h_vals - pen
    mean = float(np.dot(prob, vals)) if prob is not None else float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(len(vals))) if prob is None else 0.0
    const = (
        -0.5 * params.depth * decay**2 * params.zeta0**2
        - params.p0 * params.x0
        - 0.5 * params.perm_impact * params.x0**2
    )
    return mean + const, se


def tilted_matrix(spec: PayoffSpec, params: MarketParams, source, n_paths=0, seed=0):
    """Payoffs, (paths, N) tilts and probabilities of the tilted walk, built
    as whole matrices: every tree row of a DualCertificate (with its path
    probabilities), or `n_paths` walks of the constant target volatility
    `source` sampled with the same draws as the library's sampler (prob
    None).  Returns (h_vals, alphas, prob, clip_q)."""
    n = params.n_steps
    if isinstance(source, DualCertificate):
        shocks = all_paths(n)
        prob = np.ones(len(shocks))
        alphas = np.empty(shocks.shape)
        idx = np.zeros(len(shocks), dtype=np.int64)
        for k in range(n):
            qk = source.q[k][idx]
            prob *= np.where(shocks[:, k] == 1, qk, 1.0 - qk)
            alphas[:, k] = source.alpha[k][idx]
            idx = idx + ((shocks[:, k] == 1) << k)
        clip_q = source.clip_q
    else:
        rng = np.random.default_rng(seed)
        alpha, q_after = _constant_tilt(source, params.sigma)
        shocks = np.empty((n_paths, n))
        alphas = np.full((n_paths, n), alpha)
        prob, clip_q = None, 0
        q = np.full(n_paths, 0.5)
        for k in range(n):
            shocks[:, k] = np.where(rng.random(n_paths) < q, 1.0, -1.0)
            raw, q = q_after(shocks[:, k])
            if k < n - 1:
                clip_q += int(np.count_nonzero(q != raw))
    steps = np.hstack([np.zeros((len(shocks), 1)), np.cumsum(shocks, axis=1)])
    h_vals = payoff_on_paths(spec, params.p0 + params.step_vol * steps)
    return h_vals, alphas, prob, clip_q


def ks_distance_to_normal(samples: np.ndarray, mean: float, std: float) -> float:
    """Kolmogorov-Smirnov distance between the sample law and N(mean, std^2)."""
    x = np.sort(np.asarray(samples, float))
    n = len(x)
    z = (x - mean) / std
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def discretize_path(path: np.ndarray, stops: np.ndarray, params: MarketParams) -> np.ndarray:
    """Freeze the path at its stop values on the same N+1 grid: each stop's
    value holds until the next stop, and the cap value to index N."""
    return np.repeat(path[stops], np.diff(np.append(stops, params.n_steps + 1)))


def interp_weights(grid: np.ndarray, x: np.ndarray):
    """Lower index and weight for piecewise-linear lookup on a sorted grid
    by binary search (the oracle for the DP's cell lookups)."""
    if len(grid) < 2:
        z = np.zeros(np.shape(x), dtype=int)
        return z, np.zeros(np.shape(x))
    idx = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
    w = (x - grid[idx]) / (grid[idx + 1] - grid[idx])
    return idx, np.clip(w, 0.0, 1.0)


def sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance between two paths on the same N+1 grid."""
    return float(np.max(np.abs(a - b)))


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


def stopping_indices_loop(path: np.ndarray, epsilon: float, params: MarketParams) -> list:
    """Stop indices by a search from each anchor (the oracle for the
    library's one-pass `stopping_grid`)."""
    _HIT_TOL = 1e-9
    n = params.n_steps
    cap_time = 1.0 - n ** (-2.0 / 3.0)
    n_cap = int(np.floor(n * cap_time + _HIT_TOL))
    values = path[: n_cap + 1]
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


def fused_hjb(problem, grid, keep_control=False):
    """The explicit HJB scheme as one fused loop that tests the clip band on
    every step (the oracle for `hjb_value`'s switch to the lean step): the
    same grid, step formulas, cap count and control snapshots, skipping the
    clip on each step where no node leaves the band.

    Returns (value, surface, cap_fraction, clipped_steps, last_clipped,
    times, tables); last_clipped is the last step that clips (-1 if none),
    and times/tables are None without `keep_control`.
    """
    spec = problem.payoff
    c = problem.penalty_c
    s2 = problem.sigma_sq
    a_max = problem.nu_sq_max
    half = grid.p_halfwidth * math.sqrt(s2)
    n_sp = grid.n_space if grid.n_space % 2 == 1 else grid.n_space + 1
    p_ax = problem.p0 + np.linspace(-half, half, n_sp)
    dp = p_ax[1] - p_ax[0]
    dt_max = 0.5 * dp * dp / a_max
    n_t = int(math.ceil(1.0 / dt_max))
    dt = 1.0 / n_t

    v = np.array(spec.terminal_fn(p_ax), dtype=float)
    k_q = np.array(1.0 / (4.0 * c * dp * dp))
    c_dt = np.array(c * dt)
    two_s2 = np.array(2.0 * s2)
    u_lo, u_hi = np.array(-s2), np.array(a_max - s2)
    cap_tol = a_max * (1.0 - 1e-12)
    u_cap = cap_tol - s2
    # boundary nodes hold a* = sigma^2, a cap hit only when a_max ~ sigma^2
    edge_hits = 2 if s2 >= cap_tol else 0
    d = np.empty(n_sp - 1)
    q, u, w, tmp = (np.empty(n_sp - 2) for _ in range(4))
    at_cap = np.empty(n_sp - 2, dtype=bool)
    v_hi, v_lo, v_in, d_hi, d_lo = v[1:], v[:-1], v[1:-1], d[1:], d[:-1]
    sub, add, mul, at_least, at_most = np.subtract, np.add, np.multiply, np.maximum, np.minimum
    cap_hits = 0
    clipped_steps = 0
    last_clipped = -1
    if keep_control:
        # control snapshots on a thinned time grid (at most ~257 slices)
        stride = max(1, n_t // 256)
        snaps = []
    for step in range(n_t):
        sub(v_hi, v_lo, d)
        sub(d_hi, d_lo, q)
        mul(q, k_q, q)
        # q inside [u_lo, u_cap) on every node: the clamp would leave
        # u == q, so (q - u) + q is q and the term is q * q to the last bit,
        # with no cap hit.  NaN or inf fails the test and clips as before.
        # Snapshot steps clip anyway, since the control needs u.
        inside = q[q.argmax()] < u_cap and q[q.argmin()] >= u_lo
        clipped_steps += not inside
        if not inside:
            last_clipped = step
        snap = keep_control and step % stride == 0
        if inside and not snap:
            mul(q, q, w)
        else:
            at_least(q, u_lo, out=u)
            at_most(u, u_hi, out=u)
            np.greater_equal(u, u_cap, out=at_cap)
            cap_hits += int(np.count_nonzero(at_cap))
            sub(q, u, w)
            add(w, q, w)
            mul(w, u, w)
        mul(q, two_s2, tmp)
        add(w, tmp, w)
        mul(w, c_dt, w)
        add(v_in, w, v_in)
        if snap:
            a_star = np.full(n_sp, s2)
            add(u, s2, a_star[1:-1])
            snaps.append((1.0 - (step + 1) * dt, a_star))
    cap_hits += edge_hits * n_t
    cap_fraction = cap_hits / (n_t * n_sp)
    value = float(np.interp(problem.p0, p_ax, v)) - problem.endowment
    times = tables = None
    if keep_control:
        times = np.array([t for t, _ in snaps][::-1])
        tables = np.array([a for _, a in snaps][::-1])
    return value, v, cap_fraction, clipped_steps, last_clipped, times, tables
