"""Certified dual lower bounds: tilted measures, shadow martingales, one penalty chain.

A certificate is a measure Q on the shock tree (conditional up-probabilities
per node) with a predictable tilt alpha; the shadow price
M_n = P_n + alpha_n xi_n / sqrt(N) is a Q-martingale when the probabilities
solve the one-step mean-zero condition.  The tilt follows the classical
change-of-measure recipe that drives the walk toward a target-volatility
diffusion.

The bound is E_Q[H] less the most a trader can net by trading at P while M
is the fair price.  Write b_n = |alpha_n| / sqrt(N) = |P_n - M_n| (b_0 = 0)
and zeta_n for the half-spread after trade n.  The gains X dM average zero
under Q; the mispricing pays at most b_{n-1} |dx_n| on trade n; and the
spread leg of trade n costs delta (zeta_n^2 - (1-r)^2 zeta_{n-1}^2) / 2.
With |dx_n| = delta (zeta_n - (1-r) zeta_{n-1}) the net gain is a sum of
concave quadratics in each zeta_n, and maximizing each over zeta_n >= 0
gives the penalty chain

    delta/2 * sum_{n=1..N} ((b_{n-1} - (1-r) b_n)_+)^2 / (1 - (1-r)^2)
    + delta/2 * b_N^2                      (the liquidation period N+1)

plus the constant delta (1-r)^2 zeta0^2 / 2 left by the initial spread.
The endowment's price and permanent-impact legs cost p0 x0 + iota x0^2/2
on every terminal-flat plan.  So E_Q[H - chain] - delta (1-r)^2 zeta0^2/2
- p0 x0 - iota x0^2/2 lower-bounds the costs this package computes,
including the terminal liquidation period the primal solver prices.

Every printed lower bound is this formula for a constant target volatility
nu.  Its tilt alpha = (nu^2 - sigma^2) / (2 sigma) is constant, so the
chain is one number, and Q's up-probability reads the last shock alone:
Q is Markov in (price-lattice state, last shock).  E_Q[H] is then exact by
one forward pass of Q-mass over the DP's grouped lattice, or sampled on
tilted walks.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

# evaluate_payoff and fundamental_path are unused here but stay importable
# as module attributes: perfbench/boundaries.py wraps them in this namespace.
from .market import MarketParams, fundamental_path  # noqa: F401
from .payoffs import PayoffSpec, evaluate_payoff, payoff_from_summaries  # noqa: F401
from .pricing import _grouped_lattice

__all__ = ["constant_profile", "kusuoka_lower_bound"]

# Conditional probabilities are clipped to [_Q_MIN, 1 - _Q_MIN]; any clip
# leaves the bound uncertified.
_Q_MIN = 1e-6
# sigma + alpha at or below this margin degenerates the martingale condition.
_MARGIN = 1e-9


def constant_profile(nu_value: float, sigma: float) -> float:
    """The constant target volatility `nu_value`, as `kusuoka_lower_bound`
    takes it.  `sigma` is unread (the tilt takes the market's); the
    two-argument form stays because perfbench/workloads.py calls it."""
    return float(nu_value)


def _tilt(nu: float, sigma: float):
    """The constant tilt of target volatility `nu` and its up-probabilities.

    alpha = (nu^2 - sigma^2) / (2 sigma).  After a move xi the next shock
    is up with q = (1 + alpha xi / (sigma + alpha)) / 2, which solves the
    one-step martingale condition for M = P + alpha xi / sqrt(N), clipped
    to [_Q_MIN, 1 - _Q_MIN]; the first period's q is 1/2.  Returns
    (alpha, q, clipped), with q and clipped indexed by the last move
    (0 down, 1 up).
    """
    if not nu > 0:
        raise ValueError("nu must be > 0")
    alpha = (np.square(nu) - sigma**2) / (2.0 * sigma)
    if sigma + alpha <= _MARGIN:
        raise ValueError("nu drives sigma + alpha below the margin")
    q = 0.5 * (1.0 + alpha * np.array([-1.0, 1.0]) / (sigma + alpha))
    q_clipped = np.clip(q, _Q_MIN, 1.0 - _Q_MIN)
    return alpha, q_clipped, q_clipped != q


def _penalty(params: MarketParams, alpha) -> float:
    """The penalty chain of a constant tilt, its liquidation term included.

    With b = |alpha| / sqrt(N) every period after the first adds
    ((1 - (1-r)) b)^2 (the first adds none, as b_0 = 0).  The terms are
    summed one period at a time because (N - 1) times the term differs
    from that sum in the last bit for most (N, r, nu), which would move
    every stored bound.
    """
    decay = 1.0 - params.resilience
    b = np.abs(alpha) / math.sqrt(params.n_steps)
    term = (b - decay * b) * (b - decay * b)
    chain = 0.0
    for _ in range(params.n_steps - 1):
        chain += term
    return params.depth / (2.0 * (1.0 - decay**2)) * chain + 0.5 * params.depth * (b * b)


def _exact_mean(spec: PayoffSpec, params: MarketParams, q, clipped):
    """E_Q[H] by one forward pass of Q-mass over the DP's grouped lattice.

    mass[i] holds the mass of a depth's groups entered by a down (i = 0) or
    an up (i = 1) move; each depth after the first sends q[i] of it to the
    up child and the rest to the down child.  A group's payoff is that of
    its reference state, and each up move that lifts the payoff (the
    lookback's new max) adds s times the mass it carries.  Returns
    (E_Q[H], clip_q), where clip_q counts the (depth, group, last move)
    entries that carry mass and read a clipped q.
    """
    groups = _grouped_lattice(spec, params)
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


def _sample(spec: PayoffSpec, params: MarketParams, q, clipped, n_paths: int, seed: int):
    """Payoffs of `n_paths` tilted walks drawn with `seed`, and clip_q, the
    count of (path, period) draws that read a clipped q.  Each walk keeps
    its last price, running max and running integral, so memory is
    O(n_paths)."""
    n, s = params.n_steps, params.step_vol
    rng = np.random.default_rng(seed)
    cum = np.zeros(n_paths)
    run_max = np.full(n_paths, params.p0)
    run_int = np.zeros(n_paths)
    last_price = np.full(n_paths, params.p0)
    up, clip_q = None, 0
    for _ in range(n):
        if up is None:
            q_rows = 0.5
        else:
            side = up.astype(np.intp)  # the last move: 0 down, 1 up
            q_rows = q[side]
            clip_q += int(np.count_nonzero(clipped[side]))
        up = rng.random(n_paths) < q_rows
        run_int += last_price / n
        cum += np.where(up, 1.0, -1.0)
        last_price = params.p0 + s * cum
        run_max = np.maximum(run_max, last_price)
    h = payoff_from_summaries(spec, terminal=last_price, rise=run_max - params.p0, average=run_int)
    return h, clip_q


def kusuoka_lower_bound(
    nu: float,
    spec: PayoffSpec,
    params: MarketParams,
    n_list,
    exact_max_n: int = 12,
    mc_paths: int = 20000,
    seed: int = 0,
) -> list[dict]:
    """Certified lower bounds for the super-replication cost per horizon,
    from the tilt of the constant target volatility `nu`.

    Each bound is E_Q[H] less the penalty chain and the constant
    delta (1-r)^2 zeta0^2/2 + p0 x0 + iota x0^2/2 (module docstring).
    E_Q[H] is exact, by `_exact_mean`'s pass over the grouped lattice, for
    horizons up to `exact_max_n`, else the mean of `mc_paths` tilted walks
    drawn with `seed`, with a reported standard error.  A bound that reads
    a clipped probability is marked uncertified (its value is still
    reported).
    """
    alpha, q, clipped = _tilt(nu, params.sigma)
    decay = 1.0 - params.resilience
    const = (
        -0.5 * params.depth * decay**2 * params.zeta0**2
        - params.p0 * params.x0
        - 0.5 * params.perm_impact * params.x0**2
    )
    out = []
    for n in n_list:
        pn = replace(params, n_steps=int(n))
        penalty = _penalty(pn, alpha)
        if n <= exact_max_n:
            mean_h, clip_q = _exact_mean(spec, pn, q, clipped)
            mean, se, mode = float(mean_h - penalty), 0.0, "exact"
        else:
            h, clip_q = _sample(spec, pn, q, clipped, mc_paths, seed)
            vals = h - penalty
            mean, se, mode = float(np.mean(vals)), float(np.std(vals) / math.sqrt(len(vals))), "mc"
        out.append(
            {
                "n": int(n),
                "bound": mean + const,
                "std_error": se,
                "mode": mode,
                "clip_q": clip_q,
                "certified": clip_q == 0,
            }
        )
    return out
