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
including the terminal liquidation period the primal solver prices.  Every
printed lower bound is this one formula, taken along one route: `_walk`
runs the tilted walk forward period by period, exactly on every row of the
certificate's tree or on sampled rows, summing the chain as it goes, so it
holds O(rows) memory and no (rows, N) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

# evaluate_payoff and fundamental_path are unused here but stay importable
# as module attributes: perfbench/boundaries.py wraps them in this namespace.
from .market import MarketParams, fundamental_path  # noqa: F401
from .payoffs import PayoffSpec, evaluate_payoff, payoff_from_summaries  # noqa: F401

__all__ = [
    "DualCertificate",
    "VolProfile",
    "constant_profile",
    "kusuoka_certificate",
    "kusuoka_lower_bound",
]

_EXACT_MAX_N = 14

# Conditional probabilities are clipped to [_Q_MIN, 1 - _Q_MIN]; any clip
# leaves the bound uncertified.
_Q_MIN = 1e-6
# sigma + alpha at or below this margin degenerates the martingale condition.
_MARGIN = 1e-9


@dataclass
class DualCertificate:
    """Measure + predictable tilt on the shock tree.

    q[k][idx]: probability that shock k+1 is up, given the length-k prefix
    encoded as an integer (bit j set means shock j+1 was up).
    alpha[k][idx]: tilt attached to period k+1, measurable at time k.
    """

    q: list
    alpha: list
    meta: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class VolProfile:
    """Target volatility functional nu(t, path-so-far).

    `nu(t, values)` receives the prices observed so far as a (batch, k+1)
    array and must return the per-path volatility.  `c_bound` declares the
    class constant: nu >= 1/C, |alpha| <= C and the per-step tilt increment
    bound C/sqrt(N) are all taken from it, never estimated.  `lip_const > 0`
    declares that nu reads past prices; a profile with `lip_const == 0` sees
    only the current price, a (batch, 1) array, in the Monte Carlo sampler.
    """

    nu: Callable[[float, np.ndarray], np.ndarray]
    c_bound: float
    lip_const: float = 0.0

    def __post_init__(self):
        if self.c_bound <= 0:
            raise ValueError("c_bound must be > 0")


def constant_profile(nu_value: float, sigma: float) -> VolProfile:
    """Constant-volatility profile with a tight declared class constant."""
    if nu_value <= 0:
        raise ValueError("nu_value must be > 0")
    alpha = abs(nu_value**2 - sigma**2) / (2.0 * sigma)
    c = max(nu_value, 1.0 / nu_value, alpha) * (1.0 + 1e-12)

    def nu(t, values):
        return np.full(np.shape(values)[0] if np.ndim(values) > 1 else 1, nu_value)

    return VolProfile(nu=nu, c_bound=c, lip_const=0.0)


# ---------------------------------------------------------------------------
# tilt construction


def _tilt_step(profile, k, n, values, prev, xi_prev, sigma):
    """One period of the tilt chain, on a batch of tree nodes or sampled paths.

    alpha = (nu^2 - sigma^2) / (2 sigma), with nu read at t = k/N on the
    observed prices `values`, is clipped to |alpha| <= C and, from the second
    period on, to within C/sqrt(N) of the previous tilt `prev`.  Then
    q = (1 + prev xi_prev / (sigma + alpha)) / 2 solves the one-step
    martingale condition (q = 1/2 in the first period) and is clipped to
    [_Q_MIN, 1 - _Q_MIN].  Returns (alpha, q, alpha clips, q clips).
    """
    c = profile.c_bound
    nu = np.asarray(profile.nu(k / n, values), dtype=float)
    raw = (nu**2 - sigma**2) / (2.0 * sigma)
    if np.any(sigma + raw <= _MARGIN):
        raise ValueError("profile drives sigma + alpha below the margin")
    alpha = np.clip(raw, -c, c)
    if prev is not None:
        step_bound = c / math.sqrt(n)
        alpha = np.clip(alpha, prev - step_bound, prev + step_bound)
    denom = sigma + alpha
    if np.any(denom <= _MARGIN):
        raise ValueError("clipped tilt degenerates the martingale condition")
    if prev is None:
        q = np.full(len(values), 0.5)
    else:
        q = 0.5 * (1.0 + prev * xi_prev / denom)
    q_clipped = np.clip(q, _Q_MIN, 1.0 - _Q_MIN)
    return alpha, q_clipped, int(np.count_nonzero(alpha != raw)), int(np.count_nonzero(q_clipped != q))


def kusuoka_certificate(profile: VolProfile, params: MarketParams) -> DualCertificate:
    """Tilted walk measure whose shadow price is an exact tree martingale.

    Every node takes its tilt and up-probability from `_tilt_step`, the step
    the Monte Carlo sampler runs too: alpha = (nu^2 - sigma^2) / (2 sigma)
    within the class bounds, q solving the one-step martingale condition.
    `meta` counts the clipped tilts (`clip_alpha`) and probabilities
    (`clip_q`); any clipped probability leaves the bound uncertified.
    """
    n = params.n_steps
    if n > _EXACT_MAX_N:
        raise ValueError(f"tree certificate limited to n_steps <= {_EXACT_MAX_N}; sample instead")
    s = params.step_vol

    q_list, alpha_list = [], []
    clip_alpha = clip_q = 0
    values = np.full((1, 1), params.p0)
    alpha = prev = xi_last = None
    for k in range(n):
        if k >= 1:
            idx = np.arange(2**k)
            prev = alpha[idx % (2 ** (k - 1))]
            xi_last = np.where((idx >> (k - 1)) & 1 == 1, 1.0, -1.0)
        alpha, q, n_alpha, n_q = _tilt_step(profile, k, n, values, prev, xi_last, params.sigma)
        clip_alpha += n_alpha
        clip_q += n_q
        q_list.append(q)
        alpha_list.append(alpha)
        if k < n - 1:
            # extend the observed paths; stacking [down, up] matches the
            # integer prefix order (the new shock is the highest bit)
            up = np.hstack([values, values[:, -1:] + s])
            dn = np.hstack([values, values[:, -1:] - s])
            values = np.vstack([dn, up])

    return DualCertificate(
        q=q_list,
        alpha=alpha_list,
        meta={"clip_alpha": clip_alpha, "clip_q": clip_q},
    )


# ---------------------------------------------------------------------------
# certified lower bounds


def _walk(spec, params, source, n_paths=0, seed=0):
    """Walk the tilted measure forward one period at a time.

    `source` is a DualCertificate, walked exactly on all 2^N shock rows (row
    i has shock k+1 up when bit k of i is set), or a VolProfile, sampled on
    `n_paths` rows whose tilts come from `_tilt_step`.  Each period adds
    ((b_{k-1} - (1-r) b_k)_+)^2, b_k = |alpha_k|/sqrt(N), to a per-row chain
    and moves the last price, running max and running integral; the price
    history is kept only for a sampled profile with `lip_const > 0`, so
    memory is O(rows).  Returns (h, penalty, prob, clip_q): the payoff and
    the penalty chain of every row (its liquidation term delta/2 b_N^2
    included), the exact row probabilities (None when sampled) and the
    clipped probabilities.
    """
    n = params.n_steps
    s = params.step_vol
    root_n = math.sqrt(n)
    decay = 1.0 - params.resilience
    exact = isinstance(source, DualCertificate)
    if exact:
        rows = 2**n
        row = np.arange(rows)
        prob = np.ones(rows)
        clip_q = source.meta["clip_q"]
    else:
        rows = n_paths
        rng = np.random.default_rng(seed)
        prob, clip_q = None, 0
        keep_history = source.lip_const > 0
        values = np.full((rows, 1), params.p0)
    alpha = xi = None
    b_prev = 0.0
    chain = np.zeros(rows)
    cum = np.zeros(rows)
    run_max = np.full(rows, params.p0)
    run_int = np.zeros(rows)
    last_price = np.full(rows, params.p0)
    for k in range(n):
        if exact:
            prefix = row & ((1 << k) - 1)
            alpha, q = source.alpha[k][prefix], source.q[k][prefix]
            xi = np.where((row >> k) & 1 == 1, 1.0, -1.0)
            prob *= np.where(xi > 0, q, 1.0 - q)
        else:
            alpha, q, _, n_q = _tilt_step(source, k, n, values, alpha, xi, params.sigma)
            clip_q += n_q
            xi = np.where(rng.random(rows) < q, 1.0, -1.0)
        b = np.abs(alpha) / root_n
        chain += np.clip(b_prev - decay * b, 0.0, None) ** 2
        b_prev = b
        run_int += last_price / n
        cum += xi
        last_price = params.p0 + s * cum
        run_max = np.maximum(run_max, last_price)
        if not exact:
            values = np.hstack([values, last_price[:, None]]) if keep_history else last_price[:, None]
    h = payoff_from_summaries(spec, terminal=last_price, rise=run_max - params.p0, average=run_int)
    penalty = params.depth / (2.0 * (1.0 - decay**2)) * chain + 0.5 * params.depth * b_prev**2
    return h, penalty, prob, clip_q


def kusuoka_lower_bound(
    profile: VolProfile,
    spec: PayoffSpec,
    params: MarketParams,
    n_list,
    exact_max_n: int = 12,
    mc_paths: int = 20000,
    seed: int = 0,
) -> list[dict]:
    """Certified lower bounds for the super-replication cost per horizon.

    Each bound is E_Q[H - penalty chain] less the constant
    delta (1-r)^2 zeta0^2/2 + p0 x0 + iota x0^2/2 (module docstring), with
    the expectation taken by `_walk`, the one route: exactly on the tree of
    `kusuoka_certificate` for horizons up to `exact_max_n`, else by sampling
    `mc_paths` tilted walks with a reported standard error.  Memory is
    O(rows), never O(rows x N).  Certificates with clipped probabilities are
    marked uncertified (the bound value is still reported).
    """
    decay = 1.0 - params.resilience
    const = (
        -0.5 * params.depth * decay**2 * params.zeta0**2
        - params.p0 * params.x0
        - 0.5 * params.perm_impact * params.x0**2
    )
    out = []
    for n in n_list:
        pn = replace(params, n_steps=int(n))
        if n <= exact_max_n:
            h, penalty, prob, clip_q = _walk(spec, pn, kusuoka_certificate(profile, pn))
            mean, se, mode = float(np.dot(prob, h - penalty)), 0.0, "exact"
        else:
            h, penalty, _, clip_q = _walk(spec, pn, profile, mc_paths, seed)
            vals = h - penalty
            mean, se, mode = float(np.mean(vals)), float(np.std(vals) / math.sqrt(len(vals))), "mc"
        out.append(
            {
                "n": int(n),
                "bound": mean + const,
                "std_error": se,
                "mode": mode,
                "clip_q": int(clip_q),
                "certified": clip_q == 0,
            }
        )
    return out
