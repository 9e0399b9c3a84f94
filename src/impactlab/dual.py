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
printed lower bound is this one formula (`_bound_from_paths`), evaluated
exactly on the tree or by sampling the tilted walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

# evaluate_payoff and fundamental_path are unused here but stay importable
# as module attributes: perfbench/boundaries.py wraps them in this namespace.
from .market import MarketParams, fundamental_path  # noqa: F401
from .payoffs import PayoffSpec, evaluate_payoff, payoff_from_summaries, payoff_on_paths  # noqa: F401

__all__ = [
    "DualCertificate",
    "VolProfile",
    "constant_profile",
    "kusuoka_certificate",
    "kusuoka_lower_bound",
    "certificate_martingale_gaps",
]

_EXACT_MAX_N = 14

# Conditional probabilities are clipped to [_Q_MIN, 1 - _Q_MIN]; any clip
# marks the certificate approximate.
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
    label: str = "profile"

    def __post_init__(self):
        if self.c_bound <= 0:
            raise ValueError("c_bound must be > 0")


def constant_profile(nu_value: float, sigma: float, label: Optional[str] = None) -> VolProfile:
    """Constant-volatility profile with a tight declared class constant."""
    if nu_value <= 0:
        raise ValueError("nu_value must be > 0")
    alpha = abs(nu_value**2 - sigma**2) / (2.0 * sigma)
    c = max(nu_value, 1.0 / nu_value, alpha) * (1.0 + 1e-12)

    def nu(t, values):
        return np.full(np.shape(values)[0] if np.ndim(values) > 1 else 1, nu_value)

    return VolProfile(nu=nu, c_bound=c, lip_const=0.0, label=label or f"nu={nu_value:g}")


# ---------------------------------------------------------------------------
# tree utilities


def _all_shocks(n: int) -> np.ndarray:
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    return np.where(bits == 1, 1, -1).astype(np.int64)


def _tree_payoffs(spec: PayoffSpec, shocks: np.ndarray, params: MarketParams) -> np.ndarray:
    """Payoff of the fundamental path of every shock row, in one batch."""
    steps = np.hstack([np.zeros((len(shocks), 1)), np.cumsum(shocks, axis=1)])
    return payoff_on_paths(spec, params.p0 + params.step_vol * steps)


def _path_probabilities(cert: DualCertificate, shocks: np.ndarray) -> np.ndarray:
    n = shocks.shape[1]
    prob = np.ones(shocks.shape[0])
    idx = np.zeros(shocks.shape[0], dtype=np.int64)
    for k in range(n):
        qk = cert.q[k][idx]
        prob *= np.where(shocks[:, k] == 1, qk, 1.0 - qk)
        idx = idx + ((shocks[:, k] == 1) << k)
    return prob


def _signed_sums(depth: int) -> np.ndarray:
    idx = np.arange(2**depth)
    out = np.zeros(2**depth, dtype=np.int64)
    for j in range(depth):
        out += np.where((idx >> j) & 1 == 1, 1, -1)
    return out


# ---------------------------------------------------------------------------
# tilt construction


def _tilt_step(profile, k, n, values, prev, xi_prev, sigma, margin=_MARGIN):
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
    if np.any(sigma + raw <= margin):
        raise ValueError("profile drives sigma + alpha below the margin")
    alpha = np.clip(raw, -c, c)
    if prev is not None:
        step_bound = c / math.sqrt(n)
        alpha = np.clip(alpha, prev - step_bound, prev + step_bound)
    denom = sigma + alpha
    if np.any(denom <= margin):
        raise ValueError("clipped tilt degenerates the martingale condition")
    if prev is None:
        q = np.full(len(values), 0.5)
    else:
        q = 0.5 * (1.0 + prev * xi_prev / denom)
    q_clipped = np.clip(q, _Q_MIN, 1.0 - _Q_MIN)
    return alpha, q_clipped, int(np.count_nonzero(alpha != raw)), int(np.count_nonzero(q_clipped != q))


def kusuoka_certificate(profile: VolProfile, params: MarketParams, margin: float = _MARGIN) -> DualCertificate:
    """Tilted walk measure whose shadow price is an exact tree martingale.

    Every node takes its tilt and up-probability from `_tilt_step`, the step
    the Monte Carlo sampler runs too: alpha = (nu^2 - sigma^2) / (2 sigma)
    within the class bounds, q solving the one-step martingale condition.
    Any clipped probability marks the certificate approximate.
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
        alpha, q, n_alpha, n_q = _tilt_step(profile, k, n, values, prev, xi_last, params.sigma, margin)
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
        meta={
            "c_bound": profile.c_bound,
            "clip_alpha": clip_alpha,
            "clip_q": clip_q,
            "approximate": clip_q > 0,
            "profile": profile.label,
        },
    )


def certificate_martingale_gaps(cert: DualCertificate, params: MarketParams) -> float:
    """Largest |E_Q[dM | node]| over the tree; zero for exact certificates."""
    n = cert.n_steps
    s = params.step_vol
    root_n = math.sqrt(n)

    def tilt_values(k: int) -> np.ndarray:
        idx = np.arange(2**k)
        if k == 0:
            return np.full(1, params.p0)
        prices = params.p0 + s * _signed_sums(k)
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


# ---------------------------------------------------------------------------
# certified lower bounds


def _bound_from_paths(h_vals, alphas, prob, params):
    """The certified bound and its standard error, from per-path values.

    h_vals: payoff per path; alphas: (n_paths, N) tilts; prob: exact path
    probabilities, or None for equally weighted samples (then the standard
    error is reported, else 0).  With b_m = |alpha_m|/sqrt(N) and b_0 = 0
    the bound is

        E[H - delta/2 sum_{m=1..N} ((b_{m-1} - (1-r) b_m)_+)^2 / (1-(1-r)^2)
             - delta/2 b_N^2]
        - delta (1-r)^2 zeta0^2 / 2 - p0 x0 - iota x0^2 / 2,

    the last b_N^2 term paying for the liquidation period (module docstring).
    """
    n = alphas.shape[1]
    decay = 1.0 - params.resilience
    b = np.abs(alphas) / math.sqrt(n)
    b_prev = np.hstack([np.zeros((len(b), 1)), b[:, :-1]])
    mid = np.clip(b_prev - decay * b, 0.0, None) ** 2
    pen = params.depth / (2.0 * (1.0 - decay**2)) * mid.sum(axis=1) + 0.5 * params.depth * b[:, -1] ** 2
    vals = h_vals - pen
    mean = float(np.dot(prob, vals)) if prob is not None else float(np.mean(vals))
    if prob is None:
        se = float(np.std(vals) / math.sqrt(len(vals)))
    else:
        se = 0.0
    const = (
        -0.5 * params.depth * decay**2 * params.zeta0**2
        - params.p0 * params.x0
        - 0.5 * params.perm_impact * params.x0**2
    )
    return mean + const, se


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

    Exact tree expectations for small horizons, tilted-measure Monte Carlo
    with a reported standard error otherwise.  Certificates with clipped
    probabilities are marked uncertified (the bound value is still
    reported).
    """
    out = []
    for n in n_list:
        pn = replace(params, n_steps=int(n))
        if n <= exact_max_n:
            cert = kusuoka_certificate(profile, pn)
            shocks = _all_shocks(n)
            prob = _path_probabilities(cert, shocks)
            h_vals = _tree_payoffs(spec, shocks, pn)
            idx = np.zeros(len(shocks), dtype=np.int64)
            alphas = np.empty((len(shocks), n))
            for k in range(n):
                alphas[:, k] = cert.alpha[k][idx]
                idx = idx + ((shocks[:, k] == 1) << k)
            bound, se = _bound_from_paths(h_vals, alphas, prob, pn)
            clip_q = cert.meta["clip_q"]
            mode = "exact"
        else:
            h_vals, alphas, clip_q = _sample_tilted_paths(profile, pn, spec, mc_paths, seed)
            bound, se = _bound_from_paths(h_vals, alphas, None, pn)
            mode = "mc"
        out.append(
            {
                "n": int(n),
                "bound": bound,
                "std_error": se,
                "mode": mode,
                "clip_q": int(clip_q),
                "certified": clip_q == 0,
                "profile": profile.label,
            }
        )
    return out


def _sample_tilted_paths(profile, params, spec, n_paths, seed):
    """Simulate shocks under the tilted measure, tracking the tilt chain."""
    n = params.n_steps
    s = params.step_vol
    rng = np.random.default_rng(seed)
    values = np.full((n_paths, 1), params.p0)
    alpha = xi = None
    alphas = np.empty((n_paths, n))
    clip_q = 0
    cum = np.zeros(n_paths)
    run_max = np.full(n_paths, params.p0)
    run_int = np.zeros(n_paths)
    last_price = np.full(n_paths, params.p0)
    keep_history = profile.lip_const > 0
    for k in range(n):
        alpha, q, _, n_q = _tilt_step(profile, k, n, values, alpha, xi, params.sigma)
        clip_q += n_q
        xi = np.where(rng.random(n_paths) < q, 1.0, -1.0)
        alphas[:, k] = alpha
        run_int += last_price / n
        cum += xi
        last_price = params.p0 + s * cum
        run_max = np.maximum(run_max, last_price)
        if keep_history:
            values = np.hstack([values, last_price[:, None]])
        else:
            values = last_price[:, None]
    h = payoff_from_summaries(spec, terminal=last_price, rise=run_max - params.p0, average=run_int)
    return h, alphas, clip_q
