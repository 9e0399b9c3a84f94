"""Dual lower bounds: tilted measures, shadow martingales, certified bounds.

Certificates pair a measure on the shock tree (conditional up-probabilities
per node) with a predictable tilt alpha; the shadow price
M_n = P_n + alpha_n xi_n / sqrt(N) is a martingale when the probabilities
solve the one-step mean-zero condition.  Dual objectives evaluate the
penalized expectations from the super-replication duality; the tilt
construction follows the classical change-of-measure recipe for driving
the walk toward a target-volatility diffusion.

All evaluations include the terminal liquidation period priced by the
primal solver, so every feasible value is a genuine lower bound for the
costs this package computes.
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
    "MuWeights",
    "DualCertificate",
    "VolProfile",
    "constant_profile",
    "mu_weights",
    "dual_objective_transient",
    "dual_objective_temporary",
    "kusuoka_certificate",
    "kusuoka_lower_bound",
    "certificate_martingale_gaps",
]

_EXACT_MAX_N = 14


@dataclass(frozen=True)
class MuWeights:
    """Spread-penalty weights of the limited-resilience duality."""

    mu: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.mu) < 0):
            raise ValueError("weights must be nonnegative")


def mu_weights(params: MarketParams, n_steps: Optional[int] = None) -> MuWeights:
    """delta (1-(1-r)^2) (1-r)^{2n} for n < N and delta (1-r)^{2N} at n = N."""
    r = params.resilience
    if r >= 1.0:
        raise ValueError("weights are defined for resilience < 1; use the temporary-impact objective")
    n = n_steps if n_steps is not None else params.n_steps
    decay = 1.0 - r
    ns = np.arange(1, n + 1)
    mu = params.depth * (1.0 - decay**2) * decay ** (2 * ns)
    mu[-1] = params.depth * decay ** (2 * n)
    return MuWeights(mu=mu)


@dataclass
class DualCertificate:
    """Measure + predictable tilt on the shock tree.

    q[k][idx]: probability that shock k+1 is up, given the length-k prefix
    encoded as an integer (bit j set means shock j+1 was up).
    alpha[k][idx]: tilt attached to period k+1, measurable at time k.
    """

    q: list
    alpha: list
    m0: float
    martingale: Optional[list] = None
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


def _node_probabilities(q: list) -> list:
    """Probability of every node, per depth 0..n, from the up-probabilities."""
    node_prob = [np.ones(1)]
    for k in range(len(q)):
        pk = node_prob[k]
        nxt = np.empty(2 ** (k + 1))
        idx = np.arange(2**k)
        nxt[idx] = pk * (1.0 - q[k][idx])
        nxt[idx + (1 << k)] = pk * q[k][idx]
        node_prob.append(nxt)
    return node_prob


def _path_probabilities(cert: DualCertificate, shocks: np.ndarray) -> np.ndarray:
    n = shocks.shape[1]
    prob = np.ones(shocks.shape[0])
    idx = np.zeros(shocks.shape[0], dtype=np.int64)
    for k in range(n):
        qk = cert.q[k][idx]
        prob *= np.where(shocks[:, k] == 1, qk, 1.0 - qk)
        idx = idx + ((shocks[:, k] == 1) << k)
    return prob


def _close_martingale(cert: DualCertificate, params: MarketParams) -> list:
    """Backward conditional expectations from M_N = P_N + tilt_N."""
    n = cert.n_steps
    s = params.step_vol
    shocks = _all_shocks(n)
    prices_n = params.p0 + s * shocks.sum(axis=1)
    parent = np.arange(2**n) % (2 ** (n - 1)) if n >= 1 else np.zeros(1, dtype=int)
    xi_n = np.where((np.arange(2**n) >> (n - 1)) & 1 == 1, 1.0, -1.0)
    m = [None] * (n + 1)
    m[n] = prices_n + cert.alpha[n - 1][parent] * xi_n / math.sqrt(n)
    for k in range(n - 1, -1, -1):
        upper = m[k + 1]
        idx = np.arange(2**k)
        m[k] = cert.q[k][idx] * upper[idx + (1 << k)] + (1.0 - cert.q[k][idx]) * upper[idx]
    return m


def dual_objective_transient(
    cert: DualCertificate, spec: PayoffSpec, params: MarketParams
) -> tuple[float, dict]:
    """Penalized dual expectation for limited resilience, with feasibility.

    Evaluates E_Q[H] - 1/2 E_Q[sum |alpha_n - zeta0|^2 mu_n] - M_0 x0
    - iota x0^2 / 2 over the tree, with the band condition
    |P_{n-1} - M_{n-1}| <= E_Q[sum_{m>=n} alpha_m mu_m | F_{n-1}] / (delta (1-r)^n)
    checked at every node.  The terminal liquidation period is appended
    (alpha extends by its last value, M stays flat), so feasible values
    lower-bound the primal costs computed by this package.  Infeasible
    certificates still get a value, but it carries no guarantee.
    """
    n = params.n_steps
    if n != cert.n_steps:
        raise ValueError("certificate horizon does not match params")
    if n > _EXACT_MAX_N:
        raise ValueError(f"exact tree evaluation limited to n_steps <= {_EXACT_MAX_N}")
    if params.resilience >= 1.0:
        raise ValueError("use dual_objective_temporary for the fully resilient model")
    decay = 1.0 - params.resilience
    n_ext = n + 1
    mu = mu_weights(params, n_steps=n_ext).mu

    shocks = _all_shocks(n)
    prob = _path_probabilities(cert, shocks)
    e_h = float(np.dot(prob, _tree_payoffs(spec, shocks, params)))

    # alpha with the liquidation-period extension
    alpha_ext = list(cert.alpha) + [cert.alpha[n - 1][np.arange(2**n) % (2 ** (n - 1))]]

    node_prob = _node_probabilities(cert.q)

    penalty = 0.0
    for k in range(n_ext):
        penalty += 0.5 * mu[k] * float(
            np.dot(node_prob[min(k, n)], np.abs(alpha_ext[k] - params.zeta0) ** 2)
        )

    m = cert.martingale if cert.martingale is not None else _close_martingale(cert, params)

    # conditional forward sums S_n = E[sum_{m>=n} alpha_m mu_m | F_{n-1}]
    s_next = np.zeros(2**n)
    band_viol = -np.inf
    s = params.step_vol
    for k in range(n_ext - 1, -1, -1):
        depth = min(k, n)
        idx = np.arange(2**depth)
        if k == n:
            cond_next = s_next[idx]  # degenerate final period: no branching
        else:
            cond_next = cert.q[k][idx] * s_next[idx + (1 << k)] + (1.0 - cert.q[k][idx]) * s_next[idx]
        s_cur = alpha_ext[k] * mu[k] + cond_next
        # band at period k+1 compares P_k with M_k on depth-k nodes
        p_k = params.p0 + s * (_signed_sums(depth) if depth else np.zeros(1))
        lhs = np.abs(p_k - m[depth])
        rhs = s_cur / (params.depth * decay ** (k + 1))
        band_viol = max(band_viol, float(np.max(lhs - rhs)))
        s_next = s_cur
    feasible = band_viol <= 1e-9

    value = e_h - penalty - m[0][0] * params.x0 - 0.5 * params.perm_impact * params.x0**2
    report = {
        "feasible": bool(feasible),
        "max_band_violation": band_viol,
        "m0": float(m[0][0]),
        "expected_payoff": e_h,
        "penalty": penalty,
    }
    return value, report


def _signed_sums(depth: int) -> np.ndarray:
    idx = np.arange(2**depth)
    out = np.zeros(2**depth, dtype=np.int64)
    for j in range(depth):
        out += np.where((idx >> j) & 1 == 1, 1, -1)
    return out


def dual_objective_temporary(
    q: list, martingale: list, spec: PayoffSpec, params: MarketParams
) -> float:
    """Penalized dual expectation for the fully resilient model.

    E_Q[H] - 1/(2 delta) E_Q[sum |P_{n-1} - M_{n-1}|^2] - M_0 x0
    - iota x0^2/2, the sum including the terminal liquidation period
    (distance |P_N - M_N|).  Rejects non-martingale M.
    """
    n = len(q)
    if n != params.n_steps:
        raise ValueError("martingale horizon does not match params")
    if n > _EXACT_MAX_N:
        raise ValueError(f"exact tree evaluation limited to n_steps <= {_EXACT_MAX_N}")
    for k in range(n):
        idx = np.arange(2**k)
        closed = q[k][idx] * martingale[k + 1][idx + (1 << k)] + (1.0 - q[k][idx]) * martingale[k + 1][idx]
        if np.max(np.abs(closed - martingale[k][idx])) > 1e-9:
            raise ValueError("martingale condition fails at depth %d" % k)

    cert = DualCertificate(q=q, alpha=[np.zeros(2**k) for k in range(n)], m0=float(martingale[0][0]))
    shocks = _all_shocks(n)
    prob = _path_probabilities(cert, shocks)
    e_h = float(np.dot(prob, _tree_payoffs(spec, shocks, params)))

    node_prob = _node_probabilities(q)

    s = params.step_vol
    dist = 0.0
    for k in range(n + 1):  # periods 1..N+1 anchor at times 0..N
        p_k = params.p0 + s * (_signed_sums(k) if k else np.zeros(1))
        dist += float(np.dot(node_prob[k], (p_k - martingale[k]) ** 2))
    value = (
        e_h
        - dist / (2.0 * params.depth)
        - float(martingale[0][0]) * params.x0
        - 0.5 * params.perm_impact * params.x0**2
    )
    return value


# ---------------------------------------------------------------------------
# tilt construction


def kusuoka_certificate(
    profile: VolProfile,
    params: MarketParams,
    q_min: float = 1e-6,
    margin: float = 1e-9,
) -> DualCertificate:
    """Tilted walk measure whose shadow price is an exact tree martingale.

    alpha_{n} = (nu^2 - sigma^2) / (2 sigma) evaluated at t = (n-1)/N on
    the path so far, clipped to |alpha| <= C and per-step increments
    C/sqrt(N) (from the second period on); the conditional probabilities
    solve the one-step martingale condition exactly and are clipped away
    from {0, 1}, any such event marking the certificate approximate.
    """
    n = params.n_steps
    if n > _EXACT_MAX_N:
        raise ValueError(f"tree certificate limited to n_steps <= {_EXACT_MAX_N}; sample instead")
    sigma = params.sigma
    c = profile.c_bound
    step_bound = c / math.sqrt(n)
    s = params.step_vol

    q_list, alpha_list = [], []
    clip_alpha = clip_q = 0
    values = np.full((1, 1), params.p0)
    alpha_prev = np.zeros(1)
    for k in range(n):
        t = k / n
        nu = np.asarray(profile.nu(t, values), dtype=float)
        if np.any(sigma + (nu**2 - sigma**2) / (2 * sigma) <= margin):
            raise ValueError("profile drives sigma + alpha below the margin")
        alpha = (nu**2 - sigma**2) / (2.0 * sigma)
        clipped = np.clip(alpha, -c, c)
        if k >= 1:
            parent = np.arange(2**k) % (2 ** (k - 1))
            prev = alpha_prev[parent]
            clipped = np.clip(clipped, prev - step_bound, prev + step_bound)
        clip_alpha += int(np.count_nonzero(clipped != alpha))
        alpha = clipped
        if np.any(sigma + alpha <= margin):
            raise ValueError("clipped tilt degenerates the martingale condition")
        if k == 0:
            q = np.full(1, 0.5)
        else:
            xi_last = np.where((np.arange(2**k) >> (k - 1)) & 1 == 1, 1.0, -1.0)
            q = 0.5 * (1.0 + prev * xi_last / (sigma + alpha))
        q_clipped = np.clip(q, q_min, 1.0 - q_min)
        clip_q += int(np.count_nonzero(q_clipped != q))
        q_list.append(q_clipped)
        alpha_list.append(alpha)
        alpha_prev = alpha
        if k < n - 1:
            # extend the observed paths; stacking [down, up] matches the
            # integer prefix order (the new shock is the highest bit)
            up = np.hstack([values, values[:, -1:] + s])
            dn = np.hstack([values, values[:, -1:] - s])
            values = np.vstack([dn, up])

    return DualCertificate(
        q=q_list,
        alpha=alpha_list,
        m0=params.p0,
        meta={
            "c_bound": c,
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
    """Assemble the penalty chain along paths.

    alphas: (n_paths, N) tilts; b_m = |alpha_m|/sqrt(N) with b_0 = 0.  The
    middle terms pay ((b_{m-1} - (1-r) b_m)_+)^2 / (1-(1-r)^2) each, the
    liquidation period pays b_N^2, both scaled by delta/2.
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
    sigma = params.sigma
    s = params.step_vol
    c = profile.c_bound
    step_bound = c / math.sqrt(n)
    rng = np.random.default_rng(seed)
    values = np.full((n_paths, 1), params.p0)
    alpha_prev = np.zeros(n_paths)
    xi_prev = np.zeros(n_paths)
    alphas = np.empty((n_paths, n))
    clip_q = 0
    cum = np.zeros(n_paths)
    run_max = np.full(n_paths, params.p0)
    run_int = np.zeros(n_paths)
    last_price = np.full(n_paths, params.p0)
    keep_history = profile.lip_const > 0
    for k in range(n):
        nu = np.asarray(profile.nu(k / n, values), dtype=float)
        alpha = (nu**2 - sigma**2) / (2.0 * sigma)
        alpha = np.clip(alpha, -c, c)
        if k >= 1:
            alpha = np.clip(alpha, alpha_prev - step_bound, alpha_prev + step_bound)
        q = np.full(n_paths, 0.5) if k == 0 else 0.5 * (1.0 + alpha_prev * xi_prev / (sigma + alpha))
        qc = np.clip(q, 1e-6, 1.0 - 1e-6)
        clip_q += int(np.count_nonzero(qc != q))
        xi = np.where(rng.random(n_paths) < qc, 1.0, -1.0)
        alphas[:, k] = alpha
        run_int += last_price / n
        cum += xi
        last_price = params.p0 + s * cum
        run_max = np.maximum(run_max, last_price)
        alpha_prev, xi_prev = alpha, xi
        if keep_history:
            values = np.hstack([values, last_price[:, None]])
        else:
            values = last_price[:, None]
    h = payoff_from_summaries(spec, terminal=last_price, rise=run_max - params.p0, average=run_int)
    return h, alphas, clip_q
