"""Scaling-limit value: volatility control with a quartic variance penalty.

The high-resilience limit of the super-replication cost is the supremum
over progressively measurable volatility profiles nu of

    E[ h(P^nu) - c * integral (nu_t^2 - sigma^2)^2 dt ] - p0 x0 - iota x0^2 / 2,

with penalty weight c = r delta / (8 sigma^2 (2 - r)).  Terminal-value
payoffs are solved by an explicit finite-difference scheme for the
dynamic-programming equation; path-dependent payoffs get (noisy) lower
estimates from a parameterized feedback-policy search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .market import MarketParams
from .payoffs import PayoffSpec, payoff_from_summaries

__all__ = [
    "LimitProblem",
    "HJBGrid",
    "HJBResult",
    "hjb_value",
    "bachelier_reference",
    "limit_value_mc",
    "limit_from_market",
    "penalty_weight",
]


def penalty_weight(params: MarketParams) -> float:
    """Limit penalty c = r delta / (8 sigma^2 (2 - r))."""
    r = params.resilience
    return r * params.depth / (8.0 * params.sigma**2 * (2.0 - r))


@dataclass(frozen=True)
class LimitProblem:
    """Payoff plus penalty data defining the limit control problem."""

    payoff: PayoffSpec
    penalty_c: float
    sigma_sq: float
    p0: float = 0.0
    endowment: float = 0.0  # p0 x0 + iota x0^2 / 2, subtracted from the sup
    nu_sq_max: Optional[float] = None  # cap on the controlled variance

    def __post_init__(self):
        if self.penalty_c <= 0:
            raise ValueError("penalty_c must be > 0")
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be > 0")
        cap = self.nu_sq_max if self.nu_sq_max is not None else 16.0 * self.sigma_sq
        if cap < self.sigma_sq:
            raise ValueError("nu_sq_max must be >= sigma_sq")
        object.__setattr__(self, "nu_sq_max", cap)


def limit_from_market(params: MarketParams, spec: PayoffSpec, nu_sq_max=None) -> LimitProblem:
    return LimitProblem(
        payoff=spec,
        penalty_c=penalty_weight(params),
        sigma_sq=params.sigma**2,
        p0=params.p0,
        endowment=params.p0 * params.x0 + 0.5 * params.perm_impact * params.x0**2,
        nu_sq_max=nu_sq_max,
    )


@dataclass
class HJBGrid:
    """Space-time grid for the explicit scheme.

    The time step is derived from the diffusion stability bound
    nu_sq_max * dt / dp^2 <= 1/2 unless n_time is forced explicitly.
    """

    p_halfwidth: float = 8.0  # in units of sigma * sqrt(T)
    n_space: int = 601
    n_time: Optional[int] = None
    cap_flag_fraction: float = 0.3


@dataclass
class HJBResult:
    value: float
    cap_fraction: float
    flagged: bool
    grid: dict
    surface: Optional[np.ndarray] = None
    p_axis: Optional[np.ndarray] = None
    control: Optional[Callable] = None


def hjb_value(problem: LimitProblem, grid: HJBGrid | None = None, keep_control: bool = False) -> HJBResult:
    """Backward explicit finite differences for the volatility control value.

    The pointwise optimizer is a* = clamp(sigma^2 + V_pp / (4c), 0, a_max);
    the fraction of nodes where the cap binds is reported and flags the
    result above `cap_flag_fraction`.  Boundaries carry zero curvature.
    """
    grid = grid or HJBGrid()
    spec = problem.payoff
    if spec.path_dependent:
        raise ValueError("hjb_value handles terminal-value payoffs only; use limit_value_mc")
    c = problem.penalty_c
    s2 = problem.sigma_sq
    a_max = problem.nu_sq_max
    half = grid.p_halfwidth * math.sqrt(s2)
    n_sp = grid.n_space if grid.n_space % 2 == 1 else grid.n_space + 1
    p_ax = problem.p0 + np.linspace(-half, half, n_sp)
    dp = p_ax[1] - p_ax[0]
    if grid.n_time is None:
        dt_max = 0.5 * dp * dp / a_max
        n_t = int(math.ceil(1.0 / dt_max))
    else:
        n_t = grid.n_time
        if a_max * (1.0 / n_t) / dp**2 > 0.5 + 1e-12:
            raise ValueError("n_time violates the stability bound a_max*dt/dp^2 <= 1/2")
    dt = 1.0 / n_t

    v = np.array(spec.terminal_fn(p_ax), dtype=float)
    # Fused in-place step over preallocated buffers.  With q = V_pp / (4c)
    # and u = a* - sigma^2 = clamp(q, -sigma^2, a_max - sigma^2), the
    # Hamiltonian a* V_pp / 2 - c (a* - sigma^2)^2 is
    # c (u (2q - u) + 2 sigma^2 q); the boundaries carry zero curvature,
    # so only interior nodes move.
    k_q = 1.0 / (4.0 * c * dp * dp)
    c_dt = c * dt
    two_s2 = 2.0 * s2
    u_lo, u_hi = -s2, a_max - s2
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
    if keep_control:
        # control snapshots on a thinned time grid (at most ~257 slices)
        stride = max(1, n_t // 256)
        snaps = []
    for step in range(n_t):
        sub(v_hi, v_lo, d)
        sub(d_hi, d_lo, q)
        mul(q, k_q, q)
        at_least(q, u_lo, out=u)
        at_most(u, u_hi, out=u)
        np.greater_equal(u, u_cap, out=at_cap)
        cap_hits += np.count_nonzero(at_cap) + edge_hits
        sub(q, u, w)
        add(w, q, w)
        mul(w, u, w)
        mul(q, two_s2, tmp)
        add(w, tmp, w)
        mul(w, c_dt, w)
        add(v_in, w, v_in)
        if keep_control and (step % stride == 0):
            a_star = np.full(n_sp, s2)
            add(u, s2, a_star[1:-1])
            snaps.append((1.0 - (step + 1) * dt, a_star))
    cap_fraction = cap_hits / (n_t * n_sp)
    value = float(np.interp(problem.p0, p_ax, v)) - problem.endowment

    control = None
    if keep_control:
        times = np.array([t for t, _ in snaps][::-1])
        tables = np.array([a for _, a in snaps][::-1])
        upper = np.append(p_ax[1:], np.inf)  # right node of each cell
        widths = np.diff(p_ax)
        inv_dp = 1.0 / dp

        def interp(k, p):
            """np.interp(p, p_ax, tables[k]) to the last bit, flat outside
            the axis: the uniform axis gives the cell by one product, biased
            low by far more than its rounding, and one comparison with the
            real node corrects it."""
            row = tables[k]
            # np.interp's slopes, built per call as it does (one row is
            # cheap; a table per snapshot would double the kept control),
            # and 0 past the last node so the end node reads its own value
            slopes = np.append((row[1:] - row[:-1]) / widths, 0.0)
            x = np.clip(p, p_ax[0], p_ax[-1])
            j = ((x - p_ax[0]) * inv_dp - 1e-6).astype(np.int64)
            j += x >= upper[j]
            return slopes[j] * (x - p_ax[j]) + row[j]

        def control(t, p):
            it = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 1)
            if np.ndim(p) == 0:
                return float(interp(it, p))
            if np.ndim(it) == 0:
                return interp(it, p)
            out = np.empty(np.shape(p))
            for k in np.unique(it):
                mask = it == k
                out[mask] = interp(k, np.asarray(p)[mask])
            return out

    return HJBResult(
        value=value,
        cap_fraction=cap_fraction,
        flagged=cap_fraction > grid.cap_flag_fraction,
        grid={"n_space": n_sp, "n_time": n_t, "dp": dp, "dt": dt},
        surface=v,
        p_axis=p_ax,
        control=control,
    )


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


@dataclass
class PolicyFamily:
    """Parameterized feedback variance a(t, state; theta) >= 0.

    `builder(theta)` returns a callable mapping (t, prices, running_max,
    running_avg) arrays to the controlled variance for each path.
    """

    name: str
    thetas: list
    builder: Callable[[object], Callable]


def constant_family(values) -> PolicyFamily:
    def builder(theta):
        def feedback(t, p, running_max, running_avg):
            return np.full_like(p, float(theta) ** 2)

        return feedback

    return PolicyFamily(name="constant", thetas=list(values), builder=builder)


def hjb_feedback_family(result: HJBResult, scales=(0.85, 1.0, 1.15), sigma_sq: float = 1.0) -> PolicyFamily:
    """Scales the deviation of the HJB optimizer around the reference variance."""
    if result.control is None:
        raise ValueError("hjb_value must be called with keep_control=True")

    def builder(theta):
        def feedback(t, p, running_max, running_avg):
            base = result.control(t, p)
            return np.maximum(sigma_sq + theta * (base - sigma_sq), 0.0)

        return feedback

    return PolicyFamily(name="hjb_feedback", thetas=list(scales), builder=builder)


@dataclass
class MCConfig:
    n_paths: int = 20000
    n_steps: int = 128
    seed: int = 0


def limit_value_mc(problem: LimitProblem, family: PolicyFamily, cfg: MCConfig | None = None) -> dict:
    """Policy-search lower estimate of the limit value.

    Simulates the controlled diffusion by Euler steps under common random
    numbers for all parameter choices, picks the best estimate, and reports
    a step-halving bias diagnostic for the winner.
    """
    cfg = cfg or MCConfig()
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((cfg.n_paths, 2 * cfg.n_steps))

    def noise(n_steps):
        """The fine-grained normals aggregated to n_steps steps, so coarse
        and fine runs share noise; time-major, one contiguous row per step."""
        stride = (2 * cfg.n_steps) // n_steps
        zz = np.empty((n_steps, cfg.n_paths))
        z[:, : stride * n_steps].reshape(cfg.n_paths, n_steps, stride).sum(axis=2, out=zz.T)
        zz /= math.sqrt(stride)
        return zz

    def run(theta, zz):
        feedback = family.builder(theta)
        n_steps = len(zz)
        dt = 1.0 / n_steps
        p = np.full(cfg.n_paths, problem.p0)
        run_max = np.full(cfg.n_paths, problem.p0)
        run_avg = np.zeros(cfg.n_paths)
        penalty = np.zeros(cfg.n_paths)
        for j in range(n_steps):
            t = j * dt
            a = np.clip(feedback(t, p, run_max, run_avg), 0.0, problem.nu_sq_max)
            penalty += problem.penalty_c * (a - problem.sigma_sq) ** 2 * dt
            run_avg += p * dt
            p = p + np.sqrt(a * dt) * zz[j]
            run_max = np.maximum(run_max, p)
        h = payoff_from_summaries(problem.payoff, terminal=p, rise=run_max - problem.p0, average=run_avg)
        vals = h - penalty
        return float(np.mean(vals)), float(np.std(vals) / math.sqrt(cfg.n_paths))

    fine = noise(cfg.n_steps)
    results = {theta: run(theta, fine) for theta in family.thetas}
    del fine  # freed before the coarse rows are built
    best_theta = max(results, key=lambda th: results[th][0])
    est, se = results[best_theta]
    coarse_est, _ = run(best_theta, noise(cfg.n_steps // 2))
    return {
        "value": est - problem.endowment,
        "std_error": se,
        "theta": best_theta,
        "family": family.name,
        "step_halving_bias": est - coarse_est,
        "all": {th: v[0] - problem.endowment for th, v in results.items()},
    }

