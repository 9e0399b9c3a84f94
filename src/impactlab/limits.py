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
    """Space grid for the explicit scheme.

    The time grid is not a setting: `hjb_value` takes the fewest steps the
    diffusion stability bound nu_sq_max * dt / dp^2 <= 1/2 allows and
    reports their count as `grid["n_time"]`.
    """

    p_halfwidth: float = 8.0  # in units of sigma * sqrt(T)
    n_space: int = 601
    cap_flag_fraction: float = 0.3

    def __post_init__(self):
        if not (math.isfinite(self.p_halfwidth) and self.p_halfwidth > 0):
            raise ValueError("p_halfwidth must be finite and > 0")
        if self.n_space < 3:
            raise ValueError("n_space must be >= 3")
        if not math.isfinite(self.cap_flag_fraction):
            raise ValueError("cap_flag_fraction must be finite")


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

    The clip stops mattering after the first steps near a payoff kink, by
    a discrete max principle.  On a step that clips nothing, the scaled
    curvature q = V_pp / (4c) moves as

        q_i' = (1 - l b+ - l b-) q_i + l b+ q_{i+1} + l b- q_{i-1},

    with l = dt / (4 dp^2), b+- = a*_i + a*_{i+-1} in [0, 2 a_max], and the
    fixed boundary nodes acting as a ghost q = 0.  The stability bound
    a_max dt / dp^2 <= 1/2 makes this a convex combination, so the range of
    q and 0 never widens.  Once every node's q lies inside the clip band
    [-sigma^2, a_max - sigma^2), shrunk on both sides by a bound on the
    float drift over the remaining steps, and that band holds 0, no later
    step can clip or hit the cap.  From that step, `grid["clip_free_from"]`
    (n_time if it never comes, as at a_max = sigma^2), each step is six
    array calls, v += r (A r + B) for the raw second difference r, with no
    per-step reduction.  Before it, every step clips, which changes no bit
    where nothing leaves the band; `grid["clipped_steps"]` counts the steps
    where something does.  After the switch, a tripwire checks the band
    without the shrink every ~n_time/256 steps and raises RuntimeError if
    it fails.
    """
    grid = grid or HJBGrid()
    spec = problem.payoff
    if spec.path_dependent:
        raise ValueError("hjb_value handles terminal-value payoffs only; use limit_value_mc")
    c = problem.penalty_c
    s2 = float(problem.sigma_sq)  # an int sigma^2 would make the control snapshots int
    a_max = problem.nu_sq_max
    half = grid.p_halfwidth * math.sqrt(s2)
    n_sp = grid.n_space if grid.n_space % 2 == 1 else grid.n_space + 1
    p_ax = problem.p0 + np.linspace(-half, half, n_sp)
    dp = p_ax[1] - p_ax[0]
    dt_max = 0.5 * dp * dp / a_max
    n_t = int(math.ceil(1.0 / dt_max))
    dt = 1.0 / n_t

    v = np.array(spec.terminal_fn(p_ax), dtype=float)
    # Fused in-place step over preallocated buffers.  With q = V_pp / (4c)
    # and u = a* - sigma^2 = clamp(q, -sigma^2, a_max - sigma^2), the
    # Hamiltonian a* V_pp / 2 - c (a* - sigma^2)^2 is
    # c (u (2q - u) + 2 sigma^2 q); the boundaries carry zero curvature,
    # so only interior nodes move.  A step costs ufunc call overhead, not
    # arithmetic, so the constants are 0-d arrays: the same doubles, hence
    # the same bits, without converting a Python float on every call.
    k_q = np.array(1.0 / (4.0 * c * dp * dp))
    c_dt = np.array(c * dt)
    two_s2 = np.array(2.0 * s2)
    u_lo, u_hi = np.array(-s2), np.array(a_max - s2)
    cap_tol = a_max * (1.0 - 1e-12)
    u_cap = cap_tol - s2
    # boundary nodes hold a* = sigma^2, a cap hit only when a_max ~ sigma^2
    edge_hits = 2 if s2 >= cap_tol else 0
    # Clip-free from the first step whose q lies in the band shrunk by
    # `margin` on every node, when that band holds 0 (the boundaries' ghost
    # q): see the docstring.  A step rounds each v to within eps max|v| / 2,
    # which moves q = k_q (v+ - 2v + v-) by at most 2 eps k_q max|v|; the
    # margin allows 16 eps k_q max|v| a step over all n_t steps.  The
    # scheme is monotone and fixes constants, so max|v| never exceeds its
    # terminal value and one margin serves every step.
    margin = n_t * 16.0 * np.finfo(float).eps * float(k_q) * max(1.0, float(np.max(np.abs(v))))
    band_lo, band_hi = -s2 + margin, u_cap - margin
    can_switch = band_lo <= 0.0 <= band_hi
    # v_in += c dt (q q + 2 sigma^2 q) with q = k_q r, r the raw second
    # difference, is v_in += r (A r + B)
    lean_a = np.array(c * dt * float(k_q) ** 2)
    lean_b = np.array(2.0 * s2 * c * dt * float(k_q))
    d = np.empty(n_sp - 1)
    q, u, w, tmp = (np.empty(n_sp - 2) for _ in range(4))
    at_cap = np.empty(n_sp - 2, dtype=bool)
    v_hi, v_lo, v_in, d_hi, d_lo = v[1:], v[:-1], v[1:-1], d[1:], d[:-1]
    sub, add, mul, at_least, at_most = np.subtract, np.add, np.multiply, np.maximum, np.minimum
    cap_hits = 0
    clipped_steps = 0
    # control snapshots and tripwire tests on a thinned time grid (at most
    # ~257 slices): every step that is a multiple of stride, the table
    # filled from the end so its times ascend
    stride = max(1, n_t // 256)
    n_snaps = (n_t - 1) // stride + 1 if keep_control else 0
    times = np.empty(n_snaps)
    tables = np.full((n_snaps, n_sp), s2)

    def snapshot(step):
        i = n_snaps - 1 - step // stride
        times[i] = 1.0 - (step + 1) * dt
        add(u, s2, tables[i, 1:-1])

    clip_free_from = n_t
    for step in range(n_t):
        sub(v_hi, v_lo, d)
        sub(d_hi, d_lo, q)
        mul(q, k_q, q)
        q_min, q_max = q[q.argmin()], q[q.argmax()]
        if can_switch and q_min >= band_lo and q_max <= band_hi:
            clip_free_from = step
            break
        # NaN or inf fails both tests, so it clips and counts as clipped
        clipped_steps += not (q_min >= u_lo and q_max < u_cap)
        # when nothing clips u == q, so (q - u) + q is q and the term is
        # q * q to the last bit, with no cap hit
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
        if keep_control and step % stride == 0:
            snapshot(step)
    r = q
    for step in range(clip_free_from, n_t):
        sub(v_hi, v_lo, d)
        sub(d_hi, d_lo, r)
        if step % stride == 0:
            # tripwire: the band without the margin must still hold
            mul(r, k_q, u)
            if not (u[u.argmin()] >= u_lo and u[u.argmax()] < u_cap):
                raise RuntimeError(
                    f"hjb_value: curvature left the clip band at step {step}, "
                    f"after the clip-free switch at step {clip_free_from}"
                )
            if keep_control:
                snapshot(step)
        mul(r, lean_a, w)
        add(w, lean_b, w)
        mul(w, r, w)
        add(v_in, w, v_in)
    cap_hits += edge_hits * n_t
    cap_fraction = cap_hits / (n_t * n_sp)
    value = float(np.interp(problem.p0, p_ax, v)) - problem.endowment

    control = None
    if keep_control:
        upper = np.append(p_ax[1:], np.inf)  # right node of each cell
        widths = np.diff(p_ax)
        inv_dp = 1.0 / dp

        def control(t, p):
            """The optimal variance at time t (a float) on an array of prices
            p: np.interp(p, p_ax, table) to the last bit for the snapshot at
            or before t, flat outside the axis.  The uniform axis gives the
            cell by one product, biased low by far more than its rounding,
            and one comparison with the real node corrects it."""
            row = tables[min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), n_snaps - 1)]
            # np.interp's slopes, built per call as it does (one row is
            # cheap; a table per snapshot would double the kept control),
            # and 0 past the last node so the end node reads its own value
            slopes = np.append((row[1:] - row[:-1]) / widths, 0.0)
            x = np.minimum(np.maximum(p, p_ax[0]), p_ax[-1])
            f = x - p_ax[0]
            f *= inv_dp
            f -= 1e-6
            j = f.astype(np.int64)
            j += x >= upper[j]
            # slopes[j] * (x - p_ax[j]) + row[j], in place
            f = x - p_ax[j]
            f *= slopes[j]
            f += row[j]
            return f

    return HJBResult(
        value=value,
        cap_fraction=cap_fraction,
        flagged=cap_fraction > grid.cap_flag_fraction,
        grid={
            "n_space": n_sp, "n_time": n_t, "dp": dp, "dt": dt,
            "clipped_steps": clipped_steps, "clip_free_from": clip_free_from,
        },
        surface=v,
        p_axis=p_ax,
        control=control,
    )


@dataclass
class PolicyFamily:
    """Parameterized feedback variance a(t, p; theta).

    `variance(theta, t, p)` steps every theta of the family at once: theta
    is the (k, 1) column of the k thetas, t a time and p the (k, b) array
    of current prices, row i on theta i.  It returns the controlled
    variance of each path as an array that broadcasts to (k, b): a policy
    that ignores the price may return the (k, 1) column.  Each entry must
    depend on its own theta and price only, so a row is the same bits
    whatever the other rows hold.  `limit_value_mc` clips the variance to
    [0, nu_sq_max], so a family need not.
    """

    name: str
    thetas: list
    variance: Callable[[np.ndarray, float, np.ndarray], np.ndarray]

    def __post_init__(self):
        if not self.thetas:
            raise ValueError("thetas must not be empty")


def constant_family(values) -> PolicyFamily:
    def variance(theta, t, p):
        # float_power calls pow() as Python's float ** 2 does; theta ** 2
        # multiplies, which differs from it in the last bit for ~0.1% of thetas
        return np.float_power(theta, 2.0)

    return PolicyFamily(name="constant", thetas=list(values), variance=variance)


def hjb_feedback_family(result: HJBResult, scales, sigma_sq: float) -> PolicyFamily:
    """Scales the deviation of the HJB optimizer around the variance
    `sigma_sq`, the limit problem's sigma^2, by each of `scales`."""
    if result.control is None:
        raise ValueError("hjb_value must be called with keep_control=True")

    def variance(theta, t, p):
        return sigma_sq + theta * (result.control(t, p) - sigma_sq)

    return PolicyFamily(name="hjb_feedback", thetas=list(scales), variance=variance)


@dataclass
class MCConfig:
    n_paths: int = 20000
    n_steps: int = 128  # the step-halving check runs n_steps // 2 steps
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# Bytes of the fine plus coarse normals of one block of paths, which the
# Monte Carlo draws and runs before it draws the next
_PATH_BLOCK_BYTES = 1 << 21
# Bytes of the one buffer that takes the normal draw, a sub-block of paths at a time
_DRAW_BLOCK_BYTES = 1 << 20


def limit_value_mc(problem: LimitProblem, family: PolicyFamily, cfg: MCConfig | None = None) -> dict:
    """Policy-search lower estimate of the limit value.

    Simulates the controlled diffusion by Euler steps under common random
    numbers for all parameter choices, picks the best estimate, and reports
    a step-halving bias diagnostic for the winner.

    The noise is one (n_paths, 2 n_steps) standard normal draw.  Runs of
    stride = 2 n_steps // m consecutive normals, summed and divided by
    sqrt(stride), drive the m = n_steps fine and m = n_steps // 2 coarse
    steps, so both runs share noise.  The paths run a block at a time.  A
    block's time-major fine and coarse normals take about
    `_PATH_BLOCK_BYTES`; they are drawn a sub-block of paths at a time into
    one buffer of about `_DRAW_BLOCK_BYTES`.  Every theta of the family
    then steps through the block's fine run, and then its coarse run, as
    the rows of (k, block) arrays, so the step-halving check needs no second
    draw.  The call holds the two buffers, the per-path values of every
    theta's fine and coarse run (2 k n_paths doubles) and O(k block) run
    state, so its memory grows with k n_paths but not with n_steps (a
    block is one path, hence more than `_PATH_BLOCK_BYTES`, only beyond
    ~175000 steps).  Row blocks of one Generator are the rows of the single
    draw, each sum runs left to right as numpy's axis sum does, every
    path's arithmetic is elementwise and each estimate is np.mean / np.std
    of one theta's row of n_paths values, so every estimate is the one of
    the whole draw run one theta at a time, to the last bit.
    """
    cfg = cfg or MCConfig()
    n_paths, n_fine = cfg.n_paths, cfg.n_steps
    n_coarse = n_fine // 2
    thetas = np.array(family.thetas, dtype=float)[:, None]
    summary = problem.payoff.summary
    rng = np.random.default_rng(cfg.seed)
    width = min(n_paths, max(1, _PATH_BLOCK_BYTES // ((n_fine + n_coarse) * 8)))
    rows = min(width, max(1, _DRAW_BLOCK_BYTES // (2 * n_fine * 8)))
    draw = np.empty((rows, 2 * n_fine))
    noise = (np.empty((n_fine, width)), np.empty((n_coarse, width)))
    values = np.empty((2, len(thetas), n_paths))  # payoff minus penalty: fine, coarse

    def fill(b):
        """Draws the next b paths' normals into the first b columns of the noise."""
        for lo in range(0, b, rows):
            z = draw[: min(rows, b - lo)]
            rng.standard_normal(out=z)
            for zz in noise:
                n_steps = len(zz)
                stride = (2 * n_fine) // n_steps
                parts = z[:, : stride * n_steps].reshape(len(z), n_steps, stride)
                out = zz[:, lo : lo + len(z)].T
                np.copyto(out, parts[:, :, 0])
                for k in range(1, stride):
                    out += parts[:, :, k]
                out /= math.sqrt(stride)

    def run(zz, vals):
        """Steps every theta over the block's paths on the noise zz, writing
        each path's payoff minus penalty into vals."""
        dt = 1.0 / len(zz)
        p = np.full(vals.shape, problem.p0)
        # only the summary the payoff reads is kept
        run_max = p.copy() if summary == "rise" else None
        run_avg = np.zeros(vals.shape) if summary == "average" else None
        step = np.empty(vals.shape)
        penalty = np.zeros((len(thetas), 1))
        # A step costs ufunc calls more than arithmetic, so it works in
        # place; each op is one of a = clip(variance, 0, nu_sq_max),
        # penalty += c (a - sigma^2)^2 dt and p += sqrt(a dt) z, in order
        # (the operands of a product commute to the bit).
        for j in range(len(zz)):
            # np.clip's bits (0.0 first, so -0.0 clips to 0.0) without its
            # Python wrapper
            a = np.maximum(0.0, family.variance(thetas, j * dt, p))
            np.minimum(a, problem.nu_sq_max, out=a)
            d = a - problem.sigma_sq
            d *= d
            d *= problem.penalty_c
            d *= dt
            penalty = penalty + d
            if run_avg is not None:
                np.multiply(p, dt, out=step)
                run_avg += step
            a *= dt
            np.sqrt(a, out=a)
            np.multiply(a, zz[j], out=step)
            p += step
            if run_max is not None:
                np.maximum(run_max, p, out=run_max)
        rise = run_max - problem.p0 if run_max is not None else None
        h = payoff_from_summaries(problem.payoff, terminal=p, rise=rise, average=run_avg)
        np.subtract(h, penalty, out=vals)

    for lo in range(0, n_paths, width):
        b = min(width, n_paths - lo)
        fill(b)
        for zz, vals in zip(noise, values):
            run(zz[:, :b], vals[:, lo : lo + b])

    fine, coarse = values
    results = {
        th: (float(np.mean(v)), float(np.std(v) / math.sqrt(n_paths))) for th, v in zip(family.thetas, fine)
    }
    best_theta = max(results, key=lambda th: results[th][0])
    est, se = results[best_theta]
    coarse_est = float(np.mean(coarse[family.thetas.index(best_theta)]))
    return {
        "value": est - problem.endowment,
        "std_error": se,
        "theta": best_theta,
        "family": family.name,
        "step_halving_bias": est - coarse_est,
        "all": {th: v[0] - problem.endowment for th, v in results.items()},
    }
