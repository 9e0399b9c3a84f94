"""Payoff functionals on step-function paths.

Built-in payoffs are nonnegative and 1-Lipschitz in the sup norm (hence in
the weaker time-deformation metric used for path regularity).  The module
also provides the knock-out / quadratic claim pair attached to a space-time
stopping grid, and a cheap upper bound for the time-deformation distance
used by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .market import MarketParams, SteppedPath, StoppingGrid, discretize_path

__all__ = [
    "PayoffSpec",
    "ClaimPair",
    "evaluate_payoff",
    "payoff_on_paths",
    "skorohod_distance_upper",
    "quadratic_claim",
    "claims",
]

_KINDS = ("call", "put", "lookback_max", "asian_mean", "custom_terminal")


@dataclass(frozen=True)
class PayoffSpec:
    """A payoff functional h with its declared regularity constants.

    kind: one of call/put (strike K on the terminal value), lookback_max
    (running max above the start), asian_mean (strike on the time average),
    or custom_terminal (piecewise-linear table on the terminal value).
    lipschitz_l: Lipschitz constant in the sup norm.
    """

    kind: str
    strike: float = 0.0
    lipschitz_l: float = 1.0
    table: tuple = ()  # ((p, h(p)), ...) for custom_terminal

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.kind == "custom_terminal":
            if len(self.table) < 2:
                raise ValueError("custom_terminal needs at least two table points")
            pts = np.asarray(self.table, dtype=float)
            if np.any(np.diff(pts[:, 0]) <= 0):
                raise ValueError("table abscissae must be strictly increasing")
            if np.any(pts[:, 1] < 0):
                raise ValueError("payoff table must be nonnegative")

    # -- evaluation ---------------------------------------------------------

    def terminal_fn(self, p):
        """Vectorized payoff as a function of the terminal value.

        Only defined for terminal-value payoffs (call/put/custom_terminal).
        """
        p = np.asarray(p, dtype=float)
        if self.kind == "call":
            return np.maximum(p - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - p, 0.0)
        if self.kind == "custom_terminal":
            pts = np.asarray(self.table, dtype=float)
            return np.interp(p, pts[:, 0], pts[:, 1])
        raise ValueError(f"{self.kind} is not a terminal-value payoff")

    @property
    def path_dependent(self) -> bool:
        return self.kind in ("lookback_max", "asian_mean")

    def value_at_rest(self, p0: float) -> float:
        """Payoff of the path constantly equal to p0."""
        if self.kind == "lookback_max":
            return 0.0
        if self.kind == "asian_mean":
            return max(p0 - self.strike, 0.0)
        return float(self.terminal_fn(p0))

    def growth_c(self, lam: float, p0: float = 0.0) -> float:
        """Constant c with h(p) <= lam^2 (||p - p0||_inf^2 + c).

        From h(p) <= L*||p - p0||_inf + h(p0-path): maximize
        (L*x + A - lam^2 x^2) / lam^2 over x >= 0.
        """
        if lam <= 0:
            raise ValueError("lam must be > 0")
        a = self.value_at_rest(p0)
        l = self.lipschitz_l
        return a / lam**2 + l**2 / (4.0 * lam**4)


@dataclass(frozen=True)
class ClaimPair:
    """Knock-out claim and quadratic fluctuation claim for one path."""

    knockout: float
    quadratic: float
    k_threshold: int


def evaluate_payoff(spec: PayoffSpec, path: SteppedPath) -> float:
    if spec.kind == "call":
        return max(path.terminal - spec.strike, 0.0)
    if spec.kind == "put":
        return max(spec.strike - path.terminal, 0.0)
    if spec.kind == "lookback_max":
        return max(path.sup - path.values[0], 0.0)
    if spec.kind == "asian_mean":
        return max(path.integral() - spec.strike, 0.0)
    return float(spec.terminal_fn(path.terminal))


def payoff_on_paths(spec: PayoffSpec, values) -> np.ndarray:
    """Payoffs of a batch of full walk paths, one per row.

    values: (batch, N+1) prices at the breakpoints n/N, n = 0..N, so each
    row is the step path `fundamental_path` builds from N shocks.  Same
    formulas as `evaluate_payoff`; the time average of a row is the mean
    of its first N values.
    """
    values = np.asarray(values, dtype=float)
    if spec.kind == "lookback_max":
        return np.maximum(values.max(axis=1) - values[:, 0], 0.0)
    if spec.kind == "asian_mean":
        return np.maximum(values[:, :-1].mean(axis=1) - spec.strike, 0.0)
    return np.asarray(spec.terminal_fn(values[:, -1]), dtype=float)


def _cost_of_time_change(p: SteppedPath, q: SteppedPath, knots_t, knots_s) -> float:
    """Cost sup|t - chi(t)| + sup|p(t) - q(chi(t))| of the piecewise-linear
    time change with chi(knots_t[i]) = knots_s[i]."""
    knots_t = np.asarray(knots_t)
    knots_s = np.asarray(knots_s)
    time_cost = float(np.max(np.abs(knots_t - knots_s)))
    # q o chi jumps where chi crosses q's breakpoints: pull them back.
    pulled = np.interp(q.times, knots_s, knots_t)
    cuts = np.union1d(p.times, pulled)
    mids = cuts + 1e-12  # evaluate just right of every jump
    chi = np.interp(mids, knots_t, knots_s)
    value_cost = float(np.max(np.abs(p.value_at(mids) - q.value_at(chi))))
    return time_cost + value_cost


def skorohod_distance_upper(p: SteppedPath, q: SteppedPath, budget: int = 2000) -> float:
    """Upper bound for the time-deformation distance between step paths.

    Takes the best of the identity change (sup norm) and piecewise-linear
    changes aligning subsets of interior breakpoints; every candidate is a
    feasible time change, so the result dominates the true distance.  At
    most `budget` candidate changes are evaluated, near-full matchings
    first; exact computation is deliberately avoided.
    """
    best = p.sup_distance(q)
    jt_p = [t for t in p.times[1:] if t < 1.0]
    jt_q = [t for t in q.times[1:] if t < 1.0]
    if not jt_p or not jt_q:
        return best
    evaluated = 0
    for k in range(min(len(jt_p), len(jt_q)), 0, -1):
        for sub_p in combinations(jt_p, k):
            for sub_q in combinations(jt_q, k):
                if evaluated >= budget:
                    return best
                evaluated += 1
                knots_t = np.concatenate([[0.0], sub_p, [1.0]])
                knots_s = np.concatenate([[0.0], sub_q, [1.0]])
                if np.any(np.diff(knots_t) <= 0) or np.any(np.diff(knots_s) <= 0):
                    continue
                best = min(best, _cost_of_time_change(p, q, knots_t, knots_s))
    return best


def quadratic_claim(path: SteppedPath, grid: StoppingGrid, params: MarketParams) -> float:
    """Squared frozen-path excursion plus squared stop increments plus
    elapsed stop times."""
    disc = discretize_path(path, grid, params)
    stop_vals = disc.values
    dts = np.diff(grid.indices) / params.n_steps
    dps = np.diff(stop_vals)
    return float(np.max((stop_vals - params.p0) ** 2) + np.sum(dps**2) + np.sum(dts))


def claims(
    spec: PayoffSpec,
    path: SteppedPath,
    grid: StoppingGrid,
    params: MarketParams,
    lam: float,
) -> ClaimPair:
    """Knock-out and quadratic claims attached to a stopping grid.

    The knock-out pays h on the discretized path only if fewer than K stops
    occur before the time cap, with K = floor(c/(eps*lam)^2) + 1.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must be in (0, 1)")
    c = spec.growth_c(lam, p0=params.p0)
    k_threshold = int(np.floor(c / (grid.epsilon * lam) ** 2)) + 1
    quadratic = quadratic_claim(path, grid, params)
    capped_within_k = grid.n_stops <= k_threshold
    knockout = evaluate_payoff(spec, discretize_path(path, grid, params)) if capped_within_k else 0.0
    return ClaimPair(knockout=knockout, quadratic=quadratic, k_threshold=k_threshold)
