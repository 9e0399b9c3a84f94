"""Payoff functionals on step-function paths and on batches of paths.

Built-in payoffs are nonnegative and 1-Lipschitz in the sup norm (hence in
the weaker time-deformation metric used for path regularity).  The module
also provides the quadratic claim attached to a space-time stopping grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketParams, SteppedPath, StoppingGrid

__all__ = [
    "PayoffSpec",
    "evaluate_payoff",
    "payoff_from_summaries",
    "payoff_on_paths",
    "quadratic_claim",
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


def payoff_from_summaries(spec: PayoffSpec, terminal=None, rise=None, average=None) -> np.ndarray:
    """Payoffs of a batch of paths from per-path summaries.

    terminal: the final value; rise: the running max minus the start value;
    average: the time average.  Each kind reads one summary (lookback_max
    the rise, asian_mean the average, the rest the terminal value); the
    others may be omitted.  Same formulas as `evaluate_payoff`.
    """
    summary = {"lookback_max": rise, "asian_mean": average}.get(spec.kind, terminal)
    if summary is None:
        raise ValueError(f"no path summary given for the {spec.kind} payoff")
    if spec.kind == "lookback_max":
        return np.maximum(rise, 0.0)
    if spec.kind == "asian_mean":
        return np.maximum(average - spec.strike, 0.0)
    return np.asarray(spec.terminal_fn(terminal), dtype=float)


def payoff_on_paths(spec: PayoffSpec, values) -> np.ndarray:
    """Payoffs of a batch of full walk paths, one per row.

    values: (batch, N+1) prices at the breakpoints n/N, n = 0..N, so each
    row is the step path `fundamental_path` builds from N shocks; the time
    average of a row is the mean of its first N values.
    """
    values = np.asarray(values, dtype=float)
    return payoff_from_summaries(
        spec,
        terminal=values[:, -1],
        rise=values.max(axis=1) - values[:, 0],
        average=values[:, :-1].mean(axis=1),
    )


def quadratic_claim(path: SteppedPath, grid: StoppingGrid, params: MarketParams) -> float:
    """Squared frozen-path excursion plus squared stop increments plus
    elapsed stop times."""
    stop_vals = path.value_at(grid.indices / params.n_steps)
    dts = np.diff(grid.indices) / params.n_steps
    dps = np.diff(stop_vals)
    return float(np.max((stop_vals - params.p0) ** 2) + np.sum(dps**2) + np.sum(dts))
