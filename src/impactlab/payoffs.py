"""Payoff functionals on price paths and on batches of paths.

A path is the array of its N+1 prices at the trading times n/N.

Built-in payoffs are nonnegative and 1-Lipschitz in the sup norm (hence in
the weaker time-deformation metric used for path regularity).  The module
also provides the quadratic claim attached to a space-time stopping grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketParams

__all__ = [
    "PayoffSpec",
    "evaluate_payoff",
    "payoff_from_summaries",
    "quadratic_claim",
]

# each kind and the one path statistic it reads
_SUMMARY = dict(call="terminal", put="terminal", custom_terminal="terminal", lookback_max="rise", asian_mean="average")


@dataclass(frozen=True)
class PayoffSpec:
    """A payoff functional h and what follows from its kind.

    kind: one of call/put (strike K on the terminal value), lookback_max
    (running max above the start), asian_mean (strike on the time average),
    or custom_terminal (piecewise-linear table on the terminal value,
    extrapolated flat).  The lookback ignores the strike.  The path
    statistic a payoff reads (`summary`), its slopes (`slope_range`) and its
    Lipschitz constant in the sup norm (`lipschitz_l`, the steepest slope)
    all follow from these fields; no other module dispatches on the kind.
    """

    kind: str
    strike: float = 0.0
    table: tuple = ()  # ((p, h(p)), ...) for custom_terminal

    def __post_init__(self):
        if self.kind not in _SUMMARY:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.kind == "custom_terminal":
            if len(self.table) < 2:
                raise ValueError("custom_terminal needs at least two table points")
            pts = np.asarray(self.table, dtype=float)
            if np.any(np.diff(pts[:, 0]) <= 0):
                raise ValueError("table abscissae must be strictly increasing")
            if np.any(pts[:, 1] < 0):
                raise ValueError("payoff table must be nonnegative")

    @property
    def summary(self) -> str:
        """The path statistic the payoff reads: "terminal", "rise" or
        "average" (see `payoff_from_summaries`)."""
        return _SUMMARY[self.kind]

    @property
    def path_dependent(self) -> bool:
        return self.summary != "terminal"

    @property
    def slope_range(self) -> tuple[float, float]:
        """Smallest and largest slope of the payoff in the fundamental price.

        A super-replicating hedge holds positions in this range: [0, 1] for
        the call, the lookback and the asian, [-1, 0] for the put, and the
        table's slopes for custom_terminal, with 0 for its flat extrapolation.
        """
        if self.kind == "put":
            return -1.0, 0.0
        if self.kind == "custom_terminal":
            pts = np.asarray(self.table, dtype=float)
            slopes = np.diff(pts[:, 1]) / np.diff(pts[:, 0])
            return min(0.0, float(slopes.min())), max(0.0, float(slopes.max()))
        return 0.0, 1.0

    @property
    def lipschitz_l(self) -> float:
        """Lipschitz constant in the sup norm: the steepest slope."""
        lo, hi = self.slope_range
        return max(hi, -lo)

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


def evaluate_payoff(spec: PayoffSpec, path: np.ndarray) -> float:
    """Payoff of one full path of N+1 prices; its time average is the mean
    of the first N prices (each holds for 1/N)."""
    return float(
        payoff_from_summaries(spec, terminal=path[-1], rise=path.max() - path[0], average=path[:-1].mean())
    )


def payoff_from_summaries(spec: PayoffSpec, terminal=None, rise=None, average=None) -> np.ndarray:
    """Payoffs of a batch of paths from per-path summaries.

    terminal: the final value; rise: the running max minus the start value;
    average: the time average.  Each payoff reads the one named by its
    `summary`; the others may be omitted.  `evaluate_payoff` reads a single
    path through it.
    """
    value = {"terminal": terminal, "rise": rise, "average": average}[spec.summary]
    if value is None:
        raise ValueError(f"no path summary given for the {spec.kind} payoff")
    if spec.summary == "rise":
        return np.maximum(value, 0.0)
    if spec.summary == "average":
        return np.maximum(value - spec.strike, 0.0)
    return np.asarray(spec.terminal_fn(value), dtype=float)


def quadratic_claim(path: np.ndarray, stops: np.ndarray, params: MarketParams) -> float:
    """Squared frozen-path excursion plus squared stop increments plus
    elapsed stop times, at the stop indices `stops` of `stopping_grid`."""
    stop_vals = path[stops]
    dev = stop_vals - params.p0
    dps = np.diff(stop_vals)
    dts = np.diff(stops) / params.n_steps
    np.square(dev, out=dev)
    np.square(dps, out=dps)
    return float(np.maximum.reduce(dev) + np.add.reduce(dps) + np.add.reduce(dts))
