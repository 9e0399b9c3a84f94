"""Shared test oracles, kept independent of the library's pricing code."""

import math

import numpy as np

from impactlab.market import MarketParams, fundamental_path
from impactlab.payoffs import PayoffSpec, evaluate_payoff


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


def ks_distance_to_normal(samples: np.ndarray, mean: float, std: float) -> float:
    """Kolmogorov-Smirnov distance between the sample law and N(mean, std^2)."""
    x = np.sort(np.asarray(samples, float))
    n = len(x)
    z = (x - mean) / std
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))
