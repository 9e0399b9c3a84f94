"""Layer boundaries of impactlab, and the per-layer metrics of a traced pass.

Each boundary is a public function wrapped in the namespace of the module
that calls it (for example `impactlab.cli.superreplication_cost`, which is
how the CLI reaches the pricing layer).  A `describe` hook turns the call's
arguments and result into a tag and computed work counts.  Counts are
derived from inputs and result reports, never from timers, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import inspect

from spans import layer_self_times, self_times

LAYERS = ("bench", "cli", "pricing", "market", "payoffs", "dual", "limits")
MIB = float(2**20)


def lattice_sizes(augmentation: str, n: int) -> list[int]:
    """Price-lattice node counts per depth 0..n, counted independently of
    the pricing module: plain levels, or (level, running max) pairs."""
    if augmentation == "none":
        return [d + 1 for d in range(n + 1)]
    if augmentation == "running_max":
        states, sizes = {(0, 0)}, [1]
        for _ in range(n):
            states = {(j + dj, max(a, j + dj)) for j, a in states for dj in (1, -1)}
            sizes.append(len(states))
        return sizes
    raise ValueError(f"no node count for augmentation {augmentation!r}")


def dp_counts(n_steps: int, report: dict, keep_policy: bool) -> dict:
    """Computed DP work: cells minimized (nodes x n_x x n_zeta over depths
    0..N-1) and, when tables are kept, their size over depths 0..N."""
    sizes = lattice_sizes(report["augmentation"], n_steps)
    per_node = report["n_x"] * report["n_zeta"]
    counts = {"cells": sum(sizes[:-1]) * per_node}
    counts["policy_mb"] = sum(sizes) * per_node * 8 / MIB if keep_policy else 0.0
    return counts


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _describe_dp(fn):
    bind = _binder(fn)

    def describe(args, kwargs, res):
        a = bind(args, kwargs)
        n = a["params"].n_steps
        counts = dp_counts(n, res.report, a["keep_policy"])
        counts["boundary_hits"] = res.report["boundary_hits"]
        counts["max_interp_residual"] = res.report["max_interp_residual"]
        return f"{a['spec'].kind.split('_')[0]}_N{n}", counts

    return describe


def _describe_dual(fn):
    bind = _binder(fn)

    def describe(args, kwargs, rows):
        a = bind(args, kwargs)
        paths = mc_bytes = 0
        for row in rows:
            if row["mode"] == "exact":
                paths += 2 ** row["n"]
            else:
                paths += a["mc_paths"]
                mc_bytes += a["mc_paths"] * row["n"] * 8  # the (paths, N) tilt array
        modes = sorted({row["mode"] for row in rows})
        counts = {
            "paths": paths,
            "mc_mb": mc_bytes / MIB,
            "rows": len(rows),
            "certified": sum(bool(row["certified"]) for row in rows),
        }
        return "+".join(modes), counts

    return describe


def _describe_hjb(fn):
    def describe(args, kwargs, res):
        g = res.grid
        return f"n{g['n_space']}", {"node_steps": g["n_space"] * g["n_time"], "cap_fraction": res.cap_fraction}

    return describe


def _describe_mc(fn):
    bind = _binder(fn)

    def describe(args, kwargs, out):
        a = bind(args, kwargs)
        cfg, family = a["cfg"], a["family"]
        # every theta at n_steps, then the winner again at n_steps // 2
        steps = cfg.n_steps * len(family.thetas) + cfg.n_steps // 2
        return family.name, {"path_steps": cfg.n_paths * steps, "step_halving_bias": out["step_halving_bias"]}

    return describe


def _describe_certificate(fn):
    bind = _binder(fn)

    def describe(args, kwargs, out):
        a = bind(args, kwargs)
        counts = dict(out)
        counts["path_steps"] = out["paths"] * a["params"].n_steps
        return "", counts

    return describe


def _describe_run_experiment(fn):
    bind = _binder(fn)

    def describe(args, kwargs, result):
        return ("fresh" if bind(args, kwargs)["no_cache"] else "cached"), {}

    return describe


def targets():
    """(owner, attribute, span name, describe) for every wrapped boundary."""
    from impactlab import cli, dual, limits, market, payoffs, pricing

    table = [
        (cli, "run_experiment", "cli.run_experiment", _describe_run_experiment),
        (cli, "convergence_table", "cli.convergence_table", None),
        (cli, "superreplication_cost", "pricing.superreplication_cost", _describe_dp),
        (cli, "kusuoka_lower_bound", "dual.kusuoka_lower_bound", _describe_dual),
        (cli, "hjb_value", "limits.hjb_value", _describe_hjb),
        (cli, "limit_value_mc", "limits.limit_value_mc", _describe_mc),
        (pricing, "superreplication_cost", "pricing.superreplication_cost", _describe_dp),
        (pricing, "certificate_check", "pricing.certificate_check", _describe_certificate),
        (pricing.Strategy, "positions", "pricing.strategy_positions", None),
        (pricing, "fundamental_path", "market.fundamental_path", None),
        (pricing, "stopping_grid", "market.stopping_grid", None),
        (market, "fundamental_path", "market.fundamental_path", None),
        (market, "stopping_grid", "market.stopping_grid", None),
        (market, "terminal_wealth", "market.terminal_wealth", None),
        (payoffs, "quadratic_claim", "payoffs.quadratic_claim", None),
        (dual, "kusuoka_lower_bound", "dual.kusuoka_lower_bound", _describe_dual),
        (dual, "evaluate_payoff", "payoffs.evaluate_payoff", None),
        (dual, "fundamental_path", "market.fundamental_path", None),
        (limits, "hjb_value", "limits.hjb_value", _describe_hjb),
        (limits, "limit_value_mc", "limits.limit_value_mc", _describe_mc),
    ]
    return [
        (owner, attr, name, make(getattr(owner, attr)) if make else None)
        for owner, attr, name, make in table
    ]


# Counts that must repeat exactly across passes and runs.
COMPUTED = (
    "pricing.dp.cells",
    "pricing.dp.policy_mb",
    "pricing.certificate_check.paths",
    "limits.hjb.node_steps",
    "limits.mc.path_steps",
    "dual.paths",
    "dual.mc_mb",
)

DP_CASES = ("call_N4", "call_N8", "lookback_N8")
HJB_SIZES = (301, 601, 1201)


def summarize(spans, notes: dict) -> dict:
    """Per-layer metrics of one traced pass.

    Root spans are the benchmark's timed operations, so the layer self
    times sum to the pass's traced wall time.  Metrics of a layer that the
    workload never calls read 0.
    """
    own = self_times(spans)
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total(name, tag=None):
        return sum(s.duration for s in named.get(name, ()) if tag is None or s.tag == tag)

    def calls(name):
        return len(named.get(name, ()))

    def counted(name, key, reduce=sum):
        vals = [s.counts[key] for s in named.get(name, ()) if key in s.counts]
        return reduce(vals) if vals else 0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    runs = named.get("cli.run_experiment", [])
    fresh = [s for s in runs if s.tag == "fresh"]
    cached = [s for s in runs if s.tag == "cached"]
    # a re-run served from the store calls no solver
    computed_under = {s.parent for s in spans if s.layer in ("pricing", "dual", "limits")}
    served = [s for s in cached if s.id not in computed_under]
    m["cli.run_experiment.fresh_s"] = sum(s.duration for s in fresh)
    m["cli.run_experiment.cached_s"] = sum(s.duration for s in cached)
    m["cli.self_s"] = sum(own[s.id] for s in fresh)
    m["cli.convergence_table_s"] = total("cli.convergence_table")
    m["cli.cache_hit_ratio"] = ratio(len(served), len(cached))
    m["cli.rows_written"] = notes.get("cli.rows_written", 0)

    dp = "pricing.superreplication_cost"
    for case in DP_CASES:
        m[f"{dp}.{case}.s"] = total(dp, case)
    m["pricing.dp.cells"] = counted(dp, "cells")
    m["pricing.dp.ns_per_cell"] = ratio(total(dp), m["pricing.dp.cells"], 1e9)
    m["pricing.dp.policy_mb"] = counted(dp, "policy_mb")
    m["pricing.dp.boundary_hits"] = counted(dp, "boundary_hits")
    m["pricing.dp.max_interp_residual"] = counted(dp, "max_interp_residual", max)
    cc = "pricing.certificate_check"
    m[f"{cc}.s"] = total(cc)
    m[f"{cc}.paths"] = counted(cc, "paths")
    m[f"{cc}.us_per_path_step"] = ratio(total(cc), counted(cc, "path_steps"), 1e6)
    m[f"{cc}.min_margin"] = counted(cc, "min_margin", min)
    m[f"{cc}.violations"] = counted(cc, "violations")
    m["pricing.strategy_positions.s"] = total("pricing.strategy_positions")

    for name in ("market.fundamental_path", "market.stopping_grid", "market.terminal_wealth",
                 "payoffs.quadratic_claim", "payoffs.evaluate_payoff"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)

    kb = "dual.kusuoka_lower_bound"
    m[f"{kb}.exact_s"] = total(kb, "exact")
    m[f"{kb}.mc_s"] = total(kb, "mc")
    m["dual.paths"] = counted(kb, "paths")
    m["dual.us_per_path"] = ratio(total(kb), m["dual.paths"], 1e6)
    m["dual.mc_mb"] = counted(kb, "mc_mb")
    m["dual.certified_ratio"] = ratio(counted(kb, "certified"), counted(kb, "rows"))

    hv = "limits.hjb_value"
    for n in HJB_SIZES:
        m[f"{hv}.n{n}.s"] = total(hv, f"n{n}")
    m["limits.hjb.node_steps"] = counted(hv, "node_steps")
    m["limits.hjb.ns_per_node_step"] = ratio(total(hv), m["limits.hjb.node_steps"], 1e9)
    m["limits.hjb.cap_fraction"] = counted(hv, "cap_fraction", max)
    mc = "limits.limit_value_mc"
    m[f"{mc}.s"] = total(mc)
    m["limits.mc.path_steps"] = counted(mc, "path_steps")
    m["limits.mc.step_halving_bias"] = counted(mc, "step_halving_bias", lambda v: max(abs(x) for x in v))

    layers = layer_self_times(spans)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layers.get(layer, 0.0)
    return m
