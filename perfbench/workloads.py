"""The benchmark's workloads: inputs from a seed, timed operations, checks.

Each workload is a `setup(root, seed, out_dir)` that builds every input
before the clock starts, and a `run(bench, inputs)` that performs the
operations through `bench.op` and checks each output after its timer has
stopped.  Calls go through module attributes (`cli.run_experiment`,
`market.terminal_wealth`, ...) so a traced pass sees them.  Why each
workload exists, and which layer it stresses, is in perfbench/README.md.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from impactlab import cli, dual, limits, market, payoffs, pricing
from impactlab.payoffs import PayoffSpec

from boundaries import dp_counts

# Outputs that do not depend on the seed, to 6 decimals.  N=8 call price
# and the N=8 best lower bound are the README headline numbers; the HJB
# value at 1201 nodes is the README limit; the rest were computed once from
# the same code and pinned.
REF_CALL = {4: 1.107174, 8: 1.075058}
REF_STUDY_DUAL = {
    (4, "nu=0.8"): 0.289284, (4, "nu=1"): 0.375000, (4, "nu=1.2"): 0.435321,
    (8, "nu=0.8"): 0.301482, (8, "nu=1"): 0.386699, (8, "nu=1.2"): 0.452836,
}
REF_LIMIT = {601: 0.572539, 1201: 0.572548}
REF_LOOKBACK_N8 = 1.306322
REF_EXACT_N12 = {
    "call": {0.8: 0.305559, 1.0: 0.390726, 1.2: 0.458742},
    "lookback_max": {0.8: 0.553915, 1.0: 0.669676, 1.2: 0.760933},
}

NUS = (0.8, 1.0, 1.2)
STUDY_N = "4 8"  # the config's 8 16 32 takes ~55 s a pass, past a run's budget
STUDY_HJB_NODES = 301  # solves at 301 and 601 nodes; limit_side runs 601 and 1201
LOOKBACK_N = 8
CERT_PATHS = 4000
HEDGE_N, HEDGE_PATHS, HEDGE_EPS = 256, 2000, 0.3
EXACT_N, MC_N, MC_DUAL_PATHS = 12, 128, 20000
MC_LIMIT = dict(n_paths=10000, n_steps=128)


def near(value, ref, places=6) -> bool:
    return abs(value - ref) <= 0.5 * 10.0**-places + 1e-12


def load_config(root, seed):
    return cli.ExperimentConfig.load(os.path.join(root, "configs", "call_study.cfg"), seed_override=seed)


# ---------------------------------------------------------------------------
# study: the CLI convergence study, fresh, then served from the store


@dataclass
class StudyInputs:
    config_path: str
    out_dir: str
    store: str
    study_id: str


def setup_study(root, seed, out_dir) -> StudyInputs:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(os.path.join(root, "configs", "call_study.cfg"))
    parser["run"]["n_list"] = STUDY_N
    parser["run"]["seed"] = str(seed)
    parser["hjb"]["n_space"] = str(STUDY_HJB_NODES)
    path = os.path.join(out_dir, "study.cfg")
    with open(path, "w") as fh:
        parser.write(fh)
    cfg = cli.ExperimentConfig.load(path)
    return StudyInputs(
        config_path=path,
        out_dir=out_dir,
        store=os.path.join(out_dir, cfg.get("output", "results")),
        study_id=cfg.get("run", "study_id"),
    )


def run_study(bench, inp: StudyInputs):
    code, rows = bench.op(
        "study.fresh", cli.run_experiment, inp.config_path,
        mode="convergence_study", no_cache=True, out_dir=inp.out_dir,
    )
    bench.check(code == 0, f"fresh study exit code {code}")
    primal = {r.n: r.value for r in rows if r.mode == "primal_dp"}
    bench.check(sorted(primal) == [4, 8], f"primal rows at N={sorted(primal)}")
    for n, ref in REF_CALL.items():
        bench.check(near(primal.get(n, math.nan), ref), f"price N={n}: {primal.get(n)} != {ref}")
    duals = [r for r in rows if r.mode == "dual_bound"]
    bench.check(len(duals) == len(REF_STUDY_DUAL), f"{len(duals)} dual rows")
    for r in duals:
        bench.check(r.flag == "", f"dual row N={r.n} {r.label} not certified")
        bench.check(r.value <= primal.get(r.n, -math.inf), f"dual N={r.n} {r.label} above the price")
        ref = REF_STUDY_DUAL.get((r.n, r.label), math.nan)
        bench.check(near(r.value, ref), f"dual N={r.n} {r.label}: {r.value} != {ref}")
    limit = [r.value for r in rows if r.mode == "limit_hjb"]
    bench.check(len(limit) == 1 and near(limit[0], REF_LIMIT[601]), f"limit rows {limit}")
    with open(inp.store, newline="") as fh:
        written = sum(1 for _ in csv.DictReader(fh))
    bench.check(written == len(rows), f"store holds {written} rows, run returned {len(rows)}")
    bench.note("cli.rows_written", written)

    code, cached = bench.op(
        "study.cached", cli.run_experiment, inp.config_path,
        mode="convergence_study", no_cache=False, out_dir=inp.out_dir,
    )
    bench.check(code == 0, f"cached study exit code {code}")
    bench.check(
        [r.key_fields() for r in cached] == [r.key_fields() for r in rows],
        "cached rows differ from the fresh rows",
    )

    _, records = bench.op("study.table", cli.convergence_table, inp.store, inp.study_id)
    best = {}
    for r in duals:
        best[r.n] = max(best.get(r.n, -math.inf), r.value)
    bench.check([rec["n"] for rec in records] == [4, 8], "table horizons")
    for rec in records:
        n = rec["n"]
        ok = (
            rec["price"] == primal.get(n)
            and rec["lower_bound"] == best.get(n)
            and rec["limit"] == limit[0]
            and rec["gap"] == abs(rec["price"] - rec["limit"])
        )
        bench.check(ok, f"table row N={n} disagrees with the study rows")


# ---------------------------------------------------------------------------
# certify: the upper side -- DP policy replay and the quadratic-claim hedge


@dataclass
class CertifyInputs:
    params: object
    spec: PayoffSpec
    seed: int
    hedge_params: object
    hedge_shocks: np.ndarray


def setup_certify(root, seed, out_dir) -> CertifyInputs:
    cfg = load_config(root, seed)
    base = cfg.market(HEDGE_N)
    r = base.resilience
    # the full-resilience market of the hedge acceptance criterion
    hat = replace(base, resilience=1.0, depth=base.depth * r / (2.0 - r))
    shocks = np.random.default_rng(seed).choice([-1, 1], size=(HEDGE_PATHS, HEDGE_N))
    return CertifyInputs(cfg.market(LOOKBACK_N), PayoffSpec("lookback_max"), seed, hat, shocks)


def _replay_hedge(inp: CertifyInputs):
    lam = pricing.DOOB_LAMBDA_MAX
    hat = inp.hedge_params
    strat = pricing.doob_quadratic_hedge(lam, HEDGE_EPS, hat)
    slack = np.empty(len(inp.hedge_shocks))
    for i, shocks in enumerate(inp.hedge_shocks):
        pos = strat.positions(shocks)
        wealth = strat.meta["capital"] + market.terminal_wealth(pos, shocks, hat)
        path = market.fundamental_path(shocks, hat)
        q = payoffs.quadratic_claim(path, market.stopping_grid(path, HEDGE_EPS, hat), hat)
        slack[i] = wealth - lam * q
    return strat, slack


def run_certify(bench, inp: CertifyInputs):
    res = bench.op("certify.lookback_dp", pricing.superreplication_cost, inp.params, inp.spec, keep_policy=True)
    bench.check(near(res.cost, REF_LOOKBACK_N8), f"lookback price {res.cost} != {REF_LOOKBACK_N8}")
    bench.check(not res.report["flagged"], f"lookback DP flagged: {res.report}")
    if res.policy is None:
        bench.check(False, "no policy kept")
        return
    held = sum(t.nbytes for t in res.policy.tables) / 2**20
    computed = dp_counts(LOOKBACK_N, res.report, True)["policy_mb"]
    bench.check(held == computed, f"policy tables hold {held} MiB, computed {computed}")

    out = bench.op(
        "certify.certificate", pricing.certificate_check, res, inp.params, inp.spec,
        n_paths=CERT_PATHS, seed=inp.seed,
    )
    bench.check(out["paths"] == CERT_PATHS, f"certificate replayed {out['paths']} paths")
    bench.check(out["violations"] == 0, f"{out['violations']} certificate violations")
    bench.check(out["min_margin"] >= -1e-9, f"certificate margin {out['min_margin']}")

    strat, slack = bench.op("certify.hedge_replay", _replay_hedge, inp)
    lam = pricing.DOOB_LAMBDA_MAX
    bench.check(strat.meta["capital"] == lam * (1.0 + 36.0 * inp.hedge_params.sigma**2), "hedge capital")
    bench.check(int(np.count_nonzero(slack < 0)) == 0, f"hedge violated on {int(np.count_nonzero(slack < 0))} paths")


# ---------------------------------------------------------------------------
# limit_side: HJB scaling limit, limit Monte Carlo and dual lower bounds


@dataclass
class LimitInputs:
    call: object
    lookback: object
    grids: dict
    mc: object
    params_exact: object
    params_mc: object
    sigma: float
    seed: int


def setup_limit_side(root, seed, out_dir) -> LimitInputs:
    cfg = load_config(root, seed)
    params = cfg.market(EXACT_N)
    nu_sq_max = cfg.get("hjb", "nu_sq_max") * params.sigma**2
    grids = {
        n: limits.HJBGrid(
            p_halfwidth=cfg.get("hjb", "p_halfwidth"), n_space=n,
            cap_flag_fraction=cfg.get("hjb", "cap_fraction_max"),
        )
        for n in (601, 1201)
    }
    return LimitInputs(
        call=limits.limit_from_market(params, PayoffSpec("call", strike=0.0), nu_sq_max=nu_sq_max),
        lookback=limits.limit_from_market(params, PayoffSpec("lookback_max"), nu_sq_max=nu_sq_max),
        grids=grids,
        mc=limits.MCConfig(seed=seed, **MC_LIMIT),
        params_exact=params,
        params_mc=cfg.market(MC_N),
        sigma=params.sigma,
        seed=seed,
    )


def _bounds(inp: LimitInputs, spec, params, nus):
    return [
        dual.kusuoka_lower_bound(
            dual.constant_profile(nu, inp.sigma), spec, params, n_list=[params.n_steps],
            exact_max_n=EXACT_N, mc_paths=MC_DUAL_PATHS, seed=inp.seed,
        )[0]
        for nu in nus
    ]


def run_limit_side(bench, inp: LimitInputs):
    hjb = {}
    for n, grid in inp.grids.items():
        res = bench.op(f"limit.hjb_n{n}", limits.hjb_value, inp.call, grid, keep_control=True)
        bench.check(near(res.value, REF_LIMIT[n]), f"HJB at {n} nodes: {res.value} != {REF_LIMIT[n]}")
        bench.check(not res.flagged and res.control is not None, f"HJB at {n} nodes flagged or without control")
        hjb[n] = res

    sigma_sq = inp.call.sigma_sq
    out = bench.op(
        "limit.mc_call", limits.limit_value_mc, inp.call,
        limits.hjb_feedback_family(hjb[601], scales=NUS, sigma_sq=sigma_sq), inp.mc,
    )
    # a policy's value is a lower estimate of the limit
    ok = out["theta"] in NUS and out["std_error"] > 0 and out["value"] <= hjb[1201].value + 6 * out["std_error"]
    bench.check(ok, f"limit MC (call) {out['value']} +- {out['std_error']} vs HJB {hjb[1201].value}")
    out = bench.op("limit.mc_lookback", limits.limit_value_mc, inp.lookback, limits.constant_family(NUS), inp.mc)
    ok = out["theta"] in NUS and out["std_error"] > 0 and out["value"] == max(out["all"].values()) > 0
    bench.check(ok, f"limit MC (lookback) {out}")

    for spec in (inp.call.payoff, inp.lookback.payoff):
        rows = bench.op(f"dual.exact_{spec.kind}", _bounds, inp, spec, inp.params_exact, NUS)
        for nu, row in zip(NUS, rows):
            ref = REF_EXACT_N12[spec.kind][nu]
            ok = row["mode"] == "exact" and row["certified"] and near(row["bound"], ref)
            bench.check(ok, f"exact bound {spec.kind} nu={nu}: {row} vs {ref}")
        rows = bench.op(f"dual.mc_{spec.kind}", _bounds, inp, spec, inp.params_mc, NUS[-1:])
        for row in rows:
            ok = row["mode"] == "mc" and row["certified"] and row["std_error"] > 0 and math.isfinite(row["bound"])
            bench.check(ok, f"MC bound {spec.kind}: {row}")


WORKLOADS = {
    "study": (setup_study, run_study),
    "certify": (setup_certify, run_certify),
    "limit_side": (setup_limit_side, run_limit_side),
}
