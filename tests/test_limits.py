"""HJB solver (against the unfused scheme), Bachelier oracle and policy-search MC."""

import math

import numpy as np
import pytest

from impactlab.limits import (
    HJBGrid,
    LimitProblem,
    MCConfig,
    bachelier_reference,
    constant_family,
    hjb_feedback_family,
    hjb_value,
    limit_from_market,
    limit_value_mc,
    penalty_weight,
)
from impactlab.market import MarketParams
from impactlab.payoffs import PayoffSpec, payoff_from_summaries

ATM = 1.0 / math.sqrt(2.0 * math.pi)


def test_bachelier_closed_form_values():
    assert bachelier_reference("call", 0.0, 0.0, 1.0, 1.0) == pytest.approx(ATM, rel=1e-12)
    deep = bachelier_reference("call", 10.0, 0.0, 1.0, 1.0)
    assert deep == pytest.approx(10.0, abs=1e-6)
    call = bachelier_reference("call", 0.3, 0.1, 0.7, 2.0)
    put = bachelier_reference("put", 0.3, 0.1, 0.7, 2.0)
    assert call - put == pytest.approx(0.2, abs=1e-12)


def test_penalty_weight_formula():
    p = MarketParams(p0=0.0, sigma=1.0, n_steps=8, depth=1.0, resilience=0.5)
    assert penalty_weight(p) == pytest.approx(0.5 / (8.0 * 1.5))


def test_hjb_constant_payoff_is_fixed_point():
    spec = PayoffSpec("custom_terminal", table=((-50.0, 3.0), (50.0, 3.0)))
    prob = LimitProblem(payoff=spec, penalty_c=0.5, sigma_sq=1.0, nu_sq_max=4.0)
    res = hjb_value(prob, HJBGrid(n_space=201))
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_hjb_zero_payoff_is_zero():
    spec = PayoffSpec("call", strike=60.0)  # zero on the whole domain
    prob = LimitProblem(payoff=spec, penalty_c=0.3, sigma_sq=1.0, nu_sq_max=4.0)
    res = hjb_value(prob, HJBGrid(n_space=201))
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_hjb_huge_penalty_recovers_bachelier():
    spec = PayoffSpec("call", strike=0.0)
    prob = LimitProblem(payoff=spec, penalty_c=1e6, sigma_sq=1.0, nu_sq_max=2.0)
    res = hjb_value(prob, HJBGrid(n_space=401))
    assert res.cap_fraction == 0.0
    assert abs(res.value - ATM) / ATM < 5e-3


def test_hjb_monotone_in_penalty_and_payoff():
    spec = PayoffSpec("call", strike=0.0)
    vals = [
        hjb_value(
            LimitProblem(payoff=spec, penalty_c=c, sigma_sq=1.0, nu_sq_max=4.0),
            HJBGrid(n_space=201),
        ).value
        for c in (0.05, 0.2, 1.0, 5.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    bigger = PayoffSpec("custom_terminal", table=((-50.0, 1.0), (0.0, 1.0), (50.0, 51.0)))
    v_big = hjb_value(
        LimitProblem(payoff=bigger, penalty_c=0.2, sigma_sq=1.0, nu_sq_max=4.0),
        HJBGrid(n_space=201),
    ).value
    v_small = hjb_value(
        LimitProblem(payoff=spec, penalty_c=0.2, sigma_sq=1.0, nu_sq_max=4.0),
        HJBGrid(n_space=201),
    ).value
    assert v_big >= v_small  # pointwise larger terminal payoff


def test_hjb_value_dominates_reference_vol_value():
    spec = PayoffSpec("call", strike=0.0)
    prob = LimitProblem(payoff=spec, penalty_c=0.1, sigma_sq=1.0, nu_sq_max=4.0)
    res = hjb_value(prob, HJBGrid(n_space=301))
    assert res.value >= ATM - 1e-3


def test_hjb_rejects_path_dependent_payoffs():
    prob = LimitProblem(payoff=PayoffSpec("lookback_max"), penalty_c=0.1, sigma_sq=1.0)
    with pytest.raises(ValueError):
        hjb_value(prob)


def test_hjb_rejects_unstable_time_grid():
    prob = LimitProblem(payoff=PayoffSpec("call"), penalty_c=0.1, sigma_sq=1.0, nu_sq_max=4.0)
    with pytest.raises(ValueError):
        hjb_value(prob, HJBGrid(n_space=401, n_time=10))


def test_pointwise_optimizer_matches_scan():
    rng = np.random.default_rng(2)
    c, s2, a_max = 0.37, 1.3, 6.0
    a_grid = np.linspace(0.0, a_max, 20001)
    for vpp in rng.normal(scale=5.0, size=25):
        a_star = np.clip(s2 + vpp / (4.0 * c), 0.0, a_max)
        scan = a_grid[np.argmax(0.5 * a_grid * vpp - c * (a_grid - s2) ** 2)]
        assert abs(a_star - scan) <= a_max / 20000 + 1e-9


def test_limit_from_market_carries_endowment():
    p = MarketParams(
        p0=2.0, sigma=1.0, n_steps=8, depth=1.0, resilience=0.5, perm_impact=0.4, x0=1.5
    )
    prob = limit_from_market(p, PayoffSpec("call", strike=2.0))
    assert prob.endowment == pytest.approx(2.0 * 1.5 + 0.5 * 0.4 * 1.5**2)
    assert prob.penalty_c == pytest.approx(penalty_weight(p))


def test_mc_constant_family_matches_bachelier():
    spec = PayoffSpec("call", strike=0.0)
    prob = LimitProblem(payoff=spec, penalty_c=1e6, sigma_sq=1.0, nu_sq_max=2.0)
    out = limit_value_mc(prob, constant_family([1.0]), MCConfig(n_paths=40000, n_steps=64, seed=7))
    assert abs(out["value"] - ATM) <= 3.0 * out["std_error"] + 5e-3


def test_mc_zero_payoff_prefers_reference_vol():
    spec = PayoffSpec("call", strike=60.0)
    prob = LimitProblem(payoff=spec, penalty_c=0.5, sigma_sq=1.0, nu_sq_max=4.0)
    out = limit_value_mc(
        prob, constant_family([0.8, 1.0, 1.2]), MCConfig(n_paths=4000, n_steps=32, seed=3)
    )
    assert out["theta"] == 1.0
    assert out["value"] == pytest.approx(0.0, abs=1e-9)


def test_mc_with_hjb_feedback_approaches_hjb_value():
    spec = PayoffSpec("call", strike=0.0)
    prob = LimitProblem(payoff=spec, penalty_c=1.0, sigma_sq=1.0, nu_sq_max=4.0)
    res = hjb_value(prob, HJBGrid(n_space=401), keep_control=True)
    fam = hjb_feedback_family(res, scales=(0.8, 1.0, 1.2), sigma_sq=1.0)
    out = limit_value_mc(prob, fam, MCConfig(n_paths=40000, n_steps=128, seed=11))
    assert out["value"] <= res.value + 2.0 * out["std_error"]
    assert abs(out["value"] - res.value) / res.value < 0.02


def _reference_mc(problem, family, cfg):
    """Policy-search MC with the normals aggregated per theta and read
    column by column: the oracle for `limit_value_mc`'s shared rows."""
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((cfg.n_paths, 2 * cfg.n_steps))

    def run(theta, n_steps):
        feedback = family.builder(theta)
        dt = 1.0 / n_steps
        stride = (2 * cfg.n_steps) // n_steps
        zz = z[:, : stride * n_steps].reshape(cfg.n_paths, n_steps, stride).sum(axis=2)
        zz /= math.sqrt(stride)
        p = np.full(cfg.n_paths, problem.p0)
        run_max = np.full(cfg.n_paths, problem.p0)
        run_avg = np.zeros(cfg.n_paths)
        penalty = np.zeros(cfg.n_paths)
        for j in range(n_steps):
            a = np.clip(feedback(j * dt, p, run_max, run_avg), 0.0, problem.nu_sq_max)
            penalty += problem.penalty_c * (a - problem.sigma_sq) ** 2 * dt
            run_avg += p * dt
            p = p + np.sqrt(a * dt) * zz[:, j]
            run_max = np.maximum(run_max, p)
        h = payoff_from_summaries(problem.payoff, terminal=p, rise=run_max - problem.p0, average=run_avg)
        vals = h - penalty
        return float(np.mean(vals)), float(np.std(vals) / math.sqrt(cfg.n_paths))

    results = {theta: run(theta, cfg.n_steps) for theta in family.thetas}
    best = max(results, key=lambda th: results[th][0])
    est, se = results[best]
    return {
        "value": est - problem.endowment,
        "std_error": se,
        "theta": best,
        "family": family.name,
        "step_halving_bias": est - run(best, cfg.n_steps // 2)[0],
        "all": {th: v[0] - problem.endowment for th, v in results.items()},
    }


def test_mc_matches_per_theta_noise_loop():
    call = LimitProblem(payoff=PayoffSpec("call", strike=0.0), penalty_c=0.3, sigma_sq=1.0, nu_sq_max=4.0, p0=0.2)
    res = hjb_value(call, HJBGrid(n_space=201), keep_control=True)
    lookback = LimitProblem(payoff=PayoffSpec("lookback_max"), penalty_c=0.3, sigma_sq=1.0)
    asian = LimitProblem(payoff=PayoffSpec("asian_mean", strike=0.1), penalty_c=0.3, sigma_sq=1.0, endowment=0.05)
    for prob, fam, n_steps in (
        (call, hjb_feedback_family(res, scales=(0.8, 1.0, 1.2)), 32),
        (lookback, constant_family([0.9, 1.1]), 32),
        (asian, constant_family([1.0, 1.2]), 37),  # odd: the coarse run drops the last normals
    ):
        cfg = MCConfig(n_paths=2000, n_steps=n_steps, seed=4)
        assert repr(limit_value_mc(prob, fam, cfg)) == repr(_reference_mc(prob, fam, cfg))


def test_control_reads_like_np_interp_to_the_last_bit():
    prob = LimitProblem(payoff=PayoffSpec("call", strike=0.0), penalty_c=0.1, sigma_sq=1.0, nu_sq_max=4.0, p0=0.3)
    grid = HJBGrid(n_space=201)
    res = hjb_value(prob, grid, keep_control=True)
    _, _, _, times, tables = _reference_hjb(prob, grid)
    pa = res.p_axis
    rng = np.random.default_rng(8)
    pts = np.concatenate([
        rng.uniform(pa[0] - 1.0, pa[-1] + 1.0, 2000), pa, np.nextafter(pa, -np.inf), np.nextafter(pa, np.inf),
        [pa[0] - 50.0, pa[-1] + 50.0],
    ])
    for t in (0.0, 0.37, 0.999, 1.0):
        row = res.control(t, pa)  # np.interp reads a node's own value
        it = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 1)
        assert np.max(np.abs(row - tables[it])) <= 1e-12
        assert np.array_equal(res.control(t, pts), np.interp(pts, pa, row))
        assert all(res.control(t, float(q)) == float(np.interp(q, pa, row)) for q in pts[::50])
    ts = rng.uniform(0.0, 1.0, len(pts))
    expect = np.array([np.interp(q, pa, res.control(t, pa)) for t, q in zip(ts, pts)])
    assert np.array_equal(res.control(ts, pts), expect)


def _reference_hjb(problem, grid):
    """The unfused explicit scheme, one fresh temporary per operation: the
    oracle for the in-place step of `hjb_value`.  Same grid, time step and
    control snapshots."""
    c = problem.penalty_c
    s2 = problem.sigma_sq
    a_max = problem.nu_sq_max
    half = grid.p_halfwidth * math.sqrt(s2)
    n_sp = grid.n_space if grid.n_space % 2 == 1 else grid.n_space + 1
    p_ax = problem.p0 + np.linspace(-half, half, n_sp)
    dp = p_ax[1] - p_ax[0]
    n_t = int(math.ceil(1.0 / (0.5 * dp * dp / a_max)))
    dt = 1.0 / n_t

    v = np.asarray(problem.payoff.terminal_fn(p_ax), dtype=float)
    cap_hits = 0
    stride = max(1, n_t // 256)
    snaps = []
    for step in range(n_t):
        vpp = np.zeros_like(v)
        vpp[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dp * dp)
        a_star = np.clip(s2 + vpp / (4.0 * c), 0.0, a_max)
        cap_hits += int(np.count_nonzero(a_star >= a_max * (1.0 - 1e-12)))
        ham = 0.5 * a_star * vpp - c * (a_star - s2) ** 2
        v = v + dt * ham
        if step % stride == 0:
            snaps.append((1.0 - (step + 1) * dt, a_star.copy()))
    value = float(np.interp(problem.p0, p_ax, v)) - problem.endowment
    times = np.array([t for t, _ in snaps][::-1])
    tables = np.array([a for _, a in snaps][::-1])
    return value, v, cap_hits / (n_t * n_sp), times, tables


_TENT = PayoffSpec("custom_terminal", table=((-8.0, 0.0), (0.0, 2.0), (8.0, 0.0)))


@pytest.mark.parametrize(
    "spec, c, nu_sq_max, binds",
    [
        (PayoffSpec("call", strike=0.0), 0.5 / 12.0, 16.0, None),
        (PayoffSpec("put", strike=0.3), 0.2, 4.0, None),
        (_TENT, 0.05, 4.0, "floor"),  # concave kink: a* clipped to 0
        (PayoffSpec("call", strike=0.0), 0.01, 1.2, "cap"),
        (PayoffSpec("call", strike=0.0), 0.1, 1.0, "cap"),  # a_max = sigma^2
    ],
)
def test_hjb_step_matches_unfused_scheme(spec, c, nu_sq_max, binds):
    prob = LimitProblem(payoff=spec, penalty_c=c, sigma_sq=1.0, nu_sq_max=nu_sq_max)
    grid = HJBGrid(n_space=301)
    res = hjb_value(prob, grid, keep_control=True)
    value, surface, cap_fraction, times, tables = _reference_hjb(prob, grid)
    assert abs(res.value - value) <= 1e-12
    assert np.max(np.abs(res.surface - surface)) <= 1e-12
    assert res.cap_fraction == cap_fraction
    if binds == "cap":
        assert cap_fraction > 0.0
    if binds == "floor":
        assert tables.min() == 0.0
    for t in (0.0, 0.37, 0.999):
        it = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 1)
        for p in (-1.3, 0.0, 0.02, 2.5):
            assert abs(res.control(t, p) - float(np.interp(p, res.p_axis, tables[it]))) <= 1e-12
