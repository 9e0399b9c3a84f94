"""HJB solver (against the unfused scheme and the fused per-step-clip loop), Bachelier oracle and policy-search MC."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import bachelier_reference, fused_hjb
from impactlab.limits import (
    _DRAW_BLOCK_BYTES,
    _PATH_BLOCK_BYTES,
    HJBGrid,
    LimitProblem,
    MCConfig,
    PolicyFamily,
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


def test_hjb_atm_call_at_601_nodes_to_the_last_bit():
    prob = LimitProblem(payoff=PayoffSpec("call", strike=0.0), penalty_c=1.0 / 24.0, sigma_sq=1.0, nu_sq_max=16.0)
    res = hjb_value(prob, HJBGrid(n_space=601))
    assert repr(res.value) == "0.5725394813243734"
    assert res.cap_fraction == 2.2184753816341518e-05
    assert res.grid["n_time"] == 45001
    assert 0 < res.grid["clipped_steps"] < 45001


def test_hjb_rejects_path_dependent_payoffs():
    prob = LimitProblem(payoff=PayoffSpec("lookback_max"), penalty_c=0.1, sigma_sq=1.0)
    with pytest.raises(ValueError):
        hjb_value(prob)


@pytest.mark.parametrize(
    "name, bad",
    [("p_halfwidth", 0.0), ("p_halfwidth", -1.0), ("p_halfwidth", math.inf), ("p_halfwidth", math.nan),
     ("n_space", 2), ("n_space", 1), ("cap_flag_fraction", math.nan), ("cap_flag_fraction", math.inf)],
)
def test_hjb_grid_rejects_invalid_fields(name, bad):
    # p_halfwidth = 0 once died in hjb_value with an OverflowError, and
    # n_space = 1 with an IndexError
    with pytest.raises(ValueError, match=name):
        HJBGrid(**{name: bad})


def test_int_sigma_solves_as_float_sigma():
    # an int sigma once made the kept control int, and keep_control crashed
    def solve(sigma):
        params = MarketParams(p0=0, sigma=sigma, n_steps=4, depth=1, resilience=1)
        return hjb_value(limit_from_market(params, PayoffSpec("call")), HJBGrid(n_space=101), keep_control=True)

    a, b = solve(1), solve(1.0)
    assert repr(a.value) == repr(b.value) == "0.47882545746821226"
    assert np.array_equal(a.surface, b.surface)
    t = np.linspace(0.0, 1.0, 41)
    p = np.linspace(-3.0, 3.0, 41)
    assert all(np.array_equal(a.control(s, p), b.control(s, p)) for s in t)


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
        dt = 1.0 / n_steps
        stride = (2 * cfg.n_steps) // n_steps
        zz = z[:, : stride * n_steps].reshape(cfg.n_paths, n_steps, stride).sum(axis=2)
        zz /= math.sqrt(stride)
        p = np.full(cfg.n_paths, problem.p0)
        run_max = np.full(cfg.n_paths, problem.p0)
        run_avg = np.zeros(cfg.n_paths)
        penalty = np.zeros(cfg.n_paths)
        for j in range(n_steps):
            a = np.clip(family.variance(theta, j * dt, p), 0.0, problem.nu_sq_max)
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
        (call, hjb_feedback_family(res, scales=(0.8, 1.0, 1.2), sigma_sq=1.0), 32),
        (lookback, constant_family([0.9, 1.1]), 32),
        (asian, constant_family([1.0, 1.2]), 37),  # odd: the coarse run drops the last normals
    ):
        cfg = MCConfig(n_paths=2000, n_steps=n_steps, seed=4)
        assert repr(limit_value_mc(prob, fam, cfg)) == repr(_reference_mc(prob, fam, cfg))


def _feedback_family(scales):
    call = LimitProblem(payoff=PayoffSpec("call", strike=0.2), penalty_c=0.3, sigma_sq=1.0, nu_sq_max=4.0, p0=0.2)
    return hjb_feedback_family(hjb_value(call, HJBGrid(n_space=101), keep_control=True), scales, 1.0)


@pytest.mark.parametrize("n_steps", [2, 32, 37])
@pytest.mark.parametrize("family", ["hjb_feedback", "constant"])
def test_mc_blocks_match_the_single_draw_at_block_edges(n_steps, family):
    prob = LimitProblem(payoff=PayoffSpec("lookback_max"), penalty_c=0.3, sigma_sq=1.0, nu_sq_max=4.0, p0=0.2)
    fam = constant_family([0.9, 1.1]) if family == "constant" else _feedback_family((0.8, 1.2))
    width = _PATH_BLOCK_BYTES // ((n_steps + n_steps // 2) * 8)  # paths per block of fine plus coarse noise
    for n_paths in (1, width - 1, width, width + 1, 2 * width + 3):
        cfg = MCConfig(n_paths=n_paths, n_steps=n_steps, seed=5)
        assert repr(limit_value_mc(prob, fam, cfg)) == repr(_reference_mc(prob, fam, cfg)), n_paths


@pytest.mark.parametrize("family", ["hjb_feedback", "constant"])
def test_mc_theta_rows_do_not_see_each_other(family):
    # each theta's row of the batched run is the run of that theta alone,
    # to the last bit, and so are the winner's error and step-halving bias
    prob = LimitProblem(payoff=PayoffSpec("asian_mean", strike=0.1), penalty_c=0.3, sigma_sq=1.0, p0=0.2)
    make = constant_family if family == "constant" else _feedback_family
    cfg = MCConfig(n_paths=3001, n_steps=33, seed=9)
    out = limit_value_mc(prob, make([0.8, 1.0, 1.2]), cfg)
    for theta in (0.8, 1.0, 1.2):
        alone = limit_value_mc(prob, make([theta]), cfg)
        assert repr(out["all"][theta]) == repr(alone["value"]), theta
        if theta == out["theta"]:
            assert repr((out["std_error"], out["step_halving_bias"])) == repr(
                (alone["std_error"], alone["step_halving_bias"])
            )


def test_control_on_a_price_table_reads_row_by_row():
    res = hjb_value(
        LimitProblem(payoff=PayoffSpec("call", strike=0.0), penalty_c=0.1, sigma_sq=1.0, nu_sq_max=4.0, p0=0.3),
        HJBGrid(n_space=201),
        keep_control=True,
    )
    pa = res.p_axis
    p = np.random.default_rng(2).uniform(pa[0] - 1.0, pa[-1] + 1.0, (3, 517))
    p[1, :201] = pa  # nodes, and flat outside the axis
    for t in (0.0, 0.41, 1.0):
        table = res.control(t, p)
        assert table.shape == p.shape
        assert np.array_equal(table, np.array([res.control(t, row) for row in p]))


def _mc_peak(n_paths, n_steps, thetas):
    prob = LimitProblem(payoff=PayoffSpec("lookback_max"), penalty_c=0.3, sigma_sq=1.0)
    limit_value_mc(prob, constant_family(thetas), MCConfig(n_paths=1, n_steps=2))  # one-time imports
    tracemalloc.start()
    try:
        limit_value_mc(prob, constant_family(thetas), MCConfig(n_paths=n_paths, n_steps=n_steps, seed=1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_holds_the_fine_and_coarse_normals_not_the_whole_draw():
    # one block of noise and the draw buffer, every theta's fine and coarse
    # per-path values, and run state of a few (thetas, block) arrays; the
    # time-major noise of every path would add 1.5 x paths x steps doubles
    n_paths, thetas = 20000, [0.8, 1.0, 1.2]
    block = _PATH_BLOCK_BYTES + _DRAW_BLOCK_BYTES
    peaks = [_mc_peak(n_paths, n_steps, thetas) for n_steps in (64, 256)]
    assert max(peaks) < block + 2 * len(thetas) * n_paths * 8 + 2**20
    # and the peak does not grow with the steps
    assert abs(peaks[0] - peaks[1]) < 2**20


def test_kept_control_is_one_table():
    # the snapshots go straight into their table, with no list of rows
    # copied into it at the end
    prob = LimitProblem(payoff=PayoffSpec("call", strike=0.0), penalty_c=0.1, sigma_sq=1.0, nu_sq_max=4.0)
    grid = HJBGrid(n_space=601)
    tracemalloc.start()
    try:
        hjb_value(prob, grid, keep_control=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 257 * 601 * 8  # at most ~257 snapshots of the 601 nodes
    assert table < peak < 1.5 * table


@pytest.mark.parametrize("name, bad", [("n_paths", 0), ("n_paths", -3), ("n_steps", 1), ("n_steps", 0), ("seed", -1)])
def test_mc_config_rejects_invalid_fields(name, bad):
    # n_steps = 1 once died with a ZeroDivisionError in the coarse run, and
    # n_paths = 0 returned NaNs with RuntimeWarnings
    with pytest.raises(ValueError, match=name):
        MCConfig(**{name: bad})


def test_policy_family_rejects_empty_thetas():
    # once failed on max() of an empty sequence inside limit_value_mc
    with pytest.raises(ValueError, match="thetas"):
        constant_family([])
    with pytest.raises(ValueError, match="thetas"):
        PolicyFamily(name="none", thetas=[], variance=lambda theta, t, p: p)


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
        # one price at a time reads the same bits as the batch
        assert all(res.control(t, pts[i : i + 1])[0] == np.interp(pts[i], pa, row) for i in range(0, len(pts), 50))
    ts = rng.uniform(0.0, 1.0, len(pts))
    assert all(
        res.control(t, pts[i : i + 1])[0] == np.interp(pts[i], pa, res.control(t, pa)) for i, t in enumerate(ts)
    )


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
    # steps whose q leaves the band take the clip; the others skip it
    clipped, n_t = res.grid["clipped_steps"], res.grid["n_time"]
    if nu_sq_max == prob.sigma_sq:
        assert clipped == n_t  # boundary and interior sit at the cap
    if binds is None:
        assert 0 < clipped < n_t  # only the early steps near the kink clip
    bare = hjb_value(prob, grid)  # no snapshot steps forced onto the clip
    assert bare.grid["clipped_steps"] == clipped
    assert bare.surface.tobytes() == res.surface.tobytes()
    assert bare.cap_fraction == res.cap_fraction
    for t in (0.0, 0.37, 0.999):
        it = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 1)
        p = np.array([-1.3, 0.0, 0.02, 2.5])
        assert np.max(np.abs(res.control(t, p) - np.interp(p, res.p_axis, tables[it]))) <= 1e-12


_SWITCH_CASES = [
    (PayoffSpec("call", strike=0.0), 0.5 / 12.0, 16.0, 301),
    (PayoffSpec("put", strike=0.3), 0.2, 4.0, 301),
    (_TENT, 0.05, 4.0, 301),
    (PayoffSpec("call", strike=0.0), 0.01, 1.2, 301),
    (PayoffSpec("call", strike=0.0), 0.1, 1.0, 301),  # a_max = sigma^2: never switches
    (PayoffSpec("call", strike=0.0), 1.0 / 24.0, 16.0, 1201),  # the limit_side solve
]


@pytest.mark.parametrize("spec, c, nu_sq_max, n_space", _SWITCH_CASES)
def test_clip_free_switch_matches_the_fused_loop(spec, c, nu_sq_max, n_space):
    prob = LimitProblem(payoff=spec, penalty_c=c, sigma_sq=1.0, nu_sq_max=nu_sq_max)
    grid = HJBGrid(n_space=n_space)
    res = hjb_value(prob, grid, keep_control=True)
    value, surface, cap_fraction, clipped, last_clipped, times, tables = fused_hjb(prob, grid, keep_control=True)
    assert abs(res.value - value) <= 1e-12
    assert np.max(np.abs(res.surface - surface)) <= 1e-12
    assert res.cap_fraction == cap_fraction
    assert res.grid["clipped_steps"] == clipped
    switch, n_t = res.grid["clip_free_from"], res.grid["n_time"]
    assert last_clipped < switch <= n_t  # no step clips after the switch
    if nu_sq_max == prob.sigma_sq:
        assert switch == n_t  # the band [-sigma^2, a_max - sigma^2) excludes 0
    if spec.kind == "call" and nu_sq_max == 16.0:
        assert switch - last_clipped <= 4  # switches right after the kink stops clipping
    for t in (0.0, 0.37, 0.999):
        it = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 1)
        p = np.array([-1.3, 0.0, 0.02, 2.5])
        assert np.max(np.abs(res.control(t, p) - np.interp(p, res.p_axis, tables[it]))) <= 1e-12
    bare = hjb_value(prob, grid)
    assert bare.surface.tobytes() == res.surface.tobytes()
    assert bare.grid == res.grid and bare.cap_fraction == res.cap_fraction
