"""Minimax DP, brute-force oracle and the explicit hedging strategies."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    REPLAY_EPSILONS,
    REPLAY_N,
    REPLAY_RESILIENCE,
    all_paths,
    brute_force_cost,
    crr_price,
    interp_weights,
    level_aux_lattice,
    payoff_on_paths,
    replay_shocks,
    stopping_indices_loop,
)
from impactlab.market import MarketParams, fundamental_path, spread_step, stopping_grid, terminal_wealth, trade_cost
from impactlab.payoffs import PayoffSpec, quadratic_claim
from impactlab.pricing import (
    DOOB_LAMBDA_MAX,
    GOLDEN_STEPS,
    DPGrids,
    Strategy,
    certificate_check,
    doob_quadratic_hedge,
    superreplication_cost,
)
from impactlab import pricing
from impactlab.cli import ExperimentConfig
from impactlab.pricing import _bracket, _branches, _golden_min, _refine, _scan, _spread_cells


def mk(n=2, **kw):
    base = dict(p0=0.0, sigma=1.0, n_steps=n, depth=1.0, resilience=0.5)
    base.update(kw)
    return MarketParams(**base)


SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs", "call_study.cfg")
PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
ABS_CALL = PayoffSpec("custom_terminal", table=((-8.0, 8.0), (0.0, 0.0), (8.0, 8.0)))
# one payoff of every kind, for the lattice tests
LATTICE_SPECS = [
    PayoffSpec("call", strike=0.1), PayoffSpec("put", strike=-0.2), PayoffSpec("lookback_max"),
    PayoffSpec("asian_mean", strike=0.1), ABS_CALL,
]


def test_price_n1_no_hedge_possible():
    # |p(1)| pays 1 on both branches; trading can only add cost.
    for iota, delta in ((0.0, 1.0), (0.1, 0.5)):
        p = mk(n=1, perm_impact=iota, depth=delta)
        res = superreplication_cost(p, ABS_CALL)
        assert res.cost == pytest.approx(1.0, abs=1e-9)
        bf = brute_force_cost(p, ABS_CALL, np.linspace(-2, 2, 21))
        assert bf == pytest.approx(1.0, abs=1e-9)


def test_price_n2_frictionless_call_matches_crr():
    p = mk(n=2, sigma=np.sqrt(2.0))
    spec = PayoffSpec("call", strike=0.0)
    res = superreplication_cost(p.frictionless(), spec)
    assert res.cost == pytest.approx(0.5, abs=1e-3)
    bf = brute_force_cost(p.frictionless(), spec, np.linspace(-2, 2, 81))
    assert bf == pytest.approx(0.5, abs=1e-9)
    assert crr_price(p, spec) == pytest.approx(0.5)


def test_price_n2_with_costs_between_crr_and_bruteforce():
    p = mk(n=2, sigma=np.sqrt(2.0), depth=1.0, resilience=0.5)
    spec = PayoffSpec("call", strike=0.0)
    grid = np.linspace(-2.0, 2.0, 41)
    bf = brute_force_cost(p, spec, grid)
    res = superreplication_cost(
        p, spec, DPGrids(x_grid=grid, n_zeta=120, refine=False)
    )
    # bounded by the frictionless price below and the no-trade price above
    assert 0.5 <= bf <= 2.0
    assert res.cost == pytest.approx(bf, abs=max(res.report["max_interp_residual"], 1e-3))


def test_bruteforce_zero_payoff_costs_nothing():
    p = mk(n=2)
    spec = PayoffSpec("call", strike=50.0)  # worthless on every path
    assert brute_force_cost(p, spec, np.linspace(-1, 1, 5)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("delta,r,iota", [(0.5, 0.5, 0.0), (2.0, 1.0, 0.1), (0.5, 1.0, 0.0)])
def test_dp_matches_bruteforce_small_instances(delta, r, iota):
    p = mk(n=2, depth=delta, resilience=r, perm_impact=iota)
    spec = PayoffSpec("call", strike=0.0)
    grid = np.linspace(-2.0, 2.0, 41)
    bf = brute_force_cost(p, spec, grid)
    res = superreplication_cost(p, spec, DPGrids(x_grid=grid, n_zeta=120, refine=False))
    assert res.cost == pytest.approx(bf, abs=max(res.report["max_interp_residual"], 1e-3))


def test_refinement_never_increases_cost():
    # resilience 1 collapses the spread axis to a single node
    cases = [
        (mk(n=4), PayoffSpec("call", strike=0.0)),
        (mk(n=4), PayoffSpec("lookback_max")),
        (mk(n=4, resilience=1.0), PayoffSpec("call", strike=0.0)),
    ]
    for p, spec in cases:
        coarse = superreplication_cost(p, spec, DPGrids(refine=False))
        fine = superreplication_cost(p, spec, DPGrids(refine=True))
        assert fine.cost <= coarse.cost + 1e-12
        # the continuous minimizer lives within one grid cell of the scan's
        assert coarse.cost - fine.cost <= 0.25


def test_headline_prices_default_grids():
    call = PayoffSpec("call", strike=0.0)
    for n, spec, ref in ((4, call, 1.107174), (8, call, 1.075058), (8, PayoffSpec("lookback_max"), 1.306322)):
        res = superreplication_cost(mk(n=n), spec)
        assert round(res.cost, 6) == ref
        assert res.report["boundary_hits"] == 0


def test_headline_lookback_n16_default_grids():
    # a horizon the (level, running max) lattice solve could not afford
    res = superreplication_cost(mk(n=16), PayoffSpec("lookback_max"))
    assert round(res.cost, 6) == 1.405037
    assert res.report["boundary_hits"] == 0


def test_golden_min_one_evaluation_per_step():
    targets = np.array([-0.7, 0.0, 0.3, 0.999])
    calls = []

    def objective(x):
        calls.append(1)
        return (x - targets) ** 2

    lo, hi = np.full(4, -1.0), np.full(4, 1.0)
    value, mid = _golden_min(objective, lo, hi)
    assert len(calls) == GOLDEN_STEPS + 2
    # the final bracket is no wider than after 30 ternary steps
    assert np.all(np.abs(mid - targets) <= 0.5 * (2.0 / 3.0) ** 30 * (hi - lo))
    assert np.array_equal(value, (mid - targets) ** 2)


def test_one_step_objective_convex_along_controls():
    # Scan a control slice by pricing with a singleton-augmented grid; the
    # brute-force one-step values along X' must be convex for a convex payoff.
    p = mk(n=1, depth=0.8, resilience=0.6, perm_impact=0.05)
    spec = PayoffSpec("call", strike=0.0)
    xs = np.linspace(-1.5, 1.5, 61)
    vals = np.array([brute_force_cost(p, spec, [x]) for x in xs])
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-9)
    # golden-section style minimizer within one cell of the grid minimizer
    j = int(np.argmin(vals))
    assert vals[max(j - 1, 0)] >= vals[j] <= vals[min(j + 1, len(xs) - 1)]


def test_dp_monotone_in_payoff_and_depth():
    spec_small = PayoffSpec("call", strike=0.2)
    spec_big = PayoffSpec("call", strike=0.0)  # pointwise dominates
    p = mk(n=4)
    c_small = superreplication_cost(p, spec_small).cost
    c_big = superreplication_cost(p, spec_big).cost
    assert c_big >= c_small - 1e-9
    deep = superreplication_cost(mk(n=4, depth=4.0), spec_big).cost
    shallow = superreplication_cost(mk(n=4, depth=0.5), spec_big).cost
    assert deep <= shallow + 1e-9


def test_domination_by_full_resilience_model():
    # Transient costs are dominated by the purely temporary model with
    # depth r*delta/(2-r); prices must order the same way.
    spec = PayoffSpec("call", strike=0.0)
    for r, delta in [(0.3, 0.5), (0.7, 2.0)]:
        p = mk(n=4, depth=delta, resilience=r)
        hat = replace(p, resilience=1.0, depth=r * delta / (2.0 - r))
        cost = superreplication_cost(p, spec).cost
        hat_cost = superreplication_cost(hat, spec).cost
        assert cost <= hat_cost + 2e-3


def test_certificate_exhaustive_small_tree():
    p = mk(n=6)
    spec = PayoffSpec("call", strike=0.0)
    res = superreplication_cost(p, spec, DPGrids(n_zeta=60), keep_policy=True)
    out = certificate_check(res, p, spec)
    assert out["paths"] == 64
    assert out["min_margin"] >= -5e-3


def test_certificate_sampled_lookback():
    p = mk(n=10)
    spec = PayoffSpec("lookback_max")
    res = superreplication_cost(p, spec, keep_policy=True)
    out = certificate_check(res, p, spec, n_paths=2000, seed=4)
    assert out["min_margin"] >= -5e-3
    assert out["violations"] == 0


def test_certificate_exhaustive_lookback():
    p = mk(n=6)
    spec = PayoffSpec("lookback_max")
    res = superreplication_cost(p, spec, keep_policy=True)
    out = certificate_check(res, p, spec)
    assert out["paths"] == 64 and out["violations"] == 0


@pytest.mark.parametrize("kind", ["call", "lookback_max"])
@pytest.mark.parametrize("frictionless", [False, True])
def test_certificate_with_permanent_impact(kind, frictionless):
    # -iota x^2/2 is concave in the position: left in the tables, their
    # interpolation priced below what the policy needs
    spec = PayoffSpec(kind)
    for iota in (0.1, 0.5, 1.0):
        p = mk(n=6, perm_impact=iota)
        if frictionless:
            p = p.frictionless()
        res = superreplication_cost(p, spec, keep_policy=True)
        out = certificate_check(res, p, spec)
        assert out["paths"] == 64 and out["violations"] == 0


def test_frictionless_dp_has_one_spread_node():
    # the frictionless copy of a market with memory and a standing spread:
    # full resilience leaves the spread axis one node, and the replay in the
    # same market certifies the price
    call = PayoffSpec("call", strike=0.0)
    p = mk(n=6, resilience=0.5, zeta0=0.3, x0=0.2).frictionless()
    res = superreplication_cost(p, call, keep_policy=True)
    assert res.report["n_zeta"] == 1
    out = certificate_check(res, p, call)
    assert out["paths"] == 64 and out["violations"] == 0


def test_spread_axis_too_short_to_measure_is_flagged():
    # below full resilience the residual needs three spread nodes: a
    # two-node axis reads 0 there, while its replay fails on most paths
    call, p = PayoffSpec("call", strike=0.1), mk(n=4)
    res = superreplication_cost(p, call, DPGrids(n_zeta=2), keep_policy=True)
    assert res.report["n_zeta"] == 2 and res.report["max_interp_residual"] == 0.0
    assert res.report["flagged"] and certificate_check(res, p, call)["violations"] > 0
    # so is a one-node axis that a trade's spread cannot reach
    assert superreplication_cost(p, call, DPGrids(n_zeta=1)).report["flagged"]
    # the default axis, and the one node of full resilience, stay unflagged
    assert not superreplication_cost(p, call).report["flagged"]
    full = superreplication_cost(mk(n=4, resilience=1.0), call, DPGrids(n_zeta=2))
    assert full.report["n_zeta"] == 1 and not full.report["flagged"]


def test_spread_axis_ends_at_the_widest_spread():
    # the top is zm, the spread the widest trade leaves, at every axis size:
    # with one positive node too, where geomspace would give its low end
    call = PayoffSpec("call", strike=0.1)
    for p in (mk(n=4), mk(n=4, zeta0=0.123), mk(n=4, x0=0.37, zeta0=0.123, resilience=0.2)):
        zm = p.zeta0 + 2.0 * max(2.0, abs(p.x0)) / (p.depth * p.resilience)
        for n_zeta in (2, 3, 4, 5):
            zg = DPGrids(n_zeta=n_zeta).zeta_axis(call, p)
            assert zg[0] == 0.0 and zg[-1] == zm and np.all(np.diff(zg) > 0.0), (p, n_zeta)
            assert len(zg) == n_zeta + (p.zeta0 > 0.0), (p, n_zeta)  # an off-grid zeta0 is inserted


def test_replay_in_another_market_is_refused():
    # a kept policy certifies only the market it was priced in: replayed with
    # another sigma or N it would report a "certificate" of a price computed
    # elsewhere, and with another r it would fail on most paths
    call = PayoffSpec("call", strike=0.0)
    p = mk(n=6)
    res = superreplication_cost(p, call, keep_policy=True)
    out = certificate_check(res, p, call)
    assert out["paths"] == 64 and out["violations"] == 0
    assert certificate_check(res, replace(p), call) == out  # an equal copy is the same market
    for other in (replace(p, sigma=1.5), replace(p, n_steps=4), replace(p, resilience=0.2), replace(p, n_steps=8)):
        with pytest.raises(ValueError, match="priced in"):
            certificate_check(res, other, call)
    # the frictionless copy is a market of its own, both ways round
    free = superreplication_cost(p.frictionless(), call, keep_policy=True)
    assert certificate_check(free, p.frictionless(), call)["violations"] == 0
    with pytest.raises(ValueError, match="priced in"):
        certificate_check(free, p, call)
    with pytest.raises(ValueError, match="priced in"):
        certificate_check(res, p.frictionless(), call)


def test_permanent_impact_is_paid_at_the_root():
    # Every plan ends flat, so its permanent legs sum to -iota x0^2/2.
    call = PayoffSpec("call", strike=0.0)
    grid = np.linspace(-1.0, 1.0, 9)
    p = mk(n=2, x0=0.37, zeta0=0.1, perm_impact=0.8)
    free = replace(p, perm_impact=0.0)
    shift = 0.5 * p.perm_impact * p.x0**2
    assert brute_force_cost(p, call, grid) == pytest.approx(brute_force_cost(free, call, grid) - shift, abs=1e-12)
    res = superreplication_cost(p, call, keep_policy=True)
    assert res.cost == superreplication_cost(free, call).cost - shift
    out = certificate_check(res, p, call)
    assert out["violations"] == 0


def test_zeta_axis_without_position_span():
    # x0 = zeta0 = 0 and a one-node position axis: no trade, no spread
    p = mk(n=2)
    grids = DPGrids(x_grid=[0.0])
    assert np.array_equal(grids.zeta_axis(PayoffSpec("call"), p), [0.0])
    res = superreplication_cost(p, PayoffSpec("call", strike=0.0), grids)
    assert res.cost == pytest.approx(math.sqrt(2.0), abs=1e-12)


AXIS_SPECS = [
    PayoffSpec("call", strike=0.1),
    PayoffSpec("put", strike=0.1),
    PayoffSpec("lookback_max"),
    PayoffSpec("asian_mean", strike=0.1),
    ABS_CALL,
]
STEEP = PayoffSpec("custom_terminal", table=((-8.0, 0.0), (0.0, 0.0), (8.0, 24.0)), lipschitz_l=3.0)


def _full_x_nodes(spec, n_x=81):
    """The default position nodes before the axis is sized to the payoff."""
    xm = 2.0 * max(1.0, spec.lipschitz_l)
    return np.linspace(-xm, xm, n_x)


def _full_zeta_axis(spec, p, n_zeta=48):
    """The default spread axis, its top set by the whole [-2L, 2L] span."""
    span = 2.0 * float(np.max(np.abs(np.union1d(_full_x_nodes(spec), [0.0, p.x0]))))
    zm = p.zeta0 + span / (p.depth * p.resilience)
    g = np.concatenate([[0.0], np.geomspace(max(zm * 2e-4, 1e-12), zm, n_zeta - 1)])
    return np.union1d(g, [p.zeta0])


@pytest.mark.parametrize("spec", AXIS_SPECS + [STEEP], ids=lambda spec: f"{spec.kind}-{spec.lipschitz_l:g}")
def test_payoff_sized_axis_shape(spec):
    slope_lo, slope_hi = spec.slope_range
    assert slope_lo <= 0.0 <= slope_hi
    cases = ((81, 0.0), (81, 0.37), (81, slope_hi + 0.83), (81, slope_lo - 0.61), (5, 0.0), (41, -0.123))
    for n_x, x0 in cases:
        p = mk(n=4, x0=x0, zeta0=0.05)
        full = _full_x_nodes(spec, n_x)
        xg = DPGrids(n_x=n_x).x_axis(spec, p)
        assert np.all(np.isin(xg, np.union1d(full, [0.0, x0])))  # kept nodes keep their bits
        # reaches half a unit beyond the slope range stretched to x0, or the
        # end of today's nodes, and no node further
        lo, hi = min(slope_lo, x0), max(slope_hi, x0)
        assert xg[0] <= max(lo - 0.5, full[0]) and xg[-1] >= min(hi + 0.5, full[-1])
        nodes = xg[np.isin(xg, full)]
        assert nodes[1] > lo - 0.5 and nodes[-2] < hi + 0.5
        assert np.array_equal(nodes, full[(full >= nodes[0]) & (full <= nodes[-1])])
        zg = DPGrids().zeta_axis(spec, p)
        assert zg.tobytes() == _full_zeta_axis(spec, p).tobytes()
    call = PayoffSpec("call")
    assert np.array_equal(DPGrids(n_x=5).x_axis(call, mk()), [-1.0, 0.0, 1.0, 2.0])
    xg = DPGrids().x_axis(call, mk())
    assert len(xg) == 41 and xg[0] == -0.5 and xg[-1] == 1.5
    # an explicit grid is used whole
    assert len(DPGrids(x_grid=_full_x_nodes(call)).x_axis(call, mk())) == 81


def _assert_same_price(narrow, full):
    assert repr(narrow.cost) == repr(full.cost)
    residuals = ("n_x", "max_interp_residual", "x_kink_residual")
    assert {k: v for k, v in narrow.report.items() if k not in residuals} == {
        k: v for k, v in full.report.items() if k not in residuals
    }
    assert narrow.report["boundary_hits"] == 0
    assert narrow.report["n_x"] < full.report["n_x"]


def test_payoff_sized_axis_prices_as_the_full_axis():
    endowed = dict(x0=0.37, zeta0=0.123, perm_impact=0.1)
    for spec in AXIS_SPECS:
        lo, hi = spec.slope_range
        full = DPGrids(x_grid=_full_x_nodes(spec))
        runs = [(mk(n=4, resilience=r, **kw), {}) for r in (0.3, 0.5, 1.0) for kw in ({}, endowed)]
        runs.append((mk(n=6, **endowed), {}))
        # an endowment outside the slope range may be sold down over several periods
        runs += [(mk(n=4, resilience=r, x0=x0), {}) for r in (0.3, 0.5) for x0 in (hi + 0.83, lo - 0.61)]
        runs.append((mk(n=4, **endowed).frictionless(), {}))
        for p, kw in runs:
            _assert_same_price(superreplication_cost(p, spec, **kw), superreplication_cost(p, spec, full, **kw))


def test_steep_table_prices_on_its_declared_axis():
    # slope 3 needs lipschitz_l = 3; its [-6, 6] nodes then cover [0, 3]
    p = mk(n=4)
    res = superreplication_cost(p, STEEP)
    assert res.report["boundary_hits"] == 0
    full = superreplication_cost(p, STEEP, DPGrids(x_grid=_full_x_nodes(STEEP)))
    assert repr(res.cost) == repr(full.cost) == "5.060555555555557"
    # residuals are measured on the nodes a hedge visits, [-0.6, 3.6]; the
    # full axis's others would raise the spread residual to 0.141 and flag
    # the run
    assert full.report["n_x"] > res.report["n_x"]
    for key in ("max_interp_residual", "x_kink_residual", "flagged"):
        assert full.report[key] == res.report[key]
    assert 0.05 < res.report["max_interp_residual"] < 0.1 and not res.report["flagged"]


def test_payoff_sized_axis_certifies_as_the_full_axis():
    call, lookback = PayoffSpec("call", strike=0.0), PayoffSpec("lookback_max")
    for p, spec, kw in ((mk(n=6), call, {}), (mk(n=8), lookback, {"n_paths": 4000, "seed": 7})):
        narrow = superreplication_cost(p, spec, keep_policy=True)
        full = superreplication_cost(p, spec, DPGrids(x_grid=_full_x_nodes(spec)), keep_policy=True)
        _assert_same_price(narrow, full)
        mine, theirs = certificate_check(narrow, p, spec, **kw), certificate_check(full, p, spec, **kw)
        assert mine["violations"] == theirs["violations"] == 0
        assert repr(mine["min_margin"]) == repr(theirs["min_margin"])


def test_certificate_counts_repeated_paths():
    # Too little cash: every sampled path fails, repeats included.
    p = mk(n=8)
    spec = PayoffSpec("lookback_max")
    res = superreplication_cost(p, spec, DPGrids(n_x=41), keep_policy=True)
    short = replace(res, cost=res.cost - 10.0)
    out = certificate_check(short, p, spec, n_paths=4000, seed=7)
    drawn = np.random.default_rng(7).choice([-1, 1], size=(4000, 8))
    assert out["distinct"] == len(np.unique(drawn, axis=0)) < 4000
    assert out["paths"] == out["violations"] == 4000
    assert out["min_margin"] < -9.0
    assert certificate_check(res, p, spec)["distinct"] == 2**8


def _cell_points(grid, lo, hi, rng):
    """Random points, nodes and their float neighbours in [lo, hi]."""
    nodes = grid[(grid >= lo) & (grid <= hi)]
    pts = np.concatenate([
        rng.uniform(lo, hi, 200), nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf), [lo, hi],
    ])
    return pts[(pts >= lo) & (pts <= hi)]


def test_bracket_cells_match_binary_search():
    rng = np.random.default_rng(5)
    grids = [
        DPGrids().x_axis(PayoffSpec("call"), mk(x0=0.3137)),  # off-grid x0: one short cell
        np.array([-1.0, 0.0, 2.0]),
        np.array([-1.0, -0.5, 0.0, 3.0]),
        np.linspace(-2.0, 2.0, 9),
    ]
    for xg in grids:
        n_x = len(xg)
        for j in range(n_x):
            lo, hi, cells = _bracket(xg, np.array([j]))
            pts = _cell_points(xg, lo[0], hi[0], rng)
            k, w = cells(pts)
            k_ref, w_ref = interp_weights(xg, pts)
            # golden-section search never evaluates the upper end; there the
            # cell below at weight 1 gives the oracle's interpolant
            top = (pts == hi[0]) & (k_ref == k + 1)
            assert np.array_equal(k[~top], k_ref[~top]) and np.array_equal(w[~top], w_ref[~top])
            assert np.all(w[top] == 1.0) and np.all(w_ref[top] == 0.0)


def test_spread_cells_match_binary_search():
    rng = np.random.default_rng(6)
    call = PayoffSpec("call")
    base = DPGrids().zeta_axis(call, mk())
    cases = [
        (DPGrids(), mk()),
        (DPGrids(), mk(zeta0=0.0123)),  # off-grid zeta0
        (DPGrids(), mk(zeta0=float(np.nextafter(base[7], np.inf)))),  # a hair above a node
        (DPGrids(), mk(zeta0=1e-9)),  # below the geometric part
        (DPGrids(n_zeta=1), mk(zeta0=0.4)),
        (DPGrids(n_zeta=2), mk()),
        (DPGrids(n_zeta=3), mk(zeta0=0.05)),
        (DPGrids(n_zeta=3), mk()),
    ]
    axes = [g.zeta_axis(call, p) for g, p in cases] + [
        DPGrids().zeta_axis(call, mk(zeta0=0.4).frictionless()),
        # a last node far past the geometric part
        np.union1d(np.concatenate([[0.0], np.geomspace(0.7 * 2e-4, 0.7, 8)]), [2.5]),
    ]
    assert {len(zg) for zg in axes} == {1, 2, 3, 4, 10, 48, 49}
    for zg in axes:
        pts = np.concatenate([[0.0, 2.0 * zg[-1], 1e3], _cell_points(zg, 0.0, 1.5 * zg[-1] + 1.0, rng)])
        k, w = _spread_cells(zg)(pts)
        k_ref, w_ref = interp_weights(zg, pts)
        assert np.array_equal(k, k_ref) and np.array_equal(w, w_ref)


def _oracle_bracket(xg, j):
    lo, hi, _ = _bracket(xg, j)
    return lo, hi, lambda x: interp_weights(xg, x)


def _oracle_lookups(monkeypatch):
    """Put binary search back in place of the arithmetic cell lookups."""
    monkeypatch.setattr(pricing, "_spread_cells", lambda zg: lambda z: interp_weights(zg, z))
    monkeypatch.setattr(pricing, "_bracket", _oracle_bracket)


def test_dp_matches_binary_search_lookups(monkeypatch):
    # a coarser position axis keeps the run short; the spread axis is the
    # default one
    grids = DPGrids(n_x=41)
    runs = []
    for kind in ("call", "put", "lookback_max", "asian_mean"):
        spec = PayoffSpec(kind, strike=0.1 if kind != "lookback_max" else 0.0)
        for r in (0.3, 0.5, 1.0):
            runs.append((mk(n=4, resilience=r), spec, {"grids": grids}))
        off = mk(n=4, x0=0.37, zeta0=0.123, perm_impact=0.1)
        runs.append((off, spec, {"grids": grids}))
        runs.append((off, spec, {"grids": DPGrids(x_grid=np.linspace(-1.5, 1.5, 13))}))
        runs.append((off.frictionless(), spec, {"grids": grids}))

    def price_all():
        return [repr((r.cost, r.report)) for r in (superreplication_cost(p, s, **kw) for p, s, kw in runs)]

    fast = price_all()
    _oracle_lookups(monkeypatch)
    assert price_all() == fast


def test_certificate_matches_binary_search_lookups(monkeypatch):
    call, lookback = PayoffSpec("call", strike=0.0), PayoffSpec("lookback_max")
    p6, p8, p12 = mk(n=6), mk(n=8), mk(n=12)
    checks = [
        (superreplication_cost(p6, call, DPGrids(n_zeta=60), keep_policy=True), p6, call, {}),
        (superreplication_cost(p12, call, keep_policy=True), p12, call, {"n_paths": 3000, "seed": 5}),
    ]
    res8 = superreplication_cost(p8, lookback, keep_policy=True)
    checks += [(res8, p8, lookback, {"n_paths": 4000, "seed": seed}) for seed in (7, 123)]

    def replay_all():
        return [repr(certificate_check(res, p, spec, **kw)) for res, p, spec, kw in checks]

    fast = replay_all()
    _oracle_lookups(monkeypatch)
    assert replay_all() == fast


def _key_of(kind, n, d, j, a):
    """A lattice state's group key at depth d and the lifts on its way."""
    if kind == "lookback_max":
        return a - j, a
    if kind == "asian_mean":
        return a + (n - d) * j, 0
    return j, 0


def _oracle_rows(spec, p, kept):
    """Per depth, the row of `kept` (a split of the library's groups) that
    each (level, aux) state of the oracle lattice maps to, through its group
    key and its lifts."""
    groups, oracle = pricing._grouped_lattice(spec, p), level_aux_lattice(spec, p)
    rows = []
    for d, (states, split) in enumerate(zip(oracle.states, kept.states)):
        key, lifts = np.array([_key_of(spec.kind, p.n_steps, d, j, a) for j, a in states]).T
        index = {(g, m): i for i, (g, m) in enumerate(split.tolist())}
        pairs = zip(np.searchsorted(groups.states[d], key).tolist(), lifts.tolist())
        rows.append(np.array([index[pair] for pair in pairs]))
    return rows


def _assert_same_solve(grouped, ungrouped, rows, tol=1e-12):
    """`rows` maps each of the ungrouped policy's states to its row of the
    grouped policy (`_oracle_rows`)."""
    assert grouped.cost == pytest.approx(ungrouped.cost, abs=tol)
    close = ("max_interp_residual", "x_kink_residual")
    for key, value in ungrouped.report.items():
        if key == "boundary_hits":
            # counted on the DP's own states: groups, or lattice states
            assert (grouped.report[key] > 0) == (value > 0) and grouped.report[key] <= value
            continue
        expected = pytest.approx(value, abs=tol) if key in close else value
        assert grouped.report[key] == expected, key
    assert len(grouped.policy.tables) == len(ungrouped.policy.tables) == len(rows)
    for mine, theirs, r in zip(grouped.policy.tables, ungrouped.policy.tables, rows):
        assert mine[r].shape == theirs.shape
        assert np.max(np.abs(mine[r] - theirs)) <= tol
    assert np.max(np.abs(grouped.policy.lattice.payoff[rows[-1]] - ungrouped.policy.lattice.payoff)) <= tol


@pytest.mark.parametrize(
    "spec", [PayoffSpec("lookback_max"), PayoffSpec("asian_mean", strike=0.1)], ids=lambda spec: spec.kind
)
def test_grouped_solve_matches_the_ungrouped_lattice(monkeypatch, spec):
    grids = DPGrids(n_x=41)
    runs = [(mk(n=n), {"grids": grids}) for n in (1, 2, 3, 4, 7, 10)]
    runs += [(mk(n=5, resilience=r), {"grids": grids}) for r in (0.3, 0.5, 1.0)]
    off = mk(n=5, p0=0.3, x0=0.37, zeta0=0.123, perm_impact=0.1)
    runs += [
        (off, {"grids": grids}),
        (off.frictionless(), {"grids": grids}),
        (off, {"grids": DPGrids(x_grid=np.linspace(-1.5, 1.5, 13))}),
        # a binding position bound: boundary hits on both sides
        (off, {"grids": DPGrids(x_grid=np.linspace(-0.4, 0.4, 9))}),
    ]

    def solve_all():
        return [superreplication_cost(p, spec, keep_policy=True, **kw) for p, kw in runs]

    grouped = solve_all()
    assert grouped[-1].report["boundary_hits"] > 0
    rows = [_oracle_rows(spec, p, res.policy.lattice) for (p, _), res in zip(runs, grouped)]
    # the (level, aux) lattice: every state its own group, with no lift
    monkeypatch.setattr(pricing, "_grouped_lattice", level_aux_lattice)
    for mine, theirs, r in zip(grouped, solve_all(), rows):
        _assert_same_solve(mine, theirs, r)


def test_kept_asian_policy_runs_past_the_running_sum_lattice():
    # a kept policy lives on the Z groups, so no horizon caps it: at N = 26
    # the (level, running sum) states would number far more
    p, spec = mk(n=26), PayoffSpec("asian_mean", strike=0.1)
    res = superreplication_cost(p, spec, DPGrids(n_x=9, n_zeta=4), keep_policy=True)
    sizes = [len(t) for t in res.policy.tables]
    assert sizes == [len(keys) for keys in pricing._grouped_lattice(spec, p).states] and sum(sizes) == 4973
    assert certificate_check(res, p, spec, n_paths=200, seed=3)["paths"] == 200
    assert repr(_first_decision(res.policy, p)) == repr(_root_value(res.policy, p))


@pytest.mark.parametrize("spec", LATTICE_SPECS, ids=lambda spec: spec.kind)
def test_groups_are_a_quotient_of_the_lattice(spec):
    for n in range(1, 11):
        p = mk(n=n, p0=0.3, sigma=1.3)
        lat, groups = level_aux_lattice(spec, p), pricing._grouped_lattice(spec, p)
        for d, states in enumerate(lat.states):
            keys = groups.states[d]
            got = [_key_of(spec.kind, n, d, j, a) for j, a in states]
            assert {k for k, _ in got} == set(keys.tolist()) and np.all(np.diff(keys) > 0)
            g = np.searchsorted(keys, [k for k, _ in got])
            if d == n:
                lifts = np.array([m for _, m in got])
                assert np.allclose(lat.payoff, groups.payoff[g] + p.step_vol * lifts, rtol=0, atol=1e-12)
                continue
            for i, (gi, (_, m)) in enumerate(zip(g, got)):
                kids = (lat.states[d + 1][c] for c in (lat.up[d][i], lat.dn[d][i]))
                (ku, mu), (kd, md) = (_key_of(spec.kind, n, d + 1, *kid) for kid in kids)
                nxt = groups.states[d + 1]
                assert nxt[groups.up[d][gi]] == ku and nxt[groups.dn[d][gi]] == kd
                assert groups.lift[d][gi] == (mu - m) and md == m
    # Z groups the asian far tighter than its (level, running sum) states
    asian = PayoffSpec("asian_mean")
    totals = [sum(map(len, pricing._grouped_lattice(asian, mk(n=n)).states)) for n in (8, 16, 24, 32)]
    assert totals == [136, 1108, 3881, 9453]


@pytest.mark.parametrize("spec", LATTICE_SPECS, ids=lambda spec: spec.kind)
def test_kept_states_split_the_groups_by_lifts(monkeypatch, spec):
    monkeypatch.syspath_prepend(PERFBENCH)
    from boundaries import lattice_sizes

    for n in range(1, 11):
        p = mk(n=n, p0=0.3, sigma=1.3)
        groups, oracle = pricing._grouped_lattice(spec, p), level_aux_lattice(spec, p)
        kept = pricing._build_lattice(spec, p, "auto")
        rows = _oracle_rows(spec, p, kept)
        for d, split in enumerate(kept.states):
            g, m = split.T
            if spec.kind == "lookback_max":
                # one to one onto the (level, running max) states
                assert sorted(rows[d].tolist()) == list(range(len(split)))
            else:
                # no lift: the kept states are the groups, in their order
                assert np.array_equal(g, np.arange(len(groups.states[d]))) and not m.any()
            if spec.kind != "asian_mean":
                assert np.array_equal(kept.prices[d][rows[d]], oracle.prices[d])
            if d < n:
                # the children are the groups' children, a lift adding one
                assert not kept.lift[d].any()
                nxt = kept.states[d + 1]
                assert np.array_equal(nxt[kept.up[d]], np.stack([groups.up[d][g], m + groups.lift[d][g]], axis=1))
                assert np.array_equal(nxt[kept.dn[d]], np.stack([groups.dn[d][g], m], axis=1))
        if spec.kind == "lookback_max":
            assert [len(split) for split in kept.states] == lattice_sizes("running_max", n)
            assert np.array_equal(kept.payoff[rows[n]], oracle.payoff)
        else:
            assert np.array_equal(kept.payoff, groups.payoff)


def _first_decision(pol, p):
    """The replay's first minimization at the root's (x0, zeta0): the DP's
    scan, and its refinement where the DP refined."""
    xg, z_cells = pol.x_axis, _spread_cells(pol.zeta_axis)
    dp = replace(p, perm_impact=0.0)
    node, x, zeta = np.zeros(1, dtype=int), np.full(1, p.x0), np.full(1, p.zeta0)
    up, dn = pol.lattice.up[0], pol.lattice.dn[0]
    up_t, dn_t = _branches(pol.tables[1], up, dn, pol.lattice.lift[0], p.step_vol * xg[:, None], p.step_vol)
    value, best_j = _scan(up_t, dn_t, node, lambda j: z_cells(spread_step(zeta, xg[j] - x, dp)), x, zeta, xg, dp)
    if pol.refine:
        refined, _ = _refine(up_t, dn_t, node, x, zeta, _bracket(xg, best_j), z_cells, dp)
        value = np.minimum(value, refined)
    return float(value[0])


def _root_value(pol, p):
    ix0, iz0 = np.flatnonzero(pol.x_axis == p.x0)[0], np.flatnonzero(pol.zeta_axis == p.zeta0)[0]
    return float(pol.tables[0][0, ix0, iz0])


def test_replay_first_decision_is_the_dp_root_value(monkeypatch):
    # (x0, zeta0) is a grid state, since both are axis nodes: there the
    # replay's first minimization, the DP's scan (and refinement, where the
    # DP refined) at one path's state, is the DP's root value to the bit;
    # the replay of a scan-only DP prices and trades at grid nodes only
    markets = [mk(n=4, resilience=r) for r in (0.3, 0.5, 1.0)] + [mk(n=4, x0=0.37, zeta0=0.123, perm_impact=0.1)]
    positions = []

    def recorded(price, x, y, zeta, params):
        positions.append(np.ravel(y))
        return trade_cost(price, x, y, zeta, params)

    for kind in ("call", "put", "lookback_max", "asian_mean"):
        spec = PayoffSpec(kind, strike=0.1 if kind != "lookback_max" else 0.0)
        for p in markets:
            for grids in (DPGrids(), DPGrids(refine=False)):
                res = superreplication_cost(p, spec, grids, keep_policy=True)
                assert res.policy.refine == grids.refine
                assert repr(_first_decision(res.policy, p)) == repr(_root_value(res.policy, p)), (kind, p, grids)
                if not grids.refine:
                    positions.clear()
                    with monkeypatch.context() as m:
                        m.setattr(pricing, "trade_cost", recorded)
                        certificate_check(res, p, spec)
                    assert np.isin(np.concatenate(positions), res.policy.x_axis).all(), (kind, p)


def test_certify_inputs_certify_at_many_seeds():
    # the benchmark's certify replay: the shipped market's lookback at N = 8,
    # 4000 sampled paths, at seeds other than the one it happens to run
    p = ExperimentConfig.load(SHIPPED).market(8)
    spec = PayoffSpec("lookback_max")
    res = superreplication_cost(p, spec, keep_policy=True)
    for seed in range(1, 21):
        out = certificate_check(res, p, spec, n_paths=4000, seed=seed)
        assert out["paths"] == 4000 and out["violations"] == 0 and out["min_margin"] >= 0.0, seed


def test_wealth_with_liquidation_matches_manual():
    # The pricers' convention: trade m at P_{m-1}, then close the residual
    # at P_N one period later, paying the once-more decayed spread.
    p = mk(n=3, depth=2.0, resilience=0.4, perm_impact=0.3, x0=0.5, xi0=1.0)
    shocks = [1, -1, 1]
    pos = np.array([0.9, -0.3, 0.7])
    base = terminal_wealth(pos, shocks, p)
    prices = fundamental_path(shocks, p)
    z = p.zeta0
    decay = 1 - p.resilience
    for dx in np.abs(np.diff(np.concatenate([[p.x0], pos]))):
        z = decay * z + dx / p.depth
    liq_cost = (decay * z + 0.7 / (2 * p.depth)) * 0.7
    expected = base + prices[-1] * 0.7 + 0.5 * p.perm_impact * 0.7**2 - liq_cost

    x, zeta, cash = p.x0, p.zeta0, p.xi0
    for price, x_new in zip(prices, np.append(pos, 0.0)):
        cash -= trade_cost(price, x, x_new, zeta, p)
        zeta = spread_step(zeta, x_new - x, p)
        x = x_new
    assert cash == pytest.approx(expected, abs=1e-12)


# -- quadratic-claim hedge ---------------------------------------------------


def test_doob_hedge_zero_lambda_is_trivial():
    p = mk(n=16)
    strat = doob_quadratic_hedge(0.0, 0.4, p)
    assert strat.meta["capital"] == 0.0
    assert np.all(strat.positions(np.tile([1, -1], 8)) == 0.0)


def test_doob_hedge_rejects_bad_inputs():
    p = mk(n=16)
    with pytest.raises(ValueError):
        doob_quadratic_hedge(DOOB_LAMBDA_MAX * 2, 0.4, p)
    with pytest.raises(ValueError):
        doob_quadratic_hedge(1e-4, 0.4, mk(n=16, x0=1.0))


def test_doob_hedge_capital_charge_formula():
    sigma = 1.3
    p = mk(n=16, sigma=sigma)
    lam = DOOB_LAMBDA_MAX
    strat = doob_quadratic_hedge(lam, 0.4, p)
    assert strat.meta["capital"] == pytest.approx(lam * (1 + 36 * sigma**2))
    assert (strat.meta["b"], strat.meta["d"], strat.meta["e"]) == (8 * lam, 4 * lam, 36 * lam)


def _doob_positions_loop(strat, shocks, params):
    """Hedge positions by a loop over the stop intervals (the oracle for
    the vectorized plan)."""
    b, d, e = strat.meta["b"], strat.meta["d"], strat.meta["e"]
    n = params.n_steps
    prices = fundamental_path(shocks, params)
    p0 = params.p0
    pos = np.zeros(n)
    run_max = 0.0
    run_min = 0.0  # max of (p0 - P_tau_i), i.e. depth below the start
    idx = stopping_indices_loop(prices, strat.meta["epsilon"], params)
    for k in range(1, len(idx)):
        lo, hi = idx[k - 1], idx[k]
        anchor = prices[lo] - p0
        run_max = max(run_max, anchor)
        run_min = max(run_min, -anchor)
        base = -b * run_max + b * run_min - d * anchor
        pos[lo:hi] = base + e * (prices[lo:hi] - p0)
    return pos


def test_doob_hedge_positions_match_stop_interval_loop():
    rng = np.random.default_rng(37)
    for r in REPLAY_RESILIENCE:
        for n in REPLAY_N:
            p = mk(n=n, resilience=r, depth=1.0 / 3.0, p0=0.25)
            for eps in REPLAY_EPSILONS:
                strat = doob_quadratic_hedge(DOOB_LAMBDA_MAX, eps, p)
                for shocks in replay_shocks(n, rng):
                    oracle = _doob_positions_loop(strat, shocks, p)
                    assert repr(strat.positions(shocks).tolist()) == repr(oracle.tolist())


def test_doob_hedge_dominates_quadratic_claim_exhaustive():
    # Full-resilience market (the domination target model), small tree.
    n = 12
    hat = mk(n=n, resilience=1.0, depth=1.0 * 0.5 / 1.5)
    lam, eps = DOOB_LAMBDA_MAX, 0.5
    strat = doob_quadratic_hedge(lam, eps, hat)
    worst = np.inf
    for shocks in all_paths(n):
        pos = strat.positions(shocks)
        wealth = strat.meta["capital"] + terminal_wealth(pos, shocks, hat)
        path = fundamental_path(shocks, hat)
        q = quadratic_claim(path, stopping_grid(path, eps, hat), hat)
        worst = min(worst, wealth - lam * q)
    assert worst >= 0.0


def test_doob_hedge_dominates_quadratic_claim_sampled():
    n = 256
    hat = mk(n=n, resilience=1.0, depth=1.0 / 3.0)
    lam, eps = DOOB_LAMBDA_MAX, 0.3
    strat = doob_quadratic_hedge(lam, eps, hat)
    rng = np.random.default_rng(11)
    for _ in range(300):
        shocks = rng.choice([-1, 1], size=n)
        pos = strat.positions(shocks)
        wealth = strat.meta["capital"] + terminal_wealth(pos, shocks, hat)
        path = fundamental_path(shocks, hat)
        q = quadratic_claim(path, stopping_grid(path, eps, hat), hat)
        assert wealth >= lam * q


def test_strategy_positions_reject_non_flat_plan():
    flat = Strategy(n_steps=4, vector_fn=lambda s: np.append(np.cumsum(s[:-1]) * 0.1, 0.0))
    assert flat.positions([1, 1, -1, 1])[-1] == 0.0
    held = Strategy(n_steps=4, vector_fn=lambda s: np.cumsum(s) * 0.1)
    with pytest.raises(AssertionError, match="end flat"):
        held.positions([1, 1, -1, 1])


# -- path-dependent lattices ---------------------------------------------------


def _aux_after(kind, j, a, jj):
    """The aux of a state at level jj reached from (j, a), by the payoff's
    definition: the running max, the sum of the levels before each move,
    or nothing for a terminal payoff."""
    if kind == "lookback_max":
        return max(a, jj)
    if kind == "asian_mean":
        return a + j
    return 0


@pytest.mark.parametrize("spec", LATTICE_SPECS, ids=lambda spec: spec.kind)
def test_lattice_states_children_prices_and_payoffs(spec):
    for n in range(1, 11):
        p = mk(n=n, p0=0.3, sigma=1.3)
        s = p.step_vol
        lattice = level_aux_lattice(spec, p)
        assert len(lattice.states) == len(lattice.prices) == n + 1 and len(lattice.up) == len(lattice.dn) == n
        for d, states in enumerate(lattice.states):
            # the states of depth d are exactly those some d-step path reaches
            reached = set()
            for shocks in all_paths(d):
                levels = np.concatenate([[0], np.cumsum(shocks)])
                aux = 0
                for j, jj in zip(levels[:-1], levels[1:]):
                    aux = _aux_after(spec.kind, j, aux, jj)
                reached.add((int(levels[-1]), int(aux)))
            rows = {tuple(map(int, row)) for row in states}
            assert rows == reached and len(states) == len(rows)
            assert np.array_equal(lattice.prices[d], p.p0 + s * states[:, 0])
            if not spec.path_dependent:
                assert lattice.prices[d].tobytes() == (p.p0 + s * (2.0 * np.arange(d + 1) - d)).tobytes()
            if d < n:
                for (j, a), u, w in zip(states, lattice.up[d], lattice.dn[d]):
                    assert tuple(lattice.states[d + 1][u]) == (j + 1, _aux_after(spec.kind, j, a, j + 1))
                    assert tuple(lattice.states[d + 1][w]) == (j - 1, _aux_after(spec.kind, j, a, j - 1))
        # walked through up/dn, every path ends at a node paying its payoff
        shocks = all_paths(n)
        node = np.zeros(len(shocks), dtype=np.int64)
        for d in range(n):
            node = np.where(shocks[:, d] == 1, lattice.up[d][node], lattice.dn[d][node])
        paths = np.array([fundamental_path(row, p) for row in shocks])
        np.testing.assert_allclose(lattice.payoff[node], payoff_on_paths(spec, paths), rtol=0, atol=1e-12)


def test_asian_dp_frictionless_matches_path_average_oracle():
    p = mk(n=6)
    spec = PayoffSpec("asian_mean", strike=0.0)
    res = superreplication_cost(p.frictionless(), spec)
    assert res.report["augmentation"] == "running_sum"
    assert res.cost == pytest.approx(crr_price(p, spec), abs=1e-3)


@pytest.mark.parametrize(
    "spec", [PayoffSpec("asian_mean", strike=0.0), PayoffSpec("lookback_max")], ids=lambda spec: spec.kind
)
def test_asian_dp_with_costs_matches_bruteforce(spec):
    # the lookback DP solves drawdown states; brute force walks the full tree
    p = mk(n=3, depth=1.0, resilience=0.5)
    grid = np.linspace(-2.0, 2.0, 41)
    bf = brute_force_cost(p, spec, grid)
    res = superreplication_cost(p, spec, DPGrids(x_grid=grid, n_zeta=160, refine=False))
    assert res.cost == pytest.approx(bf, abs=max(res.report["max_interp_residual"], 1e-3))
