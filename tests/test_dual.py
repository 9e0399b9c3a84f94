"""Tilt construction, certified lower bounds and their weak duality."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    all_paths,
    bachelier_reference,
    brute_force_cost,
    certificate_martingale_gaps,
    ks_distance_to_normal,
    matrix_bound,
    tilted_matrix,
)
from impactlab.dual import (
    VolProfile,
    _walk,
    constant_profile,
    kusuoka_certificate,
    kusuoka_lower_bound,
)
from impactlab.limits import penalty_weight
from impactlab.market import MarketParams
from impactlab.payoffs import PayoffSpec
from impactlab.pricing import superreplication_cost


def mk(n=2, **kw):
    base = dict(p0=0.0, sigma=1.0, n_steps=n, depth=1.0, resilience=0.5)
    base.update(kw)
    return MarketParams(**base)


def test_kusuoka_reference_profile_is_uniform():
    p = mk(n=6)
    cert = kusuoka_certificate(constant_profile(1.0, 1.0), p)
    for k in range(6):
        assert np.allclose(cert.q[k], 0.5)
        assert np.allclose(cert.alpha[k], 0.0)
    assert cert.meta["clip_q"] == 0


def test_kusuoka_constant_tilt_formula():
    sigma, nu = 1.0, 1.2
    a = (nu**2 - sigma**2) / (2 * sigma)
    p = mk(n=5)
    cert = kusuoka_certificate(constant_profile(nu, sigma), p)
    for k in range(5):
        assert np.allclose(cert.alpha[k], a)
    # q_n = (1 + a xi_{n-1} / (sigma + a)) / 2
    for k in range(1, 5):
        idx = np.arange(2**k)
        xi = np.where((idx >> (k - 1)) & 1 == 1, 1.0, -1.0)
        assert np.allclose(cert.q[k], 0.5 * (1 + a * xi / (sigma + a)))
    assert np.allclose(cert.q[0], 0.5)


def test_kusuoka_martingale_exact_on_tree():
    p = mk(n=10)
    for nu in (0.8, 1.0, 1.2):
        cert = kusuoka_certificate(constant_profile(nu, 1.0), p)
        assert cert.meta["clip_q"] == 0
        assert certificate_martingale_gaps(cert, p) <= 1e-12


def test_kusuoka_rejects_profile_below_margin():
    # alpha = (nu^2 - sigma^2)/(2 sigma) >= -sigma/2, so sigma + alpha >= sigma/2;
    # at sigma = 1e-10 that floor, 5e-11, lies below the 1e-9 margin, so a
    # near-vanishing profile must be rejected.
    p = MarketParams(p0=0.0, sigma=1e-10, n_steps=4, depth=1.0, resilience=0.5)
    with pytest.raises(ValueError, match="margin"):
        kusuoka_certificate(constant_profile(1e-13, 1e-10), p)


def test_kusuoka_bound_reference_profile_attains_expected_payoff():
    # nu = sigma has zero tilt: the penalty chain vanishes identically and
    # the bound equals the plain expected payoff at every horizon.
    spec = PayoffSpec("call", strike=0.0)
    p = mk(n=8)
    rows = kusuoka_lower_bound(constant_profile(1.0, 1.0), spec, p, n_list=[4, 8, 12])
    for r in rows:
        pn = mk(n=r["n"])
        vals = [max(row.sum() * pn.step_vol, 0.0) for row in all_paths(r["n"])]
        assert r["bound"] == pytest.approx(float(np.mean(vals)), abs=1e-12)


def test_kusuoka_bound_below_primal():
    spec = PayoffSpec("call", strike=0.0)
    p = mk(n=8)
    primal = superreplication_cost(p, spec).cost
    for nu in (0.8, 1.0, 1.2):
        rows = kusuoka_lower_bound(constant_profile(nu, 1.0), spec, p, n_list=[8])
        assert rows[0]["certified"]
        assert rows[0]["bound"] <= primal + 1e-9


@pytest.mark.parametrize(
    "endowment",
    [{}, dict(p0=0.4, x0=0.5, zeta0=0.2, perm_impact=0.2)],
    ids=["flat", "endowed"],
)
def test_kusuoka_bound_weak_duality_vs_bruteforce(endowment):
    # The printed bound never exceeds the brute-force cost over grid-valued
    # plans (itself at or above the true cost), across resilience, horizon,
    # payoff and target volatility; the endowed market exercises the
    # bound's constant -delta (1-r)^2 zeta0^2/2 - p0 x0 - iota x0^2/2.
    for n in (2, 3):
        for r in (0.3, 0.5, 1.0):
            p = mk(n=n, resilience=r, **endowment)
            for kind in ("call", "lookback_max"):
                spec = PayoffSpec(kind, strike=0.0)
                bf = brute_force_cost(p, spec, np.linspace(-2, 2, 21))
                assert type(bf) is float
                for nu in (0.8, 1.0, 1.2, 1.6, 2.0):
                    (rec,) = kusuoka_lower_bound(constant_profile(nu, 1.0), spec, p, n_list=[n])
                    assert rec["mode"] == "exact" and rec["certified"]
                    assert rec["bound"] <= bf + 1e-9, (n, r, kind, nu, rec["bound"], bf)


def test_kusuoka_exact_bounds_at_n12_pinned():
    # the default study market; values to 6 decimals as printed by the study
    p = mk(n=12)
    pinned = {
        "call": (0.305559, 0.390726, 0.458742),
        "lookback_max": (0.553915, 0.669676, 0.760933),
    }
    for kind, refs in pinned.items():
        spec = PayoffSpec(kind, strike=0.0)
        for nu, ref in zip((0.8, 1.0, 1.2), refs):
            (rec,) = kusuoka_lower_bound(constant_profile(nu, 1.0), spec, p, n_list=[12])
            assert rec["mode"] == "exact" and rec["certified"]
            assert abs(rec["bound"] - ref) <= 5e-7


def test_kusuoka_bound_mc_mode_matches_exact_mode():
    spec = PayoffSpec("call", strike=0.0)
    p = mk(n=12)
    exact = kusuoka_lower_bound(constant_profile(1.2, 1.0), spec, p, n_list=[12])[0]
    mc = kusuoka_lower_bound(
        constant_profile(1.2, 1.0), spec, p, n_list=[12], exact_max_n=4, mc_paths=60000, seed=9
    )[0]
    assert mc["mode"] == "mc" and exact["mode"] == "exact"
    assert abs(mc["bound"] - exact["bound"]) <= 4 * mc["std_error"]


def test_kusuoka_bound_approaches_limit_expression():
    # Constant profile: bound -> bachelier(nu) - c (nu^2-sigma^2)^2 as N grows.
    spec = PayoffSpec("call", strike=0.0)
    p = mk(n=8)
    nu = 1.2
    c = penalty_weight(p)
    target = bachelier_reference("call", 0.0, 0.0, nu, 1.0) - c * (nu**2 - 1.0) ** 2
    rows = kusuoka_lower_bound(
        constant_profile(nu, 1.0), spec, p, n_list=[64, 1024], mc_paths=120000, seed=3
    )
    err = [abs(r["bound"] - target) for r in rows]
    assert err[1] < err[0]
    assert err[1] < 0.05


def _swinging_history(t, values):
    # reads the last move: a low target after an up-move, a high one after a
    # down-move, so the tilt swings and, at C/sqrt(N) >= sigma, q clips
    if values.shape[1] < 2:
        return np.full(len(values), 4.0)
    return np.where(values[:, -1] > values[:, -2], 0.4, 4.0)


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize(
    "kind, r, endowment, profile",
    [
        ("call", 0.3, {}, constant_profile(1.2, 1.0)),
        ("put", 1.0, {}, constant_profile(0.8, 1.0)),
        ("lookback_max", 0.3, dict(p0=0.4, x0=0.5, zeta0=0.2, perm_impact=0.2), constant_profile(1.6, 1.0)),
        ("asian_mean", 1.0, dict(p0=0.4, x0=0.5, zeta0=0.2, perm_impact=0.2), constant_profile(1.2, 1.0)),
        ("call", 0.3, dict(x0=-0.3, zeta0=0.4), VolProfile(nu=_swinging_history, c_bound=10.0, lip_const=1.0)),
        ("asian_mean", 1.0, {}, VolProfile(nu=_swinging_history, c_bound=10.0, lip_const=1.0)),
    ],
    ids=["call-r0.3", "put-r1", "lookback-endowed", "asian-endowed", "call-history", "asian-history"],
)
def test_walk_matches_matrix_formula(mode, kind, r, endowment, profile):
    # The forward walk sums the penalty chain period by period; the matrix
    # formula sums a whole (paths, N) tilt array.  Both modes agree to 1e-14,
    # clip counts included, and the history profile's probabilities clip.
    n = 10 if mode == "exact" else 24
    p = mk(n=n, resilience=r, **endowment)
    spec = PayoffSpec(kind, strike=0.1) if kind in ("call", "put", "asian_mean") else PayoffSpec(kind)
    exact_max_n = 12 if mode == "exact" else 4
    (rec,) = kusuoka_lower_bound(profile, spec, p, n_list=[n], exact_max_n=exact_max_n, mc_paths=3000, seed=4)
    source = kusuoka_certificate(profile, p) if mode == "exact" else profile
    h_vals, alphas, prob, clip_q = tilted_matrix(spec, p, source, n_paths=3000, seed=4)
    bound, se = matrix_bound(h_vals, alphas, prob, p)
    assert rec["mode"] == mode
    assert rec["clip_q"] == clip_q
    if profile.lip_const > 0:
        assert clip_q > 0
    assert abs(rec["bound"] - bound) <= 1e-14
    assert abs(rec["std_error"] - se) <= 1e-14


def test_mc_bound_memory_does_not_grow_with_horizon():
    # The walk keeps per-row state only: one MC bound at N=1024 peaks at
    # most twice as high as the same bound at N=64 (a (paths, N) tilt array
    # would make it about 16 times).
    spec = PayoffSpec("call", strike=0.0)

    def peak(n):
        tracemalloc.start()
        try:
            kusuoka_lower_bound(constant_profile(1.2, 1.0), spec, mk(n=n), n_list=[n], mc_paths=2000, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # the first bound in a process also traces one-time allocations
    assert peak(1024) <= 2 * peak(64)


def test_terminal_law_converges_to_target_normal():
    # Sample the tilted walk at a large horizon; the terminal marginal is
    # close to a centered normal with the target variance.
    p = mk(n=2**12)
    spec = PayoffSpec("custom_terminal", table=((-60.0, 0.0), (60.0, 120.0)))  # P + 60
    for nu in (0.8, 1.2):
        h, _, _, clip = _walk(spec, p, constant_profile(nu, 1.0), 8000, seed=5)
        assert clip == 0
        terminal = h - 60.0
        d = ks_distance_to_normal(terminal, 0.0, nu)
        assert d < 0.025


def test_kusuoka_clip_bounds_hold_by_construction():
    # A wildly swinging profile gets its tilt clipped to the declared class
    # bounds: |alpha| <= C and per-step increments <= C/sqrt(N).
    def nu(t, values):
        batch = np.shape(values)[0] if np.ndim(values) > 1 else 1
        return np.full(batch, 2.5 if int(round(t * 8)) % 2 else 0.4)

    p = mk(n=8)
    c = 1.8
    cert = kusuoka_certificate(VolProfile(nu=nu, c_bound=c, lip_const=50.0), p)
    assert cert.meta["clip_alpha"] > 0
    for k in range(8):
        assert np.all(np.abs(cert.alpha[k]) <= c + 1e-15)
        if k >= 1:
            parent = np.arange(2**k) % (2 ** (k - 1))
            inc = np.abs(cert.alpha[k] - cert.alpha[k - 1][parent])
            assert np.all(inc <= c / math.sqrt(8) + 1e-15)


def test_sampler_passes_history_only_when_declared():
    # The sampler hands nu the whole (batch, k+1) price history when the
    # profile declares `lip_const > 0`, and only the current price when not.
    p = mk(n=6)
    spec = PayoffSpec("call", strike=0.0)

    def recording(seen):
        def nu(t, values):
            seen.append(np.array(values))
            return np.ones(np.shape(values)[0])

        return nu

    history, current = [], []
    _walk(spec, p, VolProfile(nu=recording(history), c_bound=2.0, lip_const=1.0), 5, seed=1)
    assert [v.shape for v in history] == [(5, k + 1) for k in range(6)]
    _walk(spec, p, VolProfile(nu=recording(current), c_bound=2.0), 5, seed=1)
    assert [v.shape for v in current] == [(5, 1)] * 6


