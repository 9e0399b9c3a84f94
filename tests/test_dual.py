"""Tilt construction, certified lower bounds and their weak duality."""

import tracemalloc

import numpy as np
import pytest

from helpers import (
    all_paths,
    bachelier_reference,
    brute_force_cost,
    certificate_martingale_gaps,
    ks_distance_to_normal,
    kusuoka_certificate,
    matrix_bound,
    tilted_matrix,
)
from impactlab.dual import _sample, _tilt, kusuoka_lower_bound
from impactlab.limits import penalty_weight
from impactlab.market import MarketParams
from impactlab.payoffs import PayoffSpec
from impactlab.pricing import superreplication_cost


def mk(n=2, **kw):
    base = dict(p0=0.0, sigma=1.0, n_steps=n, depth=1.0, resilience=0.5)
    base.update(kw)
    return MarketParams(**base)


def test_kusuoka_reference_profile_is_uniform():
    # nu = sigma: no tilt, and every probability is 1/2, in the library's
    # tilt and on the oracle tree
    alpha, q, clipped = _tilt(1.0, 1.0)
    assert alpha == 0.0 and list(q) == [0.5, 0.5] and not clipped.any()
    cert = kusuoka_certificate(1.0, mk(n=6))
    for k in range(6):
        assert np.allclose(cert.q[k], 0.5)
        assert np.allclose(cert.alpha[k], 0.0)
    assert cert.clip_q == 0


def test_kusuoka_constant_tilt_formula():
    # alpha = (nu^2 - sigma^2) / (2 sigma); after a move xi the next shock is
    # up with q = (1 + alpha xi / (sigma + alpha)) / 2, indexed [down, up]
    for sigma, nu in ((1.0, 1.2), (0.7, 0.5), (2.0, 3.1)):
        a = (nu**2 - sigma**2) / (2 * sigma)
        alpha, q, clipped = _tilt(nu, sigma)
        assert alpha == pytest.approx(a, rel=1e-15)
        assert np.allclose(q, 0.5 * (1 + a * np.array([-1.0, 1.0]) / (sigma + a)), rtol=1e-15, atol=0)
        assert not clipped.any()


def test_kusuoka_martingale_exact_on_tree():
    # the oracle tree is a martingale measure for M = P + alpha xi / sqrt(N)
    p = mk(n=10)
    for nu in (0.8, 1.0, 1.2):
        cert = kusuoka_certificate(nu, p)
        assert cert.clip_q == 0
        assert certificate_martingale_gaps(cert, p) <= 1e-12


def test_kusuoka_rejects_profile_below_margin():
    # alpha = (nu^2 - sigma^2)/(2 sigma) >= -sigma/2, so sigma + alpha >= sigma/2;
    # at sigma = 1e-10 that floor, 5e-11, lies below the 1e-9 margin, so a
    # near-vanishing target volatility must be rejected, on both routes.
    p = MarketParams(p0=0.0, sigma=1e-10, n_steps=4, depth=1.0, resilience=0.5)
    for exact_max_n in (4, 2):
        with pytest.raises(ValueError, match="margin"):
            kusuoka_lower_bound(1e-13, PayoffSpec("call"), p, n_list=[4], exact_max_n=exact_max_n)
    for nu in (0.0, -1.2):
        with pytest.raises(ValueError, match="nu must be > 0"):
            kusuoka_lower_bound(nu, PayoffSpec("call"), p, n_list=[4])


def test_kusuoka_bound_reference_profile_attains_expected_payoff():
    # nu = sigma has zero tilt: the penalty chain vanishes identically and
    # the bound equals the plain expected payoff at every horizon.
    spec = PayoffSpec("call", strike=0.0)
    p = mk(n=8)
    rows = kusuoka_lower_bound(1.0, spec, p, n_list=[4, 8, 12])
    for r in rows:
        pn = mk(n=r["n"])
        vals = [max(row.sum() * pn.step_vol, 0.0) for row in all_paths(r["n"])]
        assert r["bound"] == pytest.approx(float(np.mean(vals)), abs=1e-12)


def test_kusuoka_bound_below_primal():
    spec = PayoffSpec("call", strike=0.0)
    p = mk(n=8)
    primal = superreplication_cost(p, spec).cost
    for nu in (0.8, 1.0, 1.2):
        rows = kusuoka_lower_bound(nu, spec, p, n_list=[8])
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
                    (rec,) = kusuoka_lower_bound(nu, spec, p, n_list=[n])
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
            (rec,) = kusuoka_lower_bound(nu, spec, p, n_list=[12])
            assert rec["mode"] == "exact" and rec["certified"]
            assert abs(rec["bound"] - ref) <= 5e-7


def test_kusuoka_bound_mc_mode_matches_exact_mode():
    # the sampled route agrees with the exact lattice pass within 4 se, at
    # N = 12 and at N = 128
    spec = PayoffSpec("call", strike=0.0)
    p = mk(n=12)
    for n in (12, 128):
        exact = kusuoka_lower_bound(1.2, spec, p, n_list=[n], exact_max_n=n)[0]
        mc = kusuoka_lower_bound(1.2, spec, p, n_list=[n], exact_max_n=4, mc_paths=60000, seed=9)[0]
        assert mc["mode"] == "mc" and exact["mode"] == "exact"
        assert abs(mc["bound"] - exact["bound"]) <= 4 * mc["std_error"]


def test_kusuoka_bound_approaches_limit_expression():
    # Constant profile: bound -> bachelier(nu) - c (nu^2-sigma^2)^2 as N grows.
    spec = PayoffSpec("call", strike=0.0)
    p = mk(n=8)
    nu = 1.2
    c = penalty_weight(p)
    target = bachelier_reference("call", 0.0, 0.0, nu, 1.0) - c * (nu**2 - 1.0) ** 2
    rows = kusuoka_lower_bound(nu, spec, p, n_list=[64, 1024], mc_paths=120000, seed=3)
    err = [abs(r["bound"] - target) for r in rows]
    assert err[1] < err[0]
    assert err[1] < 0.05


ENDOWED = dict(p0=0.4, x0=0.5, zeta0=0.2, perm_impact=0.2)


def _spec(kind):
    if kind == "custom_terminal":
        return PayoffSpec(kind, table=((-1.0, 0.5), (0.0, 0.0), (2.0, 1.0)))
    return PayoffSpec(kind, strike=0.1) if kind in ("call", "put", "asian_mean") else PayoffSpec(kind)


@pytest.mark.parametrize("endowment", [{}, ENDOWED], ids=["flat", "endowed"])
@pytest.mark.parametrize("kind", ["call", "put", "custom_terminal", "lookback_max", "asian_mean"])
def test_lattice_pass_equals_the_tree(kind, endowment):
    # The exact bound, one forward pass over the price lattice, equals the
    # 2^N tree's expectation of payoff less chain, with the endowment's
    # constant, to 1e-12 at every resilience, horizon and target volatility.
    spec = _spec(kind)
    for r in (0.3, 0.5, 1.0):
        for n in (1, 2, 5, 12):
            p = mk(n=n, resilience=r, **endowment)
            for nu in (0.8, 1.6):
                (rec,) = kusuoka_lower_bound(nu, spec, p, n_list=[n])
                bound, _ = matrix_bound(*tilted_matrix(spec, p, kusuoka_certificate(nu, p))[:3], p)
                assert rec["mode"] == "exact" and rec["certified"]
                assert abs(rec["bound"] - bound) <= 1e-12, (r, n, nu, rec["bound"], bound)


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize(
    "kind, r, endowment, nu",
    [
        ("call", 0.3, {}, 1.2),
        ("put", 1.0, {}, 0.8),
        ("lookback_max", 0.3, ENDOWED, 1.6),
        ("asian_mean", 1.0, ENDOWED, 1.2),
    ],
    ids=["call-r0.3", "put-r1", "lookback-endowed", "asian-endowed"],
)
def test_walk_matches_matrix_formula(mode, kind, r, endowment, nu):
    # The library sums the penalty chain as one number and takes E_Q[H] on
    # the lattice or on sampled walks; the matrix formula sums a whole
    # (paths, N) tilt array over the oracle tree or over the same draws.
    # Both agree to 1e-14, standard error included.
    n = 10 if mode == "exact" else 24
    p = mk(n=n, resilience=r, **endowment)
    spec = _spec(kind)
    exact_max_n = 12 if mode == "exact" else 4
    (rec,) = kusuoka_lower_bound(nu, spec, p, n_list=[n], exact_max_n=exact_max_n, mc_paths=3000, seed=4)
    source = kusuoka_certificate(nu, p) if mode == "exact" else nu
    h_vals, alphas, prob, clip_q = tilted_matrix(spec, p, source, n_paths=3000, seed=4)
    bound, se = matrix_bound(h_vals, alphas, prob, p)
    assert rec["mode"] == mode
    assert rec["clip_q"] == clip_q == 0
    assert abs(rec["bound"] - bound) <= 1e-14
    assert abs(rec["std_error"] - se) <= 1e-14


def test_clipped_probabilities_leave_bounds_uncertified():
    # At nu = 2000 sigma, rho = alpha / (sigma + alpha) leaves (1 - rho)/2
    # below the 1e-6 floor, so both probabilities clip; exact and sampled
    # rows count the clipped reads, as the oracle tree and matrix sampler do,
    # and are reported uncertified.
    nu = 2000.0
    alpha, q, clipped = _tilt(nu, 1.0)
    assert (1.0 - alpha / (1.0 + alpha)) / 2 < 1e-6
    assert clipped.all() and list(q) == [1e-6, 1.0 - 1e-6]
    spec = PayoffSpec("call", strike=0.0)
    p = mk(n=6)
    exact, sampled = kusuoka_lower_bound(nu, spec, p, n_list=[6, 16], exact_max_n=6, mc_paths=500, seed=2)
    assert exact["mode"] == "exact" and sampled["mode"] == "mc"
    for rec in (exact, sampled):
        assert rec["clip_q"] > 0 and rec["certified"] is False
    assert kusuoka_certificate(nu, p).clip_q > 0
    assert sampled["clip_q"] == tilted_matrix(spec, mk(n=16), nu, n_paths=500, seed=2)[3]


def test_mc_bound_memory_does_not_grow_with_horizon():
    # The walk keeps per-row state only: one MC bound at N=1024 peaks at
    # most twice as high as the same bound at N=64 (a (paths, N) tilt array
    # would make it about 16 times).
    spec = PayoffSpec("call", strike=0.0)

    def peak(n):
        tracemalloc.start()
        try:
            kusuoka_lower_bound(1.2, spec, mk(n=n), n_list=[n], mc_paths=2000, seed=1)
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
        _, q, clipped = _tilt(nu, 1.0)
        h, clip = _sample(spec, p, q, clipped, 8000, seed=5)
        assert clip == 0
        terminal = h - 60.0
        d = ks_distance_to_normal(terminal, 0.0, nu)
        assert d < 0.025
