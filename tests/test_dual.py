"""Dual weights, objectives, tilt construction and certified bounds."""

import math

import numpy as np
import pytest

from helpers import all_paths, ks_distance_to_normal
from impactlab.dual import (
    DualCertificate,
    certificate_martingale_gaps,
    constant_profile,
    dual_objective_temporary,
    dual_objective_transient,
    kusuoka_certificate,
    kusuoka_lower_bound,
    mu_weights,
)
from impactlab.limits import bachelier_reference, penalty_weight
from impactlab.market import MarketParams
from impactlab.payoffs import PayoffSpec
from impactlab.pricing import brute_force_cost, superreplication_cost


def mk(n=2, **kw):
    base = dict(p0=0.0, sigma=1.0, n_steps=n, depth=1.0, resilience=0.5)
    base.update(kw)
    return MarketParams(**base)


def uniform_cert(n, alpha_val=0.0):
    return DualCertificate(
        q=[np.full(2**k, 0.5) for k in range(n)],
        alpha=[np.full(2**k, alpha_val) for k in range(n)],
        m0=0.0,
    )


def test_mu_weights_hand_values():
    p = mk(n=2, depth=2.0, resilience=0.5)
    mu = mu_weights(p).mu
    assert mu[0] == pytest.approx(0.375)
    assert mu[1] == pytest.approx(0.125)


def test_mu_weights_vanishing_resilience_limit():
    p = mk(n=4, depth=3.0, resilience=1e-9)
    mu = mu_weights(p).mu
    assert np.all(mu[:-1] < 1e-8)
    assert mu[-1] == pytest.approx(3.0, rel=1e-6)


def test_mu_weights_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = mk(
            n=int(rng.integers(1, 9)),
            depth=rng.uniform(0.1, 5.0),
            resilience=rng.uniform(0.01, 0.99),
        )
        assert np.all(mu_weights(p).mu >= 0.0)


def test_mu_weights_reject_full_resilience():
    with pytest.raises(ValueError):
        mu_weights(mk(resilience=1.0))


def test_transient_objective_uniform_certificate():
    # Q uniform, M = P (alpha = zeta0): penalty vanishes and the band is slack.
    p = mk(n=3, x0=0.7, perm_impact=0.2, zeta0=0.0)
    spec = PayoffSpec("call", strike=0.0)
    cert = uniform_cert(3, alpha_val=p.zeta0)
    value, report = dual_objective_transient(cert, spec, p)
    e_h = np.mean(
        [max(row.sum() * p.step_vol, 0.0) for row in all_paths(3)]
    )
    assert report["feasible"]
    assert value == pytest.approx(e_h - 0.0 * p.x0 - 0.5 * 0.2 * 0.49, abs=1e-12)
    assert report["m0"] == pytest.approx(0.0)


def test_transient_objective_zero_claim_nonpositive():
    p = mk(n=3)
    spec = PayoffSpec("call", strike=99.0)
    for a in (0.0, 0.4, 1.3):
        value, _ = dual_objective_transient(uniform_cert(3, a), spec, p)
        assert value <= 1e-12


def price_martingale(p, n):
    s = p.step_vol
    mart = []
    for k in range(n + 1):
        idx = np.arange(2**k)
        tot = np.zeros(2**k)
        for j in range(k):
            tot += np.where((idx >> j) & 1 == 1, 1.0, -1.0)
        mart.append(p.p0 + s * tot)
    return mart


def test_transient_weak_duality_vs_bruteforce():
    p = mk(n=2, sigma=np.sqrt(2.0))
    spec = PayoffSpec("call", strike=0.0)
    bf = brute_force_cost(p, spec, np.linspace(-2, 2, 41))
    for a in (0.0, 0.3):
        cert = uniform_cert(2, a)
        cert.martingale = price_martingale(p, 2)  # M = P, a uniform martingale
        value, report = dual_objective_transient(cert, spec, p)
        assert report["feasible"]
        assert value <= bf + 1e-9


def test_temporary_objective_tracking_martingale():
    p = mk(n=3, resilience=1.0)
    spec = PayoffSpec("call", strike=0.0)
    s = p.step_vol
    q = [np.full(2**k, 0.5) for k in range(3)]
    mart = []
    for k in range(4):
        idx = np.arange(2**k)
        tot = np.zeros(2**k)
        for j in range(k):
            tot += np.where((idx >> j) & 1 == 1, 1.0, -1.0)
        mart.append(p.p0 + s * tot)
    value = dual_objective_temporary(q, mart, spec, p)
    e_h = np.mean([max(row.sum() * s, 0.0) for row in all_paths(3)])
    assert value == pytest.approx(e_h, abs=1e-12)


def test_temporary_objective_rejects_non_martingale():
    p = mk(n=2, resilience=1.0)
    q = [np.full(2**k, 0.5) for k in range(2)]
    mart = [np.zeros(1), np.array([0.3, 0.3]), np.zeros(4)]
    with pytest.raises(ValueError):
        dual_objective_temporary(q, mart, PayoffSpec("call"), p)


def test_temporary_objective_rejects_horizon_mismatch():
    q = [np.full(2**k, 0.5) for k in range(2)]
    mart = [np.zeros(1), np.zeros(2), np.zeros(4)]
    with pytest.raises(ValueError, match="horizon"):
        dual_objective_temporary(q, mart, PayoffSpec("call"), mk(n=3, resilience=1.0))


def test_temporary_weak_duality_vs_bruteforce():
    p = mk(n=2, resilience=1.0, sigma=np.sqrt(2.0))
    spec = PayoffSpec("call", strike=0.0)
    bf = brute_force_cost(p, spec, np.linspace(-2, 2, 41))
    s = p.step_vol
    mart = []
    for k in range(3):
        idx = np.arange(2**k)
        tot = np.zeros(2**k)
        for j in range(k):
            tot += np.where((idx >> j) & 1 == 1, 1.0, -1.0)
        mart.append(p.p0 + s * tot)
    q = [np.full(2**k, 0.5) for k in range(2)]
    value = dual_objective_temporary(q, mart, spec, p)
    assert value <= bf + 1e-9


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
    # a margin above that floor must reject a near-vanishing profile.
    p = mk(n=4)
    with pytest.raises(ValueError):
        kusuoka_certificate(constant_profile(1e-6, 1.0), p, margin=0.6)


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


def test_terminal_law_converges_to_target_normal():
    # Sample the tilted walk at a large horizon; the terminal marginal is
    # close to a centered normal with the target variance.
    from impactlab.dual import _sample_tilted_paths

    p = mk(n=2**12)
    for nu in (0.8, 1.2):
        h, alphas, clip = _sample_tilted_paths(
            constant_profile(nu, 1.0), p, PayoffSpec("call", strike=0.0), 8000, seed=5
        )
        assert clip == 0
        # reconstruct terminal prices from the call payoff at strike 0... use payoff values
        # h = max(P_1, 0): not invertible; instead rerun with identity-like payoff
    spec = PayoffSpec("custom_terminal", table=((-60.0, 0.0), (60.0, 120.0)))  # P + 60
    for nu in (0.8, 1.2):
        h, _, _ = _sample_tilted_paths(constant_profile(nu, 1.0), p, spec, 8000, seed=5)
        terminal = h - 60.0
        d = ks_distance_to_normal(terminal, 0.0, nu)
        assert d < 0.025


def test_kusuoka_clip_bounds_hold_by_construction():
    # A wildly swinging profile gets its tilt clipped to the declared class
    # bounds: |alpha| <= C and per-step increments <= C/sqrt(N).
    from impactlab.dual import VolProfile

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
    # profile declares `lip_const > 0`; a "custom..." label alone does not.
    from impactlab.dual import VolProfile, _sample_tilted_paths

    p = mk(n=6)
    spec = PayoffSpec("call", strike=0.0)

    def recording(seen):
        def nu(t, values):
            seen.append(np.array(values))
            return np.ones(np.shape(values)[0])

        return nu

    history, custom = [], []
    _sample_tilted_paths(VolProfile(nu=recording(history), c_bound=2.0, lip_const=1.0), p, spec, 5, seed=1)
    assert [v.shape for v in history] == [(5, k + 1) for k in range(6)]
    _sample_tilted_paths(VolProfile(nu=recording(custom), c_bound=2.0, label="custom feedback"), p, spec, 5, seed=1)
    assert [v.shape for v in custom] == [(5, 1)] * 6


def test_transient_objective_positive_initial_spread():
    # alpha tracking the initial spread kills the penalty and stays feasible.
    p = mk(n=3, zeta0=0.2, x0=0.5)
    spec = PayoffSpec("call", strike=0.0)
    cert = uniform_cert(3, alpha_val=0.2)
    cert.martingale = price_martingale(p, 3)
    value, report = dual_objective_transient(cert, spec, p)
    assert report["feasible"]
    assert report["penalty"] == pytest.approx(0.0, abs=1e-15)
    e_h = np.mean([max(row.sum() * p.step_vol, 0.0) for row in all_paths(3)])
    assert value == pytest.approx(e_h - p.p0 * p.x0, abs=1e-12)
