import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hetnet.optimizer as optimizer_mod
from hetnet import (
    CountNetwork,
    FitConfig,
    FitDivergenceError,
    HierarchyViolationError,
    Rng,
    SkipLayerNet,
    extract_selected,
    fit,
    forward_batch,
    grid_search,
    hbic,
    hierarchical_prox,
    init_net,
    update_side,
)
from hetnet.optimizer import _hierarchy_gap, _projected
from hetnet.skipnet import FlatNet, _forward_activations
from hetnet.rng import derive_seed
from hetnet.simbench import simulate_design


def _uniform_network(n: int, c: int) -> CountNetwork:
    return CountNetwork.from_edges(
        n, [(i, j, c) for i in range(n) for j in range(n) if i != j]
    )


def _random_instance(seed: int, n: int, p: int = 3):
    rng = np.random.default_rng(seed)
    edges = [
        (i, j, int(rng.integers(1, 5)))
        for i in range(n)
        for j in range(n)
        if i != j and rng.uniform() < 0.5
    ]
    A = CountNetwork.from_edges(n, edges)
    X = rng.uniform(-1, 1, size=(n, p))
    return A, X


def _nets_equal(a, b) -> bool:
    if not np.array_equal(a.theta, b.theta):
        return False
    for la, lb in zip(a.layers, b.layers):
        if not np.array_equal(la.weights, lb.weights):
            return False
        if not np.array_equal(la.biases, lb.biases):
            return False
    return True


# ------------------------------------------------------- hierarchical_prox

def test_prox_shrinks_theta_and_rescales_row():
    # theta 0.5, tau 0.2, M 1, unit row: theta -> 0.3 and the row picks
    # up the same factor
    w1 = np.array([[0.6, 0.8]])
    w1_new, theta_new = hierarchical_prox(w1, np.array([0.5]), 0.2, 1.0)
    assert theta_new[0] == pytest.approx(0.3)
    assert np.linalg.norm(w1_new[0]) == pytest.approx(0.3)
    np.testing.assert_allclose(w1_new[0], 0.3 * np.array([0.6, 0.8]), rtol=1e-12)


def test_prox_thresholded_coefficient_kills_row():
    w1 = np.array([[1.0, 2.0]])
    w1_new, theta_new = hierarchical_prox(w1, np.array([0.1]), 0.2, 1.0)
    assert theta_new[0] == 0.0
    assert np.array_equal(w1_new[0], np.zeros(2))


def test_prox_satisfied_row_untouched():
    w1 = np.array([[0.1, 0.1]])
    w1_new, theta_new = hierarchical_prox(w1, np.array([5.0]), 1.0, 1.0)
    assert theta_new[0] == 4.0
    assert np.array_equal(w1_new, w1)


def test_prox_zero_row_stays_zero():
    w1 = np.zeros((2, 3))
    w1_new, theta_new = hierarchical_prox(w1, np.array([0.0, 2.0]), 0.5, 1.0)
    assert np.array_equal(w1_new, w1)
    assert theta_new[0] == 0.0 and theta_new[1] == 1.5


def test_prox_matches_scalar_soft_threshold_closed_form():
    rng = np.random.default_rng(42)
    theta = rng.normal(scale=2.0, size=10_000)
    tau = 0.7
    w1 = np.zeros((theta.size, 1))  # no hidden rows, pure soft-threshold
    _, theta_new = hierarchical_prox(w1, theta, tau, 1.0)
    expected = np.sign(theta) * np.maximum(np.abs(theta) - tau, 0.0)
    assert np.array_equal(theta_new, expected)
    # exact zeros inside the threshold band
    assert np.all(theta_new[np.abs(theta) <= tau] == 0.0)


def test_prox_idempotent_at_tau_zero():
    rng = np.random.default_rng(9)
    w1 = rng.normal(size=(6, 4))
    theta = rng.normal(size=6)
    w_once, t_once = hierarchical_prox(w1, theta, 0.0, 0.8)
    w_twice, t_twice = hierarchical_prox(w_once, t_once, 0.0, 0.8)
    assert np.array_equal(t_once, t_twice)
    np.testing.assert_allclose(w_twice, w_once, rtol=1e-12, atol=0.0)


def test_prox_constraint_exact_per_row():
    rng = np.random.default_rng(17)
    for _ in range(20):
        w1 = rng.normal(scale=3.0, size=(8, 5))
        theta = rng.normal(size=8)
        M = float(rng.uniform(0.2, 4.0))
        tau = float(rng.uniform(0.0, 1.0))
        w_new, t_new = hierarchical_prox(w1, theta, tau, M)
        norms = np.linalg.norm(w_new, axis=1)
        caps = M * np.abs(t_new)
        assert np.all(norms - caps <= 1e-12 * np.maximum(caps, 1.0))


def test_prox_does_not_mutate_inputs():
    w1 = np.ones((2, 2))
    theta = np.array([0.05, 3.0])
    w_copy, t_copy = w1.copy(), theta.copy()
    hierarchical_prox(w1, theta, 0.1, 0.5)
    assert np.array_equal(w1, w_copy)
    assert np.array_equal(theta, t_copy)


def test_prox_validation():
    w1 = np.zeros((2, 2))
    theta = np.zeros(2)
    with pytest.raises(ValueError):
        hierarchical_prox(w1, theta, -0.1, 1.0)
    with pytest.raises(ValueError):
        hierarchical_prox(w1, theta, 0.1, 0.0)
    with pytest.raises(ValueError):
        hierarchical_prox(np.zeros((3, 2)), theta, 0.1, 1.0)


# ------------------------------------------------------------- update_side

def test_update_side_zero_epochs_is_noop():
    A, X = _random_instance(0, 5)
    net = init_net(3, (3,), Rng(1))
    vals, net_out, trace = update_side(
        "alpha", net, X, A, np.zeros(5), 0.1, 0.2, 1e-3, 1.0, 1.0, 0
    )
    # the values are the training forward pass's, which agrees with the
    # row-exact prediction path to rounding
    flat = FlatNet.from_net(net, X.shape[0])
    assert vals.tobytes() == _forward_activations(flat, X).tobytes()
    want = forward_batch(net, X)
    assert np.abs(vals - want).max() <= 1e-12 * np.abs(want).max()
    assert _nets_equal(net, net_out)
    assert trace.shape == (1,)


@pytest.mark.parametrize("widths", [None, (), (1,), (3,), (3, 2)])
def test_update_side_trains_every_layer_count(widths):
    # widths None is a net with no layers at all, which net_from_json_dict
    # allows: its parameter block is theta alone
    A, X = _random_instance(11, 7)
    if widths is None:
        net = SkipLayerNet(3, np.array([0.3, -0.2, 0.1]), [])
    else:
        net = _projected(init_net(3, widths, Rng(8)), 1.0)
    vals, net_out, trace = update_side(
        "alpha", net, X, A, np.zeros(7), 0.05, 0.2, 1e-3, 1.0, 1.0, 30
    )
    assert trace.shape == (31,)
    assert trace[-1] < trace[0]
    assert [l.weights.shape for l in net_out.layers] == [l.weights.shape for l in net.layers]
    want = forward_batch(net_out, X)
    assert np.abs(vals - want).max() <= 1e-12 * np.abs(want).max()


def test_update_side_huge_lambda_collapses_to_bias():
    A, X = _random_instance(1, 6)
    net = init_net(3, (4,), Rng(2))
    vals, net_out, _ = update_side(
        "alpha", net, X, A, np.zeros(6), 1e6, 0.2, 1e-3, 1.0, 1.0, 5
    )
    assert np.all(net_out.theta == 0.0)
    assert np.all(net_out.layers[0].weights == 0.0)
    # constant in x: every fitted value identical
    assert float(np.ptp(vals)) == 0.0


def test_update_side_two_node_toy_descends():
    A = CountNetwork.from_edges(2, [(0, 1, 3), (1, 0, 1)])
    X = np.array([[0.5, -0.3], [-0.2, 0.8]])
    net = init_net(2, (2,), Rng(7))
    _, _, trace = update_side(
        "alpha", net, X, A, np.zeros(2), 0.1, 0.0, 1e-4, 1.0, 1.0, 200
    )
    assert trace.shape == (201,)
    assert np.all(np.diff(trace) <= 1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.2])
def test_update_side_smooth_loss_monotone_at_small_rho(seed, lam):
    rng = np.random.default_rng(seed)
    A, X = _random_instance(seed + 30, int(rng.integers(4, 11)))
    fixed = rng.normal(scale=0.3, size=A.n)
    net = init_net(3, (3, 2), Rng(seed + 10))
    _, _, trace = update_side(
        "beta", net, X, A, fixed, lam, 0.25, 1e-4, 2.0, 1.0, 300
    )
    assert np.all(np.diff(trace) <= 1e-9)


def test_update_side_keeps_hierarchy_and_input_net():
    A, X = _random_instance(3, 7)
    net = init_net(3, (4, 2), Rng(5))
    theta_before = net.theta.copy()
    _, net_out, _ = update_side(
        "beta", net, X, A, np.zeros(7), 0.3, 0.1, 1e-3, 0.7, 1.0, 50
    )
    assert np.array_equal(net.theta, theta_before)
    assert _hierarchy_gap(net_out, 0.7) <= 1e-9


def test_update_side_rejects_bad_side():
    A, X = _random_instance(4, 4)
    net = init_net(3, (), Rng(0))
    with pytest.raises(ValueError):
        update_side("gamma", net, X, A, np.zeros(4), 0.0, 0.0, 1e-3, 1.0, 1.0, 1)


def test_update_side_nonfinite_entry_raises():
    A, X = _random_instance(5, 4)
    net = init_net(3, (), Rng(0))
    fixed = np.full(4, 800.0)  # overflows every rate
    with pytest.raises(FitDivergenceError):
        update_side("alpha", net, X, A, fixed, 0.0, 0.0, 1e-3, 1.0, 1.0, 10)


def test_update_side_unrecoverable_step_raises():
    A, X = _random_instance(6, 5)
    net = init_net(3, (), Rng(1))
    # a step size so large that ten halvings still overflow the rates
    with pytest.raises(FitDivergenceError):
        update_side("alpha", net, X, A, np.zeros(5), 0.0, 0.0, 1e30, 1.0, 1.0, 5)


def test_update_side_small_increase_that_does_not_shrink_stops(monkeypatch):
    # near a minimiser, a fixed nudge to theta after every prox raises the
    # composite by an amount no halving of rho can shrink: about 7e-5 of
    # the composite here, inside the 1e-3 fixed-point band, so the update
    # stops early instead of raising
    A, X = _random_instance(10, 8)
    fixed = np.zeros(8)
    net = init_net(3, (), Rng(6))
    _, net, _ = update_side("alpha", net, X, A, fixed, 0.0, 0.2, 0.05, 1.0, 1.0, 3000)
    real_prox = optimizer_mod.hierarchical_prox

    def nudged(w1, theta, tau, M):
        w1_new, theta_new = real_prox(w1, theta, tau, M)
        return w1_new, theta_new + 0.01

    monkeypatch.setattr(optimizer_mod, "hierarchical_prox", nudged)
    _, net_out, trace = update_side("alpha", net, X, A, fixed, 0.0, 0.2, 0.05,
                                    1.0, 1.0, 50)
    assert len(trace) - 1 < 50
    assert _nets_equal(net_out, net)


def test_update_side_broken_hierarchy_raises(monkeypatch):
    # with the prox disabled nothing restores ||W_k|| <= M|theta_k|; the
    # check is an explicit raise, so it also holds under python -O
    monkeypatch.setattr(optimizer_mod, "hierarchical_prox",
                        lambda w1, theta, tau, M: (w1, theta))
    A, X = _random_instance(7, 6)
    net = init_net(3, (4,), Rng(3))
    net.theta[:] = 0.0
    assert _hierarchy_gap(net, 1.0) > 0.0
    with pytest.raises(HierarchyViolationError, match="hierarchy"):
        update_side("alpha", net, X, A, np.zeros(6), 0.0, 0.0, 1e-3, 1.0, 1.0, 3)


def test_update_side_rejected_steps_reuse_saved_work(monkeypatch):
    # a rejected step restores the saved activations and gradients: one
    # forward per attempted step (one per prox call) plus the entry one,
    # and one backward per point a step is taken from
    counts = {"forward": 0, "backward": 0, "prox": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for key, name in (("forward", "_forward_activations"),
                      ("backward", "_backward_from_activations"),
                      ("prox", "hierarchical_prox")):
        monkeypatch.setattr(optimizer_mod, name,
                            counting(key, getattr(optimizer_mod, name)))
    A, X = _random_instance(8, 8)
    net = init_net(3, (3,), Rng(4))
    # rho far above the stable step size forces many rejections
    _, _, trace = update_side(
        "alpha", net, X, A, np.zeros(8), 0.1, 0.2, 0.1, 1.0, 1.0, 40
    )
    accepted = len(trace) - 1
    assert counts["prox"] > accepted + 10
    assert counts["forward"] == counts["prox"] + 1
    assert counts["backward"] <= accepted + 1


def test_update_side_validates_fixed_values_once_at_entry():
    A, X = _random_instance(9, 5)
    net = init_net(3, (), Rng(2))
    with pytest.raises(ValueError, match="shape"):
        update_side("beta", net, X, A, np.zeros(4), 0.0, 0.0, 1e-3, 1.0, 1.0, 1)
    with pytest.raises(ValueError, match="finite"):
        update_side("beta", net, X, A, np.full(5, np.nan), 0.0, 0.0, 1e-3, 1.0, 1.0, 1)
    with pytest.raises(ValueError, match="z_n"):
        update_side("beta", net, X, A, np.zeros(5), 0.0, 0.0, 1e-3, 1.0, 0.0, 1)


# --------------------------------------------------------------------- fit

def test_fit_empty_graph_drives_rates_down():
    n, p = 8, 4
    A = CountNetwork.from_edges(n, [])
    X = np.random.default_rng(11).uniform(-1, 1, size=(n, p))
    cfg = FitConfig(rho=1e-2, t_max_outer=10, inner_epochs=200,
                    hidden_widths=(), seed=3)
    net_a = init_net(p, (), Rng(3))
    rng_probe = Rng(3)
    net_a = init_net(p, (), rng_probe)
    net_b = init_net(p, (), rng_probe)
    from hetnet import poisson_nll

    nll_init = poisson_nll(forward_batch(net_a, X), forward_batch(net_b, X), A)
    est = fit(A, X, cfg)
    assert est.final_loss.nll > 0.0
    assert est.final_loss.nll < nll_init


def test_fit_uniform_network_recovers_constant_rate():
    n, p, c = 6, 5, 4
    A = _uniform_network(n, c)
    X = np.random.default_rng(3).uniform(-1, 1, size=(n, p))
    cfg = FitConfig(lambda1=0.0, lambda2=0.0, M=1.0, rho=2e-2, t_max_outer=25,
                    inner_epochs=200, hidden_widths=(), seed=5)
    est = fit(A, X, cfg)
    rates = np.exp(est.alpha_hat[:, None] + est.beta_hat[None, :])
    off = ~np.eye(n, dtype=bool)
    assert np.abs(rates[off] / c - 1.0).max() <= 0.15


def test_fit_linear_design_keeps_true_senders():
    # ten seeded replications of the linear design; the five true sender
    # columns must survive selection in at least nine
    n, p, z = 100, 50, 10.0
    cfg = FitConfig(lambda1=12.0, lambda2=12.0, M=0.5, rho=8e-4, z_n=z,
                    inner_epochs=800, t_max_outer=5, hidden_widths=(), seed=11)
    hits = 0
    for rep in range(10):
        X, _, A = simulate_design("linear", n, p, derive_seed(77, rep), z)
        est = fit(A, X, cfg)
        hits += {0, 1, 2, 3, 4} <= est.s_alpha
    assert hits >= 9


def test_fit_centering_and_rate_invariance():
    A, X = _random_instance(21, 9)
    cfg = FitConfig(lambda1=0.05, lambda2=0.05, rho=5e-3, t_max_outer=6,
                    inner_epochs=100, hidden_widths=(2,), seed=1)
    est = fit(A, X, cfg)
    sa, sb = est.alpha_hat.sum(), est.beta_hat.sum()
    assert abs(sa - sb) <= 1e-8 * (1.0 + abs(sa))
    # undoing the shift leaves every log-rate in place
    raw_alpha = est.alpha_hat - est.centering_shift
    raw_beta = est.beta_hat + est.centering_shift
    centered = est.alpha_hat[:, None] + est.beta_hat[None, :]
    raw = raw_alpha[:, None] + raw_beta[None, :]
    assert np.abs(centered - raw).max() <= 1e-12


def test_fit_centered_values_match_net_forward_plus_shift():
    A, X = _random_instance(22, 6)
    cfg = FitConfig(rho=5e-3, t_max_outer=4, inner_epochs=80,
                    hidden_widths=(3,), seed=2)
    est = fit(A, X, cfg)
    np.testing.assert_allclose(
        est.alpha_hat, forward_batch(est.net_alpha, X) + est.centering_shift,
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        est.beta_hat, forward_batch(est.net_beta, X) - est.centering_shift,
        rtol=0, atol=1e-12)


def test_fit_selected_sets_match_nonzero_theta():
    A, X = _random_instance(23, 8)
    cfg = FitConfig(lambda1=0.4, lambda2=0.4, rho=5e-3, t_max_outer=5,
                    inner_epochs=100, hidden_widths=(), seed=4)
    est = fit(A, X, cfg)
    assert est.s_alpha == set(np.nonzero(est.net_alpha.theta)[0])
    assert est.s_beta == set(np.nonzero(est.net_beta.theta)[0])


def test_fit_is_deterministic():
    A, X = _random_instance(24, 7)
    cfg = FitConfig(lambda1=0.1, lambda2=0.2, rho=5e-3, t_max_outer=4,
                    inner_epochs=60, hidden_widths=(3, 2), seed=9)
    est1 = fit(A, X, cfg)
    est2 = fit(A, X, cfg)
    assert np.array_equal(est1.alpha_hat, est2.alpha_hat)
    assert np.array_equal(est1.beta_hat, est2.beta_hat)
    assert np.array_equal(est1.net_alpha.theta, est2.net_alpha.theta)
    assert est1.s_alpha == est2.s_alpha


def test_fit_history_and_convergence_flags():
    n, p, c = 6, 5, 4
    A = _uniform_network(n, c)
    X = np.random.default_rng(3).uniform(-1, 1, size=(n, p))
    rushed = FitConfig(rho=1e-3, t_max_outer=1, inner_epochs=30,
                       hidden_widths=(), seed=5)
    est = fit(A, X, rushed)
    assert not est.converged
    assert est.outer_iterations == 1
    assert len(est.history) == 1
    patient = replace(rushed, rho=2e-2, t_max_outer=30, inner_epochs=200)
    est2 = fit(A, X, patient)
    assert est2.converged
    assert est2.outer_iterations < 30
    assert len(est2.history) == est2.outer_iterations
    rec = est2.history[-1]
    assert rec.delta_alpha < patient.resolved_epsilon(n)
    assert rec.delta_beta < patient.resolved_epsilon(n)
    assert math.isfinite(rec.loss.total)


def test_fit_rejects_mismatched_sizes():
    A = CountNetwork.from_edges(4, [(0, 1, 1)])
    X = np.zeros((5, 3))
    with pytest.raises(ValueError):
        fit(A, X, FitConfig())


def test_fit_distinct_beta_architecture():
    A, X = _random_instance(25, 6)
    cfg = FitConfig(rho=5e-3, t_max_outer=2, inner_epochs=40,
                    hidden_widths=(4,), hidden_widths_beta=(2, 2), seed=6)
    est = fit(A, X, cfg)
    assert [w.weights.shape[0] for w in est.net_alpha.layers] == [4, 1]
    assert [w.weights.shape[0] for w in est.net_beta.layers] == [2, 2, 1]


# ---------------------------------------------------------- extract_selected

def test_extract_selected_trivial_cases():
    assert extract_selected(np.zeros(5)) == set()
    assert extract_selected(np.array([0.0, 0.3, -0.2])) == {1, 2}


def test_extract_selected_after_total_shrinkage():
    w1 = np.ones((4, 2))
    theta = np.array([0.5, -0.8, 0.1, 0.0])
    _, theta_new = hierarchical_prox(w1, theta, 100.0, 1.0)
    assert extract_selected(theta_new) == set()


def test_extract_selected_tolerance_guard():
    theta = np.array([5e-13, 2e-12, -1.0])
    assert extract_selected(theta) == {1, 2}
    assert extract_selected(theta, tol=1e-11) == {2}


# -------------------------------------------------------------------- hbic

def test_hbic_zero_support_is_twice_nll():
    assert hbic(123.4, 0, 50, 10) == pytest.approx(246.8, rel=1e-12)


def test_hbic_hand_value():
    value = hbic(100.0, 10, 100, 1000)
    expected = 200.0 + 10.0 * math.log(math.log(9900)) * math.log(1000)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(353.3, abs=0.1)


def test_hbic_monotone_in_support():
    scores = [hbic(10.0, s, 30, 40) for s in range(6)]
    assert all(b > a for a, b in zip(scores, scores[1:]))


def test_hbic_validation():
    with pytest.raises(ValueError):
        hbic(1.0, -1, 10, 5)
    with pytest.raises(ValueError):
        hbic(1.0, 0, 1, 5)
    with pytest.raises(ValueError):
        hbic(1.0, 0, 10, 0)


# ------------------------------------------------------------- grid_search

def _small_fit_setup(seed: int = 40):
    A, X = _random_instance(seed, 8)
    base = FitConfig(rho=5e-3, t_max_outer=3, inner_epochs=60,
                     hidden_widths=(), seed=2)
    return A, X, base


def test_grid_search_singleton():
    A, X, base = _small_fit_setup()
    cfg, est, results = grid_search(A, X, base, [(0.2, 0.3, 1.5)])
    assert (cfg.lambda1, cfg.lambda2, cfg.M) == (0.2, 0.3, 1.5)
    assert len(results) == 1
    assert results[0].hbic == hbic(results[0].nll, results[0].s_total, A.n, 3)
    direct = fit(A, X, replace(base, lambda1=0.2, lambda2=0.3, M=1.5))
    assert np.array_equal(est.alpha_hat, direct.alpha_hat)


def test_grid_search_moderate_lambda_beats_collapse():
    # a huge penalty empties both nets; the moderate penalty keeps real
    # signal and wins on HBIC because its nll drop dwarfs the support cost
    n, p, z = 100, 50, 10.0
    X, _, A = simulate_design("linear", n, p, derive_seed(77, 0), z)
    base = FitConfig(M=0.5, rho=8e-4, z_n=z, inner_epochs=800, t_max_outer=5,
                     hidden_widths=(), seed=11)
    cfg, est, results = grid_search(A, X, base, [(1e6, 1e6, 0.5), (15.0, 15.0, 0.5)])
    assert results[0].s_total == 0
    assert results[1].s_total > 0
    assert results[1].hbic < results[0].hbic
    assert cfg.lambda1 == 15.0
    assert len(est.s_alpha) > 0


def test_grid_search_duplicate_triples_keep_first():
    A, X, base = _small_fit_setup()
    cfg, est, results = grid_search(A, X, base, [(0.3, 0.3, 1.0), (0.3, 0.3, 1.0)])
    assert len(results) == 2
    assert results[0].hbic == results[1].hbic
    assert (cfg.lambda1, cfg.lambda2, cfg.M) == (0.3, 0.3, 1.0)


def test_grid_search_jobs_match_serial():
    A, X, base = _small_fit_setup()
    grid = [(0.1, 0.1, 1.0), (0.5, 0.5, 1.0), (2.0, 2.0, 1.0)]
    cfg1, est1, res1 = grid_search(A, X, base, grid, jobs=1)
    cfg2, est2, res2 = grid_search(A, X, base, grid, jobs=2)
    assert (cfg1.lambda1, cfg1.lambda2, cfg1.M) == (cfg2.lambda1, cfg2.lambda2, cfg2.M)
    assert [r.hbic for r in res1] == [r.hbic for r in res2]
    assert np.array_equal(est1.alpha_hat, est2.alpha_hat)


def test_grid_search_empty_grid_rejected():
    A, X, base = _small_fit_setup()
    with pytest.raises(ValueError):
        grid_search(A, X, base, [])


def test_grid_search_all_diverged():
    A, X = _random_instance(41, 5)
    base = FitConfig(rho=1e30, t_max_outer=2, inner_epochs=5,
                     hidden_widths=(), seed=1)
    with pytest.raises(FitDivergenceError):
        grid_search(A, X, base, [(0.0, 0.0, 1.0)])


def test_grid_search_table_consistent_with_winner():
    A, X = _random_instance(42, 5)
    base = FitConfig(rho=5e-3, t_max_outer=2, inner_epochs=40,
                     hidden_widths=(), seed=1)
    grid = [(0.2, 0.2, 1.0), (1e9, 1e9, 1.0), (0.05, 0.4, 2.0)]
    cfg, est, results = grid_search(A, X, base, grid)
    assert [r.error for r in results] == [None, None, None]
    # each table row's score recomputes from its own nll and support
    for r in results:
        assert r.hbic == hbic(r.nll, r.s_total, A.n, 3)
    # the winner is the argmin under the documented tie-break key
    keys = [(r.hbic, r.s_total, r.lambda1 + r.lambda2, i)
            for i, r in enumerate(results)]
    best = min(range(len(grid)), key=lambda i: keys[i])
    assert (cfg.lambda1, cfg.lambda2, cfg.M) == grid[best]
    assert len(est.s_alpha) + len(est.s_beta) == results[best].s_total


# --------------------------------------------------------------- FitConfig

def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(lambda1=-0.1)
    with pytest.raises(ValueError):
        FitConfig(M=0.0)
    with pytest.raises(ValueError):
        FitConfig(rho=0.0)
    with pytest.raises(ValueError):
        FitConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        FitConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        FitConfig(t_max_outer=0)
    with pytest.raises(ValueError):
        FitConfig(inner_epochs=0)
    with pytest.raises(ValueError):
        FitConfig(z_n=0.0)
    with pytest.raises(ValueError):
        FitConfig(seed=-1)
    with pytest.raises(ValueError):
        FitConfig(hidden_widths=(4, 0))
    with pytest.raises(ValueError):
        FitConfig(hidden_widths=(2.5,))


@pytest.mark.parametrize("field,value", [
    ("lambda1", math.nan), ("lambda2", math.inf), ("gamma", math.nan), ("M", math.inf),
    ("rho", math.nan), ("epsilon", math.nan), ("z_n", math.inf),
    ("t_max_outer", 2.5), ("inner_epochs", 2.5), ("seed", 1.5),
    ("hidden_widths", (math.inf,)),
    ("t_max_outer", "5"), ("seed", "0"), ("inner_epochs", Fraction(5, 2)),
    ("hidden_widths", ("4",)), ("hidden_widths", (Decimal("2.5"),)),
    # past float range: math.isfinite would raise OverflowError
    pytest.param("seed", 10**400, id="seed-10**400"),
])
def test_fit_config_rejects_non_finite_and_fractional_values(field, value):
    with pytest.raises(ValueError, match=field.replace("_", "[_ ]")):
        FitConfig(**{field: value})


def test_fit_config_integer_fields_become_int():
    for cfg in (FitConfig(t_max_outer=3.0, inner_epochs=np.int64(7), seed=5.0),
                FitConfig(t_max_outer=Decimal(3), inner_epochs=Fraction(7, 1),
                          seed=np.float64(5.0))):
        assert (cfg.t_max_outer, cfg.inner_epochs, cfg.seed) == (3, 7, 5)
        assert all(type(v) is int for v in (cfg.t_max_outer, cfg.inner_epochs, cfg.seed))


def test_fit_config_resolved_defaults():
    cfg = FitConfig()
    assert cfg.resolved_gamma(100) == pytest.approx(0.01)
    assert cfg.resolved_epsilon(100) == pytest.approx(1e-3)
    pinned = FitConfig(gamma=0.5, epsilon=0.25)
    assert pinned.resolved_gamma(100) == 0.5
    assert pinned.resolved_epsilon(100) == 0.25


def test_fit_config_width_coercion():
    cfg = FitConfig(hidden_widths=(4.0, 2.0), hidden_widths_beta=(3.0,))
    assert cfg.hidden_widths == (4, 2)
    assert cfg.hidden_widths_beta == (3,)


# --------------------------------------------------- BLAS kernel choice

def _openblas_dynamic_arch() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


_FIT_AND_REPORT = """
import json
from hetnet import FitConfig, fit, simulate_design
X, _, A = simulate_design("linear", 120, 60, 9, 10.0)
est = fit(A, X, FitConfig(lambda1=18.0, lambda2=18.0, M=0.5, rho=8e-4, z_n=10.0,
                          inner_epochs=300, t_max_outer=3, hidden_widths=(), seed=11))
print(json.dumps([sorted(est.s_alpha), sorted(est.s_beta), est.final_loss.total]))
"""


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="needs an OpenBLAS built with DYNAMIC_ARCH")
def test_fit_agrees_across_openblas_kernels():
    # a DYNAMIC_ARCH OpenBLAS picks its kernels per CPU at load time, so
    # artifacts are byte-identical only for one machine and BLAS build;
    # across kernels the fit must still reach the same point
    src = str(Path(optimizer_mod.__file__).resolve().parent.parent)
    outs = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])),
                   OPENBLAS_NUM_THREADS="1")
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        run = subprocess.run([sys.executable, "-c", _FIT_AND_REPORT], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(json.loads(run.stdout))
    (sa0, sb0, total0), (sa1, sb1, total1) = outs
    assert (sa0, sb0) == (sa1, sb1)
    assert math.isclose(total0, total1, rel_tol=1e-12, abs_tol=0.0)
