"""The trainer's working set and screen against the full-width trainer.

``update_side`` multiplies only X's live columns and lets a screen
certify that the other block rows stay zero after the prox.  The screen
is meant to change no step decision, so the trainer must take exactly
the steps of the full-width trainer it replaced, which is kept here
verbatim as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hetnet.optimizer as optimizer_mod
from hetnet import (
    CountNetwork,
    FitDivergenceError,
    HierarchyViolationError,
    Layer,
    Rng,
    SkipLayerNet,
    init_net,
    update_side,
)
from hetnet.objective import _SideLoss, _check_values, identifiability_penalty
from hetnet.optimizer import _MAX_RHO_HALVINGS, _hierarchy_gap, _projected, hierarchical_prox
from hetnet.skipnet import (
    FlatNet,
    WorkingSet,
    _backward_from_activations,
    _forward_activations,
)


# ------------------------------------------------------ reference trainer
# The full-width trainer step that the working set replaced, kept verbatim
# apart from counting its attempted steps: every forward pass reads all
# of X, and every backward pass computes the whole gradient.

def _full_width_update_side(side, net, X, A, fixed_vals, lam, gamma, rho, M, z_n,
                            inner_epochs):
    attempts = 0
    fixed = _check_values(fixed_vals, A, z_n)
    target_sum = float(fixed.sum())
    x2d = np.asarray(getattr(X, "values", X), dtype=np.float64)
    n = x2d.shape[0]
    cur = FlatNet.from_net(net, n)
    trial = FlatNet(cur.p, cur.widths, n)
    grad = FlatNet(cur.p, cur.widths, n)

    side_loss = _SideLoss(fixed, A, z_n, side)

    def loss_and_upstream(vals: np.ndarray):
        nll, d_nll = side_loss(vals)
        if not math.isfinite(nll):
            return np.inf, None
        ident, d_ident = identifiability_penalty(vals, target_sum, gamma)
        d_nll += d_ident
        return nll + ident, d_nll

    vals = _forward_activations(cur, x2d)
    loss, upstream = loss_and_upstream(vals)
    trace = [loss]
    if inner_epochs == 0:
        return vals, cur.to_net(), np.asarray(trace), attempts
    if not np.isfinite(loss):
        raise FitDivergenceError(f"{side} update entered with non-finite loss")

    composite = loss + lam * float(np.abs(cur.theta).sum())
    rho_full = rho
    halvings = 0
    stale_grad = True
    epoch = 0
    while epoch < inner_epochs:
        if stale_grad:
            _backward_from_activations(cur, x2d, upstream, grad)
            stale_grad = False

        np.multiply(grad.flat, rho, out=trial.flat)
        np.subtract(cur.flat, trial.flat, out=trial.flat)
        attempts += 1
        w1, theta = hierarchical_prox(trial.w1, trial.theta, rho * lam, M)
        trial.w1[:] = w1
        trial.theta[:] = theta

        trial_vals = _forward_activations(trial, x2d)
        new_loss, new_upstream = loss_and_upstream(trial_vals)
        new_composite = new_loss + lam * float(np.abs(theta).sum())
        if not new_composite <= composite + 1e-9 * max(1.0, abs(composite)):
            halvings += 1
            if halvings > _MAX_RHO_HALVINGS:
                if new_composite - composite <= 1e-3 * max(1.0, abs(composite)):
                    break
                raise FitDivergenceError(
                    f"{side} update diverged at epoch {epoch}: loss would not "
                    f"decrease after {_MAX_RHO_HALVINGS} halvings of rho "
                    f"(last rho {rho:g})"
                )
            rho *= 0.5
            continue
        cur, trial = trial, cur
        vals, loss, upstream = trial_vals, new_loss, new_upstream
        stale_grad = True
        composite = new_composite
        trace.append(loss)
        epoch += 1
        halvings = 0
        rho = min(2.0 * rho, rho_full)

    net = cur.to_net()
    gap = _hierarchy_gap(net, M)
    if not gap <= 1e-9 * max(1.0, M):
        raise HierarchyViolationError(
            f"{side} net breaks the hierarchy constraint by {gap:g} (M={M:g})"
        )
    return vals, net, np.asarray(trace), attempts


# ------------------------------------------------------------ instances

def _sparse_instance(seed: int, n: int, p: int):
    """Senders driven by features 0 and 1 of X, receivers by nothing."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    alpha = 0.8 * X[:, 0] - 0.6 * X[:, 1]
    rates = np.exp(alpha[:, np.newaxis] - 1.0)
    np.fill_diagonal(rates, 0.0)
    counts = rng.poisson(rates)
    src, dst = np.nonzero(counts)
    A = CountNetwork.from_edges(n, np.column_stack([src, dst, counts[src, dst]]))
    return A, X


def _entry_net(p: int, widths, seed: int, live, break_row=None):
    """A projected net whose gates are open on ``live`` only; ``break_row``
    keeps a first-layer row under a closed gate, breaking the hierarchy."""
    net = init_net(p, widths, Rng(seed), theta_scale=0.5)
    keep = np.zeros(p, dtype=bool)
    keep[list(live)] = True
    net.theta[~keep] = 0.0
    w1 = net.layers[0].weights.copy() if widths else None
    net = _projected(net, 1.0)
    if break_row is not None:
        net.layers[0].weights[:, break_row] = w1[:, break_row]
    return net


def _rel_close(got, want, rel: float = 1e-12) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return got.size == 0 or np.abs(got - want).max() <= rel * np.abs(want).max()


class _Counts:
    """Prox calls, backward passes, screen refreshes and screened X'
    products (those that read only the working set's columns) of one
    update."""

    def __init__(self, monkeypatch):
        self.prox = self.backward = self.refresh = self.screened = 0
        prox, backward, refresh, xt = (optimizer_mod.hierarchical_prox,
                                       optimizer_mod._backward_from_activations,
                                       WorkingSet._refresh, WorkingSet.xt)

        def counted_prox(*args):
            self.prox += 1
            return prox(*args)

        def counted_backward(*args):
            self.backward += 1
            return backward(*args)

        def counted_refresh(ws, *args):
            self.refresh += 1
            return refresh(ws, *args)

        def counted_xt(ws, *args):
            before = self.refresh
            out = xt(ws, *args)
            self.screened += ws.rows is not None and self.refresh == before
            return out

        monkeypatch.setattr(optimizer_mod, "hierarchical_prox", counted_prox)
        monkeypatch.setattr(optimizer_mod, "_backward_from_activations", counted_backward)
        monkeypatch.setattr(WorkingSet, "_refresh", counted_refresh)
        monkeypatch.setattr(WorkingSet, "xt", counted_xt)


# (widths, lam, entry gates, first-layer row kept under a closed gate)
CASES = {
    "linear": ((), 6.0, (1, 2, 5, 9), None),
    "linear-lambda0": ((), 0.0, (1, 2, 5, 9), None),
    "hidden": ((8, 4), 6.0, (1, 2, 5, 9), None),
    "hidden-broken-hierarchy": ((8, 4), 6.0, (1, 2, 5, 9), 3),
    "hidden-lambda0": ((8, 4), 0.0, (1, 2, 5), None),
}


def _same_steps(monkeypatch, args):
    """Run both trainers; check that they take the same steps to the same
    values.  Returns the working-set trainer's counts and net."""
    want_vals, want_net, want_trace, want_attempts = _full_width_update_side(*args)
    counts = _Counts(monkeypatch)
    vals, got_net, trace = update_side(*args)
    assert counts.prox == want_attempts
    assert len(trace) == len(want_trace)
    assert np.array_equal(got_net.theta != 0.0, want_net.theta != 0.0)
    assert _rel_close(trace, want_trace)
    assert _rel_close(vals, want_vals)
    assert _rel_close(got_net.theta, want_net.theta)
    for g, w in zip(got_net.layers, want_net.layers, strict=True):
        assert _rel_close(g.weights, w.weights)
        assert _rel_close(g.biases, w.biases)
    return counts, got_net


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_working_set_takes_the_full_width_steps(monkeypatch, case, seed):
    widths, lam, live, break_row = CASES[case]
    # p > n, as in the designs; at rho = 2e-4 the map is stable enough
    # that rounding differences do not grow, while about one step in
    # eight is still rejected
    n, p = 60, 120
    A, X = _sparse_instance(seed, n, p)
    net = _entry_net(p, widths, seed + 7, live, break_row)
    counts, got_net = _same_steps(
        monkeypatch, ("alpha", net, X, A, np.zeros(n), lam, 0.1, 2e-4, 1.0, 1.0, 300))
    if lam == 0.0:
        # no radius is positive: every backward pass reads all of X
        assert counts.screened == 0
    else:
        # the screen both refreshed and skipped full products (12-47% of
        # the backward passes here; the rest come while over a quarter of
        # the rows are live), and the instance exercises both ways S
        # changes: feature 0 revives, and an entry gate closes
        assert counts.refresh > 0 and counts.screened > 0.1 * counts.backward
        assert net.theta[0] == 0.0 and got_net.theta[0] != 0.0
        assert any(net.theta[k] != 0.0 and got_net.theta[k] == 0.0 for k in live)
    if break_row is not None:
        assert _hierarchy_gap(net, 1.0) > 0.0
        assert not got_net.layers[0].weights[:, break_row].any()


def test_a_row_that_leaves_the_working_set_gets_a_fresh_gradient(monkeypatch):
    # the strongest feature's gate is set so that the first step closes
    # it while its gradient still exceeds lam, so the second step must
    # reopen it.  The refresh at the entry point gives it no margin (it
    # was live), so the backward pass after it leaves S must be full,
    # even though u has barely moved.
    n, p = 200, 80
    A, X = _sparse_instance(0, n, p)
    gamma, rho = 0.1, 1e-5
    net = SkipLayerNet(p, np.zeros(p), [Layer(np.zeros((1, p)), np.zeros(1))])
    # fit the bias alone first, so the gradient is the features' signal
    _, net, _, _ = _full_width_update_side("alpha", net, X, A, np.zeros(n), 1e9, gamma,
                                           1e-3, 1.0, 1.0, 300)
    flat = FlatNet.from_net(net, n)
    vals = _forward_activations(flat, X)
    _, u = _SideLoss(np.zeros(n), A, 1.0, "alpha")(vals)
    u += identifiability_penalty(vals, 0.0, gamma)[1]
    g = X.T @ u
    first, second = np.argsort(-np.abs(g))[:2]
    lam = float(abs(g[first]) + abs(g[second])) / 2.0
    net.theta[first] = rho * (g[first] - 0.5 * lam * np.sign(g[first]))
    args = ("alpha", net, X, A, np.zeros(n), lam, gamma, rho, 1.0, 1.0)
    assert _full_width_update_side(*args, 1)[1].theta[first] == 0.0
    counts, got_net = _same_steps(monkeypatch, args + (6,))
    assert got_net.theta[first] != 0.0
    assert counts.screened > 0


def test_working_set_reads_all_of_x_when_dense(monkeypatch):
    # above a quarter of the rows live, the products read all of X and
    # the screen never runs: no gather, no refresh
    A, X = _sparse_instance(3, 30, 12)
    net = _entry_net(12, (8, 4), 4, range(12))
    counts = _Counts(monkeypatch)
    vals, got, trace = update_side("beta", net, X, A, np.zeros(30), 0.0, 0.1, 2e-3,
                                   1.0, 1.0, 50)
    want_vals, want_net, want_trace, _ = _full_width_update_side(
        "beta", net, X, A, np.zeros(30), 0.0, 0.1, 2e-3, 1.0, 1.0, 50)
    assert counts.refresh == 0
    assert vals.tobytes() == want_vals.tobytes()
    assert trace.tobytes() == want_trace.tobytes()


def test_working_set_gathers_once_per_change_of_rows():
    X = np.arange(24.0).reshape(4, 6)
    ws = WorkingSet(X, 1.0)
    ws.select(np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.0]))
    gathered = ws.xs
    assert np.array_equal(gathered, X[:, [1]])
    ws.select(np.array([0.0, -2.0, 0.0, 0.0, 0.0, 0.0]))
    assert ws.xs is gathered
    ws.select(np.array([False, False, True, False, False, False]))
    assert np.array_equal(ws.xs, X[:, [2]])
    ws.select(np.ones(6))
    assert ws.rows is None and ws.xs is X


def test_backward_gives_the_full_gradient_without_a_working_set():
    # direct callers (criterion 6) get every row, live or not
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 10))
    net = _entry_net(10, (), 1, (0,))
    flat = FlatNet.from_net(net, 20)
    _forward_activations(flat, X)
    grad = FlatNet(flat.p, flat.widths, 20)
    u = rng.normal(size=20)
    _backward_from_activations(flat, X, u, grad)
    assert np.array_equal(grad.theta, X.T @ u)


# ------------------------------------------------------------ the radius

class _CountingWorkingSet(WorkingSet):
    refreshes = 0

    def _refresh(self, *args):
        self.refreshes += 1
        super()._refresh(*args)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300), p=st.integers(4, 30),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       headroom=st.sampled_from([0.0, 1e-15, 1e-12, 1e-8, 1e-4, 0.1]),
       frac=st.floats(0.0, 1.0, exclude_max=True))
@example(seed=0, n=1, p=4, scale=1e-3, headroom=0.0, frac=0.0)
@example(seed=1, n=300, p=30, scale=1e3, headroom=1e-15, frac=0.999)
def test_screen_radius_certifies_every_screened_row(seed, n, p, scale, headroom, frac):
    # lam sits just above the largest screened |x_k'u0|; a step of up to
    # the certified radius along the worst row's own direction must leave
    # every screened row's full product below lam
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * scale
    u0 = rng.normal(size=n)
    g0 = X.T @ u0
    outside = np.arange(1, p)
    lam = float(np.abs(g0[outside]).max()) * (1.0 + headroom) + 1e-300
    ws = _CountingWorkingSet(X, lam)
    ws.select(np.arange(p) == 0)
    ws.xt(u0, u0)  # the first product is always full: a refresh
    radius = ws._radius
    norms = np.sqrt((X * X).sum(axis=0))
    k = outside[np.argmax((np.abs(g0[outside]) - lam) / norms[outside])]
    direction = np.sign(g0[k]) * X[:, k] / norms[k]
    u = u0 + (frac * radius if radius > 0.0 else 0.0) * direction
    g = ws.xt(u, u, np.empty(p)).copy()
    assert ws.refreshes >= 1  # one row of p >= 4 is a sparse working set
    if ws.refreshes == 1:
        # screened: only the working row was multiplied
        full = X.T @ u
        assert np.all(np.abs(full[outside]) < lam)
        assert np.array_equal(g[outside], np.zeros(p - 1))
        assert g[0] == full[0] or abs(g[0] - full[0]) <= 1e-12 * abs(full[0])


def test_screen_with_zero_lambda_always_refreshes():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 8))
    ws = WorkingSet(X, 0.0)
    ws.select(np.arange(8) == 3)
    u = rng.normal(size=10)
    ws.xt(u, u)
    assert not ws._radius > 0.0
    g = ws.xt(u, u)
    assert np.array_equal(g, X.T @ u)


def test_screen_zero_column_needs_no_margin():
    # an all-zero column's gradient is exactly 0: it never forces a refresh
    X = np.zeros((5, 8))
    X[:, 0] = [1.0, -2.0, 0.5, 0.0, 3.0]
    ws = WorkingSet(X, 0.0)
    ws.select(np.arange(8) == 0)
    u = np.ones(5)
    ws.xt(u, u)
    assert ws._radius == math.inf
    assert np.array_equal(ws.xt(2.0 * u, 2.0 * u), X.T @ (2.0 * u))
