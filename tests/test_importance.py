import numpy as np
import pytest

from hetnet import (
    Rng,
    forward_batch,
    init_net,
    shapley_importance,
)
from hetnet.importance import _BUFFER_BYTES, _ranks
from hetnet.optimizer import _projected
from hetnet.rng import seed_for


def _pure_skip_net(theta: np.ndarray, bias: float = 0.0):
    """A net whose nonlinear part is identically zero."""
    net = init_net(theta.size, (4,), Rng(0))
    net.theta = theta.astype(np.float64)
    for layer in net.layers:
        layer.weights = np.zeros_like(layer.weights)
        layer.biases = np.zeros_like(layer.biases)
    net.layers[-1].biases[:] = bias
    return net


def _sparse_mlp_net(p: int, live, seed: int = 3):
    """A nonlinear net whose first layer touches only the live features."""
    net = init_net(p, (5, 3), Rng(seed))
    dead = [k for k in range(p) if k not in live]
    net.theta[dead] = 0.0
    return _projected(net, 2.0)  # zero rows for dead features, caps for live


# ----------------------------------------------------------- closed forms

def test_pure_skip_net_matches_linear_closed_form():
    rng = np.random.default_rng(1)
    n, p = 12, 6
    X = rng.uniform(-1, 1, size=(n, p))
    theta = np.array([0.8, -1.2, 0.0, 0.5, 0.0, 2.0])
    net = _pure_skip_net(theta, bias=0.3)
    feats = [0, 1, 3, 5]
    report = shapley_importance(net, X, feats, samples=200, seed=9)
    mean_k = X.mean(axis=0)
    bad = 0
    for row, node in enumerate(report.node_indices.tolist()):
        for s, k in enumerate(report.features):
            want = theta[k] * (X[node, k] - mean_k[k])
            got = report.node_values[row, s]
            se = report.node_stderrs[row, s]
            # linear value functions make every permutation identical, so
            # the estimate is exact up to float accumulation
            if abs(got - want) > max(3.0 * se, 1e-9):
                bad += 1
    assert bad == 0


def test_pure_skip_estimates_are_exact_per_sample():
    # additive model: the marginal contribution never depends on the
    # reveal order, so even one sample is exact and the stderr is zero
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, size=(8, 3))
    theta = np.array([1.0, -0.5, 0.25])
    net = _pure_skip_net(theta)
    report = shapley_importance(net, X, [0, 1, 2], samples=5, seed=1)
    assert float(report.node_stderrs.max()) < 1e-7


def test_unselected_feature_attribution_exactly_zero():
    p = 7
    live = {1, 4}
    net = _sparse_mlp_net(p, live)
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(10, p))
    report = shapley_importance(net, X, [0, 1, 4, 6], samples=50, seed=2)
    by_feat = dict(zip(report.features, report.mean_abs))
    assert by_feat[0] == 0.0
    assert by_feat[6] == 0.0
    assert by_feat[1] > 0.0
    assert by_feat[4] > 0.0
    idx0 = report.features.index(0)
    assert np.all(report.node_values[:, idx0] == 0.0)


def test_efficiency_property():
    # per node, Shapley values over all features sum to the prediction
    # minus the baseline prediction, within Monte-Carlo error
    p = 5
    net = _sparse_mlp_net(p, {0, 1, 2, 3, 4}, seed=6)
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(9, p))
    report = shapley_importance(net, X, list(range(p)), samples=1000, seed=11)
    base = forward_batch(net, X.mean(axis=0)[None, :])[0]
    preds = forward_batch(net, X)
    for row, node in enumerate(report.node_indices.tolist()):
        total = float(report.node_values[row].sum())
        want = float(preds[node] - base)
        # efficiency holds exactly per permutation sample: the telescoping
        # sum collapses, so the tolerance is pure rounding
        assert total == pytest.approx(want, abs=1e-9)


def test_stderr_scales_inverse_sqrt_samples():
    p = 4
    net = _sparse_mlp_net(p, {0, 1, 2, 3}, seed=8)
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(6, p))
    ratios = []
    for trial in range(30):
        small = shapley_importance(net, X, range(p), samples=200,
                                   seed=100 + trial)
        big = shapley_importance(net, X, range(p), samples=400,
                                 seed=100 + trial)
        ratios.append(float(small.stderr.mean() / big.stderr.mean()))
    mean_ratio = float(np.mean(ratios))
    assert abs(mean_ratio - np.sqrt(2.0)) < 0.2 * np.sqrt(2.0)


# -------------------------------------------------------------- mechanics

def test_single_sample_runs_with_infinite_stderr():
    net = _pure_skip_net(np.array([1.0, 2.0]))
    X = np.array([[0.2, -0.4], [-0.6, 0.8]])
    report = shapley_importance(net, X, [0, 1], samples=1, seed=3)
    assert report.samples == 1
    assert np.all(np.isinf(report.node_stderrs))
    assert np.all(np.isfinite(report.node_values))


def test_feature_handling_and_validation():
    net = _pure_skip_net(np.array([1.0, 0.5, 0.2]))
    X = np.zeros((4, 3))
    with pytest.raises(ValueError):
        shapley_importance(net, X, [], samples=10, seed=1)
    with pytest.raises(ValueError):
        shapley_importance(net, X, [3], samples=10, seed=1)
    with pytest.raises(ValueError):
        shapley_importance(net, X, [0], samples=0, seed=1)
    with pytest.raises(ValueError):
        shapley_importance(net, np.zeros((4, 2)), [0], samples=10, seed=1)
    for max_nodes in (0, -3):
        with pytest.raises(ValueError, match="max_nodes"):
            shapley_importance(net, X, [0], samples=10, seed=1, max_nodes=max_nodes)
    with pytest.raises(ValueError, match="side"):
        shapley_importance(net, X, [0], samples=10, seed=1, side="gamma")
    # duplicate and unsorted features are canonicalized
    report = shapley_importance(net, X, [2, 0, 2], samples=2, seed=1)
    assert report.features == (0, 2)


def test_determinism_and_node_subsampling():
    rng = np.random.default_rng(12)
    X = rng.uniform(-1, 1, size=(30, 4))
    net = _sparse_mlp_net(4, {0, 1, 2, 3}, seed=13)
    a = shapley_importance(net, X, range(4), samples=20, seed=5, max_nodes=10)
    b = shapley_importance(net, X, range(4), samples=20, seed=5, max_nodes=10)
    assert np.array_equal(a.node_indices, b.node_indices)
    assert np.array_equal(a.node_values, b.node_values)
    assert a.node_indices.size == 10
    assert np.all(np.diff(a.node_indices) > 0)
    full = shapley_importance(net, X, range(4), samples=20, seed=5)
    assert full.node_indices.size == 30


# --------------------------------------------- golden: one sample at a time

def _shuffled(q, rng):
    perm = np.arange(q)
    for t in range(q - 1, 0, -1):
        j = min(int(rng.uniform() * (t + 1)), t)
        perm[t], perm[j] = perm[j], perm[t]
    return perm


def _reference_node_values(net, x2d, feats, samples, seed, node_indices):
    """The per-sample Shapley loop the block version must reproduce bit for bit."""
    q = len(feats)
    baseline = x2d.mean(axis=0)
    feats_arr = np.asarray(feats)
    node_values = np.empty((node_indices.size, q))
    node_stderrs = np.empty((node_indices.size, q))
    states = np.empty((q + 1, net.p))
    for row, node in enumerate(node_indices.tolist()):
        rng = Rng(seed_for(f"node-{node}", seed))
        x = x2d[node]
        sums = np.zeros(q)
        sumsq = np.zeros(q)
        for _ in range(samples):
            perm = _shuffled(q, rng)
            states[0] = baseline
            z = states[0]
            for t, slot in enumerate(perm.tolist()):
                k = feats_arr[slot]
                states[t + 1] = z
                states[t + 1, k] = x[k]
                z = states[t + 1]
            outs = forward_batch(net, states)
            d = np.diff(outs)
            sums[perm] += d
            sumsq[perm] += d * d
        mean = sums / samples
        if samples > 1:
            var = np.maximum(sumsq - samples * mean * mean, 0.0) / (samples - 1)
            se = np.sqrt(var / samples)
        else:
            se = np.full(q, np.inf)
        node_values[row] = mean
        node_stderrs[row] = se
    return node_values, node_stderrs


# chunk is the number of samples per forward_batch call: rows of about
# 256 KB of reveal states, max(q+1, 32768 // p), in whole samples of q+1
@pytest.mark.parametrize("hidden, p, feats, samples, n, max_nodes, chunk", [
    ((8, 4), 40, range(0, 40, 2), 57, 12, 500, 39),   # a full chunk, then a partial one
    ((), 30, range(30), 45, 10, 500, 35),             # no hidden layers
    ((8, 4), 12, [5], 9, 8, 500, 1365),               # q=1: no uniforms are drawn
    ((8, 4), 20, range(3, 17), 1, 9, 500, 109),       # samples=1
    ((5, 3), 10, range(10), 23, 40, 7, 297),          # n > max_nodes subsample path
    ((4,), 600, range(0, 600, 12), 3, 4, 500, 1),     # p so wide a chunk is one sample
])
def test_block_shapley_matches_per_sample_loop(hidden, p, feats, samples, n, max_nodes,
                                               chunk):
    feats = list(feats)
    net = init_net(p, hidden, Rng(17))
    X = np.random.default_rng(p).uniform(-1, 1, size=(n, p))
    assert max(len(feats) + 1, _BUFFER_BYTES // (8 * p)) // (len(feats) + 1) == chunk
    report = shapley_importance(net, X, feats, samples=samples, seed=23,
                                max_nodes=max_nodes)
    want_values, want_stderrs = _reference_node_values(
        net, X, feats, samples, 23, report.node_indices)
    assert report.node_indices.size == min(n, max_nodes)
    assert np.array_equal(report.node_values, want_values)
    assert np.array_equal(report.node_stderrs, want_stderrs)


# ------------------------------------------------------------------ ranks

def _best_first(features, rank) -> list[int]:
    return [f for _, f in sorted(zip(rank.tolist(), features))]


def test_rank_features_ordering():
    rank = _ranks(np.array([0.5, 0.2, 0.9]), (2, 5, 9))
    assert rank.tolist() == [2, 3, 1]
    assert _best_first((2, 5, 9), rank) == [9, 2, 5]


def test_rank_features_tie_break_by_index():
    rank = _ranks(np.array([0.4, 0.4, 0.4]), (3, 1, 7))
    assert rank.tolist() == [2, 1, 3]
    assert _best_first((3, 1, 7), rank) == [1, 3, 7]


def test_rank_single_feature_and_report_ranks():
    net = _pure_skip_net(np.array([0.7, 1.5, -2.0]))
    X = np.random.default_rng(14).uniform(-1, 1, size=(10, 3))
    report = shapley_importance(net, X, [1], samples=10, seed=4)
    assert list(report.rank) == [1]
    full = shapley_importance(net, X, [0, 1, 2], samples=50, seed=4)
    # |theta| ordering: feature 2 strongest, then 1, then 0
    assert full.rank.tolist() == [3, 2, 1]
    assert _best_first(full.features, full.rank) == [2, 1, 0]
