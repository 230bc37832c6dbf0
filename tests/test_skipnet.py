import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hetnet import (
    Layer,
    Rng,
    SkipLayerNet,
    forward_batch,
    init_net,
    net_from_json_dict,
    net_to_json_dict,
)
from hetnet.optimizer import hierarchical_prox
from hetnet.skipnet import FlatNet, _backward_from_activations, _forward_activations


def _zero_net(p: int, widths=(3, 2)) -> SkipLayerNet:
    layers = []
    d_in = p
    for d_out in list(widths) + [1]:
        layers.append(Layer(np.zeros((d_out, d_in)), np.zeros(d_out)))
        d_in = d_out
    return SkipLayerNet(p, np.zeros(p), layers)


def _random_net(p: int, widths, seed: int) -> SkipLayerNet:
    return init_net(p, widths, Rng(seed))


def _row(net: SkipLayerNet, x) -> float:
    """The net at one input row, evaluated as a one-row batch."""
    return float(forward_batch(net, np.asarray(x)[np.newaxis, :])[0])


def _backward(net: SkipLayerNet, X, upstream) -> SkipLayerNet:
    """The training backward pass, its gradient shaped like ``net``."""
    X = np.asarray(X, dtype=np.float64)
    flat = FlatNet.from_net(net, X.shape[0])
    _forward_activations(flat, X)
    grad = FlatNet(flat.p, flat.widths, X.shape[0])
    _backward_from_activations(flat, X, np.asarray(upstream, dtype=np.float64), grad)
    return grad.to_net()


# ---------------------------------------------------------------- forward

def test_forward_zero_net():
    net = _zero_net(4)
    assert _row(net, np.array([1.0, -2.0, 3.0, 0.5])) == 0.0


def test_forward_pure_skip_path():
    net = _zero_net(2)
    net.theta[:] = [2.0, 0.0]
    assert _row(net, np.array([3.0, 5.0])) == 6.0


def test_forward_hand_built_relu():
    # one hidden unit: relu(x1 - x2), output weight 2
    layers = [
        Layer(np.array([[1.0, -1.0]]), np.zeros(1)),
        Layer(np.array([[2.0]]), np.zeros(1)),
    ]
    net = SkipLayerNet(2, np.zeros(2), layers)
    assert _row(net, np.array([3.0, 5.0])) == 0.0
    assert _row(net, np.array([5.0, 3.0])) == 4.0


def test_forward_rejects_wrong_width():
    net = _zero_net(3)
    with pytest.raises(ValueError, match="columns"):
        forward_batch(net, np.array([[1.0, 2.0]]))


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="theta"):
        SkipLayerNet(3, np.zeros(2), [])
    with pytest.raises(ValueError, match="single output"):
        SkipLayerNet(2, np.zeros(2), [Layer(np.zeros((3, 2)), np.zeros(3))])
    with pytest.raises(ValueError, match="layer 1"):
        SkipLayerNet(
            2,
            np.zeros(2),
            [Layer(np.zeros((3, 2)), np.zeros(3)), Layer(np.zeros((1, 4)), np.zeros(1))],
        )


# ---------------------------------------------------------- forward_batch

def test_forward_batch_zero_net():
    net = _zero_net(3)
    out = forward_batch(net, np.random.default_rng(0).normal(size=(6, 3)))
    assert np.array_equal(out, np.zeros(6))


def test_forward_batch_bitwise_equals_row_loop():
    # einsum keeps batched rows identical to one-at-a-time evaluation
    net = _random_net(3, (5, 3), seed=17)
    X = np.random.default_rng(2).normal(size=(5, 3))
    batch = forward_batch(net, X)
    rows = np.array([forward_batch(net, X[i:i + 1])[0] for i in range(5)])
    assert np.array_equal(batch, rows)


def test_forward_batch_accepts_attribute_matrix():
    from hetnet import AttributeMatrix

    net = _random_net(2, (3,), seed=1)
    x = AttributeMatrix(np.array([[0.5, -0.5], [1.0, 0.25]]))
    assert np.array_equal(forward_batch(net, x), forward_batch(net, x.values))


# --------------------------------------------------------------- backward

def test_backward_zero_upstream():
    net = _random_net(4, (3, 2), seed=3)
    X = np.random.default_rng(1).normal(size=(6, 4))
    grads = _backward(net, X, np.zeros(6))
    assert np.array_equal(grads.theta, np.zeros(4))
    for layer in grads.layers:
        assert np.all(layer.weights == 0.0)
        assert np.all(layer.biases == 0.0)


def test_backward_skip_path_exact():
    # with zero hidden weights the function is theta'x, so d_theta = X'u
    net = _zero_net(3, widths=(4,))
    net.theta[:] = [0.5, -1.0, 2.0]
    X = np.random.default_rng(7).normal(size=(5, 3))
    u = np.random.default_rng(8).normal(size=5)
    grads = _backward(net, X, u)
    assert np.allclose(grads.theta, X.T @ u, rtol=0, atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 1200), p=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, p=1, seed=0)
@example(n=1, p=500, seed=1)
@example(n=1000, p=1, seed=2)
@example(n=1000, p=500, seed=3)
def test_backward_without_hidden_layers_shares_one_product(n, p, seed):
    rng = np.random.default_rng(seed)
    net = _random_net(p, (), seed=seed)
    X = rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e3])
    u = rng.normal(size=n)
    grads = _backward(net, X, u)
    # the two products the backward pass computed before it shared one
    old_d_theta = X.T @ u
    dz = u[:, np.newaxis]
    old_d_w = dz.T @ X
    assert grads.theta.tobytes() == old_d_theta.tobytes()
    (d_out,) = grads.layers
    assert d_out.weights.shape == (1, p)
    assert d_out.weights.tobytes() == old_d_w.tobytes()
    assert d_out.biases.tobytes() == dz.sum(axis=0).tobytes()
    # writing into one gradient leaves the other as it was
    d_out.weights += 1.0
    assert grads.theta.tobytes() == old_d_theta.tobytes()
    grads.theta -= 1.0
    assert d_out.weights.tobytes() == (old_d_w + 1.0).tobytes()


def test_backward_shapes_match_parameters():
    net = _random_net(4, (3, 2), seed=9)
    grads = _backward(net, np.zeros((2, 4)), np.ones(2))
    assert grads.theta.shape == net.theta.shape
    for g, l in zip(grads.layers, net.layers):
        assert g.weights.shape == l.weights.shape
        assert g.biases.shape == l.biases.shape


# ------------------------------------------------------ training block
# The SkipLayerNet training step that FlatNet replaced, kept verbatim as
# the reference: its forward, its backward and its transposed prox call.

def _ref_forward_activations(net: SkipLayerNet, x2d: np.ndarray):
    pre = []
    post = [x2d]
    a = x2d
    for i, layer in enumerate(net.layers):
        z = np.einsum("ni,oi->no", a, layer.weights) + layer.biases
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(net.layers) - 1 else z
        post.append(a)
    skip = np.einsum("ni,i->n", x2d, net.theta)
    out = skip + (post[-1][:, 0] if net.layers else 0.0)
    return pre, post, out


def _ref_backward_from_activations(net, x2d, pre, post, upstream):
    d_theta = x2d.T @ upstream
    d_layers: list[Layer] = [None] * len(net.layers)  # type: ignore[list-item]
    if net.layers:
        dz = upstream[:, np.newaxis]  # gradient at final pre-activation
        for i in range(len(net.layers) - 1, -1, -1):
            d_w = d_theta[np.newaxis].copy() if len(net.layers) == 1 else dz.T @ post[i]
            d_layers[i] = Layer(d_w, dz.sum(axis=0))
            if i > 0:
                da = dz @ net.layers[i].weights
                dz = da * (pre[i - 1] > 0.0)
    return d_theta, d_layers


def _ref_hierarchical_prox(w1, theta, tau, M):
    theta = np.asarray(theta, dtype=np.float64)
    w1 = np.asarray(w1, dtype=np.float64)
    theta_new = np.sign(theta) * np.maximum(np.abs(theta) - tau, 0.0)
    norms = np.sqrt((w1 * w1).sum(axis=1))
    cap = M * np.abs(theta_new)
    scale = np.ones_like(norms)
    live = norms > 0.0
    scale[live] = np.minimum(1.0, cap[live] / norms[live])
    return w1 * scale[:, np.newaxis], theta_new


def _ref_prox_net(net: SkipLayerNet, tau: float, M: float) -> None:
    w1t, theta_new = _ref_hierarchical_prox(net.layers[0].weights.T, net.theta, tau, M)
    net.layers[0].weights = np.ascontiguousarray(w1t.T)
    net.theta = theta_new


def _rel_close(got, want, rel: float = 1e-12) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return got.size == 0 or np.abs(got - want).max() <= rel * np.abs(want).max()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), p=st.integers(1, 12),
       widths=st.sampled_from([None, (), (1,), (8, 4)]),
       seed=st.integers(0, 2 ** 32 - 1),
       tau=st.floats(0.0, 1.0), M=st.floats(0.1, 5.0))
@example(n=1, p=1, widths=None, seed=0, tau=0.0, M=1.0)
@example(n=1, p=1, widths=(8, 4), seed=1, tau=0.05, M=0.5)
@example(n=40, p=12, widths=(), seed=2, tau=0.3, M=2.0)
def test_flat_block_step_matches_skip_layer_reference(n, p, widths, seed, tau, M):
    # widths None is a net with no layers at all: its block is theta alone
    rng = np.random.default_rng(seed)
    if widths is None:
        net = SkipLayerNet(p, rng.normal(size=p), [])
    else:
        net = init_net(p, widths, Rng(seed), theta_scale=0.5)
        for layer in net.layers:
            layer.biases = rng.normal(0.0, 0.3, size=layer.biases.shape)
    net.theta[rng.uniform(size=p) < 0.2] = 0.0
    X = rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e3])
    u = rng.normal(size=n)

    flat = FlatNet.from_net(net, n)
    assert np.array_equal(flat.flat, FlatNet.from_net(flat.to_net()).flat)
    vals = _forward_activations(flat, X)
    assert _rel_close(vals, forward_batch(net, X))

    grad = FlatNet(p, flat.widths, n)
    _backward_from_activations(flat, X, u, grad)
    got = grad.to_net()
    pre, post, _ = _ref_forward_activations(net, X)
    d_theta, d_layers = _ref_backward_from_activations(net, X, pre, post, u)
    assert _rel_close(got.theta, d_theta)
    for g, want in zip(got.layers, d_layers, strict=True):
        assert _rel_close(g.weights, want.weights)
        assert _rel_close(g.biases, want.biases)

    w1_new, theta_new = hierarchical_prox(flat.w1, flat.theta, tau, M)
    if widths is None:
        want_w1, want_theta = _ref_hierarchical_prox(np.zeros((p, 0)), net.theta, tau, M)
        assert w1_new.shape == want_w1.shape
    else:
        ref = copy.deepcopy(net)
        _ref_prox_net(ref, tau, M)
        want_w1, want_theta = ref.layers[0].weights.T, ref.theta
    assert np.ascontiguousarray(w1_new).tobytes() == np.ascontiguousarray(want_w1).tobytes()
    assert theta_new.tobytes() == want_theta.tobytes()


# ----------------------------------------------------------------- init

def test_init_net_deterministic():
    a = init_net(5, (4, 3), Rng(42))
    b = init_net(5, (4, 3), Rng(42))
    assert np.array_equal(a.theta, b.theta)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)


@pytest.mark.parametrize("p, widths, seed", [(7, (5, 3), 1), (40, (), 2), (3, (8, 4), 2 ** 64 - 1)])
def test_init_net_block_draws_equal_scalar_draws(p, widths, seed):
    net = init_net(p, widths, Rng(seed))
    rng = Rng(seed)
    d_in = p
    for layer, d_out in zip(net.layers, list(widths) + [1]):
        a = np.sqrt(6.0 / (d_in + d_out))
        want = [[a * rng.uniform_signed() for _ in range(d_in)] for _ in range(d_out)]
        assert np.array_equal(layer.weights, np.array(want))
        d_in = d_out
    want_theta = [0.1 * rng.uniform_signed() for _ in range(p)]
    assert np.array_equal(net.theta, np.array(want_theta))


def test_init_net_structure():
    net = init_net(6, (5, 3), Rng(0))
    assert net.p == 6
    assert net.hidden_widths == (5, 3)
    assert [l.weights.shape for l in net.layers] == [(5, 6), (3, 5), (1, 3)]
    assert all(np.all(l.biases == 0.0) for l in net.layers)
    # theta stays nonzero so the hierarchy constraint does not freeze
    assert np.all(net.theta != 0.0)
    assert np.all(np.abs(net.theta) < 0.1)


def test_init_net_weight_range():
    net = init_net(4, (8,), Rng(3))
    w1 = net.layers[0].weights
    bound = np.sqrt(6.0 / (4 + 8))
    assert np.all(np.abs(w1) < bound)
    assert np.all(w1 != 0.0)


# ----------------------------------------------------------- JSON codec

def test_json_round_trip_bit_exact():
    net = _random_net(4, (3, 2), seed=13)
    blob = json.dumps(net_to_json_dict(net, 7.5))
    again, m = net_from_json_dict(json.loads(blob))
    assert m == 7.5
    assert again.p == net.p
    assert np.array_equal(again.theta, net.theta)
    for la, lb in zip(again.layers, net.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)
    X = np.random.default_rng(5).normal(size=(4, 4))
    assert np.array_equal(forward_batch(again, X), forward_batch(net, X))


def test_json_dict_tolerates_unknown_keys():
    net = _zero_net(2, widths=())
    obj = net_to_json_dict(net, 1.0)
    obj["format_version"] = 99
    again, _ = net_from_json_dict(obj)
    assert again.p == 2


def test_json_dict_layerless_net():
    net = SkipLayerNet(3, np.array([1.0, 0.0, -2.0]), [])
    again, _ = net_from_json_dict(net_to_json_dict(net, 2.0))
    assert _row(again, [1.0, 1.0, 1.0]) == -1.0
