"""Scalar-output skip-layer ReLU networks with exact reverse-mode gradients.

The function class is x -> theta'x + h_W(x), where h_W is a ReLU
multilayer perceptron whose final layer has one output and no
activation.  The skip coefficients theta gate feature participation: the
hierarchical proximal operator (optimizer module) keeps each first-layer
input column's 2-norm below M*|theta_k|, so a feature enters the
nonlinear part only if its skip coefficient is nonzero.

All arithmetic is float64.  Layer transforms in the forward pass use
``np.einsum`` (not BLAS matmul) so that batched evaluation is
bit-for-bit identical to row-at-a-time evaluation; gradient products in
the backward pass use BLAS, which only needs run-to-run determinism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = [
    "Layer",
    "SkipLayerNet",
    "NetGradients",
    "forward_batch",
    "init_net",
    "net_to_json_dict",
    "net_from_json_dict",
]


@dataclass
class Layer:
    weights: np.ndarray  # (d_out, d_in)
    biases: np.ndarray  # (d_out,)

    def copy(self) -> "Layer":
        return Layer(self.weights.copy(), self.biases.copy())


@dataclass
class SkipLayerNet:
    """Parameters of one skip-layer network.

    ``layers`` chain from input dimension p to a single output; ReLU is
    applied after every layer except the last.
    """

    p: int
    theta: np.ndarray  # (p,)
    layers: list[Layer]

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.p,):
            raise ValueError(f"theta must have shape ({self.p},)")
        d_in = self.p
        for i, layer in enumerate(self.layers):
            w = np.asarray(layer.weights, dtype=np.float64)
            b = np.asarray(layer.biases, dtype=np.float64)
            if w.ndim != 2 or w.shape[1] != d_in:
                raise ValueError(
                    f"layer {i}: weights shape {w.shape} incompatible with input {d_in}"
                )
            if b.shape != (w.shape[0],):
                raise ValueError(f"layer {i}: biases shape {b.shape} != ({w.shape[0]},)")
            layer.weights, layer.biases = w, b
            d_in = w.shape[0]
        if self.layers and d_in != 1:
            raise ValueError("final layer must have a single output")

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.weights.shape[0] for layer in self.layers[:-1])

    def copy(self) -> "SkipLayerNet":
        return SkipLayerNet(self.p, self.theta.copy(), [l.copy() for l in self.layers])


@dataclass
class NetGradients:
    """Gradient arrays shaped exactly like the owning net's parameters."""

    d_theta: np.ndarray
    d_layers: list[Layer]


def _check_input(net: SkipLayerNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.p:
        raise ValueError(f"input has {x.shape[-1]} columns, net expects {net.p}")
    return x


def _forward_activations(net: SkipLayerNet, x2d: np.ndarray):
    """Return (pre_activations, post_activations, outputs) for a batch.

    post[-1] is the input batch itself; ReLU derivative at exactly 0 is 0.
    """
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


def forward_batch(net: SkipLayerNet, X) -> np.ndarray:
    """Evaluate theta'x + h_W(x) on every row of X.

    Row i is bit-for-bit the value of the one-row batch X[i:i+1].
    """
    values = getattr(X, "values", X)
    x2d = _check_input(net, values)
    if x2d.ndim != 2:
        raise ValueError("forward_batch expects a matrix")
    _, _, out = _forward_activations(net, x2d)
    return out


def _backward_from_activations(net, x2d, pre, post, upstream) -> NetGradients:
    """Gradients of sum_i upstream[i] * f(x_i) w.r.t. every parameter.

    ``pre`` and ``post`` come from :func:`_forward_activations` on the
    same net and batch; ``upstream[i]`` is the loss derivative at the
    i-th output.  The skip path is linear, so d_theta = X' upstream.
    With no hidden layers the output layer's weight gradient is that same
    product of X (BLAS returns the same bits for ``upstream' X``), so it
    is computed once and the layer gets a copy, never an alias.
    Inputs are not validated.
    """
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
    return NetGradients(d_theta, d_layers)


def init_net(p: int, hidden_widths, rng: Rng, theta_scale: float = 0.1) -> SkipLayerNet:
    """Random initialization: uniform(-a, a) weights with a = sqrt(6/(fan_in+fan_out)),
    zero biases, theta uniform(-theta_scale, theta_scale).

    theta must be nonzero at the start, otherwise the hierarchy
    constraint pins the whole first layer at zero.  Callers apply one
    hierarchical-prox projection with tau=0 afterwards so the constraint
    holds from the first step.
    """
    widths = list(hidden_widths) + [1]
    layers = []
    d_in = p
    for d_out in widths:
        a = np.sqrt(6.0 / (d_in + d_out))
        w = a * rng.uniforms_signed(d_out * d_in).reshape(d_out, d_in)
        layers.append(Layer(w, np.zeros(d_out)))
        d_in = d_out
    theta = theta_scale * rng.uniforms_signed(p)
    return SkipLayerNet(p, theta, layers)


def net_to_json_dict(net: SkipLayerNet, m: float) -> dict:
    """JSON-ready dict; float round-trip is bit-exact for finite doubles."""
    return {
        "p": net.p,
        "theta": net.theta.tolist(),
        "layers": [
            {"weights": layer.weights.tolist(), "biases": layer.biases.tolist()}
            for layer in net.layers
        ],
        "hidden_widths": list(net.hidden_widths),
        "M": float(m),
    }


def net_from_json_dict(obj: dict) -> tuple[SkipLayerNet, float]:
    """Inverse of :func:`net_to_json_dict`; unknown keys are tolerated."""
    layers = [
        Layer(np.array(entry["weights"], dtype=np.float64),
              np.array(entry["biases"], dtype=np.float64))
        for entry in obj["layers"]
    ]
    net = SkipLayerNet(int(obj["p"]), np.array(obj["theta"], dtype=np.float64), layers)
    return net, float(obj["M"])
