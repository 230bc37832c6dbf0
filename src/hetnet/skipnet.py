"""Scalar-output skip-layer ReLU networks with exact reverse-mode gradients.

The function class is x -> theta'x + h_W(x), where h_W is a ReLU
multilayer perceptron whose final layer has one output and no
activation.  The skip coefficients theta gate feature participation: the
hierarchical proximal operator (optimizer module) keeps each first-layer
input column's 2-norm below M*|theta_k|, so a feature enters the
nonlinear part only if its skip coefficient is nonzero.

All arithmetic is float64.  Prediction (:func:`forward_batch`) uses
``np.einsum``, not BLAS matmul, so that batched evaluation is bit-for-bit
identical to row-at-a-time evaluation.  Training works on a
:class:`FlatNet`, which keeps every parameter in one buffer: its forward
pass is one BLAS product of X with the (p, h1+1) block ``[W1' | theta]``
and its backward pass one product of X' with the matching adjoints.
A :class:`WorkingSet` narrows both products to the block's live rows
when at most a quarter of them are live: the forward multiplies only
their columns of X, and the backward does too whenever a rounding-safe
screen certifies that the prox leaves every other row at zero.  BLAS
promises only run-to-run determinism, which is all training needs; the
two forwards agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = [
    "Layer",
    "SkipLayerNet",
    "FlatNet",
    "WorkingSet",
    "forward_batch",
    "init_net",
    "net_to_json_dict",
    "net_from_json_dict",
]


@dataclass
class Layer:
    weights: np.ndarray  # (d_out, d_in)
    biases: np.ndarray  # (d_out,)


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


def _check_input(net: SkipLayerNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.p:
        raise ValueError(f"input has {x.shape[-1]} columns, net expects {net.p}")
    return x


def forward_batch(net: SkipLayerNet, X) -> np.ndarray:
    """Evaluate theta'x + h_W(x) on every row of X.

    Row i is bit-for-bit the value of the one-row batch X[i:i+1].
    """
    values = getattr(X, "values", X)
    x2d = _check_input(net, values)
    if x2d.ndim != 2:
        raise ValueError("forward_batch expects a matrix")
    a = x2d
    for i, layer in enumerate(net.layers):
        z = np.einsum("ni,oi->no", a, layer.weights) + layer.biases
        a = np.maximum(z, 0.0) if i < len(net.layers) - 1 else z
    skip = np.einsum("ni,i->n", x2d, net.theta)
    return skip + (a[:, 0] if net.layers else 0.0)


class FlatNet:
    """One net's parameters in one flat float64 buffer, with room for the
    activations of an n-row batch.

    ``flat`` holds, in order: the (p, h1+1) block ``[W1' | theta]``, whose
    row k is feature k's first-layer weights followed by theta_k (the
    input-major layout the hierarchical prox works on); b1; then (W, b)
    of every later layer, W as (d_out, d_in).  A net without hidden
    layers has h1 = 1, its output layer being W1; a net with no layers at
    all has h1 = 0 and its block is theta alone.  Every parameter
    attribute is a view into ``flat``, so a gradient step is one vector
    operation on it.

    The activation buffers are filled by :func:`_forward_activations`:
    ``z = X @ block`` (the first layer's products with X, then the skip
    path), every layer's pre-activations ``pre``, the hidden layers' ReLU
    outputs ``post`` and the outputs ``vals``.  A FlatNet that holds
    a gradient keeps the loss derivatives w.r.t. those same activations
    in them.
    """

    def __init__(self, p: int, widths, n: int = 0):
        self.p = p
        self.widths = tuple(widths)  # every layer's output size; the last is 1
        self.h1 = h1 = self.widths[0] if self.widths else 0
        d_ins = (p,) + self.widths[:-1]
        later = list(zip(d_ins[1:], self.widths[1:]))
        size = p * (h1 + 1) + h1 + sum(d_out * (d_in + 1) for d_in, d_out in later)
        self.flat = np.zeros(size)
        at = p * (h1 + 1)
        self.block = self.flat[:at].reshape(p, h1 + 1)
        self.w1 = self.block[:, :h1]
        self.theta = self.block[:, h1]
        self.b1 = self.flat[at:at + h1]
        at += h1
        self.later = []
        for d_in, d_out in later:
            w = self.flat[at:at + d_out * d_in].reshape(d_out, d_in)
            at += d_out * d_in
            self.later.append((w, self.flat[at:at + d_out]))
            at += d_out
        self.z = np.empty((n, h1 + 1))
        self.pre = [np.empty((n, d)) for d in self.widths]
        self.post = [np.empty((n, d)) for d in self.widths[:-1]]
        self.vals = np.empty(n)

    @classmethod
    def from_net(cls, net: SkipLayerNet, n: int = 0) -> "FlatNet":
        flat = cls(net.p, [layer.weights.shape[0] for layer in net.layers], n)
        flat.theta[:] = net.theta
        if net.layers:
            flat.w1[:] = net.layers[0].weights.T
            flat.b1[:] = net.layers[0].biases
        for (w, b), layer in zip(flat.later, net.layers[1:]):
            w[:] = layer.weights
            b[:] = layer.biases
        return flat

    def to_net(self) -> SkipLayerNet:
        """A SkipLayerNet holding copies of these parameters."""
        layers = [Layer(self.w1.T.copy(), self.b1.copy())] if self.widths else []
        layers += [Layer(w.copy(), b.copy()) for w, b in self.later]
        return SkipLayerNet(self.p, self.theta.copy(), layers)


# machine epsilon, 2**-52: twice the unit roundoff of IEEE double
_EPS = float(np.finfo(np.float64).eps)
# a working set of more than this share of the rows reads all of X
_DENSE_SHARE = 0.25


class WorkingSet:
    """The live rows S of a :class:`FlatNet` block, X's columns for them,
    and the screen that lets a backward pass leave the other rows out.

    ``select(live)`` makes the block rows where ``live`` is nonzero, the
    rows that may be nonzero, the working set.  When more than a quarter of
    the p rows are live, ``rows`` is None and both products read all of
    X, as without a working set: the nonlinear design keeps at least half
    the rows live (65% in the median forward pass), where gathers and
    screen refreshes would cost more than the columns they skip, while
    the linear fits keep 1-5% live.  Otherwise ``xs = X[:, rows]`` is copied, once per
    change of S, and the forward pass computes ``xs @ block[rows]``.

    The screen serves the trainer, whose every row outside S has theta_k
    = 0 and a zero first-layer row, and applies the hierarchical prox
    with penalty ``lam``.  Such a row stays exactly zero after the prox
    when fl(rho*|g_k|) <= fl(rho*lam), g_k = fl(x_k'u) being the theta
    gradient the full product would compute; |g_k| < lam suffices, as
    rounding is monotone, and the row's first-layer gradient plays no
    part, its cap M*|theta_k| being 0.  :meth:`xt` computes the full
    ``X' adj`` on a *refresh* and stores u0 = u, ||u0|| and the radius

        R = min over k outside S, ||x_k|| > 0, of
            (lam - |g0_k| - 3*gamma*||x_k||*||u0||) / (||x_k||*(1 + 4*gamma)),

    with gamma = n*eps/(1 - n*eps).  A later call at u multiplies only
    ``xs' adj``, giving the other rows a zero gradient, if S equals the
    refresh's S and delta = ||u - u0|| < R; otherwise it refreshes.
    This is exact: every dot product of length n, in any summation order
    BLAS uses, has |fl(x'u) - x'u| <= gamma_n*||x||*||u|| with gamma_n =
    n*e/(1 - n*e) and e = eps/2 (Higham 2002, section 3.1), so

        |g_k| <= |g0_k| + ||x_k||*(delta*(1 + gamma_n) + 2*gamma_n*||u0||),

    which is below lam whenever delta < R.  Taking gamma with eps in
    place of e doubles gamma_n, and the constants 3 and 4 in place of 2
    and 1 absorb the rounding of the norms, of delta and of R itself.
    A zero column's gradient is exactly 0, so it never needs a margin.
    With lam = 0 every radius is negative or zero and every backward
    pass is full.  A row that leaves S has no margin from the refresh,
    hence the equality of S.
    """

    def __init__(self, x2d: np.ndarray, lam: float):
        n, p = x2d.shape
        self.x = x2d
        self.lam = lam
        self.dense_above = _DENSE_SHARE * p
        self.norms = np.sqrt(np.einsum("ij,ij->j", x2d, x2d))
        self.gamma = n * _EPS / (1.0 - n * _EPS)
        self.rows = None
        self.xs = x2d
        self._key = None  # rows.tobytes(); None for every row
        self._ref_key = None  # the key at the last refresh
        self._radius = -math.inf
        self._u0 = np.empty(n)
        self._du = np.empty(n)
        self._g = np.empty(p)

    def select(self, live: np.ndarray) -> None:
        """Make the rows where ``live`` (one entry per row) is nonzero the
        working set."""
        if np.count_nonzero(live) > self.dense_above:
            self.rows, self.xs, self._key = None, self.x, None
            return
        live = live.nonzero()[0]
        key = live.tobytes()
        if key != self._key:
            self.rows, self._key = live, key
            self.xs = np.take(self.x, live, axis=1)

    def xt(self, adj: np.ndarray, u: np.ndarray, out: np.ndarray | None = None):
        """``X' adj`` into ``out`` (a p-vector buffer when None), or its
        working-set rows and zeros where the screen certifies the prox
        leaves a zero.

        ``adj`` is u itself or an (n, c) matrix whose last column is u,
        the loss derivative at the outputs, which the screen measures.
        """
        if out is None:
            out = self._g
        if self.rows is None:
            return np.matmul(self.x.T, adj, out=out)
        if self._key == self._ref_key:
            du = np.subtract(u, self._u0, out=self._du)
            if math.sqrt(du @ du) < self._radius:
                out.fill(0.0)
                out[self.rows] = self.xs.T @ adj
                return out
        np.matmul(self.x.T, adj, out=out)
        self._refresh(out if out.ndim == 1 else out[:, -1], u)
        return out

    def _refresh(self, g0: np.ndarray, u0: np.ndarray) -> None:
        np.copyto(self._u0, u0)
        self._ref_key = self._key
        outside = np.ones(g0.shape[0], dtype=bool)
        outside[self.rows] = False
        outside &= self.norms > 0.0
        nx = self.norms[outside]
        if not nx.size:
            self._radius = math.inf
            return
        gamma = self.gamma
        slack = self.lam * (1.0 - 2.0 * _EPS) - np.abs(g0[outside]) * (1.0 + 2.0 * _EPS)
        slack -= (3.0 * gamma * math.sqrt(u0 @ u0)) * nx
        self._radius = float((slack / (nx * (1.0 + 4.0 * gamma))).min())


def _forward_activations(net: FlatNet, x2d: np.ndarray,
                         cols: WorkingSet | None = None) -> np.ndarray:
    """Fill ``net``'s activations for the batch x2d and return its outputs.

    One product ``x2d @ block`` gives the first layer's products with X
    and the skip path together; with a :class:`WorkingSet` whose rows
    cover every nonzero row of the block, it is ``cols.xs @ block[rows]``.
    The result is ``net.vals``, which the next call overwrites.  ReLU
    derivative at exactly 0 is 0.  Inputs are not validated.
    """
    if cols is None or cols.rows is None:
        np.matmul(x2d, net.block, out=net.z)
    else:
        np.matmul(cols.xs, net.block.take(cols.rows, axis=0), out=net.z)
    if not net.widths:
        np.copyto(net.vals, net.z[:, 0])
        return net.vals
    z = np.add(net.z[:, :net.h1], net.b1, out=net.pre[0])
    for (w, b), a, pre in zip(net.later, net.post, net.pre[1:]):
        np.maximum(z, 0.0, out=a)
        z = np.matmul(a, w.T, out=pre)
        z += b
    return np.add(net.z[:, net.h1], z[:, 0], out=net.vals)


def _backward_from_activations(net: FlatNet, x2d: np.ndarray, upstream: np.ndarray,
                               grad: FlatNet, cols: WorkingSet | None = None) -> None:
    """Write the gradient of sum_i upstream[i] * f(x_i) into ``grad``.

    ``net``'s activations come from :func:`_forward_activations` on the
    same batch; ``upstream[i]`` is the loss derivative at the i-th output.
    ``grad`` has ``net``'s shape and batch size, and its activation
    buffers receive the adjoints.  X is read once: with hidden layers,
    ``x2d' @ [dz1 | upstream]`` gives the first layer's weight gradient
    and theta's together.  Without them the skip path and the output
    layer (if any) both see X directly, so one product ``x2d' @ upstream``
    fills every column of the block.  The gradient is full unless
    ``cols`` is given: then :meth:`WorkingSet.xt` computes the product,
    and the block rows its screen certifies get 0.  Inputs are not
    validated.
    """
    if len(net.widths) < 2:
        g = x2d.T @ upstream if cols is None else cols.xt(upstream, upstream)
        grad.block[:] = g[:, np.newaxis]
        grad.b1[:] = upstream.sum()
        return
    dz = upstream[:, np.newaxis]  # gradient at the final pre-activation
    for i in range(len(net.later) - 1, -1, -1):
        w, _ = net.later[i]
        d_w, d_b = grad.later[i]
        np.matmul(dz.T, net.post[i], out=d_w)
        np.add.reduce(dz, axis=0, out=d_b)
        da = np.matmul(dz, w, out=grad.post[i])
        # the first layer's adjoint goes beside upstream, for one X' product
        d_pre = grad.pre[i] if i else grad.z[:, :net.h1]
        dz = np.multiply(da, net.pre[i] > 0.0, out=d_pre)
    grad.z[:, net.h1] = upstream
    if cols is None:
        np.matmul(x2d.T, grad.z, out=grad.block)
    else:
        cols.xt(grad.z, upstream, grad.block)
    np.add.reduce(dz, axis=0, out=grad.b1)


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
