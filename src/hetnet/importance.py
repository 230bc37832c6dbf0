"""Monte-Carlo Shapley attribution for fitted node-effect networks.

The value function reveals a feature subset at a node's actual
attribute values while everything else sits at the column means of X.
Permutation sampling walks one random reveal order per sample; the
telescoping differences are unbiased Shapley estimates for that value
function.  Features outside the net's selected set have exactly zero
attribution because the net is constant in those coordinates.

The samples of a node are evaluated in blocks, with the results bit for
bit those of one sample at a time.  The node's S*(q-1) uniforms come
from one :meth:`Rng.uniforms` call, in the sample-major order a scalar
stream would consume them, and Fisher-Yates runs on all S reveal
orders at once.  The reveal states of a chunk of samples go into one
buffer of about 256 KB, whatever q and p are: it holds whole samples of
q+1 rows each, starts at the baseline, and only the ``features`` columns
are rewritten per chunk.  One ``forward_batch`` call per chunk evaluates
them; its einsum forward makes row i of a batch equal to the one-row
batch, so chunking does not change any output.  The per-sample
increments are then added into the running sums one sample at a time,
in sample order, because a vectorised or pairwise sum over samples
would round differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netdata import AttributeMatrix
from .rng import Rng, seed_for
from .skipnet import SkipLayerNet, forward_batch

__all__ = [
    "AttributionReport",
    "shapley_importance",
]


@dataclass
class AttributionReport:
    """Per-feature attribution summary plus the per-node detail behind it.

    node_values[i, s] is the Monte-Carlo Shapley value of features[s] at
    node node_indices[i]; node_stderrs carries the matching Monte-Carlo
    standard errors.  mean_abs averages |node_values| over nodes, and
    stderr propagates the per-node Monte-Carlo errors through that mean.
    """

    side: str
    features: tuple[int, ...]
    feature_names: tuple[str, ...]
    mean_abs: np.ndarray
    stderr: np.ndarray
    rank: np.ndarray
    samples: int
    seed: int
    node_indices: np.ndarray
    node_values: np.ndarray
    node_stderrs: np.ndarray


def _ranks(mean_abs: np.ndarray, features) -> np.ndarray:
    order = sorted(range(len(features)), key=lambda s: (-mean_abs[s], features[s]))
    rank = np.empty(len(features), dtype=np.int64)
    for pos, s in enumerate(order):
        rank[s] = pos + 1
    return rank


# size of the reveal-state buffer: the rows of one forward_batch call
_BUFFER_BYTES = 256 * 1024


def _reveal_orders(samples: int, q: int, rng: Rng) -> np.ndarray:
    """(samples, q) Fisher-Yates permutations of range(q), one per row.

    Row s is the permutation a scalar shuffle of sample s would make:
    step t = q-1, ..., 1 swaps slot t with slot min(floor(u*(t+1)), t).
    """
    u = rng.uniforms(samples * (q - 1)).reshape(samples, q - 1)
    perm = np.tile(np.arange(q), (samples, 1))
    rows = np.arange(samples)
    for c, t in enumerate(range(q - 1, 0, -1)):
        j = np.minimum((u[:, c] * (t + 1)).astype(np.int64), t)
        slot_t = perm[:, t].copy()
        perm[:, t] = perm[rows, j]
        perm[rows, j] = slot_t
    return perm


def shapley_importance(net: SkipLayerNet, X, features, samples: int, seed: int,
                       side: str = "alpha", max_nodes: int = 500) -> AttributionReport:
    """Permutation-sampling Shapley values against the column-mean baseline.

    For each attributed node, each sample draws a reveal order over
    ``features``, evaluates the net along the reveal path, and credits
    each feature with its output increment.  Nodes beyond max_nodes are
    subsampled (without replacement, seed-derived) and the subsample is
    recorded on the report.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if side not in ("alpha", "beta"):
        raise ValueError(f"side must be 'alpha' or 'beta', got {side!r}")
    xmat = AttributeMatrix.of(X)
    if xmat.p != net.p:
        raise ValueError(f"attributes have {xmat.p} columns, net expects {net.p}")
    feats = tuple(sorted(int(k) for k in set(features)))
    if not feats:
        raise ValueError("features must be non-empty")
    if feats[0] < 0 or feats[-1] >= net.p:
        raise ValueError("feature indices out of range")
    q = len(feats)
    n = xmat.n
    x2d = xmat.values
    baseline = x2d.mean(axis=0)

    if n > max_nodes:
        pick_rng = Rng(seed_for("node-subsample", seed))
        pool = np.arange(n)
        for t in range(max_nodes):
            j = t + min(int(pick_rng.uniform() * (n - t)), n - t - 1)
            pool[t], pool[j] = pool[j], pool[t]
        node_indices = np.sort(pool[:max_nodes])
    else:
        node_indices = np.arange(n)

    feats_arr = np.asarray(feats)
    base_f = baseline[feats_arr]
    # state r of a sample shows feature slot s at the node's value once r
    # exceeds the slot's position in the reveal order
    steps = np.arange(q + 1)[np.newaxis, :, np.newaxis]
    chunk = max(q + 1, _BUFFER_BYTES // (8 * net.p)) // (q + 1)
    buf = np.empty((min(chunk, samples), q + 1, net.p))
    buf[:] = baseline
    diffs = np.empty((len(buf), q))
    node_values = np.empty((node_indices.size, q))
    node_stderrs = np.empty((node_indices.size, q))
    for row, node in enumerate(node_indices.tolist()):
        rng = Rng(seed_for(f"node-{node}", seed))
        x_f = x2d[node, feats_arr]
        perm = _reveal_orders(samples, q, rng)
        sums = np.zeros(q)
        sumsq = np.zeros(q)
        for lo in range(0, samples, chunk):
            order = perm[lo:lo + chunk]
            m = len(order)
            position = np.argsort(order, axis=1)[:, np.newaxis, :]
            buf[:m, :, feats_arr] = np.where(steps > position, x_f, base_f)
            outs = forward_batch(net, buf[:m].reshape(-1, net.p)).reshape(m, q + 1)
            np.put_along_axis(diffs[:m], order, np.diff(outs, axis=1), axis=1)
            for d in diffs[:m]:
                sums += d
                sumsq += d * d
        mean = sums / samples
        if samples > 1:
            var = np.maximum(sumsq - samples * mean * mean, 0.0) / (samples - 1)
            se = np.sqrt(var / samples)
        else:
            se = np.full(q, np.inf)
        node_values[row] = mean
        node_stderrs[row] = se

    mean_abs = np.abs(node_values).mean(axis=0)
    stderr = np.sqrt((node_stderrs ** 2).sum(axis=0)) / node_indices.size
    return AttributionReport(
        side=side,
        features=feats,
        feature_names=tuple(xmat.names[k] for k in feats),
        mean_abs=mean_abs,
        stderr=stderr,
        rank=_ranks(mean_abs, feats),
        samples=samples,
        seed=seed,
        node_indices=node_indices,
        node_values=node_values,
        node_stderrs=node_stderrs,
    )

