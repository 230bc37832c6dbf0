"""Monte-Carlo Shapley attribution for fitted node-effect networks.

The value function reveals a feature subset at a node's actual
attribute values while everything else sits at the column means of X.
Permutation sampling walks one random reveal order per sample; the
telescoping differences are unbiased Shapley estimates for that value
function.  Features outside the net's selected set have exactly zero
attribution because the net is constant in those coordinates.
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


def _shuffled(q: int, rng: Rng) -> np.ndarray:
    perm = np.arange(q)
    for t in range(q - 1, 0, -1):
        j = min(int(rng.uniform() * (t + 1)), t)
        perm[t], perm[j] = perm[j], perm[t]
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
    xmat = X if isinstance(X, AttributeMatrix) else AttributeMatrix(np.asarray(X))
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

