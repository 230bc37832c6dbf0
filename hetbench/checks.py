"""Correctness checks for benchmark outputs, computed apart from hetnet.

Nothing here imports the package under test.  Each check recomputes its
reference with plain numpy from the raw inputs (attribute matrix, edge
triplets, saved network parameters) or tests a property the method must
have, and returns a list of failure messages: empty means the check passed.
``selftest.py`` feeds every check a correct and a perturbed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# sample_network clamps dyad log-rates at this value
LOG_RATE_CLAMP = 12.0


@dataclass
class FitRecord:
    """One fitted model, as plain arrays, whatever produced it."""

    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    s_alpha: set
    s_beta: set
    net_alpha: tuple  # (theta, [(weights, biases), ...])
    net_beta: tuple
    centering_shift: float
    final_nll: float
    final_total: float
    lambda1: float
    lambda2: float
    M: float
    z_n: float


# ------------------------------------------------------------ references

def linear_truth(x):
    return x[:, 0:5].sum(axis=1), x[:, 5:10].sum(axis=1)


def nonlinear_truth(x):
    a = np.abs(x[:, 0:10])

    def side(c):
        return 5.0 * (c[:, 0] + c[:, 1] + np.log(c[:, 2]) + np.log(c[:, 3] + c[:, 4]))

    return side(a[:, 0:5]), side(a[:, 5:10])


def net_forward(net, x):
    """theta'x + MLP(x) with ReLU between layers, by plain matmul."""
    theta, layers = net
    out = x @ theta
    a = x
    for i, (w, b) in enumerate(layers):
        a = a @ w.T + b
        if i < len(layers) - 1:
            a = np.maximum(a, 0.0)
    if layers:
        out = out + a[:, 0]
    return out


def dense_nll(alpha, beta, src, dst, count, z_n, block=128):
    """Poisson NLL over all ordered pairs i != j by an O(n^2) dense pass.

    Returns (nll without the log A_ij! constant, sum of log A_ij!).  Rows
    are taken in blocks so the pass never holds an n x n matrix.
    """
    n = alpha.shape[0]
    order = np.lexsort((dst, src))
    src, dst, count = src[order], dst[order], count[order].astype(np.float64)
    nll = 0.0
    for r0 in range(0, n, block):
        r1 = min(n, r0 + block)
        eta = (alpha[r0:r1, None] + beta[None, :]) / z_n
        a = np.zeros_like(eta)
        lo, hi = np.searchsorted(src, [r0, r1])
        np.add.at(a, (src[lo:hi] - r0, dst[lo:hi]), count[lo:hi])
        term = np.exp(eta) - a * eta
        rows = np.arange(r0, r1)
        term[rows - r0, rows] = 0.0
        nll += float(term.sum())
    max_count = int(count.max()) if count.size else 0
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, max_count + 1)))])
    return nll, float(log_fact[count.astype(np.int64)].sum())


def f1(selected, truth):
    selected, truth = set(selected), set(truth)
    return 2.0 * len(selected & truth) / (len(selected) + len(truth))


# ------------------------------------------------------------ the checks

def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_objective(rec: FitRecord, edges, n):
    """Dense NLL and penalties against the fit's own final loss.

    Returns (failures, objective); the objective includes sum log A_ij!.
    """
    src, dst, count = edges
    nll, log_fact = dense_nll(rec.alpha_hat, rec.beta_hat, src, dst, count, rec.z_n)
    l1 = (rec.lambda1 * np.abs(rec.net_alpha[0]).sum()
          + rec.lambda2 * np.abs(rec.net_beta[0]).sum())
    gap = rec.alpha_hat.sum() - rec.beta_hat.sum()
    # gamma is left at its default of 1/n in every benchmark configuration
    total = nll + float(l1) + float(gap * gap) / n
    failures = []
    if not _close(nll, rec.final_nll, 1e-9):
        failures.append(f"dense NLL {nll!r} != final_loss.nll {rec.final_nll!r}")
    if not _close(total, rec.final_total, 1e-9):
        failures.append(f"dense composite {total!r} != final_loss.total {rec.final_total!r}")
    # the all-zero net is feasible and scores n(n-1): every rate is 1
    if not rec.final_total <= n * (n - 1):
        failures.append(f"composite {rec.final_total!r} worse than the zero net's {n * (n - 1)}")
    return failures, total + log_fact


def check_fit(rec: FitRecord, x):
    """Forward reproduction, centring, hierarchy and selection of one fit."""
    failures = []
    for side, net, hat, sign, sel in (
        ("alpha", rec.net_alpha, rec.alpha_hat, 1.0, rec.s_alpha),
        ("beta", rec.net_beta, rec.beta_hat, -1.0, rec.s_beta),
    ):
        theta, layers = net
        ref = net_forward(net, x) + sign * rec.centering_shift
        worst = float(np.max(np.abs(ref - hat) / (1.0 + np.abs(hat))))
        if not worst <= 1e-9:
            failures.append(f"{side}: saved net reproduces {side}_hat only to {worst:.3g}")
        if layers:
            norms = np.sqrt((layers[0][0] ** 2).sum(axis=0))
            excess = float((norms - rec.M * np.abs(theta)).max())
            if not excess <= 1e-9:
                failures.append(f"{side}: first-layer column exceeds M|theta| by {excess:.3g}")
        nonzero = set(np.flatnonzero(theta).tolist())
        if nonzero != set(sel):
            failures.append(f"{side}: selected {sorted(sel)} != nonzero theta {sorted(nonzero)}")
    sa, sb = float(rec.alpha_hat.sum()), float(rec.beta_hat.sum())
    if not abs(sa - sb) <= 1e-8 * (1.0 + abs(sa)):
        failures.append(f"centred sums differ: {sa!r} vs {sb!r}")
    return failures


def check_grid(results, best, n, p):
    """Winner is the HBIC argmin recomputed from the formula and tie rule.

    ``results`` holds (lambda1, lambda2, M, s_total, nll, hbic, error)
    per grid entry in grid order; ``best`` is the returned (lambda1,
    lambda2, M).  Ties go to the sparser fit, then the smaller
    lambda1 + lambda2, then the earlier entry.
    """
    failures = []
    m = n * (n - 1)
    keys = []
    for idx, (l1, l2, mm, s, nll, score, err) in enumerate(results):
        if err is not None:
            failures.append(f"grid entry {idx} failed: {err}")
            continue
        ref = 2.0 * nll + s * math.log(math.log(m)) * math.log(p)
        if not _close(ref, score, 1e-12):
            failures.append(f"grid entry {idx}: hbic {score!r} != formula {ref!r}")
        keys.append(((ref, s, l1 + l2, idx), (l1, l2, mm)))
    if keys and min(keys)[1] != tuple(best):
        failures.append(f"grid winner {tuple(best)} != recomputed argmin {min(keys)[1]}")
    return failures


def check_mle(alpha, beta, flagged_a, flagged_b, edges, n, z_n):
    """Degree stationarity: fitted row and column rate sums equal the degrees."""
    src, dst, count = edges
    out_deg = np.bincount(src, weights=count, minlength=n)
    in_deg = np.bincount(dst, weights=count, minlength=n)
    a = np.exp(alpha / z_n)
    b = np.exp(beta / z_n)
    a[list(flagged_a)] = 0.0
    b[list(flagged_b)] = 0.0
    row = a * (b.sum() - b)
    col = b * (a.sum() - a)
    failures = []
    for name, fitted, deg, flagged in (("out", row, out_deg, flagged_a),
                                       ("in", col, in_deg, flagged_b)):
        live = np.setdiff1d(np.arange(n), list(flagged))
        rel = np.abs(fitted[live] - deg[live]) / np.maximum(deg[live], 1.0)
        if rel.size and not rel.max() <= 1e-6:
            failures.append(f"MLE {name}-degree stationarity off by {rel.max():.3g} relative")
    return failures


def check_span(x, selected, fitted):
    """Lasso fitted values lie in the span of the intercept and the selected columns."""
    design = np.column_stack([np.ones(x.shape[0])] + [x[:, k] for k in sorted(selected)])
    coef, *_ = np.linalg.lstsq(design, fitted, rcond=None)
    resid = float(np.linalg.norm(design @ coef - fitted))
    if not resid <= 1e-8 * (1.0 + float(np.linalg.norm(fitted))):
        return [f"fitted values leave the selected span by {resid:.3g}"]
    return []


def check_shapley(net, x, node_indices, features, node_values):
    """Efficiency: each node's values sum to f(x_i) - f(mean x) on the revealed features."""
    base = x.mean(axis=0)
    full = np.repeat(base[None, :], len(node_indices), axis=0)
    feats = list(features)
    full[:, feats] = x[np.asarray(node_indices)][:, feats]
    target = net_forward(net, full) - net_forward(net, base[None, :])[0]
    got = node_values.sum(axis=1)
    worst = float(np.max(np.abs(got - target) / (1.0 + np.abs(target))))
    if not worst <= 1e-9:
        return [f"Shapley efficiency off by {worst:.3g}"]
    return []


def check_simulation(alpha0, beta0, z_n, total_count):
    """The network's total count lies within 6 sd of the summed Poisson rates."""
    n = alpha0.shape[0]
    lam = 0.0
    for r0 in range(0, n, 128):
        eta = np.minimum((alpha0[r0:r0 + 128, None] + beta0[None, :]) / z_n, LOG_RATE_CLAMP)
        rate = np.exp(eta)
        rows = np.arange(r0, min(n, r0 + 128))
        rate[rows - r0, rows] = 0.0
        lam += float(rate.sum())
    if not abs(total_count - lam) <= 6.0 * math.sqrt(lam):
        return [f"simulated total {total_count} is {abs(total_count - lam) / math.sqrt(lam):.1f} sd "
                f"from the expected {lam:.1f}"]
    return []
