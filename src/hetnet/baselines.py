"""Reference competitors: per-node Poisson MLE and the MLE + Lasso selector.

The MLE ignores attributes entirely and fits one (alpha_i, beta_j) pair
per node by alternating closed-form updates of the likelihood
stationarity conditions.  The two-stage selector then regresses those
MLE estimates on the attribute matrix with an L1 penalty, picking the
penalty level per response with a regression information criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netdata import CountNetwork, AttributeMatrix

__all__ = [
    "MleEstimate",
    "mle_fit",
    "two_stage_select",
]


@dataclass
class MleEstimate:
    """Structure-only node effects.

    flagged_alpha / flagged_beta hold nodes whose out/in degree is zero:
    their exact MLE is -inf, so they sit at the clamp value instead.
    """

    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    iterations: int
    converged: bool
    flagged_alpha: set[int]
    flagged_beta: set[int]


def mle_fit(A: CountNetwork, z_n: float = 1.0, max_iter: int = 10000,
            tol: float = 1e-8) -> MleEstimate:
    """Alternating fixed-point solve of the saturated degree model.

    Works in rate space a_i = exp(alpha_i/z), b_j = exp(beta_j/z):

        a_i <- out_i / sum_{j != i} b_j,   b_j <- in_j / sum_{i != j} a_i

    A node with zero out-degree has its exact sender MLE at rate 0 (the
    likelihood sup is on the boundary), so its rate is held at exactly 0
    during iteration; the surviving parameters then solve the reduced
    model, which is well posed.  Flagged nodes are reported at the
    finite clamp value log(0.5/n)*z instead of -inf.  Stops when the
    largest unflagged parameter change drops below tol; ends with the
    exact centering shift so the two sums match.
    """
    if z_n <= 0:
        raise ValueError("z_n must be positive")
    if A.n < 2:
        raise ValueError("need at least 2 nodes")
    n = A.n
    out = A.out_degree.astype(np.float64)
    inn = A.in_degree.astype(np.float64)
    zero_out = out == 0.0
    zero_in = inn == 0.0
    live_a = ~zero_out
    live_b = ~zero_in
    delta = 0.5 / n

    if A.total_count == 0:
        # every node degenerate; both sides sit at the clamp, already centered
        clamp = z_n * math.log(delta)
        return MleEstimate(
            alpha_hat=np.full(n, clamp),
            beta_hat=np.full(n, clamp),
            iterations=0,
            converged=True,
            flagged_alpha=set(range(n)),
            flagged_beta=set(range(n)),
        )

    a = np.ones(n)
    b = np.ones(n)
    a[zero_out] = 0.0
    b[zero_in] = 0.0
    log_a = np.zeros(np.count_nonzero(live_a))
    log_b = np.zeros(np.count_nonzero(live_b))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        a = out / (b.sum() - b)
        a[zero_out] = 0.0
        b = inn / (a.sum() - a)
        b[zero_in] = 0.0
        log_a_new = np.log(a[live_a])
        log_b_new = np.log(b[live_b])
        change = 0.0
        if log_a_new.size:
            change = max(change, z_n * np.abs(log_a_new - log_a).max())
        if log_b_new.size:
            change = max(change, z_n * np.abs(log_b_new - log_b).max())
        log_a, log_b = log_a_new, log_b_new
        if change < tol:
            converged = True
            break

    alpha = np.full(n, z_n * math.log(delta))
    beta = np.full(n, z_n * math.log(delta))
    alpha[live_a] = z_n * log_a
    beta[live_b] = z_n * log_b
    c = (float(alpha.sum()) - float(beta.sum())) / (2.0 * n)
    return MleEstimate(
        alpha_hat=alpha - c,
        beta_hat=beta + c,
        iterations=iterations,
        converged=converged,
        flagged_alpha=set(np.nonzero(zero_out)[0].tolist()),
        flagged_beta=set(np.nonzero(zero_in)[0].tolist()),
    )


def _standardize(x2d: np.ndarray):
    mean = x2d.mean(axis=0)
    sd = x2d.std(axis=0)
    live = sd > 1e-12
    xs = np.zeros_like(x2d)
    xs[:, live] = (x2d[:, live] - mean[live]) / sd[live]
    # column-contiguous so per-coordinate dot products stay cheap
    return np.asfortranarray(xs), live


def _cd_path_step(xs, live, lam, beta, r, max_iter, tol, n):
    """Cyclic coordinate descent on standardized data; beta and r update in place.

    Full sweeps alternate with sweeps over the current active set, the
    usual pathwise speedup; each coordinate update is an exact 1-d
    minimization so the objective never increases.  While the sweeps run
    the coefficients are Python floats and the column views are made
    once: both round exactly as the float64 array entries would, without
    the per-coordinate numpy scalar and slicing overhead.
    """
    live_idx = np.nonzero(live)[0].tolist()
    cols = [xs[:, j] for j in range(xs.shape[1])]
    coef = beta.tolist()
    step_col = np.empty_like(r)

    def sweep(indices) -> float:
        worst = 0.0
        for j in indices:
            old = coef[j]
            col = cols[j]
            # soft-threshold the coordinate's least-squares value at lam
            z = old + float(np.dot(col, r)) / n
            new = z - lam if z > lam else (z + lam if z < -lam else 0.0)
            if new != old:
                step = new - old
                np.multiply(step, col, out=step_col)
                np.subtract(r, step_col, out=r)
                coef[j] = new
                if abs(step) > worst:
                    worst = abs(step)
        return worst

    converged = False
    sweeps = 0
    while sweeps < max_iter and not converged:
        worst = sweep(live_idx)
        sweeps += 1
        converged = worst < tol
        while sweeps < max_iter and not converged:
            worst = sweep([j for j, v in enumerate(coef) if v != 0.0])
            sweeps += 1
            if worst < tol:
                break
    beta[:] = coef
    return converged


def _regression_hbic(rss: float, s: int, n: int, p: int) -> float:
    # n*log(RSS/n) + s*loglog(n)*log(p); RSS floored to keep log finite
    rss = max(rss, np.finfo(np.float64).tiny)
    return n * math.log(rss / n) + s * math.log(math.log(n)) * math.log(p)


def _lasso_stage(x2d: np.ndarray, y: np.ndarray, grid, max_iter: int, tol: float):
    """Fit a lasso path on one response, score by the regression criterion.

    Each path point minimizes (1/2n)||y - b0 - Xs beta||^2 + lam*||beta||_1
    on standardized columns Xs; constant columns stay at 0.  A one-entry
    grid is a single lasso fit.  Returns (selected index set, fitted
    values at the winning penalty).
    """
    n, p = x2d.shape
    xs, live = _standardize(x2d)
    ym = float(y.mean())
    yc = y - ym
    if grid is None:
        lam_max = float(np.abs(xs.T @ yc).max()) / n
        if lam_max <= 0.0:
            return set(), np.full(n, ym)
        grid = np.geomspace(lam_max, 1e-3 * lam_max, 50)
    grid = [float(l) for l in grid]

    beta = np.zeros(p)  # warm start carried down the path
    r = yc.copy()
    best = None
    for lam in grid:
        _cd_path_step(xs, live, lam, beta, r, max_iter, tol, n)
        s = int(np.count_nonzero(np.abs(beta) > 1e-12))
        rss = float(r @ r)
        score = _regression_hbic(rss, s, n, p)
        if best is None or score < best[0]:
            best = (score, beta.copy(), r.copy())
    _, beta_best, r_best = best
    selected = set(int(k) for k in np.nonzero(np.abs(beta_best) > 1e-12)[0])
    fitted = ym + (yc - r_best)
    return selected, fitted


def two_stage_select(A: CountNetwork, X, z_n: float = 1.0, lasso_grid=None,
                     max_iter: int = 1000, tol: float = 1e-9):
    """MLE then per-response lasso selection.

    The MLE alpha and beta vectors each become a regression response on
    X; the winning penalty per response is the regression-criterion
    argmin over the path.  Returns the two selected sets and the lasso
    fitted values, which act as the attribute-smoothed estimates.
    """
    xmat = X if isinstance(X, AttributeMatrix) else AttributeMatrix(np.asarray(X))
    if A.n != xmat.n:
        raise ValueError("network and attributes disagree on n")
    if lasso_grid is not None:
        lasso_grid = [float(l) for l in lasso_grid]
        # 0 <= l < inf is False for NaN as well
        if not lasso_grid or not all(0.0 <= l < math.inf for l in lasso_grid):
            raise ValueError("lasso_grid must be a non-empty list of finite, "
                             "non-negative penalties")
    mle = mle_fit(A, z_n)
    x2d = xmat.values
    s_alpha, alpha_hat = _lasso_stage(x2d, mle.alpha_hat, lasso_grid, max_iter, tol)
    s_beta, beta_hat = _lasso_stage(x2d, mle.beta_hat, lasso_grid, max_iter, tol)
    return s_alpha, s_beta, alpha_hat, beta_hat
