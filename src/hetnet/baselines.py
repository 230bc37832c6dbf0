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
from .objective import center_sums

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
    alpha_hat, beta_hat, _ = center_sums(alpha, beta)
    return MleEstimate(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        iterations=iterations,
        converged=converged,
        flagged_alpha=set(np.nonzero(zero_out)[0].tolist()),
        flagged_beta=set(np.nonzero(zero_in)[0].tolist()),
    )


def _standardize(x2d: np.ndarray) -> np.ndarray:
    """Centre and scale each column to unit population variance.

    A constant column becomes zero and so never enters a lasso fit.  The
    result is column-contiguous: active columns are copied out one by one.
    """
    sd = x2d.std(axis=0)
    xs = np.array(x2d, dtype=np.float64, order="F")
    xs -= x2d.mean(axis=0)
    xs /= np.where(sd > 1e-12, sd, math.inf)
    return xs


# Schur pivots at or below this share of a column's squared norm mark the
# column as linearly dependent on the active set: it does not join
_PIVOT_TOL = 1e-9


def _lasso_path(xs: np.ndarray, yc: np.ndarray, lams):
    """Exact lasso solutions at the given penalties, by LARS-lasso homotopy.

    Minimizes (1/2n)||yc - xs beta||^2 + lam*||beta||_1 for each lam of
    ``lams``, which must be unique, non-negative and in descending order;
    yields (lam, beta) for each, beta a fresh length-p array.  The
    solution is piecewise linear in lam (Efron, Hastie, Johnstone &
    Tibshirani 2004, Ann. Statist. 32(2)): on each piece, with active set
    A and signs s, beta_A = G_A^-1 (xs_A' yc / n - lam s_A) where G_A is
    the active Gram matrix over n.  The walk goes from lam_max down,
    one kink (a join or a drop) at a time, and stops at the last
    requested lam or at lam = 0.

    Only matrix-vector products touch xs.  G_A^-1 lives in an m x m
    buffer, m = min(n - 1, p), grown and shrunk by rank-one updates; the
    active columns are copied into an n x m buffer.  At every kink the
    correlations are recomputed from the residual, so rounding does not
    build up along the path.  A column whose Schur pivot against the
    active set is tiny (a constant column, or one in the span of the
    active columns) is set aside until the next drop.
    """
    n, p = xs.shape
    c0 = xs.T @ yc / n
    lam = float(np.abs(c0).max()) if p else 0.0
    lams = iter(lams)
    nxt = next(lams, None)
    # at or above lam_max the null model solves the problem
    while nxt is not None and nxt >= lam:
        yield nxt, np.zeros(p)
        nxt = next(lams, None)
    if nxt is None:
        return

    # centred columns span at most n - 1 dimensions
    m = min(n - 1, p)
    ginv = np.zeros((m, m))  # inverse of the active Gram matrix
    xa = np.empty((n, m), order="F")  # the active columns
    active = np.empty(m, dtype=np.intp)
    signs = np.empty(m)
    k = 0
    inactive = np.ones(p, dtype=bool)
    blocked = np.zeros(p, dtype=bool)  # dependent on the active set

    def schur(j):
        """b = G_A^-1 g and the pivot of column j, or None if it is tiny."""
        col = xs[:, j]
        xk = xa[:, :k]
        b = ginv[:k, :k] @ (xk.T @ col / n)
        # the pivot is the squared distance from col to the active span,
        # taken as a residual rather than diag - g'b, which cancels
        rest = col - xk @ b
        pivot = float(rest @ rest) / n
        if k == m or not pivot > _PIVOT_TOL * float(col @ col) / n:
            blocked[j] = True
            return None
        return b, pivot

    j = int(np.argmax(np.abs(c0)))
    event = ("join", j, math.copysign(1.0, c0[j]), schur(j))
    while True:
        kind, j, sign, piv = event
        if kind == "join":
            b, pivot = piv
            # block inverse of [[G, g], [g', diag]]
            ginv[:k, :k] += np.multiply.outer(b / pivot, b)
            ginv[:k, k] = ginv[k, :k] = -b / pivot
            ginv[k, k] = 1.0 / pivot
            xa[:, k] = xs[:, j]
            active[k], signs[k] = j, sign
            inactive[j] = False
            k += 1
        else:
            # move the leaving column to the last slot, then shrink
            q, last = j, k - 1
            j, sign = int(active[q]), signs[q]
            swap, back = [q, last], [last, q]
            ginv[swap, :k] = ginv[back, :k]
            ginv[:k, swap] = ginv[:k, back]
            xa[:, swap] = xa[:, back]
            active[swap] = active[back]
            signs[swap] = signs[back]
            e = ginv[:last, last] / ginv[last, last]
            ginv[:last, :last] -= np.multiply.outer(e, ginv[last, :last])
            k = last
            inactive[j] = True
            blocked[:] = False

        s = signs[:k]
        gk = ginv[:k, :k]
        cs = c0[active[:k]]
        beta_a = gk @ (cs - lam * s)
        c = xs.T @ (yc - xa[:, :k] @ beta_a) / n
        d = gk @ s  # d beta_A / d(-lam)
        a = xs.T @ (xa[:, :k] @ d) / n

        # the next kink below lam: an active coefficient reaches zero, a
        # column's correlation reaches the shrinking bound, or lam = 0.
        # The column that changed at this kink cannot undo that change.
        step, event = lam, None
        if k:
            # sign-scaled coefficients and rates; a wrong-signed one leaves now
            ds = -d * s
            t_drop = np.divide(np.maximum(beta_a * s, 0.0), ds,
                               out=np.full(k, math.inf), where=ds > 0.0)
            if kind == "join":
                t_drop[k - 1] = math.inf
            q = int(np.argmin(t_drop))
            if t_drop[q] < step:
                step, event = float(t_drop[q]), ("drop", q, 0.0, None)
        idx = np.flatnonzero(inactive & ~blocked)
        ci, ai = c[idx], a[idx]
        up, lo = 1.0 - ai, 1.0 + ai
        t_up = np.divide(np.maximum(lam - ci, 0.0), up,
                         out=np.full(idx.size, math.inf), where=up > 0.0)
        t_lo = np.divide(np.maximum(lam + ci, 0.0), lo,
                         out=np.full(idx.size, math.inf), where=lo > 0.0)
        if kind == "drop":
            # it left the bound of its sign, but may reach the other one
            (t_up if sign > 0 else t_lo)[idx == j] = math.inf
        t_join = np.minimum(t_up, t_lo)
        while idx.size:
            w = int(np.argmin(t_join))
            if not t_join[w] < step:
                break
            piv = schur(int(idx[w]))
            if piv is not None:
                sign = 1.0 if t_up[w] <= t_lo[w] else -1.0
                step, event = float(t_join[w]), ("join", int(idx[w]), sign, piv)
                break
            t_join[w] = math.inf

        below = lam - step
        while nxt is not None and nxt >= below:
            # one step of iterative refinement against the rounding in G_A^-1
            beta_a = gk @ (cs - nxt * s)
            xk = xa[:, :k]
            beta_a += gk @ (xk.T @ (yc - xk @ beta_a) / n - nxt * s)
            beta = np.zeros(p)
            beta[active[:k]] = beta_a
            yield nxt, beta
            nxt = next(lams, None)
        if nxt is None:
            return
        lam = below


def _regression_hbic(rss: float, s: int, n: int, p: int) -> float:
    # n*log(RSS/n) + s*loglog(n)*log(p); RSS floored to keep log finite
    rss = max(rss, np.finfo(np.float64).tiny)
    return n * math.log(rss / n) + s * math.log(math.log(n)) * math.log(p)


def _lasso_stage(xs: np.ndarray, y: np.ndarray, grid):
    """Fit a lasso path on one response, score by the regression criterion.

    Each path point minimizes (1/2n)||y - b0 - xs beta||^2 + lam*||beta||_1
    on the standardized columns xs, exactly (see _lasso_path); ``None``
    means 50 penalties from lam_max down to 1e-3 of it.  A one-entry grid
    is a single lasso fit.  The lowest score wins, the earlier grid entry
    on a tie.  Returns (selected index set, fitted values at the winning
    penalty).
    """
    n, p = xs.shape
    ym = float(y.mean())
    yc = y - ym
    if grid is None:
        lam_max = float(np.abs(xs.T @ yc).max()) / n
        if lam_max <= 0.0:
            return set(), np.full(n, ym)
        grid = np.geomspace(lam_max, 1e-3 * lam_max, 50)
    grid = [float(l) for l in grid]
    first = {}
    for idx, lam in enumerate(grid):
        first.setdefault(lam, idx)

    best = None
    for lam, beta in _lasso_path(xs, yc, sorted(first, reverse=True)):
        fit = xs @ beta
        r = yc - fit
        s = int(np.count_nonzero(np.abs(beta) > 1e-12))
        key = (_regression_hbic(float(r @ r), s, n, p), first[lam])
        if best is None or key < best[0]:
            best = (key, beta, fit)
    _, beta_best, fit_best = best
    selected = set(int(k) for k in np.nonzero(np.abs(beta_best) > 1e-12)[0])
    return selected, ym + fit_best


def two_stage_select(A: CountNetwork, X, z_n: float = 1.0, lasso_grid=None):
    """MLE then per-response lasso selection.

    The MLE alpha and beta vectors each become a regression response on
    X; the winning penalty per response is the regression-criterion
    argmin over the path.  Returns the two selected sets and the lasso
    fitted values, which act as the attribute-smoothed estimates.
    """
    xmat = AttributeMatrix.of(X)
    if A.n != xmat.n:
        raise ValueError("network and attributes disagree on n")
    if lasso_grid is not None:
        lasso_grid = [float(l) for l in lasso_grid]
        # 0 <= l < inf is False for NaN as well
        if not lasso_grid or not all(0.0 <= l < math.inf for l in lasso_grid):
            raise ValueError("lasso_grid must be a non-empty list of finite, "
                             "non-negative penalties")
    mle = mle_fit(A, z_n)
    xs = _standardize(xmat.values)
    s_alpha, alpha_hat = _lasso_stage(xs, mle.alpha_hat, lasso_grid)
    s_beta, beta_hat = _lasso_stage(xs, mle.beta_hat, lasso_grid)
    return s_alpha, s_beta, alpha_hat, beta_hat
