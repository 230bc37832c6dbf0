"""Alternating proximal-gradient trainer for paired skip-layer networks.

One network models sender effects (alpha), the other receiver effects
(beta).  Each outer iteration trains the beta net to convergence-budget
while alpha is frozen, then the alpha net while beta is frozen.  The L1
penalty on the skip coefficients is applied through a hierarchical
proximal operator that also rescales the first hidden layer, so a
feature whose skip coefficient is thresholded to zero is cut out of the
nonlinear part as well.  Selection is read off as the exactly-nonzero
skip coefficients.

Sum identifiability (sum alpha = sum beta) is enforced softly during
training by a quadratic penalty and exactly afterwards by a constant
shift, which leaves every fitted rate unchanged.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .netdata import CountNetwork, AttributeMatrix
from .objective import (
    LossBreakdown,
    poisson_nll,
    identifiability_penalty,
    l1_penalty,
    _check_values,
    _SideLoss,
)
from .rng import Rng
from .skipnet import (
    FlatNet,
    SkipLayerNet,
    forward_batch,
    init_net,
    _forward_activations,
    _backward_from_activations,
)

__all__ = [
    "FitConfig",
    "HeterogeneityEstimate",
    "OuterIterationRecord",
    "GridResult",
    "FitDivergenceError",
    "HierarchyViolationError",
    "hierarchical_prox",
    "update_side",
    "fit",
    "extract_selected",
    "hbic",
    "grid_search",
]

_MAX_RHO_HALVINGS = 10


class FitDivergenceError(RuntimeError):
    """No descending step could be found after exhausting learning-rate halvings."""


class HierarchyViolationError(RuntimeError):
    """A trained net breaks ||W_k||_2 <= M*|theta_k|, which the prox must keep."""


def _is_whole(v) -> bool:
    """An integer value of any real type; NaN, inf and 2.5 are not."""
    return isinstance(v, numbers.Real) and math.isfinite(v) and int(v) == v


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of one fit.

    ``gamma`` and ``epsilon`` default to None and are resolved against
    the data size when fitting: gamma = 1/n, epsilon = 1e-4 * sqrt(n).
    ``hidden_widths_beta`` lets the receiver net use a different
    architecture; None means same as ``hidden_widths``.  Construction
    raises ValueError on a NaN or infinite number, or a fractional count
    or width; whole-valued counts and widths are stored as int.
    """

    lambda1: float = 0.0
    lambda2: float = 0.0
    gamma: float | None = None
    M: float = 10.0
    rho: float = 1e-3
    epsilon: float | None = None
    t_max_outer: int = 50
    inner_epochs: int = 1000
    hidden_widths: tuple[int, ...] = (32, 16)
    hidden_widths_beta: tuple[int, ...] | None = None
    z_n: float = 1.0
    seed: int = 0

    def __post_init__(self):
        nonneg = ("lambda1", "lambda2", "gamma")
        for name in nonneg + ("M", "rho", "epsilon", "z_n"):
            v = getattr(self, name)
            if v is None and name in ("gamma", "epsilon"):
                continue
            if not (math.isfinite(v) and (v >= 0 if name in nonneg else v > 0)):
                what = "non-negative" if name in nonneg else "positive"
                raise ValueError(f"{name} must be finite and {what}, got {v!r}")
        for name, low in (("t_max_outer", 1), ("inner_epochs", 1), ("seed", 0)):
            v = getattr(self, name)
            if not (_is_whole(v) and low <= v < 2**64):
                raise ValueError(f"{name} must be an integer in [{low}, 2**64), got {v!r}")
            object.__setattr__(self, name, int(v))
        for name in ("hidden_widths", "hidden_widths_beta"):
            widths = getattr(self, name)
            if widths is None and name == "hidden_widths_beta":
                continue
            if not (isinstance(widths, (list, tuple))
                    and all(_is_whole(w) and w >= 1 for w in widths)):
                raise ValueError(f"{name} must be a list of positive integers, got {widths!r}")
            object.__setattr__(self, name, tuple(int(w) for w in widths))

    def resolved_gamma(self, n: int) -> float:
        return 1.0 / n if self.gamma is None else self.gamma

    def resolved_epsilon(self, n: int) -> float:
        return 1e-4 * math.sqrt(n) if self.epsilon is None else self.epsilon


@dataclass
class OuterIterationRecord:
    """State after one outer iteration (beta update then alpha update)."""

    outer_iter: int
    loss: LossBreakdown
    delta_alpha: float
    delta_beta: float


@dataclass
class HeterogeneityEstimate:
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    s_alpha: set[int]
    s_beta: set[int]
    net_alpha: SkipLayerNet
    net_beta: SkipLayerNet
    outer_iterations: int
    final_loss: LossBreakdown
    converged: bool
    # alpha_hat[i] = forward(net_alpha, x_i) + centering_shift, and the
    # beta side subtracts the same constant.
    centering_shift: float = 0.0
    history: list[OuterIterationRecord] = field(default_factory=list)


def hierarchical_prox(w1: np.ndarray, theta: np.ndarray, tau: float, M: float):
    """Soft-threshold theta, then cap each w1 row's 2-norm at M*|theta_k|.

    ``w1`` has one row per input feature (the first layer seen
    input-major, as in :class:`FlatNet`'s block).  A thresholded-to-zero
    coefficient zeroes its row; a zero row is left alone.  Row norms are
    summed column by column in order, whatever the layout of ``w1``.
    Returns new arrays, inputs untouched.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if M <= 0:
        raise ValueError("M must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    w1 = np.asarray(w1, dtype=np.float64)
    if w1.shape[0] != theta.shape[0]:
        raise ValueError("w1 must have one row per theta entry")
    shrunk = np.abs(theta)
    shrunk -= tau
    np.maximum(shrunk, 0.0, out=shrunk)  # |theta_new|
    theta_new = np.sign(theta)
    theta_new *= shrunk
    norms = np.add.reduce(np.multiply(w1, w1, order="F"), axis=1)
    np.sqrt(norms, out=norms)
    cap = np.multiply(shrunk, M, out=shrunk)
    # min(1, cap/norm) on rows over their cap; 1 elsewhere, zero rows too
    scale = np.ones(norms.shape)
    np.divide(cap, norms, out=scale, where=norms > cap)
    return w1 * scale[:, np.newaxis], theta_new


def _projected(net: SkipLayerNet, M: float) -> SkipLayerNet:
    """``net`` with the hierarchy constraint imposed (the prox at tau=0)."""
    flat = FlatNet.from_net(net)
    flat.w1[:], flat.theta[:] = hierarchical_prox(flat.w1, flat.theta, 0.0, M)
    return flat.to_net()


def _hierarchy_gap(net: SkipLayerNet, M: float) -> float:
    if not net.layers:
        return -math.inf
    norms = np.sqrt((net.layers[0].weights ** 2).sum(axis=0))
    return float((norms - M * np.abs(net.theta)).max())


def update_side(
    side: str,
    net: SkipLayerNet,
    X,
    A: CountNetwork,
    fixed_vals: np.ndarray,
    lam: float,
    gamma: float,
    rho: float,
    M: float,
    z_n: float,
    inner_epochs: int,
):
    """Train one net for ``inner_epochs`` proximal-gradient steps.

    The other side's fitted values stay frozen at ``fixed_vals``; the
    quadratic identifiability penalty pulls this side's sum toward the
    frozen side's sum.  Training keeps two :class:`FlatNet` points,
    current and trial.  A trial step is one vector operation on the flat
    buffer, one :func:`hierarchical_prox` call on the block's rows, one
    forward pass and one loss-and-gradient evaluation; the backward pass
    runs once per point a step is taken from.  A step is accepted, by
    swapping the two points, when the composite objective (smooth loss +
    L1) stays within 1e-9*max(1, |composite|) of where it was; otherwise
    the step is retried from the unchanged current point with rho
    halved.  rho recovers after accepted steps.  After 10 consecutive
    halvings the update ends with one rule: if the last trial raised the
    composite by at most 1e-3*max(1, |composite|), the net sits at a
    fixed point of the prox-gradient map and the loop stops early; a
    larger, infinite or NaN increase raises FitDivergenceError.  A
    result that breaks the hierarchy constraint raises
    HierarchyViolationError.

    Returns (fitted values, updated net, smooth-loss trace).  The trace
    has up to inner_epochs+1 entries, entry 0 being the loss at entry;
    the input net is not mutated.  The fitted values come from the
    training forward pass (BLAS): deterministic from run to run, equal to
    :func:`forward_batch`'s up to rounding.
    """
    if side not in ("alpha", "beta"):
        raise ValueError(f"side must be 'alpha' or 'beta', got {side!r}")
    if inner_epochs < 0:
        raise ValueError("inner_epochs must be non-negative")
    fixed = _check_values(fixed_vals, A, z_n)
    target_sum = float(fixed.sum())
    x2d = np.asarray(getattr(X, "values", X), dtype=np.float64)
    n = x2d.shape[0]
    cur = FlatNet.from_net(net, n)
    trial = FlatNet(cur.p, cur.widths, n)
    grad = FlatNet(cur.p, cur.widths, n)

    side_loss = _SideLoss(fixed, A, z_n, side)

    def loss_and_upstream(vals: np.ndarray):
        """Smooth loss and its gradient w.r.t. the fitted values.

        The kernel's loss is non-finite for any non-finite value.
        """
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
        return vals, cur.to_net(), np.asarray(trace)
    if not np.isfinite(loss):
        raise FitDivergenceError(f"{side} update entered with non-finite loss")

    # the descent safeguard compares the composite objective (smooth +
    # L1), since a prox step may raise the smooth part while lowering
    # the composite
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
        w1, theta = hierarchical_prox(trial.w1, trial.theta, rho * lam, M)
        trial.w1[:] = w1
        trial.theta[:] = theta

        trial_vals = _forward_activations(trial, x2d)
        new_loss, new_upstream = loss_and_upstream(trial_vals)
        new_composite = new_loss + lam * float(np.abs(theta).sum())
        # written so that a NaN composite is rejected too
        if not new_composite <= composite + 1e-9 * max(1.0, abs(composite)):
            halvings += 1
            if halvings > _MAX_RHO_HALVINGS:
                # an increase this small after ten halvings is rounding
                # or the cap rescale pushing uphill: no step size moves
                # the net, so it sits at a fixed point of the map
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
    return vals, net, np.asarray(trace)


def _loss_breakdown(alpha_vals, beta_vals, A, config: FitConfig, gamma: float,
                    net_alpha, net_beta) -> LossBreakdown:
    ident, _ = identifiability_penalty(alpha_vals, float(beta_vals.sum()), gamma)
    return LossBreakdown(
        nll=poisson_nll(alpha_vals, beta_vals, A, config.z_n),
        l1_alpha=l1_penalty(net_alpha.theta, config.lambda1),
        l1_beta=l1_penalty(net_beta.theta, config.lambda2),
        ident_penalty=ident,
    )


def fit(A: CountNetwork, X, config: FitConfig) -> HeterogeneityEstimate:
    """Alternating fit of the sender and receiver nets.

    Per outer iteration the beta net is updated first, then the alpha
    net; the loop stops when both fitted-value vectors move less than
    epsilon in 2-norm, or after t_max_outer iterations (converged=False).
    """
    xmat = X if isinstance(X, AttributeMatrix) else AttributeMatrix(np.asarray(X))
    if A.n != xmat.n:
        raise ValueError(f"network has {A.n} nodes but attributes have {xmat.n} rows")
    n, p = xmat.n, xmat.p
    gamma = config.resolved_gamma(n)
    epsilon = config.resolved_epsilon(n)
    widths_beta = config.hidden_widths_beta or config.hidden_widths

    rng = Rng(config.seed)
    # projected so the hierarchy constraint holds from the start
    net_alpha = _projected(init_net(p, config.hidden_widths, rng), config.M)
    net_beta = _projected(init_net(p, widths_beta, rng), config.M)

    alpha_vals = forward_batch(net_alpha, xmat)
    beta_vals = forward_batch(net_beta, xmat)

    history: list[OuterIterationRecord] = []
    converged = False
    outer_done = 0
    for t in range(1, config.t_max_outer + 1):
        try:
            beta_new, net_beta, _ = update_side(
                "beta", net_beta, xmat, A, alpha_vals, config.lambda2,
                gamma, config.rho, config.M, config.z_n, config.inner_epochs,
            )
            delta_beta = float(np.linalg.norm(beta_new - beta_vals))
            beta_vals = beta_new
            alpha_new, net_alpha, _ = update_side(
                "alpha", net_alpha, xmat, A, beta_vals, config.lambda1,
                gamma, config.rho, config.M, config.z_n, config.inner_epochs,
            )
            delta_alpha = float(np.linalg.norm(alpha_new - alpha_vals))
            alpha_vals = alpha_new
        except FitDivergenceError as exc:
            raise FitDivergenceError(f"outer iteration {t}: {exc}") from exc
        outer_done = t
        history.append(OuterIterationRecord(
            t,
            _loss_breakdown(alpha_vals, beta_vals, A, config, gamma, net_alpha, net_beta),
            delta_alpha,
            delta_beta,
        ))
        if delta_alpha < epsilon and delta_beta < epsilon:
            converged = True
            break

    # exact sum matching; the same constant moves both sides so every
    # alpha_i + beta_j is unchanged up to rounding
    c = (float(alpha_vals.sum()) - float(beta_vals.sum())) / (2.0 * n)
    alpha_hat = alpha_vals - c
    beta_hat = beta_vals + c

    return HeterogeneityEstimate(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        s_alpha=extract_selected(net_alpha.theta),
        s_beta=extract_selected(net_beta.theta),
        net_alpha=net_alpha,
        net_beta=net_beta,
        outer_iterations=outer_done,
        final_loss=_loss_breakdown(alpha_hat, beta_hat, A, config, gamma,
                                   net_alpha, net_beta),
        converged=converged,
        centering_shift=-c,
        history=history,
    )


def extract_selected(theta, tol: float = 1e-12) -> set[int]:
    """Indices of nonzero skip coefficients.

    The prox writes exact zeros, so strict nonzero-ness is the real
    rule; tol only guards values that went through text serialization.
    """
    theta = np.asarray(theta, dtype=np.float64)
    return set(int(k) for k in np.nonzero(np.abs(theta) > tol)[0])


def hbic(nll_at_fit: float, s_total: int, n: int, p: int) -> float:
    """High-dimensional BIC: 2*nll + s * loglog(m) * log(p), m = n(n-1) dyads."""
    if n < 2 or p < 1 or s_total < 0:
        raise ValueError("need n >= 2, p >= 1, s_total >= 0")
    m = n * (n - 1)
    return 2.0 * nll_at_fit + s_total * math.log(math.log(m)) * math.log(p)


@dataclass
class GridResult:
    lambda1: float
    lambda2: float
    M: float
    s_total: int
    nll: float
    hbic: float
    error: str | None = None


def _fit_one_triple(args):
    A, X, base_config, triple = args
    lam1, lam2, m = triple
    config = replace(base_config, lambda1=lam1, lambda2=lam2, M=m)
    try:
        est = fit(A, X, config)
    except FitDivergenceError as exc:
        return None, str(exc)
    return est, None


def grid_search(A: CountNetwork, X, base_config: FitConfig, grid, jobs: int = 1):
    """Fit every (lambda1, lambda2, M) triple and pick the HBIC argmin.

    All fits reuse base_config's seed so initializations match across
    the grid.  Ties go to the sparser fit, then the smaller
    lambda1+lambda2, then the earlier grid entry.  Returns
    (best_config, best_estimate, results) with one GridResult per triple
    in grid order.
    """
    grid = [(float(l1), float(l2), float(m)) for (l1, l2, m) in grid]
    if not grid:
        raise ValueError("grid must be non-empty")
    xmat = X if isinstance(X, AttributeMatrix) else AttributeMatrix(np.asarray(X))
    n, p = A.n, xmat.p

    tasks = [(A, xmat, base_config, triple) for triple in grid]
    if jobs > 1:
        # imported here: loading multiprocessing costs every serial run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fits = list(pool.map(_fit_one_triple, tasks))
    else:
        fits = [_fit_one_triple(t) for t in tasks]

    results: list[GridResult] = []
    best_key = None
    best_idx = -1
    for idx, ((lam1, lam2, m), (est, err)) in enumerate(zip(grid, fits)):
        if est is None:
            results.append(GridResult(lam1, lam2, m, 0, math.nan, math.inf, err))
            continue
        s_total = len(est.s_alpha) + len(est.s_beta)
        score = hbic(est.final_loss.nll, s_total, n, p)
        results.append(GridResult(lam1, lam2, m, s_total, est.final_loss.nll, score))
        key = (score, s_total, lam1 + lam2, idx)
        if best_key is None or key < best_key:
            best_key = key
            best_idx = idx
    if best_key is None:
        raise FitDivergenceError("every grid fit diverged")

    lam1, lam2, m = grid[best_idx]
    best_config = replace(base_config, lambda1=lam1, lambda2=lam2, M=m)
    return best_config, fits[best_idx][0], results
