"""Poisson count-network loss in O(n + edges), with per-node gradients.

The smooth part of the objective over all ordered pairs i != j is

    sum_{i!=j} [ exp((f_i + g_j)/z) - A_ij (f_i + g_j)/z ].

Expanding exp((f_i+g_j)/z) = e_i h_j with e_i = exp(f_i/z) and
h_j = exp(g_j/z) reduces the exponential term to S_f*S_g - sum_i e_i h_i
(the subtraction removes diagonal pairs), and the linear term needs only
node degrees since A_ij = 0 off the edge list.  No O(n^2) pass is ever
taken.  One kernel computes the loss and one side's per-node gradient
together, so the varying side's exponentials are evaluated once per call
and the fixed side's once per side update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netdata import CountNetwork

__all__ = [
    "LossBreakdown",
    "poisson_nll",
    "identifiability_penalty",
    "center_sums",
    "l1_penalty",
]

# exp overflows IEEE double just above 709; f/z + g/z past this bound is
# treated as divergence, not an error.
_EXP_LIMIT = 700.0


@dataclass
class LossBreakdown:
    """The composite objective split into its four additive parts."""

    nll: float
    l1_alpha: float
    l1_beta: float
    ident_penalty: float

    @property
    def total(self) -> float:
        return self.nll + self.l1_alpha + self.l1_beta + self.ident_penalty


def _check_values(vals, net: CountNetwork, z_n: float) -> np.ndarray:
    """Validate z_n and one side's node values; return the values as float64."""
    if z_n <= 0:
        raise ValueError("z_n must be positive")
    v = np.asarray(vals, dtype=np.float64)
    if v.shape != (net.n,):
        raise ValueError(f"node values must have shape ({net.n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError("node values must be finite")
    return v


class _SideLoss:
    """The loss kernel as a function of one side, the other held fixed.

    ``side`` names the side that varies ('alpha': f, 'beta': g).  The
    fixed side's exponentials, their sum, the sums over all other nodes,
    its scaled maximum and its degree product are taken once here, since
    a side update evaluates many trial values against the same frozen side.  Each call returns
    (loss, gradient w.r.t. the varying side) bit for bit as evaluating
    everything afresh would: every operation has the same operands, at
    most swapped in a product or a two-term sum, which commute exactly in
    IEEE arithmetic.  Inputs are not validated (callers pass finite
    float64 vectors of length n and a positive z_n).  Past the overflow
    limit a call returns (inf, None) and does not raise.
    """

    def __init__(self, fixed: np.ndarray, net: CountNetwork, z_n: float, side: str):
        if side not in ("alpha", "beta"):
            raise ValueError(f"side must be 'alpha' or 'beta', got {side!r}")
        own, other = ((net.out_degree, net.in_degree) if side == "alpha"
                      else (net.in_degree, net.out_degree))
        self.z_n = z_n
        # int64 degrees are exact in float64; casting once spares the
        # per-call conversion inside the dot product and the gradient
        self.degree = own.astype(np.float64)
        self.fixed_top = fixed.max() / z_n
        # an overflow here (fixed/z > 709) is reported by the calls: they
        # stop at the overflow limit or see the inf
        with np.errstate(over="ignore", invalid="ignore"):
            self.fixed_exp = np.exp(fixed / z_n)
            self.fixed_sum = self.fixed_exp.sum()
            # sum over j != i for the gradient; S - h_i cancels only for the one
            # node (if any) holding over half of S, so that entry is summed directly
            self.fixed_rest = self.fixed_sum - self.fixed_exp
        top = int(self.fixed_exp.argmax())
        if 2.0 * self.fixed_exp[top] > self.fixed_sum:
            self.fixed_rest[top] = np.delete(self.fixed_exp, top).sum()
        self.fixed_linear = other @ fixed

    def __call__(self, vals: np.ndarray):
        z_n = self.z_n
        if vals.max() / z_n + self.fixed_top > _EXP_LIMIT:
            return np.inf, None
        e = np.exp(vals / z_n)
        expo = e.sum() * self.fixed_sum - e @ self.fixed_exp
        linear = (self.degree @ vals + self.fixed_linear) / z_n
        grad = (e * self.fixed_rest - self.degree) / z_n
        return float(expo - linear), grad


def poisson_nll(f_vals, g_vals, net: CountNetwork, z_n: float = 1.0) -> float:
    """Empirical Poisson loss over ordered pairs, up to the log A_ij! constant.

    Validates its inputs, then evaluates the loss kernel.  Returns +inf
    (never raises) when the exponentials would overflow; the optimizer
    treats that as a divergent step.
    """
    f = _check_values(f_vals, net, z_n)
    g = _check_values(g_vals, net, z_n)
    return _SideLoss(g, net, z_n, "alpha")(f)[0]


def identifiability_penalty(f_vals, target_sum: float, gamma: float):
    """Soft sum constraint gamma*(sum f - target)^2 and its gradient.

    The gradient is the same for every node, so it is returned as one
    scalar.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    f = np.asarray(f_vals, dtype=np.float64)
    gap = f.sum() - target_sum
    return float(gamma * gap * gap), float(2.0 * gamma * gap)


def center_sums(alpha_vals: np.ndarray, beta_vals: np.ndarray):
    """The exact form of the sum constraint: shift both sides so their sums match.

    Returns (alpha - c, beta + c, c) with c = (sum alpha - sum beta)/(2n).
    The same constant moves both sides, so every alpha_i + beta_j is
    unchanged up to rounding.
    """
    c = (float(alpha_vals.sum()) - float(beta_vals.sum())) / (2.0 * alpha_vals.size)
    return alpha_vals - c, beta_vals + c, c


def l1_penalty(theta, lam: float) -> float:
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return float(lam * np.abs(np.asarray(theta, dtype=np.float64)).sum())
