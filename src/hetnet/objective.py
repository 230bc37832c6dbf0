"""Poisson count-network loss in O(n + edges), with per-node gradients.

The smooth part of the objective over all ordered pairs i != j is

    sum_{i!=j} [ exp((f_i + g_j)/z) - A_ij (f_i + g_j)/z ].

Expanding exp((f_i+g_j)/z) = e_i h_j with e_i = exp(f_i/z) and
h_j = exp(g_j/z) reduces the exponential term to S_f*S_g - sum_i e_i h_i
(the subtraction removes diagonal pairs), and the linear term needs only
node degrees since A_ij = 0 off the edge list.  No O(n^2) pass is ever
taken.  One kernel computes the loss and one side's per-node gradient
together, so the exponentials are evaluated once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netdata import CountNetwork

__all__ = [
    "LossBreakdown",
    "poisson_nll",
    "identifiability_penalty",
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


def _nll_and_grad(f: np.ndarray, g: np.ndarray, net: CountNetwork, z_n: float,
                  side: str):
    """Poisson loss and its gradient w.r.t. f (side='alpha') or g ('beta').

    The one loss kernel: exp(f/z) and exp(g/z) are taken once and serve
    both the value and the gradient.  Inputs are not validated (callers
    pass finite float64 vectors of length n and a positive z_n).  Past
    the overflow limit it returns (inf, None) and does not raise.
    """
    if side not in ("alpha", "beta"):
        raise ValueError(f"side must be 'alpha' or 'beta', got {side!r}")
    if f.max() / z_n + g.max() / z_n > _EXP_LIMIT:
        return np.inf, None
    e = np.exp(f / z_n)
    h = np.exp(g / z_n)
    e_sum = e.sum()
    h_sum = h.sum()
    expo = e_sum * h_sum - e @ h
    linear = (net.out_degree @ f + net.in_degree @ g) / z_n
    if side == "alpha":
        grad = (e * (h_sum - h) - net.out_degree) / z_n
    else:
        grad = (h * (e_sum - e) - net.in_degree) / z_n
    return float(expo - linear), grad


def poisson_nll(f_vals, g_vals, net: CountNetwork, z_n: float = 1.0) -> float:
    """Empirical Poisson loss over ordered pairs, up to the log A_ij! constant.

    Validates its inputs, then evaluates the loss kernel.  Returns +inf
    (never raises) when the exponentials would overflow; the optimizer
    treats that as a divergent step.
    """
    f = _check_values(f_vals, net, z_n)
    g = _check_values(g_vals, net, z_n)
    return _nll_and_grad(f, g, net, z_n, "alpha")[0]


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


def l1_penalty(theta, lam: float) -> float:
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return float(lam * np.abs(np.asarray(theta, dtype=np.float64)).sum())
