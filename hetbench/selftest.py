"""Self-test of checks.py on tiny hand-made inputs.

    python3 hetbench/selftest.py

Every check must accept a correct output and reject a perturbed one, so
that none of them passes vacuously.  run.py calls ``run()`` before it
measures anything.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import replace

import numpy as np

import checks

N, P = 5, 4
X = np.array([[0.3, -0.7, 0.5, 0.1],
              [-0.2, 0.4, -0.9, 0.8],
              [0.9, 0.1, 0.2, -0.5],
              [-0.6, -0.3, 0.7, 0.4],
              [0.1, 0.8, -0.4, -0.2]])
EDGES = (np.array([0, 0, 1, 2, 3, 4, 4]), np.array([1, 3, 2, 0, 4, 1, 2]),
         np.array([2, 1, 3, 1, 1, 4, 2]))


def _nets():
    theta_a = np.array([0.8, 0.0, -0.5, 0.3])
    w1 = np.array([[0.2, 0.0, -0.1, 0.05], [-0.3, 0.0, 0.2, 0.1]])
    net_a = (theta_a, [(w1, np.array([0.1, -0.2])), (np.array([[0.7, -0.4]]), np.array([-0.7]))])
    net_b = (np.array([0.0, 0.6, 0.0, -0.4]), [])
    return net_a, net_b


def _naive_nll(alpha, beta, z):
    dense = np.zeros((N, N))
    for s, d, c in zip(*EDGES):
        dense[s, d] += c
    nll = lfact = 0.0
    for i, j in itertools.product(range(N), range(N)):
        if i != j:
            eta = (alpha[i] + beta[j]) / z
            nll += math.exp(eta) - dense[i, j] * eta
            lfact += math.lgamma(dense[i, j] + 1.0)
    return nll, lfact


def _record():
    net_a, net_b = _nets()
    fa, fb = checks.net_forward(net_a, X), checks.net_forward(net_b, X)
    shift = (fb.sum() - fa.sum()) / (2 * N)
    alpha, beta = fa + shift, fb - shift
    z, lam1, lam2 = 2.0, 0.5, 0.25
    nll, _ = _naive_nll(alpha, beta, z)
    total = nll + lam1 * np.abs(net_a[0]).sum() + lam2 * np.abs(net_b[0]).sum()
    return checks.FitRecord(alpha, beta, {0, 2, 3}, {1, 3}, net_a, net_b, shift,
                            nll, total, lam1, lam2, 1.0, z)


def _rows_forward(net, x):
    theta, layers = net
    out = []
    for row in x:
        a = row
        for i, (w, b) in enumerate(layers):
            a = np.array([sum(w[o, k] * a[k] for k in range(len(a))) for o in range(w.shape[0])]) + b
            a = np.maximum(a, 0.0) if i < len(layers) - 1 else a
        out.append(float(theta @ row) + (a[0] if layers else 0.0))
    return np.array(out)


def cases():
    """(name, failures for the correct input, failures for the perturbed one)."""
    rec = _record()
    net_a, net_b = _nets()
    def forward_failures(x):
        ok = np.allclose(checks.net_forward(net_a, x), _rows_forward(net_a, X), rtol=0, atol=1e-14)
        return [] if ok else ["plain forward differs from the row-by-row loop"]

    yield ("net_forward", forward_failures(X), forward_failures(X[:, ::-1]))

    good, objective = checks.check_objective(rec, EDGES, N)
    _, lfact = _naive_nll(rec.alpha_hat, rec.beta_hat, rec.z_n)
    if not math.isclose(objective, rec.final_total + lfact, rel_tol=1e-12):
        good.append(f"objective {objective} != naive {rec.final_total + lfact}")
    yield ("objective", good,
           checks.check_objective(replace(rec, final_nll=rec.final_nll * (1 + 1e-7)), EDGES, N)[0])
    far = replace(rec, alpha_hat=rec.alpha_hat + 6.0)
    far_nll, _ = _naive_nll(far.alpha_hat, far.beta_hat, far.z_n)
    far_total = far_nll + rec.final_total - rec.final_nll + 36.0 * N * N / N
    yield ("beats zero net", checks.check_objective(rec, EDGES, N)[0],
           checks.check_objective(replace(far, final_nll=far_nll, final_total=far_total),
                                  EDGES, N)[0])

    yield ("forward reproduction", checks.check_fit(rec, X),
           checks.check_fit(replace(rec, alpha_hat=rec.alpha_hat + np.eye(N)[0] * 1e-7), X))
    theta_small = net_a[0] * np.array([1.0, 1.0, 0.1, 1.0])
    squeezed = (theta_small, net_a[1])
    fa = checks.net_forward(squeezed, X)
    fb = checks.net_forward(net_b, X)
    shift = (fb.sum() - fa.sum()) / (2 * N)
    yield ("hierarchy", checks.check_fit(rec, X),
           checks.check_fit(replace(rec, net_alpha=squeezed, alpha_hat=fa + shift,
                                    beta_hat=fb - shift, centering_shift=shift), X))
    yield ("selection", checks.check_fit(rec, X), checks.check_fit(replace(rec, s_alpha={0, 2}), X))
    yield ("centring", checks.check_fit(rec, X),
           checks.check_fit(replace(rec, alpha_hat=rec.alpha_hat + 1e-3,
                                    centering_shift=rec.centering_shift + 1e-3), X))

    m = N * (N - 1)
    pen = math.log(math.log(m)) * math.log(P)
    # entries 0 and 1 tie on score and size; the smaller lambda1 + lambda2 wins
    grid = [(2.0, 2.0, 0.5, 2, 10.0, 20.0 + 2 * pen, None),
            (1.0, 1.0, 0.5, 2, 10.0, 20.0 + 2 * pen, None),
            (3.0, 3.0, 0.5, 1, 12.0, 24.0 + pen, None)]
    yield ("grid tie rule", checks.check_grid(grid, (1.0, 1.0, 0.5), N, P),
           checks.check_grid(grid, (2.0, 2.0, 0.5), N, P))
    yield ("grid score", checks.check_grid(grid, (1.0, 1.0, 0.5), N, P),
           checks.check_grid([grid[0][:5] + (grid[0][5] - 1e-3, None)] + grid[1:],
                             (1.0, 1.0, 0.5), N, P))
    yield ("grid error", checks.check_grid(grid, (1.0, 1.0, 0.5), N, P),
           checks.check_grid(grid[:2] + [grid[2][:6] + ("diverged",)], (1.0, 1.0, 0.5), N, P))

    out_deg = np.bincount(EDGES[0], weights=EDGES[2], minlength=N)
    in_deg = np.bincount(EDGES[1], weights=EDGES[2], minlength=N)
    a, b = np.ones(N), np.ones(N)
    for _ in range(2000):
        a = out_deg / (b.sum() - b)
        b = in_deg / (a.sum() - a)
    alpha, beta = 3.0 * np.log(a), 3.0 * np.log(b)
    yield ("MLE stationarity", checks.check_mle(alpha, beta, set(), set(), EDGES, N, 3.0),
           checks.check_mle(alpha + np.eye(N)[1] * 1e-4, beta, set(), set(), EDGES, N, 3.0))

    fitted = 2.0 + 0.5 * X[:, 1] - X[:, 3]
    yield ("lasso span", checks.check_span(X, {1, 3}, fitted),
           checks.check_span(X, {1, 3}, fitted + 0.1 * X[:, 2]))

    theta = np.array([0.5, -1.0, 0.0, 2.0])
    exact = theta * (X - X.mean(axis=0))
    feats = [0, 1, 3]
    values = exact[:, feats]
    bumped = values.copy()
    bumped[2, 1] += 1e-6
    yield ("Shapley efficiency",
           checks.check_shapley((theta, []), X, np.arange(N), feats, values),
           checks.check_shapley((theta, []), X, np.arange(N), feats, bumped))

    alpha0, beta0 = X.sum(axis=1), X[:, ::-1].sum(axis=1)
    eta = (alpha0[:, None] + beta0[None, :]) / 0.5
    lam = float(np.exp(eta).sum() - np.exp(np.diag(eta)).sum())
    yield ("simulation total", checks.check_simulation(alpha0, beta0, 0.5, round(lam)),
           checks.check_simulation(alpha0, beta0, 0.5, round(lam + 7 * math.sqrt(lam))))

    def f1_failures(selected):
        return [] if checks.f1(selected, range(5)) == 10 / 11 else ["F1 is not 10/11"]

    yield ("f1", f1_failures({0, 1, 2, 3, 4, 9}), f1_failures({0, 1, 2, 3, 9}))


def run() -> list[str]:
    """Names of the checks that failed their self-test; empty when all hold."""
    broken = []
    for name, good, bad in cases():
        if good or not bad:
            broken.append(f"{name}: accepts correct={not good}, rejects perturbed={bool(bad)}"
                          + (f" ({good[0]})" if good else ""))
    return broken


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print(f"FAIL {line}")
    print(f"checker self-test: {'all checks discriminate' if not problems else 'FAILED'}")
    sys.exit(1 if problems else 0)
