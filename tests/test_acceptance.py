"""End-to-end acceptance checks, one printed verdict line per criterion.

These run the frozen benchmark configurations; the heavy linear benchmark
(criteria 1, 2, 4) shares a module fixture.  Every measured bar is asserted
at its stated tolerance, and each test prints one summary line so the suite
log doubles as a scorecard.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import hetnet.optimizer as optimizer_mod
from hetnet import (
    CountNetwork,
    FitConfig,
    Rng,
    fit,
    forward_batch,
    grid_search,
    hierarchical_prox,
    init_net,
    mle_fit,
    poisson_nll,
    shapley_importance,
    two_stage_select,
)
from hetnet.cli import main
from hetnet.objective import _SideLoss
from hetnet.rng import derive_seed
from hetnet.simbench import selection_metrics, simulate_design
from hetnet.skipnet import FlatNet, _backward_from_activations, _forward_activations

# frozen linear benchmark (criteria 1, 2, 4)
LIN_N, LIN_P, LIN_R = 100, 200, 10
LIN_SEED = 1234
LIN_GRID = [15.0, 18.0, 21.0, 25.0, 30.0]
LIN_BASE = FitConfig(M=0.5, rho=8e-4, z_n=10.0, inner_epochs=1200,
                     t_max_outer=8, hidden_widths=(), seed=11)

# frozen nonlinear benchmark (criterion 3): best configuration found by
# calibration; the even-function design keeps selection near chance level
NL_N, NL_P, NL_R = 100, 100, 10
NL_SEED = 1234
NL_CFG = FitConfig(lambda1=6.0, lambda2=6.0, M=2.0, rho=8e-4, z_n=5.0,
                   inner_epochs=1000, t_max_outer=8, hidden_widths=(8, 4),
                   seed=11)

# frozen rate check (criterion 10)
RATE_P, RATE_R = 20, 5
RATE_SEED = 4321
RATE_LAMBDA_PER_N = 0.10


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def _rep_data(setting, n, p, base_seed, rep, z):
    return simulate_design(setting, n, p, derive_seed(base_seed, rep), z)


# ------------------------------------------------- criteria 1, 2, 4 fixture

@pytest.fixture(scope="module")
def linear_runs():
    grid = [(l1, l2, LIN_BASE.M) for l1 in LIN_GRID for l2 in LIN_GRID]
    rows = []
    t0 = time.monotonic()
    for rep in range(LIN_R):
        X, truth, A = _rep_data("linear", LIN_N, LIN_P, LIN_SEED, rep,
                                LIN_BASE.z_n)
        cfg, est, results = grid_search(A, X, LIN_BASE, grid, jobs=4)
        m = mle_fit(A, LIN_BASE.z_n)
        s_alpha_l, s_beta_l, alpha_l, beta_l = two_stage_select(
            A, X, LIN_BASE.z_n)
        a0 = np.asarray(truth.alpha0)
        rows.append({
            "est": est,
            "rep": rep,
            "h_mse": float(np.mean((est.alpha_hat - a0) ** 2)),
            "m_mse": float(np.mean((m.alpha_hat - a0) ** 2)),
            "l_mse": float(np.mean((alpha_l - a0) ** 2)),
            "alpha_sel": selection_metrics(est.s_alpha, truth.a_alpha),
            "beta_sel": selection_metrics(est.s_beta, truth.a_beta),
            "lasso_alpha_sel": selection_metrics(s_alpha_l, truth.a_alpha),
        })
    return {"rows": rows, "minutes": (time.monotonic() - t0) / 60.0}


def test_criterion_1_linear_recovery(linear_runs):
    rows = linear_runs["rows"]
    a_tpr = float(np.mean([r["alpha_sel"][1] for r in rows]))
    a_prec = float(np.mean([r["alpha_sel"][0] for r in rows]))
    b_tpr = float(np.mean([r["beta_sel"][1] for r in rows]))
    minutes = linear_runs["minutes"]
    ok = a_tpr >= 0.90 and a_prec >= 0.85 and b_tpr >= 0.90 and minutes <= 30.0
    _report(1, ok, f"alpha TPR {a_tpr:.3f} (>=0.90), alpha precision "
                   f"{a_prec:.3f} (>=0.85), beta TPR {b_tpr:.3f} (>=0.90), "
                   f"{minutes:.1f} min (<=30)")
    assert a_tpr >= 0.90
    assert a_prec >= 0.85
    assert b_tpr >= 0.90
    assert minutes <= 30.0


def test_criterion_2_estimator_ordering(linear_runs):
    rows = linear_runs["rows"]
    agg = lambda key: float(np.sqrt(np.mean([r[key] for r in rows])))
    ours, mle, lasso = agg("h_mse"), agg("m_mse"), agg("l_mse")
    ok = ours <= 0.8 * mle and ours <= 0.8 * lasso
    _report(2, ok, f"aggregate alpha-RMSE {ours:.4f} vs MLE {mle:.4f} "
                   f"(ratio {ours / mle:.3f}) and MLE+Lasso {lasso:.4f} "
                   f"(ratio {ours / lasso:.3f}); both need <=0.8")
    assert ours <= 0.8 * mle
    assert ours <= 0.8 * lasso


def test_criterion_4_two_stage_failure(linear_runs):
    rows = linear_runs["rows"]
    f1 = float(np.mean([r["lasso_alpha_sel"][2] for r in rows]))
    ok = f1 <= 0.3
    _report(4, ok, f"MLE+Lasso alpha F1 {f1:.3f} (needs <=0.3)")
    assert f1 <= 0.3


# --------------------------------------------------------- criterion 3

def _nonlinear_rep(rep: int):
    X, truth, A = _rep_data("nonlinear", NL_N, NL_P, NL_SEED, rep,
                            NL_CFG.z_n)
    est = fit(A, X, NL_CFG)
    return (selection_metrics(est.s_alpha, truth.a_alpha)[2],
            selection_metrics(est.s_beta, truth.a_beta)[2])


def test_criterion_3_nonlinear_selection():
    with ProcessPoolExecutor(max_workers=4) as ex:
        scores = list(ex.map(_nonlinear_rep, range(NL_R)))
    a_f1 = float(np.mean([s[0] for s in scores]))
    b_f1 = float(np.mean([s[1] for s in scores]))
    ok = a_f1 >= 0.75 and b_f1 >= 0.70
    _report(3, ok, f"alpha F1 {a_f1:.3f} (>=0.75), beta F1 {b_f1:.3f} "
                   f"(>=0.70)")
    assert a_f1 >= 0.75
    assert b_f1 >= 0.70


# --------------------------------------------------------- criterion 5

def test_criterion_5_nll_oracle():
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        z = float(rng.uniform(0.5, 4.0))
        f = rng.normal(0.0, 1.0, size=n)
        g = rng.normal(0.0, 1.0, size=n)
        dense = rng.poisson(2.0, size=(n, n))
        np.fill_diagonal(dense, 0)
        edges = [(i, j, int(dense[i, j])) for i in range(n) for j in range(n)
                 if i != j and dense[i, j] > 0]
        A = CountNetwork.from_edges(n, edges)
        got = poisson_nll(f, g, A, z)
        naive = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                s = (f[i] + g[j]) / z
                naive += np.exp(s) - dense[i, j] * s
        worst = max(worst, abs(got - naive) / max(1.0, abs(naive)))
    secs = time.monotonic() - t0
    ok = worst <= 1e-10 and secs <= 5.0
    _report(5, ok, f"200 instances, worst relative gap {worst:.2e} "
                   f"(<=1e-10), {secs:.2f}s (<=5)")
    assert worst <= 1e-10
    assert secs <= 5.0


# --------------------------------------------------------- criterion 6

def _away_from_kinks(net, X, margin: float = 1e-3) -> bool:
    a = X
    for i, layer in enumerate(net.layers):
        z = a @ layer.weights.T + layer.biases
        if i < len(net.layers) - 1:
            if np.min(np.abs(z)) < margin:
                return False
            a = np.maximum(z, 0.0)
    return True


def _fd_backward_error(net, X, upstream, h=1e-6):
    # the backward pass the trainer runs, its gradient shaped like net
    flat = FlatNet.from_net(net, X.shape[0])
    _forward_activations(flat, X)
    grad = FlatNet(flat.p, flat.widths, X.shape[0])
    _backward_from_activations(flat, X, upstream, grad)
    grads = grad.to_net()

    def loss():
        return float(upstream @ forward_batch(net, X))

    worst = 0.0

    def check(arr, got):
        nonlocal worst
        flat, gflat = arr.ravel(), got.ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss()
            flat[idx] = keep - h
            dn = loss()
            flat[idx] = keep
            fd = (up - dn) / (2.0 * h)
            scale = max(1.0, abs(fd))
            worst = max(worst, abs(gflat[idx] - fd) / scale)

    check(net.theta, grads.theta)
    for layer, glayer in zip(net.layers, grads.layers):
        check(layer.weights, glayer.weights)
        check(layer.biases, glayer.biases)
    return worst


def test_criterion_6_gradient_correctness():
    t0 = time.monotonic()
    worst_back = 0.0
    made = 0
    rng = np.random.default_rng(606)
    local = Rng(66)
    while made < 50:
        n = int(rng.integers(4, 10))
        p = int(rng.integers(2, 5))
        net = init_net(p, (4, 3), local, theta_scale=0.5)
        for layer in net.layers:
            layer.biases = rng.normal(0.3, 0.4, size=layer.biases.shape)
        X = rng.uniform(-1.0, 1.0, size=(n, p))
        if not _away_from_kinks(net, X):
            continue
        made += 1
        upstream = rng.normal(0.0, 1.0, size=n)
        worst_back = max(worst_back, _fd_backward_error(net, X, upstream))

    worst_node = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 12))
        z = float(rng.uniform(0.5, 3.0))
        f = rng.normal(0.0, 0.8, size=n)
        g = rng.normal(0.0, 0.8, size=n)
        dense = rng.poisson(1.5, size=(n, n))
        np.fill_diagonal(dense, 0)
        edges = [(i, j, int(dense[i, j])) for i in range(n) for j in range(n)
                 if i != j and dense[i, j] > 0]
        A = CountNetwork.from_edges(n, edges)
        for side, fixed, vals in (("alpha", g, f), ("beta", f, g)):
            _, got = _SideLoss(fixed, A, z, side)(vals)
            h = 1e-6
            for i in range(n):
                keep = vals[i]
                vals[i] = keep + h
                up = poisson_nll(f, g, A, z)
                vals[i] = keep - h
                dn = poisson_nll(f, g, A, z)
                vals[i] = keep
                fd = (up - dn) / (2.0 * h)
                worst_node = max(worst_node,
                                 abs(got[i] - fd) / max(1.0, abs(fd)))
    secs = time.monotonic() - t0
    ok = worst_back <= 1e-5 and worst_node <= 1e-5 and secs <= 10.0
    _report(6, ok, f"backward worst rel err {worst_back:.2e}, node-gradient "
                   f"worst {worst_node:.2e} (both <=1e-5), {secs:.2f}s (<=10)")
    assert worst_back <= 1e-5
    assert worst_node <= 1e-5
    assert secs <= 10.0


# --------------------------------------------------------- criterion 7

def test_criterion_7_prox_contract(monkeypatch):
    seen = {"calls": 0, "worst": -np.inf}
    original = optimizer_mod.hierarchical_prox

    def checked(w1, theta, tau, M):
        w1_new, theta_new = original(w1, theta, tau, M)
        seen["calls"] += 1
        norms = np.sqrt((w1_new ** 2).sum(axis=1))
        gap = float((norms - M * np.abs(theta_new)).max())
        seen["worst"] = max(seen["worst"], gap)
        return w1_new, theta_new

    monkeypatch.setattr(optimizer_mod, "hierarchical_prox", checked)
    X, truth, A = _rep_data("linear", 25, 10, 77, 0, 5.0)
    cfg = FitConfig(lambda1=1.5, lambda2=1.5, M=1.5, rho=2e-3, z_n=5.0,
                    inner_epochs=120, t_max_outer=3, hidden_widths=(4, 2),
                    seed=9)
    fit(A, X, cfg)
    monkeypatch.setattr(optimizer_mod, "hierarchical_prox", original)

    rng = np.random.default_rng(707)
    theta = rng.uniform(-2.0, 2.0, size=10_000)
    tau = 0.35
    _, theta_new = hierarchical_prox(np.zeros((10_000, 1)), theta, tau, 2.0)
    expect = np.sign(theta) * np.maximum(np.abs(theta) - tau, 0.0)
    exact = bool(np.array_equal(theta_new, expect)
                 and np.all(theta_new[np.abs(theta) <= tau] == 0.0))
    ok = seen["calls"] > 0 and seen["worst"] <= 1e-9 and exact
    _report(7, ok, f"{seen['calls']} prox calls in a full fit, worst "
                   f"constraint gap {seen['worst']:.2e} (<=1e-9); "
                   f"soft-threshold exact on 10^4 scalars: {exact}")
    assert seen["calls"] > 0
    assert seen["worst"] <= 1e-9
    assert exact


# --------------------------------------------------------- criterion 8

def _uniform_network(n: int, c: int) -> CountNetwork:
    edges = [(i, j, c) for i in range(n) for j in range(n) if i != j]
    return CountNetwork.from_edges(n, edges)


def test_criterion_8_mle_exactness():
    worst_uniform = 0.0
    for c in (1, 4, 9):
        for n in (5, 20):
            est = mle_fit(_uniform_network(n, c), 1.0)
            rates = np.exp(np.add.outer(est.alpha_hat, est.beta_hat))
            np.fill_diagonal(rates, np.nan)
            dev = np.nanmax(np.abs(rates - c) / c)
            worst_uniform = max(worst_uniform, float(dev))

    worst_resid = 0.0
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 100:
        n = int(rng.integers(5, 12))
        dense = rng.poisson(3.0, size=(n, n))
        np.fill_diagonal(dense, 0)
        if np.any(dense.sum(axis=1) == 0) or np.any(dense.sum(axis=0) == 0):
            continue
        checked += 1
        edges = [(i, j, int(dense[i, j])) for i in range(n) for j in range(n)
                 if i != j and dense[i, j] > 0]
        est = mle_fit(CountNetwork.from_edges(n, edges), 1.0)
        rates = np.exp(np.add.outer(est.alpha_hat, est.beta_hat))
        np.fill_diagonal(rates, 0.0)
        out_resid = np.abs(rates.sum(axis=1) - dense.sum(axis=1))
        in_resid = np.abs(rates.sum(axis=0) - dense.sum(axis=0))
        scale = 1.0 + dense.sum(axis=1)
        worst_resid = max(worst_resid, float(np.max(out_resid / scale)))
        worst_resid = max(worst_resid, float(np.max(
            in_resid / (1.0 + dense.sum(axis=0)))))
    ok = worst_uniform <= 1e-8 and worst_resid <= 1e-6
    _report(8, ok, f"uniform-network worst rate deviation {worst_uniform:.2e} "
                   f"(<=1e-8); stationarity residual {worst_resid:.2e} "
                   f"(<=1e-6) over 100 networks")
    assert worst_uniform <= 1e-8
    assert worst_resid <= 1e-6


# --------------------------------------------------------- criterion 9

def _identifiability_gaps(est, X):
    f = forward_batch(est.net_alpha, X)
    g = forward_batch(est.net_beta, X)
    sum_gap = abs(float(est.alpha_hat.sum()) - float(est.beta_hat.sum()))
    sum_gap /= 1.0 + abs(float(est.alpha_hat.sum()))
    before = np.add.outer(f, g)
    after = np.add.outer(est.alpha_hat, est.beta_hat)
    rate_gap = float(np.max(np.abs(after - before)))
    return sum_gap, rate_gap


def test_criterion_9_identifiability(linear_runs):
    worst_sum = worst_rate = 0.0
    count = 0
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(6, 14))
        p = int(rng.integers(3, 7))
        X, truth, A = _rep_data("linear", n, max(p, 10), 90 + seed, 0, 4.0)
        widths = ((), (3, 2))[seed % 2]
        cfg = FitConfig(lambda1=0.4 * (seed % 3), lambda2=0.2, M=1.0,
                        rho=3e-3, z_n=4.0, inner_epochs=60, t_max_outer=3,
                        hidden_widths=widths, seed=seed)
        est = fit(A, X, cfg)
        s_gap, r_gap = _identifiability_gaps(est, X.values)
        worst_sum, worst_rate = max(worst_sum, s_gap), max(worst_rate, r_gap)
        count += 1
    for row in linear_runs["rows"]:
        X, _, _ = _rep_data("linear", LIN_N, LIN_P, LIN_SEED, row["rep"],
                            LIN_BASE.z_n)
        s_gap, r_gap = _identifiability_gaps(row["est"], X.values)
        worst_sum, worst_rate = max(worst_sum, s_gap), max(worst_rate, r_gap)
        count += 1
    ok = worst_sum <= 1e-8 and worst_rate <= 1e-12
    _report(9, ok, f"{count} estimates: worst centered-sum gap "
                   f"{worst_sum:.2e} (<=1e-8), worst log-rate change "
                   f"{worst_rate:.2e} (<=1e-12)")
    assert worst_sum <= 1e-8
    assert worst_rate <= 1e-12


# --------------------------------------------------------- criterion 10

def _rate_rep(task):
    n, rep = task
    X, truth, A = simulate_design("linear", n, RATE_P,
                                  derive_seed(RATE_SEED, 1000 * n + rep), 10.0)
    lam = RATE_LAMBDA_PER_N * n
    cfg = FitConfig(lambda1=lam, lambda2=lam, M=0.5, rho=8e-4, z_n=10.0,
                    inner_epochs=1200, t_max_outer=8, hidden_widths=(),
                    seed=11)
    est = fit(A, X, cfg)
    a0 = np.asarray(truth.alpha0)
    return n, float(np.sqrt(np.mean((est.alpha_hat - a0) ** 2)))


def test_criterion_10_rate_check():
    t0 = time.monotonic()
    tasks = [(n, rep) for n in (50, 100, 200) for rep in range(RATE_R)]
    by_n = {}
    with ProcessPoolExecutor(max_workers=4) as ex:
        for n, rmse in ex.map(_rate_rep, tasks):
            by_n.setdefault(n, []).append(rmse)
    medians = [float(np.median(by_n[n])) for n in (50, 100, 200)]
    minutes = (time.monotonic() - t0) / 60.0
    decreasing = medians[0] > medians[1] > medians[2]
    ok = decreasing and minutes <= 20.0
    _report(10, ok, "median alpha-RMSE over n=(50,100,200): "
                    + ", ".join(f"{m:.3f}" for m in medians)
                    + f"; strictly decreasing: {decreasing}; "
                      f"{minutes:.1f} min (<=20)")
    assert decreasing
    assert minutes <= 20.0


# --------------------------------------------------------- criterion 11

def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"lambda1": 6.0, "lambda2": 6.0, "M": 0.5, '
                   '"rho": 2e-3, "z_n": 10.0, "inner_epochs": 150, '
                   '"t_max_outer": 4, "hidden_widths": [], "seed": 7}\n')

    def run(out, jobs):
        rc = main(["evaluate", "--setting", "linear", "--n", "24", "--p",
                   "10", "--replications", "3", "--methods",
                   "hetnet,mle,oracle", "--seed", "99", "--zn", "10",
                   "--config", str(cfg), "--jobs", jobs, "--out", str(out)])
        assert rc == 0
        return (out / "metrics.csv").read_bytes()

    first = run(tmp_path / "a", "1")
    again = run(tmp_path / "b", "1")
    wide = run(tmp_path / "c", "4")
    ok = first == again == wide
    _report(11, ok, f"metrics.csv identical for --jobs 1 rerun and --jobs 4: "
                    f"{ok} ({len(first)} bytes)")
    assert first == again
    assert first == wide


# --------------------------------------------------------- criterion 12

def test_criterion_12_shapley_closed_form():
    rng = np.random.default_rng(1212)
    total = 0
    covered = 0
    for trial in range(5):
        n, p = 20, 6
        X = rng.uniform(-1.0, 1.0, size=(n, p))
        theta = rng.normal(0.0, 1.0, size=p)
        net = init_net(p, (3,), Rng(50 + trial))
        net.theta = theta.copy()
        for layer in net.layers:
            layer.weights = np.zeros_like(layer.weights)
            layer.biases = np.zeros_like(layer.biases)
        report = shapley_importance(net, X, list(range(p)), samples=1000,
                                    seed=120 + trial)
        mean_k = X.mean(axis=0)
        for row, node in enumerate(report.node_indices.tolist()):
            for s, k in enumerate(report.features):
                want = theta[k] * (X[node, k] - mean_k[k])
                got = report.node_values[row, s]
                se = report.node_stderrs[row, s]
                total += 1
                if abs(got - want) <= max(3.0 * se, 1e-9):
                    covered += 1
    share = covered / total
    ok = share >= 0.95
    _report(12, ok, f"{covered}/{total} (node, feature) pairs within 3 SE "
                    f"of the closed form ({share:.1%}, needs >=95%)")
    assert share >= 0.95
