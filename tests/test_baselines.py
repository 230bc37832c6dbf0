import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetnet import CountNetwork, mle_fit, two_stage_select
from hetnet.baselines import _lasso_path, _lasso_stage, _standardize


def _uniform_network(n: int, c: int) -> CountNetwork:
    return CountNetwork.from_edges(
        n, [(i, j, c) for i in range(n) for j in range(n) if i != j]
    )


def _rates(est) -> np.ndarray:
    return np.exp(est.alpha_hat[:, None] + est.beta_hat[None, :])


def _random_positive_degree_network(seed: int, n: int) -> CountNetwork:
    rng = np.random.default_rng(seed)
    counts = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.uniform() < 0.6:
                counts[(i, j)] = int(rng.integers(1, 7))
    # a directed cycle guarantees every in- and out-degree is positive
    for i in range(n):
        counts.setdefault((i, (i + 1) % n), 1)
    return CountNetwork.from_edges(n, [(i, j, c) for (i, j), c in counts.items()])


# ----------------------------------------------------------------- mle_fit

@pytest.mark.parametrize("c", [1, 4, 9])
@pytest.mark.parametrize("n", [5, 20])
def test_mle_uniform_network_exact(c, n):
    est = mle_fit(_uniform_network(n, c))
    assert est.converged
    assert not est.flagged_alpha and not est.flagged_beta
    # symmetry: every node at log(c)/2 on both sides
    np.testing.assert_allclose(est.alpha_hat, math.log(c) / 2.0, rtol=1e-10)
    np.testing.assert_allclose(est.beta_hat, math.log(c) / 2.0, rtol=1e-10)
    off = ~np.eye(n, dtype=bool)
    np.testing.assert_allclose(_rates(est)[off], float(c), rtol=1e-10)


def test_mle_two_node_saturated_model():
    A = CountNetwork.from_edges(2, [(0, 1, 2), (1, 0, 8)])
    est = mle_fit(A)
    rates = _rates(est)
    assert rates[0, 1] == pytest.approx(2.0, abs=1e-6)
    assert rates[1, 0] == pytest.approx(8.0, abs=1e-6)


def test_mle_zero_out_degree_matches_reduced_oracle():
    # node 0 sends nothing: its sender rate sits on the boundary at 0 and
    # the survivors solve the reduced model.  The oracle profiles the
    # receiver rates out and grid-searches the two free sender rates.
    A = CountNetwork.from_edges(3, [(1, 0, 3), (1, 2, 2), (2, 0, 1), (2, 1, 4)])
    counts = {(1, 0): 3.0, (1, 2): 2.0, (2, 0): 1.0, (2, 1): 4.0}

    def profiled_nll(a1, a2):
        b0 = 4.0 / (a1 + a2)
        b1 = 4.0 / a2
        b2 = 2.0 / a1
        total = 0.0
        for (i, j), cnt in counts.items():
            rate = {1: a1, 2: a2}[i] * {0: b0, 1: b1, 2: b2}[j]
            total = total + rate - cnt * np.log(rate)
        # the zero-rate sender contributes nothing: rate 0, count 0
        return total

    lo1, hi1, lo2, hi2 = -3.0, 3.0, -3.0, 3.0
    for step in (0.02, 1e-3, 5e-5, 2.5e-6):
        g1 = np.arange(lo1, hi1 + step, step)
        g2 = np.arange(lo2, hi2 + step, step)
        vals = profiled_nll(np.exp(g1)[:, None], np.exp(g2)[None, :])
        k1, k2 = np.unravel_index(np.argmin(vals), vals.shape)
        lo1, hi1 = g1[k1] - 2 * step, g1[k1] + 2 * step
        lo2, hi2 = g2[k2] - 2 * step, g2[k2] + 2 * step
    a1, a2 = math.exp(g1[k1]), math.exp(g2[k2])
    oracle = {(1, 0): a1 * 4.0 / (a1 + a2), (1, 2): a1 * 2.0 / a1,
              (2, 0): a2 * 4.0 / (a1 + a2), (2, 1): a2 * 4.0 / a2}

    est = mle_fit(A)
    assert est.flagged_alpha == {0}
    assert est.flagged_beta == set()
    # the clamped sender sits strictly below every live parameter
    assert math.isfinite(est.alpha_hat[0])
    assert est.alpha_hat[0] == est.alpha_hat.min()
    rates = _rates(est)
    for (i, j), want in oracle.items():
        assert rates[i, j] == pytest.approx(want, abs=1e-6)


def test_mle_stationarity_on_random_networks():
    checked = 0
    for seed in range(100):
        A = _random_positive_degree_network(seed, 8)
        est = mle_fit(A)
        assert est.converged
        a = np.exp(est.alpha_hat)
        b = np.exp(est.beta_hat)
        out_res = a * (b.sum() - b) - A.out_degree
        in_res = b * (a.sum() - a) - A.in_degree
        assert np.all(np.abs(out_res) <= 1e-6 * (1.0 + A.out_degree))
        assert np.all(np.abs(in_res) <= 1e-6 * (1.0 + A.in_degree))
        checked += 1
    assert checked == 100


def test_mle_empty_network_all_flagged():
    est = mle_fit(CountNetwork.from_edges(4, []))
    clamp = math.log(0.5 / 4)
    np.testing.assert_allclose(est.alpha_hat, clamp, rtol=1e-12)
    np.testing.assert_allclose(est.beta_hat, clamp, rtol=1e-12)
    assert est.flagged_alpha == {0, 1, 2, 3}
    assert est.flagged_beta == {0, 1, 2, 3}
    assert est.converged


def test_mle_centering_invariant():
    for seed in (0, 5, 9):
        est = mle_fit(_random_positive_degree_network(seed, 10))
        sa, sb = est.alpha_hat.sum(), est.beta_hat.sum()
        assert abs(sa - sb) <= 1e-8 * (1.0 + abs(sa))


def test_mle_z_scaling():
    A = _random_positive_degree_network(3, 6)
    base = mle_fit(A, z_n=1.0)
    scaled = mle_fit(A, z_n=2.5)
    np.testing.assert_allclose(scaled.alpha_hat, 2.5 * base.alpha_hat, rtol=1e-9)
    np.testing.assert_allclose(scaled.beta_hat, 2.5 * base.beta_hat, rtol=1e-9)


def test_mle_validation():
    with pytest.raises(ValueError):
        mle_fit(CountNetwork.from_edges(1, []))
    with pytest.raises(ValueError):
        mle_fit(_uniform_network(3, 1), z_n=0.0)


# ------------------------------------------------- one-penalty lasso path

def _lasso(X, y, lam):
    """A single lasso fit: the path solver on a one-entry grid."""
    return _lasso_stage(_standardize(np.asarray(X, dtype=np.float64)), y, [lam])


def _standardized(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


def test_lasso_zero_penalty_matches_least_squares():
    rng = np.random.default_rng(0)
    n, p = 40, 5
    X = np.linalg.qr(rng.normal(size=(n, p)))[0]  # orthonormal columns
    y = rng.normal(size=n)
    selected, fitted = _lasso(X, y, 0.0)
    design = np.column_stack([np.ones(n), X])
    ols = np.linalg.lstsq(design, y, rcond=None)[0]
    assert selected == set(range(p))
    np.testing.assert_allclose(fitted, design @ ols, atol=1e-8)


def test_lasso_above_lambda_max_is_null_model():
    rng = np.random.default_rng(1)
    n, p = 30, 4
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    lam_max = float(np.abs(_standardized(X).T @ (y - y.mean())).max()) / n
    selected, fitted = _lasso(X, y, lam_max * 1.000001)
    assert selected == set()
    np.testing.assert_allclose(fitted, float(y.mean()), rtol=1e-12)


def test_lasso_single_column_closed_form():
    rng = np.random.default_rng(2)
    n = 50
    x = rng.normal(size=n)
    x = (x - x.mean()) / x.std()  # exact unit population variance
    y = 0.8 * x + rng.normal(scale=0.3, size=n)
    lam = 0.1
    selected, fitted = _lasso(x[:, None], y, lam)
    cov = float(x @ (y - y.mean())) / n
    want = math.copysign(max(abs(cov) - lam, 0.0), cov)
    assert selected == {0}
    slope = float(x @ (fitted - y.mean())) / float(x @ x)
    assert slope == pytest.approx(want, rel=1e-8)


def test_lasso_solution_satisfies_kkt():
    rng = np.random.default_rng(3)
    n, p = 60, 8
    X = rng.normal(size=(n, p))
    beta_true = np.array([1.5, -2.0, 0.0, 0.0, 0.7, 0.0, 0.0, 0.0])
    y = X @ beta_true + rng.normal(scale=0.5, size=n)
    lam = 0.15
    selected, fitted = _lasso(X, y, lam)
    assert {0, 1, 4} <= selected
    xs = _standardized(X)
    active = sorted(selected)
    # the fit lies in the span of the selected columns; its coefficients
    # there give the signs the stationarity condition needs
    beta_active = np.linalg.lstsq(xs[:, active], fitted - y.mean(), rcond=None)[0]
    np.testing.assert_allclose(xs[:, active] @ beta_active, fitted - y.mean(),
                               atol=1e-10)
    grad = xs.T @ (y - fitted) / n
    for j in range(p):
        if j in selected:
            k = active.index(j)
            assert grad[j] == pytest.approx(lam * np.sign(beta_active[k]), abs=1e-8)
        else:
            assert abs(grad[j]) <= lam + 1e-8


def test_lasso_constant_column_gets_zero():
    rng = np.random.default_rng(4)
    X = np.column_stack([np.full(20, 3.0), rng.normal(size=20)])
    y = rng.normal(size=20)
    selected, _ = _lasso(X, y, 0.05)
    assert 0 not in selected


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


@pytest.mark.parametrize("n, p, seed", [(30, 12, 0), (40, 25, 1), (20, 45, 2),
                                        (25, 60, 3)])
def test_path_matches_coordinate_descent_where_it_converged(n, p, seed):
    # the coordinate-descent solver the homotopy replaced, warm-started down
    # the default path with its old budget; p > n leaves tail points
    # unconverged, and only converged points are compared
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[:, 3] = 1.0  # a constant column stays out of every fit
    y = X[:, :5] @ np.array([1.5, -2.0, 0.0, 0.0, 0.7]) + rng.normal(size=n)
    xs = _standardize(X)
    live = X.std(axis=0) > 1e-12
    yc = y - y.mean()
    lam_max = float(np.abs(xs.T @ yc).max()) / n
    grid = np.geomspace(lam_max, 1e-3 * lam_max, 50).tolist()
    beta, r = np.zeros(p), yc.copy()
    compared = 0
    for lam, path_beta in _lasso_path(xs, yc, grid):
        if not _cd_path_step(xs, live, lam, beta, r, 1000, 1e-9, n):
            continue
        compared += 1
        assert set(np.flatnonzero(np.abs(path_beta) > 1e-12)) == \
            set(np.flatnonzero(np.abs(beta) > 1e-12)), lam
        # coordinate descent stops once its largest step is below 1e-9,
        # which leaves its fit up to about 1e-8 of the response's scale off
        np.testing.assert_allclose(xs @ path_beta, yc - r, rtol=0,
                                   atol=1e-8 * float(np.abs(yc).max()))
    assert compared >= 30


def _kkt_gap(xs, yc, lam, beta):
    """Largest violation of the lasso stationarity conditions at beta."""
    n = yc.shape[0]
    c = xs.T @ (yc - xs @ beta) / n
    on = beta != 0.0
    gap_on = np.abs(c[on] - lam * np.sign(beta[on])).max(initial=0.0)
    gap_off = (np.abs(c[~on]) - lam).max(initial=0.0)
    return max(gap_on, gap_off)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 30),
       p=st.integers(1, 45), constant=st.booleans(), duplicate=st.booleans(),
       fractions=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=12))
def test_path_points_satisfy_kkt(seed, n, p, constant, duplicate, fractions):
    # p < n and p > n, lam = 0 and lam above lam_max, with a constant and a
    # duplicated column mixed in; the penalties come in any order, repeated
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if constant:
        X[:, -1] = 2.5
    if duplicate and p > 1:
        X[:, 0] = X[:, 1]
    y = X[:, :3] @ rng.normal(size=min(p, 3)) + rng.normal(size=n)
    xs = _standardize(X)
    yc = y - y.mean()
    lam_max = float(np.abs(xs.T @ yc).max()) / n
    grid = [f * lam_max for f in fractions] + [0.0, 1.5 * lam_max]
    lams = sorted(set(grid), reverse=True)
    solutions = dict(_lasso_path(xs, yc, lams))
    assert list(solutions) == lams
    for lam, beta in solutions.items():
        assert _kkt_gap(xs, yc, lam, beta) <= 1e-9 * lam_max, lam
        assert np.count_nonzero(beta) <= min(n - 1, p)
        if constant:
            assert beta[-1] == 0.0
        if lam >= lam_max:
            assert not beta.any()
        # each penalty's solution is the same whatever else the grid holds
        (_, alone), = _lasso_path(xs, yc, [lam])
        assert np.array_equal(alone, beta)
    # repeats later in the grid change nothing: a tied score goes to the
    # earlier entry, and every entry of a penalty has the same solution
    shuffled = [grid[i] for i in rng.permutation(len(grid))]
    want = _lasso_stage(xs, y, grid)
    got = _lasso_stage(xs, y, grid + shuffled)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


def test_default_path_selects_fewer_features_than_nodes():
    # criterion-1 replication 0: the lasso's active set is at most n - 1
    # columns of the centred design, and the unconverged coordinate descent
    # returned 102 alpha and 100 beta features here
    from hetnet.rng import derive_seed
    from hetnet.simbench import simulate_design

    X, _, A = simulate_design("linear", 100, 200, derive_seed(1234, 0), 10.0)
    s_alpha, s_beta, _, _ = two_stage_select(A, X, z_n=10.0)
    assert 0 < len(s_alpha) <= 99
    assert 0 < len(s_beta) <= 99


# --------------------------------------------------------- two_stage_select

def test_two_stage_recovers_strong_linear_signal():
    # counts large enough that the MLE is nearly noiseless, so the
    # regression stage sees an almost exactly linear response
    rng = np.random.default_rng(7)
    n, p = 40, 8
    X = rng.uniform(-1, 1, size=(n, p))
    alpha0 = 2.0 * X[:, 0] + X[:, 3] + 2.5
    beta0 = 1.5 * X[:, 5] + 2.5
    counts = rng.poisson(np.exp(alpha0[:, None] + beta0[None, :]))
    np.fill_diagonal(counts, 0)
    counts = np.maximum(counts, 1)
    np.fill_diagonal(counts, 0)
    A = CountNetwork.from_edges(
        n, [(i, j, int(counts[i, j])) for i in range(n) for j in range(n) if i != j]
    )
    s_alpha, s_beta, alpha_hat, beta_hat = two_stage_select(A, X)
    assert {0, 3} <= s_alpha
    assert 5 in s_beta
    # the smoothed estimates track the truth up to the shared gauge shift
    resid = (alpha_hat - alpha0) - (alpha_hat - alpha0).mean()
    assert float(np.abs(resid).mean()) < 0.15


def test_two_stage_constant_response_selects_nothing():
    A = _uniform_network(6, 4)
    X = np.random.default_rng(8).uniform(-1, 1, size=(6, 5))
    s_alpha, s_beta, alpha_hat, beta_hat = two_stage_select(A, X)
    assert s_alpha == set()
    assert s_beta == set()
    np.testing.assert_allclose(alpha_hat, math.log(4) / 2.0, rtol=1e-8)


def test_two_stage_overselects_when_p_exceeds_n():
    # with p > n and a noisy response the penalized path can interpolate,
    # and the RSS-based criterion rewards that: selection balloons
    from hetnet.simbench import simulate_design

    X, _, A = simulate_design("linear", 30, 60, 55, 10.0)
    s_alpha, _, _, _ = two_stage_select(A, X, z_n=10.0)
    assert len(s_alpha) > 15


def test_two_stage_validation():
    A = _uniform_network(4, 1)
    with pytest.raises(ValueError):
        two_stage_select(A, np.zeros((5, 3)))


def test_two_stage_rejects_bad_lasso_grid():
    # a negative penalty used to select every feature, an empty grid to
    # die on unpacking, and a NaN penalty to select nothing
    A = _uniform_network(5, 2)
    X = np.random.default_rng(9).uniform(-1, 1, size=(5, 3))
    for grid in ([-0.1], [0.1, -1.0], [], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="lasso_grid"):
            two_stage_select(A, X, lasso_grid=grid)
    two_stage_select(A, X, lasso_grid=[0.0, 0.1])
