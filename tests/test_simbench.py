import io
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hetnet import (
    GroundTruth,
    aggregate_rmse,
    gen_attributes,
    linear_truth,
    nonlinear_truth,
    rmse,
    run_replications,
    sample_network,
    selection_metrics,
    simulate_design,
    write_metrics_csv,
    write_raw_csv,
)
from hetnet.rng import Rng, seed_for
from hetnet.simbench import _METHOD_REGISTRY, MethodResult
from test_rng import _ScalarPoissonRng


# ---------------------------------------------------------- gen_attributes

def test_attributes_support_and_shape():
    xmat = gen_attributes(50, 7, seed=3)
    assert xmat.values.shape == (50, 7)
    assert np.all(xmat.values > -1.0) and np.all(xmat.values < 1.0)


def test_attributes_mean_near_zero():
    xmat = gen_attributes(1000, 1000, seed=12)
    # mean of 1e6 Uniform(-1,1) draws: sd ~ 0.00058, 0.005 is > 8 sigma
    assert abs(float(xmat.values.mean())) < 0.005


def test_attributes_deterministic():
    a = gen_attributes(20, 5, seed=9)
    b = gen_attributes(20, 5, seed=9)
    c = gen_attributes(20, 5, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_attributes_guard_columns_avoid_zero():
    xmat = gen_attributes(200, 12, seed=4, guard_cols=10, min_abs=0.3)
    assert np.all(np.abs(xmat.values[:, :10]) >= 0.3)
    # ungated columns keep the full support
    assert np.abs(xmat.values[:, 10:]).min() < 0.3


def _scalar_attributes(n, p, seed, guard_cols=0, min_abs=1e-6):
    """Entry-at-a-time reference for gen_attributes' stream consumption."""
    rng = Rng(seed)
    values = np.empty((n, p))
    for i in range(n):
        for j in range(p):
            v = rng.uniform_signed()
            if j < guard_cols:
                while abs(v) < min_abs:
                    v = rng.uniform_signed()
            values[i, j] = v
    return values


_M64 = 2 ** 64 - 1


def _unxorshift(z: int, shift: int) -> int:
    y = z
    for _ in range(64 // shift + 1):
        y = z ^ (y >> shift)
    return y


def _seed_with_zero_draw(index: int) -> int:
    """A seed whose index-th uniform() is exactly 0.5, so 2u-1 == 0.0.

    Runs the SplitMix64 finaliser backwards from the output 2**63, whose
    top 53 bits are 2**52, to the state that produces it.
    """
    golden, mix1, mix2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    z = _unxorshift(1 << 63, 31)
    z = _unxorshift((z * pow(mix2, -1, 2 ** 64)) & _M64, 27)
    z = _unxorshift((z * pow(mix1, -1, 2 ** 64)) & _M64, 30)
    return (z - (index + 1) * golden) & _M64


@pytest.mark.parametrize("n, p, seed, guard_cols, min_abs", [
    (40, 9, 5, 3, 0.5),                       # half the guard draws are redrawn
    (30, 14, 8, 10, 1e-6),                    # the nonlinear design's guard
    (3, 7, _seed_with_zero_draw(7 + 3), 0, 1e-6),  # exact zero at row 1, column 3
    (2, 5, _seed_with_zero_draw(0), 2, 0.5),       # exact zero inside the guard
])
def test_attributes_block_draws_equal_scalar_draws(n, p, seed, guard_cols, min_abs):
    got = gen_attributes(n, p, seed, guard_cols=guard_cols, min_abs=min_abs).values
    assert np.array_equal(got, _scalar_attributes(n, p, seed, guard_cols, min_abs))


def test_zero_draw_seed_forces_a_redraw():
    rng = Rng(_seed_with_zero_draw(2))
    assert [2.0 * rng.uniform() - 1.0 for _ in range(3)][2] == 0.0


def test_attributes_validation():
    with pytest.raises(ValueError):
        gen_attributes(0, 5, seed=1)
    with pytest.raises(ValueError):
        gen_attributes(5, 0, seed=1)


# ------------------------------------------------------------ truth designs

def test_linear_truth_hand_rows():
    X = np.zeros((3, 12))
    X[0, 0:5] = 1.0
    X[1, 5:10] = 0.5
    truth = linear_truth(X)
    assert truth.alpha0[0] == 5.0 and truth.beta0[0] == 0.0
    assert truth.alpha0[1] == 0.0 and truth.beta0[1] == 2.5
    assert truth.alpha0[2] == 0.0 and truth.beta0[2] == 0.0
    assert truth.a_alpha == frozenset(range(0, 5))
    assert truth.a_beta == frozenset(range(5, 10))


def test_linear_truth_matches_formula_oracle():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(30, 15))
    truth = linear_truth(X, z_n=2.0)
    for i in range(30):
        assert truth.alpha0[i] == pytest.approx(sum(X[i, k] for k in range(5)),
                                                rel=1e-12)
        assert truth.beta0[i] == pytest.approx(sum(X[i, k] for k in range(5, 10)),
                                               rel=1e-12)
    assert truth.z_n == 2.0


def test_linear_truth_needs_ten_columns():
    with pytest.raises(ValueError):
        linear_truth(np.zeros((4, 9)))


def test_nonlinear_truth_hand_rows():
    X = np.full((2, 10), 1.0)
    X[1, 2] = math.exp(-1.0)
    truth = nonlinear_truth(X)
    # |x|=1 everywhere: 5*(1 + 1 + log 1 + log 2)
    assert truth.alpha0[0] == pytest.approx(5.0 * (2.0 + math.log(2.0)), rel=1e-12)
    assert truth.alpha0[0] == pytest.approx(13.4657, abs=1e-4)
    # third column at e^-1 contributes log = -1: 5*(1 + 1 - 1 + log 2)
    assert truth.alpha0[1] == pytest.approx(5.0 * (1.0 + math.log(2.0)), rel=1e-12)
    assert truth.alpha0[1] == pytest.approx(8.4657, abs=1e-4)
    assert truth.beta0[0] == pytest.approx(13.4657, abs=1e-4)


def test_nonlinear_truth_matches_formula_oracle():
    xmat = gen_attributes(25, 11, seed=6, guard_cols=10)
    truth = nonlinear_truth(xmat)
    v = xmat.values
    for i in range(25):
        want_a = 5.0 * (abs(v[i, 0]) + abs(v[i, 1]) + math.log(abs(v[i, 2]))
                        + math.log(abs(v[i, 3]) + abs(v[i, 4])))
        want_b = 5.0 * (abs(v[i, 5]) + abs(v[i, 6]) + math.log(abs(v[i, 7]))
                        + math.log(abs(v[i, 8]) + abs(v[i, 9])))
        assert truth.alpha0[i] == pytest.approx(want_a, rel=1e-12)
        assert truth.beta0[i] == pytest.approx(want_b, rel=1e-12)


def test_nonlinear_truth_rejects_exact_zero():
    X = np.full((3, 10), 0.5)
    X[1, 7] = 0.0
    with pytest.raises(ValueError):
        nonlinear_truth(X)
    with pytest.raises(ValueError):
        nonlinear_truth(np.full((3, 9), 0.5))


# ----------------------------------------------------------- simulate_design

def _inline_draw(args):
    """The design draw that simulate_design replaced, kept verbatim from the
    body of cli.cmd_simulate."""
    guard = 10 if args.setting == "nonlinear" else 0
    xmat = gen_attributes(args.n, args.p, seed_for("attributes", args.seed),
                          guard_cols=guard)
    make_truth = linear_truth if args.setting == "linear" else nonlinear_truth
    truth = make_truth(xmat, z_n=args.zn)
    net = sample_network(truth, seed_for("network", args.seed))
    return xmat, truth, net


# seed 1443 at n=30, p=12: an unguarded draw falls within 1e-6 of zero in
# the nonlinear design's leading ten columns, so its guard redraws fire
@pytest.mark.parametrize("setting, n, p, seed, zn", [
    ("linear", 20, 15, 7, 10.0),
    ("linear", 12, 10, 1443, 1.0),
    ("nonlinear", 30, 12, 1443, 10.0),
    ("nonlinear", 16, 20, 5, 5.0),
])
def test_simulate_design_equals_inline_draw(setting, n, p, seed, zn):
    want = _inline_draw(SimpleNamespace(setting=setting, n=n, p=p, seed=seed, zn=zn))
    (x0, t0, a0), (x1, t1, a1) = want, simulate_design(setting, n, p, seed, zn)
    assert x1.values.tobytes() == x0.values.tobytes() and x1.names == x0.names
    assert t1.alpha0.tobytes() == t0.alpha0.tobytes()
    assert t1.beta0.tobytes() == t0.beta0.tobytes()
    assert (t1.a_alpha, t1.a_beta, t1.z_n) == (t0.a_alpha, t0.a_beta, t0.z_n)
    assert a1.n == a0.n
    for name in ("src", "dst", "count", "out_degree", "in_degree"):
        assert getattr(a1, name).tobytes() == getattr(a0, name).tobytes()


def test_simulate_design_seed_exercises_the_guard():
    unguarded = gen_attributes(30, 12, seed_for("attributes", 1443)).values
    assert np.abs(unguarded[:, :10]).min() < 1e-6
    X, _, _ = simulate_design("nonlinear", 30, 12, 1443, 10.0)
    assert np.abs(X.values[:, :10]).min() >= 1e-6
    assert not np.array_equal(X.values, unguarded)


def test_simulate_design_rejects_unknown_setting():
    with pytest.raises(ValueError, match="unknown setting 'weird'"):
        simulate_design("weird", 10, 10, 1, 1.0)


# ------------------------------------------------------------ sample_network

def _constant_truth(n: int, a: float, b: float, z: float = 1.0) -> GroundTruth:
    return GroundTruth(
        alpha0=np.full(n, a), beta0=np.full(n, b),
        a_alpha=frozenset({0}), a_beta=frozenset({1}), z_n=z,
    )


def test_sample_network_cold_rates_give_empty_graph():
    net = sample_network(_constant_truth(100, -20.0, -20.0), seed=1)
    assert net.total_count <= 1


def test_sample_network_unit_rates_total_count():
    net = sample_network(_constant_truth(100, 0.0, 0.0), seed=2)
    # sum of 9900 Poisson(1) draws: 4 sigma is ~400
    assert abs(net.total_count - 9900) <= 400


def test_sample_network_deterministic():
    truth = _constant_truth(20, 0.3, -0.1)
    a = sample_network(truth, seed=5)
    b = sample_network(truth, seed=5)
    c = sample_network(truth, seed=6)
    assert list(a.edges()) == list(b.edges())
    assert list(a.edges()) != list(c.edges())


def test_sample_network_clamps_hot_dyads(caplog):
    truth = _constant_truth(3, 10.0, 10.0)  # log-rate 20 > clamp 12
    with caplog.at_level(logging.WARNING, logger="hetnet.simbench"):
        net = sample_network(truth, seed=7)
    assert "clamped 6 of 6" in caplog.text
    # all counts near exp(12), never near exp(20)
    for _, _, c in net.edges():
        assert c < 5e5


def test_sample_network_equals_per_dyad_draws_on_clamped_truth(caplog):
    # rates span the product branch, PTRS and the exp(12) clamp; the
    # reference is the per-dyad loop of scalar draws that block draws replaced
    truth = GroundTruth(alpha0=np.linspace(-3.0, 13.0, 12),
                        beta0=np.linspace(-1.0, 2.0, 12),
                        a_alpha=frozenset({0}), a_beta=frozenset({1}))
    with caplog.at_level(logging.WARNING, logger="hetnet.simbench"):
        net = sample_network(truth, seed=17)
    assert "clamped" in caplog.text
    rng = _ScalarPoissonRng(17)
    want = []
    for i in range(truth.n):
        log_rate = np.minimum(truth.alpha0[i] + truth.beta0, 12.0)
        for j, r in enumerate(np.exp(log_rate).tolist()):
            c = 0 if j == i else rng.poisson(r)
            if c:
                want.append((i, j, c))
    assert list(net.edges()) == want


def test_sample_network_z_scales_rates():
    # alpha+beta = 4 with z=2 is the same rate field as alpha+beta = 2, z=1
    hot = sample_network(_constant_truth(40, 2.0, 2.0, z=2.0), seed=8)
    assert abs(hot.total_count - 40 * 39 * math.exp(2.0)) <= 4 * math.sqrt(
        40 * 39 * math.exp(2.0))


def test_sample_network_mean_matches_rate():
    # 2000 seeded draws at n=5: per-dyad mean within a ~4.4 sigma band,
    # plus a chi-square goodness check of one dyad's count distribution
    rng = np.random.default_rng(0)
    alpha0 = np.array([0.0, 0.3, -0.2, 0.1, -0.4])
    beta0 = np.array([-0.1, 0.2, 0.0, -0.3, 0.25])
    truth = GroundTruth(alpha0=alpha0, beta0=beta0,
                        a_alpha=frozenset({0}), a_beta=frozenset({1}))
    draws = 2000
    n = 5
    totals = np.zeros((n, n))
    pooled = []
    for s in range(draws):
        net = sample_network(truth, seed=1000 + s)
        dense = np.zeros((n, n))
        for i, j, c in net.edges():
            dense[i, j] = c
        totals += dense
        pooled.append(dense[0, 1])
    rates = np.exp(alpha0[:, None] + beta0[None, :])
    off = ~np.eye(n, dtype=bool)
    means = totals[off] / draws
    lam = rates[off]
    z = (means - lam) / np.sqrt(lam / draws)
    assert np.all(np.abs(z) < 4.4)

    # chi-square on dyad (0, 1), bins {0, 1, 2, 3, >=4}
    lam01 = rates[0, 1]
    probs = [math.exp(-lam01) * lam01 ** k / math.factorial(k) for k in range(4)]
    probs.append(1.0 - sum(probs))
    observed = np.zeros(5)
    for c in pooled:
        observed[min(int(c), 4)] += 1
    expected = draws * np.asarray(probs)
    stat = float(((observed - expected) ** 2 / expected).sum())
    # Wilson-Hilferty chi-square quantile, df=4, upper tail 1e-4 (z=3.719)
    df = 4.0
    crit = df * (1.0 - 2.0 / (9.0 * df) + 3.719 * math.sqrt(2.0 / (9.0 * df))) ** 3
    assert stat < crit


# ------------------------------------------------------------------ metrics

def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5), rel=1e-12)
    assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(3.5355, abs=1e-4)
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])


def test_aggregate_rmse_order_of_operations():
    # per-rep MSEs 1 and 3: aggregate is sqrt(2), not the rmse mean
    reps = [1.0, math.sqrt(3.0)]
    agg = aggregate_rmse(reps)
    assert agg == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert agg != pytest.approx(float(np.mean(reps)), rel=1e-3)
    with pytest.raises(ValueError):
        aggregate_rmse([])


def test_selection_metrics_examples():
    assert selection_metrics({1, 2}, {1, 2}) == (1.0, 1.0, 1.0)
    prec, tpr, f1 = selection_metrics({1, 2, 3}, {1, 2, 3, 4, 5})
    assert (prec, tpr, f1) == (1.0, 0.6, 0.75)
    assert selection_metrics(set(), {1, 2}) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        selection_metrics({1}, set())


# --------------------------------------------------------- run_replications

def test_replications_oracle_is_perfect():
    report = run_replications("linear", 12, 10, 1, ["oracle"], base_seed=42)
    by = {(r.side, r.metric): r for r in report.rows}
    assert by[("alpha", "rmse")].mean == 0.0
    assert by[("alpha", "precision")].mean == 1.0
    assert by[("alpha", "tpr")].mean == 1.0
    assert by[("beta", "f1")].mean == 1.0
    assert report.failures == {"oracle": 0}


def test_replications_decompose_by_seed():
    r2 = run_replications("linear", 10, 10, 2, ["oracle", "mle"], base_seed=7)
    r1 = run_replications("linear", 10, 10, 1, ["oracle", "mle"], base_seed=7)
    first = [row for row in r2.raw if row.replication == 1]
    assert len(first) == len(r1.raw)
    for a, b in zip(first, r1.raw):
        assert (a.method, a.side, a.rmse, a.precision, a.tpr, a.f1) == \
            (b.method, b.side, b.rmse, b.precision, b.tpr, b.f1)


def test_replications_jobs_do_not_change_results():
    serial = run_replications("linear", 10, 10, 3, ["mle"], base_seed=9, jobs=1)
    pooled = run_replications("linear", 10, 10, 3, ["mle"], base_seed=9, jobs=2)
    assert len(serial.raw) == len(pooled.raw)
    for a, b in zip(serial.raw, pooled.raw):
        assert (a.replication, a.method, a.side, a.rmse) == \
            (b.replication, b.method, b.side, b.rmse)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_metrics_csv(serial, buf_a)
    write_metrics_csv(pooled, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_replications_mle_has_no_selection_rows():
    report = run_replications("linear", 10, 10, 2, ["mle"], base_seed=3)
    metrics = {(r.side, r.metric) for r in report.rows}
    assert ("alpha", "rmse") in metrics
    assert ("alpha", "precision") not in metrics
    raw = report.raw[0]
    assert raw.precision is None and raw.tpr is None and raw.f1 is None


def test_replications_record_method_failures(monkeypatch):
    def boom(A, X, config, seed, truth):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(_METHOD_REGISTRY, "boom", boom)
    report = run_replications("linear", 10, 10, 2, ["boom", "oracle"], base_seed=5)
    assert report.failures["boom"] == 2
    assert report.failures["oracle"] == 0
    assert len(report.failure_log) == 2
    rep, name, msg = report.failure_log[0]
    assert name == "boom" and "synthetic failure" in msg
    # oracle aggregates unaffected by the failing sibling
    by = {(r.method, r.side, r.metric): r for r in report.rows}
    assert by[("oracle", "alpha", "rmse")].mean == 0.0
    assert ("boom", "alpha", "rmse") not in by


def test_replications_custom_method_and_registry(monkeypatch):
    def constant(A, X, config, seed, truth):
        return MethodResult(np.zeros(A.n), np.zeros(A.n), {0}, {5})

    monkeypatch.setitem(_METHOD_REGISTRY, "constant", constant)
    report = run_replications("linear", 10, 10, 1, ["constant"], base_seed=2)
    by = {(r.side, r.metric): r for r in report.rows}
    assert by[("alpha", "precision")].mean == 1.0
    assert by[("alpha", "tpr")].mean == pytest.approx(0.2)


def test_replications_validation():
    with pytest.raises(ValueError):
        run_replications("linear", 10, 10, 0, ["mle"], base_seed=1)
    with pytest.raises(ValueError):
        run_replications("linear", 10, 10, 1, ["nope"], base_seed=1)
    with pytest.raises(ValueError):
        run_replications("weird", 10, 10, 1, ["mle"], base_seed=1)


def test_metrics_csv_layout():
    report = run_replications("linear", 10, 10, 2, ["oracle"], base_seed=11)
    buf = io.StringIO()
    write_metrics_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "method,side,metric,mean,sd,R"
    assert lines[-1] == "oracle,,failures,0,,2"
    assert any(line.startswith("oracle,alpha,rmse,") for line in lines)
    raw_buf = io.StringIO()
    write_raw_csv(report, raw_buf)
    raw_lines = raw_buf.getvalue().splitlines()
    assert raw_lines[0] == "replication,method,side,rmse,precision,tpr,f1"
    assert len(raw_lines) == 1 + 2 * 2  # two sides per replication
