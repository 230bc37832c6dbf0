"""Synthetic count networks with known node effects, plus the
replication harness that scores estimators against the truth.

Two designs: a linear one where the sender effect is the sum of the
first five attributes and the receiver effect the sum of the next five,
and a nonlinear one mixing absolute values and logarithms on the same
ten columns.  Everything downstream of a (setting, n, p, seed) tuple is
deterministic, including across worker counts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .netdata import CountNetwork, AttributeMatrix
from .optimizer import FitConfig, fit
from .baselines import mle_fit, two_stage_select
from .rng import Rng, derive_seed, seed_for

__all__ = [
    "GroundTruth",
    "MethodResult",
    "MetricRow",
    "RawRow",
    "MetricsReport",
    "gen_attributes",
    "linear_truth",
    "nonlinear_truth",
    "sample_network",
    "rmse",
    "aggregate_rmse",
    "selection_metrics",
    "run_replications",
    "write_metrics_csv",
    "write_raw_csv",
]

logger = logging.getLogger(__name__)

# exp(12) ~ 1.6e5 expected edges on a single dyad; anything hotter is a
# degenerate draw, not a realistic network
LOG_RATE_CLAMP = 12.0


@dataclass(frozen=True)
class GroundTruth:
    """True node effects and the attribute subsets that generate them."""

    alpha0: np.ndarray
    beta0: np.ndarray
    a_alpha: frozenset[int]
    a_beta: frozenset[int]
    z_n: float = 1.0

    @property
    def n(self) -> int:
        return self.alpha0.shape[0]


def gen_attributes(n: int, p: int, seed: int, guard_cols: int = 0,
                   min_abs: float = 1e-6) -> AttributeMatrix:
    """n x p i.i.d. Uniform(-1,1) draws in row-major order.

    Entries in the first guard_cols columns are redrawn while their
    magnitude is below min_abs, which keeps the log terms of the
    nonlinear design finite.  Redraws consume extra stream values, so
    guard_cols participates in what the seed produces.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    rng = Rng(seed)
    values = np.empty((n, p))
    for i in range(n):
        values[i] = rng.uniforms_signed(p, guard_cols, min_abs)
    return AttributeMatrix(values)


def linear_truth(X, z_n: float = 1.0) -> GroundTruth:
    """Sender effect: sum of columns 0..4; receiver effect: sum of 5..9."""
    x2d = getattr(X, "values", X)
    if x2d.shape[1] < 10:
        raise ValueError("linear design needs p >= 10")
    return GroundTruth(
        alpha0=x2d[:, 0:5].sum(axis=1),
        beta0=x2d[:, 5:10].sum(axis=1),
        a_alpha=frozenset(range(0, 5)),
        a_beta=frozenset(range(5, 10)),
        z_n=z_n,
    )


def nonlinear_truth(X, z_n: float = 1.0) -> GroundTruth:
    """5*[|c0| + |c1| + log|c2| + log(|c3|+|c4|)] on the sender side and
    the same shape on columns 5..9 for the receiver side."""
    x2d = getattr(X, "values", X)
    if x2d.shape[1] < 10:
        raise ValueError("nonlinear design needs p >= 10")
    lead = np.abs(x2d[:, 0:10])
    if np.any(lead == 0.0):
        raise ValueError(
            "nonlinear design is singular at exact zeros in columns 0..9; "
            "generate attributes with guard_cols=10"
        )
    alpha0 = 5.0 * (lead[:, 0] + lead[:, 1] + np.log(lead[:, 2])
                    + np.log(lead[:, 3] + lead[:, 4]))
    beta0 = 5.0 * (lead[:, 5] + lead[:, 6] + np.log(lead[:, 7])
                   + np.log(lead[:, 8] + lead[:, 9]))
    return GroundTruth(
        alpha0=alpha0,
        beta0=beta0,
        a_alpha=frozenset(range(0, 5)),
        a_beta=frozenset(range(5, 10)),
        z_n=z_n,
    )


def sample_network(truth: GroundTruth, seed: int) -> CountNetwork:
    """One Poisson draw per ordered pair (i, j), i != j, row by row.

    Log-rates above LOG_RATE_CLAMP are clamped, with the number of
    clamped dyads logged as a warning; draws are sequential in (i, j)
    order so the output is a pure function of (truth, seed).
    """
    n = truth.n
    rng = Rng(seed)
    counts = np.zeros((n, n), dtype=np.int64)
    clamped = 0
    for i in range(n):
        log_rate = (truth.alpha0[i] + truth.beta0) / truth.z_n
        hot = log_rate > LOG_RATE_CLAMP
        hot[i] = False
        clamped += int(hot.sum())
        rates = np.exp(np.minimum(log_rate, LOG_RATE_CLAMP))
        # a zero rate draws nothing from the stream, so the diagonal is skipped
        rates[i] = 0.0
        counts[i] = rng.poissons(rates)
    if clamped:
        logger.warning("sample_network: clamped %d of %d dyad log-rates to %g",
                       clamped, n * (n - 1), LOG_RATE_CLAMP)
    src, dst = np.nonzero(counts)
    return CountNetwork.from_edges(n, np.column_stack((src, dst, counts[src, dst])))


def rmse(est, truth) -> float:
    """Root mean squared error of one estimate vector."""
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if est.shape != truth.shape:
        raise ValueError("length mismatch")
    d = est - truth
    return float(np.sqrt((d @ d) / d.size))


def aggregate_rmse(per_rep_rmses) -> float:
    """sqrt(mean of per-replication MSEs).

    The square root is taken after averaging, so this is not the mean of
    the per-replication RMSEs.
    """
    arr = np.asarray(list(per_rep_rmses), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no replications to aggregate")
    return float(np.sqrt((arr * arr).mean()))


def selection_metrics(s_hat, s_true) -> tuple[float, float, float]:
    """(precision, tpr, f1); an empty estimate scores 0 on all three."""
    s_hat = set(s_hat)
    s_true = set(s_true)
    if not s_true:
        raise ValueError("s_true must be non-empty")
    hit = len(s_hat & s_true)
    precision = hit / len(s_hat) if s_hat else 0.0
    tpr = hit / len(s_true)
    f1 = 2.0 * hit / (len(s_hat) + len(s_true))
    return precision, tpr, f1


@dataclass
class MethodResult:
    """What one estimator returns on one replication.

    s_alpha/s_beta of None mean the method does not select features;
    selection metrics are skipped for it.
    """

    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    s_alpha: set[int] | None = None
    s_beta: set[int] | None = None


def _method_hetnet(A, X, config: FitConfig, seed: int, truth) -> MethodResult:
    est = fit(A, X, replace(config, seed=seed))
    return MethodResult(est.alpha_hat, est.beta_hat, est.s_alpha, est.s_beta)


def _method_mle(A, X, config: FitConfig, seed: int, truth) -> MethodResult:
    est = mle_fit(A, config.z_n)
    return MethodResult(est.alpha_hat, est.beta_hat, None, None)


def _method_mle_lasso(A, X, config: FitConfig, seed: int, truth) -> MethodResult:
    s_a, s_b, a_hat, b_hat = two_stage_select(A, X, config.z_n)
    return MethodResult(a_hat, b_hat, s_a, s_b)


def _method_oracle(A, X, config: FitConfig, seed: int, truth: GroundTruth) -> MethodResult:
    # diagnostic upper bound: hands back the generating truth
    return MethodResult(truth.alpha0.copy(), truth.beta0.copy(),
                        set(truth.a_alpha), set(truth.a_beta))


# name -> fn(A, X, config, seed, truth) -> MethodResult; truth is there
# for oracle-style diagnostics and real estimators ignore it
_METHOD_REGISTRY = {
    "hetnet": _method_hetnet,
    "mle": _method_mle,
    "mle_lasso": _method_mle_lasso,
    "oracle": _method_oracle,
}


@dataclass
class MetricRow:
    method: str
    side: str
    metric: str
    mean: float
    sd: float
    r_used: int


@dataclass
class RawRow:
    replication: int
    method: str
    side: str
    rmse: float
    precision: float | None
    tpr: float | None
    f1: float | None


@dataclass
class MetricsReport:
    setting: str
    n: int
    p: int
    R: int
    base_seed: int
    methods: tuple[str, ...]
    rows: list[MetricRow]
    raw: list[RawRow]
    failures: dict[str, int]
    failure_log: list[tuple[int, str, str]] = field(default_factory=list)


def _make_truth(setting: str, X, z_n: float) -> GroundTruth:
    if setting == "linear":
        return linear_truth(X, z_n)
    if setting == "nonlinear":
        return nonlinear_truth(X, z_n)
    raise ValueError(f"unknown setting {setting!r}")


def _run_one_replication(args):
    setting, n, p, r, base_seed, method_names, config, z_n = args
    seed_r = derive_seed(base_seed, r)
    guard = 10 if setting == "nonlinear" else 0
    X = gen_attributes(n, p, seed_for("attributes", seed_r), guard_cols=guard)
    truth = _make_truth(setting, X, z_n)
    A = sample_network(truth, seed_for("network", seed_r))

    results = {}
    errors = {}
    for name in method_names:
        try:
            res = _METHOD_REGISTRY[name](A, X, config, seed_for(name, seed_r), truth)
            rows = {}
            for side, est, true_vals, s_hat, s_true in (
                ("alpha", res.alpha_hat, truth.alpha0, res.s_alpha, truth.a_alpha),
                ("beta", res.beta_hat, truth.beta0, res.s_beta, truth.a_beta),
            ):
                err = rmse(est, true_vals)
                if s_hat is None:
                    rows[side] = (err, None, None, None)
                else:
                    prec, tpr, f1 = selection_metrics(s_hat, s_true)
                    rows[side] = (err, prec, tpr, f1)
            results[name] = rows
        except Exception as exc:  # failures are data, not crashes
            errors[name] = f"{type(exc).__name__}: {exc}"
    return r, results, errors


def run_replications(setting: str, n: int, p: int, R: int, methods, base_seed: int,
                     config: FitConfig | None = None, z_n: float = 1.0,
                     jobs: int = 1) -> MetricsReport:
    """Generate R independent replications and score each method on each.

    Per-replication seeds derive from base_seed by replication index,
    and each method gets its own named substream, so adding or removing
    a method never changes another method's numbers.  A method failure
    on one replication is recorded and excluded from that method's
    aggregates.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    method_names = list(methods)
    for name in method_names:
        if name not in _METHOD_REGISTRY:
            raise ValueError(f"unknown method {name!r}")
    config = config or FitConfig()

    tasks = [(setting, n, p, r, base_seed, method_names, config, z_n)
             for r in range(1, R + 1)]
    if jobs > 1:
        # imported here: loading multiprocessing costs every serial run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one_replication, tasks))
    else:
        outcomes = [_run_one_replication(t) for t in tasks]

    raw: list[RawRow] = []
    acc: dict[tuple[str, str, str], list[float]] = {}
    failures = {name: 0 for name in method_names}
    failure_log: list[tuple[int, str, str]] = []
    for r, results, errors in outcomes:
        for name in method_names:
            if name in errors:
                failures[name] += 1
                failure_log.append((r, name, errors[name]))
                continue
            for side in ("alpha", "beta"):
                err, prec, tpr, f1 = results[name][side]
                raw.append(RawRow(r, name, side, err, prec, tpr, f1))
                acc.setdefault((name, side, "rmse"), []).append(err)
                if prec is not None:
                    acc.setdefault((name, side, "precision"), []).append(prec)
                    acc.setdefault((name, side, "tpr"), []).append(tpr)
                    acc.setdefault((name, side, "f1"), []).append(f1)

    rows: list[MetricRow] = []
    for name in method_names:
        for side in ("alpha", "beta"):
            for metric in ("rmse", "precision", "tpr", "f1"):
                vals = acc.get((name, side, metric))
                if not vals:
                    continue
                arr = np.asarray(vals)
                if metric == "rmse":
                    mean = aggregate_rmse(arr)
                else:
                    mean = float(arr.mean())
                sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
                rows.append(MetricRow(name, side, metric, mean, sd, int(arr.size)))

    return MetricsReport(
        setting=setting, n=n, p=p, R=R, base_seed=base_seed,
        methods=tuple(method_names), rows=rows, raw=raw,
        failures=failures, failure_log=failure_log,
    )


def write_metrics_csv(report: MetricsReport, stream) -> None:
    """Aggregate table; one trailing failures row per method."""
    stream.write("method,side,metric,mean,sd,R\n")
    for row in report.rows:
        stream.write(f"{row.method},{row.side},{row.metric},"
                     f"{row.mean!r},{row.sd!r},{row.r_used}\n")
    for name in report.methods:
        stream.write(f"{name},,failures,{report.failures[name]},,{report.R}\n")


def write_raw_csv(report: MetricsReport, stream) -> None:
    stream.write("replication,method,side,rmse,precision,tpr,f1\n")
    for row in report.raw:
        cells = [str(row.replication), row.method, row.side, repr(row.rmse)]
        for v in (row.precision, row.tpr, row.f1):
            cells.append("" if v is None else repr(v))
        stream.write(",".join(cells) + "\n")
