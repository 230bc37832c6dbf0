import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hetnet import forward_batch, load_attributes, load_edge_list
from hetnet.cli import main
from hetnet.simbench import _METHOD_REGISTRY
from hetnet.skipnet import net_from_json_dict


def _read(path):
    return path.read_bytes()


def _write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs) + "\n", encoding="utf-8")
    return str(path)


FAST_FIT = dict(lambda1=6.0, lambda2=6.0, M=0.5, rho=2e-3, z_n=10.0,
                inner_epochs=150, t_max_outer=4, hidden_widths=[], seed=7)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main(["simulate", "--setting", "linear", "--n", "30", "--p", "12",
               "--seed", "42", "--zn", "10", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fitted(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("fit")
    cfg = _write_config(out / "config.json", **FAST_FIT)
    rc = main(["fit", "--edges", str(dataset / "edges.csv"),
               "--attributes", str(dataset / "attributes.csv"),
               "--config", cfg, "--out", str(out)])
    assert rc == 0
    return out


# ------------------------------------------------------------------ import

def test_import_does_not_load_multiprocessing():
    # process pools are imported only where --jobs > 1 asks for one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, hetnet, hetnet.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------- simulate

def test_simulate_writes_three_files(dataset):
    for name in ("edges.csv", "attributes.csv", "truth.json"):
        assert (dataset / name).is_file()
    truth = json.loads((dataset / "truth.json").read_text())
    assert truth["a_alpha"] == [0, 1, 2, 3, 4]
    assert truth["a_beta"] == [5, 6, 7, 8, 9]
    assert truth["setting"] == "linear"
    assert truth["z_n"] == 10.0
    assert len(truth["alpha0"]) == 30
    xmat = load_attributes(dataset / "attributes.csv")
    assert (xmat.n, xmat.p) == (30, 12)
    net = load_edge_list(dataset / "edges.csv", n=30)
    assert net.n == 30


def test_simulate_is_deterministic(dataset, tmp_path):
    rc = main(["simulate", "--setting", "linear", "--n", "30", "--p", "12",
               "--seed", "42", "--zn", "10", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("edges.csv", "attributes.csv", "truth.json"):
        assert _read(tmp_path / name) == _read(dataset / name)


def test_simulate_rejects_small_p(tmp_path, capsys):
    rc = main(["simulate", "--setting", "linear", "--n", "30", "--p", "8",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "p must be >= 10" in capsys.readouterr().err


@pytest.mark.parametrize("zn", ["0", "-1", "nan", "inf"])
def test_simulate_rejects_bad_zn_before_writing(tmp_path, capsys, zn):
    out = tmp_path / "out"
    rc = main(["simulate", "--setting", "linear", "--n", "30", "--p", "12",
               "--seed", "42", "--zn", zn, "--out", str(out)])
    assert rc == 2
    assert "--zn" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_tiny_n(tmp_path):
    rc = main(["simulate", "--setting", "nonlinear", "--n", "1", "--p", "12",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2


# -------------------------------------------------------------------- fit

def test_fit_artifacts_round_trip(dataset, fitted):
    est = json.loads((fitted / "estimate.json").read_text())
    alpha_hat = np.asarray(est["alpha_hat"])
    beta_hat = np.asarray(est["beta_hat"])
    shift = est["centering_shift"]
    xmat = load_attributes(dataset / "attributes.csv")

    net_a, m_a = net_from_json_dict(json.loads(
        (fitted / "model_alpha.json").read_text()))
    net_b, m_b = net_from_json_dict(json.loads(
        (fitted / "model_beta.json").read_text()))
    assert m_a == m_b == FAST_FIT["M"]
    np.testing.assert_allclose(
        forward_batch(net_a, xmat.values) + shift, alpha_hat, atol=1e-10)
    np.testing.assert_allclose(
        forward_batch(net_b, xmat.values) - shift, beta_hat, atol=1e-10)

    # centering invariant survives serialization
    assert alpha_hat.sum() == pytest.approx(beta_hat.sum(), abs=1e-8)
    assert sorted(est["s_alpha"]) == est["s_alpha"]
    assert set(est["s_alpha"]) == {
        k for k, t in enumerate(net_a.theta) if t != 0.0}


def test_fit_log_matches_outer_iterations(fitted):
    est = json.loads((fitted / "estimate.json").read_text())
    lines = (fitted / "fit_log.csv").read_text().splitlines()
    assert lines[0] == ("outer_iter,nll,l1_alpha,l1_beta,ident_penalty,total,"
                       "delta_alpha,delta_beta")
    assert len(lines) - 1 == est["outer_iterations"]
    last = lines[-1].split(",")
    assert int(last[0]) == est["outer_iterations"]
    assert all(np.isfinite(float(v)) for v in last[1:])
    # the reported breakdown is internally consistent; its total can sit
    # just below the last logged one because centering zeroes the
    # identification penalty
    loss = est["final_loss"]
    want = loss["nll"] + loss["l1_alpha"] + loss["l1_beta"] + loss["ident_penalty"]
    assert loss["total"] == pytest.approx(want, rel=1e-12)
    assert loss["ident_penalty"] == pytest.approx(0.0, abs=1e-12)
    assert float(last[5]) >= loss["total"] - 1e-6 * abs(loss["total"])


def test_fit_missing_input_exits_2(dataset, tmp_path, capsys):
    cfg = _write_config(tmp_path / "config.json", **FAST_FIT)
    rc = main(["fit", "--edges", str(tmp_path / "nope.csv"),
               "--attributes", str(dataset / "attributes.csv"),
               "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_fit_invalid_config_exits_2(dataset, tmp_path):
    cfg = _write_config(tmp_path / "config.json", lambda1=-3.0)
    rc = main(["fit", "--edges", str(dataset / "edges.csv"),
               "--attributes", str(dataset / "attributes.csv"),
               "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("key,value", [
    ("lambda1", float("nan")), ("rho", float("inf")), ("M", float("inf")),
    ("gamma", float("nan")), ("z_n", float("nan")), ("epsilon", float("nan")),
    ("inner_epochs", 2.5), ("t_max_outer", 2.5), ("seed", 1.5), ("hidden_widths", 5),
])
def test_fit_rejects_non_finite_or_fractional_config(dataset, tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path / "config.json", **dict(FAST_FIT, **{key: value}))
    out = tmp_path / "out"
    rc = main(["fit", "--edges", str(dataset / "edges.csv"),
               "--attributes", str(dataset / "attributes.csv"),
               "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert key.replace("_", " ") in capsys.readouterr().err.replace("_", " ")
    assert not out.exists()


def test_fit_broken_hierarchy_exits_1(dataset, tmp_path, capsys, monkeypatch):
    import hetnet.optimizer as optimizer

    monkeypatch.setattr(optimizer, "hierarchical_prox",
                        lambda w1, theta, tau, M: (w1, theta))
    cfg = _write_config(tmp_path / "config.json",
                        **dict(FAST_FIT, inner_epochs=2, t_max_outer=1))
    rc = main(["fit", "--edges", str(dataset / "edges.csv"),
               "--attributes", str(dataset / "attributes.csv"),
               "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "hierarchy" in capsys.readouterr().err


# ------------------------------------------------------------------- tune

def test_tune_singleton_matches_fit(dataset, fitted, tmp_path):
    cfg = _write_config(tmp_path / "config.json", **FAST_FIT)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        [{"lambda1": FAST_FIT["lambda1"], "lambda2": FAST_FIT["lambda2"],
          "M": FAST_FIT["M"]}]))
    rc = main(["tune", "--edges", str(dataset / "edges.csv"),
               "--attributes", str(dataset / "attributes.csv"),
               "--config", cfg, "--grid", str(grid), "--out", str(tmp_path)])
    assert rc == 0
    assert _read(tmp_path / "estimate.json") == _read(fitted / "estimate.json")
    assert _read(tmp_path / "model_alpha.json") == _read(fitted / "model_alpha.json")
    lines = (tmp_path / "tuning.csv").read_text().splitlines()
    assert lines[0] == "lambda1,lambda2,M,s_total,nll,hbic,error"
    assert len(lines) == 2
    assert lines[1].endswith(",")  # the fit succeeded: no error


def test_tune_jobs_do_not_change_output(dataset, tmp_path):
    cfg = _write_config(tmp_path / "config.json", **FAST_FIT)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"lambda1": l1, "lambda2": l2, "m": 0.5}
        for l1 in (4.0, 8.0) for l2 in (4.0, 8.0)]))
    outs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}"
        rc = main(["tune", "--edges", str(dataset / "edges.csv"),
                   "--attributes", str(dataset / "attributes.csv"),
                   "--config", cfg, "--grid", str(grid),
                   "--jobs", jobs, "--out", str(out)])
        assert rc == 0
        outs.append(out)
    assert _read(outs[0] / "tuning.csv") == _read(outs[1] / "tuning.csv")
    assert _read(outs[0] / "estimate.json") == _read(outs[1] / "estimate.json")


def test_tune_writes_fit_errors(dataset, tmp_path, monkeypatch):
    # one grid entry diverges: its row carries the error, CSV-quoted, and
    # the other entries still compete; --jobs 4 forks the patched module
    import hetnet.optimizer as optimizer_mod

    real_fit = optimizer_mod.fit

    def fit(A, X, config):
        if config.lambda1 == 8.0 and config.lambda2 == 4.0:
            raise optimizer_mod.FitDivergenceError('side alpha diverged, "rho" spent')
        return real_fit(A, X, config)

    monkeypatch.setattr(optimizer_mod, "fit", fit)
    cfg = _write_config(tmp_path / "config.json", **FAST_FIT)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"lambda1": l1, "lambda2": l2, "M": 0.5}
        for l1 in (4.0, 8.0) for l2 in (4.0, 8.0)]))
    outs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}"
        rc = main(["tune", "--edges", str(dataset / "edges.csv"),
                   "--attributes", str(dataset / "attributes.csv"),
                   "--config", cfg, "--grid", str(grid),
                   "--jobs", jobs, "--out", str(out)])
        assert rc == 0
        outs.append(out)
    lines = (outs[0] / "tuning.csv").read_text().splitlines()
    assert lines[0] == "lambda1,lambda2,M,s_total,nll,hbic,error"
    assert lines[3] == '8.0,4.0,0.5,0,nan,inf,"side alpha diverged, ""rho"" spent"'
    assert all(line.endswith(",") for line in lines[1:3] + lines[4:])
    for name in ("tuning.csv", "estimate.json", "model_alpha.json", "fit_log.csv"):
        assert _read(outs[0] / name) == _read(outs[1] / name)


def test_tune_rejects_malformed_grid(dataset, tmp_path):
    cfg = _write_config(tmp_path / "config.json", **FAST_FIT)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"lambda1": 1.0}]))
    rc = main(["tune", "--edges", str(dataset / "edges.csv"),
               "--attributes", str(dataset / "attributes.csv"),
               "--config", cfg, "--grid", str(grid), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("entry", [
    {"lambda1": -1.0, "lambda2": 1.0, "M": 0.5},
    {"lambda1": 1.0, "lambda2": 1.0, "M": 0.0},
    {"lambda1": 1.0, "lambda2": float("nan"), "M": 0.5},
])
def test_tune_rejects_invalid_grid_entry_before_fitting(dataset, tmp_path, capsys, entry):
    cfg = _write_config(tmp_path / "config.json", **FAST_FIT)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"lambda1": 4.0, "lambda2": 4.0, "M": 0.5}, entry]))
    out = tmp_path / "out"
    rc = main(["tune", "--edges", str(dataset / "edges.csv"),
               "--attributes", str(dataset / "attributes.csv"),
               "--config", cfg, "--grid", str(grid), "--out", str(out)])
    assert rc == 2
    assert "grid entry 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_tune_rejects_jobs_below_one(dataset, tmp_path, capsys, jobs):
    cfg = _write_config(tmp_path / "config.json", **FAST_FIT)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"lambda1": 4.0, "lambda2": 4.0, "M": 0.5}]))
    out = tmp_path / "out"
    rc = main(["tune", "--edges", str(dataset / "edges.csv"),
               "--attributes", str(dataset / "attributes.csv"),
               "--config", cfg, "--grid", str(grid), "--jobs", jobs,
               "--out", str(out)])
    assert rc == 2
    assert "error: --jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------- evaluate

def _evaluate(out, *, jobs="1", methods="mle,oracle", seed="5"):
    return main(["evaluate", "--setting", "linear", "--n", "20", "--p", "10",
                 "--replications", "2", "--methods", methods, "--seed", seed,
                 "--zn", "10", "--jobs", jobs, "--out", str(out)])


def test_evaluate_smoke(tmp_path):
    assert _evaluate(tmp_path) == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "method,side,metric,mean,sd,R"
    assert any(line.startswith("oracle,alpha,rmse,") for line in lines)
    assert "mle,,failures,0,,2" in lines
    raw = (tmp_path / "replication_raw.csv").read_text().splitlines()
    assert raw[0] == "replication,method,side,rmse,precision,tpr,f1"
    # two methods x two replications x two sides
    assert len(raw) == 1 + 2 * 2 * 2
    assert _read(tmp_path / "failures.csv") == b"replication,method,error\n"


def test_evaluate_deterministic_across_jobs(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _evaluate(a) == 0
    assert _evaluate(b) == 0
    assert _evaluate(c, jobs="2") == 0
    assert _read(a / "metrics.csv") == _read(b / "metrics.csv")
    assert _read(a / "metrics.csv") == _read(c / "metrics.csv")
    assert _read(a / "replication_raw.csv") == _read(c / "replication_raw.csv")


def test_evaluate_writes_failures_csv(tmp_path, monkeypatch):
    def boom(A, X, config, seed, truth):
        raise RuntimeError('bad, "really" bad')

    monkeypatch.setitem(_METHOD_REGISTRY, "boom", boom)
    outs = [tmp_path / "jobs1", tmp_path / "jobs4"]
    for out, jobs in zip(outs, ("1", "4")):
        assert _evaluate(out, jobs=jobs, methods="boom,mle") == 0
    want = ('replication,method,error\n'
            '1,boom,"RuntimeError: bad, ""really"" bad"\n'
            '2,boom,"RuntimeError: bad, ""really"" bad"\n')
    for out in outs:
        assert (out / "failures.csv").read_text() == want
        assert "boom,,failures,2,,2" in (out / "metrics.csv").read_text().splitlines()
    for name in ("metrics.csv", "replication_raw.csv"):
        assert _read(outs[0] / name) == _read(outs[1] / name)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_evaluate_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    assert _evaluate(out, jobs=jobs) == 2
    assert "error: --jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_unknown_method_exits_2(tmp_path, capsys):
    rc = _evaluate(tmp_path, methods="mle,warp")
    assert rc == 2
    assert "warp" in capsys.readouterr().err


def test_evaluate_rejects_negative_zn(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["evaluate", "--setting", "linear", "--n", "20", "--p", "10",
               "--replications", "1", "--methods", "mle", "--seed", "5",
               "--zn", "-1", "--out", str(out)])
    assert rc == 2
    assert "--zn" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_requires_p_at_least_10(tmp_path):
    rc = main(["evaluate", "--setting", "linear", "--n", "20", "--p", "9",
               "--replications", "1", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 2


# ------------------------------------------------------------- importance

def test_importance_lists_selected_features_ranked(dataset, fitted, tmp_path):
    rc = main(["importance", "--model", str(fitted / "model_alpha.json"),
               "--attributes", str(dataset / "attributes.csv"),
               "--samples", "40", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "importance.csv").read_text().splitlines()
    assert lines[0] == "side,feature_index,feature_name,mean_abs_shap,stderr,rank"
    est = json.loads((fitted / "estimate.json").read_text())
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == est["s_alpha"]
    assert all(r[0] == "alpha" for r in rows)
    assert all(r[2] == f"x{int(r[1]) + 1}" for r in rows)
    # rank 1 belongs to the largest mean_abs_shap
    by_rank = sorted(rows, key=lambda r: int(r[5]))
    scores = [float(r[3]) for r in by_rank]
    assert scores == sorted(scores, reverse=True)


def test_importance_single_sample_reports_inf_stderr(dataset, fitted, tmp_path):
    rc = main(["importance", "--model", str(fitted / "model_beta.json"),
               "--attributes", str(dataset / "attributes.csv"),
               "--samples", "1", "--seed", "3", "--side", "beta",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "importance.csv").read_text().splitlines()
    if len(lines) > 1:
        assert all(line.split(",")[4] == "inf" for line in lines[1:])


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_importance_rejects_nonpositive_samples_before_writing(dataset, fitted, tmp_path,
                                                              capsys, samples):
    out = tmp_path / "out"
    rc = main(["importance", "--model", str(fitted / "model_alpha.json"),
               "--attributes", str(dataset / "attributes.csv"),
               "--samples", samples, "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --samples")
    assert not out.exists()


def test_importance_dimension_mismatch_exits_2(fitted, tmp_path, capsys):
    bad = tmp_path / "attributes.csv"
    bad.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
    rc = main(["importance", "--model", str(fitted / "model_alpha.json"),
               "--attributes", str(bad), "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "attributes" in capsys.readouterr().err


def test_importance_rejects_non_model_json(dataset, tmp_path):
    bogus = tmp_path / "model.json"
    bogus.write_text(json.dumps({"weights": [1, 2, 3]}))
    rc = main(["importance", "--model", str(bogus),
               "--attributes", str(dataset / "attributes.csv"),
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2
