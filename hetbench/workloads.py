"""The three benchmark workloads, each a setup and four timed stages.

Every workload runs all four stages (tune, fit, baseline, importance) so
that every end-to-end metric exists on every workload; each workload is
sized so that one stage dominates and the others stay small.  hetnet is
reached only through module attributes looked up at call time, which is
what lets ``tracing.Tracer`` wrap the same calls.  See README.md for why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks

MODULES = ("optimizer", "objective", "skipnet", "baselines", "simbench",
           "importance", "netdata", "cli", "rng")

# Every workload fits fixed data: replication 0 of the acceptance designs
# (the frozen data of ROADMAP's figures) and `hetnet simulate --seed 1234`
# at n=1000.  --seed drives the Shapley sampling stream.  Drawing the data
# from --seed made rmse spread 40-60% across seeds at n=100, and rmse 12%
# and importance_s 18% at n=1000, wider than any useful bound.
DESIGN_SEED = 1234
# criterion-1 design and fit configuration (tests/test_acceptance.py LIN_BASE)
LIN_BASE = dict(M=0.5, rho=8e-4, z_n=10.0, inner_epochs=1200, t_max_outer=8,
                hidden_widths=(), seed=11)
LIN_GRID = [(lam, lam, 0.5) for lam in (15.0, 21.0, 25.0, 30.0)]
LIN_TUNE_BUDGET = dict(inner_epochs=300, t_max_outer=2)
LIN_FIT_LAMBDA = 18.0
# two_stage_select's lasso path, shared by both sides: from above the largest
# useful penalty (about 0.73 and 0.76 on this data) down by a factor of 100.
# The default path runs down to 1e-3 of it and takes 5x longer, nearly all
# of it in the p > n tail.
LIN_LASSO_GRID = np.geomspace(0.8, 8e-3, 20)
# criterion-3 configuration (NL_CFG)
NL_CFG = dict(lambda1=6.0, lambda2=6.0, M=2.0, rho=8e-4, z_n=5.0, inner_epochs=1000,
              t_max_outer=8, hidden_widths=(8, 4), seed=11)
NL_GRID = [(6.0, 6.0, 2.0), (12.0, 12.0, 2.0)]
NL_TUNE_BUDGET = dict(inner_epochs=200, t_max_outer=2)
# n=1000 linear design, fit the way the README's command line does it
# (250 inner epochs end on the same fit as 1000, same objective and selected sets, in a quarter of the time)
LARGE_CFG = dict(lambda1=180.0, lambda2=180.0, M=0.5, rho=8e-5, z_n=10.0,
                 inner_epochs=250, t_max_outer=4, hidden_widths=[], seed=11)
LARGE_GRID = [(150.0, 150.0, 0.5), (210.0, 210.0, 0.5)]
LARGE_TUNE_BUDGET = dict(inner_epochs=50, t_max_outer=1)
SHAPLEY_SAMPLES = 200
# The MLE alone takes under a millisecond, so its stage is timed as the
# median of repeated calls (untraced rounds only).
MLE_REPEATS = 201
LARGE_SHAPLEY_SAMPLES = 20


def import_hetnet() -> dict:
    """Import hetnet afresh (numpy stays loaded) and return its modules by name."""
    for name in [m for m in sys.modules if m == "hetnet" or m.startswith("hetnet.")]:
        del sys.modules[name]
    importlib.import_module("hetnet")
    return {m: importlib.import_module(f"hetnet.{m}") for m in MODULES}


def _simulate(mods, setting, n, p, z_n):
    """Replication 0 of the acceptance design, as tests/test_acceptance.py draws it."""
    sim, rng = mods["simbench"], mods["rng"]
    seed = rng.derive_seed(DESIGN_SEED, 0)
    guard = 10 if setting == "nonlinear" else 0
    x = sim.gen_attributes(n, p, rng.seed_for("attributes", seed), guard_cols=guard)
    make = sim.linear_truth if setting == "linear" else sim.nonlinear_truth
    truth = make(x, z_n)
    return {"X": x, "truth": (truth.alpha0, truth.beta0),
            "A": sim.sample_network(truth, rng.seed_for("network", seed))}


def _fit_record(est, cfg) -> checks.FitRecord:
    def arrays(net):
        return net.theta.copy(), [(l.weights.copy(), l.biases.copy()) for l in net.layers]

    return checks.FitRecord(
        est.alpha_hat, est.beta_hat, set(est.s_alpha), set(est.s_beta),
        arrays(est.net_alpha), arrays(est.net_beta), est.centering_shift,
        est.final_loss.nll, est.final_loss.total,
        cfg.lambda1, cfg.lambda2, cfg.M, cfg.z_n)


def _grid_rows(results):
    return [(r.lambda1, r.lambda2, r.M, r.s_total, r.nll, r.hbic, r.error) for r in results]


def _quality(rec, alpha0, beta0):
    mse = (np.mean((rec.alpha_hat - alpha0) ** 2) + np.mean((rec.beta_hat - beta0) ** 2)) / 2.0
    return {"rmse": math.sqrt(mse),
            "sel_f1": (checks.f1(rec.s_alpha, range(0, 5)) + checks.f1(rec.s_beta, range(5, 10))) / 2.0}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# ------------------------------------------------------------ shared checks

def _check_inputs(x, setting, z_n, total_count, reported, failures):
    """Recompute the truth from X; check the program's copy and the network total."""
    alpha0, beta0 = (checks.linear_truth if setting == "linear" else checks.nonlinear_truth)(x)
    if not (np.allclose(reported[0], alpha0, rtol=0, atol=1e-12)
            and np.allclose(reported[1], beta0, rtol=0, atol=1e-12)):
        failures.append("the simulator's truth disagrees with the design formula")
    failures += checks.check_simulation(alpha0, beta0, z_n, total_count)
    return alpha0, beta0


def _check_one_fit(rec, x, edges, failures, label):
    fails = checks.check_fit(rec, x)
    obj_fails, objective = checks.check_objective(rec, edges, x.shape[0])
    failures += [f"{label}: {m}" for m in fails + obj_fails]
    return objective


def _check_stages(out, x, edges, n, p, z_n, failures):
    """Checks common to every workload: grid, its winner, MLE and Shapley."""
    failures += checks.check_grid(out["grid"], out["grid_best"], n, p)
    _check_one_fit(out["grid_winner"], x, edges, failures, "grid winner")
    mle = out["mle"]
    failures += checks.check_mle(mle.alpha_hat, mle.beta_hat, mle.flagged_alpha,
                                 mle.flagged_beta, edges, n, z_n)
    rep, net = out["shapley"], out["shapley_net"]
    failures += checks.check_shapley(net, x, rep.node_indices, rep.features, rep.node_values)


# ------------------------------------------------------------ tune-linear

class TuneLinear:
    """Criterion-1 design: a grid search, the frozen fit, both baselines."""

    name = "tune-linear"

    def setup(self, mods, seed, work):
        return _simulate(mods, "linear", 100, 200, LIN_BASE["z_n"])

    def stages(self, mods, inp, seed, work, clock):
        opt, base, imp = mods["optimizer"], mods["baselines"], mods["importance"]
        A, X = inp["A"], inp["X"]
        cfg = opt.FitConfig(**LIN_BASE)
        out = {}
        tune_cfg = replace(cfg, **LIN_TUNE_BUDGET)
        best_cfg, best_est, results = clock.stage(
            "tune", lambda: opt.grid_search(A, X, tune_cfg, LIN_GRID, jobs=1))
        out["grid"], out["grid_best"] = _grid_rows(results), (best_cfg.lambda1, best_cfg.lambda2, best_cfg.M)
        out["grid_winner"] = _fit_record(best_est, best_cfg)
        fit_cfg = replace(cfg, lambda1=LIN_FIT_LAMBDA, lambda2=LIN_FIT_LAMBDA)
        est = clock.stage("fit", lambda: opt.fit(A, X, fit_cfg))
        out["fit"] = _fit_record(est, fit_cfg)
        out["mle"], out["two_stage"] = clock.stage("baseline", lambda: (
            base.mle_fit(A, cfg.z_n), base.two_stage_select(A, X, cfg.z_n, LIN_LASSO_GRID)))
        out["shapley"] = clock.stage("importance", lambda: imp.shapley_importance(
            est.net_alpha, X, sorted(est.s_alpha), SHAPLEY_SAMPLES, seed))
        out["shapley_net"] = out["fit"].net_alpha
        return out

    def check(self, inp, out):
        x = inp["X"].values
        A = inp["A"]
        edges = (A.src, A.dst, A.count)
        failures = []
        alpha0, beta0 = _check_inputs(x, "linear", LIN_BASE["z_n"], A.total_count,
                                      inp["truth"], failures)
        _check_stages(out, x, edges, A.n, x.shape[1], LIN_BASE["z_n"], failures)
        objective = _check_one_fit(out["fit"], x, edges, failures, "frozen fit")
        s_a, s_b, fit_a, fit_b = out["two_stage"]
        failures += checks.check_span(x, s_a, fit_a) + checks.check_span(x, s_b, fit_b)
        return failures, {"objective": objective, **_quality(out["fit"], alpha0, beta0)}

    def digest(self, out):
        w, f = out["grid_winner"], out["fit"]
        return _digest(w.alpha_hat, w.beta_hat, f.alpha_hat, f.beta_hat,
                       out["two_stage"][2], out["two_stage"][3], out["shapley"].node_values)


# ------------------------------------------------------------ fit-nonlinear

class FitNonlinear:
    """Criterion-3 design with hidden layers (8, 4), then Shapley attribution."""

    name = "fit-nonlinear"

    def setup(self, mods, seed, work):
        return _simulate(mods, "nonlinear", 100, 100, NL_CFG["z_n"])

    def stages(self, mods, inp, seed, work, clock):
        opt, base, imp = mods["optimizer"], mods["baselines"], mods["importance"]
        A, X = inp["A"], inp["X"]
        cfg = opt.FitConfig(**NL_CFG)
        out = {}
        est = clock.stage("fit", lambda: opt.fit(A, X, cfg))
        out["fit"] = _fit_record(est, cfg)
        out["shapley"] = clock.stage("importance", lambda: imp.shapley_importance(
            est.net_alpha, X, sorted(est.s_alpha), SHAPLEY_SAMPLES, seed))
        out["shapley_net"] = out["fit"].net_alpha
        tune_cfg = replace(cfg, **NL_TUNE_BUDGET)
        best_cfg, best_est, results = clock.stage(
            "tune", lambda: opt.grid_search(A, X, tune_cfg, NL_GRID, jobs=1))
        out["grid"], out["grid_best"] = _grid_rows(results), (best_cfg.lambda1, best_cfg.lambda2, best_cfg.M)
        out["grid_winner"] = _fit_record(best_est, best_cfg)
        out["mle"] = clock.stage("baseline", lambda: base.mle_fit(A, cfg.z_n), MLE_REPEATS)
        return out

    def check(self, inp, out):
        x = inp["X"].values
        A = inp["A"]
        edges = (A.src, A.dst, A.count)
        failures = []
        alpha0, beta0 = _check_inputs(x, "nonlinear", NL_CFG["z_n"], A.total_count,
                                      inp["truth"], failures)
        _check_stages(out, x, edges, A.n, x.shape[1], NL_CFG["z_n"], failures)
        objective = _check_one_fit(out["fit"], x, edges, failures, "fit")
        return failures, {"objective": objective, **_quality(out["fit"], alpha0, beta0)}

    def digest(self, out):
        f, w = out["fit"], out["grid_winner"]
        return _digest(f.alpha_hat, f.beta_hat, w.alpha_hat, out["shapley"].node_values,
                       out["mle"].alpha_hat)


# ------------------------------------------------------------ fit-large

def _read_net(path):
    obj = json.loads(Path(path).read_text())
    layers = [(np.array(l["weights"], dtype=np.float64), np.array(l["biases"], dtype=np.float64))
              for l in obj["layers"]]
    return np.array(obj["theta"], dtype=np.float64), layers


class FitLarge:
    """n=1000, p=500 linear design through the command line, in-process."""

    name = "fit-large"

    def setup(self, mods, seed, work):
        data = work / "data"
        rc = mods["cli"].main(["simulate", "--setting", "linear", "--n", "1000", "--p", "500",
                               "--seed", str(DESIGN_SEED), "--zn", str(LARGE_CFG["z_n"]),
                               "--out", str(data)])
        if rc != 0:
            raise RuntimeError(f"hetnet simulate exited {rc}")
        (work / "config.json").write_text(json.dumps(LARGE_CFG))
        return {"data": data, "config": work / "config.json"}

    def stages(self, mods, inp, seed, work, clock):
        opt, base, imp, nd = mods["optimizer"], mods["baselines"], mods["importance"], mods["netdata"]
        data, fit_dir = inp["data"], work / "fit"
        out = {}
        rc = clock.stage("fit", lambda: mods["cli"].main([
            "fit", "--edges", str(data / "edges.csv"), "--attributes", str(data / "attributes.csv"),
            "--config", str(inp["config"]), "--out", str(fit_dir)]))
        if rc != 0:
            raise RuntimeError(f"hetnet fit exited {rc}")
        # the remaining stages work in-process on the simulated files
        X = nd.load_attributes(data / "attributes.csv")
        A = nd.load_edge_list(data / "edges.csv", n=X.n)
        cfg = opt.FitConfig(**{**LARGE_CFG, "hidden_widths": ()})
        tune_cfg = replace(cfg, **LARGE_TUNE_BUDGET)
        best_cfg, best_est, results = clock.stage(
            "tune", lambda: opt.grid_search(A, X, tune_cfg, LARGE_GRID, jobs=1))
        out["grid"], out["grid_best"] = _grid_rows(results), (best_cfg.lambda1, best_cfg.lambda2, best_cfg.M)
        out["grid_winner"] = _fit_record(best_est, best_cfg)
        out["mle"] = clock.stage("baseline", lambda: base.mle_fit(A, cfg.z_n), MLE_REPEATS)

        def importance():
            obj = json.loads((fit_dir / "model_alpha.json").read_text())
            net, _ = mods["skipnet"].net_from_json_dict(obj)
            return imp.shapley_importance(net, X, sorted(opt.extract_selected(net.theta)),
                                          LARGE_SHAPLEY_SAMPLES, seed)

        out["shapley"] = clock.stage("importance", importance)
        out["shapley_net"] = _read_net(fit_dir / "model_alpha.json")
        out["fit"] = self._fit_from_files(fit_dir)
        return out

    @staticmethod
    def _fit_from_files(fit_dir):
        est = json.loads((fit_dir / "estimate.json").read_text())
        loss = est["final_loss"]
        return checks.FitRecord(
            np.array(est["alpha_hat"]), np.array(est["beta_hat"]),
            set(est["s_alpha"]), set(est["s_beta"]),
            _read_net(fit_dir / "model_alpha.json"), _read_net(fit_dir / "model_beta.json"),
            est["centering_shift"], loss["nll"], loss["total"],
            LARGE_CFG["lambda1"], LARGE_CFG["lambda2"], LARGE_CFG["M"], LARGE_CFG["z_n"])

    def check(self, inp, out):
        data = inp["data"]
        x = np.loadtxt(data / "attributes.csv", delimiter=",", skiprows=1, ndmin=2)
        e = np.loadtxt(data / "edges.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        edges = (e[:, 0], e[:, 1], e[:, 2])
        n, p = x.shape
        failures = []
        truth = json.loads((data / "truth.json").read_text())
        alpha0, beta0 = _check_inputs(x, "linear", LARGE_CFG["z_n"], int(e[:, 2].sum()),
                                      (truth["alpha0"], truth["beta0"]), failures)
        _check_stages(out, x, edges, n, p, LARGE_CFG["z_n"], failures)
        objective = _check_one_fit(out["fit"], x, edges, failures, "hetnet fit")
        return failures, {"objective": objective, **_quality(out["fit"], alpha0, beta0)}

    def digest(self, out):
        f = out["fit"]
        return _digest(f.alpha_hat, f.beta_hat, out["grid_winner"].alpha_hat,
                       out["shapley"].node_values, out["mle"].alpha_hat)


WORKLOADS = {w.name: w for w in (TuneLinear(), FitNonlinear(), FitLarge())}
