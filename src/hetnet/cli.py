"""Command-line pipelines: simulate, fit, tune, evaluate, importance.

Every command is deterministic given its flags; outputs are plain CSV
(LF newlines, full-precision floats) and JSON.  Exit codes: 0 success,
1 runtime failure (divergence, a broken hierarchy constraint, IO trouble),
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from .netdata import (
    NetworkDataError,
    load_edge_list,
    load_attributes,
    write_edge_list,
    write_attributes,
)
from .objective import LossBreakdown
from .optimizer import (
    FitConfig,
    FitDivergenceError,
    HeterogeneityEstimate,
    HierarchyViolationError,
    extract_selected,
    fit,
    grid_search,
)
from .skipnet import net_from_json_dict, net_to_json_dict
from .simbench import (
    run_replications,
    simulate_design,
    write_metrics_csv,
    write_raw_csv,
)
from .importance import shapley_importance

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Bad flags, malformed configuration, or missing/invalid input files."""


# ---------------------------------------------------------------- helpers

def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} file not found: {path}")
    return p


def _check_p(p: int) -> None:
    if p < 10:
        raise UsageError("p must be >= 10 (both designs use attribute columns 1..10)")


def _check_zn(zn: float) -> None:
    if not (math.isfinite(zn) and zn > 0):
        raise UsageError(f"--zn must be finite and positive, got {zn}")


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")


def _out_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_CONFIG_KEYS = {f.name for f in fields(FitConfig)} | {"m"}
# the loss parts in LossBreakdown's field order, then their total
_LOSS_KEYS = [f.name for f in fields(LossBreakdown)] + ["total"]


def load_fit_config(path: Path) -> FitConfig:
    """config.json -> FitConfig; snake_case keys, unknown keys ignored.

    The hierarchy constant may be spelled "m" or "M"."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    kwargs = {}
    for key, value in obj.items():
        if key not in _CONFIG_KEYS:
            continue
        kwargs["M" if key == "m" else key] = value
    try:
        return FitConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def load_grid(path: Path) -> list[tuple[float, float, float]]:
    """grid.json: array of {lambda1, lambda2, M} (or "m") objects, each checked by FitConfig."""
    obj = _read_json(path)
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"{path}: grid must be a non-empty JSON array")
    triples = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict):
            raise UsageError(f"{path}: grid entry {i} must be an object")
        try:
            lam1 = float(entry["lambda1"])
            lam2 = float(entry["lambda2"])
            m = float(entry["M"] if "M" in entry else entry["m"])
            FitConfig(lambda1=lam1, lambda2=lam2, M=m)
        except KeyError as exc:
            raise UsageError(f"{path}: grid entry {i} missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{path}: grid entry {i}: {exc}") from exc
        triples.append((lam1, lam2, m))
    return triples


def _load_dataset(args) -> tuple:
    xmat = load_attributes(_require_file(args.attributes, "attributes"))
    net = load_edge_list(_require_file(args.edges, "edges"), n=xmat.n)
    return net, xmat


def _write_fit_artifacts(out: Path, est: HeterogeneityEstimate,
                         config: FitConfig) -> None:
    _write_json(out / "model_alpha.json", net_to_json_dict(est.net_alpha, config.M))
    _write_json(out / "model_beta.json", net_to_json_dict(est.net_beta, config.M))
    _write_json(out / "estimate.json", {
        "alpha_hat": est.alpha_hat.tolist(),
        "beta_hat": est.beta_hat.tolist(),
        "s_alpha": sorted(est.s_alpha),
        "s_beta": sorted(est.s_beta),
        "converged": est.converged,
        "outer_iterations": est.outer_iterations,
        "centering_shift": est.centering_shift,
        "final_loss": {k: getattr(est.final_loss, k) for k in _LOSS_KEYS},
    })
    with open(out / "fit_log.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["outer_iter", *_LOSS_KEYS, "delta_alpha", "delta_beta"]) + "\n")
        for rec in est.history:
            cells = [getattr(rec.loss, k) for k in _LOSS_KEYS] + [rec.delta_alpha, rec.delta_beta]
            fh.write(f"{rec.outer_iter}," + ",".join(map(repr, cells)) + "\n")


# ---------------------------------------------------------------- commands

def cmd_simulate(args) -> int:
    _check_p(args.p)
    if args.n < 2:
        raise UsageError("n must be >= 2")
    _check_zn(args.zn)
    out = _out_dir(args.out)
    xmat, truth, net = simulate_design(args.setting, args.n, args.p, args.seed, args.zn)

    with open(out / "edges.csv", "w", encoding="utf-8", newline="\n") as fh:
        write_edge_list(net, fh)
    with open(out / "attributes.csv", "w", encoding="utf-8", newline="\n") as fh:
        write_attributes(xmat, fh)
    _write_json(out / "truth.json", {
        "alpha0": truth.alpha0.tolist(),
        "beta0": truth.beta0.tolist(),
        "a_alpha": sorted(truth.a_alpha),
        "a_beta": sorted(truth.a_beta),
        "z_n": truth.z_n,
        "setting": args.setting,
        "seed": args.seed,
    })
    return 0


def cmd_fit(args) -> int:
    net, xmat = _load_dataset(args)
    config = load_fit_config(_require_file(args.config, "config"))
    out = _out_dir(args.out)
    est = fit(net, xmat, config)
    _write_fit_artifacts(out, est, config)
    return 0


def cmd_tune(args) -> int:
    _check_jobs(args.jobs)
    net, xmat = _load_dataset(args)
    config = load_fit_config(_require_file(args.config, "config"))
    grid = load_grid(_require_file(args.grid, "grid"))
    out = _out_dir(args.out)
    best_config, best_est, results = grid_search(net, xmat, config, grid,
                                                 jobs=args.jobs)
    with open(out / "tuning.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda1", "lambda2", "M", "s_total", "nll", "hbic", "error"])
        # floats as repr; error is empty for a fit that succeeded
        writer.writerows([repr(r.lambda1), repr(r.lambda2), repr(r.M), r.s_total,
                          repr(r.nll), repr(r.hbic), r.error or ""] for r in results)
    _write_fit_artifacts(out, best_est, best_config)
    return 0


def cmd_evaluate(args) -> int:
    _check_p(args.p)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    _check_zn(args.zn)
    _check_jobs(args.jobs)
    config = (load_fit_config(_require_file(args.config, "config"))
              if args.config else FitConfig())
    out = _out_dir(args.out)
    try:
        report = run_replications(args.setting, args.n, args.p, args.replications,
                                  methods, args.seed, config=config, z_n=args.zn,
                                  jobs=args.jobs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    with open(out / "metrics.csv", "w", encoding="utf-8", newline="\n") as fh:
        write_metrics_csv(report, fh)
    with open(out / "replication_raw.csv", "w", encoding="utf-8", newline="\n") as fh:
        write_raw_csv(report, fh)
    with open(out / "failures.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replication", "method", "error"])
        writer.writerows(report.failure_log)
    return 0


def cmd_importance(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    model_path = _require_file(args.model, "model")
    xmat = load_attributes(_require_file(args.attributes, "attributes"))
    try:
        net, _m = net_from_json_dict(_read_json(model_path))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{model_path}: not a valid model file ({exc})") from exc
    if net.p != xmat.p:
        raise UsageError(
            f"model expects {net.p} attributes but {args.attributes} has {xmat.p}"
        )
    out = _out_dir(args.out)
    selected = sorted(extract_selected(net.theta))
    path = out / "importance.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("side,feature_index,feature_name,mean_abs_shap,stderr,rank\n")
        if selected:
            report = shapley_importance(net, xmat, selected, args.samples,
                                        args.seed, side=args.side)
            for s, k in enumerate(report.features):
                fh.write(f"{report.side},{k},{report.feature_names[s]},"
                         f"{float(report.mean_abs[s])!r},{float(report.stderr[s])!r},"
                         f"{int(report.rank[s])}\n")
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetnet",
        description="Attribute-driven heterogeneity estimation for "
                    "count-valued directed networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate a synthetic network dataset")
    ps.add_argument("--setting", required=True, choices=["linear", "nonlinear"])
    ps.add_argument("--n", required=True, type=int)
    ps.add_argument("--p", required=True, type=int)
    ps.add_argument("--seed", required=True, type=int)
    ps.add_argument("--zn", type=float, default=1.0)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("fit", help="fit the paired networks to a dataset")
    pf.add_argument("--edges", required=True)
    pf.add_argument("--attributes", required=True)
    pf.add_argument("--config", required=True)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=cmd_fit)

    pt = sub.add_parser("tune", help="grid-search penalties by HBIC, keep the best fit")
    pt.add_argument("--edges", required=True)
    pt.add_argument("--attributes", required=True)
    pt.add_argument("--config", required=True)
    pt.add_argument("--grid", required=True)
    pt.add_argument("--jobs", type=int, default=1)
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=cmd_tune)

    pe = sub.add_parser("evaluate", help="replicate a simulation design and "
                                         "score estimators against the truth")
    pe.add_argument("--setting", required=True, choices=["linear", "nonlinear"])
    pe.add_argument("--n", required=True, type=int)
    pe.add_argument("--p", required=True, type=int)
    pe.add_argument("--replications", required=True, type=int)
    pe.add_argument("--methods", default="hetnet,mle,mle_lasso")
    pe.add_argument("--seed", required=True, type=int)
    pe.add_argument("--zn", type=float, default=1.0)
    pe.add_argument("--config", default=None)
    pe.add_argument("--jobs", type=int, default=1)
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_evaluate)

    pi = sub.add_parser("importance", help="Shapley attribution for a fitted model")
    pi.add_argument("--model", required=True)
    pi.add_argument("--attributes", required=True)
    pi.add_argument("--samples", type=int, default=1000)
    pi.add_argument("--seed", required=True, type=int)
    pi.add_argument("--side", choices=["alpha", "beta"], default="alpha")
    pi.add_argument("--out", required=True)
    pi.set_defaults(func=cmd_importance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, NetworkDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitDivergenceError as exc:
        print(f"fit diverged: {exc}", file=sys.stderr)
        return 1
    except HierarchyViolationError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
