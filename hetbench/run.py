"""hetnet benchmark: one workload, timed end to end, or traced per layer.

    python3 hetbench/run.py --workload tune-linear --seed 1 --seconds 30 --trace 0

Run from the repository root; ``src`` is put on the path, nothing needs
installing.  Each round re-imports hetnet, builds the workload's inputs
with hetnet's simulator (setup) and runs the four stages; the first
round's outputs are checked against references computed apart from the
program (checks.py).  Rounds repeat while the next one is expected to end
within ``--seconds``; later rounds must reproduce the first bit for bit.
Stage times are CPU seconds of this process, medians over the rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of standard output is the
JSON result; a copy with the environment goes to ``hetbench/results/``.
"""

from __future__ import annotations

import os

# one process, no BLAS or OpenMP worker threads: set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import selftest
from tracing import Tracer
from workloads import WORKLOADS, import_hetnet

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGES = ("setup", "tune", "fit", "baseline", "importance")
MIN_SETUPS = 3


class Clock:
    """CPU seconds (and, for the record, wall seconds) per stage of one round.

    The metrics are the process's CPU time: the workload runs on one
    thread, so on an idle machine this equals wall time, but unlike wall
    time it leaves out the time the process waits for a core that other
    processes, or other guests of the host (steal time), hold.
    """

    def __init__(self, repeat: bool):
        self.times: dict[str, float] = {}
        self.wall: dict[str, float] = {}
        self.repeat = repeat

    def stage(self, name, fn, repeats=1):
        """Call ``fn`` and record its time as ``name``; return its result.

        With ``repeats`` > 1 the call is made that many times and the
        median recorded, except in traced rounds, whose counts must cover
        one call per stage.
        """
        cpu, wall = [], []
        for _ in range(repeats if self.repeat else 1):
            w0, c0 = time.perf_counter(), time.process_time()
            out = fn()
            cpu.append(time.process_time() - c0)
            wall.append(time.perf_counter() - w0)
        self.times[name] = statistics.median(cpu)
        self.wall[name] = statistics.median(wall)
        return out


def run_round(workload, seed, work, tracer=None, stages=True):
    """One setup and, unless ``stages`` is False, the four stages.

    Returns (clock, inputs, outputs); outputs is None for a setup-only round.
    """
    clock = Clock(repeat=tracer is None)

    def setup():
        mods = import_hetnet()
        if tracer is not None:
            tracer.install(mods)
        return mods, workload.setup(mods, seed, work)

    mods, inputs = clock.stage("setup", setup)
    outputs = workload.stages(mods, inputs, seed, work, clock) if stages else None
    return clock, inputs, outputs


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def measure(workload, seed, seconds, trace) -> dict:
    work = HERE / "work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rounds = []  # (tracer or None, clock) of every completed round
    failures = [f"checker self-test: {msg}" for msg in selftest.run()]
    quality = None
    first_digest = None
    attempted = failed = 0
    start = time.perf_counter()
    traced_next = False
    try:
        while True:
            round_start = time.perf_counter()
            tracer = Tracer() if traced_next else None
            attempted += len(STAGES)
            try:
                clock, inputs, outputs = run_round(workload, seed, work, tracer)
            except Exception:
                traceback.print_exc()
                failed += len(STAGES)
            else:
                digest = workload.digest(outputs)
                if first_digest is None:
                    first_digest = digest
                    found, quality = workload.check(inputs, outputs)
                    failures += found
                elif digest != first_digest:
                    failures.append(f"round {len(rounds) + 1} differs from round 1")
                rounds.append((tracer, clock))
            traced_next = trace and not traced_next
            last = time.perf_counter() - round_start
            elapsed = time.perf_counter() - start
            # a traced run ends only after a whole (untraced, traced) pair
            if not traced_next and elapsed + last * (2 if trace else 1) > seconds:
                break
        # set up a few more times so that setup_s is a median, not one sample
        while not trace and 0 < len(rounds) < MIN_SETUPS:
            attempted += 1
            try:
                clock, _, _ = run_round(workload, seed, work, stages=False)
            except Exception:
                traceback.print_exc()
                failed += 1
                break
            rounds.append((None, clock))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    if trace:
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds, quality) if quality is not None else {}
    return {"correct": not failures and quality is not None, "attempted": attempted,
            "failed": failed, "metrics": metrics, "checks_failed": failures,
            "rounds": [{"traced": t is not None, "cpu_s": c.times, "wall_s": c.wall}
                       for t, c in rounds]}


def end_to_end(rounds, quality) -> dict:
    every = [c.times for _, c in rounds]
    full = [t for t in every if "fit" in t]

    def median(key, rows):
        return statistics.median(r[key] for r in rows)

    values = {
        "setup_s": (median("setup", every), "s"),
        "total_s": (statistics.median(sum(r[s] for s in STAGES) for r in full), "s"),
        "fit_s": (median("fit", full), "s"),
        "tune_s": (median("tune", full), "s"),
        "baseline_s": (median("baseline", full), "s"),
        "importance_s": (median("importance", full), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "objective": (quality["objective"], "nats"),
        "rmse": (quality["rmse"], "effect"),
        "sel_f1": (quality["sel_f1"], "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(rounds) -> dict:
    per_round = [t.metrics() for t, _ in rounds if t is not None]
    if not per_round:
        return {}
    out = {name: {"value": statistics.median(m[name][0] for m in per_round), "unit": unit}
           for name, (_, unit) in per_round[0].items()}

    def total(traced):
        return statistics.median(sum(c.times[s] for s in STAGES)
                                 for t, c in rounds if (t is not None) == traced)

    untraced_s, traced_s = total(False), total(True)
    out["trace.untraced_total_s"] = {"value": untraced_s, "unit": "s"}
    out["trace.traced_total_s"] = {"value": traced_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hetnet" / "__init__.py").is_file():
        print(f"error: no hetnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for msg in result["checks_failed"]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), **result}
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
