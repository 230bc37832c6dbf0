"""Span timing at hetnet's module boundaries, from outside the package.

Each wrapper replaces a name that one hetnet module looks up in its own
namespace at call time (for example ``optimizer.poisson_nll``, which
``update_side`` calls through the optimizer module's globals), so no file
under ``src/`` is edited.  A name that a later version no longer has is
skipped.  Spans are aggregated as they close (calls, total and self
seconds per name) rather than kept one by one: a tuning round opens
about 300,000 of them.
"""

from __future__ import annotations

import time

# (module, attribute looked up at call time, span name)
BOUNDARIES = [
    ("optimizer", "update_side", "optimizer.update_side"),
    ("optimizer", "hierarchical_prox", "optimizer.hierarchical_prox"),
    ("optimizer", "poisson_nll", "objective.poisson_nll"),
    ("optimizer", "nll_node_gradients", "objective.nll_node_gradients"),
    ("optimizer", "identifiability_penalty", "objective.identifiability_penalty"),
    ("optimizer", "_forward_activations", "skipnet.forward"),
    ("optimizer", "forward_batch", "skipnet.forward"),
    ("optimizer", "_backward_from_activations", "skipnet.backward"),
    ("importance", "forward_batch", "importance.forward_batch"),
    ("importance", "shapley_importance", "importance.shapley_importance"),
    ("baselines", "mle_fit", "baselines.mle_fit"),
    ("baselines", "two_stage_select", "baselines.two_stage_select"),
    ("simbench", "gen_attributes", "simbench.gen_attributes"),
    ("simbench", "sample_network", "simbench.sample_network"),
    ("cli", "gen_attributes", "simbench.gen_attributes"),
    ("cli", "sample_network", "simbench.sample_network"),
    ("cli", "write_edge_list", "netdata.write_edge_list"),
    ("cli", "load_edge_list", "netdata.load_edge_list"),
    ("cli", "load_attributes", "netdata.load_attributes"),
]


class Tracer:
    """Aggregated spans plus the counts read off return values."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.steps_attempted = 0
        self.steps_accepted = 0
        self.mle_iterations = 0
        self.edges = 0
        self._child = []  # child seconds of each open span, innermost last
        self._in_update = 0

    def install(self, modules) -> None:
        """Wrap every boundary present in ``modules`` (name -> module)."""
        for mod_name, attr, span in BOUNDARIES:
            mod = modules.get(mod_name)
            if mod is not None and callable(getattr(mod, attr, None)):
                setattr(mod, attr, self._wrap(getattr(mod, attr), span))

    def _wrap(self, fn, span):
        def traced(*args, **kwargs):
            if span == "optimizer.hierarchical_prox" and self._in_update:
                self.steps_attempted += 1
            if span == "optimizer.update_side":
                self._in_update += 1
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child.pop()
                if self._child:
                    self._child[-1] += dt
                self.calls[span] = self.calls.get(span, 0) + 1
                self.total[span] = self.total.get(span, 0.0) + dt
                self.self_time[span] = self.self_time.get(span, 0.0) + dt - child
                if span == "optimizer.update_side":
                    self._in_update -= 1
            if span == "optimizer.update_side":
                self.steps_accepted += len(out[2]) - 1
            elif span == "baselines.mle_fit":
                self.mle_iterations += out.iterations
            elif span == "netdata.load_edge_list":
                self.edges += len(out.src)
            return out

        return traced

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        calls, total = self.calls, self.total

        def n(span):
            return calls.get(span, 0)

        def secs(span):
            return total.get(span, 0.0)

        def us_per_call(span):
            return 1e6 * secs(span) / n(span) if n(span) else 0.0

        attempted = self.steps_attempted
        out = {
            "optimizer.steps_attempted": (attempted, "count"),
            "optimizer.steps_accepted": (self.steps_accepted, "count"),
            "optimizer.step_accept_ratio": (
                self.steps_accepted / attempted if attempted else 0.0, "ratio"),
            "optimizer.us_per_step": (
                1e6 * secs("optimizer.update_side") / attempted if attempted else 0.0, "us"),
            "optimizer.update_side.self_s": (
                self.self_time.get("optimizer.update_side", 0.0), "s"),
        }
        for span in ("optimizer.hierarchical_prox", "objective.poisson_nll",
                     "objective.nll_node_gradients", "skipnet.forward", "skipnet.backward"):
            out[f"{span}.calls"] = (n(span), "count")
            out[f"{span}.us"] = (us_per_call(span), "us")
        evals = n("importance.forward_batch")
        out["importance.forward_batch.calls"] = (evals, "count")
        out["importance.us_per_eval"] = (
            1e6 * secs("importance.shapley_importance") / evals if evals else 0.0, "us")
        out["baselines.mle_fit.s"] = (secs("baselines.mle_fit"), "s")
        out["baselines.mle_fit.iterations"] = (self.mle_iterations, "count")
        out["baselines.two_stage_select.s"] = (secs("baselines.two_stage_select"), "s")
        for span in ("simbench.gen_attributes", "simbench.sample_network",
                     "netdata.write_edge_list", "netdata.load_edge_list",
                     "netdata.load_attributes"):
            out[f"{span}.s"] = (secs(span), "s")
        out["netdata.edges"] = (self.edges, "count")
        return out
