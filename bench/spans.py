"""Span recording around mcergo's layer entry points, for the traced run.

``Tracer.install`` replaces each entry point, wherever a module of the
``mcergo`` package binds it, with a wrapper that records a span (layer,
name, start, end, parent) in memory; ``uninstall`` puts the originals back.
Nothing under ``src/`` is edited.  Two pipeline stages have no public entry
point, so their function objects are wrapped directly: the Philox fill
``montecarlo._ReplicaStreams.block`` and the finite step
``montecarlo._step_states`` (plus the ball-walk step
``ContinuousSampler1D.batch_step``, the continuous counterpart).

Layer metrics are derived from the spans after a pass: ``busy_s`` is the
time some span of the layer is open (outermost spans of that layer), and
``self_s`` is the span time not covered by child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from mcergo import certify, chain_analysis, cli, harness, kernels, montecarlo

# (layer, object owning the attribute, attribute names); module-level
# functions are replaced in every mcergo module that binds them.
ENTRY_POINTS = [
    ("kernels", kernels, ["birth_death_chain", "lazy_srw", "build_finite_kernel",
                          "lazy_transform", "restrict", "ball_walk_sampler"]),
    ("chain_analysis.stationary", chain_analysis, ["stationary_distribution"]),
    ("chain_analysis.hitting", chain_analysis, ["max_hitting_time"]),
    ("chain_analysis.mixing", chain_analysis, ["mixing_time"]),
    ("chain_analysis.minorization", chain_analysis, ["pseudo_minorization"]),
    ("certify", certify, ["certify_drift_and_hit", "verify_drift", "fit_drift",
                          "compatibility_check", "escape_bound"]),
    ("montecarlo.estimate", montecarlo, ["estimate_hitting", "coupled_escape_estimate"]),
    ("montecarlo.philox", montecarlo._ReplicaStreams, ["block"]),
    ("montecarlo.step", montecarlo, ["_step_states"]),
    ("montecarlo.step", kernels.ContinuousSampler1D, ["batch_step"]),
    ("harness", cli, ["main"]),
    ("harness", harness, ["run_scaling", "run_hitmix", "run_certify"]),
]

_MIXING_SIGNATURE = inspect.signature(chain_analysis.mixing_time)


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans = []  # [layer, name, start, end, parent index, outermost in layer]
        self.counters = defaultdict(float)
        self._stack = []
        self._depth = defaultdict(int)
        self._stationary = []  # (kernel, pi) pairs; residuals computed after the pass
        self._patches = []  # (owner, attribute or key, original, owner is a mapping)

    def reset(self):
        """Forget the previous pass; wrappers hold these containers, so clear in place."""
        self.spans.clear()
        self.counters.clear()
        self._stationary.clear()

    # --- span recording -------------------------------------------------------

    def _wrap(self, layer, name, fn, after):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, depth[layer] == 0]
            spans.append(span)
            stack.append(index)
            depth[layer] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                depth[layer] -= 1
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_calls(self, fn, counter):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every entry point in ENTRY_POINTS, wherever mcergo binds it."""
        if self._patches:
            return
        after = {
            "stationary_distribution": self._after_stationary,
            "mixing_time": self._after_mixing,
            "estimate_hitting": self._after_estimate,
            "block": self._after_block,
            "_step_states": self._after_step,
            "batch_step": self._after_step,
        }
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mcergo" or key.startswith("mcergo."))]
        wrappers = {}
        for layer, owner, names in ENTRY_POINTS:
            for name in names:
                original = vars(owner)[name]
                wrapper = wrappers[original] = self._wrap(layer, name, original, after.get(name))
                if not inspect.ismodule(owner):
                    self._patch(owner, name, wrapper)
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for key, runner in list(harness.RUNNERS.items()):
            if runner in wrappers:
                self._patches.append((harness.RUNNERS, key, runner, True))
                harness.RUNNERS[key] = wrappers[runner]
        # solves are counted, not spanned: one per expected_hitting call
        self._patch(chain_analysis, "expected_hitting",
                    self._count_calls(chain_analysis.expected_hitting, "hitting.solves"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original, is_mapping in reversed(self._patches):
            if is_mapping:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # --- per-call counts at the same boundaries ---------------------------------

    def _after_stationary(self, args, kwargs, pi):
        self._stationary.append((args[0] if args else kwargs["k"], pi))

    def _after_mixing(self, args, kwargs, t):
        bound = _MIXING_SIGNATURE.bind(*args, **kwargs)
        k = bound.arguments["k"]
        subset = bound.arguments.get("subset")
        starts = k.n if subset is None else len(subset)
        self.counters["mixing.steps"] += t
        # one step multiplies a (starts x n) block by the (n x n) kernel
        self.counters["mixing.flop"] += 2.0 * starts * k.n * k.n * t

    def _after_estimate(self, args, kwargs, est):
        # censored walkers contribute the horizon, so mean x replicas is the
        # exact number of walker-steps this hitting estimate simulated
        self.counters["estimate.mean_steps"] += est.mean * est.replicas
        self.counters["estimate.max_censored"] = max(
            self.counters["estimate.max_censored"], est.censored_fraction)

    def _after_block(self, args, kwargs, out):
        self.counters["philox.draws"] += out.size

    def _after_step(self, args, kwargs, nxt):
        # one entry per walker advanced, so the sum counts walker-steps exactly
        self.counters["walker_steps"] += len(nxt)

    # --- derived metrics ----------------------------------------------------------

    def layer_metrics(self, wall_s: float, bytes_written: int) -> dict:
        """Per-layer metrics of the pass just traced, as {name: (value, unit)}."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent, outermost in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (layer, name, start, end, parent, outermost) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += end - start - child[i]
            if outermost:
                busy[layer] += end - start
        residual = max((float(np.max(np.abs(pi @ k.p - pi))) for k, pi in self._stationary),
                       default=0.0)
        c = self.counters
        mc_busy = busy["montecarlo.estimate"]
        return {
            "traced.wall_s": (wall_s, "s"),
            "kernels.busy_s": (busy["kernels"], "s"),
            "kernels.calls": (calls["kernels"], "count"),
            "chain_analysis.stationary.busy_s": (busy["chain_analysis.stationary"], "s"),
            "chain_analysis.stationary.calls": (calls["chain_analysis.stationary"], "count"),
            "chain_analysis.stationary.max_residual": (residual, "1"),
            "chain_analysis.hitting.busy_s": (busy["chain_analysis.hitting"], "s"),
            "chain_analysis.hitting.calls": (calls["chain_analysis.hitting"], "count"),
            "chain_analysis.hitting.solves": (int(c["hitting.solves"]), "count"),
            "chain_analysis.mixing.busy_s": (busy["chain_analysis.mixing"], "s"),
            "chain_analysis.mixing.calls": (calls["chain_analysis.mixing"], "count"),
            "chain_analysis.mixing.steps": (int(c["mixing.steps"]), "count"),
            "chain_analysis.mixing.gflop_computed": (c["mixing.flop"] / 1e9, "GFLOP"),
            "chain_analysis.minorization.busy_s": (busy["chain_analysis.minorization"], "s"),
            "chain_analysis.minorization.calls": (calls["chain_analysis.minorization"], "count"),
            "certify.self_s": (self_s["certify"], "s"),
            "certify.calls": (calls["certify"], "count"),
            "montecarlo.estimate.busy_s": (mc_busy, "s"),
            "montecarlo.estimate.calls": (calls["montecarlo.estimate"], "count"),
            "montecarlo.walker_steps": (int(c["walker_steps"]), "count"),
            "montecarlo.walker_steps_per_s": (
                c["walker_steps"] / mc_busy if mc_busy > 0.0 else 0.0, "1/s"),
            "montecarlo.max_censored_frac": (c["estimate.max_censored"], "1"),
            "montecarlo.philox.busy_s": (busy["montecarlo.philox"], "s"),
            "montecarlo.philox.draws": (int(c["philox.draws"]), "count"),
            "montecarlo.step.busy_s": (busy["montecarlo.step"], "s"),
            "montecarlo.step.calls": (calls["montecarlo.step"], "count"),
            "harness.self_s": (self_s["harness"], "s"),
            "harness.bytes_written": (bytes_written, "B"),
        }

    def dump(self) -> dict:
        """Spans and raw counters of the last traced pass, for the trace file."""
        return {
            "span_fields": ["layer", "name", "start_s", "end_s", "parent", "outermost_in_layer"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
