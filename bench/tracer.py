"""Per-layer tracing from outside the package.

install() replaces each traced callable with a timing wrapper in every
loaded dnareads module that binds it, so calls through `from .x import f`
names are caught as well as calls through module attributes.  A missing
callable raises, so a rename in the package fails the benchmark instead of
reporting zeros.

Every wrapper keeps an aggregated count, total time and self time per layer
metric.  Coarse boundaries also record one span each (name, start, end,
parent).  Self time is a call's duration minus the time its traced children
cover; calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# metric name -> (callables as "module.attr", records spans)
LAYERS = {
    "core.derive_trial_rng": (("core.derive_trial_rng",), False),
    "channel.sample": (("channel.sample_index_sequence", "channel.sample_error_flags"), False),
    "channel.prepare": (("channel.strong_prepare", "channel.weak_prepare"), False),
    "channel.observe": (
        ("channel.observe_honest", "channel.observe_uniform", "channel.observe_strong",
         "channel.observe_weak"),
        False,
    ),
    "decoder.step": (("decoder.step",), False),
    "decoder.stopping_times": (
        ("decoder.stopping_time_no_errors", "decoder.stopping_times_all"),
        False,
    ),
    "simulate.run_trial": (("simulate.run_trial",), False),
    "simulate.run_batch": (("simulate.run_batch",), True),
    "simulate.decode_batch": (("simulate._decode_batch",), True),
    "analysis.s_membership": (("analysis.s_membership",), False),
    "analysis.greedy_removals": (("analysis.greedy_removals",), False),
    "analysis.bounds": (("analysis.race_dp", "analysis.error_prob_upper_bound"), True),
    "codebook.construct_greedy": (("codebook.construct_greedy",), True),
    "harness.experiment": (
        ("harness.run_trials", "harness.sweep_p", "harness.s_membership_experiment",
         "harness.converse_experiment"),
        True,
    ),
    "harness.csv": (("harness.csv_text", "harness.write_csv"), True),
    "cli.main": (("cli.main",), True),
}

# Adversary tables drawn per read position beyond the index and error draws.
_BATCH_TABLES = {"honest": 0, "uniform": 2, "uniform-index": 1}


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, total, self
        self.spans: list[dict] = []
        self.values_drawn = 0
        self.reads_consumed = 0
        self.positions_drawn = 0
        self._stack: list[list] = []  # [child_time, span_id or None]

    def wrap(self, metric: str, qualname: str, fn, span: bool):
        stats = self.stats[metric]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if span:
                frame[1] = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                spans.append({"id": frame[1], "name": qualname, "parent": parent})
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans[frame[1]].update(start=start, end=end)

        return wrapper

    def count_batch(self, result, cb, adversary, trials, start=0):
        cap = cb.params.read_cap
        self.values_drawn += trials * (1 + cap * (2 + _BATCH_TABLES[adversary]))
        self.positions_drawn += trials * cap
        self.reads_consumed += int(result.n_reads.sum())

    def count_trial(self, result, cb, adversary, trial, h_m=None, r_prime_m=None,
                    collect_trace=False):
        outcome = result[0]
        cap = cb.params.read_cap
        extra = {
            "honest": 0,
            "uniform": 2 * cap,
            "uniform-index": cap,
            "strong": 1,
            "weak": (r_prime_m or 0) + 1 + (outcome.m_prime is not None),
        }[adversary]
        self.values_drawn += 1 + 2 * cap + extra
        self.positions_drawn += cap
        self.reads_consumed += outcome.verdict.n_reads

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        out = {}
        for name, (calls, _total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["channel.values_drawn"] = self.values_drawn
        out["simulate.reads_consumed"] = self.reads_consumed
        out["simulate.read_use_ratio"] = (
            self.reads_consumed / self.positions_drawn if self.positions_drawn else 0.0
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _counted(fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result, *args, **kwargs)
        return result

    return wrapper


def install() -> Tracer:
    """Wrap every traced callable of the imported dnareads package."""
    tracer = Tracer()
    modules = [m for n, m in sys.modules.items() if n == "dnareads" or n.startswith("dnareads.")]
    hooks = {"simulate.run_batch": tracer.count_batch, "simulate.run_trial": tracer.count_trial}
    for metric, (qualnames, span) in LAYERS.items():
        for qualname in qualnames:
            mod_name, attr = qualname.split(".")
            original = getattr(sys.modules[f"dnareads.{mod_name}"], attr)
            wrapped = tracer.wrap(metric, qualname, original, span)
            if qualname in hooks:
                wrapped = _counted(wrapped, hooks[qualname])
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    return tracer
