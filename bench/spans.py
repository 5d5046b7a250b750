"""Span tracing from outside the library.

``install`` replaces each public function named in ``LAYERS`` with a wrapper
in every ``infowalk`` module namespace that holds it, so a call made from
inside the library (``cost_report`` calling ``entropy_profile``) is looked up
through the wrapper too and becomes a child span.  Spans are recorded only
while an op is open; calls made by reference checks pass straight through.

Per-pass totals are kept under ``<module>.<function>.<what>``: ``self_ms``
(span time minus the time covered by its child spans), ``calls``, and the
work counters of ``COUNTERS``.  Inside an op tagged with a grid size, every
total is also kept under ``<tag>.<module>.<function>.<what>``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = {
    "distributions": ("entropy_profile", "symmetric_decomposition"),
    "protocol": (
        "walk",
        "evaluate_error_law",
        "evaluate_error",
        "mix_with_abort",
        "tree_from_json",
        "tree_to_json",
    ),
    "infocost": ("law_of", "cost_report", "sim", "internal_ic", "external_ic"),
    "and_protocols": (
        "buzzer_grid_tree",
        "buzzer_leaf_law",
        "grid_leaf_law",
        "grid_law_kolmogorov",
        "potential_of_tree",
        "flip_tree",
        "flip_transform",
        "complete_to_zero_error",
        "one_sided_and",
        "ic_and_zero",
        "sim_and_zero",
    ),
    "optimize": (
        "maximize_ic_and",
        "and_tradeoff_curve",
        "xor_external_experiment",
        "xor_floor_search",
    ),
    "trivial": (
        "is_structurally_internal_trivial",
        "is_structurally_external_trivial",
        "trivial_witness_protocol",
    ),
    "disjointness": (
        "disj_protocol",
        "disj_ic_exact",
        "disj_error_audit",
        "disj_bound_curve",
    ),
    "cli": ("main",),
}


def _law_counts(call, result, self_ms):
    return {
        "transcripts": result.transcript_count(),
        "leaf_id_chars": sum(map(len, result.leaf_ids)),
    }


def _cost_cells(call, result, self_ms):
    return {"cells": call.arguments["law"].cond.size}


def _walk_counts(call, result, self_ms):
    return {"leaves": len(result.leaves), "pruned": len(result.pruned)}


def _disj_transcripts(call, result, self_ms):
    # exact mode returns a TranscriptLaw, sampled mode a list of runs
    count = result.transcript_count() if hasattr(result, "leaf_ids") else len(result)
    return {"transcripts": count}


def _audit_split(call, result, self_ms):
    out = {f"{result.mode}_self_ms": self_ms}
    if result.mode == "mc" and not result.trivial:
        out["mc_runs"] = result.per_input.size * call.arguments["samples"]
    return out


def _xor_counts(call, result, self_ms):
    return {"valid": result.valid, "sampled": result.sampled}


def _artifact_bytes(call, result, self_ms):
    argv = list(call.arguments["argv"] or ())
    total = 0
    for flag, value in zip(argv, argv[1:]):
        if flag.startswith("--out") and os.path.isfile(value):
            total += os.path.getsize(value)
    return {"artifact_bytes": total}


COUNTERS = {
    "infocost.law_of": _law_counts,
    "infocost.cost_report": _cost_cells,
    "protocol.walk": _walk_counts,
    "disjointness.disj_protocol": _disj_transcripts,
    "disjointness.disj_error_audit": _audit_split,
    "optimize.xor_floor_search": _xor_counts,
    "cli.main": _artifact_bytes,
}


class Tracer:
    """Records spans of the open op and accumulates per-pass layer totals."""

    def __init__(self):
        self.op_id = None
        self.op_tag = None
        self.totals = defaultdict(float)
        self.spans = []  # (op, span, parent, name, start, end) of this pass
        self.attributed = 0.0  # seconds of op time inside top-level spans
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0

    def begin_op(self, op_id, tag):
        self.op_id, self.op_tag = op_id, tag

    def end_op(self):
        self.op_id = self.op_tag = None
        self._stack.clear()

    def take_pass(self):
        """Return and reset this pass's (totals, spans, attributed seconds)."""
        out = (dict(self.totals), self.spans, self.attributed)
        self.totals = defaultdict(float)
        self.spans = []
        self.attributed = 0.0
        return out

    def _add(self, name, what, value):
        self.totals[f"{name}.{what}"] += value
        if self.op_tag is not None:
            self.totals[f"{self.op_tag}.{name}.{what}"] += value

    def wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.attributed += duration
                self_ms = (duration - frame[1]) * 1e3
                tracer.spans.append(
                    (tracer.op_id, span_id, parent, name, start, end)
                )
                tracer._add(name, "self_ms", self_ms)
                tracer._add(name, "calls", 1)
            if counter is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                for what, value in counter(call, result, self_ms).items():
                    tracer._add(name, what, value)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Route every lookup of a ``LAYERS`` function through ``tracer``."""
    modules = [
        mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "infowalk" or name.startswith("infowalk."))
    ]
    for module_name, functions in LAYERS.items():
        home = sys.modules[f"infowalk.{module_name}"]
        for function in functions:
            original = getattr(home, function)
            wrapped = tracer.wrap(f"{module_name}.{function}", original)
            for mod in modules:
                names = [k for k, v in vars(mod).items() if v is original]
                for attr in names:
                    setattr(mod, attr, wrapped)
