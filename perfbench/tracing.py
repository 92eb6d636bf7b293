"""Per-layer tracing of corona-lab, done from outside the program.

A :class:`Tracer` replaces public functions of the corona_lab modules with
timing wrappers, in every module that holds the same function object (for
example ``op_norm`` in both ``operators`` and ``weak_units``), and puts the
originals back on :meth:`Tracer.uninstall`.  Each wrapped call is a span;
a span's self time is its duration minus that of the wrapped calls it made.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

MB = float(1 << 20)

#: per-layer metrics of a traced run, with their units
PER_LAYER = (
    ("partitions.fx_profile.calls", "count"),
    ("partitions.fx_profile.s", "s"),
    ("partitions.windows", "count"),
    ("partitions.window_samples", "count"),
    ("partitions.nonzero_window_share", "ratio"),
    ("torus.mul.calls", "count"),
    ("torus.mul.s", "s"),
    ("torus.samples", "count"),
    ("tree.generate_chain.s", "s"),
    ("tree.build_tree.s", "s"),
    ("tree.build_tree.self_s", "s"),
    ("tree.certificates", "count"),
    ("tree.to_json.s", "s"),
    ("cli.emit.s", "s"),
    ("cli.emit.mb", "MB"),
    ("operators.op_norm.calls", "count"),
    ("operators.op_norm.s", "s"),
    ("operators.op_norm.dense_calls", "count"),
    ("operators.op_norm.iter_calls", "count"),
    ("operators.op_norm.iter_s", "s"),
    ("operators.op_norm.calls_per_level", "calls/point"),
    ("operators.stratify.s", "s"),
    ("operators.stratify.select_s", "s"),
    ("operators.stratify_against.s", "s"),
    ("operators.reconstruction_residual.s", "s"),
    ("operators.dd_check.s", "s"),
    ("torus.fuzz_lij.s", "s"),
    ("torus.fuzz_lij.cases", "count"),
    ("weak_units.hyp_check.s", "s"),
    ("weak_units.quasi_unitary_residual.s", "s"),
    ("weak_units.epsilon_witness.calls", "count"),
    ("limits.smith_normal_form.calls", "count"),
    ("limits.smith_normal_form.s", "s"),
    ("limits.smith_normal_form.max_bits", "bits"),
    ("limits.row_hermite.calls", "count"),
    ("limits.row_hermite.s", "s"),
    ("limits.lim_tower.s", "s"),
    ("limits.lim1_tower.s", "s"),
    ("limits.six_term_check.s", "s"),
    ("trace.overhead_pct", "%"),
)


def _fx_profile(stats, result, args, kwargs, parent, dt):
    pts = (args[1] if len(args) > 1 else kwargs["X"]).enumeration
    parts = [(result.d, pts[2:] - pts[:-2])]
    if result.d_single is not None:
        parts.append((result.d_single, pts[1:] - pts[:-1]))
    for d, lengths in parts:
        stats["partitions.windows"] += d.size
        stats["partitions.window_samples"] += int(lengths.sum())
        stats["partitions.nonzero_windows"] += int(np.count_nonzero(d > 0))


def _op_norm(dense_dim):
    def hook(stats, result, args, kwargs, parent, dt):
        if max(np.shape(np.atleast_2d(args[0]))) > dense_dim:
            stats["operators.op_norm.iter_calls"] += 1
            stats["operators.op_norm.iter_s"] += dt
        else:
            stats["operators.op_norm.dense_calls"] += 1
        if parent == "operators.stratify":
            stats["operators.op_norm.selection_calls"] += 1

    return hook


def _stratify(stats, result, args, kwargs, parent, dt):
    stats["operators.stratify.points"] += result.X.enumeration.size


def _stratify_against(stats, result, args, kwargs, parent, dt):
    if parent == "operators.stratify":
        stats["operators.stratify.against_s"] += dt


def _emit(stats, result, args, kwargs, parent, dt):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    if out:
        stats["cli.emit.mb"] += os.path.getsize(out) / MB


def _build_tree(stats, result, args, kwargs, parent, dt):
    stats["tree.certificates"] += len(result.certificates)


def _fuzz_lij(stats, result, args, kwargs, parent, dt):
    stats["torus.fuzz_lij.cases"] += args[0] if args else kwargs["n"]


def _smith(stats, result, args, kwargs, parent, dt):
    bits = max((abs(x).bit_length() for M in result for row in M for x in row), default=0)
    stats["limits.smith_normal_form.max_bits"] = max(
        stats["limits.smith_normal_form.max_bits"], bits
    )


class Tracer:
    """Spans and counters around corona-lab's public functions."""

    def __init__(self):
        self.stats = defaultdict(float)
        self._stack = []
        self._patches = []

    def install(self) -> None:
        from corona_lab import cli, limits, operators, partitions, torus, tree, weak_units

        functions = (
            (partitions, "fx_profile", "partitions.fx_profile", _fx_profile),
            (tree, "generate_chain", "tree.generate_chain", None),
            (tree, "build_tree", "tree.build_tree", _build_tree),
            (cli, "_emit", "cli.emit", _emit),
            (operators, "op_norm", "operators.op_norm", _op_norm(operators.DENSE_NORM_DIM)),
            (operators, "stratify", "operators.stratify", _stratify),
            (operators, "stratify_against", "operators.stratify_against", _stratify_against),
            (operators, "dd_check", "operators.dd_check", None),
            (torus, "fuzz_lij", "torus.fuzz_lij", _fuzz_lij),
            (weak_units, "hyp_check", "weak_units.hyp_check", None),
            (weak_units, "quasi_unitary_residual", "weak_units.quasi_unitary_residual", None),
            (weak_units, "epsilon_witness", "weak_units.epsilon_witness", None),
            (limits, "smith_normal_form", "limits.smith_normal_form", _smith),
            (limits, "row_hermite", "limits.row_hermite", None),
            (limits, "lim_tower", "limits.lim_tower", None),
            (limits, "lim1_tower", "limits.lim1_tower", None),
            (limits, "six_term_check", "limits.six_term_check", None),
        )
        holders = [m for name, m in sys.modules.items() if name.startswith("corona_lab")]
        for module, attr, name, hook in functions:
            original = getattr(module, attr)
            wrapper = self._span(name, original, hook)
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._patch(holder, attr, wrapper)

        methods = (
            (torus.TorusElement, "mul", "torus.mul"),
            (tree.CoherenceTree, "to_json", "tree.to_json"),
            (operators.DDWitness, "reconstruction_residual", "operators.reconstruction_residual"),
        )
        for cls, attr, name in methods:
            self._patch(cls, attr, self._span(name, getattr(cls, attr), None))

        post_init = torus.TorusElement.__post_init__
        stats = self.stats

        def counted_post_init(element):
            post_init(element)
            stats["torus.samples"] += element.phases.size

        self._patch(torus.TorusElement, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.stats.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name, fn, hook):
        stack, stats = self._stack, self.stats

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats[name + ".calls"] += 1
                stats[name + ".s"] += dt
                stats[name + ".self_s"] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(stats, result, args, kwargs, stack[-1][0] if stack else None, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, overhead_pct: float) -> dict:
        """Every per-layer metric, with derived ratios filled in."""
        s = dict(self.stats)
        windows = s.get("partitions.windows", 0.0)
        s["partitions.nonzero_window_share"] = (
            s.get("partitions.nonzero_windows", 0.0) / windows if windows else 0.0
        )
        points = s.get("operators.stratify.points", 0.0)
        s["operators.op_norm.calls_per_level"] = (
            s.get("operators.op_norm.selection_calls", 0.0) / points if points else 0.0
        )
        s["operators.stratify.select_s"] = s.get("operators.stratify.s", 0.0) - s.get(
            "operators.stratify.against_s", 0.0
        )
        s["trace.overhead_pct"] = overhead_pct
        return {name: {"value": float(s.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
