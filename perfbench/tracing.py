"""Spans around the public functions of each duffspec layer.

The tracer wraps a function by rebinding its name in every loaded
``duffspec`` module that holds it, so calls from inside the package are
seen as well as calls from the benchmark.  Each call records a span
(name, start, end, parent, and a few facts about its arguments or
result) in memory.  A layer's self time is a span's duration minus the
time its direct child spans cover.
"""

import contextlib
import json
import sys
import time

import numpy as np

# (span name, defining module, function).  The span name is
# "<layer>.<function>".
TRACED = [
    ("closedform.dw_response_grid", "duffspec.closedform", "dw_response_grid"),
    ("perturbation.onset_scan", "duffspec.perturbation", "onset_scan"),
    ("perturbation.fano_fit", "duffspec.perturbation", "fano_fit"),
    ("lindblad.build_superoperator", "duffspec.lindblad", "build_superoperator"),
    ("lindblad.steady_state", "duffspec.lindblad", "steady_state"),
    ("lindblad.solve_steady_state_adaptive", "duffspec.lindblad", "solve_steady_state_adaptive"),
    ("lindblad.low_lying_spectrum", "duffspec.lindblad", "low_lying_spectrum"),
    ("lindblad.metastable_extremes", "duffspec.lindblad", "metastable_extremes"),
    ("semiclassical.classical_steady_states", "duffspec.semiclassical", "classical_steady_states"),
    ("phasespace.wigner_many", "duffspec.phasespace", "wigner_many"),
    ("phasespace.local_maxima", "duffspec.phasespace", "local_maxima"),
    ("fock.von_neumann_entropy", "duffspec.fock", "von_neumann_entropy"),
    ("sweep.run_sweep_to_dir", "duffspec.sweep", "run_sweep_to_dir"),
    ("sweep.analyze", "duffspec.sweep", "analyze"),
    ("cli.main", "duffspec.cli", "main"),
]

# Every per-layer metric, with its unit, in the order they are reported.
LAYER_METRICS = [
    ("closedform.dw_response_grid.calls", "count"),
    ("closedform.dw_response_grid.self_s", "s"),
    ("closedform.cells", "count"),
    ("closedform.escalated_cells", "count"),
    ("closedform.max_rel_err", "1"),
    ("perturbation.onset_scan.self_s", "s"),
    ("perturbation.onset_scan.grid_calls", "count"),
    ("perturbation.onset_slope_err", "1"),
    ("perturbation.fano_fit.calls", "count"),
    ("perturbation.fano_fit.self_s", "s"),
    ("lindblad.build_superoperator.calls", "count"),
    ("lindblad.build_superoperator.self_s", "s"),
    ("lindblad.steady_state.calls", "count"),
    ("lindblad.steady_state.self_s", "s"),
    ("lindblad.solve_steady_state_adaptive.calls", "count"),
    ("lindblad.solve_steady_state_adaptive.self_s", "s"),
    ("lindblad.adaptive_doublings", "count"),
    ("lindblad.final_dim_max", "levels"),
    ("lindblad.low_lying_spectrum.calls", "count"),
    ("lindblad.low_lying_spectrum.self_s", "s"),
    ("lindblad.metastable_extremes.self_s", "s"),
    ("lindblad.max_gap_vs_closedform", "1"),
    ("lindblad.max_residual", "1"),
    ("semiclassical.classical_steady_states.calls", "count"),
    ("semiclassical.classical_steady_states.self_s", "s"),
    ("phasespace.wigner_many.calls", "count"),
    ("phasespace.wigner_many.self_s", "s"),
    ("phasespace.wigner_points", "count"),
    ("phasespace.local_maxima.self_s", "s"),
    ("phasespace.max_integral_err", "1"),
    ("fock.von_neumann_entropy.calls", "count"),
    ("fock.von_neumann_entropy.self_s", "s"),
    ("sweep.run_sweep_to_dir.self_s", "s"),
    ("sweep.analyze.self_s", "s"),
    ("sweep.bytes_written", "B"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]

def _facts(name, result):
    """A few numbers about a call's result, kept on its span."""
    if name == "closedform.dw_response_grid":
        values, tails = result
        return {"cells": int(values.size), "escalated": int(np.count_nonzero(tails == 0.0))}
    if name == "lindblad.solve_steady_state_adaptive":
        _, dim, residual = result
        return {"dim": int(dim), "residual": float(residual)}
    if name == "phasespace.wigner_many":
        return {"points": int(sum(grid.values.size for grid in result))}
    return None


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._rebound = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None, "facts": None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span["end"] = time.perf_counter()
            span["facts"] = _facts(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "duffspec"]
        for name, home, attr in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._rebound):
            setattr(module, key, original)
        self._rebound.clear()
        return False

    @contextlib.contextmanager
    def paused(self):
        """Restore the original functions for the duration of the block."""
        self.__exit__()
        try:
            yield
        finally:
            self.__enter__()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def layer_totals(spans):
    """Per-layer counts and self times from one pass's spans."""
    durations = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s["parent"] is not None:
            child_time[s["parent"]] += d
    out = {name + ".calls": 0 for name, _, _ in TRACED}
    out.update({name + ".self_s": 0.0 for name, _, _ in TRACED})
    out.update(
        {
            "closedform.cells": 0,
            "closedform.escalated_cells": 0,
            "perturbation.onset_scan.grid_calls": 0,
            "lindblad.adaptive_doublings": 0,
            "lindblad.final_dim_max": 0,
            "lindblad.max_residual": 0.0,
            "phasespace.wigner_points": 0,
            "trace.spans": len(spans),
        }
    )
    builds_in = {}
    for k, s in enumerate(spans):
        name = s["name"]
        out[name + ".calls"] += 1
        out[name + ".self_s"] += durations[k] - child_time[k]
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
        if name == "closedform.dw_response_grid" and parent == "perturbation.onset_scan":
            out["perturbation.onset_scan.grid_calls"] += 1
        adaptive = parent == "lindblad.solve_steady_state_adaptive"
        if name == "lindblad.build_superoperator" and adaptive:
            builds_in[s["parent"]] = builds_in.get(s["parent"], 0) + 1
        facts = s["facts"] or {}
        out["closedform.cells"] += facts.get("cells", 0)
        out["closedform.escalated_cells"] += facts.get("escalated", 0)
        out["phasespace.wigner_points"] += facts.get("points", 0)
        if "dim" in facts:
            out["lindblad.final_dim_max"] = max(out["lindblad.final_dim_max"], facts["dim"])
            out["lindblad.max_residual"] = max(out["lindblad.max_residual"], facts["residual"])
    out["lindblad.adaptive_doublings"] = sum(n - 1 for n in builds_in.values())
    return out
