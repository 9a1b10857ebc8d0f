"""Outside-in stage trace for the catacaustics package.

The tracer replaces public functions at the attribute their caller looks up
(``catacaustics.caustics.eval_surface`` and ``catacaustics.oracle.eval_surface``
are patched separately), so every span lands in the layer that did the work
without any change to the package.  Spans nest through a stack; each span
records its name, its parent and its start and end.  Counters come from the
public return values: the residual of ``solve_sheet_curvatures``, the flags of
the sheets, the ``ValidationReport`` and the byte count of ``export_mesh``.

A patched name that does not exist is recorded as absent, not raised, so the
trace keeps working when a later version deletes or merges a function.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# flag bits of the per-vertex reason byte (catacaustics.caustics.FLAG_*)
FLAG_VALID = 0x01
FLAG_SHADOW = 0x02
FLAG_GRAZING = 0x04


def _observe_eval(counters, args, kwargs, result):
    u = args[1] if len(args) > 1 else kwargs["u"]
    v = args[2] if len(args) > 2 else kwargs["v"]
    counters["surfacelang.eval_calls"] += 1
    counters["surfacelang.eval_points"] += np.broadcast(np.asarray(u), np.asarray(v)).size


def _observe_compute(counters, args, kwargs, result):
    sheet1, sheet2, _ = result
    n = sheet1.flags.size
    lit = (sheet1.flags & (FLAG_SHADOW | FLAG_GRAZING)) == 0
    counters["caustics.points"] += n
    counters["caustics.lit"] += int(np.count_nonzero(lit))
    counters["caustics.valid"] += int(np.count_nonzero(sheet1.flags & FLAG_VALID))
    counters["caustics.valid"] += int(np.count_nonzero(sheet2.flags & FLAG_VALID))


def _observe_solve(counters, args, kwargs, result):
    residual = float(result[2])
    counters["caustics.crosscheck_residual"] = max(
        counters["caustics.crosscheck_residual"], residual)


def _observe_validate(counters, args, kwargs, result):
    counters["oracle.points"] += 2 * result.n_points
    counters["oracle.compared"] += result.n_compared
    counters["oracle.flag_mismatches"] += result.n_flag_disagreements
    if result.n_compared:  # max_error is inf when nothing was compared
        counters["oracle.max_err"] = max(counters["oracle.max_err"], result.max_error)


def _observe_export(counters, args, kwargs, result):
    counters["meshio.bytes"] += int(result)


def _export_name(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs["fmt"]
    return f"meshio.export_{fmt}"


# (module, attribute, span name or name function, observer)
TARGETS = (
    ("catacaustics.cli", "main", "cli.main", None),
    ("catacaustics.cli", "parse_surface_definition", "surfacelang.parse", None),
    ("catacaustics.surfaces", "parse_surface", "surfacelang.parse", None),
    ("catacaustics.cli", "compute_caustic_sheets", "caustics.compute", _observe_compute),
    ("catacaustics.cli", "validate_sheets", "oracle.validate", _observe_validate),
    ("catacaustics.cli", "clip_sheet", "meshio.clip", None),
    ("catacaustics.cli", "export_mesh", _export_name, _observe_export),
    ("catacaustics.cli", "eval_surface", "surfacelang.eval", _observe_eval),
    ("catacaustics.cli", "frame_at", "diffgeo.frame", None),
    ("catacaustics.cli", "fundamental_forms", "diffgeo.forms", None),
    ("catacaustics.cli", "reflection_data", "caustics.reflection", None),
    ("catacaustics.cli", "reflected_front_point", "caustics.front", None),
    ("catacaustics.caustics", "eval_surface", "surfacelang.eval", _observe_eval),
    ("catacaustics.caustics", "frame_at", "diffgeo.frame", None),
    ("catacaustics.caustics", "fundamental_forms", "diffgeo.forms", None),
    ("catacaustics.caustics", "reflection_data", "caustics.reflection", None),
    ("catacaustics.caustics", "modified_forms", "caustics.modified_forms", None),
    ("catacaustics.caustics", "caustic_coefficients", "caustics.coefficients", None),
    ("catacaustics.caustics", "solve_sheet_curvatures", "caustics.solve", _observe_solve),
    ("catacaustics.caustics", "caustic_point", "caustics.place", None),
    ("catacaustics.oracle", "eval_surface", "oracle.eval", None),
)


class Tracer:
    """Records nested spans and counters in memory; ``dump`` returns them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, parent index or -1, start, end]
        self.counters = defaultdict(float)
        self.overhead_s = 0.0
        self.absent = []
        self._stack = []

    def install(self, targets=TARGETS):
        for module_name, attr, name, observe in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, observe))

    def wrap(self, fn, name, observe=None):
        clock, spans, stack = self.clock, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            span = [label, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                span[2], span[3] = t1, t2
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            self.overhead_s += (t1 - t0) + (clock() - t2)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "overhead_s": self.overhead_s, "absent": self.absent}


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its children.

    ``spans`` is a list of (name, parent index or -1, start, end).  Child
    intervals are clipped to the parent and merged, so overlapping children
    are not subtracted twice.
    """
    children = defaultdict(list)
    for index, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


# every per-layer metric with its unit; times and counts are per operation
LAYER_UNITS = {
    "meshio.export_obj_s": "s", "meshio.export_csv_s": "s", "meshio.export_ply_s": "s",
    "meshio.bytes": "bytes", "meshio.mb_per_s": "MB/s", "meshio.clip_s": "s",
    "caustics.compute_s": "s", "caustics.compute_self_s": "s", "caustics.solve_s": "s",
    "caustics.reflection_s": "s", "caustics.modified_forms_s": "s",
    "caustics.coefficients_s": "s", "caustics.place_s": "s", "caustics.front_s": "s",
    "diffgeo.frame_s": "s", "diffgeo.forms_s": "s",
    "surfacelang.eval_s": "s", "surfacelang.eval_calls": "count",
    "surfacelang.eval_points": "count", "surfacelang.parse_s": "s",
    "cli.self_s": "s",
    "oracle.validate_s": "s", "oracle.self_s": "s", "oracle.eval_s": "s",
    "caustics.lit_frac": "frac", "caustics.valid_frac": "frac",
    "caustics.crosscheck_residual": "1/length",
    "oracle.compared_frac": "frac", "oracle.flag_mismatches": "count",
    "oracle.max_err": "length",
    "trace.overhead_frac": "frac",
}

# per-layer metric name -> span name whose total duration it reports
DURATION_METRICS = {
    "caustics.compute_s": "caustics.compute",
    "caustics.solve_s": "caustics.solve",
    "caustics.reflection_s": "caustics.reflection",
    "caustics.modified_forms_s": "caustics.modified_forms",
    "caustics.coefficients_s": "caustics.coefficients",
    "caustics.place_s": "caustics.place",
    "caustics.front_s": "caustics.front",
    "diffgeo.frame_s": "diffgeo.frame",
    "diffgeo.forms_s": "diffgeo.forms",
    "surfacelang.eval_s": "surfacelang.eval",
    "surfacelang.parse_s": "surfacelang.parse",
    "meshio.export_obj_s": "meshio.export_obj",
    "meshio.export_csv_s": "meshio.export_csv",
    "meshio.export_ply_s": "meshio.export_ply",
    "meshio.clip_s": "meshio.clip",
    "oracle.validate_s": "oracle.validate",
    "oracle.eval_s": "oracle.eval",
}

# per-layer metric name -> span name whose self time it reports
SELF_METRICS = {
    "caustics.compute_self_s": "caustics.compute",
    "oracle.self_s": "oracle.validate",
    "cli.self_s": "cli.main",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dumps) -> dict:
    """Per-operation layer metrics from the dumps of one or more traced processes.

    An operation is a root span, that is one call of the CLI's ``main``.
    """
    duration = defaultdict(float)
    self_time = defaultdict(float)
    counters = defaultdict(float)
    overhead = root = 0.0
    n_ops = 0
    for dump in dumps:
        spans = dump["spans"]
        for (name, parent, start, end), own in zip(spans, self_times(spans)):
            duration[name] += end - start
            self_time[name] += own
            if parent < 0:
                root += end - start
                n_ops += 1
        for key, value in dump["counters"].items():
            if key in ("caustics.crosscheck_residual", "oracle.max_err"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        overhead += dump["overhead_s"]

    n_ops = max(n_ops, 1)
    out = {m: duration[s] / n_ops for m, s in DURATION_METRICS.items()}
    out.update({m: self_time[s] / n_ops for m, s in SELF_METRICS.items()})
    export_s = sum(duration[s] for s in ("meshio.export_obj", "meshio.export_csv",
                                         "meshio.export_ply"))
    out["meshio.bytes"] = counters["meshio.bytes"] / n_ops
    out["meshio.mb_per_s"] = _ratio(counters["meshio.bytes"] / 1e6, export_s)
    out["surfacelang.eval_calls"] = counters["surfacelang.eval_calls"] / n_ops
    out["surfacelang.eval_points"] = counters["surfacelang.eval_points"] / n_ops
    out["caustics.lit_frac"] = _ratio(counters["caustics.lit"], counters["caustics.points"])
    out["caustics.valid_frac"] = _ratio(counters["caustics.valid"],
                                        2 * counters["caustics.points"])
    out["caustics.crosscheck_residual"] = counters["caustics.crosscheck_residual"]
    out["oracle.compared_frac"] = _ratio(counters["oracle.compared"], counters["oracle.points"])
    out["oracle.flag_mismatches"] = counters["oracle.flag_mismatches"] / n_ops
    out["oracle.max_err"] = counters["oracle.max_err"]
    out["trace.overhead_frac"] = _ratio(overhead, root)
    return out
