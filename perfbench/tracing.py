"""Spans and counters for the traced pass, recorded from outside todalab.

``install`` wraps public entry points of each layer (and the few private
builder and writer helpers that mark a layer boundary) by replacing every
reference to the original function in the loaded ``todalab`` modules.  A
span records (name, start, end, parent, operation id) and stays in memory
until ``layer_metrics`` summarises the pass.  Self time is a span's duration
minus the time its direct children cover, so the self times of a pass sum to
the duration of its root span, the traced wall time.

Counters count calls that are too frequent for a span (model gradients,
Newton iterations) or that measure work rather than time (matrices passed
to ``expm``, reflection-factor evaluations inside the spectrum solver).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

ROOT = "bench.pass"

# span name -> entry points (module, attribute or Class.method)
SPANS = {
    "cli": [("todalab.cli", "main")],
    "simulate.run": [("todalab.simulate.experiment", "run_experiment")],
    "simulate.build": [
        ("todalab.simulate.experiment", "_build_model"),
        ("todalab.simulate.experiment", "_build_geometry"),
        ("todalab.simulate.experiment", "_build_initial"),
    ],
    "simulate.step": [("todalab.simulate.stepper", "step")],
    "simulate.observe": [("todalab.simulate.diagnostics", "diagnostics")],
    "simulate.format": [
        ("todalab.simulate.experiment", "RunResult.diagnostics_csv"),
        ("todalab.simulate.experiment", "RunResult.snapshots_csv"),
        ("todalab.simulate.experiment", "RunConfig.to_ini"),
    ],
    "simulate.write": [("todalab.simulate.experiment", "_write_atomic")],
    "laxboundary.kseries": [("todalab.laxboundary.kmatrix", "solve_k_expansion")],
    "laxboundary.adjacency": [("todalab.laxboundary.constraints", "adjacency_constraints")],
    "laxboundary.curvature": [("todalab.laxboundary.lax", "curvature_residual")],
    "laxboundary.monodromy": [("todalab.laxboundary.lax", "monodromy_charge")],
    "algebra.roots": [("todalab.algebra.roots", "build_root_system")],
    "algebra.rep": [("todalab.algebra.reps", "defining_rep")],
    "scattering.spectrum": [("todalab.scattering.spectrum", "interval_spectrum")],
}

# counter name -> (entry points, span the call must sit directly inside or None)
COUNTERS = {
    "force_evals": (
        [("todalab.simulate.models", f"{cls}.gradient") for cls in ("KleinGordon", "SineGordon", "SinhGordon", "AffineToda")],
        "simulate.step",
    ),
    # b_phiphi enters the Newton Jacobian once per iteration
    "newton_iters": (
        [("todalab.simulate.defects", f"{cls}.b_phiphi") for cls in ("FreeDefect", "SineGordonBacklund")],
        "simulate.step",
    ),
    "transport_matrices": ([("todalab.laxboundary.lax", "expm")], None),
    "reflection_evals": ([("todalab.scattering.spectrum", "free_reflection")], "scattering.spectrum"),
}

# per-layer metric -> (unit, layers it needs); self times first
SELF_TIME = {
    "bench.self_s": ROOT,
    "cli.self_s": "cli",
    "simulate.run_self_s": "simulate.run",
    "simulate.build_s": "simulate.build",
    "simulate.step_s": "simulate.step",
    "simulate.observe_s": "simulate.observe",
    "simulate.format_s": "simulate.format",
    "simulate.write_s": "simulate.write",
    "laxboundary.kseries_s": "laxboundary.kseries",
    "laxboundary.adjacency_s": "laxboundary.adjacency",
    "laxboundary.curvature_s": "laxboundary.curvature",
    "laxboundary.monodromy_s": "laxboundary.monodromy",
    "algebra.roots_s": "algebra.roots",
    "algebra.rep_s": "algebra.rep",
    "scattering.spectrum_s": "scattering.spectrum",
}
METRICS = {name: ("s", [layer]) for name, layer in SELF_TIME.items()}
METRICS.update(
    {
        "simulate.steps": ("count", ["simulate.step"]),
        "simulate.step_us": ("us", ["simulate.step"]),
        "simulate.ns_per_node_step": ("ns", ["simulate.step"]),
        "simulate.force_evals_per_step": ("count", ["simulate.step", "force_evals"]),
        "simulate.newton_iters_per_step": ("count", ["simulate.step", "newton_iters"]),
        "simulate.observe_calls": ("count", ["simulate.observe"]),
        "simulate.bytes_written": ("bytes", ["simulate.write"]),
        "laxboundary.kseries_per_system": ("count", ["laxboundary.kseries"]),
        "laxboundary.transport_matrices": ("count", ["transport_matrices"]),
        "algebra.roots_calls": ("count", ["algebra.roots"]),
        "scattering.reflection_evals_per_root": ("count", ["scattering.spectrum", "reflection_evals"]),
        "bench.traced_wall_s": ("s", [ROOT]),
    }
)
# counts that must repeat exactly between traced passes of one run
EXACT_COUNTS = [name for name, (unit, _) in METRICS.items() if unit in ("count", "bytes")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.kseries_systems: set = set()
        self.op = None
        self.top: str | None = None  # name of the innermost open span

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self.stack.append(idx)
        self.top = name
        self.spans[idx][1] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()
        self.top = self.spans[self.stack[-1]][0] if self.stack else None


def _resolve(module: str, attr: str):
    """(owner, name, function) of an entry point, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *cls, name = attr.split(".")
    for part in cls:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None) if owner is not None else None
    return None if fn is None else (owner, name, fn)


def _replace(owner, name: str, fn, wrapped) -> None:
    if isinstance(owner, type):
        setattr(owner, name, wrapped)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "todalab" or mod_name.startswith("todalab."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


def _span_wrapper(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapped


def _count_wrapper(tracer: Tracer, key: str, fn, within: str | None):
    if within is None:  # expm: a stack of cell generators counts each matrix

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            shape = getattr(args[0], "shape", ())
            tracer.counts[key] += shape[0] if len(shape) == 3 else 1
            return fn(*args, **kwargs)

        return wrapped

    counts = tracer.counts

    @functools.wraps(fn)
    def wrapped_within(*args, **kwargs):
        if tracer.top == within:
            counts[key] += 1
        return fn(*args, **kwargs)

    return wrapped_within


def _nodes(geometry) -> int:
    grid = geometry.grid
    return grid.n_cells if geometry.kind == "periodic" else grid.n_cells + 1


def install(tracer: Tracer) -> set[str]:
    """Wrap every entry point; return the layers whose entry points all exist."""
    counts = tracer.counts

    def after_step(args, kwargs, result):
        counts["steps"] += 1
        counts["node_steps"] += _nodes(args[2] if len(args) > 2 else kwargs["geometry"])

    def after_write(args, kwargs, result):
        counts["bytes_written"] += len(args[1] if len(args) > 1 else kwargs["text"])

    def after_kseries(args, kwargs, result):
        tracer.kseries_systems.add((tracer.op, args[0].name))

    def after_spectrum(args, kwargs, result):
        counts["spectrum_roots"] += len(result)

    hooks = {
        "simulate.step": after_step,
        "simulate.write": after_write,
        "laxboundary.kseries": after_kseries,
        "scattering.spectrum": after_spectrum,
    }
    present = set()
    for name, points in SPANS.items():
        resolved = [_resolve(*p) for p in points]
        if all(resolved):
            present.add(name)
        for r in filter(None, resolved):
            _replace(*r, _span_wrapper(tracer, name, r[2], hooks.get(name)))
    for key, (points, within) in COUNTERS.items():
        resolved = [r for r in (_resolve(*p) for p in points) if r]
        if resolved:
            present.add(key)
        for r in resolved:
            _replace(*r, _count_wrapper(tracer, key, r[2], within))
    return present


def self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per span name, summed over the pass."""
    covered = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter()
    for (name, start, end, _, _), child in zip(tracer.spans, covered):
        out[name] += (end - start) - child
    return dict(out)


def layer_metrics(tracer: Tracer, present: set[str], expected: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the metrics that are missing.

    A metric is missing when a layer it needs is expected on the workload
    but its entry point is gone or was never called; it is then left out,
    never reported as zero.  Layers a workload is not expected to call
    report zero.
    """
    selfs = self_times(tracer)
    calls = Counter(span[0] for span in tracer.spans)
    recorded = set(calls) | {k for k, v in tracer.counts.items() if v}
    c = tracer.counts
    steps = c["steps"]

    def per(n, d):
        return n / d if d else 0.0

    root = next(s for s in tracer.spans if s[0] == ROOT)
    values = {name: selfs.get(layer, 0.0) for name, layer in SELF_TIME.items()}
    values.update(
        {
            "simulate.steps": steps,
            "simulate.step_us": per(selfs.get("simulate.step", 0.0) * 1e6, steps),
            "simulate.ns_per_node_step": per(selfs.get("simulate.step", 0.0) * 1e9, c["node_steps"]),
            "simulate.force_evals_per_step": per(c["force_evals"], steps),
            "simulate.newton_iters_per_step": per(c["newton_iters"], steps),
            "simulate.observe_calls": calls["simulate.observe"],
            "simulate.bytes_written": c["bytes_written"],
            "laxboundary.kseries_per_system": per(calls["laxboundary.kseries"], len(tracer.kseries_systems)),
            "laxboundary.transport_matrices": c["transport_matrices"],
            "algebra.roots_calls": calls["algebra.roots"],
            "scattering.reflection_evals_per_root": per(c["reflection_evals"], c["spectrum_roots"]),
            "bench.traced_wall_s": root[2] - root[1],
        }
    )
    missing = []
    for name, (_, needs) in METRICS.items():
        gone = [n for n in needs if n in expected and (n not in present or n not in recorded)]
        if gone:
            missing.append(f"{name} (layer {', '.join(gone)} not called)")
            del values[name]
    return values, missing
