"""One pass of a workload in a fresh interpreter.

Usage: python3 passrun.py SPEC.json RESULT.json

The pass imports todalab and every module the workload calls (timed as
set-up), then runs the operations one after another, each starting when the
previous one ends, then reads the outputs back and checks them.  With
``"trace": true`` in the spec it wraps the layers' entry points first and
records spans.  The result, including per-operation outcomes, is written as
JSON to RESULT.json.

Set-up is timed as the CPU time of the importing thread.  On a shared host
the import's wall time also holds a wait of about 70 ms in some periods and
none in others, which would swamp any change to the import itself; the wall
time is reported too.

Untraced passes also probe the speed of the core they run on.  The cores of
a shared host run tens of percent slower or faster for seconds to minutes
at a time, and code of one kind slows alike, so a fixed reference block of
the workload's kind (small-array numpy steps for the simulations, plain
interpreter work for the exact commands) runs right before and after the
operations and on a wall-clock timer while they run.  Its times let
``run.py`` scale the pass to a core of fixed speed.  The probe's own time is
taken out of the pass's wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time


REF_INTERVAL_S = 0.07  # wall time between reference blocks while the operations run
REF_AROUND = 4  # reference blocks right before and right after the operations


def _python_block() -> None:
    acc, table = 0.0, {}
    for i in range(40_000):
        acc += (i * 7 % 13) * 0.5
        table[i & 255] = acc


def _numpy_block() -> None:
    import numpy as np  # loaded by the pass's imports

    x = np.linspace(0.0, 1.0, 4001)
    v = np.zeros_like(x)
    for _ in range(230):
        lap = np.empty_like(x)
        lap[1:-1] = x[2:] - 2.0 * x[1:-1] + x[:-2]
        lap[0] = lap[-1] = 0.0
        v = v + 1e-3 * (lap - x)
        x = x + 1e-3 * v


# Each block takes about 5 ms on an unloaded core and touches no todalab code.
REFERENCE_BLOCKS = {"python": _python_block, "numpy": _numpy_block}


def reference_block(kind: str) -> float:
    """Seconds taken by the reference block of ``kind``: a probe of how fast
    this core runs code of that kind right now."""
    t0 = perf_counter()
    REFERENCE_BLOCKS[kind]()
    return perf_counter() - t0


class HostSpeed:
    """Runs the reference block on a wall-clock timer, in the main thread
    between the pass's own bytecodes, so that it samples the speed of the
    core at the moments the pass runs.  ``samples`` holds the block times;
    ``spent_s`` the whole time the handler took, which the pass subtracts."""

    def __init__(self, kind: str, interval: float = REF_INTERVAL_S):
        self.kind, self.interval, self.samples, self.spent_s, self._busy = kind, interval, [], 0.0, False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self.samples.append(reference_block(self.kind))
        self.spent_s += perf_counter() - t0
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_op(op: dict) -> str | None:
    """Run one operation; return None on success or the failure reason."""
    try:
        if op["entry"] == "cli":
            code = sys.modules["todalab.cli"].main(op["argv"])
            return None if code == 0 else f"exit code {code}"
        experiment = sys.modules["todalab.simulate.experiment"]
        experiment.run_experiment(experiment.load_config(op["config"]), out_dir=op["out"])
        return None
    except Exception:  # an operation that raises is a failed operation
        return traceback.format_exc(limit=3)


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))

    start, cpu_start = perf_counter(), thread_time()
    for name in spec["imports"]:
        importlib.import_module(name)
    setup_wall_s = perf_counter() - start
    setup_s = thread_time() - cpu_start
    todalab = sys.modules["todalab"]
    if not Path(todalab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"todalab imported from {todalab.__file__}, not from {src}")
    import workloads  # the checks need numpy, loaded by the imports above

    tracer = present = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        present = tracing.install(tracer)
        root = tracer.begin(tracing.ROOT)

    errors: dict[str, str] = {}
    op_s: dict[str, float] = {}
    # the traced pass runs without the probe, so that its spans hold no probe
    # time; a pass that only imports has nothing for it to scale
    probe = HostSpeed(spec["reference"]) if tracer is None and spec["ops"] else None
    if probe is not None:
        probe.samples += [reference_block(probe.kind) for _ in range(REF_AROUND)]
    start = perf_counter()
    with probe.running() if probe is not None else contextlib.nullcontext():
        for op in spec["ops"]:
            if tracer is not None:
                tracer.op = op["id"]
            t0 = perf_counter()
            reason = _run_op(op)
            op_s[op["id"]] = perf_counter() - t0
            if reason is not None:
                errors[op["id"]] = reason
    wall_s = perf_counter() - start
    if probe is not None:
        wall_s -= probe.spent_s
        probe.samples += [reference_block(probe.kind) for _ in range(REF_AROUND)]
    if tracer is not None:
        tracer.op = None
        tracer.end(root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = []
    for op in spec["ops"]:
        if op["id"] in errors:
            ops.append({"id": op["id"], "ok": False, "s": op_s[op["id"]], "values": {}, "message": errors[op["id"]]})
            continue
        ok, values, message = workloads.check(op["check"])
        ops.append({"id": op["id"], "ok": ok, "s": op_s[op["id"]], "values": values, "message": message})

    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "ops": ops, "env": _versions()}
    if probe is not None:
        result["ref_s"] = probe.samples
    if tracer is not None:
        result["layers"], result["missing"] = tracing.layer_metrics(tracer, present, spec["layers"])
        result["self_sum_s"] = sum(tracing.self_times(tracer).values())
        result["node_steps"] = tracer.counts["node_steps"]
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
