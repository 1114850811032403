"""todalab benchmark: what a user of todalab waits for, on seeded workloads.

Usage, from the root of a todalab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each pass runs in a fresh interpreter, which
imports everything first (timed as set-up) and then runs the workload's
operations one after another, each starting when the previous one ends.
Passes repeat until ``--seconds`` is spent; timings are medians over passes.
Every operation's outputs are read back and checked.

Pass times are reported at a fixed core speed.  The cores of a shared host
run tens of percent slower or faster for seconds to minutes at a time, so
each untraced pass times a fixed reference block of the workload's kind on
its core while it runs (see ``passrun.py``), and its wall time is scaled by
the block's mean rate in the pass to a core that runs the block in
``REF_NOMINAL_S``.  Set-up is the importing thread's CPU time, timed in
passes that only import, run between the others.  Each is followed by a
reference import of modules that hold no todalab code (``importref.py``);
the median ratio of the two is reported at a host that runs the reference
import in ``REF_IMPORT_NOMINAL_S``.  The raw times are printed too.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
describe the machine, the inputs, every failed operation and the accuracy
numbers behind the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".perfbench_work"
DEADLINE_S = 170.0  # the whole run, set-up included
MIN_PASSES = 3  # per run with --trace 0; with --trace 1, 2 of each kind
SETUP_SHARE = 0.1  # share of the run spent in passes that only import
# The reference blocks' time on an unloaded core of the 2-CPU Xeon host the
# benchmark was tuned on (about 5 ms each); pass times are scaled to it.
REF_NOMINAL_S = 0.005
# The reference import's CPU time on the same host (see importref.py).
REF_IMPORT_NOMINAL_S = 0.28
END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "node_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}
ACCURACY = {"energy_drift_rel": "rel", "pu_drift_rel": "rel", "freq_err_rel": "rel"}


def environment(root: Path, child_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        **child_env,
        "blas_thread_vars": {v: os.environ.get(v, "unset") for v in threads},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def at_ref_speed(seconds: float, ref_s: list[float]) -> float:
    """``seconds`` of work scaled to a core that runs the reference block in
    ``REF_NOMINAL_S``, by the block's mean rate over the times in ``ref_s``."""
    return seconds * REF_NOMINAL_S * statistics.fmean(1.0 / d for d in ref_s)


class Runner:
    def __init__(self, root: Path, spec: dict, work: Path, deadline: float):
        self.root, self.spec, self.work, self.deadline = root, spec, work, deadline

    def run_pass(self, trace: bool, ops: list | None = None) -> dict:
        """One pass in a fresh interpreter; its outputs are removed first."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        spec = dict(self.spec, root=str(self.root), trace=trace)
        if ops is not None:
            spec["ops"] = ops
        spec_path, result_path = self.work / "pass.json", self.work / "result.json"
        spec_path.write_text(json.dumps(spec))
        result_path.unlink(missing_ok=True)
        timeout = max(1.0, self.deadline - perf_counter())
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), str(spec_path), str(result_path)],
            cwd=self.root, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"pass exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(result_path.read_text())

    def reference_import(self) -> float:
        """CPU seconds of the reference import in a fresh interpreter."""
        timeout = max(1.0, self.deadline - perf_counter())
        proc = subprocess.run(
            [sys.executable, str(HERE / "importref.py")], cwd=self.root, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"reference import exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return float(proc.stdout)


def measure(runner: Runner, seconds: float, trace: bool,
            min_passes: int = MIN_PASSES) -> tuple[list[tuple[bool, dict]], list[tuple[float, float]]]:
    """Passes for ``seconds`` (at least ``min_passes`` of each kind), as
    (traced, result), and (set-up, reference import) time pairs.  With
    ``trace`` the passes alternate untraced, traced.  After each, passes
    that only import, each followed by a reference import, run until they
    have taken ``SETUP_SHARE`` of the time so far.  A pass is not started if
    the median pass so far would overrun."""
    kinds = [False, True] if trace else [False]
    passes: list[tuple[bool, dict]] = []
    setups: list[tuple[float, float]] = []
    durations: list[float] = []
    setup_time = 0.0
    start = perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        done = sum(1 for t, _ in passes if t == traced)
        elapsed = perf_counter() - start
        if done >= min_passes and elapsed + statistics.median(durations) > seconds:
            break
        t0 = perf_counter()
        passes.append((traced, runner.run_pass(traced)))
        durations.append(perf_counter() - t0)
        while setup_time < SETUP_SHARE * (perf_counter() - start):
            t0 = perf_counter()
            setups.append((runner.run_pass(False, ops=[])["setup_s"], runner.reference_import()))
            setup_time += perf_counter() - t0
    return passes, setups


def summarize(spec: dict, passes: list[tuple[bool, dict]], setups: list[tuple[float, float]],
              trace: bool) -> tuple[dict, list[str], int, int, bool]:
    """(metrics, report lines, attempted, failed, correct) of a run."""
    lines = []
    attempted = failed = 0
    accuracy: dict[str, float] = {}
    for traced, result in passes:
        for op in result["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                lines.append(f"FAILED {op['id']} ({'traced' if traced else 'untraced'} pass): {op['message']}")
            for key, value in op["values"].items():
                accuracy[key] = max(accuracy.get(key, 0.0), value)
    correct = failed == 0
    plain = [r for t, r in passes if not t]
    wall = [r["wall_s"] for r in plain]
    setup = [r["setup_wall_s"] for r in plain]
    wall_ref = [at_ref_speed(r["wall_s"], r["ref_s"]) for r in plain]
    block = statistics.median(d for r in plain for d in r["ref_s"])
    lines.append(
        f"passes: {len(plain)} untraced, {len(passes) - len(plain)} traced; raw wall_s median "
        f"{statistics.median(wall):.4f} min {min(wall):.4f} max {max(wall):.4f}; set-up wall time median "
        f"{statistics.median(setup):.4f} min {min(setup):.4f} max {max(setup):.4f}"
    )
    setup_cpu, ref_cpu = zip(*setups)
    lines.append(
        f"set-up CPU time over {len(setups)} interpreters: median {statistics.median(setup_cpu):.4f} "
        f"min {min(setup_cpu):.4f} max {max(setup_cpu):.4f}; reference import median "
        f"{statistics.median(ref_cpu):.4f} min {min(ref_cpu):.4f} max {max(ref_cpu):.4f} "
        f"(nominal {REF_IMPORT_NOMINAL_S})"
    )
    lines.append(
        f"core speed: {spec['reference']} reference block median {block * 1e3:.3f} ms "
        f"(nominal {REF_NOMINAL_S * 1e3:.3f} ms); wall_ref_s per pass {' '.join(f'{w:.4f}' for w in wall_ref)}"
    )
    lines.append(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for key, unit in ACCURACY.items():
        shown = f"{accuracy[key]:.6g} {unit} (worst over passes)" if key in accuracy else "n/a on this workload"
        lines.append(f"{key} = {shown}")

    if not trace:
        wall_ref_s = statistics.median(wall_ref)
        metrics = {
            "setup_s": statistics.median(s / r for s, r in setups) * REF_IMPORT_NOMINAL_S,
            "wall_ref_s": wall_ref_s,
            "node_steps_per_s": spec["node_steps"] / wall_ref_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "pass_frac": (attempted - failed) / attempted,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, lines, attempted, failed, correct

    traced = [r for t, r in passes if t]
    for r in traced:
        wall_t = r["layers"].get("bench.traced_wall_s")
        if wall_t is None or abs(r["self_sum_s"] - wall_t) > 1e-9 * max(1.0, wall_t):
            raise RuntimeError(f"self times sum to {r['self_sum_s']}, traced wall is {wall_t}")
    missing = sorted({m for r in traced for m in r["missing"]})
    for m in missing:
        lines.append(f"MISSING per-layer metric {m}")
    metrics = {}
    for name, (unit, _) in tracing.METRICS.items():
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if len(values) < len(traced):
            continue
        if name in tracing.EXACT_COUNTS and len(set(values)) > 1:
            lines.append(f"NOT REPEATED {name}: {values}")
            correct = False
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    node_steps = {r["node_steps"] for r in traced}
    if node_steps != {spec["node_steps"]}:
        lines.append(f"NODE-STEPS {sorted(node_steps)} stepped, {spec['node_steps']} asked for by the inputs")
        correct = False
    untraced_wall = statistics.median(wall)
    metrics["bench.trace_overhead_frac"] = {
        "value": (statistics.median(r["layers"]["bench.traced_wall_s"] for r in traced) - untraced_wall) / untraced_wall,
        "unit": "frac",
    }
    selfs = sorted(((m["value"], k) for k, m in metrics.items() if k in tracing.SELF_TIME), reverse=True)
    lines.append("self time by layer: " + ", ".join(f"{k} {v:.4f}" for v, k in selfs if v > 0))
    return metrics, lines, attempted, failed, correct


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "todalab" / "__init__.py").is_file():
        print(f"perfbench: no todalab source under {root / 'src'}; run from a todalab checkout", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        spec = workloads.build(args.workload, args.seed, work, tiny=tiny)
        runner = Runner(root, spec, work, deadline)
        # An unmeasured pass that only imports: it compiles bytecode and warms
        # the file cache, which a user pays once per install, not per command.
        warm = runner.run_pass(False, ops=[])
        print("environment: " + json.dumps(environment(root, warm["env"])))
        print(f"workload {args.workload} seed {args.seed}: {json.dumps(spec['params'])}; why: {workloads.WHY[args.workload]}")
        min_passes = 2 if args.trace else (1 if tiny else MIN_PASSES)
        passes, setups = measure(runner, args.seconds, bool(args.trace), min_passes=min_passes)
        metrics, lines, attempted, failed, correct = summarize(spec, passes, setups, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # On SIGTERM unwind like an exception, so that subprocess.run kills and
    # waits for the running pass and main removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
