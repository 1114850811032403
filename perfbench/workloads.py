"""Seeded workloads: the input files of one pass, its operations, and the
checks that read its outputs back.

The seed picks physical parameters only.  Grid sizes, step counts and the
list of operations are fixed per workload, so the work done by a pass does
not depend on the seed.  The program never sees the seed: it receives INI
files and command-line flags written here.

Check thresholds are those of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

import numpy as np

WHY = {
    "halfline_dense_observe": (
        "KG half-line Robin bound state, 4000 cells, diagnostics every 2 steps: stepping (~50%) "
        "and observation (~43%) split the time, so kernel and observer-cadence changes both show"
    ),
    "defect_sweep": (
        "4-member sine-Gordon kink sweep through the Backlund defect: stepping with the interface "
        "Newton solve dominates, observation ~1%; the only Newton, --sweep and wide-snapshot work"
    ),
    "exact_lab": (
        "derive-boundary, lax-check --refine, spectrum and reflect: exact Fraction work "
        "in algebra, laxboundary and scattering, which the simulations never call"
    ),
}

# Modules a pass imports before it is timed: todalab.cli plus every
# subpackage the workload calls, with the scipy modules todalab loads lazily.
_SIM_IMPORTS = ["todalab.cli", "todalab.simulate"]
_EXACT_IMPORTS = _SIM_IMPORTS + [
    "todalab.algebra",
    "todalab.laxboundary",
    "todalab.scattering",
    "scipy.linalg",
    "scipy.optimize",
]

# Layers (span or counter names, see tracing.py) each workload must call.
_SIM_LAYERS = [
    "simulate.run",
    "simulate.build",
    "simulate.step",
    "simulate.observe",
    "simulate.format",
    "simulate.write",
    "force_evals",
]
_EXACT_LAYERS = [
    "cli",
    "simulate.run",
    "simulate.build",
    "simulate.step",
    "simulate.observe",
    "simulate.write",
    "force_evals",
    "laxboundary.kseries",
    "laxboundary.adjacency",
    "laxboundary.curvature",
    "laxboundary.monodromy",
    "transport_matrices",
    "algebra.roots",
    "algebra.rep",
    "scattering.spectrum",
    "reflection_evals",
]

# Sorted affine marks n_0..n_r, from the standard tables (independent of
# the program's own root-system code).
_KNOWN_MARKS = {
    "E6": [1, 1, 1, 2, 2, 2, 3],
    "E7": [1, 1, 2, 2, 2, 3, 3, 4],
    "E8": [1, 2, 2, 3, 3, 4, 4, 5, 6],
}


def _known_marks(family: str, rank: int) -> list[int]:
    if family == "A":
        return [1] * (rank + 1)
    if family == "D":
        return [1, 1, 1, 1] + [2] * (rank - 3)
    return _KNOWN_MARKS[f"{family}{rank}"]


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def _steps(x_min: float, x_max: float, n_cells: int, t_final: float, courant: float = 0.5) -> int:
    return int(round(t_final / (courant * (x_max - x_min) / n_cells)))


def build(name: str, seed: int, work: Path, tiny: bool = False) -> dict:
    """Write the inputs of workload ``name`` under ``work`` and return the
    pass spec: operations, imports, the kind of reference block that probes
    the core's speed (see passrun.py), expected layers and node-step count.

    ``tiny`` shrinks grids and step counts for the benchmark's self-test.
    """
    builders = {
        "halfline_dense_observe": _halfline,
        "defect_sweep": _defect_sweep,
        "exact_lab": _exact_lab,
    }
    if name not in builders:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(builders)}")
    rng = random.Random(f"{name}:{seed}")
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    spec = builders[name](rng, inputs, work / "out", tiny)
    spec["workload"] = name
    return spec


def _halfline(rng: random.Random, inputs: Path, out: Path, tiny: bool) -> dict:
    lam_b = round(rng.uniform(-0.8, -0.4), 4)
    amplitude = round(rng.uniform(0.02, 0.1), 4)
    n_cells = 400 if tiny else 4000
    t_final = 150.0
    config = inputs / "halfline.ini"
    config.write_text(
        _ini(
            {
                "model": {"kind": "klein_gordon", "mass": 1.0},
                "grid": {"x_min": -40.0, "x_max": 0.0, "n_cells": n_cells, "t_final": t_final, "save_every": 2},
                "geometry": {"kind": "halfline", "right": "robin", "right_lambda": lam_b, "sponge_fraction": 0.0},
                "initial": {"kind": "boundary_mode", "lambda_b": lam_b, "amplitude": amplitude},
                "output": {"probes": 0.0},
            }
        )
    )
    op = {
        "id": "run_experiment halfline",
        "entry": "run_experiment",
        "config": str(config),
        "out": str(out / "halfline"),
        "check": {"kind": "halfline", "dir": str(out / "halfline"), "mass": 1.0, "lambda_b": lam_b},
    }
    return {
        "params": {"lambda_b": lam_b, "amplitude": amplitude},
        "ops": [op],
        "imports": _SIM_IMPORTS,
        "reference": "numpy",
        "layers": _SIM_LAYERS,
        "node_steps": (n_cells + 1) * _steps(-40.0, 0.0, n_cells, t_final),
    }


def _defect_sweep(rng: random.Random, inputs: Path, out: Path, tiny: bool) -> dict:
    velocities = []
    while len(velocities) < 4:
        v = f"{rng.uniform(0.3, 0.7):.3f}"
        if v not in velocities:
            velocities.append(v)
    lam_d = round(rng.uniform(0.8, 1.6), 4)
    n_cells = 800 if tiny else 3200
    t_final = 10.0 if tiny else 60.0
    snapshot_every = 100
    config = inputs / "defect.ini"
    config.write_text(
        _ini(
            {
                "model": {"kind": "sine_gordon", "mass": 1.0, "beta": 1.0},
                "grid": {
                    "x_min": -40.0,
                    "x_max": 40.0,
                    "n_cells": n_cells,
                    "t_final": t_final,
                    "save_every": 200,
                    "snapshot_every": snapshot_every,
                },
                "geometry": {"kind": "defect", "defect": "backlund", "defect_lambda": lam_d, "sponge_fraction": 0.0},
                "initial": {"kind": "soliton", "velocity": velocities[0], "x0": -15.0},
                "output": {"probes": "-1.0,1.0"},
            }
        )
    )
    n_steps = _steps(-40.0, 40.0, n_cells, t_final)
    sweep_out = out / "sweep"
    op = {
        "id": "simulate --sweep initial.velocity",
        "entry": "cli",
        "argv": ["simulate", "--config", str(config), "--out", str(sweep_out), "--sweep", "initial.velocity=" + ",".join(velocities)],
        "check": {
            "kind": "defect_sweep",
            "dirs": [str(sweep_out / f"velocity={v}") for v in velocities],
            "snapshot_rows": n_steps // snapshot_every + 1,
            "snapshot_cols": 1 + (n_cells + 2),
        },
    }
    return {
        "params": {"velocities": velocities, "lambda_d": lam_d},
        "ops": [op],
        "imports": _SIM_IMPORTS,
        "reference": "numpy",
        "layers": _SIM_LAYERS + ["cli", "newton_iters"],
        "node_steps": len(velocities) * (n_cells + 1) * n_steps,
    }


def _exact_lab(rng: random.Random, inputs: Path, out: Path, tiny: bool) -> dict:
    ops = []
    systems = [("A", r, ["--route", "both"]) for r in range(1, 6)]
    systems += [("D", r, ["--dump-roots"]) for r in range(4, 9)]
    systems += [("E", r, ["--dump-roots"]) for r in range(6, 9)]
    if tiny:
        systems = [("A", 1, ["--route", "both"]), ("A", 2, ["--route", "both"]), ("D", 4, ["--dump-roots"])]
    for family, rank, flags in systems:
        d = out / f"boundary_{family}{rank}"
        ops.append(
            {
                "id": f"derive-boundary {family}{rank}",
                "entry": "cli",
                "argv": ["derive-boundary", "--family", family, "--rank", str(rank), *flags, "--out", str(d)],
                "check": {"kind": "boundary", "dir": str(d), "family": family, "rank": rank},
            }
        )

    # periodic sinh-Gordon bulk run (the sinh_bulk shape) for lax-check
    n_cells, t_final = 128, 4.0
    amplitude = round(rng.uniform(0.2, 0.4), 4)
    amplitude2 = round(rng.uniform(0.1, 0.2), 4)
    lambdas = ",".join(f"{rng.uniform(0.6, 1.8):.3f}" for _ in range(3))
    config = inputs / "sinh.ini"
    config.write_text(
        _ini(
            {
                "model": {"kind": "sinh_gordon", "mass": 1.0, "beta": 1.0},
                "grid": {"x_min": 0.0, "x_max": 16.0, "n_cells": n_cells, "t_final": t_final, "save_every": 16, "snapshot_every": 8},
                "geometry": {"kind": "periodic"},
                "initial": {"kind": "cosine", "amplitude": amplitude, "mode": 1, "amplitude2": amplitude2, "mode2": 2},
            }
        )
    )
    d = out / "lax_check"
    ops.append(
        {
            "id": "lax-check --refine",
            "entry": "cli",
            "argv": ["lax-check", "--config", str(config), "--lambdas", lambdas, "--refine", "--out", str(d)],
            "check": {"kind": "lax_check", "dir": str(d), "n_lambdas": 3},
        }
    )

    half_length = round(rng.uniform(3.0, 8.0), 4)
    lam_plus = round(rng.uniform(0.1, 1.0), 4)
    lam_minus = round(rng.uniform(0.1, 1.0), 4)
    n_max = 100 if tiny else 1000
    d = out / "spectrum"
    ops.append(
        {
            "id": "spectrum",
            "entry": "cli",
            "argv": [
                "spectrum", "--half-length", str(half_length), "--lambda-plus", str(lam_plus),
                "--lambda-minus", str(lam_minus), "--n-max", str(n_max), "--out", str(d),
            ],
            "check": {"kind": "spectrum", "dir": str(d), "mass": 1.0, "half_length": half_length,
                      "lambda_plus": lam_plus, "lambda_minus": lam_minus, "n_max": n_max},
        }
    )

    for i in range(2):
        k, lam_b = round(rng.uniform(0.2, 3.0), 4), round(rng.uniform(-1.0, 1.0), 4)
        d = out / f"reflect_free_{i}"
        ops.append(
            {
                "id": f"reflect free {i}",
                "entry": "cli",
                "argv": ["reflect", "--kind", "free", "--k", str(k), "--lambda-b", str(lam_b), "--out", str(d)],
                "check": {"kind": "reflect", "dir": str(d)},
            }
        )
    for i in range(2):
        theta = round(rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0]), 4)
        a0, a1 = round(rng.uniform(-0.9, 0.9), 4), round(rng.uniform(-0.9, 0.9), 4)
        beta = round(rng.uniform(0.1, 4.0), 4)
        d = out / f"reflect_sinh_{i}"
        ops.append(
            {
                "id": f"reflect sinh {i}",
                "entry": "cli",
                "argv": ["reflect", "--kind", "sinh", "--theta", str(theta), "--a0", str(a0), "--a1", str(a1),
                         "--bulk-beta", str(beta), "--out", str(d)],
                "check": {"kind": "reflect", "dir": str(d)},
            }
        )
    # lax-check runs the config at n_cells and again at 2 n_cells (periodic:
    # n_cells nodes, and half the time step on the refined grid)
    n_steps = _steps(0.0, 16.0, n_cells, t_final)
    return {
        "params": {"amplitude": amplitude, "amplitude2": amplitude2, "lambdas": lambdas,
                   "half_length": half_length, "lambda_plus": lam_plus, "lambda_minus": lam_minus},
        "ops": ops,
        "imports": _EXACT_IMPORTS,
        "reference": "python",
        "layers": _EXACT_LAYERS,
        "node_steps": n_cells * n_steps + (2 * n_cells) * (2 * n_steps),
    }


# ---------------------------------------------------------------------------
# output checks: each returns (ok, accuracy values, message)


def _diagnostics(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _drift(series: np.ndarray, scale: float) -> float:
    return float(np.max(np.abs(series - series[0])) / abs(scale))


def _fft_frequency(series: np.ndarray, dt: float) -> float:
    """Hann-windowed FFT peak with parabolic interpolation on the log magnitude."""
    s = series - np.mean(series)
    spec = np.abs(np.fft.rfft(s * np.hanning(len(s))))
    spec[0] = 0.0
    k = int(np.argmax(spec))
    la, lb, lc = np.log(spec[k - 1 : k + 2] + 1e-300)
    denom = la - 2.0 * lb + lc
    delta = 0.5 * (la - lc) / denom if denom != 0 else 0.0
    return 2.0 * math.pi * (k + delta) / (len(s) * dt)


def _check_halfline(c: dict) -> tuple[bool, dict, str]:
    d = _diagnostics(Path(c["dir"]) / "diagnostics.csv")
    t = d["t"]
    omega = _fft_frequency(d["probe_1"], float(t[1] - t[0]))
    expected = math.sqrt(c["mass"] ** 2 - c["lambda_b"] ** 2)
    freq_err = abs(omega - expected) / expected
    e_drift = _drift(d["E"], d["E"][0])
    ok = freq_err < 1e-2 and e_drift < 1e-3
    return ok, {"freq_err_rel": freq_err, "energy_drift_rel": e_drift}, f"omega={omega:.6f} vs {expected:.6f}"


def _check_defect_sweep(c: dict) -> tuple[bool, dict, str]:
    e_drift = pu_drift = 0.0
    problems = []
    for member in c["dirs"]:
        d = _diagnostics(Path(member) / "diagnostics.csv")
        e_drift = max(e_drift, _drift(d["E"], d["E"][0]))
        pu_drift = max(pu_drift, _drift(d["P_plus_U"], d["E"][0]))
        with open(Path(member) / "snapshots.csv") as fh:
            cols = len(fh.readline().split(","))
            rows = sum(1 for _ in fh)
        if (rows, cols) != (c["snapshot_rows"], c["snapshot_cols"]):
            problems.append(f"{member}: snapshots {rows}x{cols}")
        if not (Path(member) / "run.manifest").is_file():
            problems.append(f"{member}: no run.manifest")
    ok = e_drift < 1e-3 and pu_drift < 1e-3 and not problems
    return ok, {"energy_drift_rel": e_drift, "pu_drift_rel": pu_drift}, "; ".join(problems)


def _check_boundary(c: dict) -> tuple[bool, dict, str]:
    p = json.loads((Path(c["dir"]) / "boundary.json").read_text())
    family, rank = c["family"], c["rank"]
    marks = p["root_system"]["marks"] if "root_system" in p else [1] * (rank + 1)
    if family == "A" and rank == 1:  # no adjacent affine pair: both b_i stay free
        ok = p["constraints"] == [] and p["free_parameters"] == ["b_0", "b_1"]
    else:
        got = {e["node"]: e["b_squared"] for e in p["constraints"]}
        ok = (
            sorted(marks) == _known_marks(family, rank)
            and got == {i: 4 * marks[i] for i in range(rank + 1)}
            and p["sign_choices"] == 2 ** (rank + 1)
        )
    if family == "A":
        ok = ok and p.get("routes_agree") is True
    return ok, {}, "" if ok else f"constraints {p['constraints']}, routes_agree {p.get('routes_agree')}"


def _check_lax(c: dict) -> tuple[bool, dict, str]:
    p = json.loads((Path(c["dir"]) / "lax_check.json").read_text())
    ratios = [r[kind] for r in p["ratios"].values() for kind in ("curvature", "monodromy")]
    ok = len(p["ratios"]) == c["n_lambdas"] and all(3.0 <= r <= 5.0 for r in ratios)
    return ok, {}, f"refine ratios {[round(r, 3) for r in ratios]}"


def _check_spectrum(c: dict) -> tuple[bool, dict, str]:
    """Each root closes e^{4ikL} R_+ R_- = 1 with R = (ik+lam)/(ik-lam).

    The closure residual is turned into the root error it implies, through
    the slope of the total phase 4kL + sum 2 atan(k/lam), and held to the
    1e-10 relative root accuracy the acceptance suite asks of the solver.
    """
    rows = (Path(c["dir"]) / "spectrum.csv").read_text().split("\n")[1:-1]
    table = [[float(v) for v in row.split(",")] for row in rows]
    length, m, lams = c["half_length"], c["mass"], (c["lambda_plus"], c["lambda_minus"])
    worst = worst_closure = 0.0
    ordered = len(table) == c["n_max"]
    prev = 0.0
    for i, (n, k, omega) in enumerate(table, start=1):
        closure = cmath.exp(4j * k * length)
        for lam in lams:
            closure *= (1j * k + lam) / (1j * k - lam)
        slope = 4.0 * length + sum(2.0 * lam / (lam * lam + k * k) for lam in lams)
        worst_closure = max(worst_closure, abs(closure - 1.0))
        worst = max(worst, abs(cmath.phase(closure)) / slope / k, abs(omega - math.sqrt(m * m + k * k)) / omega)
        ordered = ordered and n == i and k > prev
        prev = k
    ok = ordered and worst <= 1e-10
    return ok, {}, f"{len(table)} roots, worst closure {worst_closure:.1e}, worst relative root error {worst:.1e}"


def _check_reflect(c: dict) -> tuple[bool, dict, str]:
    p = json.loads((Path(c["dir"]) / "reflect.json").read_text())
    if p["pole_flag"]:
        return False, {}, "pole flagged at a real rapidity"
    modulus = abs(complex(p["value"]["re"], p["value"]["im"]))
    ok = abs(modulus - 1.0) < 1e-12 and abs(p["modulus"] - modulus) < 1e-15
    return ok, {}, f"|R| - 1 = {modulus - 1.0:.1e}"


_CHECKS = {
    "halfline": _check_halfline,
    "defect_sweep": _check_defect_sweep,
    "boundary": _check_boundary,
    "lax_check": _check_lax,
    "spectrum": _check_spectrum,
    "reflect": _check_reflect,
}


def check(c: dict) -> tuple[bool, dict, str]:
    """Run one output check; a missing or unreadable output fails it."""
    try:
        ok, values, message = _CHECKS[c["kind"]](c)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        return False, {}, f"unreadable output: {type(exc).__name__}: {exc}"
    return bool(ok), {k: float(v) for k, v in values.items()}, message
