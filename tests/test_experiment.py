"""Config handling, determinism, and the manifest round trip."""

import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab.errors import StepFailure, ValidationError
from todalab.simulate.experiment import (
    _SCHEMA,
    _write_atomic,
    build_run,
    load_config,
    resolve_config,
    run_experiment,
)


BASE = {
    "model": {"kind": "klein_gordon", "mass": "1.0"},
    "grid": {
        "x_min": "0.0",
        "x_max": "12.0",
        "n_cells": "96",
        "t_final": "3.0",
        "save_every": "8",
        "snapshot_every": "24",
    },
    "geometry": {"kind": "periodic"},
    "initial": {"kind": "cosine", "amplitude": "0.05", "mode": "1"},
    "output": {"probes": "3.0,6.0"},
}


def test_unknown_keys_and_sections_rejected():
    bad = {"model": {"kind": "klein_gordon", "massive": "1"}}
    with pytest.raises(ValidationError, match="unknown config key"):
        resolve_config(bad)
    with pytest.raises(ValidationError, match="unknown config section"):
        resolve_config({"extras": {}})


def test_vacuum_run_produces_zero_series():
    raw = {k: dict(v) for k, v in BASE.items()}
    raw["initial"] = {"kind": "vacuum"}
    result = run_experiment(resolve_config(raw))
    d = result.diagnostics
    assert all(e == 0.0 for e in d["E"])
    assert all(probes == (0.0, 0.0) for probes in zip(d["probe_1"], d["probe_2"]))


def test_rerun_is_bit_identical():
    cfg = resolve_config(BASE)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.diagnostics_csv() == b.diagnostics_csv()
    assert a.snapshots_csv() == b.snapshots_csv()


def test_manifest_round_trip(tmp_path):
    cfg = resolve_config(BASE)
    out1 = tmp_path / "run1"
    run_experiment(cfg, out_dir=out1)
    manifest = out1 / "run.manifest"
    assert manifest.exists()
    cfg2 = load_config(manifest)
    out2 = tmp_path / "run2"
    run_experiment(cfg2, out_dir=out2)
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
    assert (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()


def test_csv_shapes_and_seventeen_digits(tmp_path):
    cfg = resolve_config(BASE)
    out = tmp_path / "run"
    result = run_experiment(cfg, out_dir=out)
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "t,E,P,U,P_plus_U,Q_topological,probe_1,probe_2"
    assert len(lines) == 1 + len(result.diagnostics)
    # a third of pi at 17 significant digits survives the round trip
    value = float(lines[2].split(",")[1])
    assert value == result.diagnostics["E"][1]
    snaps = (out / "snapshots.csv").read_text().splitlines()
    assert snaps[0].startswith("t,")
    assert len(snaps[0].split(",")) == 1 + len(result.history.x)


def test_a_run_returns_the_tables_its_built_run_reserved():
    """A built run has a row for each observation and writes the t = 0
    rows; executing it returns the same run, whose history wraps the
    snapshot tables without a copy."""
    run = build_run(resolve_config(BASE))  # 48 steps, rows every 8, snapshots every 24
    assert len(run.diagnostics) == 7 and len(run.snapshots.times) == 3
    assert run.diagnostics["t"][0] == run.snapshots.times[0] == 0.0
    assert run_experiment(run) is run
    assert list(run.diagnostics["t"]) == [k * 0.0625 for k in range(0, 49, 8)]
    assert np.shares_memory(run.history.phi, run.snapshots.phi)
    assert np.shares_memory(run.history.pi, run.snapshots.pi)
    assert np.shares_memory(run.history.times, run.snapshots.times)


def test_a_run_executes_once():
    """A second execution raised a bare StopIteration from the spent row
    index.  It is refused with one line and leaves the tables as the first
    execution wrote them; a run whose stepping failed is refused too, and
    neither holds a plan."""
    config = Path(__file__).resolve().parents[1] / "configs" / "sinh_bulk.ini"
    run = build_run(load_config(config).replace("grid", "t_final", "0.375"))
    assert run_experiment(run) is run and not run.geometry.plans
    rows, snapshots = run.diagnostics.copy(), run.snapshots.phi.copy()
    with pytest.raises(ValidationError, match="^this run has already been executed; build it again with build_run$"):
        run_experiment(run)
    assert np.array_equal(run.diagnostics, rows) and np.array_equal(run.snapshots.phi, snapshots)

    blowup = {"model": {"kind": "sinh_gordon"}, "geometry": {"kind": "line"}}
    failed = build_run(resolve_config({**blowup, "initial": {"kind": "gaussian", "amplitude": "40.0"}}))
    with pytest.raises(StepFailure):
        run_experiment(failed)
    assert not failed.geometry.plans
    with pytest.raises(ValidationError, match="already been executed"):
        run_experiment(failed)


def test_a_run_holds_its_diagnostics_in_one_float64_table():
    """A run of 2 001 observations holds its diagnostics record in its
    rows x columns x 8 bytes plus less than one row of fields: it kept a
    Diagnostics tuple and its floats for each row, over four times that."""
    raw = {k: dict(v) for k, v in BASE.items()}
    raw["grid"] = {**raw["grid"], "n_cells": "768", "t_final": "15.625", "save_every": "1", "snapshot_every": "0"}
    cfg = resolve_config(raw)
    run_experiment(cfg)  # first-use caches outside the run
    gc.collect()
    tracemalloc.start()
    try:
        result = run_experiment(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows, columns = 2001, 8  # t, E, P, U, P + U, Q and two probes
    assert len(result.diagnostics) == rows and result.history is None
    assert held <= rows * columns * 8 + 8 * 768


def test_snapshots_write_every_component_under_phi_a_at_x():
    """Each component gets a column per node, headed ``phi_a@x``; one
    component keeps the header of bare node positions."""
    times = np.array([0.0, 0.125])
    phi = np.arange(64.0).reshape(2, 2, 16) / 7
    nodes = "-1,-0.25,0.5,1.25,2,2.75,3.5,4.25,5,5.75,6.5,7.25,8,8.75,9.5,10.25".split(",")

    def lines(field, model):
        raw = {
            "model": model,
            "grid": {"x_min": "-1", "x_max": "11", "n_cells": "16", "t_final": "0.375", "snapshot_every": "1"},
        }
        run = build_run(resolve_config(raw))  # 16 nodes 0.75 apart, two snapshots
        run.snapshots.times[:] = times
        run.snapshots.phi[:] = field
        return run.snapshots_csv().splitlines()

    a2 = lines(phi, {"kind": "affine_toda", "rank": "2"})
    assert a2[0] == "t," + ",".join(f"phi_{a}@{x}" for a in (1, 2) for x in nodes)
    assert a2[1:] == [",".join("%.17g" % v for v in (t, *row.ravel())) for t, row in zip(times, phi)]
    assert lines(phi[:, 1:], {"kind": "klein_gordon"}) == ["t," + ",".join(nodes)] + [
        ",".join("%.17g" % v for v in (t, *row.ravel())) for t, row in zip(times, phi[:, 1:])
    ]


def test_noise_initial_is_seed_deterministic():
    raw = {k: dict(v) for k, v in BASE.items()}
    raw["initial"] = {"kind": "noise", "amplitude": "0.05", "width": "0.8", "seed": "7"}
    a = run_experiment(resolve_config(raw))
    b = run_experiment(resolve_config(raw))
    assert a.diagnostics_csv() == b.diagnostics_csv()
    raw["initial"]["seed"] = "8"
    c = run_experiment(resolve_config(raw))
    assert c.diagnostics_csv() != a.diagnostics_csv()
    assert a.diagnostics["E"][0] > 0.0


def test_defect_run_from_config():
    raw = {
        "model": {"kind": "sine_gordon", "mass": "1.0", "beta": "1.0"},
        "grid": {
            "x_min": "-16.0",
            "x_max": "16.0",
            "n_cells": "256",
            "t_final": "2.0",
            "save_every": "16",
        },
        "geometry": {"kind": "defect", "defect": "backlund", "defect_lambda": "1.2",
                     "sponge_fraction": "0.0"},
        "initial": {"kind": "soliton", "velocity": "0.5", "x0": "-6.0"},
        "output": {},
    }
    result = run_experiment(resolve_config(raw))
    e = result.diagnostics["E"]
    assert abs(e[-1] - e[0]) / abs(e[0]) < 1e-3
    assert result.diagnostics["Q_topological"][0] == pytest.approx(1.0, abs=1e-4)


def test_halfline_toda_boundary_from_config():
    raw = {
        "model": {"kind": "sinh_gordon", "mass": "2.0", "beta": str(np.sqrt(2.0))},
        "grid": {"x_min": "-12.0", "x_max": "0.0", "n_cells": "120", "t_final": "1.0"},
        "geometry": {"kind": "halfline", "right": "toda", "right_b": "0.7,0.7",
                     "sponge_fraction": "0.0"},
        "initial": {"kind": "gaussian", "amplitude": "0.1", "width": "0.8", "x0": "-3.0"},
        "output": {},
    }
    result = run_experiment(resolve_config(raw))
    e = result.diagnostics["E"]
    assert abs(e[-1] - e[0]) / max(abs(e[0]), 1e-10) < 1e-3


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _schema_value(default):
    """A strategy for values of the type of a schema default."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, float):
        return _FINITE
    if isinstance(default, tuple):
        return st.lists(_FINITE, max_size=4).map(tuple)
    return st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", max_size=12)


_RAW_CONFIGS = st.fixed_dictionaries(
    {
        sec: st.fixed_dictionaries({key: _schema_value(default) for key, default in keys.items()})
        for sec, keys in _SCHEMA.items()
    }
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_RAW_CONFIGS)
def test_manifest_text_reads_back_every_value(tmp_path_factory, raw):
    """The manifest contract on the typed path: every key, set to any value
    of its type, reads back from ``to_ini`` as the value it was set to."""
    cfg = resolve_config(raw)
    path = tmp_path_factory.mktemp("manifest") / "run.manifest"
    path.write_text(cfg.to_ini())
    back = load_config(path)
    for sec, keys in _SCHEMA.items():
        for key in keys:
            assert back.value(sec, key) == cfg.value(sec, key) == raw[sec][key], (sec, key)


def test_a_hyphenated_word_reads_as_its_underscored_kind():
    """``kind = boundary-mode`` is the ``boundary_mode`` start, as
    ``sinh-gordon`` is the ``sinh_gordon`` model."""
    raw = {
        "model": {"kind": "Klein-Gordon"},
        "grid": {"x_min": "-20.0", "x_max": "0.0", "n_cells": "200", "t_final": "1.0"},
        "geometry": {"kind": "halfline", "right": "robin", "right_lambda": "-0.6"},
        "initial": {"kind": "boundary-mode", "lambda_b": "-0.6", "amplitude": "0.05"},
    }
    underscored = {sec: dict(items) for sec, items in raw.items()}
    underscored["model"]["kind"] = "klein_gordon"
    underscored["initial"]["kind"] = "boundary_mode"
    assert run_experiment(resolve_config(raw)).diagnostics_csv() == run_experiment(
        resolve_config(underscored)
    ).diagnostics_csv()


def test_an_atomic_write_holds_no_copy_of_its_text(tmp_path):
    """A 3.2 MB text (a defect sweep member's snapshots) is written in
    slices, so the encoded bytes are never a second copy of it; the one
    write of the whole text peaked at 3.21 MB."""
    text = "".join(f"{i * 0.1:.17g},{i:d}\n" for i in range(150_000))
    assert len(text) > 3_200_000
    path = tmp_path / "out" / "snapshots.csv"
    tracemalloc.start()
    try:
        _write_atomic(path, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert path.read_bytes() == text.encode()


def test_built_runs_hold_no_plans():
    """A built run holds its initial state and t = 0 records but no step or
    observation plan: sixteen built members of a 3 201-node defect sweep
    hold no plan and, together, less than five rows per member."""
    cfg = resolve_config(
        {
            "model": {"kind": "sine_gordon"},
            "grid": {"x_min": "-40.0", "x_max": "40.0", "n_cells": "3200", "t_final": "0.5", "snapshot_every": "100"},
            "geometry": {"kind": "defect", "defect": "backlund", "defect_lambda": "1.2", "sponge_fraction": "0"},
            "initial": {"kind": "soliton", "velocity": "0.5", "x0": "-15.0"},
        }
    )
    build_run(cfg)  # first-use caches outside the runs
    tracemalloc.start()
    try:
        runs = [build_run(cfg.replace("initial", "velocity", f"{0.3 + 0.025 * i:.3f}")) for i in range(16)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(not run.geometry.plans for run in runs)
    row = 8 * len(runs[0].geometry.state_x)
    assert held < 16 * 5 * row
    # a member steps as a fresh build does
    assert np.array_equal(
        run_experiment(runs[3]).diagnostics, run_experiment(cfg.replace("initial", "velocity", "0.375")).diagnostics
    )
