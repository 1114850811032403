"""Config handling, determinism, and the manifest round trip."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab.errors import ValidationError
from todalab.simulate.experiment import (
    _SCHEMA,
    RunResult,
    _write_atomic,
    build_run,
    load_config,
    resolve_config,
    run_experiment,
)
from todalab.simulate.state import FieldHistory


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
    assert all(d.energy == 0.0 for d in result.diagnostics)
    assert all(d.probes == (0.0, 0.0) for d in result.diagnostics)


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
    assert value == result.diagnostics[1].energy
    snaps = (out / "snapshots.csv").read_text().splitlines()
    assert snaps[0].startswith("t,")
    assert len(snaps[0].split(",")) == 1 + len(result.geometry.x)


def test_snapshots_write_every_component_under_phi_a_at_x():
    """Each component gets a column per node, headed ``phi_a@x``; one
    component keeps the header of bare node positions."""
    times, x = np.array([0.0, 0.125]), np.array([-1.0, 0.5, 1.25])
    phi = np.arange(12.0).reshape(2, 2, 3) / 7

    def lines(field):
        history = FieldHistory(times=times, x=x, phi=field, pi=np.zeros_like(field))
        return RunResult(diagnostics=[], history=history, geometry=None).snapshots_csv().splitlines()

    assert lines(phi)[0] == "t,phi_1@-1,phi_1@0.5,phi_1@1.25,phi_2@-1,phi_2@0.5,phi_2@1.25"
    assert lines(phi)[1:] == [",".join("%.17g" % v for v in (t, *row.ravel())) for t, row in zip(times, phi)]
    assert lines(phi[:, 1:]) == ["t,-1,0.5,1.25"] + [
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
    assert a.diagnostics[0].energy > 0.0


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
    e = [d.energy for d in result.diagnostics]
    assert abs(e[-1] - e[0]) / abs(e[0]) < 1e-3
    assert result.diagnostics[0].topological_charge == pytest.approx(1.0, abs=1e-4)


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
    e = [d.energy for d in result.diagnostics]
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
    assert run_experiment(runs[3]).diagnostics == run_experiment(cfg.replace("initial", "velocity", "0.375")).diagnostics
