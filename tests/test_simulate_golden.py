"""Byte-for-byte golden outputs of ``simulate``.

``tests/data/simulate_sha256.json`` maps each case below to the SHA-256 of
the ``diagnostics.csv`` and ``snapshots.csv`` it writes.  The cases are
small Klein-Gordon runs (400 cells, t_final <= 20) on every geometry kind.
Stepping and observing a Klein-Gordon field take only + - * / and numpy's
pairwise sum, so a faster step or observer that keeps the arithmetic must
reproduce every byte.  The initial profiles and the sponge's damping
factors are evaluated once with numpy's exp and cos; a platform whose
float64 exp or cos rounds differently would start from other bits.
"""

import hashlib
import json
from pathlib import Path

import pytest

from todalab.simulate.experiment import resolve_config, run_experiment

GOLDEN = json.loads((Path(__file__).parent / "data" / "simulate_sha256.json").read_text())

_KG = {"kind": "klein_gordon", "mass": "1.0"}
CASES = {
    "halfline-robin": {
        "grid": {"x_min": "-20.0", "x_max": "0.0", "n_cells": "400", "t_final": "20.0"},
        "geometry": {"kind": "halfline", "right": "robin", "right_lambda": "-0.6", "sponge_fraction": "0.0"},
        "initial": {"kind": "boundary_mode", "lambda_b": "-0.6", "amplitude": "0.05"},
        "output": {"probes": "0.0,-3.0"},
    },
    "interval-robin": {
        "grid": {"x_min": "-5.0", "x_max": "5.0", "n_cells": "400", "t_final": "20.0"},
        "geometry": {
            "kind": "interval",
            "left": "robin",
            "left_lambda": "0.25",
            "right": "robin",
            "right_lambda": "0.5",
            "right_offset": "0.01",
        },
        "initial": {"kind": "gaussian", "amplitude": "0.1", "width": "0.8", "x0": "0.7"},
        "output": {"probes": "0.9,2.3"},
    },
    "line-sponge": {
        "grid": {"x_min": "-20.0", "x_max": "20.0", "n_cells": "400", "t_final": "20.0"},
        "geometry": {"kind": "line", "sponge_fraction": "0.2"},
        "initial": {"kind": "wavepacket", "k0": "2.0", "width": "2.0", "x0": "8.0", "amplitude": "0.1"},
        "output": {"probes": "-5.0,5.0"},
    },
    "periodic": {
        "grid": {"x_min": "0.0", "x_max": "16.0", "n_cells": "400", "t_final": "16.0"},
        "geometry": {"kind": "periodic"},
        "initial": {"kind": "cosine", "amplitude": "0.3", "mode": "1", "amplitude2": "0.15", "mode2": "2"},
        "output": {"probes": "4.0"},
    },
    "defect-free": {
        "grid": {"x_min": "-20.0", "x_max": "20.0", "n_cells": "400", "t_final": "20.0"},
        "geometry": {"kind": "defect", "defect": "free", "defect_lambda": "0.7", "sponge_fraction": "0.1"},
        "initial": {"kind": "wavepacket", "k0": "1.5", "width": "2.0", "x0": "-4.0", "amplitude": "0.1"},
        "output": {"probes": "-1.0,1.0"},
    },
}


def case_config(name):
    raw = {section: dict(items) for section, items in CASES[name].items()}
    raw["model"] = dict(_KG)
    raw["grid"].update(save_every="4", snapshot_every="40")
    return resolve_config(raw)


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_matches_golden_digest(name, tmp_path):
    run_experiment(case_config(name), out_dir=tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert got == GOLDEN[name]
