"""CLI subcommands: outputs, exit codes, determinism."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab import cli
from todalab.algebra import roots
from todalab.cli import main
from todalab.errors import NumericalError, ValidationError
from todalab.simulate import stepper
from todalab.simulate.experiment import build_run, load_config

CFG = """\
[model]
kind = sinh_gordon

[grid]
x_min = 0.0
x_max = 16.0
n_cells = 128
t_final = 2.0
save_every = 16
snapshot_every = 16

[geometry]
kind = periodic

[initial]
kind = cosine
amplitude = 0.3
mode = 1
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CFG)
    return path


def test_simulate_writes_outputs_and_manifest(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "snapshots.csv").exists()
    assert (out / "run.manifest").exists()


def test_simulate_determinism(config_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config_file), "--out", str(out1)])
    main(["simulate", "--config", str(config_file), "--out", str(out2)])
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()


def test_simulate_manifest_reruns(config_file, tmp_path):
    out1 = tmp_path / "a"
    main(["simulate", "--config", str(config_file), "--out", str(out1)])
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(out1 / "run.manifest"), "--out", str(out2)]) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()


def test_simulate_sweep(config_file, tmp_path):
    out = tmp_path / "sweep"
    code = main(
        ["simulate", "--config", str(config_file), "--out", str(out),
         "--sweep", "initial.amplitude=0.1,0.2"]
    )
    assert code == 0
    assert (out / "amplitude=0.1" / "diagnostics.csv").exists()
    assert (out / "amplitude=0.2" / "diagnostics.csv").exists()


@pytest.mark.parametrize("directory, written", [("", "."), ("directory = results", "results")])
def test_simulate_without_out_writes_to_the_config_directory_or_here(tmp_path, monkeypatch, directory, written):
    """With no --out, a run writes to [output] directory, else the working
    directory, and a sweep member to key=value under the same place."""
    config = tmp_path / "run.ini"
    config.write_text(CFG + "\n[output]\n" + directory + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["simulate", "--config", str(config), "--sweep", "initial.amplitude=0.1"]) == 0
    for out in (tmp_path / written, tmp_path / written / "amplitude=0.1"):
        assert {"diagnostics.csv", "snapshots.csv", "run.manifest"} <= {f.name for f in out.iterdir()}


def test_lax_check_writes_no_simulation_output(tmp_path):
    """lax-check --refine writes lax_check.json and its manifest only, not
    the runs' files into the config's [output] directory."""
    sim = tmp_path / "sim"
    config = tmp_path / "run.ini"
    config.write_text(CFG + f"\n[output]\ndirectory = {sim}\n")
    out = tmp_path / "lax"
    assert main(["lax-check", "--config", str(config), "--lambdas", "0.7", "--refine", "--out", str(out)]) == 0
    assert not sim.exists()
    assert sorted(f.name for f in out.iterdir()) == ["lax_check.json", "run.manifest"]


@pytest.fixture()
def no_step(monkeypatch):
    """A run that steps fails the test."""
    from todalab.simulate import stepper

    def step(*args, **kwargs):
        raise AssertionError("stepped before the input was checked")

    monkeypatch.setattr(stepper, "step", step)


def test_lax_check_refuses_a_model_without_lax_frame_before_stepping(tmp_path, no_step, capsys):
    config = _write_config(tmp_path, CFG, **{"kind = sinh_gordon": "kind = klein_gordon"})
    assert main(["lax-check", "--config", str(config), "--refine"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "KleinGordon has no real Lax frame" in err[0]


def test_lax_check_refine_builds_both_runs_before_either_steps(config_file, no_step, monkeypatch, capsys):
    """A refined run refused at build time exits 1 with the base run unstepped."""
    from todalab.simulate import experiment

    build = experiment._build_initial
    calls = []

    def second_refused(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValidationError("refined initial state refused")
        return build(*args)

    monkeypatch.setattr(experiment, "_build_initial", second_refused)
    assert main(["lax-check", "--config", str(config_file), "--refine"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["todalab: validation error: refined initial state refused"]


def test_lax_check_refine_refuses_a_noise_kernel_only_the_refined_row_cannot_hold(tmp_path, no_step, capsys):
    """17 cells of h = 1 hold the 2 round(3w/h) + 1 = 17 taps of width 2.77;
    the refined 34 cells of h = 1/2 cannot hold its 35.  The base run once
    stepped before the refined run was refused."""
    from todalab.simulate.experiment import build_run, load_config

    replace = {"x_max = 16.0": "x_max = 17.0", "n_cells = 128": "n_cells = 17", "kind = cosine": "kind = noise\nwidth = 2.77"}
    config = _write_config(tmp_path, CFG, **replace)
    assert build_run(load_config(config)).n_steps == 4
    assert main(["lax-check", "--config", str(config), "--refine"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["todalab: validation error: noise needs seed >= 0 and a kernel of <= 34 taps, got seed 0, width 2.77"]


@pytest.mark.parametrize(
    "geometry", ["halfline\nright = toda\nright_b = 0.8,-0.5", "line", "interval"], ids=["halfline", "line", "interval"]
)
def test_lax_check_refuses_a_geometry_that_is_not_periodic_before_stepping(tmp_path, no_step, capsys, geometry):
    """tr V ignores the ends, so off a ring it is no conserved charge: on a
    half-line its drift did not fall with the grid step (refine ratio
    1.0002), and lax-check exited 0 reporting it."""
    config = _write_config(tmp_path, CFG, **{"kind = periodic": f"kind = {geometry}"})
    assert main(["lax-check", "--config", str(config), "--refine"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "a periodic geometry only" in err[0]


def test_malformed_config_key_exits_one_without_output(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CFG + "\nbogus_key = 1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()  # no partial output
    assert "bogus_key" in capsys.readouterr().err


def test_missing_config_exits_one():
    assert main(["simulate", "--config", "/nonexistent.ini"]) == 1


def test_bad_flags_exit_one(capsys):
    assert main(["spectrum"]) == 1  # required flag missing
    assert main(["unknown-subcommand"]) == 1


def test_spectrum_neumann_csv(tmp_path):
    out = tmp_path / "spec"
    code = main(
        ["spectrum", "--half-length", "5", "--n-max", "3", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,k_n,omega_n"
    import numpy as np

    for n, line in enumerate(lines[1:], start=1):
        _, k, omega = line.split(",")
        assert float(k) == pytest.approx(n * np.pi / 10.0, rel=1e-10)
        assert float(omega) == pytest.approx(np.sqrt(1.0 + float(k) ** 2), rel=1e-12)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--half-length", "nan"], "argument --half-length: invalid float value: 'nan'"),
        (["spectrum", "--half-length", "5", "--mass", "nan"], "argument --mass: invalid float value: 'nan'"),
        (["spectrum", "--half-length", "5", "--lambda-plus", "nan"], "argument --lambda-plus: invalid float value: 'nan'"),
        (["spectrum", "--half-length", "5", "--lambda-minus=-inf"], "argument --lambda-minus: invalid float value: '-inf'"),
        (["spectrum", "--half-length", "5", "--n-max", "4001"], "n_max must lie in [1, 4000]"),
        (["reflect", "--kind", "free", "--k", "nan"], "argument --k: invalid float value: 'nan'"),
        (["reflect", "--kind", "free", "--lambda-b", "inf"], "argument --lambda-b: invalid float value: 'inf'"),
        (["reflect", "--kind", "sinh", "--theta", "inf"], "argument --theta: invalid float value: 'inf'"),
        (["reflect", "--kind", "sinh", "--a0", "nan"], "argument --a0: invalid float value: 'nan'"),
        (["reflect", "--kind", "sinh", "--a1=-inf"], "argument --a1: invalid float value: '-inf'"),
        (["reflect", "--kind", "sinh", "--bulk-beta", "nan"], "argument --bulk-beta: invalid float value: 'nan'"),
    ],
)
def test_spectrum_and_reflect_refuse_bad_numbers_with_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not out.exists()


def test_spectrum_omega_at_a_tiny_half_length(capsys):
    """k near 1e300: omega = hypot(m, k), where m**2 + k**2 would overflow."""
    assert main(["spectrum", "--half-length", "1e-300", "--n-max", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for n, row in enumerate(rows, start=1):
        _, k, omega = row.split(",")
        assert float(k) == pytest.approx(n * 3.141592653589793 / 2e-300, rel=1e-12)
        assert omega == k


def test_reflect_free_json(capsys):
    assert main(["reflect", "--kind", "free", "--k", "1.5", "--lambda-b", "0.7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pole_flag"] is False
    assert payload["modulus"] == pytest.approx(1.0)
    expect = (1j * 1.5 + 0.7) / (1j * 1.5 - 0.7)
    assert payload["value"]["re"] == pytest.approx(expect.real)
    assert payload["value"]["im"] == pytest.approx(expect.imag)


def test_reflect_pole_flagged(capsys):
    # ik = lam_b is reachable only off the real axis; the CLI exposes real
    # flags, so drive the sinh-Gordon factor onto a block pole instead
    assert main(["reflect", "--kind", "sinh", "--theta", "0.0", "--a0", "1.0",
                 "--a1", "1.0", "--bulk-beta", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # theta = 0 with E = 2(1 - B/2): the (1)_0 block numerator vanishes ->
    # either a pole flag or a finite unimodular value, depending on parameters
    assert "pole_flag" in payload


def test_derive_boundary_a2(tmp_path):
    out = tmp_path / "bd"
    assert main(["derive-boundary", "--family", "A", "--rank", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "boundary.json").read_text())
    assert payload["sign_choices"] == 8
    assert payload["routes_agree"] is True
    assert {c["node"] for c in payload["constraints"]} == {0, 1, 2}
    assert payload["k_series"]["k1"][0][1] == "b1"
    assert (out / "run.manifest").exists()


def test_derive_boundary_a1_free(capsys):
    assert main(["derive-boundary", "--family", "A", "--rank", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["free_parameters"] == ["b_0", "b_1"]
    assert payload["sign_choices"] == 0
    assert payload["k_series"]["obstructions"] == []


def test_derive_boundary_d4_adjacency(capsys):
    assert main(["derive-boundary", "--family", "D", "--rank", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sign_choices"] == 32
    assert sorted(c["b_squared"] for c in payload["constraints"]) == [4, 4, 4, 4, 8]
    assert "matrix_route" not in payload


def test_derive_boundary_has_no_matrix_only_route(tmp_path, capsys):
    """--route matrix wrote the files of --route both but for the label."""
    out = tmp_path / "out"
    assert main(["derive-boundary", "--family", "A", "--rank", "2", "--route", "matrix", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "invalid choice: 'matrix'" in err[0]
    assert not out.exists()


def test_derive_boundary_rejects_unsupported(capsys):
    assert main(["derive-boundary", "--family", "B", "--rank", "2"]) == 1


@pytest.mark.parametrize("family, rank", [("A", 17), ("A", 40), ("D", 40)])
def test_derive_boundary_counts_the_sign_choices_it_does_not_list(capsys, family, rank):
    """Past 2**17 sign choices the report is the same rule and count: b = 0,
    or b_i^2 = 4 n_i with 2**(rank + 1) sign choices."""
    assert main(["derive-boundary", "--family", family, "--rank", str(rank)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sign_choices"] == 2 ** (rank + 1)
    assert payload["zero_solution"] == f"b_i = 0 for i = 0..{rank}"
    assert "sign_vectors" not in payload


def _refuses_before_building(monkeypatch, capsys, argv, out) -> None:
    """``main(argv)`` exits 1 with one line naming the rank bound, builds no
    root and writes nothing to ``out``."""

    def built(cartan):
        raise AssertionError("the positive roots were built")

    monkeypatch.setattr(roots, "_close_positive_roots", built)
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert err[0].startswith("todalab: validation error: unsupported root system ")
    assert f"rank {roots.MAX_RANK + 1};" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("family", ["A", "D"])
def test_derive_boundary_refuses_a_rank_past_the_bound_before_building(
    tmp_path, monkeypatch, capsys, family
):
    out = tmp_path / "bd"
    argv = ["derive-boundary", "--family", family, "--rank", str(roots.MAX_RANK + 1), "--out", str(out)]
    _refuses_before_building(monkeypatch, capsys, argv, out)


def test_simulate_refuses_an_affine_toda_rank_past_the_bound_before_building(
    tmp_path, monkeypatch, capsys
):
    cfg = CFG.replace("kind = sinh_gordon", f"kind = affine_toda\nrank = {roots.MAX_RANK + 1}")
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(path), "--out", str(out)]
    _refuses_before_building(monkeypatch, capsys, argv, out)


def test_lax_check_runs(config_file, capsys):
    code = main(["lax-check", "--config", str(config_file), "--lambdas", "0.9"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    key = next(iter(payload["base"]))
    assert payload["base"][key]["curvature_rms"] < 0.01
    assert payload["base"][key]["monodromy_drift"] < 0.01


def _write_config(tmp_path, text, **replace):
    for old, new in replace.items():
        text = text.replace(old, new)
    path = tmp_path / "case.ini"
    path.write_text(text)
    return path


def test_state_with_too_few_components_exits_one(tmp_path, capsys):
    """The scalar cosine initial state does not fit the rank-two model: the
    run stops before the first diagnostics row instead of broadcasting."""
    cfg = CFG.replace("kind = sinh_gordon", "kind = affine_toda\nrank = 2")
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "(2, 128)" in err[0]
    assert not out.exists()


def test_blow_up_exits_two_with_one_line(tmp_path, capsys):
    path = _write_config(tmp_path, CFG, **{"amplitude = 0.3": "amplitude = 40.0"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "non-finite" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reflect", "--kind", "free", "--k", "1e308", "--lambda-b", "1e308"], "the result has a non-finite value"),
        (["reflect", "--kind", "sinh", "--theta", "1e300", "--a0", "1e300"], "the reflection factor overflows"),
        (["reflect", "--kind", "sinh", "--bulk-beta", "1e300"], "the reflection factor overflows"),
        (["lax-check", "--config", "CONFIG", "--lambdas", "1e308"], "the result has a non-finite value"),
    ],
    ids=["reflect-free-nan", "reflect-sinh-overflow", "reflect-bulk-beta-overflow", "lax-check-nan"],
)
def test_a_non_finite_result_exits_two_with_one_line_and_no_json(config_file, tmp_path, capsys, argv, message):
    """These exited 0 with NaN in their JSON, or ended in an OverflowError
    traceback."""
    out = tmp_path / "out"
    argv = [str(config_file) if a == "CONFIG" else a for a in argv] + ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning is a second stderr line
        assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("todalab: numerical failure: " + message)
    assert not out.exists()


def test_t_final_off_the_step_grid_exits_one(tmp_path, capsys):
    """dt = 0.125 here: t_final = 1.05 would silently stop at 1.0."""
    path = _write_config(
        tmp_path, CFG, **{"n_cells = 128": "n_cells = 64", "t_final = 2.0": "t_final = 1.05"}
    )
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "t_final" in err and "nearest reachable t_final is 1.0" in err


def test_derive_boundary_solves_the_k_series_once(monkeypatch, capsys):
    """The matrix-route report and the K-series payload share one solve."""
    import todalab.laxboundary as lb

    calls = []
    solve = lb.solve_k_expansion

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lb, "solve_k_expansion", counted)
    assert main(["derive-boundary", "--family", "A", "--rank", "3", "--route", "both"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert calls == ["a3"]
    assert payload["routes_agree"] is True
    assert payload["matrix_route"]["route"] == "matrix"


def test_derive_boundary_refuses_the_matrix_route_past_a32_before_any_work(tmp_path, monkeypatch, capsys):
    """The matrix route took 15 s at A32 and grows about as rank**4.7, so
    A128 would take hours; ``--route auto`` takes the adjacency route there."""
    from todalab.laxboundary import kmatrix

    def built(rs):
        raise AssertionError("the defining representation was built")

    monkeypatch.setattr(kmatrix, "defining_rep", built)
    out = tmp_path / "bd"
    argv = ["derive-boundary", "--family", "A", "--rank", str(kmatrix.MAX_MATRIX_RANK + 1), "--out", str(out)]
    assert main(argv + ["--route", "both"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["todalab: validation error: matrix route requires family A of rank <= 32, not a33"]
    assert not out.exists()
    assert main(argv) == 0
    assert json.loads((out / "boundary.json").read_text())["route"] == "adjacency"


def test_a_sweep_that_repeats_a_value_exits_one_before_any_member_is_built(config_file, tmp_path, monkeypatch, capsys):
    """``model.beta=1,1`` exited 0 with the one member stepped twice into
    one ``beta=1`` directory."""

    def built(cfg):
        raise AssertionError("a sweep member was built")

    monkeypatch.setattr(cli, "build_run", built)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_file), "--out", str(out), "--sweep", "model.beta=1,1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["todalab: validation error: --sweep 'model.beta=1,1' repeats a value"]
    assert not out.exists()


@pytest.mark.parametrize("sweep", ["model.beta=1,1.0", "model.beta=1, 1", "model.kind=sinh_gordon,Sinh-Gordon"])
def test_a_sweep_of_two_spellings_of_one_value_exits_one_before_any_member_is_built(
    config_file, tmp_path, monkeypatch, capsys, sweep
):
    """``model.beta=1,1.0`` exited 0 with byte-identical ``beta=1/`` and
    ``beta=1.0/``, and ``model.beta=1, 1`` wrote ``beta=1/`` and ``beta= 1/``:
    the members' values are compared as their configs resolve them."""

    def built(cfg):
        raise AssertionError("a sweep member was built")

    monkeypatch.setattr(cli, "build_run", built)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_file), "--out", str(out), "--sweep", sweep]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"todalab: validation error: --sweep {sweep!r} repeats a value"]
    assert not out.exists()


@pytest.mark.parametrize(
    "table, message",
    [
        (((5,), 48), "the diagnostics table, 5 entries of 48 bytes (0.0 GiB), cannot be reserved"),
        (((5, 1, 128), 8), "the snapshot phi table, 5 x 1 x 128 entries of 8 bytes (0.0 GiB), cannot be reserved"),
    ],
    ids=["diagnostics", "snapshot_phi"],
)
def test_a_table_that_cannot_be_reserved_exits_one_before_any_member_steps(
    config_file, tmp_path, monkeypatch, capsys, table, message
):
    """A MemoryError from reserving a run's table escaped ``main`` as
    numpy's traceback.  It is one line naming the table and its size,
    raised while the second member of a sweep is built: nothing has stepped
    and no directory is written.  The reservation fails for that table's
    shape only, so nothing large is allocated."""
    real_empty = np.empty

    def empty(shape, dtype=float, *args, **kwargs):
        if (shape, np.dtype(dtype).itemsize) == table:  # a run's tables are reserved by a shape tuple
            raise MemoryError
        return real_empty(shape, dtype, *args, **kwargs)

    def stepped(*args):
        raise AssertionError("a sweep member stepped")

    monkeypatch.setattr(np, "empty", empty)
    monkeypatch.setattr(stepper, "step", stepped)
    out = tmp_path / "out"  # 32 then 64 steps, rows and snapshots every 16
    assert main(["simulate", "--config", str(config_file), "--out", str(out), "--sweep", "grid.t_final=2,4"]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"todalab: validation error: {message}"]
    assert not out.exists()


def _exits_one_with_one_line(tmp_path, capsys, replace, sweep, message):
    """``simulate`` of CFG with ``replace`` made (and ``--sweep sweep``)
    exits 1 with one stderr line holding ``message``, and writes nothing."""
    path = _write_config(tmp_path, CFG, **replace)
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(path), "--out", str(out)]
    if sweep:
        argv += ["--sweep", sweep]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning is a second stderr line
        assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0] and "Traceback" not in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "replace, sweep, message",
    [
        ({"kind = sinh_gordon": "kind = sinh_gordon\nmass = abc"}, None, "[model] mass = 'abc' is not a number"),
        ({"n_cells = 128": "n_cells = 12.5"}, None, "[grid] n_cells = '12.5' is not an integer"),
        ({}, "nosuch.key=1", "unknown config section [nosuch]"),
        ({}, "model.nosuch=1", "unknown config key 'nosuch' in section [model]"),
        ({"kind = periodic": "kind = line\nsponge_strength = -5.0"}, None, "sponge strength must be finite"),
        ({"kind = periodic": "kind = periodic\nsponge_strength = nan"}, None, "sponge strength must be finite"),
        (
            {"mode = 1": "mode = 1\n\n[output]\nprobes = 1.0,abc"},
            None,
            "[output] probes = '1.0,abc' is not a comma-separated list of numbers",
        ),
        (
            {"kind = periodic": "kind = halfline\nright = toda\nright_b = 1.0,zz"},
            None,
            "[geometry] right_b = '1.0,zz' is not a comma-separated list of numbers",
        ),
        ({"mode = 1": "mode = 1\ntraveling = ture"}, None, "[initial] traveling = 'ture' is not 1/yes/true/on or 0/no/false/off"),
        (
            {"mode = 1": "mode = 1\n\n[output]\nprobes = nan,inf,-inf"},
            None,
            "[output] probes = 'nan,inf,-inf' has an entry that is not finite",
        ),
        (
            {"kind = periodic": "kind = halfline\nright = toda\nright_b = 1.0,nan"},
            None,
            "[geometry] right_b = '1.0,nan' has an entry that is not finite",
        ),
        ({"t_final = 2.0": "t_final = inf"}, None, "t_final = inf is not a finite number of time steps"),
        ({"x_min = 0.0": "x_min = nan"}, None, "x_min and x_max must be finite"),
        # runs that used to step: into a ZeroDivisionError traceback, or after
        # RuntimeWarnings into an exit 2 at the first observation
        (
            {"kind = sinh_gordon": "kind = sine_gordon\nbeta = 0"},
            None,
            "SineGordon coupling beta = 0.0 must be finite and nonzero",
        ),
        ({"kind = sinh_gordon": "kind = sinh_gordon\nmass = nan"}, None, "SinhGordon mass m = nan is not finite"),
        ({"kind = cosine": "kind = wavepacket\nwidth = 0"}, None, "wavepacket width must be > 0"),
        (
            {"amplitude = 0.3": "amplitude = inf"},
            None,
            "initial state: non-finite field values at t=0.0 (first at phi[0, 0])",
        ),
        # an OverflowError traceback from m**2, and a ZeroDivisionError one
        # from m**2 / beta**2 with beta**2 underflowing to 0
        (
            {"kind = sinh_gordon": "kind = klein_gordon\nmass = 1e200"},
            None,
            "KleinGordon potential coefficient m^2 is not finite at m = 1e+200",
        ),
        (
            {"kind = sinh_gordon": "kind = sinh_gordon\nbeta = 1e-200"},
            None,
            "SinhGordon potential coefficient m^2/beta^2 is not finite at m = 1.0, beta = 1e-200",
        ),
        # an AttributeError traceback: the Backlund defect read the
        # Klein-Gordon model's missing beta
        (
            {
                "kind = sinh_gordon": "kind = klein_gordon",
                "x_min = 0.0": "x_min = -16.0",
                "kind = periodic": "kind = defect\ndefect = backlund",
            },
            None,
            "SineGordonBacklund requires a bulk matching SineGordon(m=1.0, beta=1.0); got a KleinGordon",
        ),
        # a later sweep member refused at build time, or by its t = 0
        # observation, once exited 1 with the earlier members written
        ({}, "model.beta=1,0", "beta = 0.0 must be finite and nonzero"),
        ({}, "initial.amplitude=0.1,1e300", "initial state: non-finite diagnostics at t=0.0"),
        # a ValueError traceback: numpy refuses a table past its size limit without allocating it
        (
            {"t_final = 2.0": "t_final = 2e18"},
            None,
            "the diagnostics table, 2000000000000000001 entries of 48 bytes (89406967163.1 GiB), cannot be reserved",
        ),
    ],
)
def test_config_and_sweep_errors_exit_one_with_one_line(tmp_path, capsys, replace, sweep, message):
    _exits_one_with_one_line(tmp_path, capsys, replace, sweep, message)


@pytest.mark.parametrize(
    "replace, message",
    [
        (
            {
                "kind = sinh_gordon": "kind = klein_gordon",
                "x_min = 0.0": "x_min = -16.0",
                "kind = periodic": "kind = defect\ndefect = backlund",
            },
            "SineGordonBacklund requires a bulk matching SineGordon(m=1.0, beta=1.0); got a KleinGordon",
        ),
        (
            {"kind = periodic": "kind = halfline\nright = toda\nright_b = 1.0,0.5,0.25"},
            "Toda boundary needs 2 coefficients, got 3",
        ),
    ],
    ids=["kg_on_backlund", "toda_b_count"],
)
def test_a_built_run_holds_no_step_plan_and_its_t0_observation_refuses_a_misfit_model(
    config_file, tmp_path, capsys, monkeypatch, replace, message
):
    """``_start`` built a step plan only to check the model against the
    geometry, which ``build_run`` then cleared.  No step plan is built: the
    t = 0 observation's plan makes the same refusals, with the same line."""
    plans = []
    real_init = stepper._StepPlan.__init__

    def spy(self, model, geometry):
        plans.append(model)
        real_init(self, model, geometry)

    monkeypatch.setattr(stepper._StepPlan, "__init__", spy)
    run = build_run(load_config(config_file))
    assert plans == [] and not run.geometry.plans
    _exits_one_with_one_line(tmp_path, capsys, replace, None, message)
    assert plans == []


def test_a_noise_state_with_a_negative_seed_exits_one_with_one_line(tmp_path, capsys):
    """numpy's ValueError traceback: expected non-negative integer."""
    replace = {"kind = cosine": "kind = noise\nseed = -1"}
    message = "noise needs seed >= 0 and a kernel of <= 128 taps, got seed -1, width 1.0"
    _exits_one_with_one_line(tmp_path, capsys, replace, None, message)


@pytest.mark.parametrize("width", ["100", "1e9", "inf"])
def test_a_noise_kernel_longer_than_the_node_row_exits_one_with_one_line(tmp_path, capsys, width):
    """Tracebacks: an interp of mismatched lengths at 100, a MemoryError
    for an 89 GiB kernel at 1e9, an OverflowError in round at inf."""
    replace = {"kind = cosine": f"kind = noise\nwidth = {width}"}
    message = f"noise needs seed >= 0 and a kernel of <= 128 taps, got seed 0, width {float(width)}"
    _exits_one_with_one_line(tmp_path, capsys, replace, None, message)


@pytest.mark.parametrize("geometry", ["periodic", "line", "halfline", "interval", "defect"])
def test_a_soliton_on_a_model_without_a_coupling_exits_one_with_one_line(tmp_path, capsys, geometry):
    """An AttributeError traceback: the kink read KleinGordon's missing beta."""
    replace = {
        "kind = sinh_gordon": "kind = klein_gordon",
        "x_min = 0.0": "x_min = -16.0",
        "kind = periodic": f"kind = {geometry}",
        "kind = cosine": "kind = soliton",
    }
    message = "a soliton needs a model with a coupling beta; KleinGordon has none"
    _exits_one_with_one_line(tmp_path, capsys, replace, None, message)


@pytest.mark.parametrize(
    "replace, message",
    [
        ({"kind = cosine": "kind = gaussian\nseed = abc"}, "[initial] seed = 'abc' is not an integer"),
        ({"kind = cosine": "kind = gaussian", "mode = 1": "mode = 1.5"}, "[initial] mode = '1.5' is not an integer"),
        (
            {"kind = cosine": "kind = gaussian\ntraveling = maybe"},
            "[initial] traveling = 'maybe' is not 1/yes/true/on or 0/no/false/off",
        ),
        (
            {"kind = cosine": "kind = gaussian", "kind = periodic": "kind = periodic\nleft_lambda = xyz"},
            "[geometry] left_lambda = 'xyz' is not a number",
        ),
        (
            {"kind = cosine": "kind = gaussian", "kind = periodic": "kind = periodic\nright_b = 1,foo"},
            "[geometry] right_b = '1,foo' is not a comma-separated list of numbers",
        ),
    ],
    ids=["seed", "mode", "traveling", "left_lambda", "right_b"],
)
def test_a_value_not_of_its_keys_type_exits_one_though_the_run_does_not_read_it(tmp_path, capsys, replace, message):
    """The gaussian run on the periodic ring read none of these keys; it
    exited 0 and echoed each into run.manifest."""
    _exits_one_with_one_line(tmp_path, capsys, replace, None, message)


def test_a_sweep_with_a_bad_member_exits_one_before_any_member_runs(tmp_path, capsys):
    """The n_cells=32 member used to run and write its directory first."""
    _exits_one_with_one_line(tmp_path, capsys, {}, "grid.n_cells=32,abc", "[grid] n_cells = 'abc' is not an integer")


def test_a_doubled_potential_coefficient_that_overflows_exits_one_with_one_line(tmp_path, capsys):
    """m^2/beta^2 = 1e308 is finite, but the energy density takes twice it:
    the run is refused before it steps.  It used to exit 0 with E = 0 on
    every row; unrefused, the doubled coefficient inf would give a NaN first
    row (inf * 0)."""
    path = tmp_path / "doubled.ini"
    path.write_text(
        "[model]\nkind = sine_gordon\nmass = 1e154\nbeta = 1.0\n\n"
        "[grid]\nx_min = -10.0\nx_max = 10.0\nn_cells = 40\nt_final = 1.0\n\n"
        "[geometry]\nkind = periodic\n\n[initial]\nkind = vacuum\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "SineGordon potential coefficient 2 m^2/beta^2 is not finite at m = 1e+154, beta = 1.0" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "lambdas, message",
    [
        ("0.7,x", "--lambdas = '0.7,x' is not a comma-separated list of numbers"),
        ("0.7,0", "spectral parameter must be nonzero"),
        ("0.7,nan", "--lambdas = '0.7,nan' has an entry that is not finite"),
        ("1.0,0.7,1.0", "--lambdas = '1.0,0.7,1.0' repeats a spectral parameter"),
    ],
)
def test_lax_check_refuses_bad_lambdas_before_any_run(config_file, monkeypatch, capsys, lambdas, message):
    from todalab import cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran before the spectral parameters were checked")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    assert main(["lax-check", "--config", str(config_file), "--lambdas", lambdas]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


def test_failed_self_check_exits_two_with_one_line(monkeypatch, capsys):
    from todalab.algebra import reps

    def broken(rep):
        raise AssertionError("[E_beta, E_{-beta}] != beta.H")

    monkeypatch.setattr(reps, "_verify", broken)
    assert main(["derive-boundary", "--family", "A", "--rank", "2", "--route", "both"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["todalab: internal self-check failed: [E_beta, E_{-beta}] != beta.H"]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_outputs_get_the_umask_mode(config_file, tmp_path, umask):
    """Atomic writes end with the mode a plain open() would give, not 0600."""
    import os

    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["diagnostics.csv", "run.manifest", "snapshots.csv"]
    for f in files:
        assert f.stat().st_mode & 0o777 == 0o666 & ~umask


BLOWUP_CFG = """\
[model]
kind = sinh_gordon

[grid]
t_final = 2.0

[geometry]
kind = line

[initial]
kind = gaussian
amplitude = 40.0
"""


def test_failed_run_writes_failure_dump_and_no_data(tmp_path, capsys):
    """sinh(40) overflows within a step: exit 2 with one stderr line, and
    only failure.json (naming the time and the first non-finite node) in
    the existing output directory."""
    config = tmp_path / "blowup.ini"
    config.write_text(BLOWUP_CFG)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("todalab: numerical failure: non-finite field values")
    assert [f.name for f in out.iterdir()] == ["failure.json"]
    failure = json.loads((out / "failure.json").read_text())
    dump = failure["state_dump"]
    assert dump["t"] > 0.0 and isinstance(dump["node"], int)
    assert dump["field"] in ("phi", "pi")
    assert failure["error"] == err[0].removeprefix("todalab: numerical failure: ")


# finite fields whose energy overflows at t = 0
OVERFLOW_CFG = """\
[model]
kind = klein_gordon

[grid]
x_min = -10.0
x_max = 10.0
n_cells = 200
t_final = 1.0
save_every = 1000

[geometry]
kind = defect
defect = free
defect_lambda = 1.0
sponge_fraction = 0

[initial]
kind = gaussian
amplitude = 1e300
width = 0.5
x0 = 0.0
"""


def test_an_overflowing_first_row_exits_one_with_one_line_and_no_warning(tmp_path, capsys):
    """This run exited 0 with rows of inf and nan, after four numpy
    RuntimeWarnings on stderr."""
    config = tmp_path / "overflow.ini"
    config.write_text(OVERFLOW_CFG)
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["todalab: validation error: initial state: non-finite diagnostics at t=0.0 (first at E)"]
    assert not list(out.iterdir())  # nothing has stepped: no failure.json either


def test_an_overflowing_later_row_exits_two_with_a_failure_dump(tmp_path, capsys):
    """m dt = 50 > 2: the leapfrog grows the mode ~2500-fold a step, so the
    energy overflows at t = 2.25 while the fields stay finite to t_final;
    this run exited 0 with rows of inf and nan."""
    text = OVERFLOW_CFG.replace("kind = klein_gordon", "kind = klein_gordon\nmass = 1000")
    text = text.replace("t_final = 1.0\nsave_every = 1000", "t_final = 3.0\nsave_every = 1")
    text = text.replace("kind = defect", "kind = periodic").replace("amplitude = 1e300", "amplitude = 1.0")
    config = tmp_path / "unstable.ini"
    config.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning is a second stderr line
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["todalab: numerical failure: non-finite diagnostics at t=2.25 (first at E)"]
    assert [f.name for f in out.iterdir()] == ["failure.json"]
    failure = json.loads((out / "failure.json").read_text())
    assert failure == {"error": err[0].removeprefix("todalab: numerical failure: "), "state_dump": {"t": 2.25, "column": "E"}}


@pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
def test_a_failure_dump_with_a_non_finite_value_is_json(config_file, tmp_path, monkeypatch, capsys, value, text):
    """A free-defect Klein-Gordon run whose Newton solve diverged (m = 41)
    wrote ``"u_phi": Infinity`` (``NaN`` at m = 60), which is not JSON."""
    from todalab.errors import StepFailure
    from todalab.simulate import experiment

    def failed(*args):
        raise StepFailure("defect interface Newton failed to converge at t=0.5", state_dump={"t": 0.5, "u_phi": value})

    monkeypatch.setattr(experiment, "_loop", failed)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["todalab: numerical failure: defect interface Newton failed to converge at t=0.5"]

    def refused(constant):
        raise AssertionError(f"failure.json holds {constant}, which is not JSON")

    failure = json.loads((out / "failure.json").read_text(), parse_constant=refused)
    assert failure["state_dump"] == {"t": 0.5, "u_phi": text}


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# leaves, and lists of one leaf type, which the writer joins in one pass
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | _FINITE
    | _FINITE.map(np.float64)
    | st.text()
    | st.lists(st.integers(), max_size=6)
    | st.lists(_FINITE, max_size=6)
    | st.lists(st.text(), max_size=6)
    | st.lists(st.booleans(), max_size=6)
)
_JSON_PAYLOADS = st.dictionaries(
    st.text(),
    st.recursive(
        _JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=16,
    ),
    max_size=5,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_JSON_PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    """The one writer of boundary.json, lax_check.json and reflect.json
    gives the bytes of json.dumps' indent-2, key-sorted layout, for empty
    containers, tuples, non-ASCII text, bools among ints and numpy floats."""
    expected = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert cli._json_text(payload) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda v: {"a": v},
        lambda v: {"a": [v]},
        lambda v: {"a": [1.0, v, 2.0]},
        lambda v: {"a": [1, "b", v]},
        lambda v: {"a": [np.float64(v)]},
        lambda v: {"b": 1, "a": {"c": [{"d": (0.5, v)}]}},
    ],
    ids=["value", "float-list", "float-list-middle", "mixed-list", "numpy-float", "nested-tuple"],
)
def test_json_writer_refuses_a_non_finite_float_at_any_depth(wrap, bad):
    with pytest.raises(NumericalError, match="non-finite value"):
        cli._json_text(wrap(bad))


def test_one_cached_parser_serves_successive_commands(config_file, tmp_path, capsys):
    """main builds its parser once per process; no command leaves a flag
    or a default behind for the next."""
    assert cli.build_parser() is cli.build_parser()

    swept, single = tmp_path / "swept", tmp_path / "single"
    assert main(["simulate", "--config", str(config_file), "--out", str(swept), "--sweep", "initial.amplitude=0.2,0.3"]) == 0
    assert sorted(d.name for d in swept.iterdir()) == ["amplitude=0.2", "amplitude=0.3"]
    assert cli.build_parser().parse_args(["simulate", "--config", str(config_file)]).sweep is None
    assert main(["simulate", "--config", str(config_file), "--out", str(single)]) == 0
    assert (single / "diagnostics.csv").exists() and not any(d.is_dir() for d in single.iterdir())
    capsys.readouterr()

    assert main(["reflect", "--kind", "free", "--k", "2.5", "--lambda-b", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == {"kind": "free", "k": 2.5, "lambda_b": 0.3}
    assert main(["reflect", "--kind", "free"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == {"kind": "free", "k": 1.0, "lambda_b": 0.0}

    assert main(["reflect", "--kind", "free", "--bogus", "1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "unrecognized arguments: --bogus 1" in err[0]
    assert main(["reflect", "--kind", "sinh", "--theta", "0.5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["inputs"]["theta"] == 0.5
