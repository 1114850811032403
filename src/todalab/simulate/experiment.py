"""Config-driven experiment runner.

Configs are flat INI files with sections [model], [grid], [geometry],
[initial], [output]; unknown sections or keys are rejected.  Every run writes
``run.manifest`` echoing the fully resolved configuration (all defaults made
explicit), so re-running from the manifest reproduces the run byte for byte.
Floats in all outputs carry 17 significant digits.

A run is built, then executed.  ``build_run`` makes every refusal, up to the
checks and observation of the state at t = 0, so a caller can build all its
runs (a ``--sweep``, ``lax-check --refine``) before any steps.
``run_experiment`` steps a built run and writes its files.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from ..errors import StepFailure, ValidationError
from . import initial as init_mod
from .boundaries import Neumann, Robin, TodaBoundary
from .defects import FreeDefect, SineGordonBacklund
from .diagnostics import Diagnostics, diagnostics
from .grid import Grid1D
from .models import make_model
from .state import BOUNDARY_SIDES, FieldHistory, FieldState, Geometry
from .stepper import _loop, _Snapshots, _start

# every key with its default, whose type is the key's type: float, int, bool,
# str, or an empty tuple for a comma-separated list of numbers
_SCHEMA: dict[str, dict[str, object]] = {
    "model": {
        "kind": "klein_gordon",
        "mass": 1.0,
        "beta": 1.0,
        "family": "A",
        "rank": 1,
    },
    "grid": {
        "x_min": -10.0,
        "x_max": 10.0,
        "n_cells": 400,
        "courant": 0.5,
        "t_final": 10.0,
        "save_every": 0,
        "snapshot_every": 0,
    },
    "geometry": {
        "kind": "periodic",
        "left": "neumann",
        "left_lambda": 0.0,
        "left_offset": 0.0,
        "left_b": (),
        "right": "neumann",
        "right_lambda": 0.0,
        "right_offset": 0.0,
        "right_b": (),
        "defect": "free",
        "defect_lambda": 1.0,
        "sponge_fraction": -1.0,
        "sponge_strength": 2.0,
    },
    "initial": {
        "kind": "vacuum",
        "amplitude": 0.0,
        "amplitude2": 0.0,
        "k0": 1.0,
        "width": 1.0,
        "x0": 0.0,
        "velocity": 0.0,
        "charge": 1,
        "direction": 1,
        "mode": 1,
        "mode2": 0,
        "traveling": False,
        "lambda_b": -0.5,
        "seed": 0,
    },
    "output": {
        "directory": "",
        "probes": (),
        "diagnostics_file": "diagnostics.csv",
        "snapshots_file": "snapshots.csv",
    },
}

_BOOL_WORDS = configparser.ConfigParser.BOOLEAN_STATES

# parser and the words of its error line, by the type of a key's default
_PARSE = {
    float: (float, "a number"),
    int: (int, "an integer"),
    bool: (lambda text: _BOOL_WORDS[text.strip().lower()], "1/yes/true/on or 0/no/false/off"),
}

FLOAT_FMT = "%.17g"


def parse_numbers(text: str, name: str) -> tuple[float, ...]:
    """The numbers of the comma-separated list ``text``, blank entries
    skipped; a ValidationError names ``name``, the config key or flag."""
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValidationError(f"{name} = {text!r} is not a comma-separated list of numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{name} = {text!r} has an entry that is not finite")
    return values


def _text(value) -> str:
    """The config text of a value: how ``run.manifest`` writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Fully resolved configuration: the text of every key."""

    sections: dict[str, dict[str, str]]

    def value(self, section: str, key: str):
        """``[section] key`` parsed as the type of its default.  A word
        outside ``[output]`` is read stripped, lower-cased and with '-' as
        '_'."""
        text = self.sections[section][key]
        default = _SCHEMA[section][key]
        if isinstance(default, str):
            return text if section == "output" else text.strip().lower().replace("-", "_")
        if isinstance(default, tuple):
            return parse_numbers(text, f"[{section}] {key}")
        parse, what = _PARSE[type(default)]
        try:
            return parse(text)
        except (ValueError, KeyError):
            raise ValidationError(f"[{section}] {key} = {text!r} is not {what}") from None

    def replace(self, section: str, key: str, value) -> RunConfig:
        """This configuration with ``[section] key`` set to ``value``; an
        unknown section or key is refused as by ``resolve_config``."""
        raw = {sec: dict(items) for sec, items in self.sections.items()}
        raw.setdefault(section, {})[key] = value
        return resolve_config(raw)

    def to_ini(self) -> str:
        buf = io.StringIO()
        parser = configparser.ConfigParser()
        for sec in _SCHEMA:
            parser[sec] = dict(sorted(self.sections[sec].items()))
        parser.write(buf)
        return buf.getvalue()


def resolve_config(raw: dict[str, dict]) -> RunConfig:
    """Merge user keys over defaults, refusing an unknown key and a value not of its key's type."""
    sections = {sec: {key: _text(v) for key, v in defaults.items()} for sec, defaults in _SCHEMA.items()}
    for sec, items in raw.items():
        if sec not in _SCHEMA:
            raise ValidationError(f"unknown config section [{sec}]")
        for key, value in items.items():
            if key not in _SCHEMA[sec]:
                raise ValidationError(f"unknown config key {key!r} in section [{sec}]")
            sections[sec][key] = _text(value)
    cfg = RunConfig(sections=sections)
    for sec, keys in _SCHEMA.items():
        for key in keys:
            cfg.value(sec, key)
    return cfg


def load_config(path: str | os.PathLike) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValidationError(f"config file not found: {path}")
    raw = {sec: dict(parser[sec]) for sec in parser.sections()}
    return resolve_config(raw)


def _build_model(cfg: RunConfig):
    return make_model(
        cfg.value("model", "kind"),
        m=cfg.value("model", "mass"),
        beta=cfg.value("model", "beta"),
        family=cfg.value("model", "family"),
        rank=cfg.value("model", "rank"),
    )


def _build_boundary(cfg: RunConfig, side: str):
    kind = cfg.value("geometry", side)
    if kind == "neumann":
        return Neumann()
    if kind == "robin":
        return Robin(
            lam=cfg.value("geometry", f"{side}_lambda"),
            offset=cfg.value("geometry", f"{side}_offset"),
        )
    if kind == "toda":
        b = cfg.value("geometry", f"{side}_b")
        if not b:
            raise ValidationError(f"{side} toda boundary needs {side}_b coefficients")
        return TodaBoundary(b=b)
    raise ValidationError(f"unknown boundary kind {kind!r} for {side}")


def _build_defect(cfg: RunConfig):
    """The defect of the config's [model] parameters; the step plan refuses
    a model that is not its bulk."""
    kind = cfg.value("geometry", "defect")
    lam, m = cfg.value("geometry", "defect_lambda"), cfg.value("model", "mass")
    if kind == "free":
        return FreeDefect(lam=lam, m=m)
    if kind == "backlund":
        return SineGordonBacklund(lam=lam, m=m, beta=cfg.value("model", "beta"))
    raise ValidationError(f"unknown defect kind {kind!r}")


def _build_geometry(cfg: RunConfig) -> Geometry:
    kind = cfg.value("geometry", "kind")
    grid = Grid1D(**{key: cfg.value("grid", key) for key in ("x_min", "x_max", "n_cells", "courant")})
    sponge = cfg.value("geometry", "sponge_fraction")
    sides = BOUNDARY_SIDES.get(kind, ())  # Geometry rejects an unknown kind
    return Geometry(
        kind=kind,
        grid=grid,
        left=_build_boundary(cfg, "left") if "left" in sides else None,
        right=_build_boundary(cfg, "right") if "right" in sides else None,
        defect=_build_defect(cfg) if kind == "defect" else None,
        sponge_fraction=None if sponge < 0 else sponge,  # negative: the kind's default
        sponge_strength=cfg.value("geometry", "sponge_strength"),
    )


# [initial] kind -> its builder and the [initial] keys the builder takes,
# under their own names, in the order they are read
_INITIAL = {
    "vacuum": (init_mod.init_vacuum, ()),
    "wavepacket": (init_mod.init_wavepacket, ("k0", "width", "x0", "amplitude", "direction")),
    "soliton": (init_mod.init_soliton, ("velocity", "x0", "charge")),
    "boundary_mode": (init_mod.init_boundary_mode, ("lambda_b", "amplitude")),
    "gaussian": (init_mod.init_gaussian, ("amplitude", "width", "x0")),
    "noise": (init_mod.init_noise, ("amplitude", "width", "seed")),
    "cosine": (init_mod.init_cosine, ("amplitude", "mode", "amplitude2", "mode2", "traveling")),
}


def _build_initial(cfg: RunConfig, model, geometry: Geometry):
    kind = cfg.value("initial", "kind")
    if kind not in _INITIAL:
        raise ValidationError(f"unknown initial kind {kind!r}")
    build, keys = _INITIAL[kind]
    return build(geometry, model, **{key: cfg.value("initial", key) for key in keys})


def _columns(n_probes: int) -> list[str]:
    """The columns of ``diagnostics.csv``: t, E, P, U, P + U, Q and the probes."""
    return ["t", "E", "P", "U", "P_plus_U", "Q_topological"] + [f"probe_{i+1}" for i in range(n_probes)]


@dataclass(frozen=True, eq=False)
class RunResult:
    diagnostics: list[Diagnostics]
    history: FieldHistory | None
    geometry: Geometry
    probes: tuple[float, ...] = field(default=())

    def diagnostics_csv(self) -> str:
        from .csvtext import csv_text  # imported on first use: see csvtext

        cols = _columns(len(self.probes))
        rows = chain.from_iterable(d[:6] + d.probes for d in self.diagnostics)  # t, E, P, U, P + U, Q, probes
        table = np.fromiter(rows, dtype=np.float64, count=len(self.diagnostics) * len(cols))
        return csv_text(",".join(cols), table.reshape(-1, len(cols)))

    def snapshots_csv(self) -> str:
        """``t``, then the field of each component at each node: one column
        per node, headed by its x, or with several components ``phi_a@x``."""
        if self.history is None:
            raise ValidationError("run was configured without snapshots")
        from .csvtext import csv_text

        h = self.history
        n_t, n_c, n_x = h.phi.shape
        xs = csv_text("", h.x.reshape(1, n_x)).strip()
        if n_c > 1:
            xs = ",".join(f"phi_{a}@{x}" for a in range(1, n_c + 1) for x in xs.split(","))
        return csv_text("t," + xs, h.times, h.phi.reshape(n_t, n_c * n_x))


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp_", text=True)
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "w") as fh:
            for i in range(0, len(text), 1 << 18):  # 256 KiB slices: the file encodes each into a copy
                fh.write(text[i : i + (1 << 18)])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _step_count(t_final: float, dt: float) -> int:
    """Number of steps that ends the run exactly at ``t_final``."""
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ValidationError(f"t_final = {t_final!r} is not a finite number of time steps dt = {dt!r}")
    n = round(ratio)
    if n < 0 or abs(ratio - n) > 1e-9 * abs(ratio):
        raise ValidationError(
            f"t_final = {t_final!r} is not a whole number of time steps dt = {dt!r} "
            f"({ratio:.6g} steps); nearest reachable t_final is {max(n, 0) * dt!r}"
        )
    return int(n)


@dataclass(frozen=True, eq=False)
class BuiltRun:
    """A run as ``build_run`` leaves it: built, checked and observed at
    t = 0, not yet stepped, and holding no step or observation plan.
    ``run_experiment`` executes it once."""

    cfg: RunConfig
    model: object
    geometry: Geometry
    state: FieldState
    n_steps: int
    probes: tuple[float, ...]
    observers: tuple  # the (every, last, fn) triples of ``stepper._drive``
    diagnostics: list[Diagnostics]
    snapshots: _Snapshots


def build_run(cfg: RunConfig) -> BuiltRun:
    """The run of ``cfg`` as built: model, geometry, initial state, step
    count, probes and observers, the t = 0 row and snapshot taken.  Every
    refusal of the run is a ValidationError raised here, before any step."""
    model = _build_model(cfg)
    geometry = _build_geometry(cfg)
    state = _build_initial(cfg, model, geometry)

    n_steps = _step_count(cfg.value("grid", "t_final"), geometry.grid.dt)
    save_every = cfg.value("grid", "save_every")
    if save_every <= 0:
        save_every = max(1, n_steps // 400)
    snapshot_every = cfg.value("grid", "snapshot_every")
    probes = cfg.value("output", "probes")

    diags: list[Diagnostics] = []
    snaps = _Snapshots()

    def observe(s):
        d = diagnostics(s, model, geometry, probes)
        row = d[:6] + d.probes
        if not all(map(math.isfinite, row)):  # an overflow of finite fields
            column = _columns(len(probes))[next(i for i, v in enumerate(row) if not math.isfinite(v))]
            raise StepFailure(
                f"non-finite diagnostics at t={s.t} (first at {column})",
                state_dump={"t": s.t, "column": column},
            )
        diags.append(d)

    observers = [(save_every, True, observe)]
    if snapshot_every > 0:
        observers.append((snapshot_every, False, snaps))
    _start(state, model, geometry, observers)
    # a built run holds no plan: its step and observation plans, which the
    # checks and the t = 0 row built, are built again when it runs
    geometry.plans.clear()
    return BuiltRun(cfg, model, geometry, state, n_steps, probes, tuple(observers), diags, snaps)


def run_experiment(run: RunConfig | BuiltRun, out_dir: str | os.PathLike | None = None) -> RunResult:
    """Execute a run, built by ``build_run`` from ``run`` if it is a
    config; deterministic for a fixed config.

    Writes diagnostics CSV, optional snapshot CSV, and the manifest into
    ``out_dir``, and nothing when it is None.  A diagnostics row with a
    non-finite value after a step fails the run with a StepFailure.  A run
    whose stepping fails writes none of them and creates no directory; if
    ``out_dir`` already exists, it writes ``failure.json`` (the message and
    the StepFailure state dump) there before re-raising.
    """
    if isinstance(run, RunConfig):
        run = build_run(run)
    try:
        _loop(run.state, run.model, run.geometry, run.n_steps, run.observers)
    except StepFailure as exc:
        if out_dir is not None and Path(out_dir).is_dir():
            dump = json.dumps({"error": str(exc), "state_dump": exc.state_dump}, indent=2, sort_keys=True)
            _write_atomic(Path(out_dir) / "failure.json", dump + "\n")
        raise
    history = run.snapshots.history(run.geometry)
    result = RunResult(diagnostics=run.diagnostics, history=history, geometry=run.geometry, probes=run.probes)

    if out_dir is not None:
        base, cfg = Path(out_dir), run.cfg
        _write_atomic(base / cfg.value("output", "diagnostics_file"), result.diagnostics_csv())
        if history is not None:
            _write_atomic(base / cfg.value("output", "snapshots_file"), result.snapshots_csv())
        _write_atomic(base / "run.manifest", cfg.to_ini())
    return result
