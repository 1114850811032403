"""Command-line entry point: simulate, spectrum, reflect, derive-boundary,
lax-check.

Exit codes: 0 success, 1 validation error (bad flags, bad config), 2
numerical failure (Newton / root finder, non-finite fields) or a failed
internal self-check of the exact algebra.  Every run
writes a manifest next to its outputs; all file writes are atomic (temp
file + rename).
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from .errors import NumericalError, PoleError, ValidationError
from .simulate.experiment import (
    FLOAT_FMT,
    RunConfig,
    _write_atomic,
    build_run,
    load_config,
    parse_numbers,
    run_experiment,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 (argparse's is 2), one line, no usage
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite_float(text: str) -> float:
    """argparse type of the float flags: nan and +-inf are refused like any
    other text that is not a number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return value


def _manifest_text(command: str, pairs: dict) -> str:
    lines = ["[cli]", f"command = {command}"]
    for key in sorted(pairs):
        lines.append(f"{key} = {pairs[key]}")
    return "\n".join(lines) + "\n"


def _finite_json(text: str) -> str:
    """``text``, the repr of one or more floats, unless one is nan or inf:
    a finite float's repr has digits, '.', 'e' and signs, and no 'n'."""
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


# the C text of each item of a list whose items all have one of these exact
# types (a bool is not an int here: it must stay true/false)
_LEAF_JSON = {str: _json_str, int: int.__repr__, float: float.__repr__}


def _json_parts(value, indent: str, parts: list) -> None:
    """Append to ``parts`` the JSON of ``value``, whose dict keys are str,
    exactly as ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` lays it out, at the C helpers' speed per leaf.
    ``indent`` is the newline and spaces that open the line ``value`` ends
    on."""
    if isinstance(value, str):
        parts.append(_json_str(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_finite_json(float.__repr__(value)))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        kinds = set(map(type, value))
        leaf = _LEAF_JSON.get(kinds.pop()) if len(kinds) == 1 else None
        if leaf is not None:
            body = ("," + inner).join(map(leaf, value))
            if leaf is float.__repr__:
                _finite_json(body)
            parts += ("[", inner, body, indent, "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts += (indent, "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            parts += (sep, _json_str(key), ": ")
            _json_parts(value[key], inner, parts)
            sep = "," + inner
        parts += (indent, "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(payload: dict) -> str:
    """The indented, key-sorted JSON of a command's result, byte for byte
    that of ``json.dumps(payload, indent=2, sort_keys=True)``, whose
    pure-Python indent path takes about twice as long.  NaN and infinity are
    not JSON, so a non-finite value in it is a numerical failure, and
    nothing is written."""
    parts: list[str] = []
    try:
        _json_parts(payload, "\n", parts)
    except ValueError:
        raise NumericalError("the result has a non-finite value (nan or inf)") from None
    parts.append("\n")
    return "".join(parts)


def _emit(out_dir: str | None, filename: str, text: str, manifest: str | None) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    base = Path(out_dir)
    _write_atomic(base / filename, text)
    if manifest is not None:
        _write_atomic(base / "run.manifest", manifest)


# ---------------------------------------------------------------------------
# simulate


def _out_dir(args, cfg: RunConfig) -> Path:
    """Where a simulation writes: --out, else [output] directory, else the
    working directory."""
    return Path(args.out or cfg.value("output", "directory") or ".")


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    members = [(cfg, out)]
    if args.sweep:  # each member's config is resolved, so refused, before any is built
        if len(args.sweep) > 1:
            raise ValidationError("one --sweep key at a time")
        spec = args.sweep[0]
        try:
            target, values = spec.split("=", 1)
            section, key = target.split(".", 1)
        except ValueError:
            raise ValidationError(
                f"bad --sweep {spec!r}; expected section.key=v1,v2,..."
            ) from None
        section, key = section.strip(), key.strip()
        members = [(cfg.replace(section, key, v), out / f"{key}={v}") for v in values.split(",")]
        # two spellings of one value would run one member twice
        resolved = [member.value(section, key) for member, _ in members]
        if len(set(resolved)) < len(resolved):
            raise ValidationError(f"--sweep {spec!r} repeats a value")
    runs = [(build_run(member), member_out) for member, member_out in members]
    runs.reverse()  # every member is built, so refused, before any steps
    while runs:  # each released once its files are written
        run_experiment(*runs.pop())
    return 0


# ---------------------------------------------------------------------------
# spectrum


def _cmd_spectrum(args) -> int:
    from .scattering import SpectrumProblem, interval_spectrum

    problem = SpectrumProblem(
        m=args.mass,
        half_length=args.half_length,
        lam_plus=args.lambda_plus,
        lam_minus=args.lambda_minus,
        n_max=args.n_max,
    )
    roots = interval_spectrum(problem)
    lines = ["n,k_n,omega_n"]
    for n, k in enumerate(roots, start=1):
        omega = math.hypot(args.mass, k)
        lines.append(f"{n},{FLOAT_FMT % k},{FLOAT_FMT % omega}")
    manifest = _manifest_text("spectrum", vars_of(args, ["mass", "half_length", "lambda_plus", "lambda_minus", "n_max"]))
    _emit(args.out, "spectrum.csv", "\n".join(lines) + "\n", manifest)
    return 0


def vars_of(args, names):
    return {n: getattr(args, n) for n in names}


# ---------------------------------------------------------------------------
# reflect


def _cmd_reflect(args) -> int:
    from .scattering import free_reflection, reflection_factor

    if args.kind == "free":
        inputs = {"kind": "free", "k": args.k, "lambda_b": args.lambda_b}
        compute, params = free_reflection, (args.k, args.lambda_b)
    else:
        inputs = {
            "kind": "sinh",
            "theta": args.theta,
            "a0": args.a0,
            "a1": args.a1,
            "bulk_beta": args.bulk_beta,
        }
        compute, params = reflection_factor, (args.theta, args.a0, args.a1, args.bulk_beta)
    pole_flag = False
    value = modulus = pole_where = None
    try:
        value = compute(*params)
        modulus = abs(value)
    except PoleError as exc:
        pole_flag, pole_where = True, exc.where
    except OverflowError as exc:
        raise NumericalError(f"the reflection factor overflows at these inputs ({exc})") from None
    payload = {
        "inputs": inputs,
        "value": None if value is None else {"re": value.real, "im": value.imag},
        "modulus": modulus,
        "pole_flag": pole_flag,
    }
    if pole_where:
        payload["pole_where"] = pole_where
    manifest = _manifest_text("reflect", inputs)
    _emit(args.out, "reflect.json", _json_text(payload), manifest)
    return 0


# ---------------------------------------------------------------------------
# derive-boundary


def _cmd_derive_boundary(args) -> int:
    from .algebra import build_root_system, to_json_dict
    from .laxboundary import adjacency_constraints, expansion_constraints, routes_agree, solve_k_expansion

    rs = build_root_system(args.family, args.rank)
    route = args.route
    if route == "auto":
        route = "both" if rs.family == "A" and rs.rank <= 5 else "adjacency"
    adj = adjacency_constraints(rs)
    payload = adj.to_json_dict()
    if route == "both":
        exp = solve_k_expansion(rs)
        mat = expansion_constraints(exp)
        payload["matrix_route"] = mat.to_json_dict()
        payload["routes_agree"] = routes_agree(mat, adj)
        payload["k_series"] = {
            "k1": [[str(p) for p in row] for row in exp.k1],
            "k2": "0 (central factor scaled out)",
            "k3": [[str(p) for p in row] for row in exp.k3],
            "obstructions": [str(p) for p in exp.obstructions],
        }
    payload["route"] = route
    if args.dump_roots:
        payload["root_system"] = to_json_dict(rs)
    manifest = _manifest_text(
        "derive-boundary",
        {"family": args.family, "rank": args.rank, "route": args.route},
    )
    _emit(args.out, "boundary.json", _json_text(payload), manifest)
    return 0


# ---------------------------------------------------------------------------
# lax-check


def _cmd_lax_check(args) -> int:
    from .laxboundary import curvature_residual, monodromy_charge, toda_frame_for

    lambdas = parse_numbers(args.lambdas, "--lambdas")
    if not lambdas:
        raise ValidationError("no spectral parameters given")
    if 0.0 in lambdas:
        raise ValidationError("--lambdas: spectral parameter must be nonzero (1/lambda pole)")
    if len(set(lambdas)) < len(lambdas):
        raise ValidationError(f"--lambdas = {args.lambdas!r} repeats a spectral parameter")
    cfg = load_config(args.config)
    if cfg.value("grid", "snapshot_every") <= 0:
        raise ValidationError("lax-check needs snapshot_every > 0 in [grid]")
    kind = cfg.value("geometry", "kind")
    if kind != "periodic":  # the transport tr V is conserved on a ring only
        raise ValidationError(f"lax-check computes the monodromy charge of a periodic geometry only, not of {kind!r}")
    # both runs are built, so refused, before either steps
    base = build_run(cfg)
    refined = build_run(cfg.replace("grid", "n_cells", 2 * cfg.value("grid", "n_cells"))) if args.refine else None
    frame = toda_frame_for(base.model)

    # an overflow leaves a non-finite number, which the JSON writer refuses
    @np.errstate(over="ignore", invalid="ignore")
    def run_at(run):
        h = run_experiment(run).history
        report = {}
        for lam in lambdas:
            res = curvature_residual(h, frame, lam)
            qs = monodromy_charge(h.x, h.phi, h.pi, frame, lam)
            drift = float(np.max(np.abs(qs - qs[0])) / max(1e-30, abs(qs[0])))
            report[repr(lam)] = {"curvature_rms": res, "monodromy_drift": drift}
        return report

    payload = {"base": run_at(base)}
    if refined is not None:
        payload["refined"] = run_at(refined)
        payload["ratios"] = {
            lam: {
                "curvature": payload["base"][lam]["curvature_rms"]
                / max(1e-300, payload["refined"][lam]["curvature_rms"]),
                "monodromy": payload["base"][lam]["monodromy_drift"]
                / max(1e-300, payload["refined"][lam]["monodromy_drift"]),
            }
            for lam in payload["base"]
        }
    manifest = _manifest_text(
        "lax-check",
        {"config": args.config, "lambdas": args.lambdas, "refine": args.refine},
    )
    _emit(args.out, "lax_check.json", _json_text(payload), manifest)
    return 0


# ---------------------------------------------------------------------------


@cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, and each subcommand's ``func`` looks its module globals up when it
    runs, so in-process callers of ``main`` share one."""
    parser = _Parser(prog="todalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured field evolution")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--sweep", action="append", help="section.key=v1,v2,... fan-out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("spectrum", help="two-boundary interval frequencies")
    p.add_argument("--mass", type=_finite_float, default=1.0)
    p.add_argument("--half-length", type=_finite_float, required=True)
    p.add_argument("--lambda-plus", type=_finite_float, default=0.0)
    p.add_argument("--lambda-minus", type=_finite_float, default=0.0)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("reflect", help="reflection factors")
    p.add_argument("--kind", choices=["free", "sinh"], required=True)
    p.add_argument("--k", type=_finite_float, default=1.0)
    p.add_argument("--lambda-b", type=_finite_float, default=0.0)
    p.add_argument("--theta", type=_finite_float, default=1.0)
    p.add_argument("--a0", type=_finite_float, default=0.0)
    p.add_argument("--a1", type=_finite_float, default=0.0)
    p.add_argument("--bulk-beta", type=_finite_float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reflect)

    p = sub.add_parser("derive-boundary", help="boundary-coefficient constraints")
    p.add_argument("--family", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--route", choices=["auto", "adjacency", "both"], default="auto")
    p.add_argument("--dump-roots", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_derive_boundary)

    p = sub.add_parser("lax-check", help="zero-curvature and monodromy diagnostics")
    p.add_argument("--config", required=True)
    p.add_argument("--lambdas", default="0.7,1.0,1.6")
    p.add_argument("--refine", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lax_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"todalab: validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"todalab: numerical failure: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # raised by the exact solvers' self-checks
        print(f"todalab: internal self-check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
