"""Command-line surface: verify suites, scenarios, sweeps, state files.

Subcommands
    verify [--suite NAME]      run registered invariant checks
    scenario CONFIG.json       build a field, run tasks, emit reports
    sweep CONFIG.json          scan one axis in parallel, emit a table
    state inspect FILE         print a state-file header summary

Configs are JSON documents validated against the published schemas
(SCENARIO_SCHEMA, SWEEP_SCHEMA below) by the in-package validator
_schema_violation; unknown keys are rejected before
any computation.  Physics parameters never appear as positional
arguments.  Exit codes: 0 all checks/tasks passed, 1 a check or task
failed, 2 configuration error.  KGFIELD_OUT overrides --out.  The
environment variable KGFIELD_CORRUPT_DISPERSION (a float, default 1)
rescales the dispersion relation inside the wave-equation check; it
exists so the negative-control test can watch a corrupted constant fail.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .amplitudes import invariance_check, reference_packets
from .core import (
    Boost,
    ModelParams,
    MomentumLattice,
    PlaneWaveField,
    positive_packet,
    schrodinger_packet,
)
from .currents import (
    continuity_residual,
    noncovariance_demo,
    rho_a,
    total_probability,
    two_mode_oracle,
)
from .gauge import norm_drift
from .inner import inner_a, inner_a_split, norm_a
from .limits import LIMIT_TIME, fit_slope, limit_params, schrodinger_deviation
from .localization import besselK_profile, localized_state
from .reporting import write_csv, write_json
from .stateio import inspect_state, load_state
from .verify import VerifyContext, available_suites, run_checks


class ConfigError(Exception):
    """Schema violation or malformed input; maps to exit code 2."""


class TaskError(Exception):
    """Task precondition failure at run time; maps to exit code 1."""


# --------------------------------------------------------------- schemas

_NUM = {"type": "number"}
_NUMS = {"type": "array", "items": _NUM, "minItems": 1, "maxItems": 3}

MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "d": {"type": "integer", "minimum": 1, "maximum": 3},
        "L": {"oneOf": [_NUM, _NUMS]},
        "N": {"oneOf": [{"type": "integer"},
                        {"type": "array", "items": {"type": "integer"},
                         "minItems": 1, "maxItems": 3}]},
        "M": {"type": "number", "exclusiveMinimum": 0},
        "kappa": {"type": "number", "exclusiveMinimum": 0},
        "a": {"type": "number", "exclusiveMinimum": -1, "exclusiveMaximum": 1},
        "t0": _NUM,
    },
    # L and N are required where a lattice is built (_model_from_block)
    "required": ["d", "M"],
    "additionalProperties": False,
}

FIELD_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "construction": {"const": "gaussian-packet"},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "kcarrier": _NUMS,
                "center": _NUMS,
                "sector": {"enum": ["positive", "schrodinger"]},
            },
            "required": ["construction", "sigma"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "construction": {"const": "plane-waves"},
                "modes": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "properties": {
                            "epsilon": {"enum": [1, -1]},
                            "k": _NUMS,
                            "coeff": {"type": "array", "items": _NUM,
                                      "minItems": 2, "maxItems": 2},
                        },
                        "required": ["epsilon", "k", "coeff"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["construction", "modes"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "construction": {"const": "localized-state"},
                "epsilon": {"enum": [1, -1]},
                "node": {"type": "array", "items": {"type": "integer"},
                         "minItems": 1, "maxItems": 3},
            },
            "required": ["construction", "epsilon", "node"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "construction": {"const": "from-file"},
                "path": {"type": "string"},
            },
            "required": ["construction", "path"],
            "additionalProperties": False,
        },
    ]
}

_TIMES = {"type": "array", "items": _NUM, "minItems": 1}

TASK_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"task": {"const": "total_probability"}, "times": _TIMES},
            "required": ["task", "times"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"task": {"const": "rho_a"}, "times": _TIMES},
            "required": ["task", "times"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"task": {"const": "inner_products"}},
            "required": ["task"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "task": {"const": "continuity"},
                "times": _TIMES,
                "which": {"enum": ["J_a", "calJ_a"]},
            },
            "required": ["task", "times"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "task": {"const": "bessel-profile"},
                "rays": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "items": {"type": "integer"},
                              "minItems": 3, "maxItems": 3},
                },
                "steps": {"type": "integer", "minimum": 1},
            },
            "required": ["task", "rays", "steps"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "task": {"const": "current-oracle"},
                "events": {"type": "integer", "minimum": 1},
                "beta": {"type": "number", "exclusiveMinimum": -1,
                         "exclusiveMaximum": 1},
            },
            "required": ["task", "events", "beta"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"task": {"const": "gauge-orbit"}, "thetas": _TIMES},
            "required": ["task", "thetas"],
            "additionalProperties": False,
        },
    ]
}

OUTPUT_SCHEMA = {
    "type": "object",
    "properties": {
        "directory": {"type": "string"},
        "formats": {"type": "array", "items": {"enum": ["csv", "json"]},
                    "minItems": 1},
    },
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "model": MODEL_SCHEMA,
        "field": FIELD_SCHEMA,
        "tasks": {"type": "array", "items": TASK_SCHEMA, "minItems": 1},
        "output": OUTPUT_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["model", "field", "tasks"],
    "additionalProperties": False,
}

SWEEP_SCHEMA = {
    "type": "object",
    "properties": {
        "axis": {"enum": ["a", "M", "theta", "quadrature-order"]},
        "grid": {"type": "array", "items": _NUM, "minItems": 2},
        "observable": {"type": "string"},
        "model": MODEL_SCHEMA,
        "field": FIELD_SCHEMA,
        "output": OUTPUT_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["axis", "grid", "observable", "model"],
    "additionalProperties": False,
}

AXIS_OBSERVABLES = {
    "a": ("total_probability",),
    "M": ("nonrel-density-deviation", "nonrel-current-deviation"),
    "theta": ("gauge-norm-drift",),
    "quadrature-order": ("frame-invariance-drift",),
}


# ------------------------------------------------------- config plumbing

_SCHEMA_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
    "exclusiveMaximum", "oneOf", "const", "enum"})

# (keyword, fails(value, bound), message) for the numeric bounds; a NaN
# fails none of them
_BOUNDS = (
    ("minimum", operator.lt, "less than the minimum"),
    ("maximum", operator.gt, "greater than the maximum"),
    ("exclusiveMinimum", operator.le, "less than or equal to the minimum"),
    ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum"),
)


# the JSON types the schemas name; "integer" is narrowed to int (see
# _schema_violation)
_SCHEMA_TYPES = {"object": dict, "array": list, "string": str,
                 "number": (int, float), "integer": int}


def _is_type(value, kind: str) -> bool:
    # bool is an int subclass but never a JSON number
    return isinstance(value, _SCHEMA_TYPES[kind]) and not isinstance(value, bool)


def _same(value, want) -> bool:
    """JSON equality: true and 1 differ, 1.0 and 1 do not."""
    if isinstance(value, bool) or isinstance(want, bool):
        return value is want
    return value == want


def _selects(branch: dict, value) -> bool:
    """True if value carries every const property of the oneOf branch."""
    consts = {k: s["const"] for k, s in branch.get("properties", {}).items()
              if "const" in s}
    return bool(consts) and isinstance(value, dict) and all(
        k in value and _same(value[k], c) for k, c in consts.items())


def _schema_violation(value, schema: dict, path: tuple = ()):
    """The first violation of schema by the JSON value, as (path, message),
    or None.

    Implements the JSON Schema keywords in _SCHEMA_KEYWORDS and the types
    in _SCHEMA_TYPES, the ones the schemas above use, with jsonschema's
    meaning.  Any other keyword or type in a schema node that the value
    reaches raises ValueError, so that a schema edit cannot be skipped
    silently.  Nodes the value does not reach, such as an optional
    property it leaves out, are not checked here; tests/test_schema.py
    walks every node of every schema.  One deliberate departure: "integer"
    means a Python int that is not a bool, where JSON Schema also counts an
    integral float such as 2.0, which the model and task builders cannot
    use.  A NaN passes every numeric bound,
    as in jsonschema; ModelParams rejects it later.  A oneOf that does not
    match exactly one branch reports the error of the branch whose const
    properties the value carries, if there is one.
    """
    unknown = schema.keys() - _SCHEMA_KEYWORDS
    if unknown:
        raise ValueError(f"schema keywords not implemented: {sorted(unknown)}")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("additionalProperties must be false")
    # a list, not the dict: a list of type names is unhashable
    if schema.get("type", "object") not in list(_SCHEMA_TYPES):
        raise ValueError(f"schema type not implemented: {schema['type']!r}")
    if "oneOf" in schema:
        errors = [_schema_violation(value, s, path) for s in schema["oneOf"]]
        if errors.count(None) != 1:
            return next((e for s, e in zip(schema["oneOf"], errors)
                         if e and _selects(s, value)),
                        (path, f"{value!r} is not valid under exactly one "
                               f"of the given schemas"))
    if "type" in schema and not _is_type(value, schema["type"]):
        return path, f"{value!r} is not of type {schema['type']!r}"
    if "const" in schema and not _same(value, schema["const"]):
        return path, f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if _is_type(value, "number"):
        for key, fails, words in _BOUNDS:
            if key in schema and fails(value, schema[key]):
                return path, f"{value!r} is {words} of {schema[key]!r}"
    children = ()
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} is too short"
        if len(value) > schema.get("maxItems", len(value)):
            return path, f"{value!r} is too long"
        if "items" in schema:
            children = ((i, v, schema["items"]) for i, v in enumerate(value))
    elif isinstance(value, dict):
        props = schema.get("properties", {})
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            return path, f"{missing[0]!r} is a required property"
        extra = [k for k in value if k not in props]
        if "additionalProperties" in schema and extra:
            verb = "was" if len(extra) == 1 else "were"
            return path, (f"Additional properties are not allowed "
                          f"({', '.join(map(repr, extra))} {verb} unexpected)")
        children = ((k, value[k], s) for k, s in props.items() if k in value)
    for key, item, sub in children:
        error = _schema_violation(item, sub, path + (key,))
        if error:
            return error
    return None


def _load_config(path: str, schema: dict) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    error = _schema_violation(config, schema)
    if error:
        where = "/".join(str(p) for p in error[0]) or "<root>"
        raise ConfigError(f"config {path} violates the schema at {where}: "
                          f"{error[1]}")
    return config


def _params_from_block(block: dict) -> ModelParams:
    try:
        return ModelParams(mass=float(block["M"]),
                           kappa=float(block.get("kappa", 1.0)),
                           a=float(block.get("a", 0.0)))
    except ValueError as exc:
        raise ConfigError(f"model block: {exc}") from None


def _model_from_block(block: dict) -> tuple[MomentumLattice, ModelParams, float]:
    for key in ("L", "N"):
        if key not in block:
            raise ConfigError(f"model block: {key!r} is required to build "
                              f"a lattice")
    d = block["d"]
    L = block["L"]
    N = block["N"]
    lengths = [float(L)] * d if isinstance(L, (int, float)) else [float(v) for v in L]
    nodes = [int(N)] * d if isinstance(N, int) else [int(v) for v in N]
    if len(lengths) != d or len(nodes) != d:
        raise ConfigError("model block: L and N must have d entries")
    try:
        lattice = MomentumLattice(lengths, nodes)
    except ValueError as exc:
        raise ConfigError(f"model block: {exc}") from None
    return lattice, _params_from_block(block), float(block.get("t0", 0.0))


def _field_from_block(block: dict, lattice: MomentumLattice,
                      params: ModelParams, t0: float):
    kind = block["construction"]
    if kind == "gaussian-packet":
        build = (schrodinger_packet if block.get("sector") == "schrodinger"
                 else positive_packet)
        try:
            return build(lattice, params, block["sigma"],
                         kcarrier=block.get("kcarrier"),
                         center=block.get("center"), t0=t0)
        except ValueError as exc:
            raise TaskError(f"gaussian-packet: {exc}") from None
    if kind == "plane-waves":
        modes = [(m["epsilon"], np.array(m["k"], dtype=float),
                  complex(m["coeff"][0], m["coeff"][1])) for m in block["modes"]]
        if any(len(k) != lattice.dim for _, k, _ in modes):
            raise TaskError("plane-waves: mode k must have model dimension")
        return PlaneWaveField(params, modes, dim=lattice.dim)
    if kind == "localized-state":
        if len(block["node"]) != lattice.dim:
            raise TaskError("localized-state: node must have model dimension")
        axes = lattice.coordinate_axes()
        try:
            y = tuple(axes[i][idx] for i, idx in enumerate(block["node"]))
        except IndexError:
            raise TaskError("localized-state: node index out of range") from None
        return localized_state(block["epsilon"], y, lattice, params).field
    if kind == "from-file":
        try:
            field = load_state(block["path"])
        except (OSError, ValueError) as exc:
            raise TaskError(f"from-file: {exc}") from None
        if isinstance(field, PlaneWaveField):
            return field
        if field.lattice != lattice or field.params != params:
            raise TaskError("from-file: stored model does not match the "
                            "model block")
        return field
    raise ConfigError(f"unknown construction {kind!r}")


def _resolve_outdir(cli_out: str | None, config: dict) -> Path:
    out = os.environ.get("KGFIELD_OUT") or cli_out \
        or config.get("output", {}).get("directory") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_formats(cli_format: str | None, config: dict) -> tuple[str, ...]:
    if cli_format:
        return (cli_format,)
    return tuple(config.get("output", {}).get("formats", ["csv", "json"]))


# ----------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    try:
        scale = float(os.environ.get("KGFIELD_CORRUPT_DISPERSION", "1.0"))
    except ValueError:
        raise ConfigError("KGFIELD_CORRUPT_DISPERSION must be a float")
    ctx = VerifyContext(seed=args.seed, dispersion_scale=scale)
    try:
        results = run_checks(args.suite, ctx)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.suite}:{r.name} measured={r.measured:.6e} "
              f"tolerance={r.tolerance:.1e}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    config = {"suite": args.suite or "all", "seed": args.seed}
    if args.out or os.environ.get("KGFIELD_OUT"):
        outdir = _resolve_outdir(args.out, {})
        payload = {"checks": [asdict(r) for r in results],
                   "passed": not failed}
        write_json(outdir / "verify_report.json", payload, config)
    return 1 if failed else 0


# --------------------------------------------------------------- scenario

def _require_lattice_field(field, task: str):
    if isinstance(field, PlaneWaveField):
        raise TaskError(f"task {task}: needs a lattice field, got plane waves")
    return field


def _task_total_probability(field, t0, task, config):
    f = _require_lattice_field(field, "total_probability")
    rows = [(t, total_probability(f, t)) for t in task["times"]]
    vals = [v for _, v in rows]
    summary = {
        "values": vals,
        "max_drift": float(np.max(np.abs(np.subtract(vals, vals[0])))),
        "norm_sq": norm_a(f) ** 2,
    }
    return [("total_probability.csv", ("t", "total_probability"), rows, ())], summary


def _task_rho_a(field, t0, task, config):
    f = _require_lattice_field(field, "rho_a")
    axes = f.lattice.coordinate_axes()
    coords = np.meshgrid(*axes, indexing="ij")
    cols = tuple(f"x{j + 1}" for j in range(f.lattice.dim)) + ("rho_a",)
    artifacts = []
    integrals = []
    for i, t in enumerate(task["times"]):
        dens = rho_a(f, t)
        rows = list(zip(*(c.ravel() for c in coords), dens.ravel()))
        artifacts.append((f"rho_a_t{i}.csv", cols, rows,
                          (f"time {t!r}",)))
        integrals.append(float(f.lattice.integrate(dens)))
    summary = {"times": list(task["times"]), "integrals": integrals}
    return artifacts, summary


def _task_inner_products(field, t0, task, config):
    f = _require_lattice_field(field, "inner_products")
    v = inner_a(f, f)
    split = inner_a_split(f, f, t0)
    summary = {
        "norm_sq": v.real,
        "imag_over_real": abs(v.imag) / abs(v.real),
        "split_rel_dev": abs(v - split) / abs(v),
    }
    return [], summary


def _task_continuity(field, t0, task, config):
    f = _require_lattice_field(field, "continuity")
    which = task.get("which", "J_a")
    rows = [(t, continuity_residual(f, t, which)) for t in task["times"]]
    summary = {"which": which,
               "max_residual": float(np.max([v for _, v in rows]))}
    return [("continuity.csv", ("t", "residual"), rows, ())], summary


def _task_bessel_profile(field, t0, task, config):
    f = _require_lattice_field(field, "bessel-profile")
    lat = f.lattice
    if lat.dim != 3:
        raise TaskError("bessel-profile: needs a 3-dimensional model")
    if config["field"]["construction"] != "localized-state":
        raise TaskError("bessel-profile: needs a localized-state field")
    node = config["field"]["node"]
    psi = np.abs(f.psi_grid(t0)) / np.sqrt(lat.cell_volume)
    rows = []
    in_window = []
    for ray in task["rays"]:
        ray = np.array(ray, dtype=int)
        if not ray.any():
            raise TaskError("bessel-profile: zero ray")
        for j in range(1, task["steps"] + 1):
            steps = j * ray
            if np.any(2 * np.abs(steps) >= np.array(lat.nodes)):
                break
            idx = tuple((node[i] + steps[i]) % lat.nodes[i] for i in range(3))
            r = float(np.linalg.norm(steps * lat.spacings))
            oracle = besselK_profile(r, f.params)
            rel = abs(psi[idx] - oracle) / oracle
            rows.append(("/".join(str(v) for v in ray.tolist()), j, r,
                         float(psi[idx]), oracle, rel))
            if 0.5 <= f.params.mass * r <= 3.0:
                in_window.append(rel)
    summary = {"max_rel_err_in_window": float(np.max(in_window, initial=0.0)),
               "samples": len(rows)}
    return [("bessel_profile.csv",
             ("ray", "step", "r", "lattice", "oracle", "rel_err"),
             rows, ())], summary


def _task_current_oracle(field, t0, task, config):
    if not isinstance(field, PlaneWaveField):
        raise TaskError("current-oracle: needs a plane-waves field")
    rng = np.random.default_rng(config.get("seed", 0))
    events = np.column_stack(
        [rng.uniform(-2.0, 2.0, task["events"])]
        + [rng.uniform(-4.0, 4.0, task["events"]) for _ in range(field.dim)])
    try:
        records = [two_mode_oracle(field, ev) for ev in events]
        demo = noncovariance_demo(
            field, Boost((task["beta"],) + (0.0,) * (field.dim - 1)))
    except ValueError as exc:
        raise TaskError(f"current-oracle: {exc}") from None
    rows = [tuple(ev) + tuple(np.real(rec["J"])) + tuple(rec["calJ"])
            + (rec["div_calJ"],) for ev, rec in zip(events, records)]
    cols = (tuple(f"x{i}" for i in range(field.dim + 1))
            + tuple(f"J{i}" for i in range(field.dim + 1))
            + tuple(f"calJ{i}" for i in range(field.dim + 1))
            + ("div_calJ",))
    footer = (
        f"Ksq-before {demo['Ksq_before']!r}",
        f"Ksq-after(beta={task['beta']!r}) {demo['Ksq_after']!r}",
        f"k1k2-before {demo['dot_before']!r}",
        f"k1k2-after {demo['dot_after']!r}",
    )
    summary = {k: float(v) for k, v in demo.items()}
    return [("current_oracle.csv", cols, rows, footer)], summary


def _task_gauge_orbit(field, t0, task, config):
    f = _require_lattice_field(field, "gauge-orbit")
    rows = [(theta, norm_drift(f, theta)) for theta in task["thetas"]]
    summary = {"max_norm_drift": float(np.max([v for _, v in rows]))}
    return [("gauge_orbit.csv", ("theta", "norm_rel_drift"), rows, ())], summary


_TASKS = {
    "total_probability": _task_total_probability,
    "rho_a": _task_rho_a,
    "inner_products": _task_inner_products,
    "continuity": _task_continuity,
    "bessel-profile": _task_bessel_profile,
    "current-oracle": _task_current_oracle,
    "gauge-orbit": _task_gauge_orbit,
}


def _cmd_scenario(args) -> int:
    config = _load_config(args.config, SCENARIO_SCHEMA)
    lattice, params, t0 = _model_from_block(config["model"])
    field = _field_from_block(config["field"], lattice, params, t0)
    outdir = _resolve_outdir(args.out, config)
    formats = _resolve_formats(args.format, config)
    summary = {"tasks": {}}
    for task in config["tasks"]:
        name = task["task"]
        artifacts, task_summary = _TASKS[name](field, t0, task, config)
        summary["tasks"][name] = task_summary
        if "csv" in formats:
            for fname, cols, rows, footer in artifacts:
                write_csv(outdir / fname, cols, rows, config, footer)
                print(f"wrote {outdir / fname}")
    if "json" in formats:
        write_json(outdir / "summary.json", summary, config)
        print(f"wrote {outdir / 'summary.json'}")
    return 0


# ------------------------------------------------------------------ sweep

def _sweep_point(payload: dict) -> float:
    """One sweep cell; top level so process pools can import it."""
    config = payload["config"]
    axis = config["axis"]
    value = payload["value"]
    observable = config["observable"]
    model = dict(config["model"])
    if axis == "quadrature-order":
        # frame invariance of the continuum inner product: no lattice
        order = int(value)
        if order != value or order < 2:
            raise TaskError("axis quadrature-order: grid must be integers >= 2")
        f1, f2 = reference_packets(_params_from_block(model))
        return invariance_check(f1, f2, Boost((0.35,)),
                                orders=(order,))["rel_dev"][0]
    if axis == "a":
        model["a"] = value
    elif axis == "M":
        model["M"] = value
    lattice, params, t0 = _model_from_block(model)

    if axis == "M":
        # nonrelativistic deviation of the a-current from the Schrodinger
        # reference under the limit convention for kappa, at LIMIT_TIME
        # after the reference slice as in limits.limit_deviation
        params = limit_params(params.mass, params.a)
        block = config["field"]
        if block["construction"] != "gaussian-packet":
            raise TaskError("axis M: needs a gaussian-packet field")
        field = _field_from_block(dict(block, sector="schrodinger"),
                                  lattice, params, t0)
        dev_rho, dev_j = schrodinger_deviation(field, "J_a", t0 + LIMIT_TIME)
        return dev_rho if observable == "nonrel-density-deviation" else dev_j

    field = _field_from_block(config["field"], lattice, params, t0)
    f = _require_lattice_field(field, observable)
    return total_probability(f, t0) if axis == "a" else norm_drift(f, value)


def _cmd_sweep(args) -> int:
    config = _load_config(args.config, SWEEP_SCHEMA)
    axis = config["axis"]
    observable = config["observable"]
    if observable not in AXIS_OBSERVABLES[axis]:
        raise ConfigError(
            f"axis {axis}: observable must be one of "
            f"{AXIS_OBSERVABLES[axis]}, got {observable!r}")
    if axis != "quadrature-order" and "field" not in config:
        raise ConfigError(f"axis {axis}: a field block is required")
    if axis == "quadrature-order" and config["model"]["d"] != 1:
        raise ConfigError("axis quadrature-order: the reference packets are "
                          "1-D, so the model block needs d = 1")
    lattice_keys = [k for k in ("L", "N") if k in config["model"]]
    if axis == "quadrature-order" and lattice_keys:
        raise ConfigError(f"axis quadrature-order: builds no lattice, so the "
                          f"model block takes no {lattice_keys[0]!r}")
    if axis == "a":
        for v in config["grid"]:
            if not -1.0 < v < 1.0:
                raise ConfigError("axis a: grid values must lie in (-1, 1)")
    if axis == "M" and any(v <= 0 for v in config["grid"]):
        raise ConfigError("axis M: grid values must be positive")
    if axis == "M" and len(config["grid"]) < 4:
        raise ConfigError("axis M: the slope fit needs at least 4 grid points")

    payloads = [{"config": config, "value": v} for v in config["grid"]]
    workers = max(1, args.workers)
    if workers == 1:
        values = [_sweep_point(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(_sweep_point, payloads))

    rows = list(zip(config["grid"], values))
    footer = ()
    if axis == "M":
        slope = fit_slope(config["grid"], values)
        footer = (f"fitted-slope {slope!r}",)
    outdir = _resolve_outdir(args.out, config)
    formats = _resolve_formats(args.format, config)
    if "csv" in formats:
        write_csv(outdir / f"sweep_{axis}.csv", (axis, observable), rows,
                  config, footer)
        print(f"wrote {outdir / f'sweep_{axis}.csv'}")
    if "json" in formats:
        payload = {"axis": axis, "grid": list(config["grid"]),
                   "values": values}
        if axis == "M":
            payload["fitted_slope"] = slope
        write_json(outdir / f"sweep_{axis}.json", payload, config)
        print(f"wrote {outdir / f'sweep_{axis}.json'}")
    return 0


# ------------------------------------------------------------------ state

def _cmd_state(args) -> int:
    if args.state_cmd == "inspect":
        try:
            info = inspect_state(args.file)
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    raise ConfigError(f"unknown state subcommand {args.state_cmd!r}")


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgfield",
        description="Klein-Gordon field numerics: verification suites, "
                    "scenario runs, parameter sweeps, state files.")
    parser.add_argument("--version", action="version",
                        version=f"kgfield {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run registered invariant checks")
    p_verify.add_argument("--suite", default=None,
                          help=f"one of {available_suites()}")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_scn = sub.add_parser("scenario", help="run a scenario config")
    p_scn.add_argument("config")
    p_scn.set_defaults(func=_cmd_scenario)

    p_swp = sub.add_parser("sweep", help="scan one axis of a config")
    p_swp.add_argument("config")
    p_swp.add_argument("--workers", type=int, default=1)
    p_swp.set_defaults(func=_cmd_sweep)

    for p in (p_verify, p_scn, p_swp):
        p.add_argument("--out", default=None,
                       help="output directory (KGFIELD_OUT overrides)")
    for p in (p_scn, p_swp):
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict emitted artifact format")

    p_state = sub.add_parser("state", help="state-file utilities")
    state_sub = p_state.add_subparsers(dest="state_cmd", required=True)
    p_inspect = state_sub.add_parser("inspect", help="print header summary")
    p_inspect.add_argument("file")
    p_inspect.set_defaults(func=_cmd_state)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TaskError as exc:
        print(f"task failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
