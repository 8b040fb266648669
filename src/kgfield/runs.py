"""The config-driven commands, scenario and sweep, and their configs.

Configs are JSON documents validated against the published schemas
(SCENARIO_SCHEMA, SWEEP_SCHEMA below) by the in-package validator
_schema_violation; unknown keys and non-finite numbers are rejected before
any computation.  The schemas are built from the dispatch tables _FIELDS,
_TASKS and _AXES, so a construction, task or axis, with every rule on its
config, is declared once.  Physics parameters never appear as positional
arguments.  kgfield.cli imports this module only for these two commands;
every library module but kgfield.core is imported inside the function
that calls it.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from pathlib import Path

import numpy as np

from . import ConfigError, TaskError
from .core import (
    Boost,
    LatticeField,
    ModelParams,
    MomentumLattice,
    PlaneWaveField,
    positive_packet,
    schrodinger_packet,
)


# ------------------------------------------------------- schema pieces

def _closed(properties: dict, *required: str) -> dict:
    """The schema of a JSON object with these properties and no others."""
    node = {"type": "object", "properties": properties}
    if required:
        node["required"] = list(required)
    node["additionalProperties"] = False
    return node


_NUM = {"type": "number"}
_NUMS = {"type": "array", "items": _NUM, "minItems": 1, "maxItems": 3}
_INTS = {"type": "array", "items": {"type": "integer"}, "minItems": 1,
         "maxItems": 3}
_NODE = dict(_INTS, items={"type": "integer", "minimum": 0})   # -1 would wrap
_TIMES = {"type": "array", "items": _NUM, "minItems": 1}
_EPSILON = {"enum": [1, -1]}

MODEL_SCHEMA = _closed({
    "d": {"type": "integer", "minimum": 1, "maximum": 3},
    "L": {"oneOf": [_NUM, _NUMS]},
    "N": {"oneOf": [{"type": "integer"}, _INTS]},
    "M": {"type": "number", "exclusiveMinimum": 0},
    "kappa": {"type": "number", "exclusiveMinimum": 0},
    "a": {"type": "number", "exclusiveMinimum": -1, "exclusiveMaximum": 1},
    "t0": _NUM,
}, "d", "M")    # L and N: where a lattice is built (_model_from_block)

OUTPUT_SCHEMA = _closed({
    "directory": {"type": "string"},
    "formats": {"type": "array", "items": {"enum": ["csv", "json"]},
                "minItems": 1},
})


# ------------------------------------------------------- config plumbing

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


def _schema_violation(value, schema: dict, path: tuple = ()):
    """The first violation of schema by the JSON value, as (path, message),
    or None.

    Implements the JSON Schema keywords the schemas above use, with
    jsonschema's meaning: type (the names in _SCHEMA_TYPES), properties,
    required, additionalProperties false, items, minItems, maxItems,
    minimum, maximum, exclusiveMinimum, exclusiveMaximum, oneOf, const and
    enum.  Every object node has the shape _closed writes;
    tests/test_schema.py walks every node of every schema to hold them to
    that.  One deliberate departure: "integer" means a Python int that is
    not a bool, where JSON Schema also counts an integral float such as
    2.0, which the model and task builders cannot use.  A NaN passes every
    numeric bound, as in jsonschema; configs never hold one, because
    _load_config rejects non-finite numbers while parsing.  A oneOf whose
    branches all fix one property with a const (axis, construction, task)
    is decided by that property: an object without it lacks a required
    property, one naming no branch fails at that property, and one naming
    a branch gets that branch's error.  Any other oneOf that does not
    match exactly one branch says so.
    """
    if "oneOf" in schema:
        branches = schema["oneOf"]
        keys = set.intersection(*({k for k, s in b.get("properties", {}).items()
                                   if "const" in s} for b in branches))
        if keys and isinstance(value, dict):
            (key,) = keys
            names = [b["properties"][key]["const"] for b in branches]
            if key not in value:
                return path, f"{key!r} is a required property"
            picked = [b for b, n in zip(branches, names) if _same(value[key], n)]
            if not picked:
                return path + (key,), f"{value[key]!r} is not one of {names!r}"
            error = _schema_violation(value, picked[0], path)
        else:
            errors = [_schema_violation(value, s, path) for s in branches]
            error = None if errors.count(None) == 1 else (
                path, f"{value!r} is not valid under exactly one of the "
                      f"given schemas")
        if error:
            return error
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
    elif schema.get("type") == "object":
        props = schema["properties"]
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            return path, f"{missing[0]!r} is a required property"
        extra = [k for k in value if k not in props]
        if extra:
            verb = "was" if len(extra) == 1 else "were"
            return path, (f"Additional properties are not allowed "
                          f"({', '.join(map(repr, extra))} {verb} unexpected)")
        children = ((k, value[k], s) for k, s in props.items() if k in value)
    for key, item, sub in children:
        error = _schema_violation(item, sub, path + (key,))
        if error:
            return error
    return None


def _finite(literal: str) -> float:
    """json.loads hook for NaN, Infinity and float literals."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


def _load_config(path: str, schema: dict) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        config = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    error = _schema_violation(config, schema)
    if error:
        where = "/".join(str(p) for p in error[0]) or "<root>"
        raise ConfigError(f"config {path} violates the schema at {where}: "
                          f"{error[1]}")
    return config


def _model_from_block(block: dict, lattice: bool = True):
    """(lattice or None, params) of the model block.  L and N are required
    when a lattice is built and rejected when none is."""
    for key in ("L", "N"):
        if (key in block) != lattice:
            raise ConfigError(
                f"model block: {key!r} is required to build a lattice"
                if lattice else
                f"model block: no lattice is built, so it takes no {key!r}")
    d = block["d"]
    try:
        grid = None
        if lattice:
            L, N = block["L"], block["N"]
            lengths = [L] * d if isinstance(L, (int, float)) else L
            nodes = [N] * d if isinstance(N, int) else N
            if len(lengths) != d or len(nodes) != d:
                raise ValueError("L and N must have d entries")
            grid = MomentumLattice(lengths, nodes)
        params = ModelParams(mass=float(block["M"]),
                             kappa=float(block.get("kappa", 1.0)),
                             a=float(block.get("a", 0.0)))
    except ValueError as exc:
        raise ConfigError(f"model block: {exc}") from None
    return grid, params


# ------------------------------------------------------------------ fields
# Each builder takes (field block, model block, t0) and reads the model
# block through _model_from_block, with a lattice only if it builds one.

def _gaussian_packet(block, model, t0):
    lattice, params = _model_from_block(model)
    build = (schrodinger_packet if block.get("sector") == "schrodinger"
             else positive_packet)
    return build(lattice, params, block["sigma"],
                 kcarrier=block.get("kcarrier"), center=block.get("center"),
                 t0=t0)


def _plane_waves(block, model, t0):
    _, params = _model_from_block(model, lattice=False)
    modes = [(m["epsilon"], m["k"], complex(*m["coeff"]))
             for m in block["modes"]]
    return PlaneWaveField(params, modes, dim=model["d"])


def _localized_state(block, model, t0):
    from .localization import localized_state

    lattice, params = _model_from_block(model)
    if len(block["node"]) != lattice.dim:
        raise TaskError("localized-state: node must have model dimension")
    axes = lattice.coordinate_axes()
    try:
        y = tuple(axes[i][idx] for i, idx in enumerate(block["node"]))
    except IndexError:
        raise TaskError("localized-state: node index out of range") from None
    return localized_state(block["epsilon"], y, lattice, params, t0).field


def _from_file(block, model, t0):
    from .stateio import load_state

    field = load_state(block["path"])
    if isinstance(field, LatticeField):
        lattice, params = _model_from_block(model)
        same = field.lattice == lattice
    else:
        _, params = _model_from_block(model, lattice=False)
        same = field.dim == model["d"]
    if not same or field.params != params:
        raise TaskError("from-file: stored model does not match the model "
                        "block")
    return field


# construction: (builder, schema properties besides "construction", the
# required ones among them)
_FIELDS = {
    "gaussian-packet": (_gaussian_packet, {
        "sigma": {"type": "number", "exclusiveMinimum": 0},
        "kcarrier": _NUMS,
        "center": _NUMS,
        "sector": {"enum": ["positive", "schrodinger"]},
    }, ("sigma",)),
    "plane-waves": (_plane_waves, {
        "modes": {"type": "array", "minItems": 1, "items": _closed({
            "epsilon": _EPSILON,
            "k": _NUMS,
            "coeff": {"type": "array", "items": _NUM, "minItems": 2,
                      "maxItems": 2},
        }, "epsilon", "k", "coeff")},
    }, ("modes",)),
    "localized-state": (_localized_state, {"epsilon": _EPSILON, "node": _NODE},
                        ("epsilon", "node")),
    "from-file": (_from_file, {"path": {"type": "string"}}, ("path",)),
}


def _field_schema(*kinds: str, drop: tuple = ()) -> dict:
    """The schema of a field block of these constructions, less drop."""
    return {"oneOf": [
        _closed({"construction": {"const": kind},
                 **{k: s for k, s in _FIELDS[kind][1].items() if k not in drop}},
                "construction", *_FIELDS[kind][2])
        for kind in kinds]}


FIELD_SCHEMA = _field_schema(*_FIELDS)


def _field_from_block(block: dict, model: dict):
    """(field, t0) of the field and model blocks.  A library ValueError or
    an unreadable state file is a TaskError naming the construction."""
    kind = block["construction"]
    t0 = float(model.get("t0", 0.0))
    try:
        return _FIELDS[kind][0](block, model, t0), t0
    except (OSError, ValueError) as exc:
        raise TaskError(f"{kind}: {exc}") from None


def _emit(args, config: dict, artifacts, name: str, payload: dict) -> int:
    """Write the CSV artifacts and the JSON report `name` in the formats
    that --format or the config's output block ask for."""
    from .reporting import resolve_outdir, write_csv, write_json

    outdir = resolve_outdir(args.out, config)
    formats = ((args.format,) if args.format
               else config.get("output", {}).get("formats", ["csv", "json"]))
    if "csv" in formats:
        for fname, cols, rows, footer in artifacts:
            write_csv(outdir / fname, cols, rows, config, footer)
            print(f"wrote {outdir / fname}")
    if "json" in formats:
        write_json(outdir / name, payload, config)
        print(f"wrote {outdir / name}")
    return 0


# --------------------------------------------------------------- scenario
# Each task takes (field, t0, task block, config) and returns its CSV
# artifacts, as (file name, columns, rows, footer), and its summary.

def _task_total_probability(f, t0, task, config):
    from .currents import total_probability
    from .inner import norm_a

    rows = [(t, total_probability(f, t)) for t in task["times"]]
    vals = [v for _, v in rows]
    summary = {
        "values": vals,
        "max_drift": float(np.max(np.abs(np.subtract(vals, vals[0])))),
        "norm_sq": norm_a(f) ** 2,
    }
    return [("total_probability.csv", ("t", "total_probability"), rows, ())], summary


def _task_rho_a(f, t0, task, config):
    from .currents import rho_a

    coords = f.lattice.coordinate_grids()
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


def _task_inner_products(f, t0, task, config):
    from .inner import inner_a, inner_a_split

    v = inner_a(f, f)
    if v == 0:
        raise TaskError("inner_products: the field has zero norm")
    split = inner_a_split(f, f, t0)
    summary = {
        "norm_sq": v.real,
        "imag_over_real": abs(v.imag) / abs(v.real),
        "split_rel_dev": abs(v - split) / abs(v),
    }
    return [], summary


def _task_continuity(f, t0, task, config):
    from .currents import continuity_residual

    which = task.get("which", "J_a")
    rows = [(t, continuity_residual(f, t, which)) for t in task["times"]]
    summary = {"which": which,
               "max_residual": float(np.max([v for _, v in rows]))}
    return [("continuity.csv", ("t", "residual"), rows, ())], summary


def _task_bessel_profile(f, t0, task, config):
    from .localization import besselK_profile

    lat = f.lattice
    if lat.dim != 3:
        raise TaskError("bessel-profile: needs a 3-dimensional model")
    if config["field"]["construction"] != "localized-state":
        raise TaskError("bessel-profile: needs a localized-state field")
    if not all(any(ray) for ray in task["rays"]):
        raise TaskError("bessel-profile: zero ray")
    node = config["field"]["node"]
    psi = np.abs(f.psi_grid(t0)) / np.sqrt(lat.cell_volume)
    rows = []
    in_window = []
    for ray in task["rays"]:
        ray = np.array(ray, dtype=int)
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
    from .currents import noncovariance_demo, two_mode_oracle

    rng = np.random.default_rng(config.get("seed", 0))
    events = np.column_stack(
        [rng.uniform(-2.0, 2.0, task["events"])]
        + [rng.uniform(-4.0, 4.0, task["events"]) for _ in range(field.dim)])
    records = [two_mode_oracle(field, ev) for ev in events]
    demo = noncovariance_demo(
        field, Boost((task["beta"],) + (0.0,) * (field.dim - 1)))
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


# task: (function, the field type it takes, schema properties besides
# "task", the required ones among them)
_TASKS = {
    "total_probability": (_task_total_probability, LatticeField,
                          {"times": _TIMES}, ("times",)),
    "rho_a": (_task_rho_a, LatticeField, {"times": _TIMES}, ("times",)),
    "inner_products": (_task_inner_products, LatticeField, {}, ()),
    "continuity": (_task_continuity, LatticeField, {
        "times": _TIMES,
        "which": {"enum": ["J_a", "calJ_a"]},
    }, ("times",)),
    "bessel-profile": (_task_bessel_profile, LatticeField, {
        "rays": {"type": "array", "minItems": 1,
                 "items": {"type": "array", "items": {"type": "integer"},
                           "minItems": 3, "maxItems": 3}},
        "steps": {"type": "integer", "minimum": 1},
    }, ("rays", "steps")),
    "current-oracle": (_task_current_oracle, PlaneWaveField, {
        "events": {"type": "integer", "minimum": 1},
        "beta": {"type": "number", "exclusiveMinimum": -1,
                 "exclusiveMaximum": 1},
    }, ("events", "beta")),
}

TASK_SCHEMA = {"oneOf": [
    _closed({"task": {"const": name}, **props}, "task", *required)
    for name, (_, _, props, required) in _TASKS.items()]}

SCENARIO_SCHEMA = _closed({
    "model": MODEL_SCHEMA,
    "field": FIELD_SCHEMA,
    "tasks": {"type": "array", "items": TASK_SCHEMA, "minItems": 1},
    "output": OUTPUT_SCHEMA,
    "seed": {"type": "integer", "minimum": 0},
}, "model", "field", "tasks")


def _cmd_scenario(args) -> int:
    config = _load_config(args.config, SCENARIO_SCHEMA)
    field, t0 = _field_from_block(config["field"], config["model"])
    artifacts, summary = [], {}
    for task in config["tasks"]:
        name = task["task"]
        run, kind = _TASKS[name][:2]
        if not isinstance(field, kind):
            raise TaskError(f"task {name}: needs a {kind.__name__}, got a "
                            f"{type(field).__name__}")
        try:
            made, summary[name] = run(field, t0, task, config)
        except ValueError as exc:
            raise TaskError(f"{name}: {exc}") from None
        artifacts += made
    return _emit(args, config, artifacts, "summary.json", {"tasks": summary})


# ------------------------------------------------------------------ sweep

# axis: (observables, grid item schema, fewest grid points, model schema,
# field schema or None where the axis builds its own packets)
_LATTICE_FIELD = _field_schema(*(k for k in _FIELDS if k != "plane-waves"))
_AXES = {
    "a": (("total_probability",), _NUM, 2, MODEL_SCHEMA, _LATTICE_FIELD),
    # the axis sets the sector itself; its slope fit needs 4 points
    "M": (("nonrel-density-deviation", "nonrel-current-deviation"), _NUM, 4,
          MODEL_SCHEMA, _field_schema("gaussian-packet", drop=("sector",))),
    "theta": (("gauge-norm-drift",), _NUM, 2, MODEL_SCHEMA, _LATTICE_FIELD),
    # the reference packets of amplitudes.reference_packets are 1-D
    "quadrature-order": (
        ("frame-invariance-drift",), {"type": "integer", "minimum": 2}, 2,
        dict(MODEL_SCHEMA, properties={**MODEL_SCHEMA["properties"],
                                       "d": {"type": "integer", "const": 1}}),
        None),
}

SWEEP_SCHEMA = {"oneOf": [
    _closed({
        "axis": {"const": axis},
        "grid": {"type": "array", "items": item, "minItems": fewest},
        "observable": {"enum": list(observables)},
        "model": model,
        **({"field": field} if field else {}),
        "output": OUTPUT_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
    }, "axis", "grid", "observable", "model", *(("field",) if field else ()))
    for axis, (observables, item, fewest, model, field) in _AXES.items()]}


def _sweep_point(config: dict, value) -> float:
    """The observable at one grid value; top level so process pools can
    import it."""
    axis = config["axis"]
    model, block = dict(config["model"]), config.get("field")
    if axis == "quadrature-order":
        from .amplitudes import invariance_check, reference_packets

        # frame invariance of the continuum inner product: no lattice
        f1, f2 = reference_packets(_model_from_block(model, lattice=False)[1])
        return invariance_check(f1, f2, Boost((0.35,)),
                                orders=(value,))["rel_dev"][0]
    if axis == "M":
        from .limits import LIMIT_TIME, limit_kappa, schrodinger_deviation

        # nonrelativistic deviation of the a-current from the Schrodinger
        # reference under the limit convention for kappa, at LIMIT_TIME
        # after the reference slice as in limits.limit_deviation
        model.update(M=value, kappa=limit_kappa(float(model.get("a", 0.0))))
        block = dict(block, sector="schrodinger")
    elif axis == "a":
        model["a"] = value
    field, t0 = _field_from_block(block, model)
    if not isinstance(field, LatticeField):
        raise TaskError(f"axis {axis}: needs a LatticeField, got a "
                        f"{type(field).__name__}")
    if axis == "M":
        dev_rho, dev_j = schrodinger_deviation(field, "J_a", t0 + LIMIT_TIME)
        return (dev_rho if config["observable"] == "nonrel-density-deviation"
                else dev_j)
    if axis == "a":
        from .currents import total_probability

        return total_probability(field, t0)
    from .gauge import norm_drift

    return norm_drift(field, value)


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    config = _load_config(args.config, SWEEP_SCHEMA)
    axis, grid = config["axis"], config["grid"]
    if axis == "quadrature-order":
        _model_from_block(config["model"], lattice=False)   # before any point

    point = functools.partial(_sweep_point, config)
    workers = min(args.workers, len(grid))
    try:
        if workers == 1:
            values = [point(v) for v in grid]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                values = list(pool.map(point, grid))
    except ValueError as exc:
        raise TaskError(f"axis {axis}: {exc}") from None

    payload = {"axis": axis, "grid": list(grid), "values": values}
    footer = ()
    if axis == "M":
        from .limits import fit_slope

        payload["fitted_slope"] = fit_slope(grid, values)
        footer = (f"fitted-slope {payload['fitted_slope']!r}",)
    artifact = (f"sweep_{axis}.csv", (axis, config["observable"]),
                list(zip(grid, values)), footer)
    return _emit(args, config, [artifact], f"sweep_{axis}.json", payload)
