"""The in-package config validator against jsonschema, the test-only oracle.

kgfield.runs validates scenario and sweep configs with its own small
validator.  jsonschema stays the reference: on the shipped configs, a
theta sweep and mutated copies of them, both must accept and reject the
same documents, except that the validator's "integer" is a Python int
and JSON Schema's also admits an integral float such as 2.0.
"""

import copy
import json
import math
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfield.runs import (
    FIELD_SCHEMA,
    MODEL_SCHEMA,
    OUTPUT_SCHEMA,
    SCENARIO_SCHEMA,
    SWEEP_SCHEMA,
    TASK_SCHEMA,
    _AXES,
    _FIELDS,
    _SCHEMA_TYPES,
    _TASKS,
    _schema_violation,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {p.stem: json.loads(p.read_text())
           for p in sorted(CONFIGS.glob("*.json"))}
# the shipped configs and a theta sweep, an axis no shipped config uses:
# the documents the agreement tests mutate
DOCS = {**SHIPPED, "sweep_theta": {
    "axis": "theta",
    "grid": [0.0, 1.3, 2.6],
    "observable": "gauge-norm-drift",
    "model": {"d": 2, "L": [8.0, 8.0], "N": [16, 16], "M": 1.0, "a": 0.3},
    "field": {"construction": "localized-state", "epsilon": -1,
              "node": [8, 8]},
    "output": {"directory": "out_sweep_theta", "formats": ["json"]},
    "seed": 0,
}}

# the keywords runs._schema_violation implements
SCHEMA_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
    "exclusiveMaximum", "oneOf", "const", "enum"})


def _schema_for(name):
    return SCENARIO_SCHEMA if name.startswith("scenario") else SWEEP_SCHEMA


def _oracles(schema):
    """jsonschema as `jsonschema.validate` runs it, and the same validator
    with "integer" narrowed to a non-bool int."""
    plain = jsonschema.validators.validator_for(schema)
    plain.check_schema(schema)
    checker = plain.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool))
    strict = jsonschema.validators.extend(plain, type_checker=checker)
    return plain(schema), strict(schema)


ORACLES = {id(s): _oracles(s) for s in (SCENARIO_SCHEMA, SWEEP_SCHEMA)}


def _schemas(schema):
    """Every schema dict reachable from schema, schema included."""
    yield schema
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", []),
            *([schema["items"]] if "items" in schema else [])]
    for sub in subs:
        yield from _schemas(sub)


def _nodes(doc, path=()):
    """(path, node) of every node; in arrays only the first and last item,
    which stand for the others."""
    yield path, doc
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = ([(i, doc[i]) for i in sorted({0, len(doc) - 1})]
                 if isinstance(doc, list) and doc else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _edited(doc, path, value=None, delete=False):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


NAN = float("nan")
# wrong types, bools, bound edges on either side, non-finite and integral
# floats: planted at every node of every document in DOCS
PLANTED = ["x", None, {}, [], True, False, 0, 1, -1, 2, 3, 4, -0.5, 0.5,
           0.0, 1.0, 2.0, -1.0, 1e9, -1e9, NAN, math.inf, -math.inf]
CONSTS = [*_FIELDS, *_TASKS, *_AXES, "bogus"]


def _mutations(doc):
    """(mutated copy, planted value) pairs; the value is None for edits
    that plant nothing (deletions, added keys, resized arrays)."""
    for path, node in _nodes(doc):
        if path:
            yield _edited(doc, path, delete=True), None
            for value in PLANTED:
                yield _edited(doc, path, value), value
            if isinstance(node, (int, float)) and not isinstance(node, bool):
                yield _edited(doc, path, float(node)), float(node)
            if path[-1] in ("construction", "task", "axis"):
                for value in CONSTS:
                    yield _edited(doc, path, value), value
        if isinstance(node, dict):
            yield _edited(doc, path + ("extra",), 1), None
        if isinstance(node, list) and path:
            for resized in ([], node[:1], node[:-1], node + node[-1:],
                            node + node[-1:] * 3):
                yield _edited(doc, path, resized), None


def _integral_float(value):
    """True if value is, or holds at any depth, an integral float."""
    if isinstance(value, (dict, list)):
        items = value.values() if isinstance(value, dict) else value
        return any(_integral_float(v) for v in items)
    return isinstance(value, float) and value.is_integer()


def _assert_agrees(doc, schema, planted=None):
    """Same verdict as jsonschema; where an integral float was planted, as
    jsonschema with the narrowed "integer".  Returns the violation."""
    error = _schema_violation(doc, schema)
    oracle = ORACLES[id(schema)][_integral_float(planted)]
    assert (error is None) == oracle.is_valid(doc), (doc, error)
    return error


def _check_node(node):
    """Assert that runs._schema_violation implements the schema node as
    written: its keywords and type, an object node closed as runs._closed
    writes it, and a const-keyed oneOf decided by one key."""
    assert node.keys() <= SCHEMA_KEYWORDS, (
        f"keywords not implemented: {sorted(node.keys() - SCHEMA_KEYWORDS)}")
    # a list, not the dict: a list of type names is unhashable
    assert node.get("type", "object") in list(_SCHEMA_TYPES), (
        f"type not implemented: {node['type']!r}")
    if node.get("type") == "object" or node.keys() & {
            "properties", "required", "additionalProperties"}:
        assert (node.get("type") == "object" and "properties" in node
                and node.get("additionalProperties") is False), (
            f"an object node not closed as _closed writes it: {node}")
    consts = [{k for k, sub in b.get("properties", {}).items() if "const" in sub}
              for b in node.get("oneOf", ())]
    if any(consts):
        keys = set.intersection(*consts)
        assert len(keys) == 1, f"a oneOf keyed by {sorted(keys)}"
        (key,) = keys
        names = [b["properties"][key]["const"] for b in node["oneOf"]]
        assert len(set(names)) == len(names), f"repeated const in {names}"
        # a missing key is reported as the key's own required-property error
        assert all(key in b.get("required", ()) for b in node["oneOf"]), (
            f"a branch leaves {key!r} optional")


def test_every_schema_keyword_is_implemented():
    for schema in (SCENARIO_SCHEMA, SWEEP_SCHEMA, MODEL_SCHEMA, FIELD_SCHEMA,
                   TASK_SCHEMA, OUTPUT_SCHEMA):
        for sub in _schemas(schema):
            _check_node(sub)


def test_unimplemented_keyword_raises():
    # the static walk above stops a keyword or type the validator lacks
    with pytest.raises(AssertionError, match="pattern"):
        _check_node({"type": "string", "pattern": "^x$"})
    with pytest.raises(AssertionError, match="not closed"):
        _check_node({"type": "object", "properties": {},
                     "additionalProperties": True})
    for kind in ("boolean", "null", ["number", "null"]):
        with pytest.raises(AssertionError, match="type not implemented"):
            _check_node({"type": kind})


@pytest.mark.parametrize("schema", [
    {"type": "object"},
    {"type": "object", "properties": {}},
    {"type": "object", "additionalProperties": False},
    {"properties": {}, "additionalProperties": False},
    {"oneOf": [{"type": "number"}], "required": ["x"]},
])
def test_object_node_must_be_closed(schema):
    # every object node is written by runs._closed; an open or partial one
    # would let unknown keys through, and the static walk stops it
    with pytest.raises(AssertionError, match="object node"):
        _check_node(schema)


@pytest.mark.parametrize("branches, words", [
    ([{"k": "x", "j": "y"}, {"k": "z", "j": "w"}], "keyed by ['j', 'k']"),
    ([{"k": "x"}, {"j": "y"}], "keyed by []"),
    ([{"k": "x"}, {"k": "x"}], "repeated const"),
    ([{"k": "x"}, {"k": "z", "required": []}], "leaves 'k' optional"),
])
def test_const_keyed_one_of_has_one_key_and_distinct_names(branches, words):
    # the validator picks a branch by one const property, which every
    # branch requires
    node = {"oneOf": [
        {"type": "object", "additionalProperties": False,
         "properties": {k: {"const": v} for k, v in b.items()
                        if k != "required"},
         "required": b.get("required", sorted(b))}
        for b in branches]}
    with pytest.raises(AssertionError, match=re.escape(words)):
        _check_node(node)


def test_schema_branches_come_from_the_dispatch_tables():
    consts = lambda schema, key: [b["properties"][key]["const"]
                                  for b in schema["oneOf"]]
    assert consts(FIELD_SCHEMA, "construction") == list(_FIELDS)
    assert consts(TASK_SCHEMA, "task") == list(_TASKS)
    assert consts(SWEEP_SCHEMA, "axis") == list(_AXES)
    for branch, (observables, item, fewest, model, field) in zip(
            SWEEP_SCHEMA["oneOf"], _AXES.values()):
        props = branch["properties"]
        assert props["observable"] == {"enum": list(observables)}
        assert props["grid"] == {"type": "array", "items": item,
                                 "minItems": fewest}
        assert props["model"] is model and props.get("field") is field
        assert ("field" in branch["required"]) == (field is not None)
    # the lattice axes take every construction but plane-waves; M only a
    # gaussian packet, whose sector the axis sets
    lattice = [k for k in _FIELDS if k != "plane-waves"]
    for axis in ("a", "theta"):
        assert consts(_AXES[axis][4], "construction") == lattice
    (packet,) = _AXES["M"][4]["oneOf"]
    assert packet["properties"].keys() == (
        FIELD_SCHEMA["oneOf"][0]["properties"].keys() - {"sector"})


def test_one_of_needs_exactly_one_branch():
    # the shipped oneOf branches are disjoint; an overlapping pair is not
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    oracle = jsonschema.validators.validator_for(schema)(schema)
    for value in (1, 1.5, "x"):
        assert (_schema_violation(value, schema) is None) == oracle.is_valid(value)
    assert "exactly one" in _schema_violation(1, schema)[1]


@pytest.mark.parametrize("name", DOCS)
def test_shipped_configs_and_mutations_agree_with_jsonschema(name):
    doc, schema = DOCS[name], _schema_for(name)
    assert _schema_violation(doc, schema) is None
    verdicts = set()
    departures = 0
    for mutated, planted in _mutations(doc):
        error = _assert_agrees(mutated, schema, planted)
        verdicts.add(error is None)
        if error and _integral_float(planted):
            departures += ORACLES[id(schema)][0].is_valid(mutated)
    # the mutations reach both verdicts, and jsonschema itself accepts an
    # integral float at an integer position that the validator rejects
    assert verdicts == {True, False}
    assert departures >= 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5)
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(CONSTS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["task", "axis", "construction", "d",
                                       "extra", "times", "k"]),
                      inner, max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(DOCS)), pick=st.integers(0, 10 ** 6),
       value=JSON_VALUES)
def test_random_values_at_random_nodes_agree_with_jsonschema(name, pick, value):
    doc = DOCS[name]
    paths = [p for p, _ in _nodes(doc) if p]
    mutated = _edited(doc, paths[pick % len(paths)], value)
    _assert_agrees(mutated, _schema_for(name), value)


@pytest.mark.parametrize("doc, where, reason", [
    (_edited(SHIPPED["scenario_localized"], ("field", "node", 1), 2.5),
     ("field", "node", 1), "is not of type 'integer'"),
    (_edited(SHIPPED["scenario_packet"], ("field", "sigma"), -1.0),
     ("field", "sigma"), "less than or equal to the minimum of 0"),
    (_edited(SHIPPED["scenario_packet"], ("tasks", 3, "which"), "J"),
     ("tasks", 3, "which"), "is not one of ['J_a', 'calJ_a']"),
    (_edited(SHIPPED["scenario_packet"], ("tasks", 2), "bogus"),
     ("tasks", 2), "is not valid under exactly one of the given schemas"),
    (_edited(SHIPPED["scenario_two_modes"], ("field", "modes", 0, "epsilon"),
             True), ("field", "modes", 0, "epsilon"), "is not one of [1, -1]"),
    (_edited(SHIPPED["sweep_a"], ("model", "extra"), 1),
     ("model",), "('extra' was unexpected)"),
    (_edited(SHIPPED["sweep_a"], ("model", "M"), None, delete=True),
     ("model",), "'M' is a required property"),
    # a const-keyed oneOf reports by its key
    (_edited(SHIPPED["scenario_packet"], ("tasks", 2, "task"), "bogus"),
     ("tasks", 2, "task"), "'bogus' is not one of ['total_probability', "),
    (_edited(SHIPPED["sweep_a"], ("axis",), None, delete=True),
     (), "'axis' is a required property"),
    # a negative node index would wrap to the far side of the box
    (_edited(SHIPPED["scenario_localized"], ("field", "node", 0), -1),
     ("field", "node", 0), "-1 is less than the minimum of 0"),
])
def test_violation_names_the_path_and_the_reason(doc, where, reason):
    schema = SCENARIO_SCHEMA if "tasks" in doc else SWEEP_SCHEMA
    path, message = _schema_violation(doc, schema)
    assert path == where
    assert reason in message


def test_nan_passes_every_numeric_bound_as_in_jsonschema():
    # the validator does not see one from a file: runs._load_config rejects
    # non-finite numbers while it parses (tests/test_cli.py)
    doc = _edited(SHIPPED["sweep_a"], ("model", "M"), NAN)
    doc = _edited(doc, ("model", "a"), NAN)
    assert _schema_violation(doc, SWEEP_SCHEMA) is None
    assert ORACLES[id(SWEEP_SCHEMA)][0].is_valid(doc)
