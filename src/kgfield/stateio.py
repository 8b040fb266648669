"""Field-state files: text header plus raw coefficients.

Lattice states carry a binary payload (little-endian complex pairs,
plus sector then minus sector, row-major); plane-wave states are all
text since their mode lists are tiny.  Headers use repr for floats,
which round-trips every double exactly, so save/load is bit-faithful.
"""

from __future__ import annotations

import io

import numpy as np

from .core import LatticeField, ModelParams, MomentumLattice, PlaneWaveField

VERSION_TAG = "kgfield-state-v1"

# header keys each kind of state must carry, as save_state writes them
_HEADER_KEYS = {
    "lattice": ("dim", "L", "N", "M", "kappa", "a", "t0"),
    "planewave": ("dim", "M", "kappa", "a", "modes"),
}


def _header_lines(pairs) -> bytes:
    lines = [VERSION_TAG]
    for key, val in pairs:
        lines.append(f"{key} {val}")
    lines.append("data")
    return ("\n".join(lines) + "\n").encode("ascii")


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_state(path, field) -> None:
    """Write a lattice or plane-wave field to the state format."""
    if isinstance(field, LatticeField):
        _save_lattice(path, field)
    elif isinstance(field, PlaneWaveField):
        _save_planewave(path, field)
    else:
        raise TypeError(f"cannot serialize {type(field).__name__}")


def _save_lattice(path, field: LatticeField) -> None:
    lat = field.lattice
    p = field.params
    header = _header_lines([
        ("kind", "lattice"),
        ("dim", lat.dim),
        ("L", _fmt_floats(lat.box_lengths)),
        ("N", " ".join(str(n) for n in lat.nodes)),
        ("M", repr(p.mass)),
        ("kappa", repr(p.kappa)),
        ("a", repr(p.a)),
        ("t0", repr(float(field.t0))),
    ])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.phi_plus, dtype="<c16").tobytes())
        fh.write(np.ascontiguousarray(field.phi_minus, dtype="<c16").tobytes())


def _save_planewave(path, field: PlaneWaveField) -> None:
    p = field.params
    header = _header_lines([
        ("kind", "planewave"),
        ("dim", field.dim),
        ("M", repr(p.mass)),
        ("kappa", repr(p.kappa)),
        ("a", repr(p.a)),
        ("modes", len(field.modes)),
    ])
    body = io.StringIO()
    for eps, kvec, coeff in field.modes:
        body.write(f"{eps:+d} {_fmt_floats(kvec)} "
                   f"{repr(coeff.real)} {repr(coeff.imag)}\n")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body.getvalue().encode("ascii"))


def _parse_header(blob: bytes) -> tuple[dict, bytes]:
    newline = blob.find(b"\n")
    if newline < 0 or blob[:newline].decode("ascii", "replace") != VERSION_TAG:
        raise ValueError(f"not a {VERSION_TAG} file")
    fields = {}
    rest = blob[newline + 1:]
    while True:
        newline = rest.find(b"\n")
        if newline < 0:
            raise ValueError("header ended before the data marker")
        line = rest[:newline].decode("ascii")
        rest = rest[newline + 1:]
        if line == "data":
            return fields, rest
        key, _, val = line.partition(" ")
        if not val:
            raise ValueError(f"malformed header line {line!r}")
        fields[key] = val


def load_state(path):
    """Read a state file back into the matching field type."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields, payload = _parse_header(blob)
    kind = fields.get("kind")
    if kind not in _HEADER_KEYS:
        raise ValueError(f"unknown state kind {kind!r}")
    for key in _HEADER_KEYS[kind]:
        if key not in fields:
            raise ValueError(f"{kind} state header has no {key!r} line")
    if kind == "lattice":
        return _load_lattice(fields, payload)
    return _load_planewave(fields, payload)


def _model_params(fields: dict) -> ModelParams:
    return ModelParams(mass=float(fields["M"]),
                       kappa=float(fields["kappa"]),
                       a=float(fields["a"]))


def _load_lattice(fields: dict, payload: bytes) -> LatticeField:
    dim = int(fields["dim"])
    box = [float(v) for v in fields["L"].split()]
    nodes = [int(v) for v in fields["N"].split()]
    if len(box) != dim or len(nodes) != dim:
        raise ValueError("header dimensions are inconsistent")
    lat = MomentumLattice(box, nodes)
    count = lat.total_nodes
    need = 2 * count * 16
    if len(payload) != need:
        raise ValueError(
            f"payload holds {len(payload)} bytes, expected {need}")
    flat = np.frombuffer(payload, dtype="<c16")
    shape = tuple(lat.nodes)
    phi_plus = flat[:count].reshape(shape).astype(complex)
    phi_minus = flat[count:].reshape(shape).astype(complex)
    return LatticeField(lat, _model_params(fields), phi_plus, phi_minus,
                        t0=float(fields["t0"]))


def _load_planewave(fields: dict, payload: bytes) -> PlaneWaveField:
    dim = int(fields["dim"])
    count = int(fields["modes"])
    lines = payload.decode("ascii").splitlines()
    if len(lines) != count:
        raise ValueError(f"mode list holds {len(lines)} rows, expected {count}")
    modes = []
    for line in lines:
        parts = line.split()
        if len(parts) != dim + 3:
            raise ValueError(f"malformed mode row {line!r}")
        eps = int(parts[0])
        kvec = np.array([float(v) for v in parts[1:1 + dim]])
        coeff = complex(float(parts[-2]), float(parts[-1]))
        modes.append((eps, kvec, coeff))
    return PlaneWaveField(_model_params(fields), modes, dim)


def inspect_state(path) -> dict:
    """Header summary plus cheap payload statistics."""
    state = load_state(path)
    if isinstance(state, LatticeField):
        return {
            "kind": "lattice",
            "dim": state.lattice.dim,
            "L": list(state.lattice.box_lengths),
            "N": list(state.lattice.nodes),
            "M": state.params.mass,
            "kappa": state.params.kappa,
            "a": state.params.a,
            "t0": state.t0,
            "max_abs_plus": float(np.abs(state.phi_plus).max()),
            "max_abs_minus": float(np.abs(state.phi_minus).max()),
        }
    return {
        "kind": "planewave",
        "dim": state.dim,
        "M": state.params.mass,
        "kappa": state.params.kappa,
        "a": state.params.a,
        "modes": len(state.modes),
        "max_abs_coeff": max((abs(c) for _, _, c in state.modes),
                             default=0.0),
    }
