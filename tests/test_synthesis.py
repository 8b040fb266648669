"""The in-place synthesis path: bitwise guards, aliasing and memory.

mode_pair, mode_psi, mode_psidot, modes_to_grid, grid_to_modes,
localized_state and inner_0 re-phase, transform and scale on buffers
they own.  Each must give the bytes of the plain expressions below,
signed zeros included.  The references are written out here on purpose:
numpy elides temporaries of 256 KiB and more into in-place operations
with swapped operands, and complex multiplication is not bitwise
commutative, so the two shapes sit on either side of that threshold.
At a field's own reference time mode_pair multiplies by a scalar unit
instead of an exp grid; the routes must still give the exp grid's bytes.
A sector that is zero in every byte is neither re-phased there nor
reduced against another zero sector; the one-sector routes must still
give the bytes of the two-grid expressions.  A localized state's delta
is transformed only along the lines through its node; that must give
the bytes of fftn on the dense delta.  A lattice builds ksq anew on every
read and keeps only its per-mass omega grids and its last re-phasing grid
exp(-i omega dt).  localized_state and grid_to_modes scale through one
analysis kernel in every dimension: it builds the 1/N centering scale
from the per-axis sign factors for the rows k0 >= 0 of the whole 1-D or
2-D spectrum, or of one (N0, N2) plane of a 3-D one, and applies it and
omega^(-1/2) to the rows of k0 and -k0; omega^(-1/2) is built on the
columns k_last >= 0 only, once per mirror pair of 3-D planes j, N1 - j,
which every 3-D axis-0 pass visits back to back;
the inner products build omega's flat blocks whether or not the cache
holds the grid; so no float grid, and the omega cache is never filled by
them.  Each row and block must give the grid's bytes.
Every route away from t0, evolve included, reads the one read-only phase
grid per (mass, dt): the routes must give the plain expressions' bytes
whether the grid was built for them or found, and no output may share
its memory.  The currents and the Schrodinger reference synthesize into
the slots of one workspace per call; they must give the bytes of one new
grid per synthesis, and return no view of the workspace.
modes_to_grid writes modes times the centering sign into the corner
blocks of a +0 grid and runs ifftn's per-axis ifft loop by hand, on only
the slabs that hold modes until an axis whose length does not map a +0
line to +0 bytes (Bluestein lengths such as 404); it must give the bytes
of ifftn on the whole signed grid for pads 1, 2 and 3, and a spy on
np.fft.ifft shows which slabs it transforms.  localized_state,
positive_packet and energy_split declare their np.zeros sector instead
of scanning it.  core._transform is the package's one caller of numpy's
fft, ifft, fftn and ifftn (localized states, grid_to_modes, the dense
magnetic operator and the _keeps_zero probe make no call outside it).
It copies each (N0, N2) plane of a 3-D grid, whatever its size, into
one contiguous plane for the axis-0 pass: it must give numpy's bytes, a
spy shows each axis-0 line transformed once from a C-contiguous plane,
and the shipped 64^3 localized scenario takes that route.  The grid-wide
factors ride in the plane loops: synthesis signs and transforms one
axis-0 row at a time and scales each plane by N, and the delta transform
builds its planes into an np.empty grid and applies the 1/N sign and
omega^(-1/2) weights per plane; a NaN-poisoned np.empty shows every
entry written.
"""

import functools
import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kgfield import core
from kgfield.cli import main
from kgfield.core import (
    _BLOCK,
    ModelParams,
    MomentumLattice,
    apply_C,
    energy_split,
    evolve,
    positive_packet,
    random_field,
)
from kgfield.currents import (
    _current_and_rate,
    PAD,
    continuity_residual,
    current_calJa,
    current_Ja,
    rho_a,
    total_probability,
)
from kgfield.em import EMBackground, build_Dq
from kgfield.gauge import gauge_transform
from kgfield.inner import inner_0, inner_a, inner_a_split
from kgfield.limits import schrodinger_reference
from kgfield.localization import localized_state, map_Ua

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PARAMS = ModelParams(mass=1.3, kappa=0.8, a=0.35)
T0, T = 0.25, 0.9

# 64^2 complex grids are 64 KiB, 32^3 ones 512 KiB
SHAPES = {"64x64": ((7.0, 9.0), (64, 64)),
          "32x32x32": ((6.0, 6.0, 6.0), (32, 32, 32))}


def _table(lat, scale=1.0):
    """scale times the centering phase e^{i k x0}, x0 = -L/2 per axis."""
    table = scale
    for k, L in zip(lat.k_grids, lat.box_lengths):
        table = table * np.where(np.rint(k * L / (2.0 * np.pi)) % 2 == 0,
                                 1.0, -1.0)
    return table


def old_pair(f, t):
    ph = np.exp(-1j * f.omega * (t - f.t0))
    return f.phi_plus * ph, f.phi_minus * np.conj(ph)


def old_psi(f, t):
    p, m = old_pair(f, t)
    return p + m


def old_psidot(f, t):
    p, m = old_pair(f, t)
    return -1j * f.omega * (p - m)


def old_modes_to_grid(lat, modes, pad=1):
    fine = lat
    if pad != 1:
        fine = lat.refined(pad)
        padded = np.zeros(fine.nodes, dtype=complex)
        padded[np.ix_(*(((np.arange(n) + n // 2) % n - n // 2) % (pad * n)
                        for n in lat.nodes))] = modes
        modes = padded
    return np.fft.ifftn(modes * _table(fine)) * fine.total_nodes


def old_grid_to_modes(lat, grid):
    return np.fft.fftn(grid) * _table(lat, 1.0 / lat.total_nodes)


def old_localized_modes(lat, params, idx):
    delta = np.zeros(lat.nodes, dtype=complex)
    delta[idx] = 1.0 / np.sqrt(lat.cell_volume)
    modes = old_grid_to_modes(lat, delta)
    winv = lat.omega(params.mass) ** -0.5
    root = np.sqrt(params.mass / params.kappa)
    return root * winv * modes


def blocked_vdot(x, y, block=8192):
    """np.vdot over blocks of 8192 entries summed in order; a single call
    below that size.  Longer BLAS dot products round by thread count."""
    x, y = x.reshape(-1), y.reshape(-1)
    parts = [np.vdot(x[i:i + block], y[i:i + block])
             for i in range(0, x.size, block)]
    acc = parts[0]
    for part in parts[1:]:
        acc = acc + part
    return acc


def old_inner(f1, f2, a=0.0):
    w = f1.omega
    p2, m2 = old_pair(f2, f1.t0)
    acc = ((1.0 + a) * blocked_vdot(f1.phi_plus, w * p2)
           + (1.0 - a) * blocked_vdot(f1.phi_minus, w * m2))
    return complex(acc) * f1.lattice.volume * (f1.params.kappa / f1.params.mass)


def assert_same_bytes(new, old):
    new = np.ascontiguousarray(new)
    old = np.ascontiguousarray(old)
    assert new.dtype == old.dtype and new.shape == old.shape
    if new.tobytes() != old.tobytes():
        words = (new.reshape(-1).view(np.uint64)
                 != old.reshape(-1).view(np.uint64))
        pytest.fail(f"{np.count_nonzero(words)} of {words.size} float "
                    f"words differ")


def _fields(shape):
    L, N = SHAPES[shape]
    lat = MomentumLattice(L, N)
    f = random_field(lat, PARAMS, seed=5, t0=T0)
    plus, minus = energy_split(f)
    return lat, {"both": f, "plus": plus, "minus": minus}


@pytest.mark.parametrize("shape", SHAPES)
def test_mode_space_routes_are_bitwise_unchanged(shape):
    _, fields = _fields(shape)
    for f in fields.values():
        for new, old in zip(f.mode_pair(T), old_pair(f, T)):
            assert_same_bytes(new, old)
        assert_same_bytes(f.mode_psi(T), old_psi(f, T))
        assert_same_bytes(f.mode_psidot(T), old_psidot(f, T))


@pytest.mark.parametrize("shape", SHAPES)
def test_grid_routes_are_bitwise_unchanged(shape):
    lat, fields = _fields(shape)
    for f in fields.values():
        assert_same_bytes(f.psi_grid(T), old_modes_to_grid(lat, old_psi(f, T)))
        assert_same_bytes(f.psidot_grid(T),
                          old_modes_to_grid(lat, old_psidot(f, T)))
        for pad in (1, 2):
            assert_same_bytes(lat.modes_to_grid(f.phi_plus, pad),
                              old_modes_to_grid(lat, f.phi_plus, pad))
        grid = old_modes_to_grid(lat, old_psi(f, T))
        assert_same_bytes(lat.grid_to_modes(grid), old_grid_to_modes(lat, grid))


@pytest.mark.parametrize("shape", SHAPES)
def test_inner_0_is_bitwise_unchanged(shape):
    _, fields = _fields(shape)
    g = fields["both"].copy_with(t0=-0.4)
    for f in fields.values():
        for f1, f2 in ((f, g), (g, f), (f, f)):
            assert_same_bytes(np.complex128(inner_0(f1, f2)),
                              np.complex128(old_inner(f1, f2)))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("a", [-0.4, 0.3])
def test_inner_a_is_bitwise_unchanged(shape, a):
    _, fields = _fields(shape)
    params = ModelParams(PARAMS.mass, PARAMS.kappa, a)
    fields = {k: f.copy_with(params=params) for k, f in fields.items()}
    g = fields["both"].copy_with(t0=-0.4)
    for f in fields.values():
        for f1, f2 in ((f, g), (g, f), (f, f)):
            assert_same_bytes(np.complex128(inner_a(f1, f2)),
                              np.complex128(old_inner(f1, f2, a)))


# 96x40x24 has a partial last block in mode_psidot; 202 and 254 take
# pocketfft's Bluestein route, where a line of zeros transforms to signed
# zeros that the other lines must carry; 202x12 pairs Bluestein planes
DELTA_SHAPES = [(16,), (202,), (64, 64), (48, 80), (8, 254), (4, 202),
                (202, 12), (32, 32, 32), (96, 40, 24), (6, 6, 202)]
# 3-D grids for the plane route: a Bluestein length (202) on axis 0, and
# two short ones
GATHER_SHAPES = [(202, 6, 8), (10, 6, 8), (8, 6, 4)]


def _delta_nodes(nodes, seed=11):
    """Every corner node (0 or N-1 on each axis) and four seeded ones."""
    rng = np.random.default_rng(seed)
    drawn = [tuple(int(rng.integers(n)) for n in nodes) for _ in range(4)]
    return [*itertools.product(*[(0, n - 1) for n in nodes]), *drawn]


def _delta_lattice(nodes):
    """Box lengths 3, 4, 5 on axes 0, 1, 2, and the nodes."""
    return [3.0 + i for i in range(len(nodes))], nodes


# (8, 202, 6) adds a Bluestein N1 whose half is odd: its weights are
# built for the planes 0..101 and mirrored to 102..201
LOCALIZED_SHAPES = {**SHAPES, **{str(n): _delta_lattice(n)
                                  for n in DELTA_SHAPES + GATHER_SHAPES
                                  + [(8, 202, 6)]}}


@pytest.mark.parametrize("shape", LOCALIZED_SHAPES)
@pytest.mark.parametrize("eps", [1, -1])
def test_localized_state_is_bitwise_unchanged(shape, eps):
    L, N = LOCALIZED_SHAPES[shape]
    lat = MomentumLattice(L, N)
    axes = lat.coordinate_axes()
    for idx in _delta_nodes(N):
        y = [axes[d][idx[d]] for d in range(len(N))]
        f = localized_state(eps, y, lat, PARAMS, t0=T0).field
        modes = old_localized_modes(lat, PARAMS, idx)
        zero = np.zeros_like(modes)
        old = f.copy_with(phi_plus=modes if eps > 0 else zero,
                          phi_minus=zero if eps > 0 else modes)
        assert_same_bytes(f.phi_plus, old.phi_plus)
        assert_same_bytes(f.phi_minus, old.phi_minus)
        for t in (T0, T):
            assert_same_bytes(f.psi_grid(t),
                              old_modes_to_grid(lat, old_psi(old, t)))
            assert_same_bytes(f.psidot_grid(t),
                              old_modes_to_grid(lat, old_psidot(old, t)))


def _planted(phi):
    """phi with +-0 real and imaginary parts planted."""
    flat = phi.copy().reshape(-1)
    flat[1::7] = -0.0 + 1j * flat[1::7].imag
    flat[2::11] = flat[2::11].real - 0.0j
    flat[3::13] = complex(-0.0, -0.0)
    flat[4::17] = complex(0.0, -0.0)
    return flat.reshape(phi.shape)


def _with_signed_zeros(f):
    """f with +-0 real and imaginary parts planted in both sectors."""
    return f.copy_with(phi_plus=_planted(f.phi_plus),
                       phi_minus=_planted(f.phi_minus))


@pytest.mark.parametrize("shape", SHAPES)
def test_routes_at_the_reference_time_are_bitwise_unchanged(shape):
    lat, fields = _fields(shape)
    t0 = 0.9
    g = _with_signed_zeros(random_field(lat, PARAMS, seed=6, t0=t0))
    for f in fields.values():
        f = _with_signed_zeros(f.copy_with(t0=t0))
        for new, old in zip(f.mode_pair(t0), old_pair(f, t0)):
            assert_same_bytes(new, old)
        assert_same_bytes(f.mode_psi(t0), old_psi(f, t0))
        assert_same_bytes(f.mode_psidot(t0), old_psidot(f, t0))
        assert_same_bytes(f.psi_grid(t0), old_modes_to_grid(lat, old_psi(f, t0)))
        assert_same_bytes(f.psidot_grid(t0),
                          old_modes_to_grid(lat, old_psidot(f, t0)))
        for f1, f2 in ((f, g), (g, f), (f, f)):
            assert_same_bytes(np.complex128(inner_0(f1, f2)),
                              np.complex128(old_inner(f1, f2)))
            assert_same_bytes(np.complex128(inner_a(f1, f2)),
                              np.complex128(old_inner(f1, f2, PARAMS.a)))
    idx = tuple(n // 3 for n in lat.nodes)
    y = [axis[i] for axis, i in zip(lat.coordinate_axes(), idx)]
    state = localized_state(1, y, lat, PARAMS, t0=t0).field
    assert_same_bytes(state.psi_grid(t0),
                      old_modes_to_grid(lat, old_psi(state, t0)))


def test_reference_time_takes_no_grid_sized_exp(monkeypatch):
    lat, fields = _fields("32x32x32")
    f = fields["both"]
    g = random_field(lat, PARAMS, seed=6, t0=f.t0)
    sizes = []
    real_exp = np.exp

    def exp(x, *args, **kw):
        sizes.append(np.size(x))
        return real_exp(x, *args, **kw)

    monkeypatch.setattr(np, "exp", exp)
    f.mode_pair(f.t0)
    f.psi_grid(f.t0)
    inner_0(f, g)
    assert max(sizes, default=0) <= 1, f"exp over {max(sizes)} elements"
    f.mode_pair(T)                  # the spy sees the moving case
    assert max(sizes) == lat.total_nodes


def test_transforms_leave_their_input_alone():
    lat, fields = _fields("32x32x32")
    f = fields["both"]
    modes = f.mode_psi(T)
    kept = modes.copy()
    for pad in (1, 2):
        lat.modes_to_grid(modes, pad)
        assert_same_bytes(modes, kept)
    for grid in (f.psi_grid(T), f.psi_grid(T).real.copy()):
        kept = grid.copy()
        lat.grid_to_modes(grid)
        assert_same_bytes(grid, kept)


def test_mode_pair_returns_new_arrays():
    _, fields = _fields("32x32x32")
    f = fields["both"]
    plus, minus = f.phi_plus.copy(), f.phi_minus.copy()
    for t in (T0, T):               # T0 is the field's own reference time
        for out in f.mode_pair(t):
            assert not np.shares_memory(out, f.phi_plus)
            assert not np.shares_memory(out, f.phi_minus)
        for route in (f.mode_psi, f.mode_psidot, f.psi_grid, f.psidot_grid):
            route(t)
    assert_same_bytes(f.phi_plus, plus)
    assert_same_bytes(f.phi_minus, minus)


# complex grids above held memory at 48^3; inner_0 of fields that share
# t0 copies no grid (measured 0.23: the omega span and the scratch block)
BUDGETS = {"psi_grid": 2.5, "psidot_grid": 2.5, "inner_0": 0.5,
           "one-sector-psi_grid": 1.75, "one-sector-inner_0": 0.5}


@pytest.mark.parametrize("route", BUDGETS)
def test_lean_routes_stay_within_their_memory_budget(route):
    lat = MomentumLattice([6.0] * 3, [48] * 3)
    if route.startswith("one-sector"):
        # the zero sector is neither re-phased nor reduced: one grid less
        f = localized_state(1, [0.0] * 3, lat, PARAMS, t0=T0).field
        t = T0
    else:
        f, t = random_field(lat, PARAMS, seed=7, t0=T0), T
    run = {"psi_grid": lambda: f.psi_grid(t),
           "psidot_grid": lambda: f.psidot_grid(t),
           "inner_0": lambda: inner_0(f, f)}[route.split("-")[-1]]
    run()                   # the lattice caches its frequencies
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grids = (peak - held) / (16 * lat.total_nodes)
    assert grids <= BUDGETS[route], \
        f"{route} peaked {grids:.2f} complex grids above held"


class _TwoGrid:
    """A field as the two-grid code saw it: mode_pair multiplies both
    sectors by the exp phase grid, zero or not."""

    def __init__(self, f):
        self.f, self.lattice, self.params = f, f.lattice, f.params
        self.omega, self.t0 = f.omega, f.t0

    def mode_pair(self, t):
        return old_pair(self.f, t)


def _one_sector_fields(lat, t0):
    """Localized states of both signs and the + half of a random field,
    each with +-0 planted in its live sector."""
    idx = tuple(n // 3 for n in lat.nodes)
    y = [axis[i] for axis, i in zip(lat.coordinate_axes(), idx)]
    out = {}
    for eps in (1, -1):
        f = localized_state(eps, y, lat, PARAMS, t0=t0).field
        out[eps] = (f.copy_with(phi_plus=_planted(f.phi_plus)) if eps > 0
                    else f.copy_with(phi_minus=_planted(f.phi_minus)))
    plus, _ = energy_split(random_field(lat, PARAMS, seed=8, t0=t0))
    out["split"] = plus.copy_with(phi_plus=_planted(plus.phi_plus))
    return out


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("t", ["t0", "T"])
def test_one_sector_routes_are_bitwise_unchanged(shape, t):
    lat, _ = _fields(shape)
    fields = _one_sector_fields(lat, T0)
    t = T0 if t == "t0" else T
    for key, f in fields.items():
        assert f.zero_sectors == ((False, True) if key != -1 else (True, False))
        for new, old in zip(f.mode_pair(t), old_pair(f, t)):
            assert_same_bytes(new, old)
        assert_same_bytes(f.mode_psi(t), old_psi(f, t))
        assert_same_bytes(f.mode_psidot(t), old_psidot(f, t))
        assert_same_bytes(f.psi_grid(t), old_modes_to_grid(lat, old_psi(f, t)))
        assert_same_bytes(f.psidot_grid(t),
                          old_modes_to_grid(lat, old_psidot(f, t)))
        old = _TwoGrid(f)
        for new, ref in ((current_Ja(f, t), current_Ja(old, t)),
                         (current_calJa(f, t), current_calJa(old, t))):
            assert_same_bytes(new.components, ref.components)
        assert_same_bytes(rho_a(f, t), rho_a(old, t))
        for a in (None, 0.0):
            new, ref = map_Ua(f, a, t), map_Ua(old, a, t)
            assert_same_bytes(new.xi1, ref.xi1)
            assert_same_bytes(new.xi2, ref.xi2)


@pytest.mark.parametrize("shape", SHAPES)
def test_one_sector_inner_products_are_bitwise_unchanged(shape):
    lat, _ = _fields(shape)
    ones = list(_one_sector_fields(lat, T0).values())
    ones.append(ones[0].copy_with(t0=-0.4))      # a zero sector, t0 apart
    twos = [_with_signed_zeros(random_field(lat, PARAMS, seed=6, t0=t0))
            for t0 in (T0, -0.4)]
    pairs = [(f1, f2) for f1 in ones for f2 in ones]
    pairs += [(f1, f2) for f in ones for g in twos for f1, f2 in ((f, g), (g, f))]
    for f1, f2 in pairs:
        assert_same_bytes(np.complex128(inner_0(f1, f2)),
                          np.complex128(old_inner(f1, f2)))
        assert_same_bytes(np.complex128(inner_a(f1, f2)),
                          np.complex128(old_inner(f1, f2, PARAMS.a)))


def test_zero_sector_record_follows_the_content():
    lat, fields = _fields("64x64")
    f = _one_sector_fields(lat, T0)[1]
    assert f.zero_sectors == (False, True)
    assert f.copy_with(t0=T).zero_sectors == (False, True)
    # a copy with new content derives its record again
    assert f.copy_with(phi_minus=fields["both"].phi_minus).zero_sectors \
        == (False, False)
    # -0 is a non-zero byte: a sector of -0 must take the grid route
    for neg in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
        g = f.copy_with(phi_minus=np.full(f.phi_minus.shape, neg))
        assert g.zero_sectors == (False, False)
        assert_same_bytes(g.mode_psi(T0), old_psi(g, T0))
    assert apply_C(f).zero_sectors == (False, False)
    # the recorded sector is read-only, so the record cannot go stale
    with pytest.raises(ValueError, match="read-only"):
        f.phi_minus[3, 4] = 1.0
    assert positive_packet(lat, PARAMS, 0.8).zero_sectors == (False, True)
    both_zero = f.copy_with(phi_plus=np.zeros(f.phi_plus.shape, dtype=complex))
    assert both_zero.zero_sectors == (True, True)
    assert_same_bytes(both_zero.psi_grid(T0),
                      old_modes_to_grid(lat, old_psi(both_zero, T0)))
    assert inner_0(both_zero, both_zero) == 0


def test_one_sector_builders_declare_their_zero_sector(monkeypatch):
    lat, fields = _fields("32x32x32")
    scanned = []
    real_scan = core._all_bytes_zero

    def scan(grid):
        scanned.append(grid)
        return real_scan(grid)

    monkeypatch.setattr(core, "_all_bytes_zero", scan)
    y = [axis[3] for axis in lat.coordinate_axes()]
    built = {"localized+": localized_state(1, y, lat, PARAMS).field,
             "localized-": localized_state(-1, y, lat, PARAMS).field,
             "packet": positive_packet(lat, PARAMS, 0.8)}
    built["split+"], built["split-"] = energy_split(fields["both"])
    for label, f in built.items():
        zero = 1 if label[-1] != "-" else 0
        assert f.zero_sectors == (zero == 0, zero == 1), label
        sector = (f.phi_plus, f.phi_minus)[zero]
        assert not sector.flags.writeable
        assert not any(np.shares_memory(g, sector) for g in scanned), label
    # a user's field and a copy still scan both sectors
    scanned.clear()
    built["packet"].copy_with(t0=T)
    assert len(scanned) == 2


@pytest.mark.parametrize("eps", [1, -1])
def test_sector_maps_of_one_sector_fields_keep_their_bytes(eps):
    lat, _ = _fields("32x32x32")
    f = _one_sector_fields(lat, T0)[eps]
    g = random_field(lat, PARAMS, seed=6, t0=T0)
    flipped = apply_C(f)
    assert_same_bytes(flipped.phi_plus, f.phi_plus)
    assert_same_bytes(flipped.phi_minus, -f.phi_minus)
    images = [flipped]
    for theta in (0.7, 2.5, -1.9):
        moved = gauge_transform(f, theta)
        a = PARAMS.a
        assert_same_bytes(moved.phi_plus,
                          np.exp(-1j * (a + 1.0) * theta) * f.phi_plus)
        assert_same_bytes(moved.phi_minus,
                          np.exp(-1j * (a - 1.0) * theta) * f.phi_minus)
        images.append(moved)
    for h in images:
        assert_same_bytes(h.psi_grid(T0), old_modes_to_grid(lat, old_psi(h, T0)))
        for f1, f2 in ((h, f), (f, h), (h, h), (h, g)):
            assert_same_bytes(np.complex128(inner_0(f1, f2)),
                              np.complex128(old_inner(f1, f2)))


# ------------------------------------------- localized states without fftn

@pytest.mark.parametrize("nodes", DELTA_SHAPES + GATHER_SHAPES, ids=str)
def test_delta_transform_gives_the_dense_fftn_bytes(nodes):
    lat = MomentumLattice(*_delta_lattice(nodes))
    value = 1.0 / np.sqrt(lat.cell_volume)
    for idx in _delta_nodes(nodes):
        delta = np.zeros(nodes, dtype=complex)
        delta[idx] = value
        old = old_grid_to_modes(lat, delta)
        assert_same_bytes(lat._analyze_delta(idx, value), old)
        assert_same_bytes(lat.grid_to_modes(delta), old)


def _poisoned_empty(monkeypatch):
    """np.empty whose float and complex grids come back NaN in every
    entry; returns the list of shapes it served."""
    shapes, real = [], np.empty

    def empty(shape, *args, **kw):
        grid = real(shape, *args, **kw)
        if grid.dtype.kind in "fc":
            grid.fill(np.nan)
        shapes.append(grid.shape)
        return grid

    monkeypatch.setattr(np, "empty", empty)
    return shapes


@pytest.mark.parametrize("nodes", GATHER_SHAPES, ids=str)
def test_the_plane_route_writes_every_entry_of_its_grid(monkeypatch, nodes):
    """The 3-D delta transform builds its planes into an np.empty grid
    and synthesis writes its np.empty grid a row at a time: a NaN left
    in either would show in the bytes."""
    lat = MomentumLattice(*_delta_lattice(nodes))
    value = 1.0 / np.sqrt(lat.cell_volume)
    axes = lat.coordinate_axes()
    dense = _planted_inputs(nodes)["dense"]
    cases = []
    for idx in _delta_nodes(nodes):
        delta = np.zeros(nodes, dtype=complex)
        delta[idx] = value
        y = [axis[i] for axis, i in zip(axes, idx)]
        cases += [(lambda idx=idx: lat._analyze_delta(idx, value),
                   old_grid_to_modes(lat, delta)),
                  (lambda y=y: localized_state(1, y, lat, PARAMS).field.phi_plus,
                   old_localized_modes(lat, PARAMS, idx))]
    cases += [(lambda: lat.grid_to_modes(dense), old_grid_to_modes(lat, dense)),
              (lambda: lat.modes_to_grid(dense),
               old_modes_to_grid(lat, dense))]
    shapes = _poisoned_empty(monkeypatch)
    for run, old in cases:
        shapes.clear()
        assert_same_bytes(run(), old)
        assert nodes in shapes          # the grid came from np.empty


def _dense_spy(monkeypatch, lat):
    """(name, input shape) of every dense transform of lat's grid: an
    np.fft.fftn call, a grid_to_modes call, and an np.fft.fft of the
    whole grid along its last axis, which _analyze_delta makes only when
    that axis is axis 0 (a 1-D lattice, whose one line is the grid)."""
    calls = []
    real = {"fftn": np.fft.fftn, "fft": np.fft.fft,
            "grid_to_modes": MomentumLattice.grid_to_modes}

    def fftn(a, *args, **kw):
        calls.append(("fftn", np.shape(a)))
        return real["fftn"](a, *args, **kw)

    def fft(a, *args, axis=-1, **kw):
        ndim = np.ndim(a)
        if np.shape(a) == lat.nodes and axis % ndim == ndim - 1 > 0:
            calls.append(("fft", np.shape(a)))
        return real["fft"](a, *args, axis=axis, **kw)

    def grid_to_modes(self, grid):
        calls.append(("grid_to_modes", np.shape(grid)))
        return real["grid_to_modes"](self, grid)

    monkeypatch.setattr(np.fft, "fftn", fftn)
    monkeypatch.setattr(np.fft, "fft", fft)
    monkeypatch.setattr(MomentumLattice, "grid_to_modes", grid_to_modes)
    return calls


def test_localized_state_makes_no_fftn_call(monkeypatch):
    lat = MomentumLattice([6.0] * 3, [32] * 3)
    calls = _dense_spy(monkeypatch, lat)
    localized_state(-1, [0.375, -1.5, 2.25], lat, PARAMS)
    assert calls == []
    lat.grid_to_modes(np.ones(lat.nodes))   # the spy sees a dense transform
    assert calls == [("grid_to_modes", lat.nodes), ("fft", lat.nodes)]


def test_centering_sign_is_cached_only_as_its_per_axis_int8_factors():
    """The lattice keeps the centering phase as one int8 +-1 factor per
    axis, sum(N) bytes in all; the routes build what they need of the
    sign from these, and leave no other int8 array on the lattice."""
    for L, N in SHAPES.values():
        lat = MomentumLattice(L, N)
        f = random_field(lat, PARAMS, seed=2, t0=T0)
        lat.grid_to_modes(f.psi_grid(T))
        localized_state(1, [0.0] * len(N), lat, PARAMS).field.psi_grid(T)
        held = [a for v in vars(lat).values()
                for a in (v.values() if isinstance(v, dict) else
                          v if isinstance(v, tuple) else [v])
                if isinstance(a, np.ndarray) and a.dtype == np.int8]
        assert len(held) == len(N) and all(
            a is phase for a, phase in zip(held, lat._phase0))
        assert sum(a.nbytes for a in held) == sum(N)
        assert np.array_equal(np.prod(np.broadcast_arrays(*held), axis=0),
                              _table(lat))


class _Watched(np.ndarray):
    """An array that records (dtype, size) of every array derived from
    it, by a ufunc, a view or a cast, in _Watched.made."""
    made = []

    def __array_finalize__(self, obj):
        _Watched.made.append((self.dtype, self.size))


def test_a_3d_localized_state_and_its_psi_grid_build_no_sign_grid():
    """In 3-D the sign is taken from the per-axis factors a plane at a
    time: no array derived from them, an int8 N0 N1 N2 sign grid
    included, reaches the grid's size."""
    lat = MomentumLattice([3.0, 4.0, 5.0], (16, 12, 10))
    lat._phase0 = tuple(p.view(_Watched) for p in lat._phase0)
    _Watched.made.clear()
    f = localized_state(1, [0.375, -1.0, 0.5], lat, PARAMS, t0=T0).field
    f.psi_grid(T0)
    f.psi_grid(T)
    assert _Watched.made, "the routes no longer read the factors"
    big = [m for m in _Watched.made if m[1] >= lat.total_nodes]
    assert big == [], f"arrays of the grid's size built from the sign: {big}"


# the eight +-0 patterns of a complex entry
SIGNED_ZEROS = [complex(-0.0, 1.0), complex(0.0, -1.0), complex(1.0, -0.0),
                complex(-1.0, 0.0), complex(-0.0, -0.0), complex(-0.0, 0.0),
                complex(0.0, -0.0), complex(0.0, 0.0)]


def _eight_zeros(phi):
    """phi with each of the eight +-0 patterns planted at a stride."""
    flat = phi.copy().reshape(-1)
    for i, z in enumerate(SIGNED_ZEROS):
        flat[i::19] = z
    return flat.reshape(phi.shape)


@pytest.mark.parametrize("shape", SHAPES)
def test_one_pass_mode_psi_at_the_reference_time_keeps_its_bytes(shape):
    lat, fields = _fields(shape)
    for key in ("plus", "minus"):
        f = fields[key]
        name = "phi_plus" if key == "plus" else "phi_minus"
        f = f.copy_with(**{name: _eight_zeros(getattr(f, name))})
        assert sum(f.zero_sectors) == 1
        assert_same_bytes(f.mode_psi(T0), old_psi(f, T0))
        assert_same_bytes(f.psi_grid(T0), old_modes_to_grid(lat, old_psi(f, T0)))


def test_blocked_mode_psidot_keeps_its_bytes():
    # 92160 entries: eleven whole blocks of the -1j * omega product and a part
    lat = MomentumLattice([5.0, 4.0, 3.0], [96, 40, 24])
    f = _with_signed_zeros(random_field(lat, PARAMS, seed=9, t0=T0))
    for g in (f, *energy_split(f)):
        for t in (T0, T):
            assert_same_bytes(g.mode_psidot(t), old_psidot(g, t))


def test_psidot_grid_takes_no_more_memory_than_psi_grid():
    lat = MomentumLattice([6.0] * 3, [48] * 3)
    f = localized_state(1, [0.0] * 3, lat, PARAMS, t0=T0).field
    peaks = []
    for run in (f.psi_grid, f.psidot_grid):
        run(T0)                 # the lattice caches its frequencies and sign
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            run(T0)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
    psi, psidot = (p / (16 * lat.total_nodes) for p in peaks)
    assert psidot <= psi + 0.1, \
        f"psidot_grid peaked {psidot:.2f} complex grids, psi_grid {psi:.2f}"


# complex grids above held at 48^3: the modes live + 0, transformed in
# place, and pocketfft's buffers (measured 1.07)
ONE_SECTOR_PSI_T0_BUDGET = 1.1


def test_one_sector_psi_grid_at_t0_stays_within_its_memory_budget():
    lat = MomentumLattice([6.0] * 3, [48] * 3)
    fields = [localized_state(eps, [0.0] * 3, lat, PARAMS, t0=T0).field
              for eps in (1, -1)]
    for f in fields:
        f.psi_grid(T0)      # the lattice caches its sign
        _, peak = _traced(lambda: f.psi_grid(T0))
        grids = peak / (16 * lat.total_nodes)
        assert grids <= ONE_SECTOR_PSI_T0_BUDGET, \
            f"psi_grid(t0) peaked {grids:.2f} complex grids above held"


# ------------------------------------------- frequency grids built on demand

# SHAPES, the Bluestein length 202 and 1-D
GRID_SHAPES = {**SHAPES, "202x36": ((7.0, 3.0), (202, 36)),
               "50": ((5.0,), (50,))}


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_ksq_and_omega_keep_their_bytes(shape):
    lat = MomentumLattice(*GRID_SHAPES[shape])
    ksq = sum(k * k for k in lat.k_grids)
    assert_same_bytes(lat.ksq, ksq)
    for m in (PARAMS.mass, 0.5):
        assert_same_bytes(lat.omega(m), np.sqrt(ksq + m * m))
        assert lat.omega(m) is lat.omega(m)


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_each_ksq_read_is_a_new_grid(shape):
    lat = MomentumLattice(*GRID_SHAPES[shape])
    first = lat.ksq
    kept = first.copy()
    first += 1.0
    assert_same_bytes(lat.ksq, kept)


def _traced(run):
    """(held, peak) bytes that run adds to what is traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run()         # alive while the held bytes are read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - before, peak - before


def test_a_lattice_holds_no_frequency_grid():
    nodes = (48,) * 3
    floats = 8 * np.prod(nodes)
    held, _ = _traced(lambda: MomentumLattice([6.0] * 3, nodes))
    assert held / floats < 0.25, \
        f"a fresh lattice holds {held / floats:.2f} float grids"
    lat = MomentumLattice([6.0] * 3, nodes)
    held, peak = (b / floats for b in _traced(lambda: lat.omega(PARAMS.mass)))
    assert held <= 1.05 and peak <= 1.25, \
        f"omega holds {held:.2f} and peaks {peak:.2f} float grids"


def _spans(lat):
    """Flat spans that start and end mid-line and mid-slab, empty ones,
    the whole range, one running past the end and every _BLOCK block, the
    last one partial unless the grid is whole blocks."""
    n, total = lat.nodes[-1], lat.total_nodes
    slab = total // lat.nodes[0]
    spans = [(0, total), (0, 0), (total, total), (n + 1, n + 1),
             (3, n - 2), (n // 2, 3 * n + 5), (slab + 7, 2 * slab + n // 2),
             (slab - 1, total - 3), (total - 3, total + _BLOCK)]
    spans += [(i, i + _BLOCK) for i in range(0, total, _BLOCK)]
    return spans


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_omega_span_keeps_the_omega_bytes(shape):
    lat = MomentumLattice(*GRID_SHAPES[shape])
    for m in (PARAMS.mass, 0.5):
        flat = np.sqrt(sum(k * k for k in lat.k_grids) + m * m).reshape(-1)
        for i, j in _spans(lat):
            assert_same_bytes(lat._omega_span(m, i, j), flat[i:j])
    assert lat._omega_cache == {}


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_omega_block_keeps_the_omega_bytes_cold_and_warm(shape):
    # inner_a's blocks of omega come from _omega_span, with or without a
    # cached omega grid: new arrays, omega's bytes, the cache untouched
    lat = MomentumLattice(*GRID_SHAPES[shape])
    flat = lat.omega(PARAMS.mass).copy().reshape(-1)
    lat._omega_cache.clear()
    cold = [lat._omega_span(PARAMS.mass, i, j) for i, j in _spans(lat)]
    assert lat._omega_cache == {}
    grid = lat.omega(PARAMS.mass)
    warm = [lat._omega_span(PARAMS.mass, i, j) for i, j in _spans(lat)]
    for (i, j), c, w in zip(_spans(lat), cold, warm):
        assert_same_bytes(c, flat[i:j])
        assert_same_bytes(w, flat[i:j])
        assert not np.shares_memory(c, grid) and not np.shares_memory(w, grid)
    assert list(lat._omega_cache) == [PARAMS.mass]
    assert grid.flags.writeable         # the cached grid itself is untouched


def test_localized_state_takes_no_frequency_grid():
    # tracemalloc counts the calloc'd zero sector: one complex grid of the two
    lat = MomentumLattice([6.0] * 3, [48] * 3)
    held, peak = _traced(lambda: localized_state(1, [0.0] * 3, lat, PARAMS))
    held, peak = (b / (16 * lat.total_nodes) for b in (held, peak))
    assert peak <= 2.05, f"localized_state peaked {peak:.2f} complex grids"
    assert held <= 2.01, f"localized_state keeps {held:.2f} complex grids"
    assert lat._omega_cache == {}


def test_inner_0_of_a_localized_state_takes_no_frequency_grid():
    lat = MomentumLattice([6.0] * 3, [48] * 3)
    f = localized_state(1, [0.0] * 3, lat, PARAMS, t0=T0).field
    held, peak = _traced(lambda: inner_0(f, f))
    held, peak = (b / (16 * lat.total_nodes) for b in (held, peak))
    assert peak <= 0.5, f"inner_0 peaked {peak:.2f} complex grids"
    assert held <= 0.01, f"inner_0 keeps {held:.2f} complex grids"
    assert lat._omega_cache == {}


def test_grid_to_modes_takes_no_float_table():
    lat = MomentumLattice([6.0] * 3, [48] * 3)
    grid = random_field(lat, PARAMS, seed=7).psi_grid(T)
    _, peak = _traced(lambda: lat.grid_to_modes(grid))
    peak /= 16 * lat.total_nodes
    assert peak <= 1.15, f"grid_to_modes peaked {peak:.2f} complex grids"


# ------------------------------------------- one re-phasing grid per time

def old_evolve(f, dt):
    ph = np.exp(-1j * f.omega * dt)
    return f.phi_plus * ph, f.phi_minus * np.conj(ph)


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_evolve_keeps_the_plain_exp_bytes(shape):
    lat = MomentumLattice(*GRID_SHAPES[shape])
    f = _with_signed_zeros(random_field(lat, PARAMS, seed=5, t0=T0))
    f.psi_grid(T)               # leaves the phase of dt = T - T0
    hits = []
    for dt in (T - T0, 0.83, 0.83, -0.83, 0.0, -0.0):
        held = lat._phase_memo[1]
        g = evolve(f, dt)
        hits.append(lat._phase_memo[1] is held)
        for new, old in zip((g.phi_plus, g.phi_minus), old_evolve(f, dt)):
            assert_same_bytes(new, old)
    # 0.0 and -0.0 share a key: their phases are the same bytes
    assert hits == [True, False, True, False, False, True]


_ROUTES = {"mode_pair": lambda f, t: f.mode_pair(t),
           "mode_psi": lambda f, t: (f.mode_psi(t),),
           "mode_psidot": lambda f, t: (f.mode_psidot(t),),
           "psi_grid": lambda f, t: (f.psi_grid(t),),
           "psidot_grid": lambda f, t: (f.psidot_grid(t),)}
_OLD_ROUTES = {
    "mode_pair": old_pair,
    "mode_psi": lambda f, t: (old_psi(f, t),),
    "mode_psidot": lambda f, t: (old_psidot(f, t),),
    "psi_grid": lambda f, t: (old_modes_to_grid(f.lattice, old_psi(f, t)),),
    "psidot_grid": lambda f, t: (old_modes_to_grid(f.lattice,
                                                   old_psidot(f, t)),)}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("route", _ROUTES)
def test_routes_keep_their_bytes_on_a_memo_hit_and_miss(shape, route):
    lat, fields = _fields(shape)
    for f in fields.values():
        f = _with_signed_zeros(f)
        lat._phase(PARAMS.mass, 0.123)          # a phase of another time
        for memo in ("miss", "hit"):
            held = lat._phase_memo[1]
            outs = _ROUTES[route](f, T)
            assert (lat._phase_memo[1] is held) == (memo == "hit"), memo
            for new, old in zip(outs, _OLD_ROUTES[route](f, T)):
                assert_same_bytes(new, old)


def test_the_phase_grid_is_read_only_and_never_an_output():
    lat, fields = _fields("32x32x32")
    f = fields["both"]
    outs = [*f.mode_pair(T), f.mode_psi(T), f.mode_psidot(T), f.psi_grid(T),
            f.psidot_grid(T), current_Ja(f, T).components, rho_a(f, T)]
    ph = lat._phase(PARAMS.mass, T - f.t0)
    assert not ph.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ph[0, 0, 0] = 1.0
    g = evolve(f, T - f.t0)
    assert lat._phase_memo[1] is ph
    for out in (*outs, g.phi_plus, g.phi_minus):
        assert not np.shares_memory(out, ph)


def _spectral_bundle(f, g, t):
    """The observables of one spectral-2d op: both continuity residuals,
    the total probability and the split inner product, all at time t."""
    continuity_residual(f, t, "J_a")
    continuity_residual(f, t, "calJ_a")
    total_probability(f, t)
    inner_a_split(f, g, t)


def test_one_grid_sized_exp_per_mass_and_time(monkeypatch):
    lat = MomentumLattice([16.0] * 2, [64] * 2)
    f, g = (random_field(lat, PARAMS, seed=s) for s in (1, 2))
    heavy = ModelParams(2.0, PARAMS.kappa, PARAMS.a)
    h, k = (random_field(lat, heavy, seed=s) for s in (3, 4))
    sizes = []
    real_exp = np.exp

    def exp(x, *args, **kw):
        sizes.append(np.size(x))
        return real_exp(x, *args, **kw)

    monkeypatch.setattr(np, "exp", exp)
    grids = lambda: sum(n == lat.total_nodes for n in sizes)
    _spectral_bundle(f, g, 0.05)
    assert grids() == 1
    _spectral_bundle(f, g, 0.05)        # the same time again
    assert grids() == 1
    _spectral_bundle(g, f, 0.42)        # a new time
    assert grids() == 2
    _spectral_bundle(h, k, 0.42)        # a new mass at that time
    assert grids() == 3


def test_a_lattice_holds_one_phase_grid_after_three_times():
    lat = MomentumLattice([6.0] * 3, [48] * 3)
    f = random_field(lat, PARAMS, seed=7, t0=T0)
    lat.omega(PARAMS.mass)
    grids = 16 * lat.total_nodes

    def three_times():
        for t in (T, T + 0.1, T + 0.2):
            f.psi_grid(t)

    held, peak = (b / grids for b in _traced(three_times))
    assert held <= 1.05, f"the lattice holds {held:.2f} complex grids"
    assert peak <= 3.05, f"a miss peaked {peak:.2f} complex grids"


# ------------------------------------------- one workspace per current

def old_ja_and_rate(field, t):
    """current_Ja's components and rate with a new grid per synthesis."""
    lat, params = field.lattice, field.params
    pm_p, pm_m = field.mode_pair(t)
    psi_modes = pm_p + pm_m
    tp, tm = (1.0 + params.a) * pm_p, -(1.0 - params.a) * pm_m
    til_modes = tp + tm
    w = field.omega
    psi = lat.modes_to_grid(psi_modes, PAD)
    til = lat.modes_to_grid(til_modes, PAD)
    psidot = lat.modes_to_grid(-1j * w * (pm_p - pm_m), PAD)
    tildot = lat.modes_to_grid(-1j * w * (tp - tm), PAD)
    pref = -0.5j * params.kappa / params.mass
    comps = np.empty((lat.dim + 1,) + psi.shape, dtype=complex)
    comps[0] = pref * (-np.conj(psi) * tildot + np.conj(psidot) * til)
    for i, k in enumerate(lat.k_grids):
        dpsi = lat.modes_to_grid(1j * k * psi_modes, PAD)
        dtil = lat.modes_to_grid(1j * k * til_modes, PAD)
        comps[1 + i] = pref * (np.conj(psi) * dtil - np.conj(dpsi) * til)
    w2 = w ** 2
    psidd = lat.modes_to_grid(-w2 * psi_modes, PAD)
    tildd = lat.modes_to_grid(-w2 * til_modes, PAD)
    dj0dt = (0.5j * params.kappa / params.mass
             * (np.conj(psi) * tildd - np.conj(psidd) * til))
    return comps, dj0dt


def old_calja_and_rate(field, t):
    """current_calJa's components and rate with a new grid per synthesis."""
    lat, params, w = field.lattice, field.params, field.omega
    p, m = field.mode_pair(t)
    psi_m, psic_m = p + m, p - m
    psidot_m = -1j * w * (p - m)
    psicdot_m = -1j * w * (p + m)
    up, down = w ** 0.5, w ** -0.5
    Q_m, Qc_m = down * psi_m, down * psic_m
    P = lat.modes_to_grid(up * psi_m, PAD)
    Pc = lat.modes_to_grid(up * psic_m, PAD)
    pref = 0.5 * params.kappa / params.mass
    comps = np.empty((lat.dim + 1,) + P.shape, dtype=float)
    comps[0] = pref * (np.abs(P) ** 2 + np.abs(Pc) ** 2
                       + 2 * params.a * np.real(np.conj(P) * Pc))
    for i, k in enumerate(lat.k_grids):
        dQ = lat.modes_to_grid(1j * k * Q_m, PAD)
        dQc = lat.modes_to_grid(1j * k * Qc_m, PAD)
        s = (np.conj(P) * dQc - Pc * np.conj(dQ)
             + params.a * (np.conj(P) * dQ - Pc * np.conj(dQc)))
        comps[1 + i] = pref * np.imag(s)
    P_dot = lat.modes_to_grid(up * psidot_m, PAD)
    Pc_dot = lat.modes_to_grid(up * psicdot_m, PAD)
    s = (np.conj(P_dot) * Pc + np.conj(P) * Pc_dot)
    dj0dt = pref * (2.0 * np.real(np.conj(P) * P_dot)
                    + 2.0 * np.real(np.conj(Pc) * Pc_dot)
                    + 2.0 * params.a * np.real(s))
    return comps, dj0dt


OLD_CURRENTS = {"J_a": old_ja_and_rate, "calJ_a": old_calja_and_rate}


def old_continuity_residual(field, t, which):
    comps, dj0dt = OLD_CURRENTS[which](field, t)
    fine = field.lattice.refined(PAD)
    div = 0.0
    for k, comp in zip(fine.k_grids, comps[1:]):
        div = div + 1j * k * fine.grid_to_modes(np.asarray(comp, complex))
    div = dj0dt + fine.modes_to_grid(div)
    return float(np.abs(div).max() / max(np.abs(comps).max(), 1e-300))


def old_schrodinger_reference(field, t):
    lat = field.lattice
    psi_m = field.mode_psi(t)
    psi = lat.modes_to_grid(psi_m, PAD)
    rho = np.abs(psi) ** 2
    jvec = np.empty((lat.dim,) + psi.shape, dtype=float)
    for i, k in enumerate(lat.k_grids):
        cross = np.conj(psi) * lat.modes_to_grid(1j * k * psi_m, PAD)
        jvec[i] = np.imag(cross) * (1.0 / field.params.mass)
    return rho, jvec


@pytest.mark.parametrize("shape", GRID_SHAPES)
@pytest.mark.parametrize("t", ["t0", "T"])
def test_currents_in_one_workspace_keep_their_bytes(shape, t):
    lat = MomentumLattice(*GRID_SHAPES[shape])
    f = _with_signed_zeros(random_field(lat, PARAMS, seed=5, t0=T0))
    plus, _ = energy_split(f)
    t = T0 if t == "t0" else T
    for g in (f, plus):
        for which, old in OLD_CURRENTS.items():
            cur, rate = _current_and_rate(g, t, which)
            old_comps, old_rate = old(g, t)
            assert cur.lattice is lat.refined(PAD)
            assert_same_bytes(cur.components, old_comps)
            assert_same_bytes(rate, old_rate)
            # each output owns its memory: none is a view of a workspace
            assert cur.components.flags.owndata and rate.flags.owndata
            assert_same_bytes(np.float64(continuity_residual(g, t, which)),
                              np.float64(old_continuity_residual(g, t, which)))
        for new, old in zip(schrodinger_reference(g, t),
                            old_schrodinger_reference(g, t)):
            assert_same_bytes(new, old)
            assert new.flags.owndata


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_modes_to_grid_synthesizes_into_the_given_grid(shape):
    lat = MomentumLattice(*GRID_SHAPES[shape])
    modes = _with_signed_zeros(random_field(lat, PARAMS, seed=5)).phi_plus
    for pad in (1, 2):
        nodes = lat.refined(pad).nodes
        out = np.full(nodes, complex(-0.0, np.nan))     # stale content
        assert lat.modes_to_grid(modes, pad, out=out) is out
        assert_same_bytes(out, old_modes_to_grid(lat, modes, pad))
        slots = np.full((2,) + nodes, np.inf, dtype=complex)
        view = slots[1]
        assert lat.modes_to_grid(modes, pad, view) is view
        assert_same_bytes(view, out)
        assert np.isinf(slots[0]).all()


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_modes_to_grid_rejects_a_grid_it_cannot_fill(shape):
    lat = MomentumLattice(*GRID_SHAPES[shape])
    modes = random_field(lat, PARAMS, seed=5).phi_plus
    for pad in (1, 2):
        nodes = lat.refined(pad).nodes
        wide = np.zeros(nodes[:-1] + (2 * nodes[-1],), dtype=complex)
        bad = {"shape": np.zeros(nodes[:-1] + (nodes[-1] + 2,), dtype=complex),
               "dtype": np.zeros(nodes, dtype=np.complex64),
               "real": np.zeros(nodes),
               "strided": wide[..., ::2],
               "list": np.zeros(nodes, dtype=complex).tolist()}
        for label, out in bad.items():
            with pytest.raises(ValueError, match=re.escape(str(nodes))):
                lat.modes_to_grid(modes, pad, out=out)


# numpy's ifft maps a +0 line of length 202 or 404 (Bluestein) to signed
# zeros, one of 606 to +0: 202 first, middle and last, so that pruning
# stops at every axis position at pad 2 and runs on at pad 3
PRUNED_SHAPES = [(16,), (202,), (8, 6), (202, 8), (8, 202), (4, 6, 8),
                 (202, 4, 6), (4, 202, 6), (4, 6, 202)]


def _planted_inputs(nodes):
    """Dense, real, conjugated, sparse, one-hot, +0 and -0 grids, the
    dense and sparse ones with planted signed zeros."""
    rng = np.random.default_rng(len(nodes) * 1000 + nodes[0])
    dense = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
    sparse = np.where(rng.random(nodes) < 0.8, 0.0, dense)
    onehot = np.zeros(nodes, dtype=complex)
    onehot[tuple(int(rng.integers(n)) for n in nodes)] = 1.5 - 0.5j
    return {"dense": _planted(dense), "real": dense.real.copy(),
            "conj": np.conj(dense), "sparse": _planted(sparse),
            "onehot": onehot, "zero": np.zeros(nodes, dtype=complex),
            "-0": np.full(nodes, complex(-0.0, -0.0))}


@pytest.mark.parametrize("nodes", PRUNED_SHAPES + GATHER_SHAPES, ids=str)
def test_pruned_synthesis_keeps_the_ifftn_bytes(nodes):
    lat = MomentumLattice(*_delta_lattice(nodes))
    inputs = _planted_inputs(nodes)
    for pad in (1, 2, 3):
        fine = lat.refined(pad).nodes
        for label, modes in inputs.items():
            old = old_modes_to_grid(lat, modes, pad)
            assert_same_bytes(lat.modes_to_grid(modes, pad), old)
            out = np.full(fine, complex(-0.0, np.nan))  # stale content
            assert_same_bytes(lat.modes_to_grid(modes, pad, out), old)
    buf = np.array(inputs["dense"])     # in place on the modes at pad 1
    assert lat.modes_to_grid(buf, 1, buf) is buf
    assert_same_bytes(buf, old_modes_to_grid(lat, inputs["dense"]))


@pytest.mark.parametrize("nodes", PRUNED_SHAPES + GATHER_SHAPES, ids=str)
def test_grid_to_modes_keeps_the_fftn_bytes(nodes):
    lat = MomentumLattice(*_delta_lattice(nodes))
    inputs = _planted_inputs(nodes)
    for grid in inputs.values():
        assert_same_bytes(lat.grid_to_modes(grid),
                          old_grid_to_modes(lat, grid))


def _ifft_spy(monkeypatch):
    calls = []
    real_ifft = np.fft.ifft

    def ifft(a, *args, axis=-1, **kw):
        calls.append((np.shape(a), axis))
        return real_ifft(a, *args, axis=axis, **kw)

    def ifftn(*args, **kw):
        raise AssertionError("modes_to_grid called ifftn")

    monkeypatch.setattr(np.fft, "ifft", ifft)
    monkeypatch.setattr(np.fft, "ifftn", ifftn)
    return calls


# (nodes, pad) -> the (slab shape, axis) of each ifft call, last axis first;
# in 3-D each fine axis-0 row that holds modes takes its axis-2 and axis-1
# lines (the row's axes 1 and 0), then each (N0, N2) plane its axis-0 pass
IFFT_CALLS = {
    ((64, 64), 2): [((32, 128), 1)] * 2 + [((128, 128), 0)],
    ((8, 6), 3): [((4, 18), 1)] * 2 + [((24, 18), 0)],
    ((4, 6, 8), 2): (([((3, 16), 1)] * 2 + [((12, 16), 0)]) * 4
                     + [((8, 16), 0)] * 12),
    ((8, 6), 1): [((8, 6), 1), ((8, 6), 0)],
    # from the first axis whose padded length (404) does not keep a +0
    # line +0, every line is transformed
    ((202, 8), 2): [((101, 16), 1)] * 2 + [((404, 16), 0)],
    ((8, 202), 2): [((16, 404), 1), ((16, 404), 0)],
    ((4, 202, 6), 2): (([((101, 12), 1)] * 2 + [((404, 12), 0)]) * 2
                       + [((404, 12), 0)] * 4       # rows 2..5: no modes
                       + ([((101, 12), 1)] * 2 + [((404, 12), 0)]) * 2
                       + [((8, 12), 0)] * 404),
    ((4, 6, 202), 2): ([((12, 404), 1), ((12, 404), 0)] * 8
                       + [((8, 404), 0)] * 12),
}


@pytest.mark.parametrize("case", IFFT_CALLS, ids=str)
def test_padded_synthesis_transforms_only_the_lines_that_hold_modes(
        monkeypatch, case):
    nodes, pad = case
    lat = MomentumLattice(*_delta_lattice(nodes))
    modes = random_field(lat, PARAMS, seed=4).phi_plus
    lat._refinement(pad)            # the plan probes each length once
    calls = _ifft_spy(monkeypatch)
    lat.modes_to_grid(modes, pad)
    assert calls == IFFT_CALLS[case]


def test_the_synthesis_plan_is_cached_slices():
    lat = MomentumLattice([5.0, 6.0, 7.0], [4, 6, 8])
    for pad in (1, 2, 3):
        plan = lat._refinement(pad)
        assert lat._refinement(pad) is plan
        fine, corners, slabs = plan
        assert (fine is None) == (pad == 1)
        assert len(corners) == (1 if pad == 1 else 8)
        leaves = [x for c, f in corners for x in c + f]
        leaves += [x for per_axis in slabs for slab in per_axis for x in slab]
        assert all(isinstance(x, slice) for x in leaves)


# padded complex grids above held memory at 16^3 (padded 32^3): one grid
# per synthesis peaked at 14.8 (J_a) and 12.1 (calJ_a), a current and rate
# per check at 12.8 and 11.1, one workspace of 9 grids at 10.3 and 10.6
CONTINUITY_BUDGETS = {"J_a": 10.5, "calJ_a": 11.0}


def _continuity_peak(lat, which):
    """A warm continuity check's tracemalloc peak in padded grids."""
    f = random_field(lat, PARAMS, seed=7, t0=T0)
    run = lambda: continuity_residual(f, T, which)
    run()       # the lattices cache frequencies, signs and the phase
    return _traced(run)[1] / (16 * lat.refined(PAD).total_nodes)


@pytest.mark.parametrize("which", CONTINUITY_BUDGETS)
def test_continuity_residual_stays_within_its_memory_budget(which):
    grids = _continuity_peak(MomentumLattice([6.0] * 3, [16] * 3), which)
    assert grids <= CONTINUITY_BUDGETS[which], \
        f"{which} peaked {grids:.2f} padded complex grids above held"


@pytest.mark.parametrize("which", CONTINUITY_BUDGETS)
@pytest.mark.parametrize("shape", SHAPES)
def test_a_continuity_check_grows_the_heap_by_less_than_its_workspace(
        shape, which):
    # glibc raises its trim threshold to twice the largest block it has
    # freed by munmap, the 6 + d grid workspace.  Where the workspace
    # itself comes from the heap, the heap grows by it and by what the
    # check allocates beside it; were that above the threshold, the heap's
    # top would be trimmed and faulted in again on every check
    lat = MomentumLattice(*SHAPES[shape])
    workspace = 6 + lat.dim
    beside = _continuity_peak(lat, which) - workspace
    assert beside < workspace, \
        f"{which} allocated {beside:.2f} padded grids beside its workspace"


def _span_spy(monkeypatch, lat):
    """The (start, stop) of every _omega_span call on lat, as a list."""
    spans = []
    real = lat._omega_span

    def span(mass, i, j):
        spans.append((i, j))
        return real(mass, i, j)

    monkeypatch.setattr(lat, "_omega_span", span)
    return spans


def _sqrt_spy(monkeypatch):
    """The shape of every np.sqrt call on an array, as a list."""
    shapes, real = [], np.sqrt

    def sqrt(x, *args, **kw):
        if np.ndim(x):
            shapes.append(np.shape(x))
        return real(x, *args, **kw)

    monkeypatch.setattr(np, "sqrt", sqrt)
    return shapes


def _inner_pairs(lat):
    f, g = (random_field(lat, PARAMS, seed=s, t0=T0) for s in (1, 2))
    one = _one_sector_fields(lat, T0)[1]
    return f, g, one


def test_inner_a_builds_one_omega_span_per_block(monkeypatch):
    lat = MomentumLattice([6.0] * 3, [32] * 3)         # four whole blocks
    f, g, one = _inner_pairs(lat)
    spans = _span_spy(monkeypatch, lat)
    blocks = [(i, i + _BLOCK) for i in range(0, lat.total_nodes, _BLOCK)]
    for f1, f2 in ((f, g), (f, one), (one, one)):
        spans.clear()
        inner_a(f1, f2)
        assert spans == blocks
    assert lat._omega_cache == {}


def test_inner_a_ignores_a_cached_omega_grid(monkeypatch):
    lat = MomentumLattice([6.0] * 3, [32] * 3)
    f, g, one = _inner_pairs(lat)
    pairs = ((f, g), (f, one), (one, one))
    cold = [inner_a(f1, f2) for f1, f2 in pairs]
    assert lat._omega_cache == {}
    lat.omega(PARAMS.mass)
    spans = _span_spy(monkeypatch, lat)
    for (f1, f2), value in zip(pairs, cold):
        assert_same_bytes(np.complex128(inner_a(f1, f2)),
                          np.complex128(value))
    # a re-phase away from t0 fills the cache before the reduction
    g_moved = g.copy_with(t0=-0.4)
    assert_same_bytes(np.complex128(inner_a(f, g_moved)),
                      np.complex128(old_inner(f, g_moved, PARAMS.a)))
    blocks = [(i, i + _BLOCK) for i in range(0, lat.total_nodes, _BLOCK)]
    assert spans == blocks * (len(pairs) + 1)


@pytest.mark.parametrize("nodes", DELTA_SHAPES, ids=str)
def test_localized_state_builds_omega_for_half_the_planes(monkeypatch,
                                                          nodes):
    lat = MomentumLattice(*_delta_lattice(nodes))
    spans = _span_spy(monkeypatch, lat)
    calls = _dense_spy(monkeypatch, lat)
    idx = _delta_nodes(nodes)[-1]
    y = [axis[i] for axis, i in zip(lat.coordinate_axes(), idx)]
    roots = _sqrt_spy(monkeypatch)
    localized_state(1, y, lat, PARAMS)
    # rows 0 .. N0/2 (k0 >= 0) and columns 0 .. N_last/2 of the whole
    # 1-D or 2-D spectrum, or of one plane of each pair j, N1 - j in 3-D
    rows = (nodes[0] // 2 + 1, nodes[-1] // 2 + 1 if len(nodes) > 1 else 1)
    assert roots == [rows] * (nodes[1] // 2 + 1 if len(nodes) == 3 else 1)
    assert spans == []
    assert calls == []
    assert lat._omega_cache == {}


def _stray_fft_spy(monkeypatch):
    """The name of every np.fft call made outside core._transform."""
    stray, depth, real = [], [], core._transform

    def transform(*args, **kw):
        depth.append(1)
        try:
            return real(*args, **kw)
        finally:
            depth.pop()

    for name in ("fft", "ifft", "fftn", "ifftn"):
        def spy(*args, _real=getattr(np.fft, name), _name=name, **kw):
            if not depth:
                stray.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(np.fft, name, spy)
    monkeypatch.setattr(core, "_transform", transform)
    return stray


def _localized(nodes, monkeypatch):
    lat = MomentumLattice(*_delta_lattice(nodes))
    idx = _delta_nodes(nodes)[-1]
    y = [axis[i] for axis, i in zip(lat.coordinate_axes(), idx)]
    return lambda: localized_state(1, y, lat, PARAMS)


def _analysis(nodes, monkeypatch):
    lat = MomentumLattice(*_delta_lattice(nodes))
    grid = np.random.default_rng(5).standard_normal(nodes)
    return lambda: lat.grid_to_modes(grid)


def _magnetic(nodes, monkeypatch):
    lat = MomentumLattice(*_delta_lattice(nodes))
    x, y = lat.coordinate_grids()
    bg = EMBackground(np.stack([0.3 * np.sin(y), 0.2 * np.cos(x)]), 0.7)
    return lambda: build_Dq(bg, lat, PARAMS)


def _probe(nodes, monkeypatch):
    # a fresh cache, so that the call below is a first one
    monkeypatch.setattr(core, "_keeps_zero",
                        functools.cache(core._keeps_zero.__wrapped__))
    return lambda: core._keeps_zero(nodes[0])


@pytest.mark.parametrize("nodes", DELTA_SHAPES, ids=str)
def test_localized_state_transforms_only_through_transform(monkeypatch,
                                                           nodes):
    run = _localized(nodes, monkeypatch)
    stray = _stray_fft_spy(monkeypatch)
    run()
    assert stray == []


# grid_to_modes in 1-D, 2-D and 3-D (202 a Bluestein length), the dense
# magnetic operator (built from modes_to_grid and grid_to_modes) and a
# first _keeps_zero probe
@pytest.mark.parametrize("case, nodes", [
    *(pytest.param(_analysis, n, id=f"grid_to_modes{n}")
      for n in [(16,), (202,), (48, 80), (8, 202), (6, 6, 202), (10, 6, 8)]),
    pytest.param(_magnetic, (10, 10), id="build_Dq(10, 10)"),
    pytest.param(_probe, (202,), id="_keeps_zero(202)"),
])
def test_numpy_fft_is_called_only_inside_transform(monkeypatch, case, nodes):
    run = case(nodes, monkeypatch)
    stray = _stray_fft_spy(monkeypatch)
    run()
    assert stray == []


# ------------------------------------------- gathered axis-0 passes

def _axis_0_spy(monkeypatch):
    """(input copy, C-contiguous) of every axis-0 np.fft.fft/ifft call."""
    calls = []
    for name in ("fft", "ifft"):
        def spy(a, *args, axis=-1, _real=getattr(np.fft, name), **kw):
            if axis == 0:
                calls.append((np.array(a), a.flags.c_contiguous))
            return _real(a, *args, axis=axis, **kw)
        monkeypatch.setattr(np.fft, name, spy)
    return calls


def _plane_spy(monkeypatch):
    """(N1, the plane indices in order) of every 3-D axis-0 pass of
    core._transform."""
    passes, real = [], core._transform

    def transform(grid, axis, inverse=False, fill=None, finish=None,
                  source=None):
        if axis or grid.ndim != 3:
            return real(grid, axis, inverse, fill, finish, source)
        visits, done = [], finish or (lambda j, plane: None)
        passes.append((grid.shape[1], visits))

        def watched(j, plane):
            visits.append(j)
            return done(j, plane)
        return real(grid, axis, inverse, fill, watched, source)

    monkeypatch.setattr(core, "_transform", transform)
    return passes


@pytest.mark.parametrize("nodes", [(8, 4, 6), (10, 6, 8), (6, 202, 4)],
                         ids=str)
def test_each_axis_0_pass_visits_every_plane_once_in_mirror_pairs(
        monkeypatch, nodes):
    """Every 3-D axis-0 pass visits each plane index exactly once, and
    plane N1 - j right after plane j, so the delta transform can build
    the weights of the pair once."""
    lat = MomentumLattice(*_delta_lattice(nodes))
    grid = np.random.default_rng(4).standard_normal(nodes) + 0j
    y = [axis[1] for axis in lat.coordinate_axes()]
    passes = _plane_spy(monkeypatch)
    lat.modes_to_grid(grid)
    lat.modes_to_grid(grid, pad=2)
    lat.grid_to_modes(grid)
    localized_state(1, y, lat, PARAMS).field.psi_grid(T)
    assert [n for n, _ in passes] == [nodes[1], 2 * nodes[1]] + [nodes[1]] * 3
    for n1, visits in passes:
        assert sorted(visits) == list(range(n1))
        pairs = [visits[visits.index(j):visits.index(j) + 2]
                 for j in range(1, n1 // 2)]
        assert pairs == [[j, n1 - j] for j in range(1, n1 // 2)]


@pytest.mark.parametrize("nodes", GATHER_SHAPES[:2], ids=str)
def test_a_gathered_pass_transforms_each_axis_0_line_once(monkeypatch,
                                                          nodes):
    """Each axis-0 call sees one C-contiguous (N0, N2) plane, and the
    planes, put back at their indices along axis 1, are the grid before
    the axis-0 pass."""
    lat = MomentumLattice(*_delta_lattice(nodes))
    rng = np.random.default_rng(3)
    grid = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
    idx = _delta_nodes(nodes)[-1]
    delta = np.zeros(nodes, dtype=complex)
    delta[idx] = 0.5
    signed = np.multiply(grid, _table(lat), dtype=complex)
    routes = [(lambda: lat.modes_to_grid(grid),
               np.fft.ifftn(signed, axes=(1, 2))),
              (lambda: lat.grid_to_modes(grid),
               np.fft.fftn(grid, axes=(1, 2))),
              (lambda: lat._analyze_delta(idx, 0.5),
               np.fft.fftn(delta, axes=(1, 2)))]
    passes = _plane_spy(monkeypatch)
    calls = _axis_0_spy(monkeypatch)
    plane = (nodes[0], nodes[2])
    for run, before in routes:
        calls.clear()
        passes.clear()
        run()
        assert all(contiguous for _, contiguous in calls)
        planes = [a for a, _ in calls if a.ndim == 3 or a.shape == plane]
        assert len(planes) == nodes[1] and len(passes) == 1
        stacked = np.empty(before.shape, dtype=complex)
        for j, a in zip(passes[0][1], planes):
            stacked[:, j] = a
        assert_same_bytes(stacked, before)


def test_the_shipped_64_cubed_scenario_takes_the_plane_route(monkeypatch,
                                                             tmp_path):
    """configs/scenario_localized.json (64^3) runs each 3-D axis-0 pass,
    its localized state's delta analysis and its psi grid's synthesis,
    as 64 calls on C-contiguous (64, 64) planes, so its golden CSV body
    pins the plane loop's bytes."""
    calls, passes, real = _axis_0_spy(monkeypatch), [], core._transform

    def transform(grid, axis, *args, **kw):
        start = len(calls)
        out = real(grid, axis, *args, **kw)
        if not axis and grid.ndim == 3:
            passes.append([(a.shape, c) for a, c in calls[start:]])
        return out

    monkeypatch.setattr(core, "_transform", transform)
    monkeypatch.delenv("KGFIELD_OUT", raising=False)
    config = CONFIGS / "scenario_localized.json"
    assert main(["scenario", str(config), "--out", str(tmp_path)]) == 0
    assert passes == [[((64, 64), True)] * 64] * 2
