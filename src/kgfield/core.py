"""Core field representations on a periodic box.

A field configuration is stored as two complex mode-coefficient grids
(phi_plus, phi_minus) over the momentum lattice of the box.  The field and
its time derivative at any time t are exact trigonometric sums

    psi(t, x)    = sum_k [phi+(k) e^{-i w_k (t - t0)}
                          + phi-(k) e^{+i w_k (t - t0)}] e^{i k.x}
    psidot(t, x) = sum_k [-i w_k phi+(k) e^{-i w_k (t - t0)}
                          + i w_k phi-(k) e^{+i w_k (t - t0)}] e^{i k.x}

with w_k = sqrt(|k|^2 + M^2).  Time evolution is exact mode re-phasing;
no time stepping is performed anywhere.

Conventions: hbar = c = 1, metric signature (-, +, ..., +), so a mode with
energy sign eps contributes coeff * e^{-i eps w t + i k.x} and the
contravariant on-shell vector that transforms under boosts is
p = (eps*w, kvec).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model.

    mass : finite M > 0, the mass parameter (inverse length, hbar = c = 1).
    kappa : finite positive normalization of the inner-product family.
    a : inner-product family parameter, must satisfy -1 < a < 1.
    """

    mass: float
    kappa: float = 1.0
    a: float = 0.0

    def __post_init__(self):
        for name in ("mass", "kappa"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        if not -1.0 < self.a < 1.0:
            raise ValueError(f"parameter a must lie in (-1, 1), got {self.a}")


class MomentumLattice:
    """Geometry of a periodic box and its FFT momentum lattice.

    The spatial grid is centered on the box midpoint: node j of axis i sits
    at x = -L_i/2 + j * (L_i / N_i).  Wavenumbers per axis are the usual
    FFT frequencies k_n = 2 pi n / L_i with n in [-N_i/2, N_i/2).
    """

    def __init__(self, box_lengths: Sequence[float], nodes: Sequence[int]):
        box_lengths = tuple(float(L) for L in np.atleast_1d(box_lengths))
        nodes = np.atleast_1d(nodes).tolist()
        if len(box_lengths) != len(nodes):
            raise ValueError("box_lengths and nodes must have equal length")
        if not 1 <= len(nodes) <= 3:
            raise ValueError("dimension must be 1, 2 or 3")
        for L in box_lengths:
            if not 0.0 < L < np.inf:
                raise ValueError(f"box lengths must be positive and finite, "
                                 f"got {L!r}")
        for n in nodes:
            # is_integer is False for inf and nan
            if not float(n).is_integer() or n < 4 or n % 2:
                raise ValueError(f"node counts must be even integers >= 4, "
                                 f"got {n!r}")
        self.box_lengths = box_lengths
        self.nodes = nodes = tuple(int(n) for n in nodes)
        self.dim = len(nodes)
        self.spacings = tuple(L / n for L, n in zip(box_lengths, nodes))
        self.cell_volume = float(np.prod(self.spacings))
        self.volume = float(np.prod(box_lengths))
        self.total_nodes = int(np.prod(nodes))

        # open meshes: axis i of k_grids[i] and _phase0[i] is the only
        # non-unit one, and products broadcast to the full grid
        k_axes = [2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
                  for L, n in zip(box_lengths, nodes)]
        self.k_grids = tuple(np.meshgrid(*k_axes, indexing="ij", sparse=True))
        # e^{i k x0} with x0 = -L/2 on every axis: exact +-1 per axis
        self._phase0 = tuple(
            np.where(np.rint(k * L / (2.0 * np.pi)) % 2 == 0,
                     np.int8(1), np.int8(-1))
            for k, L in zip(self.k_grids, box_lengths))
        self._omega_cache: dict[float, np.ndarray] = {}
        self._phase_memo: tuple | None = None
        self._refinements: dict[int, tuple] = {}

    def __eq__(self, other):
        return (
            isinstance(other, MomentumLattice)
            and self.box_lengths == other.box_lengths
            and self.nodes == other.nodes
        )

    def __hash__(self):
        return hash((self.box_lengths, self.nodes))

    def __repr__(self):
        return f"MomentumLattice(L={self.box_lengths}, N={self.nodes})"

    def coordinate_axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            -L / 2.0 + dx * np.arange(n)
            for L, dx, n in zip(self.box_lengths, self.spacings, self.nodes)
        )

    def coordinate_grids(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.coordinate_axes(), indexing="ij"))

    @property
    def ksq(self) -> np.ndarray:
        """|k|^2 on the full grid, a new grid on every read."""
        return sum(k * k for k in self.k_grids)

    def omega(self, mass: float) -> np.ndarray:
        """Mode frequencies sqrt(|k|^2 + mass^2), cached per mass."""
        w = self._omega_cache.get(mass)
        if w is None:
            w = self._omega_span(mass, 0, self.total_nodes).reshape(self.nodes)
            self._omega_cache[mass] = w
        return w

    def _omega_span(self, mass: float, start: int, stop: int) -> np.ndarray:
        """omega(mass).reshape(-1)[start:stop], 0 <= start, as a new array,
        bit for bit.

        Only the grid lines (last-axis rows) that the flat C-order span
        touches are built, from the open meshes, with ksq's order of sums
        ((0 + k0^2) + k1^2) + k2^2, then + mass^2 and sqrt in place.  The
        omega cache is neither read nor filled.  Its callers are omega(),
        for the whole grid, and inner's closed form, a block at a time."""
        n, stop = self.nodes[-1], min(stop, self.total_nodes)
        first, last = start // n, -(-stop // n)
        lead = 0                        # ((0 + k0^2) + k1^2) per line
        if self.dim > 1:
            per = self.total_nodes // (self.nodes[0] * n)  # lines per k0 row
            a = first // per
            rows = (self.k_grids[0][a:-(-last // per)], *self.k_grids[1:-1])
            lead = sum(k * k for k in rows).reshape(-1)
            lead = lead[first - a * per:last - a * per]
        k = self.k_grids[-1].reshape(-1)
        w = np.reshape(lead, (-1, 1)) + k * k
        w = w.reshape(-1)[start - first * n:stop - first * n]
        w += mass * mass
        return np.sqrt(w, out=w)

    def _phase(self, mass: float, dt: float) -> np.ndarray:
        """exp(-1j * omega(mass) * dt) as a read-only grid.

        Only the last (mass, dt) is kept: every route that re-phases fields
        of one lattice to one time shares it, and a new key replaces it.
        Every time offset from a field's t0 (evolve's step too) enters
        here, and a non-finite one raises ValueError: it is never kept."""
        key = (mass, dt)
        if self._phase_memo is not None and self._phase_memo[0] == key:
            return self._phase_memo[1]
        if not np.isfinite(dt):
            raise ValueError(f"time offset {dt!r} from t0 is not finite")
        ph = -1j * self.omega(mass) * dt
        np.exp(ph, out=ph)
        ph.flags.writeable = False
        self._phase_memo = (key, ph)
        return ph

    def refined(self, factor: int) -> "MomentumLattice":
        """Lattice of the same box with factor-times the nodes per axis."""
        return self if factor == 1 else self._refinement(factor)[0]

    def _refinement(self, factor: int) -> tuple:
        """(fine, corners, slabs): modes_to_grid's plan at pad factor,
        cached.  fine is the refined lattice (None at factor 1: the cache
        keeps no reference to its own lattice).  corners pairs each block
        of modes with its block of the fine grid, the modes n >= 0 at the
        low end of each axis and n < 0 at the high end.  slabs[a] are the
        slabs transformed along axis a: those whose indices on the axes
        before a hold modes, every other line being +0 while each axis
        from a on maps a +0 line to +0 bytes; from the first axis that
        does not (a Bluestein length such as 404), the whole grid."""
        plan = self._refinements.get(factor)
        if plan is None:
            fine, halves = None, [[(slice(None), slice(None))]] * self.dim
            if factor != 1:
                fine = MomentumLattice(self.box_lengths,
                                       tuple(n * factor for n in self.nodes))
                halves = [[(slice(0, n // 2), slice(0, n // 2)),
                           (slice(n // 2, n), slice(m - n // 2, m))]
                          for n, m in zip(self.nodes, fine.nodes)]
            corners = [tuple(zip(*pairs))
                       for pairs in itertools.product(*halves)]
            bands = [[f for _, f in pairs] for pairs in halves]
            slabs, prune = [None] * self.dim, True
            for a in reversed(range(self.dim)):
                prune = prune and _keeps_zero(self.nodes[a] * factor)
                slabs[a] = (list(itertools.product(*bands[:a])) if prune
                            else [()])
            plan = self._refinements[factor] = (fine, corners, slabs)
        return plan

    def modes_to_grid(self, modes: np.ndarray, pad: int = 1,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate sum_k modes(k) e^{i k.x} on the grid, or with pad > 1
        on the pad-refined grid of the same box (modes zero-padded).

        out, if given, is a C-contiguous complex grid of the (refined)
        lattice's shape that the caller gives up (at pad 1 it may be modes
        itself), and is what is returned.  It takes modes * e^{i k x0} in
        its corner blocks and +0 elsewhere, then ifftn's per-axis ifft
        loop, last axis first, on the plan's slabs only, each through
        _transform, and the factor N in the axis-0 pass: ifftn's bytes.
        In 3-D each axis-0 row that holds modes (every row, from an axis
        that does not keep +0 lines +0) takes its modes * sign and its
        axis-2 and axis-1 lines while it is in cache, and each (N0, N2)
        plane of the axis-0 pass takes N before write-back."""
        fine, corners, slabs = self._refinement(pad)
        lat = self if fine is None else fine
        if out is None:
            out = (np.empty if fine is None else np.zeros)(lat.nodes,
                                                           dtype=complex)
        elif (not isinstance(out, np.ndarray) or out.shape != lat.nodes
              or out.dtype != complex or not out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous complex128 grid "
                             f"of shape {lat.nodes}")
        elif fine is not None:
            out.fill(0)
        # the coarse and fine centering signs agree at every mode, and each
        # sign is +-1+0j, the bytes of an int8 +-1 promoted to complex
        modes = np.asarray(modes)
        if self.dim == 3:
            # row i's sign is s0[i] times the (N1, N2) plane s1 s2
            s0 = self._phase0[0].reshape(-1).tolist()
            tail = (self._phase0[1] * self._phase0[2])[0]
            signs = {s: (s * tail).astype(complex) for s in (1, -1)}
            rows, coarse = range(lat.nodes[0]), range(self.nodes[0])
            for r in rows:
                for c, f in corners:
                    if r in rows[f[0]]:
                        i = coarse[c[0]][rows[f[0]].index(r)]
                        np.multiply(modes[i][c[1:]], signs[s0[i]][c[1:]],
                                    out=out[r][f[1:]])
                for a in (2, 1):
                    for slab in slabs[a]:
                        if not slab or r in rows[slab[0]]:
                            _transform(out[r][slab[1:]], a - 1, inverse=True)
        else:
            sign = functools.reduce(np.multiply, self._phase0)
            for c, f in corners:
                np.multiply(modes[c], sign[c], out=out[f], dtype=complex)
            for a in reversed(range(1, self.dim)):
                for slab in slabs[a]:
                    _transform(out[slab], a, inverse=True)
        return _transform(out, 0, inverse=True, finish=lambda j, part: (
            np.multiply(part, lat.total_nodes, out=part)))

    def grid_to_modes(self, grid: np.ndarray) -> np.ndarray:
        """Inverse of modes_to_grid on the native grid: fftn's per-axis
        fft loop, last axis first, through _transform, so fftn's bytes,
        and _analyze's factors as the axis-0 pass's finish: one pass in
        1-D and 2-D, each (N0, N2) plane before write-back in 3-D."""
        spectrum = np.empty(self.nodes, dtype=complex)
        for a in reversed(range(self.dim)):
            _transform(spectrum, a, source=grid if a == self.dim - 1 else None,
                       finish=None if a else self._analyze)
        return spectrum

    def _analyze_delta(self, idx: tuple[int, ...], value: float,
                       mass: float | None = None,
                       root: float = 1.0) -> np.ndarray:
        """grid_to_modes of the grid that holds value at node idx and zero
        elsewhere, without transforming the whole grid on every axis, and
        with mass, times _weights' root * omega(mass)^(-1/2).

        numpy's fftn runs np.fft.fft axis by axis, last axis first, and
        pocketfft transforms each line on its own.  So only the lines
        through idx need their own transforms: a line, then a plane, then
        the full grid along axis 0.  Every other line holds the transform
        of zeros, which is +0 for most lengths but carries signed zeros
        for some (Bluestein lengths such as 202); it is transformed once
        per axis and broadcast, which keeps fftn's bytes.  From the last
        axis down to axis 1, the zero line and the delta's line are the two
        halves of one buffer, transformed together through _transform.
        The axis-0 pass fills the grid (in 3-D, each plane) from the zero
        lines and the delta's line, so the returned np.empty grid is
        written once and no zero grid is read, and takes _analyze's
        factors as its finish, in every dimension.  Planes j and N1 - j
        have the same weights (k1[N1 - j] = -k1[j] exactly), and
        _transform visits them back to back: the weights are built once
        per pair, and only the last pair's are kept."""
        part = np.asarray(value, dtype=complex)
        zero = np.zeros((), dtype=complex)
        for axis in reversed(range(1, self.dim)):
            buf = np.empty((2, *self.nodes[axis:]), dtype=complex)
            buf[...] = zero
            buf[1, idx[axis]] = part
            zero, part = _transform(buf, 1)

        def fill(j, plane):
            at = () if j is None else j
            plane[...] = zero[at]
            plane[idx[0]] = part[at]

        weights = functools.lru_cache(1)(
            lambda j: None if mass is None else self._weights(j, mass, root))

        def finish(j, plane):
            pair = j if j is None else min(j, self.nodes[1] - j)
            return self._analyze(j, plane, weights(pair))
        return _transform(np.empty(self.nodes, dtype=complex), 0, fill=fill,
                          finish=finish)

    def _weights(self, j: int | None, mass: float,
                 root: float) -> np.ndarray:
        """root * omega(mass)^(-1/2) for the rows 0..N0/2 (k0 >= 0) of the
        whole 1-D or 2-D spectrum (j None) or of plane j of a 3-D one, as
        the (N0/2 + 1, N_last) block that _analyze takes (one column in
        1-D), omega with ksq's order of sums ((0 + k0^2) + k1^2) + k2^2.
        fftfreq gives k[N - m] = -k[m] exactly, so the block is built on
        the columns 0..N_last/2 and column N_last - m repeats column m."""
        lines = [k.reshape(-1) for k in self.k_grids]
        lines[-1] = lines[-1][:self.nodes[-1] // 2 + 1]
        lines[0] = lines[0][:self.nodes[0] // 2 + 1, None]
        if j is not None:
            lines[1] = lines[1][j]
        w = sum(k * k for k in lines)
        np.sqrt(np.add(w, mass * mass, out=w), out=w)
        w **= -0.5
        np.multiply(root, w, out=w)
        return np.concatenate((w, w[:, -2:0:-1]), axis=1)

    def _analyze(self, j: int | None, spectrum: np.ndarray,
                 weights: np.ndarray | None = None) -> np.ndarray:
        """Scale an fftn spectrum in place by 1/N times the centering phase,
        then by _weights' block if given: the whole 1-D or 2-D spectrum (j
        None), or the (N0, N2) plane [:, j, :] of a 3-D one (j, a
        _transform finish), in one pass over its axis-0 rows.

        The centering sign (-1)^n is the product of the per-axis _phase0
        factors, s0 times the sign of the other axes (of plane j: s1[j]
        s2), so sign * (1/N) holds +-(1/N) exactly.  fftfreq gives
        k0[N0 - i] = -k0[i] exactly, and the sign and omega are even in
        k0, so row N0 - i takes the factors built for row i: they are
        built for rows 0..N0/2 only.  Each mode takes spectrum * (sign *
        (1/N)) and then weights * spectrum: complex products round
        differently in each order."""
        n0, half = self.nodes[0], self.nodes[0] // 2
        planes = spectrum.reshape(n0, -1)
        s0, *rest = self._phase0
        if j is not None:
            rest = rest[0][:, j], rest[1][0]
        scale = functools.reduce(np.multiply, rest, s0[:half + 1] * (
            1.0 / self.total_nodes)).reshape(half + 1, -1)
        # rows 0..N0/2, then N0/2+1..N0-1 with the factors of N0/2-1..1
        for rows, take in ((slice(0, half + 1), slice(None)),
                           (slice(half + 1, n0), slice(half - 1, 0, -1))):
            block = planes[rows]
            np.multiply(block, scale[take], out=block)
            if weights is not None:
                np.multiply(weights[take], block, out=block)
        return spectrum

    def integrate(self, grid: np.ndarray):
        """Box integral of a sampled function (exact for band-limited data)."""
        return grid.sum() * self.cell_volume

    def min_image(self, delta: np.ndarray, axis: int) -> np.ndarray:
        """Wrap coordinate differences on one axis into [-L/2, L/2)."""
        L = self.box_lengths[axis]
        return (delta + L / 2.0) % L - L / 2.0


_ZERO = np.complex128(0.0)
# exp(-i w 0) of each sector, (1, +0) and (1, -0): a copy of phi would
# differ from phi times it at signed zeros
_UNITS = (np.complex128(1.0), np.conj(np.complex128(1.0)))
_BLOCK = 8192       # entries of a 128 KiB complex block


@functools.cache
def _keeps_zero(n: int) -> bool:
    """True if numpy's ifft maps a +0 line of length n to +0 bytes."""
    return not _transform(np.zeros(n, complex), 0, True).view(np.uint64).any()


def _transform(grid: np.ndarray, axis: int, inverse: bool = False,
               fill=None, finish=None, source=None):
    """np.fft.fft (ifft if inverse) of grid along axis, in place or from
    source (of grid's shape) into grid; returns grid.  The package's one
    call site of numpy's transforms.  fill(j, plane), if given, first
    writes the input, and finish(j, plane), if given, then scales the
    result: the whole grid (j None; fill(None, grid) before the call), or
    plane j in the axis-0 pass of a 3-D grid.

    The axis-0 lines of a 3-D grid lie a whole (N1, N2) plane apart, so
    pocketfft's per-line gather would keep missing the cache.  Instead
    each plane grid[:, j, :] is copied into one contiguous (N0, N2)
    scratch plane (or built by fill(j, plane), when the grid's content is
    not needed), transformed along its axis 0, finished while it is in
    cache and copied back: N1 calls, and every line still takes its own
    pocketfft transform of the same values, so the bytes are those of one
    call on the whole grid.  The planes come in mirror pairs, j then
    N1 - j (0, 1, N1 - 1, 2, ..., N1/2), so that a finish can reuse what
    it built for plane j."""
    step = np.fft.ifft if inverse else np.fft.fft
    finish = finish or (lambda j, done: None)
    source = grid if source is None else source
    if axis or grid.ndim != 3:
        if fill is not None:
            fill(None, grid)
        finish(None, step(source, axis=axis, out=grid))
        return grid
    fill = fill or (lambda j, plane: np.copyto(plane, source[:, j]))
    plane = np.empty((grid.shape[0], grid.shape[2]), dtype=complex)
    n1 = grid.shape[1]
    for j in sorted(range(n1), key=lambda j: (min(j, n1 - j), j)):
        fill(j, plane)
        finish(j, step(plane, axis=0, out=plane))
        grid[:, j] = plane
    return grid


def _all_bytes_zero(grid: np.ndarray) -> bool:
    """True if every byte of the contiguous grid is zero; blocks of 64 Ki
    words stop the scan at the first non-zero one."""
    words = grid.reshape(-1).view(np.uint64)
    return not any(words[i:i + 65536].any()
                   for i in range(0, words.size, 65536))


@dataclass
class LatticeField:
    """Field configuration as mode coefficients over a momentum lattice.

    zero_sectors records, per sector (plus, minus), whether every byte of
    its grid is zero, so that every entry is +0+0j.  It is derived from the
    content on every construction, copy_with included, except that
    _one_sector declares the sector it builds with np.zeros; a sector it
    names is stored read-only so that the record cannot go stale.
    """

    lattice: MomentumLattice
    params: ModelParams
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    t0: float = 0.0

    def __post_init__(self, declared=(False, False)):
        shape = tuple(self.lattice.nodes)
        if self.phi_plus.shape != shape or self.phi_minus.shape != shape:
            raise ValueError("coefficient grids must match the lattice shape")
        if not np.isfinite(self.t0):
            raise ValueError(f"start time t0 must be finite, got {self.t0!r}")
        zero = []
        for name, known in zip(("phi_plus", "phi_minus"), declared):
            phi = np.ascontiguousarray(getattr(self, name), dtype=complex)
            zero.append(known or _all_bytes_zero(phi))
            if zero[-1]:
                phi = phi.view()
                phi.flags.writeable = False
            else:
                # max and min propagate nan and show +-inf: no bool grid
                parts = phi.reshape(-1).view(float)
                if not np.isfinite(parts.max()) or not np.isfinite(parts.min()):
                    raise ValueError(f"{name} holds a non-finite coefficient")
            setattr(self, name, phi)
        self.zero_sectors = tuple(zero)

    @classmethod
    def _one_sector(cls, lattice, params, live, sign, t0=0.0):
        """The field with live in sector sign (+1: phi+, -1: phi-) and a
        new np.zeros grid in the other, recorded zero without a scan."""
        f = cls.__new__(cls)
        zero = np.zeros(live.shape, dtype=complex)  # calloc: no pages until written
        f.lattice, f.params, f.t0 = lattice, params, t0
        f.phi_plus, f.phi_minus = (live, zero) if sign > 0 else (zero, live)
        f.__post_init__((sign < 0, sign > 0))
        return f

    @property
    def omega(self) -> np.ndarray:
        return self.lattice.omega(self.params.mass)

    def _rephased(self, t: float):
        """(phi+, phi-) re-phased to time t as new grids, except that at
        t == t0 a sector in zero_sectors is the scalar +0: every entry of
        its grid would be (+0, +0) * (1, -+0) = (+0, +0).  At least one of
        the two is a grid."""
        if t == self.t0:
            zp, zm = self.zero_sectors
            p = _ZERO if zp else self.phi_plus * _UNITS[0]
            m = _ZERO if zm else self.phi_minus * _UNITS[1]
            if zp and zm:
                p = np.zeros(self.phi_plus.shape, dtype=complex)
            return p, m
        # away from t0 a zero sector takes signed zeros from the phase
        ph = self.lattice._phase(self.params.mass, t - self.t0)
        # the shared grid is read-only, so phi+ * ph takes a new output with
        # phi+ first; phi- * conj(ph) stays an expression, whose operand
        # order numpy's temporary elision picks: complex products round
        # differently in each order
        return np.multiply(self.phi_plus, ph), self.phi_minus * np.conj(ph)

    def mode_pair(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Re-phased (phi+, phi-) coefficient grids at time t, both new."""
        return tuple(np.zeros(self.phi_plus.shape, dtype=complex)
                     if np.ndim(s) == 0 else s for s in self._rephased(t))

    def mode_psi(self, t: float) -> np.ndarray:
        if t == self.t0 and sum(self.zero_sectors) == 1:
            # live + 0 is live * (1, -+0) + 0 in one pass: the unit leaves
            # every non-zero part alone, and adding +0 makes every +-0 a +0
            live = self.phi_minus if self.zero_sectors[0] else self.phi_plus
            return np.add(live, _ZERO)
        p, m = self._rephased(t)
        return np.add(p, m, out=p if np.ndim(p) else m)

    def mode_psidot(self, t: float) -> np.ndarray:
        p, m = self._rephased(t)
        out = p if np.ndim(p) else m
        np.subtract(p, m, out=out)
        del p, m
        # -1j * omega a block at a time, in one reused block whose real
        # parts stay +0 (the bytes of -1j * w): no complex grid temporary
        flat, w = out.reshape(-1), self.omega.reshape(-1)
        block = np.zeros(min(_BLOCK, flat.size), dtype=complex)
        for i in range(0, flat.size, _BLOCK):
            part, seg = block[:flat.size - i], flat[i:i + _BLOCK]
            np.negative(w[i:i + _BLOCK], out=part.imag)
            np.multiply(part, seg, out=seg)
        return out

    def psi_grid(self, t: float) -> np.ndarray:
        psi = self.mode_psi(t)
        return self.lattice.modes_to_grid(psi, out=psi)

    def psidot_grid(self, t: float) -> np.ndarray:
        psidot = self.mode_psidot(t)
        return self.lattice.modes_to_grid(psidot, out=psidot)

    def copy_with(self, **kw) -> "LatticeField":
        return replace(self, **kw)


def from_initial_data(
    lattice: MomentumLattice,
    params: ModelParams,
    psi0: np.ndarray,
    psidot0: np.ndarray,
    t0: float = 0.0,
) -> LatticeField:
    """Build the field with given value and time-derivative grids at t0.

    Splits the data into energy-sign sectors:
        phi+- = (psi_hat -+ ... ) / 2 = (psi_hat + i * psidot_hat / w) / 2
    so that the mode sums reproduce psi0 and psidot0 exactly at t0.
    """
    psi_hat = lattice.grid_to_modes(np.asarray(psi0, dtype=complex))
    psidot_hat = lattice.grid_to_modes(np.asarray(psidot0, dtype=complex))
    w = lattice.omega(params.mass)
    half = 0.5j * psidot_hat / w
    return LatticeField(lattice, params, 0.5 * psi_hat + half,
                        0.5 * psi_hat - half, t0)


def apply_D_power(field: LatticeField, alpha: float) -> LatticeField:
    """Apply (-laplacian + M^2)^alpha, diagonal in mode space."""
    mult = (field.lattice.ksq + field.params.mass ** 2) ** alpha
    return field.copy_with(phi_plus=field.phi_plus * mult,
                           phi_minus=field.phi_minus * mult)


def apply_C(field: LatticeField) -> LatticeField:
    """Charge-grading operator: i D^{-1/2} d/dt, i.e. phi- flips sign."""
    return field.copy_with(phi_minus=-field.phi_minus)


def energy_split(field: LatticeField) -> tuple[LatticeField, LatticeField]:
    """Projections (psi + C psi)/2 and (psi - C psi)/2 onto the two sectors."""
    return tuple(LatticeField._one_sector(field.lattice, field.params,
                                          phi.copy(), sign, field.t0)
                 for phi, sign in ((field.phi_plus, 1), (field.phi_minus, -1)))


def evolve(field: LatticeField, dt: float) -> LatticeField:
    """Shift the reference time by dt via exact mode re-phasing."""
    ph = field.lattice._phase(field.params.mass, dt)
    return field.copy_with(phi_plus=field.phi_plus * ph,
                           phi_minus=field.phi_minus * np.conj(ph),
                           t0=field.t0 + dt)


def kg_residual(field: LatticeField, t: float, _omega_scale: float = 1.0) -> float:
    """Max-norm residual of the wave equation at time t.

    The second time derivative is taken analytically mode-wise, the
    laplacian spectrally.  _omega_scale rescales the frequencies used in
    the time derivative only; it exists as a test hook so that a corrupted
    dispersion relation is observable (any value != 1 must make the
    residual large).
    """
    if not isinstance(field, LatticeField):
        raise TypeError(f"kg_residual needs a LatticeField, not {type(field).__name__}")
    w2 = (_omega_scale * field.omega) ** 2
    modes = (-w2 + field.lattice.ksq + field.params.mass ** 2) * field.mode_psi(t)
    grid = field.lattice.modes_to_grid(modes)
    return float(np.abs(grid).max())


def random_field(
    lattice: MomentumLattice,
    params: ModelParams,
    seed: int,
    t0: float = 0.0,
    band_fraction: float = 0.5,
) -> LatticeField:
    """Random band-limited field, deterministic in the seed.

    Mode coefficients are complex Gaussian, damped smoothly and truncated
    beyond band_fraction of the lattice Nyquist wavenumber so that products
    of fields stay well resolved.
    """
    if not 0.0 < band_fraction < np.inf:
        raise ValueError(f"band_fraction must be positive and finite, got "
                         f"{band_fraction!r}")
    rng = np.random.default_rng(seed)
    shape = tuple(lattice.nodes)
    kmax = min(np.pi * n / L for n, L in zip(lattice.nodes, lattice.box_lengths))
    kband = band_fraction * kmax
    ksq = lattice.ksq
    damp = np.exp(-(ksq / kband ** 2) ** 2)
    damp[ksq > kband ** 2] = 0.0
    draw = lambda: (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    norm = 1.0 / np.sqrt(lattice.total_nodes)
    return LatticeField(lattice, params,
                        draw() * damp * norm, draw() * damp * norm, t0)


def gaussian_profile(
    lattice: MomentumLattice,
    sigma: float,
    center: Sequence[float] | None = None,
    kcarrier: Sequence[float] | None = None,
) -> np.ndarray:
    """Gaussian envelope exp(-|x - c|^2 / (4 sigma^2)) e^{i k0.x} on the grid.

    Distances are taken with the minimum-image rule so the profile is
    smooth across the periodic boundary.
    """
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if center is None:
        center = np.zeros(lattice.dim)
    if kcarrier is None:
        kcarrier = np.zeros(lattice.dim)
    center = np.asarray(center, dtype=float)
    kcarrier = np.asarray(kcarrier, dtype=float)
    for name, value in (("center", center), ("kcarrier", kcarrier)):
        if value.shape != (lattice.dim,) or not np.isfinite(value).all():
            raise ValueError(f"{name} must hold {lattice.dim} finite numbers, "
                             f"got {value.tolist()}")
    grids = lattice.coordinate_grids()
    r2 = sum(
        lattice.min_image(x - c, ax) ** 2
        for ax, (x, c) in enumerate(zip(grids, center))
    )
    phase = sum(k * x for k, x in zip(kcarrier, grids))
    return np.exp(-r2 / (4.0 * sigma ** 2) + 1j * phase)


def positive_packet(lattice, params, sigma, kcarrier=None, center=None,
                    t0: float = 0.0) -> LatticeField:
    """Packet with support purely in the positive-energy sector."""
    g = gaussian_profile(lattice, sigma, center, kcarrier)
    return LatticeField._one_sector(lattice, params, lattice.grid_to_modes(g),
                                    1, t0)


def schrodinger_packet(lattice, params, sigma, kcarrier=None, center=None,
                       t0: float = 0.0) -> LatticeField:
    """Field with initial data (g, -i M g), the nonrelativistic ansatz."""
    g = gaussian_profile(lattice, sigma, center, kcarrier)
    return from_initial_data(lattice, params, g, -1j * params.mass * g, t0)


# ----------------------------------------------------------------------
# exact Lorentz boosts


def boost_matrix(beta: np.ndarray) -> np.ndarray:
    """Exact boost matrix into the frame moving with velocity +beta.

    Acts on contravariant vectors (v^0, v^1, ..., v^d).
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    b2 = beta @ beta
    if not b2 < 1.0:        # a nan or inf component fails too
        raise ValueError(f"boost velocity must be finite and below 1, got "
                         f"{beta.tolist()}")
    d = beta.size
    L = np.eye(d + 1)
    if b2 == 0.0:
        return L
    g = 1.0 / np.sqrt(1.0 - b2)
    L[0, 0] = g
    L[0, 1:] = -g * beta
    L[1:, 0] = -g * beta
    L[1:, 1:] = np.eye(d) + (g - 1.0) * np.outer(beta, beta) / b2
    return L


@dataclass(frozen=True)
class Boost:
    """Passive boost: coordinates of the frame moving with velocity beta."""

    beta: tuple[float, ...]

    def __post_init__(self):
        beta = tuple(float(b) for b in np.atleast_1d(self.beta))
        object.__setattr__(self, "beta", beta)
        boost_matrix(beta)      # the one speed check: |beta| < 1

    @property
    def matrix(self) -> np.ndarray:
        return boost_matrix(np.asarray(self.beta))

    @property
    def inverse(self) -> "Boost":
        return Boost(tuple(-b for b in self.beta))

    def transform_events(self, events: np.ndarray) -> np.ndarray:
        """Map event rows (t, x1..xd) to the boosted frame."""
        return np.asarray(events) @ self.matrix.T


def minkowski_dot(u: np.ndarray, v: np.ndarray):
    """eta(u, v) with signature (-, +, ..., +), vectors as (v^0, vec)."""
    u = np.asarray(u)
    v = np.asarray(v)
    return -u[..., 0] * v[..., 0] + np.sum(u[..., 1:] * v[..., 1:], axis=-1)


@dataclass
class PlaneWaveField:
    """Finite superposition of exact plane-wave modes (no lattice).

    Each mode is (eps, kvec, coeff) and contributes
        coeff * e^{-i eps w (t - t0) ... }  evaluated as  coeff * e^{i eta(p, x)}
    with p = (eps*w, kvec), so field values are scalars under exact boosts.
    """

    params: ModelParams
    modes: list[tuple[int, np.ndarray, complex]]
    dim: int

    def __post_init__(self):
        cleaned = []
        for eps, kvec, coeff in self.modes:
            if eps not in (-1, 1):
                raise ValueError("energy sign must be +1 or -1")
            kvec = np.atleast_1d(np.asarray(kvec, dtype=float))
            if kvec.size != self.dim:
                raise ValueError("mode wave vector has wrong dimension")
            coeff = complex(coeff)
            if not (np.isfinite(kvec).all() and np.isfinite(coeff)):
                raise ValueError("mode wave vector and coefficient must be "
                                 "finite")
            cleaned.append((int(eps), kvec, coeff))
        self.modes = cleaned

    def mode_omega(self, kvec: np.ndarray) -> float:
        return float(np.sqrt(kvec @ kvec + self.params.mass ** 2))

    def mode_fourvectors(self) -> np.ndarray:
        """Rows p = (eps*w, kvec); these transform as contravariant vectors."""
        out = np.empty((len(self.modes), self.dim + 1))
        for i, (eps, kvec, _) in enumerate(self.modes):
            out[i, 0] = eps * self.mode_omega(kvec)
            out[i, 1:] = kvec
        return out


def boost_planewave(field: PlaneWaveField, boost: Boost) -> PlaneWaveField:
    """Exact boost: transform each mode's on-shell four-vector.

    The coefficient is unchanged (field values are frame scalars) and the
    mass shell is preserved exactly up to rounding.
    """
    if isinstance(field, LatticeField):
        raise TypeError(
            "lattice fields cannot be boosted; the mode lattice is tied to "
            "the box frame.  Use PlaneWaveField or AmplitudeField."
        )
    L = boost.matrix
    new_modes = []
    for (eps, kvec, coeff), p in zip(field.modes, field.mode_fourvectors()):
        pp = L @ p
        new_modes.append((eps, pp[1:].copy(), coeff))
        w_new = eps * pp[0]
        if not w_new > 0:
            raise ValueError("boost produced a non-positive frequency")
    return PlaneWaveField(field.params, new_modes, field.dim)
