"""Inner products on the space of field configurations.

Production route: inner_a and inner_0 evaluate the positive-definite
family (-1 < a < 1) in closed mode-space form, one sector-weighted sum
    (kappa/M) V sum_k w_k [(1+a) conj(phi1+) phi2+ + (1-a) conj(phi1-) phi2-]
with a = params.a for inner_a and a = 0 for inner_0.  The exact
evolution only re-phases each sector, so the value does not depend on t.

Grid-quadrature routes, kept as independent cross-checks:

* kg_inner: the charge-type form i g [<psi1|psidot2> - <psidot1|psi2>].
  Indefinite.
* inner_a_split: the family from the energy-sign split,
  kappa [(1+a) kg(psi1+, psi2+) - (1-a) kg(psi1-, psi2-)] at g = 1/(2M),
  at any time t.
* wald_inner: Re of the charge form on positive projections, real data.
"""

from __future__ import annotations

import numpy as np

from .core import _BLOCK, _UNITS, LatticeField, energy_split


def _check_pair(f1: LatticeField, f2: LatticeField):
    if f1.lattice != f2.lattice:
        raise ValueError("fields live on different lattices")
    if f1.params != f2.params:
        raise ValueError("fields carry different model parameters")


def _vdots(pairs, weights=None) -> list:
    """[np.vdot(x, y) for x, y in pairs], each summed in order over blocks
    of _BLOCK entries: threaded BLAS splits longer dot products by thread
    count, which moves their rounding.

    A pair (x, y, c) stands for (x, y * c): each block of y * c is formed
    in one reused scratch block, so y is only read.  weights(i, j), if
    given, is a real array that scales every y[i:j] (or its y * c block)
    in place before it is reduced; it is built once per block for all
    pairs, so each y of a pair (x, y) must be a grid the caller gives up."""
    pairs = [(x.reshape(-1), y.reshape(-1), *c) for x, y, *c in pairs]
    parts, n = [[] for _ in pairs], pairs[0][0].size if pairs else 0
    scratch = np.empty(min(_BLOCK, n), dtype=complex)
    for i in range(0, n, _BLOCK):
        w = None if weights is None else weights(i, i + _BLOCK)
        for (x, y, *c), acc in zip(pairs, parts):
            yb = y[i:i + _BLOCK]
            if c:
                yb = np.multiply(yb, c[0], out=scratch[:yb.size])
            if w is not None:
                np.multiply(w, yb, out=yb)
            acc.append(np.vdot(x[i:i + _BLOCK], yb))
    return [sum(acc[1:], acc[0]) for acc in parts]


def kg_inner(f1: LatticeField, f2: LatticeField, g: float,
             t: float | None = None) -> complex:
    """Charge-type form i g [<psi1|psidot2> - <psidot1|psi2>] at time t.

    Evaluated by grid quadrature (exact for band-limited fields).  The
    normalization g > 0 is supplied by the caller; the value is
    independent of t for solutions of the wave equation.
    """
    _check_pair(f1, f2)
    if not g > 0:
        raise ValueError("normalization g must be positive")
    if t is None:
        t = f1.t0
    psi1, psidot1 = f1.psi_grid(t), f1.psidot_grid(t)
    psi2, psidot2 = f2.psi_grid(t), f2.psidot_grid(t)
    cell = f1.lattice.cell_volume
    bra_ket, ket_bra = (v * cell for v in _vdots([(psi1, psidot2),
                                                  (psidot1, psi2)]))
    return 1j * g * (bra_ket - ket_bra)


def _sector_form(f1: LatticeField, f2: LatticeField, a: float) -> complex:
    """(kappa/M) V sum_k w [(1+a) conj(phi1+) phi2+ + (1-a) conj(phi1-) phi2-].

    f2 is re-phased to f1's reference time; the common phase of the two
    fields cancels, so only a difference of their t0 survives.  At a
    shared t0 the re-phase is the scalar unit of LatticeField._rephased,
    applied a block at a time, so no grid is copied; a sector that is
    zero in both fields there reduces to exactly +0.  Both sectors are
    reduced in one pass over the blocks, against one span of w = omega
    built per block, which leaves the omega cache as it is.
    """
    _check_pair(f1, f2)
    p, lat = f1.params, f1.lattice
    if f2.t0 == f1.t0:
        pairs = [None if zero1 and zero2 else (phi1, phi2, unit)
                 for phi1, zero1, phi2, zero2, unit in zip(
                     (f1.phi_plus, f1.phi_minus), f1.zero_sectors,
                     (f2.phi_plus, f2.phi_minus), f2.zero_sectors, _UNITS)]
    else:
        pairs = list(zip((f1.phi_plus, f1.phi_minus), f2._rephased(f1.t0)))
    sums = iter(_vdots([s for s in pairs if s is not None],
                       lambda i, j: lat._omega_span(p.mass, i, j)))
    plus, minus = (np.complex128(0.0) if s is None else next(sums)
                   for s in pairs)
    acc = (1.0 + a) * plus + (1.0 - a) * minus
    return complex(acc) * lat.volume * (p.kappa / p.mass)


def inner_a(f1: LatticeField, f2: LatticeField,
            t: float | None = None) -> complex:
    """Positive-definite inner product of the family; independent of t.

    t is accepted and ignored: perfbench/inproc.py still passes it.
    """
    return _sector_form(f1, f2, f1.params.a)


def inner_a_split(f1: LatticeField, f2: LatticeField,
                  t: float | None = None) -> complex:
    """Same inner product assembled from the energy-sign projections."""
    _check_pair(f1, f2)
    p = f1.params
    g = 1.0 / (2.0 * p.mass)
    p1, m1 = energy_split(f1)
    p2, m2 = energy_split(f2)
    return p.kappa * ((1.0 + p.a) * kg_inner(p1, p2, g, t)
                      - (1.0 - p.a) * kg_inner(m1, m2, g, t))


def inner_0(f1: LatticeField, f2: LatticeField) -> complex:
    """The a = 0 member of the family, regardless of the fields' own a.

    Used wherever position wavefunctions are involved: their Parseval
    identity singles out this member.  Independent of t.
    """
    return _sector_form(f1, f2, 0.0)


def norm_a(f: LatticeField) -> float:
    val = inner_a(f, f)
    return float(np.sqrt(max(val.real, 0.0)))


def _is_real_data(f: LatticeField) -> bool:
    """True if the field has real value and time-derivative data at t0.

    Equivalent to phi-(k) = conj(phi+(-k)) on the lattice, checked with
    the index negation map (Nyquist rows are self-paired) to 1e-10 relative.
    """
    # flipping maps index n to N - 1 - n, and rolling by one to -n mod N
    axes = tuple(range(f.lattice.dim))
    mirrored = np.conj(np.roll(np.flip(f.phi_plus), 1, axis=axes))
    scale = max(np.abs(f.phi_plus).max(), np.abs(f.phi_minus).max(), 1e-300)
    return bool(np.abs(f.phi_minus - mirrored).max() <= 1e-10 * scale)


def wald_inner(f1: LatticeField, f2: LatticeField) -> float:
    """Real-field route: Re of the charge form on positive projections.

    Defined for fields with real initial data only, and taken at f1's t0
    (the form does not depend on time).  With g = 1/M this reproduces the
    a = 0 member of the family at kappa = 1, which the tests assert.
    """
    _check_pair(f1, f2)
    if not (_is_real_data(f1) and _is_real_data(f2)):
        raise ValueError("wald_inner requires fields with real initial data")
    g = 1.0 / f1.params.mass
    p1, _ = energy_split(f1)
    p2, _ = energy_split(f2)
    return float(kg_inner(p1, p2, g).real)
