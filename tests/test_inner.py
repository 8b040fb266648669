"""Inner product family: closed-form oracles, axioms, route agreement."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgfield
from kgfield.core import (
    LatticeField,
    ModelParams,
    MomentumLattice,
    apply_C,
    energy_split,
    evolve,
    from_initial_data,
    random_field,
)
from kgfield.inner import inner_0, inner_a, inner_a_split, kg_inner, norm_a, wald_inner

# single lattice mode, frozen closed-form values:
# d = 1, L = 8, N = 32, k = 2 pi 3 / 8, M = 1.5, kappa = 0.7, a = 0.3,
# coefficient c = 0.8 - 0.3i.  Positive sector gives
# kappa (1+a) (w/M) |c|^2 V, negative kappa (1-a) (w/M) |c|^2 V, and the
# charge form at g = 1/(2M) gives (w/M) |c|^2 V.
ORACLE_PLUS = 9.895922393131816
ORACLE_MINUS = 5.328573596301746
ORACLE_KG = 10.874639992452543


def single_mode_field(sector):
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.5, kappa=0.7, a=0.3)
    modes = np.zeros(32, dtype=complex)
    modes[3] = 0.8 - 0.3j
    zero = np.zeros(32, dtype=complex)
    if sector > 0:
        return LatticeField(lat, params, modes, zero.copy())
    return LatticeField(lat, params, zero.copy(), modes)


def test_single_mode_norms_match_frozen_values():
    plus = single_mode_field(+1)
    minus = single_mode_field(-1)
    assert abs(inner_a(plus, plus).real - ORACLE_PLUS) < 1e-12
    assert abs(inner_a(plus, plus).imag) < 1e-15
    assert abs(inner_a(minus, minus).real - ORACLE_MINUS) < 1e-12
    g = 1.0 / (2 * 1.5)
    assert abs(kg_inner(plus, plus, g).real - ORACLE_KG) < 1e-12
    # negative sector carries negative charge-form norm of equal size
    assert abs(kg_inner(minus, minus, g).real + ORACLE_KG) < 1e-12


def test_kg_inner_requires_positive_weight():
    f = single_mode_field(+1)
    with pytest.raises(ValueError):
        kg_inner(f, f, 0.0)
    with pytest.raises(ValueError):
        kg_inner(f, f, -0.5)


def test_incompatible_fields_rejected():
    f = single_mode_field(+1)
    lat2 = MomentumLattice([8.0], [64])
    g = random_field(lat2, f.params, seed=0)
    with pytest.raises(ValueError):
        inner_a(f, g)
    h = random_field(f.lattice, ModelParams(mass=2.0), seed=0)
    with pytest.raises(ValueError):
        kg_inner(f, h, 1.0)


@pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_hermiticity_and_positivity(a):
    lat = MomentumLattice([10.0], [64])
    params = ModelParams(mass=1.1, kappa=1.3, a=a)
    f1 = random_field(lat, params, seed=101)
    f2 = random_field(lat, params, seed=102)
    v12 = inner_a(f1, f2)
    v21 = inner_a(f2, f1)
    scale = norm_a(f1) * norm_a(f2)
    assert abs(v12 - np.conj(v21)) < 1e-12 * scale
    assert inner_a(f1, f1).real > 0
    assert abs(inner_a(f1, f1).imag) < 1e-14 * scale


@pytest.mark.parametrize("a", [-0.7, 0.0, 0.4])
def test_time_invariance(a):
    lat = MomentumLattice([9.0, 9.0], [16, 16])
    params = ModelParams(mass=0.9, a=a)
    f1 = random_field(lat, params, seed=7)
    f2 = random_field(lat, params, seed=8)
    # the closed form has no time in it: compare it with the grid route
    base = inner_a(f1, f2)
    for t in (0.0, 0.31, 2.7, -5.3):
        assert abs(inner_a_split(f1, f2, t) - base) < 1e-12 * abs(base)
    gbase = kg_inner(f1, f2, 0.8, t=0.0)
    for t in (0.31, 2.7, -5.3):
        assert abs(kg_inner(f1, f2, 0.8, t=t) - gbase) < 1e-12 * abs(gbase)
    # evolving both arguments leaves the value unchanged too
    assert abs(inner_a(evolve(f1, 1.7), evolve(f2, 1.7)) - base) \
        < 1e-12 * abs(base)


@pytest.mark.parametrize("a", [-0.5, 0.3])
def test_fields_with_different_reference_times(a):
    lat = MomentumLattice([9.0], [32])
    params = ModelParams(mass=0.9, kappa=0.7, a=a)
    f1 = random_field(lat, params, seed=41)
    f2 = evolve(random_field(lat, params, seed=42), 0.9)
    assert (f1.t0, f2.t0) == (0.0, 0.9)
    # grid route of inner_0: the same fields with the sector weights at a = 0
    z1, z2 = (f.copy_with(params=replace(params, a=0.0)) for f in (f1, f2))
    va, v0 = inner_a(f1, f2), inner_0(f1, f2)
    for t in (0.0, 0.9, 2.3, -1.1):
        assert abs(inner_a_split(f1, f2, t) - va) < 1e-12 * abs(va)
        assert abs(inner_a_split(z1, z2, t) - v0) < 1e-12 * abs(v0)
    assert abs(inner_a(f2, f1) - np.conj(va)) < 1e-12 * abs(va)


@pytest.mark.parametrize("a", [-0.6, 0.0, 0.8])
def test_split_route_agreement(a):
    # weighted signed combination of charge forms on the energy sectors
    lat = MomentumLattice([7.0], [48])
    params = ModelParams(mass=1.4, kappa=0.6, a=a)
    f1 = random_field(lat, params, seed=31)
    f2 = random_field(lat, params, seed=32)
    direct = inner_a(f1, f2)
    split = inner_a_split(f1, f2)
    assert abs(direct - split) < 1e-12 * max(abs(direct), 1.0)


def test_charge_grading_is_hermitian_and_squares_to_one():
    lat = MomentumLattice([8.0], [64])
    params = ModelParams(mass=1.0, a=0.25)
    f1 = random_field(lat, params, seed=51)
    f2 = random_field(lat, params, seed=52)
    lhs = inner_a(apply_C(f1), f2)
    rhs = inner_a(f1, apply_C(f2))
    assert abs(lhs - rhs) < 1e-12 * norm_a(f1) * norm_a(f2)


def test_polarization_identity():
    lat = MomentumLattice([6.0], [32])
    params = ModelParams(mass=1.2, a=-0.3)
    f1 = random_field(lat, params, seed=61)
    f2 = random_field(lat, params, seed=62)

    def combo(alpha):
        return LatticeField(lat, params,
                            f1.phi_plus + alpha * f2.phi_plus,
                            f1.phi_minus + alpha * f2.phi_minus)

    n = {alpha: inner_a(combo(alpha), combo(alpha)).real
         for alpha in (1, -1, 1j, -1j)}
    rebuilt = (n[1] - n[-1] - 1j * (n[1j] - n[-1j])) / 4.0
    assert abs(rebuilt - inner_a(f1, f2)) < 1e-12 * max(abs(n[1]), 1.0)


@settings(max_examples=25, deadline=None)
@given(
    ar=st.floats(-2, 2), ai=st.floats(-2, 2),
    br=st.floats(-2, 2), bi=st.floats(-2, 2),
)
def test_sesquilinearity(ar, ai, br, bi):
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.0, a=0.2)
    f = random_field(lat, params, seed=71)
    g = random_field(lat, params, seed=72)
    h = random_field(lat, params, seed=73)
    alpha = complex(ar, ai)
    beta = complex(br, bi)
    combo = LatticeField(lat, params,
                         alpha * f.phi_plus + beta * g.phi_plus,
                         alpha * f.phi_minus + beta * g.phi_minus)
    lhs = inner_a(h, combo)
    rhs = alpha * inner_a(h, f) + beta * inner_a(h, g)
    scale = norm_a(h) * (abs(alpha) * norm_a(f) + abs(beta) * norm_a(g)) + 1.0
    assert abs(lhs - rhs) < 1e-12 * scale
    # first slot is conjugate-linear
    lhs2 = inner_a(combo, h)
    rhs2 = np.conj(alpha) * inner_a(f, h) + np.conj(beta) * inner_a(g, h)
    assert abs(lhs2 - rhs2) < 1e-12 * scale


def real_data_field(seed, lat, params):
    rng = np.random.default_rng(seed)
    shape = tuple(lat.nodes)
    return from_initial_data(lat, params,
                             rng.standard_normal(shape),
                             rng.standard_normal(shape))


def test_real_field_route_matches_family_member():
    # for real initial data the positive-projection route agrees with the
    # a = 0, kappa = 1 member; the restriction is what makes it an inner
    # product rather than a degenerate form
    lat = MomentumLattice([11.0], [64])
    params = ModelParams(mass=1.3, kappa=1.0, a=0.0)
    f1 = real_data_field(81, lat, params)
    f2 = real_data_field(82, lat, params)
    w = wald_inner(f1, f2)
    v = inner_a(f1, f2)
    assert abs(v.imag) < 1e-12 * abs(v.real)
    assert abs(w - v.real) < 1e-12 * abs(v.real)


def test_real_field_route_rejects_complex_data():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.0)
    f = random_field(lat, params, seed=91)
    g = real_data_field(92, lat, params)
    with pytest.raises(ValueError):
        wald_inner(f, g)


def test_cauchy_schwarz():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=0.8, a=0.6)
    f1 = random_field(lat, params, seed=95)
    f2 = random_field(lat, params, seed=96)
    assert abs(inner_a(f1, f2)) <= norm_a(f1) * norm_a(f2) * (1 + 1e-12)


def test_inner_products_do_not_depend_on_the_blas_thread_count():
    # 32^3 modes: threaded BLAS splits one long dot product by thread count
    code = (
        "import numpy as np\n"
        "from kgfield.core import ModelParams, MomentumLattice, random_field\n"
        "from kgfield.inner import inner_0, kg_inner\n"
        "lat = MomentumLattice([6.0] * 3, [32] * 3)\n"
        "p = ModelParams(mass=1.3, kappa=0.8, a=0.35)\n"
        "f = random_field(lat, p, seed=5, t0=0.25)\n"
        "g = random_field(lat, p, seed=6, t0=-0.4)\n"
        "print(np.complex128(inner_0(f, g)).tobytes().hex(),\n"
        "      np.complex128(kg_inner(f, g, 0.5)).tobytes().hex())\n")
    src = str(Path(kgfield.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]
