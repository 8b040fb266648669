"""Gauged operator assembly, conserved evolution, manufactured gauge map."""

import numpy as np
import pytest
import sympy

from kgfield import em
from kgfield.core import ModelParams, MomentumLattice, from_initial_data, random_field
from kgfield.em import (
    EMBackground,
    build_Dq,
    em_evolve,
    em_gauge_residual,
    em_inner,
)
from kgfield.inner import inner_a

from oracles import em_gauge_residual_symbolic, gauged_laplacian_fft, matrix_power


def lat16():
    return MomentumLattice([7.0, 9.0], [16, 16])


def zero_bg(lattice, q=0.8):
    return EMBackground(np.zeros((2,) + tuple(lattice.nodes)), q)


def magnetic_bg(lattice, amp=0.6, q=0.8):
    x, y = lattice.coordinate_grids()
    L2 = lattice.box_lengths[1]
    a1 = amp * np.sin(2.0 * np.pi * y / L2)
    return EMBackground(np.stack([a1, np.zeros_like(a1)]), q)


def test_free_spectrum_exact():
    lat = lat16()
    params = ModelParams(mass=1.3)
    op = build_Dq(zero_bg(lat), lat, params)
    want = np.sort((lat.ksq + params.mass ** 2).ravel())
    assert np.abs(op.eigenvalues - want).max() < 1e-12 * want.max()
    assert op.sym_residual < 1e-12


def test_zero_coupling_ignores_potential():
    lat = lat16()
    params = ModelParams(mass=1.0)
    op = build_Dq(magnetic_bg(lat, q=0.0), lat, params)
    want = np.sort((lat.ksq + params.mass ** 2).ravel())
    assert np.abs(op.eigenvalues - want).max() < 1e-12 * want.max()


def test_constant_potential_shifts_spectrum():
    lat = lat16()
    params = ModelParams(mass=0.9)
    a0, q = 0.7, 0.55
    bg = EMBackground(np.stack([np.full(lat.nodes, a0), np.zeros(lat.nodes)]), q)
    op = build_Dq(bg, lat, params)
    k1, k2 = lat.k_grids
    want = np.sort(((k1 - q * a0) ** 2 + k2 ** 2 + params.mass ** 2).ravel())
    assert np.abs(op.eigenvalues - want).max() < 1e-10 * want.max()


@pytest.mark.parametrize("nodes", [(10, 10), (16, 16), (32, 32), (10, 32),
                                   (12, 10)], ids=str)
def test_operator_matches_the_batched_fft_route(nodes):
    # both components vary along both axes, so every term of
    # (D - iqA)^2 on each axis reaches the matrix
    lat = MomentumLattice([6.0, 7.5], nodes)
    x, y = lat.coordinate_grids()
    bg = EMBackground(np.stack([0.3 * np.sin(2.0 * np.pi * y / 7.5) + 0.2,
                                0.2 * np.cos(2.0 * np.pi * x / 6.0) - 0.1
                                + 0.1 * np.sin(2.0 * np.pi * y / 7.5)]), 0.7)
    params = ModelParams(mass=1.0)
    want = gauged_laplacian_fft(bg, lat)
    want[np.diag_indices_from(want)] += params.mass ** 2
    got = build_Dq(bg, lat, params).matrix
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_magnetic_operator_positive():
    lat = lat16()
    params = ModelParams(mass=1.1)
    op = build_Dq(magnetic_bg(lat, amp=1.5), lat, params)
    floor = params.mass ** 2 * (1.0 - 1e-9)
    assert op.eigenvalues.min() >= floor
    assert op.sym_residual < 1e-12


def test_lattice_requirements():
    params = ModelParams(mass=1.0)
    with pytest.raises(ValueError):
        lat1 = MomentumLattice([8.0], [16])
        build_Dq(EMBackground(np.zeros((1, 16)), 0.5), lat1, params)
    with pytest.raises(ValueError):
        lat3 = MomentumLattice([8.0, 8.0, 8.0], [4, 4, 4])
        build_Dq(EMBackground(np.zeros((3, 4, 4, 4)), 0.5), lat3, params)
    with pytest.raises(ValueError):
        big = MomentumLattice([8.0, 8.0], [64, 64])
        build_Dq(zero_bg(big), big, params)
    with pytest.raises(ValueError):
        lat = lat16()
        build_Dq(EMBackground(np.zeros((2, 8, 8)), 0.5), lat, params)


def test_a_nan_fails_the_background_and_both_operator_gates(monkeypatch):
    lat, params = lat16(), ModelParams(mass=1.0)
    zero, poisoned = np.zeros((2,) + lat.nodes), np.zeros((2,) + lat.nodes)
    poisoned[0, 3, 5] = np.nan
    for avec, q, name in ((poisoned, 0.8, "avec"), (zero - np.inf, 0.8, "avec"),
                          (zero, np.nan, "q"), (zero, np.inf, "q")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            EMBackground(avec, q)
    # past the constructor, a NaN operator fails the Hermiticity gate
    bg = zero_bg(lat)
    object.__setattr__(bg, "avec", poisoned)
    with pytest.raises(FloatingPointError, match="not Hermitian"):
        build_Dq(bg, lat, params)
    # and NaN eigenvalues fail the mass-squared floor
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (
        np.full(len(h), np.nan), real(h)[1]))
    with pytest.raises(FloatingPointError, match="floor"):
        build_Dq(zero_bg(lat), lat, params)


def test_fractional_power_squares_back():
    lat = MomentumLattice([7.0, 7.0], [12, 12])
    params = ModelParams(mass=1.2)
    op = build_Dq(magnetic_bg(lat), lat, params)
    root = matrix_power(op, 0.5)
    dev = np.abs(root @ root - op.matrix).max()
    assert dev < 1e-11 * np.abs(op.eigenvalues).max()


def test_free_evolution_matches_core():
    lat = lat16()
    params = ModelParams(mass=1.4, kappa=0.8, a=0.35)
    f = random_field(lat, params, seed=23)
    psi0 = f.psi_grid(0.0)
    psidot0 = f.psidot_grid(0.0)
    op = build_Dq(zero_bg(lat), lat, params)
    for t in (0.0, 1.7):
        pair = em_evolve(psi0, psidot0, op, t)
        val = em_inner(pair, pair, op)
        scale = np.abs(psi0).max()
        assert np.abs(pair[0] - f.psi_grid(t)).max() < 1e-10 * scale
        assert np.abs(pair[1] - f.psidot_grid(t)).max() < 1e-10 * scale
        ref = inner_a(f, f)
        assert abs(val - ref) < 1e-10 * abs(ref)


def test_eigenmode_pure_phase():
    lat = MomentumLattice([7.0, 7.0], [12, 12])
    params = ModelParams(mass=1.0, kappa=1.0, a=0.2)
    op = build_Dq(magnetic_bg(lat), lat, params)
    j = 17
    lam = op.eigenvalues[j]
    v = op.eigenvectors[:, j].reshape(lat.nodes)
    psi0, psidot0 = v, -1j * np.sqrt(lam) * v
    n0 = em_inner((psi0, psidot0), (psi0, psidot0), op).real
    for t in (0.4, 2.2):
        psi, psidot = em_evolve(psi0, psidot0, op, t)
        phase = np.exp(-1j * np.sqrt(lam) * t)
        assert np.abs(psi - phase * v).max() < 1e-12
        n = em_inner((psi, psidot), (psi, psidot), op).real
        assert abs(n - n0) < 1e-12 * abs(n0)


def test_inner_conserved_under_magnetic_evolution():
    lat = lat16()
    params = ModelParams(mass=1.0, kappa=1.3, a=-0.4)
    op = build_Dq(magnetic_bg(lat, amp=0.9), lat, params)
    rng = np.random.default_rng(31)
    psi0 = rng.standard_normal(lat.nodes) + 1j * rng.standard_normal(lat.nodes)
    psidot0 = rng.standard_normal(lat.nodes) + 1j * rng.standard_normal(lat.nodes)
    n0 = em_inner((psi0, psidot0), (psi0, psidot0), op)
    assert abs(n0.imag) < 1e-12 * n0.real
    assert n0.real > 0.0
    for t in np.linspace(0.3, 4.5, 10):
        pair = em_evolve(psi0, psidot0, op, t)
        assert abs(em_inner(pair, pair, op) - n0) < 1e-10 * abs(n0)


def test_gauge_covariance_of_spectrum():
    # multiplying by e^{iq Lambda} pushes Fourier content past the band
    # edge, so lattice gauge covariance holds on the resolved part of
    # the spectrum only; with a single-mode Lambda the leakage onto the
    # lowest fifth of the eigenvalues is far below tolerance while the
    # band edge moves at the percent level
    lat = MomentumLattice([7.0, 9.0], [24, 24])
    params = ModelParams(mass=1.0)
    q = 0.8
    x, _ = lat.coordinate_grids()
    L1 = lat.box_lengths[0]
    bg = magnetic_bg(lat, amp=0.5, q=q)
    lam_amp = 0.5
    grad1 = lam_amp * (2.0 * np.pi / L1) * np.cos(2.0 * np.pi * x / L1)
    shifted = EMBackground(np.stack([bg.avec[0] + grad1, bg.avec[1]]), q)
    op1 = build_Dq(bg, lat, params)
    op2 = build_Dq(shifted, lat, params)
    low1, low2 = op1.eigenvalues[:120], op2.eigenvalues[:120]
    assert np.abs(low1 - low2).max() < 1e-10 * low1.max()
    assert np.abs(op1.eigenvalues - op2.eigenvalues).max() \
        > 1e-3 * op1.eigenvalues.max()


def _jet_seed(x):
    return em._Jet(x, 1.0, 0.0)


@pytest.mark.parametrize("f, df, ddf", [
    (lambda x: np.exp(0.7 * x),
     lambda x: 0.7 * np.exp(0.7 * x), lambda x: 0.49 * np.exp(0.7 * x)),
    (lambda x: np.sin(2.0 * x),
     lambda x: 2.0 * np.cos(2.0 * x), lambda x: -4.0 * np.sin(2.0 * x)),
    (lambda x: np.cos(x - 0.3),
     lambda x: -np.sin(x - 0.3), lambda x: -np.cos(x - 0.3)),
    (lambda x: x * np.sin(x),
     lambda x: np.sin(x) + x * np.cos(x),
     lambda x: 2.0 * np.cos(x) - x * np.sin(x)),
    (lambda x: np.sin(x) / (2.0 + np.cos(x)),
     lambda x: (2.0 * np.cos(x) + 1.0) / (2.0 + np.cos(x)) ** 2,
     lambda x: 2.0 * np.sin(x) * (np.cos(x) - 1.0) / (2.0 + np.cos(x)) ** 3),
    (lambda x: -x - 1.0 / x,
     lambda x: -1.0 + 1.0 / x ** 2, lambda x: -2.0 / x ** 3),
    (lambda x: np.exp(1j * x) * np.exp(-1j * x),
     lambda x: 0.0 * x, lambda x: 0.0 * x),
])
def test_jet_derivatives_match_closed_forms(f, df, ddf):
    x = np.linspace(-1.7, 2.3, 9)
    jet = f(_jet_seed(x))
    assert np.abs(jet.c0 - f(x)).max() < 1e-14
    assert np.abs(jet.c1 - df(x)).max() < 1e-13
    assert np.abs(2.0 * jet.c2 - ddf(x)).max() < 1e-13


def test_jet_rejects_unsupported_ufuncs():
    jet = _jet_seed(np.linspace(0.5, 1.5, 4))
    with pytest.raises(TypeError, match="sqrt"):
        np.sqrt(jet)
    with pytest.raises(TypeError, match="power"):
        jet ** 2
    with pytest.raises(TypeError, match="reduce"):
        np.add.reduce(jet)
    with pytest.raises(TypeError):
        em_gauge_residual(0.2, lambda x0, x1, x2: np.sqrt(x1 + 5.0),
                          [(0.3, 1.1, -0.6)], q=0.8, mass=1.0)


# Manufactured solutions as (numpy profiles, sympy profiles, events, q, M);
# the sympy forms feed the symbolic witness in tests/oracles.py.
def _case_verify():
    x0, x1, x2 = sympy.symbols("x0 x1 x2", real=True)
    kvec, mass, q = 0.8, 1.2, 0.6
    omega = q * 0.2 + np.sqrt(kvec ** 2 + mass ** 2)
    rng = np.random.default_rng(19)
    events = np.column_stack([rng.uniform(0.2, 2.0, 30),
                              rng.uniform(-3.0, 3.0, 30),
                              rng.uniform(-3.0, 3.0, 30)])
    return ((lambda x0, x1, x2: 0.5 * np.sin(x1) + 0.2,
             lambda x0, x1, x2: np.exp(1j * (kvec * x1 - omega * x0)), None),
            (sympy.Rational(1, 2) * sympy.sin(x1) + sympy.Rational(1, 5),
             sympy.exp(sympy.I * (kvec * x1 - omega * x0)), None),
            events, q, mass)


def _case_zero_potential():
    x0, x1, x2 = sympy.symbols("x0 x1 x2", real=True)
    return ((0, lambda x0, x1, x2: np.exp(1j * (0.7 * x1 - 1.3 * x0))
             * np.cos(0.4 * x2), None),
            (0, sympy.exp(sympy.I * (0.7 * x1 - 1.3 * x0))
             * sympy.cos(0.4 * x2), None),
            [(0.3, 1.1, -0.6), (2.0, 0.0, 0.5)], 0.8, 1.0)


def _case_constant_potential():
    # with constant potential, a plane wave whose frequency is shifted by
    # q phi0 solves the coupled equation exactly
    x0, x1, x2 = sympy.symbols("x0 x1 x2", real=True)
    q, phi0, mass = 0.6, 0.9, 1.2
    k1, k2 = 0.8, -0.5
    omega = q * phi0 + np.sqrt(k1 ** 2 + k2 ** 2 + mass ** 2)
    rng = np.random.default_rng(7)
    events = rng.uniform(-2.0, 2.0, size=(20, 3))
    return ((phi0, lambda x0, x1, x2: np.exp(1j * (k1 * x1 + k2 * x2
                                                   - omega * x0)), None),
            (phi0, sympy.exp(sympy.I * (k1 * x1 + k2 * x2 - omega * x0)), None),
            events, q, mass)


def _case_varying_potential():
    x0, x1, x2 = sympy.symbols("x0 x1 x2", real=True)
    rng = np.random.default_rng(11)
    events = rng.uniform(-3.0, 3.0, size=(100, 3))
    return ((lambda x0, x1, x2: 0.3 * np.sin(x1) * np.cos(2.0 * x0)
             + 0.2 * np.cos(x2),
             lambda x0, x1, x2: np.exp(1j * (0.9 * x1 - 1.4 * x0))
             * (1.0 + 0.5 * np.sin(x2)),
             (lambda x0, x1, x2: 0.4 * np.sin(x2), 0)),
            (sympy.Rational(3, 10) * sympy.sin(x1) * sympy.cos(2 * x0)
             + sympy.Rational(1, 5) * sympy.cos(x2),
             sympy.exp(sympy.I * (0.9 * x1 - 1.4 * x0))
             * (1 + sympy.Rational(1, 2) * sympy.sin(x2)),
             (sympy.Rational(2, 5) * sympy.sin(x2), sympy.Integer(0))),
            events, 0.7, 1.0)


def _case_criterion_10():
    x0, x1, x2 = sympy.symbols("x0 x1 x2", real=True)
    rng = np.random.default_rng(5)
    events = np.column_stack([rng.uniform(0.1, 2.0, 100),
                              rng.uniform(-3.0, 3.0, 100),
                              rng.uniform(-3.0, 3.0, 100)])
    return ((lambda x0, x1, x2: 0.5 * np.sin(x1) + 0.2,
             lambda x0, x1, x2: np.exp(1j * (0.8 * x1 + 0.5 * x2 - 1.4 * x0)),
             (lambda x0, x1, x2: 0.3 * np.sin(x2), 0)),
            (sympy.Rational(1, 2) * sympy.sin(x1) + sympy.Rational(1, 5),
             sympy.exp(sympy.I * (sympy.Rational(4, 5) * x1
                                  + sympy.Rational(1, 2) * x2
                                  - sympy.Rational(7, 5) * x0)),
             (sympy.Rational(3, 10) * sympy.sin(x2), sympy.Integer(0))),
            events, 0.7, 1.1)


def _jet_residual(case):
    (phi, psi, avec), _, events, q, mass = case
    return em_gauge_residual(phi, psi, events, avec_profile=avec, q=q, mass=mass)


def test_gauge_residual_zero_potential():
    assert _jet_residual(_case_zero_potential()) < 1e-12


def test_gauge_residual_constant_potential_plane_wave():
    assert _jet_residual(_case_constant_potential()) < 1e-10


def test_gauge_residual_varying_potential():
    assert _jet_residual(_case_varying_potential()) < 1e-8


@pytest.mark.parametrize("make_case", [
    _case_verify, _case_zero_potential, _case_constant_potential,
    _case_varying_potential, _case_criterion_10])
def test_gauge_residual_matches_symbolic_witness(make_case):
    case = make_case()
    _, (phi, psi, avec), events, q, mass = case
    jet = _jet_residual(case)
    sym = em_gauge_residual_symbolic(phi, psi, events, avec_profile=avec,
                                     q=q, mass=mass)
    assert abs(jet - sym) < 1e-12


def test_gauge_residual_rejects_nonfinite():
    # nonzero potential, so the pole enters every term of the residual
    with pytest.raises(FloatingPointError, match=r"\(0\.5, 0\.0, 0\.3\)"):
        em_gauge_residual(lambda x0, x1, x2: x1,
                          lambda x0, x1, x2: np.exp(1j * x0) / x1,
                          [(0.9, 1.0, 0.3), (0.5, 0.0, 0.3)], q=0.5, mass=1.0)


def test_one_thread_sets_and_restores_the_bundled_openblas():
    from kgfield import _blas

    before = _blas.threads()
    assert before >= 1          # numpy's wheel bundles scipy-openblas
    with _blas.one_thread():
        assert _blas.threads() == 1
    assert _blas.threads() == before


def test_one_thread_does_nothing_without_the_thread_api(monkeypatch):
    from kgfield import _blas

    monkeypatch.setattr(_blas, "_thread_api", lambda: None)
    assert _blas.threads() is None
    with _blas.one_thread():
        assert _blas.threads() is None


def test_dense_operator_runs_on_one_blas_thread(monkeypatch):
    # a spy on the thread API: eigh, em_evolve's and apply_power's products
    # run inside the cap, and the old count comes back, also when eigh raises
    from kgfield import _blas

    count, calls, seen = [3], [], []

    def put(n):
        calls.append(n)
        count[0] = n

    def spy(h):
        seen.append(count[0])
        return eigh(h)

    def fails(h):
        seen.append(count[0])
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    eigh = np.linalg.eigh
    monkeypatch.setattr(_blas, "_thread_api", lambda: (lambda: count[0], put))
    monkeypatch.setattr(np.linalg, "eigh", spy)
    lat, params = MomentumLattice([7.0, 7.0], [8, 8]), ModelParams(mass=1.0)
    op = build_Dq(magnetic_bg(lat), lat, params)
    assert (seen, calls, count) == ([1], [1, 3], [3])
    psi = np.ones(lat.nodes, dtype=complex)
    em_evolve(psi, psi, op, 0.5)
    op.apply_power(0.5, psi)
    assert calls == [1, 3] * 3 and count == [3]
    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(np.linalg.LinAlgError):
        build_Dq(magnetic_bg(lat), lat, params)
    assert seen == [1, 1] and calls == [1, 3] * 4 and count == [3]
