"""Acceptance gate: one test per numbered criterion, stated tolerances.

Each test prints a single pass line after its assertions; a failed
assertion leaves the matching FAILED line in the pytest report instead.
Runtime budgets are asserted alongside the numeric tolerances.
"""

import time
from fractions import Fraction

import numpy as np
import sympy

from kgfield.core import (
    Boost,
    LatticeField,
    ModelParams,
    MomentumLattice,
    PlaneWaveField,
    boost_planewave,
    energy_split,
    from_initial_data,
    positive_packet,
    random_field,
)
from kgfield.currents import (
    _divergence,
    continuity_residual,
    current_Ja,
    noncovariance_demo,
    planewave_current_Ja,
    rho_a,
    total_probability,
    two_mode_oracle,
)
from kgfield.em import EMBackground, build_Dq, em_evolve, em_gauge_residual, em_inner
from kgfield.gauge import GaugeElement, gauge_transform, generator_check, group_classify
from kgfield.inner import inner_0, inner_a, inner_a_split, kg_inner, norm_a, wald_inner
from kgfield.limits import (
    LimitSweep,
    fit_slope,
    limit_deviation,
    operator_expansion_deviation,
)
from kgfield.localization import (
    besselK_profile,
    besselK_profile_momentum_route,
    expand_in_localized_basis,
    localized_state,
    position_apply,
    wavefunction_f,
)

from oracles import conjugate_deviation, planewave_current_calJa

A_GRID = (-0.99, -0.5, 0.0, 0.5, 0.99)


def _worst(values) -> float:
    """Largest of the values, NaN if any is NaN.

    Python's max(0.0, nan) is 0.0, so a NaN after the first value would
    slip past a <= bound; numpy's max propagates it and the bound fails.
    """
    return float(np.max(list(values)))


def _report(num, label, elapsed, budget, **stats):
    bits = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in stats.items())
    print(f"PASS criterion {num}: {label} ({bits}; {elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_01_positivity_and_conservation():
    start = time.time()
    lat = MomentumLattice([16.0], [256])
    times = np.linspace(0.0, 4.0, 10)
    worst_im = 0.0
    worst_drift = 0.0
    smallest = np.inf
    for seed in range(200):
        for a in A_GRID:
            f = random_field(lat, ModelParams(mass=1.0, kappa=0.9, a=a),
                             seed=seed)
            v = inner_a(f, f)
            base = v.real
            assert base > 0.0
            smallest = min(smallest, base)
            worst_im = _worst((worst_im, abs(v.imag) / base))
            # the closed form has no time in it; the grid route evolves
            worst_drift = _worst((worst_drift,
                                  _worst(abs(inner_a_split(f, f, t) - v)
                                         for t in times) / base))
    elapsed = time.time() - start
    assert worst_im <= 1e-12
    assert worst_drift <= 1e-12
    assert elapsed < 10.0
    _report(1, "positivity and conservation", elapsed, 10,
            min_norm_sq=smallest, max_imag=worst_im, max_drift=worst_drift)


def test_criterion_02_split_decomposition_identity():
    start = time.time()
    lat = MomentumLattice([12.0], [128])
    worst = 0.0
    for seed in range(100):
        a = A_GRID[seed % len(A_GRID)]
        params = ModelParams(mass=1.1, kappa=0.8, a=a)
        f1 = random_field(lat, params, seed=seed)
        f2 = random_field(lat, params, seed=1000 + seed)
        v = inner_a(f1, f2)
        worst = _worst((worst, abs(v - inner_a_split(f1, f2)) / abs(v)))
    elapsed = time.time() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(2, "split decomposition identity", elapsed, 5, max_rel_dev=worst)


def test_criterion_03_continuity_residual():
    start = time.time()
    lat = MomentumLattice([10.0, 10.0], [64, 64])
    rng = np.random.default_rng(17)
    worst = 0.0
    for seed in range(100):
        a = A_GRID[seed % len(A_GRID)]
        f = random_field(lat, ModelParams(mass=1.0, kappa=0.8, a=a), seed=seed)
        worst = _worst((worst, continuity_residual(f, rng.uniform(-1.0, 1.0))))
    elapsed = time.time() - start
    assert worst <= 1e-10
    assert elapsed < 30.0
    _report(3, "current continuity", elapsed, 30, max_residual=worst)


def test_criterion_04_two_mode_oracles():
    start = time.time()
    params = ModelParams(mass=1.0, kappa=0.8, a=0.3)
    c1, c2 = 0.7 + 0.4j, -0.3 + 0.9j

    # closed forms against the direct plane-wave evaluation at 1000 events
    o = PlaneWaveField(params, [(1, [0.0], c1), (1, [np.sqrt(3.0)], c2)], dim=1)
    rng = np.random.default_rng(29)
    events = np.column_stack([rng.uniform(-2, 2, 1000), rng.uniform(-4, 4, 1000)])
    direct_J = planewave_current_Ja(o, events)
    direct_cal = planewave_current_calJa(o, events)
    scale = np.abs(direct_J).max()
    worst = 0.0
    for i, x in enumerate(events):
        rec = two_mode_oracle(o, x)
        worst = _worst((worst, np.abs(direct_J[i] - rec["J"]).max() / scale,
                        np.abs(direct_cal[i] - rec["calJ"]).max() / scale))
        assert rec["div_J"] == 0.0
        assert abs(rec["K"] @ np.diag([-1.0, 1.0]) @ rec["K"] - rec["Ksq"]) < 1e-12
    assert worst <= 1e-12

    # divergence of the probability current against its closed form, on a
    # box tuned so sqrt(3) is an exact lattice mode
    n2, N = 3, 32
    lat = MomentumLattice([2 * np.pi * n2 / np.sqrt(3.0)], [N])
    modes = np.zeros(N, dtype=complex)
    modes[0], modes[n2] = c1, c2
    f = LatticeField(lat, params, modes, np.zeros_like(modes))
    t = 0.45
    divgrid = np.real(_divergence(f, t, "calJ_a")[1])
    # the divergence grid lives on the dealiased (padded) lattice
    xs = current_Ja(f, t).lattice.coordinate_axes()[0]
    expected = np.array([two_mode_oracle(o, np.array([t, x]))["div_calJ"]
                         for x in xs])
    div_dev = float(np.abs(divgrid - expected).max() / np.abs(expected).max())
    assert div_dev <= 1e-10
    assert continuity_residual(f, t, "J_a") <= 1e-12

    # reference invariant-breaking values
    rec0 = two_mode_oracle(o, np.zeros(2))
    assert abs(rec0["Ksq"] + 6.5) <= 1e-12
    demo = noncovariance_demo(o, Boost((0.5,)))
    assert demo["delta"] > 1e-3
    assert abs(demo["dot_before"] - demo["dot_after"]) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(4, "two-mode closed-form oracles", elapsed, 5,
            max_rel_dev=worst, div_dev=div_dev, Ksq=rec0["Ksq"],
            boosted_shift=demo["delta"])


def test_criterion_05_covariance_dichotomy():
    start = time.time()
    rng = np.random.default_rng(43)
    params = ModelParams(mass=1.0, kappa=0.9, a=0.2)
    worst = 0.0
    for trial in range(5):
        modes = [(int(e), rng.uniform(-1.5, 1.5, size=1),
                  complex(*rng.uniform(-1, 1, 2)))
                 for e in rng.choice([1, -1], size=4)]
        pw = PlaneWaveField(params, modes, dim=1)
        b = Boost((rng.uniform(-0.6, 0.6),))
        bw = boost_planewave(pw, b)
        events = np.column_stack([rng.uniform(-2, 2, 200),
                                  rng.uniform(-4, 4, 200)])
        J = planewave_current_Ja(pw, events)
        Jb = planewave_current_Ja(bw, b.transform_events(events))
        worst = _worst((worst,
                        np.abs(Jb - J @ b.matrix.T).max() / np.abs(J).max()))
    assert worst <= 1e-10

    pw2 = PlaneWaveField(params, [(1, [0.0], 0.7 + 0.4j),
                                  (1, [np.sqrt(3.0)], -0.3 + 0.9j)], dim=1)
    b = Boost((0.5,))
    bw2 = boost_planewave(pw2, b)
    events = np.column_stack([rng.uniform(-2, 2, 200), rng.uniform(-4, 4, 200)])
    cal = planewave_current_calJa(pw2, events)
    calb = planewave_current_calJa(bw2, b.transform_events(events))
    fail_gap = float(np.abs(calb - cal @ b.matrix.T).max() / np.abs(cal).max())
    assert fail_gap > 1e-3
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(5, "covariance dichotomy", elapsed, 5,
            four_vector_dev=float(worst), probability_gap=fail_gap)


def test_criterion_06_localization():
    start = time.time()

    # orthonormality on a 2-D lattice, both sectors
    lat2 = MomentumLattice([8.0, 6.0], [16, 12])
    params = ModelParams(mass=1.0, kappa=1.3, a=0.0)
    axes2 = lat2.coordinate_axes()
    states = []
    for eps, idx in [(1, (3, 4)), (1, (9, 2)), (-1, (3, 4)), (-1, (7, 7))]:
        y = (axes2[0][idx[0]], axes2[1][idx[1]])
        states.append(localized_state(eps, y, lat2, params))
    ortho_dev = _worst(abs(inner_0(si.field, sj.field) - (1.0 if i == j else 0.0))
                       for i, si in enumerate(states)
                       for j, sj in enumerate(states))
    assert ortho_dev <= 1e-12

    # position eigenvalue equation at 20 nodes (both sectors)
    lat1 = MomentumLattice([48.0], [256])
    p1 = ModelParams(mass=1.0)
    axes1 = lat1.coordinate_axes()
    rng = np.random.default_rng(91)
    inner_nodes = np.where(np.abs(axes1[0]) <= 12.0)[0]
    eig_dev = 0.0
    for eps in (1, -1):
        for j in rng.choice(inner_nodes, size=10, replace=False):
            s = localized_state(eps, (axes1[0][j],), lat1, p1)
            out = position_apply(s.field)[0]
            scale = max(np.abs(s.field.phi_plus).max(),
                        np.abs(s.field.phi_minus).max()) * max(1.0, abs(s.y[0]))
            eig_dev = _worst((
                eig_dev,
                np.abs(out.phi_plus - s.y[0] * s.field.phi_plus).max() / scale,
                np.abs(out.phi_minus - s.y[0] * s.field.phi_minus).max() / scale))
    assert eig_dev <= 1e-12

    # Parseval identity for the localized-basis coefficients
    lat3 = MomentumLattice([10.0], [64])
    f = random_field(lat3, ModelParams(mass=1.0, kappa=0.7), seed=41)
    cp, cm = expand_in_localized_basis(f)
    total = float(np.sum(np.abs(cp) ** 2 + np.abs(cm) ** 2))
    want = inner_0(f, f).real
    parseval_dev = abs(total - want) / want
    assert parseval_dev <= 1e-12

    # dual-quadrature agreement of the continuum radial profile
    bessel_quad_dev = _worst(
        abs(besselK_profile(r, p1) - besselK_profile_momentum_route(r, p1))
        / besselK_profile(r, p1)
        for r in (0.5, 1.0, 2.0, 3.0))
    assert bessel_quad_dev <= 1e-8

    # 3-D lattice state against the continuum profile along generic rays
    lat = MomentumLattice([20.0] * 3, [192] * 3)
    axes = lat.coordinate_axes()
    i0 = [int(np.argmin(np.abs(ax))) for ax in axes]
    s = localized_state(1, tuple(axes[d][i0[d]] for d in range(3)), lat, p1)
    psi = np.abs(s.field.psi_grid(0.0)) / np.sqrt(lat.cell_volume)
    profile_dev = 0.0
    for ray in [(1, 1, 1), (1, 2, 3), (2, 3, 5)]:
        ray = np.array(ray)
        j = 1
        while True:
            steps = j * ray
            r = float(np.linalg.norm(steps * lat.spacings))
            if r > 3.0:
                break
            if 0.5 <= p1.mass * r <= 3.0:
                idx = tuple((i0[d] + steps[d]) % lat.nodes[d] for d in range(3))
                oracle = besselK_profile(r, p1)
                profile_dev = _worst((profile_dev,
                                      abs(psi[idx] - oracle) / oracle))
            j += 1
    assert profile_dev <= 1e-3
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(6, "localization", elapsed, 600, ortho_dev=ortho_dev,
            eig_dev=eig_dev, parseval_dev=parseval_dev,
            bessel_quad_dev=bessel_quad_dev, profile_dev=profile_dev)


def test_criterion_07_total_probability():
    start = time.time()
    lat = MomentumLattice([16.0], [128])
    params = ModelParams(mass=1.0, kappa=0.8, a=0.3)
    f = positive_packet(lat, params, sigma=1.2, kcarrier=(0.5,), center=(-2.0,))
    want = inner_a(f, f).real
    worst = 0.0
    peaks = []
    for t in np.linspace(0.0, 3.5, 8):
        dens = rho_a(f, t)
        peaks.append(int(np.argmax(dens)))
        J = current_Ja(f, t)
        worst = _worst((worst,
                        abs(float(lat.integrate(dens)) - want) / want,
                        abs(total_probability(f, t) - want) / want,
                        abs(float(J.lattice.integrate(J.components[0].real))
                            - want) / want))
    moved = abs(peaks[-1] - peaks[0])
    assert worst <= 1e-12
    assert moved > 10
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(7, "total probability is resolved and conserved", elapsed, 10,
            max_rel_dev=worst, peak_cells_moved=moved)


def test_criterion_08_gauge_symmetry():
    start = time.time()
    thetas = (0.7, -1.9, 3.3)
    group_dev = 0.0
    for a in (0.0, 0.3, -0.6):
        for t1 in thetas:
            for t2 in thetas:
                g1, g2 = GaugeElement(t1, a), GaugeElement(t2, a)
                group_dev = _worst((group_dev, float(np.abs(
                    g1.compose(g2).matrix - g1.matrix @ g2.matrix).max())))
    assert group_dev <= 1e-12

    lat = MomentumLattice([12.0], [64])
    f = random_field(lat, ModelParams(mass=1.2, kappa=0.9, a=0.45), seed=23)
    base = norm_a(f) ** 2
    norm_dev = _worst(abs(norm_a(gauge_transform(f, th)) ** 2 - base) / base
                      for th in thetas)
    assert norm_dev <= 1e-12

    gen_dev = generator_check(f, 0.45, 1e-5)
    assert gen_dev <= 1e-3

    half = group_classify(Fraction(1, 2))
    assert half.kind == "U1"
    assert abs(half.period - 4 * np.pi) <= 1e-12
    irr = group_classify(sympy.sqrt(2) / 2)
    assert irr.kind == "Rplus"
    assert irr.period is None
    assert irr.witness["min_distance"] > 1e-6
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(8, "gauge symmetry", elapsed, 5, group_dev=group_dev,
            norm_dev=norm_dev, generator_dev=gen_dev,
            half_period=float(half.period))


def test_criterion_09_nonrelativistic_limits():
    start = time.time()
    lat = MomentumLattice([16.0], [128])
    masses = tuple(1.5 * 2 ** j for j in range(6))

    # kappa = 1/(1+a) is forced by the sweep construction
    sweep = LimitSweep(lat, sigma=1.5, kcarrier=(0.4,), a=0.25, masses=masses)
    assert abs(sweep.kappa - 1.0 / 1.25) <= 1e-15
    assert abs(sweep.params(masses[0]).kappa - sweep.kappa) <= 1e-15

    # operator expansion ladder, slope -5 +/- 0.4; the profile is built in
    # mode space so no grid-seam tail pollutes the high-order fit
    prof = np.exp(-(lat.k_grids[0] - 0.4) ** 2)
    op_devs = [operator_expansion_deviation(lat, m, prof) for m in masses]
    op_slope = fit_slope(masses, op_devs)
    assert abs(op_slope + 5.0) <= 0.4

    # wavefunction convergence ladder, slope -2 +/- 0.4
    sweep0 = LimitSweep(lat, sigma=1.5, kcarrier=(0.4,), masses=masses)
    conj_devs = [conjugate_deviation(sweep0.packet(m)) for m in masses]
    conj_slope = fit_slope(masses, conj_devs)
    assert abs(conj_slope + 2.0) <= 0.4

    # current deviation ladders at a generic time, slopes -2 +/- 0.4
    rec = limit_deviation(sweep0, "J_a")
    assert abs(rec["slope_rho"] + 2.0) <= 0.4
    assert abs(rec["slope_j"] + 2.0) <= 0.4
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(9, "nonrelativistic limits", elapsed, 60, op_slope=op_slope,
            conj_slope=conj_slope, rho_slope=rec["slope_rho"],
            j_slope=rec["slope_j"])


def test_criterion_10_em_coupling():
    start = time.time()
    lat = MomentumLattice([8.0, 8.0], [24, 24])
    params = ModelParams(mass=1.1, kappa=0.9, a=0.2)
    q = 0.7

    # free background reproduces the free spectrum
    op0 = build_Dq(EMBackground(np.zeros((2, 24, 24)), q), lat, params)
    want = np.sort((lat.ksq + params.mass ** 2).ravel())
    free_dev = float(np.abs(op0.eigenvalues - want).max() / want.max())
    assert free_dev <= 1e-12

    # constant background shifts every wavenumber exactly
    a0 = (0.37, -0.21)
    avec = np.zeros((2, 24, 24))
    avec[0] += a0[0]
    avec[1] += a0[1]
    opc = build_Dq(EMBackground(avec, q), lat, params)
    kg = lat.k_grids
    shifted = np.sort(((kg[0] - q * a0[0]) ** 2 + (kg[1] - q * a0[1]) ** 2
                       + params.mass ** 2).ravel())
    const_dev = float(np.abs(opc.eigenvalues - shifted).max() / shifted.max())
    assert const_dev <= 1e-10

    # inner-product conservation under evolution in a varying background
    x = lat.coordinate_grids()
    bvec = np.stack([0.4 * np.sin(2 * np.pi * x[1] / 8.0),
                     0.3 * np.cos(2 * np.pi * x[0] / 8.0)])
    opb = build_Dq(EMBackground(bvec, q), lat, params)
    rng = np.random.default_rng(5)
    psi0 = rng.standard_normal(lat.nodes) + 1j * rng.standard_normal(lat.nodes)
    psidot0 = rng.standard_normal(lat.nodes) + 1j * rng.standard_normal(lat.nodes)
    pairs = [em_evolve(psi0, psidot0, opb, t) for t in np.linspace(0.0, 5.0, 10)]
    vals = [em_inner(pair, pair, opb) for pair in pairs]
    drift = _worst(abs(v - vals[0]) for v in vals) / abs(vals[0])
    assert drift <= 1e-10

    # manufactured-solution residual of the scalar-potential phase map
    phi = lambda x0, x1, x2: 0.5 * np.sin(x1) + 0.2
    aprof = (lambda x0, x1, x2: 0.3 * np.sin(x2), 0)
    psi = lambda x0, x1, x2: np.exp(1j * (0.8 * x1 + 0.5 * x2 - 1.4 * x0))
    events = np.column_stack([rng.uniform(0.1, 2.0, 100),
                              rng.uniform(-3.0, 3.0, 100),
                              rng.uniform(-3.0, 3.0, 100)])
    gauge_res = em_gauge_residual(phi, psi, events, avec_profile=aprof,
                                  q=q, mass=params.mass)
    assert gauge_res <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(10, "electromagnetic coupling", elapsed, 120, free_dev=free_dev,
            const_dev=const_dev, inner_drift=float(drift),
            gauge_residual=gauge_res)


def test_criterion_11_real_field_uniqueness():
    start = time.time()
    lat = MomentumLattice([11.0], [64])
    rng = np.random.default_rng(81)
    shape = tuple(lat.nodes)
    data = [(rng.standard_normal(shape), rng.standard_normal(shape))
            for _ in range(2)]

    # a drops out of the real part on real fields (the imaginary part is
    # proportional to a by construction, so only Re is compared)
    a_dev = 0.0
    base = None
    for a in A_GRID:
        params = ModelParams(mass=1.3, kappa=1.0, a=a)
        f1 = from_initial_data(lat, params, *data[0])
        f2 = from_initial_data(lat, params, *data[1])
        v = inner_a(f1, f2)
        if base is None:
            base = v.real
        a_dev = _worst((a_dev, abs(v.real - base) / abs(base)))
    assert a_dev <= 1e-12

    # the symplectic route on positive projections at g = 1/M is the
    # a = 0 member
    params = ModelParams(mass=1.3, kappa=1.0, a=0.0)
    f1 = from_initial_data(lat, params, *data[0])
    f2 = from_initial_data(lat, params, *data[1])
    p1, _ = energy_split(f1)
    p2, _ = energy_split(f2)
    v0 = inner_a(f1, f2).real
    wald_dev = _worst((abs(wald_inner(f1, f2) - v0) / abs(v0),
                       abs(kg_inner(p1, p2, 1.0 / params.mass).real - v0) / abs(v0)))
    assert wald_dev <= 1e-12

    # conjugation symmetry of the two-component wavefunction
    fp, fm = wavefunction_f(f1)
    conj_dev = float(np.abs(fp - np.conj(fm)).max() / np.abs(fp).max())
    assert conj_dev <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(11, "real-field uniqueness", elapsed, 5, a_independence=a_dev,
            wald_dev=wald_dev, conjugation_dev=conj_dev)
