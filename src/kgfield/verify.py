"""Registered invariant checks grouped into named suites.

Every module contributes a handful of numeric checks; each one measures a
single violation magnitude and compares it against a tolerance.  The
registry drives the command-line ``verify`` subcommand, so a pristine
build must pass every check and a corrupted build must fail with the
check named.  The corruption is injected through
``VerifyContext.dispersion_scale`` (exposed to subprocess tests via the
KGFIELD_CORRUPT_DISPERSION environment variable in the CLI): any value
other than 1 rescales the frequencies inside the wave-equation residual
and must trip the core suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .amplitudes import invariance_check, reference_packets
from .core import (
    Boost,
    ModelParams,
    MomentumLattice,
    PlaneWaveField,
    boost_matrix,
    boost_planewave,
    energy_split,
    evolve,
    from_initial_data,
    kg_residual,
    random_field,
)
from .currents import (
    continuity_residual,
    noncovariance_demo,
    planewave_current_Ja,
    total_probability,
    two_mode_oracle,
)
from .em import EMBackground, build_Dq, em_evolve, em_gauge_residual, em_inner
from .gauge import GaugeElement, generator_check, group_classify, norm_drift
from .inner import inner_0, inner_a, inner_a_split, norm_a, wald_inner
from .limits import LimitSweep, fit_slope, limit_deviation, operator_expansion_deviation
from .localization import (
    besselK_profile,
    besselK_profile_momentum_route,
    expand_in_localized_basis,
    localized_state,
    position_apply,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    measured: float
    tolerance: float
    passed: bool
    elapsed_s: float = 0.0      # wall time of the check, perf_counter
    margin: float = float("nan")    # see _margin; passed is margin <= 1
    error: str | None = None    # "ValueError: ..." when the check raised


@dataclass(frozen=True)
class VerifyContext:
    seed: int = 0
    dispersion_scale: float = 1.0


# registry rows: (suite, name, at_least, fn(ctx) -> (measured, tolerance));
# pass rule is measured <= tolerance, or measured >= tolerance when
# at_least is set (used for quantities that must stay large, like the
# noncovariance gap); a measurement that is not finite fails either way.
_REGISTRY: list[tuple[str, str, bool, object]] = []


def _check(suite: str, name: str, at_least: bool = False):
    def deco(fn):
        _REGISTRY.append((suite, name, at_least, fn))
        return fn
    return deco


def available_suites() -> list[str]:
    seen = []
    for suite, _, _, _ in _REGISTRY:
        if suite not in seen:
            seen.append(suite)
    return seen


def run_checks(suite: str | None = None, ctx: VerifyContext | None = None) -> list[CheckResult]:
    """Run every registered check, or only one suite.  A check that raises
    fails with a nan measurement, tolerance and margin and the exception in
    its error; the next check still runs."""
    ctx = ctx or VerifyContext()
    if suite is not None and suite not in available_suites():
        raise ValueError(f"unknown suite {suite!r}; have {available_suites()}")
    results = []
    for name_suite, name, at_least, fn in _REGISTRY:
        if suite is not None and name_suite != suite:
            continue
        start = time.perf_counter()
        error = None
        try:
            measured, tol = map(float, fn(ctx))
        except Exception as exc:    # a defect in one check fails that check
            measured = tol = float("nan")
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        ok = np.isfinite(measured) and (measured >= tol if at_least
                                        else measured <= tol)
        results.append(CheckResult(name_suite, name, measured, tol, bool(ok),
                                   elapsed, _margin(measured, tol, at_least),
                                   error))
    return results


def _margin(measured: float, tol: float, at_least: bool) -> float:
    """How much of its bound a check uses: measured / bound for an upper
    bound, bound / measured for an at_least check (inf when measured is
    not positive), nan when measured is not finite.  A check passes when
    its margin is at most 1.  No passing measurement is negative: a floor
    is a ratio held at_least (em:magnetic-floor's lambda_min / M^2)."""
    if not np.isfinite(measured):
        return float("nan")
    if at_least:
        return tol / measured if measured > 0.0 else float("inf")
    return measured / tol


def _worst(values) -> float:
    """Largest of the values, or nan if any of them is not finite.

    Python's max drops a NaN that is not the first value (max(0.0, nan)
    is 0.0), so a broken evaluation could pass its bound.  A nan
    measurement fails run_checks whichever way the bound points.
    """
    vals = np.array(list(values), dtype=float)
    if not np.isfinite(vals).all():
        return float("nan")
    return float(vals.max())


def _std_lattice(dim: int = 1, n: int = 64) -> MomentumLattice:
    return MomentumLattice([12.0] * dim, [n] * dim)


def _std_field(ctx: VerifyContext, a: float = 0.3, dim: int = 1, n: int = 64, off: int = 0,
               band_fraction: float = 0.5):
    params = ModelParams(mass=1.2, kappa=0.9, a=a)
    return random_field(_std_lattice(dim, n), params, seed=ctx.seed + off,
                        band_fraction=band_fraction)


# ---------------------------------------------------------------- core

@_check("core", "wave-equation-residual")
def _chk_wave_residual(ctx):
    f = _std_field(ctx)
    res = _worst(kg_residual(f, t, _omega_scale=ctx.dispersion_scale)
                 for t in (0.0, 0.6, 1.7))
    scale = float(np.abs(f.psi_grid(0.0)).max())
    return res / scale, 1e-10


@_check("core", "evolution-reversibility")
def _chk_reversible(ctx):
    f = _std_field(ctx, off=1)
    g = evolve(evolve(f, 0.83), -0.83)
    dev = _worst((np.abs(g.phi_plus - f.phi_plus).max(),
                  np.abs(g.phi_minus - f.phi_minus).max()))
    return dev / np.abs(f.phi_plus).max(), 1e-12


@_check("core", "sector-reconstruction")
def _chk_sectors(ctx):
    f = _std_field(ctx, off=2)
    fp, fm = energy_split(f)
    psi = f.psi_grid(0.4)
    dev = np.abs(fp.psi_grid(0.4) + fm.psi_grid(0.4) - psi).max()
    return dev / np.abs(psi).max(), 1e-12


@_check("core", "boost-matrix-metric")
def _chk_boost_metric(ctx):
    rng = np.random.default_rng(ctx.seed + 3)
    lam = boost_matrix(rng.uniform(-0.4, 0.4, size=3))
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    return float(np.abs(lam.T @ eta @ lam - eta).max()), 1e-12


# --------------------------------------------------------------- inner

@_check("inner", "positivity", at_least=True)
def _chk_positivity(ctx):
    # smallest squared norm; nan if any is not finite
    worst = -_worst(-norm_a(_std_field(ctx, a=a, off=4)) ** 2
                    for a in (-0.99, -0.5, 0.0, 0.5, 0.99))
    return worst, 1e-12


@_check("inner", "hermitian-reality")
def _chk_reality(ctx):
    f = _std_field(ctx, a=-0.5, off=5)
    v = inner_a(f, f)
    return abs(v.imag) / abs(v.real), 1e-12


@_check("inner", "time-independence")
def _chk_time_indep(ctx):
    f1 = _std_field(ctx, off=6)
    f2 = _std_field(ctx, off=7)
    # the closed form has no time in it: measure it against the grid route
    v = inner_a(f1, f2)
    return _worst(abs(inner_a_split(f1, f2, t) - v)
                  for t in np.linspace(0.0, 5.0, 8)) / abs(v), 1e-12


@_check("inner", "split-route-agreement")
def _chk_split(ctx):
    f1 = _std_field(ctx, a=0.4, off=8)
    f2 = _std_field(ctx, a=0.4, off=9)
    v = inner_a(f1, f2)
    return abs(v - inner_a_split(f1, f2)) / abs(v), 1e-12


@_check("inner", "real-data-route")
def _chk_wald(ctx):
    lat = _std_lattice()
    params = ModelParams(mass=1.3, kappa=1.0, a=0.0)
    rng = np.random.default_rng(ctx.seed + 10)
    shape = tuple(lat.nodes)
    f1 = from_initial_data(lat, params, rng.standard_normal(shape), rng.standard_normal(shape))
    f2 = from_initial_data(lat, params, rng.standard_normal(shape), rng.standard_normal(shape))
    v = inner_a(f1, f2)
    return abs(wald_inner(f1, f2) - v.real) / abs(v.real), 1e-12


# ---------------------------------------------------------- amplitudes

@_check("amplitudes", "frame-invariance")
def _chk_frame_invariance(ctx):
    f1, f2 = reference_packets(ModelParams(mass=1.0, kappa=0.8, a=0.25))
    rep = invariance_check(f1, f2, Boost((0.35,)), orders=(32, 96))
    return rep["rel_dev"][-1], 1e-9


# ------------------------------------------------------------ currents

@_check("currents", "continuity-residual")
def _chk_continuity(ctx):
    # modes out to 0.9 of Nyquist: their quadratic products alias on the
    # native grid, so the check sees the padding of the currents
    f = _std_field(ctx, a=0.2, dim=2, n=48, off=11, band_fraction=0.9)
    return _worst(continuity_residual(f, t) for t in (0.0, 0.9)), 1e-10


@_check("currents", "four-vector-covariance")
def _chk_covariance(ctx):
    rng = np.random.default_rng(ctx.seed + 12)
    params = ModelParams(mass=1.0, kappa=0.9, a=0.2)
    modes = [(int(e), rng.uniform(-1.5, 1.5, size=1), complex(*rng.uniform(-1, 1, 2)))
             for e in rng.choice([1, -1], size=5)]
    pw = PlaneWaveField(params, modes, dim=1)
    b = Boost((0.45,))
    events = np.column_stack([rng.uniform(-2, 2, 100), rng.uniform(-4, 4, 100)])
    J = planewave_current_Ja(pw, events)
    Jb = planewave_current_Ja(boost_planewave(pw, b), b.transform_events(events))
    return float(np.abs(Jb - J @ b.matrix.T).max() / np.abs(J).max()), 1e-10


def _reference_oracle() -> PlaneWaveField:
    params = ModelParams(mass=1.0, kappa=0.8, a=0.3)
    return PlaneWaveField(params, [(1, [0.0], 0.7 + 0.4j),
                                   (1, [np.sqrt(3.0)], -0.3 + 0.9j)], dim=1)


@_check("currents", "closed-form-oracle")
def _chk_oracle(ctx):
    o = _reference_oracle()
    rng = np.random.default_rng(ctx.seed + 13)
    events = np.column_stack([rng.uniform(-2, 2, 50), rng.uniform(-4, 4, 50)])
    direct = planewave_current_Ja(o, events)
    dev = _worst(np.abs(direct[i] - two_mode_oracle(o, events[i])["J"]).max()
                 for i in range(len(events)))
    rec = two_mode_oracle(o, np.zeros(2))
    dev = _worst((dev / np.abs(direct).max(), abs(rec["Ksq"] + 6.5)))
    return dev, 1e-12


@_check("currents", "probability-noncovariance", at_least=True)
def _chk_noncov(ctx):
    rec = noncovariance_demo(_reference_oracle(), Boost((0.5,)))
    if abs(rec["dot_before"] - rec["dot_after"]) > 1e-12:
        return 0.0, 1e-3
    return rec["delta"], 1e-3


@_check("currents", "charge-equals-norm")
def _chk_charge(ctx):
    f = _std_field(ctx, a=-0.35, off=14)
    want = norm_a(f) ** 2
    return abs(total_probability(f, 0.7) - want) / want, 1e-12


# -------------------------------------------------------- localization

@_check("localization", "lattice-orthonormality")
def _chk_orthonormal(ctx):
    lat = MomentumLattice([8.0, 8.0], [12, 12])
    params = ModelParams(mass=1.1, kappa=0.8, a=0.15)
    dx = lat.spacings
    states = [localized_state(e, (4 * dx[0], 5 * dx[1]), lat, params)
              for e in (1, -1)]
    states.append(localized_state(1, (5 * dx[0], 5 * dx[1]), lat, params))
    dev = _worst(abs(inner_0(s1.field, s2.field) - (1.0 if i == j else 0.0))
                 for i, s1 in enumerate(states) for j, s2 in enumerate(states))
    return dev, 1e-12


@_check("localization", "completeness-parseval")
def _chk_parseval(ctx):
    lat = MomentumLattice([8.0], [24])
    params = ModelParams(mass=1.0, kappa=0.9, a=0.3)
    f = random_field(lat, params, seed=ctx.seed + 15)
    coeff_plus, coeff_minus = expand_in_localized_basis(f)
    total = float(np.sum(np.abs(coeff_plus) ** 2 + np.abs(coeff_minus) ** 2))
    want = inner_0(f, f).real
    return abs(total - want) / want, 1e-12


@_check("localization", "position-eigenvalue")
def _chk_position(ctx):
    lat = MomentumLattice([16.0], [64])
    params = ModelParams(mass=1.0, kappa=1.0, a=0.0)
    y = 8 * lat.spacings[0]
    s = localized_state(1, (y,), lat, params)
    comps = position_apply(s.field)
    dev = np.abs(comps[0].phi_plus - y * s.field.phi_plus).max()
    return dev / np.abs(s.field.phi_plus).max(), 1e-12


@_check("localization", "bessel-dual-quadrature")
def _chk_bessel(ctx):
    params = ModelParams(mass=1.0, kappa=1.0, a=0.0)
    v1 = besselK_profile(1.3, params)
    v2 = besselK_profile_momentum_route(1.3, params)
    return abs(v1 - v2) / abs(v1), 1e-8


# --------------------------------------------------------------- gauge

@_check("gauge", "group-law")
def _chk_group_law(ctx):
    g1 = GaugeElement(0.7, 0.3)
    g2 = GaugeElement(-1.9, 0.3)
    dev = np.abs(g1.compose(g2).matrix - g1.matrix @ g2.matrix).max()
    return float(dev), 1e-12


@_check("gauge", "norm-preservation")
def _chk_gauge_norm(ctx):
    return norm_drift(_std_field(ctx, a=0.45, off=16), 1.3), 1e-12


@_check("gauge", "generator-first-order")
def _chk_generator(ctx):
    f = _std_field(ctx, a=0.2, off=17)
    return generator_check(f, 0.2, 1e-5), 1e-3


@_check("gauge", "half-integer-period")
def _chk_classify(ctx):
    rec = group_classify(Fraction(1, 2))
    if rec.kind != "U1":
        return 1.0, 1e-12
    return abs(rec.period - 4 * np.pi), 1e-12


# -------------------------------------------------------------- limits

def _std_sweep() -> LimitSweep:
    lat = MomentumLattice([16.0], [128])
    return LimitSweep(lat, sigma=1.5, kcarrier=(0.4,),
                      masses=tuple(1.5 * 2 ** j for j in range(5)))


@lru_cache(maxsize=1)
def _std_limit_record() -> dict:
    """The standard sweep's J_a limit record, shared by both slope checks.

    The sweep has no seed, so one evaluation per process serves every run.
    """
    return limit_deviation(_std_sweep(), "J_a")


@_check("limits", "density-limit-slope")
def _chk_density_slope(ctx):
    return abs(_std_limit_record()["slope_rho"] + 2.0), 0.4


@_check("limits", "current-limit-slope")
def _chk_current_slope(ctx):
    return abs(_std_limit_record()["slope_j"] + 2.0), 0.4


@_check("limits", "operator-expansion-slope")
def _chk_op_slope(ctx):
    lat = MomentumLattice([16.0], [128])
    prof = np.exp(-(lat.k_grids[0] - 0.4) ** 2)
    masses = [1.5 * 2 ** j for j in range(6)]
    devs = [operator_expansion_deviation(lat, m, prof) for m in masses]
    return abs(fit_slope(masses, devs) + 5.0), 0.4


@_check("limits", "kappa-convention")
def _chk_kappa(ctx):
    sweep = _std_sweep()
    s2 = LimitSweep(sweep.lattice, sweep.sigma, sweep.kcarrier, a=0.25,
                    masses=sweep.masses)
    dev = _worst((abs(sweep.kappa - 1.0), abs(s2.kappa - 1.0 / 1.25)))
    return dev, 1e-15


# ------------------------------------------------------------------ em

def _em_setup():
    lat = MomentumLattice([6.0, 6.0], [10, 10])
    params = ModelParams(mass=1.1, kappa=0.9, a=0.2)
    x = lat.coordinate_grids()
    avec = np.stack([0.4 * np.sin(2 * np.pi * x[1] / 6.0),
                     0.3 * np.cos(2 * np.pi * x[0] / 6.0)])
    return lat, params, EMBackground(avec, q=0.7)


@lru_cache(maxsize=1)
def _em_operator() -> tuple:
    """(lattice, params, D_q) of the standard background, shared by the
    floor and conservation checks.

    The background has no seed, so one build per process serves every run.
    """
    lat, params, bg = _em_setup()
    return lat, params, build_Dq(bg, lat, params)


@_check("em", "free-spectrum")
def _chk_em_free(ctx):
    lat, params, bg = _em_setup()
    op = build_Dq(EMBackground(np.zeros_like(bg.avec), q=0.5), lat, params)
    want = np.sort((lat.ksq + params.mass ** 2).ravel())
    return float(np.abs(op.eigenvalues - want).max() / want.max()), 1e-12


@_check("em", "magnetic-floor", at_least=True)
def _chk_em_floor(ctx):
    _, params, op = _em_operator()
    return float(op.eigenvalues[0] / params.mass ** 2), 1.0 - 1e-9


@_check("em", "inner-conservation")
def _chk_em_inner(ctx):
    lat, _, op = _em_operator()
    rng = np.random.default_rng(ctx.seed + 18)
    psi0 = rng.standard_normal(lat.nodes) + 1j * rng.standard_normal(lat.nodes)
    psidot0 = rng.standard_normal(lat.nodes) + 1j * rng.standard_normal(lat.nodes)
    pairs = [em_evolve(psi0, psidot0, op, t) for t in np.linspace(0.0, 4.0, 6)]
    vals = [em_inner(pair, pair, op) for pair in pairs]
    return _worst(abs(v - vals[0]) for v in vals) / abs(vals[0]), 1e-10


@_check("em", "gauge-residual")
def _chk_em_gauge(ctx):
    kvec, mass, q = 0.8, 1.2, 0.6
    omega = q * 0.2 + np.sqrt(kvec ** 2 + mass ** 2)
    # constant part of phi shifts the frequency; the x1-dependent part is
    # absorbed into the manufactured source, so any smooth psi works here
    rng = np.random.default_rng(ctx.seed + 19)
    events = np.column_stack([rng.uniform(0.2, 2.0, 30),
                              rng.uniform(-3.0, 3.0, 30),
                              rng.uniform(-3.0, 3.0, 30)])
    return em_gauge_residual(
        lambda x0, x1, x2: 0.5 * np.sin(x1) + 0.2,
        lambda x0, x1, x2: np.exp(1j * (kvec * x1 - omega * x0)),
        events, q=q, mass=mass), 1e-8
