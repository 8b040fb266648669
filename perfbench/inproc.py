"""In-process workloads: spectral-2d and localized-3d.

    python perfbench/inproc.py WORKLOAD --seed N --seconds S --trace 0|1
                               --t-start T [--setup-only]

Started by run.py, one child per set-up trial.  T is the parent's
time.perf_counter() just before the child was started (CLOCK_MONOTONIC,
shared by both processes), so set-up time includes interpreter start and
imports.  The child prints one JSON line: set-up time and, unless
--setup-only, the per-op wall times, failures and (traced) per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import calibration
import checks
import harness


class Spectral2D:
    """Quadratic observables and inner products of random 2-D fields.

    Op i takes field j = i mod 4 at time t_i: both continuity residuals,
    total_probability, and inner_a / inner_a_split of the pair
    (field j, field j+1).  A round is four ops, one per field.
    """

    L, N = 16.0, 64
    MASS, KAPPA, A = 1.2, 0.9, 0.3
    FIELDS = 4
    round_size = FIELDS
    cal_samples = 1         # calibration kernel runs around each round

    def __init__(self, seed: int):
        from kgfield import core

        self.params = core.ModelParams(self.MASS, self.KAPPA, self.A)
        self.lattice = core.MomentumLattice([self.L] * 2, [self.N] * 2)
        self.fields = [core.random_field(self.lattice, self.params,
                                         seed=seed * self.FIELDS + j)
                       for j in range(self.FIELDS)]
        omega = checks.mode_omega([self.L] * 2, [self.N] * 2, self.MASS)

        def ref(f, g):
            return checks.closed_form_inner(
                f.phi_plus, f.phi_minus, g.phi_plus, g.phi_minus, omega,
                self.L ** 2, self.KAPPA, self.MASS, self.A)

        self.ref_ff = [ref(f, f).real for f in self.fields]
        self.ref_fg = [ref(f, self.fields[(j + 1) % self.FIELDS])
                       for j, f in enumerate(self.fields)]

    def op(self, i: int):
        from kgfield import currents, inner

        j = i % self.FIELDS
        f, g = self.fields[j], self.fields[(j + 1) % self.FIELDS]
        t = 0.05 + 0.37 * i
        return (j,
                currents.continuity_residual(f, t, "J_a"),
                currents.continuity_residual(f, t, "calJ_a"),
                currents.total_probability(f, t),
                inner.inner_a(f, g, t),
                inner.inner_a_split(f, g, t))

    def check(self, out) -> None:
        j, res_ja, res_calja, prob, v, v_split = out
        checks.check_spectral_op(
            res_ja, res_calja, prob, v, v_split, self.ref_ff[j],
            self.ref_ff[(j + 1) % self.FIELDS], self.ref_fg[j])


class Localized3D:
    """The bessel-profile scenario at 160^3, a fresh lattice every op.

    Op: build the lattice, the localized state at a node drawn from the
    seed, its psi grid, and the profile along three rays against
    besselK_profile.
    """

    L, N = 20.0, 160
    MASS, KAPPA, A = 1.0, 1.0, 0.0
    RAYS = ((1, 1, 1), (1, 2, 3), (2, 3, 5))
    STEPS = 12
    round_size = 1
    cal_samples = 6

    def __init__(self, seed: int):
        import numpy as np
        from kgfield import core

        self.params = core.ModelParams(self.MASS, self.KAPPA, self.A)
        self.rng = np.random.default_rng(seed)
        self._np = np

    def op(self, i: int):
        np = self._np
        from kgfield import core, localization

        node = np.array(self.rng.integers(0, self.N, 3))
        lat = core.MomentumLattice([self.L] * 3, [self.N] * 3)
        axes = lat.coordinate_axes()
        y = tuple(axes[d][node[d]] for d in range(3))
        state = localization.localized_state(1, y, lat, self.params)
        psi = np.abs(state.field.psi_grid(0.0)) / np.sqrt(lat.cell_volume)
        rs, values, oracle = [], [], []
        for ray in self.RAYS:
            ray = np.array(ray)
            for j in range(1, self.STEPS + 1):
                steps = j * ray
                if np.any(2 * np.abs(steps) >= self.N):
                    break
                r = float(np.linalg.norm(steps * lat.spacings))
                rs.append(r)
                values.append(float(psi[tuple((node + steps) % self.N)]))
                oracle.append(localization.besselK_profile(r, self.params))
        return state.field, rs, values, oracle

    def check(self, out) -> None:
        from kgfield import inner

        field, rs, values, oracle = out
        norm0 = inner.inner_0(field, field)
        checks.check_localized_op(rs, values, oracle, norm0, self.MASS,
                                  self.KAPPA)


WORKLOADS = {"spectral-2d": Spectral2D, "localized-3d": Localized3D}


def run(name: str, seed: int, seconds: float, trace: bool, t_start: float,
        setup_only: bool) -> dict:
    from kgfield import core, currents, inner, localization  # noqa: F401

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[name](seed)
    _, problem = harness.attempt(                  # warm-up op, untimed
        0, lambda i: (0.0, workload.op(i)), lambda i, out: workload.check(out))
    problems = [f"warm-up: {problem}"] if problem else []
    correct = not problems
    setup_s = time.perf_counter() - t_start
    # set-up is converted with kernel samples taken right after it
    bracket = calibration.Bracket(workload.cal_samples)
    (setup_ref,) = bracket.convert([setup_s])
    if setup_only:
        return {"setup_s": setup_s, "setup_ref_s": setup_ref,
                "correct": correct, "problems": problems}
    if tracer:
        tracer.reset()

    def run_op(i):
        start = time.perf_counter()
        if tracer:
            with tracer.span("op"):
                out = workload.op(i)
        else:
            out = workload.op(i)
        return time.perf_counter() - start, out

    rounds = harness.timed_rounds(
        workload.round_size, run_op, lambda i, out: workload.check(out),
        bracket, seconds, group=workload.round_size)
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref,
              "op_times": rounds.op_times, "op_ref_s": rounds.op_ref_s,
              "failed": len(rounds.problems), "correct": correct,
              "problems": (problems + rounds.problems)[:5]}
    if tracer:
        from tracer import per_layer_metrics
        alloc = tracer.lattice_alloc_mb()
        harness.write_spans(name, tracer.spans)
        result["layers"] = per_layer_metrics(tracer.spans, alloc)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-start", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.t_start, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
