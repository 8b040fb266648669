"""Cross-check routes that only the tests call.

Each function here is an independent derivation of a quantity that a
production module computes another way.  Nothing under ``kgfield``
imports this module, so its heavy dependencies (sympy) stay off every
command-line path.
"""

from __future__ import annotations

import numpy as np


def em_gauge_residual_symbolic(phi_profile, psi_solution, sample_events, *,
                               avec_profile=None, q: float, mass: float,
                               t0: float = 0.0) -> float:
    """Residual of the scalar-potential phase map, derived symbolically.

    The sympy witness for ``em.em_gauge_residual``: same contract, but
    phi_profile and psi_solution are sympy expressions in the symbols
    (x0, x1, x2) and avec_profile, when given, is a pair of such
    expressions.  Every derivative and the phase integral are taken by
    sympy, then the residual is lambdified and evaluated per event.
    """
    import sympy

    x0, x1, x2 = sympy.symbols("x0 x1 x2", real=True)
    coords = (x0, x1, x2)
    tau = sympy.Symbol("tau", real=True)
    phi = sympy.sympify(phi_profile)
    psi = sympy.sympify(psi_solution)
    if avec_profile is None:
        avec = (sympy.Integer(0), sympy.Integer(0))
    else:
        avec = tuple(sympy.sympify(c) for c in avec_profile)

    def gauged_square(f):
        out = sympy.Integer(0)
        for xi, ai in zip((x1, x2), avec):
            g = sympy.diff(f, xi) - sympy.I * q * ai * f
            out += sympy.diff(g, xi) - sympy.I * q * ai * g
        return out

    u = sympy.exp(sympy.I * q
                  * sympy.integrate(phi.subs(x0, tau), (tau, t0, x0)))
    source = (sympy.diff(psi, x0, 2) + 2 * sympy.I * q * phi * sympy.diff(psi, x0)
              - gauged_square(psi)
              + (sympy.I * q * sympy.diff(phi, x0) - q ** 2 * phi ** 2
                 + mass ** 2) * psi)
    chi = u * psi
    lhs = sympy.diff(chi, x0, 2) + u * (-gauged_square(psi) + mass ** 2 * psi)
    residual = lhs - u * source
    fn = sympy.lambdify(coords, residual, modules="numpy")
    worst = 0.0
    for ev in sample_events:
        try:
            with np.errstate(all="ignore"):
                val = complex(fn(*(np.float64(c) for c in ev)))
        except ZeroDivisionError:
            raise FloatingPointError("manufactured solution is not finite "
                                     f"at event {tuple(ev)!r}") from None
        if not np.isfinite(val.real) or not np.isfinite(val.imag):
            raise FloatingPointError("manufactured solution is not finite "
                                     f"at event {tuple(ev)!r}")
        worst = max(worst, abs(val))
    return worst
