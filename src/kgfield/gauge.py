"""Internal gauge transformations, their generator, charge, and group type.

The conserved total probability generates a one-parameter Abelian group
acting on the energy sectors by phases e^{-i(a+1)theta}, e^{-i(a-1)theta}.
Whether that group closes (U(1)) or winds forever (R+) depends on the
rationality of a, which no floating-point number can testify to, so the
classifier takes exact rationals or symbolic irrationals only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import LatticeField, apply_C
from .inner import norm_a

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GaugeElement:
    """Group element acting on (psi_plus, psi_minus) by diagonal phases."""

    theta: float
    a: float

    def __post_init__(self):
        if not -1.0 < self.a < 1.0:
            raise ValueError("sector weight parameter must lie in (-1, 1)")

    @property
    def phases(self) -> tuple[complex, complex]:
        """Sector phases e^{-i(a+1)theta}, e^{-i(a-1)theta}."""
        return (np.exp(-1j * (self.a + 1.0) * self.theta),
                np.exp(-1j * (self.a - 1.0) * self.theta))

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.phases)

    def compose(self, other: "GaugeElement") -> "GaugeElement":
        if other.a != self.a:
            raise ValueError("group elements belong to different groups")
        return GaugeElement(self.theta + other.theta, self.a)


def gauge_transform(field: LatticeField, theta: float,
                    a: float | None = None) -> LatticeField:
    """Multiply the energy sectors by e^{-i(a+1)theta}, e^{-i(a-1)theta}.

    Sector phases commute with time evolution and preserve every member
    of the inner-product family.
    """
    if a is None:
        a = field.params.a
    ph_plus, ph_minus = GaugeElement(theta, a).phases
    return field.copy_with(phi_plus=ph_plus * field.phi_plus,
                           phi_minus=ph_minus * field.phi_minus)


def norm_drift(field: LatticeField, theta: float) -> float:
    """|norm_a(g psi)^2 - norm_a(psi)^2| / norm_a(psi)^2 for g at theta."""
    base = norm_a(field) ** 2
    if base == 0.0:
        raise ValueError("the field has zero norm, so its relative norm "
                         "drift is undefined")
    return abs(norm_a(gauge_transform(field, theta)) ** 2 - base) / base


def generator_check(field: LatticeField, a: float, dtheta: float) -> float:
    """Finite-difference check that -i(C + a) generates the group.

    Returns the largest mode-coefficient deviation between
    [g(dtheta)psi - psi]/dtheta and -i(C + a)psi.  First order in
    dtheta: halving dtheta should roughly halve the result.
    """
    if not 0.0 < dtheta <= 1e-4:
        raise ValueError("step must be positive and at most 1e-4")
    moved = gauge_transform(field, dtheta, a)
    cpsi = apply_C(field)
    devs = []
    for sector in ("phi_plus", "phi_minus"):
        diff = (getattr(moved, sector) - getattr(field, sector)) / dtheta
        gen = -1j * (getattr(cpsi, sector) + a * getattr(field, sector))
        devs.append(np.abs(diff - gen).max())
    return float(np.max(devs))    # a NaN in either sector propagates


@dataclass(frozen=True)
class GroupClass:
    kind: str             # "U1" or "Rplus"
    period: float | None  # minimal positive period when kind == "U1"
    witness: dict


def _element_distance(a: float, theta: float) -> float:
    """Entrywise distance of the group element at theta from identity."""
    return max(abs(ph - 1.0) for ph in GaugeElement(theta, a).phases)


def _divisors(n: int) -> list[int]:
    return [j for j in range(1, n) if n % j == 0]


def group_classify(a) -> GroupClass:
    """Decide whether the gauge group at parameter a is U(1) or R+.

    Accepts an exact rational (int or fractions.Fraction) or a sympy
    expression.  Rationality of a float is meaningless, so floats are
    rejected.  Rational m/n in lowest terms gives U(1) with minimal
    period 2*pi*n, checked entrywise; sympy irrationals give R+ with a
    recurrence witness over ten thousand turns.
    """
    frac = None
    if isinstance(a, bool):
        raise ValueError("parameter must be a number, not a bool")
    if isinstance(a, (int, Fraction)):
        frac = Fraction(a)
    elif isinstance(a, float):
        raise ValueError(
            "floats carry no rationality information; pass a Fraction "
            "or a sympy expression")
    else:
        import sympy

        expr = sympy.sympify(a)
        if expr.is_rational is True:
            r = sympy.Rational(expr)
            frac = Fraction(int(r.p), int(r.q))
        elif expr.is_rational is False:
            return _classify_irrational(float(expr.evalf(25)), expr)
        else:
            raise ValueError(f"cannot decide rationality of {a!r}")

    if not -1 < frac < 1:
        raise ValueError("sector weight parameter must lie in (-1, 1)")
    n = frac.denominator
    period = _TWO_PI * n
    # the candidate closes: both phases advance by integer turns
    for theta in (0.37, 1.91):
        g0 = GaugeElement(theta, float(frac)).matrix
        g1 = GaugeElement(theta + period, float(frac)).matrix
        if np.abs(g1 - g0).max() > 1e-12:
            raise FloatingPointError("declared period fails entrywise check")
    # and no proper divisor of n does
    failed_divisors = {}
    for j in _divisors(n):
        dist = _element_distance(float(frac), _TWO_PI * j)
        if dist <= 1e-6:
            raise FloatingPointError(
                f"2*pi*{j} already closes the group; period is not minimal")
        failed_divisors[j] = dist
    return GroupClass("U1", period,
                      {"denominator": n, "rejected_multiples": failed_divisors})


def _classify_irrational(value: float, expr) -> GroupClass:
    if not -1.0 < value < 1.0:
        raise ValueError("sector weight parameter must lie in (-1, 1)")
    j = np.arange(1, 10001)
    # distance to identity at theta = 2*pi*j is set by the fractional
    # part of a*j alone (the epsilon*theta factor is a full turn)
    phase = 2.0 * np.pi * ((value * j) % 1.0)
    dist = 2.0 * np.abs(np.sin(phase / 2.0))
    best = int(np.argmin(dist))
    if dist[best] <= 1e-6:
        raise ValueError(
            "element returns to identity; parameter is likely rational "
            "and was mis-tagged")
    return GroupClass("Rplus", None,
                      {"expression": repr(expr),
                       "min_distance": float(dist[best]),
                       "at_multiple": int(j[best])})
