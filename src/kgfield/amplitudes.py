"""Continuum momentum-space packets for frame-invariance checks.

An AmplitudeField stores closed-form complex amplitude functions a+(k),
a-(k) over continuous momentum space together with a quadrature rule.
The field is

    psi(x) = sum_eps int d^dk a_eps(k) e^{i eta(p, x)},  p = (eps w, k),

so boosts act exactly: amplitudes transform with the scalar-field
Jacobian a'_eps(k') = (w(k)/w'(k')) a_eps(k) where k is the pre-image of
k' under the boost.  Inner products are momentum quadratures; any
frame dependence of their values is pure quadrature error and must
shrink as the rule is refined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import Boost, ModelParams


@lru_cache(maxsize=None)
def gauss_legendre_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's leggauss(order) nodes and weights on [-1, 1], built once
    per order and process and returned read-only."""
    y, w = leggauss(order)
    y.flags.writeable = False
    w.flags.writeable = False
    return y, w


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Legendre rule over the cube |k_i| <= radius.

    With `stretch` set to a mass-like scale c the per-axis map is
    k = c sinh(u) with u Gauss-Legendre on [-asinh(R/c), asinh(R/c)].
    The substitution moves the branch points of sqrt(k^2 + c^2) off the
    integration path, so frequency factors stop limiting the geometric
    convergence rate.
    """

    nodes: np.ndarray     # (n, d)
    weights: np.ndarray   # (n,)
    radius: float
    order: int
    stretch: float | None = None

    @classmethod
    def gauss_legendre(cls, dim: int, radius: float, order: int,
                       stretch: float | None = None) -> "QuadratureRule":
        if not 0 < radius < np.inf or order < 2:
            raise ValueError("need finite radius > 0 and order >= 2")
        y, w = gauss_legendre_nodes(order)
        if stretch is not None:
            if not 0 < stretch < np.inf:
                raise ValueError("stretch scale must be positive and finite")
            umax = np.arcsinh(radius / stretch)
            u = umax * y
            x1 = stretch * np.sinh(u)
            w1 = stretch * np.cosh(u) * umax * w
        else:
            x1 = radius * y      # map [-1, 1] -> [-R, R]
            w1 = radius * w
        axes = [x1] * dim
        wts = [w1] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        wmesh = np.meshgrid(*wts, indexing="ij")
        weights = np.prod(np.stack([m.ravel() for m in wmesh], axis=-1), axis=-1)
        return cls(nodes, weights, float(radius), int(order),
                   None if stretch is None else float(stretch))


@dataclass(frozen=True)
class GaussianAmplitude:
    """Gaussian amplitude a(k) = amp exp(-|k - center|^2 / (4 sigma^2))."""

    center: tuple[float, ...]
    sigma: float
    amp: complex = 1.0

    def __call__(self, k: np.ndarray) -> np.ndarray:
        k = np.atleast_2d(k)
        c = np.asarray(self.center)
        return self.amp * np.exp(-np.sum((k - c) ** 2, axis=-1)
                                 / (4.0 * self.sigma ** 2))


@dataclass
class AmplitudeField:
    """Continuum packet with closed-form amplitudes and a quadrature rule."""

    params: ModelParams
    dim: int
    amp_plus: Callable[[np.ndarray], np.ndarray] | None
    amp_minus: Callable[[np.ndarray], np.ndarray] | None
    quad: QuadratureRule

    def omega(self, k: np.ndarray) -> np.ndarray:
        k = np.atleast_2d(k)
        return np.sqrt(np.sum(k * k, axis=-1) + self.params.mass ** 2)

    def amplitude(self, eps: int, k: np.ndarray) -> np.ndarray:
        fn = self.amp_plus if eps > 0 else self.amp_minus
        k = np.atleast_2d(k)
        if fn is None:
            return np.zeros(k.shape[0], dtype=complex)
        return np.asarray(fn(k), dtype=complex)


def truncation_mass_check(field: AmplitudeField) -> float:
    """Fraction of quadratic amplitude mass missed by the truncation radius.

    Compares the quadrature of |a|^2 against the same with doubled radius
    and order; returns the relative deficit, which must be <= 1e-10.
    """
    def mass(rule):
        k, w = rule.nodes, rule.weights
        total = 0.0
        for eps in (1, -1):
            a = field.amplitude(eps, k)
            total += float(np.real(np.sum(w * np.abs(a) ** 2)))
        return total

    m1 = mass(field.quad)
    m2 = mass(QuadratureRule.gauss_legendre(
        field.dim, 2.0 * field.quad.radius, 2 * field.quad.order,
        field.quad.stretch))
    deficit = abs(m2 - m1) / max(m2, 1e-300)
    if not deficit <= 1e-10:
        raise ValueError(
            f"truncation radius misses {deficit:.3e} of the amplitude mass")
    return deficit


def inner_amplitude(f1: AmplitudeField, f2: AmplitudeField,
                    quad: QuadratureRule | None = None) -> complex:
    """The positive-definite inner product as a momentum quadrature.

    (2 pi)^d (kappa/M) int d^dk w(k) [(1+a) conj(a1+) a2+
                                      + (1-a) conj(a1-) a2-].
    """
    if f1.params != f2.params or f1.dim != f2.dim:
        raise ValueError("amplitude fields are not compatible")
    p = f1.params
    rule = quad or f1.quad
    k, w = rule.nodes, rule.weights
    om = f1.omega(k)
    acc = 0.0 + 0.0j
    for eps, wt in ((1, 1.0 + p.a), (-1, 1.0 - p.a)):
        a1 = f1.amplitude(eps, k)
        a2 = f2.amplitude(eps, k)
        acc += wt * np.sum(w * om * np.conj(a1) * a2)
    return complex((2.0 * np.pi) ** f1.dim * (p.kappa / p.mass) * acc)


def boost_amplitude(field: AmplitudeField, boost: Boost) -> AmplitudeField:
    """Exact boost of a continuum packet.

    Amplitudes are wrapped with the scalar-field Jacobian; the quadrature
    rule is rebuilt with a radius that covers the boosted support.
    """
    Linv = boost.inverse.matrix
    mass = field.params.mass

    def wrap(fn, eps):
        if fn is None:
            return None

        def boosted(kp):
            kp = np.atleast_2d(kp)
            wp = field.omega(kp)
            pp = np.concatenate([(eps * wp)[:, None], kp], axis=-1)
            p = pp @ Linv.T
            kpre = p[:, 1:]
            wpre = eps * p[:, 0]
            return (wpre / wp) * np.asarray(fn(kpre), dtype=complex)

        return boosted

    beta = np.asarray(boost.beta)
    bmag = float(np.sqrt(beta @ beta))
    gam = 1.0 / np.sqrt(1.0 - bmag ** 2)
    R = field.quad.radius
    Rp = gam * (R + bmag * np.sqrt(R * R * field.dim + mass ** 2))
    quad = QuadratureRule.gauss_legendre(field.dim, Rp, field.quad.order,
                                         field.quad.stretch)
    return AmplitudeField(field.params, field.dim,
                          wrap(field.amp_plus, 1),
                          wrap(field.amp_minus, -1), quad)


def invariance_check(f1: AmplitudeField, f2: AmplitudeField, boost: Boost,
                     orders: tuple[int, ...] = (16, 32, 64, 128)) -> dict:
    """Frame invariance of the inner product, order by order.

    Returns the inner-product values in both frames per quadrature order
    and the relative deviations, which must decrease as the rule refines
    (truncation plus resolution error only).
    """
    truncation_mass_check(f1)
    truncation_mass_check(f2)
    b1 = boost_amplitude(f1, boost)
    b2 = boost_amplitude(f2, boost)
    report = {"orders": list(orders), "rest": [], "boosted": [], "rel_dev": []}
    for n in orders:
        rule = QuadratureRule.gauss_legendre(
            f1.dim, f1.quad.radius, n, f1.quad.stretch)
        rule_b = QuadratureRule.gauss_legendre(
            f1.dim, b1.quad.radius, n, b1.quad.stretch)
        v0 = inner_amplitude(f1, f2, rule)
        v1 = inner_amplitude(b1, b2, rule_b)
        report["rest"].append(v0)
        report["boosted"].append(v1)
        report["rel_dev"].append(abs(v1 - v0) / max(abs(v0), 1e-300))
    return report


def reference_packets(params: ModelParams) -> tuple[AmplitudeField, AmplitudeField]:
    """The two 1-D Gaussian packets of the frame-invariance checks.

    Both sit on the order-64 rule of radius 8 and stretch 1, which keeps
    their truncation deficit under the 1e-10 of truncation_mass_check;
    lower orders are set per call through invariance_check(orders=...).
    """
    quad = QuadratureRule.gauss_legendre(1, radius=8.0, order=64, stretch=1.0)
    f1 = AmplitudeField(params, 1, GaussianAmplitude((0.4,), 0.5),
                        GaussianAmplitude((-0.2,), 0.6, amp=0.3 + 0.2j), quad)
    f2 = AmplitudeField(params, 1, GaussianAmplitude((0.1,), 0.45, amp=0.8 - 0.5j),
                        None, quad)
    return f1, f2
