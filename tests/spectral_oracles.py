"""Quadrature oracles for the spectral closed forms.

Independent references for :func:`maxnet.dawson` and
:func:`maxnet.q1_transform`: each integrates the defining integral by
adaptive quadrature (``scipy.integrate.quad``) instead of reusing a closed
form. A helper module, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

SQRT_PI = math.sqrt(math.pi)


class ConvergenceError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


def dawson_quadrature_oracle(x: float, tol: float = 1e-14) -> float:
    """Independent adaptive-quadrature evaluation of Dawson's integral.

    Uses daw(x) = int_0^x exp(u^2 - 2|x|u) du (substituting t = |x| - u in
    the defining integral), which keeps the integrand in (0, 1] and is
    well conditioned for large |x|. Raises ``ConvergenceError`` when quad's
    error estimate exceeds 100 tol relative to the value: the estimate never
    falls below 50 machine epsilons of a positive integral's value, about
    1.1e-14, and on [-30, 30] it stays below 5.3e-13. Beyond some |x| the
    integrand's peak at u = 0 is too narrow for quad to resolve, and the
    value it returns is meaningless (1.2e-38 +- 2.3e-38 at x = 200).
    """
    s = math.copysign(1.0, x)
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    val, err = integrate.quad(
        lambda u: math.exp(u * u - 2.0 * ax * u), 0.0, ax,
        epsabs=tol, epsrel=tol, limit=400,
    )
    if err > 100 * tol * abs(val):
        raise ConvergenceError(
            f"quadrature error {err} above tolerance {tol} relative to {val} at x={x}"
        )
    return s * val


@dataclass(frozen=True)
class QuadratureTransform:
    """Quadrature evaluation of the transform plus its truncation bound."""

    value: complex
    truncation_bound: float


def _quad_osc(f, xi: float, T: float, tol: float) -> complex:
    """int_0^T f(t) exp(-i xi t) dt via weighted adaptive quadrature."""
    parts = []
    for weight in ("cos", "sin"):
        val, err, info = integrate.quad(
            f, 0.0, T, weight=weight, wvar=xi,
            epsabs=tol, epsrel=tol, limit=400, full_output=1,
        )[:3]
        if err > 100 * tol * max(1.0, abs(val)):
            raise ConvergenceError(
                f"quadrature error {err} above tolerance {tol} at xi={xi}"
            )
        parts.append(val)
    return complex(parts[0], -parts[1])


def quadrature_transform_oracle(
    xi, T: float = 12.0, tol: float = 1e-10
) -> QuadratureTransform:
    """Numerically integrate the separable transform factors.

    Independent desk-scale oracle for :func:`q1_transform`, limited to
    d <= 3. The first axis integrates t exp(-t^2/4) over [0, T]; the others
    integrate exp(-t^2/4) over [-T, 0] (evaluated as a reflected integral
    over [0, T]). The reported truncation bound sums, per axis, the tail
    mass beyond T times the magnitude caps of the remaining axes.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    d = xi.size
    if d > 3:
        raise ValueError("quadrature oracle supports d <= 3")
    if T < 8.0:
        raise ValueError("truncation T must be >= 8")
    first = _quad_osc(lambda t: t * math.exp(-t * t / 4.0), float(xi[0]), T, tol)
    rest = [
        np.conj(_quad_osc(lambda t: math.exp(-t * t / 4.0), float(x), T, tol))
        for x in xi[1:]
    ]
    value = first
    for f in rest:
        value *= complex(f)
    tail_first = 2.0 * math.exp(-T * T / 4.0)  # int_T^inf t exp(-t^2/4) dt
    tail_rest = (2.0 / T) * math.exp(-T * T / 4.0)
    caps = [2.0] + [SQRT_PI] * (d - 1)
    trunc = 0.0
    for axis in range(d):
        others = math.prod(caps[:axis] + caps[axis + 1 :])
        trunc += (tail_first if axis == 0 else tail_rest) * others
    return QuadratureTransform(value=value, truncation_bound=trunc)
