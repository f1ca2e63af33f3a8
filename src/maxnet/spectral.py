"""Fourier-side numerics for the shallow-network inapproximability machinery.

Implements Dawson's integral daw(x) = exp(-x^2) int_0^x exp(t^2) dt without
external special-function dependencies, the closed-form Fourier transform of
the clipped-max factor q1(x) exp(-||x||^2/4) under the convention
F(f)(xi) = int f(x) exp(-i <xi, x>) dx (no 2 pi normalization; this is the
convention under which the transform at xi = 0 equals 2 pi^((d-1)/2)),
quadrature oracles for both, and the explicit directional floor on the
transform at large frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT_PI = math.sqrt(math.pi)

# Dawson evaluation branches. The exp-sum (Rybicki-style) midrange uses
# daw(x) ~ (1/sqrt(pi)) sum over odd m of exp(-(x - m h)^2)/m, whose
# discretization error decays like exp(-(pi/(2h))^2): ~7e-18 at h = 0.25.
_DAW_H = 0.25
_DAW_WINDOW = 31  # odd offsets within |m| h <= 7.75; exp(-60) tail
_MACLAURIN_CUT = 0.5
_ASYMPTOTIC_CUT = 10.0


def _dawson_maclaurin(x: np.ndarray) -> np.ndarray:
    # daw(x) = x - 2x^3/3 + 4x^5/15 - ...; ratio -2x^2/(2n+3)
    x2 = x * x
    coeff = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(16):
        coeff = coeff * (-2.0) * x2 / (2 * n + 3)
        total = total + coeff
    return x * total


def _dawson_expsum(x: np.ndarray) -> np.ndarray:
    n0 = 2.0 * np.rint(0.5 * x / _DAW_H)
    xp = x - n0 * _DAW_H
    total = np.zeros_like(x)
    for m in range(-_DAW_WINDOW, _DAW_WINDOW + 1, 2):
        total += np.exp(-((xp - m * _DAW_H) ** 2)) / (n0 + m)
    return total / SQRT_PI


def _dawson_asymptotic(x: np.ndarray) -> np.ndarray:
    # daw(x) = 1/(2x) + 1/(4x^3) + 3/(8x^5) + ...; term ratio (2n-1)/(2x^2).
    # 14 terms reach full double precision for |x| >= 10, well inside the
    # regime where the terms are still shrinking.
    inv2x2 = 1.0 / (2.0 * x * x)
    term = 1.0 / (2.0 * x)
    total = term.copy()
    for n in range(1, 14):
        term = term * (2 * n - 1) * inv2x2
        total += term
    return total


def dawson(x) -> np.ndarray | float:
    """Dawson's integral, relative error below 1e-13 on the real line.

    Odd by construction: daw(-x) == -daw(x) exactly. Maclaurin series for
    |x| <= 0.5, exponential midpoint sum up to |x| < 10, asymptotic series
    beyond.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("dawson requires finite input")
    a = np.abs(arr)
    out = np.empty_like(a)
    small = a <= _MACLAURIN_CUT
    large = a >= _ASYMPTOTIC_CUT
    mid = ~small & ~large
    if small.any():
        out[small] = _dawson_maclaurin(a[small])
    if mid.any():
        out[mid] = _dawson_expsum(a[mid])
    if large.any():
        out[large] = _dawson_asymptotic(a[large])
    out = np.sign(arr) * out
    return float(out[0]) if scalar else out


def dawson_quadrature_oracle(x: float, tol: float = 1e-14) -> float:
    """Independent adaptive-quadrature evaluation of Dawson's integral.

    Uses daw(x) = int_0^x exp(u^2 - 2|x|u) du (substituting t = |x| - u in
    the defining integral), which keeps the integrand in (0, 1] and is
    well conditioned for large |x|.
    """
    s = math.copysign(1.0, x)
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    from scipy import integrate  # deferred: importing it would dominate `import maxnet`

    val, err = integrate.quad(
        lambda u: math.exp(u * u - 2.0 * ax * u), 0.0, ax,
        epsabs=tol, epsrel=tol, limit=400,
    )
    return s * val


@dataclass(frozen=True)
class SpectralPoint:
    """Closed-form transform value at frequency xi, with its axis factors."""

    xi: np.ndarray
    value: complex
    factor_first: complex
    factors_rest: tuple[complex, ...]


def _first_factor(xi1: np.ndarray) -> np.ndarray:
    # int_0^inf t exp(-t^2/4) exp(-i xi t) dt
    return (
        2.0
        - 4.0 * xi1 * dawson(xi1)
        - 2j * SQRT_PI * xi1 * np.exp(-(xi1**2))
    )


def _rest_factor(xij: np.ndarray) -> np.ndarray:
    # int_-inf^0 exp(-t^2/4) exp(-i xi t) dt
    return SQRT_PI * np.exp(-(xij**2)) + 2j * dawson(xij)


def q1_transform(xi) -> SpectralPoint:
    """Closed-form Fourier transform of q1(x) exp(-||x||^2/4) at xi.

    q1 is x1 restricted to the orthant {x1 >= 0, x_j <= 0 for j >= 2}. The
    value factors across axes:
        (2 - 4 xi1 daw(xi1) - 2i sqrt(pi) xi1 exp(-xi1^2))
        * prod_{j>=2} (sqrt(pi) exp(-xi_j^2) + 2i daw(xi_j)).
    Its magnitude is at most 2 pi^((d-1)/2), attained at the origin.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if xi.ndim != 1 or xi.size < 1:
        raise ValueError("xi must be a vector of length >= 1")
    first = complex(_first_factor(xi[:1])[0])
    rest = tuple(complex(v) for v in _rest_factor(xi[1:]))
    value = first
    for f in rest:
        value *= f
    return SpectralPoint(xi=xi, value=value, factor_first=first, factors_rest=rest)


def q1_transform_grid(Xi: np.ndarray) -> np.ndarray:
    """Vectorized transform values for an (n, d) array of frequencies."""
    Xi = np.asarray(Xi, dtype=np.float64)
    if Xi.ndim != 2:
        raise ValueError("Xi must have shape (n, d)")
    value = _first_factor(Xi[:, 0]).astype(np.complex128)
    for j in range(1, Xi.shape[1]):
        value *= _rest_factor(Xi[:, j])
    return value


def magnitude_bound(d: int) -> float:
    """Everywhere-valid magnitude bound 2 pi^((d-1)/2) of the transform."""
    return 2.0 * math.pi ** ((d - 1) / 2.0)


def direction(d: int) -> complex:
    """Unit complex direction -i^(d-1) in which the transform stays large."""
    return -(1j ** (d - 1))


def direction_component(value: complex, d: int) -> float:
    """Component of a transform value along the direction -i^(d-1)."""
    return (value * np.conj(direction(d))).real


def transform_direction_floor(xi) -> float:
    """Explicit floor (1/xi_1^2) prod_{j>=2} (1/xi_j) on the directional
    component, valid once every coordinate exceeds a log(d)-scale threshold."""
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    return float(1.0 / (xi[0] ** 2) / np.prod(xi[1:]))


class ConvergenceError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureTransform:
    """Quadrature evaluation of the transform plus its truncation bound."""

    value: complex
    truncation_bound: float


def _quad_osc(f, xi: float, T: float, tol: float) -> complex:
    """int_0^T f(t) exp(-i xi t) dt via weighted adaptive quadrature."""
    from scipy import integrate  # deferred: importing it would dominate `import maxnet`

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
