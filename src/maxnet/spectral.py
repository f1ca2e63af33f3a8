"""Fourier-side numerics for the shallow-network inapproximability machinery.

Dawson's integral daw(x) = exp(-x^2) int_0^x exp(t^2) dt, the closed-form
Fourier transform of the clipped-max factor q1(x) exp(-||x||^2/4) under the
convention F(f)(xi) = int f(x) exp(-i <xi, x>) dx (no 2 pi normalization;
this is the convention under which the transform at xi = 0 equals
2 pi^((d-1)/2)), and the explicit directional floor on the transform at
large frequencies.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)


def dawson(x) -> np.ndarray | float:
    """Dawson's integral, through ``scipy.special.dawsn``.

    A float for a scalar, an array otherwise; non-finite input raises
    ``ValueError``. Odd exactly: daw(-x) == -daw(x). Its relative error was
    at most 1.4e-14 wherever measured (README, "Notes on numerics").
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("dawson requires finite input")
    # deferred: importing scipy.special takes about 0.3 s of CPU, which
    # `import maxnet` would otherwise pay on every command
    from scipy.special import dawsn

    out = dawsn(arr)
    return float(out) if arr.ndim == 0 else out


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


def q1_transform(xi) -> complex:
    """Closed-form Fourier transform of q1(x) exp(-||x||^2/4) at xi, as a
    complex: one row of :func:`q1_transform_grid`.

    q1 is x1 restricted to the orthant {x1 >= 0, x_j <= 0 for j >= 2}. The
    value factors across axes:
        (2 - 4 xi1 daw(xi1) - 2i sqrt(pi) xi1 exp(-xi1^2))
        * prod_{j>=2} (sqrt(pi) exp(-xi_j^2) + 2i daw(xi_j)).
    Its magnitude is at most 2 pi^((d-1)/2), attained at the origin.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if xi.ndim != 1 or xi.size < 1:
        raise ValueError("xi must be a vector of length >= 1")
    return complex(q1_transform_grid(xi[None, :])[0])


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
