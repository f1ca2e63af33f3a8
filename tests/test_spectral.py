"""Dawson's integral, the clipped-max transform, and its magnitude floors.

Quadrature oracles are the reference: the closed forms are checked against
adaptive integration of the defining integrals, never against themselves.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxnet import (
    dawson,
    direction_component,
    magnitude_bound,
    q1_transform,
    q1_transform_grid,
    transform_direction_floor,
)
from maxnet.spectral import direction
from spectral_oracles import (
    ConvergenceError,
    dawson_quadrature_oracle,
    quadrature_transform_oracle,
)


class TestDawson:
    def test_zero(self):
        assert dawson(0.0) == 0.0

    def test_value_at_one_matches_quadrature(self):
        q = dawson_quadrature_oracle(1.0)
        assert q == pytest.approx(0.538079506912768, rel=1e-12)
        assert dawson(1.0) == pytest.approx(q, rel=1e-13)

    def test_large_argument_asymptotics(self):
        # daw(20) = 1/40 + 1/32000 + O(1/x^5)
        assert dawson(20.0) == pytest.approx(1 / 40 + 1 / 32000, abs=1e-6)
        assert dawson(20.0) == pytest.approx(dawson_quadrature_oracle(20.0), rel=1e-13)

    # 44.9 to 50: scipy's Faddeeva w_im switches to a continued fraction at 45
    @pytest.mark.parametrize(
        "x", [0.1, 0.49, 0.5, 0.51, 3.0, 9.9, 10.0, 10.1, 30.0, 44.9, 45.0, 45.1, 50.0]
    )
    def test_branch_seams_match_quadrature(self, x):
        assert dawson(x) == pytest.approx(dawson_quadrature_oracle(x), rel=1e-12)

    def test_small_arguments_match_exact_series(self):
        # daw(x) = sum_n (-2)^n x^(2n+1) / (2n+1)!!, summed in exact rationals
        for x in np.geomspace(1e-6, 0.5, 60):
            X = Fraction(float(x))
            term = total = X
            for n in range(40):
                term = term * -2 * X * X / (2 * n + 3)
                total += term
            assert dawson(float(x)) == pytest.approx(float(total), rel=1e-13)

    @given(x=st.floats(-50, 50, allow_nan=False))
    def test_odd_exactly_as_implemented(self, x):
        assert dawson(-x) == -dawson(x)

    def test_ode_residual(self):
        # daw'(x) + 2 x daw(x) - 1 = 0, via central differences
        grid = np.linspace(-10, 10, 1001)
        h = 1e-5
        deriv = (dawson(grid + h) - dawson(grid - h)) / (2 * h)
        resid = deriv + 2 * grid * dawson(grid) - 1.0
        assert np.abs(resid).max() <= 1e-9

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-12, 12, 97)
        vec = dawson(xs)
        np.testing.assert_array_equal(vec, [dawson(float(x)) for x in xs])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dawson(float("inf"))


class TestQ1Transform:
    def test_origin_attains_magnitude_bound(self):
        value = q1_transform([0.0, 0.0, 0.0])
        assert type(value) is complex
        assert value == pytest.approx(2 * math.pi, rel=1e-12)
        assert abs(value) == pytest.approx(magnitude_bound(3), rel=1e-12)

    def test_d1_closed_form(self):
        assert q1_transform([0.0]) == pytest.approx(2.0, rel=1e-12)
        xi1 = 1.7
        want = 2 - 4 * xi1 * dawson(xi1) - 2j * math.sqrt(math.pi) * xi1 * math.exp(-xi1**2)
        assert q1_transform([xi1]) == pytest.approx(want, rel=1e-12)

    def test_matches_quadrature_oracle_d2(self):
        got = q1_transform([5.0, 5.0])
        want = quadrature_transform_oracle([5.0, 5.0]).value
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_quadrature_on_random_frequencies(self, d):
        rng = np.random.default_rng(d)
        for _ in range(12):
            xi = rng.uniform(-10, 10, d)
            got = q1_transform(xi)
            want = quadrature_transform_oracle(xi).value
            assert abs(got - want) <= 1e-6 * abs(want)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
    def test_conjugate_symmetry(self, seed, d):
        xi = np.random.default_rng(seed).uniform(-8, 8, d)
        a = q1_transform(xi)
        b = q1_transform(-xi)
        assert b == pytest.approx(np.conj(a), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_magnitude_bound(self, d):
        rng = np.random.default_rng(100 + d)
        Xi = rng.uniform(-30, 30, (10_000, d))
        vals = np.abs(q1_transform_grid(Xi))
        assert np.all(vals <= magnitude_bound(d) * (1 + 1e-12))

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(9)
        Xi = rng.uniform(-5, 5, (40, 3))
        grid = q1_transform_grid(Xi)
        for row, val in zip(Xi, grid):
            assert q1_transform(row) == pytest.approx(complex(val), rel=1e-12)


class TestDirectionFloor:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_floor_holds_above_threshold(self, d):
        # coordinates in [max(8, 4 log2 d), 50]; threshold recorded as 8
        lo = max(8.0, 4 * math.log2(d))
        rng = np.random.default_rng(d)
        Xi = rng.uniform(lo, 50, (400, d))
        vals = q1_transform_grid(Xi)
        comp = (vals * np.conj(direction(d))).real
        floors = 1.0 / Xi[:, 0] ** 2 / np.prod(Xi[:, 1:], axis=1)
        assert np.all(comp >= floors)

    def test_direction_component_helper(self):
        comp = direction_component(q1_transform([10.0, 10.0]), 2)
        assert comp >= transform_direction_floor([10.0, 10.0])


class TestQuadratureOracle:
    def test_dawson_oracle_refuses_unresolved_integral(self):
        # at x = 200 quad misses the integrand's narrow peak at u = 0 and
        # returns 1.2e-38 +- 2.3e-38, where daw(200) = 0.0025
        with pytest.raises(ConvergenceError):
            dawson_quadrature_oracle(200.0)
        with pytest.raises(ConvergenceError):
            dawson_quadrature_oracle(-200.0)

    def test_gaussian_moments_at_zero(self):
        assert quadrature_transform_oracle([0.0]).value == pytest.approx(2.0, rel=1e-10)
        assert quadrature_transform_oracle([0.0, 0.0]).value == pytest.approx(
            2 * math.sqrt(math.pi), rel=1e-10
        )

    def test_truncation_bound_reported(self):
        res = quadrature_transform_oracle([1.0, 2.0], T=10.0)
        assert 0 < res.truncation_bound < 1e-8

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            quadrature_transform_oracle([1.0, 1.0, 1.0, 1.0])

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            quadrature_transform_oracle([1.0], T=4.0)
