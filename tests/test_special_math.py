import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgp import backend
from sphgp.special_math import (
    QuadratureRule,
    funk_hecke_constant,
    gauss_legendre,
    gegenbauer_at_one,
    gegenbauer_table,
    num_harmonics,
)

import oracles


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        for alpha in (0.5, 1.0, 3.5):
            assert gegenbauer_table(alpha, 0, 0.37)[0] == 1.0

    def test_degree_one_closed_form(self):
        assert gegenbauer_table(1.0, 1, 0.5)[1] == pytest.approx(1.0, abs=1e-15)

    def test_value_at_one_is_binomial(self):
        # C_l at t=1 equals binom(l + 2 alpha - 1, l); checked against the recurrence
        for dim in (3, 5, 8, 10):
            alpha = (dim - 2) / 2.0
            for ell in range(31):
                expected = math.comb(ell + dim - 3, ell)
                got = gegenbauer_table(alpha, ell, 1.0)[ell]
                assert got == pytest.approx(expected, rel=1e-12)
                assert gegenbauer_at_one(alpha, ell) == pytest.approx(expected, rel=1e-15)

    def test_example_degree_two(self):
        assert gegenbauer_table(1.0, 2, 1.0)[2] == pytest.approx(3.0, rel=1e-14)

    def test_matches_legendre_at_alpha_half(self):
        t = np.linspace(-1.0, 1.0, 1001)
        for ell in (0, 1, 2, 5, 10, 20):
            ours = gegenbauer_table(0.5, ell, t)[ell]
            ref = oracles.legendre_value(ell, t)
            assert np.max(np.abs(ours - ref)) <= 1e-12

    @given(
        ell=st.integers(min_value=0, max_value=25),
        dim=st.integers(min_value=3, max_value=12),
        t=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_value_at_one(self, ell, dim, t):
        alpha = (dim - 2) / 2.0
        val = float(gegenbauer_table(alpha, ell, t)[ell])
        assert abs(val) <= gegenbauer_at_one(alpha, ell) * (1.0 + 1e-12)

    def test_table_agrees_with_single_degrees(self):
        t = np.linspace(-1.0, 1.0, 17)
        table = gegenbauer_table(1.0, 6, t)
        for ell in range(7):
            assert np.array_equal(table[ell], backend.gegenbauer_last(1.0, ell, t))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gegenbauer_table(0.0, 2, 0.5)
        with pytest.raises(ValueError):
            gegenbauer_table(-1.0, 2, 0.5)
        with pytest.raises(ValueError):
            gegenbauer_table(0.5, 2, 1.0 + 1e-9)
        # overshoot within the clamp band is accepted
        assert gegenbauer_table(0.5, 2, 1.0 + 1e-13)[2] == pytest.approx(1.0)


class TestHarmonicCounts:
    def test_examples(self):
        assert num_harmonics(0, 5) == 1
        assert num_harmonics(2, 3) == 5
        assert num_harmonics(1, 8) == 8

    def test_dimension_three_is_odd_numbers(self):
        for ell in range(51):
            assert num_harmonics(ell, 3) == 2 * ell + 1

    def test_matches_homogeneous_polynomial_count(self):
        for dim in (3, 4, 5, 8, 12):
            for ell in range(12):
                assert num_harmonics(ell, dim) == oracles.harmonic_count_by_homogeneous(ell, dim)

    def test_addition_scale_consistency(self):
        # N(l, d) = ((l+alpha)/alpha) * C_l(1), the addition-theorem normalizer
        for dim in (3, 6, 9):
            alpha = (dim - 2) / 2.0
            for ell in range(1, 10):
                lhs = num_harmonics(ell, dim)
                rhs = (ell + alpha) / alpha * gegenbauer_at_one(alpha, ell)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_counts_past_float64_are_exact_ints(self):
        # N(40, 60) is about 6.9e27: no float64 holds it exactly
        count = num_harmonics(40, 60)
        assert isinstance(count, int) and count > 2**53
        assert count == oracles.harmonic_count_by_homogeneous(40, 60)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            num_harmonics(1, 2)
        with pytest.raises(ValueError):
            num_harmonics(-1, 3)


class TestFunkHeckeConstant:
    def test_dimension_three(self):
        assert funk_hecke_constant(3) == pytest.approx(0.5, rel=1e-12)

    def test_dimension_four(self):
        assert funk_hecke_constant(4) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_large_dimension_growth(self):
        # grows like sqrt(d / (2 pi)); a property, not an equality
        for dim, tol in ((100, 0.02), (1000, 0.002)):
            ratio = funk_hecke_constant(dim) / math.sqrt(dim / (2.0 * math.pi))
            assert abs(ratio - 1.0) < tol


class TestGaussLegendre:
    def test_one_point_is_midpoint(self):
        rule = gauss_legendre(1)
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0], abs=1e-15)

    def test_two_point_closed_form(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1.0 / math.sqrt(3), 1.0 / math.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 16, 40])
    def test_exact_on_random_polynomials(self, order):
        rng = np.random.default_rng(order)
        degree = 2 * order - 1
        coeffs = rng.standard_normal(degree + 1)
        exact = sum(
            c * (2.0 / (k + 1)) for k, c in enumerate(coeffs) if k % 2 == 0
        )
        rule = gauss_legendre(order)
        approx = np.sum(rule.weights * np.polynomial.polynomial.polyval(rule.nodes, coeffs))
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_exactness_boundary_at_sixteen_points(self):
        rule = gauss_legendre(16)
        w, t = rule.weights, rule.nodes
        # degree 22 and degree 30 are inside the 2n-1 = 31 exactness range
        assert np.sum(w * (t**20 * (1 - t * t))) == pytest.approx(
            2.0 / 21 - 2.0 / 23, rel=1e-13
        )
        assert np.sum(w * t**30) == pytest.approx(2.0 / 31, rel=1e-13)
        # degree 32 breaks exactness: the error (~7e-10 relative, the
        # classical 2^(2n+1)(n!)^4/((2n+1)((2n)!)^3) f^(2n) term) sits far
        # above the roundoff floor of the exact cases
        rel_32 = abs(np.sum(w * t**32) - 2.0 / 33) / (2.0 / 33)
        assert rel_32 > 1e-9
        rel_40 = abs(np.sum(w * t**40) - 2.0 / 41) / (2.0 / 41)
        assert rel_40 > 1e-6

    def test_invariants(self):
        for n in (1, 5, 33):
            rule = gauss_legendre(n)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)
            assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-12)

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.5, -0.5]), weights=np.array([1.0, 1.0]), order=2)
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([-0.5, 0.5]), weights=np.array([1.5, 1.5]), order=2)
