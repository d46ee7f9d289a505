import math

import numpy as np
import pytest
from scipy.special import eval_gegenbauer

from sphgp import harmonics as H
from sphgp import kernels as K
from sphgp.special_math import funk_hecke_constant, gegenbauer_at_one, num_harmonics

import oracles
from conftest import random_sphere


def relu_oracle(t):
    # independent scalar evaluation of the arc-cosine shape
    return (t * (math.pi - math.acos(t)) + math.sqrt(1.0 - t * t)) / math.pi


class TestReluShape:
    def test_anchor_values(self):
        assert K.ReluShape()(1.0) == pytest.approx(1.0, abs=1e-12)
        assert K.ReluShape()(-1.0) == pytest.approx(0.0, abs=1e-12)
        assert K.ReluShape()(0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_matches_independent_formula(self):
        for t in np.linspace(-0.999, 0.999, 17):
            assert K.ReluShape()(t) == pytest.approx(relu_oracle(t), abs=1e-14)

    def test_derivative_identity(self):
        t = np.linspace(-0.99, 0.99, 101)
        h = 1e-7
        fd = (K.ReluShape()(t + h) - K.ReluShape()(t - h)) / (2 * h)
        assert np.allclose(K.relu_derivative_shape(t), fd, atol=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            K.ReluShape()(1.1)


class TestComposition:
    def test_depth_one_is_base(self):
        base = K.ReluShape()
        composed = K.ComposedShape(base, 1)
        t = np.linspace(-1, 1, 9)
        assert np.array_equal(composed(t), base(t))

    def test_two_fold_at_zero(self):
        # kappa(kappa(0)) evaluated with the independent scalar formula
        expected = relu_oracle(relu_oracle(0.0))
        assert K.ComposedShape(K.ReluShape(), 2)(0.0) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_normalization_survives_depth(self, depth):
        assert K.ComposedShape(K.ReluShape(), depth)(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_composition_is_associative(self):
        base = K.ReluShape()
        t = np.linspace(-1, 1, 101)
        one_then_two = K.ComposedShape(base, 2)(base(t))
        two_then_one = base(K.ComposedShape(base, 2)(t))
        assert np.max(np.abs(one_then_two - two_then_one)) <= 1e-14
        nested = K.ComposedShape(K.ComposedShape(base, 2), 2)(t)
        flat = K.ComposedShape(base, 4)(t)
        assert np.max(np.abs(nested - flat)) <= 1e-14

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            K.ComposedShape(K.ReluShape(), 0)


class TestNtkShape:
    def test_depth_one_recursion_by_hand(self):
        t = np.linspace(-1, 1, 33)
        expected = (K.ReluShape()(t) + t * K.relu_derivative_shape(t)) / 2.0
        assert np.max(np.abs(K.NtkShape(1)(t) - expected)) <= 1e-14

    @pytest.mark.parametrize("depth", [1, 2, 5, 8])
    def test_normalized_at_one(self, depth):
        assert K.NtkShape(depth)(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_depth_three_at_minus_one(self):
        value = float(K.NtkShape(3)(-1.0))
        assert 0.0 <= value < 1.0


class TestFunkHeckeSpectrum:
    def test_constant_shape(self):
        spec = K.funk_hecke_spectrum(lambda t: np.ones_like(t), 5, 6)
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(spec.eigenvalues[1:]) <= 1e-12)

    def test_linear_shape_d3(self):
        spec = K.funk_hecke_spectrum(lambda t: np.asarray(t, dtype=float), 3, 5)
        assert spec.eigenvalues[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        mask = np.ones(6, dtype=bool)
        mask[1] = False
        assert np.all(np.abs(spec.eigenvalues[mask]) <= 1e-12)

    def test_relu_spectrum_d3(self):
        spec = K.funk_hecke_spectrum(K.ReluShape(), 3, 10)
        lam = spec.eigenvalues
        alpha = 0.5
        c0 = oracles.adaptive_shape_eigenvalue(
            K.ReluShape(), 3, 0, lambda t: np.ones_like(t), 1.0, funk_hecke_constant(3)
        )
        assert lam[0] == pytest.approx(c0, rel=1e-9)
        # positive at l=1 and even l, decaying; odd l >= 3 vanish
        assert lam[1] > 0
        even = lam[2:10:2]
        assert np.all(even > 0) and np.all(np.diff(even) < 0)
        assert np.all(lam[3:10:2] <= 1e-12)

    def test_round_trip_through_expansion(self):
        for dim in (3, 5, 10):
            spec = K.poly_decay_spectrum(2.0, dim, 10)
            alpha = (dim - 2) / 2.0
            ells = np.arange(11)
            coeffs = spec.eigenvalues * (ells + alpha) / alpha

            def shape(t):
                t = np.asarray(t, dtype=float)
                return sum(c * eval_gegenbauer(ell, alpha, t) for ell, c in zip(ells, coeffs))

            recovered = K.funk_hecke_spectrum(shape, dim, 10)
            rel = np.abs(recovered.eigenvalues - spec.eigenvalues) / spec.eigenvalues
            assert np.max(rel) <= 1e-8

    def test_indefinite_shape_aborts(self):
        with pytest.raises(ValueError, match="positive definite"):
            K.funk_hecke_spectrum(lambda t: -np.asarray(t, dtype=float), 3, 4)

    def test_quad_order_precondition(self):
        with pytest.raises(ValueError):
            K.funk_hecke_spectrum(K.ReluShape(), 3, 10, quad_order=20)

    @pytest.mark.parametrize("kind", ["composed_relu", "ntk"])
    @pytest.mark.parametrize("dim, depth", [(12, 2), (78, 2), (91, 3)])
    def test_default_order_matches_the_high_precision_reference(self, kind, dim, depth):
        # 64 nodes gave lambda_13 5.8x too large at d=78 and k(x,x) = 7.6 at d=91
        spec = K.parse_spectrum(f"{kind}:depth={depth}", dim, 14)
        ref = oracles.funk_hecke_reference(kind, depth, dim)
        assert np.max(np.abs(spec.eigenvalues[:9] - ref) / ref) <= 1e-6
        assert K.mercer_diag_value(spec) <= 1.0

    @pytest.mark.parametrize("dim", [3, 5, 9, 12, 20, 32])
    @pytest.mark.parametrize("lmax", [0, 5, 15, 32, 40])
    def test_default_order_is_unchanged_up_to_d32(self, dim, lmax):
        shape = K.ComposedShape(K.ReluShape(), 2)
        default = K.funk_hecke_spectrum(shape, dim, lmax).eigenvalues
        before = K.funk_hecke_spectrum(shape, dim, lmax, max(64, lmax + 32)).eigenvalues
        assert np.array_equal(default, before)

    @pytest.mark.parametrize("dim, lmax, least", [(12, 14, 30), (78, 14, 92), (91, 2, 93)])
    def test_quad_order_floor_grows_with_the_dimension(self, dim, lmax, least):
        shape = K.NtkShape(2)
        with pytest.raises(ValueError, match=f"dim \\+ max_frequency\\) = {least}"):
            K.funk_hecke_spectrum(shape, dim, lmax, quad_order=least - 1)
        K.funk_hecke_spectrum(shape, dim, lmax, quad_order=least)

    def test_depth_slows_decay(self):
        for dim in (3, 10):
            for ell in (5, 10):
                ratios = []
                for depth in (2, 3, 4, 5):
                    spec = K.funk_hecke_spectrum(K.ComposedShape(K.ReluShape(), depth), dim, 10)
                    ratios.append(spec.eigenvalues[ell] / spec.eigenvalues[1])
                assert np.all(np.diff(ratios) > 0)


class TestPolyDecaySpectrum:
    def test_power_law_values(self):
        spec = K.poly_decay_spectrum(2.0, 3, 4)
        assert spec.eigenvalues == pytest.approx([1.0, 1.0, 0.25, 1.0 / 9.0, 0.0625])

    def test_relative_decay_identity(self):
        spec = K.poly_decay_spectrum(1.7, 5, 12)
        ells = np.arange(1, 13, dtype=float)
        assert spec.eigenvalues[1:] / spec.eigenvalues[1] == pytest.approx(ells ** -1.7)

    def test_slow_decay_for_small_beta(self):
        shallow = K.poly_decay_spectrum(2.0, 3, 10)
        deep = K.poly_decay_spectrum(0.1, 3, 10)
        assert deep.eigenvalues[10] > shallow.eigenvalues[10]

    def test_lambda0_override(self):
        spec = K.poly_decay_spectrum(2.0, 3, 3, lambda0=0.5)
        assert spec.eigenvalues[0] == 0.5

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            K.poly_decay_spectrum(0.0, 3, 4)

    def test_beta_gradient_matches_fd(self):
        beta = 1.3
        spec = K.poly_decay_spectrum(beta, 4, 6)
        h = 1e-6
        up = K.poly_decay_spectrum(beta + h, 4, 6).eigenvalues
        dn = K.poly_decay_spectrum(beta - h, 4, 6).eigenvalues
        dlam = spec.family.derivative(spec.theta, spec.max_frequency)
        assert np.allclose(dlam, (up - dn) / (2 * h), atol=1e-9)


class TestSpectrumType:
    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError):
            K.Spectrum(dim=3, eigenvalues=np.array([1.0, -0.1]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            K.Spectrum(dim=3, eigenvalues=np.zeros(3))

    def test_poly_requires_strict_decrease(self):
        with pytest.raises(ValueError):
            K.Spectrum(
                dim=3, eigenvalues=np.array([1.0, 1.0, 1.0]),
                family=K.PolyDecay(), theta=1.0,
            )

    def test_spectrum_with_updates(self):
        spec = K.poly_decay_spectrum(2.0, 3, 4, variance=1.0)
        moved = spec.at(3.0, 2.0)
        assert moved.theta == 3.0 and moved.variance == 2.0
        assert moved.eigenvalues[2] == pytest.approx(2.0 ** -3.0)
        fh = K.funk_hecke_spectrum(K.ReluShape(), 3, 4)
        assert fh.at(None, 0.5).variance == 0.5


class TestMercer:
    def test_linear_round_trip_d3(self):
        spec = K.funk_hecke_spectrum(lambda t: np.asarray(t, dtype=float), 3, 4, variance=2.0)
        rng = np.random.default_rng(1)
        X, Y = random_sphere(rng, 6, 3), random_sphere(rng, 6, 3)
        gram = oracles.zonal_gram(spec, X, Y)
        assert np.allclose(gram, 2.0 * X @ Y.T, atol=1e-12)

    def test_matches_feature_inner_products(self):
        spec = K.poly_decay_spectrum(1.5, 4, 3, variance=1.3)
        basis = H.build_basis(4, 3, seed=0)
        rng = np.random.default_rng(2)
        X, Y = random_sphere(rng, 10, 4), random_sphere(rng, 10, 4)
        FX, FY = H.features(basis, X), H.features(basis, Y)
        lam = 1.3 * spec.eigenvalues[basis.feature_frequencies()]
        expected = (FX * lam) @ FY.T
        assert np.allclose(oracles.zonal_gram(spec, X, Y), expected, atol=1e-9)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        for spec in (
            K.poly_decay_spectrum(1.0, 4, 8),
            K.funk_hecke_spectrum(K.ReluShape(), 4, 8),
            K.funk_hecke_spectrum(K.NtkShape(3), 4, 8),
        ):
            X = random_sphere(rng, 50, 4)
            gram = oracles.zonal_gram(spec, X)
            eig = np.linalg.eigvalsh(gram)
            assert eig[0] >= -1e-8 * np.trace(gram)

    def test_diag_value(self):
        spec = K.poly_decay_spectrum(2.0, 3, 4, variance=1.5)
        expected = 1.5 * sum(
            num_harmonics(ell, 3) * spec.eigenvalues[ell] for ell in range(5)
        )
        assert K.mercer_diag_value(spec) == pytest.approx(expected, rel=1e-14)
        x = np.array([0.0, 0.0, 1.0])
        assert oracles.zonal_gram(spec, x)[0, 0] == pytest.approx(expected, rel=1e-12)


class TestExport:
    def test_poly_rows(self, tmp_path):
        spec = K.poly_decay_spectrum(1.0, 3, 3)
        path = tmp_path / "eig.csv"
        K.export_spectrum(spec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frequency,relative_eigenvalue"
        assert lines[1] == "1,1"
        assert lines[2] == "2,0.5"
        assert float(lines[3].split(",")[1]) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_export_deterministic(self, tmp_path):
        spec = K.funk_hecke_spectrum(K.ComposedShape(K.ReluShape(), 2), 10, 10)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        K.export_spectrum(spec, a)
        K.export_spectrum(spec, b)
        assert a.read_bytes() == b.read_bytes()

    def test_deep_kernel_high_frequency_suppression(self, tmp_path):
        spec = K.funk_hecke_spectrum(K.ComposedShape(K.ReluShape(), 2), 10, 10)
        path = tmp_path / "deep.csv"
        K.export_spectrum(spec, path)
        last = path.read_text().splitlines()[-1]
        ell, rel = last.split(",")
        assert ell == "10" and float(rel) <= 1e-3

    def test_requires_positive_first_eigenvalue(self, tmp_path):
        spec = K.Spectrum(dim=3, eigenvalues=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            K.export_spectrum(spec, tmp_path / "bad.csv")
