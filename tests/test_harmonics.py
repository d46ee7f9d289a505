import numpy as np
import pytest

from sphgp import backend
from sphgp import harmonics as H
from sphgp.special_math import gegenbauer_at_one, gegenbauer_table, num_harmonics

import oracles
from conftest import random_sphere, set_at


def addition_rhs(ell, dim, t):
    alpha = (dim - 2) / 2.0
    return H.addition_scale(ell, dim) * gegenbauer_table(alpha, ell, t)[ell]


def limited_counts(dim, lmax, phase_limit):
    """Per-frequency phase counts capped at ``phase_limit``."""
    return {ell: min(phase_limit, num_harmonics(ell, dim)) for ell in range(1, lmax + 1)}


def monte_carlo_gram(basis, n_samples, seed=0, chunk=65536):
    """Empirical E[phi(x) phi(x)^T] under uniform x on the sphere."""
    rng = np.random.default_rng(seed)
    m = basis.num_features
    acc = np.zeros((m, m))
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        X = rng.standard_normal((n, basis.dim))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        F = H.features(basis, X)
        acc += F.T @ F
        done += n
    return acc / n_samples


class TestFundamentalSets:
    def test_full_set_low_dim(self):
        fs = H.build_fundamental_set(1, 3, 3, seed=0)
        assert fs.num_phases == 3 and fs.is_full
        assert np.isfinite(H._condition_number(H.fundamental_gram(fs.directions, 1, 3)))
        # Cholesky succeeded, so the Gram has full rank 3
        assert np.all(np.diag(fs.gram_chol) > 0)

    def test_single_phase_gram_is_scalar_count(self):
        # Gram of one direction is the addition-theorem value at t=1: N(1,3)=3
        fs = H.build_fundamental_set(1, 3, 1, seed=0)
        assert fs.gram_chol.shape == (1, 1)
        assert fs.gram_chol[0, 0] ** 2 == pytest.approx(3.0, rel=1e-14)

    def test_invalid_phase_counts(self):
        with pytest.raises(ValueError):
            H.build_fundamental_set(1, 3, 0)
        with pytest.raises(ValueError):
            H.build_fundamental_set(1, 3, 4)  # N(1,3) = 3
        with pytest.raises(ValueError):
            H.build_fundamental_set(0, 3, 1)

    def test_rows_are_unit(self):
        fs = H.build_fundamental_set(3, 5, 8, seed=2)
        assert np.allclose(np.linalg.norm(fs.directions, axis=1), 1.0, atol=1e-12)

    def test_conditioning_below_limit(self):
        for ell, dim in ((2, 3), (4, 5), (2, 8)):
            fs = H.build_fundamental_set(ell, dim, num_harmonics(ell, dim), seed=0)
            assert H._condition_number(H.fundamental_gram(fs.directions, ell, dim)) < 1e8


# (d, ell, m): every block of the smoke config (d=4, lmax 5, phase_limit 8);
# eval-bulk's ell=5 block; the house shape's full ell=2 block
BUILD_SHAPES = [(4, ell, min(8, num_harmonics(ell, 4))) for ell in range(1, 6)] + [
    (9, 5, 100), (12, 2, 77),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim, ell, m", BUILD_SHAPES)
def test_one_candidate_builds_the_two_candidate_set(dim, ell, m, seed):
    # the random draw was scored too but never picked on these blocks, so
    # dropping it leaves every block the same to the bit
    got = H.build_fundamental_set(ell, dim, m, seed=seed)
    want = oracles.two_candidate_fundamental_set(ell, dim, m, seed=seed)
    assert np.array_equal(got.directions, want.directions)
    assert np.array_equal(got.gram_chol, want.gram_chol)
    assert got.jitter == want.jitter == 0.0


# (d, ell, m, iterations): two directions; a full block; the eval-bulk
# shape's ell=5 block; a house-shape ell=15 block, cut to 20 iterations
REPEL_SHAPES = [(3, 2, 2, None), (4, 3, 16, None), (9, 5, 100, None), (12, 15, 100, 20)]


class TestRepulsion:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim, ell, m, iters", REPEL_SHAPES)
    def test_bit_identical_to_the_full_matrix_evaluation(self, dim, ell, m, iters, seed):
        V = random_sphere(np.random.default_rng(seed), m, dim)
        iters = iters or H._repel_budget(m)
        got = H._repel_directions(V, ell, dim, iters)
        assert np.array_equal(got, oracles.full_matrix_repel_directions(V, ell, dim, iters))
        assert not np.array_equal(got, V)  # the directions did move

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim, ell, m, iters", REPEL_SHAPES)
    def test_cosines_are_exactly_symmetric(self, dim, ell, m, iters, seed):
        # the upper triangle stands for both: V V^T must be symmetric to the bit
        V = random_sphere(np.random.default_rng(seed), m, dim)
        for W in (V, H._repel_directions(V, ell, dim, 3)):
            t = H.direction_cosines(W)
            assert np.array_equal(t, t.T)

    def test_peak_memory_stays_at_the_full_matrix_level(self):
        import tracemalloc

        m = 300
        V = random_sphere(np.random.default_rng(0), m, 12)
        tracemalloc.start()
        try:
            H._repel_directions(V, 5, 12, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * m * m * 8


class TestReorthogonalize:
    def test_idempotent_on_clean_sets(self):
        fs = H.build_fundamental_set(4, 5, 10, seed=0)
        again = H.fundamental_set(4, fs.directions, 5)
        assert np.max(np.abs(again.directions - fs.directions)) <= 1e-14
        assert np.max(np.abs(again.gram_chol - fs.gram_chol)) <= 1e-14
        assert again.jitter == 0.0

    def test_nearly_coincident_pair_is_near_singular(self):
        # inner product 1 - 1e-12: still PD in float64, but conditioned ~1e12
        v1 = np.array([1.0, 0.0, 0.0])
        eps = 1e-12
        v2 = np.array([1.0 - eps, np.sqrt(2 * eps - eps * eps), 0.0])
        v2 /= np.linalg.norm(v2)
        gram = H.fundamental_gram(np.stack([v1, v2]), 1, 3)
        assert H._condition_number(gram) > 1e10

    def test_duplicate_directions_take_jitter(self, caplog):
        # training refactors every step, so the set records its jitter
        # silently; warn_jitter reports it once a basis is final
        v = np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.0]])
        with caplog.at_level("WARNING"):
            fixed = H.fundamental_set(1, v, 3)
        assert fixed.jitter > 0
        assert not caplog.records

    def test_unrecoverable_failure_exhausts_ladder(self):
        # coincident points give a PSD Gram any jitter rescues; the ladder
        # only gives up on a genuinely indefinite matrix
        with pytest.raises(np.linalg.LinAlgError, match="collapsed"):
            H._chol_with_jitter(np.diag([1.0, -1.0]))


class TestFeatures:
    def test_constant_block_is_one(self):
        basis = H.build_basis(3, 2, seed=0)
        rng = np.random.default_rng(0)
        X = random_sphere(rng, 50, 3)
        F = H.features(basis, X)
        assert np.all(F[:, 0] == 1.0)

    def test_single_phase_feature_at_its_direction(self):
        fs = H.build_fundamental_set(1, 3, 1, seed=0)
        basis = H.HarmonicBasis(dim=3, max_frequency=1, sets=(fs,))
        f = H.features(basis, fs.directions[0])
        assert f == pytest.approx([1.0, np.sqrt(3.0)], rel=1e-12)

    def test_full_set_reproduces_legendre_d3(self):
        basis = H.build_basis(3, 2, seed=0)
        rng = np.random.default_rng(1)
        X, Y = random_sphere(rng, 40, 3), random_sphere(rng, 40, 3)
        FX, FY = H.features(basis, X), H.features(basis, Y)
        t = np.sum(X * Y, axis=1)
        for ell, cols, _ in basis.blocks():
            if ell == 0:
                continue
            lhs = np.sum(FX[:, cols] * FY[:, cols], axis=1)
            rhs = (2 * ell + 1) * oracles.legendre_value(ell, t)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (2 * ell + 1)

    @pytest.mark.parametrize("dim,lmax", [(3, 5), (5, 4), (8, 3)])
    def test_addition_theorem_full_sets(self, dim, lmax):
        basis = H.build_basis(dim, lmax, seed=0)
        rng = np.random.default_rng(dim)
        X, Y = random_sphere(rng, 30, dim), random_sphere(rng, 30, dim)
        FX, FY = H.features(basis, X), H.features(basis, Y)
        t = np.sum(X * Y, axis=1)
        for ell, cols, _ in basis.blocks():
            if ell == 0:
                continue
            lhs = np.sum(FX[:, cols] * FY[:, cols], axis=1)
            rhs = addition_rhs(ell, dim, t)
            ref = H.addition_scale(ell, dim) * gegenbauer_at_one((dim - 2) / 2, ell)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * ref

    def test_gram_diagonal_is_exactly_the_value_at_one(self):
        # rows whose squared norm rounds below 1 must not lower the diagonal
        rng = np.random.default_rng(4)
        ell, dim = 5, 6
        V = random_sphere(rng, 40, dim)
        assert np.any(np.einsum("ij,ij->i", V, V) != 1.0)
        gram = H.fundamental_gram(V, ell, dim)
        at_one = H.addition_scale(ell, dim) * backend.gegenbauer_last(
            H.alpha_for_dim(dim), ell, np.ones(40)
        )
        assert np.array_equal(np.diag(gram), at_one)

    def test_exact_orthonormality_via_cholesky(self):
        fs = H.build_fundamental_set(4, 5, 10, seed=0)
        gram = H.fundamental_gram(fs.directions, 4, 5)
        L = fs.gram_chol
        ident = np.linalg.solve(L, np.linalg.solve(L, gram).T)
        assert np.max(np.abs(ident - np.eye(10))) <= 1e-10

    def test_ill_conditioned_block_reproduces_raw_features(self):
        # two nearly coincident directions: the block's Gram has cond >= 1e7,
        # and F_b L_b^T must still give back sc * C_l(x . v) to rounding
        ell, dim = 3, 5
        fs = H.build_fundamental_set(ell, dim, 10, seed=0)
        rng = np.random.default_rng(2)
        V = fs.directions.copy()
        V[1] = V[0] + 1e-4 * rng.standard_normal(dim)
        V[1] /= np.linalg.norm(V[1])
        gram = H.fundamental_gram(V, ell, dim)
        assert H._condition_number(gram) >= 1e7
        trained = H.fundamental_set(ell, V, dim)
        assert trained.jitter == 0.0
        L = trained.gram_chol
        basis = H.HarmonicBasis(dim=dim, max_frequency=ell, sets=(trained,))
        X = random_sphere(rng, 300, dim)
        F, slopes = H.features(basis, X, slopes=(ell,))
        t = np.clip(X @ V.T, -1.0, 1.0)
        raw = addition_rhs(ell, dim, t)
        assert np.max(np.abs(F[:, 1:] @ L.T - raw)) <= 1e-13 * np.max(np.abs(raw))
        alpha = H.alpha_for_dim(dim)
        assert np.array_equal(slopes[ell], backend.gegenbauer_last_and_slope(alpha, ell, t)[1])
        assert np.array_equal(F, H.features(basis, X))

    def test_dimension_mismatch(self):
        basis = H.build_basis(3, 1, seed=0)
        with pytest.raises(ValueError):
            H.features(basis, np.ones(4) / 2.0)


class TestMonteCarloGram:
    def test_constant_only(self):
        basis = H.HarmonicBasis(dim=3, max_frequency=0, sets=())
        gram = monte_carlo_gram(basis, 100, seed=0)
        assert gram == pytest.approx(np.ones((1, 1)))

    def test_full_first_frequency_identity(self):
        basis = H.build_basis(3, 1, seed=0)
        gram = monte_carlo_gram(basis, 1_000_000, seed=1)
        assert np.max(np.abs(gram - np.eye(basis.num_features))) <= 5e-3

    def test_truncated_sets_still_orthonormal(self):
        basis = H.build_basis(4, 3, seed=0, counts=limited_counts(4, 3, 4))
        gram = monte_carlo_gram(basis, 400_000, seed=2)
        assert np.max(np.abs(gram - np.eye(basis.num_features))) <= 5.0 / np.sqrt(400_000) * 3


class TestBasisStructure:
    def test_counts_and_frequencies(self):
        basis = H.build_basis(4, 3, seed=0, counts=limited_counts(4, 3, 5))
        assert basis.num_features == 1 + sum(
            min(5, num_harmonics(ell, 4)) for ell in (1, 2, 3)
        )
        freqs = basis.feature_frequencies()
        assert freqs[0] == 0
        assert np.all(np.diff(freqs) >= 0)

    def test_zero_count_skips_frequency(self):
        basis = H.build_basis(3, 3, counts={1: 3, 2: 0, 3: 2}, seed=0)
        assert [fs.frequency for fs in basis.sets] == [1, 3]

    def test_duplicate_frequency_rejected(self):
        fs = H.build_fundamental_set(1, 3, 2, seed=0)
        with pytest.raises(ValueError):
            H.HarmonicBasis(dim=3, max_frequency=1, sets=(fs, fs))

    def test_serialization_round_trip(self):
        basis = H.build_basis(4, 3, seed=0, counts=limited_counts(4, 3, 4))
        arrays = H.basis_to_arrays(basis)
        rebuilt = H.basis_from_arrays(arrays)
        rng = np.random.default_rng(3)
        X = random_sphere(rng, 20, 4)
        assert np.array_equal(H.features(basis, X), H.features(rebuilt, X))

    def test_serialization_rejects_unknown_version(self):
        basis = H.build_basis(3, 1, seed=0)
        arrays = H.basis_to_arrays(basis)
        arrays["basis_version"] = np.asarray(99)
        with pytest.raises(ValueError):
            H.basis_from_arrays(arrays)

    @pytest.mark.parametrize("tamper", ["scale", "nan", "nudge"])
    def test_loading_rejects_rows_that_are_not_unit(self, tamper):
        basis = H.build_basis(4, 3, seed=0, counts=limited_counts(4, 3, 4))
        arrays = H.basis_to_arrays(basis)
        V = arrays["basis_V_3"].copy()
        if tamper == "scale":
            V[1] *= 2.0
        elif tamper == "nan":
            V[2, 0] = np.nan
        else:
            V[0] *= 1.0 + 1e-9
        arrays["basis_V_3"] = V
        with pytest.raises(ValueError, match="basis_V_3"):
            H.basis_from_arrays(arrays)

    def test_loading_duplicate_directions_takes_jitter(self, caplog):
        basis = H.build_basis(3, 1, seed=0, counts={1: 2})
        arrays = H.basis_to_arrays(basis)
        arrays["basis_V_1"] = np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.0]])
        with caplog.at_level("WARNING"):
            loaded = H.basis_from_arrays(arrays)
        assert set_at(loaded, 1).jitter > 0
        assert any("jitter" in rec.message for rec in caplog.records)
