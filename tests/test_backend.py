import numpy as np
import pytest

from sphgp import backend


rng = np.random.default_rng(11)


def test_zonal_sum_matches_table_dot():
    coeffs = rng.standard_normal(6)
    t = rng.uniform(-1, 1, size=50)
    table = backend.gegenbauer_all(0.5, 5, t)
    np.testing.assert_allclose(
        backend.zonal_sum(coeffs, 0.5, t), coeffs @ table, rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.5, 5.0, 38.0])
@pytest.mark.parametrize("shape", [(57,), (9, 13)], ids=["1d", "2d"])
def test_last_is_bit_identical_to_table_row(alpha, shape):
    # the in-place recurrence keeps the table's order of operations exactly
    t = np.random.default_rng(3).uniform(-1, 1, size=shape)
    for degree in range(17):
        last = backend.gegenbauer_last(alpha, degree, t)
        assert last.shape == shape
        assert np.array_equal(last, backend.gegenbauer_all(alpha, degree, t)[degree])


def test_shapes_preserved():
    t = rng.uniform(-1, 1, size=(4, 6))
    assert backend.gegenbauer_all(0.5, 3, t).shape == (4, 4, 6)
    assert backend.gegenbauer_last(0.5, 3, t).shape == (4, 6)
    assert backend.zonal_sum(np.ones(4), 0.5, t).shape == (4, 6)
