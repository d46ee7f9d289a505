import subprocess
import sys

import numpy as np
import pytest

from sphgp import backend


rng = np.random.default_rng(11)
T_CASES = [
    rng.uniform(-1, 1, size=200),
    rng.uniform(-1, 1, size=91),
    np.array([-1.0, 0.0, 1.0]),
]


@pytest.mark.skipif(not backend.HAVE_NUMBA, reason="numba unavailable")
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.5])
@pytest.mark.parametrize("lmax", [0, 1, 2, 9, 40])
def test_table_backends_agree(alpha, lmax):
    for t in T_CASES:
        a = backend.gegenbauer_all_numpy(alpha, lmax, t)
        b = backend.gegenbauer_all_numba(alpha, lmax, t)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)


@pytest.mark.skipif(not backend.HAVE_NUMBA, reason="numba unavailable")
@pytest.mark.parametrize("degree", [0, 1, 7, 33])
def test_last_backends_agree(degree):
    for t in T_CASES:
        a = backend.gegenbauer_last_numpy(1.5, degree, t)
        b = backend.gegenbauer_last_numba(1.5, degree, t)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)


@pytest.mark.skipif(not backend.HAVE_NUMBA, reason="numba unavailable")
def test_zonal_sum_backends_agree():
    coeffs = rng.standard_normal(9)
    for t in T_CASES:
        a = backend.zonal_sum_numpy(coeffs, 2.0, t)
        b = backend.zonal_sum_numba(coeffs, 2.0, t)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)


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


def test_env_flag_selects_numpy():
    code = (
        "import os; os.environ['SPHGP_BACKEND']='numpy'; "
        "from sphgp import backend; print(backend.active_backend())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "numpy"


def test_env_flag_rejects_unknown():
    code = (
        "import os; os.environ['SPHGP_BACKEND']='cuda'; "
        "import sphgp.backend"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode != 0
