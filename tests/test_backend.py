import numpy as np
import pytest

from sphgp import backend


rng = np.random.default_rng(11)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.5, 5.0, 38.0])
@pytest.mark.parametrize(
    "shape",
    [(57,), (9, 13), (), (0, 3), (backend.CHUNK_ABOVE + 1,), (3, 30011)],
    ids=["1d", "2d", "0d", "empty", "chunked-1d", "chunked-2d"],
)
def test_last_is_bit_identical_to_table_row(alpha, shape):
    # the in-place recurrence keeps the table's order of operations exactly,
    # also in chunks (the last of each chunked shape is ragged)
    t = np.random.default_rng(3).uniform(-1, 1, size=shape)
    for degree in range(17):
        last = backend.gegenbauer_last(alpha, degree, t)
        assert last.shape == shape
        assert np.array_equal(last, backend.gegenbauer_all(alpha, degree, t)[degree])


def test_shapes_preserved():
    t = rng.uniform(-1, 1, size=(4, 6))
    assert backend.gegenbauer_all(0.5, 3, t).shape == (4, 4, 6)
    assert backend.gegenbauer_last(0.5, 3, t).shape == (4, 6)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0, 38.0])
def test_last_and_slope(alpha):
    from scipy.special import eval_gegenbauer

    from sphgp.special_math import gegenbauer_at_one

    edge = 1.0 - 1e-12
    t = np.concatenate(
        [[1.0, -1.0, edge, -edge], np.random.default_rng(5).uniform(-1, 1, size=40)]
    ).reshape(4, 11)
    for degree in range(1, 16):
        value, slope = backend.gegenbauer_last_and_slope(alpha, degree, t)
        assert value.shape == slope.shape == t.shape
        assert np.array_equal(value, backend.gegenbauer_last(alpha, degree, t))
        # d/dt C_l^(a) = 2a C_{l-1}^(a+1); its largest size on [-1, 1] is at t = 1
        reference = 2.0 * alpha * eval_gegenbauer(degree - 1, alpha + 1.0, t)
        slope_at_one = 2.0 * alpha * gegenbauer_at_one(alpha + 1.0, degree - 1)
        assert np.max(np.abs(slope - reference)) <= 1e-13 * slope_at_one


def test_last_and_slope_at_degree_zero_and_on_no_points():
    t = rng.uniform(-1, 1, size=(3, 5))
    value, slope = backend.gegenbauer_last_and_slope(2.0, 0, t)
    assert np.array_equal(value, np.ones_like(t))
    assert np.array_equal(slope, np.zeros_like(t))
    value, slope = backend.gegenbauer_last_and_slope(2.0, 4, np.empty((0, 3)))
    assert value.shape == slope.shape == (0, 3)


@pytest.mark.parametrize("degree", [0, 1, 2, 7, 15])
def test_chunked_value_and_slope_are_bit_identical(degree, monkeypatch):
    t = np.random.default_rng(6).uniform(-1, 1, size=(5, 20011))
    assert t.size > backend.CHUNK_ABOVE and t.size % backend.CHUNK
    chunked = backend.gegenbauer_last_and_slope(4.5, degree, t)
    monkeypatch.setattr(backend, "CHUNK_ABOVE", t.size)
    whole = backend.gegenbauer_last_and_slope(4.5, degree, t)
    for got, want in zip(chunked, whole):
        assert got.shape == t.shape
        assert np.array_equal(got, want)


def test_chunks_do_not_call_the_public_name(monkeypatch):
    # a wrapper on the module attribute (the benchmark's trace) sees one call
    calls = []
    inner = backend.gegenbauer_last

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(backend, "gegenbauer_last", counted)
    backend.gegenbauer_last(2.0, 5, np.zeros(4 * backend.CHUNK))
    assert len(calls) == 1
