import numpy as np
import pytest

from cflat.numcore import (
    ParamVector,
    SeededRng,
    Segment,
    axpy,
    norm2,
)


def test_norm2_squared_is_the_self_inner_product():
    rng = SeededRng(1)
    data = rng.normal(size=17)
    assert norm2(ParamVector(data)) ** 2 == pytest.approx(float(np.dot(data, data)), rel=1e-12)


def test_norm2_pythagoras_and_zero():
    assert norm2(ParamVector([3.0, 4.0])) == 5.0
    assert norm2(ParamVector(np.zeros(4))) == 0.0


def test_norm2_absolute_homogeneity():
    rng = SeededRng(4)
    for _ in range(20):
        v = rng.normal(size=11)
        c = float(rng.normal())
        lhs = norm2(ParamVector(c * v))
        rhs = abs(c) * norm2(ParamVector(v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_norm2_triangle_inequality():
    rng = SeededRng(5)
    for _ in range(50):
        a = rng.normal(size=13)
        b = rng.normal(size=13)
        assert norm2(ParamVector(a + b)) <= norm2(ParamVector(a)) + norm2(ParamVector(b)) + 1e-12


def test_axpy_identity_and_cancellation():
    rng = SeededRng(6)
    x = ParamVector(rng.normal(size=8))
    y = ParamVector(rng.normal(size=8))
    assert np.array_equal(axpy(0.0, x, y).data, y.data)
    cancel = axpy(1.0, ParamVector(-y.data), y)
    assert np.array_equal(cancel.data, np.zeros(8))


def test_axpy_matches_loop_oracle_and_leaves_inputs_alone():
    rng = SeededRng(7)
    x = rng.normal(size=10)
    y = rng.normal(size=10)
    alpha = 0.37
    px, py = ParamVector(x), ParamVector(y)
    out = axpy(alpha, px, py)
    expected = np.array([yi + alpha * xi for xi, yi in zip(x, y)])
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=0)
    assert np.array_equal(px.data, x)
    assert np.array_equal(py.data, y)
    assert not out.data.flags.writeable


def test_axpy_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        axpy(1.0, ParamVector([1.0]), ParamVector([1.0, 2.0]))


def test_spawn_streams_are_stable_and_distinct():
    root = SeededRng(11)
    a = root.spawn(1, 2).normal(size=6)
    b = SeededRng(11).spawn(1, 2).normal(size=6)
    c = root.spawn(1, 3).normal(size=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fill_normal_matches_normal():
    rng, twin = SeededRng(13, 2), SeededRng(13, 2)
    filled = np.empty((4, 7))
    twin.fill_normal(filled)
    assert filled.tobytes() == rng.normal(0.0, 1.0, (4, 7)).tobytes()


def test_param_vector_manifest_validation():
    segs = (Segment("W", 0, (2, 2)), Segment("b", 4, (2,)))
    v = ParamVector(np.arange(6.0), segs)
    assert v.view("W").shape == (2, 2)
    assert np.array_equal(v.view("b"), [4.0, 5.0])
    with pytest.raises(ValueError, match="manifest covers"):
        ParamVector(np.arange(5.0), segs)
    with pytest.raises(KeyError):
        v.view("missing")


def test_param_vector_pickle_round_trip_stays_read_only():
    import pickle

    segs = (Segment("W", 0, (2, 2)), Segment("b", 4, (2,)))
    v = pickle.loads(pickle.dumps(ParamVector(np.arange(6.0), segs)))
    assert v.manifest == segs
    assert v.data.tobytes() == np.arange(6.0).tobytes()
    assert not v.data.flags.writeable


def test_public_constructor_and_with_data_copy_their_input():
    segs = (Segment("W", 0, (2, 2)), Segment("b", 4, (2,)))
    source = np.arange(6.0)
    v = ParamVector(source, segs)
    other = np.full(6, 2.0)
    w = v.with_data(other)
    source[:] = -1.0
    other[:] = -1.0
    assert v.data.tobytes() == np.arange(6.0).tobytes()
    assert w.data.tobytes() == np.full(6, 2.0).tobytes()
    assert not v.data.flags.writeable and not w.data.flags.writeable
    with pytest.raises(ValueError, match="manifest covers"):
        v.with_data(np.zeros(5))


def test_adopt_takes_the_array_and_shares_the_manifest_index():
    segs = (Segment("W", 0, (2, 2)), Segment("b", 4, (2,)))
    v = ParamVector(np.arange(6.0), segs)
    arr = np.linspace(0.0, 1.0, 6)
    w = v._adopt(arr)
    assert w.data is arr and not arr.flags.writeable
    assert w.manifest is v.manifest
    assert w.segment("b") is v.segment("b") is segs[1]
    assert np.array_equal(w.view("W"), arr[:4].reshape(2, 2))
    with pytest.raises(KeyError, match="no segment named 'c'"):
        w.view("c")


def test_segment_lookup_keeps_the_first_of_a_repeated_name():
    segs = (Segment("a", 0, (2,)), Segment("a", 2, (1,)))
    v = ParamVector(np.arange(3.0), segs)
    assert v.segment("a") is segs[0]
    assert np.array_equal(v.view("a"), [0.0, 1.0])


def test_norm2_equals_numpy_norm_bit_for_bit():
    rng = SeededRng(12)
    vectors = [np.zeros(5), np.array([3.0, 4.0]), np.array([1e200, 1e200]),
               np.array([1e-200, 3e-200]), np.array([np.inf, 1.0]), np.array([np.nan])]
    vectors += [rng.normal(size=n) * 10.0 ** rng.integers(-8, 9) for n in (1, 7, 33, 2762)]
    for data in vectors:
        with np.errstate(over="ignore"):  # 1e200 squared overflows in both
            got = norm2(ParamVector(data))
            want = float(np.linalg.norm(data))
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_axpy_returns_a_read_only_vector_on_the_manifest_of_y():
    segs = (Segment("W", 0, (2, 2)), Segment("b", 4, (2,)))
    y = ParamVector(np.arange(6.0), segs)
    out = axpy(0.5, ParamVector(np.ones(6)), y)
    assert out.manifest is y.manifest
    assert not out.data.flags.writeable
    assert out.data.tobytes() == (np.arange(6.0) + 0.5 * np.ones(6)).tobytes()
