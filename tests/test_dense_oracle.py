import numpy as np
import pytest
from hypothesis import given

from cassi import (
    CodedAperture,
    HSICube,
    InstanceTooLarge,
    Measurement,
    NumericalFailure,
    SceneConfig,
    build_operator,
)
from cassi.dense import (
    MAX_DENSE_ENTRIES,
    build_dense,
    cube_to_vec,
    dense_pinv,
    meas_to_vec,
)

from conftest import make_operator, random_cube, rel_err
from test_operator import operator_configs


def test_block_structure_from_hand_enumeration(tiny_config, tiny_ones_operator):
    # All-ones 2x2 mask, C=2, d=1: vec of band 0 of the shifted mask is
    # [1,1,1,1,0,0] (columns stacked), band 1 is [0,0,1,1,1,1]; each block
    # is that vector on the diagonal.
    dense = build_dense(tiny_ones_operator)
    assert dense.shape == (6, 12)
    expected = np.hstack(
        [np.diag([1.0, 1, 1, 1, 0, 0]), np.diag([0.0, 0, 1, 1, 1, 1])]
    )
    np.testing.assert_array_equal(dense, expected)


def test_single_band_is_diag_of_mask_vec():
    config = SceneConfig(2, 3, 1, 1)
    mask = CodedAperture(np.array([[1.0, 2, 3], [4.0, 5, 6]]))
    op = build_operator(mask, config)
    dense = build_dense(op)
    np.testing.assert_array_equal(dense, np.diag(mask.data.ravel(order="F")))


def test_paper_scale_request_is_rejected():
    config = SceneConfig(256, 256, 28, 2)
    mask = CodedAperture(np.ones((256, 256)))
    op = build_operator(mask, config)
    with pytest.raises(InstanceTooLarge):
        build_dense(op)


def test_pinv_of_identity():
    np.testing.assert_allclose(dense_pinv(np.eye(4)), np.eye(4), atol=1e-14)


def test_pinv_of_scalar():
    np.testing.assert_allclose(dense_pinv(np.array([[2.0]])), [[0.5]])


def test_pinv_satisfies_moore_penrose(tiny_ones_operator):
    a = build_dense(tiny_ones_operator)
    ap = dense_pinv(a)
    np.testing.assert_allclose(a @ ap @ a, a, atol=1e-10)
    np.testing.assert_allclose(ap @ a @ ap, ap, atol=1e-10)
    np.testing.assert_allclose((a @ ap).T, a @ ap, atol=1e-10)
    np.testing.assert_allclose((ap @ a).T, ap @ a, atol=1e-10)


def test_pinv_cap():
    with pytest.raises(InstanceTooLarge):
        dense_pinv(np.zeros((2048, 2049)))


def test_pinv_svd_failure_is_wrapped(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", boom)
    with pytest.raises(NumericalFailure):
        dense_pinv(np.eye(2))


def test_apply_equals_forward(tiny_config, tiny_ones_operator):
    cube = HSICube(tiny_config, np.array([[[1.0, 2], [3, 4]], [[5.0, 6], [7, 8]]]))
    dense = build_dense(tiny_ones_operator)
    out = dense @ cube_to_vec(cube)
    np.testing.assert_array_equal(
        out, meas_to_vec(tiny_ones_operator.forward(cube))
    )


@given(operator_configs(max_hw=8))
def test_forward_equivalence_across_random_instances(case):
    config, seed = case
    op = make_operator(config, seed=seed)
    x = random_cube(config, seed + 30)
    dense = build_dense(op)
    assert (
        rel_err(dense @ cube_to_vec(x), meas_to_vec(op.forward(x)))
        < 1e-12
    )


@given(operator_configs(max_hw=8))
def test_pinv_equivalence_central_theorem(case):
    # The element-wise pseudo-inverse equals the SVD pseudo-inverse whenever
    # the operator has full row rank.
    config, seed = case
    op = make_operator(config, seed=seed)
    rng = np.random.Generator(np.random.Philox(seed + 31))
    y = Measurement(config, rng.random((config.height, config.measurement_width())))
    dpinv = dense_pinv(build_dense(op))
    assert rel_err(dpinv @ meas_to_vec(y), cube_to_vec(op.pinv(y))) < 1e-10


class TestVecOrder:
    # Detector pixel (u, v) of band c sits at c*H*W' + v*H + u, in the
    # shifted coordinates where band c starts at column d*c.
    def test_meas_to_vec_index(self):
        config = SceneConfig(3, 4, 2, 1)
        data = np.arange(15.0).reshape(3, 5)
        vec = meas_to_vec(Measurement(config, data))
        assert vec.shape == (15,)
        for u in range(3):
            for v in range(5):
                assert vec[v * 3 + u] == data[u, v]

    def test_cube_to_vec_index(self):
        config = SceneConfig(3, 4, 2, 2)
        h, w, nc, d = config.geometry
        wp = config.measurement_width()
        cube = random_cube(config, 40)
        vec = cube_to_vec(cube)
        assert vec.shape == (nc * h * wp,)
        for c in range(nc):
            for u in range(h):
                for v in range(wp):
                    inside = d * c <= v < d * c + w
                    expected = cube.data[c, u, v - d * c] if inside else 0.0
                    assert vec[c * h * wp + v * h + u] == expected


def test_entry_cap_value_is_32_mb():
    assert MAX_DENSE_ENTRIES * 8 == 32 * 2**20
