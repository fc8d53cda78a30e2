import numpy as np
import pytest
from hypothesis import given

from cassi import (
    CodedAperture,
    DimensionMismatch,
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
    vec_to_cube,
    vec_to_meas,
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


class TestVecHelpers:
    def test_meas_vec_roundtrip(self, tiny_config):
        meas = Measurement(tiny_config, np.arange(6.0).reshape(2, 3))
        back = vec_to_meas(meas_to_vec(meas), tiny_config)
        np.testing.assert_array_equal(back.data, meas.data)

    def test_cube_vec_roundtrip(self, tiny_config):
        cube = random_cube(tiny_config, 40)
        back = vec_to_cube(cube_to_vec(cube), tiny_config)
        np.testing.assert_array_equal(back.data, cube.data)

    def test_vec_with_off_support_mass_rejected(self, tiny_config):
        vec = np.zeros(12)
        vec[4] = 1.0  # (u=0, v=2) in band 0, outside columns [0, 2)
        with pytest.raises(DimensionMismatch):
            vec_to_cube(vec, tiny_config)

    def test_length_checks(self, tiny_config):
        with pytest.raises(DimensionMismatch):
            vec_to_cube(np.zeros(11), tiny_config)
        with pytest.raises(DimensionMismatch):
            vec_to_meas(np.zeros(5), tiny_config)


def test_entry_cap_value_is_32_mb():
    assert MAX_DENSE_ENTRIES * 8 == 32 * 2**20
