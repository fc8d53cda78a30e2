import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cassi import (
    CodedAperture,
    DimensionMismatch,
    HSICube,
    Measurement,
    NonFiniteValue,
    SceneConfig,
    build_operator,
)
from cassi.dense import cube_to_vec, meas_to_vec


class TestSceneConfig:
    def test_measurement_width_formula(self):
        assert SceneConfig(2, 2, 2, 1).measurement_width() == 3
        assert SceneConfig(4, 4, 1, 3).measurement_width() == 4
        assert SceneConfig(8, 5, 3, 2).measurement_width() == 9

    def test_measurement_width_at_paper_scale(self):
        assert SceneConfig(256, 256, 28, 2).measurement_width() == 310

    @pytest.mark.parametrize("field", ["height", "width", "bands", "shift_step"])
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_rejects_non_positive_dims(self, field, bad):
        kwargs = dict(height=2, width=2, bands=2, shift_step=1)
        kwargs[field] = bad
        with pytest.raises(ValueError):
            SceneConfig(**kwargs)

    def test_numpy_integers_become_ints(self):
        cfg = SceneConfig(np.int64(2), np.int32(3), np.uint8(4), np.int64(1))
        assert cfg.geometry == (2, 3, 4, 1)
        assert all(type(v) is int for v in cfg.geometry)


class TestCubeTypes:
    def test_consistent_shape_accepted(self, tiny_config):
        cube = HSICube(tiny_config, np.arange(8.0).reshape(2, 2, 2))
        assert cube.data.shape == (2, 2, 2)
        np.testing.assert_array_equal(cube.data.ravel(), np.arange(8.0))

    def test_off_by_one_shape_rejected(self, tiny_config):
        with pytest.raises(DimensionMismatch):
            HSICube(tiny_config, np.arange(7.0).reshape(1, 1, 7))

    def test_nan_rejected(self, tiny_config):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            HSICube(tiny_config, data)
        with pytest.raises(NonFiniteValue):
            Measurement(tiny_config, np.full((2, 3), np.inf))

    def test_mask_rejects_negative_values(self):
        with pytest.raises(ValueError):
            CodedAperture(np.array([[0.5, -0.1], [1.0, 0.0]]))

    def test_data_is_immutable(self, tiny_config):
        cube = HSICube(tiny_config, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            cube.data[0, 0, 0] = 1.0

    def test_construction_copies_input(self, tiny_config):
        src = np.zeros((2, 2, 2))
        cube = HSICube(tiny_config, src)
        src[0, 0, 0] = 5.0
        assert cube.data[0, 0, 0] == 0.0

    def test_array_holders_compare_and_hash_by_identity(self, tiny_config):
        # The generated value __eq__ would compare the arrays as a tuple and
        # raise; the generated __hash__ would hash an array and raise.
        makers = [
            lambda: HSICube(tiny_config, np.zeros((2, 2, 2))),
            lambda: Measurement(tiny_config, np.zeros((2, 3))),
            lambda: CodedAperture(np.ones((2, 2))),
            lambda: build_operator(CodedAperture(np.ones((2, 2))), tiny_config),
        ]
        for make in makers:
            a, b = make(), make()
            assert a == a and a != b
            assert {a: 1, b: 2}[a] == 1

    def test_scene_config_compares_and_hashes_by_value(self):
        assert SceneConfig(2, 3, 4, 1) == SceneConfig(2, 3, 4, 1)
        assert {SceneConfig(2, 3, 4, 1): 1}[SceneConfig(2, 3, 4, 1)] == 1


class TestCodedAperture:
    def test_shape_comes_from_the_array(self):
        mask = CodedAperture(np.ones((2, 3)))
        assert (mask.height, mask.width) == (2, 3)

    @pytest.mark.parametrize("shape", [(4,), (1, 2, 3), (0, 3), (2, 0)])
    def test_rejects_non_2d_or_empty(self, shape):
        with pytest.raises(DimensionMismatch, match="2-D"):
            CodedAperture(np.ones(shape))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            CodedAperture(np.array([[1.0, np.nan]]))

    def test_copies_and_freezes_input(self):
        src = np.zeros((2, 2))
        mask = CodedAperture(src)
        src[0, 0] = 1.0
        assert mask.data[0, 0] == 0.0
        assert not mask.data.flags.writeable


def _one_hot_cube(config: SceneConfig, c: int, u: int, x: int) -> HSICube:
    data = np.zeros((config.bands, config.height, config.width))
    data[c, u, x] = 1.0
    return HSICube(config, data)


def _one_hot_meas(config: SceneConfig, u: int, v: int) -> Measurement:
    data = np.zeros((config.height, config.measurement_width()))
    data[u, v] = 1.0
    return Measurement(config, data)


def _where(vec: np.ndarray) -> int:
    """Position of the one nonzero entry of ``vec``."""
    (i,) = np.flatnonzero(vec)
    return int(i)


class TestFlattenIndex:
    """The dense oracle's vector order: in shifted coordinates, detector
    pixel (u, v) of band c sits at ``c*H*W' + v*H + u``.  Checked on
    :func:`cube_to_vec` and :func:`meas_to_vec` with one-hot inputs."""

    def test_origin(self, tiny_config):
        assert _where(cube_to_vec(_one_hot_cube(tiny_config, 0, 0, 0))) == 0
        assert _where(meas_to_vec(_one_hot_meas(tiny_config, 0, 0))) == 0

    def test_column_major_within_band(self, tiny_config):
        # Row 1 comes next; column 1 starts after the H = 2 rows of column 0.
        assert _where(cube_to_vec(_one_hot_cube(tiny_config, 0, 1, 0))) == 1
        assert _where(meas_to_vec(_one_hot_meas(tiny_config, 1, 0))) == 1
        assert _where(meas_to_vec(_one_hot_meas(tiny_config, 0, 1))) == 2

    def test_band_stride(self, tiny_config):
        # Band 1 starts H * W' = 2 * 3 = 6 entries in, and its scene column 0
        # is shifted column d = 1, so it lands at 6 + 1 * H = 8.
        assert _where(cube_to_vec(_one_hot_cube(tiny_config, 1, 0, 0))) == 8
        assert _where(cube_to_vec(_one_hot_cube(tiny_config, 1, 0, 1))) == 10

    @given(
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        c=st.integers(1, 4),
        d=st.integers(1, 2),
    )
    def test_bijection(self, h, w, c, d):
        # Every scene entry lands on its own shifted position, and every
        # detector pixel on its own measurement position.
        config = SceneConfig(h, w, c, d)
        wp = config.measurement_width()
        cube = np.arange(1.0, c * h * w + 1).reshape(c, h, w)
        vec = cube_to_vec(HSICube(config, cube))
        assert vec.shape == (c * h * wp,)
        for b in range(c):
            for u in range(h):
                for x in range(w):
                    assert vec[b * h * wp + (x + d * b) * h + u] == cube[b, u, x]
        assert np.count_nonzero(vec) == c * h * w
        meas = np.arange(h * wp, dtype=float).reshape(wp, h).T
        assert np.array_equal(
            meas_to_vec(Measurement(config, meas)), np.arange(h * wp)
        )
