import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cassi import (
    CodedAperture,
    _pool,
    DimensionMismatch,
    HSICube,
    MaskDegenerate,
    Measurement,
    SceneConfig,
    build_operator,
)
from cassi.dense import build_dense, cube_to_vec, dense_pinv, meas_to_vec
from cassi.operator import (
    _backproject,
    _forward,
    _gram_diagonal,
    _on_support,
    _shift,
)
from cassi.simulate import repair_mask

from conftest import (
    full_rank_mask,
    make_operator,
    random_cube,
    random_meas,
    rel_err,
    sha256_of,
)


def operator_configs(max_hw=6, max_c=4, max_d=2):
    """Geometries whose detector is fully covered (d <= W)."""
    return st.tuples(
        st.integers(1, max_hw),
        st.integers(1, max_hw),
        st.integers(1, max_c),
        st.integers(1, max_d),
        st.integers(0, 10_000),
    ).map(
        lambda t: (
            SceneConfig(t[0], t[1], t[2], min(t[3], t[1])),
            t[4],
        )
    )


def shifted_mask(mask, config):
    """Per-band shifted copies of the mask, built as the dense oracle
    builds the diagonals of its blocks."""
    h, w, nc, _ = config.geometry
    return _shift(np.broadcast_to(mask.data, (nc, h, w)), config.shift_step)


class TestShift:
    def test_shift_mask_all_ones(self, tiny_config):
        mask = CodedAperture(np.ones((2, 2)))
        shifted = shifted_mask(mask, tiny_config)
        assert shifted.shape == (2, 2, 3)
        np.testing.assert_array_equal(shifted[0], [[1, 1, 0], [1, 1, 0]])
        np.testing.assert_array_equal(shifted[1], [[0, 1, 1], [0, 1, 1]])

    def test_shift_mask_single_band_is_identity(self):
        config = SceneConfig(2, 2, 1, 1)
        mask = CodedAperture(np.array([[1.0, 0.0], [0.5, 1.0]]))
        shifted = shifted_mask(mask, config)
        assert shifted.shape == (1, 2, 2)
        np.testing.assert_array_equal(shifted[0], mask.data)

    def test_shift_mask_dimension_mismatch(self, tiny_config):
        with pytest.raises(DimensionMismatch):
            build_operator(CodedAperture(np.ones((3, 2))), tiny_config)

    def test_shift_cube_hand_example(self, tiny_config):
        cube = HSICube(
            tiny_config, np.array([[[1.0, 2], [3, 4]], [[5.0, 6], [7, 8]]])
        )
        shifted = _shift(cube.data, tiny_config.shift_step)
        np.testing.assert_array_equal(shifted[0], [[1, 2, 0], [3, 4, 0]])
        np.testing.assert_array_equal(shifted[1], [[0, 5, 6], [0, 7, 8]])

    def test_shift_zero_cube(self, tiny_config):
        shifted = _shift(np.zeros((2, 2, 2)), tiny_config.shift_step)
        assert not shifted.any()

    def test_unshift_inverts_shift(self, tiny_config):
        # The on-support view is the inverse of the shift.
        cube = HSICube(
            tiny_config, np.array([[[1.0, 2], [3, 4]], [[5.0, 6], [7, 8]]])
        )
        d = tiny_config.shift_step
        back = _on_support(_shift(cube.data, d), d)
        np.testing.assert_array_equal(back, cube.data)

    @given(operator_configs())
    def test_shift_roundtrip_bit_exact(self, case):
        config, seed = case
        cube = random_cube(config, seed)
        back = _on_support(_shift(cube.data, config.shift_step), config.shift_step)
        assert np.array_equal(back, cube.data)

    @given(operator_configs())
    def test_shifted_support_invariant(self, case):
        config, seed = case
        h, w, nc, d = config.geometry
        shifted = _shift(random_cube(config, seed).data, d)
        for c in range(nc):
            margin = shifted[c].copy()
            margin[:, d * c : d * c + w] = 0.0
            assert not margin.any()


class TestOnSupportView:
    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 7),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 10_000),
    )
    @example(nc=1, h=3, w=4, d=3, fortran=False, seed=0)
    @example(nc=4, h=2, w=3, d=3, fortran=True, seed=1)
    def test_equals_per_band_slices(self, nc, h, w, d, fortran, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        t = rng.random((nc, h, w + d * (nc - 1)))
        if fortran:
            t = np.asfortranarray(t)
        view = _on_support(t, d)
        assert view.shape == (nc, h, w)
        for c in range(nc):
            assert np.array_equal(view[c], t[c, :, d * c : d * c + w])

        # Writes through the view land on the support and nowhere else.
        values = rng.random((nc, h, w))
        expected = t.copy()
        for c in range(nc):
            expected[c, :, d * c : d * c + w] = values[c]
        _on_support(t, d)[...] = values
        assert np.array_equal(t, expected)

        t.setflags(write=False)
        assert not _on_support(t, d).flags.writeable


class TestBuildOperator:
    def test_sigma_all_ones_mask(self, tiny_ones_operator):
        op = tiny_ones_operator
        np.testing.assert_array_equal(
            _gram_diagonal(op.mask, op.config), [[1, 2, 1], [1, 2, 1]]
        )
        np.testing.assert_array_equal(op.inv_sigma, [[1, 0.5, 1], [1, 0.5, 1]])

    def test_sigma_single_band(self):
        config = SceneConfig(2, 2, 1, 1)
        op = build_operator(CodedAperture(np.ones((2, 2))), config)
        sigma = _gram_diagonal(op.mask, config)
        np.testing.assert_array_equal(sigma, np.ones((2, 2)))
        np.testing.assert_array_equal(op.inv_sigma, np.ones((2, 2)))

    def test_degenerate_mask_reports_pixel(self, tiny_config):
        mask = CodedAperture(np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(MaskDegenerate) as excinfo:
            build_operator(mask, tiny_config)
        assert (excinfo.value.row, excinfo.value.col) == (0, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mask_too_faint_to_invert_is_degenerate(self):
        # Only band 0 reaches detector column 0, so pixel (1, 0) gets
        # about 1e-320 of mask energy, whose reciprocal overflows.
        data = np.ones((3, 3))
        data[1, 0] = 1e-160
        with pytest.raises(MaskDegenerate) as excinfo:
            build_operator(CodedAperture(data), SceneConfig(3, 3, 2, 1))
        err = excinfo.value
        assert (err.row, err.col, err.energy) == (1, 0, 1e-160**2)
        assert str(err) == (
            f"detector pixel (1, 0) receives mask energy {1e-160**2!r}, "
            "too small to invert"
        )
        # Twice that energy still has no finite reciprocal.
        faint = CodedAperture(np.full((4, 4), 1e-160))
        with pytest.raises(MaskDegenerate, match="too small to invert"):
            build_operator(faint, SceneConfig(4, 4, 2, 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mask_whose_energy_overflows_is_degenerate(self):
        # Each square, 1e308, is finite; pixel (1, 2) adds two of them,
        # so its energy overflows and its reciprocal is 0.
        data = np.ones((3, 3))
        data[1, 1:] = 1e154
        with pytest.raises(MaskDegenerate) as excinfo:
            build_operator(CodedAperture(data), SceneConfig(3, 3, 2, 1))
        err = excinfo.value
        assert (err.row, err.col, err.energy) == (1, 2, np.inf)
        assert str(err) == "detector pixel (1, 2) receives mask energy that overflows"
        # A square that overflows on its own.
        bright = CodedAperture(np.full((8, 8), 1e200))
        with pytest.raises(MaskDegenerate, match=r"^detector pixel \(0, 0\) .* overflows$"):
            build_operator(bright, SceneConfig(8, 8, 3, 2))

    def test_mask_dims_must_match(self, tiny_config):
        with pytest.raises(DimensionMismatch):
            build_operator(CodedAperture(np.ones((2, 3))), tiny_config)

    @given(operator_configs())
    def test_sigma_matches_dense_gram_exactly(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        dense = build_dense(op)
        gram = dense @ dense.T
        sigma = _gram_diagonal(op.mask, config)
        diag = meas_to_vec(Measurement._adopt(config, sigma))
        assert np.array_equal(gram, np.diag(diag))

    def test_real_valued_mask_gram_diagonal(self):
        config = SceneConfig(3, 4, 3, 1)
        rng = np.random.Generator(np.random.Philox(11))
        mask = CodedAperture(0.1 + 0.9 * rng.random((3, 4)))
        op = build_operator(mask, config)
        dense = build_dense(op)
        gram = dense @ dense.T
        off_diag = gram - np.diag(np.diag(gram))
        assert np.abs(off_diag).max() == 0.0
        sigma = _gram_diagonal(op.mask, config)
        diag = meas_to_vec(Measurement._adopt(config, sigma))
        np.testing.assert_allclose(np.diag(gram), diag, rtol=1e-14)


class TestForwardAdjoint:
    def test_forward_worked_example(self, tiny_config, tiny_ones_operator):
        cube = HSICube(
            tiny_config, np.array([[[1.0, 2], [3, 4]], [[5.0, 6], [7, 8]]])
        )
        meas = tiny_ones_operator.forward(cube)
        np.testing.assert_array_equal(meas.data, [[1, 7, 6], [3, 11, 8]])

    def test_forward_zero_cube(self, tiny_config, tiny_ones_operator):
        meas = tiny_ones_operator.forward(HSICube(tiny_config, np.zeros((2, 2, 2))))
        assert not meas.data.any()

    def test_forward_single_band_is_elementwise(self):
        config = SceneConfig(2, 2, 1, 1)
        mask = CodedAperture(np.array([[1.0, 0.5], [0.25, 2.0]]))
        op = build_operator(mask, config)
        cube = random_cube(config, 3)
        np.testing.assert_array_equal(
            op.forward(cube).data, mask.data * cube.data[0]
        )

    def test_adjoint_of_ones(self, tiny_config, tiny_ones_operator):
        meas = Measurement(tiny_config, np.ones((2, 3)))
        cube = tiny_ones_operator.adjoint(meas)
        np.testing.assert_array_equal(cube.data, np.ones((2, 2, 2)))

    def test_adjoint_zero(self, tiny_config, tiny_ones_operator):
        meas = Measurement(tiny_config, np.zeros((2, 3)))
        assert not tiny_ones_operator.adjoint(meas).data.any()

    def test_geometry_checks(self, tiny_ones_operator):
        other = SceneConfig(3, 3, 2, 1)
        with pytest.raises(DimensionMismatch):
            tiny_ones_operator.forward(HSICube(other, np.zeros((2, 3, 3))))
        with pytest.raises(DimensionMismatch):
            tiny_ones_operator.adjoint(Measurement(other, np.zeros((3, 4))))

    @given(operator_configs())
    def test_forward_matches_dense(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        x = random_cube(config, seed + 1)
        dense = build_dense(op)
        assert rel_err(meas_to_vec(op.forward(x)), dense @ cube_to_vec(x)) < 1e-12

    @given(operator_configs())
    def test_adjoint_matches_dense(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        y = random_meas(config, seed + 2)
        dense = build_dense(op)
        assert (
            rel_err(cube_to_vec(op.adjoint(y)), dense.T @ meas_to_vec(y)) < 1e-12
        )

    @given(operator_configs())
    def test_adjoint_is_true_transpose(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        x = random_cube(config, seed + 3)
        y = random_meas(config, seed + 4)
        lhs = float(np.sum(op.forward(x).data * y.data))
        rhs = float(np.sum(x.data * op.adjoint(y).data))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


class TestPinv:
    def test_pinv_worked_example(self, tiny_config, tiny_ones_operator):
        meas = Measurement(tiny_config, np.array([[1.0, 7, 6], [3.0, 11, 8]]))
        cube = tiny_ones_operator.pinv(meas)
        np.testing.assert_allclose(cube.data[0], [[1, 3.5], [3, 5.5]], rtol=1e-15)
        np.testing.assert_allclose(cube.data[1], [[3.5, 6], [5.5, 8]], rtol=1e-15)

    def test_pinv_single_band_is_division(self):
        config = SceneConfig(2, 2, 1, 1)
        mask = CodedAperture(np.array([[1.0, 0.5], [0.25, 2.0]]))
        op = build_operator(mask, config)
        meas = random_meas(config, 9)
        np.testing.assert_allclose(
            op.pinv(meas).data[0], meas.data / mask.data, rtol=1e-15
        )

    def test_pinv_zero(self, tiny_config, tiny_ones_operator):
        meas = Measurement(tiny_config, np.zeros((2, 3)))
        assert not tiny_ones_operator.pinv(meas).data.any()

    @given(operator_configs())
    def test_pinv_matches_dense_svd(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        y = random_meas(config, seed + 5)
        dpinv = dense_pinv(build_dense(op))
        assert rel_err(cube_to_vec(op.pinv(y)), dpinv @ meas_to_vec(y)) < 1e-10

    @given(operator_configs())
    def test_pinv_is_right_inverse(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        y = random_meas(config, seed + 6)
        again = op.forward(op.pinv(y))
        assert rel_err(again.data, y.data) < 1e-12

    def test_pinv_identity_via_matrix_free_columns(self):
        # Materialize the pseudo-inverse column by column through pinv and
        # check the defining identity Phi Phi^+ Phi = Phi.
        config = SceneConfig(3, 3, 2, 1)
        op = make_operator(config, seed=21)
        dense = build_dense(op)
        n = dense.shape[0]
        cols = []
        for j in range(n):
            basis = np.zeros(n)
            basis[j] = 1.0
            from cassi.dense import vec_to_meas

            cols.append(cube_to_vec(op.pinv(vec_to_meas(basis, config))))
        pinv_mat = np.stack(cols, axis=1)
        assert rel_err(dense @ pinv_mat @ dense, dense) < 1e-10


class TestProjectors:
    def test_range_fixed_point(self, tiny_config, tiny_ones_operator):
        meas = Measurement(tiny_config, np.array([[1.0, 7, 6], [3.0, 11, 8]]))
        xr = tiny_ones_operator.pinv(meas)
        again = tiny_ones_operator.range_project(xr)
        assert rel_err(again.data, xr.data) < 1e-12

    def test_projectors_on_zero(self, tiny_config, tiny_ones_operator):
        zero = HSICube(tiny_config, np.zeros((2, 2, 2)))
        assert not tiny_ones_operator.range_project(zero).data.any()
        assert not tiny_ones_operator.null_project(zero).data.any()

    @given(operator_configs())
    def test_null_annihilated_by_forward(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        q = random_cube(config, seed + 7)
        leftover = op.forward(op.null_project(q))
        assert np.abs(leftover.data).max() <= 1e-10 * np.abs(q.data).max()

    @given(operator_configs())
    def test_projector_algebra(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        x = random_cube(config, seed + 8)
        r = op.range_project(x)
        n = op.null_project(x)
        assert rel_err(op.range_project(r).data, r.data) < 1e-10
        assert rel_err(op.null_project(n).data, n.data) < 1e-10
        assert rel_err(r.data + n.data, x.data) < 1e-10

    @given(operator_configs())
    def test_projectors_orthogonal(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        v = random_cube(config, seed + 9)
        w = random_cube(config, seed + 10)
        inner = float(
            np.sum(op.range_project(v).data * op.null_project(w).data)
        )
        bound = 1e-10 * np.linalg.norm(v.data) * np.linalg.norm(w.data)
        assert abs(inner) <= bound

    @given(operator_configs())
    def test_projectors_match_dense(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        x = random_cube(config, seed + 11)
        dense = build_dense(op)
        dpinv = dense_pinv(dense)
        xv = cube_to_vec(x)
        assert (
            rel_err(cube_to_vec(op.range_project(x)), dpinv @ (dense @ xv)) < 1e-10
        )
        assert (
            rel_err(cube_to_vec(op.null_project(x)), xv - dpinv @ (dense @ xv))
            < 1e-10
        )


class TestRndCombine:
    def test_zero_candidate_reduces_to_pinv(self, tiny_config, tiny_ones_operator):
        meas = Measurement(tiny_config, np.array([[1.0, 7, 6], [3.0, 11, 8]]))
        zero = HSICube(tiny_config, np.zeros((2, 2, 2)))
        combined = tiny_ones_operator.rnd_combine(meas, zero)
        np.testing.assert_allclose(
            combined.data, tiny_ones_operator.pinv(meas).data, atol=1e-15
        )

    def test_truth_candidate_recovers_truth(self, tiny_config, tiny_ones_operator):
        truth = HSICube(
            tiny_config, np.array([[[1.0, 2], [3, 4]], [[5.0, 6], [7, 8]]])
        )
        meas = tiny_ones_operator.forward(truth)
        recon = tiny_ones_operator.rnd_combine(meas, truth)
        assert rel_err(recon.data, truth.data) < 1e-10

    @given(operator_configs())
    def test_matches_dense(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        y = random_meas(config, seed + 12)
        q = random_cube(config, seed + 13)
        dense = build_dense(op)
        dpinv = dense_pinv(dense)
        expected = (
            dpinv @ meas_to_vec(y)
            + cube_to_vec(q)
            - dpinv @ (dense @ cube_to_vec(q))
        )
        assert rel_err(cube_to_vec(op.rnd_combine(y, q)), expected) < 1e-10

    @given(operator_configs())
    def test_data_consistency_for_any_candidate(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        y = random_meas(config, seed + 14)
        q = random_cube(config, seed + 15)
        reproduced = op.forward(op.rnd_combine(y, q))
        y_inf = np.abs(y.data).max()
        assert np.abs(reproduced.data - y.data).max() <= 1e-8 * max(y_inf, 1e-300)

    def test_shared_operator_is_thread_safe(self):
        # Immutability contract: concurrent use of one operator on shared
        # read-only inputs must match the sequential results bitwise.
        from concurrent.futures import ThreadPoolExecutor

        config = SceneConfig(8, 8, 4, 2)
        op = make_operator(config, seed=55)
        cubes = [random_cube(config, 200 + i) for i in range(8)]
        meas = [op.forward(c) for c in cubes]
        expected = [op.rnd_combine(y, q).data for y, q in zip(meas, cubes)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(lambda pair: op.rnd_combine(*pair).data, zip(meas, cubes))
            )
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    @given(operator_configs())
    def test_range_perturbation_invariance(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        y = random_meas(config, seed + 16)
        q = random_cube(config, seed + 17)
        t = random_cube(config, seed + 18)
        shifted_q = HSICube._adopt(
            config, q.data + 3.7 * op.range_project(t).data
        )
        a = op.rnd_combine(y, q)
        b = op.rnd_combine(y, shifted_q)
        assert rel_err(b.data, a.data) < 1e-10


class TestOneProjectionKernel:
    """rnd_combine and null_project are the GAP data step ``x + pinv(r)``
    with ``r = y - A q`` and ``r = -A x``, bitwise."""

    @given(operator_configs(max_d=3))
    def test_identities_through_public_ops(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        y = random_meas(config, seed + 19)
        q = random_cube(config, seed + 20)
        x = random_cube(config, seed + 21)
        residual = Measurement(config, y.data - op.forward(q).data)
        expected = q.data + op.pinv(residual).data
        assert op.rnd_combine(y, q).data.tobytes() == expected.tobytes()
        expected = x.data - op.range_project(x).data
        assert op.null_project(x).data.tobytes() == expected.tobytes()


def loop_forward(mask, d, bands):
    """Reference for :func:`_forward`: one strided add per band."""
    nc, h, w = bands.shape
    y = np.zeros((h, w + d * (nc - 1)))
    for c in range(nc):
        y[:, d * c : d * c + w] += bands[c] * mask
    return y


def loop_backproject(mask, d, y, out, accumulate=False):
    """Reference for :func:`_backproject`: one strided pass per band."""
    w = mask.shape[1]
    for c in range(out.shape[0]):
        window = y[:, d * c : d * c + w]
        if accumulate:
            out[c] += mask * window
        else:
            np.multiply(mask, window, out=out[c])
    return out


def loop_gram_diagonal(mask, config):
    """Reference for :func:`_gram_diagonal`: one strided add per band."""
    h, w, nc, d = config.geometry
    square = mask * mask
    sigma = np.zeros((h, w + d * (nc - 1)))
    for c in range(nc):
        sigma[:, d * c : d * c + w] += square
    return sigma


def signed_values(rng, shape):
    """Normal values, about a tenth of them -0.0 and a tenth +0.0."""
    values = rng.standard_normal(shape)
    pick = rng.random(shape)
    values[pick < 0.1] = -0.0
    values[(pick >= 0.1) & (pick < 0.2)] = 0.0
    return values


@st.composite
def kernel_cases(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    nc, d = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    budget = draw(st.sampled_from([1, 8 * w, 8 * 5 * (w + 5 * 8), _pool.BLOCK_BYTES]))
    on_support, seed = draw(st.booleans()), draw(st.integers(0, 2**32 - 1))
    return SceneConfig(h, w, nc, d), budget, on_support, seed


class TestKernelsMatchPerBandLoops:
    """The flat-span kernels against the per-band loops they replaced,
    byte for byte: any block budget (one row per block up to one block),
    any pool size, contiguous bands or the on-support view of a dispersed
    tensor, and values that hold negatives, -0.0 and +0.0."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_equal_the_loops(self, workers, kernel_pool):
        kernel_pool(workers)

        @given(kernel_cases())
        @example((SceneConfig(3, 2, 4, 5), 1, True, 0))  # d > W
        @example((SceneConfig(5, 7, 1, 3), 1, True, 1))  # one band
        @example((SceneConfig(40, 40, 9, 5), 8, False, 2))  # one row per block
        def check(case):
            config, budget, on_support, seed = case
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_pool, "BLOCK_BYTES", budget)
                self.check_kernels(config, on_support, seed)

        check()

    @staticmethod
    def check_kernels(config, on_support, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        h, w, nc, d = config.geometry
        wp = config.measurement_width()
        mask = np.abs(signed_values(rng, (h, w)))
        mask[rng.random((h, w)) < 0.1] = -0.0  # -0.0 >= 0 is a legal mask value

        def band_input():
            # A fresh (C, H, W') tensor and the (C, H, W) bands inside it.
            t = signed_values(rng, (nc, h, wp))
            return t, (_on_support(t, d) if on_support else t[:, :, :w].copy())

        t, bands = band_input()
        got = _forward(mask, d, bands)
        assert got.tobytes() == loop_forward(mask, d, bands).tobytes()
        assert _gram_diagonal(mask, config).tobytes() == (
            loop_gram_diagonal(mask, config).tobytes()
        )

        def twin_inputs():
            t, bands = band_input()
            t_ref = t.copy()
            bands_ref = _on_support(t_ref, d) if on_support else bands.copy()
            return t, bands, t_ref, bands_ref

        y = signed_values(rng, (h, wp))
        for accumulate in (False, True):
            t, bands, t_ref, bands_ref = twin_inputs()
            assert _backproject(mask, d, y, bands, accumulate) is bands
            loop_backproject(mask, d, y, bands_ref, accumulate)
            assert bands.tobytes() == bands_ref.tobytes()
            assert t.tobytes() == t_ref.tobytes()  # margins untouched

        if d > w:  # no operator: some detector columns see no band
            return
        op = build_operator(repair_mask(CodedAperture(mask), config), config)
        t, bands, t_ref, bands_ref = twin_inputs()
        assert op._add_pinv(bands, y) is bands
        loop_backproject(op.mask, d, y * op.inv_sigma, bands_ref, accumulate=True)
        assert bands.tobytes() == bands_ref.tobytes()
        # The strided add leaves every margin value, -0.0 included, as it was.
        assert t.tobytes() == t_ref.tobytes()


class TestOperatorBytesPinned:
    """SHA-256 of every operator output, fixed before the operator stored
    only the 2-D mask; the ``rnd_combine`` ones were fixed again when it
    became ``q + pinv(y - A q)``.  Any change in the per-band arithmetic,
    or in the order of the band sums, breaks these."""

    GEOMETRIES = {
        "256x256x28/d2": SceneConfig(256, 256, 28, 2),
        "7x5x4/d3": SceneConfig(7, 5, 4, 3),
        "16x9x6/d1": SceneConfig(16, 9, 6, 1),
    }
    DIGESTS = {
        "256x256x28/d2": {
            "sigma": (
                "a35689090ee3c5617060bdbea85e674a639178fa95c5f8d568bc0d35b89aefce"
            ),
            "inv_sigma": (
                "facaed3a5fd260cc13990c854623d8b8210beea6e1624d2f57c0040ee68040b2"
            ),
            "forward": (
                "16c1ca258e4a5678ef2b106c7ee2543768460928c9b839fac87915ecb6253c6b"
            ),
            "adjoint": (
                "c91fde4ed641a5565904835ed1ee4e45265bccbfac63b9855480d136f5abc3c7"
            ),
            "pinv": (
                "9b1596f6234ff0477de12a988e1443b7eb95927f333be8441c20c37bd841cdb9"
            ),
            "range_project": (
                "40a745ffa7d2ab319d287f4acfb6f288dab9ebe835f409eb97d87db45f06e3a3"
            ),
            "null_project": (
                "9af4ed944743d96ad17785de9dd80f2b8e1f4e7ef4f491020e98e10c86e4c0a1"
            ),
            "rnd_combine": (
                "5c3b9592cc0f0dc119281b3d97686a5ef487b64761cc02d17513eac5702ade39"
            ),
        },
        "7x5x4/d3": {
            "sigma": (
                "7f26623118ca2d36cce89747be42f51730065ed0823593c44d2752d630b040f3"
            ),
            "inv_sigma": (
                "83ff099cd8790ed08ee93327e72c119293dbf48fb27a2c05446d6b6c47f0a4d1"
            ),
            "forward": (
                "70a0439afc2ea77cdfeddd24ed2655e7671ac47b0c6fb151cefa363b5028f773"
            ),
            "adjoint": (
                "0e32c0df9c90c8ac352151acbe07545a669d5f66201cbd7ae553795d610bd4ff"
            ),
            "pinv": (
                "69ff00a49538a477b430a5ca68d007356cc67e536c39d041e0d6fc3acfdd72c6"
            ),
            "range_project": (
                "3219e4f1b7ef697154d9087ccbb9f783218ddd036d8b1af1e8ff57e0295af00f"
            ),
            "null_project": (
                "b283815af0e8196a16c2155ea5ba605a5dc9f51213f0af92dc9228ed75ec06ae"
            ),
            "rnd_combine": (
                "2032233edb0ed417bc9e56212f384603ebf7d4c66aff158306bcb0ee0bcff869"
            ),
        },
        "16x9x6/d1": {
            "sigma": (
                "59df8f1bdcabbec5bc5ec32fd9ff170582da3f20d8fe1aa6daa2ef3847b259d4"
            ),
            "inv_sigma": (
                "d7fb694a81cce78f7306bc7875f6632b2d11ce4e0204e23f9dd15de4dba1d83a"
            ),
            "forward": (
                "00b5aff649ee72991a8dc249af1b261caa852d1d0d60e95b4878f3de885bc32e"
            ),
            "adjoint": (
                "5a01256dec08c80334c15608a786b9f2fb36326bf52967d4ee28958c03a90517"
            ),
            "pinv": (
                "ca9b32c38a85660609e5131eea6fe912d40b238ce8bb18be85059343dc9b59ff"
            ),
            "range_project": (
                "434d05bcf66a44e1f1079fe312adbc94f13d6144b54daf64ce082d4af108d4bc"
            ),
            "null_project": (
                "8d92fc15a219f50afc059f774ec82a4c30f6e9fa434079e584f86d5958d2854a"
            ),
            "rnd_combine": (
                "405c88ec8e40a01988aa571d84952c520ae822b8e1d1ccabf7d813d290c901e4"
            ),
        },
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_outputs(self, name):
        config = self.GEOMETRIES[name]
        op = make_operator(config, seed=31)
        x = random_cube(config, 32)
        y = random_meas(config, 33)
        q = random_cube(config, 34)
        got = {
            "sigma": sha256_of(_gram_diagonal(op.mask, op.config)),
            "inv_sigma": sha256_of(op.inv_sigma),
            "forward": sha256_of(op.forward(x).data),
            "adjoint": sha256_of(op.adjoint(y).data),
            "pinv": sha256_of(op.pinv(y).data),
            "range_project": sha256_of(op.range_project(x).data),
            "null_project": sha256_of(op.null_project(x).data),
            "rnd_combine": sha256_of(op.rnd_combine(y, q).data),
        }
        assert got == self.DIGESTS[name]


@pytest.mark.parametrize(
    "config", [SceneConfig(256, 256, 28, 2), SceneConfig(7, 5, 4, 3)]
)
def test_nbytes_is_mask_and_reciprocal(config):
    # The 2-D mask plus one detector-sized plane; no per-band copies.
    op = make_operator(config)
    h, w = config.height, config.width
    assert op.nbytes() == 8 * (h * w + h * config.measurement_width())
