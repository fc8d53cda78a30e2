from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cassi import (
    HSICube,
    build_operator,
    bundled_suite,
    Measurement,
    NonFiniteValue,
    SceneConfig,
    ShiftedCube,
    IdentityPrior,
    InitStrategy,
    SolverConfig,
    TvPrior,
    gap_solve_with_stats,
    init_repeat,
    init_roll,
    init_shift,
    rnd_reconstruct,
    shift_cube,
    tv_denoise,
)
from cassi import _pool, recon
from cassi.operator import _on_support

from conftest import make_operator, random_cube, random_meas, rel_err, sha256_of
from test_operator import operator_configs


def meas_row(config, row):
    return Measurement(config, np.asarray(row, dtype=float)[None, :])


class TestInitShift:
    def test_hand_example(self):
        config = SceneConfig(1, 2, 2, 1)
        z = init_shift(meas_row(config, [1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(z.data[0], [[1, 2, 3]])
        np.testing.assert_array_equal(z.data[1], [[0, 1, 2]])

    def test_single_band_is_measurement(self):
        config = SceneConfig(1, 3, 1, 1)
        z = init_shift(meas_row(config, [4.0, 5.0, 6.0]))
        np.testing.assert_array_equal(z.data[0], [[4, 5, 6]])

    def test_zero_measurement(self, tiny_config):
        z = init_shift(Measurement(tiny_config, np.zeros((2, 3))))
        assert not z.data.any()

    @given(operator_configs())
    def test_zero_count_per_band(self, case):
        config, seed = case
        rng = np.random.Generator(np.random.Philox(seed))
        meas = Measurement(
            config,
            0.1 + rng.random((config.height, config.measurement_width())),
        )
        z = init_shift(meas)
        for c in range(config.bands):
            zeros = int(np.count_nonzero(z.data[c] == 0.0))
            assert zeros == config.height * config.shift_step * c


class TestInitRepeat:
    def test_bands_verbatim(self):
        config = SceneConfig(1, 2, 2, 1)
        z = init_repeat(meas_row(config, [1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(z.data[0], [[1, 2, 3]])
        np.testing.assert_array_equal(z.data[1], [[1, 2, 3]])

    def test_zero_measurement(self, tiny_config):
        assert not init_repeat(Measurement(tiny_config, np.zeros((2, 3)))).data.any()

    @given(operator_configs())
    def test_total_is_band_count_times_measurement(self, case):
        config, seed = case
        meas = random_meas(config, seed)
        z = init_repeat(meas)
        assert np.isclose(z.data.sum(), config.bands * meas.data.sum())


class TestInitRoll:
    def test_hand_example_rotates_over_measurement_width(self):
        config = SceneConfig(1, 2, 2, 1)
        z = init_roll(meas_row(config, [1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(z.data[0], [[1, 2, 3]])
        np.testing.assert_array_equal(z.data[1], [[3, 1, 2]])

    def test_band_zero_is_identity(self, tiny_config):
        meas = random_meas(tiny_config, 3)
        np.testing.assert_array_equal(init_roll(meas).data[0], meas.data)

    @given(operator_configs())
    def test_every_band_is_a_permutation(self, case):
        config, seed = case
        meas = random_meas(config, seed)
        z = init_roll(meas)
        reference = np.sort(meas.data, axis=None)
        for c in range(config.bands):
            np.testing.assert_array_equal(np.sort(z.data[c], axis=None), reference)
            assert np.isclose(z.data[c].sum(), meas.data.sum())


class TestCropToScene:
    def test_inverts_shift(self, tiny_config):
        cube = random_cube(tiny_config, 5)
        back = _on_support(shift_cube(cube).data, tiny_config.shift_step)
        np.testing.assert_array_equal(back, cube.data)

    @given(operator_configs())
    def test_output_width_is_scene_width(self, case):
        config, seed = case
        z = init_repeat(random_meas(config, seed)).data
        cropped = _on_support(z, config.shift_step)
        assert cropped.shape == (config.bands, config.height, config.width)


class TestTvDenoise:
    def test_zero_strength_is_identity(self, tiny_config):
        cube = random_cube(tiny_config, 6)
        out = tv_denoise(cube, 0.0, 30)
        assert np.abs(out.data - cube.data).max() <= 1e-12

    def test_constant_cube_unchanged(self):
        config = SceneConfig(4, 5, 2, 1)
        cube = HSICube(config, np.full((2, 4, 5), 0.37))
        out = tv_denoise(cube, 0.3, 50)
        np.testing.assert_allclose(out.data, cube.data, atol=1e-14)

    def test_step_signal_matches_exact_prox(self):
        # Exact proximal solution for [0, 0, 1, 1] with strength 0.05,
        # frozen from a brute-force convex solve (see oracle test below):
        # both plateaus move toward the mean by strength/2.
        config = SceneConfig(1, 4, 1, 1)
        cube = HSICube(config, np.array([[[0.0, 0.0, 1.0, 1.0]]]))
        out = tv_denoise(cube, 0.05, 2000)
        np.testing.assert_allclose(
            out.data[0, 0], [0.025, 0.025, 0.975, 0.975], atol=1e-6
        )

    def test_center_bump_matches_exact_prox(self):
        # Frozen from the same brute-force solve: 3x3 bump with strength
        # 0.08 flattens to background 0.24, center 0.68.
        config = SceneConfig(3, 3, 1, 1)
        plane = np.full((3, 3), 0.2)
        plane[1, 1] = 1.0
        out = tv_denoise(HSICube(config, plane[None]), 0.08, 4000)
        expected = np.full((3, 3), 0.24)
        expected[1, 1] = 0.68
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)

    def test_bad_arguments(self, tiny_config):
        cube = random_cube(tiny_config, 7)
        with pytest.raises(ValueError):
            tv_denoise(cube, -0.1, 10)
        with pytest.raises(ValueError):
            tv_denoise(cube, 0.1, 0)

    @given(operator_configs(), st.floats(0.01, 0.5))
    def test_shrinks_total_variation(self, case, strength):
        config, seed = case
        cube = random_cube(config, seed)

        def tv(data):
            return float(
                np.abs(np.diff(data, axis=1)).sum()
                + np.abs(np.diff(data, axis=2)).sum()
            )

        out = tv_denoise(cube, strength, 40)
        assert tv(out.data) <= tv(cube.data) + 1e-12


def reference_tv_prox(f, lam, iters):
    """Whole-stack TV prox with fresh temporaries at every step: the
    arithmetic, in the order, that the blocked kernel must reproduce."""

    def div(p, q):
        x = np.zeros(f.shape)
        x[:, :-1, :] += p
        x[:, 1:, :] -= p
        x[:, :, :-1] += q
        x[:, :, 1:] -= q
        return x

    p = np.zeros((f.shape[0], f.shape[1] - 1, f.shape[2]))
    q = np.zeros((f.shape[0], f.shape[1], f.shape[2] - 1))
    step = 1.0 / (8.0 * lam)
    for _ in range(iters):
        x = f - lam * div(p, q)
        p = np.clip(p + step * (x[:, :-1, :] - x[:, 1:, :]), -1.0, 1.0)
        q = np.clip(q + step * (x[:, :, :-1] - x[:, :, 1:]), -1.0, 1.0)
    return f - lam * div(p, q)


class TestTvOutputBytesPinned:
    """SHA-256 of output bytes, fixed before the TV prox was blocked; any
    rounding change in the kernel breaks these."""

    RND_DIGESTS = {
        (0, True): "4116cbec441377b477b966ee58c202d7be423de8264b04b3cc67f11d7a4b1f3d",
        (0, False): "92de2c01179aebfa026a841edab665c4f9b6204fe0b46e3a030045485af685c4",
        (1, True): "cded542c0fe424c6034016e95dc2d26eb7a0cea2099d1af532882ba125cbef68",
        (1, False): "879946ffea755d894945b7e2d4c1d5bebf5efd81d96280aa4cf46ab2c22bde9b",
    }
    TV_DIGESTS = {
        # blocks of 16 + 4 bands: several blocks, ragged last block
        (20, 64, 64): (
            "33389e7674b0752865cfaf13314bf92483fa027b8d24e75c19c85175f153a1d0"
        ),
        # blocks of 2 + 1 bands
        (3, 181, 181): (
            "9a84174235bd96c082c87d5be9cba9c6bcd44a0df2df98618d6bfb747e594c4a"
        ),
    }

    @pytest.mark.parametrize("scene_index,crop", sorted(RND_DIGESTS))
    def test_rnd_reconstruct_on_bundled_suite(self, scene_index, crop):
        config, mask, scenes = bundled_suite(n_scenes=2)
        op = build_operator(mask, config)
        out = rnd_reconstruct(
            op,
            op.forward(scenes[scene_index]),
            TvPrior(20),
            SolverConfig(crop_denoiser_input=crop),
        )
        assert sha256_of(out.data) == self.RND_DIGESTS[(scene_index, crop)]

    @pytest.mark.parametrize("shape", sorted(TV_DIGESTS))
    def test_multi_block_tv_denoise(self, shape):
        c, h, w = shape
        assert _pool.band_block(c, h, w) < c  # really multi-block
        rng = np.random.Generator(np.random.Philox(2024))
        cube = HSICube(SceneConfig(h, w, c, 1), rng.random(shape))
        assert sha256_of(tv_denoise(cube, 0.1, 20).data) == self.TV_DIGESTS[shape]


def per_band_tv(data: np.ndarray, strength: float, iterations: int) -> np.ndarray:
    c, h, w = data.shape
    config = SceneConfig(h, w, 1, 1)
    bands = [HSICube(config, band[None]) for band in data]
    return np.concatenate([tv_denoise(b, strength, iterations).data for b in bands])


def assert_band_independent(shape, seed, strength, iterations, data=None):
    """Byte-equal to the bands denoised one at a time, and to the reference."""
    c, h, w = shape
    if data is None:
        data = np.random.Generator(np.random.Philox(seed)).random(shape)
    out = tv_denoise(HSICube(SceneConfig(h, w, c, 1), data), strength, iterations)
    assert out.data.tobytes() == per_band_tv(data, strength, iterations).tobytes()
    assert out.data.tobytes() == reference_tv_prox(data, strength, iterations).tobytes()


class TestTvBandIndependence:
    @given(
        st.integers(1, 7),
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(8, 6000),
        st.integers(0, 2**32 - 1),
        st.floats(0.01, 0.5),
        st.integers(1, 8),
    )
    def test_any_block_budget(self, c, h, w, budget, seed, strength, iterations):
        # Budgets from below one plane (one band per block) to above the
        # whole stack (a single block), with ragged last blocks between.
        with mock.patch.object(_pool, "BLOCK_BYTES", budget):
            assert_band_independent((c, h, w), seed, strength, iterations)

    @given(
        st.integers(1, 5),
        st.integers(1, 2),
        st.one_of(st.integers(1, 64), st.integers(20_000, 45_000)),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_module_budget_with_line_planes(self, c, thin, long, transpose, seed):
        # H = 1 or W = 1 (or 2), with H*W on both sides of the budget.
        shape = (c, long, thin) if transpose else (c, thin, long)
        assert_band_independent(shape, seed, 0.1, 5)

    @given(
        st.integers(1, 6),
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(8, 3000),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["signed zeros", "plateaus", "negative", "tiny"]),
        st.floats(0.01, 0.5),
        st.integers(1, 8),
    )
    @settings(max_examples=200)
    def test_signed_zeros_plateaus_and_negatives(
        self, c, h, w, budget, seed, kind, strength, iterations
    ):
        # The padded kernel adds and subtracts +0 pad terms; that is
        # bitwise neutral only while no partial sum is -0, so feed it the
        # inputs most likely to produce one.
        rng = np.random.Generator(np.random.Philox(seed))
        shape = (c, h, w)
        if kind == "signed zeros":
            data = rng.choice([0.0, -0.0], shape)
        elif kind == "plateaus":
            data = rng.choice([-0.0, 0.0, 0.25, -1.0], (c, 1, 1)) * np.ones(shape)
            data[:, h // 2 :, :] = rng.choice([-0.0, 0.0, 0.5])
        elif kind == "negative":
            data = rng.normal(size=shape)
        else:
            data = rng.normal(size=shape) * 1e-300
        with mock.patch.object(_pool, "BLOCK_BYTES", budget):
            assert_band_independent(shape, seed, strength, iterations, data)


class TestTvWorkspaceAlignment:
    @given(st.integers(1, 5), st.integers(1, 100))
    def test_rows_start_on_cache_lines(self, rows, n):
        a = recon._aligned_rows(rows, n)
        assert a.shape == (rows, n) and a.dtype == np.float64
        for row in a:
            assert row.flags.c_contiguous
            assert row.ctypes.data % recon._TV_ALIGN_BYTES == 0
        a[...] = np.arange(rows)[:, None]
        assert (a == np.arange(rows)[:, None]).all()

    @pytest.mark.parametrize("shape", [(8, 32, 32), (3, 181, 181), (5, 7, 9)])
    def test_prox_works_in_aligned_rows(self, shape, kernel_pool):
        # The whole dual iteration runs in rows from _aligned_rows, one
        # workspace per pool task, so no block's speed depends on where the
        # allocator put it.
        c, h, w = shape
        data = np.random.Generator(np.random.Philox(4)).random(shape)
        block = _pool.band_block(c, h, w)
        blocks = -(-c // block)
        aligned_rows = recon._aligned_rows
        for workers in (1, 2, 3):
            kernel_pool(workers)
            made = []

            def spy(rows, n):
                made.append((rows, n))
                return aligned_rows(rows, n)

            with mock.patch.object(recon, "_aligned_rows", side_effect=spy):
                out = tv_denoise(HSICube(SceneConfig(h, w, c, 1), data), 0.1, 3)
            assert made == [(4, block * h * w)] * min(workers, blocks)
            assert out.data.tobytes() == reference_tv_prox(data, 0.1, 3).tobytes()


class TestTvOnKernelPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "shape",
        [(3, 181, 181), (5, 256, 256), (20, 64, 64), (8, 32, 32), (1, 11, 11)],
    )
    def test_bytes_equal_the_reference_for_any_pool_size(
        self, shape, workers, kernel_pool
    ):
        # Multi-block stacks split into spans over the workers; single-block
        # stacks run inline.  Neither may change a byte.
        kernel_pool(workers)
        c, h, w = shape
        data = np.random.Generator(np.random.Philox(c * h * w)).random(shape)
        out = tv_denoise(HSICube(SceneConfig(h, w, c, 1), data), 0.1, 5)
        assert out.data.tobytes() == reference_tv_prox(data, 0.1, 5).tobytes()


def brute_force_tv_prox(plane, lam):
    cvxpy = pytest.importorskip("cvxpy")
    z = cvxpy.Variable(plane.shape)
    tv = cvxpy.sum(cvxpy.abs(z[1:, :] - z[:-1, :])) + cvxpy.sum(
        cvxpy.abs(z[:, 1:] - z[:, :-1])
    )
    problem = cvxpy.Problem(
        cvxpy.Minimize(0.5 * cvxpy.sum_squares(z - plane) + lam * tv)
    )
    problem.solve(solver=cvxpy.CLARABEL)
    return z.value


def test_frozen_tv_values_match_brute_force_solver():
    # Regenerates the frozen constants used above from an independent
    # convex solver.
    step = brute_force_tv_prox(np.array([[0.0, 0.0, 1.0, 1.0]]), 0.05)
    np.testing.assert_allclose(step[0], [0.025, 0.025, 0.975, 0.975], atol=1e-6)
    bump = np.full((3, 3), 0.2)
    bump[1, 1] = 1.0
    solved = brute_force_tv_prox(bump, 0.08)
    expected = np.full((3, 3), 0.24)
    expected[1, 1] = 0.68
    np.testing.assert_allclose(solved, expected, atol=1e-6)


class TestPriors:
    def test_identity_at_zero_strength(self, tiny_config):
        cube = random_cube(tiny_config, 8)
        for prior in (TvPrior(20), IdentityPrior()):
            out = prior.denoise(cube, 0.0)
            assert out.data.shape == cube.data.shape
            assert np.abs(out.data - cube.data).max() <= 1e-12

    def test_tv_prior_output_finite_and_same_dims(self, tiny_config):
        cube = random_cube(tiny_config, 9)
        out = TvPrior(15).denoise(cube, 0.2)
        assert out.data.shape == cube.data.shape
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("inner", [0, -1])
    def test_tv_prior_rejects_bad_inner_iterations_at_construction(self, inner):
        with pytest.raises(ValueError, match="inner_iterations must be >= 1"):
            TvPrior(inner)

    @pytest.mark.parametrize("inner", [2.5, True, "3"])
    def test_tv_prior_rejects_non_integer_inner_iterations(self, inner):
        with pytest.raises(ValueError, match="inner_iterations must be an integer"):
            TvPrior(inner)

    def test_tv_prior_takes_numpy_integers(self, tiny_config):
        cube = random_cube(tiny_config, 9)
        out = TvPrior(np.int64(3)).denoise(cube, 0.2)
        assert out.data.tobytes() == TvPrior(3).denoise(cube, 0.2).data.tobytes()


class _OraclePrior:
    """Test prior that always returns a fixed ground-truth cube."""

    def __init__(self, truth):
        self.truth = truth

    def denoise(self, cube, strength):
        return self.truth


class _ZeroPrior:
    def denoise(self, cube, strength):
        return HSICube._adopt(cube.config, np.zeros_like(cube.data))


class _NanPrior:
    def denoise(self, cube, strength):
        return HSICube._adopt(cube.config, np.full_like(cube.data, np.nan))


class TestGapSolve:
    def config_op(self):
        config = SceneConfig(4, 4, 2, 1)
        return config, make_operator(config, seed=13)

    def test_identity_prior_residual_nonincreasing(self):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 14))
        cfg = SolverConfig(iterations=8)
        _, stats = gap_solve_with_stats(op, meas, IdentityPrior(), cfg)
        res = stats.residual_l2
        assert all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))
        # one projection step reaches data consistency with full row rank
        assert res[0] <= 1e-10

    def test_identity_prior_residual_nonincreasing_on_bundled_suite(self):
        from cassi import build_operator, bundled_suite

        config, mask, scenes = bundled_suite()
        op = build_operator(mask, config)
        cfg = SolverConfig(iterations=5)
        for scene in scenes:
            meas = op.forward(scene)
            _, stats = gap_solve_with_stats(op, meas, IdentityPrior(), cfg)
            res = stats.residual_l2
            assert all(
                res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1)
            )

    def test_identity_prior_pinv_start_is_fixed_point(self):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 15))
        x0 = op.pinv(meas)
        out, _ = gap_solve_with_stats(
            op, meas, IdentityPrior(), SolverConfig(iterations=5), x0=x0
        )
        assert rel_err(out.data, x0.data) < 1e-12

    def test_invalid_x0_rejected(self):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 15))
        from cassi import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            gap_solve_with_stats(
                op,
                meas,
                IdentityPrior(),
                SolverConfig(iterations=2),
                x0=random_cube(SceneConfig(3, 3, 2, 1), 1),
            )

    def test_divergence_guard(self):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 16))
        with pytest.raises(NonFiniteValue):
            gap_solve_with_stats(op, meas, _NanPrior(), SolverConfig(iterations=3))

    def test_deterministic(self):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 17))
        cfg = SolverConfig(iterations=10)
        a, _ = gap_solve_with_stats(op, meas, TvPrior(10), cfg)
        b, _ = gap_solve_with_stats(op, meas, TvPrior(10), cfg)
        assert np.array_equal(a.data, b.data)

    def test_convergence_tol_stops_early(self):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 18))
        cfg = SolverConfig(iterations=50, convergence_tol=1e-12)
        _, stats = gap_solve_with_stats(op, meas, IdentityPrior(), cfg)
        assert stats.iterations_run < 50

    def test_denoised_pixel_count_tracks_crop_flag(self):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 19))
        h, w, nc, _ = config.geometry
        wp = config.measurement_width()
        _, with_crop = gap_solve_with_stats(
            op, meas, TvPrior(5), SolverConfig(iterations=2)
        )
        _, without = gap_solve_with_stats(
            op, meas, TvPrior(5), SolverConfig(iterations=2, crop_denoiser_input=False)
        )
        assert with_crop.denoised_pixels_per_iteration == nc * h * w
        assert without.denoised_pixels_per_iteration == nc * h * wp
        ratio = with_crop.denoised_pixels_per_iteration / (
            without.denoised_pixels_per_iteration
        )
        assert ratio == w / wp

    def test_crop_ratio_at_full_instrument_scale(self):
        # At 256x256x28 with shift step 2 the crop shrinks the denoised
        # pixel count per iteration by exactly 256/310.
        from cassi import CodedAperture, build_operator
        import numpy as np_

        config = SceneConfig(256, 256, 28, 2)
        op = build_operator(
            CodedAperture(np.ones((256, 256))), config
        )
        meas = op.forward(HSICube(config, np.zeros((28, 256, 256))))
        _, cropped = gap_solve_with_stats(
            op, meas, TvPrior(1), SolverConfig(iterations=1)
        )
        _, full = gap_solve_with_stats(
            op, meas, TvPrior(1), SolverConfig(iterations=1, crop_denoiser_input=False)
        )
        assert cropped.denoised_pixels_per_iteration * 310 == (
            full.denoised_pixels_per_iteration * 256
        )

    @pytest.mark.parametrize("init", list(InitStrategy))
    @pytest.mark.parametrize("crop", [True, False])
    def test_all_grid_cells_run(self, init, crop):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 20))
        cfg = SolverConfig(iterations=3, init=init, crop_denoiser_input=crop)
        out, _ = gap_solve_with_stats(op, meas, TvPrior(5), cfg)
        assert out.data.shape == (2, 4, 4)
        assert np.isfinite(out.data).all()


class TestGapSolveWorkingCopy:
    @staticmethod
    def x0_of(kind, op, meas):
        if kind == "HSICube":
            return op.pinv(meas)
        h, _, nc, _ = op.config.geometry
        rng = np.random.Generator(np.random.Philox(44))
        return ShiftedCube(op.config, rng.random((nc, h, op.config.measurement_width())))

    @pytest.mark.parametrize("kind", ["HSICube", "ShiftedCube"])
    @pytest.mark.parametrize("crop", [True, False])
    def test_leaves_x0_unchanged(self, kind, crop):
        config = SceneConfig(6, 5, 3, 2)
        op = make_operator(config, seed=45)
        meas = op.forward(random_cube(config, 46))
        x0 = self.x0_of(kind, op, meas)
        before = x0.data.tobytes()
        cfg = SolverConfig(iterations=3, crop_denoiser_input=crop)
        gap_solve_with_stats(op, meas, TvPrior(3), cfg, x0=x0)
        gap_solve_with_stats(op, meas, IdentityPrior(), cfg, x0=x0)
        assert x0.data.tobytes() == before

    @pytest.mark.parametrize("crop", [True, False])
    @pytest.mark.parametrize("tol", [0.0, 1e-2])
    def test_one_forward_per_iteration(self, monkeypatch, crop, tol):
        # The post-denoise forward image is reused as the next data step.
        calls = []
        forward = recon._forward

        def counting(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(recon, "_forward", counting)
        config = SceneConfig(10, 8, 5, 2)
        op = make_operator(config, seed=41)
        meas = op.forward(random_cube(config, 42))
        cfg = SolverConfig(
            iterations=60, convergence_tol=tol, crop_denoiser_input=crop
        )
        _, stats = gap_solve_with_stats(op, meas, TvPrior(5), cfg)
        assert len(calls) == stats.iterations_run + 1
        assert (stats.iterations_run < 60) == (tol > 0.0)


class TestGapSolveBytesPinned:
    """SHA-256 of the solver output and of its residual trace, fixed before
    the data step and the crops went through the operator's kernels."""

    # The shift and roll inits agree on the band support, so with the crop
    # their outputs are the same.
    DIGESTS = {
        "shift/crop=True": (
            "cac453937b982a2018a656236c333358b0aab712d945572b47cd6195144dd1bf",
            "b1b03c3afa6f5b84efa4b12886ce66eab089c5c09c13c150bc5836f00515cedb",
            4,
        ),
        "shift/crop=False": (
            "6a47f5eca4c62b90fe096e8e20ffa9840a36ee512a7e58a25dd2358affd704ab",
            "29c2a3d3f10f46f941c6813c955a9ae0a19fa1c83d2af7835d2d2f15047edd7d",
            4,
        ),
        "repeat/crop=True": (
            "4ec1f0b67ab69c59124dae968e874eaefe908884cea7f859cf08d4cef20cfd16",
            "8a78a9726cdf40477ecfb39d04689009d773e8f9b697726178752cbb57b70f07",
            4,
        ),
        "repeat/crop=False": (
            "a8c77630dab8c6e49a67408f1f40058cffd0fab30b56c025bead985cd7d00a96",
            "6b0c4ae2f016518986571ba0896d761fb20a098d2cc18643603ed8f36d14f0f7",
            4,
        ),
        "roll/crop=True": (
            "cac453937b982a2018a656236c333358b0aab712d945572b47cd6195144dd1bf",
            "b1b03c3afa6f5b84efa4b12886ce66eab089c5c09c13c150bc5836f00515cedb",
            4,
        ),
        "roll/crop=False": (
            "5f69f8e1e08250138430bf0464b6a3a9d697c56bdf8f1b3ab370eb7420ce66cf",
            "062194d1578db0ad2e69a9f0594cdf891109d8012f1786111631828ee68f1138",
            4,
        ),
        "tol": (
            "88fa1d0976952450d216372d4e40582ee15791a328b83675f1e0321736330200",
            "6252a34247706ac71b4b6dd9dc7cd905c53c32518a75dba9e6783479c6ad5b6f",
            14,
        ),
        "x0=pinv": (
            "2b6184d53ed06c26786b2f2bd629e026e04d903956a5df64d90f8be37756922c",
            "86a44f7de5c0a083f88990a08748453c3bc7fcaa96452729f57655766dbcc8df",
            4,
        ),
        "x0=shifted/crop=True": (
            "36034a31be7f5dc7f055337d7707f7cb7d2a0fa81f640d36469aa32db08801a2",
            "1fff1b4ccbf6325cf8a944d7986ee0f289fff54ec6497dcb7d0a1e5be7c7078f",
            4,
        ),
        "x0=shifted/crop=False": (
            "1b77fa27dcfda8f5d234be8cc2a921f0b7c5712d1818acc0c6dbb2977de740c4",
            "c44aebcb72e254b98ba2be27bb624f15b75060a7e9616a41a1e619423d709455",
            4,
        ),
    }

    @staticmethod
    def case(key, op, meas):
        """Solver config and x0 for ``key``; "init/crop=..." keys run 4 iterations."""
        config = op.config
        h, _, nc, _ = config.geometry
        if key == "tol":
            return SolverConfig(iterations=60, convergence_tol=1e-2), None
        if key == "x0=pinv":
            return SolverConfig(iterations=4), op.pinv(meas)
        head, crop = key.split("/crop=")
        cfg = dict(iterations=4, crop_denoiser_input=crop == "True")
        if head == "x0=shifted":
            # Nonzero margin values, which the full-width prior sees.
            rng = np.random.Generator(np.random.Philox(43))
            data = rng.random((nc, h, config.measurement_width()))
            return SolverConfig(**cfg), ShiftedCube(config, data)
        return SolverConfig(**cfg, init=InitStrategy.from_name(head)), None

    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_output_and_residual_trace(self, key):
        config = SceneConfig(10, 8, 5, 2)
        op = make_operator(config, seed=41)
        meas = op.forward(random_cube(config, 42))
        cfg, x0 = self.case(key, op, meas)
        q, stats = gap_solve_with_stats(op, meas, TvPrior(5), cfg, x0=x0)
        got = (
            sha256_of(q.data),
            sha256_of(np.asarray(stats.residual_l2)),
            stats.iterations_run,
        )
        assert got == self.DIGESTS[key]


class TestRndReconstruct:
    def test_oracle_prior_recovers_truth(self):
        config = SceneConfig(4, 4, 2, 1)
        op = make_operator(config, seed=23)
        truth = random_cube(config, 24)
        meas = op.forward(truth)
        out = rnd_reconstruct(
            op, meas, _OraclePrior(truth), SolverConfig(iterations=2)
        )
        assert rel_err(out.data, truth.data) < 1e-10

    def test_zero_prior_reduces_to_pinv(self):
        config = SceneConfig(4, 4, 2, 1)
        op = make_operator(config, seed=25)
        meas = op.forward(random_cube(config, 26))
        out = rnd_reconstruct(op, meas, _ZeroPrior(), SolverConfig(iterations=3))
        assert rel_err(out.data, op.pinv(meas).data) < 1e-12

    @given(operator_configs())
    def test_wrapper_enforces_data_consistency(self, case):
        config, seed = case
        op = make_operator(config, seed=seed)
        meas = op.forward(random_cube(config, seed + 40))
        out = rnd_reconstruct(
            op, meas, TvPrior(5), SolverConfig(iterations=4)
        )
        reproduced = op.forward(out)
        y_inf = np.abs(meas.data).max()
        assert np.abs(reproduced.data - meas.data).max() <= 1e-8 * max(y_inf, 1e-300)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.iterations == 60
        assert cfg.tv_weight == 0.1
        assert not hasattr(cfg, "tv_inner_iterations")  # owned by TvPrior
        assert cfg.init is InitStrategy.ROLL
        assert cfg.crop_denoiser_input is True
        assert cfg.convergence_tol == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"tv_weight": -0.5},
            {"tv_weight": float("nan")},
            {"tv_weight": float("inf")},
            {"iterations": -1},
            {"convergence_tol": -1.0},
            {"convergence_tol": float("nan")},
            {"convergence_tol": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("iterations", [2.5, True, 3.0])
    def test_rejects_non_integer_iterations(self, iterations):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            SolverConfig(iterations=iterations)

    def test_takes_numpy_integer_iterations(self):
        assert SolverConfig(iterations=np.int64(4)).iterations == 4

    def test_init_strategy_parsing(self):
        assert InitStrategy.from_name("ROLL") is InitStrategy.ROLL
        with pytest.raises(ValueError):
            InitStrategy.from_name("bogus")
