import gc
import threading
import weakref
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
    InitStrategy,
    SolverConfig,
    TvPrior,
    gap_solve_with_stats,
    rnd_reconstruct,
)
from cassi import _pool, recon
from cassi.operator import _on_support, _shift

from conftest import (
    make_operator,
    random_cube,
    random_meas,
    rel_err,
    sha256_of,
    traced_peak,
)
from test_operator import operator_configs


def meas_row(config, row):
    return Measurement(config, np.asarray(row, dtype=float)[None, :])


class TestInitShift:
    def test_hand_example(self):
        config = SceneConfig(1, 2, 2, 1)
        z = recon._start(meas_row(config, [1.0, 2.0, 3.0]), InitStrategy.SHIFT)
        np.testing.assert_array_equal(z[0], [[1, 2, 3]])
        np.testing.assert_array_equal(z[1], [[0, 1, 2]])

    def test_single_band_is_measurement(self):
        config = SceneConfig(1, 3, 1, 1)
        z = recon._start(meas_row(config, [4.0, 5.0, 6.0]), InitStrategy.SHIFT)
        np.testing.assert_array_equal(z[0], [[4, 5, 6]])

    def test_zero_measurement(self, tiny_config):
        meas = Measurement(tiny_config, np.zeros((2, 3)))
        z = recon._start(meas, InitStrategy.SHIFT)
        assert not z.any()

    @given(operator_configs())
    def test_zero_count_per_band(self, case):
        config, seed = case
        rng = np.random.Generator(np.random.Philox(seed))
        meas = Measurement(
            config,
            0.1 + rng.random((config.height, config.measurement_width())),
        )
        z = recon._start(meas, InitStrategy.SHIFT)
        for c in range(config.bands):
            zeros = int(np.count_nonzero(z[c] == 0.0))
            assert zeros == config.height * config.shift_step * c


class TestInitRepeat:
    def test_bands_verbatim(self):
        config = SceneConfig(1, 2, 2, 1)
        z = recon._start(meas_row(config, [1.0, 2.0, 3.0]), InitStrategy.REPEAT)
        np.testing.assert_array_equal(z[0], [[1, 2, 3]])
        np.testing.assert_array_equal(z[1], [[1, 2, 3]])

    def test_zero_measurement(self, tiny_config):
        meas = Measurement(tiny_config, np.zeros((2, 3)))
        assert not recon._start(meas, InitStrategy.REPEAT).any()

    @given(operator_configs())
    def test_total_is_band_count_times_measurement(self, case):
        config, seed = case
        meas = random_meas(config, seed)
        z = recon._start(meas, InitStrategy.REPEAT)
        assert np.isclose(z.sum(), config.bands * meas.data.sum())

    @pytest.mark.parametrize("bands", [1, 3])
    def test_returns_an_array_of_its_own(self, bands):
        # The solver updates an init in place without copying it, so even a
        # single band must not be a view of the measurement.
        config = SceneConfig(3, 4, bands, 1)
        meas = random_meas(config, 47)
        z = recon._start(meas, InitStrategy.REPEAT)
        assert z.flags.owndata and z.flags.c_contiguous
        assert not np.shares_memory(z, meas.data)

    @pytest.mark.parametrize("crop", [True, False])
    def test_single_band_solve_leaves_the_measurement_unchanged(self, crop):
        config = SceneConfig(4, 5, 1, 1)
        op = make_operator(config, seed=48)
        meas = op.forward(random_cube(config, 49))
        before = meas.data.tobytes()
        cfg = SolverConfig(
            iterations=2, init=InitStrategy.REPEAT, crop_denoiser_input=crop
        )
        gap_solve_with_stats(op, meas, TvPrior(3), cfg)
        assert meas.data.tobytes() == before


class TestInitRoll:
    def test_hand_example_rotates_over_measurement_width(self):
        config = SceneConfig(1, 2, 2, 1)
        z = recon._start(meas_row(config, [1.0, 2.0, 3.0]), InitStrategy.ROLL)
        np.testing.assert_array_equal(z[0], [[1, 2, 3]])
        np.testing.assert_array_equal(z[1], [[3, 1, 2]])

    def test_band_zero_is_identity(self, tiny_config):
        meas = random_meas(tiny_config, 3)
        z = recon._start(meas, InitStrategy.ROLL)
        np.testing.assert_array_equal(z[0], meas.data)

    @given(operator_configs())
    def test_every_band_is_a_permutation(self, case):
        config, seed = case
        meas = random_meas(config, seed)
        z = recon._start(meas, InitStrategy.ROLL)
        reference = np.sort(meas.data, axis=None)
        for c in range(config.bands):
            np.testing.assert_array_equal(np.sort(z[c], axis=None), reference)
            assert np.isclose(z[c].sum(), meas.data.sum())


class TestCropToScene:
    def test_inverts_shift(self, tiny_config):
        cube = random_cube(tiny_config, 5)
        d = tiny_config.shift_step
        back = _on_support(_shift(cube.data, d), d)
        np.testing.assert_array_equal(back, cube.data)

    @given(operator_configs())
    def test_output_width_is_scene_width(self, case):
        config, seed = case
        z = recon._start(random_meas(config, seed), InitStrategy.REPEAT)
        cropped = _on_support(z, config.shift_step)
        assert cropped.shape == (config.bands, config.height, config.width)


class TestTvDenoise:
    def test_zero_strength_is_identity(self, tiny_config):
        cube = random_cube(tiny_config, 6)
        out = TvPrior(30).denoise(cube, 0.0)
        assert np.abs(out.data - cube.data).max() <= 1e-12

    def test_constant_cube_unchanged(self):
        config = SceneConfig(4, 5, 2, 1)
        cube = HSICube(config, np.full((2, 4, 5), 0.37))
        out = TvPrior(50).denoise(cube, 0.3)
        np.testing.assert_allclose(out.data, cube.data, atol=1e-14)

    def test_step_signal_matches_exact_prox(self):
        # Exact proximal solution for [0, 0, 1, 1] with strength 0.05,
        # frozen from a brute-force convex solve (see oracle test below):
        # both plateaus move toward the mean by strength/2.
        config = SceneConfig(1, 4, 1, 1)
        cube = HSICube(config, np.array([[[0.0, 0.0, 1.0, 1.0]]]))
        out = TvPrior(2000).denoise(cube, 0.05)
        np.testing.assert_allclose(
            out.data[0, 0], [0.025, 0.025, 0.975, 0.975], atol=1e-6
        )

    def test_center_bump_matches_exact_prox(self):
        # Frozen from the same brute-force solve: 3x3 bump with strength
        # 0.08 flattens to background 0.24, center 0.68.
        config = SceneConfig(3, 3, 1, 1)
        plane = np.full((3, 3), 0.2)
        plane[1, 1] = 1.0
        out = TvPrior(4000).denoise(HSICube(config, plane[None]), 0.08)
        expected = np.full((3, 3), 0.24)
        expected[1, 1] = 0.68
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)

    def test_bad_arguments(self, tiny_config):
        cube = random_cube(tiny_config, 7)
        with pytest.raises(ValueError):
            TvPrior(10).denoise(cube, -0.1)
        with pytest.raises(ValueError):
            TvPrior(0).denoise(cube, 0.1)

    @pytest.mark.parametrize(
        "strength", [float("nan"), float("inf"), -float("inf"), 1e-320, 6.9e-310]
    )
    def test_strength_that_makes_the_prox_non_finite_rejected(
        self, tiny_config, strength
    ):
        # 1/(8*s) overflows below about 6.95e-310, and inf * 0 is NaN.
        cube = random_cube(tiny_config, 7)
        with pytest.raises(ValueError, match="strength must be"):
            TvPrior(3).denoise(cube, strength)

    @pytest.mark.parametrize("strength", [True, False, np.True_, "0.1"])
    def test_strength_must_be_a_real_number(self, tiny_config, strength):
        cube = random_cube(tiny_config, 7)
        with pytest.raises(ValueError, match="strength must be a real number"):
            TvPrior(3).denoise(cube, strength)

    @pytest.mark.parametrize("strength", [7e-310, 1e-300, 1e300])
    def test_extreme_finite_strengths_stay_finite(self, tiny_config, strength):
        cube = random_cube(tiny_config, 7)
        assert np.isfinite(TvPrior(3).denoise(cube, strength).data).all()

    @given(operator_configs(), st.floats(0.01, 0.5))
    def test_shrinks_total_variation(self, case, strength):
        config, seed = case
        cube = random_cube(config, seed)

        def tv(data):
            return float(
                np.abs(np.diff(data, axis=1)).sum()
                + np.abs(np.diff(data, axis=2)).sum()
            )

        out = TvPrior(40).denoise(cube, strength)
        assert tv(out.data) <= tv(cube.data) + 1e-12


def _tv_div(p, q):
    """Per-band divergence of the unpadded duals, in the kernel's order."""
    x = np.zeros((q.shape[0], q.shape[1], p.shape[2]))
    x[:, :-1, :] += p
    x[:, 1:, :] -= p
    x[:, :, :-1] += q
    x[:, :, 1:] -= q
    return x


def reference_tv_prox(f, lam, iters):
    """Whole-stack TV prox with fresh temporaries at every step: the
    arithmetic, in the order, that the blocked kernel must reproduce.  The
    duals are scaled by ``8*lam`` (``v = p / step``), so the field's
    differences are added straight into them."""
    p = np.zeros((f.shape[0], f.shape[1] - 1, f.shape[2]))
    q = np.zeros((f.shape[0], f.shape[1], f.shape[2] - 1))
    bound = 8.0 * lam
    for _ in range(iters):
        x = f - _tv_div(p, q) * 0.125
        p = np.clip(p + x[:, :-1, :] - x[:, 1:, :], -bound, bound)
        q = np.clip(q + x[:, :, :-1] - x[:, :, 1:], -bound, bound)
    return f - _tv_div(p, q) * 0.125


def classical_tv_prox(f, lam, iters):
    """Chambolle's projected dual gradient with the classical ``1/(8*lam)``
    step on unit-bounded duals: the same iteration as
    :func:`reference_tv_prox` before its duals were scaled, so the two
    differ only in rounding."""
    p = np.zeros((f.shape[0], f.shape[1] - 1, f.shape[2]))
    q = np.zeros((f.shape[0], f.shape[1], f.shape[2] - 1))
    step = 1.0 / (8.0 * lam)
    for _ in range(iters):
        x = f - lam * _tv_div(p, q)
        p = np.clip(p + step * (x[:, :-1, :] - x[:, 1:, :]), -1.0, 1.0)
        q = np.clip(q + step * (x[:, :, :-1] - x[:, :, 1:]), -1.0, 1.0)
    return f - lam * _tv_div(p, q)


class TestTvMatchesClassicalStep:
    @pytest.mark.parametrize("iterations", [1, 20, 100])
    @pytest.mark.parametrize("strength", [0.01, 0.1, 0.5, 3.0])
    @pytest.mark.parametrize("shape", [(20, 64, 64), (3, 181, 181)])
    def test_within_rounding_of_the_classical_step(self, shape, strength, iterations):
        # The scaled dual changes only the rounding, never the iteration.
        c, h, w = shape
        assert _pool.band_block(c, h, w) < c  # really multi-block
        data = np.random.Generator(np.random.Philox(c * h)).random(shape)
        cube = HSICube(SceneConfig(h, w, c, 1), data)
        out = TvPrior(iterations).denoise(cube, strength)
        expected = classical_tv_prox(data, strength, iterations)
        assert np.abs(out.data - expected).max() <= 1e-12


class TestTvOutputBytesPinned:
    """SHA-256 of output bytes; any rounding change in the kernel breaks
    these.  They were fixed again when the prox moved to the scaled dual
    (a last-bit change, at most 4.4e-16 after a 60-iteration RND solve)."""

    RND_DIGESTS = {
        (0, True): "9efa2a74d0ab0e0fe44d3c91796ff130c8dc7f8dc6c7c7467aac0cc94bcc11b5",
        (0, False): "2c72ba6f4203e9579ed56f900e14c53185e31d76c26d496f3025510dbee9138f",
        (1, True): "254031f953fc80d421a57ec436d6f1f81faf8db278fc11e868058d4800d6d2d6",
        (1, False): "6de21f20be04123fe930677eacbb57394fdf55345a44b37ebf3ffefc70229d08",
    }
    TV_DIGESTS = {
        # blocks of 16 + 4 bands: several blocks, ragged last block
        (20, 64, 64): (
            "87954d0a501f3b8e852046377486cdf51680b7ca924de5300973db26cc4a6fb4"
        ),
        # blocks of 2 + 1 bands
        (3, 181, 181): (
            "f4aff290c28dec159e6766e465ae375159cc8a5fec2fd26fd2fafe6fe46b472d"
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
        out = TvPrior(20).denoise(cube, 0.1)
        assert sha256_of(out.data) == self.TV_DIGESTS[shape]


def per_band_tv(data: np.ndarray, strength: float, iterations: int) -> np.ndarray:
    c, h, w = data.shape
    config = SceneConfig(h, w, 1, 1)
    bands = [HSICube(config, band[None]) for band in data]
    prior = TvPrior(iterations)
    return np.concatenate([prior.denoise(b, strength).data for b in bands])


def assert_band_independent(shape, seed, strength, iterations, data=None):
    """Byte-equal to the bands denoised one at a time, and to the reference."""
    c, h, w = shape
    if data is None:
        data = np.random.Generator(np.random.Philox(seed)).random(shape)
    cube = HSICube(SceneConfig(h, w, c, 1), data)
    out = TvPrior(iterations).denoise(cube, strength)
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
        # The whole dual iteration runs in one workspace from _aligned_rows
        # per pool task, laid out [f | x | lead, p, gap, q], so no block's speed
        # depends on where the allocator put it.  The kernel relies on the
        # lead and the gap staying +0.
        c, h, w = shape
        data = np.random.Generator(np.random.Philox(4)).random(shape)
        block = _pool.band_block(c, h, w)
        blocks = -(-c // block)
        cap = recon._line_up(block * h * w)
        lead = recon._line_up(w)
        aligned_rows = recon._aligned_rows
        run_band_spans = recon.run_band_spans

        def is_plus_zero(a):
            return bool((a == 0).all() and not np.signbit(a).any())

        for workers in (1, 2, 3):
            kernel_pool(workers)
            made = []
            span = threading.local()

            def spans_spy(task, *args):
                def traced(lo, hi):
                    span.bounds = (lo, hi)
                    task(lo, hi)

                run_band_spans(traced, *args)

            def rows_spy(rows, n):
                ws = aligned_rows(rows, n)
                made.append((span.bounds, rows, n, ws))
                return ws

            with mock.patch.object(recon, "run_band_spans", spans_spy):
                with mock.patch.object(recon, "_aligned_rows", rows_spy):
                    cube = HSICube(SceneConfig(h, w, c, 1), data)
                    out = TvPrior(3).denoise(cube, 0.1)
            assert out.data.tobytes() == reference_tv_prox(data, 0.1, 3).tobytes()
            assert len(made) == min(workers, blocks)
            for (lo, hi), rows, n, ws in made:
                assert (rows, n) == (1, 4 * cap + lead)
                ws = ws[0]
                assert ws.ctypes.data % recon._TV_ALIGN_BYTES == 0
                f, x, dual = ws[:cap], ws[cap : 2 * cap], ws[2 * cap :]
                # The buffers hold the span's last block.
                bands = hi - lo - (hi - lo - 1) // block * block
                size = bands * h * w
                qo = lead + recon._line_up(size)
                for a in (f, x, dual[lead:], dual[qo:]):
                    assert a.ctypes.data % recon._TV_ALIGN_BYTES == 0
                assert is_plus_zero(dual[:lead])
                assert is_plus_zero(dual[lead + size : qo])
                assert is_plus_zero(
                    dual[lead : lead + size].reshape(bands, h, w)[:, -1, :]
                )
                assert is_plus_zero(dual[qo : qo + size].reshape(bands, h, w)[:, :, -1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_prox_allocates_one_workspace_per_span(self, workers, kernel_pool):
        # One output cube plus, per span, the four block-sized working
        # arrays (f, x, p, q) and a block's finiteness mask (one byte a
        # value): an allocation inside the dual loop would add at least one
        # more block.
        kernel_pool(workers)
        c, h, w = 20, 64, 64
        block = _pool.band_block(c, h, w)
        assert block < c  # really multi-block
        spans = min(workers, -(-c // block))
        data = np.random.Generator(np.random.Philox(3)).random((c, h, w))
        cube = HSICube(SceneConfig(h, w, c, 1), data)
        out, peak = traced_peak(lambda: TvPrior(5).denoise(cube, 0.1))
        block_bytes = 8 * block * h * w
        slack = 64 * 1024  # the leads, line padding and Python objects
        mask_bytes = block * h * w
        assert peak <= out.data.nbytes + spans * (
            4 * block_bytes + mask_bytes + slack
        )


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
        cube = HSICube(SceneConfig(h, w, c, 1), data)
        out = TvPrior(5).denoise(cube, 0.1)
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
        for prior in (TvPrior(20), _IdentityPrior()):
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


class _IdentityPrior:
    """No-op prior; the solver reduces to pure data-consistency projection."""

    def denoise(self, cube, strength):
        return cube


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
        _, stats = gap_solve_with_stats(op, meas, _IdentityPrior(), cfg)
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
            _, stats = gap_solve_with_stats(op, meas, _IdentityPrior(), cfg)
            res = stats.residual_l2
            assert all(
                res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1)
            )

    def test_identity_prior_pinv_start_is_fixed_point(self):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 15))
        x0 = op.pinv(meas)
        out, _ = gap_solve_with_stats(
            op, meas, _IdentityPrior(), SolverConfig(iterations=5), x0=x0
        )
        assert rel_err(out.data, x0.data) < 1e-12

    @pytest.mark.parametrize(
        "config", [SceneConfig(10, 8, 5, 2), SceneConfig(7, 5, 4, 3)]
    )
    def test_one_identity_step_from_q_is_rnd_combine(self, config):
        # rnd-gap-tv is gap-tv plus one more data step: bitwise the same.
        op = make_operator(config, seed=16)
        meas = random_meas(config, 17)
        q = random_cube(config, 18)
        out, _ = gap_solve_with_stats(
            op, meas, _IdentityPrior(), SolverConfig(iterations=1), x0=q
        )
        assert out.data.tobytes() == op.rnd_combine(meas, q).data.tobytes()

    def test_invalid_x0_rejected(self):
        config, op = self.config_op()
        meas = op.forward(random_cube(config, 15))
        from cassi import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            gap_solve_with_stats(
                op,
                meas,
                _IdentityPrior(),
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
        _, stats = gap_solve_with_stats(op, meas, _IdentityPrior(), cfg)
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
    # ``kind`` names the type of x0; an HSICube is the only one accepted.
    @pytest.mark.parametrize("kind", ["HSICube"])
    @pytest.mark.parametrize("crop", [True, False])
    def test_leaves_x0_unchanged(self, kind, crop):
        config = SceneConfig(6, 5, 3, 2)
        op = make_operator(config, seed=45)
        meas = op.forward(random_cube(config, 46))
        x0 = op.pinv(meas)
        assert type(x0).__name__ == kind
        before = x0.data.tobytes()
        cfg = SolverConfig(iterations=3, crop_denoiser_input=crop)
        gap_solve_with_stats(op, meas, TvPrior(3), cfg, x0=x0)
        gap_solve_with_stats(op, meas, _IdentityPrior(), cfg, x0=x0)
        assert x0.data.tobytes() == before

    @pytest.mark.parametrize("crop", [True, False])
    def test_prior_gets_a_private_copy(self, crop):
        # A prior may keep or return its input: the solver never writes to
        # an array it handed over.
        config = SceneConfig(6, 5, 3, 2)
        op = make_operator(config, seed=45)
        meas = op.forward(random_cube(config, 46))
        kept = []

        class KeepingPrior:
            def denoise(self, cube, strength):
                kept.append((cube, cube.data.tobytes()))
                return cube

        cfg = SolverConfig(iterations=3, crop_denoiser_input=crop)
        out, _ = gap_solve_with_stats(op, meas, KeepingPrior(), cfg)
        assert len({id(cube.data) for cube, _ in kept}) == len(kept) == 3
        for cube, before in kept:
            assert cube.data.tobytes() == before
            assert not np.shares_memory(cube.data, out.data)

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


class _DelegatingPrior:
    """External prior that only delegates to :meth:`TvPrior.denoise`."""

    def __init__(self, inner):
        self.inner = inner

    def denoise(self, cube, strength):
        return self.inner.denoise(cube, strength)


class TestGapSolveInPlacePrior:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("crop", [True, False])
    def test_same_bytes_as_the_private_copy_path(
        self, crop, workers, kernel_pool, monkeypatch
    ):
        # TvPrior runs in place on the iterate (through a strided crop with
        # the crop on); an external prior gets a private copy.  A budget of
        # three bands makes both multi-block.
        kernel_pool(workers)
        config = SceneConfig(24, 20, 9, 2)
        wp = config.measurement_width()
        monkeypatch.setattr(_pool, "BLOCK_BYTES", 3 * config.height * wp * 8)
        op = make_operator(config, seed=47)
        meas = op.forward(random_cube(config, 48))
        cfg = SolverConfig(iterations=4, crop_denoiser_input=crop)
        inner, _ = gap_solve_with_stats(op, meas, TvPrior(5), cfg)
        outer, _ = gap_solve_with_stats(op, meas, _DelegatingPrior(TvPrior(5)), cfg)
        assert inner.data.tobytes() == outer.data.tobytes()

    @pytest.mark.parametrize("crop", [True, False])
    @pytest.mark.parametrize("prior", [TvPrior(3), _DelegatingPrior(TvPrior(3))])
    def test_overflowing_data_step_raises_at_iteration_0(self, crop, prior):
        # Band sums of values near 1e308 overflow in the first data step,
        # so the prior's first output is not finite.
        config = SceneConfig(6, 5, 3, 2)
        op = make_operator(config, seed=45)
        meas = Measurement(config, np.full((6, config.measurement_width()), 1e308))
        cfg = SolverConfig(iterations=3, crop_denoiser_input=crop)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteValue, match="diverged at iteration 0$"):
                gap_solve_with_stats(op, meas, prior, cfg)

    @pytest.mark.parametrize("crop", [True, False])
    def test_zero_tv_weight_still_checks_the_iterate(self, crop):
        config = SceneConfig(6, 5, 3, 2)
        op = make_operator(config, seed=45)
        meas = Measurement(config, np.full((6, config.measurement_width()), 1e308))
        cfg = SolverConfig(iterations=3, tv_weight=0.0, crop_denoiser_input=crop)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteValue, match="diverged at iteration 0$"):
                gap_solve_with_stats(op, meas, TvPrior(3), cfg)

    @pytest.mark.parametrize("crop", [True, False])
    def test_iterate_and_output_die_with_their_last_reference(
        self, crop, monkeypatch
    ):
        # With the cyclic collector off, a reference cycle through the
        # iterate (such as a recursive closure) would keep it alive.
        made = []
        on_support = recon._on_support

        def spy(t, d):
            made.append(weakref.ref(t))
            return on_support(t, d)

        monkeypatch.setattr(recon, "_on_support", spy)
        config = SceneConfig(10, 8, 5, 2)
        op = make_operator(config, seed=41)
        meas = op.forward(random_cube(config, 42))
        cfg = SolverConfig(iterations=2, crop_denoiser_input=crop)
        enabled = gc.isenabled()
        gc.disable()
        try:
            out, _ = gap_solve_with_stats(op, meas, TvPrior(3), cfg)
            assert made and all(ref() is None for ref in made)
            output = weakref.ref(out.data)
            del out
            assert output() is None
        finally:
            if enabled:
                gc.enable()


class TestGapSolveMemory:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("crop", [True, False])
    def test_no_second_cube_beyond_the_iterate(
        self, crop, workers, kernel_pool, monkeypatch
    ):
        # TvPrior runs in place: no copy of what it sees and no output cube
        # (either one is a full cube).  A budget of one band per block keeps
        # the TV workspaces small next to a cube.
        kernel_pool(workers)
        config = SceneConfig(96, 96, 16, 1)
        h, w, nc, _ = config.geometry
        wp = config.measurement_width()
        seen_w = w if crop else wp
        monkeypatch.setattr(_pool, "BLOCK_BYTES", h * seen_w * 8)
        block = _pool.band_block(nc, h, seen_w)
        spans = min(workers, -(-nc // block))
        assert block < nc and spans == workers
        op = make_operator(config, seed=5)
        meas = op.forward(random_cube(config, 6))
        cfg = SolverConfig(iterations=2, crop_denoiser_input=crop)
        (out, _), peak = traced_peak(
            lambda: gap_solve_with_stats(op, meas, TvPrior(3), cfg)
        )
        iterate = 8 * nc * h * wp
        # Per span: four block arrays (f, x, p, q), the block's finiteness
        # mask (one byte a value), and 64 KiB for the lead, line padding and
        # Python objects.
        values = block * h * seen_w
        workspaces = spans * (4 * 8 * values + values + 64 * 1024)
        # The residual, the next residual, a forward image and the residual
        # scaled by the Gram diagonal.
        detector = 4 * 8 * h * wp
        # The returned crop is made after the last prox call has freed its
        # workspaces.
        assert peak <= iterate + max(out.data.nbytes, workspaces) + detector

    def test_stopping_test_costs_one_iterate(self, kernel_pool):
        # With a tolerance the loop keeps one copy of the last iterate and
        # takes the change into that same buffer, so the peak grows by one
        # iterate over the run without it.  64 KiB covers Python objects.
        kernel_pool(1)
        config = SceneConfig(96, 96, 16, 1)
        op = make_operator(config, seed=5)
        meas = op.forward(random_cube(config, 6))
        peaks = []
        for tol in (0.0, 1e-9):
            cfg = SolverConfig(iterations=3, convergence_tol=tol)
            (_, stats), peak = traced_peak(
                lambda: gap_solve_with_stats(op, meas, TvPrior(3), cfg)
            )
            assert stats.iterations_run == 3
            peaks.append(peak)
        iterate = 8 * 16 * 96 * config.measurement_width()
        assert peaks[1] <= peaks[0] + iterate + 64 * 1024


class TestGapSolveBytesPinned:
    """SHA-256 of the solver output and of its residual trace, fixed again
    when the TV prox moved to the scaled dual."""

    # The shift and roll inits agree on the band support, so with the crop
    # their outputs are the same.
    DIGESTS = {
        "shift/crop=True": (
            "9f60718ccaf4c70b45f0cc06d7c53574c6466947b8b2b77cbadbe32214976902",
            "c85c0cb288f7741258a72bd1036820dec6004be39c54f323ed5afb7b8bb4a0dc",
            4,
        ),
        "shift/crop=False": (
            "635fddab7307f099b69e937a87cd6c870a7a6382d1a7f57d64bd6841f363e9ea",
            "3c59e12922ecd4ec6a683f56fa2e7376d137a068f55b7ba87fc1d5a2e097c248",
            4,
        ),
        "repeat/crop=True": (
            "f89f72970cc22d90600169456823e574ac37e5005102a8be533ada39896bc2d5",
            "172ee8e5c5cd6704db52b511be8610a3a9e5b54301ca8ef1dc6f0403fa8fefac",
            4,
        ),
        "repeat/crop=False": (
            "3d89bac8544d93135465a7ddefd7719f0e94db40c4249eb8d86ac189edfa0115",
            "bb09d22884532aa82f3f30af92da3c55668b18dd7b86716719eb44e090974d40",
            4,
        ),
        "roll/crop=True": (
            "9f60718ccaf4c70b45f0cc06d7c53574c6466947b8b2b77cbadbe32214976902",
            "c85c0cb288f7741258a72bd1036820dec6004be39c54f323ed5afb7b8bb4a0dc",
            4,
        ),
        "roll/crop=False": (
            "53a930ca91676e74c84a41f0c165cafd247f6caab4cd49563c0903890310ff20",
            "d1dd589ed2281fa470ed4185ff2c0df763c69db557ab363638994a6baa85494d",
            4,
        ),
        "tol": (
            "4d0f92bfc4b69b71633d34588b2418746d18ce27a3fb42c22c43b46ea7fb3002",
            "d1d8e111e23a829cf65f12439164a4036cec6a1f78ba8400495488f99e045b46",
            14,
        ),
        "x0=pinv": (
            "276ee86bfcb789c867b49bcc612ecb87e627b5fe2093323ef27a155a2eecf82a",
            "fcb939063b264c8886d35990bf65f835cb3659e656ac1c26f335558a5e590220",
            4,
        ),
    }

    @staticmethod
    def case(key, op, meas):
        """Solver config and x0 for ``key``; "init/crop=..." keys run 4 iterations."""
        if key == "tol":
            return SolverConfig(iterations=60, convergence_tol=1e-2), None
        if key == "x0=pinv":
            return SolverConfig(iterations=4), op.pinv(meas)
        head, crop = key.split("/crop=")
        cfg = SolverConfig(
            iterations=4,
            init=InitStrategy.from_name(head),
            crop_denoiser_input=crop == "True",
        )
        return cfg, None

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

    @pytest.mark.parametrize("init", ["roll", None, 0])
    def test_rejects_an_init_that_is_not_a_strategy(self, init):
        with pytest.raises(ValueError, match="init must be an InitStrategy"):
            SolverConfig(init=init)

    @pytest.mark.parametrize("weight", [1e-310, 1e-320, 5e-324])
    def test_rejects_tv_weight_whose_dual_step_overflows(self, weight):
        match = r"tv_weight must be 0 or .*1/\(8\*tv_weight\) is finite"
        with pytest.raises(ValueError, match=match):
            SolverConfig(tv_weight=weight)

    def test_takes_the_smallest_tv_weights_with_a_finite_step(self):
        for weight in (0.0, 7e-310, 1e-300):
            assert SolverConfig(tv_weight=weight).tv_weight == weight

    @pytest.mark.parametrize("name", ["tv_weight", "convergence_tol"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1"])
    def test_rejects_a_non_number_for_a_float_setting(self, name, value):
        # True would otherwise run as weight or tolerance 1.
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            SolverConfig(**{name: value})

    def test_takes_ints_and_numpy_floats_for_float_settings(self):
        cfg = SolverConfig(tv_weight=np.float32(0.25), convergence_tol=1)
        assert (cfg.tv_weight, cfg.convergence_tol) == (0.25, 1)

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
