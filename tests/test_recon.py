import gc
import itertools
import math
import tracemalloc
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cassi import (
    CodedAperture,
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


def per_band_start(meas, init):
    """The full-width start built band by band, as a loop of slices."""
    h, _, nc, d = meas.config.geometry
    y = meas.data
    wp = y.shape[1]
    z = np.empty((nc, h, wp))
    for c in range(nc):
        k = 0 if init is InitStrategy.REPEAT else d * c
        z[c, :, k:] = y[:, : wp - k]
        z[c, :, :k] = y[:, wp - k :] if init is InitStrategy.ROLL else 0.0
    return z


def support_start(meas, init):
    """The on-support cube of that start, read from the broadcast
    measurement: ``y[:, :W]`` in every band, or for REPEAT band c's own
    window ``y[:, d*c : d*c + W]``."""
    h, w, nc, d = meas.config.geometry
    bands = np.broadcast_to(meas.data, (nc, h, meas.data.shape[1]))
    support = _on_support(bands, d) if init is InitStrategy.REPEAT else bands[..., :w]
    return support.copy()


@st.composite
def start_cases(draw):
    """A measurement of H, W <= 9, C <= 6 and d <= 12 (so d > W occurs),
    whose values include -0.0, with every init and the crop on and off."""
    h, w, nc, d = (draw(st.integers(1, n)) for n in (9, 9, 6, 12))
    config = SceneConfig(h, w, nc, d)
    values = st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False)
    )
    data = draw(
        st.lists(values, min_size=h * config.measurement_width(),
                 max_size=h * config.measurement_width())
    )
    meas = Measurement(config, np.reshape(data, (h, config.measurement_width())))
    return meas, draw(st.sampled_from(list(InitStrategy))), draw(st.booleans())


class TestOneStart:
    @settings(max_examples=300)
    @given(start_cases())
    def test_equals_the_per_band_and_support_builders(self, case):
        # Bytes (signed zeros included) and shape, as a fresh array the
        # solver may update in place.
        meas, init, crop = case
        z = recon._start(meas, init, crop)
        want = support_start(meas, init) if crop else per_band_start(meas, init)
        assert z.shape == want.shape and z.tobytes() == want.tobytes()
        if crop:
            full = per_band_start(meas, init)
            assert z.tobytes() == _on_support(full, meas.config.shift_step).tobytes()
        assert z.flags.c_contiguous and z.flags.writeable
        assert not np.shares_memory(z, meas.data)

    def test_the_crop_is_off_by_default(self, tiny_config):
        meas = random_meas(tiny_config, 8)
        for init in InitStrategy:
            assert recon._start(meas, init).shape == (2, 2, 3)


class TestRollAndShiftUnderTheCrop:
    """Band c's on-support columns hold ``y[:, :W]`` in both starts, and
    with the crop on the solver reads only those, whatever the tol; the
    starts differ in the margins, which the solver reads with the crop off."""

    @pytest.mark.parametrize(
        "geometry", [(6, 5, 3, 1), (5, 7, 4, 2), (8, 4, 3, 3), (4, 3, 5, 3)]
    )
    def test_one_start_with_the_crop_two_without(self, geometry):
        config = SceneConfig(*geometry)
        op = make_operator(config, seed=61)
        meas = op.forward(random_cube(config, 62))

        def solve(init, crop, tol=0.0):
            cfg = SolverConfig(
                iterations=12, init=init, crop_denoiser_input=crop, convergence_tol=tol
            )
            q, stats = gap_solve_with_stats(op, meas, TvPrior(3), cfg)
            return q.data.tobytes(), stats.residual_l2

        roll, shift = InitStrategy.ROLL, InitStrategy.SHIFT
        # Equal residual traces mean equal iterations_run; a tol of 1e-2
        # stops the last geometry's solves after 2 of the 12 iterations.
        for tol in (0.0, 1e-2):
            assert solve(roll, True, tol) == solve(shift, True, tol)
        assert solve(roll, False)[0] != solve(shift, False)[0]


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
    x = np.zeros((q.shape[0], q.shape[1], p.shape[2]), dtype=p.dtype)
    x[:, :-1, :] += p
    x[:, 1:, :] -= p
    x[:, :, :-1] += q
    x[:, :, 1:] -= q
    return x


def band_exponents(f):
    """Per band, the ``k`` that the kernel runs ``2**k * f[c]`` at: 0 while
    the band's largest magnitude, rounded to float32, lies in [2**-64,
    2**64], else the one that puts it in [0.5, 1) (0 for a band of zeros
    or with a NaN or an infinity)."""
    ks = []
    for band in f:
        big = np.abs(band).max()
        with np.errstate(over="ignore"):
            m = big.astype(np.float32)
        if 2.0**-64 <= m <= 2.0**64 or not np.isfinite(big) or big == 0:
            ks.append(0)
        else:
            ks.append(-np.frexp(big)[1])
    return np.array(ks)[:, None, None]


def reference_tv_prox(f, lam, iters):
    """Whole-stack TV prox with fresh temporaries at every step: the
    arithmetic, in the order, that the blocked kernel must reproduce.  The
    duals are scaled by ``8*lam`` (``v = p / step``), so the field's
    differences are added straight into them.  The duals and the field are
    float32, the last ``f - div`` is float64, and a band runs as ``2**k *
    f`` with strength ``2**k * lam`` (:func:`band_exponents`), its
    divergence scaled back in float64.  A band whose bound rounds to 0 is
    copied."""
    ks = band_exponents(f)
    with np.errstate(over="ignore"):
        g = np.ldexp(f, ks).astype(np.float32)
        bound = (8.0 * np.ldexp(lam, ks)).astype(np.float32)
    p = np.zeros((f.shape[0], f.shape[1] - 1, f.shape[2]), dtype=np.float32)
    q = np.zeros((f.shape[0], f.shape[1], f.shape[2] - 1), dtype=np.float32)
    for _ in range(iters):
        x = g - _tv_div(p, q) * np.float32(0.125)
        p = np.clip(p + x[:, :-1, :] - x[:, 1:, :], -bound, bound)
        q = np.clip(q + x[:, :, :-1] - x[:, :, 1:], -bound, bound)
    div = (_tv_div(p, q) * np.float32(0.125)).astype(np.float64)
    return np.where(bound == 0, f, f - np.ldexp(div, -ks))


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
    @pytest.mark.parametrize("shape", [(40, 64, 64), (5, 181, 181)])
    def test_within_rounding_of_the_classical_step(self, shape, strength, iterations):
        # The scaled dual and the float32 workspace change only the
        # rounding, never the iteration.  The float32 cast of the input
        # moves it by half a unit (eps32 / 2 of max|f|), the dual step of
        # 1/8 does not amplify earlier errors, and each step's field and
        # duals round by a few half units more: 4 units of max(1, max|f|)
        # bound it (the worst of these cases is 1.4 units).
        c, h, w = shape
        assert _pool.row_block(c, 4 * h * w) < c  # really multi-block
        data = np.random.Generator(np.random.Philox(c * h)).random(shape)
        cube = HSICube(SceneConfig(h, w, c, 1), data)
        out = TvPrior(iterations).denoise(cube, strength)
        expected = classical_tv_prox(data, strength, iterations)
        bound = 4 * np.finfo(np.float32).eps * max(1.0, np.abs(data).max())
        assert np.abs(out.data - expected).max() <= bound


class TestTvOutputBytesPinned:
    """SHA-256 of output bytes; any rounding change in the kernel breaks
    these.  They were fixed again when the prox moved to the scaled dual
    (a last-bit change, at most 4.4e-16 after a 60-iteration RND solve),
    and when it moved to a float32 workspace (float32 rounding)."""

    RND_DIGESTS = {
        (0, True): "1b0cf7424a4fb2c60b4ed4abb76d96f76e0d8bb59951732e8f209e114381621e",
        (0, False): "0659d6197235a91f9592df6eaa3291e172cf753e755c0d919001ad30ba2511db",
        (1, True): "c7c7be4e0136fbe22f4b12087172c6fca7c3c372adb24fefa96e67a62c969d78",
        (1, False): "493133de60557b4f6a76828c5c29d8abe3bae4a014a5589d1e26b8bbb056d008",
    }
    TV_DIGESTS = {
        # blocks of 20 + 20 bands: several blocks
        (40, 64, 64): (
            "bd9a9e31d236f1eb343fe571e1b94f953d07b7a854b4eaf163c24ac2daa97f66"
        ),
        # blocks of 3 + 2 bands
        (5, 181, 181): (
            "c308aac7470297b73b6085d44dd9679b777b1ad3d0bc57ad926522785abf3ed8"
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
        assert _pool.row_block(c, 4 * h * w) < c  # really multi-block
        rng = np.random.Generator(np.random.Philox(2024))
        cube = HSICube(SceneConfig(h, w, c, 1), rng.random(shape))
        out = TvPrior(20).denoise(cube, 0.1)
        assert sha256_of(out.data) == self.TV_DIGESTS[shape]


class TestTvPowerOfTwoScale:
    """A band whose largest magnitude lies outside [2**-64, 2**64] runs
    scaled by a power of two.  Every step of the prox is equivariant under
    such a scale unless a value over- or underflows, so the output is
    bitwise ``2**k * prox(2**-k * f, 2**-k * lam)`` for any ``k`` that
    brings ``f`` into range, not only the kernel's own."""

    @staticmethod
    def stack(name):
        u = np.random.Generator(np.random.Philox(12)).random((3, 16, 16))
        if name == "checkerboard":  # its differences overflow float32
            return np.where(np.indices(u.shape).sum(axis=0) % 2, 3e38, -3e38)
        return {"large": 1e200, "small": 1e-300}[name] * u

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("relative", [0.01, 0.2])
    @pytest.mark.parametrize("name", ["large", "small", "checkerboard"])
    def test_equals_the_scaled_prox(self, name, relative):
        f = self.stack(name)
        top = float(np.abs(f).max())
        lam = relative * top
        k = math.frexp(top)[1] - 5  # 2**-k * f peaks in [16, 32)

        def prox(data, strength):
            c, h, w = data.shape
            cube = HSICube(SceneConfig(h, w, c, 1), data)
            return TvPrior(20).denoise(cube, strength).data

        got = prox(f, lam)
        want = np.ldexp(prox(np.ldexp(f, -k), math.ldexp(lam, -k)), k)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).all() and (got != f).any()


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


# Strengths whose float32 bound 8*lam sits at an edge: 2**-150 rounds to 0
# (the band is copied), the next double and 2**-149 to the smallest
# subnormal; 4.25e37 gives float32's largest value, and the half-way point
# above it rounds to infinity (the duals are never clipped), the double
# below it not.
TV_EDGE_STRENGTHS = [
    2.0**-153,
    float(np.nextafter(2.0**-153, 1.0)),
    2.0**-152,
    float(np.finfo(np.float32).max) / 8,
    float(np.nextafter((2 - 2.0**-24) * 2.0**124, 0.0)),
    (2 - 2.0**-24) * 2.0**124,
]


TV_INPUT_KINDS = [
    "signed zeros", "zeros among values", "plateaus", "negative", "tiny", "scales"
]


def at_tv_edge_strengths(test):
    """Run ``test`` at every edge strength on each kind of input, as a
    3x4x5 stack in blocks of one band."""
    for strength in TV_EDGE_STRENGTHS:
        for kind in TV_INPUT_KINDS:
            test = example(3, 4, 5, 80, 0, kind, strength, 4)(test)
    return test


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

    @at_tv_edge_strengths
    @given(
        st.integers(1, 6),
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(8, 3000),
        st.integers(0, 2**32 - 1),
        st.sampled_from(TV_INPUT_KINDS),
        st.one_of(st.floats(0.01, 0.5), st.sampled_from(TV_EDGE_STRENGTHS)),
        st.integers(1, 8),
    )
    @settings(max_examples=200)
    def test_signed_zeros_plateaus_and_negatives(
        self, c, h, w, budget, seed, kind, strength, iterations
    ):
        # The padded kernel adds and subtracts +0 pad terms; that is
        # bitwise neutral only while no partial sum is -0, so feed it the
        # inputs most likely to produce one.  Bands of different scales
        # share a block, each scaled on its own.
        rng = np.random.Generator(np.random.Philox(seed))
        shape = (c, h, w)
        if kind == "signed zeros":
            data = rng.choice([0.0, -0.0], shape)
        elif kind == "zeros among values":
            data = rng.choice([-0.0, 0.0, 0.25, -1.0, 1.0], shape)
        elif kind == "plateaus":
            data = rng.choice([-0.0, 0.0, 0.25, -1.0], (c, 1, 1)) * np.ones(shape)
            data[:, h // 2 :, :] = rng.choice([-0.0, 0.0, 0.5])
        elif kind == "negative":
            data = rng.normal(size=shape)
        elif kind == "tiny":
            data = rng.normal(size=shape) * 1e-300
        else:
            scale = rng.choice([1e-300, 1e-30, 1.0, 1e30, 1e200, 1e300], (c, 1, 1))
            data = rng.normal(size=shape) * scale
        with mock.patch.object(_pool, "BLOCK_BYTES", budget):
            assert_band_independent(shape, seed, strength, iterations, data)


class TestTvWorkspaceAlignment:
    @given(st.integers(1, 5), st.integers(1, 100), st.sampled_from([4, 8]))
    def test_rows_start_on_cache_lines(self, rows, n, itemsize):
        # Each buffer is one row of its own, whatever the allocator gives.
        a = [_pool.aligned(n, itemsize) for _ in range(rows)]
        for k, row in enumerate(a):
            assert row.shape == (n,) and row.dtype == np.dtype(f"f{itemsize}")
            assert row.flags.c_contiguous
            assert row.ctypes.data % _pool.ALIGN_BYTES == 0
            row[...] = k
        assert all((row == k).all() for k, row in enumerate(a))

    @pytest.mark.parametrize("shape", [(8, 32, 32), (5, 181, 181), (5, 7, 9)])
    def test_prox_works_in_aligned_rows(self, shape, kernel_pool):
        # Each span's dual iteration runs in its own slice of the one
        # float32 scratch block, laid out [f | x | lead, p, gap, q], so no
        # block's speed depends on where the allocator put it.  The kernel
        # relies on the lead and the gap staying +0.
        c, h, w = shape
        data = np.random.Generator(np.random.Philox(4)).random(shape)
        block = _pool.row_block(c, 4 * h * w)
        blocks = -(-c // block)
        cap = _pool.line_up(block * h * w, 4)
        lead = _pool.line_up(w, 4)
        run_band_spans = recon.run_band_spans

        def is_plus_zero(a):
            return bool((a == 0).all() and not np.signbit(a).any())

        for workers in (1, 2, 3):
            kernel_pool(workers)
            made = []

            def spans_spy(task, *args):
                def traced(lo, hi, ws):
                    made.append(((lo, hi), ws))
                    task(lo, hi, ws)

                run_band_spans(traced, *args)

            with mock.patch.object(recon, "run_band_spans", spans_spy):
                cube = HSICube(SceneConfig(h, w, c, 1), data)
                out = TvPrior(3).denoise(cube, 0.1)
            assert out.data.tobytes() == reference_tv_prox(data, 0.1, 3).tobytes()
            assert len(made) == min(workers, blocks)
            for (_, a), (_, b) in itertools.combinations(made, 2):
                assert not np.shares_memory(a, b)
            for (lo, hi), ws in made:
                assert ws.shape == (4 * cap + lead,) and ws.dtype == np.float32
                assert ws.ctypes.data % _pool.ALIGN_BYTES == 0
                f, x, dual = ws[:cap], ws[cap : 2 * cap], ws[2 * cap :]
                # The buffers hold the span's last block.
                bands = hi - lo - (hi - lo - 1) // block * block
                size = bands * h * w
                qo = lead + _pool.line_up(size, 4)
                for a in (f, x, dual[lead:], dual[qo:]):
                    assert a.ctypes.data % _pool.ALIGN_BYTES == 0
                assert is_plus_zero(dual[:lead])
                assert is_plus_zero(dual[lead + size : qo])
                assert is_plus_zero(
                    dual[lead : lead + size].reshape(bands, h, w)[:, -1, :]
                )
                assert is_plus_zero(dual[qo : qo + size].reshape(bands, h, w)[:, :, -1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_prox_allocates_one_workspace_per_span(self, workers, kernel_pool):
        # One output cube plus, per span, the four block-sized float32
        # working arrays (f, x, p, q): an allocation inside the dual loop,
        # or a block's finiteness mask (one byte a value), would add to that.
        kernel_pool(workers)
        c, h, w = 40, 64, 64
        block = _pool.row_block(c, 4 * h * w)
        assert block < c  # really multi-block
        spans = min(workers, -(-c // block))
        data = np.random.Generator(np.random.Philox(3)).random((c, h, w))
        cube = HSICube(SceneConfig(h, w, c, 1), data)
        out, peak = traced_peak(lambda: TvPrior(5).denoise(cube, 0.1))
        block_bytes = 4 * block * h * w
        # The leads, line padding and Python objects: about 6 KiB a span.
        slack = 16 * 1024
        assert peak <= out.data.nbytes + spans * (4 * block_bytes + slack)


class TestTvOnKernelPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "shape",
        [(3, 181, 181), (5, 256, 256), (40, 64, 64), (8, 32, 32), (1, 11, 11)],
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

    @pytest.mark.parametrize("crop", [True, False])
    @pytest.mark.parametrize("with_x0", [True, False])
    def test_the_loop_calls_no_blas(self, crop, with_x0, kernel_pool, monkeypatch):
        # A BLAS call would tie the output or the residual trace to the
        # library's thread count; numpy's BLAS-backed functions raise here.
        kernel_pool(2)
        config = SceneConfig(12, 10, 6, 2)
        op = make_operator(config, seed=17)
        meas = op.forward(random_cube(config, 18))
        x0 = op.pinv(meas) if with_x0 else None
        cfg = SolverConfig(iterations=3, crop_denoiser_input=crop, convergence_tol=1e-9)

        def refuse(*args, **kwargs):
            raise AssertionError("the GAP loop called BLAS")

        for module, name in [
            (np.linalg, "norm"), (np, "dot"), (np, "vdot"), (np, "inner"),
            (np, "matmul"), (np, "tensordot"), (np, "einsum"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        _, stats = gap_solve_with_stats(op, meas, TvPrior(3), cfg, x0=x0)
        assert stats.iterations_run == 3

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

    def test_measurement_of_another_geometry_rejected(self):
        _, op = self.config_op()
        from cassi import DimensionMismatch

        with pytest.raises(
            DimensionMismatch, match="^measurement geometry disagrees with operator$"
        ):
            gap_solve_with_stats(
                op,
                random_meas(SceneConfig(3, 3, 2, 1), 1),
                _IdentityPrior(),
                SolverConfig(iterations=2),
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_of_a_huge_measurement_is_finite(self):
        # The residual is about 1e184, so its sum of squares overflows.
        config = SceneConfig(8, 8, 3, 2)
        op = build_operator(CodedAperture(np.ones((8, 8))), config)
        meas = Measurement(config, np.linspace(0, 1e200, 96).reshape(8, 12))
        out, stats = gap_solve_with_stats(
            op, meas, TvPrior(), SolverConfig(iterations=2)
        )
        assert np.isfinite(out.data).all()
        assert len(stats.residual_l2) == 2
        assert all(0 < r < np.inf for r in stats.residual_l2)


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
    def test_subclass_that_overrides_denoise_is_called(self, crop):
        # Each iteration calls the override, and the solver keeps what it
        # returns: here every value is clamped to [0, 1].
        returned = []

        class ClampingTvPrior(TvPrior):
            def denoise(self, cube, strength):
                out = super().denoise(cube, strength)
                returned.append(np.clip(out.data, 0.0, 1.0))
                return HSICube._adopt(cube.config, returned[-1])

        config = SceneConfig(6, 5, 3, 2)
        op = make_operator(config, seed=45)
        meas = Measurement(config, 4.0 * op.forward(random_cube(config, 46)).data)
        cfg = SolverConfig(iterations=3, crop_denoiser_input=crop)
        out, _ = gap_solve_with_stats(op, meas, ClampingTvPrior(3), cfg)
        plain, _ = gap_solve_with_stats(op, meas, TvPrior(3), cfg)
        assert len(returned) == 3
        last = returned[-1] if crop else _on_support(returned[-1], config.shift_step)
        assert out.data.tobytes() == last.tobytes()
        assert out.data.max() <= 1.0 < plain.data.max()

    @pytest.mark.parametrize("crop", [True, False])
    def test_subclass_that_keeps_denoise_runs_in_place(self, crop, monkeypatch):
        # The prox writes each block back into the planes it reads, which
        # are the iterate's own; a copy path would hand it a fresh output.
        class NamedTvPrior(TvPrior):
            name = "tv"

        calls = []
        prox = recon._tv_prox_planes

        def spy(f, lam, iters, out):
            calls.append(f is out)
            return prox(f, lam, iters, out)

        config = SceneConfig(6, 5, 3, 2)
        op = make_operator(config, seed=45)
        meas = op.forward(random_cube(config, 46))
        cfg = SolverConfig(iterations=3, crop_denoiser_input=crop)
        plain, _ = gap_solve_with_stats(op, meas, TvPrior(3), cfg)
        monkeypatch.setattr(recon, "_tv_prox_planes", spy)
        sub, _ = gap_solve_with_stats(op, meas, NamedTvPrior(3), cfg)
        assert calls == [True] * 3
        assert sub.data.tobytes() == plain.data.tobytes()

    def test_prior_whose_denoise_is_an_instance_attribute(self):
        # Only the class is asked for ``denoise``; an object that carries it
        # as an attribute is an external prior.
        config = SceneConfig(6, 5, 3, 2)
        op = make_operator(config, seed=45)
        meas = op.forward(random_cube(config, 46))
        cfg = SolverConfig(iterations=3)
        prior = types.SimpleNamespace(denoise=TvPrior(3).denoise)
        out, _ = gap_solve_with_stats(op, meas, prior, cfg)
        plain, _ = gap_solve_with_stats(op, meas, TvPrior(3), cfg)
        assert out.data.tobytes() == plain.data.tobytes()

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
        # iterate (such as a recursive closure) would keep it alive.  The
        # iterate is the start: dispersed without the crop, else the
        # on-support cube, which is also the output.
        made = []
        start = recon._start

        def record(*args):
            z = start(*args)
            made.append(weakref.ref(z))
            return z

        monkeypatch.setattr(recon, "_start", record)
        config = SceneConfig(10, 8, 5, 2)
        op = make_operator(config, seed=41)
        meas = op.forward(random_cube(config, 42))
        cfg = SolverConfig(iterations=2, crop_denoiser_input=crop)
        enabled = gc.isenabled()
        gc.disable()
        try:
            out, _ = gap_solve_with_stats(op, meas, TvPrior(3), cfg)
            assert len(made) == 1  # one start per solve
            assert all(ref() is None or ref() is out.data for ref in made)
            assert (made[0]() is out.data) == crop
            output = weakref.ref(out.data)
            del out
            assert made and all(ref() is None for ref in made)
            assert output() is None
        finally:
            if enabled:
                gc.enable()


class TestFiniteChecksInChunks:
    """The zero-strength prox reads finiteness from each block's largest
    and smallest value, and the external-prior step and the operator's
    Gram check test it through ``core._all_finite``, so no
    ``np.isfinite`` call sees more than one chunk of values."""

    CHUNK = 64  # values

    def chunked(self, monkeypatch):
        monkeypatch.setattr(_pool, "BLOCK_BYTES", 8 * self.CHUNK)
        isfinite = np.isfinite

        def one_chunk(x, *args, **kwargs):
            assert np.size(x) <= self.CHUNK, "an array-sized finiteness mask"
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", one_chunk)

    @pytest.mark.parametrize("crop", [True, False])
    def test_no_check_builds_an_array_sized_mask(self, crop, monkeypatch):
        config = SceneConfig(9, 8, 3, 2)
        h, w, nc, _ = config.geometry
        assert nc * h * w > self.CHUNK
        op = make_operator(config, seed=45)
        mask = CodedAperture(op.mask)
        meas = op.forward(random_cube(config, 46))
        cube = random_cube(config, 47)
        cfg = SolverConfig(iterations=2, crop_denoiser_input=crop)
        want, _ = gap_solve_with_stats(op, meas, TvPrior(3), cfg)
        # Strength 0 is the kernel's zero-bound copy, bitwise, of bands
        # holding -0, a NaN, an infinity of either sign, or values beyond
        # float32's range (a band run scaled by a power of two).
        odd = np.concatenate([cube.data, cube.data])
        odd[0, ::2] = -0.0
        odd[1, 1, 1] = np.nan
        odd[2, 2, 2] = np.inf
        odd[3, 3, 3] = -np.inf
        odd[4] *= 1e300
        odd_cube = HSICube._adopt(SceneConfig(h, w, len(odd), 2), odd)
        with monkeypatch.context() as mp:
            self.chunked(mp)
            assert TvPrior(3).denoise(cube, 0.0).data.tobytes() == cube.data.tobytes()
            assert TvPrior(3).denoise(odd_cube, 0.0).data.tobytes() == odd.tobytes()
            finite = [
                recon._tv_prox_planes(band[None], 0.0, 3, np.empty((1, h, w)))
                for band in odd
            ]
            assert finite == [True, False, False, False, True, True]
            assert recon._tv_prox_planes(odd, 0.0, 3, np.empty_like(odd)) is False
            got, _ = gap_solve_with_stats(op, meas, _DelegatingPrior(TvPrior(3)), cfg)
            rebuilt = build_operator(mask, config)
        assert got.data.tobytes() == want.data.tobytes()
        assert rebuilt.inv_sigma.tobytes() == op.inv_sigma.tobytes()


class CallPeaks:
    """Under tracemalloc, the traced peak of each call of the functions
    wrapped with :meth:`wrap`, from the call's entry: all that is live then
    plus what the call adds.  A call resets tracemalloc's peak on entry and
    on exit, so :meth:`outside` is the peak of the run outside those calls."""

    def __init__(self, monkeypatch):
        self.monkeypatch, self.between = monkeypatch, []

    def wrap(self, module, name):
        """``[(result, peak)]`` of each call of ``module.name``."""
        calls = []
        fn = getattr(module, name)

        def traced(*args):
            self.between.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            result = fn(*args)
            calls.append((result, tracemalloc.get_traced_memory()[1]))
            tracemalloc.reset_peak()
            return result

        self.monkeypatch.setattr(module, name, traced)
        return calls

    def outside(self, peak):
        """The run's peak outside the wrapped calls, given the one traced
        after the last call."""
        return max([peak, *self.between])


def tv_workspaces(spans, block, h, w):
    """Bytes of ``spans`` TV workspaces of ``block`` (h, w) bands: four
    float32 block arrays (f, x, p, q) each, and 12 KiB for the lead, line
    padding and Python objects (7 to 8.5 KiB a span is used).  A block's
    finiteness mask, a byte a value, is 18 KiB at two 96x96 bands; at one
    band, 9 KiB, two spans' masks need not be live at once and would fit
    in the slack."""
    return spans * (4 * 4 * block * h * w + 12 * 1024)


class TestGapSolveMemory:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("crop", [True, False])
    def test_no_second_cube_beyond_the_iterate(
        self, crop, workers, kernel_pool, monkeypatch
    ):
        # TvPrior runs in place: no copy of what it sees and no output cube
        # (either one is a full cube).  A budget of two bands per block
        # keeps the TV workspaces small next to a cube.
        kernel_pool(workers)
        config = SceneConfig(96, 96, 16, 1)
        h, w, nc, _ = config.geometry
        wp = config.measurement_width()
        seen_w = w if crop else wp
        monkeypatch.setattr(_pool, "BLOCK_BYTES", 2 * 4 * h * seen_w)
        block = _pool.row_block(nc, 4 * h * seen_w)
        spans = min(workers, -(-nc // block))
        assert block == 2 and spans == workers
        op = make_operator(config, seed=5)
        meas = op.forward(random_cube(config, 6))
        cfg = SolverConfig(iterations=2, crop_denoiser_input=crop)
        peaks = CallPeaks(monkeypatch)
        prox = peaks.wrap(recon, "_tv_prox_planes")
        (out, _), peak = traced_peak(
            lambda: gap_solve_with_stats(op, meas, TvPrior(3), cfg)
        )
        iterate = 8 * nc * h * seen_w
        # During each prox call the iterate and the residual of the last
        # data step are all that is live beside the workspaces.
        residual = 8 * h * wp
        assert len(prox) == 2
        bound = iterate + residual + tv_workspaces(spans, block, h, seen_w)
        assert max(p for _, p in prox) <= bound
        # Outside them, no workspace: the residual, the next residual, a
        # forward image and the residual scaled by the Gram diagonal, and
        # without the crop the returned crop beside the iterate (with it,
        # the iterate is returned as it is).
        output = 0 if crop else out.data.nbytes
        assert peaks.outside(peak) <= iterate + output + 4 * residual

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

    # The x0 cases keep their "tol-workers" ids; the others add the start.
    CROPPED_CASES = [
        pytest.param(
            tol, workers, start,
            id=f"{tol}-{workers}" + ("" if start == "x0" else f"-{start.value}"),
        )
        for start in ["x0", *InitStrategy]
        for tol in (0.0, 1e-9)
        for workers in (1, 2)
    ]

    @pytest.mark.parametrize("tol, workers, start", CROPPED_CASES)
    def test_cropped_iterate_is_one_cube_and_the_output(
        self, tol, workers, start, kernel_pool, monkeypatch
    ):
        # With the crop the iterate is the on-support cube, started as a
        # copy of x0 or as the support of an InitStrategy start, and
        # returned as it is: no measurement-width array and no output copy.
        # A tolerance adds one cube, its copy of the last iterate.  Two
        # bands per block keep the TV workspaces small.
        kernel_pool(workers)
        config = SceneConfig(96, 96, 16, 1)
        h, w, nc, _ = config.geometry
        wp = config.measurement_width()
        monkeypatch.setattr(_pool, "BLOCK_BYTES", 2 * 4 * h * w)
        assert _pool.row_block(nc, 4 * h * w) == 2
        op = make_operator(config, seed=5)
        meas = op.forward(random_cube(config, 6))
        if start == "x0":
            x0, cfg = op.pinv(meas), SolverConfig(iterations=3, convergence_tol=tol)
        else:
            x0, cfg = None, SolverConfig(iterations=3, init=start, convergence_tol=tol)
        peaks = CallPeaks(monkeypatch)
        starts = peaks.wrap(recon, "_start")
        prox = peaks.wrap(recon, "_tv_prox_planes")
        (out, stats), peak = traced_peak(
            lambda: gap_solve_with_stats(op, meas, TvPrior(3), cfg, x0=x0)
        )
        assert stats.iterations_run == 3
        cube = 8 * nc * h * w
        residual = 8 * h * wp
        # The start is the output itself, built beside no array larger than
        # 4 KiB: never a (C, H, W') start, which a tolerance's extra cube
        # would hide from the peaks below.  x0's copy is not an
        # InitStrategy start.
        assert len(starts) == (start != "x0")
        for z, start_peak in starts:
            assert z is out.data and z.shape == (nc, h, w)
            assert start_peak <= cube + 4 * 1024
        stop = cube if tol > 0.0 else 0
        # During each prox call: the iterate, its copy under a tolerance
        # and the residual of the last data step beside the workspaces.
        assert len(prox) == 3
        bound = cube + stop + residual + tv_workspaces(workers, 2, h, w)
        assert max(p for _, p in prox) <= bound
        # Outside them, no workspace and four detector images (see the
        # test above).
        assert peaks.outside(peak) <= cube + stop + 4 * residual


def dispersed_gap_solve(op, meas, prior, cfg, x0=None):
    """The GAP-TV loop with the crop on, run on a dispersed (C, H, W')
    iterate: the margins keep the start, the prior sees the on-support
    view, and the stopping test reads that view alone."""
    d = op.config.shift_step
    z = recon._start(meas, cfg.init) if x0 is None else _shift(x0.data, d)
    support = _on_support(z, d)
    r = meas.data - recon._forward(op.mask, d, support)
    residuals = []
    for _ in range(cfg.iterations):
        prev = support.copy()
        op._add_pinv(support, r)
        assert recon._tv_prox_planes(
            support, cfg.tv_weight, prior.inner_iterations, support
        )
        r = meas.data - recon._forward(op.mask, d, support)
        residuals.append(recon._l2_norm(r))
        if cfg.convergence_tol > 0.0:
            scale = max(np.abs(prev).max(), np.finfo(float).tiny)
            if np.abs(support - prev).max() <= cfg.convergence_tol * scale:
                break
    return support.copy(), tuple(residuals)


class TestCroppedIterateMatchesTheDispersedOne:
    # Tolerances of 1e-2 to 0.1 stop some of these solves early; the scale
    # is the on-support maximum, so a reference that read the margins would
    # stop some of them sooner.
    @settings(max_examples=100)
    @given(
        operator_configs(),
        st.sampled_from(list(InitStrategy)),
        st.booleans(),
        st.sampled_from([0.0, 1e-2, 3e-2, 0.1]),
        st.integers(1, 12),
    )
    def test_same_bytes_residuals_and_stop(self, case, init, with_x0, tol, iterations):
        config, seed = case
        op = make_operator(config, seed=seed)
        meas = op.forward(random_cube(config, seed + 1))
        x0 = op.pinv(meas) if with_x0 else None
        cfg = SolverConfig(iterations=iterations, init=init, convergence_tol=tol)
        prior = TvPrior(3)
        out, stats = gap_solve_with_stats(op, meas, prior, cfg, x0=x0)
        want, residuals = dispersed_gap_solve(op, meas, prior, cfg, x0)
        assert out.data.tobytes() == want.tobytes()
        assert stats.residual_l2 == residuals  # so iterations_run agrees too


class TestGapSolveBytesPinned:
    """SHA-256 of the solver output and of its residual trace, fixed again
    when the TV prox moved to the scaled dual.  The residual traces were
    re-pinned when ``_l2_norm`` moved from BLAS to numpy's pairwise sum
    (last-bit changes only), and the tol case when its stopping scale
    stopped counting the start's off-support columns under the crop.  All
    were fixed again when the prox moved to a float32 workspace, with the
    same iteration counts."""

    # The shift and roll inits agree on the band support, so with the crop
    # their outputs are the same.
    DIGESTS = {
        "shift/crop=True": (
            "7296977136a9eb1b39b4bdfc4e16a1185e8ac65395b78b39681122cb3b82a6f1",
            "9737e1f490df1a83535fbc5afb6fe0e6f3952d6fa7f74ab569eb904220dd2d18",
            4,
        ),
        "shift/crop=False": (
            "888190cbd71598e51e3b46e7ed798fa332417b186cbe6c0705df7a679e412209",
            "f142a474244e304c2e36ea67d4f83324f7402f63c2e805985c62f7ae820f5b73",
            4,
        ),
        "repeat/crop=True": (
            "2d6fb8132f89aaf1dfca9b50622bbaf2851e3cc729e093f797a86a358045a869",
            "6715950cf3203f1b875d5932a5e9b68dbfc6c53203d88829a2c98337391c5a41",
            4,
        ),
        "repeat/crop=False": (
            "f06658cf846a69a7ac62acabccc1dce37bab6190319fca2c558335a6e953a587",
            "104dd9dfe09a1913946f0ae0c098927ab69d1a6dcb2a16ae06614ba2637ebd41",
            4,
        ),
        "roll/crop=True": (
            "7296977136a9eb1b39b4bdfc4e16a1185e8ac65395b78b39681122cb3b82a6f1",
            "9737e1f490df1a83535fbc5afb6fe0e6f3952d6fa7f74ab569eb904220dd2d18",
            4,
        ),
        "roll/crop=False": (
            "04b8ce8f6b4fd9436cc8277245cd03fc4eec46c53a05ab6ed9aabf571136c2b4",
            "2bd0a0613dcfb6fd8299fbf51c6ee12010a7ba72a42918fdbaf4e2a010db69ad",
            4,
        ),
        "tol": (
            "09f28db8c3098e4304130cba6787511fe925d86505ade75bc018170df961ab67",
            "d42796b63217c26a59210b424211532b66c0fa41587d66c08e62091de40a73df",
            29,
        ),
        "x0=pinv": (
            "b0a6913e886044be6a546fc3cf8198d9e9d43ba1c4d52cc87f976e6f068ca3dc",
            "a1c68d6a32c063ebbc4ecc0f3ace4074fa0c3faa2094eaebd945fa34f9ff17ef",
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
