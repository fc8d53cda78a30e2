import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cassi import (
    CodedAperture,
    CropTooLarge,
    MaskDegenerate,
    Measurement,
    NegativeMeasurement,
    NoiseSpec,
    SceneConfig,
    add_shot_noise,
    build_operator,
    bundled_suite,
    crop_mask,
    gen_mask,
    gen_scene,
    repair_mask,
)

from conftest import gram_diagonal, sha256_of, traced_peak


class TestGenMask:
    def test_full_density_is_all_ones(self):
        mask = gen_mask(8, 8, 1.0, seed=0)
        np.testing.assert_array_equal(mask.data, np.ones((8, 8)))

    def test_deterministic_per_seed(self):
        a = gen_mask(16, 16, 0.5, seed=99)
        b = gen_mask(16, 16, 0.5, seed=99)
        assert np.array_equal(a.data, b.data)
        c = gen_mask(16, 16, 0.5, seed=100)
        assert not np.array_equal(a.data, c.data)

    def test_density_concentration_at_256(self):
        mask = gen_mask(256, 256, 0.5, seed=1)
        fraction = mask.data.mean()
        assert 0.47 <= fraction <= 0.53

    def test_values_are_binary(self):
        mask = gen_mask(10, 10, 0.3, seed=2)
        assert set(np.unique(mask.data)) <= {0.0, 1.0}

    def test_bad_density(self):
        with pytest.raises(ValueError):
            gen_mask(4, 4, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_mask(4, 4, 1.5, seed=0)

    @pytest.mark.parametrize("density", [True, np.True_, "0.5", None])
    def test_density_must_be_a_real_number(self, density):
        # True would otherwise count as density 1 and give an all-ones mask.
        with pytest.raises(ValueError, match="density must be a real number"):
            gen_mask(2, 2, density, 0)

    def test_full_density_never_degenerate(self):
        for d in (1, 2):
            for c in (1, 3, 5):
                config = SceneConfig(6, 6, c, d)
                build_operator(gen_mask(6, 6, 1.0, seed=0), config)


class TestCropMask:
    def test_identity_crop(self):
        mask = gen_mask(12, 12, 0.5, seed=5)
        cropped = crop_mask(mask, 12, seed=6)
        np.testing.assert_array_equal(cropped.data, mask.data)

    def test_deterministic_window(self):
        mask = gen_mask(40, 40, 0.5, seed=7)
        a = crop_mask(mask, 16, seed=8)
        b = crop_mask(mask, 16, seed=8)
        assert np.array_equal(a.data, b.data)

    def test_crop_of_ones_is_ones(self):
        cropped = crop_mask(gen_mask(20, 20, 1.0, seed=0), 8, seed=3)
        np.testing.assert_array_equal(cropped.data, np.ones((8, 8)))

    def test_too_large(self):
        with pytest.raises(CropTooLarge):
            crop_mask(gen_mask(8, 8, 0.5, seed=0), 9, seed=0)

    @pytest.mark.parametrize("size", [0, -1, -3])
    def test_non_positive_size_rejected(self, size):
        # Every seed: a negative size once sliced a (size - 1)-short window.
        for seed in range(8):
            with pytest.raises(ValueError, match="crop size must be >= 1"):
                crop_mask(gen_mask(8, 8, 0.5, seed=0), size, seed=seed)

    def test_window_is_contiguous_block(self):
        mask = CodedAperture(
            np.arange(36.0).reshape(6, 6) / 36.0
        )
        cropped = crop_mask(mask, 3, seed=11)
        found = False
        for r in range(4):
            for c in range(4):
                if np.array_equal(cropped.data, mask.data[r : r + 3, c : c + 3]):
                    found = True
        assert found


def _repaired_one_by_one(mask, config):
    """Reference: flip the starved pixels in a loop, one at a time."""
    _, w, nc, d = config.geometry
    data = mask.data.copy()
    for u, v in np.argwhere(gram_diagonal(mask.data, config) == 0.0):
        c_hi = min(int(v) // d, nc - 1)
        if v - d * c_hi < w:
            data[u, v - d * c_hi] = 1.0
    return data


def _seeded_call(name, seed):
    if name == "gen_mask":
        return gen_mask(4, 4, 0.5, seed)
    if name == "crop_mask":
        return crop_mask(gen_mask(6, 6, 0.5, 0), 3, seed)
    return gen_scene(SceneConfig(4, 4, 2, 1), 3, seed)


class TestSeedsAndCounts:
    @pytest.mark.parametrize("name", ["gen_mask", "crop_mask", "gen_scene"])
    @pytest.mark.parametrize(
        "seed, match",
        [
            (-1, "seed must be >= 0, got -1"),
            (2.5, "seed must be an integer"),
            (np.float64(3.0), "seed must be an integer"),
            (True, "seed must be an integer"),
        ],
        ids=["negative", "float", "numpy-float", "bool"],
    )
    def test_bad_seed_rejected_by_name(self, name, seed, match):
        with pytest.raises(ValueError, match=match):
            _seeded_call(name, seed)

    @pytest.mark.parametrize("name", ["gen_mask", "crop_mask", "gen_scene"])
    def test_numpy_integer_seed_is_the_same_stream(self, name):
        got = _seeded_call(name, np.uint32(11)).data
        assert got.tobytes() == _seeded_call(name, 11).data.tobytes()

    @pytest.mark.parametrize(
        "value", [2.5, np.float64(3.0), True], ids=["float", "numpy-float", "bool"]
    )
    def test_complexity_and_size_must_be_integers(self, value):
        with pytest.raises(ValueError, match="complexity must be an integer"):
            gen_scene(SceneConfig(4, 4, 2, 1), value, 0)
        with pytest.raises(ValueError, match="size must be an integer"):
            crop_mask(gen_mask(6, 6, 0.5, 0), value, 0)

    @pytest.mark.parametrize(
        "height, width, match",
        [
            (2.5, 4, "height must be an integer"),
            (True, 4, "height must be an integer"),
            (-1, 4, "height must be >= 1, got -1"),
            (4, 0, "width must be >= 1, got 0"),
        ],
        ids=["float", "bool", "negative-height", "zero-width"],
    )
    def test_mask_dimensions_checked_by_name(self, height, width, match):
        with pytest.raises(ValueError, match=match):
            gen_mask(height, width, 0.5, 0)

    def test_negative_complexity_rejected(self):
        with pytest.raises(ValueError, match="complexity must be >= 0, got -1"):
            gen_scene(SceneConfig(4, 4, 2, 1), -1, 0)

    def test_numpy_integer_complexity_and_size_accepted(self):
        config = SceneConfig(4, 4, 2, 1)
        scene = gen_scene(config, np.int64(3), 0)
        assert scene.data.tobytes() == gen_scene(config, 3, 0).data.tobytes()
        mask = gen_mask(6, 6, 0.5, 0)
        window = crop_mask(mask, np.int16(3), 4)
        assert window.data.tobytes() == crop_mask(mask, 3, 4).data.tobytes()


class TestRepairMask:
    @given(
        h=st.integers(1, 8),
        w=st.integers(1, 8),
        nc=st.integers(1, 5),
        d=st.integers(1, 4),
        density=st.sampled_from([0.1, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_one_by_one_reference(self, h, w, nc, d, density, seed):
        config = SceneConfig(h, w, nc, d)
        mask = gen_mask(h, w, density, seed)
        expected = _repaired_one_by_one(mask, config)
        np.testing.assert_array_equal(repair_mask(mask, config).data, expected)

    def test_valid_mask_unchanged(self):
        config = SceneConfig(6, 6, 2, 1)
        mask = gen_mask(6, 6, 1.0, seed=0)
        repaired = repair_mask(mask, config)
        np.testing.assert_array_equal(repaired.data, mask.data)

    def test_repaired_bernoulli_builds_at_255_scale(self):
        config = SceneConfig(64, 64, 8, 2)
        mask = gen_mask(64, 64, 0.5, seed=13)
        with pytest.raises(MaskDegenerate):
            build_operator(mask, config)
        build_operator(repair_mask(mask, config), config)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bright_mask_is_left_to_build_operator(self):
        # Every Gram entry overflows to Inf, which is not 0: nothing flips.
        config = SceneConfig(8, 8, 3, 2)
        bright = CodedAperture(np.full((8, 8), 1e200))
        repaired = repair_mask(bright, config)
        np.testing.assert_array_equal(repaired.data, bright.data)
        with pytest.raises(MaskDegenerate, match="overflows$"):
            build_operator(repaired, config)

    def test_repair_only_adds_energy(self):
        config = SceneConfig(16, 16, 4, 2)
        mask = gen_mask(16, 16, 0.5, seed=17)
        repaired = repair_mask(mask, config)
        assert (repaired.data >= mask.data).all()

    def test_adversarial_mask_still_reported_when_unfixable(self):
        # d > W leaves detector columns no band can reach; repair cannot
        # help and construction must still fail loudly.
        config = SceneConfig(2, 1, 2, 2)
        mask = repair_mask(gen_mask(2, 1, 1.0, seed=0), config)
        with pytest.raises(MaskDegenerate) as excinfo:
            build_operator(mask, config)
        assert excinfo.value.col == 1


def _painted_scene(config, complexity, seed):
    """Reference: paint each rectangle across every band of a full cube, in
    draw order, then clip the cube."""
    h, w, nc, _ = config.geometry
    rng = np.random.Generator(np.random.Philox(seed))
    cube = np.full((nc, h, w), 0.1 + 0.2 * rng.random())
    t = np.arange(nc) / max(nc - 1, 1)
    for _ in range(complexity):
        u0 = int(rng.integers(0, h))
        u1 = int(rng.integers(u0 + 1, h + 1))
        v0 = int(rng.integers(0, w))
        v1 = int(rng.integers(v0 + 1, w + 1))
        a0 = rng.random()
        a1, a2 = rng.uniform(-0.5, 0.5, size=2)
        profile = np.clip(a0 + a1 * t + a2 * t * t, 0.02, 0.98)
        cube[:, u0:u1, v0:v1] = profile[:, None, None]
    return np.clip(cube, 0.0, 1.0)


class TestGenScene:
    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        nc=st.integers(1, 6),
        complexity=st.sampled_from([0, 1, 5, 40, 255, 256, 300]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_bytes_equal_the_painted_reference(self, h, w, nc, complexity, seed):
        config = SceneConfig(h, w, nc, 1)
        cube = gen_scene(config, complexity, seed)
        expected = _painted_scene(config, complexity, seed)
        assert cube.data.tobytes() == expected.tobytes()

    def test_zero_complexity_is_constant(self):
        config = SceneConfig(8, 8, 3, 1)
        cube = gen_scene(config, 0, seed=21)
        assert np.unique(cube.data).size == 1

    def test_values_within_unit_interval(self):
        config = SceneConfig(16, 16, 6, 2)
        for seed in range(5):
            cube = gen_scene(config, 8, seed=seed)
            assert cube.data.min() >= 0.0
            assert cube.data.max() <= 1.0

    def test_deterministic(self):
        config = SceneConfig(12, 12, 4, 1)
        a = gen_scene(config, 5, seed=31)
        b = gen_scene(config, 5, seed=31)
        assert np.array_equal(a.data, b.data)

    def test_complexity_adds_structure(self):
        config = SceneConfig(16, 16, 4, 1)
        flat = gen_scene(config, 0, seed=41)
        busy = gen_scene(config, 6, seed=41)
        assert np.unique(busy.data).size > np.unique(flat.data).size

    # SHA-256 of the little-endian float64 bytes, keyed by
    # ((H, W, C, d), complexity, seed).  The seed-to-stream mapping is a
    # compatibility contract: these bytes must never change.  The cases cover
    # paper scale, no rectangles, one row, one column, one pixel and more
    # rectangles than a uint8 label can name.
    DIGESTS = {
        ((256, 256, 28, 2), 24, 230509746):
            "8c2d25d5d78d2def99252afc2298ccaf04d428697b7b60b4af7e8002823b4bba",
        ((8, 8, 3, 1), 0, 21):
            "459e3fcc894105c119b53d538950b1b246d1ece5447853c294cc1c78cd64e0b1",
        ((1, 17, 5, 2), 7, 3):
            "a8a5c23955ee3f5620108039cb426de46da3cf003264087623a00b6050c520f2",
        ((19, 1, 4, 1), 7, 4):
            "23eebbef1370c1766984a09bcfb6dcfbe69c8452be5603436f905b627999320b",
        ((1, 1, 1, 1), 3, 5):
            "ecd436e8fe25ccec3354fa7ef695be3b2abc253bf632d36d99347a795b58d0ed",
        ((20, 20, 4, 1), 300, 6):
            "b8d91e630f93f935394aebce7cb400b61d52938effd15368c45ddbf6efe4e711",
    }

    @pytest.mark.parametrize("geometry, complexity, seed", sorted(DIGESTS))
    def test_bytes_pinned(self, geometry, complexity, seed):
        cube = gen_scene(SceneConfig(*geometry), complexity, seed)
        assert sha256_of(cube.data) == self.DIGESTS[geometry, complexity, seed]

    def test_paper_scale_is_written_once(self):
        config = SceneConfig(256, 256, 28, 2)
        cube, peak = traced_peak(lambda: gen_scene(config, 24, seed=230509746))
        assert peak <= 1.1 * cube.data.nbytes
        assert cube.data.flags.c_contiguous
        assert not cube.data.flags.writeable


class TestAddShotNoise:
    def test_zero_measurement_stays_zero(self, tiny_config):
        meas = Measurement(tiny_config, np.zeros((2, 3)))
        noised = add_shot_noise(meas, NoiseSpec(shot_bits=11, seed=0))
        assert not noised.data.any()

    def test_negative_measurement_rejected(self, tiny_config):
        meas = Measurement(tiny_config, np.full((2, 3), -1.0))
        with pytest.raises(NegativeMeasurement):
            add_shot_noise(meas, NoiseSpec(shot_bits=11, seed=0))

    def test_deterministic_per_seed(self, tiny_config):
        meas = Measurement(tiny_config, np.full((2, 3), 0.5))
        a = add_shot_noise(meas, NoiseSpec(shot_bits=11, seed=5))
        b = add_shot_noise(meas, NoiseSpec(shot_bits=11, seed=5))
        assert np.array_equal(a.data, b.data)

    def test_mean_preserved_monte_carlo(self):
        # Averaging one pixel over 10k seeded draws recovers the input
        # within 1 percent (Poisson mean equals its parameter).
        config = SceneConfig(1, 1, 1, 1)
        meas = Measurement(config, np.array([[0.8]]))
        total = 0.0
        n = 10_000
        for seed in range(n):
            total += add_shot_noise(meas, NoiseSpec(shot_bits=11, seed=seed)).data[
                0, 0
            ]
        assert abs(total / n - 0.8) <= 0.01 * 0.8

    def test_more_bits_means_less_noise(self):
        config = SceneConfig(8, 8, 1, 1)
        rng = np.random.Generator(np.random.Philox(3))
        meas = Measurement(config, 0.2 + 0.8 * rng.random((8, 8)))

        def snr(bits):
            errs = []
            for seed in range(200):
                noised = add_shot_noise(meas, NoiseSpec(shot_bits=bits, seed=seed))
                errs.append(np.mean((noised.data - meas.data) ** 2))
            return float(np.mean(meas.data**2) / np.mean(errs))

        assert snr(14) > snr(8)

    def test_fixed_full_scale_alternative(self, tiny_config):
        meas = Measurement(tiny_config, np.full((2, 3), 0.25))
        spec = NoiseSpec(shot_bits=11, seed=9, full_scale=1.0)
        noised = add_shot_noise(meas, spec)
        # scaling is now (2^11 - 1) counts at intensity 1.0, independent of
        # the measurement peak
        counts = noised.data * (2**11 - 1)
        assert np.allclose(counts, np.round(counts))

    def test_bits_range_validated(self):
        with pytest.raises(ValueError):
            NoiseSpec(shot_bits=0, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(shot_bits=17, seed=0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"seed": -1}, "seed must be >= 0"),
            ({"full_scale": 0.0}, "full_scale must be finite and positive"),
            ({"full_scale": float("inf")}, "full_scale must be finite and positive"),
            ({"full_scale": float("nan")}, "full_scale must be finite and positive"),
            ({"full_scale": True}, "full_scale must be a real number"),
            ({"full_scale": np.True_}, "full_scale must be a real number"),
            ({"full_scale": "1.0"}, "full_scale must be a real number"),
        ],
    )
    def test_seed_and_full_scale_validated(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            NoiseSpec(**{"shot_bits": 11, "seed": 0, **kwargs})

    def test_full_scale_takes_ints_and_numpy_floats(self):
        for full_scale in (2, np.float32(2.5), np.int64(3)):
            assert NoiseSpec(11, 0, full_scale).full_scale == full_scale

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"shot_bits": 2.5, "seed": 0}, "shot_bits must be an integer"),
            ({"shot_bits": True, "seed": 0}, "shot_bits must be an integer"),
            ({"shot_bits": 8, "seed": 1.5}, "seed must be an integer"),
            ({"shot_bits": 8, "seed": False}, "seed must be an integer"),
        ],
    )
    def test_counts_must_be_integers(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            NoiseSpec(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        meas = Measurement(SceneConfig(2, 2, 1, 1), np.full((2, 2), 0.5))
        spec = NoiseSpec(shot_bits=np.int64(8), seed=np.uint32(3))
        expected = add_shot_noise(meas, NoiseSpec(shot_bits=8, seed=3))
        assert np.array_equal(add_shot_noise(meas, spec).data, expected.data)


class TestBundledSuite:
    def test_shape_and_determinism(self):
        config, mask, scenes = bundled_suite()
        assert config.geometry == (32, 32, 8, 2)
        assert len(scenes) == 10
        config2, mask2, scenes2 = bundled_suite()
        assert np.array_equal(mask.data, mask2.data)
        for a, b in zip(scenes, scenes2):
            assert np.array_equal(a.data, b.data)

    SCENE_DIGESTS = (
        "7bed4066e58a64edc003ef520049468847d2d21e4b362bc1922ff1b24d0b8d59",
        "39648223320b0a72ebc83be803bbc78fbe5e9dd65018034f64e233524e71594e",
        "945d819b43c533bcac6494caea4dde2c39dd673522eb0febf479d15b6e50b76c",
        "07b00557e692bf760b933473450d52377ce953ce64b1c177874a9dddd59f1fe9",
        "81a559a0eb82d866418b185fcd2bec1b83a070d33517a6b164ee63369a3d731c",
        "bb25f0509137ebc90c51c75b0406a1471bbc20b33c2634c11cb4a3b7c34f48f0",
        "37de7d2c163e587118782566e9fea0c019712fcb7c4823a205f5bd3ad41e1875",
        "72d8f8d276a09409af35a9207962eff2ff18029b4815670d401f29cfbc7692ad",
        "ca913c1a8787093d380c2cf575fddb2be02fecf5efbd177b0666ab686afd8b64",
        "84ae7407a0f5a33bb79390c9fb7d40f0097ec725f982907310755347493f3fe7",
    )

    def test_scene_bytes_pinned(self):
        _, _, scenes = bundled_suite()
        assert tuple(sha256_of(s.data) for s in scenes) == self.SCENE_DIGESTS

    def test_mask_builds_operator(self):
        config, mask, _ = bundled_suite()
        build_operator(mask, config)
