import hashlib
import importlib.util
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cassi import _pool
from cassi import (
    CodedAperture,
    HSICube,
    Measurement,
    SceneConfig,
    build_operator,
    gen_mask,
    repair_mask,
)

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def load_script(name: str, directory: str = "scripts"):
    """Import ``<directory>/<name>.py`` as a module, so a test can run the
    script's own protocol instead of a copy of it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, directory, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius-relative distance, absolute when the reference is zero."""
    scale = np.linalg.norm(b)
    diff = np.linalg.norm(np.asarray(a) - np.asarray(b))
    return float(diff if scale == 0.0 else diff / scale)


def sha256_of(data: np.ndarray) -> str:
    """Digest of the little-endian float64 bytes of ``data``."""
    return hashlib.sha256(np.ascontiguousarray(data, dtype="<f8").tobytes()).hexdigest()


def traced_peak(fn):
    """``(fn(), peak bytes traced by tracemalloc during the call)``."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def full_rank_mask(config: SceneConfig, density: float, seed: int) -> CodedAperture:
    """Bernoulli mask conditioned to build a full-row-rank operator."""
    return repair_mask(
        gen_mask(config.height, config.width, density, seed), config
    )


def make_operator(config: SceneConfig, density: float = 0.7, seed: int = 0):
    return build_operator(full_rank_mask(config, density, seed), config)


def random_cube(config: SceneConfig, seed: int) -> HSICube:
    rng = np.random.Generator(np.random.Philox(seed))
    h, w, c, _ = config.geometry
    return HSICube(config, rng.random((c, h, w)))


def random_meas(config: SceneConfig, seed: int) -> Measurement:
    rng = np.random.Generator(np.random.Philox(seed))
    return Measurement(
        config, rng.random((config.height, config.measurement_width()))
    )


@pytest.fixture
def tiny_config():
    return SceneConfig(2, 2, 2, 1)


@pytest.fixture
def tiny_ones_operator(tiny_config):
    mask = CodedAperture(np.ones((2, 2)))
    return build_operator(mask, tiny_config)


@pytest.fixture
def kernel_pool(monkeypatch):
    """``set_size(n)``: the band kernels run on a fresh pool of ``n`` workers
    for the rest of the test.  Pools made this way are shut down after it."""
    made = []

    def set_size(n: int) -> None:
        monkeypatch.setattr(_pool, "_pool_size", lambda: n)
        monkeypatch.setattr(_pool, "_pool", None)
        assert _pool.kernel_workers() == n
        made.append(_pool._pool[2])

    yield set_size
    for executor in made:
        executor.shutdown()
