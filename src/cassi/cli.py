"""Command-line surface: simulate, reconstruct, metrics, oracle-check,
bench, mask, export.

Exit codes (exhaustive):

* 0 - success
* 2 - parse, format, or dimension error (diagnostic on stderr)
* 3 - degenerate mask: some detector pixel receives no energy
* 4 - solver divergence (non-finite iterate)
* 5 - oracle-check tolerance breach

A batch ``reconstruct`` attempts every input, names each failed one, and
exits with the code of the first failure in command-line order.

Flags take precedence over config-file values, which take precedence over
defaults.  ``CASSI_THREADS`` caps the worker count used for batch
reconstruction; it never changes numerical results.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from ._pool import kernel_workers
from .core import (
    CodedAperture,
    HSICube,
    Measurement,
    SceneConfig,
    _int_at_least,
    _require_finite,
)
from .cubefile import _atomic_write, read_cube, write_cube, write_pgm
from .dense import build_dense, cube_to_vec, dense_pinv, meas_to_vec
from .errors import (
    CassiError,
    ConfigFileError,
    MaskDegenerate,
    NonFiniteValue,
)
from .operator import SensingOperator, build_operator
from .recon import (
    InitStrategy,
    SolverConfig,
    TvPrior,
    gap_solve_with_stats,
)
from .simulate import (
    NoiseSpec,
    _rng,
    add_shot_noise,
    crop_mask,
    gen_mask,
    repair_mask,
)
from .metrics import evaluate

_ORACLE_TOL = 1e-10

_CONFIG_KEYS: dict[str, type] = {
    "height": int,
    "width": int,
    "bands": int,
    "shift_step": int,
    "wavelengths": "floats",  # type: ignore[dict-item]
    "iterations": int,
    "tv_weight": float,
    "tv_inner_iterations": int,
    "init": str,
    "crop_denoiser_input": bool,
    "convergence_tol": float,
    "shot_bits": int,
    "seed": int,
    "full_scale": float,
}


def parse_run_config(path: str) -> dict:
    """Parse a ``key = value`` run-config file; unknown keys are rejected."""
    values: dict = {}
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        decoded = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are counted with universal newlines, as below.
        head = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
        lineno = head.count("\n") + 1
        raise ConfigFileError(
            f"{path}:{lineno}: not valid UTF-8: byte {data[exc.start]:#04x} "
            f"at byte offset {exc.start}"
        ) from None
    with io.StringIO(decoded, newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigFileError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigFileError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _CONFIG_KEYS[key]
            try:
                if kind is bool:
                    lowered = text.lower()
                    if lowered in ("true", "1", "yes", "on"):
                        values[key] = True
                    elif lowered in ("false", "0", "no", "off"):
                        values[key] = False
                    else:
                        raise ValueError(text)
                elif kind == "floats":
                    # An empty entry fails float(), so it is rejected.
                    values[key] = tuple(float(part) for part in text.split(","))
                else:
                    values[key] = kind(text)
            except ValueError:
                raise ConfigFileError(
                    f"{path}:{lineno}: bad value {text!r} for {key}"
                ) from None
    return values


def _resolve(name: str, flag_value, file_cfg: dict, default=None):
    if flag_value is not None:
        return flag_value
    if name in file_cfg:
        return file_cfg[name]
    return default


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _exit_status(exc: Exception) -> tuple[int, str] | None:
    """Documented exit code and message of a library error; None for an
    unexpected exception, which is left to propagate."""
    if isinstance(exc, MaskDegenerate):
        return 3, str(exc)
    if isinstance(exc, (CassiError, ValueError, OSError)):
        return 2, str(exc)
    return None


def _shift_step(args, file_cfg: dict) -> int:
    """The shift step from the flag or the config file, checked as
    :class:`SceneConfig` checks it, before any input is read."""
    d = _resolve("shift_step", args.shift_step, file_cfg)
    if d is None:
        raise ConfigFileError("shift step not given (flag or config file)")
    return _int_at_least(d, "shift_step", 1)


def _load_mask(path: str) -> CodedAperture:
    arr, _ = read_cube(path)
    if arr.shape[0] != 1:
        raise ConfigFileError(f"{path}: mask files must have C = 1, got {arr.shape[0]}")
    return CodedAperture(arr[0])


def _cross_check(file_cfg: dict, **derived: int) -> None:
    for key, value in derived.items():
        if key in file_cfg and file_cfg[key] != value:
            raise ConfigFileError(
                f"config file says {key} = {file_cfg[key]}, inputs imply {value}"
            )
    wavelengths = file_cfg.get("wavelengths")
    if wavelengths is not None and "bands" in derived:
        if len(wavelengths) != derived["bands"]:
            raise ConfigFileError(
                f"config file lists {len(wavelengths)} wavelengths for "
                f"{derived['bands']} bands"
            )


def _name_once(path: str, message: str) -> str:
    """``message`` naming ``path`` once: ``read_cube`` and the input checks
    lead with the path, and an ``OSError`` quotes it."""
    if message.startswith(f"{path}: ") or repr(path) in message:
        return message
    return f"{path}: {message}"


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


# --------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    file_cfg = parse_run_config(args.config) if args.config else {}
    d = _shift_step(args, file_cfg)
    cube_arr, _ = read_cube(args.cube)
    mask = _load_mask(args.mask)
    nc, h, w = cube_arr.shape
    _cross_check(file_cfg, height=h, width=w, bands=nc)
    config = SceneConfig(h, w, nc, d)
    op = build_operator(mask, config)
    # ``read_cube`` returns a fresh array of the config's shape: adopt it.
    _require_finite(cube_arr, "HSICube")
    meas = op.forward(HSICube._adopt(config, cube_arr))
    bits = _resolve("shot_bits", args.shot_noise_bits, file_cfg)
    if bits is not None:
        seed = _resolve("seed", args.seed, file_cfg, default=0)
        spec = NoiseSpec(
            shot_bits=bits, seed=seed, full_scale=file_cfg.get("full_scale")
        )
        meas = add_shot_noise(meas, spec)
    write_cube(args.out, meas.data, dtype=args.dtype)
    return 0


# --------------------------------------------------------------------------
# reconstruct


def _derive_recon_config(
    meas_plane: np.ndarray, mask: CodedAperture, d: int
) -> SceneConfig:
    h, wp = meas_plane.shape
    mh, mw = mask.height, mask.width
    if mh != h:
        raise ConfigFileError(
            f"measurement has {h} rows but mask has {mh}"
        )
    span = wp - mw
    if span < 0 or span % d != 0:
        raise ConfigFileError(
            f"measurement width {wp}, mask width {mw}, shift step {d}: "
            "band count (W' - W)/d + 1 is not a positive integer"
        )
    return SceneConfig(h, mw, span // d + 1, d)


def _reconstruct_one(op, meas, method, prior, scfg):
    stats = None
    if method == "pinv":
        x = op.pinv(meas)
    elif method == "gap-tv":
        x, stats = gap_solve_with_stats(op, meas, prior, scfg)
    elif method == "rnd-gap-tv":
        q, stats = gap_solve_with_stats(op, meas, prior, scfg)
        x = op.rnd_combine(meas, q)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigFileError(f"unknown method {method}")
    return x, stats


def cmd_reconstruct(args) -> int:
    # The output paths are checked before any input is read.
    meas_paths = args.meas
    multi = len(meas_paths) > 1
    if multi:
        if not os.path.isdir(args.out):
            raise ConfigFileError(
                f"--out must be an existing directory for {len(meas_paths)} inputs"
            )
        if args.report and not os.path.isdir(args.report):
            raise ConfigFileError("--report must be a directory for batch input")
        stems = [_stem(path) for path in meas_paths]
        repeated = sorted({stem for stem in stems if stems.count(stem) > 1})
        if repeated:
            raise ConfigFileError(
                f"inputs share the output stem(s) {', '.join(repeated)}; "
                "their results would overwrite each other"
            )
    else:
        for flag, path in (("--out", args.out), ("--report", args.report)):
            if path and os.path.isdir(path):
                raise ConfigFileError(
                    f"{flag} {path} is a directory; one input needs a file path"
                )

    file_cfg = parse_run_config(args.config) if args.config else {}
    d = _shift_step(args, file_cfg)
    mask = _load_mask(args.mask)

    # Pass on only what a flag or the config file gives: SolverConfig and
    # TvPrior own the defaults.
    flags = {
        "iterations": args.iters,
        "tv_weight": args.tv_weight,
        "init": args.init,
        "crop_denoiser_input": False if args.no_crop else None,
        "convergence_tol": args.tol,
    }
    given = {k: v for k in flags if (v := _resolve(k, flags[k], file_cfg)) is not None}
    if "init" in given:
        given["init"] = InitStrategy.from_name(given["init"])
    scfg = SolverConfig(**given)
    # The TV inner-iteration count belongs to the prior, which every input
    # shares.
    tv_iters = _resolve("tv_inner_iterations", args.tv_iters, file_cfg)
    try:
        prior = TvPrior() if tv_iters is None else TvPrior(tv_iters)
    except ValueError as exc:
        raise ConfigFileError(f"tv_inner_iterations: {exc}") from None

    # All inputs share the mask, so each geometry's operator is built once.
    operators: dict[SceneConfig, SensingOperator] = {}
    operators_lock = threading.Lock()

    def operator_for(config: SceneConfig) -> SensingOperator:
        with operators_lock:
            if config not in operators:
                operators[config] = build_operator(mask, config)
            return operators[config]

    def run(meas_path: str) -> tuple[int, str] | None:
        meas_arr, _ = read_cube(meas_path)
        if meas_arr.shape[0] != 1:
            raise ConfigFileError(
                f"{meas_path}: measurement files must have C = 1"
            )
        config = _derive_recon_config(meas_arr[0], mask, d)
        _cross_check(
            file_cfg,
            height=config.height,
            width=config.width,
            bands=config.bands,
        )
        op = operator_for(config)
        try:
            meas = Measurement(config, meas_arr[0])
        except NonFiniteValue as exc:
            raise NonFiniteValue(f"{meas_path}: {exc}") from None
        started = time.perf_counter()
        try:
            x, stats = _reconstruct_one(op, meas, args.method, prior, scfg)
        except NonFiniteValue as exc:
            return 4, f"solver diverged: {exc}"
        elapsed = time.perf_counter() - started
        if multi:
            out_path = os.path.join(args.out, f"{_stem(meas_path)}.recon.hsic")
        else:
            out_path = args.out
        write_cube(out_path, x.data, dtype=args.dtype)
        if args.report:
            resid = op.forward(x).data - meas.data
            r_inf = float(np.max(np.abs(resid)))
            y_inf = float(np.max(np.abs(meas.data)))
            pairs = [
                ("command", "reconstruct"),
                ("input", meas_path),
                ("output", out_path),
                ("method", args.method),
                ("height", config.height),
                ("width", config.width),
                ("bands", config.bands),
                ("shift_step", config.shift_step),
                ("iterations", scfg.iterations),
                ("tv_weight", repr(scfg.tv_weight)),
                ("tv_inner_iterations", prior.inner_iterations),
                ("init", scfg.init.value),
                ("crop_denoiser_input", str(scfg.crop_denoiser_input).lower()),
                ("convergence_tol", repr(scfg.convergence_tol)),
                ("residual_inf", repr(r_inf)),
                ("residual_inf_rel", repr(r_inf / y_inf if y_inf > 0 else r_inf)),
                ("residual_l2", repr(float(np.linalg.norm(resid)))),
                ("iterations_run", stats.iterations_run if stats else 0),
                (
                    "denoised_pixels_per_iteration",
                    stats.denoised_pixels_per_iteration if stats else 0,
                ),
                ("wall_time_s", repr(elapsed)),
            ]
            if multi:
                name = f"{_stem(meas_path)}.report.txt"
                report_path = os.path.join(args.report, name)
            else:
                report_path = args.report
            text = "".join(f"{k} {v}\n" for k, v in pairs)
            _atomic_write(report_path, text.encode("utf-8"))
        return None

    def attempt(meas_path: str) -> tuple[int, str] | None:
        try:
            return run(meas_path)
        except Exception as exc:
            status = _exit_status(exc)
            if status is None:
                raise
            return status

    if not multi:
        status = attempt(meas_paths[0])
        if status is None:
            return 0
        _fail(status[1])
        return status[0]

    # Every input is attempted; the exit code is that of the first failure
    # in command-line order.
    threads = os.environ.get("CASSI_THREADS", "1")
    try:
        workers = max(1, int(threads))
    except ValueError:
        raise ValueError(
            f"CASSI_THREADS must be an integer, got {threads!r}"
        ) from None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        statuses = list(pool.map(attempt, meas_paths))
    failed = [(path, s) for path, s in zip(meas_paths, statuses) if s is not None]
    for path, (_, message) in failed:
        _fail(_name_once(path, message))
    print(
        f"reconstructed {len(meas_paths) - len(failed)} of {len(meas_paths)} inputs",
        file=sys.stderr,
    )
    return failed[0][1][0] if failed else 0


# --------------------------------------------------------------------------
# metrics


def cmd_metrics(args) -> int:
    ref_arr, _ = read_cube(args.ref)
    test_arr, _ = read_cube(args.test)
    if ref_arr.shape != test_arr.shape:
        raise ConfigFileError(
            f"shape mismatch: {ref_arr.shape} vs {test_arr.shape}"
        )
    nc, h, w = ref_arr.shape
    config = SceneConfig(h, w, nc, 1)
    # ``read_cube`` returns fresh arrays of the config's shape: adopt them.
    _require_finite(ref_arr, "HSICube")
    _require_finite(test_arr, "HSICube")
    ref, test = HSICube._adopt(config, ref_arr), HSICube._adopt(config, test_arr)
    report = evaluate(ref, test)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "psnr_db": report.psnr_db,
                    "ssim": report.ssim,
                    "mse": report.mse,
                    "per_band_psnr": list(report.per_band_psnr),
                    "per_band_ssim": list(report.per_band_ssim),
                    "per_band_mse": list(report.per_band_mse),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print("band,psnr_db,ssim,mse")
        for c in range(nc):
            print(
                f"{c},{report.per_band_psnr[c]!r},"
                f"{report.per_band_ssim[c]!r},{report.per_band_mse[c]!r}"
            )
        print(f"mean,{report.psnr_db!r},{report.ssim!r},{report.mse!r}")
    return 0


# --------------------------------------------------------------------------
# oracle-check


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a - b)) / scale


def cmd_oracle_check(args) -> int:
    config = SceneConfig(args.height, args.width, args.bands, args.shift_step)
    rng = _rng(args.seed)
    mask = repair_mask(
        gen_mask(args.height, args.width, 0.7, seed=args.seed), config
    )
    op = build_operator(mask, config)

    dense = build_dense(op)
    dpinv = dense_pinv(dense)

    h, w, nc, _ = config.geometry
    wp = config.measurement_width()
    x = HSICube(config, rng.random((nc, h, w)))
    q = HSICube(config, rng.random((nc, h, w)))
    y = Measurement(config, rng.random((h, wp)))
    xv = cube_to_vec(x)
    qv = cube_to_vec(q)
    yv = meas_to_vec(y)

    errs = {
        "phi_apply": _rel_err(meas_to_vec(op.forward(x)), dense @ xv),
        "phi_t_apply": _rel_err(cube_to_vec(op.adjoint(y)), dense.T @ yv),
        "pinv_apply": _rel_err(cube_to_vec(op.pinv(y)), dpinv @ yv),
        "range_project": _rel_err(
            cube_to_vec(op.range_project(x)), dpinv @ (dense @ xv)
        ),
        "null_project": _rel_err(
            cube_to_vec(op.null_project(x)), xv - dpinv @ (dense @ xv)
        ),
        "rnd_combine": _rel_err(
            cube_to_vec(op.rnd_combine(y, q)),
            dpinv @ yv + qv - dpinv @ (dense @ qv),
        ),
    }
    for name, err in errs.items():
        print(f"{name}_rel_err {err:.3e}")
    worst = max(errs, key=errs.get)
    if errs[worst] > _ORACLE_TOL:
        _fail(
            f"{worst} exceeds tolerance: {errs[worst]:.3e} > {_ORACLE_TOL:.0e}"
        )
        return 5
    return 0


# --------------------------------------------------------------------------
# bench


def _percentile(sorted_ms: list[float], fraction: float) -> float:
    idx = min(len(sorted_ms) - 1, int(np.ceil(fraction * len(sorted_ms))) - 1)
    return sorted_ms[max(idx, 0)]


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    config = SceneConfig(args.height, args.width, args.bands, args.shift_step)
    mask = repair_mask(gen_mask(args.height, args.width, 0.5, seed=0), config)
    op = build_operator(mask, config)
    h, w, nc, _ = config.geometry
    cube = HSICube(config, _rng(7).random((nc, h, w)))
    meas = op.forward(cube)
    zero_q = HSICube(config, np.zeros((nc, h, w)))
    prior = TvPrior()

    targets = {
        "phi_apply": lambda: op.forward(cube),
        "pinv_apply": lambda: op.pinv(meas),
        "rnd_combine": lambda: op.rnd_combine(meas, zero_q),
        "tv_denoise": lambda: prior.denoise(cube, 0.1),
    }
    if h >= 11 and w >= 11:  # the SSIM window
        estimate = op.pinv(meas)
        targets["evaluate"] = lambda: evaluate(cube, estimate)
    # Times are kept as the millisecond values the text lines show.
    results: dict[str, int | float] = {
        "height": config.height,
        "width": config.width,
        "bands": config.bands,
        "shift_step": config.shift_step,
        "reps": args.reps,
        "operator_bytes": op.nbytes(),
        "kernel_workers": kernel_workers(),
    }
    for name, fn in targets.items():
        times = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        times.sort()
        if args.reps == 1:
            results[f"{name}_ms"] = round(times[0], 3)
        else:
            results[f"{name}_median_ms"] = round(times[len(times) // 2], 3)
            results[f"{name}_p95_ms"] = round(_percentile(times, 0.95), 3)
    if args.format == "json":
        print(json.dumps(results, indent=2))
    else:
        for key, value in results.items():
            text = f"{value:.3f}" if isinstance(value, float) else str(value)
            print(f"{key} {text}")
    return 0


# --------------------------------------------------------------------------
# mask


def cmd_mask_gen(args) -> int:
    mask = gen_mask(args.height, args.width, args.density, args.seed)
    if (args.full_rank_bands is None) != (args.full_rank_step is None):
        raise ConfigFileError(
            "--full-rank-bands and --full-rank-step must be given together"
        )
    if args.full_rank_bands is not None:
        config = SceneConfig(
            args.height, args.width, args.full_rank_bands, args.full_rank_step
        )
        mask = repair_mask(mask, config)
    write_cube(args.out, mask.data, dtype=args.dtype)
    return 0


def cmd_mask_crop(args) -> int:
    cropped = crop_mask(_load_mask(args.mask), args.size, args.seed)
    write_cube(args.out, cropped.data, dtype=args.dtype)
    return 0


# --------------------------------------------------------------------------
# export


def cmd_export(args) -> int:
    arr, _ = read_cube(args.cube)
    # The band and the values are checked before anything is created.
    if args.band is not None:
        if not 0 <= args.band < arr.shape[0]:
            raise ConfigFileError(f"band {args.band} outside [0, {arr.shape[0]})")
        arr = arr[args.band : args.band + 1]
    _require_finite(arr, f"{args.cube}: cube")
    os.makedirs(args.out_dir, exist_ok=True)
    first = args.band or 0
    for c, plane in enumerate(arr, start=first):
        write_pgm(os.path.join(args.out_dir, f"{args.prefix}band_{c:03d}.pgm"), plane)
    return 0


# --------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cassi`` argument parser, built once per process and shared by
    every :func:`main` call; parsing does not modify it."""
    parser = argparse.ArgumentParser(
        prog="cassi",
        description=(
            "Matrix-free simulation and reconstruction for coded-aperture "
            "snapshot spectral imaging."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="form a measurement from a cube and mask")
    p.add_argument("--cube", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--shift-step", type=int)
    p.add_argument("--shot-noise-bits", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="recover a cube from a measurement")
    p.add_argument("--meas", required=True, nargs="+")
    p.add_argument("--mask", required=True)
    p.add_argument("--shift-step", type=int)
    p.add_argument(
        "--method", required=True, choices=("pinv", "gap-tv", "rnd-gap-tv")
    )
    p.add_argument("--iters", type=int)
    p.add_argument("--tv-weight", type=float)
    p.add_argument("--tv-iters", type=int)
    p.add_argument("--init", choices=("shift", "repeat", "roll"))
    p.add_argument("--no-crop", action="store_true")
    p.add_argument("--tol", type=float)
    p.add_argument("--config")
    p.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("metrics", help="PSNR/SSIM between two cube files")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "oracle-check",
        help="compare the matrix-free operator with the dense SVD oracle",
    )
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--bands", type=int, required=True)
    p.add_argument("--shift-step", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser(
        "bench", help="time the operator kernels, the TV prox and evaluate"
    )
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--bands", type=int, required=True)
    p.add_argument("--shift-step", type=int, required=True)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("mask", help="generate or crop coded apertures")
    msub = p.add_subparsers(dest="mask_command", required=True)

    g = msub.add_parser("gen", help="seeded Bernoulli mask")
    g.add_argument("--height", type=int, required=True)
    g.add_argument("--width", type=int, required=True)
    g.add_argument("--density", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument(
        "--full-rank-bands",
        type=int,
        help="repair the mask so an operator with this band count builds",
    )
    g.add_argument("--full-rank-step", type=int)
    g.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_mask_gen)

    g = msub.add_parser("crop", help="seeded random square crop")
    g.add_argument("--mask", required=True)
    g.add_argument("--size", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_mask_crop)

    p = sub.add_parser("export", help="write bands as 8-bit PGM images")
    p.add_argument("--cube", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--band", type=int)
    p.add_argument("--prefix", default="")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        status = _exit_status(exc)
        if status is None:
            raise
        _fail(status[1])
        return status[0]


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
