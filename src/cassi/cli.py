"""Command-line surface: simulate, reconstruct, metrics, oracle-check,
bench, mask, export.

Exit codes (exhaustive):

* 0 - success
* 2 - parse, format, or dimension error (diagnostic on stderr)
* 3 - degenerate mask: some detector pixel receives no energy, too
  little to invert, or so much that it overflows
* 4 - the reconstruction is not finite (the solver diverged, or ``pinv``
  or the RND step overflowed)
* 5 - oracle-check tolerance breach

``reconstruct`` attempts every input, one after another in command-line
order on the calling thread, prints one ``error:`` line naming each failed
one, and exits with the code of the first failure.  No method writes a
cube or a report that is not finite.

Flags take precedence over config-file values, which take precedence over
defaults.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__
from ._pool import kernel_workers
from .core import (
    CodedAperture,
    HSICube,
    Measurement,
    SceneConfig,
    _int_at_least,
    _l2_norm,
    _require_finite,
)
from .cubefile import _atomic_write, read_cube, write_cube, write_pgm
from .dense import (
    _check_dense_size, build_dense, cube_to_vec, dense_pinv, meas_to_vec
)
from .errors import (
    CassiError,
    ConfigFileError,
    MaskDegenerate,
    NonFiniteValue,
)
from .operator import SensingOperator, build_operator
from .recon import (
    InitStrategy,
    SolveStats,
    SolverConfig,
    TvPrior,
    gap_solve_with_stats,
)
from .simulate import (
    NoiseSpec,
    _rng,
    _seed,
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


def _check_output(flag: str, path: str, batch: bool = False) -> None:
    """Refuse an output before any input is read, so no work is lost to a
    write that must fail.  A batch's ``path`` is a directory that must
    exist; a single output must not be a directory, and its parent must
    exist.  The directory written to must be writable.  A missing or
    unwritable directory raises the ``OSError`` the write would raise."""
    if batch:
        if not os.path.isdir(path):
            raise ConfigFileError(
                f"{flag} {path} must be an existing directory for batch input"
            )
        parent = path
    else:
        if os.path.isdir(path):
            raise ConfigFileError(
                f"{flag} {path} is a directory; one input needs a file path"
            )
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
    if not os.access(parent, os.W_OK | os.X_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)


def _file_key(path: str):
    """What two paths share when they name one file: the device and inode
    of an existing file (so hard links and symlinks match), else the
    resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _refuse_overwrite(
    outputs: list[tuple[str, str]], inputs: list[tuple[str, str]]
) -> None:
    """Refuse, before any input is read, an output (flag, path) that names
    the same file as an input or as another output: writing it would
    replace that file and still exit 0."""
    seen = {}
    for flag, path in inputs:
        seen.setdefault(_file_key(path), (flag, path))
    for flag, path in outputs:
        key = _file_key(path)
        if key in seen:
            raise ConfigFileError(
                f"{flag} {path} is the same file as {' '.join(seen[key])}"
            )
        seen[key] = (flag, path)


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


# --------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    _check_output("--out", args.out)
    inputs = [("--cube", args.cube), ("--mask", args.mask)]
    if args.config:
        inputs.append(("--config", args.config))
    _refuse_overwrite([("--out", args.out)], inputs)
    file_cfg = parse_run_config(args.config) if args.config else {}
    d = _shift_step(args, file_cfg)
    # The noise settings, the seed included whether or not noise is asked
    # for, are checked before any input is read.
    bits = _resolve("shot_bits", args.shot_noise_bits, file_cfg)
    seed = _seed(_resolve("seed", args.seed, file_cfg, default=0))
    spec = None
    if bits is not None:
        spec = NoiseSpec(
            shot_bits=bits, seed=seed, full_scale=file_cfg.get("full_scale")
        )
    cube_arr, _ = read_cube(args.cube)
    mask = _load_mask(args.mask)
    nc, h, w = cube_arr.shape
    _cross_check(file_cfg, height=h, width=w, bands=nc)
    config = SceneConfig(h, w, nc, d)
    op = build_operator(mask, config)
    # ``read_cube`` returns a fresh array of the config's shape: adopt it.
    # Every cube value reaches the image through a finite mask entry >= 0,
    # so a NaN or Inf in the cube makes the image non-finite: the image is
    # checked, and the cube only to name the cause.  A finite cube whose
    # image is not finite overflowed in the band sum, which the check
    # reports in place of numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        meas = op.forward(HSICube._adopt(config, cube_arr))
    try:
        _require_finite(meas.data, "Measurement")
    except NonFiniteValue:
        _require_finite(cube_arr, "HSICube")
        raise
    if spec is not None:
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
    """Reconstruct ``meas`` by ``method`` and check that the cube is finite.
    An overflow in any method raises ``NonFiniteValue``, here or in the
    solver's divergence guard, in place of numpy's warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "pinv":
            x, stats = op.pinv(meas), SolveStats((), 0)
        else:
            x, stats = gap_solve_with_stats(op, meas, prior, scfg)
            if method == "rnd-gap-tv":
                x = op.rnd_combine(meas, x)
    _require_finite(x.data, "reconstruction")
    return x, stats


def cmd_reconstruct(args) -> int:
    # The output paths are checked before any input is read, and no output
    # may replace an input or another output.
    multi = len(args.meas) > 1
    _check_output("--out", args.out, multi)
    if args.report:
        _check_output("--report", args.report, multi)
    # One (input, output, report) job per input.  A batch names each
    # input's files after its stem, so no two inputs may share one.
    if multi:
        stems = [_stem(path) for path in args.meas]
        repeated = sorted({stem for stem in stems if stems.count(stem) > 1})
        if repeated:
            raise ConfigFileError(
                f"inputs share the output stem(s) {', '.join(repeated)}; "
                "their results would overwrite each other"
            )
        jobs = [
            (path, os.path.join(args.out, f"{stem}.recon.hsic"),
             args.report and os.path.join(args.report, f"{stem}.report.txt"))
            for path, stem in zip(args.meas, stems)
        ]
    else:
        jobs = [(args.meas[0], args.out, args.report)]
    outputs = [("--out", out) for _, out, _ in jobs]
    outputs += [("--report", report) for _, _, report in jobs if report]
    inputs = [("--meas", path) for path in args.meas] + [("--mask", args.mask)]
    if args.config:
        inputs.append(("--config", args.config))
    _refuse_overwrite(outputs, inputs)

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

    def run(
        meas_path: str, out_path: str, report_path: str | None
    ) -> tuple[int, str] | None:
        # A non-finite reconstruction is returned as status 4; any other
        # failure raises.
        meas_arr, _ = read_cube(meas_path)
        if meas_arr.shape[0] != 1:
            raise ConfigFileError("measurement files must have C = 1")
        config = _derive_recon_config(meas_arr[0], mask, d)
        h, w, nc, _ = config.geometry
        _cross_check(file_cfg, height=h, width=w, bands=nc)
        if config not in operators:
            operators[config] = build_operator(mask, config)
        op = operators[config]
        # ``read_cube`` returns a fresh array of the config's shape: adopt it.
        _require_finite(meas_arr[0], "Measurement")
        meas = Measurement._adopt(config, meas_arr[0])
        started = time.perf_counter()
        try:
            x, stats = _reconstruct_one(op, meas, args.method, prior, scfg)
        except NonFiniteValue as exc:
            return 4, str(exc)
        elapsed = time.perf_counter() - started
        write_cube(out_path, x.data, dtype=args.dtype)
        if report_path:
            resid = op.forward(x).data - meas.data
            r_inf = float(np.max(np.abs(resid)))
            y_inf = float(np.max(np.abs(meas.data)))
            r_l2 = _l2_norm(resid)
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
                ("residual_l2", repr(r_l2)),
                ("iterations_run", stats.iterations_run),
                ("denoised_pixels_per_iteration", stats.denoised_pixels_per_iteration),
                ("wall_time_s", repr(elapsed)),
            ]
            text = "".join(f"{k} {v}\n" for k, v in pairs)
            _atomic_write(report_path, text.encode("utf-8"))
        return None

    # Every input is attempted in command-line order on this thread, so the
    # kernels alone spread over the CPUs; the exit code is that of the
    # first failure.
    failures = []
    for meas_path, out_path, report_path in jobs:
        try:
            status = run(meas_path, out_path, report_path)
        except Exception as exc:
            status = _exit_status(exc)
            if status is None:
                raise
        if status is not None:
            failures.append(status[0])
            _fail(_name_once(meas_path, status[1]))
    if multi:
        print(
            f"reconstructed {len(jobs) - len(failures)} of {len(jobs)} inputs",
            file=sys.stderr,
        )
    return failures[0] if failures else 0


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
    """``|a - b| / |b|`` in the package's one norm; ``|a - b|`` if ``|b|`` is 0."""
    scale, err = _l2_norm(b), _l2_norm(a - b)
    return err if scale == 0.0 else err / scale


def cmd_oracle_check(args) -> int:
    config = SceneConfig(args.height, args.width, args.bands, args.shift_step)
    rng = _rng(args.seed)
    # Refused from the geometry alone, before any array is built.
    _check_dense_size(config)
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
    estimate = op.pinv(meas)
    prior = TvPrior()
    solver = SolverConfig(iterations=4)

    targets = {
        "build_operator": lambda: build_operator(mask, config),
        "phi_apply": lambda: op.forward(cube),
        "adjoint_apply": lambda: op.adjoint(meas),
        "pinv_apply": lambda: op.pinv(meas),
        "rnd_combine": lambda: op.rnd_combine(meas, zero_q),
        "tv_denoise": lambda: prior.denoise(cube, 0.1),
        "gap_solve": lambda: gap_solve_with_stats(
            op, meas, prior, solver, x0=estimate
        ),
    }
    if h >= 11 and w >= 11:  # the SSIM window
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
    _check_output("--out", args.out)
    # The flags are checked before the mask, which may be large, is drawn.
    if (args.full_rank_bands is None) != (args.full_rank_step is None):
        raise ConfigFileError(
            "--full-rank-bands and --full-rank-step must be given together"
        )
    config = None
    if args.full_rank_bands is not None:
        config = SceneConfig(
            args.height, args.width, args.full_rank_bands, args.full_rank_step
        )
    mask = gen_mask(args.height, args.width, args.density, args.seed)
    if config is not None:
        mask = repair_mask(mask, config)
    write_cube(args.out, mask.data, dtype=args.dtype)
    return 0


def cmd_mask_crop(args) -> int:
    _check_output("--out", args.out)
    _refuse_overwrite([("--out", args.out)], [("--mask", args.mask)])
    cropped = crop_mask(_load_mask(args.mask), args.size, args.seed)
    write_cube(args.out, cropped.data, dtype=args.dtype)
    return 0


# --------------------------------------------------------------------------
# export


def cmd_export(args) -> int:
    # A separator in the prefix would put the images outside --out-dir,
    # where the scan below does not look.
    if any(sep and sep in args.prefix for sep in (os.sep, os.altsep)):
        raise ConfigFileError(
            f"--prefix {args.prefix!r} must not contain a path separator"
        )
    # Only a planned image that exists can be the cube, and the band count
    # is not known before the cube is read: every existing file named like
    # one of the images (just --band's, if given) counts as planned.
    image = re.compile(re.escape(args.prefix) + r"band_(\d{3}|[1-9]\d{3,})\.pgm")
    planned = []
    if os.path.isdir(args.out_dir):
        for name in os.listdir(args.out_dir):
            match = image.fullmatch(name)
            if match and args.band in (None, int(match[1])):
                planned.append(("--out-dir", os.path.join(args.out_dir, name)))
    _refuse_overwrite(planned, [("--cube", args.cube)])
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
        "bench",
        help="time the operator kernels, the TV prox, a GAP solve and evaluate",
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
