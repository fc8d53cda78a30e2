#!/usr/bin/env python3
"""Run the crop x init x wrapper ablation grid on the bundled synthetic suite.

Writes one CSV row per grid cell (mean PSNR/SSIM over the ten scenes plus
the per-iteration denoised-pixel count) and prints the table.  Everything is
seeded, so the output is reproducible byte for byte.  The acceptance suite's
criterion 6 runs the same grid through :func:`ablation_grid`.

Usage: python3 scripts/run_ablation.py [--iters N] [--out ablation.csv]
"""

import argparse
import csv
import sys

import numpy as np

from cassi import (
    InitStrategy,
    SolverConfig,
    TvPrior,
    build_operator,
    bundled_suite,
    evaluate,
    gap_solve_with_stats,
)


def ablation_grid(op, scenes, iterations=60, tv_weight=0.1):
    """Score every (crop, init, rnd) cell on ``scenes``.

    Each (crop, init) pair is solved once per scene; the iterate ``q`` scores
    the ``rnd=False`` cell and ``op.rnd_combine(y, q)`` the ``rnd=True`` one.
    Returns ``(grid, iterates)``: ``grid`` is ``{(crop, init name, rnd):
    (mean psnr_db, mean ssim, denoised pixels per iteration)}`` in CSV row
    order (crop, then init, then rnd), and ``iterates`` maps each ``(crop,
    init name)`` to its per-scene ``q``, in scene order.
    """
    prior = TvPrior(20)
    grid, iterates = {}, {}
    for crop in (False, True):
        for init in InitStrategy:
            cfg = SolverConfig(
                iterations=iterations,
                tv_weight=tv_weight,
                init=init,
                crop_denoiser_input=crop,
            )
            reports = {False: [], True: []}
            iterates[(crop, init.value)] = []
            for scene in scenes:
                y = op.forward(scene)
                q, stats = gap_solve_with_stats(op, y, prior, cfg)
                iterates[(crop, init.value)].append(q)
                reports[False].append(evaluate(scene, q))
                reports[True].append(evaluate(scene, op.rnd_combine(y, q)))
            for rnd in (False, True):
                grid[(crop, init.value, rnd)] = (
                    float(np.mean([r.psnr_db for r in reports[rnd]])),
                    float(np.mean([r.ssim for r in reports[rnd]])),
                    stats.denoised_pixels_per_iteration,
                )
    return grid, iterates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=60)
    parser.add_argument("--tv-weight", type=float, default=0.1)
    parser.add_argument("--out", default="ablation.csv")
    args = parser.parse_args(argv)

    config, mask, scenes = bundled_suite()
    op = build_operator(mask, config)
    grid, _ = ablation_grid(op, scenes, args.iters, args.tv_weight)

    rows = []
    for (crop, init, wrapper), (psnr_db, ssim, pixels) in grid.items():
        rows.append(
            {
                "crop": crop,
                "init": init,
                "rnd": wrapper,
                "psnr_db": round(psnr_db, 4),
                "ssim": round(ssim, 5),
                "denoised_pixels_per_iteration": pixels,
            }
        )
        print(
            f"crop={crop!s:5} init={init:6} rnd={wrapper!s:5} "
            f"psnr={rows[-1]['psnr_db']:7.3f} ssim={rows[-1]['ssim']:.4f} "
            f"pixels/iter={pixels}"
        )

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
