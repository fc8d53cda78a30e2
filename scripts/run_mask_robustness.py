#!/usr/bin/env python3
"""Mask-modulation robustness protocol on the bundled synthetic suite.

Generates one large Bernoulli mask, takes several seeded random crops at the
suite's scene size, reconstructs every suite scene with each cropped mask,
and reports the per-crop mean PSNR and the spread across crops.  The
acceptance suite's criterion 7 runs the same protocol through
:func:`crop_means`.

Usage: python3 scripts/run_mask_robustness.py [--crops N] [--big-size 660]
"""

import argparse
import sys

import numpy as np

from cassi import (
    SolverConfig,
    TvPrior,
    build_operator,
    bundled_suite,
    crop_mask,
    evaluate,
    gen_mask,
    repair_mask,
    rnd_reconstruct,
)


def crop_means(crops=3, big_size=660, density=0.5, seed=77):
    """Mean RND-GAP-TV PSNR over the bundled suite for each of ``crops``
    seeded, repaired crops of one ``big_size`` Bernoulli mask."""
    config, _, scenes = bundled_suite()
    big = gen_mask(big_size, big_size, density, seed=seed)
    prior = TvPrior(20)
    cfg = SolverConfig()

    means = []
    for k in range(crops):
        window = repair_mask(crop_mask(big, config.width, seed=100 + k), config)
        op = build_operator(window, config)
        values = [
            evaluate(
                scene, rnd_reconstruct(op, op.forward(scene), prior, cfg)
            ).psnr_db
            for scene in scenes
        ]
        means.append(float(np.mean(values)))
    return means


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--crops", type=int, default=3)
    parser.add_argument("--big-size", type=int, default=660)
    parser.add_argument("--density", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=77)
    args = parser.parse_args(argv)

    means = crop_means(args.crops, args.big_size, args.density, args.seed)
    for k, mean in enumerate(means):
        print(f"crop {k}: mean psnr {mean:.3f} dB")
    print(f"spread: std {float(np.std(means)):.3f} dB over {args.crops} crops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
