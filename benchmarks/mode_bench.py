"""Time the full potential evaluation per periodicity mode and system size.

Runs ewald_potential for random neutral systems of increasing size, at the
sources and, for --map-sizes, on a 10**3 cell-centred map of points,
and reports the best wall time of --repeats calls after one untimed
warm-up call.  The parameters are default_params(box, mode, n=N, m=M), M
only off the sources.  Each row also gives xi * min periodic L, the image
and k-vector counts and, with --error, the digits of max|total| that agree
with a reference at 0.75 xi and tol = 1e-16.

Usage::

    python benchmarks/mode_bench.py [--sizes 32,128,512] [--modes 1p,2p,3p]
                                    [--map-sizes 64,512] [--error]
                                    [--repeats 3] [--seed 0]
"""

import argparse
import math
import time

import numpy as np

from ewaldpot import (
    EvalTargets,
    ParticleSystem,
    Periodicity,
    build_image_vectors,
    build_kgrid,
    default_params,
    ewald_potential,
)


#: map points per axis for --map-sizes
MAP_GRID = 10


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    box = np.array([1.0, 1.1, 0.9])
    pos = rng.uniform(0.05, 0.95, (n, 3)) * box
    q = rng.normal(size=n)
    q -= q.mean()
    return ParticleSystem(positions=pos, charges=q, box=box)


def grid_points(box, g):
    c = (np.arange(g) + 0.5) / g
    grid = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3) * box


def best_time(system, mode, params, targets, repeats):
    ewald_potential(system, mode, params, targets)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        ewald_potential(system, mode, params, targets)
        best = min(best, time.perf_counter() - t0)
    return best


def err_digits(system, mode, params, targets):
    total = ewald_potential(system, mode, params, targets).total
    ref_params = default_params(system.box, mode, xi=0.75 * params.xi, tol=1e-16)
    ref = ewald_potential(system, mode, ref_params, targets).total
    rel = np.abs(total - ref).max() / np.abs(ref).max()
    return -math.log10(max(rel, np.finfo(np.float64).eps))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="32,128,512")
    ap.add_argument("--modes", default="1p,2p,3p")
    ap.add_argument("--map-sizes", default="",
                    help="source counts evaluated on the point map, e.g. 64,512")
    ap.add_argument("--error", action="store_true")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sizes = [int(t) for t in args.sizes.split(",") if t]
    map_sizes = [int(t) for t in args.map_sizes.split(",") if t]
    modes = [m.strip().lower() for m in args.modes.split(",")]

    print(f"{'mode':4} {'N':>6} {'M':>6} {'xi*minL':>8} {'images':>6} "
          f"{'K':>7} {'time [s]':>10} {'digits':>6}")
    for mode_name in modes:
        mode = Periodicity(mode_name)
        runs = [(n, None) for n in sizes] + [(n, MAP_GRID ** 3) for n in map_sizes]
        for n, m in runs:
            system = random_system(n, args.seed)
            box = system.box
            targets = (EvalTargets.at_sources() if m is None
                       else EvalTargets.at_points(grid_points(box, MAP_GRID)))
            params = default_params(box, mode, n=n, m=m)
            min_l = min(box[a] for a in mode.periodic_axes)
            images = len(build_image_vectors(box, mode, params.real_layers))
            k = len(build_kgrid(box, mode, params.k_max))
            t = best_time(system, mode, params, targets, args.repeats)
            digits = (f"{err_digits(system, mode, params, targets):6.2f}"
                      if args.error else f"{'-':>6}")
            print(f"{mode_name:4} {n:>6} {m or n:>6} {params.xi * min_l:8.3f} "
                  f"{images:>6} {k:>7} {t:>10.4f} {digits}", flush=True)


if __name__ == "__main__":
    main()
