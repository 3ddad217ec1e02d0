"""Time the full potential evaluation per periodicity mode and system size.

Runs ewald_potential at the sources for random neutral systems of
increasing size and reports the best wall time of --repeats calls, after
one untimed warm-up call.

Usage::

    python benchmarks/mode_bench.py [--sizes 32,128,512] [--modes 1p,2p,3p]
                                    [--repeats 3] [--seed 0]
"""

import argparse
import time

import numpy as np

from ewaldpot import (
    EvalTargets,
    ParticleSystem,
    Periodicity,
    default_params,
    ewald_potential,
)


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    box = np.array([1.0, 1.1, 0.9])
    pos = rng.uniform(0.05, 0.95, (n, 3)) * box
    q = rng.normal(size=n)
    q -= q.mean()
    return ParticleSystem(positions=pos, charges=q, box=box)


def best_time(system, mode, params, repeats):
    ewald_potential(system, mode, params, EvalTargets.at_sources())
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        ewald_potential(system, mode, params, EvalTargets.at_sources())
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="32,128,512")
    ap.add_argument("--modes", default="1p,2p,3p")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sizes = [int(t) for t in args.sizes.split(",")]
    modes = [m.strip().lower() for m in args.modes.split(",")]

    print(f"{'mode':4} {'N':>6} {'time [s]':>12}")
    for mode_name in modes:
        mode = Periodicity(mode_name)
        for n in sizes:
            system = random_system(n, args.seed)
            params = default_params(system.box, mode)
            t = best_time(system, mode, params, args.repeats)
            print(f"{mode_name:4} {n:>6} {t:>12.4f}")


if __name__ == "__main__":
    main()
