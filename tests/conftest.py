import numpy as np
import pytest
from hypothesis import settings

from ewaldpot.core import ParticleSystem

# every property test runs the same examples on every run: derandomized,
# no example database, and no deadline, as call times vary with the machine
settings.register_profile("ewaldpot", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("ewaldpot")


def random_neutral_system(n: int, box, seed: int, spread: float = 0.5) -> ParticleSystem:
    """Seeded random system with exactly zero net charge.

    Charges come in +/- pairs of magnitudes in [0.5, 1.5]; positions are
    uniform in a centered sub-box of relative half-width `spread`.
    """
    if n % 2 != 0:
        raise ValueError("need an even particle count for paired neutrality")
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float)
    pos = (rng.uniform(-spread, spread, size=(n, 3))) * box[None, :]
    mags = rng.uniform(0.5, 1.5, size=n // 2)
    q = np.concatenate([mags, -mags])
    rng.shuffle(q)
    return ParticleSystem(pos, q, box)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
