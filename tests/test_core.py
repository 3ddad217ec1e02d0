import itertools
import math

import numpy as np
import pytest

from ewaldpot.core import (
    KGrid,
    ParticleSystem,
    Periodicity,
    PotentialResult,
    build_image_vectors,
    build_kgrid,
    default_params,
    default_xi,
    wrap_positions,
)

TWO_PI = 2.0 * np.pi


def test_wrap_periodic_axes_only():
    pos = [[1.7, 0.8, 2.3]]
    w2 = wrap_positions(pos, [1, 1, 1], Periodicity.P2)
    assert np.allclose(w2[0], [-0.3, -0.2, 2.3])
    w1 = wrap_positions(pos, [1, 1, 1], Periodicity.P1)
    assert np.allclose(w1[0], [1.7, 0.8, 0.3])
    w3 = wrap_positions(pos, [1, 1, 1], Periodicity.P3)
    assert np.all(np.abs(w3) <= 0.5)


def test_system_construction_errors():
    with pytest.raises(ValueError):
        ParticleSystem([[0, 0, 0]], [1.0, -1.0], [1, 1, 1])
    with pytest.raises(ValueError):
        ParticleSystem([[0, 0, 0]], [0.0], [1, 0.0, 1])
    with pytest.raises(ValueError):
        ParticleSystem([[0, 0, np.nan]], [0.0], [1, 1, 1])


def test_kgrid_p3_unit_vectors_only():
    # Euclidean-norm filter: k_max below sqrt(2) keeps exactly the axis vectors
    g = build_kgrid([TWO_PI] * 3, Periodicity.P3, 1.2)
    assert len(g) == 6
    vecs = sorted(tuple(np.round(v, 12)) for v in g.vectors)
    expected = sorted(
        [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 1.0, 0.0),
         (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]
    )
    assert vecs == expected
    # k_max = 1.5 additionally admits the 12 face diagonals (norm sqrt(2))
    g2 = build_kgrid([TWO_PI] * 3, Periodicity.P3, 1.5)
    assert len(g2) == 18


def test_kgrid_p2_example():
    g = build_kgrid([TWO_PI, TWO_PI, 5.0], Periodicity.P2, 1.0)
    assert len(g) == 4
    assert g.vectors.shape == (4, 2)
    norms = np.linalg.norm(g.vectors, axis=1)
    assert np.allclose(norms, 1.0)


def test_kgrid_p1_example():
    g = build_kgrid([3.0, 4.0, TWO_PI], Periodicity.P1, 2.5)
    assert sorted(np.round(g.vectors, 12)) == [-2.0, -1.0, 1.0, 2.0]


def test_kgrid_negation_closure(rng):
    for mode in Periodicity:
        box = rng.uniform(0.5, 3.0, size=3)
        g = build_kgrid(box, mode, k_max=25.0)
        vecs = np.atleast_2d(g.vectors.T).T
        as_set = {tuple(np.round(v, 12)) for v in vecs}
        neg_set = {tuple(np.round(-v, 12)) for v in vecs}
        assert as_set == neg_set
        assert len(as_set) == len(g)


def test_kgrid_monotone_nesting(rng):
    box = [1.0, 1.3, 0.7]
    for mode in Periodicity:
        small = build_kgrid(box, mode, k_max=11.0)
        big = build_kgrid(box, mode, k_max=19.0)
        s = {tuple(np.atleast_1d(v)) for v in small.vectors}
        b = {tuple(np.atleast_1d(v)) for v in big.vectors}
        assert s <= b


def test_kgrid_empty_is_legal():
    g = build_kgrid([1.0, 1.0, 1.0], Periodicity.P3, k_max=1e-3)
    assert len(g) == 0


def test_kgrid_deterministic_order():
    cases = [([1, 1, 1], Periodicity.P3)]
    cases += [([1.0, 1.3, 0.8], mode) for mode in Periodicity]
    for box, mode in cases:
        a = build_kgrid(box, mode, 40.0)
        b = build_kgrid(box, mode, 40.0)
        assert np.array_equal(a.vectors, b.vectors)
        # lexicographic by integer index, n_a = k_a L_a / 2 pi
        axes = list(mode.periodic_axes)
        vecs = a.vectors.reshape(len(a), len(axes))
        idx = np.round(vecs * np.asarray(box, float)[axes] / (2 * np.pi))
        assert all(tuple(idx[i]) < tuple(idx[i + 1])
                   for i in range(len(idx) - 1))


def test_image_vectors_p1_example():
    p = build_image_vectors([1, 1, 3.0], Periodicity.P1, layers=2)
    assert np.array_equal(p[0], [0.0, 0.0, 0.0])
    zs = sorted(p[:, 2])
    assert zs == [-6.0, -3.0, 0.0, 3.0, 6.0]
    # shell order: |z| nondecreasing
    shells = np.abs(p[:, 2])
    assert np.all(np.diff(shells) >= 0)


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_image_vectors_order(mode):
    # shells ascending, lexicographic by integer index within a shell: the
    # real-space sum adds its terms image by image in this order
    box = np.array([1.0, 1.3, 0.8])
    axes = list(mode.periodic_axes)
    idx = sorted(itertools.product(range(-2, 3), repeat=len(axes)),
                 key=lambda i: max(map(abs, i)))
    want = np.zeros((len(idx), 3))
    want[:, axes] = np.array(idx) * box[axes]
    assert build_image_vectors(box, mode, 2).tobytes() == want.tobytes()


def test_image_vectors_counts():
    assert len(build_image_vectors([1, 1, 1], Periodicity.P2, 1)) == 9
    assert len(build_image_vectors([1, 1, 1], Periodicity.P3, 1)) == 27
    assert len(build_image_vectors([1, 1, 1], Periodicity.P3, 0)) == 1


def test_image_shell_partial_sums_permutation_invariant(rng):
    """Whole-shell partial sums do not depend on ordering within a shell."""
    box = [1.0, 1.0, 1.0]
    p = build_image_vectors(box, Periodicity.P3, 2)
    shells = np.max(np.abs(np.round(p).astype(int)), axis=1)
    weights = 1.0 / (1.0 + np.sum((p + 0.123) ** 2, axis=1))  # arbitrary smooth term
    for s in np.unique(shells):
        members = np.where(shells == s)[0]
        total = weights[members].sum()
        perm = rng.permutation(members)
        assert np.isclose(weights[perm].sum(), total, rtol=0, atol=5e-16 * len(members))


def test_default_params_balance():
    p = default_params([1, 1, 1], Periodicity.P3)
    assert p.xi == pytest.approx(8.0)
    assert np.isclose(np.e ** (-0.25 * (p.k_max / p.xi) ** 2), 1e-14, rtol=1e-6)
    import math

    assert math.erfc(p.xi * p.r_cut) <= 1e-14
    assert p.real_layers == 1
    assert p.check() == []


@pytest.mark.parametrize("kwargs, name", [
    ({"xi": 0.0}, "xi"), ({"xi": -1.0}, "xi"), ({"xi": math.nan}, "xi"),
    ({"xi": math.inf}, "xi"), ({"tol": 0.0}, "tol"), ({"tol": -1e-3}, "tol"),
    ({"tol": 1.0}, "tol"), ({"tol": 1.5}, "tol"), ({"tol": math.nan}, "tol"),
])
def test_default_params_rejects_bad_arguments(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        default_params([1.0, 1.0, 1.0], Periodicity.P3, **kwargs)


def test_default_params_p1_uses_periodic_length():
    p = default_params([50.0, 50.0, 2.0], Periodicity.P1)
    assert p.xi == pytest.approx(0.5)
    assert p.real_layers == 6


def test_default_params_p2_uses_smallest_periodic_length():
    p = default_params([3.0, 2.0, 0.5], Periodicity.P2)
    assert p.xi == pytest.approx(1.0)
    assert p.real_layers == 3


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
@pytest.mark.parametrize("box", [[1.0, 1.1, 0.9], [1.0, 3.0, 0.9],
                                 [3.0, 2.0, 0.5]])
def test_kgrid_nonempty_near_default_xi(box, mode):
    # the xi-invariance checks run down to 0.7 xi0 at tol 1e-14, and the
    # benchmark's reference at 0.75 xi0 with tol 1e-16: both must keep a
    # k-space sum to check
    for f, tol in ((0.7, 1e-14), (0.75, 1e-16)):
        par = default_params(box, mode, xi=f * default_xi(box, mode),
                             tol=tol)
        assert len(build_kgrid(box, mode, par.k_max)) > 0


def test_potential_result_component_sum(rng):
    real = rng.normal(size=4)
    kspace = rng.normal(size=4)
    zero = rng.normal(size=4)
    self_t = rng.normal(size=4)
    total = real + kspace + zero + self_t
    res = PotentialResult(total, real, kspace, zero, self_t)
    recomputed = res.real + res.kspace + res.zero_mode + res.self_term
    scale = np.max(np.abs(total)) + 1e-30
    assert np.max(np.abs(res.total - recomputed)) <= 1e-13 * scale
    assert set(res.components) == {"real", "kspace", "zero_mode", "self"}


def test_potential_result_rejects_nonfinite():
    with pytest.raises(ValueError):
        PotentialResult([np.inf], [0.0], [0.0], [0.0], [0.0])
