import itertools
import math
from dataclasses import replace

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


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_grid_and_images_check_their_truncation(mode):
    # the rules and messages of EwaldParams: k_max positive and finite,
    # layers a non-negative integer
    box = [1.0, 1.1, 0.9]
    for k_max in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match="^k_max must be positive and finite, got"):
            build_kgrid(box, mode, k_max)
    for layers in (1.5, -1, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match="^layers must be a non-negative integer"):
            build_image_vectors(box, mode, layers)
    assert np.array_equal(build_image_vectors(box, mode, 2.0),
                          build_image_vectors(box, mode, 2))


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
    # one Gaussian cut a = sqrt(ln(1/tol)) sets both tails to tol
    p = default_params([1, 1, 1], Periodicity.P3)
    assert p.xi == pytest.approx(6.0)
    assert math.exp(-(p.xi * p.r_cut) ** 2) == pytest.approx(1e-14, rel=1e-12)
    assert (math.exp(-0.25 * (p.k_max / p.xi) ** 2)
            == pytest.approx(1e-14, rel=1e-12))
    assert p.real_layers == 1
    assert p.check() == []


@pytest.mark.parametrize("tol", [1e-10, 1e-14, 1e-16])
@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_default_params_pass_their_own_check(mode, tol):
    # check() tests the cut default_params makes: the defaults pass at
    # every xi, and 1% short of the cut on either side warns
    box = [1.0, 1.1, 0.9]
    params = [default_params(box, mode, tol=tol, n=n, m=m)
              for n, m in ((None, None), (2, None), (64, 1000), (4096, None))]
    params += [default_params(box, mode, xi=xi, tol=tol)
               for xi in np.geomspace(0.01, 100.0, 97)]
    for p in params:
        assert p.check(tol) == [], p
        short_r = replace(p, r_cut=0.99 * p.r_cut).check(tol)
        short_k = replace(p, k_max=0.99 * p.k_max).check(tol)
        assert len(short_r) == 1 and "real-space" in short_r[0]
        assert len(short_k) == 1 and "k-space" in short_k[0]


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_default_xi_scales_as_the_sixth_root_of_n_eff(mode):
    # xi = c (n_eff / n_fit)^e / min periodic L, n_eff = n at the sources
    # and n m / (n + m) off them, c alone without n; e = 1/6 in 3p, 1/5 in
    # 2p, where real space costs M N / xi^2 once r_cut exceeds the slab,
    # and 1/4 in 1p, where real space costs M N / xi, not M N / xi^3
    box = [1.0, 1.1, 0.9]
    min_l = min(box[a] for a in mode.periodic_axes)
    c, n_fit, e = {Periodicity.P1: (0.7, 44, 1.0 / 4.0),
                   Periodicity.P2: (2.7, 64, 1.0 / 5.0),
                   Periodicity.P3: (6.0, 512, 1.0 / 6.0)}[mode]
    assert default_xi(box, mode) == c / min_l
    assert default_xi(box, mode, m=1000) == c / min_l
    for n, m in ((2, None), (64, None), (512, None), (4096, None),
                 (64, 1000), (512, 512), (1000, 3)):
        n_eff = n if m is None else n * m / (n + m)
        want = c * (n_eff / n_fit) ** e / min_l
        assert default_xi(box, mode, n=n, m=m) == pytest.approx(want, rel=1e-14)
        assert default_params(box, mode, n=n, m=m).xi == default_xi(box, mode, n, m)
    assert default_xi(box, mode, n=n_fit) == pytest.approx(c / min_l, rel=1e-15)
    grow = 2 ** round(1 / e)    # 64 in 3p, 32 in 2p, 16 in 1p
    assert (default_xi(box, mode, n=grow * n_fit)
            == pytest.approx(2.0 * c / min_l, rel=1e-14))
    for bad in ({"n": 0}, {"n": 4, "m": 0}):
        with pytest.raises(ValueError, match="^n and m must"):
            default_xi(box, mode, **bad)


@pytest.mark.parametrize("kwargs, name", [
    ({"xi": 0.0}, "xi"), ({"xi": -1.0}, "xi"), ({"xi": math.nan}, "xi"),
    ({"xi": math.inf}, "xi"), ({"tol": 0.0}, "tol"), ({"tol": -1e-3}, "tol"),
    ({"tol": 1.0}, "tol"), ({"tol": 1.5}, "tol"), ({"tol": math.nan}, "tol"),
])
def test_default_params_rejects_bad_arguments(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        default_params([1.0, 1.0, 1.0], Periodicity.P3, **kwargs)


def test_default_params_p1_uses_periodic_length():
    # c = 0.7 over L3 = 2 without n, and c (n / 44)^(1/4) with it; the
    # free lengths 50 play no part
    p = default_params([50.0, 50.0, 2.0], Periodicity.P1)
    assert p.xi == pytest.approx(0.35)
    assert p.real_layers == 9
    p = default_params([50.0, 50.0, 2.0], Periodicity.P1, n=704)
    assert p.xi == pytest.approx(0.7)
    assert p.real_layers == 5


def test_default_params_p2_uses_smallest_periodic_length():
    p = default_params([3.0, 2.0, 0.5], Periodicity.P2)
    assert p.xi == pytest.approx(1.35)
    assert p.real_layers == 3


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
@pytest.mark.parametrize("box", [[1.0, 1.1, 0.9], [1.0, 3.0, 0.9],
                                 [3.0, 2.0, 0.5]])
def test_kgrid_nonempty_near_default_xi(box, mode):
    # the xi-invariance checks must keep k-space sums to compare.  In 3p
    # and 2p they run down to 0.7 xi0 at tol 1e-14, and the benchmark's
    # reference at 0.75 xi0 with tol 1e-16.  In 1p the default c = 0.7
    # lies near pi / sqrt(ln(1/tol)) = 0.553, where the grid empties; the
    # 1p invariance test with k-space sums runs from c = 0.7 up, and the
    # benchmark's traced run indexes a vector of the default grid at
    # tol 1e-14
    xi0 = default_xi(box, mode)
    if mode is Periodicity.P1:
        cases = ((xi0, 1e-14),)
    else:
        cases = ((0.7 * xi0, 1e-14), (0.75 * xi0, 1e-16))
    for xi, tol in cases:
        par = default_params(box, mode, xi=xi, tol=tol)
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


def _kgrid_by_rows(box, mode, k_max):
    # build_kgrid's former construction over (P, d) rows: the nonzero test
    # and |k| by reductions along each row
    box = np.asarray(box, dtype=np.float64)
    axes = list(mode.periodic_axes)
    base = 2.0 * np.pi / box[axes]
    nmax = np.floor(k_max / base).astype(np.int64)
    idx = np.array(list(itertools.product(*(range(-n, n + 1)
                                            for n in nmax))), np.int64)
    idx = idx[np.any(idx != 0, axis=1)]
    vecs = idx * base[None, :]
    vecs = vecs[np.sqrt(np.sum(vecs * vecs, axis=1)) <= k_max]
    return vecs[:, 0] if mode is Periodicity.P1 else vecs


def test_kgrid_equals_the_row_construction_byte_for_byte():
    # build_kgrid forms k^2 as (kx^2 + ky^2) + kz^2 and the nonzero test
    # column by column; the vectors and their order are those of the
    # reductions along (P, d) rows, over random boxes, modes and k_max.
    # Every other k_max is the |k| of a lattice vector, as the rows form
    # it, so a vector sits on the cut and the order of k^2 shows
    rng = np.random.default_rng(56)
    for trial in range(120):
        mode = list(Periodicity)[trial % 3]
        box = rng.uniform(0.3, 3.0, size=3)
        k_max = rng.uniform(0.5, 40.0)
        if trial % 2:
            axes = list(mode.periodic_axes)
            n = rng.integers(1, 7, size=len(axes)) * rng.choice([-1, 1],
                                                                len(axes))
            k = n * (2.0 * np.pi / box[axes])
            k_max = float(np.sqrt(np.sum(k[None] * k[None], axis=1))[0])
        got = build_kgrid(box, mode, k_max).vectors
        want = _kgrid_by_rows(box, mode, k_max)
        assert got.shape == want.shape, (trial, box, k_max)
        assert got.tobytes() == want.tobytes(), (trial, box, k_max)
        assert got.flags.c_contiguous
