"""Tests for the Ewald decomposition components and their assembly."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from ewaldpot import kernels_numpy, oracle
from ewaldpot.core import (
    COINCIDE_RTOL,
    EwaldParams,
    KGrid,
    ParticleSystem,
    Periodicity,
    build_kgrid,
    default_params,
    default_xi,
)
from ewaldpot.ewald import (
    EvalTargets,
    _free_decay,
    ewald_potential,
    kspace_sum_1p,
    kspace_sum_2p,
    kspace_sum_3p,
    real_space_sum,
    self_term,
    zero_mode_1p,
    zero_mode_2p,
)
from ewaldpot.specfun import (
    EULER_GAMMA,
    expint_e1,
    g_screened,
)
from lattice_form import form, vectors


def _half_lattice(box, kvecs, xi):
    # the 3p half lattice of the grid kvecs and its Ewald weights, the
    # (vectors, weights) that kspace_3p sums over, as a vector list
    return vectors(Periodicity.P3, np.asarray(box), kvecs, np.zeros(0), xi)


# frozen in test_specfun against the quadrature oracle
E1_OF_1 = 0.21938393439552029
E1_OF_4 = 0.0037793524098489063


def make_system(positions, charges, box):
    return ParticleSystem(positions=np.asarray(positions, dtype=float),
                          charges=np.asarray(charges, dtype=float),
                          box=np.asarray(box, dtype=float))


def random_neutral(rng, n, box):
    pos = rng.uniform(0.05, 0.95, (n, 3)) * np.asarray(box)
    q = rng.normal(size=n)
    q -= q.mean()
    return make_system(pos, q, box)


# ------------------------------------------------------------- real space

def test_real_space_single_pair():
    d = 0.37
    s = make_system([[0.2, 0.3, 0.4], [0.2 + d, 0.3, 0.4]], [1.0, -1.0],
                    [2.0, 2.0, 2.0])
    xi = 1.4
    got = real_space_sum(s, Periodicity.P3, xi, 1e30, 0,
                         EvalTargets.at_sources())
    want = -math.erfc(xi * d) / d
    assert abs(got[0] - want) < 1e-15
    assert abs(got[1] - (+math.erfc(xi * d) / d)) < 1e-15


def test_real_space_screening_decay():
    # xi*d = 10: every term is erfc(10)-sized
    s = make_system([[0.2, 0.5, 0.5], [0.7, 0.5, 0.5]], [1.0, -1.0],
                    [1.0, 1.0, 1.0])
    got = real_space_sum(s, Periodicity.P3, 20.0, 1e30, 1,
                         EvalTargets.at_sources())
    assert np.all(np.abs(got) < 1e-40)


def test_real_space_layer_convergence():
    rng = np.random.default_rng(4)
    box = [1.0, 1.1, 1.3]
    s = random_neutral(rng, 4, box)
    xi = 2.0 / box[2]
    a = real_space_sum(s, Periodicity.P1, xi, 1e30, 3, EvalTargets.at_sources())
    b = real_space_sum(s, Periodicity.P1, xi, 1e30, 6, EvalTargets.at_sources())
    assert np.abs(a - b).max() < 1e-12


def test_real_space_overlapping_images_error():
    # particles exactly one period apart collapse onto each other
    s = make_system([[0.5, 0.5, 0.1], [0.5, 0.5, 1.1]], [1.0, -1.0],
                    [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        real_space_sum(s, Periodicity.P1, 1.0, 1e30, 2,
                       EvalTargets.at_sources())


def test_real_space_argument_checks():
    s = make_system([[0.2, 0.5, 0.5], [0.7, 0.5, 0.5]], [1.0, -1.0],
                    [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        real_space_sum(s, Periodicity.P3, -1.0, 1e30, 1,
                       EvalTargets.at_sources())
    bad = make_system([[0.2, 0.5, 0.5], [0.7, 0.5, 0.5]], [1.0, -0.5],
                      [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        real_space_sum(bad, Periodicity.P3, 1.0, 1e30, 1,
                       EvalTargets.at_sources())


# -------------------------------------------------------------- self term

def test_self_term_values():
    assert self_term(0.0, 2.3) == 0.0
    assert abs(self_term(1.0, math.sqrt(math.pi) / 2.0) + 1.0) < 1e-15
    assert abs(self_term(-2.0, 1.0) - 4.0 / math.sqrt(math.pi)) < 1e-15
    with pytest.raises(ValueError):
        self_term(1.0, 0.0)


def test_self_term_off_point_limit():
    # phi_at_source(x_m) = lim_{d->0} [phi(x_m + d) - q_m/d]: the self term
    # is exactly what the erfc expansion of the excluded pair leaves behind
    box = np.array([1.0, 1.0, 1.0])
    s = make_system([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]], [1.0, -1.0], box)
    par = default_params(box, Periodicity.P3)
    at_src = ewald_potential(s, Periodicity.P3, par,
                             EvalTargets.at_sources()).total
    delta = 1e-5 * box.min()
    for m in range(2):
        p = s.positions[m] + np.array([delta, 0.0, 0.0])
        off = ewald_potential(s, Periodicity.P3, par,
                              EvalTargets.at_points(p[None])).total[0]
        assert abs((off - s.charges[m] / delta) - at_src[m]) < 1e-5


# ---------------------------------------------------------------- 3P kspace

def test_kspace_3p_vanishing_structure_factor():
    # opposite charges at the same point cancel every Fourier amplitude
    s = make_system([[0.3, 0.4, 0.5], [0.3, 0.4, 0.5]], [1.0, -1.0],
                    [1.0, 1.0, 1.0])
    grid = build_kgrid(s.box, Periodicity.P3, 25.0)
    got = kspace_sum_3p(s, 2.0, grid, EvalTargets.at_points([[0.8, 0.8, 0.8]]))
    assert got[0] == 0.0


def test_kspace_3p_hand_built_pair():
    # +/-1 pair separated by L/2 along x, grid holding only k = (+-2pi/L, 0, 0)
    L, xi = 1.0, 1.3
    s = make_system([[0.1, 0.2, 0.3], [0.6, 0.2, 0.3]], [1.0, -1.0], [L, L, L])
    k = 2.0 * math.pi / L
    grid = KGrid(mode=Periodicity.P3,
                 vectors=np.array([[-k, 0.0, 0.0], [k, 0.0, 0.0]]))
    t = np.array([0.45, 0.75, 0.9])
    got = kspace_sum_3p(s, xi, grid, EvalTargets.at_points(t[None]))[0]
    w = 4.0 * math.pi / L ** 3 * math.exp(-k * k / (4 * xi * xi)) / (k * k)
    want = w * 2.0 * (math.cos(k * (t[0] - 0.1)) - math.cos(k * (t[0] - 0.6)))
    assert abs(got - want) < 1e-15


def test_kspace_3p_kmax_doubling():
    rng = np.random.default_rng(9)
    box = np.array([1.0, 1.0, 1.0])
    s = random_neutral(rng, 8, box)
    xi = 8.0 / box.max()
    kmax = 2.0 * xi * math.sqrt(-math.log(1e-14))
    a = kspace_sum_3p(s, xi, build_kgrid(box, Periodicity.P3, kmax),
                      EvalTargets.at_sources())
    b = kspace_sum_3p(s, xi, build_kgrid(box, Periodicity.P3, 2 * kmax),
                      EvalTargets.at_sources())
    assert np.abs(a - b).max() < 1e-10


@pytest.mark.parametrize("mode, vectors", [
    (Periodicity.P3, [[-6.0, 0.0, 0.0], [6.0, 0.0, 0.0], [0.0, 6.0, -6.0]]),
    (Periodicity.P1, [-6.0, 6.0, 12.0]),
    (Periodicity.P2, [[-6.0, 0.0], [6.0, 0.0], [6.0, 4.0]]),
    (Periodicity.P3, [[6.0, 0.0, -6.0], [-6.0, 0.0, 6.0], [6.0, 0.0, -6.0]]),
    (Periodicity.P1, [6.0, -6.0, 6.0]),
    (Periodicity.P2, [[6.0, 4.0], [6.0, 4.0], [-6.0, -4.0]]),
])
def test_kspace_rejects_grid_not_closed_under_negation(mode, vectors):
    # one vector lacks its negative: the half lattice of the k-space kernel
    # would silently sum something else.  In the last three grids every
    # vector's negative is there, but one k occurs twice and -k once: the
    # grid is closed as a set, not as a multiset
    rng = np.random.default_rng(23)
    s = random_neutral(rng, 4, np.array([1.0, 1.0, 1.0]))
    grid = KGrid(mode=mode, vectors=np.array(vectors))
    kspace_sum = {Periodicity.P3: kspace_sum_3p, Periodicity.P2: kspace_sum_2p,
                  Periodicity.P1: kspace_sum_1p}[mode]
    with pytest.raises(ValueError, match="closed under negation"):
        kspace_sum(s, 1.5, grid, EvalTargets.at_sources())


@pytest.mark.parametrize("mode, shape", [
    (Periodicity.P3, (0, 3)), (Periodicity.P2, (0, 2)), (Periodicity.P1, (0,)),
])
def test_kspace_empty_grid_passes_the_closure_check(mode, shape):
    # an empty grid is closed under negation; its sum is zero.  So is a
    # grid that holds k twice and -k twice, in no sorted order: its sum is
    # twice that of [k, -k]
    s = random_neutral(np.random.default_rng(31), 4, np.array([1.0, 1.0, 1.0]))
    kspace_sum = {Periodicity.P3: kspace_sum_3p, Periodicity.P2: kspace_sum_2p,
                  Periodicity.P1: kspace_sum_1p}[mode]
    at = EvalTargets.at_sources()
    got = kspace_sum(s, 1.5, KGrid(mode=mode, vectors=np.zeros(shape)), at)
    assert np.array_equal(got, np.zeros(4))
    k = np.arange(6.0, 6.0 + np.prod(shape[1:])).reshape(shape[1:])
    once = kspace_sum(s, 1.5, KGrid(mode=mode, vectors=np.array([k, -k])), at)
    twice = kspace_sum(s, 1.5, KGrid(mode=mode,
                                     vectors=np.array([-k, k, k, -k])), at)
    assert np.abs(once).max() > 0.0
    assert np.abs(twice - 2.0 * once).max() <= 1e-14 * np.abs(once).max()


@pytest.mark.parametrize("mode, vectors", [
    (Periodicity.P3, [[0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [-6.0, 0.0, 0.0]]),
    (Periodicity.P2, [[0.0, 0.0], [6.0, 0.0], [-6.0, 0.0]]),
    (Periodicity.P1, [0.0, 6.0, -6.0]),
])
def test_kspace_rejects_grid_holding_the_zero_vector(mode, vectors):
    # closed under negation, but k = 0 is the zero mode's, and 1/k^2 has no
    # value there
    s = random_neutral(np.random.default_rng(37), 4, np.array([1.0, 1.0, 1.0]))
    kspace_sum = {Periodicity.P3: kspace_sum_3p, Periodicity.P2: kspace_sum_2p,
                  Periodicity.P1: kspace_sum_1p}[mode]
    with pytest.raises(ValueError, match="zero vector"):
        kspace_sum(s, 1.5, KGrid(mode=mode, vectors=np.array(vectors)),
                   EvalTargets.at_sources())


def test_kspace_sum_3p_is_the_kernel_on_the_grid():
    # 3p has no free axis: its lattice is the grid itself, in grid order,
    # and the volume the box's, so the bytes are the kernel's on the half
    # of the grid that ewald keeps
    rng = np.random.default_rng(41)
    box = np.array([1.0, 1.3, 0.8])
    s = random_neutral(rng, 6, box)
    par = default_params(box, Periodicity.P3)
    kgrid = build_kgrid(box, Periodicity.P3, par.k_max)
    pts = rng.uniform(0.0, 1.0, (5, 3)) * box
    for targets, tpos, at_sources in (
            (EvalTargets.at_sources(), s.positions, True),
            (EvalTargets.at_points(pts), pts, False)):
        got = kspace_sum_3p(s, par.xi, kgrid, targets)
        want = kernels_numpy.kspace_3p(
            s.positions, s.charges, tpos,
            form(*_half_lattice(box, kgrid.vectors, par.xi), len(s.positions)),
            at_sources)
        assert got.tobytes() == want.tobytes()


def test_kspace_3p_hand_built_negation_closed_grid_matches_full_loop():
    # off-lattice vectors, closed under negation, with a zero leading
    # component in each position and in no particular order: the
    # half-lattice sum equals a plain loop over every vector
    rng = np.random.default_rng(29)
    box = np.array([1.2, 0.9, 1.0])
    s = random_neutral(rng, 5, box)
    vecs = [(0.0, 0.0, 4.3), (0.0, 0.0, -4.3), (0.0, 5.9, 0.0),
            (0.0, -5.9, 0.0), (3.7, 0.0, 2.2), (-3.7, 0.0, -2.2),
            (3.7, 0.0, -2.2), (-3.7, 0.0, 2.2)]
    order = rng.permutation(len(vecs))
    grid = KGrid(mode=Periodicity.P3, vectors=np.array(vecs)[order])
    xi, vol = 1.7, float(np.prod(box))
    pts = np.array([[0.4, 0.3, 0.5], [0.8, 0.1, 0.9]])
    for targets, tpos in ((EvalTargets.at_sources(), s.positions),
                          (EvalTargets.at_points(pts), pts)):
        got = kspace_sum_3p(s, xi, grid, targets)
        want = np.zeros(len(tpos))
        for k in vecs:
            k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
            w = 4.0 * math.pi / vol * math.exp(-k2 / (4 * xi * xi)) / k2
            for m, t in enumerate(tpos):
                for qn, x in zip(s.charges, s.positions):
                    ph = sum(k[a] * (t[a] - x[a]) for a in range(3))
                    want[m] += w * qn * math.cos(ph)
        assert np.abs(got - want).max() < 1e-13 * max(1.0,
                                                       np.abs(want).max())


# ---------------------------------------------------------------- 2P kspace

def test_kspace_2p_in_plane_reduction():
    # all charges and the target at z = 0: g reduces to 2 erfc(kbar/2xi)
    box = np.array([1.2, 0.9, 1.0])
    pos = np.array([[0.2, 0.3, 0.0], [0.9, 0.5, 0.0], [0.4, 0.8, 0.0]])
    q = np.array([1.0, -0.3, -0.7])
    s = make_system(pos, q, box)
    xi = 1.8
    grid = build_kgrid(box, Periodicity.P2, 14.0)
    t = np.array([0.55, 0.1, 0.0])
    got = kspace_sum_2p(s, xi, grid, EvalTargets.at_points(t[None]))[0]
    want = 0.0
    for kvec in grid.vectors:
        kb = math.hypot(kvec[0], kvec[1])
        for n in range(3):
            ph = (t[0] - pos[n, 0]) * kvec[0] + (t[1] - pos[n, 1]) * kvec[1]
            want += q[n] * math.cos(ph) / kb * 2.0 * math.erfc(kb / (2 * xi))
    want *= math.pi / (box[0] * box[1])
    assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_kspace_2p_z_reflection_symmetry():
    rng = np.random.default_rng(12)
    box = np.array([1.0, 1.1, 1.4])
    s = random_neutral(rng, 5, box)
    grid = build_kgrid(box, Periodicity.P2, 20.0)
    t = np.array([[0.3, 0.7, 0.55]])
    a = kspace_sum_2p(s, 1.5, grid, EvalTargets.at_points(t))
    refl = make_system(s.positions * [1, 1, -1], s.charges, box)
    b = kspace_sum_2p(refl, 1.5, grid, EvalTargets.at_points(t * [1, 1, -1]))
    assert np.abs(a - b).max() < 1e-14


def test_kspace_2p_matches_mode_quadrature():
    # each planar mode equals an explicit kappa_3 integral of the
    # Gaussian-screened interaction
    rng = np.random.default_rng(2)
    box = np.array([1.1, 1.0, 0.9])
    s = random_neutral(rng, 6, box)
    xi = 2.0
    grid = build_kgrid(box, Periodicity.P2, 12.0)
    pts = np.array([[0.4, 0.3, 0.5], [0.8, 0.9, 0.2]])
    got = kspace_sum_2p(s, xi, grid, EvalTargets.at_points(pts))
    want = np.zeros(len(pts))
    for kvec in grid.vectors:
        kb = math.hypot(kvec[0], kvec[1])
        for m in range(len(pts)):
            for n in range(len(s)):
                dz = pts[m, 2] - s.positions[n, 2]
                ph = ((pts[m, 0] - s.positions[n, 0]) * kvec[0]
                      + (pts[m, 1] - s.positions[n, 1]) * kvec[1])
                want[m] += (s.charges[n] * math.cos(ph)
                            * oracle.screened_mode_quadrature(kb, dz, xi))
    want *= 2.0 / (box[0] * box[1])
    assert np.abs(got - want).max() < 1e-8


def test_kspace_2p_at_sources_matches_general_path():
    # at the sources the kernel reuses the source tables; the general path
    # (the sources plus one extra target inside their z extent, so the
    # extended lattice is the same) computes them again, in the same order
    rng = np.random.default_rng(37)
    box = np.array([1.1, 0.9, 1.0])
    s = random_neutral(rng, 7, box)
    grid = build_kgrid(box, Periodicity.P2, 30.0)
    z = s.positions[:, 2]
    extra = [[0.31, 0.47, 0.5 * (z.min() + z.max())]]
    re = kspace_sum_2p(s, 2.0, grid, EvalTargets.at_sources())
    re_g = kspace_sum_2p(s, 2.0, grid, EvalTargets.at_points(
        np.vstack([s.positions, extra])))
    assert np.array_equal(re, re_g[:-1])


@pytest.mark.parametrize("mode", [Periodicity.P3, Periodicity.P1],
                         ids=lambda m: m.value)
def test_kspace_3p_at_sources_matches_general_path(mode):
    # the mode's extended lattice, as _kspace forms it, summed by kspace_3p
    # at the 512 sources (4 slices of pairs) and with the targets a copy of
    # the sources: the general path forms the target tables and every
    # product again, per column block, and gives the same bytes
    rng = np.random.default_rng(38)
    box = np.array([1.1, 0.9, 1.0])
    s = random_neutral(rng, 512, box)
    par = default_params(box, mode)
    kp = np.asarray(build_kgrid(box, mode, par.k_max).vectors, dtype=float)
    kp = kp[:, None] if kp.ndim == 1 else kp
    free = list(mode.free_axes)
    decay = _free_decay(par)
    reach = decay / math.sqrt((kp * kp).sum(axis=1).min())
    lengths = np.ptp(s.positions[:, free], axis=0) + reach
    kvecs, w = vectors(mode, box, kp, lengths, par.xi, decay)
    pos, q = s.positions, s.charges
    lattice = form(kvecs, w, len(pos))
    at = kernels_numpy.kspace_3p(pos, q, pos, lattice, True)
    general = kernels_numpy.kspace_3p(pos, q, pos.copy(), lattice, False)
    assert at.tobytes() == general.tobytes()


def _loop_2p(s, xi, vecs, tpos):
    # the planar k-space sum as a plain loop over every grid vector
    area = float(s.box[0] * s.box[1])
    want = np.zeros(len(tpos))
    for kx, ky in vecs:
        kb = math.hypot(kx, ky)
        for m, t in enumerate(tpos):
            for qn, x in zip(s.charges, s.positions):
                ph = kx * (t[0] - x[0]) + ky * (t[1] - x[1])
                want[m] += (math.pi / area / kb * qn * math.cos(ph)
                            * g_screened(kb, t[2] - x[2], xi))
    return want


def test_kspace_2p_accepts_grid_without_axis_flips():
    # closed under negation but not under the flip of one axis: the 2p sum
    # runs on the extended 3p lattice, which needs negation closure only
    rng = np.random.default_rng(8)
    box = np.array([1.0, 1.0, 1.0])
    s = random_neutral(rng, 4, box)
    vecs = [[-6.0, -4.0], [6.0, 4.0]]
    grid = KGrid(mode=Periodicity.P2, vectors=np.array(vecs))
    got = kspace_sum_2p(s, 1.5, grid, EvalTargets.at_sources())
    want = _loop_2p(s, 1.5, vecs, s.positions)
    assert np.abs(got - want).max() < 1e-13 * max(1.0, np.abs(want).max())


def test_kspace_2p_hand_built_flip_closed_grid_matches_full_loop():
    # off-lattice vectors, closed under each axis flip, in no particular
    # order: the sum on the extended lattice equals a plain loop over every
    # vector
    rng = np.random.default_rng(14)
    box = np.array([1.2, 0.9, 1.0])
    s = random_neutral(rng, 5, box)
    vecs = [(3.1, 4.7), (-3.1, 4.7), (3.1, -4.7), (-3.1, -4.7),
            (5.3, 0.0), (-5.3, 0.0), (0.0, 2.9), (0.0, -2.9),
            (7.7, 1.3), (-7.7, 1.3), (7.7, -1.3), (-7.7, -1.3)]
    order = rng.permutation(len(vecs))
    grid = KGrid(mode=Periodicity.P2, vectors=np.array(vecs)[order])
    xi = 1.7
    pts = np.array([[0.4, 0.3, 0.5], [0.8, 0.1, 1.4]])
    for targets, tpos in ((EvalTargets.at_sources(), s.positions),
                          (EvalTargets.at_points(pts), pts)):
        got = kspace_sum_2p(s, xi, grid, targets)
        want = _loop_2p(s, xi, vecs, tpos)
        assert np.abs(got - want).max() < 1e-13 * max(1.0,
                                                       np.abs(want).max())


# ---------------------------------------------------------------- 1P kspace

def test_kspace_1p_on_axis_reduction():
    # both charges share (x, y): every rho vanishes and each mode term
    # collapses to E1(k3^2/4xi^2)
    box = np.array([1.0, 1.0, 1.3])
    s = make_system([[0.5, 0.5, 0.2], [0.5, 0.5, 0.9]], [1.0, -1.0], box)
    xi = 1.6
    grid = build_kgrid(box, Periodicity.P1, 30.0)
    got = kspace_sum_1p(s, xi, grid, EvalTargets.at_sources())
    want = np.zeros(2)
    for k3 in grid.vectors:
        e1 = expint_e1(k3 * k3 / (4 * xi * xi))
        for m in range(2):
            for n in range(2):
                dz = s.positions[m, 2] - s.positions[n, 2]
                want[m] += s.charges[n] * math.cos(k3 * dz) * e1
    want /= box[2]
    assert np.abs(got - want).max() < 1e-13


def test_kspace_1p_rotation_invariance():
    rng = np.random.default_rng(6)
    box = np.array([1.0, 1.0, 1.2])
    s = random_neutral(rng, 4, box)
    grid = build_kgrid(box, Periodicity.P1, 25.0)
    t = np.array([[0.8, 0.1, 0.5]])
    a = kspace_sum_1p(s, 1.4, grid, EvalTargets.at_points(t))
    c, sn = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
    s2 = make_system(s.positions @ rot.T, s.charges, box)
    b = kspace_sum_1p(s2, 1.4, grid, EvalTargets.at_points(t @ rot.T))
    assert np.abs(a - b).max() < 1e-13


def test_kspace_1p_matches_2d_quadrature():
    # mode-by-mode against the planar Fourier integral of the screened kernel
    rng = np.random.default_rng(2)
    box = np.array([1.0, 1.0, 1.3])
    pos = rng.uniform(0.2, 0.8, (4, 3)) * box
    q = np.array([1.0, -0.4, -0.8, 0.2])
    s = make_system(pos, q, box)
    xi = 1.7
    grid = build_kgrid(box, Periodicity.P1, 15.0)
    got = kspace_sum_1p(s, xi, grid, EvalTargets.at_sources())
    want = np.zeros(4)
    for k3 in grid.vectors:
        if k3 <= 0.0:
            continue
        for m in range(4):
            for n in range(4):
                dz = pos[m, 2] - pos[n, 2]
                val = oracle.fourier_integral_2d_gaussian(
                    k3, pos[m, 0] - pos[n, 0], pos[m, 1] - pos[n, 1], xi)
                want[m] += q[n] * 2.0 * math.cos(k3 * dz) * val
    want /= math.pi * box[2]
    assert np.abs(got - want).max() < 1e-7


def test_kspace_3p_numpy_at_sources_matches_general_path():
    # the at-source path reuses the source tables; the general path (the
    # sources plus one extra target) computes them again, in the same order
    rng = np.random.default_rng(37)
    box = np.array([1.1, 0.9, 1.0])
    s = random_neutral(rng, 7, box)
    kv, w = _half_lattice(box, build_kgrid(box, Periodicity.P3, 30.0).vectors,
                          2.0)
    re = kernels_numpy.kspace_3p(s.positions, s.charges, s.positions,
                                 form(kv, w, len(s.positions)), True)
    extra = np.vstack([s.positions, [[0.31, 0.47, 0.62]]])
    re_g = kernels_numpy.kspace_3p(s.positions, s.charges, extra,
                                   form(kv, w, len(s.positions)), False)
    assert np.array_equal(re, re_g[:-1])


def test_kspace_3p_holds_two_target_buffers():
    # the pair tables, (U, V) rows and tile products of one slice, at the
    # sources and for one column block off them, are the kernel's only
    # target-sized arrays: the potential is reduced in place in them, and
    # no (M, K/2) array is formed
    rng = np.random.default_rng(41)
    box = np.array([1.0, 1.1, 0.9])
    s = random_neutral(rng, 64, box)
    par = default_params(box, Periodicity.P3)
    kv = build_kgrid(box, Periodicity.P3, par.k_max).vectors
    axis = (np.arange(4) + 0.5) / 4
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3) * box
    for targets, at_sources in ((s.positions, True), (grid, False)):
        tracemalloc.start()
        try:
            kernels_numpy.kspace_3p(
                s.positions, s.charges, targets,
                form(*_half_lattice(box, kv, par.xi), len(s.positions)),
                at_sources)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(targets) * len(kv) * 8, (
            at_sources, peak / (len(targets) * len(kv) * 8))


def _kspace_3p_peak(s, targets, at_sources, kvecs, w):
    tracemalloc.start()
    try:
        kernels_numpy.kspace_3p(s.positions, s.charges, targets,
                                form(kvecs, w, len(s.positions)), at_sources)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kspace_3p_peak_does_not_grow_with_the_lattice():
    # at fixed N the slices keep every (points, pairs) array at
    # _K_ELEMENTS: from K/2 = 3,611 to 29,015 (xi 6 and 12 / min L) the
    # peak, at 64 sources and on a 4^3 grid, rises by the per-cell sums and
    # weights and the widening of the slices from 252 pairs to their cap of
    # 512 (about 51 bytes a vector), where one (M, K/2) buffer would add 512
    rng = np.random.default_rng(41)
    box = np.array([1.0, 1.1, 0.9])
    s = random_neutral(rng, 64, box)
    axis = (np.arange(4) + 0.5) / 4
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3) * box
    lattices = []
    for c in (6.0, 12.0):
        par = default_params(box, Periodicity.P3, xi=c / 0.9)
        kv = build_kgrid(box, Periodicity.P3, par.k_max).vectors
        lattices.append(_half_lattice(box, kv, par.xi))
    (k1, w1), (k2, w2) = lattices
    for targets, at_sources in ((s.positions, True), (grid, False)):
        small = _kspace_3p_peak(s, targets, at_sources, k1, w1)
        large = _kspace_3p_peak(s, targets, at_sources, k2, w2)
        assert large - small <= 64 * (len(w2) - len(w1)), (
            at_sources, (large - small) / (len(w2) - len(w1)))


def test_kspace_3p_peak_at_the_bulk_benchmark_size():
    # 512 sources at the default parameters of that N, K/2 = 3,611: the
    # (N, K/2) cos and sin buffers of one slice took 29 MiB; slices of
    # _K_ELEMENTS keep the kernel's peak at about 2.9 MiB
    rng = np.random.default_rng(42)
    box = np.array([1.0, 1.1, 0.9])
    s = random_neutral(rng, 512, box)
    par = default_params(box, Periodicity.P3, n=len(s))
    kv = build_kgrid(box, Periodicity.P3, par.k_max).vectors
    peak = _kspace_3p_peak(s, s.positions, True,
                           *_half_lattice(box, kv, par.xi))
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20


# ---------------------------------------------------------------- zero modes

def test_zero_mode_2p_coplanar_is_zero():
    # all z equal and the target in the same plane: neutrality kills the sum
    s = make_system([[0.1, 0.2, 0.4], [0.8, 0.9, 0.4], [0.5, 0.5, 0.4]],
                    [1.0, -0.4, -0.6], [1.0, 1.0, 1.0])
    got = zero_mode_2p(s, 1.3, EvalTargets.at_points([[0.7, 0.3, 0.4]]))
    assert got[0] == 0.0


def test_zero_mode_2p_far_field_dipole():
    rng = np.random.default_rng(8)
    box = np.array([1.0, 1.1, 1.0])
    s = random_neutral(rng, 4, box)
    area = box[0] * box[1]
    mz = float(np.dot(s.charges, s.positions[:, 2]))
    hi = zero_mode_2p(s, 1.0, EvalTargets.at_points([[0.4, 0.3, 9.5]]))[0]
    lo = zero_mode_2p(s, 1.0, EvalTargets.at_points([[0.4, 0.3, -9.5]]))[0]
    assert abs(hi - 2.0 * math.pi / area * mz) < 1e-12
    assert abs(lo + 2.0 * math.pi / area * mz) < 1e-12


def test_zero_mode_2p_pair_hand_value():
    # +/-1 pair with z offset 0.5 at xi = 1: closed form, also cross-checked
    # against the Gaussian-convolution quadrature of -(2 pi/A)|z - z'|
    box = np.array([1.2, 0.8, 1.0])
    area = box[0] * box[1]
    xi = 1.0
    s = make_system([[0.3, 0.4, 0.2], [0.3, 0.4, 0.7]], [1.0, -1.0], box)
    got = zero_mode_2p(s, xi, EvalTargets.at_sources())

    def hand(z):
        acc = 0.0
        for n in range(2):
            dz = z - s.positions[n, 2]
            acc += s.charges[n] * (math.exp(-(xi * dz) ** 2) / xi
                                   + math.sqrt(math.pi) * dz * math.erf(xi * dz))
        return -2.0 * math.sqrt(math.pi) / area * acc

    def conv(z):
        acc = 0.0
        for n in range(2):
            zn = s.positions[n, 2]
            f = lambda zp: (abs(z - zp) * (xi / math.sqrt(math.pi))
                            * math.exp(-(xi * (zp - zn)) ** 2))
            lo, hi = zn - 9 / xi, zn + 9 / xi
            # split at the |z - z'| kink so the quadrature sees smooth pieces
            pieces = sorted({lo, hi, min(max(z, lo), hi)})
            acc += s.charges[n] * sum(
                quad(f, a, b, limit=400, epsabs=1e-14)[0]
                for a, b in zip(pieces[:-1], pieces[1:]))
        return -2.0 * math.pi / area * acc

    for m, z in enumerate(s.positions[:, 2]):
        assert abs(got[m] - hand(z)) < 1e-15
        assert abs(got[m] - conv(z)) < 1e-12


def test_zero_mode_1p_bracket_vanishes_at_small_rho():
    # the at-source bracket -gamma - log(x) - E1(x) -> 0 as x = (rho xi)^2 -> 0
    x = 1e-6  # rho * xi = 1e-3
    val = -EULER_GAMMA - math.log(x) - expint_e1(x)
    assert abs(val) <= 5e-6
    assert abs(val) > 0.0  # vanishes linearly, not identically


def test_zero_mode_1p_two_charge_hand_value():
    # charges at transverse distances 1 and 2 from the target, xi = 1
    box = np.array([1.0, 1.0, 1.3])
    s = make_system([[1.0, 0.0, 0.6], [2.0, 0.0, 0.9]], [1.0, -1.0], box)
    got = zero_mode_1p(s, 1.0, EvalTargets.at_points([[0.0, 0.0, 0.3]]))[0]
    want = -((math.log(1.0) + E1_OF_1) - (math.log(4.0) + E1_OF_4)) / box[2]
    assert abs(got - want) < 1e-14


def test_zero_mode_1p_log_part_is_xi_free():
    # changing xi only moves the E1 terms
    box = np.array([1.0, 1.0, 1.1])
    s = make_system([[0.4, 0.5, 0.2], [0.7, 0.3, 0.8]], [1.0, -1.0], box)
    t = EvalTargets.at_points([[1.5, 1.4, 0.5]])
    rho2 = (((np.array(t.points)[:, None, :2]
              - s.positions[None, :, :2]) ** 2).sum(axis=-1))[0]
    a = zero_mode_1p(s, 0.9, t)[0]
    b = zero_mode_1p(s, 2.1, t)[0]
    want = -sum(s.charges[n] * (expint_e1(rho2[n] * 0.9 ** 2)
                                - expint_e1(rho2[n] * 2.1 ** 2))
                for n in range(2)) / box[2]
    assert abs((a - b) - want) < 1e-15


def _on_axis_system():
    # a point on the axis of source 0, away from both sources
    box = np.array([1.0, 1.0, 1.0])
    s = make_system([[0.5, 0.5, 0.2], [0.8, 0.8, 0.7]], [1.0, -1.0], box)
    return s, np.array([[0.5, 0.5, 0.6]])


def test_zero_mode_1p_is_finite_and_continuous_on_a_source_axis():
    # the screened-log bracket is 0 at rho = 0, so a point on a source's
    # axis takes the limit of the points beside it: the zero mode moves
    # by O(rho) there (the other source's log has a slope of about 5)
    s, pt = _on_axis_system()
    on = zero_mode_1p(s, 1.0, EvalTargets.at_points(pt))[0]
    assert np.isfinite(on)
    for rho in (1e-6, 1e-8):
        off = zero_mode_1p(s, 1.0, EvalTargets.at_points(pt + [rho, 0, 0]))[0]
        assert abs(on - off) <= 10.0 * rho, (rho, on - off)


def test_ewald_1p_on_a_source_axis_is_xi_free_and_matches_direct_sum():
    s, pt = _on_axis_system()
    targets = EvalTargets.at_points(pt)
    xi0 = default_xi(s.box, Periodicity.P1)
    totals = [ewald_potential(s, Periodicity.P1,
                              default_params(s.box, Periodicity.P1,
                                             xi=f * xi0), targets).total[0]
              for f in (0.7, 1.0, 1.5)]
    assert np.all(np.isfinite(totals))
    assert abs(totals[0] - totals[2]) <= 1e-12
    ds = oracle.direct_sum(s, Periodicity.P1, layers=2000, targets=pt)[0]
    assert abs(totals[1] - ds.value) <= 1e-6


# ------------------------------------------------------------------ assembly

def test_ewald_xi_invariance_quick():
    rng = np.random.default_rng(21)
    box = np.array([1.3, 1.1, 0.9])
    s = random_neutral(rng, 8, box)
    pts = EvalTargets.at_points([[0.45, 0.62, 0.3], [0.9, 0.2, 0.7]])
    for mode in Periodicity:
        xi0 = default_xi(box, mode)
        vals = []
        for f in (0.8, 1.25):
            par = default_params(box, mode, xi=f * xi0)
            vals.append(ewald_potential(s, mode, par, pts).total)
        assert np.abs(vals[0] - vals[1]).max() < 1e-8


def _random_1p_cases():
    # the systems of acceptance criterion 1, with four points off the
    # sources, some beyond the cell along the free axes
    for case in range(20):
        rng = np.random.default_rng(1000 + case)
        box = rng.uniform(0.8, 1.4, 3)
        s = random_neutral(rng, (2, 8, 16)[case % 3], box)
        pts = EvalTargets.at_points(rng.uniform(-0.5, 1.5, (4, 3)) * box)
        yield box, s, pts


def _total_1p(s, c, targets):
    # the 1p total at xi = c / L3, and the size of its k grid
    par = default_params(s.box, Periodicity.P1, xi=c / s.box[2])
    k = len(build_kgrid(s.box, Periodicity.P1, par.k_max))
    return ewald_potential(s, Periodicity.P1, par, targets).total, k


def test_ewald_1p_xi_invariance_compares_kspace_sums():
    # the 1p default c = 0.7 lies near pi / sqrt(ln(1/tol)) = 0.553, where
    # the k grid empties, so the sweeps around the default compare k-space
    # sums in part only; at c = 0.7, 1 and 1.4 over L3 every grid holds
    # vectors, and the totals at the sources agree within 1e-13 of max|total|
    for box, s, _ in _random_1p_cases():
        totals = []
        for c in (0.7, 1.0, 1.4):
            total, k = _total_1p(s, c, EvalTargets.at_sources())
            assert k > 0
            totals.append(total)
        scale = np.abs(totals[1]).max()
        for a in totals[::2]:
            assert np.abs(a - totals[1]).max() <= 1e-13 * scale


def test_ewald_1p_xi_invariance_across_the_empty_k_grid():
    # at c = 0.5 the 1p k grid is empty and real space, zero mode and self
    # term carry the whole total; it agrees with c = 1, whose grid is not,
    # within 1e-13 of max|total|, at the sources and off them
    for box, s, pts in _random_1p_cases():
        for targets in (EvalTargets.at_sources(), pts):
            (a, ka), (b, kb) = (_total_1p(s, c, targets) for c in (0.5, 1.0))
            assert ka == 0 and kb > 0
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


@settings(max_examples=40)
@given(n=st.integers(2, 8),
       box=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
       mode=st.sampled_from(list(Periodicity)),
       seed=st.integers(0, 2 ** 32 - 1),
       log_offset=st.floats(-6.0, -2.0),
       far=st.lists(st.floats(-60.0, 60.0), min_size=2, max_size=2))
def test_ewald_xi_invariance_property(n, box, mode, seed, log_offset, far):
    # random neutral systems in boxes of any aspect: a target near a source
    # (1e-6 to 1e-2 of min L, above the coincidence threshold), one at a
    # random point and, in 1p, one exactly on a source's axis.  In 2p and
    # 1p source 0 and the random point move along a free axis by far times
    # max L, within or beyond the free-axis split distance.  The totals are
    # checked at the points and at the sources
    rng = np.random.default_rng(seed)
    box = np.asarray(box)
    s = random_neutral(rng, n, box)
    point = rng.uniform(0.0, 1.0, 3) * box
    if mode is not Periodicity.P3:
        axis = mode.free_axes[rng.integers(len(mode.free_axes))]
        pos = s.positions.copy()
        pos[0, axis] += far[0] * box.max()
        point[axis] += far[1] * box.max()
        s = make_system(pos, s.charges, box)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    near = s.positions[0] + 10.0 ** log_offset * box.min() * direction
    pts = [near, point]
    if mode is Periodicity.P1:
        pts.append(s.positions[-1] + [0.0, 0.0, 0.5 * box[2]])
    xi0 = default_xi(box, mode)
    for targets in (EvalTargets.at_points(pts), EvalTargets.at_sources()):
        a, b = (ewald_potential(s, mode,
                                default_params(box, mode, xi=f * xi0),
                                targets).total for f in (0.8, 1.25))
        assert np.abs(a - b).max() < 1e-8, np.abs(a - b)


#: bound on max|total - reference| / (xi sum|q| + max|reference|) for
#: default_params: the worst of 16000 random cases like those below (n
#: 2-16, m 1-8, boxes 0.5-2, every mode, at and off the sources) was
#: 2.9e-15, 1p off the sources; 2p and 3p stayed below 1.5e-15.  The
#: bound leaves a margin of 7
DEFAULT_ACCURACY_BOUND = 2e-14


@settings(max_examples=40)
@given(n=st.integers(2, 16),
       m=st.integers(1, 8),
       box=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
       mode=st.sampled_from(list(Periodicity)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_default_params_meet_a_tight_reference_property(n, m, box, mode, seed):
    # default_params, with N and M forwarded, at the sources and at m
    # random points, against the benchmark's reference: tol = 1e-16 at
    # 0.75 xi.  A truncated term is about q xi tol, so the error is scaled
    # by xi sum|q|, which holds where the potential cancels, plus
    # max|reference|, the rounding of a potential made large by two close
    # charges
    rng = np.random.default_rng(seed)
    box = np.asarray(box)
    s = random_neutral(rng, n, box)
    pts = rng.uniform(0.0, 1.0, (m, 3)) * box
    for targets, m_arg in ((EvalTargets.at_sources(), None),
                           (EvalTargets.at_points(pts), m)):
        par = default_params(box, mode, n=n, m=m_arg)
        got = ewald_potential(s, mode, par, targets).total
        ref = ewald_potential(s, mode, default_params(box, mode, xi=0.75 * par.xi,
                                                      tol=1e-16), targets).total
        scale = par.xi * np.abs(s.charges).sum() + np.abs(ref).max()
        err = np.abs(got - ref).max() / scale
        assert err <= DEFAULT_ACCURACY_BOUND, (err, par)


@settings(max_examples=40)
@given(n=st.integers(2, 6),
       box=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
       mode=st.sampled_from([Periodicity.P2, Periodicity.P1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ewald_matches_pure_fourier_oracles_property(n, box, mode, seed):
    # random neutral systems against the unscreened Fourier series of the
    # oracle, at points at least 0.2 min L beyond the sources along z (2p)
    # or along x or y (1p), so that every |dz| (2p) or rho (1p) is at least
    # d >= 0.2 min L.  Both series' terms fall off as e^{-k d} and their
    # number grows at most as k dk: a tail beyond k_max of about
    # sum|q| e^{-k_max d} / d, held below 1e-10.  3p is left out: its direct
    # sum converges only conditionally, so no unscreened series pins it
    rng = np.random.default_rng(seed)
    box = np.asarray(box)
    s = random_neutral(rng, n, box)
    axis = 2 if mode is Periodicity.P2 else rng.integers(2)
    pts = rng.uniform(0.0, 1.0, (4, 3)) * box
    gap = rng.uniform(0.2, 0.5, 4) * box.min()
    src = s.positions[:, axis]
    pts[:, axis] = np.where(np.arange(4) % 2 == 0, src.max() + gap,
                            src.min() - gap)
    if mode is Periodicity.P2:
        d = np.abs(pts[:, None, 2] - s.positions[None, :, 2]).min()
    else:
        d = np.hypot(pts[:, None, 0] - s.positions[None, :, 0],
                     pts[:, None, 1] - s.positions[None, :, 1]).min()
    k_max = (math.log(np.abs(s.charges).sum() / d) + math.log(1e10)) / d
    par = default_params(box, mode)
    ew = ewald_potential(s, mode, par, EvalTargets.at_points(pts)).total
    pure = (oracle.pure_fourier_2p if mode is Periodicity.P2
            else oracle.pure_fourier_1p)
    pf = pure(s, k_max=k_max, targets=pts)
    assert np.abs(ew - pf).max() <= 1e-6 * np.abs(ew).max()


def test_ewald_p3_translation_invariance():
    rng = np.random.default_rng(30)
    box = np.array([1.0, 1.2, 0.8])
    s = random_neutral(rng, 6, box)
    par = default_params(box, Periodicity.P3)
    shift = np.array([0.37, -1.21, 5.04])
    pts = np.array([[0.3, 0.3, 0.3], [0.75, 0.1, 0.66]])
    a = ewald_potential(s, Periodicity.P3, par,
                        EvalTargets.at_points(pts)).total
    s2 = make_system(s.positions + shift, s.charges, box)
    b = ewald_potential(s2, Periodicity.P3, par,
                        EvalTargets.at_points(pts + shift)).total
    assert np.abs(a - b).max() < 1e-10


def test_ewald_p1_matches_direct_sum_dipole():
    box = np.array([1.2, 0.9, 1.0])
    s = make_system([[0.5, 0.5, 0.2], [0.5, 0.5, 0.7]], [1.0, -1.0], box)
    par = default_params(box, Periodicity.P1)
    ew = ewald_potential(s, Periodicity.P1, par, EvalTargets.at_sources()).total
    ds = np.array([r.value for r in
                   oracle.direct_sum(s, Periodicity.P1, layers=2000)])
    assert np.abs(ew - ds).max() < 1e-6


def test_ewald_charge_antisymmetry_exact():
    rng = np.random.default_rng(14)
    box = np.array([1.0, 1.0, 1.1])
    s = random_neutral(rng, 5, box)
    neg = make_system(s.positions, -s.charges, box)
    pts = EvalTargets.at_points([[0.21, 0.43, 0.65]])
    for mode in Periodicity:
        par = default_params(box, mode)
        a = ewald_potential(s, mode, par, pts)
        b = ewald_potential(neg, mode, par, pts)
        assert np.all(a.total == -b.total)
        assert np.all(a.real == -b.real)
        assert np.all(a.kspace == -b.kspace)


def test_ewald_2p_far_field_dipole_total():
    rng = np.random.default_rng(17)
    box = np.array([1.0, 1.1, 1.0])
    s = random_neutral(rng, 4, box)
    area = box[0] * box[1]
    mz = float(np.dot(s.charges, s.positions[:, 2]))
    xi = 1.5 / box.max()
    par = default_params(box, Periodicity.P2, xi=xi)
    z = s.positions[:, 2].max() + 5.0 / xi
    hi = ewald_potential(s, Periodicity.P2, par,
                         EvalTargets.at_points([[0.4, 0.5, z]])).total[0]
    lo = ewald_potential(s, Periodicity.P2, par,
                         EvalTargets.at_points([[0.4, 0.5, -z]])).total[0]
    assert abs(hi - 2.0 * math.pi / area * mz) < 1e-8
    assert abs(lo + 2.0 * math.pi / area * mz) < 1e-8


def test_ewald_mode_consistency_slab_limit():
    # a 2P system evaluated as P3 with a growing empty gap approaches the 2P
    # answer once the k=0 gauge difference (dipole + trace terms) is removed
    box2 = np.array([1.0, 1.1, 1.0])
    pos = np.array([[0.3, 0.4, 0.45], [0.7, 0.8, 0.62],
                    [0.2, 0.9, 0.55], [0.6, 0.2, 0.35]])
    q = np.array([1.0, -0.4, -0.8, 0.2])
    pts = np.array([[0.15, 0.25, 0.5], [0.8, 0.5, 0.58]])
    s2 = make_system(pos, q, box2)
    phi2 = ewald_potential(s2, Periodicity.P2,
                           default_params(box2, Periodicity.P2),
                           EvalTargets.at_points(pts)).total
    raw, corrected = [], []
    for L3 in (4.0, 8.0, 16.0):
        b = np.array([box2[0], box2[1], L3])
        s3 = make_system(pos, q, b)
        phi3 = ewald_potential(s3, Periodicity.P3,
                               default_params(b, Periodicity.P3),
                               EvalTargets.at_points(pts)).total
        corr = (2.0 * math.pi / b.prod()) * np.array(
            [np.dot(q, (z - pos[:, 2]) ** 2) for z in pts[:, 2]])
        raw.append(np.abs(phi3 - phi2).max())
        corrected.append(np.abs(phi3 - corr - phi2).max())
    assert raw[0] > raw[1] > raw[2]
    assert corrected[1] < 1e-8 and corrected[2] < 1e-8


def test_ewald_wrap_invariance():
    # shifting a particle by a whole period changes nothing
    box = np.array([1.0, 1.2, 0.9])
    rng = np.random.default_rng(25)
    s = random_neutral(rng, 4, box)
    pos2 = np.array(s.positions)
    pos2[1] += np.array([3.0 * box[0], -2.0 * box[1], 0.0])
    s2 = make_system(pos2, s.charges, box)
    par = default_params(box, Periodicity.P3)
    pts = EvalTargets.at_points([[0.5, 0.5, 0.5]])
    a = ewald_potential(s, Periodicity.P3, par, pts).total
    b = ewald_potential(s2, Periodicity.P3, par, pts).total
    assert np.abs(a - b).max() < 1e-12


def test_breakdown_component_invariants():
    rng = np.random.default_rng(19)
    box = np.array([1.0, 1.0, 1.0])
    s = random_neutral(rng, 4, box)
    pts = EvalTargets.at_points([[0.11, 0.77, 0.33]])
    r3 = ewald_potential(s, Periodicity.P3, default_params(box, Periodicity.P3),
                         EvalTargets.at_sources())
    assert np.all(r3.zero_mode == 0.0)          # gauged away in P3
    assert np.all(r3.self_term != 0.0)
    r2 = ewald_potential(s, Periodicity.P2, default_params(box, Periodicity.P2),
                         pts)
    assert np.all(r2.self_term == 0.0)          # off-particle targets
    for r in (r3, r2):    # the total is exactly the sum of the parts
        assert np.array_equal(r.total, r.real + r.kspace + r.zero_mode
                              + r.self_term)


def test_kspace_imaginary_residue_small():
    # negation-closed grids with even kernels leave an imaginary part of
    # rounding size only, which is why the kernels return the real part
    # alone; the imaginary sums come from a numpy reference here
    rng = np.random.default_rng(23)
    box = np.array([1.1, 0.9, 1.0])
    s = random_neutral(rng, 6, box)
    pos, q, xi = s.positions, s.charges, 2.0
    pts = np.array([[0.3, 0.6, 0.2], [0.85, 0.15, 0.7]])
    kv3 = build_kgrid(box, Periodicity.P3, 30.0).vectors
    vol = float(np.prod(box))
    re3 = kernels_numpy.kspace_3p(pos, q, pts,
                                  form(*_half_lattice(box, kv3, xi), len(pos)),
                                  False)
    k2 = (kv3 ** 2).sum(axis=1)
    w = 4.0 * math.pi / vol * np.exp(-k2 / (4.0 * xi * xi)) / k2
    src_ph = pos @ kv3.T
    cs = (q[:, None] * np.cos(src_ph)).sum(axis=0)
    sn = (q[:, None] * np.sin(src_ph)).sum(axis=0)
    ph = pts @ kv3.T
    im3 = (np.cos(ph) * (w * sn) - np.sin(ph) * (w * cs)).sum(axis=1)
    assert np.abs(im3).max() <= 1e-13 * max(1.0, np.abs(re3).max())
    grid2 = build_kgrid(box, Periodicity.P2, 25.0)
    kv2 = grid2.vectors
    area = float(box[0] * box[1])
    re2 = kspace_sum_2p(s, xi, grid2, EvalTargets.at_points(pts))
    dxy = pts[:, None, :2] - pos[None, :, :2]
    dz = pts[:, None, 2] - pos[None, :, 2]
    im2 = np.zeros(len(pts))
    for k in kv2:
        kb = math.hypot(k[0], k[1])
        h = 0.5 * kb / xi
        g = (np.exp(kb * dz) * special.erfc(h + xi * dz)
             + np.exp(-kb * dz) * special.erfc(h - xi * dz))
        ph2 = dxy[:, :, 0] * k[0] + dxy[:, :, 1] * k[1]
        im2 -= math.pi / area / kb * (q[None, :] * g * np.sin(ph2)).sum(axis=1)
    assert np.abs(im2).max() <= 1e-13 * max(1.0, np.abs(re2).max())


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_target_coincidence_rejection(mode):
    box = np.array([1.0, 1.0, 1.0])
    s = make_system([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]], [1.0, -1.0], box)
    par = default_params(box, mode)
    eps = 1e-10 * box.min()
    bad = s.positions[0] + np.array([0.3 * eps, 0.0, 0.0])
    with pytest.raises(ValueError,
                       match="target 0 lies within 1.000e-10 of source 0"):
        ewald_potential(s, mode, par, EvalTargets.at_points(bad[None]))
    # the periodic image of a source is just as coincident
    period = np.zeros(3)
    period[mode.periodic_axes[0]] = 1.0
    bad2 = EvalTargets.at_points(s.positions[0] + period)
    with pytest.raises(ValueError):
        ewald_potential(s, mode, par, bad2)
    # real_space_sum does not wrap: it rejects the image where its sum
    # forms that image's term, and not with no image shell to form it in
    with pytest.raises(ValueError, match="of source 0"):
        real_space_sum(s, mode, par.xi, par.r_cut, par.real_layers, bad2)
    assert np.all(np.isfinite(
        real_space_sum(s, mode, par.xi, par.r_cut, 0, bad2)))
    ok = s.positions[0] + np.array([1e-6, 0.0, 0.0])
    res = ewald_potential(s, mode, par, EvalTargets.at_points(ok[None]))
    assert np.isfinite(res.total[0])


def test_kspace_and_planar_zero_mode_are_finite_at_a_source():
    # only erfc(xi r)/r diverges at r = 0, so only the real-space layer
    # rejects a coincident target; these layers are continuous there
    box = np.array([1.0, 1.1, 0.9])
    s = random_neutral(np.random.default_rng(33), 6, box)
    eps = COINCIDE_RTOL * box.min()
    near = EvalTargets.at_points(s.positions[0] + [0.3 * eps, 0.0, 0.0])
    at = EvalTargets.at_sources()
    layers = ((Periodicity.P3, kspace_sum_3p), (Periodicity.P2, kspace_sum_2p),
              (Periodicity.P1, kspace_sum_1p))
    for mode, layer in layers:
        par = default_params(box, mode)
        kgrid = build_kgrid(box, mode, par.k_max)
        got = layer(s, par.xi, kgrid, near)
        want = layer(s, par.xi, kgrid, at)[0]
        assert np.isfinite(got[0]), mode
        assert abs(got[0] - want) <= 1e-6 * (1.0 + abs(want)), mode
    xi = default_xi(box, Periodicity.P2)
    got = zero_mode_2p(s, xi, near)
    want = zero_mode_2p(s, xi, at)[0]
    assert np.isfinite(got[0])
    assert abs(got[0] - want) <= 1e-6 * (1.0 + abs(want))


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_real_space_sum_off_the_sources_holds_no_pair_table(mode):
    # the coincidence check runs on the real-space runs of at most
    # _ROW_ELEMENTS pairs; no (M, N) target-source array is formed, on
    # random points nor on a 16^3 grid, whose blocks form tables of the
    # d^2 components of their distinct coordinates
    box = np.array([1.0, 1.1, 0.9])
    s = random_neutral(np.random.default_rng(34), 256, box)
    c = (np.arange(16) + 0.5) / 16
    grid = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1)
    par = default_params(box, mode)
    for pts in (np.random.default_rng(35).uniform(0.0, 1.0, (4096, 3)) * box,
                grid.reshape(-1, 3) * box):
        tracemalloc.start()
        try:
            real_space_sum(s, mode, par.xi, par.r_cut, par.real_layers,
                           EvalTargets.at_points(pts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(pts) * len(s) * 8, peak / 2 ** 20


def test_eval_targets_validation():
    with pytest.raises(ValueError):
        EvalTargets.at_points(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        EvalTargets.at_points(np.array([[0.0, np.nan, 0.0]]))
    t = EvalTargets.at_points([0.1, 0.2, 0.3])  # single point promoted
    assert t.points.shape == (1, 3)
    assert EvalTargets.at_sources().is_sources
    # a non-EvalTargets argument gets the documented error from the
    # assembled evaluation as from the layer functions
    box = np.array([1.0, 1.0, 1.0])
    s = make_system([[0.2, 0.5, 0.5], [0.7, 0.5, 0.5]], [1.0, -1.0], box)
    par = default_params(box, Periodicity.P3)
    msg = "targets must be an EvalTargets instance"
    with pytest.raises(ValueError, match=msg):
        ewald_potential(s, Periodicity.P3, par, None)
    # every layer function checks its targets and its xi in the same way;
    # ewald_potential takes xi from an EwaldParams, which rejects xi <= 0
    grid = {m: build_kgrid(box, m, 10.0) for m in Periodicity}
    layers = [
        lambda xi, t: real_space_sum(s, Periodicity.P3, xi, 1e30, 1, t),
        lambda xi, t: kspace_sum_3p(s, xi, grid[Periodicity.P3], t),
        lambda xi, t: kspace_sum_2p(s, xi, grid[Periodicity.P2], t),
        lambda xi, t: kspace_sum_1p(s, xi, grid[Periodicity.P1], t),
        lambda xi, t: zero_mode_2p(s, xi, t),
        lambda xi, t: zero_mode_1p(s, xi, t),
    ]
    for layer in layers:
        with pytest.raises(ValueError, match=msg):
            layer(1.0, None)
    for xi in (0.0, -1.0, math.nan, math.inf):
        for layer in layers:
            with pytest.raises(ValueError, match="xi must be positive"):
                layer(xi, EvalTargets.at_sources())
        with pytest.raises(ValueError, match="xi must be positive"):
            self_term(1.0, xi)
        with pytest.raises(ValueError, match="xi must be positive"):
            ewald_potential(s, Periodicity.P3,
                            EwaldParams(xi, par.r_cut, par.k_max,
                                        par.real_layers),
                            EvalTargets.at_sources())


def test_real_space_sum_checks_r_cut_and_layers():
    # the rules and messages of EwaldParams: r_cut > 0 with infinity
    # allowed, layers a non-negative integer
    box = np.array([1.0, 1.0, 1.0])
    s = make_system([[0.2, 0.5, 0.5], [0.7, 0.5, 0.5]], [1.0, -1.0], box)
    at = EvalTargets.at_sources()
    for r_cut in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^r_cut must be positive, got"):
            real_space_sum(s, Periodicity.P3, 2.0, r_cut, 1, at)
    for layers in (1.5, -1, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match="^layers must be a non-negative integer"):
            real_space_sum(s, Periodicity.P3, 2.0, 1.0, layers, at)
    got = real_space_sum(s, Periodicity.P3, 2.0, math.inf, 1.0, at)
    want = real_space_sum(s, Periodicity.P3, 2.0, 1e30, 1, at)
    assert got.tobytes() == want.tobytes()


def test_grid_mode_mismatch_errors():
    box = np.array([1.0, 1.0, 1.0])
    s = make_system([[0.2, 0.5, 0.5], [0.7, 0.5, 0.5]], [1.0, -1.0], box)
    g2 = build_kgrid(box, Periodicity.P2, 10.0)
    with pytest.raises(ValueError):
        kspace_sum_3p(s, 1.0, g2, EvalTargets.at_sources())
    g3 = build_kgrid(box, Periodicity.P3, 10.0)
    with pytest.raises(ValueError):
        kspace_sum_2p(s, 1.0, g3, EvalTargets.at_sources())
    with pytest.raises(ValueError):
        kspace_sum_1p(s, 1.0, g3, EvalTargets.at_sources())


def test_non_neutral_rejected():
    box = np.array([1.0, 1.0, 1.0])
    s = make_system([[0.2, 0.5, 0.5], [0.7, 0.5, 0.5]], [1.0, -0.9], box)
    par = default_params(box, Periodicity.P3)
    at = EvalTargets.at_sources()
    msg = "requires neutrality"
    with pytest.raises(ValueError, match=msg):
        ewald_potential(s, Periodicity.P3, par, at)
    with pytest.raises(ValueError, match=msg):
        real_space_sum(s, Periodicity.P3, par.xi, par.r_cut, par.real_layers,
                       at)
    with pytest.raises(ValueError, match=msg):
        zero_mode_2p(s, 1.0, at)
    with pytest.raises(ValueError, match=msg):
        zero_mode_1p(s, 1.0, at)
    # the k-space sums are linear in the charges and take any
    for mode, kspace_sum in ((Periodicity.P3, kspace_sum_3p),
                             (Periodicity.P2, kspace_sum_2p),
                             (Periodicity.P1, kspace_sum_1p)):
        got = kspace_sum(s, 1.0, build_kgrid(box, mode, 10.0), at)
        assert got.shape == (2,) and np.all(np.isfinite(got))
