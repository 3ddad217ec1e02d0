"""The vectorized kernels against plain reference loops.

Each reference is a straight loop over targets, sources and images or
k-vectors that calls math and the scalar routines of specfun one term at a
time.  The kernels sum in another order, so they agree to rounding: the
bound is 1e-12 times the largest reference value plus one.  The 2p and 1p
k-space sums are checked through kspace_sum_2p and kspace_sum_1p, which
run the one k-space kernel on the extended lattice, against plain loops
over g and the incomplete K0.  The k-space kernel returns the real
potential only; test_ewald bounds the imaginary residue of the same sums
with a numpy reference.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ewaldpot import (
    EvalTargets,
    ewald,
    ewald_potential,
    kernels_numpy,
    kspace_sum_1p,
    kspace_sum_2p,
    kspace_sum_3p,
    real_space_sum,
    zero_mode_1p,
    zero_mode_2p,
)
from ewaldpot.core import (
    COINCIDE_RTOL,
    EwaldParams,
    KGrid,
    ParticleSystem,
    Periodicity,
    build_image_vectors,
    build_kgrid,
    default_params,
)
from ewaldpot.specfun import (
    EULER_GAMMA,
    SQRT_PI,
    expint_e1,
    g_screened,
    incomplete_bessel_k0,
)
import lattice_form
from lattice_form import axes, form, half_vectors, vectors


def _system():
    rng = np.random.default_rng(42)
    box = np.array([1.2, 1.0, 0.9])
    pos = rng.uniform(0.05, 0.95, (6, 3)) * box
    q = rng.normal(size=6)
    q -= q.mean()
    return ParticleSystem(positions=pos, charges=q, box=box)


def _targets(s):
    """(target positions, whether they are the sources) at the sources and at
    two off-particle points."""
    pts = np.array([[0.31, 0.77, 0.12], [0.92, 0.18, 0.6]])
    return [(s.positions.copy(), True), (pts, False)]


def ref_real_space(pos, q, tpos, at_sources, images, xi, r_cut):
    out = np.zeros(len(tpos))
    for m, t in enumerate(tpos):
        for p in images:
            primary = not p.any()
            for n, x in enumerate(pos):
                if at_sources and primary and n == m:
                    continue
                d = math.sqrt(sum((t[i] - x[i] + p[i]) ** 2 for i in range(3)))
                if d <= r_cut:
                    out[m] += q[n] * math.erfc(xi * d) / d
    return out


def ref_kspace_3p(pos, q, tpos, xi, kvecs, volume):
    re = np.zeros(len(tpos))
    for k in kvecs:
        k2 = k @ k
        w = 4.0 * math.pi / volume * math.exp(-k2 / (4.0 * xi * xi)) / k2
        cs = sum(qn * math.cos(k @ x) for qn, x in zip(q, pos))
        sn = sum(qn * math.sin(k @ x) for qn, x in zip(q, pos))
        for m, t in enumerate(tpos):
            c, s = math.cos(k @ t), math.sin(k @ t)
            re[m] += w * (cs * c + sn * s)
    return re


def ref_kspace_2p(pos, q, tpos, xi, kvecs, area):
    re = np.zeros(len(tpos))
    for k in kvecs:
        kb = math.hypot(k[0], k[1])
        for m, t in enumerate(tpos):
            for qn, x in zip(q, pos):
                g = g_screened(kb, t[2] - x[2], xi)
                ph = k[0] * (t[0] - x[0]) + k[1] * (t[1] - x[1])
                re[m] += math.pi / area / kb * qn * g * math.cos(ph)
    return re


def ref_kspace_1p(pos, q, tpos, xi, kz, length):
    re = np.zeros(len(tpos))
    for k3 in kz:
        if k3 <= 0.0:    # +k3 and -k3 share K0: one cosine term per pair
            continue
        u = k3 * k3 / (4.0 * xi * xi)
        for m, t in enumerate(tpos):
            for qn, x in zip(q, pos):
                v = ((t[0] - x[0]) ** 2 + (t[1] - x[1]) ** 2) * xi * xi
                k0 = incomplete_bessel_k0(u, v)
                re[m] += qn * 2.0 * math.cos(k3 * (t[2] - x[2])) * k0
    return re / length


def ref_zero_mode_2p(pos, q, tpos, xi, area):
    out = np.zeros(len(tpos))
    for m, t in enumerate(tpos):
        for qn, x in zip(q, pos):
            dz = t[2] - x[2]
            out[m] += qn * (math.exp(-(xi * dz) ** 2) / xi
                            + SQRT_PI * dz * math.erf(xi * dz))
    return -2.0 * SQRT_PI / area * out


def _mp_bracket(x):
    # -gamma - log(x) - E1(x) in mpmath at 40 digits, where the log and E1
    # cancel below x = 1 without cost; 0 at x = 0
    if x == 0.0:
        return 0.0
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return float(-mpmath.euler - mpmath.log(x) - mpmath.e1(x))


def _bracket(x):
    # -gamma - log(x) - E1(x), 0 at x = 0: mpmath below x = 1, where log
    # and E1 cancel in floats, and math with specfun's E1 above; neither is
    # the kernel's series of -Ein
    if x < 1.0:
        return _mp_bracket(x)
    return -EULER_GAMMA - math.log(x) - expint_e1(x)


def ref_zero_mode_1p(pos, q, tpos, at_sources, xi, length):
    out = np.zeros(len(tpos))
    for m, t in enumerate(tpos):
        for n, (qn, x) in enumerate(zip(q, pos)):
            rho2 = (t[0] - x[0]) ** 2 + (t[1] - x[1]) ** 2
            if not at_sources:
                out[m] -= qn * (math.log(rho2) + expint_e1(rho2 * xi * xi))
            elif n != m:
                out[m] += qn * _bracket(rho2 * xi * xi)
    return out / length


def _eval_targets(tpos, at_sources):
    return EvalTargets.at_sources() if at_sources else EvalTargets.at_points(
        tpos)


def _close(got, want):
    scale = np.abs(want).max() + 1.0
    assert np.abs(got - want).max() < 1e-12 * scale


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_kernels_match_reference_loops(mode):
    s = _system()
    pos, q, box = s.positions, s.charges, s.box
    par = default_params(box, mode)
    xi = par.xi
    images = build_image_vectors(box, mode, par.real_layers)
    kgrid = build_kgrid(box, mode, par.k_max)
    kvecs = kgrid.vectors
    for tpos, at_sources in _targets(s):
        targets = _eval_targets(tpos, at_sources)
        _close(kernels_numpy.real_space(pos, q, tpos, at_sources, images, xi,
                                        par.r_cut, COINCIDE_RTOL),
               ref_real_space(pos, q, tpos, at_sources, images, xi,
                              par.r_cut))
        if mode is Periodicity.P3:
            half, w = vectors(mode, box, kvecs, np.zeros(0), xi)
            _close(kernels_numpy.kspace_3p(pos, q, tpos, form(half, w, len(pos)),
                                           at_sources),
                   ref_kspace_3p(pos, q, tpos, xi, kvecs,
                                 float(np.prod(box))))
        elif mode is Periodicity.P2:
            area = float(box[0] * box[1])
            _close(kspace_sum_2p(s, xi, kgrid, targets),
                   ref_kspace_2p(pos, q, tpos, xi, kvecs, area))
            _close(kernels_numpy.zero_mode_2p(pos[:, 2], q, tpos[:, 2], xi,
                                              area),
                   ref_zero_mode_2p(pos, q, tpos, xi, area))
        else:
            length = float(box[2])
            _close(kspace_sum_1p(s, xi, kgrid, targets),
                   ref_kspace_1p(pos, q, tpos, xi, kvecs, length))
            _close(kernels_numpy.zero_mode_1p(pos, q, tpos, xi, length,
                                              at_sources),
                   ref_zero_mode_1p(pos, q, tpos, at_sources, xi, length))


def test_kspace_3p_is_a_weighted_trig_sum_over_the_vectors_given(
        monkeypatch):
    # sum_k w_k sum_n q_n cos(k.(t - x_n)) over exactly the vectors given:
    # a set not closed under negation (some k with -k, most without, one
    # twice), weights of both signs, and at and off the sources in one
    # slice and in slices of 4 (kx, ky) pairs.  The vectors lie on a
    # lattice, a subset of its half cut by |k| with some rows left out, as
    # a set far from one is refused (lattice_form.entries)
    s = _system()
    rng = np.random.default_rng(47)
    k = np.array([[0, 0, 1], [0, 0, 2], [1, 0, 0], [1, 0, 1], [1, 0, -1],
                  [1, 0, -2], [-1, 2, 0], [-1, 2, -1], [2, -1, 0],
                  [2, -1, 2], [0, 1, -1], [0, 3, -1]]) * [2.9, 3.7, 2.3]
    kvecs = np.vstack([k, -k[:4], k[:1]])
    w = rng.uniform(0.5, 2.0, len(kvecs)) * (-1.0) ** np.arange(len(kvecs))
    for tpos, at_sources in _targets(s):
        want = np.zeros(len(tpos))
        for m, t in enumerate(tpos):
            for wk, kv in zip(w, kvecs):
                want[m] += wk * sum(qn * math.cos(kv @ (t - x))
                                    for qn, x in zip(s.charges, s.positions))
        for k_elements in (kernels_numpy._K_ELEMENTS, 4 * len(s)):
            with monkeypatch.context() as mp:
                mp.setattr(kernels_numpy, "_K_ELEMENTS", k_elements)
                got = kernels_numpy.kspace_3p(
                    s.positions, s.charges, tpos,
                    form(kvecs, w, len(s.positions)), at_sources)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_reference_loops_share_no_routine_with_the_kernels(monkeypatch):
    # the kernels take erfc, erf and exp1 from scipy.special; a reference
    # that took them too would share their faults and hide them.  With the
    # three patched to raise, the kernels fail and the references still
    # agree with the kernels' unpatched values
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.special routine called")

    s = _system()
    pos, q, box = s.positions, s.charges, s.box
    par = default_params(box, Periodicity.P3)
    xi, r_cut = par.xi, par.r_cut
    images = build_image_vectors(box, Periodicity.P3, par.real_layers)
    area, length = float(box[0] * box[1]), float(box[2])
    for tpos, at_sources in _targets(s):
        pairs = [
            ((kernels_numpy.real_space, pos, q, tpos, at_sources, images,
              xi, r_cut, COINCIDE_RTOL),
             (ref_real_space, pos, q, tpos, at_sources, images, xi, r_cut)),
            ((kernels_numpy.zero_mode_2p, pos[:, 2], q, tpos[:, 2], xi,
              area),
             (ref_zero_mode_2p, pos, q, tpos, xi, area)),
            ((kernels_numpy.zero_mode_1p, pos, q, tpos, xi, length,
              at_sources),
             (ref_zero_mode_1p, pos, q, tpos, at_sources, xi, length)),
        ]
        want = [kernel(*args) for (kernel, *args), _ in pairs]
        with monkeypatch.context() as mp:
            for name in ("erfc", "erf", "exp1"):
                mp.setattr(special, name, refuse)
            for ((kernel, *args), (ref, *ref_args)), w in zip(pairs, want):
                _close(w, ref(*ref_args))
                with pytest.raises(AssertionError, match="scipy.special"):
                    kernel(*args)


# ------------------------------------ 2p and 1p on the extended lattice

def _ref_kspace(mode, s, tpos, xi, kvecs):
    if mode is Periodicity.P2:
        return ref_kspace_2p(s.positions, s.charges, tpos, xi, kvecs,
                             float(s.box[0] * s.box[1]))
    return ref_kspace_1p(s.positions, s.charges, tpos, xi, kvecs,
                         float(s.box[2]))


def _kspace_sum(mode):
    return kspace_sum_2p if mode is Periodicity.P2 else kspace_sum_1p


def _lattice_sizes(monkeypatch, mode, s, xi, kgrid, targets):
    # the k-space sum and the size of every lattice it handed kspace_3p
    sizes = []
    kspace_3p = kernels_numpy.kspace_3p

    def counted(*args):
        sizes.append(len(half_vectors(args[3])[0]))
        return kspace_3p(*args)

    with monkeypatch.context() as mp:
        mp.setattr(kernels_numpy, "kspace_3p", counted)
        got = _kspace_sum(mode)(s, xi, kgrid, targets)
    return got, sizes


@pytest.mark.parametrize("mode", [Periodicity.P2, Periodicity.P1],
                         ids=lambda m: m.value)
def test_far_targets_and_far_source_groups(monkeypatch, mode):
    # targets 1e3 out along a free axis form groups without a source, whose
    # k-space term is 0; a source group 1e3 away gets a lattice of its own.
    # Neither widens the lattice of the in-cell group.
    s = _system()
    par = default_params(s.box, mode)
    kgrid = build_kgrid(s.box, mode, par.k_max)
    inside = np.array([[0.31, 0.77, 0.12], [0.92, 0.18, 0.6]])
    if mode is Periodicity.P2:
        far = [[0.5, 0.5, 1e3], [0.2, 0.4, -1e3]]
        shift = np.array([0.0, 0.0, 1e3])
    else:
        far = [[1e3, 0.4, 0.3], [0.5, -1e3, 0.7]]
        shift = np.array([1e3, 0.0, 0.0])
    tpos = np.vstack([inside, far])
    _, (k_cell,) = _lattice_sizes(monkeypatch, mode, s, par.xi, kgrid,
                                  EvalTargets.at_points(inside))
    got, sizes = _lattice_sizes(monkeypatch, mode, s, par.xi, kgrid,
                                EvalTargets.at_points(tpos))
    assert sizes == [k_cell]
    _close(got, _ref_kspace(mode, s, tpos, par.xi, kgrid.vectors))
    assert np.all(got[2:] == 0.0)
    two = ParticleSystem(np.vstack([s.positions, s.positions[:3] + shift]),
                         np.concatenate([s.charges, -s.charges[:3]]), s.box)
    both = np.vstack([inside, inside + shift])
    for targets, tpos in ((EvalTargets.at_sources(), two.positions),
                          (EvalTargets.at_points(both), both)):
        got, sizes = _lattice_sizes(monkeypatch, mode, two, par.xi, kgrid,
                                    targets)
        assert len(sizes) == 2 and max(sizes) <= k_cell
        _close(got, _ref_kspace(mode, two, tpos, par.xi, kgrid.vectors))


@settings(max_examples=40)
@given(mode=st.sampled_from([Periodicity.P2, Periodicity.P1]),
       box=st.tuples(*[st.floats(0.5, 2.0)] * 3),
       offsets=st.lists(st.floats(-60.0, 60.0), min_size=2, max_size=2),
       pick=st.integers(0, 1), seed=st.integers(0, 2 ** 16))
def test_extended_lattice_matches_reference_loops(mode, box, offsets, pick,
                                                  seed):
    # any box shape; a source and a target moved out along a free axis, by
    # less or more than the split distance
    box = np.array(box)
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-0.5, 0.5, (4, 3)) * box
    q = rng.normal(size=4)
    tpos = rng.uniform(-0.5, 0.5, (3, 3)) * box
    axis = mode.free_axes[pick % len(mode.free_axes)]
    pos[0, axis] += offsets[0]
    tpos[0, axis] += offsets[1]
    s = ParticleSystem(pos, q, box)
    par = default_params(box, mode)
    kgrid = build_kgrid(box, mode, par.k_max)
    for targets, t in ((EvalTargets.at_sources(), pos),
                       (EvalTargets.at_points(tpos), tpos)):
        _close(_kspace_sum(mode)(s, par.xi, kgrid, targets),
               _ref_kspace(mode, s, t, par.xi, kgrid.vectors))


def test_kspace_3p_memory_stays_bounded_on_a_spread_slab():
    # 256 sources spread over z in [-100, 100], no gap wide enough to split
    # them: one 2p lattice of 27,626 half-lattice vectors, whose (M, K/2)
    # cos and sin buffers peaked at 111 MiB in one slice against the 72 MiB
    # bound.  Slices of _K_ELEMENTS keep about 18 MiB, most of it the
    # sources' z tables over the 1,837 distinct kz
    box = np.array([1.0, 1.1, 0.9])
    s = _uniform_system(256, box, 16)
    pos = np.array(s.positions)
    pos[:, 2] = np.linspace(-100.0, 100.0, len(pos))
    s = ParticleSystem(pos, s.charges, box)
    par = default_params(box, Periodicity.P2)
    kgrid = build_kgrid(box, Periodicity.P2, par.k_max)
    tracemalloc.start()
    try:
        kspace_sum_2p(s, par.xi, kgrid, EvalTargets.at_sources())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 72 * 2 ** 20, peak / 2 ** 20


_KSPACE_SUMS = {Periodicity.P3: kspace_sum_3p, Periodicity.P2: kspace_sum_2p,
                Periodicity.P1: kspace_sum_1p}


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_kspace_slices_match_one_slice(monkeypatch, mode):
    # slices of 64 (source, pair) elements, 10 (kx, ky) pairs each at the 6
    # sources, against every pair in one slice, at the sources and off
    # them: the slice rule is the same for both, and only the order of the
    # sums moves
    s = _system()
    par = default_params(s.box, mode)
    kgrid = build_kgrid(s.box, mode, par.k_max)
    pair_tables = kernels_numpy._pair_tables
    for tpos, at_sources in _targets(s):
        targets = _eval_targets(tpos, at_sources)
        got, widths = {}, {}
        for k_elements in (2 ** 40, 64):
            widths[k_elements] = []

            def counted(tables, px, *rest):
                widths[k_elements].append(len(px))
                return pair_tables(tables, px, *rest)

            with monkeypatch.context() as mp:
                mp.setattr(kernels_numpy, "_K_ELEMENTS", k_elements)
                mp.setattr(kernels_numpy, "_pair_tables", counted)
                got[k_elements] = _KSPACE_SUMS[mode](s, par.xi, kgrid,
                                                     targets)
        whole, sliced = got[2 ** 40], got[64]
        assert len(set(widths[2 ** 40])) == 1 and max(widths[64]) == 10
        assert len(widths[64]) > len(widths[2 ** 40])
        assert np.abs(sliced - whole).max() <= 1e-14 * np.abs(whole).max()


def _irregular_grid(rng, pairs, scale):
    # random +-k pairs, on no lattice, in random order: as many distinct
    # kx, ky and kz as vectors in the half lattice
    k = rng.normal(scale=scale, size=(pairs, 3))
    vecs = np.vstack([k, -k])
    return KGrid(mode=Periodicity.P3, vectors=vecs[rng.permutation(len(vecs))])


def test_kspace_3p_irregular_grid_matches_reference_loops():
    s = _system()
    rng = np.random.default_rng(43)
    grid = _irregular_grid(rng, 40, 8.0)
    volume = float(np.prod(s.box))
    for tpos, at_sources in _targets(s):
        got = kspace_sum_3p(s, 2.0, grid, _eval_targets(tpos, at_sources))
        _close(got, ref_kspace_3p(s.positions, s.charges, tpos, 2.0,
                                  grid.vectors, volume))


@pytest.mark.parametrize("mode, vectors", [
    (Periodicity.P2, [(3.1, 0.0), (0.0, 4.7), (2.2, -5.0), (5.5, 1.3),
                      (2.2, -5.0)]),
    (Periodicity.P1, [3.3, 7.1, 12.0, 3.3]),
], ids=["2p", "1p"])
def test_kspace_hand_built_grid_matches_reference_loops(mode, vectors):
    # a grid closed under negation but from no build_kgrid: off any
    # lattice, in no order, one +-k pair twice; the builder takes its
    # rows as they come, each as often as it occurs, at and off the
    # sources
    s = _system()
    rng = np.random.default_rng(59)
    k = np.array(vectors)
    vecs = np.concatenate([k, -k])
    grid = KGrid(mode=mode, vectors=vecs[rng.permutation(len(vecs))])
    for tpos, at_sources in _targets(s):
        got = _kspace_sum(mode)(s, 2.0, grid, _eval_targets(tpos, at_sources))
        _close(got, _ref_kspace(mode, s, tpos, 2.0, grid.vectors))


def _same_form(got, want):
    # two lattice forms equal array for array, the tiles as tuples
    for (u, signed), (u_want, signed_want) in zip(got[0], want[0], strict=True):
        assert u.tobytes() == u_want.tobytes() and signed == signed_want
    for a, b in zip(got[1:4], want[1:4]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert [(part, [tuple(t) for t in tiles]) for part, tiles in got[4]] == [
        (part, [tuple(t) for t in tiles]) for part, tiles in want[4]]


@pytest.mark.parametrize("mode, case", [
    (Periodicity.P3, "random"), (Periodicity.P2, "random"),
    (Periodicity.P1, "random"), (Periodicity.P2, "spread slab")],
    ids=["3p", "2p", "1p", "2p spread slab"])
def test_extended_lattice_is_the_sorted_form_of_its_vectors(monkeypatch,
                                                            mode, case):
    # every lattice the k-space sums build (random boxes and xi, at and off
    # the sources, per free-axis group) equals, array for array, the form
    # that the sort-based adapter makes of the same lattice's vector list,
    # at the slices of the call and at slices of 7 and 64 pairs.  The
    # spread slab's sources span 30 in z in each of three groups 60 apart,
    # its targets lie in all three
    rng = np.random.default_rng(60)
    build = ewald._extended_lattice
    for _ in range(3):
        box = rng.uniform(0.6, 1.6, 3)
        s = _uniform_system(48, box, int(rng.integers(2 ** 16)))
        pts = rng.uniform(-0.5, 0.5, (16, 3)) * box
        if case == "spread slab":
            pos = np.array(s.positions)
            pos[:, 2] = np.linspace(-15.0, 15.0, len(pos))
            pos[:, 2] += 60.0 * (np.arange(len(pos)) % 3)
            s = ParticleSystem(pos, s.charges, box)
            pts[:, 2] += 60.0 * (np.arange(len(pts)) % 3)
        par = default_params(box, mode, xi=rng.uniform(5.0, 9.0) / box.min())
        kgrid = build_kgrid(box, mode, par.k_max)
        calls = []

        def recorded(*args):
            calls.append(args)
            return build(*args)

        with monkeypatch.context() as mp:
            mp.setattr(ewald, "_extended_lattice", recorded)
            for targets in (EvalTargets.at_sources(),
                            EvalTargets.at_points(pts)):
                _KSPACE_SUMS[mode](s, par.xi, kgrid, targets)
        assert len(calls) == (6 if case == "spread slab" else 2)
        for *args, step in calls:
            for k in (step, 7, 64):
                _same_form(build(*args, k),
                           lattice_form.entries(*vectors(*args), k))


@pytest.mark.parametrize("mode, kp, lengths, on_cut", [
    (Periodicity.P3, [[1.0, 0.0, 2.0], [-1.0, 0.0, -2.0]], [], 1),
    (Periodicity.P2, [[1.0, 0.0], [-1.0, 0.0]], [2.0 * np.pi], 2),
    (Periodicity.P1, [[2.0], [-2.0]], [2.0 * np.pi, 2.0 * np.pi], 4),
], ids=["3p", "2p", "1p"])
def test_extended_lattice_keeps_the_vectors_on_the_cut(mode, kp, lengths,
                                                       on_cut):
    # xi = 1/4 with both Gaussian arguments 4 (k_max = 2, r_cut = 16) gives
    # C = 16 + _FREE_MARGIN = 20, so the cut is k^2 <= 4 xi^2 C = 5 exactly,
    # and with lengths 2 pi the free components are integers: (1, 0, 2)
    # and its like lie on the cut, k^2 = 5 in every rounding, and the test
    # free^2 <= room keeps them, as the vector list does
    decay = ewald._free_decay(EwaldParams(0.25, 16.0, 2.0, 0))
    assert decay == 20.0
    box, kp, lengths = np.ones(3), np.array(kp), np.array(lengths)
    got = ewald._extended_lattice(mode, box, kp, lengths, 0.25, decay, 64)
    _same_form(got, lattice_form.entries(
        *vectors(mode, box, kp, lengths, 0.25, decay), 64))
    kvecs, _ = half_vectors(got)
    assert ((kvecs * kvecs).sum(axis=1) == 5.0).sum() == on_cut


@pytest.mark.parametrize("tol", [1e-8, 1e-14, 1e-16])
@pytest.mark.parametrize("box", [[1.0, 1.1, 0.9], [1.0, 3.0, 0.9],
                                 [3.0, 2.0, 0.5]])
def test_default_3p_lattice_keeps_every_grid_vector(box, tol):
    # C = a^2 + _FREE_MARGIN exceeds k_max^2/4 xi^2 = a^2, so the cut
    # k^2/4 xi^2 <= C drops no vector of a default 3p grid: the lattice
    # holds every +-k pair once and equals the one built with no cut at
    # all, so the 3p bytes do not depend on C
    box = np.array(box)
    for n, m in ((None, None), (64, None), (512, None), (4096, None),
                 (64, 1000)):
        par = default_params(box, Periodicity.P3, tol=tol, n=n, m=m)
        kp = build_kgrid(box, Periodicity.P3, par.k_max).vectors
        args = (Periodicity.P3, box, kp, np.zeros(0), par.xi)
        got = ewald._extended_lattice(*args, ewald._free_decay(par), 64)
        _same_form(got, ewald._extended_lattice(*args, 1e6, 64))
        assert len(half_vectors(got)[0]) == len(kp) // 2


@pytest.mark.parametrize("mode", [Periodicity.P2, Periodicity.P1],
                         ids=lambda m: m.value)
def test_tighter_tol_lattice_holds_the_looser_one(monkeypatch, mode):
    # at one xi, tol 1e-16 raises C = ln(1/tol) + _FREE_MARGIN, so L_eff
    # = extent + C/k_min is longer and the cut k^2/4 xi^2 <= C wider: in
    # index space, (periodic components, free index j of 2 pi j/L_eff),
    # the tol 1e-16 lattice holds every vector of the tol 1e-14 one
    s = _system()
    periodic, free = list(mode.periodic_axes), list(mode.free_axes)
    xi = default_params(s.box, mode).xi
    build, calls = ewald._extended_lattice, []

    def recorded(*args):
        calls.append((args, build(*args)))
        return calls[-1][1]

    with monkeypatch.context() as mp:
        mp.setattr(ewald, "_extended_lattice", recorded)
        for tol in (1e-14, 1e-16):
            ewald_potential(s, mode, default_params(s.box, mode, xi=xi,
                                                    tol=tol),
                            EvalTargets.at_sources())
    assert len(calls) == 2
    held = []
    for (*_, lengths, _, decay, _), lattice in calls:
        kvecs, _ = half_vectors(lattice)
        j = np.rint(kvecs[:, free] * lengths / (2.0 * np.pi))
        held.append((decay, lengths, {tuple(v) for v in
                                      np.column_stack([kvecs[:, periodic],
                                                       j])}))
    (c14, len14, set14), (c16, len16, set16) = held
    assert c16 > c14 and (len16 > len14).all()
    assert set14 < set16


def test_kspace_3p_tables_span_the_pairs_that_occur():
    # on an irregular grid every half-lattice vector has its own kx and ky:
    # one (point, distinct kx, distinct ky) table would take 8 M Ux Uy
    # bytes, 14.7 MB here.  Its 240 pairs' staircase of (pair, |kz|) cells
    # far exceeds 2K + step, so the builder refuses the grid
    # (ewald._extended_lattice),
    # having formed no array beyond O(K) per-vector rows
    rng = np.random.default_rng(44)
    s = _uniform_system(32, [1.0, 1.1, 0.9], 45)
    grid = _irregular_grid(rng, 240, 8.0)
    pts = rng.uniform(-0.5, 0.5, (32, 3))
    table = 8 * len(pts) * 240 * 240
    for targets in (EvalTargets.at_sources(), EvalTargets.at_points(pts)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2K \\+ step"):
                kspace_sum_3p(s, 2.0, grid, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table / 4, peak / table


def test_kspace_3p_calls_no_numpy_cos_or_sin(monkeypatch):
    # cos and sin come from libm on the per-axis tables only: numpy's
    # SIMD loops, whose last bit depends on the CPU, are never called
    def refuse(*args, **kwargs):
        raise AssertionError("numpy cos or sin called")

    s = _system()
    par = default_params(s.box, Periodicity.P3)
    kgrid = build_kgrid(s.box, Periodicity.P3, par.k_max)
    want = [kspace_sum_3p(s, par.xi, kgrid, _eval_targets(t, a))
            for t, a in _targets(s)]
    with monkeypatch.context() as mp:
        mp.setattr(np, "cos", refuse)
        mp.setattr(np, "sin", refuse)
        got = [kspace_sum_3p(s, par.xi, kgrid, _eval_targets(t, a))
               for t, a in _targets(s)]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_evaluation_calls_no_python_libm_float_transcendental_or_blas(
        monkeypatch, mode):
    # every layer at and off the sources, with the parameters resolved
    # beforehand: no per-element math call (libm goes through the
    # compiled routes of kernels_numpy), no numpy float64 exp, log, cos or
    # sin (SIMD loops whose last bit depends on the CPU; numpy's complex
    # exp, C cexp, is the one allowed) and no BLAS routine: einsum only
    # with optimize=False, whose loop calls none (optimize routes through
    # tensordot to BLAS).  The bytes hold
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    np_exp = np.exp
    np_einsum = np.einsum

    def unoptimized_einsum(*args, **kwargs):
        if kwargs.get("optimize", False) is not False:
            raise AssertionError("np.einsum called with optimize")
        return np_einsum(*args, **kwargs)

    def complex_exp(x, *args, **kwargs):
        if not np.iscomplexobj(x):
            raise AssertionError("numpy float exp called")
        return np_exp(x, *args, **kwargs)

    s = _uniform_system(24, [1.0, 1.1, 0.9], 54)
    par = default_params(s.box, mode)
    pts = np.random.default_rng(55).uniform(-0.5, 0.5, (12, 3)) * s.box
    runs = (EvalTargets.at_sources(), EvalTargets.at_points(pts))
    want = [ewald_potential(s, mode, par, t) for t in runs]
    with monkeypatch.context() as mp:
        for name in ("exp", "log", "cos", "sin"):
            mp.setattr(math, name, refuse(f"math.{name}"))
        for name in ("log", "cos", "sin", "expm1", "log1p", "dot",
                     "matmul", "inner", "tensordot"):
            mp.setattr(np, name, refuse(f"np.{name}"))
        mp.setattr(np, "exp", complex_exp)
        mp.setattr(np, "einsum", unoptimized_einsum)
        got = [ewald_potential(s, mode, par, t) for t in runs]
    for g, w in zip(got, want):
        for field in ("total", "real", "kspace", "zero_mode"):
            assert getattr(g, field).tobytes() == getattr(w, field).tobytes()


def _long_double_kspace(pos, q, tpos, kvecs, w):
    # sum_k w_k (C_k cos k.t + S_k sin k.t) with every k.x, cos, sin,
    # product and sum in np.longdouble
    ld = np.longdouble
    k, qs, ws = kvecs.astype(ld), q.astype(ld), w.astype(ld)
    src = k @ pos.astype(ld).T
    cs = (np.cos(src) * qs).sum(axis=1) * ws
    sn = (np.sin(src) * qs).sum(axis=1) * ws
    tar = k @ tpos.astype(ld).T
    return (cs[:, None] * np.cos(tar) + sn[:, None] * np.sin(tar)).sum(axis=0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_kspace_3p_matches_a_long_double_sum(monkeypatch, mode):
    # the kernel's every call (the 3p grid, or a 2p or 1p extended lattice)
    # at and off the 16 sources, one block of _source_sums, against the
    # same sum in long double: the slices, the row folds and the pairwise
    # slice sums keep the error near one rounding of the largest value
    # (about 3e-16 of it here)
    _check_kspace_against_long_double(monkeypatch, mode, 16)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_kspace_3p_matches_a_long_double_sum_over_source_blocks(
        monkeypatch):
    # the same at 3p N = 512: the source sums run over 16 blocks of
    # _source_sums, added in _fold's tree, and keep the same bound
    _check_kspace_against_long_double(monkeypatch, Periodicity.P3, 512)


def _check_kspace_against_long_double(monkeypatch, mode, n):
    s = _uniform_system(n, [1.0, 1.1, 0.9], 48)
    par = default_params(s.box, mode)
    kgrid = build_kgrid(s.box, mode, par.k_max)
    pts = np.random.default_rng(49).uniform(-0.5, 0.5, (20, 3)) * s.box
    kspace_3p = kernels_numpy.kspace_3p
    for targets in (EvalTargets.at_sources(), EvalTargets.at_points(pts)):
        calls = []

        def recorded(*args):
            calls.append(args)
            return kspace_3p(*args)

        with monkeypatch.context() as mp:
            mp.setattr(kernels_numpy, "kspace_3p", recorded)
            _KSPACE_SUMS[mode](s, par.xi, kgrid, targets)
        assert calls
        for pos, q, tpos, lattice, at_sources in calls:
            want = _long_double_kspace(pos, q, tpos, *half_vectors(lattice))
            got = kspace_3p(pos, q, tpos, lattice, at_sources)
            scale = float(np.abs(want).max())
            assert float(np.abs(got - want).max()) <= 1e-15 * scale


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_kspace_3p_unpaired_kz_matches_a_long_double_sum():
    # the 3p half lattice with a third of its kz < 0 vectors removed, so
    # that many (kx, ky, kz) lack (kx, ky, -kz) and their entries hold one
    # vector (the other weight 0.0), at and off the 16 sources, against
    # the same sum in long double
    s = _uniform_system(16, [1.0, 1.1, 0.9], 53)
    par = default_params(s.box, Periodicity.P3)
    kgrid = build_kgrid(s.box, Periodicity.P3, par.k_max)
    half, w = vectors(Periodicity.P3, s.box, kgrid.vectors, np.zeros(0),
                      par.xi)
    rng = np.random.default_rng(54)
    drop = (half[:, 2] < 0.0) & (rng.uniform(size=len(half)) < 1 / 3)
    kvecs, w = half[~drop], w[~drop]
    assert drop.sum() > 100
    pts = rng.uniform(-0.5, 0.5, (20, 3)) * s.box
    for tpos, at_sources in ((s.positions, True), (pts, False)):
        want = _long_double_kspace(s.positions, s.charges, tpos, kvecs, w)
        got = kernels_numpy.kspace_3p(s.positions, s.charges, tpos,
                                      form(kvecs, w, len(s.positions)),
                                      at_sources)
        scale = float(np.abs(want).max())
        assert float(np.abs(got - want).max()) <= 1e-15 * scale


def test_kspace_3p_peak_stays_below_a_kz_by_pairs_array():
    # 2,000 vectors on no lattice: every vector has a pair and a |kz| of its
    # own, so one float64 array of (distinct |kz|, pairs) would take 32 MB.
    # The pairs' staircase of (pair, |kz|) cells exceeds 2K + step, and the
    # form refuses the set (lattice_form.entries) at and off the 8
    # sources, having formed no array beyond O(K) per-vector rows
    rng = np.random.default_rng(55)
    s = _uniform_system(8, [1.0, 1.1, 0.9], 56)
    kvecs = rng.normal(scale=8.0, size=(2000, 3))
    w = rng.uniform(0.5, 2.0, len(kvecs))
    rectangle = 8 * len(np.unique(np.abs(kvecs[:, 2]))) * len(
        np.unique(kvecs[:, :2], axis=0))
    pts = rng.uniform(-0.5, 0.5, (8, 3))
    for tpos, at_sources in ((s.positions, True), (pts, False)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2K \\+ step"):
                kernels_numpy.kspace_3p(s.positions, s.charges, tpos,
                                        form(kvecs, w, len(s.positions)),
                                        at_sources)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rectangle / 4, (peak, rectangle)


def _lattices(monkeypatch, mode, system, targets):
    # the (vectors, weights, sources) of each kernel call of the mode's
    # k-space sum, one per free-axis group, its result left out
    par = default_params(system.box, mode)
    kgrid = build_kgrid(system.box, mode, par.k_max)
    calls = []

    def record(pos, q, tpos, lattice, at_sources):
        calls.append((*half_vectors(lattice), len(pos)))
        return np.zeros(len(tpos))

    with monkeypatch.context() as mp:
        mp.setattr(kernels_numpy, "kspace_3p", record)
        _KSPACE_SUMS[mode](system, par.xi, kgrid, targets)
    return calls


@pytest.mark.parametrize("grid", ["lattice", "unpaired", "irregular", "2p",
                                  "1p", "spread slab"])
def test_kspace_3p_tiles_hold_at_most_twice_their_entries(monkeypatch, grid):
    # a tile spans consecutive |kz| rows by the first pairs of its slice;
    # its cells, entries and padding, count at most twice its cells of the
    # pairs' staircase and at most a slice of pairs.  The lattices of
    # every mode, at and off the sources and per free-axis group, pass the
    # kernel's guard with at most one cell per vector; a subset of one
    # passes it too, and a set on no lattice is refused
    rng = np.random.default_rng(57)
    box = np.array([1.0, 1.1, 0.9])
    if grid in ("lattice", "unpaired", "irregular"):
        par = default_params(box, Periodicity.P3)
        kvecs, w = vectors(Periodicity.P3, box,
                           build_kgrid(box, Periodicity.P3,
                                       par.k_max).vectors,
                           np.zeros(0), par.xi)
        if grid == "unpaired":
            keep = rng.uniform(size=len(kvecs)) < 0.6
            kvecs, w = kvecs[keep], w[keep]
        elif grid == "irregular":
            kvecs = rng.normal(scale=8.0, size=(500, 3))
            w = np.ones(len(kvecs))
            for step in (7, 64, 4096):
                with pytest.raises(ValueError, match="2K \\+ step"):
                    lattice_form.entries(kvecs, w, step)
            return
        sets = [(kvecs, w, None)]
    else:
        # 64 sources, and 16 targets, six of them 5 out along the axes
        # (wrapped back along the periodic ones); the spread slab's sources
        # span 30 in z in each of three groups 60 apart, its targets lie in
        # all three
        mode = Periodicity.P1 if grid == "1p" else Periodicity.P2
        s = _uniform_system(64, box, 58)
        pts = rng.uniform(-0.5, 0.5, (16, 3)) * box
        pts[:6] += [[0.0, 0.0, 5.0], [0.0, 0.0, -5.0], [5.0, 0.0, 0.0],
                    [-5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, -5.0, 0.0]]
        if grid == "spread slab":
            pos = np.array(s.positions)
            pos[:, 2] = np.linspace(-15.0, 15.0, len(pos))
            pos[:, 2] += 60.0 * (np.arange(len(pos)) % 3)
            s = ParticleSystem(pos, s.charges, box)
            pts[:, 2] += 60.0 * (np.arange(len(pts)) % 3)
        sets = [lattice for targets in (EvalTargets.at_sources(),
                                        EvalTargets.at_points(pts))
                for lattice in _lattices(monkeypatch, mode, s, targets)]
        assert len(sets) == (6 if grid == "spread slab" else 2)
    for kvecs, w, n_src in sets:
        entries = np.unique(
            np.column_stack([kvecs[:, :2], np.abs(kvecs[:, 2])]), axis=0)
        steps = (7, 64, 4096) + ((max(1, 2 ** 15 // n_src),) if n_src
                                 else ())
        for step in steps:
            _, px, _, wsd, slices = lattice_form.entries(kvecs, w, step)
            tiles = [t for _, ts in slices for t in ts]
            assert wsd.shape[1] == sum(c1 - c0 for *_, c0, c1 in tiles)
            assert wsd.shape[1] <= 2 * len(entries)
            assert max(c1 - c0 for *_, c0, c1 in tiles) <= step
            if grid != "unpaired":
                assert wsd.shape[1] <= len(kvecs)
            # a tile's cells are its rows by its pairs, the first of its
            # slice
            for part, ts in slices:
                for ra, rb, n, c0, c1 in ts:
                    assert c1 - c0 == (rb - ra) * n
                    assert n <= len(px[part])
            # the weights land in their cells: w+ + w- sums to the weights
            assert math.isclose(wsd[0].sum(), w.sum(), rel_tol=1e-12)
            assert len(px) == len(np.unique(kvecs[:, :2], axis=0))


def _row_by_row_tiles(reach, step):
    # a slice's tiles by the rule row by row: a tile starts at row ra with
    # the n pairs that reach it and takes the next row while its cells
    # then stay within step and twice its cells of the staircase
    tiles, ra = [], 0
    while ra < len(reach):
        rb, n = ra + 1, reach[ra]
        while rb < len(reach) and (rb + 1 - ra) * n <= min(
                step, 2 * sum(reach[ra:rb + 1])):
            rb += 1
        tiles.append((ra, rb, n))
        ra = rb
    return tiles


def test_tiles_follow_the_row_by_row_rule():
    # _tiles ends each tile by a search over the slice's cumulative reach,
    # one step per tile; its tiles and cells equal those of the rule taken
    # row by row on random staircases and slice widths
    rng = np.random.default_rng(59)
    for _ in range(200):
        last = np.sort(rng.integers(0, rng.integers(1, 50),
                                    rng.integers(1, 300)))[::-1].copy()
        odd = int(rng.integers(1, 600))
        step = int(rng.choice([1, 2, 3, 7, 28, 64, 512, odd]))
        pair = np.repeat(np.arange(len(last)), last + 1)
        row = np.concatenate([np.arange(r + 1) for r in last])
        slices, cell, end = kernels_numpy._tiles(last, step, pair, row)
        want, c0 = [], 0
        for p0 in range(0, len(last), step):
            reach = [int((last[p0:p0 + step] >= r).sum())
                     for r in range(last[p0] + 1)]
            for ra, rb, n in _row_by_row_tiles(reach, step):
                want.append((ra, rb, n, c0, c0 + (rb - ra) * n))
                c0 += (rb - ra) * n
        assert [t for _, ts in slices for t in ts] == want
        assert end == c0
        # each (pair, row) in the tile of its row, at its pair's column
        for (p, r), c in zip(zip(pair, row), cell):
            p0 = p - p % step
            tile = next(t for t in slices[p0 // step][1]
                        if t[0] <= r < t[1])
            assert c == tile[3] + (r - tile[0]) * tile[2] + p % step


def test_axis_tables_equal_direct_libm_tables():
    # the tables take libm on the distinct |u| only and the x and y rows of
    # -|u| from them (_axis_tables); their bytes must equal math.cos and
    # math.sin of u x over every signed x and y component and every |kz|,
    # which holds while libm cos is even and sin odd
    rng = np.random.default_rng(50)
    s = _uniform_system(8, [1.0, 1.1, 0.9], 51)
    pts = np.vstack([s.positions, rng.uniform(-40.0, 40.0, (8, 3))])
    par = default_params(s.box, Periodicity.P3)
    kgrid = build_kgrid(s.box, Periodicity.P3, par.k_max)
    half, w = vectors(Periodicity.P3, s.box, kgrid.vectors, np.zeros(0),
                      par.xi)
    irregular = rng.normal(scale=30.0, size=(20, 3))
    for kvecs in (half, np.vstack([irregular, -irregular, [[0.0] * 3]])):
        axs = axes(kvecs)[0]
        cx, sx, cy, sy, zs = kernels_numpy._axis_tables(pts, pts[:, 2], axs)
        tables = [(cx, sx), (cy, sy), tuple(zs)]
        for a, (au, signed) in enumerate(axs):
            cos, sin = tables[a]
            assert len(cos) == len(au) * (1 + signed)
            assert signed == (a < 2 and bool((kvecs[:, a] < 0.0).any()))
            comps = kvecs[:, a] if a < 2 else np.abs(kvecs[:, a])
            for u in np.unique(comps):
                row = np.searchsorted(au, abs(u)) + len(au) * (u < 0.0)
                assert au[row % len(au)] == abs(u)
                for fn, table in ((math.cos, cos), (math.sin, sin)):
                    direct = np.array([fn(u * x) for x in pts[:, a]])
                    assert table[row].tobytes() == direct.tobytes(), (fn, u)


def test_cos_sin_peak_stays_near_its_result():
    # the (components, points) shape of the z tables of the spread-slab
    # test (1,837 distinct kz by 256 sources): the tables are the result,
    # 7.2 MiB; the complex scratch of _TRIG_RUN elements adds 64 KiB
    x = np.random.default_rng(52).uniform(-300.0, 300.0, (1837, 256))
    want = [np.array([fn(v) for v in x.ravel()]).reshape(x.shape)
            for fn in (math.cos, math.sin)]
    tracemalloc.start()
    try:
        got = kernels_numpy._cos_sin(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert peak <= 1.05 * got.nbytes, peak / got.nbytes


def _libm_route_samples():
    # per route, its arguments: wide samples and the edges of each function
    rng = np.random.default_rng(53)
    one = np.array([1.0, 1.0])
    near_one = [np.nextafter(one, [0.0, 2.0])]
    for _ in range(1000):
        near_one.append(np.nextafter(near_one[-1], [0.0, 2.0]))
    quarter = np.arange(-6400, 6401) * (np.pi / 2.0)
    tiny = np.array([5e-324, 2.2250738585072014e-308, 1e-300, 1e-30])
    return {
        # underflow into the subnormals (below -708.4) and to 0 (below
        # -745.1), and the range of the Ewald weights
        "exp": np.concatenate([
            rng.uniform(-750.0, 700.0, 60000),
            rng.uniform(-746.0, -707.0, 20000),
            rng.uniform(-45.0, 0.0, 40000),
            [-750.0, -745.2, -745.1, -708.4, -45.0, -1e-300, -0.0, 0.0,
             700.0]]),
        "log": np.concatenate([
            10.0 ** rng.uniform(-3.0, 6.0, 80000),
            rng.uniform(0.99, 1.01, 20000),
            np.ravel(near_one), [1e-3, 1.0, 1e6]]),
        # cos and sin next to multiples of pi/2, a few ulps either side
        "cos_sin": np.concatenate([
            rng.uniform(-1e4, 1e4, 80000),
            rng.uniform(-1e-8, 1e-8, 10000),
            quarter, np.nextafter(quarter, np.inf),
            np.nextafter(quarter, -np.inf),
            np.nextafter(np.nextafter(quarter, np.inf), np.inf),
            tiny, -tiny, [0.0, -0.0, 1e4, -1e4]]),
    }


def _libm_route_mismatches():
    """The routes of kernels_numpy (_exp, _log, _cos_sin) whose bytes
    differ from math's libm call on _libm_route_samples, with the count of
    elements that differ; empty when every byte holds."""
    bad = {}
    for name, x in _libm_route_samples().items():
        if name == "cos_sin":
            got = kernels_numpy._cos_sin(x)
            pairs = [("cos", got[0], math.cos), ("sin", got[1], math.sin)]
        else:
            route = getattr(kernels_numpy, f"_{name}")
            pairs = [(name, route(x), getattr(math, name))]
        for fn_name, g, fn in pairs:
            want = np.array([fn(v) for v in x.tolist()])
            if g.tobytes() != want.tobytes():
                diff = g.view(np.int64) != want.view(np.int64)
                bad[fn_name] = int(diff.sum())
    return bad


def test_libm_routes_equal_math_byte_for_byte():
    # the determinism contract: exp, log, cos and sin of every layer are
    # glibc's, as math's are, on the whole of their ranges and at the edges
    # (subnormal underflow, neighbours of 1, multiples of pi/2, +-0.0)
    assert _libm_route_mismatches() == {}


def _in_a_child_with_simd_dispatch_disabled(helper):
    """Run test_kernels.<helper>() in a child process with every dispatch
    target above numpy's baseline that numpy reports present disabled;
    assert that it returns nothing to report.  With no target present,
    this is the plain run."""
    from numpy._core._multiarray_umath import (
        __cpu_dispatch__,
        __cpu_features__,
    )
    present = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=",".join(present))
    code = (f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r}); "
            "import test_kernels; "
            f"bad = test_kernels.{helper}(); "
            "print(bad); sys.exit(bool(bad))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, (present, r.stdout, r.stderr)


def test_libm_routes_with_simd_dispatch_disabled():
    # the routes keep math's bytes with every dispatch target above numpy's
    # baseline disabled, as the goldens do; a numpy build that vectorises
    # complex exp, or scipy's exp or log, fails here on arguments the
    # goldens never reach
    _in_a_child_with_simd_dispatch_disabled("_libm_route_mismatches")


def _sequential_tile_sums(c, zs):
    # the order the kernel states for a tile: per (U/V, pair, target) its
    # products added one at a time from 0.0, row by row, cz then sz
    out = np.zeros(c.shape[2:] + zs.shape[-1:])
    for r in range(len(c)):
        for j in range(2):
            out += c[r, j][..., None] * zs[r, j]
    return out


def _tile_sum_mismatches():
    """The tile shapes (rows, pairs, targets, z strides) on which
    kernels_numpy._tile_sums differs from the sequential loop in any
    byte; empty when every byte holds.  The z tables come contiguous, as
    the kernel holds them, and as a window of wider rows."""
    rng = np.random.default_rng(58)
    bad = []
    for rows, pairs, m in itertools.product((1, 2, 3, 11, 18, 36),
                                            (1, 2, 28, 252),
                                            (1, 2, 7, 64, 1000)):
        c = rng.normal(size=(rows, 2, 2, pairs))
        wide = rng.normal(size=(rows, 2, m + 3))
        for zs in (np.ascontiguousarray(wide[..., :m]), wide[..., 3:]):
            got = kernels_numpy._tile_sums(c, zs, np.empty((2, pairs, m)))
            if got.tobytes() != _sequential_tile_sums(c, zs).tobytes():
                bad.append((rows, pairs, m, zs.strides))
    return bad


def test_tile_sums_add_in_the_stated_order():
    # the target side's one einsum per tile is the sequential loop, byte
    # for byte, on one row, one pair, one target and up to 36 rows by 252
    # pairs by 1,000 targets.  A numpy build whose einsum loop fuses the
    # multiply and add (a baseline with FMA) fails here
    assert _tile_sum_mismatches() == []


def test_tile_sums_with_simd_dispatch_disabled():
    # the same with every dispatch target above numpy's baseline disabled,
    # as test_libm_routes_with_simd_dispatch_disabled does
    _in_a_child_with_simd_dispatch_disabled("_tile_sum_mismatches")


def _lane_sum(a, b):
    # the stated order of one block's sum of a[n] b[n], lists of floats:
    # two running sums from 0.0; per group of 8, lane l adds the products
    # at offsets 6 + l, 4 + l, 2 + l and l; the rest in pairs, lane 0 the
    # first of a pair; then lane 0 + lane 1
    acc = [0.0, 0.0]
    i = 0
    while len(a) - i >= 8:
        for lane in range(2):
            for off in (6, 4, 2, 0):
                acc[lane] += a[i + off + lane] * b[i + off + lane]
        i += 8
    for k in range(i, len(a)):
        acc[(k - i) % 2] += a[k] * b[k]
    return acc[0] + acc[1]


def _fold_list(sums):
    # _fold's tree: while n > 1 are left, the last n // 2 onto the first
    sums, n = list(sums), len(sums)
    while n > 1:
        h = n // 2
        sums[:h] = [x + y for x, y in zip(sums[:h], sums[n - h:n])]
        n -= h
    return sums[0]


def _stated_source_sums(xy, qz):
    # per (row, z table, pair table, pair) the blocks of _SOURCE_BLOCK
    # consecutive sources, each by _lane_sum, added in _fold's tree
    step = kernels_numpy._SOURCE_BLOCK
    out = np.empty(qz.shape[:2] + xy.shape[:2])
    for (r, j, i, p), _ in np.ndenumerate(out):
        a, b = xy[i, p].tolist(), qz[r, j].tolist()
        out[r, j, i, p] = _fold_list(
            [_lane_sum(a[k:k + step], b[k:k + step])
             for k in range(0, len(a), step)])
    return out


def _source_sum_mismatches():
    """The (rows, pairs, sources) on which kernels_numpy._source_sums
    differs from the stated order in any byte; empty when every byte
    holds.  The operands are views as the kernel takes them, the first
    pairs of wider pair tables and a window of the z rows, and the tiles
    of the kernel's own call at 3p N = 40 (two blocks)."""
    rng = np.random.default_rng(60)
    bad = []
    shapes = [(rows, pairs, n) for n in [*range(1, 41), 64, 512, 777]
              for rows, pairs in ((1, 1), (3, 5))] + [(18, 28, 64),
                                                      (2, 60, 96)]
    for rows, pairs, n in shapes:
        xy = rng.normal(size=(2, pairs + 3, n))[:, :pairs]
        qz = rng.normal(size=(rows + 2, 2, n))[1:rows + 1]
        blocks = -(-n // kernels_numpy._SOURCE_BLOCK)
        work = np.empty(4 * rows * pairs * blocks)
        got = kernels_numpy._source_sums(xy, qz, np.empty((rows, 2, 2,
                                                           pairs)), work)
        if got.tobytes() != _stated_source_sums(xy, qz).tobytes():
            bad.append((rows, pairs, n))
    source_sums = kernels_numpy._source_sums
    seen = []

    def recorded(xy, qz, out, work):
        source_sums(xy, qz, out, work)
        # the operands as they were: the kernel reuses their memory
        seen.append((xy.copy(), qz.copy(), out.copy()))
        return out

    kernels_numpy._source_sums = recorded
    try:
        s = _uniform_system(40, [1.0, 1.1, 0.9], 61)
        ewald_potential(s, Periodicity.P3, default_params(s.box,
                                                          Periodicity.P3),
                        EvalTargets.at_sources())
    finally:
        kernels_numpy._source_sums = source_sums
    assert len(seen) > 1
    for xy, qz, got in seen:
        if got.tobytes() != _stated_source_sums(xy, qz).tobytes():
            bad.append((len(qz), xy.shape[1], xy.shape[2]))
    return bad


def test_source_sums_add_in_the_stated_order():
    # the source side's einsums per tile, blocks of _SOURCE_BLOCK sources
    # added in _fold's tree, equal the stated order byte for byte from 1
    # to 777 sources.  A numpy build whose einsum loop fuses the multiply
    # and add or keeps more than two lanes (a baseline with FMA or wider
    # vectors) fails here, as does numpy's pairwise row sum
    assert _source_sum_mismatches() == []


def test_source_sums_with_simd_dispatch_disabled():
    # the same with every dispatch target above numpy's baseline disabled
    _in_a_child_with_simd_dispatch_disabled("_source_sum_mismatches")


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_kspace_bytes_do_not_depend_on_row_blocks(monkeypatch, mode):
    # blocks of one point (a budget of a few elements) against one block of
    # every point, at the sources and off them, on random points and on a
    # grid, whose blocks share the tables of their repeated coordinates
    s = _uniform_system(40, [1.0, 1.1, 0.9], 46)
    par = default_params(s.box, mode)
    kgrid = build_kgrid(s.box, mode, par.k_max)
    pts = np.random.default_rng(47).uniform(-0.5, 0.5, (30, 3)) * s.box
    for targets in (EvalTargets.at_sources(), EvalTargets.at_points(pts),
                    EvalTargets.at_points(_grid(4, s.box))):
        got = {}
        for budget in (4, 2 ** 40):
            with monkeypatch.context() as mp:
                mp.setattr(kernels_numpy, "_ROW_ELEMENTS", budget)
                got[budget] = _KSPACE_SUMS[mode](s, par.xi, kgrid, targets)
        assert got[4].tobytes() == got[2 ** 40].tobytes()


def _grid(k, box):
    # a cell-centred k^3 grid of points over the box
    c = (np.arange(k) + 0.5) / k - 0.5
    return np.stack(np.meshgrid(c, c, c, indexing="ij"),
                    axis=-1).reshape(-1, 3) * box


def _repeating_target_sets(box):
    """Target sets whose coordinates repeat: a 4^3 grid, and per axis a
    line along it and a plane normal to it."""
    box = np.asarray(box)
    sets = {"grid": _grid(4, box)}
    c = np.linspace(-0.45, 0.45, 12)
    plane = np.stack(np.meshgrid(c, c, indexing="ij"), -1).reshape(-1, 2)
    for a in range(3):
        other = [b for b in range(3) if b != a]
        line = np.tile([0.17, -0.23, 0.11], (len(c), 1))
        line[:, a] = c
        sets[f"line {a}"] = line * box
        normal = np.tile([0.17, -0.23, 0.11], (len(plane), 1))
        normal[:, other] = plane
        sets[f"plane {a}"] = normal * box
    return sets


def _off_source_kernels(mode, s, pts):
    """kspace_3p and real_space off the sources at the points pts, at the
    default parameters of the mode; kspace_3p on a fixed lattice, whose
    free lengths (3 times the box's) do not depend on the points, as
    those of kspace_sum_2p and kspace_sum_1p do."""
    par = default_params(s.box, mode)
    kp = np.atleast_2d(build_kgrid(s.box, mode, par.k_max).vectors.T).T
    lengths = 3.0 * s.box[list(mode.free_axes)]
    lattice = form(*vectors(mode, s.box, kp, lengths, par.xi), len(s))
    images = build_image_vectors(s.box, mode, par.real_layers)
    return {
        "kspace": lambda: kernels_numpy.kspace_3p(s.positions, s.charges,
                                                  pts, lattice, False),
        "real": lambda: kernels_numpy.real_space(
            s.positions, s.charges, pts, False, images, par.xi, par.r_cut,
            COINCIDE_RTOL)}


def _shared_and_alone(mode, s, pts):
    """Per layer (kspace, real) off the sources at pts: whether its bytes
    equal those of the same kernel with _ROW_ELEMENTS = 4, where each
    block or run holds one target and so takes no table over repeated
    coordinates, and whether the first run formed such a table."""
    kernels = _off_source_kernels(mode, s, pts)
    block_rows, budget = kernels_numpy._block_rows, kernels_numpy._ROW_ELEMENTS
    shared = []

    def counted(*args):
        rows, ids = block_rows(*args)
        shared.append(ids is not None)
        return rows, ids

    out = {}
    for layer, call in kernels.items():
        shared.clear()
        kernels_numpy._block_rows = counted
        try:
            got = call()
        finally:
            kernels_numpy._block_rows = block_rows
        kernels_numpy._ROW_ELEMENTS = 4
        try:
            alone = call()
        finally:
            kernels_numpy._ROW_ELEMENTS = budget
        out[layer] = (got.tobytes() == alone.tobytes(), any(shared))
    return out


def _repeated_coordinate_mismatches(names=None):
    """The (mode, target set, layer) of _repeating_target_sets (those
    named, or all) on which the off-source kernels differ in any byte from
    their one-target blocks, or take no table over repeated coordinates
    at all; empty when every byte holds."""
    s = _uniform_system(40, [1.0, 1.1, 0.9], 46)
    bad = []
    for name, pts in _repeating_target_sets(s.box).items():
        if names is not None and name not in names:
            continue
        for mode in Periodicity:
            for layer, (same, shared) in _shared_and_alone(mode, s,
                                                           pts).items():
                if not (same and shared):
                    bad.append((mode.value, name, layer, same, shared))
    return bad


def test_repeated_coordinates_keep_every_byte():
    # off the sources a block forms the per-axis tables (k space) and the
    # d^2 components (real space) once per distinct coordinate and gathers
    # them to its targets; on a grid, lines and planes every byte equals
    # that of blocks of one target, in every mode, and every case shares
    # a table
    assert _repeated_coordinate_mismatches() == []


def test_repeated_coordinates_with_simd_dispatch_disabled():
    # the grid's gathers with every dispatch target above numpy's
    # baseline disabled, as test_libm_routes_with_simd_dispatch_disabled
    # checks the libm routes
    _in_a_child_with_simd_dispatch_disabled(
        "_repeated_coordinate_mismatches_on_the_grid")


def _repeated_coordinate_mismatches_on_the_grid():
    return _repeated_coordinate_mismatches({"grid"})


#: per axis a few coordinates, as fractions of the box, 0.0 and -0.0 among
#: them: their sines differ in sign, so a table shared between them would
#: move bits
_FEW_COORDINATES = (-0.41, -0.0, 0.0, 0.23)


@settings(max_examples=25)
@given(mode=st.sampled_from(list(Periodicity)),
       picks=st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1,
                      max_size=48))
def test_targets_on_few_coordinates_keep_every_byte(mode, picks):
    s = _uniform_system(12, [1.0, 1.1, 0.9], 49)
    pts = np.array(_FEW_COORDINATES)[np.array(picks)] * s.box
    for layer, (same, _) in _shared_and_alone(mode, s, pts).items():
        assert same, layer


# ------------------------------------------------------ blocked zero modes

def _zero_mode_calls(n, m, seed):
    # the zero-mode kernels on n sources and m off-particle points, the 1p
    # one also at the sources
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-0.5, 0.5, (n, 3))
    q = rng.normal(size=n)
    q -= q.mean()
    pts = rng.uniform(-0.5, 0.5, (m, 3))
    return {
        "2p": lambda: kernels_numpy.zero_mode_2p(pos[:, 2], q, pts[:, 2],
                                                 2.0, 1.1),
        "1p_sources": lambda: kernels_numpy.zero_mode_1p(pos, q, pos, 1.0,
                                                         0.9, True),
        "1p_points": lambda: kernels_numpy.zero_mode_1p(pos, q, pts, 1.0,
                                                        0.9, False),
    }


def test_zero_modes_memory_stays_bounded():
    # 640 x 640 (target, source) pairs, 12.5 times _ROW_ELEMENTS: the
    # unblocked kernels held several (M, N) arrays of 3.3 MB and a list of
    # M N Python floats at once, 19 to 35 MB; row blocks keep 3 MB or less
    for name, call in _zero_mode_calls(640, 640, 48).items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * kernels_numpy._ROW_ELEMENTS, (name, peak)


def test_zero_mode_bytes_do_not_depend_on_row_blocks(monkeypatch):
    # blocks of one target (a budget of a few elements) against one block of
    # every target; each row keeps its own sum, so the bytes hold
    s = _uniform_system(40, [1.0, 1.1, 0.9], 49)
    pts = np.random.default_rng(50).uniform(-0.5, 0.5, (30, 3)) * s.box
    for layer in (zero_mode_2p, zero_mode_1p):
        for targets in (EvalTargets.at_sources(),
                        EvalTargets.at_points(pts)):
            got = {}
            for budget in (4, 2 ** 40):
                with monkeypatch.context() as mp:
                    mp.setattr(kernels_numpy, "_ROW_ELEMENTS", budget)
                    got[budget] = layer(s, 1.7, targets)
            assert got[4].tobytes() == got[2 ** 40].tobytes()


def _bracket_points():
    # 0, a log grid over [1e-12, 50], and both sides of the switch at _EIN_X0
    x0 = kernels_numpy._EIN_X0
    near = [x0, np.nextafter(x0, 0.0), np.nextafter(x0, np.inf)]
    return np.concatenate([[0.0], np.geomspace(1e-12, 50.0, 400),
                           np.linspace(x0 - 0.1, x0 + 0.1, 41), near])


def test_log_e1_bracket_against_mpmath():
    # the kernel's bracket within 1e-15 of max(|bracket|, 1) of mpmath at 40
    # digits on [0, 50], the series below _EIN_X0 and log/E1 above it, and
    # +0.0, not -0.0, at x = 0
    x = _bracket_points()
    got = kernels_numpy._log_e1_bracket_array(x)
    want = np.array([_mp_bracket(v) for v in x])
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(want), 1.0))
    assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0
    assert (x < kernels_numpy._EIN_X0).any() and (x > kernels_numpy._EIN_X0).any()


def test_log_e1_bracket_bytes_follow_each_element_alone():
    # an element's bracket keeps its bytes when the array around it is
    # permuted, split or reshaped, on both sides of _EIN_X0
    rng = np.random.default_rng(5)
    x = np.concatenate([_bracket_points(), rng.uniform(0.0, 8.0, 1000)])
    x = x[rng.permutation(len(x))][:1440]
    bracket = kernels_numpy._log_e1_bracket_array
    whole = bracket(x)
    perm = rng.permutation(len(x))
    assert bracket(x[perm]).tobytes() == whole[perm].tobytes()
    alone = [bracket(x[i:i + 1]) for i in range(len(x))]
    assert np.concatenate(alone).tobytes() == whole.tobytes()
    order = np.argsort(x)    # runs of only small, or only large, x
    runs = [bracket(x[order[a:a + 160]]) for a in range(0, len(x), 160)]
    assert np.concatenate(runs).tobytes() == whole[order].tobytes()
    assert bracket(x.reshape(36, 40)).tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", [100, 300])
def test_zero_mode_1p_takes_each_pair_once_at_the_sources(monkeypatch, n):
    # at the sources the bracket runs on n (n - 1) / 2 pairs, not n^2
    # targets by sources; up to one tile of sources (_PAIR_TILE) the result
    # keeps the bytes of the off-source rows at the same points, and over
    # more tiles, whose row sums add in tile order, it stays within a few
    # roundings of them
    rng = np.random.default_rng(58)
    pos = rng.uniform(-0.5, 0.5, (n, 3))
    q = rng.normal(size=n)
    q -= q.mean()
    bracket = kernels_numpy._log_e1_bracket_array
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return bracket(x)

    with monkeypatch.context() as mp:
        mp.setattr(kernels_numpy, "_log_e1_bracket_array", counted)
        got = kernels_numpy.zero_mode_1p(pos, q, pos, 1.3, 0.9, True)
    assert sum(sizes) == n * (n - 1) // 2
    rows = kernels_numpy.zero_mode_1p(pos, q, pos, 1.3, 0.9, False)
    if n <= kernels_numpy._PAIR_TILE:
        assert got.tobytes() == rows.tobytes()
    else:
        assert np.abs(got - rows).max() <= 1e-15 * np.abs(rows).max()


# ------------------------------------------------- culled real-space kernel

def _dense_pairs(pos, tpos, at_sources, images, r_cut):
    # per image: the (M, N) distances and the mask of the pairs summed
    delta = tpos[:, None, :] - pos[None, :, :]
    for pvec in images:
        d = np.sqrt(((delta + pvec) ** 2).sum(axis=-1))
        keep = d <= r_cut
        if at_sources and not pvec.any():
            np.fill_diagonal(keep, False)
        yield d, keep


def dense_real_space(pos, q, tpos, at_sources, images, xi, r_cut):
    # every (target, source, image) term, summed image by image: the
    # formula of the kernel before it culled the pairs beyond r_cut
    out = np.zeros(len(tpos))
    for d, keep in _dense_pairs(pos, tpos, at_sources, images, r_cut):
        safe = np.where(keep, d, 1.0)
        out += np.where(keep, special.erfc(xi * safe) * q[None, :] / safe,
                        0.0).sum(axis=1)
    return out


def _uniform_system(n, box, seed):
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float)
    pos = rng.uniform(-0.5, 0.5, (n, 3)) * box
    q = rng.normal(size=n)
    q -= q.mean()
    return ParticleSystem(positions=pos, charges=q, box=box)


def _culled_matches_dense(monkeypatch, pos, q, tpos, at_sources, images, xi,
                          r_cut):
    # the default partition and one block per occupied cell (blocking
    # forced on) both lie within 1e-14 of the dense formula.  Off the
    # sources they give the same bytes.  At the sources the blocks own the
    # pairs and so set the order of the sum: there the two agree in value,
    # and runs of one target, which set no order, give the default bytes
    args = (pos, q, tpos, at_sources, images, xi, r_cut, COINCIDE_RTOL)
    want = dense_real_space(*args[:-1])
    got = kernels_numpy.real_space(*args)
    with monkeypatch.context() as mp:
        mp.setattr(kernels_numpy, "_FEW_TARGETS", 0)
        blocked = kernels_numpy.real_space(*args)
    scale = np.abs(want).max()
    if at_sources:
        with monkeypatch.context() as mp:
            mp.setattr(kernels_numpy, "_ROW_ELEMENTS", 1)
            single = kernels_numpy.real_space(*args)
        assert single.tobytes() == got.tobytes()
        assert np.abs(blocked - got).max() <= 1e-14 * scale
        assert np.abs(blocked - want).max() <= 1e-14 * scale
    else:
        assert got.tobytes() == blocked.tobytes()
    assert np.abs(got - want).max() <= 1e-14 * scale
    return got


def test_real_space_thin_box_many_shells(monkeypatch):
    # L3 = 0.15 with r_cut = 0.68: five image shells, 11^3 images
    box = [1.0, 1.0, 0.15]
    s = _uniform_system(40, box, 1)
    xi = 8.0
    par = default_params(box, Periodicity.P3, xi=xi)
    assert par.real_layers >= 5
    images = build_image_vectors(box, Periodicity.P3, par.real_layers)
    grid = np.stack(np.meshgrid(*[np.linspace(-0.45, 0.45, 4)] * 2,
                                [0.05], indexing="ij"), axis=-1)
    for tpos, at_sources in ((s.positions, True),
                             (grid.reshape(-1, 3) * box, False)):
        _culled_matches_dense(monkeypatch, s.positions, s.charges, tpos,
                              at_sources, images, xi, par.r_cut)


def test_real_space_infinite_cutoff(monkeypatch):
    box = [1.0, 1.1, 0.9]
    images = build_image_vectors(box, Periodicity.P3, 1)
    s = _uniform_system(200, box, 2)
    assert len(kernels_numpy._target_blocks(s.positions, math.inf)) == 1
    _culled_matches_dense(monkeypatch, s.positions, s.charges, s.positions,
                          True, images, 3.0, math.inf)


def test_real_space_cutoff_below_block_side(monkeypatch):
    # r_cut = 0.05: the one block of 120 targets spans the cell, about 20
    # r_cut wide; with blocking forced on, most blocks hold one target.
    # Most targets have no pair within r_cut.
    box = [1.0, 1.1, 0.9]
    s = _uniform_system(120, box, 3)
    assert len(kernels_numpy._target_blocks(s.positions, 0.05)) == 1
    images = build_image_vectors(box, Periodicity.P3, 1)
    got = _culled_matches_dense(monkeypatch, s.positions, s.charges,
                                s.positions, True, images, 60.0, 0.05)
    assert np.count_nonzero(got == 0.0) > 60


def test_real_space_targets_on_block_edges(monkeypatch):
    # targets spaced exactly r_cut/2 apart sit on the cell boundaries of
    # the blocks; one source lies exactly r_cut below a corner target, on
    # the edge of that block's candidate box
    box = np.array([1.0, 1.0, 1.0])
    r_cut = 0.25
    axis = -0.4 + 0.125 * np.arange(6)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    s = _uniform_system(24, box, 4)
    pos = np.array(s.positions)
    pos[0] = [-0.4, -0.4, -0.4 - r_cut]
    assert np.linalg.norm(grid[0] - pos[0]) == r_cut
    images = build_image_vectors(box, Periodicity.P3, 1)
    assert len(kernels_numpy._target_blocks(grid, r_cut)) > 1
    _culled_matches_dense(monkeypatch, pos, s.charges, grid, False, images,
                          20.0, r_cut)


@pytest.mark.parametrize("mode", [Periodicity.P1, Periodicity.P2],
                         ids=lambda m: m.value)
def test_real_space_wire_and_slab(monkeypatch, mode):
    box = [1.0, 1.1, 0.9]
    s = _uniform_system(160, box, 5)
    par = default_params(box, mode)
    images = build_image_vectors(box, mode, par.real_layers)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.5, 0.5, (150, 3)) * box
    for tpos, at_sources in ((s.positions, True), (pts, False)):
        _culled_matches_dense(monkeypatch, s.positions, s.charges, tpos,
                              at_sources, images, par.xi, par.r_cut)


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_real_space_sum_outside_the_cell(monkeypatch, mode):
    # real_space_sum does not wrap: sources and targets outside the primary
    # cell, far out along a free axis where there is one, keep their places
    box = np.array([1.0, 1.1, 0.9])
    s = _uniform_system(140, box, 7)
    pos = np.array(s.positions)
    pos[::3] += 1.7 * box
    far = 1 if mode is Periodicity.P1 else 2
    pos[1::3, far] += 4.0
    moved = ParticleSystem(positions=pos, charges=s.charges, box=box)
    par = default_params(box, mode)
    images = build_image_vectors(box, mode, par.real_layers)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, (140, 3)) * box
    for targets, tpos, at_sources in (
            (EvalTargets.at_sources(), pos, True),
            (EvalTargets.at_points(pts), pts, False)):
        got = real_space_sum(moved, mode, par.xi, par.r_cut,
                             par.real_layers, targets)
        want = _culled_matches_dense(monkeypatch, pos, s.charges, tpos,
                                     at_sources, images, par.xi, par.r_cut)
        assert got.tobytes() == want.tobytes()


def test_real_space_erfc_sees_only_pairs_within_cutoff(monkeypatch):
    box = [1.0, 1.1, 0.9]
    s = _uniform_system(300, box, 9)
    par = default_params(box, Periodicity.P3)
    images = build_image_vectors(box, Periodicity.P3, par.real_layers)
    args = []
    erfc = kernels_numpy.sp.erfc

    def counted(x, *rest, **kw):
        args.append(np.array(x, copy=True))
        return erfc(x, *rest, **kw)

    monkeypatch.setattr(kernels_numpy.sp, "erfc", counted)
    kernels_numpy.real_space(s.positions, s.charges, s.positions, True,
                             images, par.xi, par.r_cut, COINCIDE_RTOL)
    seen = np.concatenate(args)
    # at the sources each unordered pair, (m, n, p) with (n, m, -p), takes
    # erfc once; no ordered pair is its own mirror, as (m, m, 0) is left out
    ordered = sum(int(keep.sum()) for _, keep in _dense_pairs(
        s.positions, s.positions, True, images, par.r_cut))
    assert ordered % 2 == 0
    assert seen.size == ordered // 2
    assert ordered < 0.1 * len(images) * len(s) ** 2
    assert np.all((seen > 0.0) & (seen <= par.xi * par.r_cut))


def test_real_space_cutoff_keeps_the_pairs_at_r_cut_to_the_last_ulp():
    # from a source at the origin: targets on the x axis at r_cut and one
    # ulp on either side (sqrt(x^2) = x exactly, so d is that x), and two
    # off the axis whose d^2 lands on the two doubles above r_cut^2.  At
    # this r_cut the first of them still has sqrt(d^2) = r_cut, so a cut
    # at d^2 <= r_cut^2 would drop a pair with d <= r_cut
    r_cut = 0.37123456789012393
    sq = r_cut * r_cut
    up = math.nextafter(sq, math.inf)
    d2s = [up, math.nextafter(up, math.inf)]
    ys = [next(y for y in (math.sqrt(j * math.ulp(sq)) for j in range(1, 64))
               if sq + y * y == d2) for d2 in d2s]
    ds = [math.nextafter(r_cut, 0.0), r_cut, math.nextafter(r_cut, 1.0),
          *map(math.sqrt, d2s)]
    assert ds[3] == r_cut < ds[4]
    targets = np.array([[d, 0.0, 0.0] for d in ds[:3]]
                       + [[r_cut, y, 0.0] for y in ys])
    got = kernels_numpy.real_space(np.zeros((1, 3)), np.array([0.7]),
                                   targets, False, np.zeros((1, 3)), 2.0,
                                   r_cut, 1e-12)
    want = [special.erfc(2.0 * d) * 0.7 / d if d <= r_cut else 0.0
            for d in ds]
    assert got.tolist() == want


def test_square_cut_is_the_largest_square_below_r_cut():
    rng = np.random.default_rng(53)
    cuts = np.concatenate([10.0 ** rng.uniform(-150, 150, 2000),
                           rng.uniform(0.1, 10.0, 2000), [1.0, 2.0, 1e200]])
    for r in cuts.tolist():
        t = kernels_numpy._square_cut(r)
        assert math.sqrt(t) <= r < math.sqrt(math.nextafter(t, math.inf))
    assert kernels_numpy._square_cut(math.inf) == math.inf


def test_real_space_memory_stays_below_the_pair_table():
    # the dense kernel's (M, N, 3) difference array alone took 24 M N bytes
    box = [1.0, 1.1, 0.9]
    s = _uniform_system(512, box, 10)
    par = default_params(box, Periodicity.P3)
    images = build_image_vectors(box, Periodicity.P3, par.real_layers)
    tracemalloc.start()
    try:
        kernels_numpy.real_space(s.positions, s.charges, s.positions, True,
                                 images, par.xi, par.r_cut, COINCIDE_RTOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(s) ** 2, peak / len(s) ** 2


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_real_space_bytes_do_not_depend_on_runs(monkeypatch, mode):
    # runs of one target each against the default runs of up to
    # _ROW_ELEMENTS pairs, at the sources and off them
    box = [1.0, 1.1, 0.9]
    s = _uniform_system(150, box, 14)
    par = default_params(box, mode)
    images = build_image_vectors(box, mode, par.real_layers)
    rng = np.random.default_rng(15)
    pts = rng.uniform(-0.5, 0.5, (140, 3)) * np.asarray(box)
    for tpos, at_sources in ((s.positions, True), (pts, False)):
        args = (s.positions, s.charges, tpos, at_sources, images, par.xi,
                par.r_cut, COINCIDE_RTOL)
        default = kernels_numpy.real_space(*args)
        with monkeypatch.context() as mp:
            mp.setattr(kernels_numpy, "_ROW_ELEMENTS", 1)
            single = kernels_numpy.real_space(*args)
        assert single.tobytes() == default.tobytes()


def _row_by_row(rows):
    # the binary tree of _pairwise_rows, one row at a time: consecutive
    # runs of 1, 2, 4, ... rows added as they complete, then from the last
    stack = []
    for t in rows:
        size = 1
        while stack and stack[-1][0] == size:
            t = stack.pop()[1] + t
            size *= 2
        stack.append((size, t))
    total = stack.pop()[1]
    while stack:
        total = stack.pop()[1] + total
    return total


def test_pairwise_rows_tree_does_not_depend_on_the_chunks():
    # the mirrored real-space sums at the sources come in runs of targets
    # that _ROW_ELEMENTS sets; their tree over the targets must not
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(45, 7)) * 10.0 ** rng.uniform(-8, 8, (45, 1))
    want = _row_by_row(rows.copy())
    for cuts in ([], list(range(1, 45)), [1, 2, 3, 5, 8, 13, 21, 34],
                 sorted(rng.choice(np.arange(1, 45), 9, replace=False))):
        got = kernels_numpy._pairwise_rows(np.split(rows.copy(), cuts))
        assert got.tobytes() == want.tobytes()
    assert kernels_numpy._pairwise_rows([]) == 0.0
    assert kernels_numpy._pairwise([]) == 0.0


@pytest.mark.parametrize("mode", [Periodicity.P1, Periodicity.P2],
                         ids=lambda m: m.value)
def test_real_space_memory_stays_bounded_when_one_block_spans_the_cell(
        mode):
    # at the default xi, r_cut is longer than the cell in 1p and 2p, so a
    # block's candidates are all or most image points: (block, P N) arrays
    # would take hundreds of MB; runs of _ROW_ELEMENTS pairs keep a few MB
    box = [1.0, 1.1, 0.9]
    s = _uniform_system(1024, box, 13)
    par = default_params(box, mode)
    images = build_image_vectors(box, mode, par.real_layers)
    assert par.r_cut > max(box)
    tracemalloc.start()
    try:
        kernels_numpy.real_space(s.positions, s.charges, s.positions, True,
                                 images, par.xi, par.r_cut, COINCIDE_RTOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak / 2 ** 20


def test_real_space_bytes_do_not_depend_on_blocks_or_target_order(
        monkeypatch):
    box = [1.0, 1.1, 0.9]
    s = _uniform_system(200, box, 11)
    par = default_params(box, Periodicity.P3)
    images = build_image_vectors(box, Periodicity.P3, par.real_layers)
    rng = np.random.default_rng(12)
    pts = rng.uniform(-0.5, 0.5, (180, 3)) * np.asarray(box)
    for tpos, at_sources in ((s.positions, True), (pts, False)):
        args = (s.positions, s.charges, tpos, at_sources, images, par.xi,
                par.r_cut, COINCIDE_RTOL)
        default = kernels_numpy.real_space(*args)
        assert len(kernels_numpy._target_blocks(tpos, par.r_cut)) > 1
        for blocks in (lambda t, r: [np.array([m]) for m in range(len(t))],
                       lambda t, r: [np.arange(len(t))]):
            with monkeypatch.context() as mp:
                mp.setattr(kernels_numpy, "_target_blocks", blocks)
                got = kernels_numpy.real_space(*args)
                if at_sources:
                    # the blocks own the pairs, so they set the order of
                    # the sum; runs of one target set none
                    mp.setattr(kernels_numpy, "_ROW_ELEMENTS", 1)
                    single = kernels_numpy.real_space(*args)
            if at_sources:
                assert single.tobytes() == got.tobytes()
                scale = np.abs(default).max()
                assert np.abs(got - default).max() <= 1e-14 * scale
                want = dense_real_space(*args[:-1])
                assert np.abs(got - want).max() <= 1e-14 * scale
            else:
                assert got.tobytes() == default.tobytes()
    perm = rng.permutation(len(pts))
    got = kernels_numpy.real_space(s.positions, s.charges, pts[perm], False,
                                   images, par.xi, par.r_cut, COINCIDE_RTOL)
    want = kernels_numpy.real_space(s.positions, s.charges, pts, False,
                                    images, par.xi, par.r_cut, COINCIDE_RTOL)
    assert got.tobytes() == want[perm].tobytes()


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_real_space_at_sources_follows_a_permutation_of_the_sources(mode):
    # a permutation of the sources changes which target owns a pair and
    # reorders each target's terms, so only the values are compared
    box = [1.0, 1.1, 0.9]
    s = _uniform_system(200, box, 11)
    par = default_params(box, mode)
    images = build_image_vectors(box, mode, par.real_layers)
    perm = np.random.default_rng(12).permutation(len(s))
    got = kernels_numpy.real_space(s.positions[perm], s.charges[perm],
                                   s.positions[perm], True, images, par.xi,
                                   par.r_cut, COINCIDE_RTOL)
    want = kernels_numpy.real_space(s.positions, s.charges, s.positions,
                                    True, images, par.xi, par.r_cut,
                                    COINCIDE_RTOL)
    assert np.abs(got - want[perm]).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_real_space_at_sources_raises_on_a_zero_distance(mode):
    # a pair is formed once, by the target that owns it; whichever owns a
    # zero distance raises.  Two sources exactly one period apart lie in
    # different blocks, two on the same point in one block
    box = np.array([1.0, 1.1, 0.9])
    r_cut = 0.3
    images = build_image_vectors(box, mode, 1)
    a = mode.periodic_axes[0]
    for shift in (box[a], 0.0):
        s = _uniform_system(kernels_numpy._FEW_TARGETS + 72, box, 16)
        pos = np.array(s.positions)
        pos[0] = [-0.25, -0.25, -0.25]
        pos[1] = pos[0]
        pos[1, a] += shift
        assert pos[1, a] - shift == pos[0, a]
        blocks = kernels_numpy._target_blocks(pos, r_cut)
        assert len(blocks) > 1
        owner = {int(m): b for b, blk in enumerate(blocks) for m in blk}
        assert (owner[0] == owner[1]) == (shift == 0.0)
        with pytest.raises(ValueError, match="zero distance"):
            kernels_numpy.real_space(pos, s.charges, pos, True, images, 2.0,
                                     r_cut, COINCIDE_RTOL)


def _stated_real_at_sources(pos, q, images, xi, r_cut):
    """real_space at the sources of one block in the order its docstring
    states, one term at a time.  The candidates are the image points
    j = p N + n in the sources' bounding box widened by r_cut, of the
    upper half of the images and of p = 0; target m keeps those within
    r_cut, of p = 0 only n > m.  Per target the own sum is numpy's
    pairwise sum of its row of q_n t over the candidates (0.0 where not
    kept); per candidate the mirror sum adds the rows q_m t over the
    targets in _row_by_row's tree, each source folds its image points'
    sums in _fold's tree, and the sum is own + mirror."""
    n = len(pos)
    ys = pos[None, :, :] - images[:, None, :]
    lo, hi = pos.min(axis=0) - r_cut, pos.max(axis=0) + r_cut
    halves = kernels_numpy._image_halves(images)
    cand = [(p, k) for p, k in itertools.product(range(len(images)),
                                                 range(n))
            if halves[p] < 2 and np.all((ys[p, k] >= lo) & (ys[p, k] <= hi))]
    d2_cut = kernels_numpy._square_cut(r_cut)
    rows = np.zeros((n, len(cand)))
    for m, (j, (p, k)) in itertools.product(range(n), enumerate(cand)):
        if halves[p] == 1 and k <= m:
            continue
        c = [(pos[m, a] - pos[k, a]) + images[p, a] for a in range(3)]
        d2 = (c[0] * c[0] + c[1] * c[1]) + c[2] * c[2]
        if d2 <= d2_cut:
            d = math.sqrt(d2)
            rows[m, j] = special.erfc(d * xi) / d
    qc = np.array([q[k] for _, k in cand])
    own = np.array([np.sum(row * qc) for row in rows])
    grid = np.zeros((len(images), n))
    for j, (p, k) in enumerate(cand):
        grid[p, k] = 0.0 + _row_by_row([float(q[m] * rows[m, j])
                                        for m in range(n)])
    mirror = [_fold_list(grid[:, k].tolist()) for k in range(n)]
    return own + np.array(mirror)


def _mirror_pair_mismatches():
    """The (mode, N, runs) on which real_space at the sources of one block
    differs in any byte from _stated_real_at_sources; empty when every byte
    holds.  Odd source counts, so a block ends in a pair with a zero row,
    and runs of the default _ROW_ELEMENTS, of two and of four targets."""
    box = [1.0, 1.1, 0.9]
    budget = kernels_numpy._ROW_ELEMENTS
    bad = []
    for mode, n in ((Periodicity.P3, 41), (Periodicity.P2, 33),
                    (Periodicity.P1, 23)):
        s = _uniform_system(n, box, 62)
        par = default_params(box, mode)
        images = build_image_vectors(box, mode, par.real_layers)
        assert len(kernels_numpy._target_blocks(s.positions, par.r_cut)) == 1
        want = _stated_real_at_sources(s.positions, s.charges, images,
                                       par.xi, par.r_cut)
        seen = []
        distances = kernels_numpy._square_distances

        def counted(tr, xs, ps, d, *rest):
            seen.append(d.shape)
            return distances(tr, xs, ps, d, *rest)

        kernels_numpy._square_distances = counted
        try:
            kernels_numpy.real_space(s.positions, s.charges, s.positions,
                                     True, images, par.xi, par.r_cut,
                                     COINCIDE_RTOL)
        finally:
            kernels_numpy._square_distances = distances
        width = seen[0][1]    # the candidates of the one block
        assert [shape[0] for shape in seen] == [n]
        for runs, elements in ((n, budget), (2, 1), (4, 4 * width)):
            kernels_numpy._ROW_ELEMENTS = elements
            try:
                got = kernels_numpy.real_space(
                    s.positions, s.charges, s.positions, True, images,
                    par.xi, par.r_cut, COINCIDE_RTOL)
            finally:
                kernels_numpy._ROW_ELEMENTS = budget
            if got.tobytes() != want.tobytes():
                bad.append((mode.value, n, runs))
    return bad


def test_real_space_mirror_pairs_add_in_the_stated_order():
    # at the sources the mirror's first level, q_a t_a + q_b t_b per pair
    # of targets, is one einsum per run; with the own sums and the rest of
    # the tree it equals the stated order byte for byte in 3p, 2p and 1p,
    # with a zero pad row and runs of 2, 4 and all targets.  A numpy build
    # whose einsum loop fuses the multiply and add fails here
    assert _mirror_pair_mismatches() == []


def test_real_space_mirror_pairs_with_simd_dispatch_disabled():
    # the same with every dispatch target above numpy's baseline disabled
    _in_a_child_with_simd_dispatch_disabled("_mirror_pair_mismatches")


def _pair_d2(t, x, p):
    # d^2 of target t, source x and image shift p in the kernel's order
    c = [(t[a] - x[a]) + p[a] for a in range(3)]
    return (c[0] * c[0] + c[1] * c[1]) + c[2] * c[2]


def _diagonal_source(corner, p, d_want):
    """A source x whose image point x - p lies on the diagonal below
    corner along the axes where p is nonzero, the pair's d (sqrt of
    _pair_d2) equal to d_want: x starts at corner + p less d_want /
    sqrt(axes) along those axes, and its last such axis steps one ulp at
    a time.  None if no step hits d_want."""
    axes = [a for a in range(3) if p[a]]
    x = [corner[a] + p[a] - (d_want / math.sqrt(len(axes)) if p[a] else 0.0)
         for a in range(3)]
    for direction in (math.inf, -math.inf):
        y = list(x)
        for _ in range(256):
            if math.sqrt(_pair_d2(corner, y, p)) == d_want:
                return y
            y[axes[-1]] = math.nextafter(y[axes[-1]], direction)
    return None


def test_real_space_pruning_keeps_the_pairs_at_r_cut_to_the_last_ulp(
        monkeypatch):
    # a multi-block call at the sources: block 0's bounding box has its
    # lower corner at a source, and three sources lie, through the images
    # (L, L, L), (L, L, 0) and (L, 0, L), on diagonals below that corner at
    # d = r_cut less one ulp, r_cut and r_cut plus one ulp, so their
    # distance to the box is the pair's.  The pruning to each block's reach
    # keeps them, and the cut keeps or drops each as _square_cut says; an
    # image point on the corner itself still raises.  With L = 0.5 each
    # step of a coordinate moves d by less than an ulp
    length = 0.5
    box = np.full(3, length)
    corner = [-0.21875] * 3
    r_cut = 0.26
    xi = 2.0 / r_cut
    rng = np.random.default_rng(63)
    n = kernels_numpy._FEW_TARGETS + 40
    pos = rng.uniform(-0.2, 0.2, (n, 3))
    pos[0] = corner
    ds = [math.nextafter(r_cut, 0.0), r_cut, math.nextafter(r_cut, 1.0)]
    shifts = ([length] * 3, [length, length, 0.0], [length, 0.0, length])
    d2s = []
    for i, (d, p) in enumerate(zip(ds, shifts)):
        x = _diagonal_source(corner, p, d)
        assert x is not None, (d, p)
        pos[1 + i] = x
        d2s.append(_pair_d2(corner, x, p))
    t2 = kernels_numpy._square_cut(r_cut)
    assert [d2 <= t2 for d2 in d2s] == [True, True, False]
    q = rng.normal(size=n)
    images = build_image_vectors(box, Periodicity.P3, 1)
    blocks = kernels_numpy._target_blocks(pos, r_cut)
    assert len(blocks) > 1 and 0 in blocks[0]
    assert not np.isin([1, 2, 3], blocks[0]).any()
    args = []
    erfc = kernels_numpy.sp.erfc

    def counted(x, *rest, **kw):
        args.append(np.array(x, copy=True))
        return erfc(x, *rest, **kw)

    monkeypatch.setattr(kernels_numpy.sp, "erfc", counted)
    got = kernels_numpy.real_space(pos, q, pos, True, images, xi, r_cut,
                                   COINCIDE_RTOL)
    seen = set(np.concatenate(args).tolist())
    assert [d * xi in seen for d in ds] == [d2 <= t2 for d2 in d2s]
    want = dense_real_space(pos, q, pos, True, images, xi, r_cut)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # a source whose image (L, L, L) sits on the corner: a zero distance
    pos[4] = [c + length for c in corner]
    assert _pair_d2(corner, pos[4], shifts[0]) == 0.0
    with pytest.raises(ValueError, match="zero distance"):
        kernels_numpy.real_space(pos, q, pos, True, images, xi, r_cut,
                                 COINCIDE_RTOL)


def test_real_space_at_sources_forms_fewer_candidates_than_the_box():
    # work, not time: at the sources of a 3p N = 512 system at
    # default_params (the bulk3p inputs of perfbench, seed 0), the
    # (target, candidate) elements whose d^2 is formed, 1,172,431 when each
    # block took every owned image point of its widened bounding box;
    # pruning to the block's reach leaves about 0.80 M
    box = [1.0, 1.1, 0.9]
    s = _uniform_system(512, box, 0)
    par = default_params(box, Periodicity.P3)
    images = build_image_vectors(box, Periodicity.P3, par.real_layers)
    elements = []
    distances = kernels_numpy._square_distances

    def counted(tr, xs, ps, d, *rest):
        elements.append(d.size)
        return distances(tr, xs, ps, d, *rest)

    kernels_numpy._square_distances = counted
    try:
        kernels_numpy.real_space(s.positions, s.charges, s.positions, True,
                                 images, par.xi, par.r_cut, COINCIDE_RTOL)
    finally:
        kernels_numpy._square_distances = distances
    assert 0 < sum(elements) < 0.75 * 1_172_431, sum(elements)


@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.integrate"])
def test_import_does_not_load_scipy_spatial(module):
    # importing scipy.spatial (cKDTree) adds about 11 MB of RSS and 0.15 s
    # to a fresh process, scipy.integrate (quad) about 25 MB and 0.5 s; the
    # real-space kernel finds its pairs without the one, and only the
    # incomplete K0, which no evaluation calls, imports the other
    code = ("import sys, ewaldpot; "
            f"sys.exit({module!r} in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
