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

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ewaldpot import (
    EvalTargets,
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
    KGrid,
    ParticleSystem,
    Periodicity,
    build_image_vectors,
    build_kgrid,
    default_params,
)
from ewaldpot.ewald import _extended_lattice
from ewaldpot.specfun import (
    EULER_GAMMA,
    SQRT_PI,
    expint_e1,
    g_screened,
    incomplete_bessel_k0,
)


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


def _bracket(x):
    # -gamma - log(x) - E1(x), 0 at x = 0
    if x == 0.0:
        return 0.0
    if x < 1.0:    # sum_k (-x)^k / (k k!), free of the log cancellation
        s, term, k = 0.0, 1.0, 0
        while True:
            k += 1
            term *= -x / k
            s += term / k
            if abs(term / k) < 1e-18:
                return s
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
            half, w = _extended_lattice(mode, box, kvecs, np.zeros(0), xi)
            _close(kernels_numpy.kspace_3p(pos, q, tpos, half, w, at_sources),
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
            _close(kernels_numpy.zero_mode_1p(pos, q, tpos, xi, length),
                   ref_zero_mode_1p(pos, q, tpos, at_sources, xi, length))


def test_kspace_3p_is_a_weighted_trig_sum_over_the_vectors_given(
        monkeypatch):
    # sum_k w_k sum_n q_n cos(k.(t - x_n)) over exactly the vectors given:
    # a set not closed under negation (some k with -k, most without, one
    # twice), weights of both signs, and at and off the sources in one
    # slice and in slices of 4 vectors
    s = _system()
    rng = np.random.default_rng(47)
    k = np.vstack([rng.normal(scale=6.0, size=(11, 3)), [0.0, 3.1, -2.4]])
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
                got = kernels_numpy.kspace_3p(s.positions, s.charges, tpos,
                                              kvecs, w, at_sources)
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
            ((kernels_numpy.zero_mode_1p, pos, q, tpos, xi, length),
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
        sizes.append(len(args[3]))
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
    # slices of 64 (source, k) elements, 10 k each at the 6 sources,
    # against the whole half lattice in one slice, at the sources and off
    # them: the slice rule is the same for both, and only the order of the
    # sums moves
    s = _system()
    par = default_params(s.box, mode)
    kgrid = build_kgrid(s.box, mode, par.k_max)
    phases = kernels_numpy._phases
    for tpos, at_sources in _targets(s):
        targets = _eval_targets(tpos, at_sources)
        got, widths = {}, {}
        for k_elements in (2 ** 40, 64):
            widths[k_elements] = []

            def counted(tables, key, c, *rest):
                widths[k_elements].append(c.shape[0])
                return phases(tables, key, c, *rest)

            with monkeypatch.context() as mp:
                mp.setattr(kernels_numpy, "_K_ELEMENTS", k_elements)
                mp.setattr(kernels_numpy, "_phases", counted)
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


def test_kspace_3p_tables_span_the_pairs_that_occur():
    # on an irregular grid every half-lattice vector has its own kx and ky:
    # one (point, distinct kx, distinct ky) table would take 8 M Ux Uy
    # bytes, 14.7 MB here; the per-axis, (point, pair) and block arrays
    # take about 1.4 MB
    rng = np.random.default_rng(44)
    s = _uniform_system(32, [1.0, 1.1, 0.9], 45)
    grid = _irregular_grid(rng, 240, 8.0)
    pts = rng.uniform(-0.5, 0.5, (32, 3))
    table = 8 * len(pts) * 240 * 240
    for targets in (EvalTargets.at_sources(), EvalTargets.at_points(pts)):
        tracemalloc.start()
        try:
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


def _long_double_kspace(pos, q, tpos, kvecs, w):
    # sum_k w_k (C_k cos k.t + S_k sin k.t) with every phase, cos, sin,
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
    # at and off the 16 sources, against the same sum in long double: the
    # slices, the row folds and the pairwise slice sums keep the error
    # near one rounding of the largest value (about 3e-16 of it here)
    s = _uniform_system(16, [1.0, 1.1, 0.9], 48)
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
        for pos, q, tpos, kvecs, w, at_sources in calls:
            want = _long_double_kspace(pos, q, tpos, kvecs, w)
            got = kspace_3p(pos, q, tpos, kvecs, w, at_sources)
            scale = float(np.abs(want).max())
            assert float(np.abs(got - want).max()) <= 1e-15 * scale


def test_axis_tables_equal_direct_libm_tables():
    # the tables take libm on the distinct |u| only and the rows of -|u|
    # from them (_axis_tables); their bytes must equal math.cos and
    # math.sin of u x over every signed component, which holds while libm
    # cos is even and sin odd
    rng = np.random.default_rng(50)
    s = _uniform_system(8, [1.0, 1.1, 0.9], 51)
    pts = np.vstack([s.positions, rng.uniform(-40.0, 40.0, (8, 3))])
    par = default_params(s.box, Periodicity.P3)
    kgrid = build_kgrid(s.box, Periodicity.P3, par.k_max)
    half, _ = _extended_lattice(Periodicity.P3, s.box, kgrid.vectors,
                                np.zeros(0), par.xi)
    irregular = rng.normal(scale=30.0, size=(20, 3))
    for kvecs in (half, np.vstack([irregular, -irregular, [[0.0] * 3]])):
        axes, _ = kernels_numpy._phase_keys(kvecs, len(kvecs))
        tables = kernels_numpy._axis_tables(pts, axes)
        for a, (au, signed) in enumerate(axes):
            cos, sin = tables[2 * a], tables[2 * a + 1]
            assert len(cos) == len(au) * (1 + signed)
            for u in np.unique(kvecs[:, a]):
                row = np.searchsorted(au, abs(u)) + len(au) * (u < 0.0)
                assert au[row % len(au)] == abs(u)
                for fn, table in ((math.cos, cos), (math.sin, sin)):
                    direct = np.array([fn(u * x) for x in pts[:, a]])
                    assert table[row].tobytes() == direct.tobytes(), (fn, u)


def test_libm_peak_stays_near_its_result():
    # the (components, points) shape of the z tables of the spread-slab
    # test (1,837 distinct kz by 256 sources): a list of every element as
    # a Python float took 17.9 MiB at the peak, five times the 3.6 MiB
    # result; runs of _LIBM_RUN floats keep it near the result
    x = np.random.default_rng(52).uniform(-300.0, 300.0, (1837, 256))
    want = np.array([math.cos(v) for v in x.ravel()]).reshape(x.shape)
    tracemalloc.start()
    try:
        got = kernels_numpy._libm(math.cos, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= 1.25 * x.nbytes, peak / x.nbytes


@pytest.mark.parametrize("mode", list(Periodicity), ids=lambda m: m.value)
def test_kspace_bytes_do_not_depend_on_row_blocks(monkeypatch, mode):
    # blocks of one point (a budget of a few elements) against one block of
    # every point, at the sources and off them
    s = _uniform_system(40, [1.0, 1.1, 0.9], 46)
    par = default_params(s.box, mode)
    kgrid = build_kgrid(s.box, mode, par.k_max)
    pts = np.random.default_rng(47).uniform(-0.5, 0.5, (30, 3)) * s.box
    for targets in (EvalTargets.at_sources(), EvalTargets.at_points(pts)):
        got = {}
        for budget in (4, 2 ** 40):
            with monkeypatch.context() as mp:
                mp.setattr(kernels_numpy, "_ROW_ELEMENTS", budget)
                got[budget] = _KSPACE_SUMS[mode](s, par.xi, kgrid, targets)
        assert got[4].tobytes() == got[2 ** 40].tobytes()


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
                                                         0.9),
        "1p_points": lambda: kernels_numpy.zero_mode_1p(pos, q, pts, 1.0,
                                                        0.9),
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
