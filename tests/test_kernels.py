"""The vectorized kernels against plain reference loops.

Each reference is a straight loop over targets, sources and images or
k-vectors that calls math and the scalar routines of specfun one term at a
time.  The kernels sum in another order, so they agree to rounding: the
bound is 1e-12 times the largest reference value plus one.  The k-space
kernels return the real potential only; test_ewald bounds the imaginary
residue of the same sums with a numpy reference.
"""

import math

import numpy as np
import pytest

from ewaldpot import kernels_numpy
from ewaldpot.core import (
    ParticleSystem,
    Periodicity,
    build_image_vectors,
    build_kgrid,
    default_params,
)
from ewaldpot.specfun import (
    DEFAULT_QUADRATURE,
    EULER_GAMMA,
    SQRT_PI,
    _e1_scalar,
    _g_scalar,
    _k0inc_scalar,
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
                g = _g_scalar(kb, t[2] - x[2], xi)
                ph = k[0] * (t[0] - x[0]) + k[1] * (t[1] - x[1])
                re[m] += math.pi / area / kb * qn * g * math.cos(ph)
    return re


def ref_kspace_1p(pos, q, tpos, xi, kz, length, cfg):
    re = np.zeros(len(tpos))
    for k3 in kz:
        if k3 <= 0.0:    # +k3 and -k3 share K0: one cosine term per pair
            continue
        u = k3 * k3 / (4.0 * xi * xi)
        for m, t in enumerate(tpos):
            for qn, x in zip(q, pos):
                v = ((t[0] - x[0]) ** 2 + (t[1] - x[1]) ** 2) * xi * xi
                k0 = _k0inc_scalar(u, v, cfg.abs_tol, cfg.rel_tol,
                                   cfg.max_subdivisions)
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
    return -EULER_GAMMA - math.log(x) - _e1_scalar(x)


def ref_zero_mode_1p(pos, q, tpos, at_sources, xi, length):
    out = np.zeros(len(tpos))
    for m, t in enumerate(tpos):
        for n, (qn, x) in enumerate(zip(q, pos)):
            rho2 = (t[0] - x[0]) ** 2 + (t[1] - x[1]) ** 2
            if not at_sources:
                out[m] -= qn * (math.log(rho2) + _e1_scalar(rho2 * xi * xi))
            elif n != m:
                out[m] += qn * _bracket(rho2 * xi * xi)
    return out / length


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
    kvecs = build_kgrid(box, mode, par.k_max).vectors
    for tpos, at_sources in _targets(s):
        _close(kernels_numpy.real_space(pos, q, tpos, at_sources, images, xi,
                                        par.r_cut),
               ref_real_space(pos, q, tpos, at_sources, images, xi,
                              par.r_cut))
        if mode is Periodicity.P3:
            volume = float(np.prod(box))
            _close(kernels_numpy.kspace_3p(pos, q, tpos, xi, kvecs, volume,
                                           at_sources),
                   ref_kspace_3p(pos, q, tpos, xi, kvecs, volume))
        elif mode is Periodicity.P2:
            area = float(box[0] * box[1])
            _close(kernels_numpy.kspace_2p(pos, q, tpos, xi, kvecs, area,
                                           at_sources),
                   ref_kspace_2p(pos, q, tpos, xi, kvecs, area))
            _close(kernels_numpy.zero_mode_2p(pos[:, 2], q, tpos[:, 2], xi,
                                              area),
                   ref_zero_mode_2p(pos, q, tpos, xi, area))
        else:
            length = float(box[2])
            cfg = DEFAULT_QUADRATURE
            _close(kernels_numpy.kspace_1p(
                       pos, q, tpos, xi, kvecs, length, cfg.abs_tol,
                       cfg.rel_tol, cfg.max_subdivisions),
                   ref_kspace_1p(pos, q, tpos, xi, kvecs, length, cfg))
            if at_sources:
                got = kernels_numpy.zero_mode_1p_sources(pos, q, xi, length)
            else:
                got = kernels_numpy.zero_mode_1p_points(pos, q, tpos, xi,
                                                        length)
            _close(got, ref_zero_mode_1p(pos, q, tpos, at_sources, xi,
                                         length))
