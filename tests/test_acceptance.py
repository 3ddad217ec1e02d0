"""Acceptance suite: one test per advertised guarantee, at stated tolerances.

Each passing criterion prints a single ``[PASS] criterion N`` line (visible
with ``pytest -s`` or in the captured-output section).  Criterion 2's
gamma-sign half is a strict expected failure with a companion test; see the
comments there for the analysis.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ewaldpot import oracle
from ewaldpot.core import ParticleSystem, Periodicity, default_params, default_xi
from ewaldpot.ewald import EvalTargets, ewald_potential
from ewaldpot.specfun import (
    EULER_GAMMA,
    bessel_k0,
    erfc,
    expint_e1,
    g_screened,
    incomplete_bessel_k0,
    zero_mode_limit_a,
)
from test_specfun import quad_e1, quad_erfc, quad_k0

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def report(num, text, worst=None):
    tail = f" (worst {worst:.3g})" if worst is not None else ""
    print(f"[PASS] criterion {num}: {text}{tail}")


def make_system(positions, charges, box):
    return ParticleSystem(positions=np.asarray(positions, dtype=float),
                          charges=np.asarray(charges, dtype=float),
                          box=np.asarray(box, dtype=float))


def random_neutral(rng, n, box):
    pos = rng.uniform(0.05, 0.95, (n, 3)) * np.asarray(box)
    q = rng.normal(size=n)
    q -= q.mean()
    return make_system(pos, q, box)


# --------------------------------------------------------------- criterion 1

def test_criterion_01_xi_invariance_all_modes():
    # 20 random neutral systems, N in {2, 8, 16}, xi in {0.7, 1.0, 1.4} xi0,
    # default truncation: max pairwise per-target deviation <= 1e-8
    worst = 0.0
    sizes = [2, 8, 16]
    for case in range(20):
        rng = np.random.default_rng(1000 + case)
        box = rng.uniform(0.8, 1.4, 3)
        s = random_neutral(rng, sizes[case % 3], box)
        for mode in Periodicity:
            xi0 = default_xi(box, mode)
            totals = []
            for f in (0.7, 1.0, 1.4):
                par = default_params(box, mode, xi=f * xi0)
                totals.append(ewald_potential(s, mode, par,
                                              EvalTargets.at_sources()).total)
            for i in range(3):
                for j in range(i + 1, 3):
                    worst = max(worst, float(np.abs(totals[i] - totals[j]).max()))
    assert worst <= 1e-8
    report(1, "xi-invariance, 20 systems x 3 modes x 3 xi", worst)


# --------------------------------------------------------------- criterion 2

def _at_source_total_1p(s, par, variant):
    # The at-source 1p total with the zero-mode bracket
    # -gamma - log(x) - E1(x), x = rho^2 xi^2, as it stands ('standard') or
    # with one sign flipped: 'flip_e1' adds 2 E1(x) and 'flip_gamma' adds
    # 2 gamma to every n != m term with rho != 0, scaled by 1/L3.
    total = ewald_potential(s, Periodicity.P1, par,
                            EvalTargets.at_sources()).total
    if variant == "standard":
        return total
    pos, q = s.positions, s.charges
    shift = np.zeros(len(q))
    for m in range(len(q)):
        for n in range(len(q)):
            x = ((pos[m, 0] - pos[n, 0]) ** 2
                 + (pos[m, 1] - pos[n, 1]) ** 2) * par.xi ** 2
            if n != m and x > 0.0:
                delta = (2.0 * expint_e1(x) if variant == "flip_e1"
                         else 2.0 * EULER_GAMMA)
                shift[m] += q[n] * delta
    return total + shift / s.box[2]


def _xi_sensitivity(variant):
    rng = np.random.default_rng(77)
    box = np.array([1.0, 1.1, 0.9])
    s = random_neutral(rng, 4, box)
    totals = []
    for f in (0.7, 1.4):
        par = default_params(box, Periodicity.P1, xi=f * default_xi(box, Periodicity.P1))
        totals.append(_at_source_total_1p(s, par, variant))
    return float(np.abs(totals[0] - totals[1]).max())


def test_criterion_02_e1_flip_breaks_xi_invariance():
    assert _xi_sensitivity("standard") <= 1e-8
    broken = _xi_sensitivity("flip_e1")
    assert broken >= 1e-3
    report(2, "E1 sign flip destroys xi-invariance", broken)


@pytest.mark.xfail(
    strict=True,
    reason="flipping the gamma sign shifts every at-source total by the "
    "xi-independent constant -2*gamma*q_m/L3 (neutrality turns the "
    "gamma terms into a q_m multiple), so no xi sweep can detect it; "
    "the companion test pins the same wrong sign via the direct-sum "
    "oracle instead")
def test_criterion_02_gamma_flip_breaks_xi_invariance():
    assert _xi_sensitivity("flip_gamma") >= 1e-3


def test_criterion_02_gamma_flip_rejected_by_direct_sum():
    # what the gamma sign DOES change: the absolute at-source totals,
    # by exactly -2 gamma q_m / L3 against the bare image-sum limit
    box = np.array([1.0, 1.1, 0.9])
    rng = np.random.default_rng(77)
    s = random_neutral(rng, 4, box)
    par = default_params(box, Periodicity.P1)
    good = _at_source_total_1p(s, par, "standard")
    bad = _at_source_total_1p(s, par, "flip_gamma")
    ds = np.array([r.value for r in
                   oracle.direct_sum(s, Periodicity.P1, layers=2000)])
    assert np.abs(good - ds).max() <= 1e-6
    assert np.abs(bad - ds).max() >= 1e-3
    shift = bad - good
    predicted = -2.0 * EULER_GAMMA * s.charges / box[2]
    assert np.abs(shift - predicted).max() <= 1e-9
    report(2, "gamma sign flip rejected by the direct-sum oracle",
           float(np.abs(bad - ds).max()))


# --------------------------------------------------------------- criterion 3

def test_criterion_03_oracle_equivalence_1p():
    box = np.array([1.2, 0.9, 1.0])
    dipole = make_system([[0.5, 0.5, 0.2], [0.5, 0.5, 0.7]], [1.0, -1.0], box)
    rng = np.random.default_rng(3)
    rand4 = make_system(rng.uniform(0.1, 0.8, (4, 3)) * box,
                        [1.0, -1.0, 0.5, -0.5], box)
    par = default_params(box, Periodicity.P1)
    worst = 0.0
    for s in (dipole, rand4):
        ew = ewald_potential(s, Periodicity.P1, par,
                             EvalTargets.at_sources()).total
        ds = np.array([r.value for r in
                       oracle.direct_sum(s, Periodicity.P1, layers=2000)])
        worst = max(worst, float(np.abs(ew - ds).max()))
    assert worst <= 1e-6

    # off-particle points, decently separated from every source axis
    b1 = np.array([1.0, 1.0, 1.3])
    p4 = np.column_stack([rng.uniform(0.4, 0.6, 4), rng.uniform(0.4, 0.6, 4),
                          rng.uniform(0.0, 1.3, 4)])
    s4 = make_system(p4, [1.0, -0.5, -1.0, 0.5], b1)
    pts = np.array([[1.1, 1.2, 0.3], [1.3, 0.1, 0.9], [-0.4, 1.1, 1.1]])
    par1 = default_params(b1, Periodicity.P1)
    ew = ewald_potential(s4, Periodicity.P1, par1,
                         EvalTargets.at_points(pts)).total
    # the unscreened oracle's terms decay as K0(k3 rho), not with the
    # Ewald xi, so its cutoff is fixed here rather than taken from par1
    k_oracle = default_params(b1, Periodicity.P1, xi=8.0 / b1[2]).k_max
    pf = oracle.pure_fourier_1p(s4, k_max=k_oracle, targets=pts)
    worst_pf = float(np.abs(ew - pf).max())
    assert worst_pf <= 1e-6
    report(3, "1P Ewald vs direct sum (2000 shells) and pure Fourier",
           max(worst, worst_pf))


# --------------------------------------------------------------- criterion 4

def test_criterion_04_oracle_equivalence_2p():
    # compact two-pair system with all dipole components zero, so the
    # 200-shell planar image sum is converged well past 1e-5
    box = np.array([1.0, 1.0, 1.0])
    s = make_system([[0.3, 0.3, 0.55], [0.3, 0.3, 0.25],
                     [0.7, 0.6, 0.55], [0.7, 0.6, 0.25]],
                    [1.0, -1.0, -1.0, 1.0], box)
    par = default_params(box, Periodicity.P2)
    ew = ewald_potential(s, Periodicity.P2, par, EvalTargets.at_sources()).total
    ds = np.array([r.value for r in
                   oracle.direct_sum(s, Periodicity.P2, layers=200)])
    worst = float(np.abs(ew - ds).max())
    assert worst <= 1e-5

    # off-particle points with |z - z_n| >= 0.2 L3
    rng = np.random.default_rng(11)
    box2 = np.array([1.1, 1.0, 0.9])
    pos = rng.uniform(0.1, 0.9, (6, 3)) * box2
    pos[:, 2] = rng.uniform(0.35, 0.55, 6) * box2[2]
    q = rng.normal(size=6)
    q -= q.mean()
    s6 = make_system(pos, q, box2)
    zs = pos[:, 2]
    pts = np.column_stack([
        rng.uniform(0, box2[0], 8), rng.uniform(0, box2[1], 8),
        np.where(np.arange(8) % 2 == 0,
                 zs.max() + 0.2 * box2[2] + rng.uniform(0, 0.3, 8),
                 zs.min() - 0.2 * box2[2] - rng.uniform(0, 0.3, 8))])
    par2 = default_params(box2, Periodicity.P2)
    ew2 = ewald_potential(s6, Periodicity.P2, par2,
                          EvalTargets.at_points(pts)).total
    pf = oracle.pure_fourier_2p(s6, k_max=100.0, targets=pts)
    worst_pf = float(np.abs(ew2 - pf).max())
    assert worst_pf <= 1e-6
    report(4, "2P Ewald vs direct sum (200 shells) and pure Fourier",
           max(worst, worst_pf))


# --------------------------------------------------------------- criterion 5

def test_criterion_05_2p_far_field_dipole():
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
    worst = max(abs(hi - 2.0 * math.pi / area * mz),
                abs(lo + 2.0 * math.pi / area * mz))
    assert worst <= 1e-8
    report(5, "2P far field reaches the z-dipole plateau", worst)


# --------------------------------------------------------------- criterion 6

def test_criterion_06_gaussian_shell():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(5):
        r0 = float(rng.uniform(0.3, 2.0))
        xi = float(rng.uniform(0.5, 2.0))
        b = 6.0 / xi + r0
        closed = oracle.gaussian_shell_integral(r0, xi, b)
        quadr = oracle.gaussian_shell_quadrature(r0, xi, b)
        worst = max(worst, abs(closed - quadr))
    assert worst <= 1e-8
    xi = 1.1
    limit_err = abs(oracle.gaussian_shell_integral(1e-6, xi, 5.0)
                    - 2.0 * xi / math.sqrt(math.pi))
    assert limit_err <= 1e-10
    report(6, "Gaussian-ball potential: closed form vs 3D quadrature",
           max(worst, limit_err))


# --------------------------------------------------------------- criterion 7

def test_criterion_07_zero_mode_limit():
    kbar = 1e-5
    worst = 0.0
    for xi in (0.5, 1.0, 2.0):
        for z in np.linspace(-3.0, 3.0, 31):
            quotient = (g_screened(kbar, z, xi)
                        - 2.0 * math.exp(-kbar * abs(z))) / kbar
            worst = max(worst, abs(quotient - zero_mode_limit_a(z, xi)))
    assert worst <= 1e-4
    report(7, "k->0 zero-mode limit matches the finite-k quotient", worst)


# --------------------------------------------------------------- criterion 8

def test_criterion_08_fourier_integral_identities():
    pts = [(1.5, 0.6, 0.0, 0.6), (1.0, 0.3, 0.4, 1.0), (2.0, 1.1, -0.3, 0.8),
           (0.7, 0.5, 0.5, 1.3), (3.0, 0.2, 0.9, 1.7)]
    worst_g = 0.0
    for k, x, y, xi in pts:
        rho2 = x * x + y * y
        mine = incomplete_bessel_k0(k * k / (4 * xi * xi), rho2 * xi * xi)
        ref = oracle.fourier_integral_2d_gaussian(k, x, y, xi) / math.pi
        worst_g = max(worst_g, abs(mine - ref))
    assert worst_g <= 1e-7

    worst_b = 0.0
    for k, x, y in [(1.0, 0.6, 0.8), (2.0, 0.3, 0.4), (0.7, 1.1, -0.3)]:
        got = oracle.fourier_integral_2d(k, x, y)
        ref = 2.0 * math.pi * bessel_k0(k * math.hypot(x, y))
        worst_b = max(worst_b, abs(got - ref))
    assert worst_b <= 1e-8

    worst_e = 0.0
    for u in np.logspace(-3, 2, 20):
        worst_e = max(worst_e,
                      abs(incomplete_bessel_k0(float(u), 0.0) - expint_e1(float(u))))
    assert worst_e <= 1e-12

    worst_s = 0.0
    for u in (1e-3, 1e-4):
        for v in (0.5, 1.0):
            ident = 2.0 * bessel_k0(2.0 * math.sqrt(u * v)) - expint_e1(v)
            err = abs(incomplete_bessel_k0(u, v) - ident)
            assert err <= 10.0 * u
            worst_s = max(worst_s, err / (10.0 * u))
    report(8, "incomplete-K0 Fourier and small-u identities",
           max(worst_g, worst_b, worst_e))


# --------------------------------------------------------------- criterion 9

def test_criterion_09_log_sum_asymptotics():
    s = make_system([[0.3, 0.1, 0.2], [0.1, 0.4, 0.8],
                     [-0.2, -0.3, 0.5], [-0.2, -0.2, 0.1]],
                    [1.0, -0.6, -0.7, 0.3], [2.0, 2.0, 1.0])
    rs, res = [], []
    for r in np.geomspace(20.0, 200.0, 8):
        t = np.array([0.8 * r, 0.6 * r, 0.0])
        rho2 = ((t[None, :2] - s.positions[:, :2]) ** 2).sum(axis=1)
        exact = float(np.dot(s.charges, np.log(rho2)))
        rs.append(r)
        res.append(abs(exact - oracle.log_sum_multipole(s, t)["leading"]))
    slope = float(np.polyfit(np.log(rs), np.log(res), 1)[0])
    assert slope <= -2.8

    rng = np.random.default_rng(5)
    pos = rng.uniform(-0.4, 0.4, (4, 3))
    q = np.array([1.0, -0.25, -1.0, 0.25])
    rho2 = ((np.array([3.0, -2.0])[None, :] - pos[:, :2]) ** 2).sum(axis=1)
    ident = 0.0
    for xi in (0.5, 1.0, 2.0, 7.5):
        ident = max(ident, abs(float(np.dot(q, np.log(xi * xi * rho2)))
                               - float(np.dot(q, np.log(rho2)))))
    assert ident <= 1e-12

    box = [1.0, 1.0, 1.3]
    s4 = make_system([[0.45, 0.52, 0.1], [0.55, 0.48, 0.9],
                      [0.5, 0.6, 0.4], [0.5, 0.4, 0.7]],
                     [1.0, -0.5, -1.0, 0.5], box)
    rr, vv = [], []
    for r in np.geomspace(10 * box[2], 100 * box[2], 8):
        t = np.array([[0.6 * r, 0.8 * r, 0.4]])
        vv.append(abs(oracle.pure_fourier_1p(s4, k_max=50.0, targets=t)[0]))
        rr.append(r)
    ff_slope = float(np.polyfit(np.log(rr), np.log(vv), 1)[0])
    assert abs(ff_slope + 1.0) <= 0.1
    report(9, "logarithmic-sum asymptotics "
              f"(residual slope {slope:.2f}, far-field slope {ff_slope:.3f})")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_special_function_tolerances():
    worst_erfc = 0.0
    for x in np.logspace(-4, math.log10(26.0), 100):
        ref = quad_erfc(float(x))
        if ref > 1e-300:
            worst_erfc = max(worst_erfc, abs(erfc(float(x)) - ref) / ref)
    assert worst_erfc <= 1e-14

    worst_k0 = 0.0
    for x in np.logspace(-8, math.log10(700.0), 100):
        ref = quad_k0(float(x))
        if ref > 1e-300:
            worst_k0 = max(worst_k0, abs(bessel_k0(float(x)) - ref) / ref)
    assert worst_k0 <= 1e-12

    worst_e1 = 0.0
    for v in np.logspace(-8, math.log10(700.0), 100):
        ref = quad_e1(float(v))
        if ref > 1e-300:
            worst_e1 = max(worst_e1, abs(expint_e1(float(v)) - ref) / ref)
    assert worst_e1 <= 1e-12

    # small-x: K0 = -log(x/2) - gamma + (x^2/4)(1 - gamma - log(x/2)) + O(x^4 log x)
    for x in (1e-2, 1e-3, 1e-4):
        lead = -math.log(0.5 * x) - EULER_GAMMA
        second = 0.25 * x * x * (1.0 + lead)
        diff = bessel_k0(x) - lead
        assert 0.0 < diff <= 1.0001 * second
        assert abs(diff - second) <= x ** 4 * (2.0 + lead ** 2)
    # large-x: K0 ~ sqrt(pi/(2x)) e^{-x} (1 - 1/(8x) + 9/(2(8x)^2) - ...)
    x = 20.0
    scaled = bessel_k0(x) * math.sqrt(2.0 * x / math.pi) * math.exp(x)
    assert abs(scaled - (1.0 - 1.0 / (8 * x) + 9.0 / (2 * (8 * x) ** 2))) < 1e-4
    report(10, "special functions vs quadrature oracles on 100-point grids",
           max(worst_erfc, worst_k0, worst_e1))


# -------------------------------------------------------------- criterion 11

def test_criterion_11_self_term_consistency():
    box = np.array([1.0, 1.0, 1.0])
    s = make_system([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]], [1.0, -1.0], box)
    par = default_params(box, Periodicity.P3)
    at_src = ewald_potential(s, Periodicity.P3, par,
                             EvalTargets.at_sources()).total
    delta = 1e-5 * float(box.min())
    worst = 0.0
    for m in range(2):
        p = s.positions[m] + np.array([delta, 0.0, 0.0])
        off = ewald_potential(s, Periodicity.P3, par,
                              EvalTargets.at_points(p[None])).total[0]
        worst = max(worst, abs((off - s.charges[m] / delta) - at_src[m]))
    assert worst <= 1e-5
    report(11, "self term equals the off-point limit construction", worst)


# -------------------------------------------------------------- criterion 12

def test_criterion_12_cli_determinism(tmp_path):
    env = dict(os.environ)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        r = subprocess.run([sys.executable, "-m", "ewaldpot.cli",
                            str(DATA / "demo.txt"), "--mode", "2p",
                            "--out", str(out)],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    for mode in ("1p", "2p", "3p"):
        out = tmp_path / f"g_{mode}.csv"
        r = subprocess.run([sys.executable, "-m", "ewaldpot.cli",
                            str(DATA / "demo.txt"), "--mode", mode,
                            "--out", str(out)],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert out.read_bytes() == (GOLDEN / f"demo_{mode}.csv").read_bytes()
    report(12, "CLI runs are byte-deterministic and match golden tables")
