import math

import numpy as np
import pytest

from ewaldpot import specfun
from ewaldpot.specfun import (
    EULER_GAMMA,
    bessel_k0,
    erfc,
    erfcx,
    expint_e1,
    g_screened,
    incomplete_bessel_k0,
    zero_mode_limit_a,
)

mp = pytest.importorskip("mpmath")


def quad_erfc(x):
    # (2/sqrt(pi)) int_x^inf e^{-t^2} dt with high-precision quadrature;
    # the substitution t = x + s pulls out e^{-x^2} so the quadrature
    # works on an O(1) integrand even where erfc is denormal-small.
    with mp.workdps(30):
        x = mp.mpf(x)
        q = mp.quad(lambda s: mp.exp(-2 * x * s - s * s), [0, 1, 8, 40])
        return float(2 / mp.sqrt(mp.pi) * mp.exp(-x * x) * q)


def quad_k0(x):
    # int_0^inf e^{-x cosh t} dt, scaled by e^{x} for the same reason
    with mp.workdps(30):
        x = mp.mpf(x)
        hi = mp.acosh(1 + 760 / x)
        q = mp.quad(lambda t: mp.exp(-x * (mp.cosh(t) - 1)),
                    [0, hi / 8, hi / 2, hi])
        return float(mp.exp(-x) * q)


def quad_e1(v):
    # int_v^inf e^{-t}/t dt = e^{-v} int_0^inf e^{-s}/(v+s) ds
    with mp.workdps(30):
        v = mp.mpf(v)
        q = mp.quad(lambda s: mp.exp(-s) / (v + s), [0, v, 10 * v, 1, 50])
        return float(mp.exp(-v) * q)


# ---------------------------------------------------------------- erfc

def test_erfc_at_zero():
    assert erfc(0.0) == 1.0


def test_erfc_reflection():
    for x in (0.3, 1.7, 4.0):
        assert abs(erfc(-x) + erfc(x) - 2.0) < 1e-15


def test_erfc_value_against_quadrature():
    ref = quad_erfc(2.0)
    assert abs(ref - 0.004677734981047266) < 1e-17
    assert abs(erfc(2.0) - ref) <= 1e-14 * ref


def test_erfc_tolerance_sampled():
    for x in np.logspace(-2, math.log10(26.0), 25):
        ref = quad_erfc(float(x))
        if abs(ref) > 1e-300:
            assert abs(erfc(float(x)) - ref) <= 1e-14 * abs(ref)


def test_erfc_monotone_decreasing():
    xs = np.linspace(-4.0, 8.0, 200)
    vals = [erfc(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 2.0 for v in vals)


# ---------------------------------------------------------------- erfcx

def test_erfcx_at_zero():
    assert erfcx(0.0) == 1.0


def test_erfcx_asymptotic_tail():
    assert abs(erfcx(30.0) * (30.0 * math.sqrt(math.pi)) - 1.0) < 1e-3


def test_erfcx_definition_identity():
    for x in (0.5, 1.0, 2.0):
        assert abs(erfcx(x) * math.exp(-x * x) - erfc(x)) <= 1e-13 * erfc(x)


def test_erfcx_matches_scaled_erfc_sampled():
    with mp.workdps(30):
        for x in np.linspace(0.0, 40.0, 33):
            ref = float(mp.erfc(mp.mpf(float(x))) * mp.exp(mp.mpf(float(x)) ** 2))
            assert abs(erfcx(float(x)) - ref) <= 1e-13 * ref


def test_erfcx_negative_side():
    # finite while 2 e^{x^2} is representable, +inf once it is not
    assert math.isfinite(erfcx(-26.0))
    assert erfcx(-26.9) == math.inf
    with mp.workdps(40):
        for x in (-0.7, -3.0, -10.0):
            ref = float(mp.erfc(mp.mpf(x)) * mp.exp(mp.mpf(x) ** 2))
            assert abs(erfcx(x) - ref) <= 1e-13 * abs(ref)


# ---------------------------------------------------------------- bessel_k0

def test_k0_frozen_value():
    ref = quad_k0(1.0)
    assert abs(ref - 0.42102443824070823) < 1e-15
    assert abs(bessel_k0(1.0) - ref) <= 1e-12 * ref


def test_k0_small_argument_logarithm():
    # K0(x) = -log(x/2) - gamma + (x^2/4)(1 - gamma - log(x/2)) + O(x^4 log x),
    # so the deviation from the logarithmic lead is the second-order term.
    for x in (1e-2, 1e-3, 1e-4):
        lead = -math.log(0.5 * x) - EULER_GAMMA
        second = 0.25 * x * x * (1.0 + lead)
        diff = bessel_k0(x) - lead
        assert 0.0 < diff <= 1.0001 * second
        assert abs(diff - second) <= x ** 4 * (2.0 + lead ** 2)


def test_k0_large_argument_decay():
    # K0(x) ~ sqrt(pi/(2x)) e^{-x} (1 - 1/(8x) + 9/(2(8x)^2) - ...)
    x = 20.0
    scaled = bessel_k0(x) * math.sqrt(2.0 * x / math.pi) * math.exp(x)
    expansion = 1.0 - 1.0 / (8 * x) + 9.0 / (2 * (8 * x) ** 2)
    assert abs(scaled - expansion) < 1e-4


def test_k0_tolerance_sampled():
    for x in np.logspace(-8, math.log10(700.0), 40):
        ref = quad_k0(float(x))
        if ref > 1e-300:
            assert abs(bessel_k0(float(x)) - ref) <= 1e-12 * ref


def test_k0_monotone_and_log_convex():
    xs = np.logspace(-3, 2, 60)
    vals = np.array([bessel_k0(float(x)) for x in xs])
    assert (np.diff(vals) < 0).all()
    for x in (0.1, 1.0, 5.0, 40.0):
        h = 0.3 * x
        mid = 2.0 * math.log(bessel_k0(x))
        outer = math.log(bessel_k0(x - h)) + math.log(bessel_k0(x + h))
        assert outer >= mid


def test_k0_domain():
    with pytest.raises(ValueError):
        bessel_k0(0.0)
    with pytest.raises(ValueError):
        bessel_k0(-1.0)


# ---------------------------------------------------------------- expint_e1

def test_e1_series_consistency():
    v = 0.1
    s = sum((-1) ** (p + 1) * v ** p / (math.factorial(p) * p)
            for p in range(1, 7))
    assert abs(expint_e1(v) + EULER_GAMMA + math.log(v) - s) <= 1e-10


def test_e1_frozen_value():
    ref = quad_e1(1.0)
    assert abs(ref - 0.21938393439552029) < 1e-16
    assert abs(expint_e1(1.0) - ref) <= 1e-12 * ref
    assert abs(expint_e1(4.0) - 0.0037793524098489063) <= 1e-14 * 0.00377935


def test_e1_upper_bound():
    for v in (1.0, 5.0, 10.0):
        assert expint_e1(v) < math.exp(-v) / v


def test_e1_tolerance_sampled():
    for v in np.logspace(-8, math.log10(700.0), 40):
        ref = quad_e1(float(v))
        if ref > 1e-300:
            assert abs(expint_e1(float(v)) - ref) <= 1e-12 * ref


def test_e1_decreasing_and_domain():
    vs = np.logspace(-4, 2, 80)
    vals = [expint_e1(float(v)) for v in vs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)
    with pytest.raises(ValueError):
        expint_e1(0.0)
    with pytest.raises(ValueError):
        expint_e1(-2.0)


# ----------------------------------------------- incomplete_bessel_k0

def test_k0inc_reduces_to_e1_at_v_zero():
    for u in (0.5, 1.0, 2.0):
        assert incomplete_bessel_k0(u, 0.0) == expint_e1(u)


def test_k0inc_small_u_identity():
    for u in (1e-3, 1e-4):
        ident = 2.0 * bessel_k0(2.0 * math.sqrt(u)) - expint_e1(1.0)
        assert abs(incomplete_bessel_k0(u, 1.0) - ident) <= 10.0 * u


def test_k0inc_frozen_value():
    # cross-checked by two independent quadratures of the defining integral
    assert abs(incomplete_bessel_k0(1.0, 1.0) - 0.11389387274953343) < 1e-13


def test_k0inc_against_quadrature_grid():
    with mp.workdps(30):
        for u in (3e-6, 1e-3, 0.2, 1.0, 7.0):
            for v in (1e-6, 0.3, 2.0, 40.0):
                f = lambda s: mp.exp(-u * mp.exp(s) - v * mp.exp(-s))
                hi = float(mp.log(mp.mpf(80) / u))
                ref = float(mp.quad(f, [0, hi / 2, hi]))
                assert abs(incomplete_bessel_k0(u, v) - ref) < 1e-11


def test_k0inc_sandwich_bounds():
    for u in (0.3, 1.0, 3.0):
        for v in (0.2, 1.0, 5.0):
            val = incomplete_bessel_k0(u, v)
            e1 = expint_e1(u)
            assert math.exp(-v) * e1 <= val <= e1


def test_k0inc_monotone_in_each_argument():
    gu = np.linspace(0.05, 8.0, 10)
    gv = np.linspace(0.0, 8.0, 10)
    table = np.array([[incomplete_bessel_k0(float(u), float(v)) for v in gv]
                      for u in gu])
    assert (np.diff(table, axis=0) < 0).all()
    assert (np.diff(table, axis=1) < 0).all()


def test_k0inc_domain_and_config():
    with pytest.raises(ValueError):
        incomplete_bessel_k0(0.0, 1.0)
    with pytest.raises(ValueError):
        incomplete_bessel_k0(-1.0, 1.0)
    with pytest.raises(ValueError):
        incomplete_bessel_k0(1.0, -1e-9)


def test_k0inc_raises_when_the_budget_is_spent(monkeypatch):
    # two subintervals (split at the peak) cannot reach 1e-12 here; quad
    # reports it, and the function raises instead of returning its value
    monkeypatch.setattr(specfun, "_QUAD_LIMIT", 2)
    with pytest.raises(RuntimeError, match="did not converge"):
        incomplete_bessel_k0(0.7, 2.3)
    # the branch without quadrature needs no budget
    assert incomplete_bessel_k0(0.7, 0.0) == expint_e1(0.7)


# ---------------------------------------------------------- g_screened

def test_g_in_plane_reduction():
    for kbar in (0.5, 2.0, 7.0):
        xi = 1.3
        assert abs(g_screened(kbar, 0.0, xi)
                   - 2.0 * erfc(0.5 * kbar / xi)) < 1e-15


def test_g_even_in_z():
    assert g_screened(1.0, 0.7, 1.3) == g_screened(1.0, -0.7, 1.3)


def test_g_matches_naive_form_at_moderate_arguments():
    kbar, z, xi = 2.0, 0.5, 1.0
    a = 0.5 * kbar / xi + xi * z
    b = 0.5 * kbar / xi - xi * z
    naive = math.exp(kbar * z) * math.erfc(a) + math.exp(-kbar * z) * math.erfc(b)
    assert abs(g_screened(kbar, z, xi) - naive) <= 1e-13 * naive


def test_g_no_overflow_for_large_arguments():
    # the naive form needs e^{kbar z} = e^{1500} here; the kernel must
    # stay finite (the true value underflows double range, so 0.0 is the
    # correctly rounded result)
    val = g_screened(500.0, 3.0, 1.0)
    assert math.isfinite(val)
    assert 0.0 <= val < 1e-300
    # and where e^{kbar z} alone would raise OverflowError
    val = g_screened(800.0, 1.0, 14.0)
    assert math.isfinite(val)


def test_g_accurate_where_naive_form_degrades():
    # at (250, 0.6, 5) the naive split needs erfc(28) = 0.0 in doubles and
    # silently drops ~half the value; the scaled route keeps full accuracy
    kbar, z, xi = 250.0, 0.6, 5.0
    with mp.workdps(40):
        k, zz, x = mp.mpf(kbar), mp.mpf(z), mp.mpf(xi)
        ref = (mp.exp(k * zz) * mp.erfc(k / (2 * x) + x * zz)
               + mp.exp(-k * zz) * mp.erfc(k / (2 * x) - x * zz))
        ref = float(ref)
    got = g_screened(kbar, z, xi)
    assert abs(got - ref) <= 1e-12 * ref
    naive = (math.exp(kbar * z) * math.erfc(0.5 * kbar / xi + xi * z)
             + math.exp(-kbar * z) * math.erfc(0.5 * kbar / xi - xi * z))
    assert abs(naive - ref) > 0.1 * ref


def test_g_positive_on_grid():
    # grid restricted to where the true value is representable:
    # (kbar/2xi)^2 + (xi z)^2 <= ~700
    for kbar in (0.1, 1.0, 10.0, 120.0):
        for z in (-4.0, -0.3, 0.0, 0.9, 6.0):
            for xi in (0.4, 1.0, 3.5):
                if (0.5 * kbar / xi) ** 2 + (xi * z) ** 2 < 680.0:
                    assert g_screened(kbar, z, xi) > 0.0


def test_g_domain():
    with pytest.raises(ValueError):
        g_screened(0.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        g_screened(-1.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        g_screened(1.0, 0.3, 0.0)


# ------------------------------------------------- zero_mode_limit_a

def test_a_at_zero():
    for xi in (0.5, 1.0, 2.0):
        assert abs(zero_mode_limit_a(0.0, xi)
                   + 2.0 / (xi * math.sqrt(math.pi))) < 1e-15


def test_a_even_in_z():
    z, xi = 1.1, 0.8
    assert abs(zero_mode_limit_a(z, xi) - zero_mode_limit_a(-z, xi)) == 0.0


def test_a_nonpositive():
    for z in np.linspace(-5.0, 5.0, 41):
        for xi in (0.5, 1.0, 2.0):
            assert zero_mode_limit_a(float(z), xi) <= 0.0


def test_a_matches_small_kbar_quotient():
    kbar = 1e-5
    z, xi = 0.4, 1.2
    quotient = (g_screened(kbar, z, xi) - 2.0 * math.exp(-kbar * abs(z))) / kbar
    assert abs(quotient - zero_mode_limit_a(z, xi)) < 1e-4


def test_a_quotient_uniform_grid():
    kbar = 1e-5
    worst = 0.0
    for xi in (0.5, 1.0, 2.0):
        for z in np.linspace(-3.0, 3.0, 31):
            z = float(z)
            quotient = (g_screened(kbar, z, xi)
                        - 2.0 * math.exp(-kbar * abs(z))) / kbar
            worst = max(worst, abs(quotient - zero_mode_limit_a(z, xi)))
    assert worst <= 1e-4


def test_a_domain():
    with pytest.raises(ValueError):
        zero_mode_limit_a(0.5, 0.0)
