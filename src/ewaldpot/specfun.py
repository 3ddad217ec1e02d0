"""Scalar special-function kernels for screened Coulomb sums.

Provides the complementary error function and its scaled variant, the
modified Bessel function K0, the exponential integral E1, the incomplete
modified Bessel function K0(u, v) = int_1^inf t^-1 exp(-u*t - v/t) dt,
the screened planar kernel g(kbar, z, xi), and the zero-wavenumber limit
function A(z, xi).

The scalar routines (_erfcx_scalar, _k0_scalar, _e1_scalar, _k0inc_scalar,
_g_scalar, ...) are plain Python; the test suite checks them against mpmath
and uses them as the references of the vectorized kernels in kernels_numpy.
They are pure and reentrant.  No evaluation calls the incomplete K0 or g:
the 1p and 2p k-space sums are 3p sums over an extended lattice, and these
two functions are the closed forms the tests check those sums against.
The incomplete K0 quadrature raises RuntimeError rather than return a
value whose error estimate missed the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606
SQRT_PI = 1.7724538509055160273

__all__ = [
    "EULER_GAMMA",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "erfc",
    "erfcx",
    "bessel_k0",
    "expint_e1",
    "incomplete_bessel_k0",
    "g_screened",
    "zero_mode_limit_a",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for adaptive quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 400

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()


# --------------------------------------------------------------------------
# erfc / erfcx
# --------------------------------------------------------------------------

def erfc(x):
    """Complementary error function erfc(x) = (2/sqrt(pi)) int_x^inf e^{-t^2} dt."""
    return math.erfc(x)


def _exp_sq(x):
    # exp(x*x) with the argument split so that the squaring error of x*x
    # (about x^2 * eps, i.e. ~5e-14 relative in exp near x = 26) is removed.
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    lo = x - hi
    return math.exp(hi * hi) * math.exp((2.0 * hi + lo) * lo)


def _erfcx_nonneg(x):
    # x >= 0 only.
    if x >= 26.0:
        # Asymptotic series: (1/(x sqrt(pi))) * sum (-1)^n (2n-1)!! / (2x^2)^n.
        # At x = 26 the 9th term is ~2e-21, far below double rounding.
        r = 0.5 / (x * x)
        s = 1.0
        term = 1.0
        for n in range(1, 10):
            term *= -(2.0 * n - 1.0) * r
            s += term
        return s / (x * SQRT_PI)
    return _exp_sq(x) * math.erfc(x)


def _erfcx_scalar(x):
    if x >= 0.0:
        return _erfcx_nonneg(x)
    if x < -26.628:
        # 2 exp(x^2) exceeds the double range; erfc(x) is 2 to full precision.
        return math.inf
    return 2.0 * _exp_sq(x) - _erfcx_nonneg(-x)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x).

    Finite for every x whose result is representable; returns +inf once
    e^{x^2} overflows on the negative side (x < -26.628).
    """
    return _erfcx_scalar(x)


# --------------------------------------------------------------------------
# Bessel K0
# --------------------------------------------------------------------------

# Chebyshev fit of K0(x) * e^x * sqrt(x) on x in [2, inf) via t = 4/x - 1,
# built by interpolation at 64 Chebyshev nodes with 25-digit arithmetic;
# max relative error 5.0e-15 sampled over x in [2, 700].
_K0_CHEB = np.array([
    1.22015154103297773780e+00, -3.14481013119644048359e-02,
    1.56988388572998696646e-03, -1.28495495816199900574e-04,
    1.39498137187231245615e-05, -1.83175552274927877505e-06,
    2.76681363899772270187e-07, -4.66048989122835877197e-08,
    8.57403396545275420237e-09, -1.69753498757696519306e-09,
    3.57739580146565483432e-10, -7.95743471115883949096e-11,
    1.85595939658500519442e-11, -4.51472192963819907163e-12,
    1.14018169905527599894e-12, -2.98316926716779562412e-13,
    7.97140131680862396024e-14, -2.19269047363468416734e-14,
    6.60582699651968141552e-15, -1.38777878078144567553e-15,
    7.07333497329543092746e-16,
])


def _k0_scalar(x):
    if x <= 2.0:
        # K0 = -(log(x/2) + gamma) I0(x) + sum_{k>=1} (x^2/4)^k / (k!)^2 * H_k
        q = 0.25 * x * x
        i0 = 1.0
        term = 1.0
        s = 0.0
        h = 0.0
        k = 0.0
        while True:
            k += 1.0
            term *= q / (k * k)
            i0 += term
            h += 1.0 / k
            s += term * h
            if term * (h + 1.0) < 1e-18:
                break
        return -(math.log(0.5 * x) + EULER_GAMMA) * i0 + s
    t = 4.0 / x - 1.0
    b0 = 0.0
    b1 = 0.0
    for i in range(_K0_CHEB.shape[0] - 1, -1, -1):
        b0, b1 = 2.0 * t * b0 - b1 + _K0_CHEB[i], b0
    return (b0 - t * b1) * math.exp(-x) / math.sqrt(x)


def bessel_k0(x):
    """Modified Bessel function of the second kind K0(x), x > 0."""
    if not x > 0.0:
        raise ValueError("bessel_k0 requires x > 0")
    return _k0_scalar(x)


# --------------------------------------------------------------------------
# Exponential integral E1
# --------------------------------------------------------------------------

def _e1_scalar(v):
    if v <= 1.0:
        # E1(v) = -gamma - log(v) + sum_{k>=1} (-1)^{k+1} v^k / (k k!)
        s = 0.0
        term = 1.0
        k = 0.0
        while True:
            k += 1.0
            term *= -v / k
            d = term / k
            s += d
            if abs(d) < 1e-18:
                break
        return -EULER_GAMMA - math.log(v) - s
    # Continued fraction e^{-v}/(v+1- 1/(v+3- 4/(v+5- 9/(...)))), Lentz form.
    tiny = 1e-300
    b = v + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 300):
        a = -(i * i * 1.0)
        b += 2.0
        d = b + a * d
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return f * math.exp(-v)


def expint_e1(v):
    """Exponential integral E1(v) = int_v^inf e^{-t}/t dt, v > 0."""
    if not v > 0.0:
        raise ValueError("expint_e1 requires v > 0")
    return _e1_scalar(v)


# --------------------------------------------------------------------------
# Incomplete Bessel K0(u, v)
# --------------------------------------------------------------------------

# Gauss-Kronrod 7/15 nodes and weights (non-negative half; node 0 last).
_GK_X = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_GK_WK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_GK_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])


def _k0inc_f(kind, u, v, x):
    # kind 0: integrand in t on [1, t*]:  exp(-u t - v/t) / t
    # kind 1: integrand in s after t = t* e^s (u, v pre-scaled by t*):
    #         exp(-u e^s - v e^{-s})
    if kind == 0:
        return math.exp(-u * x - v / x) / x
    e = math.exp(x)
    return math.exp(-u * e - v / e)


def _k0inc_panel(kind, u, v, a, b):
    # 15-point Kronrod value and |K15 - G7| error estimate on [a, b].
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk = 0.0
    fg = 0.0
    for i in range(7):
        fp = _k0inc_f(kind, u, v, mid + half * _GK_X[i])
        fm = _k0inc_f(kind, u, v, mid - half * _GK_X[i])
        fk += _GK_WK[i] * (fp + fm)
        if i % 2 == 1:
            fg += _GK_WG[i // 2] * (fp + fm)
    f0 = _k0inc_f(kind, u, v, mid)
    fk += _GK_WK[7] * f0
    fg += _GK_WG[3] * f0
    return half * fk, half * abs(fk - fg)


def _k0inc_adaptive(kind, u, v, a, b, tol, budget):
    # Stack-driven bisection; a panel is accepted once its error estimate
    # fits its share of the tolerance.  A panel that misses it when the
    # subdivision budget is spent or the stack is nearly full raises.
    span = b - a
    stack = np.empty((512, 2))
    stack[0, 0] = a
    stack[0, 1] = b
    top = 1
    total = 0.0
    used = 0
    while top > 0:
        top -= 1
        pa = stack[top, 0]
        pb = stack[top, 1]
        val, err = _k0inc_panel(kind, u, v, pa, pb)
        used += 1
        if err <= 0.5 * tol * (pb - pa) / span:
            total += val
        elif used >= budget or top >= 510:
            limit = (f"{budget} panels" if used >= budget
                     else "the bisection depth limit")
            raise RuntimeError(
                f"incomplete_bessel_k0 did not converge within {limit}")
        else:
            pm = 0.5 * (pa + pb)
            stack[top, 0] = pa
            stack[top, 1] = pm
            stack[top + 1, 0] = pm
            stack[top + 1, 1] = pb
            top += 2
    return total


def _k0inc_scalar(u, v, abs_tol, rel_tol, max_subdivisions):
    if v == 0.0:
        return _e1_scalar(u)
    if u < 1e-6:
        # Small-u identity K0(u,v) = 2 K0(2 sqrt(uv)) - E1(v) + u E2(v) + O(u^2),
        # with E2(v) = e^{-v} - v E1(v); the O(u^2) remainder is below u^2/2.
        e1v = _e1_scalar(v)
        return (2.0 * _k0_scalar(2.0 * math.sqrt(u * v)) - e1v
                + u * (math.exp(-v) - v * e1v))
    tstar = max(1.0, math.sqrt(v / u))
    # Tail t = t* e^s truncated where the integrand has dropped by
    # e^{-T} with T = 30 - log(abs_tol), i.e. below abs_tol * e^{-30}.
    us = u * tstar
    vs = v / tstar
    s_end = math.log1p((30.0 - math.log(abs_tol)) / us)
    head, herr = _k0inc_panel(1, us, vs, 0.0, s_end)
    tol = abs_tol + rel_tol * abs(head)
    total = _k0inc_adaptive(1, us, vs, 0.0, s_end, tol, max_subdivisions)
    if tstar > 1.0:
        total += _k0inc_adaptive(0, u, v, 1.0, tstar, tol, max_subdivisions)
    return total


def incomplete_bessel_k0(u, v, cfg=None):
    """Incomplete modified Bessel function K0(u, v).

    Evaluates int_1^inf t^-1 exp(-u*t - v/t) dt for u > 0, v >= 0 to the
    configured tolerance (default absolute 1e-12).  The integral diverges
    logarithmically at u = 0, so u <= 0 is rejected.  RuntimeError is raised
    when the adaptive quadrature would have to accept a panel above its
    share of the tolerance: cfg.max_subdivisions panels are spent, or the
    bisection is about 510 levels deep.
    """
    if not u > 0.0:
        raise ValueError("incomplete_bessel_k0 requires u > 0")
    if v < 0.0:
        raise ValueError("incomplete_bessel_k0 requires v >= 0")
    if cfg is None:
        cfg = DEFAULT_QUADRATURE
    return _k0inc_scalar(u, v, cfg.abs_tol, cfg.rel_tol,
                         cfg.max_subdivisions)


# --------------------------------------------------------------------------
# Screened planar kernel g and its zero-wavenumber limit A
# --------------------------------------------------------------------------

def _g_half(arg, kz, c):
    # e^{kz} erfc(arg) where arg = kbar/(2 xi) + xi z, kz = kbar z and
    # c = (kbar/(2 xi))^2 + (xi z)^2, so that kz - arg^2 = -c exactly.
    # For arg >= 0 rewrite through erfcx so that e^{kz} never materializes:
    # e^{kz} erfc(arg) = erfcx(arg) e^{-c}.  For arg < 0 we have
    # kz < -2 (xi z)^2 <= 0, so the direct product cannot overflow.
    if arg >= 0.0:
        return _erfcx_nonneg(arg) * math.exp(-c)
    return math.exp(kz) * math.erfc(arg)


def _g_scalar(kbar, z, xi):
    h = 0.5 * kbar / xi
    w = xi * z
    c = h * h + w * w
    kz = kbar * z
    return _g_half(h + w, kz, c) + _g_half(h - w, -kz, c)


def g_screened(kbar, z, xi):
    """Screened planar kernel e^{kz} erfc(k/2xi + xi z) + e^{-kz} erfc(k/2xi - xi z).

    Overflow-free for arbitrarily large kbar*|z|; the kbar = 0 mode is not
    part of this kernel (it is covered by the zero-mode terms).
    """
    if not kbar > 0.0:
        raise ValueError("g_screened requires kbar > 0")
    if not xi > 0.0:
        raise ValueError("g_screened requires xi > 0")
    return _g_scalar(kbar, z, xi)


def _a_limit_scalar(z, xi):
    zz = xi * z
    return -2.0 * (math.exp(-zz * zz) / (xi * SQRT_PI) - abs(z)
                   + z * math.erf(zz))


def zero_mode_limit_a(z, xi):
    """Zero-wavenumber limit A(z, xi) = -2(e^{-(xi z)^2}/(xi sqrt(pi)) - |z| + z erf(xi z)).

    Even in z and non-positive everywhere; equals the kbar -> 0 limit of
    (g_screened(kbar, z, xi) - 2 e^{-kbar |z|}) / kbar.
    """
    if not xi > 0.0:
        raise ValueError("zero_mode_limit_a requires xi > 0")
    return _a_limit_scalar(z, xi)
