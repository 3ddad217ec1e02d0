"""Scalar special-function kernels for screened Coulomb sums.

Provides the complementary error function and its scaled variant, the
modified Bessel function K0, the exponential integral E1, the incomplete
modified Bessel function K0(u, v) = int_1^inf t^-1 exp(-u*t - v/t) dt,
the screened planar kernel g(kbar, z, xi), and the zero-wavenumber limit
function A(z, xi).

The test suite checks these routines against mpmath and uses them in the
plain reference loops of the vectorized kernels in kernels_numpy.  A
reference never shares a routine with the kernel it checks, so what the
kernels take from scipy.special stays independent here: erfc and erf are
math's (real_space and zero_mode_2p call scipy.special.erfc and erf) and
E1 is a plain Python series and continued fraction (zero_mode_1p calls
scipy.special.exp1).  K0 and erfcx are scipy.special's, and the incomplete
K0 is one scipy.integrate.quad call: no kernel uses any of them.  All routines are
pure and reentrant.  No evaluation calls the incomplete K0 or g: the 1p and
2p k-space sums are 3p sums over an extended lattice, and these two
functions are the closed forms the tests check those sums against.  The
incomplete K0 raises RuntimeError rather than return a value whose error
estimate missed the tolerance.
"""

from __future__ import annotations

import math

from scipy import special as sp

EULER_GAMMA = 0.5772156649015328606
SQRT_PI = 1.7724538509055160273

__all__ = [
    "EULER_GAMMA",
    "erfc",
    "erfcx",
    "bessel_k0",
    "expint_e1",
    "incomplete_bessel_k0",
    "g_screened",
    "zero_mode_limit_a",
]


# --------------------------------------------------------------------------
# erfc / erfcx / K0
# --------------------------------------------------------------------------

def erfc(x):
    """Complementary error function erfc(x) = (2/sqrt(pi)) int_x^inf e^{-t^2} dt."""
    return math.erfc(x)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x).

    Finite for every x whose result is representable; returns +inf once
    e^{x^2} overflows on the negative side (x < -26.628).
    """
    return float(sp.erfcx(x))


def bessel_k0(x):
    """Modified Bessel function of the second kind K0(x), x > 0."""
    if not x > 0.0:
        raise ValueError("bessel_k0 requires x > 0")
    return float(sp.k0(x))


# --------------------------------------------------------------------------
# Exponential integral E1
# --------------------------------------------------------------------------

def expint_e1(v):
    """Exponential integral E1(v) = int_v^inf e^{-t}/t dt, v > 0."""
    if not v > 0.0:
        raise ValueError("expint_e1 requires v > 0")
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


# --------------------------------------------------------------------------
# Incomplete Bessel K0(u, v)
# --------------------------------------------------------------------------

# quad's absolute and relative tolerance and its subinterval budget
_QUAD_TOL = 1e-12
_QUAD_LIMIT = 400


def incomplete_bessel_k0(u, v):
    """Incomplete modified Bessel function K0(u, v).

    Evaluates int_1^inf t^-1 exp(-u*t - v/t) dt for u > 0, v >= 0 by
    scipy.integrate.quad, to 1e-12 absolute or relative, whichever is
    looser.  The integral diverges logarithmically at u = 0, so u <= 0 is
    rejected.  RuntimeError is raised when quad reports that it missed the
    tolerance, for instance once its 400 subintervals are spent.
    """
    if not u > 0.0:
        raise ValueError("incomplete_bessel_k0 requires u > 0")
    if v < 0.0:
        raise ValueError("incomplete_bessel_k0 requires v >= 0")
    if v == 0.0:
        return expint_e1(u)
    # Imported here, not with the module: scipy.integrate adds about 25 MB
    # of RSS and 0.5 s to `import ewaldpot`, and no evaluation calls this.
    from scipy.integrate import quad

    # t = e^s turns the integral into int_0^inf exp(-u e^s - v e^-s) ds,
    # truncated where u e^s exceeds T = 30 - log(tol), so that the
    # integrand and the tail beyond s_end are below tol * e^-30.  The
    # integrand peaks at s = log(v/u)/2; it is a breakpoint where it lies
    # inside, and s_end lies beyond it.
    s_end = math.log(max(1.0, math.sqrt(v / u))
                     + (30.0 - math.log(_QUAD_TOL)) / u)
    peak = 0.5 * math.log(v / u)

    def f(s):
        e = math.exp(s)
        return math.exp(-u * e - v / e)

    val, _, _, *msg = quad(f, 0.0, s_end, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                           limit=_QUAD_LIMIT,
                           points=(peak,) if peak > 0.0 else None,
                           full_output=1)
    if msg:
        raise RuntimeError(f"incomplete_bessel_k0 did not converge: {msg[0]}")
    return val


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
        return erfcx(arg) * math.exp(-c)
    return math.exp(kz) * math.erfc(arg)


def g_screened(kbar, z, xi):
    """Screened planar kernel e^{kz} erfc(k/2xi + xi z) + e^{-kz} erfc(k/2xi - xi z).

    Overflow-free for arbitrarily large kbar*|z|; the kbar = 0 mode is not
    part of this kernel (it is covered by the zero-mode terms).
    """
    if not kbar > 0.0:
        raise ValueError("g_screened requires kbar > 0")
    if not xi > 0.0:
        raise ValueError("g_screened requires xi > 0")
    h = 0.5 * kbar / xi
    w = xi * z
    c = h * h + w * w
    kz = kbar * z
    return _g_half(h + w, kz, c) + _g_half(h - w, -kz, c)


def zero_mode_limit_a(z, xi):
    """Zero-wavenumber limit A(z, xi) = -2(e^{-(xi z)^2}/(xi sqrt(pi)) - |z| + z erf(xi z)).

    Even in z and non-positive everywhere; equals the kbar -> 0 limit of
    (g_screened(kbar, z, xi) - 2 e^{-kbar |z|}) / kbar.
    """
    if not xi > 0.0:
        raise ValueError("zero_mode_limit_a requires xi > 0")
    zz = xi * z
    return -2.0 * (math.exp(-zz * zz) / (xi * SQRT_PI) - abs(z)
                   + z * math.erf(zz))
