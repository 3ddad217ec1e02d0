"""Ewald decomposition of the periodic Coulomb potential.

The bare image sum  phi(x) = sum_n sum_p q_n / |x - x_n + p|  is split,
per periodicity mode, into

    real space   sum_n sum_p q_n erfc(xi r)/r            (all modes)
    k space      Gaussian-damped lattice Fourier sum     (mode-specific)
    zero mode    the k = 0 contribution                  (2P and 1P only)
    self term    -(2 xi/sqrt(pi)) q_m                    (at sources only)

with a free positive decomposition parameter xi; totals are xi-independent
up to truncation error, which is the defining consistency property and the
backbone of the test suite.  Potentials are in Gaussian units, charge over
length.

ewald_potential plans each evaluation once: it validates the targets,
checks neutrality, wraps positions and targets to the primary cell,
resolves the targets (coincidence check and source index per target) and
builds the image shifts and the k grid.  The layers then run on those
plain arrays, each through one kernel of kernels_numpy.  The public
per-layer functions (real_space_sum, kspace_sum_*, zero_mode_*) validate
and resolve their own arguments, without wrapping, and run the same layer
code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels_numpy
from .core import (
    EwaldParams,
    KGrid,
    ParticleSystem,
    Periodicity,
    PotentialResult,
    build_image_vectors,
    build_kgrid,
    require_neutral,
    wrap_positions,
)
from .specfun import DEFAULT_QUADRATURE, SQRT_PI

__all__ = [
    "EvalTargets",
    "EwaldBreakdown",
    "real_space_sum",
    "self_term",
    "kspace_sum_3p",
    "kspace_sum_2p",
    "kspace_sum_1p",
    "zero_mode_2p",
    "zero_mode_1p",
    "ewald_potential",
]

COINCIDE_EPS_FACTOR = 1e-10

_VARIANT_CODES = {"standard": 0, "flip_e1": 1, "flip_gamma": 2}


@dataclass(frozen=True)
class EvalTargets:
    """Where to evaluate: at every source (self-interaction removed) or at
    explicit off-particle points.

    Off-particle points closer than 1e-10 * min(L) to any source (minimum
    image convention along the periodic axes) are rejected on resolution.
    """

    points: np.ndarray | None = None

    def __post_init__(self):
        if self.points is not None:
            pts = np.array(self.points, dtype=np.float64, copy=True)
            if pts.ndim == 1 and pts.size == 3:
                pts = pts[None, :]
            if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
                raise ValueError("target points must form an (M, 3) array")
            if not np.all(np.isfinite(pts)):
                raise ValueError("target points must be finite")
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)

    @classmethod
    def at_sources(cls) -> "EvalTargets":
        return cls(points=None)

    @classmethod
    def at_points(cls, points) -> "EvalTargets":
        return cls(points=points)

    @property
    def is_sources(self) -> bool:
        return self.points is None


@dataclass(frozen=True)
class EwaldBreakdown:
    """Per-target component arrays of one evaluation.

    zero_mode is identically zero in P3 mode (the k = 0 Fourier mode is
    gauged away there); self_term is identically zero off the particles.
    """

    real: np.ndarray
    kspace: np.ndarray
    zero_mode: np.ndarray
    self_term: np.ndarray

    def total(self) -> np.ndarray:
        return self.real + self.kspace + self.zero_mode + self.self_term


def _target_points(targets) -> np.ndarray | None:
    """The explicit target points, or None to evaluate at the sources."""
    if not isinstance(targets, EvalTargets):
        raise ValueError("targets must be an EvalTargets instance")
    return targets.points


def _resolve_targets(system: ParticleSystem, mode: Periodicity, points):
    """Return (target positions (M,3), source index per target, -1 if none).

    points is None at the sources; explicit points closer than
    COINCIDE_EPS_FACTOR * min(L) to a source are rejected.
    """
    if points is None:
        n = len(system)
        return np.array(system.positions), np.arange(n, dtype=np.int64)
    pts = np.array(points)
    eps = COINCIDE_EPS_FACTOR * float(np.min(system.box))
    delta = pts[:, None, :] - system.positions[None, :, :]
    for ax in mode.periodic_axes:
        length = system.box[ax]
        delta[:, :, ax] -= length * np.round(delta[:, :, ax] / length)
    dist = np.sqrt((delta ** 2).sum(axis=-1))
    if np.any(dist < eps):
        m, n = np.unravel_index(np.argmin(dist), dist.shape)
        raise ValueError(
            f"target {m} lies within {eps:.3e} of source {n}; "
            "evaluate at sources instead")
    return pts, np.full(len(pts), -1, dtype=np.int64)


def _check_xi(xi):
    if not xi > 0.0:
        raise ValueError("xi must be positive")


def _check_grid(kgrid: KGrid, mode: Periodicity):
    if not isinstance(kgrid, KGrid):
        raise ValueError("kgrid must be a KGrid")
    if kgrid.mode is not mode:
        raise ValueError(
            f"k grid was built for {kgrid.mode.value}, needed {mode.value}")


def _variant_code(variant: str) -> int:
    if variant not in _VARIANT_CODES:
        raise ValueError(f"unknown variant {variant!r}")
    return _VARIANT_CODES[variant]


# The layers proper, shared by ewald_potential and the public per-layer
# functions: validated arguments and resolved targets (tpos, src) in, one
# kernel call out.

def _real(system, tpos, src, images, xi, r_cut):
    return kernels_numpy.real_space(system.positions, system.charges, tpos,
                                    src, images, float(xi), float(r_cut))


def _kspace(mode, system, tpos, xi, kgrid, cfg=None):
    # the kernels also return the imaginary residue; only the real part is
    # the potential
    args = (system.positions, system.charges, tpos, float(xi), kgrid.vectors)
    if mode is Periodicity.P3:
        volume = float(np.prod(system.box))
        re, _im = kernels_numpy.kspace_3p(*args, volume)
    elif mode is Periodicity.P2:
        area = float(system.box[0] * system.box[1])
        re, _im = kernels_numpy.kspace_2p(*args, area)
    else:
        if cfg is None:
            cfg = DEFAULT_QUADRATURE
        length = float(system.box[2])
        re, _im = kernels_numpy.kspace_1p(*args, length, cfg.abs_tol,
                                          cfg.rel_tol, cfg.max_subdivisions)
    return re


def _zero(mode, system, tpos, src, xi, code=0):
    if mode is Periodicity.P3:
        return np.zeros(len(tpos))    # the k = 0 mode is gauged away
    if mode is Periodicity.P2:
        area = float(system.box[0] * system.box[1])
        return kernels_numpy.zero_mode_2p(system.positions[:, 2],
                                          system.charges, tpos[:, 2],
                                          float(xi), area)
    length = float(system.box[2])
    if np.all(src >= 0):    # the targets are the sources
        return kernels_numpy.zero_mode_1p_sources(
            system.positions, system.charges, tpos, src, float(xi), length,
            code)
    return kernels_numpy.zero_mode_1p_points(
        system.positions, system.charges, tpos, float(xi), length)


def real_space_sum(system: ParticleSystem, mode: Periodicity, xi: float,
                   r_cut: float, layers: int, targets: EvalTargets):
    """Screened real-space sum  sum_n sum_p q_n erfc(xi r)/r  per target.

    Image shifts run over build_image_vectors(box, mode, layers); pair
    terms beyond r_cut are dropped and the (n = m, p = 0) term is skipped
    when evaluating at sources.  The formula is mode-independent — only
    the image lattice differs.
    """
    require_neutral(system)
    _check_xi(xi)
    tpos, src = _resolve_targets(system, mode, _target_points(targets))
    images = build_image_vectors(system.box, mode, layers)
    return _real(system, tpos, src, images, xi, r_cut)


def self_term(q_m: float, xi: float) -> float:
    """Self correction -(2 xi / sqrt(pi)) q_m for a charge at its own location."""
    _check_xi(xi)
    return -(2.0 * xi / SQRT_PI) * q_m


def kspace_sum_3p(system: ParticleSystem, xi: float, kgrid: KGrid,
                  targets: EvalTargets):
    """Fully periodic k-space sum (4 pi/V) sum_k e^{-k^2/4xi^2}/k^2 S_k.

    The grid is negation-closed, so the imaginary residue is at rounding
    level; the real part is returned.
    """
    _check_grid(kgrid, Periodicity.P3)
    _check_xi(xi)
    tpos, _ = _resolve_targets(system, Periodicity.P3,
                               _target_points(targets))
    return _kspace(Periodicity.P3, system, tpos, xi, kgrid)


def kspace_sum_2p(system: ParticleSystem, xi: float, kgrid: KGrid,
                  targets: EvalTargets):
    """Planar k-space sum (pi/L1L2) sum_n q_n sum_kbar e^{-i kbar.(r-r_n)} g/kbar."""
    _check_grid(kgrid, Periodicity.P2)
    _check_xi(xi)
    tpos, _ = _resolve_targets(system, Periodicity.P2,
                               _target_points(targets))
    return _kspace(Periodicity.P2, system, tpos, xi, kgrid)


def kspace_sum_1p(system: ParticleSystem, xi: float, kgrid: KGrid,
                  targets: EvalTargets, cfg=None):
    """Axial k-space sum (1/L3) sum_{k3!=0} sum_n q_n e^{-i k3 (z-z_n)} K0(u, v).

    u = k3^2/4xi^2, v = rho_n^2 xi^2; a target on a source axis (rho_n = 0)
    is legal here because K0(u, 0) = E1(u) is finite.
    """
    _check_grid(kgrid, Periodicity.P1)
    _check_xi(xi)
    tpos, _ = _resolve_targets(system, Periodicity.P1,
                               _target_points(targets))
    return _kspace(Periodicity.P1, system, tpos, xi, kgrid, cfg)


def zero_mode_2p(system: ParticleSystem, xi: float, targets: EvalTargets):
    """Planar k = 0 mode:
    -(2 sqrt(pi)/L1L2) sum_n q_n [ e^{-xi^2 dz^2}/xi + sqrt(pi) dz erf(xi dz) ].
    """
    require_neutral(system)
    _check_xi(xi)
    tpos, src = _resolve_targets(system, Periodicity.P2,
                                 _target_points(targets))
    return _zero(Periodicity.P2, system, tpos, src, xi)


def zero_mode_1p(system: ParticleSystem, xi: float, targets: EvalTargets,
                 _variant: str = "standard"):
    """Axial k3 = 0 mode.

    Off the particles: -(1/L3) sum_n q_n [ log(rho_n^2) + E1(rho_n^2 xi^2) ];
    rejected if any rho_n = 0 (the per-term log diverges; only the neutral
    at-source combination is finite there).  At sources, the neutrality-
    equivalent per-term form
    (1/L3) sum_{n != m} q_n [ -gamma - log(rho^2 xi^2) - E1(rho^2 xi^2) ]
    whose bracket vanishes as rho -> 0, so the n = m term drops.

    _variant is a test-only switch ('flip_e1' / 'flip_gamma') flipping one
    sign in the at-source bracket to demonstrate that the standard choice
    is the only one consistent with the rest of the decomposition.
    """
    require_neutral(system)
    _check_xi(xi)
    code = _variant_code(_variant)
    tpos, src = _resolve_targets(system, Periodicity.P1,
                                 _target_points(targets))
    return _zero(Periodicity.P1, system, tpos, src, xi, code)


def ewald_potential(system: ParticleSystem, mode: Periodicity,
                    params: EwaldParams, targets: EvalTargets, cfg=None,
                    _zero_mode_variant: str = "standard") -> PotentialResult:
    """Assemble real + kspace + zero_mode + self into a PotentialResult.

    Positions (and targets, along the periodic axes) are wrapped to the
    primary cell first; the result is invariant under that wrap and, up to
    truncation error, under the choice of params.xi.  Validation, the wrap,
    target resolution and the image and k-grid construction each run once
    per call.
    """
    points = _target_points(targets)
    require_neutral(system)
    if not isinstance(params, EwaldParams):
        raise ValueError("params must be an EwaldParams")
    mode = Periodicity(mode) if not isinstance(mode, Periodicity) else mode
    code = _variant_code(_zero_mode_variant)
    wrapped = system.wrapped(mode)
    if points is not None:
        points = wrap_positions(points, system.box, mode)
    tpos, src = _resolve_targets(wrapped, mode, points)
    images = build_image_vectors(wrapped.box, mode, params.real_layers)
    real = _real(wrapped, tpos, src, images, params.xi, params.r_cut)
    # built once the real-space temporaries are freed, which keeps the
    # peak RSS of 3p calls lower than building it first
    kgrid = build_kgrid(wrapped.box, mode, params.k_max)
    kspace = _kspace(mode, wrapped, tpos, params.xi, kgrid, cfg)
    zero = _zero(mode, wrapped, tpos, src, params.xi, code)
    if points is None:
        self_vec = self_term(wrapped.charges, params.xi)
    else:
        self_vec = np.zeros(len(tpos))
    breakdown = EwaldBreakdown(real=real, kspace=kspace, zero_mode=zero,
                               self_term=self_vec)
    return PotentialResult(total=breakdown.total(), real=breakdown.real,
                           kspace=breakdown.kspace,
                           zero_mode=breakdown.zero_mode,
                           self_term=breakdown.self_term)
