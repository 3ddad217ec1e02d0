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
checks neutrality, wraps positions and targets to the primary cell and
builds the image shifts and the k grid.  The layers then run on those plain
arrays and on one flag, whether the targets are the sources, each through
one kernel of kernels_numpy.  The public per-layer functions
(real_space_sum, kspace_sum_*, zero_mode_*) validate their own arguments,
without wrapping, and run the same layer code.

Only the real-space layer rejects a target that coincides with a source,
as erfc(xi r)/r is the only term of the split that diverges there.  Its
kernel checks the pairs whose term it forms: off the sources it rejects a
distance below COINCIDE_RTOL * min(L), at the sources a zero distance.
With default_params, after the wrap, those pairs include the minimum image
of every pair.  A target near an image that the sum never forms (a
hand-set real_layers = 0, or r_cut below that distance) is not rejected.
The k-space and 2p zero-mode terms are finite at a source; the 1p zero
mode off the sources rejects a target on a source's axis, where its
logarithm diverges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels_numpy
from .core import (
    COINCIDE_RTOL,
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
    "real_space_sum",
    "self_term",
    "kspace_sum_3p",
    "kspace_sum_2p",
    "kspace_sum_1p",
    "zero_mode_2p",
    "zero_mode_1p",
    "ewald_potential",
]

@dataclass(frozen=True)
class EvalTargets:
    """Where to evaluate: at every source (self-interaction removed) or at
    explicit off-particle points.

    Off-particle points closer than 1e-10 * min(L) to a source, or to a
    periodic image of it that the real-space sum forms, are rejected by the
    real-space layer (see the module docstring).
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


def _target_positions(system: ParticleSystem, targets):
    """The (M, 3) target positions and whether they are the sources."""
    if not isinstance(targets, EvalTargets):
        raise ValueError("targets must be an EvalTargets instance")
    if targets.is_sources:
        return system.positions, True
    return targets.points, False


def _check_xi(xi):
    if not xi > 0.0:
        raise ValueError("xi must be positive")


def _check_grid(kgrid: KGrid, mode: Periodicity):
    if not isinstance(kgrid, KGrid):
        raise ValueError("kgrid must be a KGrid")
    if kgrid.mode is not mode:
        raise ValueError(
            f"k grid was built for {kgrid.mode.value}, needed {mode.value}")
    # each kernel folds the grid onto a part of it with multiplicities: 3p
    # sums one k of each +-k pair with double weight, 1p the k3 > 0 half
    # with 2 cos and 2p the quadrant kx, ky >= 0.  That needs the grid to
    # equal, as a multiset, its image under each sign flip below; the rows
    # are compared in lexicographic order, as a hand-built grid may have no
    # indices and come in any order
    vecs = np.asarray(kgrid.vectors, dtype=np.float64)
    if vecs.ndim == 1:    # P1: one k3 per row
        vecs = vecs[:, None]
    if mode is Periodicity.P2:
        flips = ((-1.0, 1.0), (1.0, -1.0))
        closure = "the sign flip of each axis"
    else:
        flips, closure = ((-1.0,),), "negation"
    rows = vecs[np.lexsort(vecs.T[::-1])]
    for flip in flips:
        image = vecs * flip
        if not np.array_equal(rows, image[np.lexsort(image.T[::-1])]):
            raise ValueError(
                f"a {mode.value} k grid must be closed under {closure}")


# The layers proper, shared by ewald_potential and the public per-layer
# functions: validated arguments, targets tpos and whether they are the
# sources in, one kernel call out.

def _real(system, tpos, at_sources, images, xi, r_cut):
    eps = COINCIDE_RTOL * float(np.min(system.box))
    return kernels_numpy.real_space(system.positions, system.charges, tpos,
                                    at_sources, images, float(xi),
                                    float(r_cut), eps)


def _kspace(mode, system, tpos, at_sources, xi, kgrid):
    args = (system.positions, system.charges, tpos, float(xi), kgrid.vectors)
    if mode is Periodicity.P3:
        volume = float(np.prod(system.box))
        return kernels_numpy.kspace_3p(*args, volume, at_sources)
    if mode is Periodicity.P2:
        area = float(system.box[0] * system.box[1])
        return kernels_numpy.kspace_2p(*args, area, at_sources)
    cfg = DEFAULT_QUADRATURE
    length = float(system.box[2])
    return kernels_numpy.kspace_1p(*args, length, cfg.abs_tol, cfg.rel_tol,
                                   cfg.max_subdivisions)


def _zero(mode, system, tpos, at_sources, xi):
    if mode is Periodicity.P3:
        return np.zeros(len(tpos))    # the k = 0 mode is gauged away
    if mode is Periodicity.P2:
        area = float(system.box[0] * system.box[1])
        return kernels_numpy.zero_mode_2p(system.positions[:, 2],
                                          system.charges, tpos[:, 2],
                                          float(xi), area)
    length = float(system.box[2])
    if at_sources:
        return kernels_numpy.zero_mode_1p_sources(
            system.positions, system.charges, float(xi), length)
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
    tpos, at_sources = _target_positions(system, targets)
    images = build_image_vectors(system.box, mode, layers)
    return _real(system, tpos, at_sources, images, xi, r_cut)


def self_term(q_m: float, xi: float) -> float:
    """Self correction -(2 xi / sqrt(pi)) q_m for a charge at its own location."""
    _check_xi(xi)
    return -(2.0 * xi / SQRT_PI) * q_m


def kspace_sum_3p(system: ParticleSystem, xi: float, kgrid: KGrid,
                  targets: EvalTargets):
    """Fully periodic k-space sum (4 pi/V) sum_k e^{-k^2/4xi^2}/k^2 S_k.

    The grid must be closed under negation, or it is rejected, and the
    kernel is even, so the sum is real: its imaginary part is never formed,
    and each +-k pair is summed once, doubled.
    """
    _check_grid(kgrid, Periodicity.P3)
    _check_xi(xi)
    tpos, at_sources = _target_positions(system, targets)
    return _kspace(Periodicity.P3, system, tpos, at_sources, xi, kgrid)


def kspace_sum_2p(system: ParticleSystem, xi: float, kgrid: KGrid,
                  targets: EvalTargets):
    """Planar k-space sum (pi/L1L2) sum_n q_n sum_kbar e^{-i kbar.(r-r_n)} g/kbar."""
    _check_grid(kgrid, Periodicity.P2)
    _check_xi(xi)
    tpos, at_sources = _target_positions(system, targets)
    return _kspace(Periodicity.P2, system, tpos, at_sources, xi, kgrid)


def kspace_sum_1p(system: ParticleSystem, xi: float, kgrid: KGrid,
                  targets: EvalTargets):
    """Axial k-space sum (1/L3) sum_{k3!=0} sum_n q_n e^{-i k3 (z-z_n)} K0(u, v).

    u = k3^2/4xi^2, v = rho_n^2 xi^2; a target on a source axis (rho_n = 0)
    is legal here because K0(u, 0) = E1(u) is finite.
    """
    _check_grid(kgrid, Periodicity.P1)
    _check_xi(xi)
    tpos, at_sources = _target_positions(system, targets)
    return _kspace(Periodicity.P1, system, tpos, at_sources, xi, kgrid)


def zero_mode_2p(system: ParticleSystem, xi: float, targets: EvalTargets):
    """Planar k = 0 mode:
    -(2 sqrt(pi)/L1L2) sum_n q_n [ e^{-xi^2 dz^2}/xi + sqrt(pi) dz erf(xi dz) ].
    """
    require_neutral(system)
    _check_xi(xi)
    tpos, at_sources = _target_positions(system, targets)
    return _zero(Periodicity.P2, system, tpos, at_sources, xi)


def zero_mode_1p(system: ParticleSystem, xi: float, targets: EvalTargets):
    """Axial k3 = 0 mode.

    Off the particles: -(1/L3) sum_n q_n [ log(rho_n^2) + E1(rho_n^2 xi^2) ];
    rejected if any rho_n = 0 (the per-term log diverges; only the neutral
    at-source combination is finite there).  At sources, the neutrality-
    equivalent per-term form
    (1/L3) sum_{n != m} q_n [ -gamma - log(rho^2 xi^2) - E1(rho^2 xi^2) ]
    whose bracket vanishes as rho -> 0, so the n = m term drops.
    """
    require_neutral(system)
    _check_xi(xi)
    tpos, at_sources = _target_positions(system, targets)
    return _zero(Periodicity.P1, system, tpos, at_sources, xi)


def ewald_potential(system: ParticleSystem, mode: Periodicity,
                    params: EwaldParams,
                    targets: EvalTargets) -> PotentialResult:
    """Assemble real + kspace + zero_mode + self into a PotentialResult.

    Positions (and targets, along the periodic axes) are wrapped to the
    primary cell first; the result is invariant under that wrap and, up to
    truncation error, under the choice of params.xi.  Validation, the wrap
    and the image and k-grid construction each run once per call; a target
    that coincides with a source is rejected by the real-space layer.
    """
    tpos, at_sources = _target_positions(system, targets)
    require_neutral(system)
    if not isinstance(params, EwaldParams):
        raise ValueError("params must be an EwaldParams")
    mode = Periodicity(mode) if not isinstance(mode, Periodicity) else mode
    wrapped = system.wrapped(mode)
    if at_sources:
        tpos = wrapped.positions
    else:
        tpos = wrap_positions(tpos, system.box, mode)
    images = build_image_vectors(wrapped.box, mode, params.real_layers)
    real = _real(wrapped, tpos, at_sources, images, params.xi, params.r_cut)
    kgrid = build_kgrid(wrapped.box, mode, params.k_max)
    kspace = _kspace(mode, wrapped, tpos, at_sources, params.xi, kgrid)
    zero = _zero(mode, wrapped, tpos, at_sources, params.xi)
    if at_sources:
        self_vec = self_term(wrapped.charges, params.xi)
    else:
        self_vec = np.zeros(len(tpos))
    return PotentialResult(total=real + kspace + zero + self_vec, real=real,
                           kspace=kspace, zero_mode=zero, self_term=self_vec)
