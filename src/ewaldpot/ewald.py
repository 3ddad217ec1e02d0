"""Ewald decomposition of the periodic Coulomb potential.

The bare image sum  phi(x) = sum_n sum_p q_n / |x - x_n + p|  is split,
per periodicity mode, into

    real space   sum_n sum_p q_n erfc(xi r)/r            (all modes)
    k space      Gaussian-damped lattice Fourier sum     (all modes)
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
without wrapping, and run the same layer code.  _resolve is the one check
that every entry point taking targets shares: it rejects targets that are
not an EvalTargets and a xi that is not positive and finite (by
core.require_positive, the check of EwaldParams), and resolves the targets
to positions.  ewald_potential, real_space_sum and the zero modes also
require neutrality; the k-space sums are linear in the charges and take
any.

Every mode sums its k space with one kernel, kernels_numpy.kspace_3p.  In
2p and 1p the k space is a Fourier integral along the free axes,

    g(kbar, z, xi)/kbar = (2/pi) int dk3 e^{-k^2/4xi^2}/k^2 e^{i k3 z}
    K0(k3^2/4xi^2, rho^2 xi^2) = (1/pi) int d^2kappa e^{-k^2/4xi^2}/k^2
                                 e^{i kappa.rho}

with k^2 = kbar^2 + k3^2 and k^2 = kappa^2 + k3^2, and _kspace takes it by
the trapezoid rule with spacing 2 pi/L_eff per free axis.  That is the 3p
sum over an extended lattice: (kx, ky, 2 pi j/L_eff) with kbar != 0 in 2p,
(2 pi i/Lx_eff, 2 pi j/Ly_eff, k3) with k3 != 0 in 1p (kappa = 0
included), and volume V = L1 L2 L_eff or Lx_eff Ly_eff L3, so the prefactor
4 pi/V is the 3p one.  3p is the case with no free axis: one group, the
grid itself as its lattice and V = L1 L2 L3.  _extended_lattice is the one
place that forms the half lattice, one k of each +-k pair at double
weight (exact as _check_grid holds the grid closed under negation), with
the weight 8 pi/V e^{-k^2/4xi^2}/k^2 of each k.  It builds the lattice in
kspace_3p's own form, as it knows it: the free components are 2 pi j /
L_eff, each (kx, ky) pair reaches the |kz| rows that its room k^2 left
under the cut allows (one searchsorted), and the weights land in the
cells of the kernel's tiles; no list of vectors is formed, and the kernel
sorts nothing.  kspace_3p sums sum_k w_k sum_n q_n cos(k.(t - x_n)) over
that lattice.  The rule sums, besides the wanted pair term, its aliases
L_eff apart along the free axes, where the kernel has decayed like
e^{-k_min d}; k_min is the shortest grid vector, 2 pi/max(L1, L2) in 2p
and 2 pi/L3 in 1p for a build_kgrid grid.  One constant C sets these
truncations (_free_decay): C = a^2 + m, with a = min(k_max/2 xi, xi r_cut)
the argument of the looser of the two Gaussian tails the params ask for
(both sqrt(ln(1/tol)) under default_params, so C = 36.24 at tol 1e-14)
and a fixed margin m = _FREE_MARGIN = 4.  The kspace_sum_* functions take
no k_max or r_cut and use the C of default_params' tol, 1e-14.  With it:

    split    the sources and targets are split at every gap wider than
             C/k_min along a free axis (in 1p along x and along y, and
             the parts again); each group gets its own lattice, and a
             target in a group with no source gets a k-space term of 0,
             its true value being below e^-C sum |q|
    L_eff    per free axis, the extent of the group's sources and targets
             plus C/k_min, so that every alias lies C/k_min away or more
    cut      every mode's lattice stops where k^2/4xi^2 > C (a 3p grid
             of default_params has k^2/4xi^2 <= a^2 < C, so it loses no
             vector at any tol)

Both truncations cost about e^-C, e^-m = 0.018 times the tails of the
params.  As C takes the smaller argument, a k_max beyond 2 xi sqrt(C)
adds no vector and does not lengthen L_eff.  The lattice depends on the
extent of the whole group, so in 2p and 1p a target's last bits may
depend on the free-axis coordinates of the other targets in the same
call.

Only the real-space layer rejects a target that coincides with a source,
as erfc(xi r)/r is the only term of the split that diverges there.  Its
kernel checks the pairs whose term it forms: off the sources it rejects a
distance below COINCIDE_RTOL * min(L), at the sources a zero distance.
With default_params, after the wrap, those pairs include the minimum image
of every pair.  A target near an image that the sum never forms (a
hand-set real_layers = 0, or r_cut below that distance) is not rejected.
The k-space and zero-mode terms are finite at every point, so the
real-space kernel is the only one that checks where a target lies: the 1p
zero mode sums the screened logarithm, whose bracket is 0 on a source's
axis, so a target there evaluates like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels_numpy
from .core import (
    _DEFAULT_TOL,
    COINCIDE_RTOL,
    EwaldParams,
    KGrid,
    ParticleSystem,
    Periodicity,
    PotentialResult,
    _gauss_cut,
    build_image_vectors,
    build_kgrid,
    require_neutral,
    require_positive,
    wrap_positions,
)
from .specfun import SQRT_PI

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

#: m of the free-axis constant C = a^2 + m (see the module docstring)
_FREE_MARGIN = 4.0


def _free_decay(params: EwaldParams | None = None) -> float:
    """C of the k-space sums (module docstring), a^2 + _FREE_MARGIN.

    a = min(k_max/2 xi, xi r_cut) of params, the argument of the looser of
    its two Gaussian tails; without params a = sqrt(ln(1/tol)) at the tol
    of default_params, for the kspace_sum_* functions, which take no k_max
    or r_cut.
    """
    if params is None:
        a = _gauss_cut(_DEFAULT_TOL)
    else:
        a = min(0.5 * params.k_max / params.xi, params.xi * params.r_cut)
    return a * a + _FREE_MARGIN


@dataclass(frozen=True)
class EvalTargets:
    """Where to evaluate: at every source (self-interaction removed) or at
    explicit off-particle points.

    Off-particle points closer than 1e-10 * min(L) to a source, or to a
    periodic image of it that the real-space sum forms, are rejected by the
    real-space layer, the only one that checks them (see the module
    docstring).  Points must be finite and form an (M, 3) array.
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


def _resolve(system: ParticleSystem, xi, targets):
    """Check that targets is an EvalTargets and xi is positive and finite;
    return the (M, 3) target positions and whether they are the sources."""
    if not isinstance(targets, EvalTargets):
        raise ValueError("targets must be an EvalTargets instance")
    require_positive("xi", xi)
    if targets.is_sources:
        return system.positions, True
    return targets.points, False


def _check_grid(kgrid: KGrid, mode: Periodicity):
    if not isinstance(kgrid, KGrid):
        raise ValueError("kgrid must be a KGrid")
    if kgrid.mode is not mode:
        raise ValueError(
            f"k grid was built for {kgrid.mode.value}, needed {mode.value}")
    # one row per vector (in P1 one k3 per row)
    vecs = np.atleast_2d(np.asarray(kgrid.vectors, dtype=np.float64).T).T
    # k = 0 belongs to the zero mode, and its weight 1/k^2 has no value
    if not vecs.any(axis=1).all():
        raise ValueError(f"a {mode.value} k grid must not hold the zero vector")
    # _extended_lattice keeps one k of each +-k pair with double weight,
    # which needs the grid to equal its negation as a multiset (the
    # extended lattices of 2p and 1p inherit that closure); a hand-built
    # grid may come in any order, so the rows are sorted lexicographically,
    # and as negation reverses that order, the sorted negation is the
    # sorted rows negated and reversed
    rows = vecs[np.lexsort(vecs.T[::-1])]
    if not np.array_equal(rows, -rows[::-1]):
        raise ValueError(f"a {mode.value} k grid must be closed under negation")


# The layers proper, shared by ewald_potential and the public per-layer
# functions: validated arguments, targets tpos and whether they are the
# sources in, one kernel call out.

def _real(system, tpos, at_sources, images, xi, r_cut):
    eps = COINCIDE_RTOL * float(np.min(system.box))
    return kernels_numpy.real_space(system.positions, system.charges, tpos,
                                    at_sources, images, float(xi),
                                    float(r_cut), eps)


def _free_groups(coords, gap):
    """Index arrays of the rows of coords (free-axis coordinates, one column
    per free axis) split at every gap wider than gap along any axis.

    A group is split along its first axis with such a gap, and its parts in
    turn, until no group has one; each group holds ascending indices.  No
    axis whose extent is at most gap has such a gap, so then the rows form
    one group, found without a sort.
    """
    if (np.ptp(coords, axis=0) <= gap).all():
        return [np.arange(len(coords))]
    todo, groups = [np.arange(len(coords))], []
    while todo:
        idx = todo.pop()
        for col in coords[idx].T:
            order = np.argsort(col, kind="stable")
            cuts = np.flatnonzero(np.diff(col[order]) > gap) + 1
            if len(cuts):
                todo += [np.sort(part) for part in np.split(idx[order], cuts)]
                break
        else:
            groups.append(idx)
    return groups


def _extended_lattice(mode, box, kp, lengths, xi, decay, step):
    """The grid as a 3p half lattice, in kspace_3p's form for slices of
    step pairs: (axes, px, py, wsd, slices) (see kspace_3p).

    kp holds the grid vectors, one row each, closed under negation.  Each
    is joined with the free components 2 pi j / lengths (j integer per
    free axis) that pass free^2 <= room = 4 xi^2 C - kp^2, C = decay (the
    free-axis constant, module docstring), so k^2 <= 4 xi^2 C (in 3p,
    which has no free axis, the grid cut at that k^2).  Of each +-k pair
    the vector whose first nonzero component is positive is kept, so
    kx >= 0 and only the y table may take signed rows.  V is the product of the periodic box lengths and
    lengths (L1 L2 L3 in 3p).

    The lattice is built in that form, not recovered from a vector list.
    A free axis takes its distinct |u| as j 2 pi / lengths.  In 2p the
    pairs are the grid's (kx, ky) and each reaches the |kz| rows j with
    (j 2 pi / L_eff)^2 <= its room; in 1p the pairs are the mesh
    (i, j) 2 pi / L_eff and each reaches the grid's |k3| rows whose room
    holds its kx^2 + ky^2: one searchsorted each, the test above, so a
    pair holds every row up to its last.  In 3p the grid vectors give
    pairs, rows and cells, and a grid whose staircase of (pair, |kz|)
    cells exceeds 2K + step, K the vectors kept, raises ValueError: no
    lattice cut by |k| comes near that, so every array stays
    O(K + step).

    A vector's weight is (pref exp(-k^2 quart)) / k^2, k^2 = (kx^2 + ky^2)
    + kz^2 of the table values, pref = 8 pi/V (twice 4 pi/V, exactly, for
    the -k left out), quart = 1/(4 xi^2) and exp glibc libm's
    (kernels_numpy._exp).  A cell's w+ and w- are the weights of its
    vectors with kz >= 0 and kz < 0 (np.bincount): in 3p each grid
    vector's in grid order, in 2p and 1p m times the cell's weight for m
    like vectors (grid rows that occur twice, or the grid's -|k3| rows,
    as many as its +|k3| ones by the closure), 0.0 for none.
    """
    top = 4.0 * xi * xi * decay
    room = top - sum(u * u for u in kp.T)    # (kp * kp).sum(axis=1)
    base = 2.0 * np.pi / lengths
    span = np.floor(math.sqrt(max(0.0, room.max())) / base).astype(np.int64)
    if mode is Periodicity.P1:    # pairs (i bx, j by) of the free mesh
        # rows: the |k3| of the grid, each with as many +|k3| as -|k3|
        # vectors (the grid closed under negation)
        uz, count = np.unique(np.abs(kp[room >= 0.0, 0]),
                              return_counts=True)
        mult = np.array([count, count]) // 2
        nj = 2 * span[1] + 1    # the mesh with i >= 0, |j| <= span
        i, j = np.divmod(np.arange((span[0] + 1) * nj), nj)
        j -= span[1]
        kx, ky = i * base[0], j * base[1]
        # per pair its last row: the rows with kx^2 + ky^2 <= their room
        row = np.searchsorted(uz * uz - top, -(kx * kx + ky * ky),
                              "right") - 1
        keep = (row >= 0) & ((i > 0) | (j >= 0))
        ix, iy, ky, row = i[keep], np.abs(j[keep]), ky[keep], row[keep]
        ux = np.arange(ix.max(initial=-1) + 1) * base[0]
        uy = np.arange(iy.max(initial=-1) + 1) * base[1]
    else:    # pairs from the grid; rows its |kz| (3p) or free (2p)
        kx, ky, kz = kp.T[[0, 1, -1]]    # 2p: kz = ky
        keep = (room >= 0.0) & ((kx > 0.0) | (kx == 0.0) & (
            (ky > 0.0) | (ky == 0.0) & (kz > 0.0)))
        kx, ky, kz = kx[keep], ky[keep], kz[keep]
        ux, ix = np.unique(np.abs(kx), return_inverse=True)
        uy, iy = np.unique(np.abs(ky), return_inverse=True)
        if mode is Periodicity.P3:
            uz, row = np.unique(np.abs(kz), return_inverse=True)
        else:    # per grid vector its last row: the kz^2 <= its room
            uz = np.arange(span[0] + 1) * base[0]
            row = np.searchsorted(uz * uz, room[keep], "right") - 1
            uz = uz[:row.max(initial=-1) + 1]
            mult = np.arange(len(uz)) > [[-1], [0]]    # +kz; -kz but 0
    ny = len(uy) * (1 + bool((ky < 0.0).any()))
    keys, pair = np.unique(ix * ny + iy + len(uy) * (ky < 0.0),
                           return_inverse=True)
    last = np.zeros(len(keys), np.intp)
    np.maximum.at(last, pair, row)
    order = np.argsort(-last, kind="stable")
    px, py = np.divmod(keys[order], ny)
    last, pair = last[order], np.argsort(order)[pair]
    kx, ky = ux[px], uy[py % len(uy)]    # per pair
    # the weighted (pair, row) terms: in 3p one per grid vector kept, m 1
    # for its sign; else one per cell of the staircase, a pair's rows up
    # to its last, m its grid vector's +-kz (2p) or its row's grid
    # vectors (1p; the pair (0, 0) the +|k3| ones only)
    if mode is Periodicity.P3:
        p, r, m = pair, row, np.array([kz >= 0.0, kz < 0.0])
        if len(last) + last.sum() > 2 * len(kz) + step:
            raise ValueError(f"kspace_3p: {len(last) + last.sum()} (pair, "
                             f"|kz|) cells exceed 2K + step, K = {len(kz)}")
    else:
        n = row + 1
        p = np.repeat(pair, n)
        r = np.arange(len(p)) - np.repeat(np.cumsum(n) - n, n)
        m = mult[:, r]
        m[1] *= ((kx != 0.0) | (ky != 0.0))[p]
    k2 = (kx * kx + ky * ky)[p] + uz[r] * uz[r]
    volume = np.prod(box[list(mode.periodic_axes)]) * np.prod(lengths)
    mw = m * (8.0 * math.pi / volume * kernels_numpy._exp(
        -k2 * (0.25 / (xi * xi))) / k2)
    slices, cell, end = kernels_numpy._tiles(last, step, p, r)
    # per cell w+ + w- and w+ - w-
    wsd = np.bincount(cell, mw[0], end) + np.bincount(
        cell, mw[1], end) * np.array([[1.0], [-1.0]])
    return [(ux, False), (uy, ny > len(uy)), (uz, False)], px, py, wsd, slices


def _kspace(mode, system, tpos, at_sources, xi, kgrid, decay):
    pos, q, box, xi = system.positions, system.charges, system.box, float(xi)
    out = np.zeros(len(tpos))
    # one row per vector (in P1 one k3 per row)
    kp = np.atleast_2d(np.asarray(kgrid.vectors, dtype=np.float64).T).T
    if not len(kp):
        return out
    # C/k_min: the split distance and the margin of L_eff
    reach = decay / math.sqrt(sum(u * u for u in kp.T).min())
    free = list(mode.free_axes)
    coords = pos[:, free] if at_sources else np.vstack([pos, tpos])[:, free]
    n = len(pos)
    for group in _free_groups(coords, reach):
        src = group[group < n]
        tgt = src if at_sources else group[group >= n] - n
        if not (len(src) and len(tgt)):
            continue    # no source within reach: the term is below e^-C
        lengths = np.ptp(coords[group], axis=0) + reach
        lattice = _extended_lattice(mode, box, kp, lengths, xi, decay, max(
            1, kernels_numpy._K_ELEMENTS // len(src)))
        out[tgt] = kernels_numpy.kspace_3p(pos[src], q[src], tpos[tgt],
                                           lattice, at_sources)
    return out


def _zero(mode, system, tpos, at_sources, xi):
    if mode is Periodicity.P3:
        return np.zeros(len(tpos))    # the k = 0 mode is gauged away
    if mode is Periodicity.P2:
        area = float(system.box[0] * system.box[1])
        return kernels_numpy.zero_mode_2p(system.positions[:, 2],
                                          system.charges, tpos[:, 2],
                                          float(xi), area)
    return kernels_numpy.zero_mode_1p(system.positions, system.charges, tpos,
                                      float(xi), float(system.box[2]),
                                      at_sources)


def real_space_sum(system: ParticleSystem, mode: Periodicity, xi: float,
                   r_cut: float, layers: int, targets: EvalTargets):
    """Screened real-space sum  sum_n sum_p q_n erfc(xi r)/r  per target.

    Image shifts run over build_image_vectors(box, mode, layers); pair
    terms beyond r_cut are dropped and the (n = m, p = 0) term is skipped
    when evaluating at sources.  The formula is mode-independent — only
    the image lattice differs.  r_cut and layers follow the rules of
    EwaldParams: r_cut > 0 (infinity allowed), layers a non-negative
    integer.
    """
    require_neutral(system)
    tpos, at_sources = _resolve(system, xi, targets)
    require_positive("r_cut", r_cut, finite=False)
    images = build_image_vectors(system.box, mode, layers)
    return _real(system, tpos, at_sources, images, xi, r_cut)


def self_term(q_m: float, xi: float) -> float:
    """Self correction -(2 xi / sqrt(pi)) q_m for a charge at its own location."""
    require_positive("xi", xi)
    return -(2.0 * xi / SQRT_PI) * q_m


def kspace_sum_3p(system: ParticleSystem, xi: float, kgrid: KGrid,
                  targets: EvalTargets):
    """Fully periodic k-space sum (4 pi/V) sum_k e^{-k^2/4xi^2}/k^2 S_k.

    A grid not closed under negation or holding k = 0 is rejected.  The
    kernel is even, so the sum is real: its imaginary part is never formed,
    and each +-k pair is summed once, doubled (module docstring).  Without
    k_max or r_cut the sum takes C of default_params' tol, 1e-14
    (_free_decay()): vectors with k^2/4xi^2 > C = 36.24 are dropped.
    """
    _check_grid(kgrid, Periodicity.P3)
    tpos, at_sources = _resolve(system, xi, targets)
    return _kspace(Periodicity.P3, system, tpos, at_sources, xi, kgrid,
                   _free_decay())


def kspace_sum_2p(system: ParticleSystem, xi: float, kgrid: KGrid,
                  targets: EvalTargets):
    """Planar k-space sum (pi/L1L2) sum_n q_n sum_kbar e^{-i kbar.(r-r_n)} g/kbar.

    Taken as the 3p sum over the grid extended along z (module docstring);
    a grid not closed under negation or holding k = 0 is rejected.
    Without k_max or r_cut the alias margin and the cut take C of
    default_params' tol, 1e-14 (_free_decay(), C = 36.24).
    """
    _check_grid(kgrid, Periodicity.P2)
    tpos, at_sources = _resolve(system, xi, targets)
    return _kspace(Periodicity.P2, system, tpos, at_sources, xi, kgrid,
                   _free_decay())


def kspace_sum_1p(system: ParticleSystem, xi: float, kgrid: KGrid,
                  targets: EvalTargets):
    """Axial k-space sum (1/L3) sum_{k3!=0} sum_n q_n e^{-i k3 (z-z_n)} K0(u, v).

    u = k3^2/4xi^2, v = rho_n^2 xi^2.  K0(u, 0) = E1(u) is finite, so the
    sum is finite at a target on the axis of a source (rho_n = 0), as is
    the 1p zero mode there.  Taken as the 3p sum over the grid extended
    along x and y (module docstring); a grid not closed under negation or
    holding k = 0 is rejected.  Without k_max or r_cut the alias margin
    and the cut take C of default_params' tol, 1e-14 (_free_decay(),
    C = 36.24).
    """
    _check_grid(kgrid, Periodicity.P1)
    tpos, at_sources = _resolve(system, xi, targets)
    return _kspace(Periodicity.P1, system, tpos, at_sources, xi, kgrid,
                   _free_decay())


def zero_mode_2p(system: ParticleSystem, xi: float, targets: EvalTargets):
    """Planar k = 0 mode:
    -(2 sqrt(pi)/L1L2) sum_n q_n [ e^{-xi^2 dz^2}/xi + sqrt(pi) dz erf(xi dz) ].
    """
    require_neutral(system)
    tpos, at_sources = _resolve(system, xi, targets)
    return _zero(Periodicity.P2, system, tpos, at_sources, xi)


def zero_mode_1p(system: ParticleSystem, xi: float, targets: EvalTargets):
    """Axial k3 = 0 mode
    (1/L3) sum_n q_n [ -gamma - log(rho_n^2 xi^2) - E1(rho_n^2 xi^2) ].

    By neutrality this equals -(1/L3) sum_n q_n [ log(rho_n^2)
    + E1(rho_n^2 xi^2) ], but its bracket, -Ein(rho_n^2 xi^2) with Ein
    entire, is finite per term and tends to 0 as rho_n -> 0 (it is exactly
    0 at rho_n = 0).  So the same sum serves at the sources, where the
    n = m term drops, and at any point, one on the axis of a source
    included.
    """
    require_neutral(system)
    tpos, at_sources = _resolve(system, xi, targets)
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
    if not isinstance(params, EwaldParams):
        raise ValueError("params must be an EwaldParams")
    tpos, at_sources = _resolve(system, params.xi, targets)
    require_neutral(system)
    mode = Periodicity(mode)
    wrapped = system.wrapped(mode)
    if at_sources:
        tpos = wrapped.positions
    else:
        tpos = wrap_positions(tpos, system.box, mode)
    images = build_image_vectors(wrapped.box, mode, params.real_layers)
    real = _real(wrapped, tpos, at_sources, images, params.xi, params.r_cut)
    kgrid = build_kgrid(wrapped.box, mode, params.k_max)
    kspace = _kspace(mode, wrapped, tpos, at_sources, params.xi, kgrid,
                     _free_decay(params))
    zero = _zero(mode, wrapped, tpos, at_sources, params.xi)
    if at_sources:
        self_vec = self_term(wrapped.charges, params.xi)
    else:
        self_vec = np.zeros(len(tpos))
    return PotentialResult(total=real + kspace + zero + self_vec, real=real,
                           kspace=kspace, zero_mode=zero, self_term=self_vec)
