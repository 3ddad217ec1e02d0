"""Domain types, validation, and lattice/wave-vector set construction.

Shared by every summation path. All types are immutable after construction
and all operations are pure functions, so everything here is safe to share
across threads.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

#: relative tolerance on |sum q| / sum |q| below which a system counts as neutral
NEUTRALITY_RTOL = 1e-12

#: off-particle targets closer than COINCIDE_RTOL * min(L) to a source are rejected
COINCIDE_RTOL = 1e-10


class Periodicity(enum.Enum):
    """Periodic replication pattern: P3 in x,y,z; P2 in x,y; P1 in z."""

    P1 = "1p"
    P2 = "2p"
    P3 = "3p"

    @property
    def periodic_axes(self):
        """Indices of the periodic coordinate axes."""
        if self is Periodicity.P1:
            return (2,)
        if self is Periodicity.P2:
            return (0, 1)
        return (0, 1, 2)

    @property
    def free_axes(self):
        return tuple(i for i in range(3) if i not in self.periodic_axes)


@dataclass(frozen=True)
class ParticleSystem:
    """N point charges in an orthorhombic box.

    Parameters
    ----------
    positions : (N, 3) array
        Cartesian coordinates (length units).
    charges : (N,) array
        Signed charges.
    box : (3,) array
        Box edge lengths (L1, L2, L3), all positive and finite. The primary
        cell is [-L_i/2, L_i/2] per coordinate.

    Charge neutrality is not enforced at construction; the Ewald operations
    treat a non-neutral system as a hard error (``require_neutral``).
    """

    positions: np.ndarray
    charges: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(np.atleast_2d(np.asarray(self.positions, dtype=np.float64)))
        q = np.ascontiguousarray(np.asarray(self.charges, dtype=np.float64).ravel())
        box = np.asarray(self.box, dtype=np.float64).ravel()
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {pos.shape}")
        if len(q) != len(pos):
            raise ValueError(
                f"positions and charges disagree in length: {len(pos)} vs {len(q)}"
            )
        if len(pos) < 1:
            raise ValueError("need at least one particle")
        if box.shape != (3,):
            raise ValueError("box must contain exactly three lengths")
        if not np.all(np.isfinite(box)) or np.any(box <= 0.0):
            raise ValueError(f"box lengths must be positive and finite, got {box}")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(q)):
            raise ValueError("positions and charges must be finite")
        pos.setflags(write=False)
        q.setflags(write=False)
        box.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", q)
        object.__setattr__(self, "box", box)

    def __len__(self) -> int:
        return len(self.charges)

    @property
    def net_charge(self) -> float:
        return float(np.sum(self.charges))

    @property
    def is_neutral(self) -> bool:
        return abs(self.net_charge) <= NEUTRALITY_RTOL * float(np.sum(np.abs(self.charges)))

    def wrapped(self, mode: Periodicity) -> "ParticleSystem":
        """Copy with positions wrapped into [-L/2, L/2) along periodic axes.

        Free-direction coordinates are accepted as-is: the doubly/singly
        periodic formulas hold for any z resp. (x, y).
        """
        pos = wrap_positions(self.positions, self.box, mode)
        return ParticleSystem(pos, self.charges, self.box)


def wrap_positions(positions, box, mode: Periodicity) -> np.ndarray:
    """Wrap coordinates modulo L into [-L/2, L/2) along the periodic axes only."""
    pos = np.array(positions, dtype=np.float64, copy=True)
    pos = np.atleast_2d(pos)
    box = np.asarray(box, dtype=np.float64)
    for ax in mode.periodic_axes:
        L = box[ax]
        pos[:, ax] -= L * np.floor(pos[:, ax] / L + 0.5)
    return pos


@dataclass(frozen=True)
class EwaldParams:
    """Decomposition parameter and truncation settings.

    xi : inverse length, > 0. Controls the split between the erfc-screened
        real-space sum and the Gaussian-damped k-space sum; totals are
        xi-independent up to truncation error.
    r_cut : real-space pair-distance cutoff (length), > 0 (inf allowed).
    k_max : k-space cutoff by Euclidean norm (inverse length), > 0.
    real_layers : image shells beyond the minimum image, >= 0.
    """

    xi: float
    r_cut: float
    k_max: float
    real_layers: int

    def __post_init__(self):
        if not (self.xi > 0.0 and math.isfinite(self.xi)):
            raise ValueError(f"xi must be positive and finite, got {self.xi}")
        if not self.r_cut > 0.0:
            raise ValueError(f"r_cut must be positive, got {self.r_cut}")
        if not (self.k_max > 0.0 and math.isfinite(self.k_max)):
            raise ValueError(f"k_max must be positive and finite, got {self.k_max}")
        if self.real_layers < 0 or int(self.real_layers) != self.real_layers:
            raise ValueError(f"real_layers must be a non-negative integer, got {self.real_layers}")

    def check(self, tol: float = 1e-12) -> list:
        """Return a list of warning strings for unbalanced truncation settings."""
        warnings = []
        if math.isfinite(self.r_cut) and math.erfc(self.xi * self.r_cut) >= tol:
            warnings.append(
                f"erfc(xi*r_cut) = {math.erfc(self.xi * self.r_cut):.3e} >= {tol:.1e}; "
                "real-space truncation error may dominate"
            )
        if math.exp(-0.25 * (self.k_max / self.xi) ** 2) >= tol:
            warnings.append(
                f"exp(-k_max^2/4xi^2) = {math.exp(-0.25 * (self.k_max / self.xi) ** 2):.3e} "
                f">= {tol:.1e}; k-space truncation error may dominate"
            )
        return warnings


#: default xi times the smallest periodic box length, per mode
_XI_TIMES_L = {Periodicity.P1: 1.0, Periodicity.P2: 2.0, Periodicity.P3: 8.0}


def default_xi(box, mode: Periodicity) -> float:
    """Default decomposition parameter: c / (smallest periodic box length).

    c is 1 in 1p (xi = 1/L3), 2 in 2p (xi = 2/min(L1, L2)) and 8 in 3p
    (xi = 8/min L).  Every mode sums its k space as a 3p sum, over the
    2p and 1p lattices extended along the free axes, at a cost of about
    (M + N) K; real space costs about M N times a count set by the box and
    xi.  The fastest xi therefore moves with N and M, which this function
    does not see.  The 2p constant is the fastest of c in {1.5, 2, 2.5, 3}
    at the benchmark's N = 64, at the same accuracy.  In 1p a smaller c is
    faster, but a c below about 0.8 empties the k grid at 0.7 xi and tol
    1e-14, which would leave the xi-invariance checks no k-space sum to
    test; 1 is the smallest round constant above that.
    """
    box = np.asarray(box, dtype=np.float64)
    return _XI_TIMES_L[mode] / float(np.min(box[list(mode.periodic_axes)]))


def default_params(box, mode: Periodicity, xi: float | None = None,
                   tol: float = 1e-14) -> EwaldParams:
    """Balanced truncation heuristics.

    xi defaults to default_xi(box, mode).  r_cut solves erfc(xi*r_cut) <=
    tol (about 5.4/xi at tol=1e-14), k_max solves exp(-k_max^2/4xi^2) <=
    tol (about 11.4*xi), and real_layers = ceil(r_cut / min periodic L).
    An explicit xi must be positive and finite and tol must lie in (0, 1).
    """
    if xi is not None and not (xi > 0.0 and math.isfinite(xi)):
        raise ValueError(f"xi must be positive and finite, got {xi}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    box = np.asarray(box, dtype=np.float64)
    if xi is None:
        xi = default_xi(box, mode)
    # invert erfc by bisection: erfc is strictly decreasing
    lo, hi = 0.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid) > tol:
            lo = mid
        else:
            hi = mid
    r_cut = hi / xi
    k_max = 2.0 * xi * math.sqrt(-math.log(tol))
    return EwaldParams(xi=float(xi), r_cut=r_cut, k_max=k_max,
                       real_layers=_image_layers(box, mode, r_cut))


def _image_layers(box, mode: Periodicity, r_cut: float) -> int:
    """Image shells that reach r_cut: ceil(r_cut / min periodic L)."""
    min_per_l = float(np.min(box[list(mode.periodic_axes)]))
    return int(math.ceil(r_cut / min_per_l))


@dataclass(frozen=True)
class KGrid:
    """Wave-vector set for one periodicity mode, zero mode excluded.

    vectors : (K, 3) array for P3, (K, 2) for P2, (K,) scalars for P1.

    The set is closed under negation and ordered lexicographically by integer
    index, so summation order is deterministic.  Every mode's k-space sum
    runs over one k of each +-k pair with double weight, on the grid
    extended along the free axes (in 3p the grid itself), so the sets of
    all three modes must be closed under negation, each k as often as -k,
    and hold no k = 0: the kspace_sum_* functions reject any other grid.
    build_kgrid's norm ball keeps both in every mode.
    """

    mode: Periodicity
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.vectors)


def _index_mesh(nmax):
    """The integer points of [-n_a, n_a] per axis a, one row each: a (P, d)
    int64 array in lexicographic order, one empty row when d = 0."""
    nmax = np.asarray(nmax, dtype=np.int64)
    shape = tuple(2 * nmax + 1)
    mesh = np.indices(shape, dtype=np.int64).reshape(len(nmax), math.prod(shape))
    return np.ascontiguousarray(mesh.T - nmax)


def build_kgrid(box, mode: Periodicity, k_max: float) -> KGrid:
    """All nonzero wave vectors 2*pi*(n_i/L_i) with Euclidean norm <= k_max.

    An empty grid is legal (the k-space sum is then zero).
    """
    if not k_max > 0.0:
        raise ValueError(f"k_max must be positive, got {k_max}")
    box = np.asarray(box, dtype=np.float64)
    axes = list(mode.periodic_axes)
    base = 2.0 * np.pi / box[axes]
    idx = _index_mesh(np.floor(k_max / base).astype(np.int64))
    idx = idx[np.any(idx != 0, axis=1)]
    vecs = idx * base[None, :]
    norm = np.sqrt(np.sum(vecs * vecs, axis=1))
    vecs = vecs[norm <= k_max]
    if mode is Periodicity.P1:
        vecs = vecs[:, 0]
    vecs = np.ascontiguousarray(vecs)
    vecs.setflags(write=False)
    return KGrid(mode=mode, vectors=vecs)


def build_image_vectors(box, mode: Periodicity, layers: int) -> np.ndarray:
    """Lattice shift vectors p with indices in [-layers, layers] per periodic axis.

    Returns an (P, 3) array ordered by shell (max-norm of the integer index)
    ascending, p = 0 first, lexicographic within a shell, so truncation
    corresponds to whole symmetric shells.
    """
    if layers < 0:
        raise ValueError(f"layers must be >= 0, got {layers}")
    box = np.asarray(box, dtype=np.float64)
    axes = list(mode.periodic_axes)
    idx = _index_mesh([layers] * len(axes))
    idx = idx[np.argsort(np.max(np.abs(idx), axis=1), kind="stable")]
    out = np.zeros((len(idx), 3), dtype=np.float64)
    for col, ax in enumerate(axes):
        out[:, ax] = idx[:, col] * box[ax]
    out = np.ascontiguousarray(out)
    out.setflags(write=False)
    return out


def require_neutral(system: ParticleSystem):
    """Raise ValueError for non-neutral systems (hard error in Ewald paths)."""
    if not system.is_neutral:
        raise ValueError(
            f"net charge {system.net_charge:.1e} exceeds tolerance "
            f"(relative {NEUTRALITY_RTOL:.1e}); Ewald evaluation requires neutrality"
        )


@dataclass(frozen=True)
class PotentialResult:
    """Per-target potential totals with their Ewald breakdown.

    total = real + kspace + zero_mode + self_term, componentwise (the total is
    computed as exactly that sum). zero_mode is identically zero in P3 mode;
    self_term is identically zero for off-particle targets.
    """

    total: np.ndarray
    real: np.ndarray
    kspace: np.ndarray
    zero_mode: np.ndarray
    self_term: np.ndarray

    def __post_init__(self):
        for name in ("total", "real", "kspace", "zero_mode", "self_term"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def components(self) -> dict:
        return {
            "real": self.real,
            "kspace": self.kspace,
            "zero_mode": self.zero_mode,
            "self": self.self_term,
        }

    def __len__(self) -> int:
        return len(self.total)
